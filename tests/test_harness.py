"""Batch computation, replica averaging, cross-validation, and the
error-versus-budget experiment."""

import dataclasses
import itertools
import random
import re
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    METHODS,
    ORACLE_LIMIT,
    BudgetSpec,
    Dataset,
    Descriptor,
    EdgeStream,
    GabeState,
    canberra,
    MaeveState,
    build_graph,
    compute_descriptors,
    cross_validate,
    error_vs_budget,
    exact_gabe_descriptor,
    exact_maeve_descriptor,
    gabe_descriptor,
    gabe_finalize,
    gabe_process_edge,
    maeve_descriptor,
    maeve_finalize,
    maeve_process_edge,
    replicated,
)
from streamdesc.errors import BudgetTooSmallError, OracleSizeError
from streamdesc.graph import derive_seed
from streamdesc.patterns import STREAM_ESTIMATED

from conftest import random_stream


# ---------------------------------------------------------------- budgets


def test_budget_spec_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        BudgetSpec()
    with pytest.raises(ValueError):
        BudgetSpec(fraction=0.5, edges=10)
    with pytest.raises(ValueError):
        BudgetSpec(fraction=0.0)
    for fraction in (float("inf"), float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            BudgetSpec(fraction=fraction)
    with pytest.raises(ValueError):
        BudgetSpec(edges=0)


def test_budget_spec_resolution():
    assert BudgetSpec(edges=7).resolve(1000) == 7
    assert BudgetSpec(fraction=0.25).resolve(10) == 3  # ceil(2.5)
    assert BudgetSpec(fraction=1.0).resolve(48) == 48
    assert BudgetSpec(fraction=0.001).resolve(10) == 1  # floor of 1
    assert BudgetSpec(fraction=1e308).resolve(1) == int(1e308)
    with pytest.raises(ValueError, match="too large"):
        BudgetSpec(fraction=1e308).resolve(2)  # overflows to inf


@pytest.mark.parametrize("fraction", [1.5, 3.0])
def test_budget_fraction_above_one_matches_full_budget(fraction):
    stream = random_stream(30, 0.3, seed=60)
    m = len(stream)
    b = BudgetSpec(fraction=fraction).resolve(m)
    assert b == ceil(fraction * m) > m
    for method in METHODS:
        over = replicated(stream, method, b, 1, 5)
        full = replicated(stream, method, m, 1, 5)
        assert over.b == b and full.b == m
        assert [x.hex() for x in over.values] == [x.hex() for x in full.values]


# --------------------------------------------------------------- replicas


def test_single_replica_matches_plain_run():
    stream = random_stream(12, 0.4, seed=50)
    for b in (8, len(stream)):
        a = replicated(stream, "gabe", b, 1, 123)
        c = gabe_descriptor(stream, b, seed=123)
        assert np.array_equal(a.values, c.values)
        a = replicated(stream, "maeve", b, 1, 123)
        c = maeve_descriptor(stream, b, seed=123)
        assert np.array_equal(a.values, c.values)


class OneShot:
    """Stream wrapper that counts passes and forbids a second one."""

    def __init__(self, stream):
        self._edges = list(stream)
        self.n_hint = stream.n_hint
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        if self.passes > 1:
            raise AssertionError("stream iterated more than once")
        return iter(self._edges)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_replicas_share_one_pass(method):
    stream = random_stream(14, 0.35, seed=53)
    one = OneShot(stream)
    got = replicated(one, method, 9, 3, 400)
    assert one.passes == 1
    assert np.array_equal(got.values, replicated(stream, method, 9, 3, 400).values)


def test_gabe_replicas_average_raw_estimates():
    stream = random_stream(14, 0.35, seed=51)
    b, base = 9, 700
    states = []
    for i in range(2):
        s = GabeState(b, base + i, n_hint=stream.n_hint)
        for edge in stream:
            gabe_process_edge(s, edge)
        states.append(s)
    states[0].est = {pid: (states[0].est[pid] + states[1].est[pid]) / 2
                     for pid in STREAM_ESTIMATED}
    expected = gabe_finalize(states[0])
    got = replicated(stream, "gabe", b, 2, base)
    assert np.array_equal(got.values, expected.values)


def test_maeve_replicas_average_vertex_counts():
    stream = random_stream(14, 0.35, seed=52)
    b, base = 9, 900
    states = []
    for i in range(2):
        s = MaeveState(b, base + i, n_hint=stream.n_hint)
        for edge in stream:
            maeve_process_edge(s, edge)
        states.append(s)
    tri: dict = {}
    path: dict = {}
    for s in states:
        for v, x in s.tri.items():
            tri[v] = tri.get(v, 0.0) + x / 2
        for v, x in s.path.items():
            path[v] = path.get(v, 0.0) + x / 2
    states[0].tri, states[0].path = tri, path
    expected = maeve_finalize(states[0])
    got = replicated(stream, "maeve", b, 2, base)
    assert np.array_equal(got.values, expected.values)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_estimators_refuse_labels_outside_range(method):
    # the estimators apply build_graph's vertex-count rule, at finalize
    b = METHODS[method].state.MIN_BUDGET
    too_high = EdgeStream([(0, 1), (1, 5), (0, 5)], n_hint=3)
    message = "n_hint=3 is below max vertex label 5"
    with pytest.raises(ValueError, match=message):
        build_graph(too_high)
    for replicas in (1, 2):
        with pytest.raises(ValueError, match=message):
            replicated(too_high, method, b, replicas, 0)
    for n_hint in (None, 3):
        negative = EdgeStream([(0, 1), (-1, 1)], n_hint=n_hint)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            build_graph(negative)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            replicated(negative, method, b, 1, 0)


@st.composite
def small_streams(draw):
    """A simple graph on n <= 7 labelled vertices in a drawn order, with
    up to 3 more vertices known only through n_hint."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = draw(st.permutations([e for e, k in zip(pairs, keep) if k]))
    return EdgeStream(edges, n_hint=n + draw(st.integers(0, 3)))


@given(stream=small_streams(), method=st.sampled_from(sorted(METHODS)),
       extra=st.integers(0, 22), replicas=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
@settings(max_examples=200)
def test_replicated_on_small_streams(stream, method, extra, replicas, seed):
    # empty streams, n < 4 and isolated vertices known only through n_hint
    b = METHODS[method].state.MIN_BUDGET + extra
    d = replicated(stream, method, b, replicas, seed)
    assert (d.n, d.m, d.b) == (stream.n_hint, len(stream), b)
    assert np.all(np.isfinite(d.values))
    if b >= len(stream):
        g = build_graph(stream)
        if method == "maeve":
            exact = exact_maeve_descriptor(g)
            assert [x.hex() for x in d.values] == [x.hex() for x in exact.values]
        else:
            exact = exact_gabe_descriptor(g)
            assert np.allclose(d.values, exact.values, rtol=0, atol=1e-12)


# ------------------------------------------------------- batch computation


def small_dataset():
    graphs = [
        random_stream(10, 0.5, seed=401),
        random_stream(11, 0.5, seed=402),
        random_stream(12, 0.5, seed=403),
    ]
    for g in graphs:
        assert len(g) >= 13  # keeps fraction budgets above the gabe minimum
    return Dataset(graphs=graphs, labels=[0, 1, 0], name="tiny")


def test_compute_descriptors_alignment_and_metadata():
    ds = small_dataset()
    descs, errors = compute_descriptors(
        ds, "maeve", BudgetSpec(fraction=0.5), seed=5)
    assert errors == [None, None, None]
    for idx, (d, stream) in enumerate(zip(descs, ds.graphs)):
        assert d.graph_id == idx
        assert d.method == "maeve"
        assert d.n == stream.n_hint
        assert d.m == len(stream)
        assert d.b == BudgetSpec(fraction=0.5).resolve(len(stream))
        assert d.seed == derive_seed(5, "graph", idx)
        assert d.values.shape == (20,)


def test_compute_descriptors_reports_budget_failures_and_continues():
    from streamdesc import preprocess

    square = preprocess([(0, 1), (1, 2), (2, 3), (3, 0)], seed=0)
    ds = Dataset(
        graphs=[random_stream(10, 0.5, seed=401), square,
                random_stream(12, 0.5, seed=403)],
        labels=[0, 1, 0])
    descs, errors = compute_descriptors(ds, "gabe", BudgetSpec(fraction=0.5))
    assert descs[1] is None
    assert "graph 1:" in errors[1] and "budget" in errors[1]
    assert descs[0] is not None and descs[2] is not None
    assert errors[0] is None and errors[2] is None


def test_compute_descriptors_thread_count_does_not_change_results():
    ds = small_dataset()
    spec = BudgetSpec(edges=8)
    serial, _ = compute_descriptors(
        ds, "gabe", spec, workers=2, seed=9, max_threads=1)
    parallel, _ = compute_descriptors(
        ds, "gabe", spec, workers=2, seed=9, max_threads=8)
    for a, c in zip(serial, parallel):
        assert np.array_equal(a.values, c.values)


def test_compute_descriptors_validation():
    ds = small_dataset()
    with pytest.raises(ValueError, match="unknown method"):
        compute_descriptors(ds, "spectral", BudgetSpec(edges=8))
    with pytest.raises(ValueError, match="workers"):
        compute_descriptors(ds, "gabe", BudgetSpec(edges=8), workers=0)
    with pytest.raises(ValueError, match="replicas"):
        replicated(ds.graphs[0], "gabe", 8, 0, 0)
    with pytest.raises(ValueError, match="unknown method"):
        replicated(ds.graphs[0], "spectral", 8, 1, 0)


# --------------------------------------------------------- classification


def hand_descriptor(i, values, method="gabe"):
    values = np.asarray(values, dtype=float)
    return Descriptor(
        graph_id=i, method=method, b=5, seed=0, n=4, m=3, values=values)


def separable_descriptors(per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    descs, labels = [], []
    for i in range(per_class):
        v = np.concatenate([1 + 0.01 * rng.random(8), 0.01 * rng.random(9)])
        descs.append(hand_descriptor(i, v))
        labels.append(0)
    for i in range(per_class):
        v = np.concatenate([0.01 * rng.random(8), 1 + 0.01 * rng.random(9)])
        descs.append(hand_descriptor(per_class + i, v))
        labels.append(1)
    return descs, labels


def test_cross_validate_separates_clean_classes():
    descs, labels = separable_descriptors()
    report = cross_validate(descs, labels, folds=5, repeats=3, seed=1)
    assert report.mean_accuracy == 1.0
    assert report.std_accuracy == 0.0
    assert len(report.fold_accuracies) == 15
    assert report.config["folds"] == 5
    assert report.config["repeats"] == 3
    assert report.config["method"] == "gabe"


def test_cross_validate_is_seed_deterministic():
    descs, labels = separable_descriptors()
    a = cross_validate(descs, labels, folds=4, repeats=2, seed=3)
    c = cross_validate(descs, labels, folds=4, repeats=2, seed=3)
    assert a.fold_accuracies == c.fold_accuracies


def test_cross_validate_near_chance_on_noise():
    rng = np.random.default_rng(7)
    descs = [hand_descriptor(i, rng.random(17)) for i in range(40)]
    labels = [i % 2 for i in range(40)]
    report = cross_validate(descs, labels, folds=5, repeats=10, seed=2)
    assert 0.25 <= report.mean_accuracy <= 0.75


def test_cross_validate_leave_one_out():
    descs, labels = separable_descriptors(per_class=3)
    report = cross_validate(descs, labels, folds=6, repeats=1, seed=0)
    assert len(report.fold_accuracies) == 6
    assert report.mean_accuracy == 1.0


def test_cross_validate_tie_goes_to_lowest_graph_id():
    # four equal vectors: every neighbour ties at distance 0, and the
    # lowest graph_id (0, the only label-1 item) wins every fold but its
    # own, where graph_id 1 (label 0) wins
    ids = [3, 0, 2, 1]
    descs = [hand_descriptor(i, np.ones(17)) for i in ids]
    labels = [int(i == 0) for i in ids]
    report = cross_validate(descs, labels, folds=4, repeats=2, seed=5)
    assert report.fold_accuracies == [0.0] * 8


def reference_fold_accuracies(descs, labels, folds, repeats, seed):
    """The documented split and tie rule, one test item at a time."""
    n = len(descs)
    accuracies = []
    for r in range(repeats):
        order = list(range(n))
        random.Random(derive_seed(seed, "cv", r)).shuffle(order)
        base, extra = divmod(n, folds)
        at = 0
        for i in range(folds):
            size = base + (i < extra)
            test = order[at:at + size]
            at += size
            correct = 0
            for t in test:
                dists = [(canberra(descs[t].values, descs[j].values), descs[j].graph_id, j)
                         for j in range(n) if j not in test]
                correct += labels[min(dists)[2]] == labels[t]
            accuracies.append(correct / len(test))
    return accuracies


def test_cross_validate_matches_reference_with_duplicates():
    # 30 duplicated vectors with flipped labels and shuffled graph_ids:
    # most test items meet an exact tie between the two classes
    rng = np.random.default_rng(12)
    base = [rng.random(17) for _ in range(40)]
    vectors = base + base[:30]
    labels = [i % 2 for i in range(40)] + [1 - i % 2 for i in range(30)]
    ids = rng.permutation(70)
    descs = [hand_descriptor(int(i), v) for i, v in zip(ids, vectors)]
    for folds, repeats in ((7, 2), (10, 1), (70, 1)):
        report = cross_validate(descs, labels, folds=folds, repeats=repeats, seed=4)
        assert report.fold_accuracies == reference_fold_accuracies(
            descs, labels, folds, repeats, seed=4)


def test_cross_validate_validation():
    descs, labels = separable_descriptors(per_class=3)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(descs, labels, folds=1)
    with pytest.raises(ValueError, match="cannot split"):
        cross_validate(descs, labels, folds=7)
    with pytest.raises(ValueError, match="labels"):
        cross_validate(descs, labels[:-1])
    with pytest.raises(ValueError, match="2 classes"):
        cross_validate(descs, [0] * 6, folds=2)
    mixed = [hand_descriptor(0, np.zeros(17)),
             hand_descriptor(1, np.zeros(20), method="maeve")]
    with pytest.raises(ValueError, match="mixed"):
        cross_validate(mixed, [0, 1], folds=2)


# --------------------------------------------------------- error vs budget


def evb_dataset():
    graphs = [random_stream(10, 0.5, seed=s) for s in (401, 402, 403)]
    for g in graphs:
        assert len(g) >= 13
    return Dataset(graphs=graphs, labels=[0] * 3)


def test_error_vs_budget_full_budget_recovers_exact():
    ds = evb_dataset()
    rows = error_vs_budget(ds, "gabe", [1.0], trials=2, seed=4)
    assert rows[0][0] == 1.0
    assert rows[0][1] < 1e-12
    rows = error_vs_budget(ds, "maeve", [1.0], trials=2, seed=4)
    assert rows[0][1] == 0.0


def test_error_vs_budget_rows_and_determinism():
    ds = evb_dataset()
    a = error_vs_budget(ds, "gabe", [0.4, 1.0], trials=3, seed=8)
    assert [r[0] for r in a] == [0.4, 1.0]
    assert all(r[1] >= 0 for r in a)
    c = error_vs_budget(ds, "gabe", [0.4, 1.0], trials=3, seed=8)
    assert a == c


def test_error_vs_budget_respects_oracle_limit():
    ds = Dataset(graphs=[random_stream(ORACLE_LIMIT + 1, 0.05, seed=77)], labels=[0])
    with pytest.raises(OracleSizeError):
        error_vs_budget(ds, "gabe", [1.0], trials=1)


def test_error_vs_budget_does_not_cap_maeve():
    # the egonet oracle is polynomial, so the vertex cap is gabe's only
    ds = Dataset(graphs=[random_stream(ORACLE_LIMIT + 1, 0.05, seed=77)], labels=[0])
    assert ds.graphs[0].n == ORACLE_LIMIT + 1
    rows = error_vs_budget(ds, "maeve", [0.5, 1.0], trials=1)
    assert [f for f, _ in rows] == [0.5, 1.0]
    assert rows[1][1] < 1e-12


@pytest.mark.parametrize("method, fraction", [("gabe", 0.1), ("maeve", 0.01)])
def test_error_vs_budget_rejects_small_budget_before_oracle(monkeypatch, method, fraction):
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the budget check")

    for name, spec in list(METHODS.items()):
        monkeypatch.setitem(METHODS, name, dataclasses.replace(spec, exact=no_oracle))
    ds = evb_dataset()
    b = BudgetSpec(fraction=fraction).resolve(len(ds.graphs[0]))
    minimum = 5 if method == "gabe" else 2
    assert b < minimum
    message = (f"graph 0: budget fraction {fraction} gives b = {b}; "
               f"need at least {minimum} for {method}")
    with pytest.raises(BudgetTooSmallError, match=re.escape(message)):
        error_vs_budget(ds, method, [1.0, fraction], trials=1)


def test_error_vs_budget_validation():
    ds = evb_dataset()
    with pytest.raises(ValueError, match="unknown method"):
        error_vs_budget(ds, "spectral", [0.5], trials=1)
    with pytest.raises(ValueError, match="trials"):
        error_vs_budget(ds, "gabe", [0.5], trials=0)
    with pytest.raises(ValueError, match="positive"):
        error_vs_budget(ds, "gabe", [0.5, -0.1], trials=1)
    for bad in ("inf", "nan"):
        with pytest.raises(ValueError, match="finite"):
            error_vs_budget(ds, "maeve", [0.5, bad], trials=1)
