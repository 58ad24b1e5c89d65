"""Batch computation, replica averaging, cross-validation, and the
error-versus-budget experiment."""

import copy
import itertools
import random
import re
import threading
from collections import Counter
from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamdesc import (
    METHODS,
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
    gabe_process_edge,
    maeve_descriptor,
    maeve_process_edge,
    replicated,
)
from streamdesc.datasets import preferential_attachment_edges
from streamdesc.errors import BudgetTooSmallError
from streamdesc.graph import derive_seed, preprocess
from streamdesc import harness
from streamdesc.harness import _run_seeds, graph_budgets
from streamdesc.patterns import STREAM_ESTIMATED, PatternId

from conftest import random_stream
from reference import ORACLE_LIMIT, gabe_finalize_values, maeve_finalize_values

FINALIZE_REFERENCE = {"gabe": gabe_finalize_values, "maeve": maeve_finalize_values}


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


def test_budget_spec_edges_must_be_an_integer():
    for edges in (10.0, 10.5):
        with pytest.raises(ValueError, match="edges must be an integer"):
            BudgetSpec(edges=edges)
    spec = BudgetSpec(edges=np.int64(10))
    assert type(spec.edges) is int and spec.resolve(100) == 10


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


def stepped_separately(stream, method, b, replicas, seed):
    """replicated's contract, one full pass per replica: W states built
    from scratch and stepped edge by edge, merged into the first."""
    states = []
    for i in range(replicas):
        state = METHODS[method](b, seed + i, n_hint=stream.n_hint)
        for edge in stream:
            state.step([edge])
        states.append(state)
    if replicas > 1:
        states[0].merge(states[1:])
    return states[0].finalize()


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_forked_prefix_matches_separate_runs(method):
    # replicated steps the first b edges once and forks the state per
    # seed; every replica must still end where its own run from scratch
    # ends, for budgets below, at and above the stream's length
    minimum = METHODS[method].MIN_BUDGET
    streams = [random_stream(14, 0.35, seed=54), random_stream(9, 0.6, seed=55),
               EdgeStream([(0, 1), (1, 2)], n_hint=4), EdgeStream([], n_hint=3)]
    for stream in streams:
        m = len(stream)
        for b in sorted({minimum, m // 2, m - 1, m, m + 3}):
            if b < minimum:
                continue
            for replicas in (1, 2, 5):
                got = replicated(stream, method, b, replicas, 31)
                want = stepped_separately(stream, method, b, replicas, 31)
                assert np.array_equal(got.values, want.values), (m, b, replicas)
                assert (got.n, got.m, got.b, got.seed) == (want.n, want.m, want.b, want.seed)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_fork_only_before_the_first_draw(method):
    stream = list(random_stream(12, 0.5, seed=56))
    b = 6
    state = METHODS[method](b, 1)
    state.step(stream[:b])
    twin = state.fork(2)
    assert (twin.seed, twin.t) == (2, b)
    assert twin.edges == state.edges and twin.edges is not state.edges
    assert twin.adj == state.adj
    assert all(twin.adj[v] is not state.adj[v] for v in state.adj)
    state.step([stream[b]])  # t = b + 1: the reservoir draws
    with pytest.raises(RuntimeError, match="cannot fork"):
        state.fork(3)


RUN_FIELDS = {"gabe": ("est", "tri"), "maeve": ("tri", "path")}


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_stepping_a_fork_leaves_the_parent_unchanged(method):
    stream = list(random_stream(14, 0.6, seed=57))
    b = 12
    parent = METHODS[method].from_prefix(stream[:b], b, 1)
    fields = ("edges", "adj", "degrees", *RUN_FIELDS[method])
    before = copy.deepcopy({name: getattr(parent, name) for name in fields})
    twin = parent.fork(2)
    twin.step(stream[b:])
    assert parent.t == b and twin.t == len(stream)
    for name in fields:
        assert getattr(parent, name) == before[name], name
        assert getattr(twin, name) != before[name], name


def run_fields(state, method):
    """Every field one run's state steps, floats by their hex strings."""
    def hexed(counts):
        return {k: x.hex() if isinstance(x, float) else x for k, x in counts.items()}
    return (state.t, state.peak_stored, state.edges, state.adj,
            dict(zip(*state.vertex_degrees())),
            state.rng.getstate(), *(hexed(getattr(state, name)) for name in RUN_FIELDS[method]))


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_block_size_does_not_change_a_run(method, monkeypatch):
    # _run_seeds hands the suffix to every state a block at a time; any
    # block size, one edge up to the whole stream, gives the same states
    cls = METHODS[method]
    stream = random_stream(20, 0.4, seed=58)
    m = len(stream)
    assert m > 3 * 7
    for b in (cls.MIN_BUDGET, m // 3, m, m + 2):
        for replicas in (1, 3):
            seeds = [70 + i for i in range(replicas)]
            runs = []
            for block in (m + 1, 1, 2, 7):
                monkeypatch.setattr(harness, "BLOCK_EDGES", block)
                states = _run_seeds(stream, cls, b, seeds)
                d = replicated(stream, method, b, replicas, 70)
                runs.append(([run_fields(s, method) for s in states],
                             [x.hex() for x in d.values], (d.n, d.m, d.b)))
            assert all(run == runs[0] for run in runs), (b, replicas)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_block_step_equals_edge_steps(method):
    cls = METHODS[method]
    per_edge = {"gabe": gabe_process_edge, "maeve": maeve_process_edge}[method]
    edges = list(random_stream(20, 0.4, seed=59))
    b = 10
    want = cls(b, 4)
    for edge in edges:
        per_edge(want, edge)
    # cuts where blocks end: some blocks start before t = b and end after
    # it, so the reservoir's first draw falls inside a block
    for cuts in ([], [b], [3, b + 4], [b - 1, b + 1], [b - 2, b - 2, 2 * b], [5, 8, 11, 30]):
        got = cls(b, 4)
        for lo, hi in zip([0, *cuts], [*cuts, len(edges)]):
            got.step(edges[lo:hi])
        assert run_fields(got, method) == run_fields(want, method), cuts


# Two (field, key) slots merge averages, per method.
MERGED_SLOTS = {"gabe": (("est", PatternId.TRIANGLE), ("est", PatternId.PAW)),
                "maeve": (("tri", 0), ("path", 4))}


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_merge_adds_replicas_left_to_right(method):
    # Left to right, 1e16 + 1.0 rounds back to 1e16, so the three values
    # sum to 0.0; a compensated sum (the builtin sum() from Python 3.12
    # on) would give 1.0 and an average of 1/3.
    cls = METHODS[method]
    states = [cls(cls.MIN_BUDGET, seed) for seed in range(3)]
    (field, key), (other, other_key) = MERGED_SLOTS[method]
    for state, x in zip(states, (1e16, 1.0, -1e16)):
        getattr(state, field)[key] = x
    getattr(states[2], other)[other_key] = 3.0
    states[0].merge(states[1:])
    assert getattr(states[0], field)[key] == 0.0
    assert getattr(states[0], other)[other_key] == 1.0


def reference_error_vs_budget(ds, method, budgets, trials, seed):
    """error_vs_budget's rows from one replicated run per trial, over
    the graphs whose budget reaches the method's minimum."""
    exact = [METHODS[method].exact(build_graph(s)).values for s in ds.graphs]
    rows = []
    for fraction in budgets:
        total, runs = 0.0, 0
        for gi, stream in enumerate(ds.graphs):
            b = BudgetSpec(fraction=fraction).resolve(len(stream))
            if b < METHODS[method].MIN_BUDGET:
                continue
            for trial in range(trials):
                run_seed = derive_seed(seed, "evb", method, fraction, gi, trial)
                total += canberra(replicated(stream, method, b, 1, run_seed).values,
                                  exact[gi])
                runs += 1
        rows.append((fraction, total / runs))
    return rows


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_error_vs_budget_trials_match_separate_runs(method):
    ds = evb_dataset()
    # m = 18, 22, 13: at 0.95 the first and last get b = m, the middle
    # one b = 21; 1.0 and 1.5 give every graph b >= m
    sizes = graph_budgets(ds, method, BudgetSpec(fraction=0.95))[0]
    full = [b >= len(stream) for stream, b in zip(ds.graphs, sizes)]
    assert any(full) and not all(full)
    for trials in (1, 4):
        budgets = [0.4, 0.7, 0.95, 1.0, 1.5]
        assert error_vs_budget(ds, method, budgets, trials, seed=6) == \
            reference_error_vs_budget(ds, method, budgets, trials, seed=6)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_error_vs_budget_finalizes_one_run_at_full_budget(monkeypatch, method):
    # below b = m every trial is finalized; at or above it the trials
    # are one run, finalized once but still counted `trials` times.  A
    # run at b >= m scores 0, so the error is stubbed to a nonzero value
    # per graph for that weighting to show in the mean.
    cls = METHODS[method]
    finalized = []
    finalize = cls.finalize

    def counted(state):
        finalized.append(state)
        return finalize(state)

    monkeypatch.setattr(cls, "finalize", counted)
    monkeypatch.setattr(harness, "canberra", lambda estimated, exact: exact[0])
    ds = evb_dataset()
    assert [len(stream) for stream in ds.graphs] == [18, 22, 13]
    errors = [cls.exact(build_graph(stream)).values[0] for stream in ds.graphs]
    assert 0 < min(errors) and len(set(errors)) == 3
    total = 0.0
    for error in errors:
        for _ in range(3):
            total += error
    for fraction, calls in ((0.5, 3 + 3 + 3), (0.95, 1 + 3 + 1), (1.0, 1 + 1 + 1),
                            (1.5, 1 + 1 + 1)):
        finalized.clear()
        assert error_vs_budget(ds, method, [fraction], 3, seed=1) == [(fraction, total / 9)]
        assert len(finalized) == calls, fraction


@pytest.mark.parametrize("method", ["gabe", "maeve"])
@given(n=st.integers(0, 12), p=st.sampled_from([0.2, 0.5, 0.9]), seed=st.integers(0, 2 ** 16),
       isolated=st.integers(0, 3), replicas=st.integers(1, 3), data=st.data())
@example(n=1, p=0.5, seed=0, isolated=0, replicas=1, data=None)
@example(n=0, p=0.5, seed=0, isolated=1, replicas=2, data=None)
@settings(max_examples=60)
def test_finalize_keeps_the_reference_bits(method, n, p, seed, isolated, replicas, data):
    # states with `isolated` vertices known only through n_hint, and with
    # replicas averaged into non-integer estimates
    cls = METHODS[method]
    stream = random_stream(n, p, seed)
    stream.n_hint = n + isolated
    budget = cls.MIN_BUDGET
    if data is not None:
        budget = data.draw(st.integers(budget, max(budget, len(stream) + 2)), "budget")
    states = _run_seeds(stream, cls, budget, [seed + i for i in range(replicas)])
    if replicas > 1:
        states[0].merge(states[1:])
    want = FINALIZE_REFERENCE[method](states[0])
    assert [x.hex() for x in states[0].finalize().values] == [x.hex() for x in want]


@pytest.mark.parametrize("method, budgets", [
    ("gabe", [0.3, 0.7, 1.0]), ("maeve", [0.1, 0.3, 1.0])], ids=["gabe", "maeve"])
def test_error_vs_budget_skips_graphs_below_the_minimum(method, budgets):
    # m = 18, 4, 22, 13: the square is below gabe's minimum at every
    # fraction, the 13-edge graph at gabe's 0.3, the square at maeve's 0.1
    from streamdesc import preprocess

    square = preprocess([(0, 1), (1, 2), (2, 3), (3, 0)], seed=0)
    graphs = evb_dataset().graphs
    ds = Dataset(graphs=[graphs[0], square, *graphs[1:]], labels=[0] * 4)
    budgets_of = [graph_budgets(ds, method, BudgetSpec(fraction=f))[0] for f in budgets]
    assert any(None in sizes for sizes in budgets_of)
    assert error_vs_budget(ds, method, budgets, 3, seed=2) == \
        reference_error_vs_budget(ds, method, budgets, 3, seed=2)


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
    expected = states[0].finalize()
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
    expected = states[0].finalize()
    got = replicated(stream, "maeve", b, 2, base)
    assert np.array_equal(got.values, expected.values)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_estimators_refuse_labels_outside_range(method):
    # the estimators apply build_graph's vertex-count rule, at finalize
    b = METHODS[method].MIN_BUDGET
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


def shared_degree_streams():
    """A preprocessed PA stream, whose labels index themselves, and the
    same edges with every label x written as 100 x, which EdgeStream
    compacts through np.unique."""
    stream = preprocess(preferential_attachment_edges(40, 3, random.Random(61)), seed=62)
    return [stream, EdgeStream([(100 * u, 100 * v) for u, v in stream.edges])]


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_shared_degrees_finalize_as_edge_steps(method, monkeypatch):
    # _run_seeds counts the degrees once per pass, into one array its
    # states share; they hold a Counter of the stream, label by label,
    # and finalize to the bits of states stepped one edge at a time,
    # which count their own degrees
    cls = METHODS[method]
    per_edge = {"gabe": gabe_process_edge, "maeve": maeve_process_edge}[method]
    for stream in shared_degree_streams():
        edges = stream.edges
        m = len(edges)
        counted = Counter(itertools.chain.from_iterable(edges))
        for b in (cls.MIN_BUDGET, m // 4, m):
            seeds = [80, 81, 82]
            wants = []
            for seed in seeds:
                state = cls(b, seed, stream.n_hint)
                for edge in edges:
                    per_edge(state, edge)
                wants.append(state.finalize())
            for block in (1, 7, 4096):
                monkeypatch.setattr(harness, "BLOCK_EDGES", block)
                for replicas in (1, 2, 3):
                    states = _run_seeds(stream, cls, b, seeds[:replicas])
                    for state, want in zip(states, wants):
                        labels, degrees = state.vertex_degrees()
                        assert len(labels) == len(counted)
                        for label, degree in zip(labels, degrees):
                            assert type(degree) is int and degree == counted[label]
                        got = state.finalize()
                        assert [x.hex() for x in got.values] == [x.hex() for x in want.values]
                        assert (got.n, got.m, got.b) == (want.n, want.m, want.b)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_shared_degrees_refuse_step(method):
    # the states of one pass share the whole stream's degrees, from
    # from_prefix on: step, which would count a block's degrees again,
    # refuses them, and a fork shares them
    stream = shared_degree_streams()[0]
    cls = METHODS[method]
    states = _run_seeds(stream, cls, len(stream), [0, 1])
    assert states[0].degrees is states[1].degrees
    twin = states[0].fork(2)
    assert twin.degrees is states[0].degrees
    for state in (*states, twin):
        with pytest.raises(TypeError, match="degrees of a whole stream"):
            state.step(stream.pairs(0, 1))


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_shared_degrees_keep_the_vertex_count_errors(method, monkeypatch):
    # list-built streams with sparse or negative labels, stepped past the
    # prefix in blocks: the shared degrees refuse them at finalize with
    # the message a state stepped on its own, with a Counter, gives
    monkeypatch.setattr(harness, "BLOCK_EDGES", 2)
    cls = METHODS[method]
    k4 = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (3, 4)]
    cases = [([(10 ** 12 * u, 10 ** 12 * v) for u, v in k4], 10,
              "n_hint=10 is below max vertex label 4000000000000"),
             ([(u - 10 ** 12 * (u == 4), v - 10 ** 12 * (v == 4)) for u, v in k4], None,
              "non-negative, got -999999999996")]
    for edges, n_hint, message in cases:
        stepped = cls(cls.MIN_BUDGET, 0, n_hint)
        stepped.step(edges)
        with pytest.raises(ValueError, match=message):
            stepped.finalize()
        stream = EdgeStream(edges, n_hint)
        for replicas in (1, 2):
            for state in _run_seeds(stream, cls, cls.MIN_BUDGET, [0, 1][:replicas]):
                assert state.t > state.budget
                with pytest.raises(ValueError, match=message):
                    state.finalize()


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
    b = METHODS[method].MIN_BUDGET + extra
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


def test_graph_budgets_skips_below_the_minimum_and_refuses_all_skipped():
    from streamdesc import preprocess

    square = preprocess([(0, 1), (1, 2), (2, 3), (3, 0)], seed=0)
    ds = Dataset(graphs=[random_stream(10, 0.5, seed=401), square], labels=[0, 1])
    assert len(ds.graphs[0]) == 18
    assert graph_budgets(ds, "gabe", BudgetSpec(fraction=0.5)) == (
        [9, None],
        [None, "graph 1: budget fraction 0.5 gives b = 2; need at least 5 for gabe"])
    assert graph_budgets(ds, "maeve", BudgetSpec(fraction=0.5)) == ([9, 2], [None, None])
    assert graph_budgets(ds, "gabe", BudgetSpec(edges=5)) == ([5, 5], [None, None])
    with pytest.raises(BudgetTooSmallError, match=re.escape(
            "budget fraction 0.2 gives every graph a budget below the minimum "
            "of 5 for gabe")):
        graph_budgets(ds, "gabe", BudgetSpec(fraction=0.2))
    with pytest.raises(BudgetTooSmallError, match=re.escape(
            "budget 4 cannot detect 6-edge patterns; need at least 5")):
        graph_budgets(ds, "gabe", BudgetSpec(edges=4))
    empty = Dataset(graphs=[], labels=[])
    assert graph_budgets(empty, "gabe", BudgetSpec(edges=1)) == ([], [])


def test_compute_descriptors_runs_every_graph_on_the_calling_thread(monkeypatch):
    ds = small_dataset()
    spec = BudgetSpec(edges=8)
    seen = []
    run = harness.replicated

    def recording(*args, **kwargs):
        seen.append((threading.get_ident(), threading.active_count()))
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "replicated", recording)
    before = threading.active_count()
    # max_threads=1 is the call perfbench's traced replay makes
    replay, _ = compute_descriptors(
        ds, "gabe", spec, workers=2, seed=9, max_threads=1)
    default, _ = compute_descriptors(ds, "gabe", spec, workers=2, seed=9)
    assert seen == [(threading.get_ident(), before)] * (2 * len(ds.graphs))
    assert threading.active_count() == before
    for a, c in zip(replay, default):
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
    # zero repeats would leave no fold to average: a nan mean accuracy
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        cross_validate(descs, labels, folds=2, repeats=0)


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


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_error_vs_budget_runs_past_the_enumeration_cap(method):
    # neither oracle enumerates vertex subsets, so neither has a vertex cap
    ds = Dataset(graphs=[random_stream(ORACLE_LIMIT + 1, 0.05, seed=77)], labels=[0])
    assert ds.graphs[0].n == ORACLE_LIMIT + 1
    rows = error_vs_budget(ds, method, [0.5, 1.0], trials=1)
    assert [f for f, _ in rows] == [0.5, 1.0]
    assert rows[1][1] < 1e-12


@pytest.mark.parametrize("method, fraction", [("gabe", 0.1), ("maeve", 0.01)])
def test_error_vs_budget_rejects_small_budget_before_oracle(monkeypatch, method, fraction):
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the budget check")

    for cls in METHODS.values():
        monkeypatch.setattr(cls, "exact", staticmethod(no_oracle))
    ds = evb_dataset()
    b = BudgetSpec(fraction=fraction).resolve(len(ds.graphs[0]))
    minimum = 5 if method == "gabe" else 2
    assert b < minimum
    message = (f"budget fraction {fraction} gives every graph a budget "
               f"below the minimum of {minimum} for {method}")
    with pytest.raises(BudgetTooSmallError, match=re.escape(message)):
        error_vs_budget(ds, method, [1.0, fraction], trials=1)


def test_error_vs_budget_validation():
    with pytest.raises(ValueError, match="the dataset has no graphs"):
        error_vs_budget(Dataset(graphs=[], labels=[]), "gabe", [0.5], trials=1)
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
