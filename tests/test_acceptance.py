"""Binding acceptance checks, one test per criterion.

Each test evaluates one criterion end to end and prints a single
"[criterion NN] name: PASS|FAIL" line before asserting, so a verbose
run reports exactly one line per criterion.
"""

import random
import time
from math import ceil, comb

import numpy as np
import pytest

from streamdesc import (
    BudgetSpec,
    Dataset,
    GabeState,
    MaeveState,
    MIN_GABE_BUDGET,
    MIN_MAEVE_BUDGET,
    build_graph,
    compute_descriptors,
    cross_validate,
    derive_seed,
    error_vs_budget,
    exact_gabe_descriptor,
    exact_maeve_descriptor,
    exact_vertex_features,
    features_from_counts,
    gabe_descriptor,
    gabe_process_edge,
    maeve_descriptor,
    maeve_process_edge,
    preprocess,
    replicated,
    synthetic_two_class_dataset,
    variance_bound,
)
from streamdesc.datasets import gnp_edges
from streamdesc.patterns import (
    ORDER_SLICES,
    PatternId,
    STREAM_ESTIMATED,
    overlap_matrix,
)

from conftest import random_stream
from reference import (
    closed_form_counts, exact_induced_counts, exact_subgraph_counts,
    exact_vertex_triangle_path_counts)

OVERLAP = overlap_matrix()


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num:02d} {name} failed{tail}"


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def corpus200():
    return [
        random_stream(4 + i % 7, (0.2, 0.5, 0.8)[i % 3], seed=20000 + i)
        for i in range(200)
    ]


@pytest.fixture(scope="module")
def g30():
    stream = random_stream(30, 0.2, seed=16)
    assert len(stream) == 101  # the runs below are tuned to this graph
    return stream


@pytest.fixture(scope="module")
def sub30(g30):
    return exact_subgraph_counts(build_graph(g30)).values


@pytest.fixture(scope="module")
def unbiased_runs(g30):
    """500 paired runs on the fixed graph at a quarter of its edges."""
    b = ceil(len(g30) / 4)
    ids = sorted(STREAM_ESTIMATED)
    est = np.zeros((500, len(ids)))
    tri_sums = np.zeros(500)
    path_sums = np.zeros(500)
    start = time.perf_counter()
    for r in range(500):
        gs = GabeState(b, derive_seed(77, "unbiased", r), n_hint=g30.n_hint)
        for edge in g30:
            gabe_process_edge(gs, edge)
        est[r] = [gs.est[pid] for pid in ids]
        ms = MaeveState(
            b, derive_seed(77, "unbiased-maeve", r), n_hint=g30.n_hint)
        for edge in g30:
            maeve_process_edge(ms, edge)
        tri_sums[r] = sum(ms.tri.values())
        path_sums[r] = sum(ms.path.values())
    elapsed = time.perf_counter() - start
    return {
        "b": b,
        "ids": ids,
        "est": est,
        "tri_sums": tri_sums,
        "path_sums": path_sums,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def evb50():
    graphs = []
    for i in range(50):
        rng = random.Random(derive_seed(5, "evb-graph", i))
        stream = preprocess(
            gnp_edges(40, 0.15, rng), seed=derive_seed(5, "evb-shuffle", i))
        stream.n_hint = 40
        graphs.append(stream)
    return Dataset(graphs=graphs, labels=[0] * 50, name="evb")


@pytest.fixture(scope="module")
def synthetic120():
    return synthetic_two_class_dataset(
        per_class=60, n_range=(50, 100), seed=42)


# ---------------------------------------------------------------- criteria


def test_criterion_01_overlap_identity_and_closed_forms(corpus200):
    start = time.perf_counter()
    identity_ok = forms_ok = True
    for stream in corpus200:
        g = build_graph(stream)
        sub = exact_subgraph_counts(g).values
        ind = exact_induced_counts(g).values
        identity_ok &= np.array_equal(OVERLAP @ ind, sub)
        state = GabeState(
            max(MIN_GABE_BUDGET, len(stream)), seed=0, n_hint=stream.n_hint)
        for edge in stream:
            gabe_process_edge(state, edge)
        for pid, value in closed_form_counts(state).items():
            forms_ok &= value == sub[pid - 1]
    elapsed = time.perf_counter() - start
    ok = identity_ok and forms_ok and elapsed < 60
    _verdict(
        1, "overlap identity and closed forms", ok,
        f"identity={identity_ok} closed_forms={forms_ok} "
        f"elapsed={elapsed:.1f}s")


def test_criterion_02_full_budget_matches_oracle(corpus200):
    worst_gabe = worst_maeve = 0.0
    for stream in corpus200:
        g = build_graph(stream)
        est = gabe_descriptor(stream, max(MIN_GABE_BUDGET, len(stream)), seed=1)
        worst_gabe = max(
            worst_gabe, np.abs(est.values - exact_gabe_descriptor(g).values).max())
        est = maeve_descriptor(
            stream, max(MIN_MAEVE_BUDGET, len(stream)), seed=1)
        worst_maeve = max(
            worst_maeve,
            np.abs(est.values - exact_maeve_descriptor(g).values).max())
    ok = worst_gabe <= 1e-9 and worst_maeve <= 1e-9
    _verdict(
        2, "full-budget runs match the oracle", ok,
        f"max dev gabe={worst_gabe:.2e} maeve={worst_maeve:.2e}")


def test_criterion_03_stream_estimates_unbiased(unbiased_runs, sub30):
    checks = []
    for j, pid in enumerate(unbiased_runs["ids"]):
        checks.append((f"count[{pid.name}]", unbiased_runs["est"][:, j],
                       float(sub30[pid - 1])))
    checks.append(("triangle sum", unbiased_runs["tri_sums"],
                   3.0 * sub30[PatternId.TRIANGLE - 1]))
    checks.append(("path sum", unbiased_runs["path_sums"],
                   2.0 * sub30[PatternId.WEDGE - 1]))
    worst = 0.0
    ok = unbiased_runs["elapsed"] < 300
    for name, samples, truth in checks:
        dev = abs(samples.mean() - truth)
        se = samples.std(ddof=1) / len(samples) ** 0.5
        if se == 0:
            ok &= dev == 0
        else:
            worst = max(worst, dev / se)
            ok &= dev <= 4 * se
    _verdict(
        3, "stream estimates are unbiased", ok,
        f"worst deviation {worst:.2f} standard errors over "
        f"{len(checks)} quantities, {unbiased_runs['elapsed']:.1f}s")


def test_criterion_04_triangle_variance_within_bound(unbiased_runs, sub30):
    j = unbiased_runs["ids"].index(PatternId.TRIANGLE)
    samples = unbiased_runs["est"][:, j]
    observed = samples.var(ddof=1)
    bound = variance_bound(
        float(sub30[PatternId.TRIANGLE - 1]), 101, 3, unbiased_runs["b"])
    ok = observed <= bound
    _verdict(
        4, "triangle variance within bound", ok,
        f"observed {observed:.1f} <= bound {bound:.1f}")


def test_criterion_05_error_shrinks_with_budget(evb50):
    details = []
    ok = True
    for method in ("gabe", "maeve"):
        rows = error_vs_budget(
            evb50, method, [0.1, 0.3, 0.5], trials=20, seed=11)
        errs = [e for _, e in rows]
        ok &= errs[0] > errs[1] > errs[2]
        details.append(f"{method}: " + " > ".join(f"{e:.4f}" for e in errs))
    _verdict(5, "error shrinks as budget grows", ok, "; ".join(details))


def test_criterion_06_frequency_blocks_sum_to_one(corpus200, g30):
    worst = 0.0
    for stream in list(corpus200[::10]) + [g30]:
        m = len(stream)
        budgets = {5, 7, 12, max(5, m), m + 5}
        if stream is g30:
            budgets.add(ceil(m / 4))
        for b in sorted(budgets):
            for seed in (3, 4):
                d = gabe_descriptor(stream, b, seed=seed)
                assert not d.degenerate
                for block in ORDER_SLICES.values():
                    worst = max(worst, abs(d.values[block].sum() - 1.0))
    ok = worst <= 1e-9
    _verdict(
        6, "frequency blocks sum to one", ok,
        f"max block-sum deviation {worst:.2e}")


def test_criterion_07_feature_identity_matches_egonets(corpus200):
    mismatches = 0
    graphs = list(corpus200)
    graphs += [
        random_stream(4 + i % 57, (0.1, 0.3, 0.7)[i % 3], seed=30000 + i)
        for i in range(200 - len(graphs))
    ]
    # the larger sizes above keep this within the oracle-free regime;
    # n tops out at 60
    for stream in graphs:
        g = build_graph(stream)
        tri, path = exact_vertex_triangle_path_counts(g)
        for v in range(g.n):
            derived = features_from_counts(g.degree(v), tri[v], path[v])
            if derived.as_tuple() != exact_vertex_features(g, v):
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        7, "feature identity matches egonets", ok,
        f"{mismatches} mismatching vertices across {len(graphs)} graphs")


def test_criterion_08_replica_averaging_cuts_variance(g30):
    scale = comb(30, 3)
    b = ceil(len(g30) / 4)
    variances = {}
    for workers in (1, 8):
        estimates = [
            replicated(
                g30, "gabe", b, workers, derive_seed(88, "wrep", workers, trial)
            ).values[PatternId.TRIANGLE - 1] * scale
            for trial in range(200)
        ]
        variances[workers] = np.var(estimates, ddof=1)
    ratio = variances[8] / variances[1]
    ok = 1 / 16 <= ratio <= 1 / 4
    _verdict(
        8, "replica averaging cuts variance", ok,
        f"variance ratio {ratio:.4f}, window [0.0625, 0.25]")


def test_criterion_09_descriptors_classify_above_chance(synthetic120):
    details = []
    ok = True
    for method in ("gabe", "maeve"):
        descs, errors = compute_descriptors(
            synthetic120, method, BudgetSpec(fraction=0.5), seed=7)
        ok &= not any(errors)
        report = cross_validate(
            descs, synthetic120.labels, folds=10, repeats=10, seed=7)
        ok &= report.mean_accuracy > 0.7
        details.append(f"{method}: {report.mean_accuracy:.3f}")
    _verdict(
        9, "descriptors classify above chance", ok,
        "mean accuracy " + ", ".join(details))


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


def test_criterion_10_single_pass_and_bounded_storage(corpus200, g30):
    ok = True
    for stream in list(corpus200[::25]) + [g30]:
        m = len(stream)
        for b in sorted({5, 7, max(5, m // 3), max(5, m)}):
            for make, drive in (
                (GabeState, gabe_process_edge),
                (MaeveState, maeve_process_edge),
            ):
                state = make(b, 11, n_hint=stream.n_hint)
                for edge in stream:
                    drive(state, edge)
                res = state
                ok &= res.peak_stored == min(m, b) <= b
                ok &= res.t == m
            one = OneShot(stream)
            gabe_descriptor(one, b, seed=2)
            ok &= one.passes == 1
            one = OneShot(stream)
            maeve_descriptor(one, b, seed=2)
            ok &= one.passes == 1
    _verdict(
        10, "single pass and bounded storage", ok,
        "peak storage equals min(m, b) and no stream is re-read")
