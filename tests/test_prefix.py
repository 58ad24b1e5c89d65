"""The sampling-free prefix built in one batch (from_prefix) against the
per-edge step and against the brute-force oracle in conftest."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamdesc import (
    STREAM_ESTIMATED, BudgetSpec, PatternId, build_graph, exact_gabe_descriptor,
    gnp_edges, preferential_attachment_edges, preprocess, replicated)
from streamdesc import gabe
from streamdesc.harness import METHODS, _run_seeds
from streamdesc.patterns import cycles4

from conftest import brute_force_counts, random_stream, triangles_per_vertex


def stepped(method, edges, budget, seed, n_hint):
    state = METHODS[method](budget, seed, n_hint)
    for edge in edges:
        state.step([edge])
    return state


def nonzero(counts, form=lambda x: x):
    """counts without its zero entries, values mapped by form: a vertex
    may hold 0 in one state and be absent from the other."""
    return {v: form(x) for v, x in counts.items() if x}


def fields(state, method):
    """Every field the suffix reads, floats by their hex strings."""
    common = (state.budget, state.seed, state.n_hint, state.t, state.peak_stored,
              state.edges, state.adj, nonzero(state.degrees))
    if method == "gabe":
        return (*common, {pid: state.est[pid].hex() for pid in STREAM_ESTIMATED},
                nonzero(state.tri))
    return (*common, nonzero(state.tri, float.hex), nonzero(state.path, float.hex))


@settings(max_examples=80)
@given(n=st.integers(0, 13), p=st.sampled_from([0.15, 0.4, 0.7, 1.0]),
       seed=st.integers(0, 2 ** 16), isolated=st.integers(0, 3), data=st.data())
@example(n=0, p=0.4, seed=1, isolated=2, data=None)
def test_batch_state_equals_stepped_state(n, p, seed, isolated, data):
    stream = random_stream(n, p, seed)
    edges, m, n_hint = stream.edges, len(stream), n + isolated
    for method, cls in METHODS.items():
        minimum = cls.MIN_BUDGET
        budgets = {minimum, m, m + 3}
        if data is not None and m - 1 >= minimum:
            budgets.add(data.draw(st.integers(minimum, m - 1), label=f"{method} b"))
        for b in sorted(x for x in budgets if x >= minimum):
            prefix = edges[:b]
            batch = cls.from_prefix(list(prefix), b, seed, n_hint)
            step = stepped(method, prefix, b, seed, n_hint)
            assert fields(batch, method) == fields(step, method), (method, b)
            # both go on from the fork point to the same bits
            for other in (seed + 1, seed + 2):
                a, z = batch.fork(other), step.fork(other)
                a.step(edges[b:])
                z.step(edges[b:])
                da, dz = a.finalize(), z.finalize()
                assert (da.n, da.m, da.b) == (dz.n, dz.m, dz.b)
                assert [x.hex() for x in da.values] == [x.hex() for x in dz.values]


def test_batch_counts_match_brute_force(small_corpus):
    gabe, maeve = METHODS["gabe"], METHODS["maeve"]
    for stream in small_corpus:
        m = len(stream)
        sub, _ = brute_force_counts(build_graph(stream))
        state = gabe.from_prefix(list(stream.edges), max(m, gabe.MIN_BUDGET))
        assert [state.est[pid] for pid in STREAM_ESTIMATED] == [
            sub[pid - 1] for pid in STREAM_ESTIMATED]
        triangles = dict(triangles_per_vertex(stream.edges))
        assert nonzero(state.tri) == triangles
        state = maeve.from_prefix(list(stream.edges), max(m, maeve.MIN_BUDGET))
        assert nonzero(state.tri) == triangles


TOP = 10 ** 6
SMALL_PREFIX = [(TOP - 4, TOP - 3), (TOP - 3, TOP - 2), (TOP - 4, TOP - 2),
                (TOP - 2, TOP - 1), (TOP - 1, TOP)]
# above gabe.NUMPY_CYCLES4_EDGES, so gabe takes the numpy 4-cycle pass
LARGE_PREFIX = [(TOP - u, TOP - v) for u, v in random_stream(100, 0.12, seed=5).edges]


@pytest.mark.parametrize("method, edges", [
    ("gabe", SMALL_PREFIX), ("maeve", SMALL_PREFIX),
    ("gabe", LARGE_PREFIX), ("maeve", LARGE_PREFIX),
], ids=["gabe", "maeve", "gabe-large", "maeve-large"])
def test_batch_memory_follows_the_prefix_not_n(method, edges):
    assert len(LARGE_PREFIX) >= gabe.NUMPY_CYCLES4_EDGES
    # a per-vertex list over range(n) would take ~8 MB here
    m = len(edges)
    tracemalloc.start()
    try:
        state = METHODS[method].from_prefix(edges, m, 0, n_hint=TOP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert state.t == state.peak_stored == m
    assert state.n == TOP + 1


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


LABELS = {
    "dense": lambda x: x,
    "sparse": lambda x: 97 * x + 5,
    "huge": lambda x: 10 ** 12 + 10 ** 9 * x,
    "negative": lambda x: 3 - 10 ** 12 * x,
    "beyond int64": lambda x: 2 ** 64 + x,
}


@settings(max_examples=150)
@given(n=st.integers(0, 11), p=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 16), labels=st.sampled_from(sorted(LABELS)),
       chunk=st.sampled_from([1, 2, 3, 7, gabe.WEDGE_CHUNK]))
def test_wedge_passes_agree_with_brute_force(n, p, seed, labels, chunk):
    stream = random_stream(n, p, seed)
    brute = brute_force_counts(build_graph(stream))[0][PatternId.CYCLE_4 - 1]
    label = LABELS[labels]
    # each edge in a seeded orientation, as a raw prefix may hold it
    flip = random.Random(seed)
    edges = [(label(u), label(v)) if flip.random() < 0.5 else (label(v), label(u))
             for u, v in stream.edges]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gabe, "WEDGE_CHUNK", chunk)
        assert gabe._cycles4_wedges(edges) == cycles4(adjacency(edges)) == brute


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_from_prefix_takes_numpy_from_the_cutoff(offset, monkeypatch):
    m = gabe.NUMPY_CYCLES4_EDGES + offset
    stream = random_stream(100, 0.12, seed=71)
    prefix = stream.edges[:m]
    calls = []
    for name in ("cycles4", "_cycles4_wedges"):
        def spy(arg, name=name, real=getattr(gabe, name)):
            calls.append(name)
            return real(arg)
        monkeypatch.setattr(gabe, name, spy)
    batch = gabe.GabeState.from_prefix(list(prefix), m, 3, 100)
    assert calls == ["cycles4" if offset < 0 else "_cycles4_wedges"]
    # each side of the cutoff against the other pass
    monkeypatch.undo()
    assert batch.est[PatternId.CYCLE_4] == gabe._cycles4_wedges(prefix) == cycles4(
        adjacency(prefix))
    assert fields(batch, "gabe") == fields(stepped("gabe", prefix, m, 3, 100), "gabe")


@pytest.mark.parametrize("raw", [
    gnp_edges(120, 0.1, random.Random(81)),
    preferential_attachment_edges(200, 4, random.Random(82)),
], ids=["gnp", "pa"])
def test_full_budget_matches_oracle_above_the_cutoff(raw):
    # criterion 02's graphs have at most 10 vertices, all below the cutoff
    stream = preprocess(raw, seed=83)
    m = len(stream)
    assert m > gabe.NUMPY_CYCLES4_EDGES
    est = replicated(stream, "gabe", m, 1, 84)
    exact = exact_gabe_descriptor(build_graph(stream))
    assert [x.hex() for x in est.values] == [x.hex() for x in exact.values]


def test_from_prefix_refuses_a_prefix_above_the_budget():
    with pytest.raises(ValueError, match="does not fit"):
        METHODS["maeve"].from_prefix([(0, 1), (1, 2), (0, 2)], 2)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_budget_fraction_two_stores_the_whole_stream(method):
    stream = random_stream(25, 0.3, seed=61)
    m = len(stream)
    b = BudgetSpec(fraction=2.0).resolve(m)
    assert b == 2 * m
    [state] = _run_seeds(stream, METHODS[method], b, [9])
    assert state.t == state.peak_stored == m
    over = replicated(stream, method, b, 1, 9)
    full = replicated(stream, method, m, 1, 9)
    assert [x.hex() for x in over.values] == [x.hex() for x in full.values]

