"""The sampling-free prefix built in one batch (from_prefix) against the
per-edge step and against the brute-force oracle in conftest."""

import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamdesc import (
    STREAM_ESTIMATED, BudgetSpec, EdgeStream, PatternId, build_graph, exact_gabe_descriptor,
    exact_maeve_descriptor, gnp_edges, preferential_attachment_edges, preprocess,
    replicated)
from streamdesc import gabe, maeve, patterns
from streamdesc.harness import METHODS, _run_seeds
from streamdesc.patterns import cycles4
from streamdesc.reservoir import StreamState

from conftest import (
    brute_force_counts, random_stream, triangles_per_edge, triangles_per_vertex)
from reference import vertex_count_of, vertex_degrees


def stepped(method, edges, budget, seed, n_hint):
    state = METHODS[method](budget, seed, n_hint)
    for edge in edges:
        state.step([edge])
    return state


def nonzero(counts, form=lambda x: x):
    """counts without its zero entries, values mapped by form: a vertex
    may hold 0 in one state and be absent from the other."""
    return {v: form(x) for v, x in counts.items() if x}


def degrees(state):
    """{label: degree} of every vertex the state has seen."""
    return dict(zip(*vertex_degrees(state)))


def fields(state, method):
    """Every field the suffix reads but the degrees, floats by their hex
    strings."""
    common = (state.budget, state.seed, state.n_hint, state.t, state.peak_stored,
              state.edges, state.adj)
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
            prefix, rest = edges[:b], edges[b:]
            batch = cls.from_prefix(EdgeStream(prefix, n_hint), b, seed)
            step = stepped(method, prefix, b, seed, n_hint)
            assert fields(batch, method) == fields(step, method), (method, b)
            assert degrees(batch) == degrees(step), (method, b)
            # built from the whole stream, the state holds every edge's
            # degree; stepped on with step_ends, which counts none, it
            # goes on from the fork point to the bits of the stepped state
            whole = cls.from_prefix(EdgeStream(edges, n_hint), b, seed)
            assert fields(whole, method) == fields(batch, method), (method, b)
            for other in (seed + 1, seed + 2):
                a, z = whole.fork(other), step.fork(other)
                a.step_ends([u for u, _ in rest], [v for _, v in rest])
                z.step(rest)
                da, dz = a.finalize(), z.finalize()
                assert (da.n, da.m, da.b) == (dz.n, dz.m, dz.b)
                assert [x.hex() for x in da.values] == [x.hex() for x in dz.values]


# above the cutoff, with about 33,000 K4s and about 30 triangles on an
# edge, so at a WEDGE_CHUNK of 7 the pairs of one edge's triangles span
# chunks
DENSE = random_stream(34, 0.95, seed=7)


def test_batch_counts_match_brute_force(small_corpus):
    gabe, maeve = METHODS["gabe"], METHODS["maeve"]
    assert len(DENSE) >= patterns.NUMPY_PREFIX_EDGES
    for stream in [*small_corpus, DENSE]:
        m = len(stream)
        sub, _ = brute_force_counts(build_graph(stream))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "WEDGE_CHUNK", 7)
            state = gabe.from_prefix(stream, max(m, gabe.MIN_BUDGET))
        assert [state.est[pid] for pid in STREAM_ESTIMATED] == [
            sub[pid - 1] for pid in STREAM_ESTIMATED]
        triangles = dict(triangles_per_vertex(stream.edges))
        assert nonzero(state.tri) == triangles
        state = maeve.from_prefix(stream, max(m, maeve.MIN_BUDGET))
        assert nonzero(state.tri) == triangles
    assert sub[PatternId.K4 - 1] > 30_000  # DENSE's


TOP = 10 ** 6
SMALL_PREFIX = [(TOP - 4, TOP - 3), (TOP - 3, TOP - 2), (TOP - 4, TOP - 2),
                (TOP - 2, TOP - 1), (TOP - 1, TOP)]
# above patterns.NUMPY_PREFIX_EDGES, so both methods take the numpy passes
LARGE_PREFIX = [(TOP - u, TOP - v) for u, v in random_stream(100, 0.12, seed=5).edges]


@pytest.mark.parametrize("method, edges", [
    ("gabe", SMALL_PREFIX), ("maeve", SMALL_PREFIX),
    ("gabe", LARGE_PREFIX), ("maeve", LARGE_PREFIX),
], ids=["gabe", "maeve", "gabe-large", "maeve-large"])
def test_batch_memory_follows_the_prefix_not_n(method, edges):
    assert len(LARGE_PREFIX) >= patterns.NUMPY_PREFIX_EDGES
    # a per-vertex list over range(n) would take ~8 MB here
    m = len(edges)
    stream = EdgeStream(edges, TOP + 1)
    tracemalloc.start()
    try:
        state = METHODS[method].from_prefix(stream, m, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert state.t == state.peak_stored == m
    assert vertex_count_of(state) == TOP + 1


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


LABELS = {
    "dense": lambda x: x,
    "gappy": lambda x: 3 * x,
    "sparse": lambda x: 97 * x + 5,
    "huge": lambda x: 10 ** 12 + 10 ** 9 * x,
    "negative": lambda x: 3 - 10 ** 12 * x,
    "beyond int64": lambda x: 2 ** 64 + x,
}


def labelled(stream, labels, seed):
    """The stream's edges under one of LABELS, each in a seeded
    orientation, as a raw prefix may hold it."""
    label = LABELS[labels]
    flip = random.Random(seed)
    return [(label(u), label(v)) if flip.random() < 0.5 else (label(v), label(u))
            for u, v in stream.edges]


def ranked(u, v, labels):
    """patterns.ranked_keys over dense_degrees of the index columns (u,
    v): its keys, the label of each rank and that vertex's degree."""
    index, a, b, deg = patterns.dense_degrees(u, v)
    keys, order = patterns.ranked_keys(a, b, deg)
    return keys, labels[index[order]], deg[order]


def ranked_keys(edges):
    """ranked over the index columns of EdgeStream(edges)."""
    stream = EdgeStream(edges)
    return ranked(stream.u, stream.v, stream.labels)


def label_pairs(keys, labels):
    """The (row, neighbour) labels of each of ranked_keys' keys."""
    rows, nbrs = np.divmod(keys, len(labels))
    return zip(labels[rows].tolist(), labels[nbrs].tolist())


CHUNKS = [1, 2, 3, 7, patterns.WEDGE_CHUNK]


@st.composite
def chunk_items(draw):
    """(tag, first, count, ends) for _item_chunks: counts with zeros and
    runs past every patched chunk size, and ends a sorted subset of the
    items that holds the last."""
    n = draw(st.integers(1, 25))
    ints = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n)
    count = draw(st.lists(st.integers(0, 4) | st.integers(5, 20), min_size=n, max_size=n))
    ends = draw(st.sets(st.integers(0, n - 2), max_size=n)) if n > 1 else set()
    return (np.array(draw(ints)), np.array(draw(ints)), np.array(count),
            np.array(sorted(ends | {n - 1})))


@pytest.mark.parametrize("chunk", CHUNKS[:4])
@settings(max_examples=150)
@given(items=chunk_items())
@example(items=(np.zeros(3, int), np.zeros(3, int), np.array([1, 1, 0]), np.array([0, 1, 2])))
def test_item_chunks_cut_after_ends_only(chunk, items):
    tag, first, count, ends = items
    n = len(count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "WEDGE_CHUNK", chunk)
        chunks = list(patterns._item_chunks(tag, first, count, ends))
        # the chunks hang on count and ends alone: tagged by item index,
        # the same chunks show where each one ends
        seen = [t for t, _ in patterns._item_chunks(np.arange(n), first, count, ends)]
    assert [len(t) for t, _ in chunks] == [len(p) for _, p in chunks] == list(map(len, seen))
    assert np.concatenate([t for t, _ in chunks]).tolist() == np.repeat(tag, count).tolist()
    assert np.concatenate([p for _, p in chunks]).tolist() == [
        f + g for f, k in zip(first.tolist(), count.tolist()) for g in range(k)]
    group = np.searchsorted(ends, np.arange(n))  # items after the previous entry of ends
    for k, items_k in enumerate(seen):
        later = np.concatenate(seen[k + 1:] + [np.array([n], int)])
        if k == len(seen) - 1:
            end = n - 1
        else:  # the first entry of ends from the last item seen so far on
            end = ends[np.searchsorted(ends, max([-1, *np.concatenate(seen[:k + 1])]))]
        assert end < later.min()
        assert np.count_nonzero(group[items_k] < group[end]) < chunk


@settings(max_examples=150)
@given(n=st.integers(0, 11), p=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 16), labels=st.sampled_from(sorted(LABELS)),
       chunk=st.sampled_from(CHUNKS))
def test_wedge_passes_agree_with_brute_force(n, p, seed, labels, chunk):
    stream = random_stream(n, p, seed)
    brute = brute_force_counts(build_graph(stream))[0][PatternId.CYCLE_4 - 1]
    edges = labelled(stream, labels, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "WEDGE_CHUNK", chunk)
        keys, names, _ = ranked_keys(edges)
        assert patterns.cycles4_wedges(keys, len(names)) == cycles4(adjacency(edges)) == brute


@settings(max_examples=150)
@given(n=st.integers(0, 11), p=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 16), labels=st.sampled_from(sorted(LABELS)),
       chunk=st.sampled_from(CHUNKS))
# over 64 ranks, so the per-rank masks pass pairs that close no triangle
@example(n=90, p=0.5, seed=3, labels="negative", chunk=7)
@example(n=90, p=0.2, seed=4, labels="beyond int64", chunk=CHUNKS[-1])
def test_triangle_pass_agrees_with_brute_force(n, p, seed, labels, chunk):
    stream = random_stream(n, p, seed)
    edges = labelled(stream, labels, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "WEDGE_CHUNK", chunk)
        keys, names, degree = ranked_keys(edges)
        tri, c, k4 = patterns.triangle_wedges(keys, len(names), k4=True)
        assert patterns.triangle_wedges(keys, len(names))[2] is None
    assert len(tri) == len(names) == len(degree) and len(c) == len(keys)
    assert {x: d for x, d in zip(names.tolist(), degree.tolist()) if d} == Counter(
        itertools.chain.from_iterable(edges))
    if n <= 9:  # the brute force is C(n, 4) edge-subset enumerations
        assert k4 == brute_force_counts(build_graph(stream))[0][PatternId.K4 - 1]
    per_vertex = {x: k for x, k in zip(names.tolist(), tri.tolist()) if k}
    assert per_vertex == dict(triangles_per_vertex(edges))
    per_edge = {frozenset(e): k for e, k in zip(label_pairs(keys, names), c.tolist()) if k}
    assert per_edge == triangles_per_edge(edges)
    # one direction of each edge holds its count: both sums are 3 per triangle
    assert c.sum() == tri.sum()


def wedge_counts(keys, names, degree):
    """ranked_keys' nonzero degrees per label in rank order, then
    triangle_wedges' nonzero counts per label in rank order and per edge
    in key order, its K4s, and cycles4_wedges, for ranked_keys' output."""
    tri, c, k4 = patterns.triangle_wedges(keys, len(names), k4=True)
    return ([(x, d) for x, d in zip(names.tolist(), degree.tolist()) if d],
            [(x, k) for x, k in zip(names.tolist(), tri.tolist()) if k],
            [(e, k) for e, k in zip(label_pairs(keys, names), c.tolist()) if k],
            k4, patterns.cycles4_wedges(keys, len(names)))


@settings(max_examples=100)
@given(n=st.integers(0, 11), p=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 16), labels=st.sampled_from(sorted(LABELS)))
@example(n=11, p=1.0, seed=0, labels="dense")
@example(n=11, p=0.8, seed=1, labels="gappy")
def test_ranked_keys_indexes_dense_labels_as_np_unique_would(n, p, seed, labels):
    # indices below 4 * len(u) index themselves, others go through
    # np.unique, as those of a short prefix of the stream may; forcing
    # np.unique on every input must not move a count, nor the order of
    # the vertices and edges that have one
    stream = EdgeStream(labelled(random_stream(n, p, seed), labels, seed))
    for k in (len(stream), len(stream) // 4):
        columns = stream.u[:k], stream.v[:k], stream.labels
        got = wedge_counts(*ranked(*columns))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "dense_ends", lambda flat: np.unique(flat, return_inverse=True))
            assert wedge_counts(*ranked(*columns)) == got


def test_triangle_pass_memory_follows_m_and_the_chunk_not_the_wedges():
    # a dense graph, with dozens of wedges per edge: one int64 array over
    # all of them would pass the bound below on its own
    stream = random_stream(240, 0.7, seed=91)
    keys, names, _ = ranked(stream.u, stream.v, stream.labels)
    n = len(names)
    row, nbr = np.divmod(keys, n)
    up = np.bincount(row[nbr > row], minlength=n)  # higher-ranked neighbours
    wedges = int((up * (up - 1) // 2).sum())
    expected = patterns.triangle_wedges(keys, n)
    # with k4, gabe's call, the pairs of triangles on one edge, about
    # 15 million K4s here, go in chunks of their own and hold no more
    for k4, chunk in ((False, 2 ** 10), (False, 2 ** 12), (True, 2 ** 10)):
        # int64 values: a few per key, and a few per wedge of one chunk,
        # which ends within one up key's n wedges of the chunk size
        bound = 8 * (8 * len(keys) + 16 * (chunk + n))
        assert 8 * wedges > 2 * bound
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patterns, "WEDGE_CHUNK", chunk)
            tracemalloc.start()
            try:
                got = patterns.triangle_wedges(keys, n, k4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound, (k4, chunk, peak, bound)
        assert all((a == b).all() for a, b in zip(got[:2], expected[:2]))
        assert (got[2] is None) == (not k4)


NUMPY_PASSES = {
    "gabe": (gabe, ["ranked_keys", "cycles4_wedges", "triangle_wedges"]),
    "maeve": (maeve, ["ranked_keys", "triangle_wedges"]),
}


def spy_on_passes(method, monkeypatch):
    """The list of calls, in order, to the method's numpy passes and to
    patterns.cycles4, under any name the method's module binds it to,
    which the spies put in from now on."""
    module, passes = NUMPY_PASSES[method]
    calls = []
    owners = [(patterns, "cycles4"), *((module, name) for name in passes)]
    owners += [(module, name) for name, x in vars(module).items() if x is patterns.cycles4]
    for owner, name in owners:
        def spy(*args, name=name, real=getattr(owner, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_from_prefix_takes_numpy_from_the_cutoff(offset, monkeypatch):
    # the prefix of a longer stream, under labels that index themselves,
    # negative ones and ones beyond int64, whose stream holds them as
    # Python ints in an object array: below the cutoff it is stepped,
    # which builds the sample and runs no numpy pass and no cycles4;
    # from the cutoff on the numpy passes count it and build no sample
    m = patterns.NUMPY_PREFIX_EDGES + offset
    for labels in ("dense", "negative", "beyond int64"):
        stream = EdgeStream(labelled(random_stream(100, 0.12, seed=71), labels, 71))
        assert len(stream) > m
        prefix = stream.edges[:m]
        batches = {}
        for method in METHODS:
            calls = spy_on_passes(method, monkeypatch)
            batch = batches[method] = METHODS[method].from_prefix(stream, m, 3)
            assert calls == ([] if offset < 0 else NUMPY_PASSES[method][1]), (method, labels)
            assert (batch._edges is None) == (offset >= 0), (method, labels)
            monkeypatch.undo()
            # each side of the cutoff against the stepped state, field by
            # field, and the degrees of the whole stream
            assert fields(batch, method) == fields(
                stepped(method, prefix, m, 3, None), method), (method, labels)
            assert degrees(batch) == Counter(itertools.chain.from_iterable(stream.edges))
        # and gabe's 4-cycles against the other passes
        keys, names, _ = ranked(stream.u[:m], stream.v[:m], stream.labels)
        assert batches["gabe"].est[PatternId.CYCLE_4] == patterns.cycles4_wedges(
            keys, len(names)) == cycles4(adjacency(prefix))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_numpy_prefix_compacts_its_ends_once(method, monkeypatch):
    # _count_prefix compacts the prefix's ends and counts its degrees
    # with one dense_degrees call, which ranked_keys reads, whether it
    # is called through patterns or through the method's module
    calls = []
    real = patterns.dense_degrees
    def spy(u, v):
        calls.append(len(u))
        return real(u, v)
    for owner in (patterns, NUMPY_PASSES[method][0]):
        monkeypatch.setattr(owner, "dense_degrees", spy)
    stream = random_stream(100, 0.12, seed=71)
    for m in (patterns.NUMPY_PREFIX_EDGES, len(stream)):
        del calls[:]
        METHODS[method].from_prefix(stream, m, 0)
        assert calls == [m]


@pytest.mark.parametrize("m", [0, 1, 3, 511])
def test_whole_stream_takes_the_numpy_passes_at_any_size(m, monkeypatch):
    # a prefix that is the whole stream, below the cutoff too, goes to
    # _count_prefix, which builds no sample, and its state, read
    # afterwards, and its descriptor have the stepped state's bits
    assert m < patterns.NUMPY_PREFIX_EDGES
    edges = random_stream(100, 0.12, seed=71).edges[:m]
    assert len(edges) == m
    stream = EdgeStream(edges, 100)
    built, build = [], StreamState._build
    monkeypatch.setattr(StreamState, "_build", lambda state: (built.append(state), build(state)))
    for method, cls in METHODS.items():
        b = max(m, cls.MIN_BUDGET)
        with pytest.MonkeyPatch.context() as spies:
            calls = spy_on_passes(method, spies)
            batch = cls.from_prefix(stream, b, 6)
        assert calls == NUMPY_PASSES[method][1], method
        step = stepped(method, edges, b, 6, 100)
        assert [x.hex() for x in batch.finalize().values] == [
            x.hex() for x in step.finalize().values], method
        assert built == [], method
        assert fields(batch, method) == fields(step, method), method
        assert built == [batch], method
        built.clear()


@pytest.mark.parametrize("labels", ["dense", "sparse"])
def test_numpy_prefix_sums_equal_the_stepped_state_around_a_hub(labels):
    # above the cutoff maeve's path sums and gabe's path-4 sum come from
    # the prefix degrees in int64; a hub of degree 430 makes the largest
    # of them, and a G(n, p) graph among its neighbours the triangles
    rng = random.Random(91)
    edges = [(0, x) for x in range(1, 431)]
    edges += [(u + 1, v + 1) for u, v in gnp_edges(60, 0.15, rng)]
    rng.shuffle(edges)
    stream = EdgeStream(labelled(EdgeStream(edges), labels, 92))
    m = len(stream)
    for k in (m - 40, m):
        assert k >= patterns.NUMPY_PREFIX_EDGES
        prefix = stream.edges[:k]
        assert max(Counter(itertools.chain.from_iterable(prefix)).values()) >= 400
        for method, cls in METHODS.items():
            batch, step = cls.from_prefix(stream, k, 5), stepped(method, prefix, k, 5, None)
            assert fields(batch, method) == fields(step, method), (method, k)
            if k == m:  # the shared degrees against the stepped Counter
                assert [x.hex() for x in batch.finalize().values] == [
                    x.hex() for x in step.finalize().values], (method, k)


@pytest.mark.parametrize("method", ["gabe", "maeve"])
def test_numpy_prefix_leaves_the_sample_unbuilt(method, monkeypatch):
    # from the cutoff on, neither method's prefix reads the sample, so at
    # b >= m, where no step runs and no replica is forked, nothing builds
    # it up to finalize, for any number of replicas, each of which gives
    # the stepped state's bits; read afterwards, it is the stepped state's
    stream = random_stream(100, 0.12, seed=71)
    m = len(stream)
    assert m >= patterns.NUMPY_PREFIX_EDGES
    cls = METHODS[method]
    step = stepped(method, stream.edges, m, 4, stream.n_hint)
    want = [x.hex() for x in step.finalize().values]
    built, build = [], StreamState._build
    monkeypatch.setattr(StreamState, "_build", lambda state: (built.append(state), build(state)))
    for b in (m, m + 5):
        states = [cls.from_prefix(stream, b, 4), *_run_seeds(stream, cls, b, [4])]
        for state in states:
            assert [x.hex() for x in state.finalize().values] == want, b
            assert state.t == state.peak_stored == m
        for replicas in range(2, 8):
            got = replicated(stream, method, b, replicas, 4)
            assert [x.hex() for x in got.values] == want, (b, replicas)
    assert built == []
    batch = cls.from_prefix(stream, m, 4)
    assert fields(batch, method) == fields(step, method)
    assert built == [batch]


@pytest.mark.parametrize("raw", [
    gnp_edges(120, 0.1, random.Random(81)),
    preferential_attachment_edges(200, 4, random.Random(82)),
], ids=["gnp", "pa"])
def test_full_budget_matches_oracle_above_the_cutoff(raw):
    # criterion 02's graphs have at most 10 vertices, all below the cutoff
    stream = preprocess(raw, seed=83)
    m = len(stream)
    assert m > patterns.NUMPY_PREFIX_EDGES
    graph = build_graph(stream)
    for method, exact in (("gabe", exact_gabe_descriptor), ("maeve", exact_maeve_descriptor)):
        est = replicated(stream, method, m, 1, 84)
        assert [x.hex() for x in est.values] == [x.hex() for x in exact(graph).values], method


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

