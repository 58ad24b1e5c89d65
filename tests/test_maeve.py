"""Per-vertex estimates, feature derivation, moments, and the 20-dim descriptor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    EdgeStream,
    MaeveState,
    PatternId,
    build_graph,
    exact_maeve_descriptor,
    exact_vertex_features,
    maeve_descriptor,
    maeve_process_edge,
)
from streamdesc.errors import BudgetTooSmallError
from streamdesc.maeve import FEATURE_NAMES, MOMENT_NAMES, _moment_vector, features_from_counts

from conftest import random_stream
from reference import exact_subgraph_counts, exact_vertex_triangle_path_counts, moments

K3_EDGES = [(0, 1), (1, 2), (0, 2)]


def run_state(edges, budget, seed=0, n_hint=None):
    state = MaeveState(budget, seed=seed, n_hint=n_hint)
    for e in edges:
        maeve_process_edge(state, e)
    return state


def test_budget_minimum_enforced():
    with pytest.raises(BudgetTooSmallError):
        MaeveState(1)
    MaeveState(2)


def test_k3_per_vertex_counts():
    state = run_state(K3_EDGES, budget=3)
    assert dict(state.tri) == {0: 1.0, 1: 1.0, 2: 1.0}
    # a triangle holds three wedges and each vertex ends two of them
    assert dict(state.path) == {0: 2.0, 1: 2.0, 2: 2.0}


def test_wedge_per_vertex_counts():
    state = run_state([(0, 1), (1, 2)], budget=3)
    assert state.path[0] == 1.0
    assert state.path[2] == 1.0
    assert state.path.get(1, 0.0) == 0.0
    assert sum(state.tri.values()) == 0.0


def test_star_per_vertex_counts():
    for seed in range(3):
        stream = EdgeStream([(0, 1), (0, 2), (0, 3)])
        state = run_state(stream, budget=3, seed=seed)
        assert state.path.get(0, 0.0) == 0.0
        assert state.path[1] == 2.0
        assert state.path[2] == 2.0
        assert state.path[3] == 2.0
        assert sum(state.tri.values()) == 0.0


def test_counts_exact_when_budget_covers_stream(small_corpus):
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        tri, path = exact_vertex_triangle_path_counts(g)
        state = run_state(stream, budget=max(2, g.m), n_hint=stream.n_hint)
        for v in range(g.n):
            assert state.tri.get(v, 0.0) == tri[v]
            assert state.path.get(v, 0.0) == path[v]


def test_count_sums_match_global_patterns(small_corpus):
    for stream in small_corpus[:15]:
        g = build_graph(stream)
        sub = exact_subgraph_counts(g)
        state = run_state(stream, budget=max(2, g.m), n_hint=stream.n_hint)
        assert sum(state.tri.values()) == 3 * sub[PatternId.TRIANGLE]
        assert sum(state.path.values()) == 2 * sub[PatternId.WEDGE]


def test_features_from_counts_examples():
    assert features_from_counts(0, 0, 0).as_tuple() == (0, 0, 0, 0, 0)
    assert features_from_counts(1, 0, 2).as_tuple() == (1, 0, 3, 1, 2)
    assert features_from_counts(2, 1, 2).as_tuple() == (2, 1, 2, 3, 0)
    assert features_from_counts(3, 0, 0).as_tuple() == (3, 0, 1, 3, 0)


def reference_features(d, t, p):
    """The per-vertex formula with Python scalars and an exact C(d, 2)."""
    if d == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    clustering = t / math.comb(d, 2) if d >= 2 else 0.0
    return (float(d), clustering, (d + p) / d, d + t, p - 2.0 * t)


estimated = st.integers(0, 10 ** 6) | st.floats(0, 1e6, allow_nan=False)


@st.composite
def vertex_counts(draw):
    d = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 10 ** 4))
    if d == 0:  # a vertex with no edge is on no triangle or path
        return 0, 0, 0
    return d, draw(estimated), draw(estimated)


@given(st.lists(vertex_counts(), min_size=1, max_size=20))
@settings(max_examples=200)
def test_features_from_counts_arrays_match_scalars(rows):
    columns = features_from_counts(*map(np.array, zip(*rows))).as_tuple()
    for i, (d, t, p) in enumerate(rows):
        scalar = features_from_counts(d, t, p).as_tuple()
        want = [float(x).hex() for x in reference_features(d, t, p)]
        assert [float(x).hex() for x in scalar] == want
        assert [float(col[i]).hex() for col in columns] == want


def test_vertex_features_matches_oracle():
    stream = EdgeStream([(0, 1), (0, 2), (0, 3)])
    state = run_state(stream, budget=3)
    g = build_graph(stream)
    for v in range(4):
        features = features_from_counts(
            state.degrees.get(v, 0), state.tri.get(v, 0.0), state.path.get(v, 0.0))
        assert features.as_tuple() == exact_vertex_features(g, v)


def test_moments_examples():
    assert moments([3, 3, 3]) == (3, 0, 0, 0)
    assert moments([0, 0, 1, 1]) == (0.5, 0.5, 0, 1)
    mean, std, skew, kurt = moments([1, 2, 3])
    assert (mean, skew) == (2, 0)
    assert std == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert kurt == pytest.approx(1.5, abs=1e-15)
    assert moments([7.0]) == (7, 0, 0, 0)


def test_moments_rejects_empty():
    with pytest.raises(ValueError):
        moments([])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
@settings(max_examples=200)
def test_moments_against_numpy(xs):
    mean, std, skew, kurt = moments(xs)
    a = np.array(xs)
    assert mean == pytest.approx(float(a.mean()), abs=1e-9)
    assert std == pytest.approx(float(a.std()), abs=1e-9)
    sigma = float(a.std())
    if sigma > 0.5:  # ratio moments are ill-conditioned near zero spread
        centered = a - a.mean()
        assert skew == pytest.approx(
            float((centered ** 3).mean()) / sigma ** 3, abs=1e-4)
        assert kurt == pytest.approx(
            float((centered ** 4).mean()) / sigma ** 4, abs=1e-4)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20))
@settings(max_examples=100)
def test_moments_permutation_invariant(xs):
    forward = moments(xs)
    backward = moments(list(reversed(xs)))
    assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)


@st.composite
def feature_tables(draw):
    """A (5, n) table whose rows mix the cases moments() treats
    apart: spread, constant, all zeros, a spread so small that std**4
    underflows, and one so small that std itself is 0.  n runs past
    numpy's 8,192-element buffer."""
    n = draw(st.sampled_from([1, 2, 8, 9, 129, 8192, 8193, 20_000]) | st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    features = []
    for _ in range(5):
        kind = draw(st.sampled_from(
            ["spread", "counts", "constant", "zeros", "tiny", "underflow",
             "tiny constant"]))
        if kind == "spread":
            scale = draw(st.floats(1e-6, 1e6))
            feature = rng.standard_normal(n) * scale + draw(st.floats(-1e6, 1e6))
        elif kind == "counts":
            feature = rng.integers(0, 10 ** 4, n).astype(float)
        elif kind == "constant":
            feature = np.full(n, draw(st.floats(-1e6, 1e6)))
        elif kind == "zeros":
            feature = np.zeros(n)
        elif kind == "tiny":  # std near 5e-101: std**4 is below the subnormals
            feature = rng.integers(0, 2, n) * 1e-100
        elif kind == "underflow":  # distinct values, squared deviations 0
            feature = rng.integers(0, 2, n) * 1e-170
        else:  # the mean can miss the value by an ulp whose square is 0
            feature = np.full(n, draw(st.floats(1e-200, 1e-160)))
        features.append(feature)
    return np.array(features)


@given(feature_tables())
@settings(max_examples=150)
def test_moment_vector_equals_per_feature_moments(table):
    want = [x for row in table for x in moments(row)]
    got = _moment_vector(table.copy())
    assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def test_descriptor_k3():
    d = maeve_descriptor(EdgeStream(K3_EDGES), budget=3)
    expected = np.array([
        2, 0, 0, 0,   # degree
        1, 0, 0, 0,   # clustering
        2, 0, 0, 0,   # average neighbor degree
        3, 0, 0, 0,   # egonet edge count
        0, 0, 0, 0,   # egonet boundary
    ], dtype=float)
    assert np.array_equal(d.values, expected)
    assert (d.n, d.m, d.b) == (3, 3, 3)
    assert not d.degenerate


def test_descriptor_claw_degree_block():
    d = maeve_descriptor(EdgeStream([(0, 1), (0, 2), (0, 3)]), budget=3)
    assert d.values[0] == pytest.approx(1.5)
    assert d.values[1] == pytest.approx(math.sqrt(0.75))


def test_descriptor_two_disjoint_edges_has_no_spread():
    d = maeve_descriptor(EdgeStream([(0, 1), (2, 3)]), budget=2)
    stds = d.values[1::4]
    assert np.all(stds == 0)


def test_descriptor_matches_oracle_in_exact_regime(small_corpus):
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        d = maeve_descriptor(stream, budget=max(2, g.m), seed=5)
        exact = exact_maeve_descriptor(g)
        assert np.array_equal(d.values, exact.values)  # bitwise, not approx


def test_isolated_vertices_contribute_zero_rows():
    stream = EdgeStream([(0, 1)], n_hint=4)
    d = maeve_descriptor(stream, budget=2)
    g = build_graph(stream)
    assert np.array_equal(d.values, exact_maeve_descriptor(g).values)
    # degree column [1, 1, 0, 0]
    assert d.values[0] == pytest.approx(0.5)


def test_degenerate_descriptor():
    d = run_state([], budget=2).finalize()
    assert d.degenerate
    assert np.all(d.values == 0)


def test_layout_names():
    assert FEATURE_NAMES == (
        "degree", "clustering", "avg_neighbor_degree",
        "egonet_edges", "egonet_boundary")
    assert MOMENT_NAMES == ("mean", "std", "skewness", "kurtosis")


def test_tri_sum_unbiased_small():
    stream = random_stream(12, 0.4, seed=31)
    g = build_graph(stream)
    truth = 3 * exact_subgraph_counts(g)[PatternId.TRIANGLE]
    b = max(2, g.m // 3)
    sums = []
    for r in range(300):
        state = run_state(stream, budget=b, seed=6000 + r, n_hint=12)
        sums.append(sum(state.tri.values()))
    mean = sum(sums) / len(sums)
    var = sum((x - mean) ** 2 for x in sums) / (len(sums) - 1)
    se = math.sqrt(var / len(sums))
    assert abs(mean - truth) < 4 * se
