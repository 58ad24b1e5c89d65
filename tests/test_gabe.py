"""Stream-estimated pattern counts and the 17-entry descriptor."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    ORDER_SLICES,
    STREAM_ESTIMATED,
    EdgeStream,
    GabeState,
    PatternId,
    build_graph,
    exact_gabe_descriptor,
    gabe_descriptor,
    gabe_process_edge,
)
from streamdesc.errors import BudgetTooSmallError

from conftest import completed_copies, random_stream, triangles_per_vertex
from reference import closed_form_counts, detection_probability, exact_subgraph_counts

K3_EDGES = [(0, 1), (1, 2), (0, 2)]
K4_EDGES = list(itertools.combinations(range(4), 2))


def run_state(edges, budget, seed=0, n_hint=None):
    state = GabeState(budget, seed=seed, n_hint=n_hint)
    for e in edges:
        gabe_process_edge(state, e)
    return state


def test_budget_minimum_enforced():
    # K4 detection needs 5 prior edges in the sample
    with pytest.raises(BudgetTooSmallError):
        GabeState(4)
    GabeState(5)


def test_k3_stream_exact_regime():
    state = run_state(K3_EDGES, budget=5)
    assert state.est[PatternId.TRIANGLE] == 1.0
    for pid in STREAM_ESTIMATED:
        if pid is not PatternId.TRIANGLE:
            assert state.est[pid] == 0.0


def test_k4_stream_exact_regime():
    expected = {
        PatternId.TRIANGLE: 4.0, PatternId.PATH_4: 12.0,
        PatternId.CYCLE_4: 3.0, PatternId.PAW: 12.0,
        PatternId.DIAMOND: 6.0, PatternId.K4: 1.0,
    }
    assert run_state(K4_EDGES, budget=6).est == expected
    # b=5 still sees every arrival at t-1 <= b, so estimates stay exact
    assert run_state(K4_EDGES, budget=5).est == expected


def test_estimates_exact_when_budget_covers_stream(small_corpus):
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        sub = exact_subgraph_counts(g)
        state = run_state(stream, budget=max(5, g.m), n_hint=stream.n_hint)
        for pid in STREAM_ESTIMATED:
            assert state.est[pid] == pytest.approx(sub[pid], abs=1e-9)


def test_state_bookkeeping():
    state = run_state(K4_EDGES, budget=6)
    assert state.t == 6
    assert state.n == 4
    assert sum(state.degrees.values()) == 12
    assert run_state([], budget=5, n_hint=9).n == 9


def test_closed_form_counts_k3():
    forms = closed_form_counts(run_state(K3_EDGES, budget=5))
    assert forms[PatternId.WEDGE] == 3
    assert forms[PatternId.TWO_DISJOINT_EDGES] == 0
    assert forms[PatternId.EDGE_PLUS_ISOLATED] == 3
    assert forms[PatternId.TRIANGLE_PLUS_ISOLATED] == 0  # n - 3 = 0
    assert forms[PatternId.EDGE] == 3
    assert forms[PatternId.EDGELESS_3] == 1


def test_closed_form_counts_single_edge():
    forms = closed_form_counts(run_state([(0, 1)], budget=5))
    assert forms[PatternId.EDGE] == 1
    assert forms[PatternId.EDGELESS_2] == 1
    assert forms[PatternId.WEDGE] == 0
    for pid in (PatternId.EDGELESS_3, PatternId.EDGE_PLUS_ISOLATED,
                PatternId.EDGELESS_4, PatternId.EDGE_PLUS_2_ISOLATED,
                PatternId.TWO_DISJOINT_EDGES, PatternId.WEDGE_PLUS_ISOLATED,
                PatternId.TRIANGLE_PLUS_ISOLATED, PatternId.CLAW):
        assert forms[pid] == 0


def test_closed_form_counts_star():
    forms = closed_form_counts(run_state([(0, 1), (0, 2), (0, 3)], budget=5))
    assert forms[PatternId.CLAW] == 1
    assert forms[PatternId.WEDGE] == 3


def test_closed_forms_match_oracle(small_corpus):
    # in the exact regime every one of the 11 closed forms is an exact count
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        sub = exact_subgraph_counts(g)
        state = run_state(stream, budget=max(5, g.m), n_hint=stream.n_hint)
        for pid, value in closed_form_counts(state).items():
            assert value == sub[pid], pid


def test_descriptor_k3():
    d = gabe_descriptor(EdgeStream(K3_EDGES), budget=5)
    assert np.allclose(d.values[0:2], [0, 1])
    assert np.allclose(d.values[2:6], [0, 0, 0, 1])
    assert np.all(d.values[6:] == 0)
    assert (d.n, d.m, d.b) == (3, 3, 5)
    assert not d.degenerate


def test_descriptor_p3():
    d = gabe_descriptor(EdgeStream([(0, 1), (1, 2)]), budget=5)
    assert np.allclose(d.values[0:2], [1 / 3, 2 / 3])
    assert np.allclose(d.values[2:6], [0, 0, 1, 0])


def test_descriptor_matches_oracle_in_exact_regime(small_corpus):
    for stream in small_corpus[:25]:
        g = build_graph(stream)
        d = gabe_descriptor(stream, budget=max(5, g.m), seed=3)
        exact = exact_gabe_descriptor(g)
        assert np.max(np.abs(d.values - exact.values)) < 1e-12


def test_permutation_invariance_exact_regime():
    stream = random_stream(9, 0.5, seed=21)
    g = build_graph(stream)
    perm = [3, 7, 1, 0, 8, 5, 2, 6, 4]
    relabeled = EdgeStream(
        sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
               for u, v in stream),
        n_hint=9)
    a = gabe_descriptor(stream, budget=g.m)
    b = gabe_descriptor(relabeled, budget=g.m)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_block_sums_at_every_budget(small_corpus):
    # the edgeless closed form pins each block sum no matter the noise
    for stream in small_corpus[:8]:
        m = len(stream)
        for budget in {5, 7, max(5, m // 2), max(5, m + 3)}:
            d = gabe_descriptor(stream, budget=budget, seed=99)
            for k in (2, 3, 4):
                assert d.values[ORDER_SLICES[k]].sum() == pytest.approx(1, abs=1e-9)


def test_negative_induced_estimates_kept_raw():
    # inflated triangle noise must push some induced estimate negative
    state = run_state(K4_EDGES, budget=6)
    state.est[PatternId.TRIANGLE] = 40.0
    d = state.finalize()
    assert d.values.min() < 0
    for k in (3, 4):
        assert d.values[ORDER_SLICES[k]].sum() == pytest.approx(1, abs=1e-9)


def test_triangle_estimate_unbiased_small():
    stream = random_stream(12, 0.4, seed=31)
    g = build_graph(stream)
    truth = exact_subgraph_counts(g)[PatternId.TRIANGLE]
    b = max(5, g.m // 3)
    estimates = [
        run_state(stream, budget=b, seed=5000 + r, n_hint=12).est[PatternId.TRIANGLE]
        for r in range(300)
    ]
    mean = sum(estimates) / len(estimates)
    var = sum((x - mean) ** 2 for x in estimates) / (len(estimates) - 1)
    se = math.sqrt(var / len(estimates))
    assert abs(mean - truth) < 4 * se


def test_degenerate_descriptor():
    # every closed form is 0 and every C(n, k) block is zeroed: +0.0
    # in all 17 coordinates, from the estimator and from the oracle
    for n in (0, 1):
        d = run_state([], budget=5, n_hint=n).finalize()
        exact = exact_gabe_descriptor(build_graph(EdgeStream([], n_hint=n)))
        for desc in (d, exact):
            assert desc.degenerate
            assert desc.n == n
            assert [float(x).hex() for x in desc.values] == ["0x0.0p+0"] * 17


def test_two_vertex_graph_not_degenerate():
    d = gabe_descriptor(EdgeStream([(0, 1)]), budget=5)
    assert not d.degenerate
    assert np.allclose(d.values[0:2], [0, 1])
    assert np.all(d.values[2:] == 0)


def test_process_edge_returns_state():
    state = GabeState(5)
    assert gabe_process_edge(state, (0, 1)) is state


@st.composite
def evicting_streams(draw):
    """(edges, budget, seed): a shuffled simple stream with 5 <= b < m."""
    n = draw(st.integers(4, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=6, unique=True))
    budget = draw(st.integers(5, len(edges) - 1))
    return edges, budget, draw(st.integers(0, 2 ** 16))


@given(evicting_streams())
@settings(max_examples=150)
def test_triangle_index_tracks_sample(case):
    edges, budget, seed = case
    state = GabeState(budget, seed=seed)
    for e in edges:
        gabe_process_edge(state, e)
        index = {x: k for x, k in state.tri.items() if k}
        assert index == dict(triangles_per_vertex(state.edges))


# edges of each counted pattern minus the arriving one
PRIOR_EDGES = {PatternId.TRIANGLE: 2, PatternId.PATH_4: 2, PatternId.CYCLE_4: 3,
               PatternId.PAW: 3, PatternId.DIAMOND: 4, PatternId.K4: 5}


# the last two streams also complete K4s against the sample
@pytest.mark.parametrize("n, p, seed, budget", [
    (8, 0.7, 41, 5), (9, 0.6, 42, 8), (10, 0.5, 43, 12), (12, 0.4, 45, 9),
    (10, 0.8, 44, 20), (8, 0.9, 47, 7),
])
def test_per_arrival_counts_under_evictions(n, p, seed, budget):
    stream = random_stream(n, p, seed=seed)
    assert budget < len(stream)
    state = GabeState(budget, seed=seed)
    evictions = 0
    seen = set()
    for edge in stream:
        t = state.t + 1
        sample = list(state.edges)
        before = dict(state.est)
        expected = completed_copies(sample, edge)
        seen.update(expected)
        gabe_process_edge(state, edge)
        stored = state.edges
        evictions += len(stored) == len(sample) and edge in stored
        for pid, k in PRIOR_EDGES.items():
            weight = detection_probability(t, budget, k)
            assert round((state.est[pid] - before[pid]) * weight) == expected[pid], (t, pid)
    assert evictions
    assert len(seen) >= 4
