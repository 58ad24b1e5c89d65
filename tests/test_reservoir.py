"""Reservoir sampling, detection probabilities, and the variance bound.

The reservoir is driven through MaeveState, the state class with the
smallest minimum budget, by maybe_sample alone, and through both
methods' block steps against the reference reservoir."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamdesc import (
    MaeveState,
    maybe_sample,
    variance_bound,
)
from streamdesc import harness
from streamdesc.datasets import gnp_edges, preferential_attachment_edges
from streamdesc.errors import BudgetTooSmallError
from streamdesc.graph import preprocess
from streamdesc.harness import METHODS, _run_seeds

import reference
from reference import ReferenceReservoir, detection_probability


def drive(state, edges):
    for e in edges:
        maybe_sample(state, e)
    return state


def path_edges(t):
    return [(i, i + 1) for i in range(t)]


def test_first_b_edges_always_kept():
    state = MaeveState(budget=10, seed=4)
    for t, e in enumerate(path_edges(10), start=1):
        maybe_sample(state, e)
        # appended, nothing evicted
        assert state.edges[-1] == e and len(state.edges) == t
    assert sorted(state.edges) == path_edges(10)
    assert state.t == 10


def test_budget_never_exceeded():
    state = drive(MaeveState(budget=7, seed=1), path_edges(200))
    assert len(state.edges) == 7
    assert state.peak_stored == 7
    assert state.t == 200
    assert all(e in path_edges(200) for e in state.edges)


def test_sample_size_is_min_t_b():
    state = MaeveState(budget=50, seed=2)
    for t, e in enumerate(path_edges(30), start=1):
        maybe_sample(state, e)
        assert len(state.edges) == min(t, 50)
    assert state.peak_stored == 30


def test_whole_stream_kept_when_budget_covers_it():
    edges = path_edges(25)
    state = drive(MaeveState(budget=25, seed=9), edges)
    assert sorted(state.edges) == edges


def test_adjacency_index_consistency():
    state = drive(MaeveState(budget=8, seed=5), path_edges(100))
    # rebuild the index from scratch and compare
    fresh = {}
    for u, v in state.edges:
        fresh.setdefault(u, set()).add(v)
        fresh.setdefault(v, set()).add(u)
    assert {v: set(ns) for v, ns in state.adj.items()} == fresh
    # unlinking drops a vertex once its last stored edge is gone
    assert all(state.adj.values())
    assert all(v in state.adj[u] and u in state.adj[v] for u, v in state.edges)
    assert 500 not in state.adj


def test_sampled_neighbors_examples():
    state = drive(MaeveState(budget=5, seed=0), [(0, 1), (1, 2)])
    assert state.adj[1] == {0, 2}
    assert state.adj[0] == {1}
    assert 99 not in state.adj


def test_reservoir_uniformity_monte_carlo():
    # classic property: after t > b edges each seen edge is present w.p. b/t
    b, t, runs = 10, 30, 4000
    edges = path_edges(t)
    hits = [0] * t
    for r in range(runs):
        state = drive(MaeveState(budget=b, seed=10_000 + r), edges)
        kept = set(state.edges)
        for j, e in enumerate(edges):
            hits[j] += e in kept
    p = b / t
    sigma = math.sqrt(p * (1 - p) / runs)
    for j in range(t):
        assert abs(hits[j] / runs - p) < 3 * sigma + 1e-12, f"edge {j}"


def test_acceptance_probability_at_arrival():
    # the t-th edge (t > b) must enter the sample with probability b/t
    b, t, runs = 5, 20, 4000
    edges = path_edges(t)
    accepted = 0
    for r in range(runs):
        state = drive(MaeveState(budget=b, seed=50_000 + r), edges[:-1])
        maybe_sample(state, edges[-1])
        accepted += edges[-1] in state.edges
    p = b / t
    sigma = math.sqrt(p * (1 - p) / runs)
    assert abs(accepted / runs - p) < 3 * sigma


@st.composite
def gnp_or_pa_streams(draw):
    """A preprocessed G(n, p) or preferential-attachment stream."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        edges = gnp_edges(draw(st.integers(2, 24)), draw(st.floats(0.05, 0.9)), rng)
    else:
        attach = draw(st.integers(1, 4))
        edges = preferential_attachment_edges(draw(st.integers(attach + 1, 30)), attach, rng)
    return preprocess(edges, seed=draw(st.integers(0, 99)))


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("method", ["gabe", "maeve"])
@given(stream=gnp_or_pa_streams(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_steps_keep_the_reference_reservoir(method, block, stream, data):
    # from_prefix and steps of `block` edges, each drawing its block's
    # decisions in one loop, leave every replica's reservoir as the
    # reference stepped one edge at a time with the same seed leaves it;
    # so do steps from an empty state, whose blocks also append and may
    # cross t = budget
    cls = METHODS[method]
    m = len(stream)
    budget = data.draw(st.integers(cls.MIN_BUDGET, max(cls.MIN_BUDGET, m + 2)), "budget")
    seeds = [data.draw(st.integers(0, 2 ** 32), "seed")]
    seeds.append(seeds[0] + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "BLOCK_EDGES", block)
        states = _run_seeds(stream, cls, budget, seeds)
    stepped = cls(budget, seeds[0])
    for i in range(0, m, block):
        stepped.step(stream.edges[i:i + block])
    states.append(stepped)
    seeds.append(seeds[0])
    for state, seed in zip(states, seeds):
        want = ReferenceReservoir(budget, seed)
        for edge in stream:
            reference.maybe_sample(want, edge)
        assert state.edges == want.edges
        assert state.adj == want.adj
        assert state.rng.getstate() == want.rng.getstate()
        assert (state.t, state.peak_stored) == (want.t, want.peak_stored) == (m, min(m, budget))
        assert state.evictions == want.replacements


# the budgets around which b's bit length changes
DRAW_BUDGETS = sorted({2 ** k + d for k in range(1, 12) for d in (-1, 0, 1)} - {1})


@pytest.mark.parametrize("b", DRAW_BUDGETS)
def test_draw_keeps_the_reference_draws(b):
    # _draw draws each slot inline from getrandbits; the sample, the
    # evictions and the generator's state follow reference.maybe_sample,
    # whose slots reference.randbelow draws
    edges = path_edges(3 * b + 40)
    want = ReferenceReservoir(b, seed=b)
    for edge in edges:
        reference.maybe_sample(want, edge)
    for block in (1, 5, len(edges)):
        state = MaeveState(b, seed=b)
        for i in range(0, len(edges), block):
            state.step(edges[i:i + block])
        assert state.edges == want.edges
        assert state.evictions == want.replacements > 0
        assert state.rng.getstate() == want.rng.getstate()


@pytest.mark.skipif(
    sys.version_info[:2] > (3, 13),
    reason="randrange matches reference.randbelow on CPython 3.10-3.13; "
           "the rejection loop, not randrange, defines the stream's draws")
def test_randbelow_is_cpython_randrange():
    # where the reservoir's slots were randrange's, they still are
    for b in DRAW_BUDGETS:
        rng, want_rng = random.Random(b), random.Random(b)
        assert [reference.randbelow(rng, b) for _ in range(50)] == \
            [want_rng.randrange(b) for _ in range(50)], b
        assert rng.getstate() == want_rng.getstate(), b


@pytest.mark.parametrize("method", sorted(METHODS))
def test_numpy_integer_budget_is_the_int_budget(method):
    # a budget of another integer type runs as the same Python int: a
    # state stepped on its own and a replicated pass give the int
    # budget's bits
    stream = preprocess(preferential_attachment_edges(60, 3, random.Random(8)), seed=9)
    b = len(stream) // 4
    cls = METHODS[method]
    want = cls(b, seed=3).step(stream.edges).finalize()
    want_replicated = harness.replicated(stream, method, b, 2, 3)
    for budget in (np.int64(b), np.int32(b)):
        state = cls(budget, seed=3)
        assert type(state.budget) is int and state.budget == b
        for got, wanted in ((state.step(stream.edges).finalize(), want),
                            (harness.replicated(stream, method, budget, 2, 3), want_replicated)):
            assert [x.hex() for x in got.values] == [x.hex() for x in wanted.values]
            assert (got.n, got.m, got.b) == (wanted.n, wanted.m, b)


def test_detection_probability_examples():
    assert detection_probability(3, 5, 2) == 1.0
    assert detection_probability(11, 5, 1) == 0.5
    assert detection_probability(11, 5, 2) == pytest.approx(2 / 9, abs=1e-15)


def test_detection_probability_boundary():
    # exact while t-1 <= b, strictly below 1 right after
    assert detection_probability(6, 5, 3) == 1.0
    assert detection_probability(7, 5, 3) < 1.0


def test_detection_probability_rejects_impossible_pattern():
    with pytest.raises(BudgetTooSmallError):
        detection_probability(11, 5, 6)


@given(
    t=st.integers(min_value=1, max_value=500),
    b=st.integers(min_value=1, max_value=100),
    m=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200)
def test_detection_probability_properties(t, b, m):
    if m > b:
        with pytest.raises(BudgetTooSmallError):
            detection_probability(t, b, m)
        return
    p = detection_probability(t, b, m)
    assert 0 < p <= 1
    assert (p == 1) == (t - 1 <= b)
    # monotone: harder later in the stream, easier with more budget
    assert detection_probability(t + 1, b, m) <= p
    assert detection_probability(t, b + 1, m) >= p
    if m + 1 <= b:
        assert detection_probability(t, b, m + 1) <= p


def test_variance_bound_example():
    bound = variance_bound(10, 100, 3, 50)
    assert bound == pytest.approx(100 * (100 / 50) * (99 / 49), abs=1e-9)


def test_variance_bound_zero_cases():
    assert variance_bound(0, 100, 3, 50) == 0.0
    # exact regime: b >= m_total - 1 means no estimate ever varies
    assert variance_bound(10, 100, 3, 99) == 0.0
    assert variance_bound(10, 100, 3, 100) == 0.0
    assert variance_bound(10, 100, 3, 98) > 0.0


def test_variance_bound_rejects_tiny_budget():
    with pytest.raises(BudgetTooSmallError):
        variance_bound(10, 100, 3, 1)


def test_variance_bound_monotone_in_budget():
    bounds = [variance_bound(5, 200, 4, b) for b in range(10, 100, 10)]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))
