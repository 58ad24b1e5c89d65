"""Single-pass estimator of all 17 pattern counts and the frequency
descriptor built from them.

Six connected patterns (triangle, path-4, cycle-4, paw, diamond, K4) are
counted edge-centrically against the reservoir sample, each detected
copy weighted by the reciprocal of its detection probability.  The other
eleven counts have closed forms in n, m, and the exact degree array.
Finalization converts plain counts to induced counts through the overlap
matrix and normalizes each order block by C(n, k).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .descriptors import Descriptor
from .graph import Edge, Graph
from .oracle import exact_induced_counts, phi_from_induced
from .patterns import N_PATTERNS, PatternId, STREAM_ESTIMATED, subgraph_to_induced
from .reservoir import (
    _EMPTY,
    StreamState,
    TriangleReservoir,
    detection_probability,
    maybe_sample,
)

# K4 detection needs its 5 other edges resident in the sample.
MIN_GABE_BUDGET = 5


class GabeState(StreamState):
    """Stream state plus the six sampled pattern-count estimates."""

    MIN_BUDGET = MIN_GABE_BUDGET
    DETECTS = "6-edge patterns"
    RESERVOIR = TriangleReservoir

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        super().__init__(budget, seed, n_hint)
        self.est: dict[PatternId, float] = {pid: 0.0 for pid in STREAM_ESTIMATED}

    def merge(self, others: list[GabeState]) -> None:
        """Average the replicas' raw estimates into this state's."""
        states = [self, *others]
        self.est = {pid: sum(s.est[pid] for s in states) / len(states)
                    for pid in STREAM_ESTIMATED}


def gabe_process_edge(state: GabeState, edge: Edge) -> GabeState:
    """Count every tracked pattern copy the arriving edge completes
    against the current sample, then offer the edge to the reservoir.

    One pass over N(u) and one over N(v) (sampled neighborhoods) gather
    every sum the six counts need; the sampled triangles on u and on v
    come from the reservoir's triangle index.  Expects a preprocessed
    stream (no self-loops or duplicates).
    """
    u, v = edge
    res = state.reservoir
    t = res.t + 1
    b = res.budget

    state.degrees[u] += 1
    state.degrees[v] += 1
    state.m_seen += 1

    adj = res.adj
    na = adj.get(u, _EMPTY)
    nb = adj.get(v, _EMPTY)
    a, bb = len(na), len(nb)
    est = state.est

    # One pass over x in N(u): sa = sum |N(x)|, c4 = sum |N(x) & N(v)|,
    # and over the common neighbors w among them: c = their number,
    # sw = sum |N(w)|, rim = sum |N(w) & N(u)| + |N(w) & N(v)|,
    # k4 = sum |N(w) & N(u) & N(v)|.  With N(u) or N(v) empty only sa
    # can be nonzero.  One pass over y in N(v): sb = sum |N(y)|.
    c = c4 = sw = rim = k4 = 0
    if na and nb:
        sa = 0
        for x in na:
            nx = adj[x]
            sa += len(nx)
            xb = len(nx & nb)
            c4 += xb
            if x in nb:
                c += 1
                sw += len(nx)
                nxa = nx & na
                rim += len(nxa) + xb
                k4 += len(nxa & nb)
    else:
        sa = sum(map(len, map(adj.__getitem__, na)))
    sb = sum(map(len, map(adj.__getitem__, nb)))

    # triangle u-v-w: w adjacent to both endpoints
    if c:
        est[PatternId.TRIANGLE] += c / detection_probability(t, b, 2)

    # path on 4 vertices: edge in the middle (x-u-v-y, a*bb - c ways),
    # or at an end, continuing two hops out of one endpoint
    # (|N(x)| - 1 - [x in N(v)] ways for each x in N(u), and mirrored)
    p4 = a * bb - 3 * c - a - bb + sa + sb
    if p4:
        est[PatternId.PATH_4] += p4 / detection_probability(t, b, 2)

    # cycle u-x-y-v-u: x next to u, y next to v, x-y sampled
    if c4:
        est[PatternId.CYCLE_4] += c4 / detection_probability(t, b, 3)

    # paw: either the edge lies in the triangle (pendant off any of its
    # three vertices) or it is the pendant of a sampled triangle on u
    # or on v (the index's count: sampled edges within N(u), N(v))
    tri = res.tri
    paw = c * (a + bb - 4) + sw + tri.get(u, 0) + tri.get(v, 0)
    if paw:
        est[PatternId.PAW] += paw / detection_probability(t, b, 3)

    # diamond: the edge is the shared side of two triangles (pick 2
    # common neighbors) or a rim edge (one triangle plus a second one
    # hanging off either of its sides)
    dia = c * (c - 1) // 2 + rim
    if dia:
        est[PatternId.DIAMOND] += dia / detection_probability(t, b, 4)

    # K4: a sampled edge between two common neighbors, seen from both
    k4 //= 2
    if k4:
        est[PatternId.K4] += k4 / detection_probability(t, b, 5)

    maybe_sample(res, edge)
    return state


def closed_form_counts(state: GabeState) -> dict[PatternId, float]:
    """The 11 pattern counts that follow from n, m, and exact degrees.

    Triangle-plus-isolated is the one entry built on an estimate.
    """
    n = state.n
    m = state.m_seen
    degs = state.degrees.values()
    wedges = sum(comb(d, 2) for d in degs)
    claws = sum(comb(d, 3) for d in degs)
    return {
        PatternId.EDGELESS_2: float(comb(n, 2)),
        PatternId.EDGE: float(m),
        PatternId.EDGELESS_3: float(comb(n, 3)),
        PatternId.EDGE_PLUS_ISOLATED: float(m * max(n - 2, 0)),
        PatternId.WEDGE: float(wedges),
        PatternId.EDGELESS_4: float(comb(n, 4)),
        PatternId.EDGE_PLUS_2_ISOLATED: float(m * comb(max(n - 2, 0), 2)),
        PatternId.TWO_DISJOINT_EDGES: float(comb(m, 2) - wedges),
        PatternId.WEDGE_PLUS_ISOLATED: float(wedges * max(n - 3, 0)),
        PatternId.TRIANGLE_PLUS_ISOLATED: state.est[PatternId.TRIANGLE] * max(n - 3, 0),
        PatternId.CLAW: float(claws),
    }


def gabe_finalize(state: GabeState) -> Descriptor:
    """Assemble the descriptor once the stream is fully consumed.

    Induced estimates can come out negative under sampling noise; they
    are kept raw rather than clamped, which preserves unbiasedness.
    """
    n = state.n
    phi = np.zeros(N_PATTERNS)
    if n >= 2:
        counts = np.zeros(N_PATTERNS)
        for pid, val in closed_form_counts(state).items():
            counts[pid - 1] = val
        for pid, val in state.est.items():
            counts[pid - 1] = val
        phi = phi_from_induced(subgraph_to_induced(counts), n)
    return Descriptor(
        graph_id=0, method="gabe", b=state.reservoir.budget, seed=state.seed,
        n=n, m=state.m_seen, values=phi)


def exact_gabe_descriptor(g: Graph) -> Descriptor:
    """Ground-truth descriptor straight from the induced-count oracle."""
    phi = np.zeros(N_PATTERNS)
    if g.n >= 2:
        phi = phi_from_induced(exact_induced_counts(g).values, g.n)
    return Descriptor(
        graph_id=0, method="gabe", b=g.m, seed=0, n=g.n, m=g.m, values=phi)
