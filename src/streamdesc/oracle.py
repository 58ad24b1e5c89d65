"""Exact ground truth used to validate every estimator.

The gabe oracle gets the 17 induced counts from per-edge common
neighbourhoods and a degree-ordered wedge pass, with no vertex cap.
The maeve oracle builds each vertex's features from its explicit
egonet, independently of the streaming identities, so it can stand as
an oracle for those identities.
"""

from __future__ import annotations

from math import comb
from operator import mul

import numpy as np

from .graph import Graph
from .patterns import (
    N_PATTERNS, ORDER_SLICES, PatternCounts, cycles4, overlap_matrix, plain_counts)

# Python-int rows of the overlap matrix, so the edge-centric inversion
# never rounds.
_OVERLAP_ROWS = overlap_matrix().tolist()


def edge_centric_induced_counts(g: Graph) -> PatternCounts:
    """Induced counts of all 17 patterns for a graph of any size.  The
    tests check it bit for bit against the C(n,4) enumerator in
    tests/reference.py, which is capped at 60 vertices.

    Per edge uv the common neighbourhood C = N(u) & N(v), t = |C|,
    gives the connected subgraph counts (d is the degree, T the
    triangles):

    - triangle  sum t / 3;
    - path-4    sum (d_u - 1)(d_v - 1) - 3T;
    - paw       sum over vertices of t_v (d_v - 2), which is
                sum t (d_u + d_v - 4) / 2 since t_v is half the t of
                the edges on v;
    - diamond   sum C(t, 2);
    - K4        the edges inside the part of C labelled above u and v,
                so each K4 is counted once, at its lowest-labelled edge;
    - cycle-4   from patterns.cycles4, a wedge pass over the adjacency
                sets that no estimator runs.

    The per-edge loop and cycles4 are the oracle's own: a prefix counted
    in one batch takes its triangles, and gabe's its K4s and 4-cycles,
    from patterns.triangle_wedges and cycles4_wedges, and a stepped one
    from the block step, so this checks both independently.  The other
    eleven are patterns.plain_counts' closed forms.

    The induced counts follow by back-substitution through the overlap
    matrix on Python ints, converted to float once at the end.
    Time is the sum of the per-edge intersections plus the wedge pass;
    memory is O(n + m) beyond the graph.
    """
    n, m, adj = g.n, g.m, g.adj
    deg = [len(nbrs) for nbrs in adj]
    tri3 = path = paw2 = diamond = k4x2 = 0
    for u, nu in enumerate(adj):
        du = deg[u] - 1
        for v in nu:
            if v < u:
                continue
            dv = deg[v] - 1
            path += du * dv
            common = nu & adj[v]
            t = len(common)
            if t:
                tri3 += t
                paw2 += t * (du + dv - 2)
                if t > 1:
                    diamond += t * (t - 1) // 2
                    above = {x for x in common if x > v}
                    if len(above) > 1:
                        k4x2 += sum([len(adj[x] & above) for x in above])
    triangles = tri3 // 3
    sub = plain_counts(n, m, deg, [triangles, path - 3 * triangles,
                                   cycles4(dict(enumerate(adj))), paw2 // 2,
                                   diamond, k4x2 // 2])
    # O is unit upper triangular: solve O x = sub from the last row up.
    for i in range(N_PATTERNS - 1, -1, -1):
        sub[i] -= sum(map(mul, _OVERLAP_ROWS[i][i + 1:], sub[i + 1:]))
    return PatternCounts(values=[float(x) for x in sub])


def exact_vertex_features(g: Graph, v: int) -> tuple[float, float, float, float, float]:
    """Five per-vertex features from an explicit egonet construction.

    Returns (degree, clustering coefficient, average neighbor degree,
    egonet edge count, egonet boundary edge count).  Conventions:
    clustering is 0 when degree < 2, average neighbor degree is 0 for
    an isolated vertex.  Deliberately avoids the d/T/P shortcut
    identities so it can validate them.
    """
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for a {g.n}-vertex graph")
    nbrs = g.adj[v]
    d = len(nbrs)
    if d == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    ego = {v} | nbrs
    inside = 0
    leaving = 0
    for x in ego:
        for y in g.adj[x]:
            if y in ego:
                if x < y:
                    inside += 1
            else:
                leaving += 1
    nbr_edges = sum(len(g.adj[u] & nbrs) for u in nbrs) // 2
    clustering = nbr_edges / comb(d, 2) if d >= 2 else 0.0
    avg_nbr_deg = sum(len(g.adj[u]) for u in nbrs) / d
    return (float(d), clustering, avg_nbr_deg, float(inside), float(leaving))


def phi_from_induced(induced: np.ndarray, n: int) -> np.ndarray:
    """Normalized frequency vector from the 17 induced counts: order-k
    block divided by C(n,k).

    Blocks with C(n,k) = 0 are defined as all zeros.
    """
    phi = np.zeros(N_PATTERNS)
    for k, block in ORDER_SLICES.items():
        denom = comb(n, k)
        if denom:
            phi[block] = induced[block] / denom
    return phi
