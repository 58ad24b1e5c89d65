"""Brute-force ground truth used to validate every estimator.

Induced counts come from one enumeration of all vertex subsets of size
<= 4, each classified by the code of its edge bits through a table
built from the degree-sequence fingerprint; plain subgraph counts
follow by applying the overlap matrix.  Per-vertex quantities are
computed independently of the streaming identities so they can stand as
an oracle for those identities.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .errors import OracleSizeError
from .graph import Graph
from .patterns import (
    N_PATTERNS,
    ORDER_SLICES,
    PatternCounts,
    PatternId,
    classify_degree_sequence,
    induced_to_subgraph,
)

# Enumeration is over all C(n,4) vertex subsets; past this size the cost
# and memory stop being desk-scale.
ORACLE_LIMIT = 60


def check_size(n: int) -> None:
    """Refuse an n-vertex graph above ORACLE_LIMIT, before any enumeration."""
    if n > ORACLE_LIMIT:
        raise OracleSizeError(
            f"graph has {n} vertices, exact enumeration is limited to {ORACLE_LIMIT}")


def _adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        nbrs = list(g.adj[u])
        if nbrs:
            a[u, nbrs] = True
    return a


def _combo_array(n: int, k: int) -> np.ndarray:
    count = comb(n, k)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.int64,
        count=count * k,
    )
    return flat.reshape(count, k)


def _edge_code_lut(k: int) -> np.ndarray:
    """Edge-bit code -> pattern index (id - 1), for order k.

    Bit i of a code is set when the i-th vertex pair of the subset, in
    itertools.combinations(range(k), 2) order, is an edge.
    """
    pairs = list(itertools.combinations(range(k), 2))
    lut = np.empty(2 ** len(pairs), dtype=np.int64)
    for code in range(len(lut)):
        deg = [0] * k
        for bit, (i, j) in enumerate(pairs):
            if code >> bit & 1:
                deg[i] += 1
                deg[j] += 1
        lut[code] = classify_degree_sequence(sorted(deg)) - 1
    return lut


_LUT = {k: _edge_code_lut(k) for k in (3, 4)}


def exact_induced_counts(g: Graph) -> PatternCounts:
    """Induced counts of all 17 patterns; order-k entries sum to C(n,k).

    Each triple x < y < z gets the 3-bit code of its pairs (x,y), (x,z),
    (y,z).  A quadruple a < x < y < z adds the bits of (a,x), (a,y),
    (a,z) below its triple's code shifted up by 3.  The triples above a
    are a suffix of the lexicographic triple list, so no C(n,4) array is
    ever built.
    """
    check_size(g.n)
    values = np.zeros(N_PATTERNS)
    values[PatternId.EDGE - 1] = g.m
    values[PatternId.EDGELESS_2 - 1] = comb(g.n, 2) - g.m
    if g.n < 3:
        return PatternCounts(values=values)
    adj = _adjacency_matrix(g).view(np.uint8)
    x, y, z = np.ascontiguousarray(_combo_array(g.n, 3).T)
    code3 = adj[x, y] | adj[x, z] << 1 | adj[y, z] << 2
    high = code3 << 3
    hist4 = np.zeros(64, dtype=np.int64)
    for a in range(g.n - 3):
        s = np.searchsorted(x, a, side="right")
        row = adj[a]
        code4 = row[x[s:]] | row[y[s:]] << 1 | row[z[s:]] << 2 | high[s:]
        hist4 += np.bincount(code4, minlength=64)
    hist3 = np.bincount(code3, minlength=8)
    for k, hist in ((3, hist3), (4, hist4)):
        values += np.bincount(_LUT[k], weights=hist, minlength=N_PATTERNS)
    return PatternCounts(values=values)


def exact_subgraph_counts(g: Graph) -> PatternCounts:
    """Not-necessarily-induced counts, derived from the induced counts."""
    induced = exact_induced_counts(g)
    return PatternCounts(values=induced_to_subgraph(induced.values))


def exact_vertex_triangle_path_counts(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex triangle count and endpoint three-path count, as int64.

    path[v] counts paths on three vertices with v as an endpoint, which
    equals sum over neighbors u of (deg(u) - 1).
    """
    adj = _adjacency_matrix(g).astype(np.int64)
    deg = adj.sum(axis=1)
    tri = ((adj @ adj) * adj).sum(axis=1) // 2
    path = adj @ deg - deg
    return tri, path


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
