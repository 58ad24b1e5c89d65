"""Canonical catalog of the 17 small patterns (orders 2, 3, and 4).

Ids are fixed by sorting patterns by order, then by edge count, with two
declared tie-breaks inside order 4: two-disjoint-edges before
wedge-plus-isolated, and cycle-4 before paw.  Triangle-plus-isolated,
claw, and path-4 share three edges and keep that listed order.  All
metadata (degree sequences, the overlap matrix) is derived from the
reference edge lists below rather than typed out by hand.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from math import comb

import numpy as np

N_PATTERNS = 17


class PatternId(IntEnum):
    EDGELESS_2 = 1
    EDGE = 2
    EDGELESS_3 = 3
    EDGE_PLUS_ISOLATED = 4
    WEDGE = 5
    TRIANGLE = 6
    EDGELESS_4 = 7
    EDGE_PLUS_2_ISOLATED = 8
    TWO_DISJOINT_EDGES = 9
    WEDGE_PLUS_ISOLATED = 10
    TRIANGLE_PLUS_ISOLATED = 11
    CLAW = 12
    PATH_4 = 13
    CYCLE_4 = 14
    PAW = 15
    DIAMOND = 16
    K4 = 17

    @property
    def order(self) -> int:
        return _CATALOG[self][0]

    @property
    def edge_count(self) -> int:
        return len(_CATALOG[self][1])


# Reference realization of every pattern: (order, edges).
_CATALOG: dict[PatternId, tuple[int, tuple[tuple[int, int], ...]]] = {
    PatternId.EDGELESS_2: (2, ()),
    PatternId.EDGE: (2, ((0, 1),)),
    PatternId.EDGELESS_3: (3, ()),
    PatternId.EDGE_PLUS_ISOLATED: (3, ((0, 1),)),
    PatternId.WEDGE: (3, ((0, 1), (1, 2))),
    PatternId.TRIANGLE: (3, ((0, 1), (0, 2), (1, 2))),
    PatternId.EDGELESS_4: (4, ()),
    PatternId.EDGE_PLUS_2_ISOLATED: (4, ((0, 1),)),
    PatternId.TWO_DISJOINT_EDGES: (4, ((0, 1), (2, 3))),
    PatternId.WEDGE_PLUS_ISOLATED: (4, ((0, 1), (1, 2))),
    PatternId.TRIANGLE_PLUS_ISOLATED: (4, ((0, 1), (0, 2), (1, 2))),
    PatternId.CLAW: (4, ((0, 1), (0, 2), (0, 3))),
    PatternId.PATH_4: (4, ((0, 1), (1, 2), (2, 3))),
    PatternId.CYCLE_4: (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    PatternId.PAW: (4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    PatternId.DIAMOND: (4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
    PatternId.K4: (4, tuple(itertools.combinations(range(4), 2))),
}

# Patterns whose counts come from the stream estimator rather than a
# closed form: the connected order-3/4 patterns with 3 or more edges.
STREAM_ESTIMATED = (
    PatternId.TRIANGLE,
    PatternId.PATH_4,
    PatternId.CYCLE_4,
    PatternId.PAW,
    PatternId.DIAMOND,
    PatternId.K4,
)


def plain_counts(n: int, m: int, degrees, connected) -> list:
    """The 17 plain subgraph counts in id order, for a graph with n
    vertices, m edges and the given vertex degrees (a collection, read
    twice).  connected holds the six STREAM_ESTIMATED counts in that
    order; the other eleven are closed forms in n, m, the wedges, the
    claws and, for triangle-plus-isolated, the triangles.  Integer
    inputs give exact Python ints.
    """
    triangles = connected[0]
    wedges = sum([comb(d, 2) for d in degrees])
    claws = sum([comb(d, 3) for d in degrees])
    rest2, rest3 = max(n - 2, 0), max(n - 3, 0)
    return [
        comb(n, 2), m,                                          # ids 1-2
        comb(n, 3), m * rest2, wedges, triangles,               # ids 3-6
        comb(n, 4), m * comb(rest2, 2), comb(m, 2) - wedges,    # ids 7-9
        wedges * rest3, triangles * rest3, claws,               # ids 10-12
        *connected[1:],                                         # ids 13-17
    ]


def cycles4(adj) -> int:
    """Number of 4-cycles in the graph adj holds (each vertex mapped to
    its neighbour set), by degree-ordered wedges (Chiba and Nishizeki,
    SIAM J. Comput. 1985).

    A vertex of degree < 2 is on no 4-cycle, so only the others get a
    rank, by (degree, label), kept in a dict: memory follows the edges,
    not the labels.  A 4-cycle is two wedges u-v-w and u-x-w from its
    top-ranked vertex u to the opposite corner w; so with c the number
    of wedges from u to w through a lower-ranked middle to a
    lower-ranked end, the count is the sum of C(c, 2) over u and w.
    The pass costs the sum over edges of the lower-ranked end's degree.
    """
    core = sorted([(len(nbrs), v) for v, nbrs in adj.items() if len(nbrs) > 1])
    rank = {v: r for r, (_, v) in enumerate(core)}
    ranked = [sorted([rank[x] for x in adj[v] if x in rank]) for _, v in core]
    pairs = 0
    for r, row in enumerate(ranked):
        ends: list[int] = []
        for s in row[:bisect_left(row, r)]:
            mid = ranked[s]
            ends += mid[:bisect_left(mid, r)]
        if len(ends) > 1:
            pairs += sum([c * (c - 1) for c in Counter(ends).values()])
    return pairs // 2


# Positions of each order's block inside a 17-vector (id i at index i-1).
ORDER_SLICES = {2: slice(0, 2), 3: slice(2, 6), 4: slice(6, 17)}


def _degree_sequence(order: int, edges) -> tuple[int, ...]:
    deg = [0] * order
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg))


DEGREE_SEQUENCE: dict[PatternId, tuple[int, ...]] = {
    pid: _degree_sequence(order, edges) for pid, (order, edges) in _CATALOG.items()
}

# Sorted degree sequences distinguish every graph on at most 4 vertices,
# so they serve as the isomorphism fingerprint that builds the overlap
# matrix.
_BY_DEGSEQ: dict[tuple[int, ...], PatternId] = {
    seq: pid for pid, seq in DEGREE_SEQUENCE.items()
}


@dataclass
class PatternCounts:
    """A 17-entry count vector of plain subgraph or induced counts.

    values[i] holds the count for pattern id i+1.  Exact counts are
    non-negative integers stored as floats; estimated counts are
    arbitrary reals.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (N_PATTERNS,):
            raise ValueError(f"expected {N_PATTERNS} values, got {self.values.shape}")

    def __getitem__(self, pid: PatternId) -> float:
        return float(self.values[int(pid) - 1])

    def order_block(self, k: int) -> np.ndarray:
        return self.values[ORDER_SLICES[k]]


def _build_overlap_matrix() -> np.ndarray:
    out = np.zeros((N_PATTERNS, N_PATTERNS), dtype=np.int64)
    for pj, (order, edges) in _CATALOG.items():
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                pi = _BY_DEGSEQ[_degree_sequence(order, subset)]
                out[pi - 1, pj - 1] += 1
    out.flags.writeable = False
    return out


# Built once; the conversions below read this read-only copy.
_OVERLAP = _build_overlap_matrix()


# Float copies of each overlap row right of the diagonal, each its own
# contiguous array: the operands subgraph_to_induced's dot products read.
_ROW_TAILS = tuple(_OVERLAP[i, i + 1:].astype(float) for i in range(N_PATTERNS))


def overlap_matrix() -> np.ndarray:
    """17x17 integer matrix O with O[i-1, j-1] = number of spanning
    subgraphs of pattern j isomorphic to pattern i (same order only).

    Built by enumerating edge subsets of each reference pattern.  Under
    the canonical ordering O is block-diagonal by order, upper
    triangular, and has a unit diagonal, so it is invertible over the
    integers.  Returns a fresh copy the caller may modify.
    """
    return _OVERLAP.copy()


def subgraph_to_induced(counts: np.ndarray) -> np.ndarray:
    """Solve O x = counts by back-substitution (O is unit upper triangular).

    Row i's dot product reads _ROW_TAILS[i], built at import: the same
    contiguous float operand a cast of the integer row would build, so
    the same bits, with no cast per call.
    """
    x = np.array(counts, dtype=float)
    for i in range(N_PATTERNS - 1, -1, -1):
        x[i] -= _ROW_TAILS[i] @ x[i + 1:]
    return x
