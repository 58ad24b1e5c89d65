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
from dataclasses import dataclass
from enum import IntEnum

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
# so they serve as the isomorphism fingerprint throughout the package.
_BY_DEGSEQ: dict[tuple[int, ...], PatternId] = {
    seq: pid for pid, seq in DEGREE_SEQUENCE.items()
}


def classify_degree_sequence(seq) -> PatternId:
    """Map a sorted degree sequence of a graph on <= 4 vertices to its pattern."""
    try:
        return _BY_DEGSEQ[tuple(seq)]
    except KeyError:
        raise ValueError(f"not a valid order <= 4 degree sequence: {seq!r}") from None


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
    """Solve O x = counts by back-substitution (O is unit upper triangular)."""
    o = _OVERLAP
    x = np.asarray(counts, dtype=float).copy()
    for i in range(N_PATTERNS - 1, -1, -1):
        x[i] -= o[i, i + 1:] @ x[i + 1:]
    return x


def induced_to_subgraph(counts: np.ndarray) -> np.ndarray:
    """Apply O: plain subgraph counts from induced counts."""
    return _OVERLAP @ np.asarray(counts, dtype=float)
