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

from .graph import dense_ends

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


# A prefix of fewer than this many edges that leaves a suffix is stepped
# by the method's step_ends; any other is counted with ranked_keys,
# triangle_wedges and, for gabe, cycles4_wedges (StreamState.from_prefix).
# With a suffix the numpy count is followed by the sample build the
# suffix needs, which stepping does as it goes.  Timed on a 2-vCPU host
# (Python 3.11, numpy 2.4; median process time of from_prefix plus the
# build) on preprocessed sparse G(n, 8/n) and preferential-attachment
# streams, numpy plus the build overtakes stepping at about 80 edges for
# both methods: at 60 edges it takes 1.2-1.4 times as long, at 100 edges
# 0.8-0.9 times, at 250 about half (gabe 373 against 737 us, maeve 201
# against 401 us on G(n, p)) and at 511 a third to a half.  Lowering the
# cutoff toward that crossover is a speed change of its own, to be
# measured end to end.
NUMPY_PREFIX_EDGES = 512
# About this many wedges are looked up at once by the two numpy passes.
WEDGE_CHUNK = 2 ** 15


def dense_degrees(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(index, a, b, deg) for the edges (u[i], v[i]) of two int64 index
    columns: the columns made dense by graph.dense_ends, a and b, with
    index[a[i]] == u[i] and index[b[i]] == v[i], and deg[x] the degree of
    dense end x (0 for an index no end takes).  Each array is
    O(len(u)) whatever the indices."""
    index, ends = dense_ends(np.concatenate([u, v]))
    a, b = np.split(ends, 2)
    return index, a, b, np.bincount(ends)


def ranked_keys(a: np.ndarray, b: np.ndarray,
                deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, order) for the edges (a[i], b[i]) of dense_degrees, deg
    their degrees, between vertices of degree > 1: one key rank_x * n +
    rank_y per direction of each, sorted, with the n = len(deg) dense
    ends ranked by (degree, index) as cycles4 ranks them by (degree,
    label), and order[r] the dense end of rank r.  The caller maps
    ranks to labels: labels[index[order[r]]] with dense_degrees'
    index, over an EdgeStream's sorted labels.

    Each array is O(len(a)) whatever the labels.  A dense end that no
    edge holds, as where dense_degrees lets indices index themselves,
    ranks first, with degree 0, and owns no key.  The sorted keys are a
    CSR of the ranked graph: row x lists x's neighbours in rank order,
    and those below r end where x * n + r sorts, which for a neighbour r
    is its own key.
    """
    n = len(deg)
    order = deg.argsort(kind="stable")
    rank = order.argsort()
    core = (deg[a] > 1) & (deg[b] > 1)
    a, b = rank[a[core]], rank[b[core]]
    keys = np.concatenate([a * n + b, b * n + a])
    keys.sort()
    return keys, order


def cycles4_wedges(keys: np.ndarray, n: int) -> int:
    """cycles4 of the ranked graph of ranked_keys (keys over n ranks), by
    the same wedges in numpy, counted in chunks of about WEDGE_CHUNK.

    For each edge from u down to mid, the wedges u-mid-w with w below u
    are the start of mid's row in the CSR.  These edges come in order
    of u, and _item_chunks cuts only after each u's last edge, so the
    count c of each (u, w) is complete in one chunk.  Beyond the keys,
    the pass holds O(len(keys)) int64 arrays and one chunk of wedges.
    """
    row, nbr = np.divmod(keys, n)
    down = nbr < row
    u, mid = row[down], nbr[down]
    del row, down
    if not len(u):
        return 0
    start = np.searchsorted(keys, np.arange(n) * n)
    first = start[mid]
    count = np.searchsorted(keys, mid * n + u) - first
    del mid
    last = np.flatnonzero(np.diff(u, append=-1))  # each u's last edge
    pairs = 0
    for wedge, at in _item_chunks(u, first, count, last):
        wedge *= n  # in place: each chunk's arrays are new
        wedge += nbr[at]
        k = np.unique(wedge, return_counts=True)[1]
        pairs += int((k * (k - 1)).sum())
    return pairs // 2


def _item_chunks(tag: np.ndarray, first: np.ndarray, count: np.ndarray,
                 ends: np.ndarray):
    """Yield (tags, positions) in chunks: for each item i in order,
    count[i] copies of tag[i] and the positions first[i] + g, g < count[i].
    A chunk ends right after an item of ends (sorted, holding the last
    item), the first at which the running count reaches each multiple of
    WEDGE_CHUNK.  So a chunk holds fewer than WEDGE_CHUNK positions
    before its last group, the items after the previous entry of ends."""
    end = np.cumsum(count)
    shift = first - end + count  # item i's positions are shift[i] + its running indices
    cuts = ends[np.searchsorted(end[ends], np.arange(WEDGE_CHUNK, end[-1] + 1, WEDGE_CHUNK))]
    i = 0
    for j in [*(cuts + 1).tolist(), len(count)]:
        if j > i:
            k = count[i:j]
            at = np.repeat(shift[i:j], k)
            at += np.arange(end[i] - k[0], end[j - 1])
            yield np.repeat(tag[i:j], k), at
            i = j


def triangle_wedges(keys: np.ndarray, n: int,
                    k4: bool = False) -> tuple[np.ndarray, np.ndarray, int | None]:
    """(tri, c, k4s) for the ranked graph of ranked_keys (keys over n
    ranks): tri[r] the triangles on the vertex of rank r, c[i] those on
    the edge of keys[i] where that key points up (row below neighbour),
    0 where it points down, and, with k4, k4s its K4s (else None).

    A triangle x < y < z (by rank) is found once, at x, as the wedge
    y-x-z of two up keys of row x closed by the key y * n + z.  So each
    up key x -> y pairs with the up keys after it in x's row, and each
    pair is looked up in the keys by searchsorted.  The degree ranking
    leaves O(sqrt(m)) up keys in a row, so there are O(m^1.5) pairs.
    Most close no triangle, so a 64-bit mask per rank, with bit z % 64
    of y's set for each up key y -> z, drops most of them before the
    lookup.  _item_chunks cuts the pairs after any up key, so a chunk
    holds the pairs of whole up keys; it adds into tri and c only at the
    ranks and keys it found.

    A K4 a < b < c < d is exactly one pair of triangles that share
    their lowest edge a -> b and whose third vertices c < d are joined
    by a key.  A chunk holds every triangle on its up keys, grouped by
    that edge with the third vertices ascending, so with k4 it pairs
    each triangle with the later ones of its group, cut again after any
    triangle, and looks the pairs up as it does the wedges.
    Beyond the keys, the pass holds O(len(keys)) int64 arrays and one
    chunk of pairs.
    """
    row, nbr = np.divmod(keys, n)
    up = np.flatnonzero(nbr > row)
    tri = np.zeros(n, np.int64)
    c = np.zeros(len(keys), np.int64)
    k4s = 0 if k4 else None
    if not len(up):
        return tri, c, k4s
    bit = np.uint64(1) << (nbr % 64).astype(np.uint64)
    mask = np.zeros(n, np.uint64)
    np.bitwise_or.at(mask, row[up], bit[up])
    last = len(keys) - 1

    def closed(first, second):
        """The pairs of keys x -> y, x -> z that the key y * n + z closes,
        and where it is."""
        y = nbr[first]
        maybe = np.flatnonzero(mask[y] & bit[second])
        first, second = first[maybe], second[maybe]
        want = y[maybe] * n + nbr[second]
        at = np.searchsorted(keys, want)
        hit = np.flatnonzero(keys[np.minimum(at, last)] == want)
        return first[hit], second[hit], at[hit]

    # row x ends where (x + 1) * n sorts; its up keys are its tail
    count = np.searchsorted(keys, row[up] * n + n) - up - 1
    for first, second in _item_chunks(up, up + 1, count, np.arange(len(up))):
        first, second, at = closed(first, second)
        np.add.at(c, np.concatenate([first, second, at]), 1)
        np.add.at(tri, np.concatenate([row[first], nbr[first], nbr[second]]), 1)
        if k4 and len(first) > 1:
            # the later triangles on the same lowest edge, by position
            later = np.searchsorted(first, first, "right") - np.arange(1, len(first) + 1)
            each = np.arange(len(first))
            for p, q in _item_chunks(each, each + 1, later, each):
                k4s += len(closed(second[p], second[q])[0])
    return tri, c, k4s


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
