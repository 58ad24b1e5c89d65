"""Reference implementations the tests check the package against.

No command, harness path or estimator calls these: the capped C(n,4)
enumerator and the helpers built on it, the one-call forms of what
GabeState.finalize, maeve's _moment_vector and the inline detection
weights compute bit for bit, both finalizes as they were before they
stopped re-copying rows (the per-call cast of each overlap row and
maeve's stack of separate feature arrays), the reservoir stepped one
edge at a time that the block steps' draws and stores must reproduce,
canberra_matrix as one broadcast over all pairs, as it was before it
filled its result a block of rows at a time, and preprocess as the list
of tuples it built before a stream was held as columns.
"""

from __future__ import annotations

import itertools
import random
from math import comb, sqrt

import numpy as np

from streamdesc.errors import BudgetTooSmallError
from streamdesc.gabe import GabeState
from streamdesc.graph import Graph
from streamdesc.maeve import MaeveState, _moment_vector
from streamdesc.oracle import phi_from_induced
from streamdesc.patterns import (
    _BY_DEGSEQ, N_PATTERNS, STREAM_ESTIMATED, PatternCounts, PatternId, overlap_matrix,
    plain_counts)

# Enumeration is over all C(n,4) vertex subsets; past this size the cost
# and memory stop being desk-scale.
ORACLE_LIMIT = 60

_OVERLAP = overlap_matrix()


def classify_degree_sequence(seq) -> PatternId:
    """Map a sorted degree sequence of a graph on <= 4 vertices to its pattern."""
    try:
        return _BY_DEGSEQ[tuple(seq)]
    except KeyError:
        raise ValueError(f"not a valid order <= 4 degree sequence: {seq!r}") from None


def induced_to_subgraph(counts: np.ndarray) -> np.ndarray:
    """Apply O: plain subgraph counts from induced counts."""
    return _OVERLAP @ np.asarray(counts, dtype=float)


def _adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, nbrs in enumerate(g.adj):
        a[u, list(nbrs)] = True
    return a


def _edge_code_lut(k: int) -> np.ndarray:
    """Edge-bit code -> pattern index (id - 1), for order k.

    Bit i of a code is set when the i-th vertex pair of the subset, in
    itertools.combinations(range(k), 2) order, is an edge.
    """
    pairs = list(itertools.combinations(range(k), 2))
    lut = np.empty(2 ** len(pairs), dtype=np.int64)
    for code in range(len(lut)):
        ends = [v for bit, pair in enumerate(pairs) if code >> bit & 1 for v in pair]
        lut[code] = classify_degree_sequence(sorted(map(ends.count, range(k)))) - 1
    return lut


_LUT = {k: _edge_code_lut(k) for k in (3, 4)}


def exact_induced_counts(g: Graph) -> PatternCounts:
    """Induced counts of all 17 patterns; order-k entries sum to C(n,k).

    Each triple x < y < z gets the 3-bit code of its pairs (x,y), (x,z),
    (y,z).  A quadruple a < x < y < z adds the bits of (a,x), (a,y),
    (a,z) below its triple's code shifted up by 3.  The triples above a
    are a suffix of the lexicographic triple list, so no C(n,4) array is
    ever built.  A graph above ORACLE_LIMIT vertices is refused with a
    ValueError before any enumeration.
    """
    if g.n > ORACLE_LIMIT:
        raise ValueError(
            f"graph has {g.n} vertices, exact enumeration is limited to {ORACLE_LIMIT}")
    values = np.zeros(N_PATTERNS)
    values[PatternId.EDGE - 1] = g.m
    values[PatternId.EDGELESS_2 - 1] = comb(g.n, 2) - g.m
    if g.n < 3:
        return PatternCounts(values=values)
    adj = _adjacency_matrix(g).view(np.uint8)
    triples = np.array(list(itertools.combinations(range(g.n), 3)), dtype=np.int64)
    x, y, z = np.ascontiguousarray(triples.T)
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


def subgraph_to_induced(counts: np.ndarray) -> np.ndarray:
    """Back-substitution through O that casts each integer row tail to
    float on every call."""
    x = np.asarray(counts, dtype=float).copy()
    for i in range(N_PATTERNS - 1, -1, -1):
        x[i] -= _OVERLAP[i, i + 1:] @ x[i + 1:]
    return x


def gabe_finalize_values(state: GabeState) -> np.ndarray:
    """GabeState.finalize's values, solved by subgraph_to_induced above."""
    counts = np.array(plain_counts(
        state.n, state.t, state.vertex_degrees()[1],
        [state.est[pid] for pid in STREAM_ESTIMATED]), dtype=float)
    return phi_from_induced(subgraph_to_induced(counts), state.n)


def maeve_finalize_values(state: MaeveState) -> np.ndarray:
    """MaeveState.finalize's values from three dense columns, the five
    features as separate arrays, and a stacked copy of them."""
    n = state.n
    if n == 0:
        return np.zeros(20)
    columns = []
    for labels, counts in (state.vertex_degrees(), (state.tri, state.tri.values()),
                           (state.path, state.path.values())):
        column = np.zeros(n)
        k = len(counts)
        column[np.fromiter(labels, int, k)] = np.fromiter(counts, float, k)
        columns.append(column)
    d, tri, paths = columns
    clustering = np.divide(tri, d * (d - 1) / 2, out=np.zeros_like(d), where=d >= 2)
    avg_neighbor_degree = np.divide(d + paths, d, out=np.zeros_like(d), where=d > 0)
    return _moment_vector(np.array(
        [d, clustering, avg_neighbor_degree, d + tri, paths - 2.0 * tri]))


def exact_subgraph_counts(g: Graph) -> PatternCounts:
    """Not-necessarily-induced counts, derived from the induced counts."""
    return PatternCounts(values=induced_to_subgraph(exact_induced_counts(g).values))


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


def closed_form_counts(state: GabeState) -> dict[PatternId, float]:
    """The 11 pattern counts that follow from n, m, and exact degrees.

    Triangle-plus-isolated is the one entry built on an estimate.
    """
    counts = plain_counts(state.n, state.t, state.vertex_degrees()[1],
                          [state.est[pid] for pid in STREAM_ESTIMATED])
    return {pid: float(counts[pid - 1])
            for pid in PatternId if pid not in STREAM_ESTIMATED}


def moments(values) -> tuple[float, float, float, float]:
    """Population moments (mean, std, skewness, kurtosis) of a sample.

    Central-moment definitions with the plain (non-excess) kurtosis; a
    constant sample reports skewness and kurtosis of 0.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("moments of an empty sample are undefined")
    mean = float(arr.mean())
    dev = arr - mean
    m2 = float(np.mean(dev * dev))
    std = sqrt(m2)
    if std == 0.0:
        return (mean, 0.0, 0.0, 0.0)
    # standardize before raising to powers: std**4 can underflow to zero
    # for tiny spreads even though std itself is positive; plain
    # multiplication (not **) keeps odd powers exactly sign-symmetric
    z = dev / std
    z2 = z * z
    skew = float(np.mean(z2 * z))
    kurt = float(np.mean(z2 * z2))
    return (mean, std, skew, kurt)


def detection_probability(t: int, b: int, m: int) -> float:
    """Probability that m specific earlier edges all survive in the
    reservoir when edge t arrives.

    Equals 1 while t-1 <= b, otherwise the product over i < m of
    (b - i) / (t - 1 - i).  m is the pattern's edge count minus one; a
    pattern needing more prior edges than the budget can hold is
    undetectable, hence the error for m > b.
    """
    if t < 1 or b < 1 or m < 1:
        raise ValueError(f"need t, b, m >= 1, got t={t} b={b} m={m}")
    if m > b:
        raise BudgetTooSmallError(
            f"budget {b} cannot hold the {m} prior edges the pattern needs")
    if t - 1 <= b:
        return 1.0
    p = 1.0
    for i in range(m):
        p *= (b - i) / (t - 1 - i)
    return p


class ReferenceReservoir:
    """The reservoir alone, with its adjacency in a plain dict of sets,
    for maybe_sample below to step one edge at a time.  Each _unlink is
    one replacement of a stored edge, counted in replacements."""

    def __init__(self, budget: int, seed: int = 0):
        self.budget = budget
        self.t = 0
        self.rng = random.Random(seed)
        self.edges: list[tuple[int, int]] = []
        self.adj: dict[int, set[int]] = {}
        self.peak_stored = 0
        self.replacements = 0

    def _link(self, u: int, v: int):
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def _unlink(self, u: int, v: int):
        self.replacements += 1
        for a, b in ((u, v), (v, u)):
            nbrs = self.adj[a]
            nbrs.discard(b)
            if not nbrs:
                del self.adj[a]


def randbelow(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n): getrandbits of n's bit length, drawn
    again while it is n or more.  The program's draws are defined by
    this rejection, not by the standard library's randrange (which runs
    it on CPython 3.10-3.13)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def shuffle(x, rng: random.Random) -> None:
    """Fisher-Yates from the end, each swap index drawn by randbelow:
    the order graph.preprocess defines (random.shuffle's on CPython
    3.10-3.13)."""
    for i in range(len(x) - 1, 0, -1):
        j = randbelow(rng, i + 1)
        x[i], x[j] = x[j], x[i]


def maybe_sample(state: ReferenceReservoir, edge: tuple[int, int]) -> None:
    """Reservoir step for the next stream edge: append it while the
    sample has room, else let it replace a uniformly chosen stored edge
    with probability b/t.  Must be called exactly once per stream edge,
    after any counting that inspects the pre-arrival sample.
    """
    state.t += 1
    if state.t <= state.budget:
        state.edges.append(edge)
        state._link(*edge)
        if len(state.edges) > state.peak_stored:
            state.peak_stored = len(state.edges)
    elif state.rng.random() < state.budget / state.t:
        slot = randbelow(state.rng, state.budget)
        state._unlink(*state.edges[slot])
        state.edges[slot] = edge
        state._link(*edge)


def preprocess(raw_edges, seed: int) -> list[tuple[int, int]]:
    """The edges graph.preprocess streams, in its order: each pair's
    labels relabelled by first appearance with a dict, self-loops and
    all but the first copy of a duplicate (in either orientation)
    dropped, and the list of (low, high) tuples shuffled in place by
    shuffle above with random.Random(seed)."""
    seen, relabel, edges = set(), {}, []
    for a, b in raw_edges:
        a, b = int(a), int(b)
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        for x in (a, b):
            relabel.setdefault(x, len(relabel))
        ra, rb = relabel[a], relabel[b]
        edges.append((min(ra, rb), max(ra, rb)))
    shuffle(edges, random.Random(seed))
    return edges


def canberra_matrix(xs, ys) -> np.ndarray:
    """All-pairs Canberra distances from one (rows, cols, dim) broadcast."""
    a = np.asarray(xs, dtype=float)
    b = np.asarray(ys, dtype=float)
    num = np.abs(a[:, None, :] - b[None, :, :])
    den = np.abs(a)[:, None, :] + np.abs(b)[None, :, :]
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return terms.sum(axis=2)
