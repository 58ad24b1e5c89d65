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

from itertools import chain

import numpy as np

from .descriptors import Descriptor
from .graph import Edge, Graph
from .oracle import edge_centric_induced_counts, phi_from_induced
from .patterns import (
    PatternId, STREAM_ESTIMATED, cycles4, plain_counts, subgraph_to_induced)
from .reservoir import StreamState, maybe_sample

# K4 detection needs its 5 other edges resident in the sample.
MIN_GABE_BUDGET = 5

# A prefix of at least this many edges counts its 4-cycles with
# _cycles4_wedges, a smaller one with patterns.cycles4, the Python pass
# the oracle also runs.  On a 2-vCPU host the numpy pass wins from
# about 100-130 edges when called alone, but only from about 300-400
# inside compute_descriptors' thread pool, where each numpy call costs
# more; rounded up to a power of two.
NUMPY_CYCLES4_EDGES = 512
# About this many wedges are counted at once by _cycles4_wedges.
WEDGE_CHUNK = 2 ** 15


def exact_gabe_descriptor(g: Graph) -> Descriptor:
    """Ground-truth descriptor from the edge-centric induced counts, for
    a graph of any size."""
    phi = phi_from_induced(edge_centric_induced_counts(g).values, g.n)
    return Descriptor(
        graph_id=0, method="gabe", b=g.m, seed=0, n=g.n, m=g.m, values=phi)


class GabeState(StreamState):
    """Stream state plus the six sampled pattern-count estimates and,
    per vertex, the number of sampled triangles on it (vertices on none
    may be absent or hold 0).

    A sampled edge u-v closes one triangle with each common sampled
    neighbor w, so linking or unlinking it moves u's and v's counts by
    |N(u) & N(v)| and each such w's count by 1.
    """

    __slots__ = ("est", "tri")
    MERGED = ("est",)  # the triangle index only serves the steps

    MIN_BUDGET = MIN_GABE_BUDGET
    DETECTS = "6-edge patterns"
    exact = staticmethod(exact_gabe_descriptor)

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        super().__init__(budget, seed, n_hint)
        self.est: dict[PatternId, float] = {pid: 0.0 for pid in STREAM_ESTIMATED}
        self.tri: dict[int, int] = {}

    @classmethod
    def from_prefix(cls, edges: list[Edge], budget: int, seed: int = 0,
                    n_hint: int | None = None) -> GabeState:
        """StreamState.from_prefix, with each estimate set to the prefix
        graph's exact subgraph count and the index to its triangles per
        vertex.

        One pass over the edges' common neighbourhoods C gives, with d
        the degree: triangles T(x) on each vertex (x is on T(x)/2 of the
        C's of its edges), path-4 = sum (d_u - 1)(d_v - 1) - 3T, paw =
        sum T(x)(d_x - 2), diamond = sum C(|C|, 2), and K4 from the
        edges inside C (each K4 has 6 edges, each seeing the opposite
        one from both its ends).  4-cycles come from _cycles4_wedges
        on a prefix of NUMPY_CYCLES4_EDGES or more, before the
        adjacency is built, so the two never hold memory at once; from
        patterns.cycles4 on a smaller one.  Both count exactly, and the
        sums are Python ints, so each estimate equals the stepped one
        bit for bit while partial sums stay below 2**53.

        Besides the prefix's adjacency and per-vertex counts, the batch
        holds O(len(edges)) int64 arrays and one chunk of wedges while
        _cycles4_wedges runs, nothing over all n vertices.
        """
        c4 = _cycles4_wedges(edges) if len(edges) >= NUMPY_CYCLES4_EDGES else None
        state = super().from_prefix(edges, budget, seed, n_hint)
        adj = state.adj
        tri2: dict[int, int] = {}
        path = diamond = k4x12 = 0
        for u, v in edges:
            nu, nv = adj[u], adj[v]
            path += (len(nu) - 1) * (len(nv) - 1)
            common = nu & nv
            if common:
                c = len(common)
                tri2[u] = tri2.get(u, 0) + c
                tri2[v] = tri2.get(v, 0) + c
                if c > 1:
                    diamond += c * (c - 1) // 2
                    k4x12 += sum([len(adj[x] & common) for x in common])
        tri = state.tri = {x: k // 2 for x, k in tri2.items()}
        triangles = sum(tri.values()) // 3
        paw = sum([k * (len(adj[x]) - 2) for x, k in tri.items()])
        if c4 is None:
            c4 = cycles4(adj)
        counts = (triangles, path - 3 * triangles, c4, paw, diamond, k4x12 // 12)
        state.est = {pid: float(k) for pid, k in zip(STREAM_ESTIMATED, counts)}
        return state

    def step(self, edges) -> GabeState:
        """Step a block of stream edges (a sequence, read twice): count the
        block's degrees, then per edge every tracked pattern copy it
        completes against the current sample, then offer it to the
        reservoir.

        Where both endpoints have sampled neighbours, one pass over N(u)
        and one over N(v) (sampled neighborhoods) gather every sum the six
        counts need; the sampled triangles on u and on v come from the
        state's triangle index.  An edge with sampled neighbours at one end
        only completes paths and paws alone, and one with none completes
        nothing.  Expects a preprocessed stream (no self-loops or
        duplicates).
        """
        adj, tri, b = self.adj, self.tri, self.budget
        get, item, tri_get, sample = adj.get, adj.__getitem__, tri.get, maybe_sample
        # the estimates stay in locals until the block ends: no step reads them
        e_tri, e_path, e_c4, e_paw, e_dia, e_k4 = map(self.est.__getitem__, STREAM_ESTIMATED)
        self.degrees.update(chain.from_iterable(edges))
        # maybe_sample moves self.t on by one per edge
        for t, edge in enumerate(edges, self.t + 1):
            u, v = edge
            na = get(u)  # the index holds no empty set
            nb = get(v)
            if na is not None and nb is not None:
                a, bb = len(na), len(nb)
                # One pass over x in N(u): sa = sum |N(x)|, c4 = sum
                # |N(x) & N(v)|, and over the common neighbors w among them:
                # c = their number, sw = sum |N(w)|, rim = sum |N(w) & N(u)|
                # + |N(w) & N(v)|, k4 = sum |N(w) & N(u) & N(v)|.  Then
                # sb = sum |N(y)| over y in N(v).
                sa = c = c4 = sw = rim = k4 = 0
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
                sb = sum(map(len, map(item, nb)))
                # path on 4 vertices: edge in the middle (x-u-v-y, a*bb - c
                # ways), or at an end, continuing two hops out of one
                # endpoint (|N(x)| - 1 - [x in N(v)] ways for each x in
                # N(u), and mirrored)
                path = a * bb - 3 * c - a - bb + sa + sb
                # paw: either the edge lies in the triangle (pendant off any
                # of its three vertices) or it is the pendant of a sampled
                # triangle on u or on v (the index's count: sampled edges
                # within N(u), N(v))
                paw = c * (a + bb - 4) + sw + tri_get(u, 0) + tri_get(v, 0)
                # diamond: the edge is the shared side of two triangles
                # (pick 2 common neighbors) or a rim edge (one triangle plus
                # a second one hanging off either of its sides)
                dia = c * (c - 1) // 2 + rim
                # K4: a sampled edge between two common neighbors, seen
                # from both
                k4 //= 2
            elif na is not None or nb is not None:
                # the same counts with one side empty: only the paths that
                # go on two hops out of the other end, and the paws that
                # hang the edge off a sampled triangle there
                x, nx = (u, na) if nb is None else (v, nb)
                path = sum(map(len, map(item, nx))) - len(nx)
                paw = tri_get(x, 0)
                c = c4 = dia = k4 = 0
            else:
                sample(self, edge)
                continue

            if c or path or c4 or paw or dia or k4:
                # pk: probability that k given earlier edges are all in the
                # sample, built factor by factor in the order of the
                # reference detection_probability in tests/reference.py, so
                # pk equals detection_probability(t, b, k) bit for bit
                p2 = p3 = p4 = p5 = 1.0
                if t - 1 > b:
                    p2 = b / (t - 1) * ((b - 1) / (t - 2))
                    p3 = p2 * ((b - 2) / (t - 3))
                    if dia or k4:
                        p4 = p3 * ((b - 3) / (t - 4))
                        p5 = p4 * ((b - 4) / (t - 5))
                # triangle u-v-w: w adjacent to both endpoints
                if c:
                    e_tri += c / p2
                if path:
                    e_path += path / p2
                # cycle u-x-y-v-u: x next to u, y next to v, x-y sampled
                if c4:
                    e_c4 += c4 / p3
                if paw:
                    e_paw += paw / p3
                if dia:
                    e_dia += dia / p4
                if k4:
                    e_k4 += k4 / p5

            sample(self, edge)
        self.est.update(zip(STREAM_ESTIMATED, (e_tri, e_path, e_c4, e_paw, e_dia, e_k4)))
        return self

    def finalize(self) -> Descriptor:
        """Assemble the descriptor once the stream is fully consumed.

        Induced estimates can come out negative under sampling noise; they
        are kept raw rather than clamped, which preserves unbiasedness.
        """
        n = self.n
        counts = np.array(plain_counts(
            n, self.t, self.degrees.values(),
            [self.est[pid] for pid in STREAM_ESTIMATED]), dtype=float)
        phi = phi_from_induced(subgraph_to_induced(counts), n)
        return Descriptor(
            graph_id=0, method="gabe", b=self.budget, seed=self.seed,
            n=n, m=self.t, values=phi)

    def _add_triangles(self, u: int, v: int, sign: int):
        nu = self.adj.get(u)
        nv = self.adj.get(v)
        if nu and nv:
            common = nu & nv
            if common:
                tri = self.tri
                k = sign * len(common)
                tri[u] = tri.get(u, 0) + k
                tri[v] = tri.get(v, 0) + k
                for w in common:
                    tri[w] = tri.get(w, 0) + sign

    def _link(self, u: int, v: int):
        self._add_triangles(u, v, 1)
        super()._link(u, v)

    def _unlink(self, u: int, v: int):
        super()._unlink(u, v)
        self._add_triangles(u, v, -1)


def _ranked_keys(edges: list[Edge]) -> tuple[np.ndarray, int]:
    """(keys, n) for the edges between vertices of degree > 1: one key
    rank_x * n + rank_y per direction of each, sorted, with the n
    vertices ranked by (degree, label) as patterns.cycles4 ranks them.

    np.unique makes the labels dense first (any ints, negative ones
    too), so each array is O(len(edges)) whatever the labels.
    """
    try:
        flat = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
    except OverflowError:  # a label beyond int64: sort the Python ints
        flat = np.array(edges, dtype=object).ravel()
    ends = np.unique(flat, return_inverse=True)[1]
    del flat
    deg = np.bincount(ends)
    n = len(deg)
    rank = deg.argsort(kind="stable").argsort()
    a, b = ends[0::2], ends[1::2]
    core = (deg[a] > 1) & (deg[b] > 1)
    a, b = rank[a[core]], rank[b[core]]
    keys = np.concatenate([a * n + b, b * n + a])
    keys.sort()
    return keys, n


def _cycles4_wedges(edges: list[Edge]) -> int:
    """patterns.cycles4 of the graph an edge list holds, by the same
    ranking and wedges in numpy, counted in chunks of about WEDGE_CHUNK.

    The sorted keys of _ranked_keys are a CSR of the ranked graph: row
    x lists x's neighbours in rank order, and those below r end where
    x * n + r sorts, which for a neighbour r is its own key.  So for
    each edge from u down to mid, the wedges u-mid-w with w below u
    are the start of mid's row.  These edges come in order of u, and a
    chunk takes whole rows of u, so the count c of each (u, w) is
    complete in one chunk.  Arrays are freed once used; the peak, about
    12 int64 values per edge, is np.unique's in _ranked_keys.
    """
    keys, n = _ranked_keys(edges)
    row, nbr = np.divmod(keys, n)
    down = nbr < row
    u, mid = row[down], nbr[down]
    del row, down
    if not len(u):
        return 0
    start = np.searchsorted(keys, np.arange(n) * n)
    count = np.searchsorted(keys, mid * n + u) - start[mid]
    del keys
    end = np.cumsum(count)
    shift = start[mid] - end + count  # wedge g of an edge is nbr[shift + g]
    del mid
    last = np.flatnonzero(np.diff(u, append=-1))  # each u's last edge
    cuts = last[np.searchsorted(end[last], np.arange(WEDGE_CHUNK, end[-1], WEDGE_CHUNK))]
    pairs = i = 0
    for j in [*(cuts + 1).tolist(), len(u)]:
        if j > i:  # a u with over WEDGE_CHUNK wedges ends several cuts
            c = count[i:j]
            w = nbr[np.repeat(shift[i:j], c) + np.arange(end[i] - c[0], end[j - 1])]
            k = np.unique(np.repeat(u[i:j], c) * n + w, return_counts=True)[1]
            pairs += int((k * (k - 1)).sum())
            i = j
    return pairs // 2


def gabe_process_edge(state: GabeState, edge: Edge) -> GabeState:
    """GabeState.step for one edge."""
    return state.step((edge,))


