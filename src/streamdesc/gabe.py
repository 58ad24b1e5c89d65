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

import numpy as np

from .descriptors import Descriptor
from .graph import Edge, Graph
from .oracle import edge_centric_induced_counts, phi_from_induced
from .patterns import (
    NUMPY_PREFIX_EDGES, PatternId, STREAM_ESTIMATED, cycles4, cycles4_wedges,
    plain_counts, ranked_keys, subgraph_to_induced, triangle_wedges)
from .reservoir import StreamState

# K4 detection needs its 5 other edges resident in the sample.
MIN_GABE_BUDGET = 5

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
    neighbor w, so storing or evicting it moves u's and v's counts by
    |N(u) & N(v)| and each such w's count by 1 (_tally).
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
                    n_hint: int | None = None,
                    degrees: tuple[np.ndarray, np.ndarray] | None = None) -> GabeState:
        """StreamState.from_prefix, with each estimate set to the prefix
        graph's exact subgraph count and the index to its triangles per
        vertex.

        With d the degree, T(x) the triangles on vertex x and c those on
        an edge: path-4 = sum (d_u - 1)(d_v - 1) - 3T, paw = sum T(x)
        (d_x - 2), diamond = sum C(c, 2), and K4 from the edges inside
        each edge's common neighbourhood C (each K4 has 6 edges, each
        seeing the opposite one from both its ends), which only edges
        with c >= 2 have.

        A prefix of NUMPY_PREFIX_EDGES or more builds
        patterns.ranked_keys once and takes T, c and the 4-cycles from
        triangle_wedges and cycles4_wedges, before the adjacency is
        built, so the two never hold memory at once; it intersects
        neighbourhoods only on the edges with c >= 2, for K4.  A smaller
        prefix intersects N(u) & N(v) on every edge (x is on T(x)/2 of
        the C's of its edges) and runs patterns.cycles4.  All of them
        count exactly, and the sums are Python ints, so each estimate
        equals the stepped one bit for bit while partial sums stay
        below 2**53.

        Besides the prefix's adjacency and per-vertex counts, the batch
        holds O(len(edges)) int64 arrays and one chunk of wedges while
        the numpy passes run, nothing over all n vertices.
        """
        numpy_pass = len(edges) >= NUMPY_PREFIX_EDGES
        if numpy_pass:
            keys, labels = ranked_keys(edges)
            n = len(labels)
            c4 = cycles4_wedges(keys, n)
            tri, c = triangle_wedges(keys, n)
            on = np.flatnonzero(tri)
            tri = dict(zip(labels[on].tolist(), tri[on].tolist()))
            multi = np.flatnonzero(c > 1)  # the edges on two triangles or more
            c = c[multi]
            diamond = int((c * (c - 1)).sum()) // 2
            u, v = np.divmod(keys[multi], n)
            multi = list(zip(labels[u].tolist(), labels[v].tolist()))
            del keys, labels
        state = super().from_prefix(edges, budget, seed, n_hint, degrees)
        adj = state.adj
        path = k4x12 = 0
        if numpy_pass:
            path = sum((len(adj[u]) - 1) * (len(adj[v]) - 1) for u, v in edges)
            for u, v in multi:
                common = adj[u] & adj[v]
                k4x12 += sum([len(adj[x] & common) for x in common])
        else:
            tri2: dict[int, int] = {}
            diamond = 0
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
            tri = {x: k // 2 for x, k in tri2.items()}
            c4 = cycles4(adj)
        state.tri = tri
        triangles = sum(tri.values()) // 3
        paw = sum([k * (len(adj[x]) - 2) for x, k in tri.items()])
        counts = (triangles, path - 3 * triangles, c4, paw, diamond, k4x12 // 12)
        state.est = {pid: float(k) for pid, k in zip(STREAM_ESTIMATED, counts)}
        return state

    def step_ends(self, us: list[int], vs: list[int]) -> GabeState:
        """Step the block of stream edges (us[i], vs[i]), whose degrees
        the caller counts: draw the reservoir's decisions for all of it,
        then per edge count every tracked pattern copy it completes
        against the current sample, then store it, as a tuple, if it was
        kept.

        Where both endpoints have sampled neighbours, one pass over N(u)
        and one over N(v) (sampled neighborhoods) gather every sum the six
        counts need; the sampled triangles on u and on v come from the
        state's triangle index.  An edge with sampled neighbours at one end
        only completes paths and paws alone, and one with none completes
        nothing.  Expects a preprocessed stream (no self-loops or
        duplicates).
        """
        adj, tri, b = self.adj, self.tri, self.budget
        get, item, tri_get, store = adj.get, adj.__getitem__, tri.get, self._store
        # the estimates stay in locals until the block ends: no step reads them
        e_tri, e_path, e_c4, e_paw, e_dia, e_k4 = map(self.est.__getitem__, STREAM_ESTIMATED)
        # _draw moves self.t on past the block; t is each edge's arrival
        start = self.t + 1
        kept = self._draw(len(us)).get
        for t, (u, v) in enumerate(zip(us, vs), start):
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
                c = path = c4 = paw = dia = k4 = 0

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

            slot = kept(t)
            if slot is not None:
                store((u, v), slot)
        self.est.update(zip(STREAM_ESTIMATED, (e_tri, e_path, e_c4, e_paw, e_dia, e_k4)))
        return self

    def finalize(self) -> Descriptor:
        """Assemble the descriptor once the stream is fully consumed.

        Induced estimates can come out negative under sampling noise; they
        are kept raw rather than clamped, which preserves unbiasedness.
        """
        n = self.n
        counts = np.array(plain_counts(
            n, self.t, self.vertex_degrees()[1],
            [self.est[pid] for pid in STREAM_ESTIMATED]), dtype=float)
        phi = phi_from_induced(subgraph_to_induced(counts), n)
        return Descriptor(
            graph_id=0, method="gabe", b=self.budget, seed=self.seed,
            n=n, m=self.t, values=phi)

    def _tally(self, u: int, v: int, nu: set[int], nv: set[int], sign: int):
        """Move the triangle index by the sampled edge u-v entering (sign
        +1) or leaving (-1) the sample, as StreamState._store says."""
        common = nu & nv
        if common:
            tri = self.tri
            k = sign * len(common)
            tri[u] = tri.get(u, 0) + k
            tri[v] = tri.get(v, 0) + k
            for w in common:
                tri[w] = tri.get(w, 0) + sign


def gabe_process_edge(state: GabeState, edge: Edge) -> GabeState:
    """GabeState.step for one edge."""
    return state.step((edge,))


