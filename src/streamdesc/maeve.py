"""Single-pass per-vertex estimator and the moment descriptor over it.

For every vertex the stream yields its exact degree plus estimates of
its triangle count and its endpoint three-path count.  Five structural
features derive from those three numbers alone; the descriptor is the
four moments of each feature over all vertices, 20 values in a fixed
feature-major order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .descriptors import Descriptor
from .graph import Edge, Graph
from .oracle import exact_vertex_features
from .patterns import dense_degrees, ranked_keys, triangle_wedges
from .reservoir import StreamState

# A triangle's two prior edges must fit in the sample.
MIN_MAEVE_BUDGET = 2

FEATURE_NAMES = (
    "degree",
    "clustering",
    "avg_neighbor_degree",
    "egonet_edges",
    "egonet_boundary",
)

MOMENT_NAMES = ("mean", "std", "skewness", "kurtosis")


@dataclass
class VertexFeatures:
    degree: float
    clustering: float
    avg_neighbor_degree: float
    egonet_edges: float
    egonet_boundary: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.degree,
            self.clustering,
            self.avg_neighbor_degree,
            self.egonet_edges,
            self.egonet_boundary,
        )


def features_from_counts(degree, triangles, paths, out=None) -> VertexFeatures:
    """The five features as functions of (degree, triangle count,
    endpoint three-path count), for one vertex (scalars) or many
    (equal-length arrays, one entry per vertex).

    Conventions for the undefined corners: clustering is 0 when
    degree < 2, average neighbor degree is 0 when degree = 0.  A vertex
    of degree 0 is on no triangle or path, so all its features are 0.

    The features are written into the rows of out, a zero-filled float
    array of shape (5, *degree's shape) that must not hold the inputs,
    in FEATURE_NAMES order; without one a fresh one is made.  The
    returned fields are views of its rows (scalars for scalar inputs).
    """
    d = np.asarray(degree, dtype=float)
    tri = np.asarray(triangles, dtype=float)
    paths = np.asarray(paths, dtype=float)
    if out is None:
        out = np.zeros((5, *d.shape))
    # out[j, ...] is a view even when the rows are 0-d
    rows = [out[j, ...] for j in range(5)]
    deg, clustering, avg_neighbor_degree, egonet_edges, egonet_boundary = rows
    np.copyto(deg, d)
    np.divide(tri, d * (d - 1) / 2, out=clustering, where=d >= 2)
    # (d + paths) / d rather than 1 + paths/d: on exact inputs the
    # numerator equals the integer sum of neighbor degrees, so the
    # division result matches the egonet oracle bit for bit.
    np.divide(d + paths, d, out=avg_neighbor_degree, where=d > 0)
    np.add(d, tri, out=egonet_edges)
    np.subtract(paths, np.multiply(tri, 2.0, out=egonet_boundary), out=egonet_boundary)
    # [()] turns a 0-d row into a scalar and leaves arrays as they are
    return VertexFeatures(*(row[()] for row in rows))


def _moment_vector(table: np.ndarray) -> np.ndarray:
    """The four population moments (mean, std, skewness, plain
    kurtosis) of each feature, feature-major, from a (5, n) C-contiguous
    float table with one row per feature; a constant row has skewness
    and kurtosis 0.  Overwrites the table.

    The means come from one row-wise reduction, the other moments from
    the steps the one-sample moments() in tests/reference.py takes
    on each row, in place in the row and one n-sized buffer, so
    every value has the bits moments(table[j]) gives.  (Reducing strided
    columns of an (n, 5) table instead sums in another order.)  Each
    mean is np.add.reduce(x) / n: ndarray.mean computes exactly that,
    the same pairwise sum divided once by the count, so the bits are
    the same, without the Python wrapper .mean() goes through.  The
    rest is not vectorized over all five rows because that needs a
    second (5, n) buffer, and on graphs with thousands of vertices the
    extra large temporaries raised the process's peak RSS.
    """
    n = table.shape[1]
    add, multiply = np.add.reduce, np.multiply
    mean = add(table, axis=1) / n
    table -= mean[:, None]
    values = np.zeros((5, 4))
    values[:, 0] = mean
    sq = np.empty(n)
    for dev, out in zip(table, values):
        std = sqrt(add(multiply(dev, dev, out=sq)) / n)
        if std == 0.0:
            continue
        out[1] = std
        # standardize before raising to powers: std**4 can underflow
        # to zero for tiny spreads even though std itself is positive
        z = np.divide(dev, std, out=dev)
        z2 = multiply(z, z, out=sq)
        out[2] = add(multiply(z2, z, out=z)) / n
        out[3] = add(multiply(z2, z2, out=z2)) / n
    return values.ravel()


def exact_maeve_descriptor(g: Graph) -> Descriptor:
    """Ground-truth descriptor from explicit egonet features."""
    values = np.zeros(20)
    if g.n > 0:
        rows = np.array([exact_vertex_features(g, v) for v in range(g.n)])
        values = _moment_vector(np.ascontiguousarray(rows.T))
    return Descriptor(
        graph_id=0, method="maeve", b=g.m, seed=0, n=g.n, m=g.m, values=values)


class MaeveState(StreamState):
    """Stream state plus per-vertex triangle and three-path estimates."""

    __slots__ = ("tri", "path")
    MERGED = __slots__

    MIN_BUDGET = MIN_MAEVE_BUDGET
    DETECTS = "triangles"
    exact = staticmethod(exact_maeve_descriptor)

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        super().__init__(budget, seed, n_hint)
        self.tri: dict[int, float] = defaultdict(float)
        self.path: dict[int, float] = defaultdict(float)

    def _count_prefix(self, u: np.ndarray, v: np.ndarray, labels: np.ndarray) -> None:
        """Set tri[x] to the triangles on x of the prefix graph
        (labels[u[i]], labels[v[i]]) and path[x] to the sum over y in
        N(x) of (d_y - 1), for every prefix vertex x, as from_prefix
        asks.  The triangles come from patterns.triangle_wedges and the
        paths from the prefix degrees of patterns.dense_degrees, added
        per edge into int64 (each sum is below k**2 for k prefix edges).
        Exact integers as floats, so equal to the stepped counts bit for
        bit.
        """
        keys, ranked, _ = ranked_keys(u, v, labels)
        tri = triangle_wedges(keys, len(ranked))[0]
        on = np.flatnonzero(tri)
        self.tri.update(zip(ranked[on].tolist(), tri[on].astype(float).tolist()))
        del keys, ranked
        index, a, b, d = dense_degrees(u, v)
        path = -d
        np.add.at(path, a, d[b])
        np.add.at(path, b, d[a])
        on = np.flatnonzero(d)
        self.path.update(zip(labels[index[on]].tolist(), path[on].astype(float).tolist()))

    def step_ends(self, us: list[int], vs: list[int]) -> MaeveState:
        """Step the block of stream edges (us[i], vs[i]), whose degrees
        the caller counts: draw the reservoir's decisions for all of it,
        then per edge credit its triangle and three-path completions to
        the vertices involved and store it, as a tuple, if it was kept.

        A common sampled neighbor w closes a triangle on u, v, and w.  A
        sampled neighbor w of u extends the edge to the three-path v-u-w,
        whose endpoints are v and w; symmetrically for neighbors of v.
        """
        adj, tri, path, b = self.adj, self.tri, self.path, self.budget
        get, store = adj.get, self._store
        # _draw moves self.t on past the block; t is each edge's arrival
        start = self.t + 1
        slots = self._draw(len(us))
        for t, (u, v, slot) in enumerate(zip(us, vs, slots), start):
            na = get(u)  # the index holds no empty set
            nb = get(v)
            if na is not None or nb is not None:
                # pk: probability that k given earlier edges are all in the
                # sample, built factor by factor in the order of the
                # reference detection_probability in tests/reference.py, so
                # pk equals detection_probability(t, b, k) bit for bit
                p1 = p2 = 1.0
                if t - 1 > b:
                    p1 = b / (t - 1)
                    p2 = p1 * ((b - 1) / (t - 2))
                w2 = 1.0 / p1
                if na is not None:
                    if nb is not None:
                        common = na & nb
                        if common:
                            w1 = 1.0 / p2
                            for w in common:
                                tri[u] += w1
                                tri[v] += w1
                                tri[w] += w1
                    for w in na:
                        path[w] += w2
                    path[v] += w2 * len(na)
                if nb is not None:
                    for w in nb:
                        path[w] += w2
                    path[u] += w2 * len(nb)
            if slot is not None:
                store((u, v), slot)
        return self

    def finalize(self) -> Descriptor:
        """Aggregate per-vertex features into the 20-value moment descriptor.

        Every addressable vertex in [0, n) contributes a row, including
        isolated ones declared only through n_hint.
        """
        n, degrees = self.degree_column()
        values = np.zeros(20)
        if n > 0:
            columns = [degrees]
            for counts in (self.tri, self.path):
                column = np.zeros(n)
                k = len(counts)
                column[np.fromiter(counts, int, k)] = np.fromiter(counts.values(), float, k)
                columns.append(column)
            table = np.zeros((5, n))
            features_from_counts(*columns, out=table)
            values = _moment_vector(table)
        return Descriptor(
            graph_id=0, method="maeve", b=self.budget, seed=self.seed,
            n=n, m=self.t, values=values)


def maeve_process_edge(state: MaeveState, edge: Edge) -> MaeveState:
    """MaeveState.step for one edge."""
    return state.step((edge,))
