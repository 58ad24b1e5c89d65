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
from .reservoir import _EMPTY, StreamState, detection_probability, maybe_sample

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


class MaeveState(StreamState):
    """Stream state plus per-vertex triangle and three-path estimates."""

    MIN_BUDGET = MIN_MAEVE_BUDGET
    DETECTS = "triangles"

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        super().__init__(budget, seed, n_hint)
        self.tri: dict[int, float] = defaultdict(float)
        self.path: dict[int, float] = defaultdict(float)

    def merge(self, others: list[MaeveState]) -> None:
        """Average the replicas' per-vertex counts into this state's."""
        states = [self, *others]
        self.tri = _mean_counts([s.tri for s in states])
        self.path = _mean_counts([s.path for s in states])


def _mean_counts(counts: list[dict[int, float]]) -> dict[int, float]:
    total: dict[int, float] = {}
    for per_vertex in counts:
        for v, x in per_vertex.items():
            total[v] = total.get(v, 0.0) + x
    return {v: x / len(counts) for v, x in total.items()}


def maeve_process_edge(state: MaeveState, edge: Edge) -> MaeveState:
    """Credit the arriving edge's triangle and three-path completions to
    the vertices involved, then offer the edge to the reservoir.

    A common sampled neighbor w closes a triangle on u, v, and w.  A
    sampled neighbor w of u extends the edge to the three-path v-u-w,
    whose endpoints are v and w; symmetrically for neighbors of v.
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

    common = na & nb
    if common:
        w1 = 1.0 / detection_probability(t, b, 2)
        tri = state.tri
        for w in common:
            tri[u] += w1
            tri[v] += w1
            tri[w] += w1

    if na or nb:
        w2 = 1.0 / detection_probability(t, b, 1)
        path = state.path
        for w in na:
            path[w] += w2
        for w in nb:
            path[w] += w2
        path[v] += w2 * len(na)
        path[u] += w2 * len(nb)

    maybe_sample(res, edge)
    return state


def features_from_counts(degree, triangles, paths) -> VertexFeatures:
    """The five features as functions of (degree, triangle count,
    endpoint three-path count), for one vertex (scalars) or many
    (equal-length arrays, one entry per vertex).

    Conventions for the undefined corners: clustering is 0 when
    degree < 2, average neighbor degree is 0 when degree = 0.  A vertex
    of degree 0 is on no triangle or path, so all its features are 0.
    """
    d = np.asarray(degree, dtype=float)
    tri = np.asarray(triangles, dtype=float)
    paths = np.asarray(paths, dtype=float)
    clustering = np.divide(tri, d * (d - 1) / 2, out=np.zeros_like(d), where=d >= 2)
    # (d + paths) / d rather than 1 + paths/d: on exact inputs the
    # numerator equals the integer sum of neighbor degrees, so the
    # division result matches the egonet oracle bit for bit.
    avg_neighbor_degree = np.divide(d + paths, d, out=np.zeros_like(d), where=d > 0)
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    return VertexFeatures(
        degree=d[()],
        clustering=clustering[()],
        avg_neighbor_degree=avg_neighbor_degree[()],
        egonet_edges=(d + tri)[()],
        egonet_boundary=(paths - 2.0 * tri)[()],
    )


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


def _moment_vector(rows: np.ndarray) -> np.ndarray:
    """The four moments of each of the five feature columns, feature-major."""
    values = np.empty(20)
    for j in range(5):
        values[4 * j:4 * j + 4] = moments(rows[:, j])
    return values


def maeve_finalize(state: MaeveState) -> Descriptor:
    """Aggregate per-vertex features into the 20-value moment descriptor.

    Every addressable vertex in [0, n) contributes a row, including
    isolated ones declared only through n_hint.
    """
    n = state.n
    values = np.zeros(20)
    if n > 0:
        columns = []
        for counts in (state.degrees, state.tri, state.path):
            column = np.zeros(n)
            k = len(counts)
            column[np.fromiter(counts, int, k)] = np.fromiter(counts.values(), float, k)
            columns.append(column)
        values = _moment_vector(np.column_stack(
            features_from_counts(*columns).as_tuple()))
    return Descriptor(
        graph_id=0, method="maeve", b=state.reservoir.budget, seed=state.seed,
        n=n, m=state.m_seen, values=values)


def exact_maeve_descriptor(g: Graph) -> Descriptor:
    """Ground-truth descriptor from explicit egonet features."""
    values = np.zeros(20)
    if g.n > 0:
        values = _moment_vector(
            np.array([exact_vertex_features(g, v) for v in range(g.n)]))
    return Descriptor(
        graph_id=0, method="maeve", b=g.m, seed=0, n=g.n, m=g.m, values=values)
