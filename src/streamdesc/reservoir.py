"""Budget-bounded reservoir over the edge stream, the stream state both
estimators share, and detection math.

The reservoir keeps the first b edges, then replaces a uniformly chosen
stored edge with probability b/t, which gives every prefix edge the same
b/t inclusion probability.  A per-vertex adjacency index over the stored
edges supports the neighborhood probes the estimators run on every
arrival; gabe's reservoir also keeps the number of sampled triangles on
each vertex.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .errors import BudgetTooSmallError
from .graph import Edge, vertex_count

_EMPTY: frozenset[int] = frozenset()


class ReservoirState:
    """Sample of at most `budget` edges with an adjacency index.

    Single-writer: exactly one stream drives maybe_sample.  peak_stored
    records the largest sample ever held, for memory-bound checks.
    """

    __slots__ = ("budget", "t", "rng", "edges", "adj", "peak_stored")

    def __init__(self, budget: int, seed: int | None = 0):
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.budget = budget
        self.t = 0
        self.rng = random.Random(seed)
        self.edges: list[Edge] = []
        self.adj: dict[int, set[int]] = {}
        self.peak_stored = 0

    def __len__(self) -> int:
        return len(self.edges)

    def _link(self, u: int, v: int):
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def _unlink(self, u: int, v: int):
        for a, b in ((u, v), (v, u)):
            nbrs = self.adj.get(a)
            if nbrs is not None:
                nbrs.discard(b)
                if not nbrs:
                    del self.adj[a]


class TriangleReservoir(ReservoirState):
    """Reservoir that also keeps, per vertex, the number of sampled
    triangles on it (vertices on none may be absent or hold 0).

    A sampled edge u-v closes one triangle with each common sampled
    neighbor w, so linking or unlinking it moves u's and v's counts by
    |N(u) & N(v)| and each such w's count by 1.
    """

    __slots__ = ("tri",)

    def __init__(self, budget: int, seed: int | None = 0):
        super().__init__(budget, seed)
        self.tri: dict[int, int] = {}

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


def maybe_sample(state: ReservoirState, edge: Edge) -> None:
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
        slot = state.rng.randrange(state.budget)
        state._unlink(*state.edges[slot])
        state.edges[slot] = edge
        state._link(*edge)


class StreamState:
    """The reservoir plus exact degree and edge-count trackers.

    The estimator protocol: State(budget, seed, n_hint); a per-edge step
    that updates these trackers inline, counts, then calls maybe_sample;
    merge(others) to average replicas of one stream into this state; a
    finalize function that returns a Descriptor.  Subclasses set
    MIN_BUDGET and DETECTS (what a smaller budget cannot detect), and
    may set RESERVOIR to a ReservoirState subclass that keeps an extra
    index over the sample.
    """

    MIN_BUDGET: int
    DETECTS: str
    RESERVOIR: type[ReservoirState] = ReservoirState

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        if budget < self.MIN_BUDGET:
            raise BudgetTooSmallError(
                f"budget {budget} cannot detect {self.DETECTS}; "
                f"need at least {self.MIN_BUDGET}")
        self.reservoir = self.RESERVOIR(budget, seed)
        self.seed = seed
        self.n_hint = n_hint
        self.degrees: dict[int, int] = defaultdict(int)
        self.m_seen = 0

    @property
    def n(self) -> int:
        """Vertex count by vertex_count over the labels seen, so a label
        outside [0, n) fails here, at finalize, not per edge."""
        return vertex_count(min(self.degrees, default=0),
                            max(self.degrees, default=-1), self.n_hint)


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


def variance_bound(count: float, m_total: int, pattern_edges: int, b: int) -> float:
    """Upper bound on the variance of a stream-estimated pattern count.

    count is the true (or best known) pattern count, m_total the full
    stream length, pattern_edges the pattern's edge count.  The bound is
    count^2 times the product over i < pattern_edges - 1 of
    (m_total - i) / (b - i).  Returns 0 in the deterministic regime
    (b >= m_total - 1) and for count = 0.
    """
    if pattern_edges < 2:
        raise ValueError("pattern_edges must be at least 2")
    if b <= pattern_edges - 2:
        raise BudgetTooSmallError(
            f"budget {b} cannot hold the {pattern_edges - 1} prior edges the pattern needs")
    if count == 0 or b >= m_total - 1:
        return 0.0
    prod = 1.0
    for i in range(pattern_edges - 1):
        prod *= (m_total - i) / (b - i)
    return count * count * prod
