"""Budget-bounded reservoir over the edge stream, the stream state both
estimators build on, and a variance bound for the estimates.

The reservoir keeps the first b edges, then replaces a uniformly chosen
stored edge with probability b/t, which gives every prefix edge the same
b/t inclusion probability.  A per-vertex adjacency index over the stored
edges supports the neighborhood probes the estimators run on every
arrival.  An estimator's state is one object, a StreamState: the
reservoir, the exact trackers, and in each method's subclass its
estimates (and, for gabe, an index the sample keeps up to date).
"""

from __future__ import annotations

import copy
import random
from collections import Counter

from .errors import BudgetTooSmallError
from .graph import Edge, vertex_count


def maybe_sample(state: StreamState, edge: Edge) -> None:
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
    """One estimator run: a sample of at most `budget` edges with an
    adjacency index, the exact degree trackers, and, in each method's
    subclass, its estimates.

    The estimator protocol: State(budget, seed, n_hint);
    State.from_prefix(edges, budget, seed, n_hint), the state stepping
    those first edges leaves, built in one batch; step(edges), which
    counts a sequence of edges' degrees in one Counter.update, then per
    edge reads the pre-arrival sample (t, budget, adj), counts, and
    calls maybe_sample(state, edge); fork(seed) to start another seed's
    run from this state while t <= budget; merge(others) to average
    replicas of one stream into this state; finalize(), which returns a
    Descriptor with m = t; State.exact(graph), the oracle descriptor.

    Single-writer: exactly one stream drives maybe_sample.  t counts the
    edges offered so far; peak_stored records the largest sample ever
    held, for memory-bound checks.  A subclass defines step, finalize
    and exact, sets MIN_BUDGET and DETECTS (what a smaller budget cannot
    detect), declares its per-run fields in __slots__ (dicts, which fork
    copies) and names in MERGED those that merge averages.  One that
    keeps an extra index over the sample overrides _link and _unlink,
    which maybe_sample calls as edges enter and leave.
    """

    __slots__ = ("budget", "seed", "n_hint", "t", "rng", "edges", "adj",
                 "peak_stored", "degrees")

    MIN_BUDGET: int
    DETECTS: str
    MERGED: tuple[str, ...]

    @classmethod
    def check_budget(cls, budget: int) -> None:
        """Raise BudgetTooSmallError for a budget below MIN_BUDGET."""
        if budget < cls.MIN_BUDGET:
            raise BudgetTooSmallError(
                f"budget {budget} cannot detect {cls.DETECTS}; "
                f"need at least {cls.MIN_BUDGET}")

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        self.check_budget(budget)
        self.budget = budget
        self.seed = seed
        self.n_hint = n_hint
        self.t = 0
        self.rng = random.Random(seed)
        self.edges: list[Edge] = []
        self.adj: dict[int, set[int]] = {}
        self.peak_stored = 0
        self.degrees: Counter[int] = Counter()

    @classmethod
    def from_prefix(cls, edges: list[Edge], budget: int, seed: int = 0,
                    n_hint: int | None = None) -> StreamState:
        """The state that stepping the first `edges` of a simple stream
        leaves, built in one batch: at most `budget` edges, all stored
        in arrival order, no random number drawn.  The list becomes the
        state's sample.  This sets the reservoir and the degrees;
        subclasses add their counts, which the prefix graph determines,
        since every detection weight before the first draw is 1.
        """
        if len(edges) > budget:
            raise ValueError(
                f"a prefix of {len(edges)} edges does not fit budget {budget}")
        state = cls(budget, seed, n_hint)
        adj = state.adj
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        state.edges = edges
        state.t = state.peak_stored = len(edges)
        # a Counter from a dict takes its values as the counts
        state.degrees = Counter({v: len(nbrs) for v, nbrs in adj.items()})
        return state

    def _link(self, u: int, v: int):
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def _unlink(self, u: int, v: int):
        for a, b in ((u, v), (v, u)):
            nbrs = self.adj[a]
            nbrs.discard(b)
            if not nbrs:
                del self.adj[a]

    def fork(self, seed: int) -> StreamState:
        """A copy of this state for another seed, to go on with the same
        stream: the sample, the degrees and the subclass's __slots__
        fields are copied, so stepping either state leaves the other as
        it was.

        Up to t = budget the reservoir stores every edge and draws no
        random number, so every seed's state is this one; from there the
        copy draws from its own fresh random.Random(seed).  Forking after
        the first draw would carry this seed's sample into another, so it
        raises.
        """
        if self.t > self.budget:
            raise RuntimeError(
                f"cannot fork at t = {self.t} > budget {self.budget}: the "
                "reservoir has already drawn from this seed's random numbers")
        twin = copy.copy(self)
        twin.seed = seed
        twin.rng = random.Random(seed)
        twin.edges = self.edges.copy()
        twin.adj = {v: nbrs.copy() for v, nbrs in self.adj.items()}
        for name in ("degrees", *type(self).__slots__):
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def merge(self, others: list[StreamState]) -> None:
        """Average each MERGED field of replicas of one stream into this
        state's: per key, the values of [self, *others] added left to
        right from 0.0, then divided by their number.  The builtin sum()
        is not used because it compensates from Python 3.12 on, which
        would make a replica average's bits depend on the interpreter.
        """
        states = [self, *others]
        for name in self.MERGED:
            total: dict = {}
            for state in states:
                for key, x in getattr(state, name).items():
                    total[key] = total.get(key, 0.0) + x
            setattr(self, name, {key: x / len(states) for key, x in total.items()})

    @property
    def n(self) -> int:
        """Vertex count by vertex_count over the labels seen, so a label
        outside [0, n) fails here, at finalize, not per edge."""
        return vertex_count(min(self.degrees, default=0),
                            max(self.degrees, default=-1), self.n_hint)


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
