"""Budget-bounded reservoir over the edge stream, the stream state both
estimators build on, and a variance bound for the estimates.

The reservoir keeps the first b edges, then replaces a uniformly chosen
stored edge with probability b/t, which gives every prefix edge the same
b/t inclusion probability.  Whether arrival t is kept, and which slot
it takes, depend on t, b and the random numbers alone, never on the
edge, so StreamState._draw decides a whole block of arrivals in one
loop before any of them is counted, and the step stores each kept edge
once it has been counted; it draws each slot inline from the
generator's getrandbits.  A per-vertex adjacency
index over the stored edges supports the neighborhood probes the
estimators run on every arrival.  An estimator's state is one object, a
StreamState: the reservoir, the exact trackers, and in each method's
subclass its estimates (and, for gabe, an index the sample keeps up to
date).
"""

from __future__ import annotations

import copy
import operator
import random
from collections import Counter, defaultdict

import numpy as np

from .errors import BudgetTooSmallError
from .graph import Edge, vertex_count


def maybe_sample(state: StreamState, edge: Edge) -> None:
    """Reservoir step for the next stream edge, the one-edge case of a
    block step's reservoir work: append it while the sample has room,
    else let it replace a uniformly chosen stored edge with probability
    b/t.  Must be called exactly once per stream edge, after any
    counting that inspects the pre-arrival sample.
    """
    slot = state._draw(1).get(state.t)
    if slot is not None:
        state._store(edge, slot)


class StreamState:
    """One estimator run: a sample of at most `budget` edges with an
    adjacency index, the exact degree trackers, and, in each method's
    subclass, its estimates.

    The estimator protocol: State(budget, seed, n_hint);
    State.from_prefix(edges, budget, seed, n_hint), the state stepping
    those first edges leaves, built in one batch; step(edges), which
    counts a sequence of edges' degrees into the Counter and hands
    their endpoint lists to step_ends(us, vs); step_ends, which counts
    no degree, draws the reservoir's decisions for the whole block with
    _draw, then per edge reads the pre-arrival sample (t, budget, adj),
    counts, and stores the edge with _store if it was kept;
    fork(seed) to start another seed's run from this state while
    t <= budget; merge(others) to average replicas of one stream into
    this state; finalize(), which returns a Descriptor with m = t;
    State.exact(graph), the oracle descriptor.

    degrees holds the exact degrees in one of two forms: a Counter
    {label: degree}, which from_prefix builds and step adds to, or a
    pair (labels, counts) of a stream's label array and an int64 array
    of the degree of each label's index, which harness._run_seeds
    counts once for the whole stream before its pass, hands to
    from_prefix and shares between its replicas.  A state holding the
    pair is stepped only by step_ends (step refuses it) and already
    holds the degrees its finalize reads.  vertex_degrees reads either
    form, and n and finalize read them through it.

    Single-writer: exactly one stream drives the reservoir, and after
    from_prefix and fork only _store writes edges and adj.  t counts the
    edges offered so far; peak_stored, the largest sample ever held, is
    len(edges), and evictions counts the stored edges replaced so far,
    so the sample has taken evictions + len(edges) inserts.  A subclass
    defines step_ends, finalize and exact, sets MIN_BUDGET and DETECTS
    (what a smaller budget cannot detect), declares its per-run fields
    in __slots__ (dicts, which fork copies) and names in MERGED those
    that merge averages.  One that keeps an extra index over the sample
    defines _tally, which _store calls as edges enter and leave.
    """

    __slots__ = ("budget", "seed", "n_hint", "t", "rng", "edges", "adj",
                 "evictions", "degrees")

    MIN_BUDGET: int
    DETECTS: str
    MERGED: tuple[str, ...]
    _tally = None  # no index over the sample to keep

    @classmethod
    def check_budget(cls, budget: int) -> None:
        """Raise BudgetTooSmallError for a budget below MIN_BUDGET."""
        if budget < cls.MIN_BUDGET:
            raise BudgetTooSmallError(
                f"budget {budget} cannot detect {cls.DETECTS}; "
                f"need at least {cls.MIN_BUDGET}")

    def __init__(self, budget: int, seed: int = 0, n_hint: int | None = None):
        # a Python int whatever integer type it came as (_draw reads its
        # bit_length)
        budget = operator.index(budget)
        self.check_budget(budget)
        self.budget = budget
        self.seed = seed
        self.n_hint = n_hint
        self.t = 0
        self.rng = random.Random(seed)
        self.edges: list[Edge] = []
        self.adj: dict[int, set[int]] = {}
        self.evictions = 0
        self.degrees: Counter[int] | tuple[np.ndarray, np.ndarray] = Counter()

    @classmethod
    def from_prefix(cls, edges: list[Edge], budget: int, seed: int = 0,
                    n_hint: int | None = None,
                    degrees: tuple[np.ndarray, np.ndarray] | None = None) -> StreamState:
        """The state that stepping the first `edges` of a simple stream
        leaves, built in one batch: at most `budget` edges, all stored
        in arrival order, no random number drawn.  The list becomes the
        state's sample.  This sets the reservoir and the degrees, a
        Counter of the prefix's unless `degrees` gives the shared pair
        of a whole pass (see the class docstring); subclasses add their
        counts, which the prefix graph determines, since every detection
        weight before the first draw is 1.
        """
        if len(edges) > budget:
            raise ValueError(
                f"a prefix of {len(edges)} edges does not fit budget {budget}")
        state = cls(budget, seed, n_hint)
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        state.adj = adj = dict(adj)
        state.edges = edges
        state.t = len(edges)
        if degrees is None:
            # a Counter from a dict takes its values as the counts
            degrees = Counter({v: len(nbrs) for v, nbrs in adj.items()})
        state.degrees = degrees
        return state

    def _draw(self, k: int) -> dict[int, int]:
        """Move t on by k arrivals and return {t: slot} for those the
        reservoir keeps: while the sample has room, arrival t takes slot
        t - 1, the end of the sample; past the budget, one random() per
        arrival decides, with probability b/t, and a kept one takes the
        slot drawn right after it: getrandbits of b's bit length, again
        while the value is b or more.  The draws are those a step per
        edge makes, in the same order.

        This loop, not the standard library, defines every stream's
        sample, on any interpreter.  On CPython 3.10-3.13 its slots are
        randrange(b)'s, with the same getrandbits calls
        (Random._randbelow_with_getrandbits).
        """
        b, start = self.budget, self.t
        self.t = end = start + k
        slots = {t: t - 1 for t in range(start + 1, min(end, b) + 1)}
        random, getrandbits = self.rng.random, self.rng.getrandbits
        bits = b.bit_length()
        for t in range(max(start, b) + 1, end + 1):
            if random() < b / t:
                slot = getrandbits(bits)
                while slot >= b:
                    slot = getrandbits(bits)
                slots[t] = slot
        return slots

    def step(self, edges) -> StreamState:
        """Step a block of stream edges, a sequence of (u, v) pairs (read
        twice): count their degrees into the Counter, then hand their
        endpoint lists to the subclass's step_ends.  Expects a
        preprocessed stream (no self-loops or duplicates).  A state that
        holds a pass's shared degrees refuses: they count the whole
        stream already."""
        degrees = self.degrees
        if not isinstance(degrees, Counter):
            raise TypeError(
                "this state holds the degrees of a whole stream, counted once "
                "for its pass; step its blocks with step_ends")
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        degrees.update(us)
        degrees.update(vs)
        return self.step_ends(us, vs)

    def _store(self, edge: Edge, slot: int):
        """Put a kept edge in its slot, the one write to edges and adj
        after from_prefix and fork: append it at slot len(edges), else
        replace the stored edge there and take that one out of adj.

        A subclass that keeps an index over the sample defines
        _tally(u, v, nu, nv, sign), which _store calls while the edge u-v
        is out of adj, with nu and nv the sets of u and v: with sign -1
        for an evicted edge, after both discards and before an emptied
        set is deleted, and with sign +1 for a new edge whose endpoints
        both have sets, before the adds.
        """
        edges, adj, tally = self.edges, self.adj, self._tally
        if slot == len(edges):
            edges.append(edge)
        else:
            x, y = edges[slot]
            edges[slot] = edge
            self.evictions += 1
            nx, ny = adj[x], adj[y]
            nx.discard(y)
            ny.discard(x)
            if tally is not None:
                tally(x, y, nx, ny, -1)
            if not nx:
                del adj[x]
            if not ny:
                del adj[y]
        # a set is made only for a vertex new to the sample
        u, v = edge
        nu, nv = adj.get(u), adj.get(v)
        if nu is None:
            adj[u] = {v}
        else:
            if nv is not None and tally is not None:
                tally(u, v, nu, nv, 1)
            nu.add(v)
        if nv is None:
            adj[v] = {u}
        else:
            nv.add(u)

    @property
    def peak_stored(self) -> int:
        """The largest sample ever held, for memory-bound checks: the
        sample never shrinks, so that is its size now."""
        return len(self.edges)

    def fork(self, seed: int) -> StreamState:
        """A copy of this state for another seed, to go on with the same
        stream: the sample, a Counter of degrees and the subclass's
        __slots__ fields are copied, so stepping either state leaves the
        other as it was; a pass's shared degrees stay shared.

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
        if isinstance(self.degrees, Counter):
            twin.degrees = self.degrees.copy()
        for name in type(self).__slots__:
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

    def vertex_degrees(self) -> tuple[list[int], list[int]]:
        """(labels, degrees): the label and exact degree of every vertex
        seen so far, as Python ints, in one order, read from either form
        of degrees."""
        if isinstance(self.degrees, Counter):
            return list(self.degrees), list(self.degrees.values())
        labels, counts = self.degrees
        seen = np.flatnonzero(counts)
        return labels[seen].tolist(), counts[seen].tolist()

    @property
    def n(self) -> int:
        """Vertex count by vertex_count over the labels seen, so a label
        outside [0, n) fails here, at finalize, not per edge."""
        labels = self.vertex_degrees()[0]
        return vertex_count(min(labels, default=0), max(labels, default=-1), self.n_hint)


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
