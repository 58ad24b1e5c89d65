"""Budget-bounded reservoir over the edge stream, the stream state both
estimators build on, and a variance bound for the estimates.

The reservoir keeps the first b edges, then replaces a uniformly chosen
stored edge with probability b/t, which gives every prefix edge the same
b/t inclusion probability.  Whether arrival t is kept, and which slot
it takes, depend on t, b and the random numbers alone, never on the
edge, so StreamState._draw decides a whole block of arrivals in one
loop before any of them is counted, as a list of slots aligned with the
block, and the step stores each kept edge once it has been counted; it
draws each slot inline from the generator's getrandbits.  A per-vertex
adjacency index over the stored edges supports the neighborhood probes
the estimators run on every arrival.  An estimator's state is one
object, a StreamState: the reservoir, the exact trackers, and in each
method's subclass its estimates (and, for gabe, an index the sample
keeps up to date).
"""

from __future__ import annotations

import copy
import operator
import random
from collections import Counter, defaultdict

import numpy as np

from .errors import BudgetTooSmallError
from .graph import Edge, EdgeStream, vertex_count
from .patterns import NUMPY_PREFIX_EDGES


class StreamState:
    """One estimator run: a sample of at most `budget` edges with an
    adjacency index, the exact degree trackers, and, in each method's
    subclass, its estimates.

    The estimator protocol: State(budget, seed, n_hint);
    State.from_prefix(stream, budget, seed), the state stepping the
    first min(budget, m) edges of an EdgeStream leaves, which it either
    steps or counts in one batch with _count_prefix; step(edges), which
    counts a sequence of edges' degrees into the Counter and hands their
    endpoint lists to step_ends(us, vs); step_ends, which counts no
    degree, draws the reservoir's decisions for the whole block with
    _draw, one slot or None per edge, then per edge reads the
    pre-arrival sample (t, budget, adj), counts, and stores the edge
    with _store in its slot if it has one; fork(seed) to
    start another seed's run from this state while t <= budget;
    merge(others) to average replicas of one stream into this state;
    finalize(), which returns a Descriptor with m = t; State.exact(graph),
    the oracle descriptor.

    degrees holds the exact degrees in one of two forms, and how the
    state was made decides which.  A bare State(...) holds a Counter
    {label: degree}, which step adds to.  A state from from_prefix holds
    a pair (labels, counts): the stream's sorted label array and an
    int64 array of the degree of each label's index, counted once for
    the whole stream, which its forks share; step refuses it, so it is
    stepped only by step_ends.  vertex_degrees reads either form, as
    does degree_column, as one float column over the labels, and
    finalize reads it once, taking n from the same read (n_of).

    The sample, edges and adj, is built on first read.  A state whose
    prefix _count_prefix counted holds only its stream until the first
    step_ends, fork or reader of either property builds it (_build), so
    a pass at b >= m never builds one.  _build reads the stream's order;
    a prefix that is the whole stream is counted from its columns as
    held, so a pass at b >= m that never builds the sample never draws
    the stream's permutation either (see EdgeStream).  A prefix that
    from_prefix steps builds its sample as it goes.  _store reads the
    built lists directly, so only a step_ends that has read adj calls
    it.

    Single-writer: exactly one stream drives the reservoir, and after
    the build only _store writes edges and adj.  t counts the edges
    offered so far; peak_stored, the largest sample ever held, is
    min(t, budget), which is len(edges) once built, and evictions counts
    the stored edges replaced so far (_draw counts them, as it decides
    each block), so the sample has taken evictions + len(edges)
    inserts.  A subclass defines step_ends, _count_prefix(u, v,
    labels), which sets its estimates to the exact counts of the prefix
    graph (labels[u[i]], labels[v[i]]) and reads no sample, finalize and
    exact, sets MIN_BUDGET and DETECTS (what a smaller budget cannot
    detect), declares its per-run fields in __slots__ (dicts, which fork
    copies) and names in MERGED those that merge averages.  One that
    keeps an extra index over the sample defines _tally, which _store
    calls as edges enter and leave.
    """

    __slots__ = ("budget", "seed", "n_hint", "t", "rng", "_edges", "_adj",
                 "_prefix", "evictions", "degrees")

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
        self._edges: list[Edge] | None = []
        self._adj: dict[int, set[int]] | None = {}
        self._prefix: EdgeStream | None = None  # the stream of an unbuilt sample
        self.evictions = 0
        self.degrees: Counter[int] | tuple[np.ndarray, np.ndarray] = Counter()

    @classmethod
    def from_prefix(cls, stream: EdgeStream, budget: int, seed: int = 0) -> StreamState:
        """The state that stepping the first min(budget, m) edges of a
        simple stream leaves, with the degrees of the whole stream: the
        shared pair, counted by np.bincount over both columns as held,
        in any order.  No random number is drawn there and every
        detection weight is 1, so the prefix is counted one of two ways,
        to the same exact integers.  A prefix of fewer than
        NUMPY_PREFIX_EDGES edges that leaves a suffix is stepped by the
        subclass's step_ends, which builds the sample the suffix needs
        as it goes.  Any other prefix, a whole stream of any size among
        them, goes to the subclass's _count_prefix(u, v, labels), its
        numpy passes over the prefix's index columns, and the sample is
        left unbuilt, as a reference to the stream, until it is first
        read (see the class docstring).  A whole stream hands over its
        columns as held, so it draws no permutation.
        """
        state = cls(budget, seed, stream.n_hint)
        labels, (u, v) = stream.labels, stream.columns()
        k = len(labels)
        state.degrees = labels, np.bincount(u, minlength=k) + np.bincount(v, minlength=k)
        t = min(state.budget, len(stream))
        if t < len(stream):
            u, v = stream.u[:t], stream.v[:t]
            if t < NUMPY_PREFIX_EDGES:
                state.step_ends(labels[u].tolist(), labels[v].tolist())
                return state
        state._edges = state._adj = None
        state._prefix, state.t = stream, t
        state._count_prefix(u, v, labels)
        return state

    def _build(self) -> None:
        """Build the sample of a state from from_prefix: the first
        min(budget, m) edges of its stream as tuples, in arrival order,
        and the sets of their ends, which hold the same int objects as
        the tuples; then drop the stream."""
        edges = self._prefix.pairs(0, self.budget)
        self._edges, self._adj, self._prefix = edges, _adjacency(edges), None

    @property
    def edges(self) -> list[Edge]:
        """The sampled edges, each in its slot."""
        if self._edges is None:
            self._build()
        return self._edges

    @property
    def adj(self) -> dict[int, set[int]]:
        """Each sampled vertex's set of sampled neighbours; a vertex on
        no sampled edge has no entry."""
        if self._adj is None:
            self._build()
        return self._adj

    def _draw(self, k: int) -> list[int | None]:
        """Move t on by k arrivals and return the reservoir's decision
        for each, a list in arrival order: the slot a kept arrival
        takes, None for one it does not keep.  While the sample has
        room, arrival t takes slot t - 1, the end of the sample; past
        the budget, one random() per arrival decides, with probability
        b/t, and a kept one takes the slot drawn right after it:
        getrandbits of b's bit length, again while the value is b or
        more.  The draws are those a step per edge makes, in the same
        order.  Each arrival kept past the budget will replace a stored
        edge, so evictions counts those here, not _store.

        This loop, not the standard library, defines every stream's
        sample, on any interpreter.  On CPython 3.10-3.13 its slots are
        randrange(b)'s, with the same getrandbits calls
        (Random._randbelow_with_getrandbits).
        """
        b, start = self.budget, self.t
        self.t = end = start + k
        slots: list[int | None] = [None] * k
        room = max(min(end, b) - start, 0)  # arrivals that fill the sample
        slots[:room] = range(start, start + room)
        random, getrandbits = self.rng.random, self.rng.getrandbits
        bits = b.bit_length()
        for t in range(start + room + 1, end + 1):
            if random() < b / t:
                slot = getrandbits(bits)
                while slot >= b:
                    slot = getrandbits(bits)
                slots[t - start - 1] = slot
        self.evictions += k - room - slots.count(None)
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
        after they are built: append it at slot len(edges), else
        replace the stored edge there and take that one out of adj.

        A subclass that keeps an index over the sample defines
        _tally(u, v, nu, nv, sign), which _store calls while the edge u-v
        is out of adj, with nu and nv the sets of u and v: with sign -1
        for an evicted edge, after both discards and before an emptied
        set is deleted, and with sign +1 for a new edge whose endpoints
        both have sets, before the adds.
        """
        edges, adj, tally = self._edges, self._adj, self._tally
        if slot == len(edges):
            edges.append(edge)
        else:
            x, y = edges[slot]
            edges[slot] = edge
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
        sample fills one edge per arrival up to the budget and never
        shrinks, so that is its size now, min(t, budget), whether or not
        it is built."""
        return min(self.t, self.budget)

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
        edges, adj = self.edges, self.adj  # an unbuilt sample is built first
        twin = copy.copy(self)
        twin.seed = seed
        twin.rng = random.Random(seed)
        twin._edges = edges.copy()
        twin._adj = {v: nbrs.copy() for v, nbrs in adj.items()}
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
        of degrees; in the pair form, in label order."""
        if isinstance(self.degrees, Counter):
            return list(self.degrees), list(self.degrees.values())
        labels, counts = self.degrees
        seen = np.flatnonzero(counts)
        return labels[seen].tolist(), counts[seen].tolist()

    def n_of(self, labels) -> int:
        """Vertex count by vertex_count over labels, the list
        vertex_degrees gives (or, in the pair form, the same labels as
        an object array), so a label outside [0, n) fails here, at
        finalize, not per edge.  In the pair form the labels are sorted,
        so their extremes are their ends."""
        if not len(labels):
            return vertex_count(0, -1, self.n_hint)
        if isinstance(self.degrees, Counter):
            return vertex_count(min(labels), max(labels), self.n_hint)
        return vertex_count(labels[0], labels[-1], self.n_hint)

    def degree_column(self) -> tuple[int, np.ndarray]:
        """(n, column): the vertex count, by n_of, and a float array of
        every vertex's exact degree, indexed by label over [0, n).  The
        pair form fills it from counts at the seen indices, which are the
        labels when the labels are 0 to len - 1, as a preprocessed
        stream's are, with no Python int per vertex."""
        if isinstance(self.degrees, Counter):
            labels, degrees = self.vertex_degrees()
            n = self.n_of(labels)
            column = np.zeros(n)
            k = len(labels)
            column[np.fromiter(labels, int, k)] = np.fromiter(degrees, float, k)
        else:
            labels, counts = self.degrees
            seen = np.flatnonzero(counts)
            n = self.n_of(labels[seen])
            column = np.zeros(n)
            dense = not len(labels) or (labels[0], labels[-1]) == (0, len(labels) - 1)
            column[seen if dense else labels[seen].astype(np.int64)] = counts[seen]
        return n, column

    @property
    def n(self) -> int:
        """The vertex count, by n_of over vertex_degrees' labels."""
        return self.n_of(self.vertex_degrees()[0])


def _adjacency(edges: list[Edge]) -> dict[int, set[int]]:
    """Each end's set of neighbours over edges, holding the same int
    objects as the tuples."""
    adj: defaultdict[int, set[int]] = defaultdict(set)
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    return dict(adj)


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
