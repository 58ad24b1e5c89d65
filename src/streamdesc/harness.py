"""Batch descriptor computation, nearest-neighbour evaluation, and the
approximation-error experiment, for a method named in METHODS, whose
class carries from_prefix, step, finalize and the exact oracle.

Replica mode feeds W independent estimators from one pass over the
stream and averages their raw sampled-count accumulators before
descriptor assembly; every replica tracks the same exact quantities
(degrees, n, m), and finalize reads the first one's.  Averaging the raw
counts rather than finished descriptors matters because descriptor
assembly is not linear in the counts.  Estimators of one stream and
budget that differ only in their seed agree for the first b edges,
which draw no random number and weigh every detection 1, so the state
there is built once from the stream's prefix (from_prefix, which steps
a short prefix that leaves a suffix and counts any other in numpy) and
forked per seed (_run_seeds); at b >= m every seed's run is that one
state, which is not forked.  The rest of the
stream is sliced from the stream's int64 columns a block of BLOCK_EDGES
edges at a time, as one list of each end's labels, and handed to every
replica's step_ends in turn, so the pass holds O(BLOCK_EDGES) labels
besides the samples and the columns (16 bytes per edge); a step builds
a tuple only for an edge it stores.  The degrees are counted once per
pass, in from_prefix, by np.bincount over the columns, into one int64
array that every replica shares.  A prefix counted in numpy leaves its
sample unbuilt until a step or a fork first reads it, so a pass at
b >= m, with any number of replicas, builds none.  A stream from
preprocess draws its permutation on the first read of its order
(graph.EdgeStream): the degrees and a prefix that is the whole stream
read its columns as held, and the pass reads the ordered columns only
when a suffix is left, so a pass at b >= m, and the exact vectors
error_vs_budget compares with, never draw it.

compute_descriptors runs the graphs one after another on the calling
thread and starts no thread: the estimators are Python code, which
threads cannot overlap under the interpreter lock, and glibc gives a
new thread a malloc arena of its own, which keeps the memory it frees.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from math import ceil, inf

import numpy as np

from .datasets import Dataset
from .descriptors import Descriptor, canberra, canberra_matrix, check_single_method
from .errors import BudgetTooSmallError
from .gabe import GabeState
from .graph import EdgeStream, build_graph, derive_seed
from .maeve import MaeveState
from .reservoir import StreamState

METHODS: dict[str, type[StreamState]] = {"gabe": GabeState, "maeve": MaeveState}

# _run_seeds reads the suffix after the prefix this many edges at a
# time and steps every state through one block before reading the next.
BLOCK_EDGES = 4096


def _method(name: str) -> type[StreamState]:
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}, expected one of {tuple(METHODS)}")
    return METHODS[name]


@dataclass(frozen=True)
class BudgetSpec:
    """Edge budget, either absolute or as a fraction of a stream's length.

    A fraction above 1 resolves to ceil(fraction * m) > m; the reservoir
    then keeps every edge, so the values equal those of b = m bit for
    bit and only the recorded b differs.
    """

    fraction: float | None = None
    edges: int | None = None

    def __post_init__(self):
        if (self.fraction is None) == (self.edges is None):
            raise ValueError("give exactly one of fraction or edges")
        # nan fails every comparison, so it is refused here too
        if self.fraction is not None and not 0 < self.fraction < inf:
            raise ValueError(f"fraction must be finite and positive, got {self.fraction}")
        if self.edges is not None:
            try:
                # numpy integers pass; a float fails here, not mid-run
                object.__setattr__(self, "edges", operator.index(self.edges))
            except TypeError:
                raise ValueError(f"edges must be an integer, got {self.edges!r}") from None
            if self.edges < 1:
                raise ValueError(f"edges must be at least 1, got {self.edges}")

    def resolve(self, m: int) -> int:
        if self.edges is not None:
            return self.edges
        b = self.fraction * m
        if b == inf:
            raise ValueError(f"budget fraction {self.fraction} of {m} edges is too large")
        return max(1, ceil(b))


def _run_seeds(stream: EdgeStream, cls: type[StreamState], b: int,
               seeds: list[int]) -> list[StreamState]:
    """One estimator per seed, in seed order, fed by one pass over the
    stream.  The first min(b, m) edges draw no random number, so the
    first seed's state is built from them (from_prefix, which also
    counts the stream's degrees into the pair every state shares).  At
    b >= m no edge is left and no seed draws, so that one state is every
    seed's, returned once per seed, with no fork and no sample built.
    Callers keep no b >= m rule of their own: error_vs_budget scores
    each distinct state once, and replicated's merge of the one state
    with itself gives back its bits: every merged value is a whole
    number x, and W * x / W is exact below 2**53.  Otherwise it is
    forked for the other seeds, and the rest of the stream is sliced
    from the ordered columns, read once, BLOCK_EDGES edges at a time
    into a list of u labels and one of v labels, and each block is
    handed to every state's step_ends in turn, which steps it with its
    own random numbers and counts no degree.  So at b >= m nothing
    reads the stream's order, and a stream from preprocess never draws
    its permutation (see EdgeStream).  Any other iterable of pairs, a
    plain list among them, is read once into an EdgeStream, with its
    n_hint if it has one."""
    if not isinstance(stream, EdgeStream):
        stream = EdgeStream(list(stream), getattr(stream, "n_hint", None))
    first = cls.from_prefix(stream, b, seeds[0])
    if first.t == len(stream):
        return [first] * len(seeds)
    states = [first, *(first.fork(s) for s in seeds[1:])]
    labels, u, v = stream.labels, stream.u, stream.v
    for i in range(first.t, len(stream), BLOCK_EDGES):
        us = labels[u[i:i + BLOCK_EDGES]].tolist()
        vs = labels[v[i:i + BLOCK_EDGES]].tolist()
        for state in states:
            state.step_ends(us, vs)
    return states


def replicated(stream: EdgeStream, method: str, b: int, replicas: int,
               seed: int) -> Descriptor:
    """`replicas` independent estimators with seeds seed, seed + 1, ...
    fed by one pass over the stream, their raw accumulators averaged
    into the first before finalize."""
    cls = _method(method)
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    states = _run_seeds(stream, cls, b, [seed + i for i in range(replicas)])
    if replicas > 1:
        states[0].merge(states[1:])
    return states[0].finalize()


def gabe_descriptor(stream: EdgeStream, budget: int, seed: int = 0) -> Descriptor:
    """Convenience one-shot: one gabe estimator over the stream."""
    return replicated(stream, "gabe", budget, 1, seed)


def maeve_descriptor(stream: EdgeStream, budget: int, seed: int = 0) -> Descriptor:
    """Convenience one-shot: one maeve estimator over the stream."""
    return replicated(stream, "maeve", budget, 1, seed)


def graph_budgets(ds: Dataset, method: str,
                  b_spec: BudgetSpec) -> tuple[list[int | None], list[str | None]]:
    """(budgets, reasons), aligned with ds.graphs: a graph whose budget
    under b_spec is below the method's minimum gets None and the reason.
    Raises BudgetTooSmallError when a nonempty dataset keeps no graph,
    which an absolute budget below the minimum always does.
    """
    cls = _method(method)
    budgets: list[int | None] = []
    reasons: list[str | None] = []
    for gi, stream in enumerate(ds.graphs):
        b = b_spec.resolve(len(stream))
        kept = b >= cls.MIN_BUDGET
        budgets.append(b if kept else None)
        reasons.append(None if kept else (
            f"graph {gi}: budget fraction {b_spec.fraction} gives b = {b}; "
            f"need at least {cls.MIN_BUDGET} for {method}"))
    if ds.graphs and all(b is None for b in budgets):
        if b_spec.edges is not None:
            cls.check_budget(b_spec.edges)
        raise BudgetTooSmallError(
            f"budget fraction {b_spec.fraction} gives every graph a budget "
            f"below the minimum of {cls.MIN_BUDGET} for {method}")
    return budgets, reasons


def compute_descriptors(
    ds: Dataset,
    method: str,
    b_spec: BudgetSpec,
    workers: int = 1,
    seed: int = 0,
    max_threads: int = 8,
) -> tuple[list[Descriptor | None], list[str | None]]:
    """Descriptors for every graph in the dataset, input order preserved.

    Returns (descriptors, errors), both aligned with ds.graphs.  A graph
    that graph_budgets skips gets None and its reason; a budget that
    skips every graph raises BudgetTooSmallError before any graph runs.
    Every graph runs on the calling thread, one after another; results
    depend only on (method, b_spec, workers, seed).  max_threads is
    unused: it stays only because perfbench/loop.py's traced replay
    passes max_threads=1, and goes together with that replay.
    """
    budgets, reasons = graph_budgets(ds, method, b_spec)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    def one(idx):
        if budgets[idx] is None:
            return None
        d = replicated(ds.graphs[idx], method, budgets[idx], workers,
                       derive_seed(seed, "graph", idx))
        d.graph_id = idx
        return d

    return [one(idx) for idx in range(len(ds.graphs))], reasons


@dataclass
class ClassificationReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float


def cross_validate(
    descriptors: list[Descriptor],
    labels,
    folds: int = 10,
    repeats: int = 10,
    seed: int = 0,
) -> ClassificationReport:
    """1-nearest-neighbour accuracy under repeated k-fold splits.

    Folds are plain (not stratified) contiguous cuts of a seeded
    shuffle.  Distance ties pick the training item with the lowest
    graph_id.  Train and test are disjoint by construction, so an item
    never matches itself.
    """
    labels = list(labels)
    if len(descriptors) != len(labels):
        raise ValueError(
            f"{len(descriptors)} descriptors but {len(labels)} labels")
    n = len(descriptors)
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if n < folds:
        raise ValueError(f"cannot split {n} items into {folds} folds")
    if len(set(labels)) < 2:
        raise ValueError("need at least 2 classes")
    check_single_method(descriptors)

    vectors = np.array([d.values for d in descriptors])
    dist = canberra_matrix(vectors, vectors)
    # Train columns in graph_id order: argmin's first-minimum rule then
    # gives a distance tie to the lowest graph_id.
    by_id = np.argsort([d.graph_id for d in descriptors], kind="stable")
    y = np.array(labels)

    accuracies: list[float] = []
    for r in range(repeats):
        order = list(range(n))
        random.Random(derive_seed(seed, "cv", r)).shuffle(order)
        for test in np.array_split(order, folds):
            in_test = np.zeros(n, dtype=bool)
            in_test[test] = True
            train = by_id[~in_test[by_id]]
            pick = train[dist[np.ix_(test, train)].argmin(axis=1)]
            correct = int(np.count_nonzero(y[pick] == y[test]))
            accuracies.append(correct / len(test))
    return ClassificationReport(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
    )


def error_vs_budget(
    ds: Dataset,
    method: str,
    budgets,
    trials: int,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Mean Canberra distance between estimated and exact descriptors,
    one row (budget_fraction, mean_error) per requested budget.

    Every budget fraction goes through graph_budgets before any exact or
    estimated descriptor is computed: a row's mean is over the trials of
    the graphs it keeps, and a fraction that keeps none raises.  The
    trials of one graph and budget run as the replicas of replicated do,
    from one pass and one shared prefix (_run_seeds), but are scored one
    by one.  Each distinct state _run_seeds returns is finalized and
    scored once, and its error added once per trial that holds it, in
    trial order: at b >= m, where _run_seeds returns one state for every
    trial, the row's sum has the bits of scoring each trial.
    """
    cls = _method(method)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not ds.graphs:
        raise ValueError("the dataset has no graphs")
    resolved = [(fraction, graph_budgets(ds, method, BudgetSpec(fraction=fraction))[0])
                for fraction in map(float, budgets)]

    exact_vectors = [cls.exact(build_graph(stream)).values
                     for stream in ds.graphs]

    rows: list[tuple[float, float]] = []
    for fraction, sizes in resolved:
        total, runs = 0.0, 0
        for gi, (stream, b) in enumerate(zip(ds.graphs, sizes)):
            if b is None:
                continue
            seeds = [derive_seed(seed, "evb", method, fraction, gi, trial)
                     for trial in range(trials)]
            errors: dict[int, float] = {}  # by id(state), while the states live
            for state in _run_seeds(stream, cls, b, seeds):
                if id(state) not in errors:
                    errors[id(state)] = canberra(state.finalize().values, exact_vectors[gi])
                total += errors[id(state)]
            runs += trials
        rows.append((fraction, total / runs))
    return rows
