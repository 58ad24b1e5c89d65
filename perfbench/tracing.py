"""Spans around streamdesc's public functions, recorded from outside the program.

The tracer replaces a function where the calling module binds it (for
example ``streamdesc.gabe.maybe_sample``), so the program's code is
unchanged.  Per-call functions get one span each: name, start, end, parent
span and the op that caused it.  Per-edge functions would cost a span per
stream edge, so they are aggregated per parent into a count and a total
time.  Everything stays in memory until the run ends.

Worker threads of ``compute_descriptors``' pool start with an empty span
stack; their spans take the main thread's innermost open span as parent.
Ops run one at a time, so that span is the pool's ``compute_descriptors``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from dataclasses import asdict, dataclass
from time import perf_counter

# (module binding, attribute, layer name)
PER_CALL = (
    ("streamdesc.cli", "read_edge_list", "graph.read_edge_list"),
    ("streamdesc.cli", "preprocess", "graph.preprocess"),
    ("streamdesc.cli", "load_benchmark_dataset", "datasets.load_benchmark_dataset"),
    ("streamdesc.cli", "compute_descriptors", "harness.compute_descriptors"),
    ("streamdesc.cli", "cross_validate", "harness.cross_validate"),
    ("streamdesc.cli", "error_vs_budget", "harness.error_vs_budget"),
    ("streamdesc.cli", "write_descriptors", "descriptors.write_descriptors"),
    ("streamdesc.harness", "replicated_gabe", "harness.replicated_gabe"),
    ("streamdesc.harness", "replicated_maeve", "harness.replicated_maeve"),
    ("streamdesc.harness", "gabe_finalize", "gabe.finalize"),
    ("streamdesc.harness", "maeve_finalize", "maeve.finalize"),
    ("streamdesc.harness", "exact_maeve_descriptor", "oracle.exact_maeve"),
    ("streamdesc.harness", "canberra_matrix", "descriptors.canberra_matrix"),
    ("streamdesc.gabe", "exact_induced_counts", "oracle.exact_induced_counts"),
    ("streamdesc.gabe", "subgraph_to_induced", "patterns.subgraph_to_induced"),
)
PER_EDGE = (
    ("streamdesc.harness", "gabe_process_edge", "gabe.process_edge"),
    ("streamdesc.harness", "maeve_process_edge", "maeve.process_edge"),
    ("streamdesc.gabe", "maybe_sample", "reservoir.maybe_sample"),
    ("streamdesc.maeve", "maybe_sample", "reservoir.maybe_sample"),
    ("streamdesc.gabe", "detection_probability", "reservoir.detection_probability"),
    ("streamdesc.maeve", "detection_probability", "reservoir.detection_probability"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float


@dataclass
class Aggregate:
    """All calls of one per-edge function under one parent."""

    id: int
    name: str
    parent: int | None
    op: int
    count: int = 0
    total: float = 0.0
    inserts: int = 0
    evictions: int = 0
    peak_stored: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int | None, str], Aggregate] = {}
        self.op = 0  # id of the op running now; set by the caller
        self.pool_calls: list[tuple[tuple, dict, object]] = []
        self.unbound: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so each call records one Span."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, parent, self.op, start, end))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def per_edge(self, name: str, fn):
        """Wrap fn so its calls add to one Aggregate per parent."""
        count_sample = name == "reservoir.maybe_sample"

        def wrapper(*args):
            stack = self._stack()
            parent = self._parent(stack)
            agg = self.aggregates.get((parent, name))
            if agg is None:
                agg = Aggregate(next(self._ids), name, parent, self.op)
                self.aggregates[(parent, name)] = agg
            if count_sample:
                stored_before = len(args[0].edges)
            stack.append(agg.id)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                agg.total += perf_counter() - start
                agg.count += 1
                stack.pop()
            if count_sample:
                # Read from the reservoir's state, not the return value: a
                # preprocessed stream has no duplicates, so the edge is in
                # the sample now exactly when this call stored it.
                state, (u, v) = args
                if v in state.adj.get(u, ()):
                    agg.inserts += 1
                    agg.evictions += len(state.edges) == stored_before
                if state.peak_stored > agg.peak_stored:
                    agg.peak_stored = state.peak_stored
            return result
        return wrapper

    def _record_pool_call(self, args, kwargs, result):
        self.pool_calls.append((args, kwargs, result))

    def install(self) -> None:
        """Patch every binding that exists; list the ones that do not."""
        self.unbound = []
        hooks = {"harness.compute_descriptors": self._record_pool_call}
        for table, wrap in ((PER_CALL, "span"), (PER_EDGE, "per_edge")):
            for module_name, attr, layer in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.unbound.append(f"{module_name}.{attr}")
                    continue
                if wrap == "span":
                    wrapped = self.span(layer, original, hooks.get(layer))
                else:
                    wrapped = self.per_edge(layer, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)

    def dump(self, path, op_info: dict) -> None:
        """Write every span and aggregate as JSON Lines, tagged with its op."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in [*self.spans, *self.aggregates.values()]:
                row = {"type": type(record).__name__.lower(), **asdict(record)}
                row["op_kind"] = op_info.get(record.op, (None, None, None))[1]
                fh.write(json.dumps(row) + "\n")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(tracer: Tracer, ops: set[int]) -> dict[str, float]:
    """Per-layer figures summed over the given ops.

    Inclusive times sum span durations across threads.  Self time is a
    span's duration minus the part of it that child spans cover, and an
    aggregate's total minus its child aggregates' totals.
    """
    spans = [s for s in tracer.spans if s.op in ops]
    aggs = [a for a in tracer.aggregates.values() if a.op in ops]
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        add(f"{s.name}_s", s.end - s.start)
        add(f"{s.name}_calls", 1)
        children.setdefault(s.parent, []).append((s.start, s.end))
    agg_children: dict[int, float] = {}
    for a in aggs:
        agg_children[a.parent] = agg_children.get(a.parent, 0.0) + a.total
    for s in spans:
        if s.name == "cli.main":
            covered = _union_length(children.get(s.id, [])) + agg_children.get(s.id, 0.0)
            add("cli.main_self_s", s.end - s.start - covered)
    for a in aggs:
        add(f"{a.name}_s", a.total)
        add(f"{a.name}_calls", a.count)
        add(f"{a.name}_self_s", a.total - agg_children.get(a.id, 0.0))
        if a.name == "reservoir.maybe_sample":
            add("reservoir.inserts", a.inserts)
            add("reservoir.evictions", a.evictions)
            out["reservoir.peak_stored"] = max(out.get("reservoir.peak_stored", 0), a.peak_stored)
    return out

