"""Closed-loop runner for one workload, in its own fresh process.

One client runs the workload's op cycle (perfbench/workloads.py) through
``streamdesc.cli.main`` in process, each op only after the previous one
completed, until the next op would end past the deadline.  It starts no
threads of its own; the thread pool in ``compute_descriptors`` is part of
what is measured.  Every op's output is checked; failed ops count against
``attempted`` and are left out of every timing.  A pass of the host-speed
kernel (perfbench/hostspeed.py) runs right before and after every op.

With tracing on, cycles alternate traced and untraced.  Traced cycles give
the per-layer figures; the difference between traced and untraced op
medians is the tracing overhead.  After each traced op, its
``compute_descriptors`` calls are replayed with ``max_threads=1`` as the
serial baseline for the pool.

Results go to RESULT as JSON; perfbench/run.py reads them.

    python3 perfbench/loop.py --workload W --seed S --seconds N --trace 0|1 \
        --work DIR --manifest FILE --result RESULT
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Counts that must repeat exactly between traced passes over the same inputs.
EXACT_COUNTS = (
    "reservoir.inserts",
    "reservoir.evictions",
    "reservoir.peak_stored",
    "reservoir.detection_probability_calls",
    "gabe.finalize_calls",
)


def import_program():
    """Import streamdesc from this checkout's src/ and nowhere else."""
    import streamdesc
    import streamdesc.cli

    where = Path(streamdesc.__file__).resolve()
    if CHECKOUT / "src" not in where.parents:
        sys.exit(f"perfbench: imported streamdesc from {where}, "
                 f"expected it under {CHECKOUT / 'src'}")
    return streamdesc.cli


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def per_layer(totals: dict, serial: dict) -> dict:
    """The per-layer metrics of one traced cycle; absent layers read 0."""
    def get(key):
        return totals.get(key, 0)

    def rate(layer):
        busy = get(f"{layer}_s")
        return get(f"{layer}_calls") / busy if busy else 0.0

    out = {key: get(key) for key in (
        "graph.read_edge_list_s",
        "graph.preprocess_s",
        "datasets.load_benchmark_dataset_s",
        "reservoir.maybe_sample_s",
        "reservoir.inserts",
        "reservoir.evictions",
        "reservoir.peak_stored",
        "reservoir.detection_probability_calls",
        "reservoir.detection_probability_s",
        "gabe.process_edge_self_s",
        "gabe.finalize_s",
        "gabe.finalize_calls",
        "patterns.subgraph_to_induced_s",
        "maeve.process_edge_self_s",
        "maeve.finalize_s",
        "oracle.exact_induced_counts_s",
        "oracle.exact_maeve_s",
        "harness.compute_descriptors_s",
        "harness.replicated_gabe_s",
        "harness.replicated_maeve_s",
        "harness.cross_validate_s",
        "descriptors.canberra_matrix_s",
        "descriptors.write_descriptors_s",
        "cli.main_self_s",
    )}
    out["gabe.stream_edges_per_s"] = rate("gabe.process_edge")
    out["maeve.stream_edges_per_s"] = rate("maeve.process_edge")
    out["harness.compute_descriptors_serial_s"] = serial.get(
        "harness.compute_descriptors_s", 0.0)
    return out


class Runner:
    def __init__(self, cli, workload: str, reference: dict | None,
                 exact_maeve: list[str] | None, trace: bool):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.exact_maeve = exact_maeve
        self.tracer = tracing.Tracer() if trace else None
        self.tracing = False
        # kind -> [(start, end)] of successful ops, perf_counter seconds
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.traced_samples: dict[str, list[tuple[float, float]]] = {}
        self.kernels: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_info: dict[int, tuple[int, str, bool]] = {}  # id -> cycle, kind, replay
        self._next_id = 1

    def _new_id(self, cycle: int, kind: str, replay: bool) -> int:
        op_id = self._next_id
        self._next_id += 1
        self.op_info[op_id] = (cycle, kind, replay)
        return op_id

    def call(self, op: workloads.Op, op_id: int = 0):
        """Run one op; returns (exit code or None, start, end, output, stderr)."""
        main = self.cli.main
        if self.tracing:
            self.tracer.op = op_id
            main = self.tracer.span("cli.main", main)
        if op.output_file is not None:
            op.output_file.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(list(op.argv))
        except Exception:  # an op that crashes is a failed op, not a crashed run
            rc = None
            err.write(traceback.format_exc())
        end = perf_counter()
        output = out.getvalue()
        if rc == 0 and op.output_file is not None:
            output = op.output_file.read_text(encoding="utf-8")
        return rc, start, end, output, err.getvalue()

    def _fail(self, op: workloads.Op, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.kind}: {why}")

    def timed_op(self, op: workloads.Op, cycle: int) -> float:
        op_id = self._new_id(cycle, op.kind, False)
        self.attempted += 1
        self.kernels.append(hostspeed.measure())
        rc, start, end, output, err = self.call(op, op_id)
        self.kernels.append(hostspeed.measure())
        elapsed = end - start
        if self.tracing:
            self.replay_serial(cycle, op)
        if rc != 0:
            self._fail(op, f"exit {rc}: {err.strip()[-300:]}")
            return elapsed
        why = workloads.check_output(op, output, self.workload)
        h = digest(output)
        if why is None and self.hashes.setdefault(op.kind, h) != h:
            why = "output differs from this op's earlier output in the run"
        if why is None and op.kind == "descriptor_maeve" and self.exact_maeve is not None:
            if output.splitlines()[1].split(",")[6:] != self.exact_maeve:
                why = "b >= m estimate differs from exact_maeve_descriptor"
        if why is None and self.reference is not None:
            want = self.reference["outputs"].get(op.kind)
            if want is not None and want != h:
                why = f"output hash {h} differs from the seed commit's {want}"
        if why is not None:
            self._fail(op, why)
            return elapsed
        bucket = self.traced_samples if self.tracing else self.samples
        bucket.setdefault(op.kind, []).append((start, end))
        return elapsed

    def replay_serial(self, cycle: int, op: workloads.Op) -> None:
        """Re-run the op's compute_descriptors calls on one thread."""
        from streamdesc.descriptors import write_descriptors

        def as_text(result):
            descriptors, errors = result
            buf = io.StringIO()
            write_descriptors([d for d in descriptors if d is not None], buf)
            return buf.getvalue(), list(errors)

        calls, self.tracer.pool_calls = self.tracer.pool_calls, []
        for args, kwargs, pooled in calls:
            self.tracer.op = self._new_id(cycle, op.kind, True)
            try:
                serial = self.cli.compute_descriptors(*args, **{**kwargs, "max_threads": 1})
            except TypeError as exc:
                self.failures.append(f"serial replay not possible: {exc}")
                break
            if as_text(serial) != as_text(pooled):
                self.failures.append(
                    f"{op.kind}: compute_descriptors gives other results on one thread")
        self.tracer.pool_calls = []

    def run(self, ops, seconds: float, trace: bool, min_cycles: int) -> list[int]:
        """The closed loop; returns the numbers of the complete traced cycles."""
        deadline = perf_counter() + seconds
        last: dict[tuple[str, bool], float] = {}
        traced_cycles = []
        cycle = 0
        while True:
            traced = trace and cycle % 2 == 0
            if traced:
                self.tracer.install()
                self.tracing = True
            stopped = False
            for op in ops:
                for _ in range(1 if trace else op.repeats):
                    guess = last.get((op.kind, traced), last.get((op.kind, not traced), 0.0))
                    if cycle >= min_cycles and perf_counter() + guess > deadline:
                        stopped = True
                        break
                    last[(op.kind, traced)] = self.timed_op(op, cycle)
                if stopped:
                    break
            if traced:
                self.tracer.uninstall()
                self.tracing = False
                if not stopped:
                    traced_cycles.append(cycle)
            if stopped:
                return traced_cycles
            cycle += 1

    def layer_report(self, traced_cycles: list[int]) -> dict:
        tracer = self.tracer
        per_cycle, per_kind, counts = [], {}, []
        for c in traced_cycles:
            ops = {i for i, (cy, _, rep) in self.op_info.items() if cy == c and not rep}
            replays = {i for i, (cy, _, rep) in self.op_info.items() if cy == c and rep}
            per_cycle.append(per_layer(
                tracing.layer_totals(tracer, ops), tracing.layer_totals(tracer, replays)))
            kinds = {}
            for kind in {self.op_info[i][1] for i in ops}:
                own = {i for i in ops if self.op_info[i][1] == kind}
                mine = {i for i in replays if self.op_info[i][1] == kind}
                kinds[kind] = per_layer(
                    tracing.layer_totals(tracer, own), tracing.layer_totals(tracer, mine))
            counts.append({k: {m: v[m] for m in EXACT_COUNTS} for k, v in kinds.items()})
            per_kind = per_kind or kinds
        for c, other in zip(traced_cycles[1:], counts[1:]):
            if other != counts[0]:
                self.failures.append(
                    f"exact counts differ between traced cycles {traced_cycles[0]} "
                    f"and {c}: {counts[0]} vs {other}")
        layers = {key: statistics.median(cycle[key] for cycle in per_cycle)
                  for key in per_cycle[0]} if per_cycle else {}
        overhead = {}
        for kind, traced in self.traced_samples.items():
            if kind in self.samples:
                overhead[kind] = (statistics.median(e - s for s, e in traced)
                                  - statistics.median(e - s for s, e in self.samples[kind]))
        layers["trace.overhead_s"] = sum(overhead.values())
        return {
            "layers": layers,
            "per_kind": per_kind,
            "counts": counts[0] if counts else {},
            "overhead": overhead,
            "spans": len(tracer.spans),
            "aggregates": len(tracer.aggregates),
            "unbound": tracer.unbound,
        }

    def probe(self, work: Path) -> dict:
        """The known-defect probe: once per run, untimed, outside `failed`."""
        rc, start, end, output, err = self.call(workloads.probe_op(work))
        return {"rc": rc, "seconds": end - start, "stderr": err.strip()[-300:],
                "known_defect": rc == 1 and "need at least" in err}


def exact_maeve_values(work: Path) -> list[str]:
    """Oracle maeve values as the CSV writes them, for the b >= m workload."""
    from streamdesc.graph import build_graph, preprocess, read_edge_list
    from streamdesc.maeve import exact_maeve_descriptor

    stream = preprocess(read_edge_list(work / workloads.STREAM_FILE), seed=0)
    return [repr(float(x)) for x in exact_maeve_descriptor(build_graph(stream)).values]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--record", action="store_true",
                        help="one traced cycle, for perfbench/record_reference.py")
    args = parser.parse_args()

    cli = import_program()
    manifest = json.loads(args.manifest.read_text())
    reference = None
    if not args.record and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed))
    if reference is None:
        reference_note = "none stored for this seed; shape, invariant and repeat checks only"
    elif reference["inputs"] != manifest["files"]:
        reference_note = "inputs differ from the seed commit's"
    else:
        reference_note = "inputs and outputs compared with the seed commit's"
    exact = exact_maeve_values(args.work) if args.workload == "gnp_full" else None
    runner = Runner(cli, args.workload, reference, exact,
                    trace=bool(args.trace) or args.record)
    ops = workloads.op_cycle(args.workload, args.work, manifest)
    if args.record:
        traced_cycles = runner.run(ops, 0.0, True, 1)
    else:
        traced_cycles = runner.run(ops, args.seconds, bool(args.trace), 3 if args.trace else 1)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "samples": runner.samples,
        "traced_samples": runner.traced_samples,
        "kernels": runner.kernels,
        "edges": {op.kind: op.edges for op in ops if op.edges},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "maxrss_kb": maxrss_kb,
        "hashes": runner.hashes,
        "probe": runner.probe(args.work) if args.workload == "bundle_80" else None,
    }
    if traced_cycles:
        result["trace"] = runner.layer_report(traced_cycles)
        runner.tracer.dump(args.result.with_name("trace.jsonl"), runner.op_info)
    if reference is not None and reference["inputs"] != manifest["files"]:
        runner.failures.append("generated inputs differ from the seed commit's")
    result["reference"] = reference_note
    result["failures"] = runner.failures
    args.result.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
