"""streamdesc benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pa_stream --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; streamdesc is imported from its src/.
Set-up runs several fresh interpreters that each import streamdesc and
generate and write the workload's inputs; ``setup_s`` is their median
time.  The workload then runs in one more fresh process (perfbench/loop.py),
a closed loop of CLI ops for ``--seconds``.  Times are scaled to a
reference host speed (perfbench/hostspeed.py).  A report goes to standard
output and its last line is one JSON object: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
Workloads, metrics and the layer map are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench"
SETUP_RUNS = 7
TIME_LIMIT_S = 170  # the whole run, set-up included, ends before 180 s
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=child_env(), capture_output=True,
            text=True, timeout=max(timeout, 1.0), cwd=CHECKOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        fail(f"{argv[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def set_up(workload: str, seed: int, work: Path, started: float):
    """Write the inputs SETUP_RUNS times; each write must give the same bytes.

    Returns the manifest, the (start, end) of each set-up and the kernel
    passes around them.
    """
    manifests, spans, kernels = [], [], []
    for _ in range(SETUP_RUNS):
        shutil.rmtree(work, ignore_errors=True)
        kernels.append(hostspeed.measure())
        begin = perf_counter()
        proc = run_child(
            [str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(work)],
            TIME_LIMIT_S - (perf_counter() - started))
        spans.append((begin, perf_counter()))
        kernels.append(hostspeed.measure())
        manifests.append(json.loads(proc.stdout.splitlines()[-1]))
    if any(m != manifests[0] for m in manifests):
        fail(f"inputs for seed {seed} differ between set-up runs")
    print(f"set-up runs (s, wall): {', '.join(f'{e - s:.4f}' for s, e in spans)}")
    return manifests[0], spans, kernels


def tail_percentile(samples: list[float]) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[
                round(p * 10) - 1]
            return f"p{p:g} {value:.4f} s"
    return "no percentile has 10 samples beyond it"


def walls(spans) -> list[float]:
    return [end - start for start, end in spans]


def end_to_end(result: dict, setup_spans, setup_kernels, adjust: bool = True) -> dict:
    """The end-to-end metrics; adjust=False gives plain wall-time figures."""
    samples, edges = result["samples"], result["edges"]

    def scale(spans, kernels=result["kernels"]):
        return hostspeed.adjusted(spans, kernels) if adjust else walls(spans)

    medians = {}
    for op in ("descriptor", "classify", "evb"):
        for method in workloads.METHODS:
            kind = f"{op}_{method}"
            if kind not in samples:
                fail(f"no {kind} op succeeded: {result['failures'][:3]}")
            medians[kind] = statistics.median(scale(samples[kind]))
    values = {"setup_s": statistics.median(scale(setup_spans, setup_kernels))}
    for method in workloads.METHODS:
        kind = f"descriptor_{method}"
        values[f"{kind}_edges_per_s"] = edges[kind] / medians[kind]
        values[f"classify_{method}_s"] = medians[f"classify_{method}"]
        values[f"evb_{method}_s"] = medians[f"evb_{method}"]
    values["peak_rss_mb"] = result["maxrss_kb"] / 1024
    return values


def report(manifest: dict, result: dict) -> None:
    print(f"inputs: {manifest['edges']} edges")
    print(f"reference: {result['reference']}")
    print("op                 mode      n  wall median s  adjusted median s  tail (adjusted)")
    for mode, key in (("untraced", "samples"), ("traced", "traced_samples")):
        for kind, samples in result[key].items():
            adj = hostspeed.adjusted(samples, result["kernels"])
            print(f"{kind:<18} {mode:<8} {len(samples):>3}  "
                  f"{statistics.median(walls(samples)):>13.4f}  "
                  f"{statistics.median(adj):>17.4f}  {tail_percentile(adj)}")
    probe = result["probe"]
    attempted, failed = result["attempted"], result["failed"]
    if probe is not None:
        outcome = ("exit 1, known defect reproduced" if probe["known_defect"]
                   else f"exit {probe['rc']}, defect not triggered")
        print(f"defect probe (error-vs-budget, default budgets): {outcome}: "
              f"{probe['stderr']!r}")
        attempted, failed = attempted + 1, failed + (probe["rc"] != 0)
    print(f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.4f} "
          f"(timed ops: {result['failed']}/{result['attempted']})")
    for why in result["failures"][:20]:
        print(f"FAILED {why}")


def trace_report(result: dict) -> None:
    trace = result["trace"]
    print(f"trace: {trace['spans']} spans, {trace['aggregates']} per-edge aggregates "
          f"kept in memory")
    if trace["unbound"]:
        print(f"trace: not bound, reads 0: {', '.join(trace['unbound'])}")
    for kind, delta in sorted(trace["overhead"].items()):
        print(f"tracing overhead {kind}: {delta:+.4f} s (traced - untraced median)")
    print(f"exact counts per op: {json.dumps(trace['counts'], sort_keys=True)}")
    kinds = sorted(trace["per_kind"])
    print("per-layer by op, first traced cycle: " + ", ".join(kinds))
    for key in sorted(trace["layers"]):
        if key == "trace.overhead_s":
            continue
        row = "  ".join(f"{trace['per_kind'][k][key]:.6g}" for k in kinds)
        print(f"  {key:<40} {row}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (CHECKOUT / "src" / "streamdesc" / "__init__.py").is_file():
        fail(f"no streamdesc sources under {CHECKOUT / 'src'}")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]

    # inputs/ is deleted after the run; the manifest, the result and, in
    # traced runs, every span (trace.jsonl) stay for inspection.
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    run_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    inputs = run_dir / "inputs"
    manifest, setup_spans, setup_kernels = set_up(args.workload, args.seed, inputs, started)
    manifest_path = run_dir / "manifest.json"
    result_path = run_dir / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    run_child(
        [str(HERE / "loop.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", str(inputs), "--manifest", str(manifest_path),
         "--result", str(result_path)],
        TIME_LIMIT_S - (perf_counter() - started))
    shutil.rmtree(inputs)
    result = json.loads(result_path.read_text())

    failures = result["failures"]
    report(manifest, result)
    if args.trace:
        trace_report(result)
        values = result["trace"]["layers"]
    else:
        values = end_to_end(result, setup_spans, setup_kernels)
        print("unadjusted " + json.dumps(
            end_to_end(result, setup_spans, setup_kernels, adjust=False)))
    names = [m["name"] for m in metric_list]
    if set(names) != set(values):
        fail(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    for m in metric_list:
        print(f"{m['name']:<42} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }))


if __name__ == "__main__":
    main()
