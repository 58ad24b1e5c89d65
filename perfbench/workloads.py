"""Seeded workload inputs, the op cycle of each workload, and output checks.

Run as a script, this module is the set-up step: a fresh interpreter that
imports streamdesc, generates one workload's inputs from a seed, writes them
and prints a manifest (file hashes and edge counts) as one JSON line.

    python3 perfbench/workloads.py --workload pa_stream --seed 1 --out DIR

Why each workload exists is written down in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("pa_stream", "gnp_full", "bundle_80")
METHODS = ("gabe", "maeve")

PA_N, PA_ATTACH = 20_000, 5
GNP_N, GNP_P = 3_000, 0.01
BUNDLE_PER_CLASS, BUNDLE_N_RANGE = 40, (30, 60)
# Small bundle the stream workloads run classify and error-vs-budget on, so
# that every workload reports every end-to-end metric.
COMPANION_PER_CLASS, COMPANION_N_RANGE = 10, (30, 40)
# Bundle graphs are drawn once, from this generator seed; --seed relabels
# their vertices and reorders their edges.  Drawing sizes per seed would
# move evb_gabe_s by ~10 % between seeds (the oracle is C(n, 4) per graph),
# more than the run-to-run spread the bounds allow.
BUNDLE_GENERATOR_SEED = 1

DESCRIPTOR_BUDGET = {"pa_stream": "0.05", "gnp_full": "1.0", "bundle_80": "0.5"}
# Untraced runs repeat short ops within a cycle so that they get enough
# samples for a steady median: one cycle lasts ~9 s on bundle_80 (evb_gabe
# alone ~6.5 s) and ~2-4 s on the stream workloads.
REPEATS = {
    "bundle_80": {"descriptor_gabe": 3, "descriptor_maeve": 3,
                  "classify_gabe": 2, "classify_maeve": 2},
    "pa_stream": {"classify_gabe": 3, "classify_maeve": 3, "evb_maeve": 2},
    "gnp_full": {"classify_gabe": 3, "classify_maeve": 3, "evb_maeve": 2},
}
CLASSIFY_FLAGS = ["--budget", "0.5", "--workers", "4"]
EVB_BUDGETS = ("0.2", "0.5", "1.0")
EVB_FLAGS = ["--budgets", ",".join(EVB_BUDGETS), "--trials", "5"]

STREAM_FILE = "stream.txt"
BUNDLE_DIR = "bundle"
BUNDLE_PREFIX = "BENCH"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_edge_list(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")


def _write_bundle(directory: Path, ds, rng: random.Random) -> int:
    """Write a Dataset in bundle format, each graph's vertices relabelled
    and edges reordered by rng; returns the total edge count."""
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, indicator = [], []
    offset = 0
    for gid, stream in enumerate(ds.graphs, start=1):
        label = list(range(offset + 1, offset + stream.n + 1))
        rng.shuffle(label)
        edges = [(label[u], label[v]) for u, v in stream.edges]
        rng.shuffle(edges)
        a_lines.extend(f"{u}, {v}\n" for u, v in edges)
        indicator.extend([f"{gid}\n"] * stream.n)
        offset += stream.n
    p = directory / BUNDLE_PREFIX
    Path(f"{p}_A.txt").write_text("".join(a_lines), encoding="utf-8")
    Path(f"{p}_graph_indicator.txt").write_text("".join(indicator), encoding="utf-8")
    Path(f"{p}_graph_labels.txt").write_text(
        "".join(f"{label}\n" for label in ds.labels), encoding="utf-8")
    return len(a_lines)


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Generate and write one workload's inputs; same seed, same bytes."""
    from streamdesc.datasets import (
        gnp_edges,
        preferential_attachment_edges,
        synthetic_two_class_dataset,
    )

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    edges = {}
    if workload == "bundle_80":
        ds = synthetic_two_class_dataset(
            per_class=BUNDLE_PER_CLASS, n_range=BUNDLE_N_RANGE, seed=BUNDLE_GENERATOR_SEED)
    else:
        if workload == "pa_stream":
            stream = preferential_attachment_edges(PA_N, PA_ATTACH, rng)
        else:
            stream = gnp_edges(GNP_N, GNP_P, rng)
        _write_edge_list(out / STREAM_FILE, stream)
        edges["stream"] = len(stream)
        ds = synthetic_two_class_dataset(
            per_class=COMPANION_PER_CLASS, n_range=COMPANION_N_RANGE,
            seed=BUNDLE_GENERATOR_SEED)
    edges["bundle"] = _write_bundle(out / BUNDLE_DIR, ds, rng)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {
        "files": {p.relative_to(out).as_posix(): sha256_file(p) for p in files},
        "edges": edges,
    }


@dataclass(frozen=True)
class Op:
    """One CLI invocation of the op cycle."""

    kind: str
    argv: tuple[str, ...]
    output_file: Path | None = None  # descriptor ops write a CSV here
    edges: int = 0  # stream edges a descriptor op reads
    repeats: int = 1  # runs per untraced cycle


def op_cycle(workload: str, work: Path, manifest: dict) -> list[Op]:
    """The ops one iteration of the closed loop runs, in order."""
    repeats = REPEATS[workload]
    bundle = str(work / BUNDLE_DIR)
    if workload == "bundle_80":
        source, edges = ["--dataset", bundle], manifest["edges"]["bundle"]
    else:
        source, edges = ["--input", str(work / STREAM_FILE)], manifest["edges"]["stream"]
    ops = []
    for method in METHODS:
        csv_path = work / f"descriptor_{method}.csv"
        ops.append(Op(
            f"descriptor_{method}",
            ("descriptor", *source, "--method", method,
             "--budget", DESCRIPTOR_BUDGET[workload], "--output", str(csv_path)),
            output_file=csv_path, edges=edges))
    for method in METHODS:
        ops.append(Op(f"classify_{method}", (
            "classify", "--dataset", bundle, "--method", method, *CLASSIFY_FLAGS)))
    for method in METHODS:
        ops.append(Op(f"evb_{method}", (
            "experiment", "error-vs-budget", "--dataset", bundle,
            "--method", method, *EVB_FLAGS)))
    return [replace(op, repeats=repeats.get(op.kind, 1)) for op in ops]


def probe_op(work: Path) -> Op:
    """error-vs-budget with the CLI's default budgets (0.1,0.3,0.5).

    Known defect at the seed commit: when 0.1 * m rounds up to fewer than
    five edges for one bundle graph, gabe's minimum budget aborts the
    whole experiment (exit 1), where compute_descriptors would skip the
    graph.  Graphs with m <= 40 trigger it; BUNDLE_GENERATOR_SEED's bundle
    has one (m = 37).
    """
    return Op("defect_probe", (
        "experiment", "error-vs-budget", "--dataset", str(work / BUNDLE_DIR),
        "--method", "gabe"))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_output(op: Op, output: str, workload: str) -> str | None:
    """Shape and invariant checks on one op's output; None when it passes.

    These hold for every seed.  Byte equality with the seed commit's output
    is checked separately, for the seeds perfbench/reference.json covers.
    """
    lines = output.splitlines()
    method = op.kind.rsplit("_", 1)[1]
    if op.kind.startswith("descriptor_"):
        dim = {"gabe": 17, "maeve": 20}[method]
        if not lines or not lines[0].startswith("graph_id,method,b,seed,n,m,v0,"):
            return "descriptor CSV lacks its header"
        rows = [line.split(",") for line in lines[1:]]
        expected_rows = 1 if workload != "bundle_80" else BUNDLE_PER_CLASS * 2
        if len(rows) != expected_rows:
            return f"expected {expected_rows} descriptor rows, got {len(rows)}"
        for row in rows:
            if len(row) != 6 + dim or row[1] != method:
                return f"malformed descriptor row: {row[:6]}"
            if not all(_finite(x) for x in row[6:]):
                return f"non-finite descriptor value in graph {row[0]}"
        m_total = sum(int(row[5]) for row in rows)
        if m_total != op.edges:
            return f"descriptor rows cover {m_total} edges, input has {op.edges}"
        return None
    if op.kind.startswith("classify_"):
        if len(lines) != 3 or lines[2] != "folds 10 repeats 10":
            return f"unexpected classify output: {lines!r}"
        key, _, value = lines[0].partition(" ")
        if key != "mean_accuracy" or not 0.0 <= float(value) <= 1.0:
            return f"bad accuracy line: {lines[0]!r}"
        return None
    if op.kind.startswith("evb_"):
        if not lines or lines[0] != "budget,mean_error":
            return "error-vs-budget output lacks its header"
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != list(EVB_BUDGETS) or any(len(r) != 2 for r in rows):
            return f"unexpected error-vs-budget rows: {lines[1:]!r}"
        if not all(_finite(r[1]) and float(r[1]) >= 0.0 for r in rows):
            return f"bad error value: {lines[1:]!r}"
        # b >= m: the sample is the whole graph, so the estimate is exact
        if rows[-1][1] != "0.0":
            return f"budget 1.0 error is {rows[-1][1]}, expected exactly 0.0"
        return None
    raise ValueError(f"no check for op kind {op.kind!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(write_inputs(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
