"""Record reference outputs for a range of seeds into perfbench/reference.json.

    python3 perfbench/record_reference.py --seeds 0-31

For each workload and seed this writes the inputs once and runs one traced
op cycle in a fresh process, then stores the input file hashes, each op's
output hash, the defect probe's exit code and the exact per-op counts.
run.py compares every op's output with the stored hash, so the file must be
recorded from the commit whose outputs are the reference, and a later
change that alters outputs on purpose has to say so.  The counts are stored
for citation and are not compared.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seed: int) -> dict | None:
    run_dir = run.WORK_ROOT / f"record-{workload}-seed{seed}"
    inputs = run_dir / "inputs"
    proc = run.run_child(
        [str(run.HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(inputs)], run.TIME_LIMIT_S)
    manifest = json.loads(proc.stdout.splitlines()[-1])
    manifest_path = run_dir / "manifest.json"
    result_path = run_dir / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    run.run_child(
        [str(run.HERE / "loop.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--work", str(inputs),
         "--manifest", str(manifest_path), "--result", str(result_path), "--record"],
        run.TIME_LIMIT_S)
    result = json.loads(result_path.read_text())
    shutil.rmtree(run_dir)
    if result["failures"]:
        print(f"{workload} seed {seed}: not recorded, {result['failures']}", file=sys.stderr)
        return None
    probe = result["probe"]
    return {
        "inputs": manifest["files"],
        "outputs": result["hashes"],
        "probe_rc": None if probe is None else probe["rc"],
        "counts": result["trace"]["counts"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seeds:
            entry = record(workload, seed)
            if entry is not None:
                reference.setdefault(workload, {})[str(seed)] = entry
                path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
                print(f"{workload} seed {seed}: recorded", flush=True)


if __name__ == "__main__":
    main()
