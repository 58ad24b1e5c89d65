"""How fast this host runs the program's kind of work right now.

The machines this benchmark runs on are shared.  On the one it was tuned on
(a 2-vCPU virtual machine) the same op took up to 60 % longer in one
38-second run than in another a minute later, with nothing else running in
the machine, and no number of samples inside one run removes a difference
between runs.  So a fixed kernel runs before and after every timed op, and
every time metric is the op's wall time scaled to a reference host speed:

    adjusted = wall time * REFERENCE_S / median kernel time near the op

where "near" means within WINDOW_S seconds of the op: the passes right
before and after it, and those of a neighbouring short op.  Runs on five
seeds per workload were scored with windows from 0.02 s to 1000 s; 0.1 s
gave the smallest worst-case spread.

The kernel mixes plain Python (sets, dicts, ints), like the estimators, with
numpy gathers over a few MB, like the oracle and the distance matrices.  It
shares no code with streamdesc, so a change to the program moves the
adjusted time exactly as it moves the wall time.  The report prints the
raw wall times as well.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time on the tuning machine in a quiet phase.
REFERENCE_S = 0.006
WINDOW_S = 0.1

_ARRAY_SIZE = 1 << 18


def _kernel() -> int:
    base = set(range(0, 4000, 3))
    acc: dict[int, int] = {}
    for i in range(5_000):
        probe = {i, i + 1, i + 2, (i * 7) % 4001}
        key = i & 255
        acc[key] = acc.get(key, 0) + len(base & probe)
    values = np.arange(_ARRAY_SIZE, dtype=np.int64)
    order = (values * 7919) % _ARRAY_SIZE
    return sum(acc.values()) + int(values[order].sum())


def measure() -> tuple[float, float]:
    """One kernel pass: (its midpoint on the perf_counter clock, seconds)."""
    start = perf_counter()
    _kernel()
    end = perf_counter()
    return (start + end) / 2, end - start


def adjusted(spans, kernels, window: float = WINDOW_S) -> list[float]:
    """Durations of (start, end) spans scaled to the reference speed by the
    median of the kernel passes within `window` seconds of each span."""
    out = []
    for start, end in spans:
        near = [k for when, k in kernels if start - window <= when <= end + window]
        out.append((end - start) * REFERENCE_S / statistics.median(near))
    return out
