"""Bit-for-bit regression goldens for the oracle and both descriptors.

`golden.json` holds the `float.hex` form of every value computed below
for fixed (stream, budget, seed) triples.  A refactor or speed-up must
reproduce them exactly: same RNG draw order, same float evaluation
order.  A change that is meant to move the bits regenerates the file
with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

import json
import random
from pathlib import Path

import pytest

from streamdesc import (
    EdgeStream,
    build_graph,
    exact_gabe_descriptor,
    exact_maeve_descriptor,
    gabe_descriptor,
    maeve_descriptor,
    replicated,
)
from streamdesc.datasets import gnp_edges, preferential_attachment_edges
from streamdesc.graph import preprocess

from reference import ORACLE_LIMIT, exact_induced_counts

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def _gnp(n: int, p: float, seed: int) -> EdgeStream:
    stream = preprocess(gnp_edges(n, p, random.Random(seed)), seed=seed)
    stream.n_hint = n
    return stream


def _streams() -> dict[str, EdgeStream]:
    return {
        "empty_n0": EdgeStream([], n_hint=0),
        "isolated_n1": EdgeStream([], n_hint=1),
        "wedge_n3": EdgeStream([(1, 2), (0, 1)], n_hint=3),
        "paw_n4": EdgeStream([(0, 1), (2, 3), (0, 2), (1, 2)]),
        "gnp_n20": _gnp(20, 0.3, seed=11),
        "gnp_n60_sparse": _gnp(60, 0.08, seed=12),
        "gnp_n60_dense": _gnp(60, 0.35, seed=13),
        "pa_n400": preprocess(
            preferential_attachment_edges(400, 3, random.Random(14)), seed=14),
    }


# (stream, budget, seed, replicas); budgets below, at and above m
_RUNS = [
    ("empty_n0", 5, 0, 1),
    ("isolated_n1", 5, 0, 1),
    ("wedge_n3", 5, 1, 1),
    ("paw_n4", 5, 2, 1),
    ("gnp_n20", 10, 3, 1),
    ("gnp_n20", 1000, 3, 1),
    ("gnp_n60_sparse", 40, 4, 1),
    ("gnp_n60_sparse", 1000, 4, 1),
    ("gnp_n60_dense", 150, 5, 1),
    ("gnp_n60_dense", 150, 5, 3),
    ("pa_n400", 60, 6, 1),
    ("pa_n400", 60, 6, 3),
    ("pa_n400", 1197, 7, 1),
]


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def compute_goldens() -> dict:
    streams = _streams()
    out = {"oracle": {}, "exact_gabe": {}, "exact_maeve": {}, "gabe": {}, "maeve": {}}
    for name, stream in streams.items():
        g = build_graph(stream)
        if g.n <= ORACLE_LIMIT:
            out["oracle"][name] = _hex(exact_induced_counts(g).values)
            out["exact_gabe"][name] = _hex(exact_gabe_descriptor(g).values)
        out["exact_maeve"][name] = _hex(exact_maeve_descriptor(g).values)
    for name, b, seed, replicas in _RUNS:
        stream = streams[name]
        key = f"{name}/m={len(stream)}/b={b}/seed={seed}/replicas={replicas}"
        if replicas == 1:
            gabe = gabe_descriptor(stream, b, seed).values
            maeve = maeve_descriptor(stream, b, seed).values
        else:
            gabe = replicated(stream, "gabe", b, replicas, seed).values
            maeve = replicated(stream, "maeve", b, replicas, seed).values
        out["gabe"][key] = _hex(gabe)
        out["maeve"][key] = _hex(maeve)
    return out


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return compute_goldens()


def test_golden_cases_cover_degenerate_sizes_and_budget_regimes(computed):
    streams = _streams()
    assert {s.n for s in streams.values()} >= {0, 1, 3, 4, 60}
    assert any(b < len(streams[name]) for name, b, _, _ in _RUNS)
    assert any(b >= len(streams[name]) for name, b, _, _ in _RUNS)
    assert computed.keys() == {"oracle", "exact_gabe", "exact_maeve", "gabe", "maeve"}


@pytest.mark.parametrize(
    "section", ["oracle", "exact_gabe", "exact_maeve", "gabe", "maeve"])
def test_matches_golden_bit_for_bit(section, goldens, computed):
    assert computed[section].keys() == goldens[section].keys()
    for key, want in goldens[section].items():
        assert computed[section][key] == want, f"{section} {key}"


def test_exact_gabe_past_the_enumeration_cap_matches_full_budget_golden(goldens):
    # n = 400 is beyond the enumerator; the estimator at b >= m is exact
    g = build_graph(_streams()["pa_n400"])
    assert g.n > ORACLE_LIMIT
    want = goldens["gabe"]["pa_n400/m=1191/b=1197/seed=7/replicas=1"]
    assert _hex(exact_gabe_descriptor(g).values) == want


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute_goldens(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
