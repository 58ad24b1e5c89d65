"""Benchmark bundle loading and the synthetic corpora."""

import hashlib
import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamdesc import build_graph, datasets, derive_seed, load_benchmark_dataset, preprocess
from streamdesc.datasets import (
    gnp_edges,
    preferential_attachment_edges,
    synthetic_two_class_dataset,
)
from streamdesc.errors import DataFormatError

import reference


def write_bundle(root, prefix="DS", a=None, indicator=None, labels=None):
    if a is not None:
        (root / f"{prefix}_A.txt").write_text(a)
    if indicator is not None:
        (root / f"{prefix}_graph_indicator.txt").write_text(indicator)
    if labels is not None:
        (root / f"{prefix}_graph_labels.txt").write_text(labels)


def two_triangle_bundle(root):
    root.mkdir(exist_ok=True)
    # graph 1 on global vertices 1..3, graph 2 on 4..6; both orientations
    # of one edge appear, as real bundles list every edge twice
    write_bundle(
        root,
        a=("1, 2\n2, 1\n2, 3\n1, 3\n" "4, 5\n5, 6\n4, 6\n"),
        indicator="1\n1\n1\n2\n2\n2\n",
        labels="0\n1\n",
    )


def test_load_two_triangle_bundle(tmp_path):
    two_triangle_bundle(tmp_path)
    ds = load_benchmark_dataset(tmp_path, seed=3)
    assert len(ds) == 2
    assert ds.labels == [0, 1]
    assert ds.name == "DS"
    for stream in ds.graphs:
        assert len(stream) == 3  # duplicate orientation dropped
        assert stream.n_hint == 3
        g = build_graph(stream)
        assert [len(s) for s in g.adj] == [2, 2, 2]  # local 0-based triangle
    assert all(type(x) is int for x in ds.labels + [s.n_hint for s in ds.graphs])


def test_negative_labels_take_the_fast_path(tmp_path, monkeypatch):
    # -1/1 class labels, as in many bundles, need no line-by-line parse;
    # a negative graph id is still refused by the loader's range check
    write_bundle(tmp_path, a="1, 2\n2, 3\n4, 5\n", indicator="1\n1\n1\n2\n2\n",
                 labels="-1\n1\n")

    def refuse(*_):
        raise AssertionError("int_rows called on a clean bundle")

    monkeypatch.setattr("streamdesc.graph.int_rows", refuse)
    assert load_benchmark_dataset(tmp_path).labels == [-1, 1]
    monkeypatch.undo()
    write_bundle(tmp_path, indicator="1\n1\n1\n2\n-2\n")
    with pytest.raises(DataFormatError, match=re.escape("graph ids span [-2, 2]")):
        load_benchmark_dataset(tmp_path)


def test_loader_interleaved_graphs(tmp_path):
    # local ids count each graph's vertices in indicator order, and each
    # graph's edges keep their file order
    write_bundle(tmp_path, a="5, 2\n1, 4\n3, 5\n", indicator="2\n1\n1\n2\n1\n",
                 labels="1\n0\n")
    ds = load_benchmark_dataset(tmp_path, seed=4)
    assert ds.labels == [1, 0]
    assert [s.n_hint for s in ds.graphs] == [3, 2]
    local = {1: [(2, 0), (1, 2)], 2: [(0, 1)]}
    for g, stream in enumerate(ds.graphs, start=1):
        assert stream.edges == preprocess(local[g], seed=derive_seed(4, "shuffle", g)).edges


def test_loader_files_share_the_edge_list_rules(tmp_path):
    # commas and/or whitespace in every file; blank and '#' lines skipped
    two_triangle_bundle(tmp_path / "commas")
    spaced = tmp_path / "spaced"
    spaced.mkdir()
    write_bundle(
        spaced,
        a="# A\n1 2\n2,1\n\n2\t3\n1 , 3\n4,5\n  5 6\n4, 6\n",
        indicator="# graph of each vertex\n1\n1\n 1 \n\n2\n2\n2\n",
        labels="# class of each graph\n0\n\n1\n",
    )
    a = load_benchmark_dataset(tmp_path / "commas", seed=3)
    b = load_benchmark_dataset(spaced, seed=3)
    assert b.labels == a.labels == [0, 1]
    assert [list(s) for s in b.graphs] == [list(s) for s in a.graphs]
    assert [s.n_hint for s in b.graphs] == [3, 3]


def test_loader_preserves_isolated_vertices(tmp_path):
    write_bundle(
        tmp_path,
        a="1, 2\n",
        indicator="1\n1\n1\n",  # vertex 3 has no edges
        labels="0\n",
    )
    ds = load_benchmark_dataset(tmp_path)
    assert ds.graphs[0].n_hint == 3
    assert build_graph(ds.graphs[0]).n == 3


def test_loader_is_deterministic(tmp_path):
    two_triangle_bundle(tmp_path)
    a = load_benchmark_dataset(tmp_path, seed=9)
    b = load_benchmark_dataset(tmp_path, seed=9)
    assert [list(s) for s in a.graphs] == [list(s) for s in b.graphs]
    c = load_benchmark_dataset(tmp_path, seed=10)
    assert [sorted(s) for s in c.graphs] == [sorted(s) for s in a.graphs]


def test_loader_missing_a_file(tmp_path):
    write_bundle(tmp_path, indicator="1\n", labels="0\n")
    with pytest.raises(DataFormatError, match="no .*_A"):
        load_benchmark_dataset(tmp_path)


def test_loader_ambiguous_prefix(tmp_path):
    two_triangle_bundle(tmp_path)
    (tmp_path / "OTHER_A.txt").write_text("1, 2\n")
    with pytest.raises(DataFormatError, match="multiple"):
        load_benchmark_dataset(tmp_path)


def test_loader_missing_companions(tmp_path):
    write_bundle(tmp_path, a="1, 2\n")
    with pytest.raises(DataFormatError, match="missing"):
        load_benchmark_dataset(tmp_path)


def test_loader_label_count_mismatch(tmp_path):
    write_bundle(tmp_path, a="1, 2\n", indicator="1\n1\n2\n", labels="0\n")
    with pytest.raises(DataFormatError, match="lists 1 graphs"):
        load_benchmark_dataset(tmp_path)


def test_loader_vertex_out_of_range(tmp_path):
    write_bundle(tmp_path, a="1, 9\n", indicator="1\n1\n", labels="0\n")
    with pytest.raises(DataFormatError, match="out of range"):
        load_benchmark_dataset(tmp_path)


def test_loader_cross_graph_edge(tmp_path):
    write_bundle(tmp_path, a="1, 3\n", indicator="1\n1\n2\n", labels="0\n1\n")
    with pytest.raises(DataFormatError, match="crosses graphs"):
        load_benchmark_dataset(tmp_path)


def test_loader_edge_faults_name_their_line(tmp_path):
    # the first faulty row in file order is reported, whichever its kind
    indicator, labels = "1\n1\n2\n2\n", "0\n1\n"
    head = "# edges\n1, 2\n\n3, 4\n"
    cases = (
        (head + "1, 3\n0, 1\n", "5: edge (1, 3) crosses graphs 1 and 2"),
        (head + "4, 5\n1, 3\n", "5: vertex id out of range in (4, 5)"),
        (head + "2, -1\n", "5: vertex id out of range in (2, -1)"),
        (head + "1, 3\n1 2 3\n", "5: edge (1, 3) crosses graphs 1 and 2"),
        (head + "1 2 3\n1, 3\n", "5: expected 2 fields"),
    )
    for a, message in cases:
        write_bundle(tmp_path, a=a, indicator=indicator, labels=labels)
        with pytest.raises(DataFormatError, match=re.escape(f"DS_A.txt:{message}")):
            load_benchmark_dataset(tmp_path)


def test_loader_refuses_ids_beyond_int64(tmp_path):
    write_bundle(tmp_path, a="1, 2\n", indicator=f"1\n{2 ** 64}\n", labels="0\n")
    with pytest.raises(DataFormatError,
                       match=r"DS_graph_indicator\.txt:2: integer outside the 64-bit range"):
        load_benchmark_dataset(tmp_path)


def test_loader_malformed_rows(tmp_path):
    write_bundle(tmp_path, a="1, 2, 3\n", indicator="1\n1\n", labels="0\n")
    with pytest.raises(DataFormatError, match=r"_A\.txt:1"):
        load_benchmark_dataset(tmp_path)
    write_bundle(tmp_path, a="1, x\n")
    with pytest.raises(DataFormatError, match="non-integer"):
        load_benchmark_dataset(tmp_path)
    write_bundle(tmp_path, a="1, 2\n", indicator="1\nfoo\n")
    with pytest.raises(DataFormatError, match=r"DS_graph_indicator\.txt:2"):
        load_benchmark_dataset(tmp_path)


def test_loader_not_a_directory(tmp_path):
    with pytest.raises(DataFormatError, match="not a directory"):
        load_benchmark_dataset(tmp_path / "nowhere")


def test_gnp_edges_extremes():
    rng = random.Random(0)
    assert gnp_edges(5, 1.0, rng) == [
        (u, v) for u in range(5) for v in range(u + 1, 5)]
    assert gnp_edges(5, 0.0, rng) == []


def test_gnp_edges_density_plausible():
    rng = random.Random(11)
    m = len(gnp_edges(60, 0.5, rng))
    total = 60 * 59 // 2
    assert abs(m - total / 2) < 4 * (total * 0.25) ** 0.5


# int and str seeds, each for a fresh generator and for one that has
# drawn and holds a pending gauss()
SEEDS = st.one_of(st.integers(0, 2 ** 64), st.text(max_size=6))


def twin_generators(seed, used):
    rngs = random.Random(seed), random.Random(seed)
    if used:
        for rng in rngs:
            rng.random()
            rng.gauss(0.0, 1.0)
            assert rng.getstate()[2] is not None
    return rngs


def assert_same_draws(got, want, rng, want_rng):
    assert got == want
    assert rng.getstate() == want_rng.getstate()
    assert rng.random() == want_rng.random()


@pytest.mark.parametrize("bulk_pairs, chunk", [
    (2 ** 62, datasets.GNP_CHUNK), (0, 1), (0, 7), (0, 4096)])
@given(n=st.integers(0, 40),
       p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, math.nan, 0, 1])),
       seed=SEEDS, used=st.booleans())
@example(n=40, p=math.nan, seed=0, used=True)
@settings(max_examples=40, deadline=None)
def test_gnp_edges_keep_the_reference_loop(bulk_pairs, chunk, n, p, seed, used):
    # the numpy path (every graph of two or more vertices, with
    # GNP_BULK_PAIRS at 0) and the loop give the per-pair loop's edges,
    # in its order, and leave the generator where it leaves it, a
    # pending gauss() included
    rng, want_rng = twin_generators(seed, used)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datasets, "GNP_BULK_PAIRS", bulk_pairs)
        patch.setattr(datasets, "GNP_CHUNK", chunk)
        got = gnp_edges(n, p, rng)
    assert_same_draws(got, reference.gnp_edges(n, p, want_rng), rng, want_rng)


@pytest.mark.parametrize("n, p, seed", [
    (200, 0.1, 3), (300, 0.5, "gnp_full:1"), (129, 1.0, 7), (150, 0.0, 8)])
def test_gnp_edges_above_the_cutoff_keep_the_reference_loop(n, p, seed):
    assert n * (n - 1) // 2 >= datasets.GNP_BULK_PAIRS
    rng, want_rng = twin_generators(seed, used=True)
    assert_same_draws(gnp_edges(n, p, rng), reference.gnp_edges(n, p, want_rng),
                      rng, want_rng)


def test_gnp_edges_leave_a_subclass_its_own_draws():
    # a subclass may override random(); each pair must still call it
    class Flipped(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return 1.0 - super().random()

    n = 200
    rng, want_rng = Flipped(4), Flipped(4)
    assert_same_draws(gnp_edges(n, 0.2, rng), reference.gnp_edges(n, 0.2, want_rng),
                      rng, want_rng)
    assert rng.calls == n * (n - 1) // 2 + 1


@given(m_attach=st.integers(1, 5), extra=st.integers(1, 60), seed=SEEDS,
       used=st.booleans())
@settings(max_examples=60, deadline=None)
def test_preferential_attachment_keeps_the_reference_loop(m_attach, extra, seed, used):
    n = m_attach + extra
    rng, want_rng = twin_generators(seed, used)
    assert_same_draws(preferential_attachment_edges(n, m_attach, rng),
                      reference.preferential_attachment_edges(n, m_attach, want_rng),
                      rng, want_rng)


@pytest.mark.skipif(
    sys.version_info[:2] > (3, 13),
    reason="choice matches reference.randbelow on CPython 3.10-3.13; "
           "the rejection loop, not choice, defines the generator's draws")
@pytest.mark.parametrize("n, m_attach, seed", [(300, 3, 0), (2_000, 5, "pa_stream:1")])
def test_preferential_attachment_is_cpython_choice(n, m_attach, seed):
    # where the endpoints were rng.choice's, they still are
    rng, want_rng = twin_generators(seed, used=False)
    assert_same_draws(
        preferential_attachment_edges(n, m_attach, rng),
        reference.preferential_attachment_edges(n, m_attach, want_rng,
                                                pick=random.Random.choice),
        rng, want_rng)


def test_preferential_attachment_shape():
    from streamdesc import EdgeStream

    rng = random.Random(5)
    edges = preferential_attachment_edges(50, 3, rng)
    assert len(edges) == len(set(edges))  # no duplicate attachments
    g = build_graph(EdgeStream(edges))
    assert g.n == 50
    assert g.m == 3 * (50 - 3)
    degrees = [len(s) for s in g.adj]
    assert min(degrees) >= 1  # growth keeps everything attached
    # the hub profile this model exists for
    assert max(degrees) > 10


def test_preferential_attachment_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        preferential_attachment_edges(3, 0, rng)
    with pytest.raises(ValueError):
        preferential_attachment_edges(3, 3, rng)


def test_synthetic_two_class_dataset():
    ds = synthetic_two_class_dataset(per_class=5, n_range=(20, 30), seed=1)
    assert len(ds) == 10
    assert ds.labels == [0] * 5 + [1] * 5
    for stream in ds.graphs:
        assert 20 <= stream.n_hint <= 30
    again = synthetic_two_class_dataset(per_class=5, n_range=(20, 30), seed=1)
    assert [list(s) for s in again.graphs] == [list(s) for s in ds.graphs]
    # every stream's edges and n_hint, pinned to the generator's output
    digest = hashlib.sha256()
    for stream in ds.graphs:
        digest.update(repr((stream.n_hint, list(stream))).encode())
    assert digest.hexdigest() == (
        "8ecb99080bc501d3c7f98d99ad14b1eabc54e7f107ecb7e4d6031f75203606a7")


@pytest.mark.parametrize("n_range", [(2, 3), (5, 3), (0, 10), (3, 3), (-1, 4)])
def test_synthetic_two_class_dataset_refuses_a_bad_n_range(n_range, monkeypatch):
    # refused before any graph is drawn, whatever the seed
    monkeypatch.setattr(datasets, "preferential_attachment_edges", None)
    monkeypatch.setattr(datasets, "gnp_edges", None)
    for seed in range(3):
        with pytest.raises(ValueError, match=re.escape(f"n_range={n_range!r}")):
            synthetic_two_class_dataset(per_class=3, n_range=n_range, seed=seed)


def test_synthetic_two_class_dataset_smallest_n_range():
    ds = synthetic_two_class_dataset(per_class=3, n_range=(4, 4), seed=2)
    assert [s.n_hint for s in ds.graphs] == [4] * 6


def test_dataset_length_validation():
    from streamdesc.datasets import Dataset

    with pytest.raises(ValueError):
        Dataset(graphs=[], labels=[1])
