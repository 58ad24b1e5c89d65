"""Benchmark bundle loading and the synthetic corpora."""

import random

import pytest

from streamdesc import build_graph, load_benchmark_dataset
from streamdesc.datasets import (
    gnp_edges,
    preferential_attachment_edges,
    synthetic_two_class_dataset,
)
from streamdesc.errors import DataFormatError


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


def test_dataset_length_validation():
    from streamdesc.datasets import Dataset

    with pytest.raises(ValueError):
        Dataset(graphs=[], labels=[1])
