import functools
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegcn.graph import (
    TEST,
    TRAIN,
    VAL,
    AttributedGraph,
    DatasetError,
    build_csr,
    check_splits,
    degree_norms,
    load_dataset,
    save_dataset,
    synth_graph,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=40
)


class TestCsr:
    def test_path_graph_structure(self, neighbors):
        adj = build_csr(4, [(0, 1), (1, 2), (2, 3)])
        assert adj.num_edges == 6  # symmetrized
        assert list(neighbors(adj, 1)) == [0, 2]
        assert adj.row_offsets[0] == 0
        assert adj.row_offsets[-1] == adj.num_edges

    def test_neighbor_lists_sorted_and_unique(self, neighbors):
        adj = build_csr(5, [(3, 1), (3, 0), (3, 1), (3, 4), (0, 3)])
        assert list(neighbors(adj, 3)) == [0, 1, 4]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            build_csr(3, [(0, 3)])

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_rebuild(self, edges):
        adj = build_csr(10, edges)
        rebuilt = build_csr(10, adj.edge_list(), symmetrize=False)
        np.testing.assert_array_equal(adj.row_offsets, rebuilt.row_offsets)
        np.testing.assert_array_equal(adj.col_indices, rebuilt.col_indices)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_idempotent(self, edges):
        once = build_csr(10, edges, symmetrize=True)
        twice = build_csr(10, once.edge_list(), symmetrize=True)
        np.testing.assert_array_equal(once.row_offsets, twice.row_offsets)
        np.testing.assert_array_equal(once.col_indices, twice.col_indices)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_pairs_present_both_ways(self, edges):
        adj = build_csr(10, edges)
        pairs = {tuple(e) for e in adj.edge_list()}
        assert all((v, u) in pairs for u, v in pairs)

    def test_self_loops_in_the_edge_list(self, neighbors):
        # a loop in the edge list is stored once, symmetrized or not
        for symmetrize in (True, False):
            adj = build_csr(3, [(0, 1)] + [(v, v) for v in range(3)] * 2, symmetrize=symmetrize)
            assert all(list(neighbors(adj, v)).count(v) == 1 for v in range(3))

    @given(edge_lists, st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_unique_reference(self, edges, symmetrize, self_loops):
        # reference: dedupe (u, v) rows with np.unique(axis=0), count rows with np.add.at
        if self_loops:
            edges = edges + [(v, v) for v in range(10)]
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if symmetrize:
            e = np.concatenate([e, e[:, ::-1]])
        e = np.unique(e, axis=0) if len(e) else e
        offsets = np.zeros(11, dtype=np.int64)
        np.add.at(offsets, e[:, 0] + 1, 1)
        adj = build_csr(10, edges, symmetrize=symmetrize)
        np.testing.assert_array_equal(adj.row_offsets, np.cumsum(offsets))
        np.testing.assert_array_equal(adj.col_indices, e[:, 1])
        assert adj.row_offsets.dtype == adj.col_indices.dtype == np.int64

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            build_csr(2**32, [])


class TestTransposeCsr:
    @staticmethod
    def _dense(offsets, cols, n):
        dense = np.zeros((n, n), dtype=int)
        dense[np.repeat(np.arange(n), np.diff(offsets)), cols] = 1
        return dense

    @given(edge_lists, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_dense_transpose(self, edges, symmetrize):
        adj = build_csr(10, edges, symmetrize=symmetrize)
        a = self._dense(adj.row_offsets, adj.col_indices, 10)
        np.testing.assert_array_equal(self._dense(adj.row_offsets_t, adj.col_indices_t, 10), a.T)
        # rows ascending and free of repeats, as A's are
        for lo, hi in zip(adj.row_offsets_t[:-1], adj.row_offsets_t[1:]):
            assert (np.diff(adj.col_indices_t[lo:hi]) > 0).all()
        assert adj.row_offsets_t.dtype == adj.col_indices_t.dtype == np.int64

    def test_symmetric_graph_shares_its_arrays(self):
        adj = build_csr(4, [(0, 1), (1, 2)])
        assert adj.row_offsets_t is adj.row_offsets and adj.col_indices_t is adj.col_indices
        directed = build_csr(4, [(0, 1), (1, 2)], symmetrize=False)
        assert directed.row_offsets_t is not directed.row_offsets
        assert directed.col_indices_t is not directed.col_indices

    def test_read_only(self):
        adj = build_csr(4, [(0, 1), (1, 2), (0, 3)], symmetrize=False)
        s = degree_norms(adj)
        for a in (adj.row_offsets_t, adj.col_indices_t, adj.weights(s, False, s.dtype), adj.weights(s, True, s.dtype)):
            assert not a.flags.writeable

    def test_weights_are_kept_for_their_scale_array(self):
        # s at each stored entry's column, made once per s array and
        # operator, and made again when another array is passed
        adj = build_csr(4, [(0, 1), (1, 2), (0, 3)], symmetrize=False)
        s = np.array([0.5, 0.25, 2.0, 4.0])
        a, at = adj.weights(s, False, s.dtype), adj.weights(s, True, s.dtype)
        assert a.tolist() == s[adj.col_indices].tolist() and at.tolist() == s[adj.col_indices_t].tolist()
        assert adj.weights(s, False, s.dtype) is a and adj.weights(s, True, s.dtype) is at and a is not at
        f4 = adj.weights(s, False, np.float32)
        assert f4.dtype == np.float32 and f4.tolist() == a.tolist() and adj.weights(s, False, s.dtype) is a
        other = s.copy()
        remade = adj.weights(other, False, s.dtype)
        assert remade is not a and remade.tolist() == a.tolist() and adj.weights(other, False, s.dtype) is remade

    def test_symmetric_graph_shares_its_weights(self):
        adj = build_csr(4, [(0, 1), (1, 2), (0, 3)])
        s = degree_norms(adj)
        assert adj.weights(s, True, s.dtype) is adj.weights(s, False, s.dtype)

    def test_threads_that_race_get_the_weights_of_their_own_scale_array(self):
        # devices share one adjacency: a call never gets values made for
        # another array, however the threads interleave the cache's check and set
        adj = build_csr(50, [(u, (3 * u + 1) % 50) for u in range(50)], symmetrize=False)
        scales = [np.arange(50.0) + k for k in range(4)]
        wrong = []

        def hammer(s):
            want = [s[adj.col_indices].tolist(), s[adj.col_indices_t].tolist()]
            for i in range(6000):
                if adj.weights(s, i % 2 == 1, np.float64).tolist() != want[i % 2]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as ex:
                for f in [ex.submit(hammer, s) for s in scales]:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not wrong


class TestRowRestriction:
    """An adjacency restricted to a row set R: A[R, :] and Aᵀ[:, R]."""

    @given(edge_lists, st.booleans(), st.lists(st.booleans(), min_size=10, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_equals_dense_slicing(self, edges, symmetrize, member):
        adj = build_csr(10, edges, symmetrize=symmetrize)
        rows = np.flatnonzero(member)
        r = adj.restrict(rows)
        m = len(rows)
        a = TestTransposeCsr._dense(adj.row_offsets, adj.col_indices, 10)
        got = np.zeros((m, 10), dtype=int)
        got[np.repeat(np.arange(m), np.diff(r.row_offsets)), r.col_indices] = 1
        np.testing.assert_array_equal(got, a[rows, :])
        got_t = np.zeros((10, m), dtype=int)
        got_t[np.repeat(np.arange(10), np.diff(r.row_offsets_t)), r.col_indices_t] = 1
        np.testing.assert_array_equal(got_t, a.T[:, rows])
        # every row in the whole's order: ascending, as the whole's rows are
        for offsets, cols in ((r.row_offsets, r.col_indices), (r.row_offsets_t, r.col_indices_t)):
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                assert (np.diff(cols[lo:hi]) > 0).all()
        assert r.num_nodes == 10 and r.num_rows == m and r.nodes.tolist() == rows.tolist()
        assert r.num_edges == len(r.col_indices) == int(a[rows].sum())

    def test_read_only(self):
        adj = build_csr(5, [(0, 1), (1, 2), (0, 3), (4, 2)], symmetrize=False)
        r = adj.restrict([1, 2, 4])
        s = degree_norms(adj)
        arrays = (r.nodes, r.row_offsets, r.col_indices, r.row_offsets_t, r.col_indices_t,
                  r.weights(s, False, s.dtype), r.weights(s, True, s.dtype), r.scale(s, False))
        for a in arrays:
            assert not a.flags.writeable

    def test_values_and_scales(self):
        # A[R, :] stores s at each entry's column and scales its rows by s[R];
        # Aᵀ[:, R] stores s[R] at each entry's column and scales by s
        adj = build_csr(5, [(0, 1), (1, 2), (0, 3), (4, 2)], symmetrize=False)
        r = adj.restrict([1, 2, 4])
        s = np.array([0.5, 0.25, 2.0, 4.0, 8.0])
        assert r.weights(s, False, s.dtype).tolist() == s[r.col_indices].tolist()
        assert r.weights(s, True, s.dtype).tolist() == s[r.nodes][r.col_indices_t].tolist()
        assert r.scale(s, False).tolist() == [0.25, 2.0, 8.0] and r.scale(s, True) is s
        assert adj.scale(s, False) is s and adj.scale(s, True) is s

    @pytest.mark.parametrize("rows", [[2, 1], [1, 1], [-1], [5], [[0, 1]]])
    def test_rejects_rows_that_are_not_ascending_nodes(self, rows):
        adj = build_csr(5, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            adj.restrict(rows)


class TestDegreeNorms:
    def test_path_graph_values(self):
        # path 0-1-2-3: end nodes degree 1, middle nodes degree 2
        adj = build_csr(4, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_allclose(
            degree_norms(adj), [1.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 1.0]
        )

    def test_regular_graph_edge_weight(self):
        # 4-cycle is 2-regular: every edge weight s[u]*s[v] = 1/2
        adj = build_csr(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        s = degree_norms(adj)
        np.testing.assert_allclose(s, 0.5**0.5)
        for u, v in adj.edge_list():
            assert s[u] * s[v] == pytest.approx(0.5)

    def test_isolated_node_zero(self):
        adj = build_csr(3, [(0, 1)])
        assert degree_norms(adj)[2] == 0.0

    def test_star_graph_center_leaf_weight(self):
        adj = build_csr(5, [(0, i) for i in range(1, 5)])
        s = degree_norms(adj)
        assert s[0] * s[1] == pytest.approx(1 / (np.sqrt(4) * np.sqrt(1)))

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_normalized_ones_aggregation(self, neighbors, edges):
        # aggregating the all-ones vector at v gives sum over neighbors of
        # 1/(sqrt|N(u)| sqrt|N(v)|); equals 1 exactly on regular graphs
        adj = build_csr(10, edges)
        s = degree_norms(adj)
        for v in range(10):
            row = neighbors(adj, v)
            expect = sum(s[u] * s[v] for u in row)
            got = s[v] * s[row].sum() if len(row) else 0.0
            assert got == pytest.approx(expect)


class TestSynthGraph:
    def test_forced_cliques(self):
        g = synth_graph(n=4, classes=2, d_feat=4, p_in=1.0, p_out=0.0, signal=1.0, seed=0)
        pairs = {tuple(e) for e in g.adj.edge_list()}
        assert pairs == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_zero_signal_pure_noise(self):
        a = synth_graph(n=200, classes=2, d_feat=6, p_in=0.1, p_out=0.1, signal=0.0, seed=3)
        # class-conditional feature means coincide in expectation
        m0 = a.features[a.labels == 0].mean(axis=0)
        m1 = a.features[a.labels == 1].mean(axis=0)
        assert np.abs(m0 - m1).max() < 0.5

    def test_deterministic(self):
        a = synth_graph(n=50, classes=3, d_feat=5, p_in=0.3, p_out=0.05, signal=1.0, seed=9)
        b = synth_graph(n=50, classes=3, d_feat=5, p_in=0.3, p_out=0.05, signal=1.0, seed=9)
        np.testing.assert_array_equal(a.adj.col_indices, b.adj.col_indices)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.split, b.split)

    @pytest.mark.parametrize("n", [4, 7, 50, 101])
    def test_split_proportions(self, n):
        g = synth_graph(n=n, classes=2, d_feat=3, p_in=0.2, p_out=0.1, signal=1.0, seed=1)
        counts = [(g.split == t).sum() for t in (TRAIN, VAL, TEST)]
        assert sum(counts) == n
        assert abs(counts[0] - n * 0.50) <= 1
        assert abs(counts[1] - n * 0.25) <= 1
        assert abs(counts[2] - n * 0.25) <= 1

    def test_tiny_graph_is_built_but_its_splits_cannot_be_scored(self):
        g = synth_graph(n=3, classes=3, d_feat=3, p_in=0.5, p_out=0.5, signal=1.0, seed=0)
        with pytest.raises(ValueError, match="the test split is empty"):
            check_splits(g.split, g.labels, g.num_classes)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            synth_graph(n=1, classes=2, d_feat=3, p_in=0.5, p_out=0.5, signal=1.0, seed=0)

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            synth_graph(n=10, classes=2, d_feat=3, p_in=1.5, p_out=0.0, signal=1.0, seed=0)


_DATASET_FILES = ("edges.bin", "features.bin", "labels.bin", "meta.json", "splits.bin")


@functools.lru_cache(maxsize=None)
def _dataset_files() -> dict:
    """The five files of a small valid dataset, by name."""
    g = synth_graph(n=24, classes=3, d_feat=3, p_in=0.3, p_out=0.05, signal=1.0, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(g, tmp)
        return {name: (Path(tmp) / name).read_bytes() for name in _DATASET_FILES}


def _graph_with_splits(labels, split, classes):
    n = len(labels)
    return AttributedGraph(
        adj=build_csr(n, [(v, v + 1) for v in range(n - 1)]),
        features=np.zeros((n, 2), dtype=np.float32),
        labels=np.array(labels, dtype=np.int64),
        num_classes=classes,
        split=np.array(split, dtype=np.uint8),
    )


class TestDatasetIO:
    def test_round_trip(self, tmp_path, small_graph):
        save_dataset(small_graph, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.adj.row_offsets, small_graph.adj.row_offsets)
        np.testing.assert_array_equal(loaded.adj.col_indices, small_graph.adj.col_indices)
        np.testing.assert_allclose(loaded.features, small_graph.features)
        np.testing.assert_array_equal(loaded.labels, small_graph.labels)
        np.testing.assert_array_equal(loaded.split, small_graph.split)
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        assert meta == {"num_nodes": 120, "num_features": 12, "num_classes": 3}

    def _write_tiny(self, d, directed=True):
        d.mkdir()
        (d / "meta.json").write_text(
            json.dumps({"num_nodes": 3, "num_features": 2, "num_classes": 3, "directed": directed})
        )
        np.array([[0, 1]], dtype="<u4").tofile(d / "edges.bin")
        np.arange(6, dtype="<f4").tofile(d / "features.bin")
        np.array([0, 1, 0], dtype="<u4").tofile(d / "labels.bin")
        np.array([0, 1, 2], dtype="u1").tofile(d / "splits.bin")

    def test_directed_input_symmetrized(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d, directed=True)
        g = load_dataset(d)
        pairs = {tuple(e) for e in g.adj.edge_list()}
        assert pairs == {(0, 1), (1, 0)}

    def test_preserve_direction_uses_in_neighbors(self, tmp_path, neighbors):
        d = tmp_path / "ds"
        self._write_tiny(d)
        g = load_dataset(d, symmetrize=False)
        assert list(neighbors(g.adj, 1)) == [0]  # edge (0, 1): node 1 aggregates from 0
        assert list(neighbors(g.adj, 0)) == []

    def test_missing_file(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        (d / "labels.bin").unlink()
        with pytest.raises(DatasetError, match="labels.bin"):
            load_dataset(d)

    def test_truncated_features(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        (d / "features.bin").write_bytes(b"\x00" * 10)
        with pytest.raises(DatasetError, match="features.bin"):
            load_dataset(d)

    def test_label_out_of_range(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        np.array([0, 7, 0], dtype="<u4").tofile(d / "labels.bin")
        with pytest.raises(DatasetError, match="label"):
            load_dataset(d)

    def test_non_finite_feature(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        np.array([0, np.nan, 0, 0, 0, 0], dtype="<f4").tofile(d / "features.bin")
        with pytest.raises(DatasetError, match="finite"):
            load_dataset(d)

    @pytest.mark.parametrize(
        "field, value",
        [("num_nodes", "sixty"), ("num_nodes", 3.0), ("num_features", True), ("num_classes", None),
         ("num_classes", 0), ("num_features", -2)],
    )
    def test_bad_meta_size_names_field(self, tmp_path, field, value):
        d = tmp_path / "ds"
        self._write_tiny(d)
        meta = json.loads((d / "meta.json").read_text())
        meta[field] = value
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=f"meta.json field {field}"):
            load_dataset(d)

    def test_meta_that_is_not_text_is_a_dataset_error(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        with open(d / "meta.json", "ab") as f:
            f.write(b"\xff")  # invalid UTF-8
        with pytest.raises(DatasetError, match="meta.json"):
            load_dataset(d)

    @given(st.sampled_from(_DATASET_FILES), st.sampled_from(["truncate", "extend", "flip"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupt_file_loads_or_raises_dataset_error(self, name, how, data):
        files = _dataset_files()
        payload = bytearray(files[name])
        if how == "truncate":
            del payload[data.draw(st.integers(0, len(payload) - 1), label="cut at") :]
        elif how == "extend":
            payload += data.draw(st.binary(min_size=1, max_size=16), label="extra bytes")
        else:
            for at in data.draw(st.lists(st.integers(0, len(payload) - 1), min_size=1, max_size=4), label="at"):
                payload[at] ^= data.draw(st.integers(1, 255), label="xor")
        with tempfile.TemporaryDirectory() as tmp:
            for file, content in files.items():
                (Path(tmp) / file).write_bytes(payload if file == name else content)
            try:
                load_dataset(tmp)
            except DatasetError:
                pass

    @pytest.mark.parametrize("split, name", [([1, 1, 2], "train"), ([0, 2, 2], "val"), ([0, 1, 1], "test")])
    def test_empty_split_rejected(self, tmp_path, split, name):
        d = tmp_path / "ds"
        self._write_tiny(d)
        np.array(split, dtype="u1").tofile(d / "splits.bin")
        with pytest.raises(DatasetError, match=f"splits.bin: the {name} split is empty"):
            load_dataset(d)

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_binary_split_with_one_class_rejected(self, tmp_path, name):
        # two nodes per split, one of each class, except that one split lacks class 1
        labels = [0, 1, 0, 1, 0, 1]
        labels[2 * ("train", "val", "test").index(name) + 1] = 0
        d = tmp_path / "ds"
        save_dataset(_graph_with_splits(labels, [0, 0, 1, 1, 2, 2], classes=2), d)
        with pytest.raises(DatasetError, match=f"splits.bin: the {name} split holds only class 0"):
            load_dataset(d)

    def test_one_class_split_accepted_beyond_binary(self, tmp_path):
        # accuracy is defined on a one-class split; only AUC-ROC needs both
        d = tmp_path / "ds"
        save_dataset(_graph_with_splits([0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2], classes=3), d)
        assert load_dataset(d).num_classes == 3

    def test_missing_meta_key(self, tmp_path):
        d = tmp_path / "ds"
        self._write_tiny(d)
        (d / "meta.json").write_text(json.dumps({"num_nodes": 3, "num_features": 2}))
        with pytest.raises(DatasetError, match="meta.json missing key 'num_classes'"):
            load_dataset(d)


class TestAttributedGraph:
    def test_immutable_arrays(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.features[0, 0] = 1.0

    def test_bad_split_rejected(self):
        adj = build_csr(2, [(0, 1)])
        with pytest.raises(ValueError, match="split"):
            AttributedGraph(
                adj=adj,
                features=np.zeros((2, 2), dtype=np.float32),
                labels=np.zeros(2, dtype=np.int64),
                num_classes=2,
                split=np.array([0, 9], dtype=np.uint8),
            )
