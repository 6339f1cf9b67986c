import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegcn import blas, ops
from slicegcn.graph import build_csr, degree_norms


def _spmm(adj, s, h, transpose=False):
    """spmm_norm in a fresh workspace, into a new array."""
    return ops.spmm_norm(adj, s, h, transpose, out=np.empty_like(h), ws=ops.Workspace())


class TestSparsetools:
    def test_kernel_is_registered_under_its_scipy_name(self):
        # loaded from its file alone, it is the module `scipy.sparse` would import
        assert ops._sparsetools.__name__ == "scipy.sparse._sparsetools"
        assert sys.modules["scipy.sparse._sparsetools"] is ops._sparsetools
        assert callable(ops._sparsetools.csr_matvecs)

    @pytest.mark.parametrize("case", ["no_scipy", "no_extension"])
    def test_missing_extension_fails_naming_it(self, monkeypatch, tmp_path, case):
        # no numpy fallback: without the compiled file the import fails, and says which file
        found = None if case == "no_scipy" else SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        (tmp_path / "sparse").mkdir()
        monkeypatch.setattr("importlib.util.find_spec", lambda name: found)
        with pytest.raises(ImportError, match=r"scipy\.sparse\._sparsetools"):
            ops._load_sparsetools()


class TestSpmmNorm:
    def test_edgeless_graph_zero(self):
        adj = build_csr(4, [])
        s = degree_norms(adj)
        for transpose in (False, True):
            out = _spmm(adj, s, np.ones((4, 3)), transpose=transpose)
            np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_single_edge_permutes(self):
        adj = build_csr(2, [(0, 1)])
        h = np.eye(2)
        out = _spmm(adj, np.ones(2), h)
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle_random_graphs(self, seed, dense_oracle):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        mask = rng.random((n, n)) < 0.3
        edges = [(u, v) for u in range(n) for v in range(n) if u < v and mask[u, v]]
        adj = build_csr(n, edges)
        s = degree_norms(adj)
        h = rng.standard_normal((n, 5))
        dense = dense_oracle(adj) @ h
        np.testing.assert_allclose(_spmm(adj, s, h), dense, atol=1e-12)

    def test_path_graph_all_ones_column(self, dense_oracle):
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        h = np.ones((3, 1))
        dense = dense_oracle(adj) @ h
        np.testing.assert_allclose(_spmm(adj, s, h), dense, atol=1e-12)

    @staticmethod
    def _check_against_dense(dense_oracle, adj, h):
        """spmm_norm and its transpose against the dense S A S oracle."""
        s = degree_norms(adj)
        dense = dense_oracle(adj)
        np.testing.assert_allclose(_spmm(adj, s, h), dense @ h, atol=1e-12)
        np.testing.assert_allclose(_spmm(adj, s, h, transpose=True), dense.T @ h, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle_random_directed_graphs(self, seed, dense_oracle):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 25))
        mask = rng.random((n, n)) < 0.25
        edges = [(u, v) for u in range(n) for v in range(n) if mask[u, v]]  # self-loops too
        adj = build_csr(n, edges, symmetrize=False)
        self._check_against_dense(dense_oracle, adj, rng.standard_normal((n, 4)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_star_graph(self, symmetrize, dense_oracle):
        n = 50
        adj = build_csr(n, [(0, v) for v in range(1, n)], symmetrize=symmetrize)
        self._check_against_dense(dense_oracle, adj, np.random.default_rng(1).standard_normal((n, 3)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_isolated_nodes(self, symmetrize, dense_oracle):
        # nodes 0, 3 and 7 touch no edge
        edges = [(1, 2), (2, 4), (4, 1), (5, 6), (6, 8), (8, 5), (2, 6)]
        adj = build_csr(9, edges, symmetrize=symmetrize)
        h = np.random.default_rng(2).standard_normal((9, 5))
        self._check_against_dense(dense_oracle, adj, h)
        for v in (0, 3, 7):
            assert not _spmm(adj, degree_norms(adj), h)[v].any()

    def test_rows_sum_in_csr_order(self, neighbors):
        # each row is a left-to-right sum of its terms, in CSR order
        rng = np.random.default_rng(3)
        edges = [(u, v) for u in range(30) for v in range(30) if u != v and rng.random() < 0.3]
        adj = build_csr(30, edges, symmetrize=False)
        s = degree_norms(adj).astype(np.float32)
        h = rng.standard_normal((30, 6)).astype(np.float32)
        scaled = h * s[:, None]
        expect = np.zeros_like(h)
        for v in range(30):
            for u in neighbors(adj, v):
                expect[v] += scaled[u]
        expect *= s[:, None]
        np.testing.assert_array_equal(_spmm(adj, s, h), expect)

    @pytest.mark.parametrize("cols", [1, 2, 7])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_rows_sum_in_csr_order_with_a_hub(self, neighbors, transpose, cols):
        # a directed graph where node 0 is a hub in A and in Aᵀ: every row,
        # the hub's too, at any width, is a left-to-right sum in CSR order
        n = 1100
        rng = np.random.default_rng(5)
        hub = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
        adj = build_csr(n, np.concatenate([rng.integers(0, n, size=(8 * n, 2)), hub]), symmetrize=False)
        s = degree_norms(adj).astype(np.float32)
        h = rng.standard_normal((n, cols)).astype(np.float32)
        scaled = h * s[:, None]
        expect = np.zeros_like(h)
        for v in range(n):  # row u of Aᵀ lists, ascending, the rows v of A that store u
            for u in neighbors(adj, v):
                if transpose:
                    expect[u] += scaled[v]
                else:
                    expect[v] += scaled[u]
        expect *= s[:, None]
        out = _spmm(adj, s, h, transpose=transpose)
        np.testing.assert_array_equal(out.view(np.uint32), expect.view(np.uint32))

    def test_negative_zero_terms_sum_to_positive_zero(self):
        # the sequential sum starts from +0.0, so -0.0 + -0.0 + ... gives +0.0
        adj = build_csr(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], symmetrize=False)
        h = np.full((5, 3), -0.0)
        out = _spmm(adj, degree_norms(adj), h)
        np.testing.assert_array_equal(out.view(np.uint64), np.zeros((5, 3), np.uint64))

    @pytest.mark.parametrize("case", ["out_is_h", "column_block", "one_column", "transpose_directed"])
    def test_sums_into_given_output(self, case, dense_oracle):
        # the rows sum straight into `out` (a strided `out`, which the
        # kernel would write through a copy, keeps the workspace's
        # accumulator): the bits of a fresh output, the oracle's values
        rng = np.random.default_rng(12)
        n, cols = 300, 1 if case == "one_column" else 5
        directed = case == "transpose_directed"
        adj = build_csr(n, rng.integers(0, n, size=(6 * n, 2)), symmetrize=not directed)
        s = degree_norms(adj).astype(np.float32)
        x = rng.standard_normal((n, cols)).astype(np.float32)
        fresh = ops.spmm_norm(adj, s, x, directed, out=np.zeros_like(x), ws=ops.Workspace())
        h = x.copy()
        if case == "out_is_h":
            out = h
        elif case == "column_block":  # as a device's block of the representation
            out = np.full((n, 3 * cols), np.nan, dtype=np.float32)[:, cols : 2 * cols]
        else:
            out = np.full_like(h, np.nan)
        ws = ops.Workspace()
        assert ops.spmm_norm(adj, s, h, directed, out=out, ws=ws) is out
        assert out.tobytes() == fresh.tobytes() == _spmm(adj, s, x, directed).tobytes()
        dense = dense_oracle(adj)
        np.testing.assert_allclose(out, (dense.T if directed else dense) @ x, rtol=1e-5, atol=1e-6)
        assert ("spmm.acc" in ws._memory) == (case == "column_block")

    @staticmethod
    def _part_graph(case):
        """300-node graphs for the row-part tests."""
        n, rng = 300, np.random.default_rng(13)
        if case == "directed":
            return build_csr(n, rng.integers(0, n, size=(6 * n, 2)), symmetrize=False)
        if case == "star":
            return build_csr(n, [(0, v) for v in range(1, n)])
        if case == "isolated":  # every third node touches no edge, the last node among them
            nodes = [v for v in range(n) if v % 3 != 2]
            return build_csr(n, [(u, v) for u in nodes for v in nodes if u < v and rng.random() < 0.05])
        return build_csr(n, [])

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("cols", [1, 5])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("case", ["directed", "star", "isolated", "edgeless"])
    def test_row_parts_equal_the_whole(self, monkeypatch, case, transpose, cols, parts):
        # with floors of 1 every pass splits: the rows in parts of near-equal
        # stored entries, and the scaling in node-row ranges; also into the
        # input itself; a one-thread pool runs whole
        adj = self._part_graph(case)
        n = adj.num_nodes
        s = degree_norms(adj).astype(np.float32)
        x = np.random.default_rng(14).standard_normal((n, cols)).astype(np.float32)
        whole = _spmm(adj, s, x, transpose)
        monkeypatch.setattr(ops, "MIN_TASK_WORK", 1)
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        spans, spmm_rows = [], ops._spmm_rows
        monkeypatch.setattr(ops, "_spmm_rows", lambda lo, hi, *a: spans.append((lo, hi)) or spmm_rows(lo, hi, *a))
        for threads in (1, parts):
            with ops.Pool(threads) as pool:
                spans.clear()
                got = ops.spmm_norm(adj, s, x, transpose, out=np.full_like(x, np.nan), ws=ops.Workspace(), pool=pool)
                cut = sorted(spans)
                h = x.copy()
                into_h = ops.spmm_norm(adj, s, h, transpose, out=h, ws=ops.Workspace(), pool=pool)
            assert got.tobytes() == whole.tobytes() == into_h.tobytes()
            # the parts cover the rows in order
            assert [lo for lo, _ in cut] == [0] + [hi for _, hi in cut[:-1]] and cut[-1][1] == n
            if case == "directed":
                assert len(cut) == threads

    @staticmethod
    def _cut(monkeypatch, adj, threads, transpose=False):
        """The row spans `spmm_norm` sums in, one part each, on a pool of
        `threads` with every pass split."""
        monkeypatch.setattr(ops, "MIN_TASK_WORK", 1)
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        spans, spmm_rows = [], ops._spmm_rows
        monkeypatch.setattr(ops, "_spmm_rows", lambda lo, hi, *a: spans.append((lo, hi)) or spmm_rows(lo, hi, *a))
        x = np.ones((adj.num_nodes, 2), dtype=np.float32)
        with ops.Pool(threads) as pool:
            ops.spmm_norm(adj, degree_norms(adj).astype(np.float32), x, transpose, out=np.empty_like(x),
                          ws=ops.Workspace(), pool=pool)
        return sorted(spans)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_row_parts_hold_near_equal_entries(self, monkeypatch, transpose, parts):
        # part i starts at the first row whose stored entries before it reach
        # i/k of them all, so it misses the ideal by less than one row
        adj = self._part_graph("directed")
        offsets = adj.row_offsets_t if transpose else adj.row_offsets
        cut = self._cut(monkeypatch, adj, parts, transpose)
        assert len(cut) == parts
        nnz, widest = offsets[-1], np.diff(offsets).max()
        for i, (lo, _) in enumerate(cut[1:], 1):
            assert 0 <= offsets[lo] - nnz * i / parts < widest

    @pytest.mark.parametrize("parts", [2, 3])
    def test_star_hub_is_a_part_of_its_own(self, monkeypatch, parts):
        # the hub's row holds half of the 598 stored entries (row offsets 0,
        # 299, 300, ...), so it is a part alone; at 3 parts the cut inside it
        # falls on row 1, and the one at two thirds on row 101 (offset 399)
        adj = self._part_graph("star")
        n = adj.num_nodes
        leaves = [(1, n)] if parts == 2 else [(1, 101), (101, n)]
        assert self._cut(monkeypatch, adj, parts) == [(0, 1)] + leaves

    def test_output_of_another_dtype_sums_in_the_accumulator(self):
        # the kernel would write a float64 `out` through a float32 copy and
        # drop it; the sum goes into the accumulator, then, scaled, into `out`
        adj = self._part_graph("directed")
        s = degree_norms(adj).astype(np.float32)
        x = np.random.default_rng(16).standard_normal((adj.num_nodes, 5)).astype(np.float32)
        ws, out = ops.Workspace(), np.full(x.shape, np.nan)
        assert ops.spmm_norm(adj, s, x, out=out, ws=ws) is out
        assert out.tobytes() == _spmm(adj, s, x).astype(np.float64).tobytes()
        assert ws._memory["spmm.acc"].size == x.nbytes

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_input_in_its_own_scratch(self, monkeypatch, cols, transpose, split):
        # an input the caller wrote into the workspace's scratch
        # (`ops.scratch`) is read there, where it lies, and left as it was:
        # the bits of a separate input, and no other memory in the workspace
        adj = self._part_graph("directed")
        n = adj.num_nodes
        s = degree_norms(adj).astype(np.float32)
        x = np.random.default_rng(15).standard_normal((n, cols)).astype(np.float32)
        want = _spmm(adj, s, x, transpose)
        if split:  # every pass splits, in two parts on two threads
            monkeypatch.setattr(ops, "MIN_TASK_WORK", 1)
            monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        with ops.Pool(2) if split else ops.INLINE as pool:
            ws = ops.Workspace()
            h = ops.scratch(ws, n, cols, np.float32)
            h[...] = x
            memory = ws._memory[ops.SCRATCH]
            got = ops.spmm_norm(adj, s, h, transpose, out=np.full_like(x, np.nan), ws=ws, pool=pool)
        assert got.tobytes() == want.tobytes() and h.tobytes() == x.tobytes()
        assert ws._memory[ops.SCRATCH] is memory and memory.size == n * cols * 4
        assert list(ws._memory) == [ops.SCRATCH]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["column_block", "out_is_h"])
    def test_strided_or_aliased_input_gives_the_bits_of_a_contiguous_copy(self, monkeypatch, case, threads):
        # a C-contiguous input that shares no memory with `out` is read where
        # it lies, and the workspace stays empty; a column block, or an input
        # that is `out` itself, is first copied into the scratch: the bits of
        # a contiguous copy, whole and in two parts
        adj = self._part_graph("directed")
        n, cols = adj.num_nodes, 5
        s = degree_norms(adj).astype(np.float32)
        wide = np.random.default_rng(18).standard_normal((n, 3 * cols)).astype(np.float32)
        x = np.ascontiguousarray(wide[:, cols : 2 * cols])
        monkeypatch.setattr(ops, "MIN_TASK_WORK", 1)
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        spans, spmm_rows = [], ops._spmm_rows
        monkeypatch.setattr(ops, "_spmm_rows", lambda lo, hi, *a: spans.append((lo, hi)) or spmm_rows(lo, hi, *a))
        with ops.Pool(threads) as pool:
            for transpose in (False, True):
                ws = ops.Workspace()
                want = ops.spmm_norm(adj, s, x, transpose, out=np.full_like(x, np.nan), ws=ws, pool=pool)
                assert ws._memory == {}
                spans.clear()
                h = wide[:, cols : 2 * cols] if case == "column_block" else x.copy()
                out = np.full_like(x, np.nan) if case == "column_block" else h
                assert ops.spmm_norm(adj, s, h, transpose, out=out, ws=ws, pool=pool) is out
                assert out.tobytes() == want.tobytes() and len(spans) == threads
                assert list(ws._memory) == [ops.SCRATCH] and ws._memory[ops.SCRATCH].size == x.nbytes
        assert wide[:, cols : 2 * cols].tobytes() == x.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_each_term_rounds_before_it_is_summed(self, transpose, dtype):
        # out[v] = s_v · (((0 + fl(s_u0·h_u0)) + fl(s_u1·h_u1)) + …) over row
        # v in CSR order, bit for bit: the term s_u·h_u, which the kernel
        # forms from the stored weight s_u, rounds on its own. On these
        # inputs a kernel that fused each multiply-add, rounding acc + s_u·h_u
        # once (modelled below from the exact sum), gives other bits, so a
        # scipy build that fuses fails here
        rng = np.random.default_rng(19)
        n, cols = 60, 3
        adj = build_csr(n, rng.integers(0, n, size=(8 * n, 2)), symmetrize=False)
        offsets, idx = (adj.row_offsets_t, adj.col_indices_t) if transpose else (adj.row_offsets, adj.col_indices)
        s = degree_norms(adj).astype(dtype)
        h = rng.standard_normal((n, cols)).astype(dtype)
        want, fused = np.zeros_like(h), np.zeros_like(h)
        for v in range(n):
            for k in range(cols):
                acc = exact = dtype(0.0)
                for u in idx[offsets[v] : offsets[v + 1]]:
                    acc = acc + s[u] * h[u, k]  # scalar ops of `dtype`: each rounds
                    exact = dtype(float(Fraction(float(exact)) + Fraction(float(s[u])) * Fraction(float(h[u, k]))))
                want[v, k], fused[v, k] = s[v] * acc, s[v] * exact
        assert (want != fused).sum() >= 10
        assert _spmm(adj, s, h, transpose).tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        adj = build_csr(3, [(0, 1)])
        with pytest.raises(ValueError):
            _spmm(adj, degree_norms(adj), np.ones((4, 2)))


class TestWorkspace:
    def test_rows_makes_room_for_a_later_whole_array(self):
        # a row subset's array asked with the whole row count sits at the
        # head of memory the whole array then takes, with nothing made again
        ws = ops.Workspace()
        part = ws.get("a", (2, 3), np.float32, rows=5)
        memory = ws._memory["a"]
        assert memory.size == 5 * 3 * 4 and part.shape == (2, 3)
        whole = ws.get("a", (5, 3), np.float32)
        assert ws._memory["a"] is memory and np.shares_memory(part, whole)
        assert ws.get("a", (2, 3), np.float32, rows=5) is part


class TestRestrictedSpmm:
    """`spmm_norm` over an adjacency restricted to rows R (`CsrAdjacency.restrict`)."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["directed", "star", "isolated"])
    def test_rows_and_columns_give_the_whole_operators_bits(self, case, dtype, threads, pooled):
        # Â[R, :] H is rows R of Â H, and (Â[R, :])ᵀ G is Âᵀ of the n-row
        # array that holds G at rows R and zeros elsewhere, bit for bit,
        # whole and in row parts on a split pool
        adj = TestSpmmNorm._part_graph(case)
        n, cols = adj.num_nodes, 7
        rng = np.random.default_rng(22)
        rows = np.flatnonzero(rng.random(n) < 0.5)
        r = adj.restrict(rows)
        s = degree_norms(adj).astype(dtype)
        h = rng.standard_normal((n, cols)).astype(dtype)
        g = rng.standard_normal((len(rows), cols)).astype(dtype)
        padded = np.zeros_like(h)
        padded[rows] = g
        with ops.Pool(threads) as pool:
            got = ops.spmm_norm(r, s, h, out=np.full_like(g, np.nan), ws=ops.Workspace(), pool=pool)
            got_t = ops.spmm_norm(r, s, g, True, out=np.full_like(h, np.nan), ws=ops.Workspace(), pool=pool)
        assert got.tobytes() == _spmm(adj, s, h)[rows].tobytes()
        assert got_t.tobytes() == _spmm(adj, s, padded, True).tobytes()
        assert bool(pooled) == (threads > 1)

    def test_rejects_an_input_of_the_wrong_height(self):
        adj = build_csr(5, [(0, 1), (1, 2), (3, 4)])
        r, s = adj.restrict([1, 3]), degree_norms(adj)
        with pytest.raises(ValueError, match="2 columns"):
            ops.spmm_norm(r, s, np.ones((5, 2)), True, out=np.empty((5, 2)), ws=ops.Workspace())
        with pytest.raises(ValueError, match="5 columns"):
            ops.spmm_norm(r, s, np.ones((2, 2)), out=np.empty((2, 2)), ws=ops.Workspace())


class TestGlorot:
    def test_bound(self):
        m = ops.glorot_init(np.empty((20, 30)), ops.rng_stream(1, 0))
        assert np.abs(m).max() <= np.sqrt(6.0 / 50)

    def test_large_sample_mean_near_zero(self):
        m = ops.glorot_init(np.empty((512, 512)), ops.rng_stream(2, 0))
        a = np.sqrt(6.0 / 1024)
        # uniform std is a/sqrt(3); allow 3 sigma of the sample mean
        assert abs(m.mean()) < 3 * a / np.sqrt(3 * 512 * 512)

    def test_same_stream_same_matrix(self):
        a = ops.glorot_init(np.empty((8, 8)), ops.rng_stream(3, 4))
        b = ops.glorot_init(np.empty((8, 8)), ops.rng_stream(3, 4))
        np.testing.assert_array_equal(a, b)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ops.glorot_init(np.empty((0, 4)), ops.rng_stream(0, 0))


def _relu_backward(a, d_out):
    """ReLU's gradient as the layers form it: d_out times the bool mask
    a > 0 their forward records; the subgradient at 0 is 0."""
    return np.multiply(d_out, a > 0)


class TestRelu:
    def test_all_negative(self):
        np.testing.assert_array_equal(ops.relu(-np.ones((2, 2))), np.zeros((2, 2)))

    def test_positive_passes_gradient(self):
        a = np.ones((2, 3))
        d = np.full((2, 3), 2.0)
        np.testing.assert_array_equal(ops.relu(a), a)
        np.testing.assert_array_equal(_relu_backward(a, d), d)

    def test_zero_input_zero_gradient(self):
        a = np.zeros((2, 2))
        assert ops.relu(a).sum() == 0
        assert _relu_backward(a, np.ones((2, 2))).sum() == 0

    def test_matches_finite_differences(self):
        rng = ops.rng_stream(5, 0)
        a = rng.standard_normal((6, 4))
        d_out = rng.standard_normal((6, 4))
        h = 1e-6
        fd = ((ops.relu(a + h) - ops.relu(a - h)) / (2 * h)) * d_out
        ana = _relu_backward(a, d_out)
        # away from the kink the subgradient equals the difference quotient
        away = np.abs(a) > 1e-4
        np.testing.assert_allclose(ana[away], fd[away], rtol=1e-5)


class TestDropout:
    def test_rate_zero_identity(self):
        a = np.ones((3, 3))
        out, keep, scale = ops.dropout(a, 0.0, True, ops.rng_stream(0, 0))
        assert out is a and keep is None and scale is None

    def test_eval_identity(self):
        a = np.ones((3, 3))
        out, keep, scale = ops.dropout(a, 0.9, False, ops.rng_stream(0, 0))
        assert out is a and keep is None and scale is None

    def test_inverted_scaling_preserves_mean(self):
        a = np.ones((400, 400))
        out, _, _ = ops.dropout(a, 0.5, True, ops.rng_stream(7, 0))
        assert abs(out.mean() - 1.0) < 0.01

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ops.dropout(np.ones((2, 2)), 1.0, True, ops.rng_stream(0, 0))

    def test_mask_reusable_for_backward(self):
        rng = ops.rng_stream(8, 0)
        a = np.ones((10, 10))
        out, keep, scale = ops.dropout(a.copy(), 0.3, True, rng)
        assert keep.dtype == bool and np.ndim(scale) == 0
        np.testing.assert_array_equal(out, ops.apply_mask(a, keep, scale))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_matches_float_mask_bitwise(self, dtype):
        # the float mask keep / (1 - rate) gives the same bits, zero signs too
        rng = np.random.default_rng(9)
        a = rng.standard_normal((50, 40)).astype(dtype)
        a[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # inf * 0
            out, keep, scale = ops.dropout(a.copy(), 0.3, True, ops.rng_stream(9, 0))
            float_mask = keep.astype(dtype) / dtype(1.0 - 0.3)
            expect = a * float_mask
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.view(f"u{a.itemsize}"), expect.view(f"u{a.itemsize}"))
        d = rng.standard_normal(a.shape).astype(dtype)
        back = ops.apply_mask(d, keep, scale)
        np.testing.assert_array_equal(back.view(f"u{a.itemsize}"), (d * float_mask).view(f"u{a.itemsize}"))

    def test_writes_into_its_input_and_returns_it(self):
        a = np.full((30, 7), 2.0, np.float32)
        out, keep, scale = ops.dropout(a, 0.5, True, ops.rng_stream(4, 0))
        assert out is a
        np.testing.assert_array_equal(a, np.where(keep, np.float32(4.0), np.float32(0.0)))

    @staticmethod
    def _reference_mask(raw, size, rate):
        # field 4k+j of the stream is bits [16j, 16j+16) of raw draw k; as a
        # uniform draw u = field / 2**16 in [0, 1) it is kept iff u >= rate
        shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
        fields = ((raw[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)[:size]
        return fields / 2.0**16 >= rate

    @pytest.mark.parametrize("rate", [1e-17, 0.1, 1 / 3, 0.5, 0.7, 0.999999])
    @pytest.mark.parametrize(
        "shape",
        # sizes that are not multiples of 4; the last two span 2.25 and 1.34
        # chunks of raw draws
        [(1, 1), (7, 3), (64, 129), (5,), (9, ops._DROPOUT_CHUNK + 1), (301, 2333)],
    )
    def test_raw_draw_matches_uniform_draw(self, rate, shape):
        rng, ref = ops.rng_stream(21, 3), ops.rng_stream(21, 3).bit_generator
        _, keep, _ = ops.dropout(np.ones(shape, np.float32), rate, True, rng)
        size = int(np.prod(shape))
        raw = ref.random_raw(-(-size // 4))
        np.testing.assert_array_equal(keep.reshape(-1), self._reference_mask(raw, size, rate))

    @pytest.mark.parametrize("size", [1, 3, 4, 5, 130, 1 << 10])
    def test_stream_sits_after_a_quarter_draw_per_element(self, size):
        rng, ref = ops.rng_stream(5, 1), ops.rng_stream(5, 1)
        ops.dropout(np.ones(size), 0.3, True, rng)
        ref.bit_generator.random_raw(-(-size // 4))
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 17])
    def test_mask_does_not_depend_on_chunk_size(self, chunk, monkeypatch):
        shape, rate = (37, 29), 0.3
        _, expect, _ = ops.dropout(np.ones(shape), rate, True, ops.rng_stream(6, 2))
        monkeypatch.setattr(ops, "_DROPOUT_CHUNK", chunk)
        rng = ops.rng_stream(6, 2)
        _, keep, _ = ops.dropout(np.ones(shape), rate, True, rng)
        np.testing.assert_array_equal(keep, expect)
        ref = ops.rng_stream(6, 2).bit_generator
        ref.random_raw(-(-keep.size // 4))
        assert rng.bit_generator.random_raw() == ref.random_raw()

    def test_rate_half_threshold_is_two_to_the_fifteen(self):
        class Words:  # a stream that hands out chosen raw draws
            def __init__(self, words):
                self.words = np.array(words, dtype=np.uint64)

            def random_raw(self, size):
                out, self.words = self.words[:size], self.words[size:]
                return out

        def fields(*f):  # four 16-bit fields, low bits first
            return sum(int(v) << (16 * j) for j, v in enumerate(f))

        rng = SimpleNamespace(bit_generator=Words([fields(0x7FFF, 0x8000, 0, 0xFFFF),
                                                   fields(0x8001, 1, 0x7FFE, 0x8000)]))
        _, keep, _ = ops.dropout(np.ones(7), 0.5, True, rng)
        np.testing.assert_array_equal(keep, [False, True, False, True, True, False, False])
        assert rng.bit_generator.words.size == 0

    @pytest.mark.parametrize("rate", [1e-6, 0.1, 0.5, 0.9])
    def test_keep_fraction_within_binomial_bound(self, rate):
        n = 1 << 18
        _, keep, _ = ops.dropout(np.ones(n), rate, True, ops.rng_stream(13, 0))
        p = 1 - math.ceil(rate * 2**16) / 2**16
        assert 0 <= (1 - rate) - p < 2**-16
        assert abs(int(keep.sum()) - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1

    @pytest.mark.parametrize("rate", [1 - 2**-17, 0.99999, math.nextafter(1.0, 0.0)])
    def test_rate_near_one_drops_everything(self, rate):
        # ceil(rate * 2**16) is 2**16 here, one past the largest 16-bit field
        rng, ref = ops.rng_stream(2, 0), ops.rng_stream(2, 0).bit_generator
        a = np.ones((5, 3), np.float32)
        out, keep, _ = ops.dropout(a, rate, True, rng)
        assert not keep.any() and not out.any()
        ref.random_raw(4)  # ceil(15 / 4)
        assert rng.bit_generator.random_raw() == ref.random_raw()


    @pytest.mark.parametrize("drawn", [0, 1, 3, 6])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 7, 8, 9, 17, 40])
    def test_skip_moves_the_stream_as_raw_draws_do(self, drawn, k):
        # from every buffer position, and keeping a buffered 32-bit half
        rng, ref = ops.rng_stream(8, 4), ops.rng_stream(8, 4)
        for g in (rng, ref):
            g.bit_generator.random_raw(drawn)
            g.integers(0, 1 << 32, dtype=np.uint32)  # leaves the other 32-bit half buffered
        ops._skip(rng.bit_generator, k)
        ref.bit_generator.random_raw(k)
        assert rng.integers(0, 1 << 32, dtype=np.uint32) == ref.integers(0, 1 << 32, dtype=np.uint32)
        np.testing.assert_array_equal(rng.bit_generator.random_raw(9), ref.bit_generator.random_raw(9))

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 - 2**-17])
    @pytest.mark.parametrize("drawn", [0, 1, 3, 6])
    @pytest.mark.parametrize(
        "shape,parts,offsets",
        # the fields where each part starts: multiples of 16, multiples of 4
        # but not of 16, and neither
        [((64, 16), 2, [0, 512]), ((50, 8), 2, [0, 200]), ((50, 7), 3, [0, 112, 231]), ((33, 5), 4, [0, 40, 80, 120])],
    )
    def test_split_mask_equals_the_whole(self, monkeypatch, shape, parts, offsets, drawn, rate):
        # a stream with raw draws left in its buffer from an earlier call
        a = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
        rng, ref = ops.rng_stream(5, 1), ops.rng_stream(5, 1)
        for g in (rng, ref):
            g.bit_generator.random_raw(drawn)
        want, want_keep, _ = ops.dropout(a.copy(), rate, True, ref)
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        pool, calls = _counting(parts)
        got, keep, _ = ops.dropout(a.copy(), rate, True, rng, pool=pool)
        assert [[lo * shape[1] for lo, _ in c] for c in calls] == [offsets]
        np.testing.assert_array_equal(keep, want_keep)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(rng.bit_generator.random_raw(9), ref.bit_generator.random_raw(9))
        assert rng.random() == ref.random()

    def test_split_mask_on_pool_threads(self, monkeypatch):
        # parts of 2.3 chunks of raw draws each, drawn at once
        shape = (3, 3 * ops._DROPOUT_CHUNK + 5)
        a = np.ones(shape, np.float32)
        ref = ops.rng_stream(7, 0)
        want, want_keep, _ = ops.dropout(a.copy(), 0.4, True, ref)
        rng = ops.rng_stream(7, 0)
        with ops.Pool(3) as pool:
            got, keep, _ = ops.dropout(a.copy(), 0.4, True, rng, pool=pool)
        assert len(pool.ranges(*shape)) == 3
        np.testing.assert_array_equal(keep, want_keep)
        np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 - 2**-17])
    @pytest.mark.parametrize("drawn", [0, 3])
    @pytest.mark.parametrize("shape", [(50, 7), (64, 16), (40, 3 * ops._DROPOUT_CHUNK // 16 + 5)])
    def test_row_subset_draws_the_whole_mask_at_its_rows(self, shape, drawn, rate, threads, pooled, monkeypatch):
        # rows R of an n-row array get the whole mask's rows R, and the
        # stream moves past the whole mask, on one thread and in parts
        n, width = shape
        rows = np.flatnonzero(np.random.default_rng(23).random(n) < 0.4)
        a = np.random.default_rng(24).standard_normal(shape).astype(np.float32)
        rng, ref = ops.rng_stream(5, 2), ops.rng_stream(5, 2)
        for g in (rng, ref):
            g.bit_generator.random_raw(drawn)
        want, want_keep, _ = ops.dropout(a.copy(), rate, True, ref)
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
        with ops.Pool(threads) as pool:
            got, keep, _ = ops.dropout(a[rows], rate, True, rng, pool=pool, rows=rows, num_rows=n)
        np.testing.assert_array_equal(keep, want_keep[rows])
        assert got.tobytes() == want[rows].tobytes()
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
        assert bool(pooled) == (threads > 1)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_ln_c(self):
        for c in (2, 5, 9):
            loss, _ = ops.softmax_cross_entropy(np.zeros((4, c)), np.zeros(4, dtype=np.int64))
            assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_confident_row(self):
        loss, d = ops.softmax_cross_entropy(
            np.array([[10.0, -10.0]]), np.array([0], dtype=np.int64)
        )
        assert loss == pytest.approx(2.061e-9, abs=1e-9)
        assert np.abs(d).max() < 1e-8

    def test_shift_invariance(self):
        rng = ops.rng_stream(9, 0)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        l0, d0 = ops.softmax_cross_entropy(logits, labels)
        l1, d1 = ops.softmax_cross_entropy(logits + 100.0, labels)
        assert l0 == pytest.approx(l1, rel=1e-12)
        np.testing.assert_allclose(d0, d1, atol=1e-12)

    def test_rows_sum_to_one_and_loss_nonnegative(self):
        rng = ops.rng_stream(10, 0)
        logits = rng.standard_normal((8, 6)) * 10
        labels = rng.integers(0, 6, 8)
        loss, d = ops.softmax_cross_entropy(logits, labels)
        assert loss >= 0
        probs = ops.softmax_rows(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = ops.rng_stream(11, 0)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, 4)
        _, ana = ops.softmax_cross_entropy(logits, labels)
        h = 1e-6
        fd = np.zeros_like(logits)
        for i in range(4):
            for j in range(3):
                pert = logits.copy()
                pert[i, j] += h
                lp, _ = ops.softmax_cross_entropy(pert, labels)
                pert[i, j] -= 2 * h
                lm, _ = ops.softmax_cross_entropy(pert, labels)
                fd[i, j] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(ana, fd, rtol=1e-5, atol=1e-10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_only_form_has_the_same_bits(self, dtype):
        rng = ops.rng_stream(12, 0)
        logits = (rng.standard_normal((50, 7)) * 4).astype(dtype)
        labels = rng.integers(0, 7, 50)
        assert ops.cross_entropy(logits, labels) == ops.softmax_cross_entropy(logits, labels)[0]
        with pytest.raises(ValueError):
            ops.cross_entropy(logits, labels + 7)


def _counting(parts):
    """A pool of `parts` threads whose run records the items of each call
    and runs them in the calling thread."""
    calls = []
    pool = ops.Pool(parts)

    def run(fn, items):
        calls.append(list(items))
        return [fn(item) for item in items]

    pool.run = run
    return pool, calls


def _f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


class TestBlocks:
    def test_ranges_cover_the_length(self, monkeypatch):
        monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 2)
        assert ops.Pool(3).ranges(10) == [(0, 3), (3, 6), (6, 10)]
        assert ops.Pool(3).ranges(5) == [(0, 2), (2, 5)]  # a third range would be under 2
        assert ops.Pool(3).ranges(3) == [(0, 3)]
        assert ops.INLINE.ranges(10) == [(0, 10)]

    def test_row_ranges_hold_the_element_floor(self):
        rows = ops.MIN_PASS_ELEMENTS // 64
        assert ops.Pool(4).ranges(3 * rows, 64) == [(0, rows), (rows, 2 * rows), (2 * rows, 3 * rows)]
        assert ops.Pool(4).ranges(2 * rows - 1, 64) == [(0, 2 * rows - 1)]
        # an Adam step's flat buffer: ranges of MIN_PASS_ELEMENTS elements
        assert ops.Pool(4).ranges(2 * ops.MIN_PASS_ELEMENTS) == [(0, rows * 64), (rows * 64, 2 * rows * 64)]

    def test_small_or_narrow_products_stay_whole(self, monkeypatch):
        # a product below the work floor, and, with a floor of 1, one whose
        # blocks would be under SPLIT_MIN_WIDTH rows and columns (a
        # one-column block would take BLAS's matrix-vector path), a float64
        # one, or one on a one-thread pool; a product is cut along its
        # output's longer side
        rng = np.random.default_rng(0)
        a, small, square, narrow = _f32(rng, 400, 64), _f32(rng, 24, 64), _f32(rng, 64, 64), _f32(rng, 64, 2)
        cases = [(ops.MIN_TASK_WORK, 2, a, square, []), (1, 2, small, _f32(rng, 64, 24), []),
                 (1, 2, a, square, [2]), (1, 2, a, narrow, [2]), (1, 2, narrow.T, a.T, [2]), (1, 1, a, square, []),
                 (1, 2, a.astype(np.float64), square.astype(np.float64), [])]
        for floor, threads, lhs, rhs, blocks in cases:
            monkeypatch.setattr(ops, "MIN_TASK_WORK", floor)
            pool, calls = _counting(threads)
            out = pool.matmul(lhs, rhs, out=np.empty((lhs.shape[0], rhs.shape[1]), lhs.dtype))
            assert [len(c) for c in calls] == blocks
            np.testing.assert_array_equal(out, lhs @ rhs)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_split_products_equal_the_whole_at_one_blas_thread(self, parts):
        # each product the engine splits, at the benchmark's shapes: the
        # fusion MLP of Cora-sized features (2708 x 1433, hidden 1433, output
        # 718), the classifier's first layer over 50k nodes (128 -> 128), and
        # the p = 1 baselines' layers: 32 -> 128 -> 128 over 50k nodes, and
        # 1433 -> 256 -> 256 over 2708
        rng = np.random.default_rng(1)
        x, a, d_z, d_a = _f32(rng, 2708, 1433), _f32(rng, 2708, 1433), _f32(rng, 2708, 718), _f32(rng, 2708, 1433)
        w0, w1 = _f32(rng, 1433, 1433), _f32(rng, 1433, 718)
        rep, d_h, cls_w0 = _f32(rng, 50_000, 128), _f32(rng, 50_000, 128), _f32(rng, 128, 128)
        feat, w_in = _f32(rng, 50_000, 32), _f32(rng, 32, 128)
        h_w, d_w, w_h, w_hh = _f32(rng, 2708, 256), _f32(rng, 2708, 256), _f32(rng, 1433, 256), _f32(rng, 256, 256)
        # (lhs, rhs, whether the output is cut into row blocks): its longer side
        products = [
            (x, w0, True), (a, w1, True), (a.T, d_z, True), (x.T, d_a, True), (d_z, w1.T, True),
            (rep, cls_w0, True), (rep.T, d_h, True), (d_h, cls_w0.T, True),
            (feat, w_in, True), (feat.T, d_h, False),
            (x, w_h, True), (x.T, d_w, True), (h_w, w_hh, True), (h_w.T, d_w, True), (d_w, w_hh.T, True),
        ]
        with blas.limit_threads(1):
            for lhs, rhs, rows in products:
                pool, calls = _counting(parts)
                shape = (lhs.shape[0], rhs.shape[1])
                got = pool.matmul(lhs, rhs, out=np.empty(shape, np.float32))
                assert [len(c) for c in calls] == [parts]
                assert calls[0][0] == (0, shape[0 if rows else 1] // parts)
                np.testing.assert_array_equal(got, np.matmul(lhs, rhs))


def test_parts_keep_the_whole_bits_under_thread_switching(monkeypatch):
    # more threads than cores, switching every microsecond: the parts of an
    # SpMM and of a dropout mask still write exactly the whole's bits
    monkeypatch.setattr(ops, "MIN_TASK_WORK", 1)
    monkeypatch.setattr(ops, "MIN_PASS_ELEMENTS", 1)
    rng = np.random.default_rng(15)
    adj = build_csr(400, rng.integers(0, 400, size=(3000, 2)), symmetrize=False)
    s = degree_norms(adj).astype(np.float32)
    h = rng.standard_normal((400, 24)).astype(np.float32)
    spmm = _spmm(adj, s, h, True)
    drop, keep, _ = ops.dropout(h.copy(), 0.3, True, ops.rng_stream(3, 0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ops.Pool(4) as pool:
            ws = ops.Workspace()
            for _ in range(20):
                out = ops.spmm_norm(adj, s, h, True, out=np.empty_like(h), ws=ws, pool=pool)
                assert out.tobytes() == spmm.tobytes()
                got, got_keep, _ = ops.dropout(h.copy(), 0.3, True, ops.rng_stream(3, 0), pool=pool)
                assert got.tobytes() == drop.tobytes() and np.array_equal(got_keep, keep)
    finally:
        sys.setswitchinterval(interval)


class TestDeterminism:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_stream_reproducible(self, seed, stream):
        a = ops.rng_stream(seed, stream).random(16)
        b = ops.rng_stream(seed, stream).random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = ops.rng_stream(1, 0).random(16)
        b = ops.rng_stream(1, 1).random(16)
        assert not np.array_equal(a, b)

    def test_op_sequence_bit_identical(self):
        def pipeline():
            rng = ops.rng_stream(42, 3)
            w = ops.glorot_init(np.empty((12, 8), np.float32), rng)
            x = rng.standard_normal((20, 12)).astype(np.float32)
            y, _, _ = ops.dropout(ops.relu(x @ w), 0.4, True, rng)
            return y

        np.testing.assert_array_equal(pipeline(), pipeline())
