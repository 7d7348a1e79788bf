"""Normalization, whitening, the Procrustes solver and similarity blocks."""

import tracemalloc

import numpy as np
import pytest

from orthomap.corpus_io import EmbeddingMatrix, SparseDictionary, Vocabulary
from orthomap import numerics
from orthomap.errors import ConvergenceError
from orthomap.numerics import (
    compute_whitening,
    normalize_embeddings,
    normalize_rows,
    row_norms,
    weighted_cross_svd,
)
from oracles import normalize_rows as reference_normalize_rows
from oracles import random_orthogonal, similarity_block


def emb(data, prefix="w"):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(Vocabulary([f"{prefix}{i}" for i in range(len(data))]), data)


def identity_dictionary(n, weight=1):
    return SparseDictionary(np.arange(n), np.arange(n), np.full(n, weight))


def procrustes_maps(src, tgt, dictionary):
    """The orthogonal map pair of the loop: (U, V) of the cross-covariance SVD."""
    u, _, vt = weighted_cross_svd(src.data, tgt.data, dictionary)
    return u, vt.T


class TestNormalize:
    def test_center_then_unit(self):
        out = normalize_embeddings(emb([[1, 0], [3, 0]]))
        np.testing.assert_allclose(out.data, [[-1, 0], [1, 0]])

    def test_unit_norm_without_centering(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_identical_rows_become_zero_rows(self):
        out = normalize_embeddings(emb([[2, 5], [2, 5]]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_row_norms_and_column_means(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 7)) * 3 + 1
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(centered.mean(axis=0), 0, atol=1e-9)
        out = normalize_embeddings(emb(data))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1, atol=1e-9)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def norm_cases():
    """Arrays laid out as the callers pass them: whole matrices, the column
    slice strip_extension renormalizes, and the reversed view the init's
    signatures normalize; with a zero row and very unequal row lengths."""
    rng = np.random.default_rng(5)
    data = rng.standard_normal((1500, 30)) * rng.uniform(1e-3, 1e3, (1500, 1))
    data[7] = 0.0
    sim = np.sort(rng.standard_normal((300, 700)), axis=1)
    return {
        "contiguous": data,
        "column-slice": data[:, :23],
        "reversed": sim[:, ::-1],
        "one-column": data[:, :1],
    }


class TestRowNorms:
    # Blocks of 8 bytes hold one row; the default blocks several; 1 GiB all.
    @pytest.mark.parametrize("block_bytes", [8, None, 1 << 30])
    @pytest.mark.parametrize("case", ["contiguous", "column-slice", "reversed", "one-column"])
    def test_bit_identical_to_linalg_norm(self, monkeypatch, case, block_bytes):
        matrix = norm_cases()[case]
        if block_bytes is not None:
            monkeypatch.setattr(numerics, "_NORM_BLOCK_BYTES", block_bytes)
        assert np.array_equal(bits(row_norms(matrix)), bits(np.linalg.norm(matrix, axis=1)))
        expected = bits(reference_normalize_rows(matrix))
        assert np.array_equal(bits(normalize_rows(matrix)), expected)
        inplace = np.array(matrix)
        assert normalize_rows(inplace, out=inplace) is inplace
        assert np.array_equal(bits(inplace), expected)

    def test_normalize_embeddings_matches_linalg_path(self):
        data = norm_cases()["contiguous"]
        centered = data - data.mean(axis=0)
        expected = bits(reference_normalize_rows(centered))
        assert np.array_equal(bits(normalize_embeddings(emb(data)).data), expected)

    def test_normalize_embeddings_leaves_argument_alone(self):
        data = norm_cases()["contiguous"]
        before = data.copy()
        original = emb(data)
        normalize_embeddings(original)
        assert np.array_equal(bits(original.data), bits(before))

    def test_norm_squares_stay_within_one_block(self):
        matrix = np.random.default_rng(6).standard_normal((20000, 30))
        tracemalloc.start()
        try:
            row_norms(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes // 4  # np.linalg.norm holds two full copies
        assert peak <= numerics._NORM_BLOCK_BYTES + 8 * len(matrix) + 4096


class TestWhitening:
    def test_already_white(self):
        rows = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]]) * np.sqrt(2)
        pair = compute_whitening(emb(rows))
        np.testing.assert_allclose(pair.forward, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(pair.inverse, np.eye(2), atol=1e-9)

    def test_diagonal_closed_form(self):
        rows = np.array([[2.0, 1], [2, -1], [-2, 1], [-2, -1]])
        pair = compute_whitening(emb(rows))
        np.testing.assert_allclose(pair.forward, np.diag([0.5, 1.0]), atol=1e-9)
        np.testing.assert_allclose(pair.inverse, np.diag([2.0, 1.0]), atol=1e-9)

    def test_covariance_becomes_identity(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((200, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.2])
        pair = compute_whitening(emb(rows))
        white = rows @ pair.forward
        np.testing.assert_allclose(white.T @ white / 200, np.eye(6), atol=1e-6)
        np.testing.assert_allclose(pair.forward @ pair.inverse, np.eye(6), atol=1e-6)

    def test_rank_deficient_identity_on_clean_subspace(self):
        # Rank-3 covariance in 5 dimensions, checked against an explicit
        # eigendecomposition of the second moment.
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((3, 5))
        rows = rng.standard_normal((50, 3)) @ basis
        pair = compute_whitening(emb(rows))
        cov = rows.T @ rows / 50
        eigvals, eigvecs = np.linalg.eigh(cov)
        clean = eigvecs[:, eigvals > pair.eigen_floor]
        product = pair.forward @ pair.inverse
        np.testing.assert_allclose(clean.T @ product @ clean, np.eye(clean.shape[1]), atol=1e-6)

    def test_rows_subset(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((30, 4))
        pair = compute_whitening(emb(rows), rows=slice(0, 10))
        sub = rows[:10]
        white = sub @ pair.forward
        np.testing.assert_allclose(white.T @ white / 10, np.eye(4), atol=1e-6)

    def test_all_zero_selection_rejected(self):
        with pytest.raises(ConvergenceError, match="non-zero row selection"):
            compute_whitening(emb(np.zeros((3, 2))))


class TestProcrustes:
    def test_exact_alignment_recovered(self):
        rng = np.random.default_rng(2)
        x = normalize_embeddings(emb(rng.standard_normal((6, 3)))).data
        rot = random_orthogonal(rng, 3)
        src = emb(x)
        tgt = emb(x @ rot, prefix="t")
        w_src, w_tgt = procrustes_maps(src, tgt, identity_dictionary(6))
        np.testing.assert_allclose(src.data @ w_src, tgt.data @ w_tgt, atol=1e-6)

    def test_self_alignment_objective(self):
        rng = np.random.default_rng(4)
        x = normalize_embeddings(emb(rng.standard_normal((5, 3)))).data
        src = emb(x)
        d = identity_dictionary(5)
        _, s, _ = weighted_cross_svd(src.data, src.data, d)
        assert s.sum() == pytest.approx(5.0, abs=1e-9)

    def test_orthogonality(self):
        rng = np.random.default_rng(9)
        src = emb(rng.standard_normal((8, 4)))
        tgt = emb(rng.standard_normal((8, 4)), prefix="t")
        w_src, w_tgt = procrustes_maps(src, tgt, identity_dictionary(8))
        np.testing.assert_allclose(w_src.T @ w_src, np.eye(4), atol=1e-6)
        np.testing.assert_allclose(w_tgt.T @ w_tgt, np.eye(4), atol=1e-6)

    def test_beats_random_orthogonal_pairs(self):
        rng = np.random.default_rng(13)
        src = emb(rng.standard_normal((6, 3)))
        tgt = emb(rng.standard_normal((6, 3)), prefix="t")
        d = SparseDictionary([0, 1, 2, 3], [1, 0, 3, 2], [2, 1, 1, 2])
        u, s, vt = weighted_cross_svd(src.data, tgt.data, d)
        m = (src.data[d.src] * d.weight[:, None]).T @ tgt.data[d.tgt]
        best = s.sum()
        assert best == pytest.approx(np.sum(m * (u @ vt.T.T)), abs=1e-9)
        for _ in range(1000):
            a = random_orthogonal(rng, 3)
            b = random_orthogonal(rng, 3)
            assert np.sum(m * (a @ b.T)) <= best + 1e-8

    def test_not_below_identity_maps(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            src = emb(rng.standard_normal((7, 4)))
            tgt = emb(rng.standard_normal((7, 4)), prefix="t")
            d = identity_dictionary(7)
            _, s, _ = weighted_cross_svd(src.data, tgt.data, d)
            m = src.data[d.src].T @ tgt.data[d.tgt]
            assert s.sum() >= np.trace(m) - 1e-8

    def test_objective_invariant_to_common_rotation(self):
        rng = np.random.default_rng(19)
        src = emb(rng.standard_normal((6, 4)))
        tgt = emb(rng.standard_normal((6, 4)), prefix="t")
        d = identity_dictionary(6)
        _, s1, _ = weighted_cross_svd(src.data, tgt.data, d)
        q = random_orthogonal(rng, 4)
        _, s2, _ = weighted_cross_svd(src.data @ q, tgt.data @ q, d)
        assert s1.sum() == pytest.approx(s2.sum(), abs=1e-8)

    def test_empty_dictionary_rejected(self):
        src = emb(np.eye(3))
        with pytest.raises(ValueError):
            procrustes_maps(src, src, SparseDictionary([], [], []))

    def test_before_svd_called_once_before_the_svd(self, monkeypatch):
        rng = np.random.default_rng(23)
        x, z = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        d = SparseDictionary([0, 2, 5, 8], [1, 2, 7, 0], [1, 2, 1, 2])
        expected = weighted_cross_svd(x, z, d)
        events = []
        svd = np.linalg.svd

        def recording_svd(m):
            events.append("svd")
            return svd(m)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        got = weighted_cross_svd(x, z, d, before_svd=lambda: events.append("before"))
        assert events == ["before", "svd"]
        for a, b in zip(got, expected):
            assert np.array_equal(bits(a), bits(b))


class TestSimilarityBlock:
    def test_identity_case(self):
        src = emb(np.eye(3))
        sim = similarity_block(src, np.eye(3), src, np.eye(3), (0, 3), (0, 3))
        np.testing.assert_array_equal(sim, np.eye(3))

    def test_single_cell_is_dot_product(self):
        rng = np.random.default_rng(21)
        src = emb(rng.standard_normal((4, 3)))
        tgt = emb(rng.standard_normal((5, 3)), prefix="t")
        w1 = random_orthogonal(rng, 3)
        w2 = random_orthogonal(rng, 3)
        cell = similarity_block(src, w1, tgt, w2, (1, 2), (3, 4))
        expected = (src.data[1] @ w1) @ (tgt.data[3] @ w2)
        assert cell.shape == (1, 1)
        assert cell[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_blocks_equal_whole_matrix(self):
        rng = np.random.default_rng(23)
        src = emb(rng.standard_normal((10, 4)))
        tgt = emb(rng.standard_normal((10, 4)), prefix="t")
        w1 = random_orthogonal(rng, 4)
        w2 = random_orthogonal(rng, 4)
        whole = (src.data @ w1) @ (tgt.data @ w2).T
        assembled = np.zeros((10, 10))
        for r in range(0, 10, 3):
            for c in range(0, 10, 4):
                r1, c1 = min(r + 3, 10), min(c + 4, 10)
                assembled[r:r1, c:c1] = similarity_block(src, w1, tgt, w2, (r, r1), (c, c1))
        np.testing.assert_allclose(assembled, whole, atol=1e-12)

    def test_out_of_range_rejected(self):
        src = emb(np.eye(3))
        with pytest.raises(ValueError):
            similarity_block(src, np.eye(3), src, np.eye(3), (0, 4), (0, 3))


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, None),
        ({"OMP_NUM_THREADS": "3"}, 3),
        ({"OMP_NUM_THREADS": "3", "GOTO_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "many"}, None),
    ],
    ids=["unset", "omp", "goto-before-omp", "openblas-first", "zero-skipped", "not-a-number"],
)
def test_blas_threads_read_in_openblas_order(monkeypatch, env, expected):
    for var in numerics._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert numerics.blas_threads() == expected
