"""Dictionary induction, the rescaling discount, scheduling, and full runs."""

import math

import numpy as np
import pytest

from orthomap import self_learning
from orthomap.corpus_io import EmbeddingMatrix, SparseDictionary, Vocabulary
from orthomap.errors import ConvergenceError
from orthomap.numerics import normalize_embeddings, weighted_cross_svd
from orthomap.ortho_extension import strip_extension
from orthomap.self_learning import (
    LoopConfig,
    SimilarityBoost,
    TrainState,
    csls_adjust,
    csls_means,
    induce_dictionary,
    init_dictionary_unsupervised,
    run_schedule,
    run_self_learning,
    topk_row_mean,
)
from oracles import (
    adjusted_similarity,
    dense_induction,
    dense_retrieval,
    keep_mask,
    objective_value,
    random_orthogonal,
)


def emb(data, prefix="w"):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(Vocabulary([f"{prefix}{i}" for i in range(len(data))]), data)


def induce(sim, p_keep=1.0, seed=0, iteration=1):
    sim = np.asarray(sim, dtype=float)
    state = TrainState(p_keep=p_keep, rng_seed=seed, iteration=iteration)
    return induce_dictionary(sim, state)


class TestCslsAdjust:
    def test_worked_example(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        row_means, col_means = csls_means(sim, 1)
        np.testing.assert_array_equal(row_means, [1, 1])
        np.testing.assert_array_equal(col_means, [1, 1])
        adjusted = csls_adjust(sim, row_means, col_means)
        np.testing.assert_array_equal(adjusted, [[0, -1], [-1, 0]])
        assert adjusted.argmax(axis=1).tolist() == sim.argmax(axis=1).tolist()

    def test_constant_matrix_stays_constant(self):
        sim = np.full((3, 3), 0.25)
        adjusted = csls_adjust(sim, *csls_means(sim, 2))
        assert np.ptp(adjusted) == 0.0

    def test_row_shift_cancels(self):
        # Shifting one source row by a constant shifts its neighbourhood
        # mean equally; the adjusted row moves by the same constant and its
        # argmax stays put.
        rng = np.random.default_rng(0)
        sim = rng.standard_normal((4, 5))
        row_means, col_means = csls_means(sim, 2)
        shifted = sim.copy()
        shifted[2] += 0.7
        row_means2, _ = csls_means(shifted, 2)
        assert row_means2[2] == pytest.approx(row_means[2] + 0.7, abs=1e-12)
        a = csls_adjust(sim, row_means, col_means)
        b = csls_adjust(shifted, row_means2, col_means)
        assert a[2].argmax() == b[2].argmax()
        np.testing.assert_allclose(b[2], a[2] + 0.7, atol=1e-12)

    def test_topk_mean_matches_sort(self):
        rng = np.random.default_rng(1)
        sim = rng.standard_normal((7, 9))
        expected = np.sort(sim, axis=1)[:, -4:].mean(axis=1)
        np.testing.assert_allclose(topk_row_mean(sim, 4), expected, atol=1e-12)


class TestInduceDictionary:
    def test_identity_similarity_gives_mutual_identity(self):
        d = induce(np.eye(4))
        assert d == SparseDictionary(range(4), range(4), [2] * 4)

    def test_bidirectional_weights(self):
        # source 0 prefers target 1, but target 1's best source is 2
        sim = np.array([[0.2, 0.9], [0.8, 0.1], [0.3, 0.95]])
        d = induce(sim)
        assert set(d.pairs()) == {(0, 1, 1), (1, 0, 2), (2, 1, 2)}

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(5)
        sim = rng.standard_normal((30, 30))
        a = induce(sim, p_keep=0.5, seed=9, iteration=3)
        b = induce(sim, p_keep=0.5, seed=9, iteration=3)
        assert a == b

    def test_different_iterations_draw_differently(self):
        rng = np.random.default_rng(5)
        sim = rng.standard_normal((30, 30))
        a = induce(sim, p_keep=0.2, seed=9, iteration=3)
        b = induce(sim, p_keep=0.2, seed=9, iteration=4)
        assert a != b

    def test_p_one_never_zeroes(self):
        rng = np.random.default_rng(6)
        sim = rng.standard_normal((20, 20))
        d = induce(sim, p_keep=1.0)
        fwd = sim.argmax(axis=1)
        for i in range(20):
            assert (i, int(fwd[i])) in {(s, t) for s, t, _ in d.pairs()}

    def test_ties_pick_lowest_index(self):
        # Both rows pick target 0, both columns pick source 0.
        sim = np.array([[0.5, 0.5], [0.5, 0.5]])
        d = induce(sim)
        assert set(d.pairs()) == {(0, 0, 2), (1, 0, 1), (0, 1, 1)}

    def test_boost_changes_argmax(self):
        sim = np.array([[0.6, 0.5], [0.2, 0.3]])
        boost = SimilarityBoost(np.array([0]), np.array([1]), np.array([0.4]))
        boost.add_to(sim, 0)
        d = induce(sim)
        assert (0, 1, 2) in set(d.pairs())

    def test_scores_left_unmasked(self):
        rng = np.random.default_rng(8)
        sim = rng.standard_normal((30, 30))
        before = sim.copy()
        induce(sim, p_keep=0.3, seed=4, iteration=2)
        np.testing.assert_array_equal(sim, before)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            induce(np.zeros((0, 0)))

    def test_row_uniforms_match_per_row_generators(self):
        # Rows on both sides of the 1024-row block boundary, seeds past 2**63.
        for seed in (0, 77, 2**63, 2**64 - 1):
            for iteration in (1, 2, 613):
                draws = self_learning._row_uniforms(seed, iteration)(1000, np.empty((40, 33)))
                for p_keep in (0.1, 0.4, 0.8):
                    for r in range(40):
                        expected = keep_mask(seed, iteration, 1000 + r, 33, p_keep)
                        assert np.array_equal(draws[r] < p_keep, expected)

    @pytest.mark.parametrize("p_keep", [0.1, 0.5, 0.8])
    def test_masked_induction_matches_per_row_masks(self, p_keep):
        rng = np.random.default_rng(9)
        sim = rng.standard_normal((1100, 150))
        masked = sim.copy()
        for r in range(len(sim)):
            masked[r, ~keep_mask(2**63 + 5, 4, r, 150, p_keep)] = -np.inf
        d = induce(sim, p_keep=p_keep, seed=2**63 + 5, iteration=4)
        assert dict(((s, t), w) for s, t, w in d.pairs()) == dense_induction(masked)


class TestInitDictionary:
    def test_identical_spaces_give_identity(self):
        rng = np.random.default_rng(2)
        x = normalize_embeddings(emb(rng.standard_normal((20, 8))))
        d = init_dictionary_unsupervised(x, x, 20)
        assert d == SparseDictionary(range(20), range(20), [2] * 20)

    def test_recovers_permuted_rotation(self):
        # Signature matching on an exactly isometric pair: spaces related by
        # an orthogonal rotation plus a row permutation.
        rng = np.random.default_rng(3)
        cutoff, dim = 500, 50
        x = normalize_embeddings(emb(rng.standard_normal((cutoff, dim))))
        perm = rng.permutation(cutoff)
        z_data = x.data[perm] @ random_orthogonal(rng, dim)
        z = EmbeddingMatrix(Vocabulary([f"t{i}" for i in range(cutoff)]), z_data)
        d = init_dictionary_unsupervised(x, z, cutoff)
        forward = {}
        for s, t, w in d.pairs():
            if w == 2 or s not in forward:
                forward[s] = t
        inverse = np.empty(cutoff, dtype=int)
        inverse[perm] = np.arange(cutoff)
        correct = sum(forward.get(i) == inverse[i] for i in range(cutoff))
        assert correct >= 0.95 * cutoff

    def test_duplicate_rows_map_to_same_target(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 4))
        data[3] = data[0]
        x = normalize_embeddings(emb(data), center=False)
        d = init_dictionary_unsupervised(x, x, 6)
        targets_of = {0: set(), 3: set()}
        for s, t, _ in d.pairs():
            if s in targets_of:
                targets_of[s].add(t)
        assert targets_of[0] & targets_of[3]

    def test_small_cutoff_rejected(self):
        x = emb(np.eye(3))
        with pytest.raises(ValueError):
            init_dictionary_unsupervised(x, x, 1)


class TestObjective:
    def test_perfect_alignment_is_one(self):
        rng = np.random.default_rng(7)
        x = normalize_embeddings(emb(rng.standard_normal((6, 3))))
        d = SparseDictionary(range(6), range(6), [2] * 6)
        assert objective_value(x, x, np.eye(3), np.eye(3), d) == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_pair_is_minus_one(self):
        x = emb([[1.0, 0.0]])
        z = emb([[-1.0, 0.0]], prefix="t")
        d = SparseDictionary([0], [0], [1])
        assert objective_value(x, z, np.eye(2), np.eye(2), d) == pytest.approx(-1.0)

    def test_matches_singular_value_trace(self):
        rng = np.random.default_rng(8)
        x = normalize_embeddings(emb(rng.standard_normal((10, 4))))
        z = normalize_embeddings(emb(rng.standard_normal((10, 4)), prefix="t"))
        d = SparseDictionary([0, 1, 2, 5], [3, 1, 0, 5], [2, 1, 1, 2])
        u, s, vt = weighted_cross_svd(x.data, z.data, d)
        direct = objective_value(x, z, u, vt.T, d)
        assert direct == pytest.approx(s.sum() / d.weight_sum, abs=1e-6)

    def test_empty_dictionary_rejected(self):
        x = emb(np.eye(2))
        with pytest.raises(ValueError):
            objective_value(x, x, np.eye(2), np.eye(2), SparseDictionary([], [], []))


class TestSchedule:
    def test_constant_objective_doubles_every_window(self):
        cfg = LoopConfig(stall_window=50, p_init=0.1, p_factor=2.0)
        state, trace = run_schedule(cfg, lambda s: 1.0)
        values = [entry.p_keep for entry in trace]
        phases = {}
        for v in values:
            phases[v] = phases.get(v, 0) + 1
        assert list(phases) == [0.1, 0.2, 0.4, 0.8, 1.0]
        assert phases[0.1] == 51  # first call counts as the only improvement
        assert all(phases[p] == 50 for p in (0.2, 0.4, 0.8, 1.0))
        assert state.iteration == 251

    def test_improvements_postpone_doubling(self):
        cfg = LoopConfig(stall_window=5, p_init=0.5)
        objectives = iter([1.0, 2.0, 3.0] + [3.0] * 100)
        state, trace = run_schedule(cfg, lambda s: next(objectives))
        doubled_at = next(e.iteration for e in trace if e.p_keep == 1.0)
        assert doubled_at == 3 + 5 + 1

    def test_iteration_cap_raises(self):
        cfg = LoopConfig(max_iterations=30)
        with pytest.raises(ConvergenceError):
            run_schedule(cfg, lambda s: float(s.iteration))  # always improving

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_raises(self, bad):
        # Without the check, NaN would count as a stall and the run would
        # finish on it.
        cfg = LoopConfig(stall_window=2, p_init=1.0)
        with pytest.raises(ConvergenceError, match="at iteration 3"):
            run_schedule(cfg, lambda s: bad if s.iteration == 3 else 1.0)


def cipher_pair(rng, n, dim, noise=0.0):
    x = rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    z = x[perm] @ random_orthogonal(rng, dim) + noise * rng.standard_normal((n, dim))
    src = emb(x)
    tgt = EmbeddingMatrix(Vocabulary([f"t{i}" for i in range(n)]), z)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    return src, tgt, inverse


class TestRunSelfLearning:
    def test_recovers_synthetic_permutation(self):
        rng = np.random.default_rng(12)
        src, tgt, inverse = cipher_pair(rng, 200, 16)
        cfg = LoopConfig(train_cutoff=200, rng_seed=1)
        result = run_self_learning(
            normalize_embeddings(src), normalize_embeddings(tgt), cfg
        )
        hits = (result.lexicon.tgt == inverse).sum()
        assert hits >= 0.95 * 200

    def test_bit_reproducible(self):
        rng = np.random.default_rng(14)
        src, tgt, _ = cipher_pair(rng, 80, 10, noise=0.4)
        cfg = LoopConfig(train_cutoff=80, rng_seed=5)
        a = run_self_learning(normalize_embeddings(src), normalize_embeddings(tgt), cfg)
        b = run_self_learning(normalize_embeddings(src), normalize_embeddings(tgt), cfg)
        assert [e.objective for e in a.trace] == [e.objective for e in b.trace]
        np.testing.assert_array_equal(a.lexicon.tgt, b.lexicon.tgt)
        np.testing.assert_array_equal(a.lexicon_cosine, b.lexicon_cosine)

    def test_loop_scores_align_with_dictionary(self):
        rng = np.random.default_rng(15)
        src, tgt, _ = cipher_pair(rng, 60, 8)
        cfg = LoopConfig(train_cutoff=60, rng_seed=2)
        result = run_self_learning(
            normalize_embeddings(src), normalize_embeddings(tgt), cfg
        )
        assert len(result.loop_dictionary_scores) == len(result.loop_dictionary)
        assert np.isfinite(result.loop_dictionary_scores).all()


class TestSimilarityBoost:
    def test_add_to_sums_duplicates(self):
        boost = SimilarityBoost(
            np.array([1, 0, 1]), np.array([2, 1, 2]), np.array([0.5, 0.25, 0.25])
        )
        block = np.zeros((2, 3))
        boost.add_to(block, 0)
        np.testing.assert_array_equal(block, [[0, 0.25, 0], [0, 0, 0.75]])

    def test_add_to_places_values(self):
        # Only source row 2 lies in the block of rows [2, 3); the entries of
        # rows 0 and 3 fall outside it and are skipped.
        boost = SimilarityBoost(
            np.array([2, 0, 3]), np.array([1, 3, 0]), np.array([0.5, 0.7, 0.9])
        )
        block = np.ones((1, 4))
        boost.add_to(block, 2)
        np.testing.assert_array_equal(block, [[1, 1.5, 1, 1]])

    def test_restricted_drops_out_of_range(self):
        boost = SimilarityBoost(np.array([0, 5]), np.array([1, 1]), np.array([1.0, 1.0]))
        assert len(boost.restricted(3, 3)) == 1


def run_with_loop_maps(monkeypatch, src, tgt, cfg, boost=None):
    """Run the loop and also return the maps of its last iteration."""
    solves = []

    def recording_svd(x, z, dictionary):
        out = weighted_cross_svd(x, z, dictionary)
        solves.append(out)
        return out

    monkeypatch.setattr(self_learning, "weighted_cross_svd", recording_svd)
    result = run_self_learning(src, tgt, cfg, boost=boost)
    u, _, vt = solves[-2]  # solves[-1] is the whitened final solve
    return result, u, vt.T


class TestDenseOracle:
    """The single scoring pass against the dense path it replaced."""

    @pytest.mark.parametrize("boosted", [False, True])
    def test_matches_dense_path(self, monkeypatch, boosted):
        rng = np.random.default_rng(31)
        src, tgt, inverse = cipher_pair(rng, 150, 12, noise=0.3)
        src, tgt = normalize_embeddings(src), normalize_embeddings(tgt)
        cfg = LoopConfig(train_cutoff=120, stall_window=5, rng_seed=3)
        boost = None
        if boosted:
            rows = rng.choice(120, size=40, replace=False)
            cols = np.where(rng.random(40) < 0.5, inverse[rows], rng.integers(0, 120, 40))
            boost = SimilarityBoost(rows, cols, rng.uniform(0.5, 3.0, 40))
        result, w_src, w_tgt = run_with_loop_maps(monkeypatch, src, tgt, cfg, boost)
        if boosted:
            boost = boost.restricted(120, 120)  # some true targets lie past the cutoff

        adjusted = adjusted_similarity(
            src.data[:120], tgt.data[:120], w_src, w_tgt, cfg.csls_k, boost
        )
        d = result.loop_dictionary
        assert dict(((s, t), w) for s, t, w in d.pairs()) == dense_induction(adjusted)
        assert np.array_equal(result.loop_dictionary_scores, adjusted[d.src, d.tgt])

        # The final pass retrieves over rows renormalized by strip_extension.
        tgt_idx, cosines = dense_retrieval(
            strip_extension(src, 0), strip_extension(tgt, 0),
            result.w_src, result.w_tgt, cfg.train_cutoff, cfg.csls_k, boost,
        )
        assert np.array_equal(result.lexicon.tgt, tgt_idx)
        assert np.array_equal(result.lexicon_cosine, cosines)
