"""Dictionary induction, the rescaling discount, scheduling, and full runs."""

import logging
import math
import threading
import tracemalloc

import numpy as np
import pytest

from orthomap import numerics, self_learning
from orthomap.corpus_io import EmbeddingMatrix, SparseDictionary, Vocabulary
from orthomap.errors import ConvergenceError
from orthomap.numerics import normalize_embeddings, normalize_rows, weighted_cross_svd
from orthomap.ortho_extension import strip_extension
from orthomap.self_learning import (
    LoopConfig,
    ScoreTiles,
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
    csls_adjust as dense_csls_adjust,
    csls_means as dense_csls_means,
    dense_boost,
    dense_induction,
    dense_init,
    dense_retrieval,
    fixed_point_iteration,
    keep_mask,
    objective_value,
    random_orthogonal,
    reference_self_learning,
    top_rows,
)
from oracles import topk_row_mean as whole_topk_row_mean


def emb(data, prefix="w"):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(Vocabulary([f"{prefix}{i}" for i in range(len(data))]), data)


def dense_tiles(sim):
    """ScoreTiles whose tiles are copied out of a whole matrix."""
    sim = np.asarray(sim, dtype=float)
    return ScoreTiles(*sim.shape, lambda lo, hi, out: np.copyto(out, sim[lo:hi]))


def induce(sim, p_keep=1.0, seed=0, iteration=1):
    state = TrainState(p_keep=p_keep, rng_seed=seed, iteration=iteration)
    return induce_dictionary(dense_tiles(sim), state)


class TestCslsAdjust:
    def test_worked_example(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        row_means, col_means = csls_means(dense_tiles(sim), 1)
        np.testing.assert_array_equal(row_means, [1, 1])
        np.testing.assert_array_equal(col_means, [1, 1])
        adjusted = csls_adjust(sim, row_means, col_means)
        np.testing.assert_array_equal(adjusted, [[0, -1], [-1, 0]])
        assert adjusted.argmax(axis=1).tolist() == sim.argmax(axis=1).tolist()

    def test_constant_matrix_stays_constant(self):
        sim = np.full((3, 3), 0.25)
        adjusted = csls_adjust(sim, *csls_means(dense_tiles(sim), 2))
        assert np.ptp(adjusted) == 0.0

    def test_row_shift_cancels(self):
        # Shifting one source row by a constant shifts its neighbourhood
        # mean equally; the adjusted row moves by the same constant and its
        # argmax stays put.
        rng = np.random.default_rng(0)
        sim = rng.standard_normal((4, 5))
        row_means, col_means = csls_means(dense_tiles(sim), 2)
        shifted = sim.copy()
        shifted[2] += 0.7
        row_means2, _ = csls_means(dense_tiles(shifted), 2)
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
    def test_masked_induction_matches_per_row_masks(self, monkeypatch, p_keep):
        # Tiles of 1024 rows: the last one holds rows 1024-1099.
        monkeypatch.setattr(self_learning, "_TILE_BYTES", 1024 * 8 * 150)
        rng = np.random.default_rng(9)
        sim = rng.standard_normal((1100, 150))
        masked = masked_like_kernel(sim, TrainState(p_keep=p_keep, rng_seed=2**63 + 5, iteration=4))
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
        x = emb(normalize_rows(data))
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


def fast_forward_case(name):
    """(src, tgt, cfg, boost) of one fast-forward differential case."""
    if name == "init-fixed":  # noiseless: the init is already the fixed point
        rng = np.random.default_rng(0)
        src, tgt, _ = cipher_pair(rng, 40, 6)
        cfg = LoopConfig(train_cutoff=40, stall_window=3, p_init=1.0)
    elif name == "repeat-under-mask":  # dictionaries repeat at p_keep 0.9
        rng = np.random.default_rng(0)
        src, tgt, _ = cipher_pair(rng, 6, 3, noise=0.3)
        cfg = LoopConfig(train_cutoff=6, stall_window=6, p_init=0.9, rng_seed=2)
    else:
        rng = np.random.default_rng(0)
        src, tgt, inverse = cipher_pair(rng, 60, 8, noise=0.3)
        cfg = LoopConfig(train_cutoff=60, stall_window=5, rng_seed=3)
    boost = None
    if name == "boosted":
        rows = rng.choice(60, size=20, replace=False)
        boost = SimilarityBoost(rows, inverse[rows], rng.uniform(0.2, 1.0, 20))
    return normalize_embeddings(src), normalize_embeddings(tgt), cfg, boost


class TestFastForward:
    """Iterations that replay a fixed point are skipped, and nothing else changes.

    The reference loop in tests/oracles.py solves, scores and induces at
    every iteration.
    """

    @pytest.mark.parametrize("name", ["unboosted", "boosted", "init-fixed", "repeat-under-mask"])
    def test_matches_reference_loop(self, monkeypatch, name):
        src, tgt, cfg, boost = fast_forward_case(name)
        expected, history = reference_self_learning(src, tgt, cfg, boost)
        fixed = fixed_point_iteration(history)
        iterations = len(history)
        assert fixed is not None and fixed < iterations  # at least one replay
        if name == "init-fixed":
            assert fixed == 1
        if name == "repeat-under-mask":
            # A dictionary repeats under the keep mask and the loop then
            # moves on from it, so a stochastic step is no fixed point.
            repeats = [i for i, (p, d, new_d) in enumerate(history) if p < 1.0 and new_d == d]
            assert any(history[j][2] != history[i][2] for i in repeats for j in range(i, fixed))

        calls = dict.fromkeys(
            ("weighted_cross_svd", "_product", "csls_means", "induce_dictionary"), 0
        )

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for fn_name in calls:
            monkeypatch.setattr(
                self_learning, fn_name, counting(fn_name, getattr(self_learning, fn_name))
            )
        result = run_self_learning(src, tgt, cfg, boost=boost)

        assert result.trace == expected.trace
        assert result.state.iteration == iterations
        assert result.loop_dictionary == expected.loop_dictionary
        assert np.array_equal(result.loop_dictionary_scores, expected.loop_dictionary_scores)
        assert result.lexicon == expected.lexicon
        assert np.array_equal(result.lexicon_cosine, expected.lexicon_cosine)
        # One solve per computed iteration plus the whitened final solve; the
        # init induces once, and retrieval takes one product and its means.
        replays = iterations - fixed
        assert calls == dict.fromkeys(calls, iterations - replays + 1)

    def test_phase_lines_logged(self, caplog):
        # -v shows every p_keep doubling and, once, the fixed point.
        src, tgt, cfg, _ = fast_forward_case("unboosted")
        _, history = reference_self_learning(src, tgt, cfg)
        with caplog.at_level("INFO", logger="orthomap.self_learning"):
            result = run_self_learning(src, tgt, cfg)
        info = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        doublings = [
            f"iteration {a.iteration}: objective stalled, p_keep -> {b.p_keep:.4g}"
            for a, b in zip(result.trace, result.trace[1:])
            if b.p_keep != a.p_keep
        ]
        assert len(doublings) == 4  # 0.1 -> 0.2 -> 0.4 -> 0.8 -> 1
        assert [m for m in info if "p_keep ->" in m] == doublings
        fixed = fixed_point_iteration(history)
        assert [m for m in info if "fixed point" in m] == [
            f"iteration {fixed}: dictionary reached its fixed point"
        ]


def extended_case(name):
    """(src, tgt, cfg, widths) of a pair with 12 n-gram-like extension columns.

    ``widths`` holds the number of columns each side uses in its training
    rows: 6 embedding columns plus the extension columns filled in there.
    The target's extension columns copy the source's of its translation
    into other columns, as a cipher's spelling does.
    """
    rng = np.random.default_rng(21)
    n, cutoff, ext = 80, 60, 12
    src, tgt, inverse = cipher_pair(rng, n, 6, noise=0.3)
    counts = 0.3 * rng.poisson(1.0, (n, ext)) + 0.3  # no column is all zero
    src_cols, tgt_cols = {
        "cross-script": (range(0, 6), range(6, 12)),
        "unequal": (range(0, 4), range(4, 12)),
        "shared": (range(0, 9), range(4, 12)),
        "full": (range(12), range(12)),
    }[name]
    src_ext = np.zeros((n, ext))
    tgt_ext = np.zeros((n, ext))
    src_ext[:, src_cols] = counts[:, : len(src_cols)]
    tgt_ext[:, tgt_cols] = counts[np.argsort(inverse), : len(tgt_cols)]
    if name == "unequal":
        # Used only beyond the cutoff; its mean is 0, so centering keeps
        # it zero in the training rows.
        src_ext[cutoff:, 11] = np.resize([0.3, -0.3], n - cutoff)
    extended = [
        normalize_embeddings(EmbeddingMatrix(e.vocab, np.hstack([e.data, x])))
        for e, x in ((src, src_ext), (tgt, tgt_ext))
    ]
    if name == "unequal":
        assert not extended[0].data[:cutoff, 17].any() and extended[0].data[cutoff:, 17].all()
    cfg = LoopConfig(train_cutoff=cutoff, stall_window=3, rng_seed=3)
    return (*extended, cfg, (6 + len(src_cols), 6 + len(tgt_cols)))


class TestUsedColumns:
    """The loop solves over the columns each side uses in its training rows.

    The reference loop in tests/oracles.py solves over every column; the
    two agree to rounding, and bit for bit when every column is used.
    """

    @pytest.mark.parametrize("name", ["cross-script", "unequal", "shared", "full"])
    def test_matches_full_width_reference(self, monkeypatch, caplog, name):
        src, tgt, cfg, widths = extended_case(name)
        product = self_learning._product
        products = []
        solve_widths = []

        def recording_product(left, right, *buffer):
            products.append(left @ right.T)
            return product(left, right, *buffer)

        def recording_svd(x, z, dictionary):
            solve_widths.append((x.shape[1], z.shape[1]))
            return weighted_cross_svd(x, z, dictionary)

        monkeypatch.setattr(self_learning, "_product", recording_product)
        expected, history = reference_self_learning(src, tgt, cfg, n_extension_cols=12)
        expected_products = products[:]
        products.clear()
        monkeypatch.setattr(self_learning, "weighted_cross_svd", recording_svd)
        with caplog.at_level("INFO", logger="orthomap.self_learning"):
            result = run_self_learning(src, tgt, cfg, n_extension_cols=12)

        computed = fixed_point_iteration(history) or len(history)
        assert solve_widths == [widths] * computed + [(6, 6)]
        assert f"procrustes over {widths[0]} x {widths[1]} of 18 x 18 columns" in [
            r.getMessage() for r in caplog.records
        ]
        # Per step: the scores of every computed iteration, then retrieval's.
        assert len(products) == computed + 1
        assert len(expected_products) == len(history) + 1
        pairs = list(zip(products[:-1], expected_products)) + [
            (products[-1], expected_products[-1])
        ]
        if name == "full":
            assert result.trace == expected.trace
            for got, want in pairs:
                np.testing.assert_array_equal(got, want)
            assert np.array_equal(result.loop_dictionary_scores, expected.loop_dictionary_scores)
        else:
            assert widths[0] + widths[1] < 36
            np.testing.assert_allclose(
                [e.objective for e in result.trace],
                [e.objective for e in expected.trace],
                rtol=0,
                atol=1e-12,
            )
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        def rows(trace):
            return [(e.iteration, e.p_keep, e.dict_size, e.mutual_pairs, e.churn) for e in trace]

        assert rows(result.trace) == rows(expected.trace)
        assert result.loop_dictionary == expected.loop_dictionary
        assert result.lexicon == expected.lexicon
        assert np.array_equal(result.lexicon_cosine, expected.lexicon_cosine)

    def test_full_support_passes_through_uncopied(self):
        block = np.arange(6.0).reshape(2, 3) + 1.0
        assert self_learning._used_columns(block) is block
        block[:, 1] = 0.0
        np.testing.assert_array_equal(self_learning._used_columns(block), block[:, [0, 2]])


class TestTraceColumns:
    def test_columns_describe_each_dictionary(self):
        src, tgt, cfg, _ = fast_forward_case("unboosted")
        expected, history = reference_self_learning(src, tgt, cfg)
        result = run_self_learning(src, tgt, cfg)
        fixed = fixed_point_iteration(history)
        assert len(result.trace) == len(history) > fixed
        for entry, (_, before, after) in zip(result.trace, history):
            assert entry.dict_size == len(after)
            assert entry.mutual_pairs == int((after.weight == 2).sum())
            assert entry.churn == len(set(zip(after.src, after.tgt)) - set(zip(before.src, before.tgt)))
        # Replays of the fixed point repeat its row, with churn 0.
        row = result.trace[fixed - 1]
        assert row.churn == 0
        for entry in result.trace[fixed:]:
            assert (entry.objective, entry.dict_size, entry.mutual_pairs, entry.churn) == (
                row.objective, row.dict_size, row.mutual_pairs, 0
            )


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


def whole_product(left, right, buffer=None):
    """ScoreTiles of ``left @ right.T`` computed as one product.

    BLAS may round an entry differently depending on the row count of the
    product it belongs to, so tiles copied out of one product are what
    makes exact comparisons with the dense oracle meaningful.
    """
    full = left @ right.T
    return ScoreTiles(
        len(left), len(right), lambda lo, hi, out: np.copyto(out, full[lo:hi]), buffer
    )


def tile_budget(monkeypatch, n_cols, tile_rows):
    """Give matrices with ``n_cols`` columns tiles of ``tile_rows`` rows."""
    if tile_rows is not None:
        monkeypatch.setattr(self_learning, "_TILE_BYTES", 8 * n_cols * tile_rows)


def masked_like_kernel(adjusted, state):
    """A copy of ``adjusted`` with the entries the keep mask of ``state``
    drops set to -inf, drawn from the oracle's per-row generators."""
    masked = adjusted.copy()
    if state.p_keep < 1.0:
        for r in range(len(masked)):
            keep = keep_mask(state.rng_seed, state.iteration, r, masked.shape[1], state.p_keep)
            masked[r, ~keep] = -np.inf
    return masked


class TestDenseOracle:
    """The tiled kernel against the dense path it replaced.

    ``tile_rows`` None leaves every matrix in one tile; 7 gives tiles with
    fewer rows than csls_k and 13 tiles with more, each call splitting into
    at least three tiles with a ragged last one.
    """

    # Budgets giving the loop's 120-wide matrices tiles of 9 rows and
    # retrieval's 150-wide ones tiles of 7, or tiles of 46 and 37 rows.
    @pytest.mark.parametrize(
        "boosted, tile_bytes",
        [
            pytest.param(False, None, id="False"),
            pytest.param(True, None, id="True"),
            pytest.param(False, 9000, id="False-small-tiles"),
            pytest.param(True, 9000, id="True-small-tiles"),
            pytest.param(True, 45000, id="True-large-tiles"),
        ],
    )
    def test_matches_dense_path(self, monkeypatch, boosted, tile_bytes):
        rng = np.random.default_rng(31)
        src, tgt, inverse = cipher_pair(rng, 150, 12, noise=0.3)
        src, tgt = normalize_embeddings(src), normalize_embeddings(tgt)
        cfg = LoopConfig(train_cutoff=120, stall_window=5, rng_seed=3)
        boost = None
        if boosted:
            rows = rng.choice(120, size=40, replace=False)
            cols = np.where(rng.random(40) < 0.5, inverse[rows], rng.integers(0, 120, 40))
            boost = SimilarityBoost(rows, cols, rng.uniform(0.5, 3.0, 40))
        if tile_bytes is not None:
            monkeypatch.setattr(self_learning, "_TILE_BYTES", tile_bytes)
            monkeypatch.setattr(self_learning, "_product", whole_product)
        result, w_src, w_tgt = run_with_loop_maps(monkeypatch, src, tgt, cfg, boost)
        if boosted:
            boost = boost.restricted(120, 120)  # some true targets lie past the cutoff

        adjusted = adjusted_similarity(
            src.data[:120], tgt.data[:120], w_src, w_tgt, cfg.csls_k, boost
        )
        d = result.loop_dictionary
        assert dict(((s, t), w) for s, t, w in d.pairs()) == dense_induction(adjusted)
        expected = adjusted[d.src, d.tgt]
        if tile_bytes is None:
            assert np.array_equal(result.loop_dictionary_scores, expected)
        else:  # merged column top-k means sum in another order
            np.testing.assert_allclose(result.loop_dictionary_scores, expected, rtol=0, atol=1e-12)

        # The final pass retrieves over rows renormalized by strip_extension.
        tgt_idx, cosines = dense_retrieval(
            strip_extension(src, 0), strip_extension(tgt, 0),
            result.w_src, result.w_tgt, cfg.train_cutoff, cfg.csls_k, boost,
        )
        assert np.array_equal(result.lexicon.tgt, tgt_idx)
        assert np.array_equal(result.lexicon_cosine, cosines)

    @pytest.mark.parametrize("tile_rows", [None, 7, 13])
    @pytest.mark.parametrize("p_keep", [0.1, 1.0])
    @pytest.mark.parametrize("n_cols", [6, 40])
    def test_kernel_pass_matches_dense(self, monkeypatch, tile_rows, p_keep, n_cols):
        # With 6 columns and p_keep 0.1 about half of the rows lose every
        # entry to the mask and choose nothing.
        rng = np.random.default_rng(n_cols)
        sim = rng.standard_normal((45, n_cols))
        sim[20] = sim[2]  # column ties across tiles go to the earlier row
        tile_budget(monkeypatch, n_cols, tile_rows)
        # Entries on both sides of tile boundaries (6|7, 12|13, 13|14) and a
        # duplicate pair, which sums.
        rows = np.array([0, 6, 7, 12, 13, 13, 14, 44])
        cols = np.array([1, 2, 3, 0, 5, 5, 4, 2]) % n_cols
        boost = SimilarityBoost(rows, cols, rng.uniform(0.5, 3.0, len(rows)))
        state = TrainState(p_keep=p_keep, rng_seed=2**63 + 1, iteration=5)

        scores = dense_tiles(sim)
        means = csls_means(scores, 10)
        d = induce_dictionary(scores, state, means, boost)

        dense_rows, dense_cols = dense_csls_means(sim, 10)
        adjusted = dense_csls_adjust(sim, dense_rows, dense_cols)
        adjusted += dense_boost(boost, 0, len(sim), n_cols)
        assert dict(((s, t), w) for s, t, w in d.pairs()) == dense_induction(
            masked_like_kernel(adjusted, state)
        )
        assert state.dictionary is d
        assert np.array_equal(means[0], dense_rows)
        expected = adjusted[d.src, d.tgt]
        if tile_rows is None:
            assert np.array_equal(means[1], dense_cols)
            assert np.array_equal(state.dictionary_scores, expected)
        else:  # merged column top-k means sum in another order
            np.testing.assert_allclose(means[1], dense_cols, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.dictionary_scores, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tile_rows", [None, 7, 13])
    def test_retrieval_matches_dense(self, monkeypatch, tile_rows):
        # 71 sources, 90 targets, statistics over the first 50 sources.
        rng = np.random.default_rng(41)
        src = normalize_embeddings(emb(rng.standard_normal((71, 8))))
        tgt = normalize_embeddings(emb(rng.standard_normal((90, 8)), prefix="t"))
        w_src, w_tgt = random_orthogonal(rng, 8), random_orthogonal(rng, 8)
        cfg = LoopConfig(train_cutoff=50, csls_k=10)
        boost = SimilarityBoost(
            np.array([6, 7, 13, 13, 69]), np.array([5, 80, 3, 3, 89]), np.full(5, 0.7)
        )
        tile_budget(monkeypatch, 90, tile_rows)
        monkeypatch.setattr(self_learning, "_product", whole_product)
        lexicon, cosines = self_learning.retrieve_lexicon(src, tgt, w_src, w_tgt, cfg, boost)
        tgt_idx, expected = dense_retrieval(src, tgt, w_src, w_tgt, 50, 10, boost)
        assert np.array_equal(lexicon.tgt, tgt_idx)
        assert np.array_equal(cosines, expected)

    @pytest.mark.parametrize("tile_rows", [None, 7, 13])
    def test_init_matches_dense(self, monkeypatch, tile_rows):
        rng = np.random.default_rng(43)
        src, tgt, _ = cipher_pair(rng, 60, 8, noise=0.2)
        src, tgt = normalize_embeddings(src), normalize_embeddings(tgt)
        tile_budget(monkeypatch, 50, tile_rows)
        d = init_dictionary_unsupervised(src, tgt, 50)
        assert dict(((s, t), w) for s, t, w in d.pairs()) == dense_init(
            src.data, tgt.data, 50
        )

    def test_pass_memory_is_bounded_by_tiles(self):
        # The dense step held sim, the adjusted matrix and two partition
        # copies: at least 3 * 3000**2 * 8 bytes, about 206 MiB.
        n, d, k = 3000, 50, 10
        rng = np.random.default_rng(47)
        left, right = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        boost = SimilarityBoost(
            rng.integers(0, n, 3000), rng.integers(0, n, 3000), rng.uniform(0.1, 1.0, 3000)
        )
        state = TrainState(p_keep=0.4, rng_seed=7, iteration=3)
        tracemalloc.start()
        try:
            scores = self_learning._product(left, right)
            induce_dictionary(scores, state, csls_means(scores, k), boost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * self_learning._TILE_BYTES + 64 * n * k


def test_final_pass_holds_three_full_matrices(monkeypatch):
    # From the loop's end to the return, the final pass holds at most three
    # full n x d matrices at once: retrieval's mapped source rows while a
    # target's stripped copy is mapped. With tiles a third of a matrix,
    # the kernel's two tile buffers and two mapped matrices stay below
    # that, and one tile of allowance covers the norms' block of squares,
    # the maps and the kernel's vectors. The same run of the parent peaked
    # at 5.3 matrices: both stripped copies, the whitened products, and the
    # mapped rows with np.linalg.norm's full-size squares and quotient.
    n, d = 3000, 96
    src, tgt, _ = cipher_pair(np.random.default_rng(53), n, d, noise=0.1)
    src, tgt = normalize_embeddings(src), normalize_embeddings(tgt)
    cfg = LoopConfig(train_cutoff=300, stall_window=2, objective_eps=0.02, rng_seed=1)
    tile_budget(monkeypatch, n, 32)
    schedule = self_learning.run_schedule

    def schedule_then_trace(*args, **kwargs):
        out = schedule(*args, **kwargs)
        tracemalloc.start()
        return out

    monkeypatch.setattr(self_learning, "run_schedule", schedule_then_trace)
    try:
        run_self_learning(src, tgt, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 8 * n * d
    assert peak <= 3 * matrix + self_learning._TILE_BYTES


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def slice_budget(monkeypatch, length, other):
    """Give tiles whose other side is ``other`` long slices of ``length``."""
    monkeypatch.setattr(self_learning, "_SLICE_BYTES", 8 * other * length)


class TestSlicedReductions:
    """Row and column top-k and retrieval's adjusted copy work a slice of
    the tile at a time, with the whole tile's results bit for bit.

    Slices of 7 rows or columns; tiles of 5 (narrower than a slice), 7
    (equal) and 23 (wider, with a ragged last slice).
    """

    @pytest.mark.parametrize("n", [5, 7, 23])
    @pytest.mark.parametrize("k", [1, 3, 10, 30])
    def test_topk_row_mean(self, monkeypatch, n, k):
        rng = np.random.default_rng(n * k)
        tile = rng.standard_normal((n, 19))
        tile[n - 1] = tile[0]  # duplicate rows and tied entries
        tile[:, 4] = tile[:, 3]
        slice_budget(monkeypatch, 7, 19)
        assert np.array_equal(bits(topk_row_mean(tile, k)), bits(whole_topk_row_mean(tile, k)))

    @pytest.mark.parametrize("n", [5, 7, 23])
    @pytest.mark.parametrize("k", [1, 3, 10, 30])
    def test_top_rows(self, monkeypatch, n, k):
        rng = np.random.default_rng(100 + n * k)
        block = rng.standard_normal((19, n))
        block[:, n - 1] = block[:, 0]
        block[4] = block[3]
        slice_budget(monkeypatch, 7, 19)
        assert np.array_equal(bits(self_learning._top_rows(block, k)), bits(top_rows(block, k)))

    @pytest.mark.parametrize("n_rows", [5, 7, 23, 60])
    @pytest.mark.parametrize("p_keep", [0.3, 1.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_best_entries_with_cosines(self, monkeypatch, n_rows, p_keep, backward):
        # Row tiles of 23 rows; 60 rows make three tiles, the last ragged.
        rng = np.random.default_rng(n_rows)
        sim = rng.standard_normal((n_rows, 11))
        sim[-1] = sim[0]  # column ties go to the earlier row
        tile_budget(monkeypatch, 11, 23)
        # Entries on both sides of the slice boundaries 6|7, 13|14 and 20|21,
        # the tile boundary 22|23, and a duplicate pair, which sums.
        rows = np.array([0, 6, 7, 13, 14, 14, 20, 21, 22, 23, 59])
        boost = SimilarityBoost(rows, rows % 11, rng.uniform(0.5, 3.0, len(rows)))
        boost = boost.restricted(n_rows, 11)
        col_means = rng.uniform(-1, 1, 11)
        row_means = rng.uniform(-1, 1, n_rows) if backward else None

        def entries(slice_rows):
            slice_budget(monkeypatch, slice_rows, 11)
            state = TrainState(p_keep=p_keep, rng_seed=9, iteration=4)
            return self_learning._best_entries(
                dense_tiles(sim), (row_means, col_means), boost, state,
                backward=backward, cosines=True,
            )

        whole = entries(10**6)
        for got, expected in zip(entries(7), whole):
            assert np.array_equal(bits(got), bits(expected))
        assert np.array_equal(whole[4], sim[np.arange(n_rows), whole[0]])

    def test_retrieval_holds_one_slice_of_adjusted_scores(self, monkeypatch):
        # Retrieval's adjusted copy is one slice of rows, not a tile.
        rng = np.random.default_rng(3)
        n, d = 2000, 20
        src = normalize_embeddings(emb(rng.standard_normal((n, d))))
        tgt = normalize_embeddings(emb(rng.standard_normal((n, d)), prefix="t"))
        w = np.eye(d)
        cfg = LoopConfig(train_cutoff=500, csls_k=10)
        expected = self_learning.retrieve_lexicon(src, tgt, w, w, cfg)
        tracemalloc.start()
        try:
            got = self_learning.retrieve_lexicon(src, tgt, w, w, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1])
        # Mapped rows of both sides, one tile, a few slices and the column
        # top-k merge; a tile-sized copy more would exceed it.
        matrices = 2 * 8 * n * d
        k = cfg.csls_k
        bound = matrices + self_learning._TILE_BYTES + 4 * self_learning._SLICE_BYTES + 64 * n * k
        assert peak < bound < matrices + 2 * self_learning._TILE_BYTES


def helper_case(name):
    """(src, tgt, cfg, boost, tile_bytes) of one helper differential case."""
    rng = np.random.default_rng(61)
    src, tgt, inverse = cipher_pair(rng, 90, 12, noise=0.3)
    cfg = LoopConfig(train_cutoff=70, stall_window=4, rng_seed=8)
    boost = tile_bytes = None
    if name == "boosted":
        rows = rng.choice(70, size=25, replace=False)
        boost = SimilarityBoost(rows, inverse[rows], rng.uniform(0.2, 1.0, 25))
    if name == "multi-tile":  # the loop's 70-wide matrix in tiles of 16 rows
        tile_bytes = 8 * 70 * 16
    return normalize_embeddings(src), normalize_embeddings(tgt), cfg, boost, tile_bytes


def blas_on(monkeypatch, threads):
    """Make the BLAS thread variables say ``threads`` (None: unset)."""
    for var in numerics._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)


class TestLoopHelper:
    """A loop with a helper thread gives the serial loop's results bit for bit."""

    @pytest.mark.parametrize("name", ["one-tile", "boosted", "multi-tile"])
    def test_matches_serial_loop(self, monkeypatch, caplog, name):
        blas_on(monkeypatch, "1")
        src, tgt, cfg, boost, tile_bytes = helper_case(name)
        if tile_bytes is not None:
            monkeypatch.setattr(self_learning, "_TILE_BYTES", tile_bytes)
        serial = run_self_learning(src, tgt, cfg, boost=boost, workers=2)
        monkeypatch.setattr(self_learning, "_HELPER_MIN_WIDTH", 12)
        helpers, threads = [], set()
        draw = self_learning._LoopHelper.draw

        def counting_draw(helper, state):
            helpers.append(helper)
            return draw(helper, state)

        monkeypatch.setattr(self_learning._LoopHelper, "draw", counting_draw)
        row_uniforms = self_learning._row_uniforms

        def recording_uniforms(seed, iteration):
            fill = row_uniforms(seed, iteration)
            return lambda lo, out: (threads.add(threading.current_thread().name), fill(lo, out))[1]

        monkeypatch.setattr(self_learning, "_row_uniforms", recording_uniforms)
        with caplog.at_level(logging.INFO, logger="orthomap.self_learning"):
            helped = run_self_learning(src, tgt, cfg, boost=boost, workers=2)
        assert "loop helper thread on: solve width 12, 2 workers, BLAS threads 1 " in caplog.text
        assert len(set(map(id, helpers))) == 1 and len(helpers) > 5
        # The helper draws the uniforms of a one-tile matrix; those of a
        # matrix of several tiles are drawn tile by tile as they are used.
        drawn_on = "MainThread" if name == "multi-tile" else "orthomap-loop-helper_0"
        assert threads == {drawn_on}
        assert helped.trace == serial.trace
        assert helped.loop_dictionary == serial.loop_dictionary
        assert np.array_equal(bits(helped.loop_dictionary_scores), bits(serial.loop_dictionary_scores))
        assert helped.lexicon == serial.lexicon
        assert np.array_equal(bits(helped.lexicon_cosine), bits(serial.lexicon_cosine))
        assert threading.active_count() == 1  # the helper ended with its loop

    @pytest.mark.parametrize(
        "workers, width, blas",
        [(1, 12, "1"), (2, 13, "1"), (2, 12, "2"), (2, 12, None)],
        ids=["one-worker", "narrow", "two-blas-threads", "blas-unset"],
    )
    def test_off_below_two_workers_or_the_width_or_with_blas_threads(
        self, monkeypatch, caplog, workers, width, blas
    ):
        # BLAS on more than one thread, or on every core, leaves the helper
        # no idle core.
        blas_on(monkeypatch, blas)
        src, tgt, cfg, _, _ = helper_case("one-tile")
        monkeypatch.setattr(self_learning, "_HELPER_MIN_WIDTH", width)

        def no_helper(*args):
            raise AssertionError("the loop started a helper")

        monkeypatch.setattr(self_learning, "_LoopHelper", no_helper)
        with caplog.at_level(logging.INFO, logger="orthomap.self_learning"):
            self_learning.run_loop(src, tgt, cfg, workers=workers)
        worker_s = "worker" if workers == 1 else "workers"
        blas_s = "unset" if blas is None else blas
        assert (
            f"loop helper thread off: solve width 12, {workers} {worker_s}, BLAS threads {blas_s} "
            in caplog.text
        )

    def test_helper_error_ends_the_loop_and_its_thread(self, monkeypatch):
        blas_on(monkeypatch, "1")
        src, tgt, cfg, _, _ = helper_case("one-tile")
        monkeypatch.setattr(self_learning, "_HELPER_MIN_WIDTH", 12)

        def failing(*args, **kwargs):
            raise FloatingPointError("helper failed")

        monkeypatch.setattr(self_learning.np, "matmul", failing)
        with pytest.raises(FloatingPointError, match="helper failed"):
            self_learning.run_loop(src, tgt, cfg, workers=2)
        assert threading.active_count() == 1
