"""Edit-model DP tables, EM training, the similarity boost, transliteration."""

import math
import tracemalloc

import numpy as np
import pytest

from orthomap import edit_model
from orthomap.edit_model import (
    EditAlphabets,
    EditModel,
    _backward_table,
    _em_chunks,
    _forward_table,
    _log_forward_table,
    boost_from_log_prob,
    build_edit_alphabets,
    edit_operations,
    edit_similarity_boost,
    em_train,
    log_edit_probability,
    transliterate,
)
from orthomap.errors import (
    AlphabetCoverageError,
    EmTrainingError,
    NoTransliterationPath,
)
from orthomap.ortho_extension import NgramAlphabet
from oracles import (
    decimal_log_probability,
    enumerate_edit_probability,
    enumerate_posterior_stats,
    enumerate_transliteration_score,
    random_theta,
    reference_backward_table,
    reference_em_train,
    reference_forward_table,
)


def unigram_alphabets(src_chars, tgt_chars):
    return EditAlphabets(NgramAlphabet(list(src_chars)), NgramAlphabet(list(tgt_chars)))


def uniform_ab_model():
    # Three operations over single-letter alphabets, uniform probabilities.
    alphabets = unigram_alphabets("a", "b")
    theta = {("a", "b"): 1 / 3, ("a", ""): 1 / 3, ("", "b"): 1 / 3}
    return EditModel(alphabets, theta)


class TestAlphabets:
    def test_same_number_of_bigrams(self):
        alphabets = build_edit_alphabets(["ab", "bc", "ca", "aa"], ["xy"])
        src_unigrams = [g for g in alphabets.src.items if len(g) == 1]
        src_bigrams = [g for g in alphabets.src.items if len(g) == 2]
        assert sorted(src_unigrams) == ["a", "b", "c"]
        assert len(src_bigrams) == 3

    def test_single_char_language(self):
        alphabets = build_edit_alphabets(["a"], ["x"])
        assert alphabets.src.items == ["a"]
        assert alphabets.max_src_len == 1

    def test_fewer_bigrams_than_unigrams(self):
        alphabets = build_edit_alphabets(["abcdef"], ["x"])
        bigrams = [g for g in alphabets.src.items if len(g) == 2]
        assert len(bigrams) == 5  # only five exist in one six-letter word

    def test_operation_count(self):
        alphabets = unigram_alphabets("ab", "xy")
        assert len(list(edit_operations(alphabets))) == 3 * 3 - 1


class TestForwardBackward:
    def test_uniform_example(self):
        model = uniform_ab_model()
        alpha = _forward_table("a", "b", model)
        np.testing.assert_allclose(alpha, [[1, 1 / 3], [1 / 3, 5 / 9]], atol=1e-12)

    def test_empty_pair(self):
        model = uniform_ab_model()
        assert _forward_table("", "", model)[0][0] == 1.0
        beta = _backward_table("", "", model)
        assert beta[0][0] == 1.0

    def test_forced_single_path(self):
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 1.0})
        assert _forward_table("a", "b", model)[1][1] == 1.0
        assert _forward_table("aa", "b", model)[2][1] == 0.0

    def test_backward_table_values(self):
        model = uniform_ab_model()
        beta = _backward_table("a", "b", model)
        assert beta[1][1] == 1.0
        assert beta[0][1] == pytest.approx(1 / 3, abs=1e-12)  # remaining ("a", "")
        assert beta[1][0] == pytest.approx(1 / 3, abs=1e-12)
        assert beta[0][0] == pytest.approx(5 / 9, abs=1e-12)

    def test_backward_zero_equals_forward_full(self):
        rng = np.random.default_rng(0)
        alphabets = build_edit_alphabets(["abc", "cab", "bca"], ["xyz", "zyx"])
        theta = random_theta(rng, alphabets)
        model = EditModel(alphabets, theta)
        for x, z in [("abc", "xy"), ("a", "zzz"), ("cab", "x"), ("", "zy")]:
            p = _forward_table(x, z, model)[len(x)][len(z)]
            beta = _backward_table(x, z, model)
            assert beta[0][0] == pytest.approx(p, abs=1e-12)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(1)
        alphabets = build_edit_alphabets(["aab", "bba"], ["xyy", "yxx"])
        for _ in range(5):
            theta = random_theta(rng, alphabets)
            model = EditModel(alphabets, theta)
            for x in ("", "a", "ab", "aba"):
                for z in ("", "y", "yx", "xyx"):
                    expected = enumerate_edit_probability(
                        x, z, theta, alphabets.max_src_len, alphabets.max_tgt_len
                    )
                    p = _forward_table(x, z, model)[len(x)][len(z)]
                    assert p == pytest.approx(expected, abs=1e-12)

    def test_uncovered_character_rejected(self):
        model = uniform_ab_model()
        with pytest.raises(AlphabetCoverageError):
            log_edit_probability("q", "b", model)
        with pytest.raises(AlphabetCoverageError):
            log_edit_probability("a", "q", model)


def bigram_pairs(seed):
    """Random pairs over alphabets with bigrams, plus the pairs EM skips or
    treats specially: an empty side each way, an uncovered character, and a
    180-character pair whose probability underflows to zero in linear
    space, so EM recomputes it in log space. It alone holds "g"."""
    rng = np.random.default_rng(seed)

    def word(chars, size):
        return "".join(rng.choice(list(chars), size=size))

    pairs = [
        (word("abcdef", rng.integers(1, 7)), word("uvwxyz", rng.integers(1, 7)))
        for _ in range(25)
    ]
    src_words = [x for x, _ in pairs] + ["g"]
    alphabets = build_edit_alphabets(src_words, [z for _, z in pairs])
    long_pair = ("g" + word("abcdef", 179), word("uvwxyz", 180))
    pairs += [("", "vw"), ("ab", ""), ("aq", "vw"), long_pair]
    return pairs, alphabets


class TestAgainstSeparatePasses:
    # The backward table is the forward table of the reversed strings, and
    # EM reads its posterior counts from the forward pass; both must equal
    # the separate passes of the reference bit for bit.
    @pytest.mark.parametrize("seed", [0, 1])
    def test_backward_and_forward_tables_equal_reference(self, seed):
        pairs, alphabets = bigram_pairs(seed)
        model = EditModel(alphabets, random_theta(np.random.default_rng(seed), alphabets))
        max_j, max_k = alphabets.max_src_len, alphabets.max_tgt_len
        for x, z in pairs[:-2]:  # neither the uncovered nor the long pair
            assert _backward_table(x, z, model) == reference_backward_table(
                x, z, model.theta, max_j, max_k
            )
            assert _forward_table(x, z, model) == reference_forward_table(
                x, z, model.theta, max_j, max_k
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_em_train_equals_reference(self, seed):
        pairs, alphabets = bigram_pairs(seed)
        model = em_train(pairs, alphabets, iterations=3)
        theta, log_likelihoods, uncovered, zero = reference_em_train(pairs, alphabets, 3)
        stats = model.training_stats
        assert model.theta == theta
        assert stats.log_likelihoods == log_likelihoods
        assert (stats.skipped_uncovered, stats.skipped_zero_prob) == (uncovered, zero) == (1, 0)
        assert model.theta[("g", "")] > 0.0  # learned from the long pair alone

    @pytest.mark.parametrize("seed", [0, 1])
    def test_underflowing_pair_gets_its_log_probability(self, seed):
        pairs, alphabets = bigram_pairs(seed)
        x, z = pairs[-1]
        model = EditModel(alphabets, random_theta(np.random.default_rng(seed), alphabets))
        assert _forward_table(x, z, model)[len(x)][len(z)] == 0.0
        expected = decimal_log_probability(
            x, z, model.theta, alphabets.max_src_len, alphabets.max_tgt_len
        )
        got = log_edit_probability(x, z, model)
        assert math.isfinite(got) and got < math.log(np.finfo(float).tiny)
        assert abs(got - expected) <= 1e-9 * abs(expected)
        # The log-space tables of a pair that does not underflow equal the
        # linear ones up to rounding.
        short = pairs[0]
        assert log_edit_probability(*short, model) == math.log(
            _forward_table(*short, model)[len(short[0])][len(short[1])]
        )
        log_table = _log_forward_table(*short, model)
        np.testing.assert_allclose(
            np.exp(log_table), _forward_table(*short, model), rtol=1e-12, atol=0
        )

    def test_underflowing_pair_is_trained_not_skipped(self):
        # Under the uniform start the long pair's linear probability is 0.0;
        # its log probability enters the first log-likelihood.
        pairs, alphabets = bigram_pairs(0)
        ops = list(edit_operations(alphabets))
        uniform = EditModel(alphabets, dict.fromkeys(ops, 1.0 / len(ops)))
        short, long_pair = pairs[0], pairs[-1]
        assert _forward_table(*long_pair, uniform)[len(long_pair[0])][len(long_pair[1])] == 0.0
        model = em_train([short, long_pair], alphabets, iterations=1)
        assert model.training_stats.skipped_zero_prob == 0
        max_j, max_k = alphabets.max_src_len, alphabets.max_tgt_len
        expected = sum(
            decimal_log_probability(x, z, uniform.theta, max_j, max_k) for x, z in (short, long_pair)
        )
        (got,) = model.training_stats.log_likelihoods
        assert abs(got - expected) <= 1e-9 * abs(expected)

    def test_reversed_model_reverses_both_sides(self):
        alphabets = build_edit_alphabets(["ab"], ["xy"])
        model = EditModel(alphabets, random_theta(np.random.default_rng(5), alphabets))
        rev = model.reversed()
        assert rev is model.reversed()
        assert rev.theta[("ba", "yx")] == model.theta[("ab", "xy")]
        assert rev.theta[("ba", "")] == model.theta[("ab", "")]


def sparse_theta(rng, alphabets, zero_share, zero_insertions=False):
    """random_theta with a share of its operations, and if asked every
    insertion, set to probability zero, renormalized."""
    theta = random_theta(rng, alphabets)
    for op in theta:
        if rng.random() < zero_share or (zero_insertions and op[0] == ""):
            theta[op] = 0.0
    total = sum(theta.values())
    return {op: p / total for op, p in theta.items()}


class TestForwardTableEqualsReference:
    # The recursion reads theta by source gram; every cell must still sum
    # the reference's terms in its order, so the tables are equal, not close.
    @pytest.mark.parametrize(
        "seed, zero_share, zero_insertions",
        [(0, 0.0, False), (1, 0.5, False), (2, 0.9, False), (3, 0.3, True)],
    )
    def test_full_table(self, seed, zero_share, zero_insertions):
        pairs, alphabets = bigram_pairs(seed)
        rng = np.random.default_rng(seed)
        model = EditModel(alphabets, sparse_theta(rng, alphabets, zero_share, zero_insertions))
        max_j, max_k = alphabets.max_src_len, alphabets.max_tgt_len
        # Neither the uncovered nor the long pair; insert-only and
        # delete-only pairs of each length.
        pairs = pairs[:-2] + [("", ""), ("", "u"), ("", "vwx"), ("a", ""), ("cab", "")]
        for x, z in pairs:
            for m, (xm, zm) in ((model, (x, z)), (model.reversed(), (x[::-1], z[::-1]))):
                assert _forward_table(xm, zm, m) == reference_forward_table(
                    xm, zm, m.theta, max_j, max_k
                )
        if zero_insertions:
            assert _forward_table("", "vwx", model)[0] == [1.0, 0.0, 0.0, 0.0]

    def test_theta_rows_hold_the_non_zero_operations(self):
        alphabets = unigram_alphabets("ab", "x")
        theta = {("a", "x"): 0.5, ("a", ""): 0.0, ("", "x"): 0.25, ("b", ""): 0.25}
        model = EditModel(alphabets, theta)
        assert model.theta_rows == {"a": {"x": 0.5}, "": {"x": 0.25}, "b": {"": 0.25}}
        assert model.theta_rows is model.theta_rows


def chunked_pairs():
    """Pairs of mixed lengths over alphabets with bigrams, more than one
    chunk holds, with an empty side each way, an uncovered pair, a duplicate
    and, second, the 180-character pair whose linear probability underflows
    to zero under the uniform start."""
    rng = np.random.default_rng(8)

    def word(chars, size):
        return "".join(rng.choice(list(chars), size=size))

    pairs = [
        (word("abcdef", rng.integers(1, 9)), word("uvwxyz", rng.integers(1, 9)))
        for _ in range(120)
    ]
    alphabets = build_edit_alphabets([x for x, _ in pairs] + ["g"], [z for _, z in pairs])
    pairs[40:40] = [("", "vw"), ("ab", ""), ("aq", "vw"), pairs[30]]
    pairs.insert(1, ("g" + word("abcdef", 179), word("uvwxyz", 180)))
    return pairs, alphabets


@pytest.fixture(scope="module")
def chunked_reference():
    pairs, alphabets = chunked_pairs()
    return reference_em_train(pairs, alphabets, 3)


class TestBatchedEm:
    # EM runs a chunk of pairs at once; the chunk size must not show in
    # the result. Chunks of a few pairs, the default, and chunks wide enough
    # that the underflowing pair sits inside one, between short pairs.
    @pytest.mark.parametrize(
        "chunk_bytes", [1 << 12, None, 3 * 181 * 181 * 9 * 8],
        ids=["few-pairs", "default", "long-pair-mid-chunk"],
    )
    def test_equals_reference(self, monkeypatch, chunked_reference, chunk_bytes):
        pairs, alphabets = chunked_pairs()
        if chunk_bytes:
            monkeypatch.setattr(edit_model, "_EM_CHUNK_BYTES", chunk_bytes)
        usable = [pair for pair in pairs if pair != ("aq", "vw")]
        chunks = _em_chunks(usable, 9)
        assert len(chunks) > 1
        if chunk_bytes == 3 * 181 * 181 * 9 * 8:
            assert chunks[0] == (0, 3)  # the long pair is usable[1]
        ops = list(edit_operations(alphabets))
        uniform = EditModel(alphabets, dict.fromkeys(ops, 1.0 / len(ops)))
        long_pair = pairs[1]
        assert _forward_table(*long_pair, uniform)[len(long_pair[0])][len(long_pair[1])] == 0.0

        model = em_train(pairs, alphabets, iterations=3)
        theta, log_likelihoods, uncovered, zero = chunked_reference
        stats = model.training_stats
        assert model.theta == theta
        assert stats.log_likelihoods == log_likelihoods
        assert stats.skipped_uncovered == uncovered == 1
        assert stats.skipped_zero_prob == zero == 0

    def test_memory_is_bounded_by_the_chunk(self):
        rng = np.random.default_rng(10)
        cipher = dict(zip("abcdefghijklmnopqrst", "αβγδεζηθικλμνξοπρστυ"))
        words = ["".join(rng.choice(list(cipher), size=rng.integers(3, 9))) for _ in range(2000)]
        pairs = [(w, "".join(cipher[c] for c in w)) for w in words]
        alphabets = build_edit_alphabets(words, [z for _, z in pairs])
        em_train(pairs[:50], alphabets, iterations=1)  # lazy imports and caches
        peaks = []
        for n in (200, 2000):
            tracemalloc.start()
            try:
                em_train(pairs[:n], alphabets, iterations=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] <= 10 * edit_model._EM_CHUNK_BYTES

    def test_logs_each_iteration_and_the_skips(self, caplog):
        pairs, alphabets = bigram_pairs(0)
        pairs = pairs[:-1]  # 27 usable pairs and the uncovered one
        with caplog.at_level("INFO", logger="orthomap.edit_model"):
            model = em_train(pairs, alphabets, iterations=2)
        first, second = model.training_stats.log_likelihoods
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("INFO", f"em iteration 1/2: log-likelihood {first:.6f} over 27 pairs"),
            ("INFO", f"em iteration 2/2: log-likelihood {second:.6f} over 27 pairs"),
            ("WARNING", "EM skipped 1 uncovered and 0 zero-probability pairs"),
        ]


class TestEmTrain:
    def test_single_pair_worked_example(self):
        alphabets = unigram_alphabets("a", "b")
        model = em_train([("a", "b")], alphabets, iterations=1)
        assert model.theta[("a", "b")] == pytest.approx(3 / 7, abs=1e-12)
        assert model.theta[("a", "")] == pytest.approx(2 / 7, abs=1e-12)
        assert model.theta[("", "b")] == pytest.approx(2 / 7, abs=1e-12)
        assert _forward_table("a", "b", model)[1][1] == pytest.approx(29 / 49, abs=1e-12)
        assert math.exp(model.training_stats.log_likelihoods[0]) == pytest.approx(5 / 9)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(2)
        src_chars = "abc"
        tgt_chars = "xyz"
        pairs = [
            (
                "".join(rng.choice(list(src_chars), size=rng.integers(1, 5))),
                "".join(rng.choice(list(tgt_chars), size=rng.integers(1, 5))),
            )
            for _ in range(30)
        ]
        alphabets = build_edit_alphabets([x for x, _ in pairs], [z for _, z in pairs])
        model = em_train(pairs, alphabets, iterations=10)
        lls = model.training_stats.log_likelihoods
        for before, after in zip(lls, lls[1:]):
            assert after >= before - 1e-9 * abs(before)

    def test_theta_stays_normalized(self):
        rng = np.random.default_rng(3)
        pairs = [
            (
                "".join(rng.choice(list("ab"), size=rng.integers(1, 4))),
                "".join(rng.choice(list("xy"), size=rng.integers(1, 4))),
            )
            for _ in range(12)
        ]
        alphabets = build_edit_alphabets([x for x, _ in pairs], [z for _, z in pairs])
        model = em_train(pairs, alphabets, iterations=4)
        assert sum(model.theta.values()) == pytest.approx(1.0, abs=1e-9)

    def test_posterior_counts_sum_to_expected_operations(self):
        # One E-step accumulates, per pair, the expected number of
        # operations in the posterior path distribution.
        alphabets = unigram_alphabets("a", "b")
        ops = list(edit_operations(alphabets))
        theta = dict.fromkeys(ops, 1.0 / len(ops))
        counts, expected_ops, total = enumerate_posterior_stats("a", "b", theta, 1, 1)
        model = em_train([("a", "b")], alphabets, iterations=1)
        posterior_mass = sum(counts.values())
        assert posterior_mass == pytest.approx(expected_ops, abs=1e-12)
        renormalized = {op: c / posterior_mass for op, c in counts.items()}
        for op, value in renormalized.items():
            assert model.theta[op] == pytest.approx(value, abs=1e-12)

    def test_cipher_recovery(self):
        rng = np.random.default_rng(4)
        src_chars = "abcdefgh"
        cipher = dict(zip(src_chars, "qrstuvwx"))
        pairs = []
        for _ in range(500):
            word = "".join(rng.choice(list(src_chars), size=rng.integers(3, 7)))
            pairs.append((word, "".join(cipher[c] for c in word)))
        alphabets = build_edit_alphabets([x for x, _ in pairs], [z for _, z in pairs])
        model = em_train(pairs, alphabets, iterations=3)
        hits = 0
        for c in src_chars:
            best, _ = model.best_substitution(c)
            hits += best == cipher[c]
        assert hits >= 0.9 * len(src_chars)

    def test_all_pairs_uncovered_raises(self):
        alphabets = unigram_alphabets("a", "b")
        with pytest.raises(EmTrainingError):
            em_train([("qq", "ww")], alphabets, iterations=1)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            em_train([], unigram_alphabets("a", "b"), iterations=1)


class TestBoost:
    def test_certainty_saturates_at_scale(self):
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 1.0})
        assert edit_similarity_boost("a", "b", model, 0.7) == 0.7

    def test_chance_point_is_exactly_zero(self):
        # (1 + |src|)(1 + |tgt|) = 4 and p = 0.25, so the per-operation log
        # probability sits exactly at chance.
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 0.25, ("a", ""): 0.75})
        assert edit_similarity_boost("a", "b", model, 0.9) == 0.0

    def test_formula_value(self):
        # Worked instance: alphabets of 99 items, so chance is log(10000);
        # five characters at log p = -23.0259 give half the maximum boost.
        value = boost_from_log_prob(-23.0259, 5, 99, 99, scale=2.0)
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_impossible_pair_gives_zero(self):
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 1.0})
        assert edit_similarity_boost("aa", "b", model, 0.5) == 0.0

    def test_monotone_in_probability(self):
        values = [
            boost_from_log_prob(lp, 4, 30, 30, 1.0) for lp in (-30.0, -20.0, -10.0, -1.0)
        ]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lp = -float(rng.uniform(0, 200))
            v = boost_from_log_prob(lp, int(rng.integers(1, 9)), 50, 70, 0.8)
            assert 0.0 <= v <= 0.8

    def test_scale_factors_out_bitwise(self):
        # A sweep scores each candidate once at c = 1 and multiplies by c;
        # that must give the boost at c exactly, c = 0 included.
        rng = np.random.default_rng(6)
        cipher = dict(zip("abcdef", "uvwxyz"))
        words = [
            "".join(rng.choice(list("abcdef"), size=rng.integers(2, 7))) for _ in range(60)
        ]
        pairs = [(w, "".join(cipher[c] for c in w)) for w in words]
        model = em_train(pairs, build_edit_alphabets(words, [z for _, z in pairs]), 2)
        tests = pairs + [(x, z) for (x, _), (_, z) in zip(pairs, reversed(pairs))]
        grid = [0.0, 1e-3, 0.05, 0.3, 0.7, 1.0, 1.4, 3.7]
        units = [edit_similarity_boost(x, z, model, 1.0) for x, z in tests]
        assert 0 < sum(u > 0.0 for u in units) < len(units)
        for (x, z), unit in zip(tests, units):
            for c in grid:
                assert c * unit == edit_similarity_boost(x, z, model, c)


class TestTransliterate:
    def test_forced_unigram_path(self):
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 0.4, ("a", ""): 0.35, ("", "b"): 0.25})
        rendered, score = transliterate("aa", model)
        assert rendered == "bb"
        assert score == pytest.approx(2 * math.log(0.4), abs=1e-12)

    def test_bigram_beats_two_unigrams(self):
        alphabets = EditAlphabets(NgramAlphabet(["a", "aa"]), NgramAlphabet(["b", "c"]))
        theta = {("aa", "c"): 0.9, ("a", "b"): 0.1}
        model = EditModel(alphabets, theta)
        rendered, score = transliterate("aa", model)
        assert rendered == "c"
        assert score == pytest.approx(math.log(0.9), abs=1e-12)

    def test_tie_prefers_longer_segment(self):
        # Bigram path and two-unigram path score identically; the longer
        # source segment wins the tie.
        alphabets = EditAlphabets(NgramAlphabet(["a", "aa"]), NgramAlphabet(["x", "y"]))
        theta = {("aa", "x"): 0.25, ("a", "y"): 0.5, ("", "x"): 0.25}
        model = EditModel(alphabets, theta)
        rendered, score = transliterate("aa", model)
        assert score == pytest.approx(math.log(0.25), abs=1e-12)
        assert rendered == "x"

    def test_epsilon_substitution_drops_out(self):
        alphabets = unigram_alphabets("ab", "x")
        theta = {("a", "x"): 0.5, ("b", ""): 0.5}
        model = EditModel(alphabets, theta)
        rendered, _ = transliterate("aba", model)
        assert rendered == "xx"

    def test_matches_exhaustive_segmentation(self):
        rng = np.random.default_rng(6)
        words = ["abab", "bbaa", "abba", "baba"]
        alphabets = build_edit_alphabets(words, ["xy", "yx", "xxy"])
        for _ in range(10):
            theta = random_theta(rng, alphabets)
            model = EditModel(alphabets, theta)
            for x in ("a", "ab", "bab", "abab"):
                expected = enumerate_transliteration_score(
                    x, theta, set(alphabets.src.items), alphabets.tgt.items,
                    alphabets.max_src_len,
                )
                _, score = transliterate(x, model)
                assert score == pytest.approx(expected, abs=1e-12)

    def test_no_path_raises(self):
        alphabets = unigram_alphabets("ab", "x")
        model = EditModel(alphabets, {("a", "x"): 1.0})  # no operation consumes b
        with pytest.raises(NoTransliterationPath):
            transliterate("ab", model)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            transliterate("", uniform_ab_model())


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        alphabets = build_edit_alphabets(["abc", "cba"], ["xy", "yx"])
        model = EditModel(alphabets, random_theta(rng, alphabets))
        path = tmp_path / "model.tsv"
        model.save(path)
        back = EditModel.load(path)
        assert back.theta == model.theta
        assert back.alphabets.src.items == alphabets.src.items
        assert back.alphabets.tgt.items == alphabets.tgt.items

    def test_epsilon_encoded_as_empty_field(self, tmp_path):
        alphabets = unigram_alphabets("a", "b")
        model = EditModel(alphabets, {("a", "b"): 0.5, ("a", ""): 0.25, ("", "b"): 0.25})
        path = tmp_path / "model.tsv"
        model.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "editmodel\tv1"
        assert "a\t\t0.25" in lines
        assert "\tb\t0.25" in lines

    def test_validation_rejects_bad_tables(self):
        alphabets = unigram_alphabets("a", "b")
        with pytest.raises(ValueError):
            EditModel(alphabets, {("a", "b"): 0.5})  # does not sum to 1
        with pytest.raises(ValueError):
            EditModel(alphabets, {("", ""): 1.0})
