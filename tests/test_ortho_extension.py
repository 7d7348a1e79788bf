"""Character n-gram alphabet, count extension, and extension stripping."""

import numpy as np
import pytest

from orthomap.corpus_io import EmbeddingMatrix, Vocabulary
from orthomap.numerics import normalize_embeddings
from orthomap.ortho_extension import (
    NgramAlphabet,
    build_ngram_alphabet,
    extend_embeddings,
    extension_matrix,
    strip_extension,
)
from oracles import count_occurrences


def emb(data, prefix="w"):
    data = np.asarray(data, dtype=float)
    return EmbeddingMatrix(Vocabulary([f"{prefix}{i}" for i in range(len(data))]), data)


class TestAlphabet:
    def test_small_inventories(self):
        alphabet = build_ngram_alphabet(["ab", "ba"], ["яя"], k=100)
        assert {"a", "b", "я"} <= set(alphabet.items)
        assert len(alphabet) <= 4 * 100

    def test_k_one_single_word(self):
        alphabet = build_ngram_alphabet(["aa"], ["aa"], k=1)
        assert alphabet.items == ["a", "aa"]

    def test_identical_vocabularies_dedup(self):
        words = ["abc", "bca", "cab"]
        both = build_ngram_alphabet(words, words, k=5)
        single = build_ngram_alphabet(words, ["x"], k=5)
        assert [g for g in both.items] == [g for g in single.items if g != "x"]

    def test_order_frequency_then_lexicographic(self):
        # b appears 3 times, a twice, c once; ties broken alphabetically.
        alphabet = build_ngram_alphabet(["bba", "bac"], ["z"], k=3)
        unigrams = [g for g in alphabet.items if len(g) == 1 and g != "z"]
        assert unigrams == ["b", "a", "c"]

    def test_source_items_come_first(self):
        alphabet = build_ngram_alphabet(["ab"], ["cd"], k=2)
        assert alphabet.items.index("a") < alphabet.items.index("c")

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            build_ngram_alphabet([], ["a"], k=1)


class TestExtensionMatrix:
    def test_counts_scaled(self):
        alphabet = NgramAlphabet(["a", "b", "ab", "ba"])
        row = extension_matrix(["aba"], alphabet, 0.2)[0]
        np.testing.assert_allclose(row, [0.4, 0.2, 0.2, 0.2])

    def test_word_without_items_gives_zero_row(self):
        alphabet = NgramAlphabet(["x"])
        np.testing.assert_array_equal(extension_matrix(["abc"], alphabet, 1.0), [[0.0]])

    def test_zero_scale(self):
        alphabet = NgramAlphabet(["a"])
        np.testing.assert_array_equal(extension_matrix(["aaa"], alphabet, 0.0), [[0.0]])

    def test_overlapping_bigrams_counted(self):
        assert count_occurrences("aa", "aaa") == 2
        alphabet = NgramAlphabet(["aa"])
        np.testing.assert_allclose(extension_matrix(["aaa"], alphabet, 0.3), [[0.6]])
        words = ["aaa", "abab", "ba", "b", ""]
        alphabet = NgramAlphabet(["a", "b", "aa", "ab", "ba", "bb"])
        expected = [[count_occurrences(g, w) for g in alphabet.items] for w in words]
        np.testing.assert_array_equal(extension_matrix(words, alphabet, 1.0), expected)


class TestExtendAndStrip:
    def test_shapes(self):
        e = emb(np.arange(6.0).reshape(2, 3))
        out = extend_embeddings(e, np.ones((2, 4)))
        assert out.data.shape == (2, 7)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1, atol=1e-9)

    def test_zero_extension_matches_plain_normalization(self):
        rng = np.random.default_rng(0)
        e = emb(rng.standard_normal((5, 3)))
        extended = extend_embeddings(e, np.zeros((5, 2)))
        plain = normalize_embeddings(e)
        np.testing.assert_allclose(extended.data[:, :3], plain.data, atol=1e-12)
        np.testing.assert_array_equal(extended.data[:, 3:], np.zeros((5, 2)))

    def test_row_mismatch_rejected(self):
        e = emb(np.ones((2, 3)))
        with pytest.raises(ValueError):
            extend_embeddings(e, np.ones((3, 1)))

    def test_strip_recovers_normalized_base_at_zero_scale(self):
        rng = np.random.default_rng(1)
        e = emb(rng.standard_normal((6, 4)))
        extended = extend_embeddings(e, np.zeros((6, 3)))
        stripped = strip_extension(extended, 3)
        np.testing.assert_allclose(stripped.data, normalize_embeddings(e).data, atol=1e-9)

    def test_strip_zero_columns_renormalizes_only(self):
        rng = np.random.default_rng(2)
        e = normalize_embeddings(emb(rng.standard_normal((4, 3))))
        stripped = strip_extension(e, 0)
        np.testing.assert_allclose(stripped.data, e.data, atol=1e-12)

    def test_strip_range_check(self):
        e = emb(np.ones((2, 3)))
        with pytest.raises(ValueError):
            strip_extension(e, 3)

    def test_extension_weight_grows_with_scale(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 5))
        alphabet = NgramAlphabet(["a", "b"])
        words = ["ab", "ba", "aab", "bb"]
        fractions = []
        for scale in (0.1, 0.5, 1.0, 2.0):
            ext = extension_matrix(words, alphabet, scale)
            combined = np.hstack([base, ext])
            sq = combined**2
            fractions.append(sq[:, 5:].sum(axis=1) / sq.sum(axis=1))
        for smaller, larger in zip(fractions, fractions[1:]):
            assert (larger > smaller).all()
