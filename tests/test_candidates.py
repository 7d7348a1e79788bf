"""Deletion variants, the delete index, and candidate pair generation."""

import numpy as np
import pytest

from orthomap.candidates import DeleteIndex, candidate_pairs, delete_variants
from orthomap.edit_model import EditModel, build_edit_alphabets
from oracles import brute_force_candidates


def identity_model(chars):
    """Edit model whose transliteration maps every character to itself."""
    alphabets = build_edit_alphabets(["".join(chars)], ["".join(chars)])
    n = len(chars)
    theta = {(c, c): 1.0 / n for c in chars}
    return EditModel(alphabets, theta)


class TestDeleteVariants:
    def test_single_deletion(self):
        assert delete_variants("abc", 1) == {"abc", "bc", "ac", "ab"}

    def test_duplicates_collapse(self):
        assert delete_variants("aa", 2) == {"aa", "a", ""}

    def test_variant_count_distinct_chars(self):
        # C(4,0) + C(4,1) + C(4,2) distinct strings for distinct characters
        assert len(delete_variants("abcd", 2)) == 1 + 4 + 6

    def test_zero_deletions(self):
        assert delete_variants("xyz", 0) == {"xyz"}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            delete_variants("a", -1)


class TestDeleteIndex:
    def test_every_word_reachable_from_its_variants(self):
        words = ["care", "cat", "cart"]
        index = DeleteIndex.build(words, 2)
        for i, w in enumerate(words):
            for variant in delete_variants(w, 2):
                assert i in index.map[variant]

    def test_insertion_order_irrelevant(self):
        a = DeleteIndex.build(["ab", "ba"], 1).map
        b = DeleteIndex(1)
        b.add("ba", 1)
        b.add("ab", 0)
        assert a == b.map


class TestCandidatePairs:
    def test_exact_transliteration_always_candidate(self):
        model = identity_model("abcd")
        pairs, skipped = candidate_pairs(["abcd"], model, DeleteIndex.build(["abcd", "dcba"], 2))
        assert (0, 0) in pairs
        assert skipped == 0

    def test_two_sided_deletions_match(self):
        model = identity_model("abcdxy")
        pairs, _ = candidate_pairs(["abxcyd"], model, DeleteIndex.build(["abcd"], 2))
        assert (0, 0) in pairs

    def test_too_distant_words_excluded(self):
        model = identity_model("abcdefgh")
        pairs, _ = candidate_pairs(["aaaa"], model, DeleteIndex.build(["hhhh"], 2))
        assert pairs == set()

    def test_untransliterable_words_counted(self):
        model = identity_model("ab")
        pairs, skipped = candidate_pairs(["ab", "zz"], model, DeleteIndex.build(["ab"], 1))
        assert skipped == 1
        assert (0, 0) in pairs

    def test_matches_brute_force_on_random_vocabulary(self):
        rng = np.random.default_rng(0)
        chars = list("abcde")
        words = lambda n: [
            "".join(rng.choice(chars, size=rng.integers(3, 8))) for _ in range(n)
        ]
        src, tgt = words(100), words(100)
        model = identity_model("abcde")
        pairs, _ = candidate_pairs(src, model, DeleteIndex.build(tgt, 2))
        translits = [w for w in src]  # identity model keeps strings
        assert pairs == brute_force_candidates(translits, tgt, 2)

    def test_symmetric_in_deletion_criterion(self):
        rng = np.random.default_rng(1)
        chars = list("abc")
        src = ["".join(rng.choice(chars, size=4)) for _ in range(20)]
        tgt = ["".join(rng.choice(chars, size=4)) for _ in range(20)]
        model = identity_model("abc")
        forward, _ = candidate_pairs(src, model, DeleteIndex.build(tgt, 1))
        backward, _ = candidate_pairs(tgt, model, DeleteIndex.build(src, 1))
        assert forward == {(j, i) for i, j in backward}
