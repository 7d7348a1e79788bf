"""Transliteration plus Symmetric-Delete candidate filtering.

Scoring every word pair with the edit model is quadratic; instead, each
source word is transliterated into the target script and matched against
target words that share a string reachable by at most k character deletions
from each side. Index construction and lookup are linear in vocabulary size.
"""

from .edit_model import transliterate
from .errors import AlphabetCoverageError, NoTransliterationPath


def delete_variants(word, k):
    """All strings obtainable by deleting up to k characters, word included."""
    if k < 0:
        raise ValueError("k must be non-negative")
    variants = {word}
    frontier = {word}
    for _ in range(k):
        new = set()
        for w in frontier:
            for i in range(len(w)):
                new.add(w[:i] + w[i + 1 :])
        frontier = new - variants
        variants |= frontier
        if not frontier:
            break
    return variants


class DeleteIndex:
    """Maps every deletion variant to the indices of words producing it.

    Holds up to sum over words of C(len(word), <=k) entries; at k = 2 that
    stays modest even for large vocabularies.
    """

    def __init__(self, k):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self.map = {}

    def add(self, word, idx):
        for variant in delete_variants(word, self.k):
            self.map.setdefault(variant, set()).add(idx)

    @classmethod
    def build(cls, words, k):
        index = cls(k)
        for i, w in enumerate(words):
            index.add(w, i)
        return index


def candidate_pairs(src_words, tgt_words, model, k=2, index=None):
    """Pairs whose transliteration and target share a deletion variant.

    Returns (pairs, skipped) where skipped counts source words without a
    transliteration path; the caller reports them. A transliteration
    identical to a target word is always a candidate (the zero-deletion
    variant matches). ``index``, the DeleteIndex of ``tgt_words`` at k, is
    built when not given.
    """
    if index is None:
        index = DeleteIndex.build(tgt_words, k)
    pairs = set()
    skipped = 0
    for i, word in enumerate(src_words):
        try:
            rendered, _ = transliterate(word, model)
        except (NoTransliterationPath, AlphabetCoverageError):
            skipped += 1
            continue
        hits = set()
        for variant in delete_variants(rendered, k):
            found = index.map.get(variant)
            if found:
                hits |= found
        pairs.update((i, j) for j in hits)
    return pairs, skipped
