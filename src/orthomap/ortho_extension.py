"""Character n-gram embedding extension.

Appends scaled unigram/bigram count columns to both embedding matrices so
that the orthogonal maps can pick up spelling correspondences, even across
scripts. The extra columns are stripped again before the whitened final
iteration (the counts are heavily correlated, which breaks whitening).
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import EmbeddingMatrix
from .numerics import normalize_embeddings, normalize_rows


@dataclass
class NgramAlphabet:
    """Ordered character n-gram inventory with position lookup."""

    items: list
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {g: i for i, g in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise ValueError("alphabet items must be unique")
        if any(len(g) not in (1, 2) for g in self.items):
            raise ValueError("alphabet items must be unigrams or bigrams")

    def __len__(self):
        return len(self.items)

    def __contains__(self, item):
        return item in self.index


def ngram_frequencies(words):
    """Unigram and bigram occurrence counts over a list of word types."""
    unigrams = Counter()
    bigrams = Counter()
    for w in words:
        unigrams.update(w)
        bigrams.update(w[i : i + 2] for i in range(len(w) - 1))
    return unigrams, bigrams


def top_ngrams(counter, k):
    """The k most frequent n-grams, frequency-descending, ties lexicographic."""
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return [g for g, _ in ranked[:k]]


def build_ngram_alphabet(src_words, tgt_words, k):
    """Union of the top-k unigrams and bigrams of each language.

    Order is deterministic: source items first, unigrams before bigrams,
    frequency-descending with lexicographic tie-break, duplicates dropped.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not src_words or not tgt_words:
        raise ValueError("empty vocabulary")
    items = []
    seen = set()
    for words in (src_words, tgt_words):
        unigrams, bigrams = ngram_frequencies(words)
        for group in (top_ngrams(unigrams, k), top_ngrams(bigrams, k)):
            for g in group:
                if g not in seen:
                    seen.add(g)
                    items.append(g)
    return NgramAlphabet(items)


def extension_matrix(words, alphabet, scale):
    """Scaled n-gram count matrix: entry (i, j) = scale * count(item j, word i)."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    out = np.zeros((len(words), len(alphabet)))
    for i, w in enumerate(words):
        counts = Counter(w)
        counts.update(w[p : p + 2] for p in range(len(w) - 1))
        for g, c in counts.items():
            j = alphabet.index.get(g)
            if j is not None:
                out[i, j] = scale * c
    return out


def extend_embeddings(emb, extension):
    """Append extension columns and run the standard normalization pass.

    The caller keeps the original dimension count so strip_extension can
    undo the concatenation before the final iteration.
    """
    if extension.shape[0] != emb.data.shape[0]:
        raise ValueError(
            f"row mismatch: {emb.data.shape[0]} embeddings, {extension.shape[0]} extension rows"
        )
    combined = EmbeddingMatrix(emb.vocab, np.hstack([emb.data, extension]))
    return normalize_embeddings(combined)


def strip_extension(emb, n_extension_cols):
    """Drop the trailing extension columns and length-renormalize the rows.

    With n_extension_cols = 0 this reduces to a row renormalization, so the
    plain and extended pipelines share one final-iteration preamble.
    """
    if n_extension_cols < 0 or n_extension_cols >= emb.dim:
        raise ValueError("extension column count out of range")
    base = emb.data[:, : emb.dim - n_extension_cols]
    return EmbeddingMatrix(emb.vocab, normalize_rows(base))
