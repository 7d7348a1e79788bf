"""Synthetic cipher-language benchmark for desk-scale validation.

Source words are random strings over a Latin alphabet; target words are
their images under a random character substitution cipher into a disjoint
Greek alphabet. Target embeddings are a shuffled orthogonal rotation of the
source embeddings plus optional Gaussian noise, so at noise 0 the two
spaces are exactly isometric and the ground truth is recoverable.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_io import EmbeddingMatrix, Vocabulary, write_embeddings
from .errors import ConfigError

SOURCE_ALPHABET = "abcdefghijklmnopqrst"
TARGET_ALPHABET = "αβγδεζηθικλμνξοπρστυ"

_MIN_WORD_LEN = 3
_MAX_WORD_LEN = 8


@dataclass
class CipherBenchmark:
    src_embeddings: Path
    tgt_embeddings: Path
    gold_lexicon: Path
    source_words: list
    cipher: dict

    def encipher(self, word):
        return "".join(self.cipher[c] for c in word)


def _random_words(rng, n):
    chars = list(SOURCE_ALPHABET)
    words = []
    seen = set()
    while len(words) < n:
        length = int(rng.integers(_MIN_WORD_LEN, _MAX_WORD_LEN + 1))
        word = "".join(rng.choice(chars, size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def generate_cipher_benchmark(n_words, dim, seed, noise, out_dir):
    """Write paired embedding files and the ground-truth lexicon.

    The target vocabulary order is shuffled so nothing aligns by position.
    Rerunning with the same arguments reproduces the files byte for byte.
    """
    if n_words < 10:
        raise ConfigError("n_words must be at least 10")
    if dim < 2:
        raise ConfigError("dim must be at least 2")
    if not 0.0 <= noise < np.inf:
        raise ConfigError("noise must be finite and non-negative")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    source_words = _random_words(rng, n_words)
    cipher = dict(zip(SOURCE_ALPHABET, rng.permutation(list(TARGET_ALPHABET))))
    target_aligned = ["".join(cipher[c] for c in w) for w in source_words]

    src_data = rng.standard_normal((n_words, dim))
    rotation = _random_orthogonal(rng, dim)
    order = rng.permutation(n_words)
    tgt_data = src_data[order] @ rotation + noise * rng.standard_normal((n_words, dim))
    tgt_words = [target_aligned[i] for i in order]

    src_path = out_dir / "embeddings.src.vec"
    tgt_path = out_dir / "embeddings.tgt.vec"
    gold_path = out_dir / "gold.lexicon.tsv"
    write_embeddings(EmbeddingMatrix(Vocabulary(source_words), src_data), src_path)
    write_embeddings(EmbeddingMatrix(Vocabulary(tgt_words), tgt_data), tgt_path)
    with open(gold_path, "w", encoding="utf-8") as fh:
        for word, image in zip(source_words, target_aligned):
            fh.write(f"{word} {image}\n")
    with open(out_dir / "benchmark.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"n_words": n_words, "dim": dim, "seed": seed, "noise": noise},
            fh,
            indent=2,
        )
    return CipherBenchmark(src_path, tgt_path, gold_path, source_words, cipher)
