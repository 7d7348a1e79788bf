"""Cipher benchmark generator."""

import numpy as np
import pytest

from orthomap.benchmark import (
    SOURCE_ALPHABET,
    TARGET_ALPHABET,
    generate_cipher_benchmark,
)
from orthomap.corpus_io import load_embeddings, load_ref_lexicon
from orthomap.errors import ConfigError


def test_cipher_is_a_bijection(tiny_benchmark):
    cipher = tiny_benchmark.cipher
    assert sorted(cipher) == sorted(SOURCE_ALPHABET)
    assert sorted(cipher.values()) == sorted(TARGET_ALPHABET)
    decipher = {v: k for k, v in cipher.items()}
    for word in tiny_benchmark.source_words:
        assert "".join(decipher[c] for c in tiny_benchmark.encipher(word)) == word


def test_alphabets_are_disjoint():
    assert not set(SOURCE_ALPHABET) & set(TARGET_ALPHABET)


def test_gold_matches_cipher(tiny_benchmark):
    gold = load_ref_lexicon(tiny_benchmark.gold_lexicon)
    assert len(gold.pairs) == 100
    for word, translations in gold.pairs.items():
        assert translations == {tiny_benchmark.encipher(word)}


def test_noiseless_spaces_exactly_isometric(tiny_benchmark):
    src = load_embeddings(tiny_benchmark.src_embeddings)
    tgt = load_embeddings(tiny_benchmark.tgt_embeddings)
    gold = load_ref_lexicon(tiny_benchmark.gold_lexicon)
    # Gram matrices of aligned rows agree: rotation preserves dot products.
    aligned = np.array(
        [tgt.data[tgt.vocab.index[next(iter(gold.pairs[w]))]] for w in src.vocab.words]
    )
    np.testing.assert_allclose(src.data @ src.data.T, aligned @ aligned.T, atol=1e-9)


def test_same_seed_reproduces_files(tmp_path):
    a = generate_cipher_benchmark(30, 4, seed=5, noise=0.2, out_dir=tmp_path / "a")
    b = generate_cipher_benchmark(30, 4, seed=5, noise=0.2, out_dir=tmp_path / "b")
    for name in ("embeddings.src.vec", "embeddings.tgt.vec", "gold.lexicon.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_argument_validation(tmp_path):
    with pytest.raises(ConfigError):
        generate_cipher_benchmark(5, 4, seed=0, noise=0.0, out_dir=tmp_path)
    with pytest.raises(ConfigError):
        generate_cipher_benchmark(30, 1, seed=0, noise=0.0, out_dir=tmp_path)
