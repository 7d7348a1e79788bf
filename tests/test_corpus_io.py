"""File ingestion, pivot composition, and lexicon output."""

import numpy as np
import pytest

from orthomap.corpus_io import (
    EmbeddingMatrix,
    RefLexicon,
    SparseDictionary,
    Vocabulary,
    build_pivot_lexicon,
    load_embeddings,
    load_ref_lexicon,
    read_lexicon_tsv,
    write_embeddings,
    write_lexicon,
)
from orthomap.errors import InputFormatError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_basic_format(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        emb = load_embeddings(p)
        assert emb.vocab.words == ["a", "b"]
        np.testing.assert_array_equal(emb.data, [[1, 0, 0], [0, 1, 0]])

    def test_max_vocab_truncation(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 3\na 1 0 0\nb 0 1 0\n")
        emb = load_embeddings(p, max_vocab=1)
        assert emb.vocab.words == ["a"]
        assert emb.data.shape == (1, 3)

    def test_arity_error(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 3\na 1 0\nb 0 1 0\n")
        with pytest.raises(InputFormatError, match=":2"):
            load_embeddings(p)

    def test_non_numeric_error(self, tmp_path):
        p = write(tmp_path / "e.vec", "1 2\na 1 x\n")
        with pytest.raises(InputFormatError, match="non-numeric"):
            load_embeddings(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "e.vec", "1 2\na 1 nan\n")
        with pytest.raises(InputFormatError, match="non-finite"):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "e.vec", "")
        with pytest.raises(InputFormatError, match="header"):
            load_embeddings(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = write(tmp_path / "e.vec", "5 2\na 1 0\nb 0 1\nc 1 1\n")
        with pytest.raises(InputFormatError, match=r"after 3 of 5 rows \(header declares 5\)"):
            load_embeddings(p)
        with pytest.raises(InputFormatError, match=r"after 3 of 4 rows \(header declares 5\)"):
            load_embeddings(p, max_vocab=4)
        assert load_embeddings(p, max_vocab=3).vocab.words == ["a", "b", "c"]

    def test_header_only_file_rejected(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 3\n")
        with pytest.raises(InputFormatError, match="after 0 of 2 rows"):
            load_embeddings(p)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "e.vec", "two 3\na 1 0 0\n")
        with pytest.raises(InputFormatError, match="header"):
            load_embeddings(p)

    def test_duplicates_keep_first(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 2\na 1 0\na 9 9\nb 0 1\n")
        emb = load_embeddings(p)
        assert emb.vocab.words == ["a", "b"]
        np.testing.assert_array_equal(emb.data[0], [1, 0])

    def test_order_preserved(self, tmp_path):
        words = [f"w{i}" for i in range(40)]
        body = "".join(f"{w} {i} 0\n" for i, w in enumerate(words))
        p = write(tmp_path / "e.vec", f"40 2\n{body}")
        emb = load_embeddings(p)
        assert emb.vocab.words == words

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(Vocabulary(["x", "y", "z"]), rng.standard_normal((3, 4)))
        path = tmp_path / "out.vec"
        write_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.vocab.words == emb.vocab.words
        np.testing.assert_array_equal(back.data, emb.data)


class TestRefLexicon:
    def test_grouping(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ndog пёс\n")
        ref = load_ref_lexicon(p)
        assert ref.pairs == {"dog": {"собака", "пёс"}}

    def test_duplicate_lines_collapse(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ndog собака\n")
        ref = load_ref_lexicon(p)
        assert ref.pairs == {"dog": {"собака"}}

    def test_empty_file_gives_empty_lexicon(self, tmp_path):
        p = write(tmp_path / "l.txt", "")
        assert load_ref_lexicon(p).pairs == {}

    def test_field_count_error(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака пёс\n")
        with pytest.raises(InputFormatError, match="2 fields"):
            load_ref_lexicon(p)

    def test_every_source_kept(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ncat кот\n")
        assert set(load_ref_lexicon(p).pairs) == {"dog", "cat"}


class TestPivotLexicon:
    def test_single_pivot_composes(self):
        x_to_e = RefLexicon({"trudna": {"difficult"}})
        e_to_z = RefLexicon({"difficult": {"трудно"}})
        assert build_pivot_lexicon(x_to_e, e_to_z).pairs == {"trudna": {"трудно"}}

    def test_multiple_pivots_exclude_source(self):
        x_to_e = RefLexicon({"w": {"a", "b"}})
        e_to_z = RefLexicon({"a": {"x"}, "b": {"y"}})
        assert build_pivot_lexicon(x_to_e, e_to_z).pairs == {}

    def test_pivot_fanout_kept(self):
        x_to_e = RefLexicon({"w": {"k"}})
        e_to_z = RefLexicon({"k": {"z1", "z2"}})
        assert build_pivot_lexicon(x_to_e, e_to_z).pairs == {"w": {"z1", "z2"}}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_pivot_lexicon(RefLexicon({}), RefLexicon({"a": {"b"}}))

    def test_never_emits_multi_pivot_sources(self):
        rng = np.random.default_rng(1)
        src = [f"s{i}" for i in range(30)]
        piv = [f"e{i}" for i in range(10)]
        tgt = [f"t{i}" for i in range(10)]
        x_to_e = {
            s: {piv[j] for j in rng.choice(10, size=rng.integers(1, 4), replace=False)}
            for s in src
        }
        e_to_z = {p: {tgt[int(rng.integers(10))]} for p in piv}
        out = build_pivot_lexicon(RefLexicon(x_to_e), RefLexicon(e_to_z))
        for s in out.pairs:
            assert len(x_to_e[s]) == 1


class TestWriteLexicon:
    def test_line_format_with_score(self, tmp_path):
        d = SparseDictionary([0], [1], [2])
        path = tmp_path / "lex.tsv"
        write_lexicon(d, Vocabulary(["a"]), Vocabulary(["x", "b"]), path, scores=[0.9])
        assert path.read_text(encoding="utf-8") == "a\tb\t2\t0.900000\n"

    def test_score_column_omitted(self, tmp_path):
        d = SparseDictionary([0], [0], [1])
        path = tmp_path / "lex.tsv"
        write_lexicon(d, Vocabulary(["a"]), Vocabulary(["b"]), path)
        assert path.read_text(encoding="utf-8") == "a\tb\t1\n"

    def test_empty_dictionary(self, tmp_path):
        d = SparseDictionary([], [], [])
        path = tmp_path / "lex.tsv"
        write_lexicon(d, Vocabulary(["a"]), Vocabulary(["b"]), path)
        assert path.read_text(encoding="utf-8") == ""

    def test_deterministic_order(self, tmp_path):
        d = SparseDictionary([1, 0, 1], [0, 1, 1], [1, 1, 1])
        path = tmp_path / "lex.tsv"
        write_lexicon(d, Vocabulary(["a", "b"]), Vocabulary(["x", "y"]), path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "a\ty\t1",
            "b\tx\t1",
            "b\ty\t1",
        ]

    def test_read_back(self, tmp_path):
        d = SparseDictionary([0, 1], [1, 0], [1, 1])
        path = tmp_path / "lex.tsv"
        write_lexicon(d, Vocabulary(["a", "b"]), Vocabulary(["x", "y"]), path)
        assert read_lexicon_tsv(path) == {"a": "y", "b": "x"}


class TestTypes:
    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    def test_embedding_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(Vocabulary(["a", "b"]), np.zeros((3, 2)))

    def test_dictionary_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            SparseDictionary([0], [0], [3])

    def test_dictionary_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseDictionary([0, 0], [1, 1], [1, 1])

    def test_dictionary_bounds(self):
        with pytest.raises(ValueError):
            SparseDictionary([5], [0], [1], n_src=3, n_tgt=3)

    @pytest.mark.parametrize("weight", [0, 3, -1])
    def test_dictionary_rejects_each_bad_weight(self, weight):
        with pytest.raises(ValueError, match="weights must be 1 or 2"):
            SparseDictionary([0, 1, 2], [0, 1, 2], [1, weight, 2])

    @pytest.mark.parametrize(
        "src, tgt",
        [([0, 0], [1, 1]), ([0, 1, 0], [1, 0, 1]), ([2, 0, 2], [0, 1, 0])],
        ids=["adjacent", "apart", "unsorted"],
    )
    def test_dictionary_rejects_duplicates_in_any_order(self, src, tgt):
        with pytest.raises(ValueError, match="duplicate"):
            SparseDictionary(src, tgt, [1] * len(src))

    def test_increasing_pairs_skip_the_sort(self, monkeypatch):
        # induce_dictionary builds its entries in increasing (source,
        # target) order; those are distinct without np.unique.
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        d = SparseDictionary([0, 0, 1, 3], [1, 2, 0, 0], [1, 2, 2, 1])
        assert len(d) == 4
        with pytest.raises(AssertionError, match="np.unique"):
            SparseDictionary([1, 0], [0, 1], [1, 1])  # decreasing: sorted
