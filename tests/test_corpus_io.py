"""File ingestion, pivot composition, and lexicon output."""

import logging
import os

import numpy as np
import pytest
from oracles import reference_load_embeddings

from orthomap import corpus_io, pipeline
from orthomap.cli import build_parser, main
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
from orthomap.edit_model import EditModel, build_edit_alphabets, edit_operations
from orthomap.errors import InputFormatError
from orthomap.evaluation import load_scorer_table


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


def small_blocks(monkeypatch, line_chars):
    """Make every block of rows end after its row that reaches
    ``line_chars`` characters: one row per block for rows that long."""
    monkeypatch.setattr(corpus_io, "_LOAD_BLOCK_CHARS", line_chars)


def assert_same_load(path, max_vocab=None):
    words, rows = reference_load_embeddings(path, max_vocab)
    emb = load_embeddings(path, max_vocab)
    assert emb.vocab.words == words
    assert emb.data.shape == rows.shape
    assert np.array_equal(emb.data.view(np.uint64), rows.view(np.uint64))


def assert_same_error(path):
    with pytest.raises(InputFormatError) as expected:
        reference_load_embeddings(path)
    with pytest.raises(InputFormatError) as got:
        load_embeddings(path)
    assert str(got.value) == str(expected.value)
    return str(got.value)


class TestBlockParser:
    """np.loadtxt over blocks of rows gives the row-by-row parse's results."""

    def random_file(self, path, n, dim, seed, duplicates=()):
        rng = np.random.default_rng(seed)
        # Extreme exponents and subnormals besides ordinary values.
        data = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-310, 300, (n, dim))
        words = [f"w{i}" for i in range(n)]
        for i, j in duplicates:
            words[j] = words[i]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {dim}\n")
            for word, row in zip(words, data):
                fh.write(word + " " + " ".join(format(v, ".17g") for v in row) + "\n")
        return path

    @pytest.mark.parametrize("block_chars", [1, 500, 4000, 1 << 30])
    def test_blocks_equal_rows_bitwise(self, tmp_path, monkeypatch, block_chars):
        path = self.random_file(tmp_path / "e.vec", 60, 7, seed=block_chars,
                                duplicates=[(0, 1), (3, 17), (20, 59)])
        small_blocks(monkeypatch, block_chars)
        assert_same_load(path)
        assert_same_load(path, max_vocab=31)

    def test_write_load_roundtrip_is_exact(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        emb = EmbeddingMatrix(Vocabulary([f"w{i}" for i in range(50)]), rng.random((50, 9)))
        write_embeddings(emb, tmp_path / "e.vec")
        small_blocks(monkeypatch, 1000)
        back = load_embeddings(tmp_path / "e.vec")
        assert np.array_equal(back.data.view(np.uint64), emb.data.view(np.uint64))

    @pytest.mark.parametrize("bad_row", ["x", "nan", "inf", "1 2", "", "1 2 3 4"])
    @pytest.mark.parametrize("where", [0, 4, 5, 9])  # blocks of 5 rows; the last row
    def test_bad_row_named_by_its_line(self, tmp_path, monkeypatch, bad_row, where):
        lines = [f"w{i} {i} 1 2" for i in range(10)]
        lines[where] = f"w{where} 0 0 {bad_row}" if bad_row in ("x", "nan", "inf") else (
            f"w{where} {bad_row}" if bad_row else "")
        path = write(tmp_path / "e.vec", "10 3\n" + "\n".join(lines) + "\n")
        small_blocks(monkeypatch, 5 * len(lines[1]) + 5)
        message = assert_same_error(path)
        assert message.startswith(f"{path}:{where + 2}: ")

    @pytest.mark.parametrize("block_chars", [1, 1 << 20])
    @pytest.mark.parametrize("width", [1, 3])
    def test_rows_of_another_width_than_the_header(self, tmp_path, monkeypatch, block_chars, width):
        # Every row agrees with the others, so np.loadtxt reads the block.
        body = "".join(f"w{i} " + " ".join(["1"] * width) + "\n" for i in range(4))
        path = write(tmp_path / "e.vec", f"4 2\n{body}")
        small_blocks(monkeypatch, block_chars)
        assert assert_same_error(path) == f"{path}:2: expected 2 values, found {width}"

    def test_duplicate_row_is_never_parsed(self, tmp_path, monkeypatch):
        # The second "a" holds no numbers, as the row-by-row parse allows.
        path = write(tmp_path / "e.vec", "3 2\na 1 0\na x y\nb 0 1\n")
        small_blocks(monkeypatch, 1 << 20)
        assert_same_load(path)

    @pytest.mark.parametrize(
        "token, value", [("1_0", 10.0), ("\uff11", 1.0), ("\u0661\u0662", 12.0)],
        ids=["digit-separator", "fullwidth-digit", "arabic-indic-digits"],
    )
    def test_tokens_only_float_reads_still_load(self, tmp_path, monkeypatch, token, value):
        with pytest.raises(ValueError):  # np.loadtxt's C reader rejects them
            np.loadtxt([f"{token} 1"], comments=None)
        body = "".join(f"w{i} {i} 1\n" for i in range(6)) + f"odd {token} 1\n"
        path = write(tmp_path / "e.vec", f"7 2\n{body}")
        small_blocks(monkeypatch, 20)
        assert_same_load(path)
        assert load_embeddings(path).data[6, 0] == value

    def test_whitespace_variants(self, tmp_path, monkeypatch):
        body = " a\t1  2\nb 3\x0b4\n\u00a0c 5 6\u2003\nd\x1c7 8\n"
        path = write(tmp_path / "e.vec", f"4 2\n{body}")
        for chars in (1, 1 << 20):
            small_blocks(monkeypatch, chars)
            assert_same_load(path)


class TestForkedLoad:
    """With two workers the target file is parsed in a forked worker."""

    def run(self, bench, tmp_path, threads, tgt, name, command="induce"):
        out = tmp_path / name
        sweep = ["--mode", "ortho-ext", "--grid", "0.1,0.2", "--criterion", "objective"]
        sweep = sweep if command == "sweep" else []
        code = main([
            "--threads", str(threads), command,
            "--src-emb", str(bench.src_embeddings), "--tgt-emb", str(tgt),
            "--output-dir", str(out), "--train-cutoff", "40", "--stall-window", "2", *sweep,
        ])
        return code, out

    def test_forked_load_equals_serial(self, tiny_benchmark, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        cfg = pipeline.RunConfig(
            src_embeddings=str(tiny_benchmark.src_embeddings),
            tgt_embeddings=str(tiny_benchmark.tgt_embeddings),
            max_vocab=90,
        )
        caplog.set_level(logging.INFO, logger="orthomap")
        serial = pipeline.load_inputs(cfg, workers=1)
        forked = pipeline.load_inputs(cfg, workers=2)
        lines = [r.getMessage() for r in caplog.records if "parsed by" in r.getMessage()]
        assert lines == ["inputs parsed by 1 process", "inputs parsed by 2 processes"]
        for a, b in zip(serial, forked):
            assert a.vocab == b.vocab
            assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))

    @pytest.mark.parametrize("command", ["induce", "sweep"])
    @pytest.mark.parametrize(
        "text", ["3 2\na 1 0\nb 0 x\nc 1 1\n", "two 2\na 1 0\n", "4 2\na 1 0\nb 0 1\n"],
        ids=["bad-row", "bad-header", "truncated"],
    )
    def test_malformed_target_message_independent_of_workers(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, text, command
    ):
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        bad = write(tmp_path / "bad.vec", text)
        errors = {}
        for threads in (1, 2):
            code, out = self.run(tiny_benchmark, tmp_path, threads, bad, f"w{threads}", command)
            assert code == InputFormatError.exit_code == 3
            assert not out.exists()
            errors[threads] = capsys.readouterr().err
        assert errors[1] == errors[2]
        assert errors[1].startswith(f"error: {bad}")

    def test_killed_load_worker_exits_1(self, tiny_benchmark, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        parse = pipeline.parse_embeddings
        parent = os.getpid()

        def dying(path, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "parse_embeddings", dying)
        tgt = tiny_benchmark.tgt_embeddings
        code, out = self.run(tiny_benchmark, tmp_path, 2, tgt, "killed")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: the worker loading {tgt} ended without a result (exit code 9)\n"
        )
        assert not out.exists()


    def test_duplicate_warnings_in_serial_order(self, tmp_path, monkeypatch, caplog):
        # The worker sends its count of duplicates back, and this process
        # warns of the target's after the source's, as a serial load does.
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        src = write(tmp_path / "src.vec", "4 2\na 1 0\nb 0 1\na 1 1\nc 2 1\n")
        tgt = write(tmp_path / "tgt.vec", "5 2\nx 1 0\nx 0 1\ny 1 1\ny 2 1\nz 1 2\n")
        cfg = pipeline.RunConfig(src_embeddings=str(src), tgt_embeddings=str(tgt))
        warnings = {}
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="orthomap"):
                pipeline.load_inputs(cfg, workers)
            warnings[workers] = [m for m in caplog.messages if "duplicate" in m]
        assert warnings[2] == warnings[1] == [
            f"{src}: dropped 1 duplicate words",
            f"{tgt}: dropped 2 duplicate words",
        ]


class TestRefLexicon:
    def test_grouping(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ndog пёс\n")
        ref = load_ref_lexicon(p)
        assert ref.pairs == {"dog": {"собака", "пёс"}}

    def test_duplicate_lines_collapse(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ndog собака\n")
        ref = load_ref_lexicon(p)
        assert ref.pairs == {"dog": {"собака"}}

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank"])
    def test_empty_file_is_rejected(self, tmp_path, text):
        # No evaluation can run on it, so it is refused before any run.
        p = write(tmp_path / "l.txt", text)
        with pytest.raises(InputFormatError) as excinfo:
            load_ref_lexicon(p)
        assert str(excinfo.value) == f"{p}: no lexicon entries"

    def test_field_count_error(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака пёс\n")
        with pytest.raises(InputFormatError, match="2 fields"):
            load_ref_lexicon(p)

    def test_every_source_kept(self, tmp_path):
        p = write(tmp_path / "l.txt", "dog собака\ncat кот\n")
        assert set(load_ref_lexicon(p).pairs) == {"dog", "cat"}


def _train_on_pairs(path):
    """The model file train-edit-model writes from the pairs file ``path``;
    its typed error raised, not turned into an exit code."""
    out = path.with_name(path.name + ".model")
    args = build_parser().parse_args(["train-edit-model", "--pairs", str(path),
                                      "--output", str(out)])
    args.func(args)
    return out.read_bytes()


def _model_rows():
    alphabets = build_edit_alphabets(["ab"], ["xy"])
    ops = list(edit_operations(alphabets))
    return [f"{a}\t{b}\t{1 / len(ops)!r}" for a, b in ops]


# name: (reader, header lines, valid rows, fields per row, separator, noun
# of a repeated row or None where repeats are allowed)
ROW_FILES = {
    "lexicon": (lambda p: load_ref_lexicon(p).pairs, [], ["ab xy", "ba yx", "ab yx"], 2, " ",
                None),
    "pairs": (_train_on_pairs, [], ["ab xy", "ba yx", "abba xyyx"], 2, " ", None),
    "scorer": (lambda p: load_scorer_table(p).scores, [],
               ["ab\tx\t0.5", "ba\tyx\t0.9", "b\ty\t1"], 3, "\t", "pair"),
    "model": (lambda p: EditModel.load(p).theta, ["editmodel\tv1"], _model_rows(), 3, "\t",
              "operation"),
}


def _row_cases():
    for name, (*_, noun) in ROW_FILES.items():
        for case in ("extra-field-first", "missing-field-last", "blank-lines"):
            yield pytest.param(name, case, id=f"{name}-{case}")
        if noun is not None:
            for case in ("repeated-row", "bad-probability"):
                yield pytest.param(name, case, id=f"{name}-{case}")


class TestRowFiles:
    """The four row files (reference lexicons, EM training pairs, scorer
    tables, edit models) are read by corpus_io.read_rows, so each case
    below reads the same through each of their readers."""

    @pytest.mark.parametrize("name, case", _row_cases())
    def test_case_table(self, tmp_path, name, case):
        read, header, rows, width, sep, noun = ROW_FILES[name]
        first, last = len(header) + 1, len(header) + len(rows)
        path = tmp_path / f"{name}.txt"

        def lines(*body):
            return write(path, "\n".join([*header, *body]) + "\n")

        if case == "blank-lines":
            expected = read(lines(*rows))
            lines("", rows[0], "   ", "\t", *rows[1:], " \t ", "")
            assert read(path) == expected
            return
        if case == "extra-field-first":
            lines(rows[0] + sep + "extra", *rows[1:])
            message = f"{path}:{first}: expected {width} fields, found {width + 1}"
        elif case == "missing-field-last":
            lines(*rows[:-1], sep.join(rows[-1].split(sep)[:-1]))
            message = f"{path}:{last}: expected {width} fields, found {width - 1}"
        elif case == "repeated-row":
            lines(*rows, rows[0])
            src, tgt, _ = rows[0].split(sep)
            message = f"{path}:{last + 1}: {noun} {src!r}, {tgt!r} repeats line {first}"
        else:
            lines(rows[0].rsplit(sep, 1)[0] + sep + "half", *rows[1:])
            message = f"{path}:{first}: bad probability"
        with pytest.raises(InputFormatError) as excinfo:
            read(path)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("sep, skip, text, rows", [
        (None, 0, "a  b\r\n", [(1, ["a", "b"])]),
        ("\t", 0, "a\t\t0.5\n", [(1, ["a", "", "0.5"])]),
        ("\t", 1, "x\ty\n\nx\ty\t1\n", [(3, ["x", "y", "1"])]),
    ], ids=["whitespace", "empty-tab-field", "skipped-line-unchecked"])
    def test_read_rows_splits_and_numbers_lines(self, tmp_path, sep, skip, text, rows):
        path = write(tmp_path / "rows.txt", text)
        assert list(corpus_io.read_rows(path, len(rows[0][1]), sep, skip)) == rows


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
