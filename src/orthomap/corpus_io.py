"""Embedding and lexicon file I/O, pivot dictionary construction, lexicon output.

Embedding files follow the common text format: a "count dim" header line,
then one word per line followed by `dim` decimal numbers. Lexicon files are
"source target" pairs, one per line, whitespace separated.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError

logger = logging.getLogger(__name__)


class Vocabulary:
    """Ordered word list with O(1) word -> position lookup.

    Order is preserved exactly from the source file, which lists words by
    descending frequency; all cutoff-based selection relies on that order.
    """

    __slots__ = ("words", "index")

    def __init__(self, words):
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ValueError("vocabulary words must be unique")

    def __len__(self):
        return len(self.words)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.words == other.words

    def top(self, n):
        """First n words (the n most frequent ones)."""
        return self.words[:n]


@dataclass
class EmbeddingMatrix:
    """Row-per-word embedding matrix together with its vocabulary."""

    vocab: Vocabulary
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("embedding data must be a 2-d matrix")
        if self.data.shape[0] != len(self.vocab):
            raise ValueError(
                f"row count {self.data.shape[0]} != vocabulary size {len(self.vocab)}"
            )
        if self.data.shape[1] < 1:
            raise ValueError("embedding dimension must be positive")
        if not np.isfinite(self.data).all():
            raise ValueError("embedding data contains non-finite entries")

    @property
    def dim(self):
        return self.data.shape[1]


class SparseDictionary:
    """Sparse set of weighted translation pairs.

    Weights are 1 for one-directional nearest neighbours and 2 for mutual
    ones; they act as multiplicities wherever the dictionary enters a sum.
    """

    __slots__ = ("src", "tgt", "weight")

    def __init__(self, src, tgt, weight, n_src=None, n_tgt=None):
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.tgt = np.ascontiguousarray(tgt, dtype=np.int64)
        self.weight = np.ascontiguousarray(weight, dtype=np.int64)
        self._validate(n_src, n_tgt)

    def _validate(self, n_src, n_tgt):
        if not (self.src.shape == self.tgt.shape == self.weight.shape):
            raise ValueError("entry arrays must have identical shape")
        if self.src.ndim != 1:
            raise ValueError("entry arrays must be 1-d")
        if len(self.src) == 0:
            return
        if self.src.min() < 0 or self.tgt.min() < 0:
            raise ValueError("negative dictionary index")
        if n_src is not None and self.src.max() >= n_src:
            raise ValueError("source index out of bounds")
        if n_tgt is not None and self.tgt.max() >= n_tgt:
            raise ValueError("target index out of bounds")
        if ((self.weight != 1) & (self.weight != 2)).any():
            raise ValueError("dictionary weights must be 1 or 2")
        span = int(self.tgt.max()) + 1
        codes = self.src * span + self.tgt
        # Strictly increasing codes, as induce_dictionary builds them, are
        # distinct without a sort.
        if not (codes[1:] > codes[:-1]).all() and len(np.unique(codes)) != len(codes):
            raise ValueError("duplicate (source, target) pair")

    def __len__(self):
        return len(self.src)

    def __eq__(self, other):
        return (
            isinstance(other, SparseDictionary)
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.tgt, other.tgt)
            and np.array_equal(self.weight, other.weight)
        )

    @property
    def weight_sum(self):
        return int(self.weight.sum())

    def pairs(self):
        """Iterate (source index, target index, weight) tuples."""
        for i, j, w in zip(self.src, self.tgt, self.weight):
            yield int(i), int(j), int(w)


@dataclass
class RefLexicon:
    """Reference translations grouped by source word."""

    pairs: dict


# Characters of text parsed per block of rows: np.loadtxt's C reader parses
# a block at a time, so the text held at once stays small.
_LOAD_BLOCK_CHARS = 256 << 10


def _block_values(lines, dim):
    """Words and (rows, dim) values of ``lines``, parsed by np.loadtxt, or
    None where the C reader rejects the block or reads it otherwise than
    _row_tokens would accept it (a short row, a row of another width, a
    non-finite value)."""
    parts = [line.split(None, 1) for line in lines]
    if any(len(p) != 2 for p in parts):
        return None
    try:
        values = np.loadtxt([p[1] for p in parts], np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), dim) or not np.isfinite(values).all():
        return None
    return [p[0] for p in parts], values


def _row_tokens(path, line, lineno, dim):
    """The word and value tokens of one row, or InputFormatError."""
    tokens = line.split()
    if not tokens:
        raise InputFormatError(f"{path}:{lineno}: empty line")
    if len(tokens) != dim + 1:
        raise InputFormatError(f"{path}:{lineno}: expected {dim} values, found {len(tokens) - 1}")
    return tokens[0], tokens[1:]


def _row_values(path, tokens, lineno):
    try:
        vec = np.array(tokens, dtype=np.float64)
    except ValueError:
        raise InputFormatError(f"{path}:{lineno}: non-numeric entry") from None
    if not np.isfinite(vec).all():
        raise InputFormatError(f"{path}:{lineno}: non-finite entry")
    return vec


def _read_header(fh, path, max_vocab):
    """(header count, rows to read, dim) from the header line of ``fh``."""
    header = fh.readline()
    parts = header.split()
    if len(parts) != 2:
        raise InputFormatError(f"{path}: malformed header {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputFormatError(f"{path}: malformed header {header!r}") from None
    if count < 1 or dim < 1:
        raise InputFormatError(f"{path}: non-positive header counts")
    return count, count if max_vocab is None else min(count, max_vocab), dim


def embedding_shape(path, max_vocab=None):
    """(rows, dim) of the array load_embeddings parses ``path`` into: its
    rows up to max_vocab, duplicates included. Reads only the header."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return _read_header(fh, path, max_vocab)[1:]


def load_embeddings(path, max_vocab=None):
    """Read a text embedding file into an EmbeddingMatrix (see
    parse_embeddings), warning of the duplicated words it dropped."""
    emb, duplicates = parse_embeddings(path, max_vocab)
    log_duplicates(path, duplicates)
    return emb


def log_duplicates(path, duplicates):
    """Warn that ``duplicates`` repeated words of ``path`` were dropped."""
    if duplicates:
        logger.warning("%s: dropped %d duplicate words", path, duplicates)


def parse_embeddings(path, max_vocab=None, out=None):
    """A text embedding file's EmbeddingMatrix and the number of rows
    dropped as duplicates, without a warning.

    Exactly min(header count, max_vocab) rows are consumed, and a file that
    ends before them is rejected; duplicated words keep their first
    occurrence and later ones are dropped. ``out``, when given, is the
    float64 array of shape embedding_shape(path, max_vocab) that the rows
    are parsed into; the matrix returned views it.

    Rows are parsed in blocks by np.loadtxt, which rounds as Python's
    float() does. A block it rejects is parsed again row by row with
    float(), which also reads what np.loadtxt does not (digit separators
    such as "1_0", non-ASCII digits) and names the line of a bad row; a
    duplicated word's row is never parsed there. So the values and errors
    are those of a row-by-row parse.
    """
    if max_vocab is not None and max_vocab < 1:
        raise ValueError("max_vocab must be positive")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        count, limit, dim = _read_header(fh, path, max_vocab)
        words = []
        seen = set()
        data = np.empty((limit, dim)) if out is None else out
        duplicates = 0

        def new_word(word):
            """Whether ``word`` is new (it joins ``words``); a repeated one
            is counted and its row dropped."""
            nonlocal duplicates
            if word in seen:
                duplicates += 1
                return False
            seen.add(word)
            words.append(word)
            return True

        def parse(block, first):
            """Parse the rows of ``block``, whose first is on line ``first``."""
            parsed = _block_values(block, dim)
            if parsed is not None:
                for word, row in zip(*parsed):
                    if new_word(word):
                        data[len(words) - 1] = row
                return
            for lineno, line in enumerate(block, start=first):
                word, tokens = _row_tokens(path, line, lineno, dim)
                if new_word(word):
                    data[len(words) - 1] = _row_values(path, tokens, lineno)

        # Row r (from 1) is line r + 1 of the file.
        block, chars, rows_read = [], 0, 0
        for line in itertools.islice(fh, limit):
            rows_read += 1
            block.append(line)
            chars += len(line)
            if chars >= _LOAD_BLOCK_CHARS:
                parse(block, rows_read - len(block) + 2)
                block, chars = [], 0
        if block:
            parse(block, rows_read - len(block) + 2)
    if rows_read < limit:
        raise InputFormatError(
            f"{path}: file ends after {rows_read} of {limit} rows"
            f" (header declares {count})"
        )
    return EmbeddingMatrix(Vocabulary(words), data[: len(words)]), duplicates


def write_embeddings(emb, path):
    """Write an EmbeddingMatrix in the text format read by load_embeddings.

    Values are printed with 17 significant digits so a read/write cycle is
    lossless for float64.
    """
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(f"{len(emb.vocab)} {emb.dim}\n")
        for word, row in zip(emb.vocab.words, emb.data):
            fh.write(word + " " + " ".join(format(v, ".17g") for v in row) + "\n")


def load_ref_lexicon(path):
    """Read a reference lexicon, grouping translations by source word.

    Every entry is kept whatever the embedding vocabularies hold; evaluation
    decides how to count sources without a prediction. Duplicate lines
    collapse to one entry.
    """
    pairs = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise InputFormatError(
                    f"{path}:{lineno}: expected 2 fields, found {len(tokens)}"
                )
            src, tgt = tokens
            pairs.setdefault(src, set()).add(tgt)
    return RefLexicon(pairs)


def build_pivot_lexicon(x_to_e, e_to_z):
    """Compose two lexicons through a shared pivot language.

    A pair (x, z) is emitted iff x has exactly one pivot translation k and
    k translates to z. The single-pivot restriction limits composition noise;
    the pivot-to-target fan-out is unrestricted.
    """
    if not x_to_e.pairs or not e_to_z.pairs:
        raise ValueError("both lexicons must be non-empty")
    out = {}
    for x, pivots in x_to_e.pairs.items():
        if len(pivots) != 1:
            continue
        (pivot,) = pivots
        targets = e_to_z.pairs.get(pivot)
        if targets:
            out[x] = set(targets)
    return RefLexicon(out)


def write_lexicon(dictionary, src_vocab, tgt_vocab, path, scores=None):
    """Write dictionary entries as TSV, sorted by source then target index.

    Each line is "source<TAB>target<TAB>weight" plus a score column when
    per-entry scores are given.
    """
    if scores is not None and len(scores) != len(dictionary):
        raise ValueError("scores length must match dictionary size")
    order = np.lexsort((dictionary.tgt, dictionary.src))
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        for k in order:
            i = int(dictionary.src[k])
            j = int(dictionary.tgt[k])
            line = f"{src_vocab.words[i]}\t{tgt_vocab.words[j]}\t{int(dictionary.weight[k])}"
            if scores is not None:
                line += f"\t{scores[k]:.6f}"
            fh.write(line + "\n")


def read_lexicon_tsv(path):
    """Read a written lexicon back as a source -> target mapping.

    Keeps the first target per source; induced lexicons have exactly one.
    """
    out = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 2:
                raise InputFormatError(f"{path}:{lineno}: expected >= 2 fields")
            out.setdefault(fields[0], fields[1])
    return out
