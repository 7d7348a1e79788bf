"""Stochastic string edit distance with EM training and transliteration.

A model assigns a joint probability to a string pair as the total
probability of all edit-operation sequences generating it. Operations emit
a source n-gram and a target n-gram simultaneously; either side may be the
empty string but not both. Trained on automatically induced word pairs, the
model yields a similarity boost for plausibly related spellings and a
max-probability transliteration used for candidate filtering.

A saved model, a version line and then one row per operation, is read by
corpus_io.read_probabilities, as the external scorer's table is.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .corpus_io import read_probabilities
from .errors import (
    AlphabetCoverageError,
    EmTrainingError,
    InputFormatError,
    NoTransliterationPath,
)
from .ortho_extension import NgramAlphabet, ngram_frequencies, top_ngrams

logger = logging.getLogger(__name__)

# The empty string stands for the silent side of an operation.
EPSILON = ""

_MODEL_FORMAT_VERSION = "editmodel\tv1"

# The theta row of a source gram that no operation of non-zero
# probability emits.
_NO_OPERATIONS = {}

# Bytes of one (cell, operation, pair) float64 array of EM's batched
# recursion: a chunk of pairs holds a few such arrays, so EM's memory does
# not grow with the number of pairs.
_EM_CHUNK_BYTES = 1 << 18


@dataclass
class EditAlphabets:
    """Source and target n-gram inventories for edit operations.

    Built to contain every observed character unigram plus equally many of
    the most frequent bigrams, maximizing coverage of arbitrary words.
    """

    src: NgramAlphabet
    tgt: NgramAlphabet

    def __post_init__(self):
        self.src_chars = {g for g in self.src.items if len(g) == 1}
        self.tgt_chars = {g for g in self.tgt.items if len(g) == 1}
        self.max_src_len = max((len(g) for g in self.src.items), default=1)
        self.max_tgt_len = max((len(g) for g in self.tgt.items), default=1)


def build_edit_alphabets(src_words, tgt_words):
    """Alphabets with all unigrams and the same number of top bigrams each."""
    if not src_words or not tgt_words:
        raise ValueError("empty vocabulary")
    sides = []
    for words in (src_words, tgt_words):
        unigrams, bigrams = ngram_frequencies(words)
        uni = top_ngrams(unigrams, len(unigrams))
        bi = top_ngrams(bigrams, min(len(uni), len(bigrams)))
        sides.append(NgramAlphabet(uni + bi))
    return EditAlphabets(*sides)


def edit_operations(alphabets):
    """All representable operations in deterministic alphabet order."""
    src_items = list(alphabets.src.items) + [EPSILON]
    tgt_items = list(alphabets.tgt.items) + [EPSILON]
    for a_src in src_items:
        for a_tgt in tgt_items:
            if a_src == EPSILON and a_tgt == EPSILON:
                continue
            yield a_src, a_tgt


class EditModel:
    """Probability table over edit operations, normalized to sum 1."""

    def __init__(self, alphabets, theta, training_stats=None):
        self.alphabets = alphabets
        self.theta = dict(theta)
        self.training_stats = training_stats
        self._best_substitution = {}
        self._reversed = None
        self._validate()

    def _validate(self):
        if (EPSILON, EPSILON) in self.theta:
            raise ValueError("the null operation is not representable")
        total = 0.0
        for (a_src, a_tgt), p in self.theta.items():
            if not 0.0 <= p < math.inf:
                raise ValueError(f"probability {p!r} of {(a_src, a_tgt)!r} is not finite and >= 0")
            if a_src != EPSILON and a_src not in self.alphabets.src:
                raise ValueError(f"unknown source item {a_src!r}")
            if a_tgt != EPSILON and a_tgt not in self.alphabets.tgt:
                raise ValueError(f"unknown target item {a_tgt!r}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation probabilities sum to {total!r}, not 1")

    def reversed(self):
        """The model of reversed strings: both n-grams of every operation
        reversed, probabilities kept. Built once per model."""
        if self._reversed is None:
            alphabets = EditAlphabets(
                NgramAlphabet([g[::-1] for g in self.alphabets.src.items]),
                NgramAlphabet([g[::-1] for g in self.alphabets.tgt.items]),
            )
            theta = {(a[::-1], b[::-1]): p for (a, b), p in self.theta.items()}
            self._reversed = EditModel(alphabets, theta)
        return self._reversed

    @cached_property
    def theta_rows(self):
        """theta as {source item: {target item: p}} over the operations of
        non-zero probability, the empty string standing for a silent side.
        Built once per model."""
        rows = {}
        for (a_src, a_tgt), p in self.theta.items():
            if p:
                rows.setdefault(a_src, {})[a_tgt] = p
        return rows

    def best_substitution(self, a_src):
        """Max-probability target item for a source item, as (item, log p).

        Ties prefer earlier target items; the empty string is considered
        last. Returns (None, -inf) when the whole row is zero.
        """
        cached = self._best_substitution.get(a_src)
        if cached is not None:
            return cached
        best_item = None
        best_log = -math.inf
        for a_tgt in list(self.alphabets.tgt.items) + [EPSILON]:
            p = self.theta.get((a_src, a_tgt), 0.0)
            if p > 0.0:
                lp = math.log(p)
                if lp > best_log:
                    best_log = lp
                    best_item = a_tgt
        result = (best_item, best_log)
        self._best_substitution[a_src] = result
        return result

    def save(self, path):
        """Write one "a_src<TAB>a_tgt<TAB>theta" line per operation.

        The empty field encodes the silent side; values carry 17 significant
        digits so the table round-trips exactly.
        """
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(_MODEL_FORMAT_VERSION + "\n")
            for op in edit_operations(self.alphabets):
                fh.write(f"{op[0]}\t{op[1]}\t{format(self.theta.get(op, 0.0), '.17g')}\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            version = fh.readline().rstrip("\n")
        if version != _MODEL_FORMAT_VERSION:
            raise InputFormatError(f"{path}: unsupported model format {version!r}")
        theta = {
            (a_src, a_tgt): p
            for _, a_src, a_tgt, p in read_probabilities(path, "operation", skip=1)
        }
        src_items = [a for a in dict.fromkeys(a for a, _ in theta) if a]
        tgt_items = [a for a in dict.fromkeys(a for _, a in theta) if a]
        try:
            alphabets = EditAlphabets(NgramAlphabet(src_items), NgramAlphabet(tgt_items))
            return cls(alphabets, theta)
        except ValueError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


def _check_coverage(word, chars, side):
    missing = set(word) - chars
    if missing:
        raise AlphabetCoverageError(
            f"{side} string {word!r} has characters outside the alphabet: {sorted(missing)}"
        )


def _forward_table(x, z, model):
    """Prefix-pair generation probabilities as a (|x|+1) x (|z|+1) table.

    Each cell sums theta * prefix over its operations in (j, k) order, j
    and k the lengths of the source and target grams it emits, skipping
    the operations of probability zero.
    """
    n_max, m_max = len(x), len(z)
    max_j = model.alphabets.max_src_len
    max_k = model.alphabets.max_tgt_len
    rows = model.theta_rows
    # Per m, the (m - k, gram) of the target grams ending at m, k = 0, 1, ...
    z_grams = [[(m - k, z[m - k : m]) for k in range(min(max_k, m) + 1)] for m in range(m_max + 1)]
    table = [[0.0] * (m_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1.0
    for n in range(n_max + 1):
        # The prefix row and theta row of the source grams ending at n, j = 0, 1, ...
        (epsilon_prev, epsilon_probs), *src = [
            (table[n - j], rows.get(x[n - j : n], _NO_OPERATIONS))
            for j in range(min(max_j, n) + 1)
        ]
        row = table[n]
        for m in range(1 if n == 0 else 0, m_max + 1):
            grams = z_grams[m]
            total = 0.0
            for at, gram in grams[1:]:  # j = 0 emits nothing, so k >= 1
                p = epsilon_probs.get(gram)
                if p:
                    total += p * epsilon_prev[at]
            for prev, probs in src:
                for at, gram in grams:
                    p = probs.get(gram)
                    if p:
                        total += p * prev[at]
            row[m] = total
    return table


def _log_sum(terms):
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _log_forward_table(x, z, model, beta=None, visits=None):
    """_forward_table in log space, for the pairs whose probability
    underflows to zero in linear space; -inf stands for probability zero.

    Given the pair's log backward table ``beta``, it appends ``(op, log of
    prefix * theta * suffix)`` to ``visits`` in the same order.
    """
    n_max, m_max = len(x), len(z)
    max_j = model.alphabets.max_src_len
    max_k = model.alphabets.max_tgt_len
    theta = model.theta
    table = [[-math.inf] * (m_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 0.0
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n == 0 and m == 0:
                continue
            suffix = -math.inf if beta is None else beta[n][m]
            terms = []
            for j in range(0, min(max_j, n) + 1):
                x_gram = x[n - j : n]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m) + 1):
                    op = (x_gram, z[m - k : m])
                    p = theta.get(op)
                    prefix = table[n - j][m - k]
                    if p and prefix > -math.inf:
                        term = prefix + math.log(p)
                        terms.append(term)
                        if suffix > -math.inf:
                            visits.append((op, term + suffix))
            table[n][m] = _log_sum(terms)
    return table


def _log_backward_table(x, z, model):
    """Suffix-pair generation log probabilities: the _log_forward_table of
    the reversed strings under the reversed model, read back to front."""
    table = _log_forward_table(x[::-1], z[::-1], model.reversed())
    return [row[::-1] for row in table[::-1]]


def log_edit_probability(x, z, model):
    """log p(x, z), -inf when no operation sequence generates the pair."""
    _check_coverage(x, model.alphabets.src_chars, "source")
    _check_coverage(z, model.alphabets.tgt_chars, "target")
    p = _forward_table(x, z, model)[len(x)][len(z)]
    if p > 0.0:
        return math.log(p)
    return _log_forward_table(x, z, model)[len(x)][len(z)]


@dataclass
class EmStats:
    """Per-iteration log-likelihoods plus skip counters."""

    log_likelihoods: list
    skipped_uncovered: int
    skipped_zero_prob: int


def _em_chunks(pairs, ops_per_cell):
    """Consecutive [start, stop) runs of pairs whose (cell, operation, pair)
    arrays, padded to the run's longest strings, fit _EM_CHUNK_BYTES; a
    pair that alone exceeds it forms a run of its own."""
    chunks = []
    start = n_max = m_max = 0
    for i, (x, z) in enumerate(pairs):
        n, m = max(n_max, len(x)), max(m_max, len(z))
        if i > start and (i - start + 1) * (n + 1) * (m + 1) * ops_per_cell * 8 > _EM_CHUNK_BYTES:
            chunks.append((start, i))
            start, n, m = i, len(x), len(z)
        n_max, m_max = n, m
    chunks.append((start, len(pairs)))
    return chunks


def _gram_key(gram):
    key = ord(gram[0])
    return key if len(gram) == 1 else (key << 21) | ord(gram[1])


class _Grams:
    """Alphabet ids of the grams of words, looked up from their character
    codes; a bigram's key is (code << 21) | next code."""

    def __init__(self, index):
        self.size = len(index)  # the id of the empty string
        self.max_len = max(map(len, index), default=1)
        self.keys, self.ids = [], []
        for n in (1, 2):
            items = sorted((_gram_key(g), i) for g, i in index.items() if len(g) == n)
            self.keys.append(np.array([key for key, _ in items], np.int64))
            self.ids.append(np.array([i for _, i in items], np.intp))

    def _lookup(self, n, keys):
        known, ids = self.keys[n - 1], self.ids[n - 1]
        if not len(known):
            return np.full(keys.shape, -1, np.intp)
        at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        return np.where(known[at] == keys, ids[at], -1)

    def table(self, words, lengths):
        """(n, j, word) ids of the gram of j characters that ends at
        position n of each word, padded to the longest word: the empty
        string's for j = 0, -1 where the gram is not in the alphabet or n
        lies past the word."""
        length = int(lengths.max())
        codes = np.full((len(words), length), -1, np.int64)
        text = "".join(words).encode("utf-32-le", "surrogatepass")
        codes[np.arange(length) < lengths[:, None]] = np.frombuffer(text, np.uint32)
        ids = np.full((length + 1, self.max_len + 1, len(words)), -1, np.intp)
        ids[:, 0][np.arange(length + 1)[:, None] <= lengths] = self.size
        ids[1:, 1] = self._lookup(1, codes).T
        if self.max_len == 2:
            # A padding code (-1) on either side makes the key negative.
            ids[2:, 2] = self._lookup(2, (codes[:, :-1] << 21) | codes[:, 1:]).T
        return ids


def _reversed_grams(ids, lengths):
    """_Grams.table of the reversed words: the gram of j characters that
    ends at n of a reversed word is the word's own gram of j characters
    ending at len - n + j, read back to front."""
    n1, j1, n_words = ids.shape
    j = np.arange(j1)[:, None]
    at = lengths - np.arange(n1)[:, None, None] + j
    inside = (at >= j) & (at <= lengths)
    return np.where(inside, ids[np.clip(at, 0, n1 - 1), j, np.arange(n_words)], -1)


class _OpIds:
    """Ids of the operations of a chunk of pairs, in edit_operations order:
    src_item * (|tgt| + 1) + tgt_item, the empty string being item |src| or
    |tgt|. The null operation, last and never representable, stands for
    every gram outside the alphabets, so its theta slot stays 0.0."""

    def __init__(self, src_index, tgt_index):
        self.src_index, self.tgt_index = src_index, tgt_index
        self.src, self.tgt = _Grams(src_index), _Grams(tgt_index)
        self.null = self.src.size * (self.tgt.size + 1) + self.tgt.size

    def op_id(self, op):
        a_src, a_tgt = op
        src = self.src_index[a_src] if a_src else self.src.size
        return src * (self.tgt.size + 1) + (self.tgt_index[a_tgt] if a_tgt else self.tgt.size)

    def table(self, src, tgt):
        """(n, m, j, k, pair) ids of the operation that emits the last j
        characters of x[:n] and the last k of z[:m], from the _Grams.table
        of the source and target strings."""
        src = np.where(src < 0, self.null, src * (self.tgt.size + 1))
        tgt = np.where(tgt < 0, self.null, tgt)
        ids = src[:, None, :, None, :] + tgt[None, :, None, :, :]
        return np.minimum(ids, self.null, out=ids)


def _chunk_tables(th, keep_terms=False):
    """Forward tables of a chunk of pairs at once, as vectors over pairs.

    ``th`` is theta of the (n, m, j, k, pair) operations of _OpIds.table.
    Returns the tables, padded so that ``table[n + J, m + K]`` is the prefix
    pair (n, m) (J, K: the longest grams) and out-of-range cells read 0.0,
    and, if asked, the (n, m, j, k, pair) terms theta * table[n - j, m - k].
    A cell sums its terms in (j, k) order like _forward_table; a term it
    skips is exactly +0.0 here. The cells of one anti-diagonal n + m read
    only earlier ones, so they are computed together.
    """
    n1, m1, j1, k1, n_pairs = th.shape
    pj, pk = j1 - 1, k1 - 1
    w = m1 + pk
    table = np.zeros((n1 + pj, w, n_pairs))
    table[pj, pk] = 1.0
    rows = table.reshape(-1, n_pairs)[pj * w + pk :]  # row n * w + m is cell (n, m)
    s_row, s_pair = rows.strides
    prefix = as_strided(
        rows, (len(rows), j1, k1, n_pairs), (s_row, -w * s_row, -s_row, s_pair)
    )
    th = th.reshape(n1 * m1, j1, k1, n_pairs)
    terms = np.zeros_like(th) if keep_terms else None
    for d in range(1, n1 + m1 - 1):
        lo, hi = max(0, d - m1 + 1), min(n1 - 1, d)
        cells = slice(lo * (m1 - 1) + d, hi * (m1 - 1) + d + 1, max(m1 - 1, 1))
        at = slice(lo * (w - 1) + d, hi * (w - 1) + d + 1, w - 1)
        t = np.multiply(th[cells], prefix[at], out=None if terms is None else terms[cells])
        # accumulate adds strictly in order, as the scalar recursion does.
        rows[at] = np.add.accumulate(t.reshape(len(t), -1, n_pairs), axis=1)[:, -1]
    if terms is not None:
        terms = terms.reshape(n1, m1, j1, k1, n_pairs)
    return table, terms


def _chunk_posteriors(pairs, op_ids, theta):
    """One E-step over a chunk of pairs.

    Returns each pair's probability p and, for the pairs with p > 0, their
    E-step visits in the scalar recursion's (pair, n, m, j, k) order: the
    ids and posterior weights prefix * theta * suffix / p of every
    operation whose theta, prefix and suffix are non-zero, with the end of
    each pair's visits in that stream.
    """
    xs = [x for x, _ in pairs]
    zs = [z for _, z in pairs]
    n_len = np.array([len(x) for x in xs])
    m_len = np.array([len(z) for z in zs])
    src = op_ids.src.table(xs, n_len)
    tgt = op_ids.tgt.table(zs, m_len)
    # The backward table is the forward table of the reversed strings,
    # under the model whose operations are reversed with their grams.
    backward_th = theta[op_ids.table(_reversed_grams(src, n_len), _reversed_grams(tgt, m_len))]
    backward, _ = _chunk_tables(backward_th)
    del backward_th
    ids = op_ids.table(src, tgt)
    th = theta[ids]
    forward, terms = _chunk_tables(th, keep_terms=True)
    n1, m1, j1, k1, n_pairs = th.shape
    pj, pk = j1 - 1, k1 - 1
    pair = np.arange(n_pairs)
    p = forward[n_len + pj, m_len + pk, pair]
    # suffix[n, m, pair] = backward[|x| - n, |z| - m]; padding (0.0) outside
    # the pair, and 0.0 for a pair whose p underflowed.
    rn = np.maximum(n_len - np.arange(n1)[:, None] + pj, 0)
    rm = np.maximum(m_len - np.arange(m1)[:, None] + pk, 0)
    suffix = backward[rn[:, None, :], rm[None, :, :], pair]
    suffix[..., p == 0.0] = 0.0
    suffix = suffix[:, :, None, None, :]
    s = forward.strides
    prefix = as_strided(forward[pj:, pk:], th.shape, (s[0], s[1], -s[0], -s[1], s[2]))
    visited = (th != 0.0) & (prefix != 0.0) & (suffix != 0.0)
    del th
    terms *= suffix
    terms /= np.where(p > 0.0, p, 1.0)
    by_pair = visited.reshape(-1, n_pairs).T.copy()
    visit_pair, visit_cell = np.divmod(np.flatnonzero(by_pair), by_pair.shape[1])
    at = visit_cell * n_pairs + visit_pair  # in (pair, n, m, j, k) order
    ends = np.cumsum(by_pair.sum(axis=1))
    return p.tolist(), ids.reshape(-1)[at], terms.reshape(-1)[at], ends


def _log_posteriors(x, z, model):
    """log p(x, z) and the (op, log weight) visits of the log-space tables,
    for a pair whose linear probability underflows to zero."""
    visits = []
    beta = _log_backward_table(x, z, model)
    log_p = _log_forward_table(x, z, model, beta, visits)[len(x)][len(z)]
    return log_p, visits


def em_train(pairs, alphabets, iterations=3):
    """Expectation-maximization over operation probabilities.

    Starts from the uniform table, accumulates posterior operation counts
    from the forward pass of every pair over its backward table, and
    renormalizes globally each iteration. Pairs run in chunks of at most
    _EM_CHUNK_BYTES per table of terms, each chunk as vectors over its
    pairs; the counts and log-likelihoods equal those of the scalar
    recursion bit for bit. A pair whose probability underflows to zero is
    recomputed in log space. Pairs with uncovered characters or zero
    probability contribute nothing and are counted.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not pairs:
        raise ValueError("no training pairs")
    usable = [
        pair
        for pair in pairs
        if set(pair[0]) <= alphabets.src_chars and set(pair[1]) <= alphabets.tgt_chars
    ]
    skipped_uncovered = len(pairs) - len(usable)
    if not usable:
        raise EmTrainingError("every training pair has uncovered characters")

    op_ids = _OpIds(alphabets.src.index, alphabets.tgt.index)
    ops = list(edit_operations(alphabets))
    null = op_ids.null  # == len(ops)
    theta = np.full(null + 1, 1.0 / len(ops))
    theta[null] = 0.0
    chunks = _em_chunks(usable, (alphabets.max_src_len + 1) * (alphabets.max_tgt_len + 1))
    log_likelihoods = []
    for iteration in range(1, iterations + 1):
        counts = np.zeros_like(theta)
        seen = np.zeros(len(theta), dtype=bool)
        first_visits = []  # ids in the order of their first visit
        log_likelihood = 0.0
        skipped_zero = 0
        model = None  # built for the log-space path only
        for start, stop in chunks:
            chunk = usable[start:stop]
            probs, ids, weights, ends = _chunk_posteriors(chunk, op_ids, theta)
            id_parts, weight_parts, done = [], [], 0
            for i, p in enumerate(probs):
                if p > 0.0:
                    log_likelihood += math.log(p)
                    continue
                if model is None:
                    model = EditModel(alphabets, dict(zip(ops, theta.tolist())))
                log_p, visits = _log_posteriors(*chunk[i], model)
                if log_p == -math.inf:
                    skipped_zero += 1
                    continue
                log_likelihood += log_p
                # Splice the pair's visits in at its place in the stream.
                id_parts += [
                    ids[done : ends[i]],
                    np.array([op_ids.op_id(op) for op, _ in visits], np.intp),
                ]
                weight_parts += [
                    weights[done : ends[i]],
                    np.array([math.exp(lw - log_p) for _, lw in visits]),
                ]
                done = ends[i]
            ids = np.concatenate(id_parts + [ids[done:]])
            np.add.at(counts, ids, np.concatenate(weight_parts + [weights[done:]]))
            new = ids[~seen[ids]]
            uniq, first = np.unique(new, return_index=True)
            first_visits += uniq[np.argsort(first)].tolist()
            seen[uniq] = True
        if not first_visits:
            raise EmTrainingError("every training pair had zero probability")
        log_likelihoods.append(log_likelihood)
        logger.info(
            "em iteration %d/%d: log-likelihood %.6f over %d pairs",
            iteration,
            iterations,
            log_likelihood,
            len(usable) - skipped_zero,
        )
        # The dict of the scalar E-step summed its counts in first-visit order.
        theta = counts / sum(counts[first_visits].tolist())
    logger.log(
        logging.WARNING if skipped_uncovered or skipped_zero else logging.INFO,
        "EM skipped %d uncovered and %d zero-probability pairs",
        skipped_uncovered,
        skipped_zero,
    )
    stats = EmStats(log_likelihoods, skipped_uncovered, skipped_zero)
    return EditModel(alphabets, dict(zip(ops, theta.tolist())), training_stats=stats)


def boost_from_log_prob(log_p, max_len, src_size, tgt_size):
    """Boost value at c = 1 from a log joint probability and the word-pair
    length; lies in [0, 1].

    Zero exactly when the per-operation log probability sits at chance
    level, -log((1 + src_size) * (1 + tgt_size)); equals 1 at p = 1.
    """
    if log_p == -math.inf:
        return 0.0
    chance = math.log((1 + src_size) * (1 + tgt_size))
    return max(0.0, 1.0 + (log_p / max_len) / chance)


def edit_similarity_boost(x, z, model):
    """Similarity addend for a word pair at c = 1; lies in [0, 1]."""
    if not x or not z:
        raise ValueError("boost requires non-empty words")
    log_p = log_edit_probability(x, z, model)
    return boost_from_log_prob(
        log_p,
        max(len(x), len(z)),
        len(model.alphabets.src),
        len(model.alphabets.tgt),
    )


def transliterate(x, model):
    """Max-probability rendering of a source word in the target script.

    Segments the word into source alphabet items (non-empty, so the output
    length stays bounded) and substitutes each with its best target item;
    returns the concatenation and the total log probability. Ties prefer
    longer source segments, then earlier target items.
    """
    if not x:
        raise ValueError("cannot transliterate the empty string")
    _check_coverage(x, model.alphabets.src_chars, "source")
    max_j = model.alphabets.max_src_len
    n_max = len(x)
    delta = [-math.inf] * (n_max + 1)
    delta[0] = 0.0
    back = [None] * (n_max + 1)
    for n in range(1, n_max + 1):
        best = -math.inf
        best_step = None
        for j in range(min(max_j, n), 0, -1):
            segment = x[n - j : n]
            if segment not in model.alphabets.src:
                continue
            item, log_p = model.best_substitution(segment)
            if item is None:
                continue
            candidate = log_p + delta[n - j]
            if candidate > best:
                best = candidate
                best_step = (j, item)
        delta[n] = best
        back[n] = best_step
    if delta[n_max] == -math.inf:
        raise NoTransliterationPath(f"no valid segmentation for {x!r}")
    pieces = []
    n = n_max
    while n > 0:
        j, item = back[n]
        pieces.append(item)
        n -= j
    return "".join(reversed(pieces)), delta[n_max]
