"""Stochastic string edit distance with EM training and transliteration.

A model assigns a joint probability to a string pair as the total
probability of all edit-operation sequences generating it. Operations emit
a source n-gram and a target n-gram simultaneously; either side may be the
empty string but not both. Trained on automatically induced word pairs, the
model yields a similarity boost for plausibly related spellings and a
max-probability transliteration used for candidate filtering.
"""

import logging
import math
from dataclasses import dataclass

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
            if p < 0.0:
                raise ValueError(f"negative probability for {(a_src, a_tgt)!r}")
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
            theta = {}
            src_items = []
            tgt_items = []
            src_seen = set()
            tgt_seen = set()
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 3:
                    raise InputFormatError(f"{path}:{lineno}: expected 3 fields")
                a_src, a_tgt, raw = fields
                try:
                    p = float(raw)
                except ValueError:
                    raise InputFormatError(f"{path}:{lineno}: bad probability") from None
                if a_src and a_src not in src_seen:
                    src_seen.add(a_src)
                    src_items.append(a_src)
                if a_tgt and a_tgt not in tgt_seen:
                    tgt_seen.add(a_tgt)
                    tgt_items.append(a_tgt)
                theta[(a_src, a_tgt)] = p
        alphabets = EditAlphabets(NgramAlphabet(src_items), NgramAlphabet(tgt_items))
        return cls(alphabets, theta)


def _check_coverage(word, chars, side):
    missing = set(word) - chars
    if missing:
        raise AlphabetCoverageError(
            f"{side} string {word!r} has characters outside the alphabet: {sorted(missing)}"
        )


def _forward_table(x, z, model, beta=None, visits=None):
    """Prefix-pair generation probabilities as a (|x|+1) x (|z|+1) table.

    Given the pair's backward table ``beta``, it also appends to ``visits``,
    in recursion order, ``(op, prefix * theta * suffix)`` for every
    operation whose prefix and suffix probabilities are both non-zero: the
    operation's posterior weight at that position, times p(x, z).
    """
    n_max, m_max = len(x), len(z)
    max_j = model.alphabets.max_src_len
    max_k = model.alphabets.max_tgt_len
    theta = model.theta
    table = [[0.0] * (m_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1.0
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n == 0 and m == 0:
                continue
            suffix = 0.0 if beta is None else beta[n][m]
            total = 0.0
            for j in range(0, min(max_j, n) + 1):
                x_gram = x[n - j : n]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m) + 1):
                    op = (x_gram, z[m - k : m])
                    p = theta.get(op)
                    if p:
                        prefix = table[n - j][m - k]
                        total += p * prefix
                        if suffix and prefix:
                            visits.append((op, prefix * p * suffix))
            table[n][m] = total
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


def _backward_table(x, z, model, forward=_forward_table):
    """Suffix-pair generation probabilities: the ``forward`` table of the
    reversed strings under the reversed model, read back to front."""
    table = forward(x[::-1], z[::-1], model.reversed())
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


def em_train(pairs, alphabets, iterations=3):
    """Expectation-maximization over operation probabilities.

    Starts from the uniform table, accumulates posterior operation counts
    from the forward pass of every pair over its backward table, and
    renormalizes globally each iteration. A pair whose probability
    underflows to zero is recomputed in log space. Pairs with uncovered
    characters or zero probability contribute nothing and are counted.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not pairs:
        raise ValueError("no training pairs")
    usable = []
    skipped_uncovered = 0
    for x, z in pairs:
        if set(x) <= alphabets.src_chars and set(z) <= alphabets.tgt_chars:
            usable.append((x, z))
        else:
            skipped_uncovered += 1
    if not usable:
        raise EmTrainingError("every training pair has uncovered characters")

    ops = list(edit_operations(alphabets))
    theta = dict.fromkeys(ops, 1.0 / len(ops))
    log_likelihoods = []
    for _ in range(iterations):
        model = EditModel(alphabets, theta)
        counts = {}
        log_likelihood = 0.0
        skipped_zero = 0
        for x, z in usable:
            visits = []
            alpha = _forward_table(x, z, model, _backward_table(x, z, model), visits)
            p = alpha[len(x)][len(z)]
            if p > 0.0:
                log_likelihood += math.log(p)
                for op, weight in visits:
                    counts[op] = counts.get(op, 0.0) + weight / p
                continue
            visits = []
            beta = _backward_table(x, z, model, _log_forward_table)
            log_p = _log_forward_table(x, z, model, beta, visits)[len(x)][len(z)]
            if log_p == -math.inf:
                skipped_zero += 1
                continue
            log_likelihood += log_p
            for op, log_weight in visits:
                counts[op] = counts.get(op, 0.0) + math.exp(log_weight - log_p)
        if not counts:
            raise EmTrainingError("every training pair had zero probability")
        log_likelihoods.append(log_likelihood)
        total = sum(counts.values())
        theta = {op: counts.get(op, 0.0) / total for op in ops}
    if skipped_uncovered or skipped_zero:
        logger.warning(
            "EM skipped %d uncovered and %d zero-probability pairs",
            skipped_uncovered,
            skipped_zero,
        )
    stats = EmStats(log_likelihoods, skipped_uncovered, skipped_zero)
    return EditModel(alphabets, theta, training_stats=stats)


def boost_from_log_prob(log_p, max_len, src_size, tgt_size, scale):
    """Boost value from a log joint probability and the word-pair length.

    Zero exactly when the per-operation log probability sits at chance
    level, -log((1 + src_size) * (1 + tgt_size)); equals scale at p = 1.
    """
    if log_p == -math.inf:
        return 0.0
    chance = math.log((1 + src_size) * (1 + tgt_size))
    return scale * max(0.0, 1.0 + (log_p / max_len) / chance)


def edit_similarity_boost(x, z, model, scale):
    """Similarity addend for a word pair; lies in [0, scale]."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if not x or not z:
        raise ValueError("boost requires non-empty words")
    log_p = log_edit_probability(x, z, model)
    return boost_from_log_prob(
        log_p,
        max(len(x), len(z)),
        len(model.alphabets.src),
        len(model.alphabets.tgt),
        scale,
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
