"""Accuracy measurement, external-scorer boost, scaling-constant selection.

The external scorer's table is read by corpus_io.read_probabilities, as
saved edit models are.
"""

import logging
import math
from dataclasses import dataclass
from statistics import fmean

from .corpus_io import read_probabilities
from .errors import InputFormatError

logger = logging.getLogger(__name__)


@dataclass
class EvalReport:
    """Precision@1 outcome with per-pair records.

    evaluated + skipped_oov always equals the reference size; predictions
    holds (source, predicted, correct) for every evaluated word.
    """

    p_at_1: float
    evaluated: int
    skipped_oov: int
    predictions: list

    def summary(self):
        return (
            f"P@1 {self.p_at_1:.4f} over {self.evaluated} evaluated words"
            f" ({self.skipped_oov} out-of-vocabulary)"
        )


def precision_at_1(predicted, ref, oov_mode="skip"):
    """Score a source -> target mapping against a reference lexicon.

    A prediction is correct when it is any of the reference translations.
    Source words without a prediction are out of vocabulary: "skip" drops
    them from the denominator, "count-wrong" keeps them in it.
    """
    if oov_mode not in ("skip", "count-wrong"):
        raise ValueError(f"unknown oov_mode {oov_mode!r}")
    if not ref.pairs:
        raise ValueError("empty reference lexicon")
    records = []
    correct = 0
    skipped = 0
    for source in ref.pairs:
        guess = predicted.get(source)
        if guess is None:
            skipped += 1
            continue
        ok = guess in ref.pairs[source]
        correct += ok
        records.append((source, guess, ok))
    evaluated = len(records)
    denominator = evaluated if oov_mode == "skip" else evaluated + skipped
    p = correct / denominator if denominator else 0.0
    return EvalReport(p, evaluated, skipped, records)


def write_predictions_tsv(report, path):
    """Machine-readable per-pair predictions."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        for source, guess, ok in report.predictions:
            fh.write(f"{source}\t{guess}\t{int(ok)}\n")


@dataclass
class ScorerTable:
    """Externally produced conditional probabilities p(target | source).

    tgt_unigram_count is the number of distinct target characters the scorer
    was trained on; it sets the chance level of the boost formula.
    """

    scores: dict
    tgt_unigram_count: int

    def __post_init__(self):
        if self.tgt_unigram_count < 2:
            raise ValueError("tgt_unigram_count must be at least 2")


def load_scorer_table(path):
    """Read a "source<TAB>target<TAB>probability" table (see
    corpus_io.read_probabilities) whose probabilities lie in (0, 1].

    The unigram count is the number of distinct characters of the table's
    target words; a table with fewer than two is rejected, since the boost
    formula divides by the logarithm of that count.
    """
    scores = {}
    for lineno, src, tgt, p in read_probabilities(path, "pair"):
        if not 0.0 < p <= 1.0:
            raise InputFormatError(f"{path}:{lineno}: probability {p} outside (0, 1]")
        scores[src, tgt] = p
    chars = set().union(*(tgt for _, tgt in scores))
    if len(chars) < 2:
        raise InputFormatError(
            f"{path}: target words use {len(chars)} distinct characters, at least 2 needed"
        )
    return ScorerTable(scores, len(chars))


def scorer_boost_value(p, tgt_unigram_count, scale):
    """Boost formula on a raw conditional probability; lies in [0, scale]."""
    return scale * max(0.0, 1.0 + math.log(p) / math.log(tgt_unigram_count))


def external_scorer_boost(x, z, table, scale):
    """Similarity addend for a pair; pairs absent from the table give 0."""
    if scale < 0:
        raise ValueError("scale must be non-negative")
    p = table.scores.get((x, z))
    if p is None:
        return 0.0
    return scorer_boost_value(p, table.tgt_unigram_count, scale)


@dataclass
class SweepPoint:
    """Averaged criterion value for one scaling constant."""

    scale: float
    values: list
    mean: float


def select_scaling_constant(values, criterion):
    """The scaling constant whose runs have the highest mean criterion value.

    ``values`` lists ``(c, [criterion value of each run])`` in ascending c,
    one entry per grid value, so a repeated value keeps its own row; the
    sweep (pipeline.run_sweep) runs the points and computes the values.
    Returns the selected constant and one SweepPoint per entry; ties go to
    the smaller constant. ``criterion`` names the values in the log line
    of each mean.
    """
    points = []
    best_scale, best_mean = None, -math.inf
    for scale, runs in values:
        mean = fmean(runs)
        points.append(SweepPoint(scale, runs, mean))
        logger.info("scale %.4g: %s mean %.6f", scale, criterion, mean)
        if mean > best_mean:
            best_scale, best_mean = scale, mean
    return best_scale, points
