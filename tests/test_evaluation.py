"""Precision@1, the external-scorer boost, and scaling-constant selection."""

import math
from dataclasses import dataclass

import pytest

from orthomap.corpus_io import RefLexicon
from orthomap.errors import ConvergenceError, InputFormatError
from orthomap.evaluation import (
    ScorerTable,
    external_scorer_boost,
    load_scorer_table,
    precision_at_1,
    scorer_boost_value,
    select_scaling_constant,
)


class TestPrecisionAt1:
    def test_any_reference_translation_counts(self):
        ref = RefLexicon({"dog": {"собака", "пёс"}})
        report = precision_at_1({"dog": "пёс"}, ref)
        assert report.p_at_1 == 1.0
        assert report.predictions == [("dog", "пёс", True)]

    def test_wrong_prediction(self):
        ref = RefLexicon({"dog": {"собака"}})
        assert precision_at_1({"dog": "кот"}, ref).p_at_1 == 0.0

    def test_oov_skip_mode(self):
        ref = RefLexicon({"dog": {"собака"}, "cat": {"кот"}})
        report = precision_at_1({"dog": "собака"}, ref, "skip")
        assert report.p_at_1 == 1.0
        assert report.evaluated == 1
        assert report.skipped_oov == 1

    def test_oov_count_wrong_mode(self):
        ref = RefLexicon({"dog": {"собака"}, "cat": {"кот"}})
        report = precision_at_1({"dog": "собака"}, ref, "count-wrong")
        assert report.p_at_1 == 0.5

    def test_accounting_invariant(self):
        ref = RefLexicon({f"w{i}": {f"t{i}"} for i in range(10)})
        predicted = {f"w{i}": f"t{i}" for i in range(0, 10, 2)}
        report = precision_at_1(predicted, ref)
        assert report.evaluated + report.skipped_oov == len(ref.pairs)

    def test_order_invariance(self):
        pairs = {f"w{i}": {f"t{i}"} for i in range(20)}
        predicted = {f"w{i}": f"t{i}" if i % 3 else "x" for i in range(20)}
        forward = precision_at_1(predicted, RefLexicon(dict(pairs))).p_at_1
        reordered = RefLexicon(dict(reversed(list(pairs.items()))))
        assert precision_at_1(predicted, reordered).p_at_1 == forward

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            precision_at_1({}, RefLexicon({}))


class TestScorerBoost:
    def test_certainty_gives_scale(self):
        table = ScorerTable({("a", "b"): 1.0}, tgt_unigram_count=50)
        assert external_scorer_boost("a", "b", table, 0.7) == 0.7

    def test_chance_point_exactly_zero(self):
        # log(0.5) is the exact negation of log(2), so the ratio is -1.
        table = ScorerTable({("a", "b"): 0.5}, tgt_unigram_count=2)
        assert external_scorer_boost("a", "b", table, 0.9) == 0.0

    def test_worked_value(self):
        # 50 target unigrams, log p = -1.956: the ratio is one half.
        assert scorer_boost_value(math.exp(-1.956), 50, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_absent_pair_contributes_zero(self):
        table = ScorerTable({("a", "b"): 0.9}, tgt_unigram_count=10)
        assert external_scorer_boost("a", "c", table, 1.0) == 0.0

    def test_bounds(self):
        table = ScorerTable({("a", "b"): 1e-12}, tgt_unigram_count=5)
        assert external_scorer_boost("a", "b", table, 0.4) == 0.0

    def test_scale_factors_out_bitwise(self):
        # A sweep scores each candidate once at c = 1 and multiplies by c;
        # that must give the boost at c exactly, c = 0 included.
        probs = [1e-9, 0.01, 0.02, 0.1, 0.3, 0.5, 0.77, 0.9, 1.0]
        for count in (2, 7, 50):
            table = ScorerTable({("a", f"t{k}"): p for k, p in enumerate(probs)}, count)
            for k in range(len(probs) + 1):  # t{len(probs)} is absent
                unit = external_scorer_boost("a", f"t{k}", table, 1.0)
                for c in (0.0, 1e-3, 0.05, 0.3, 0.7, 1.0, 1.4, 3.7):
                    assert c * unit == external_scorer_boost("a", f"t{k}", table, c)

    def test_load_table(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("dog\tсобака\t0.5\ncat\tкот\t1.0\n", encoding="utf-8")
        table = load_scorer_table(path)
        assert table.scores[("dog", "собака")] == 0.5
        assert table.tgt_unigram_count == len(set("собакакот"))

    def test_load_rejects_bad_probability(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a\tb\t1.5\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_scorer_table(path)


@dataclass
class FakeOutcome:
    predictions: dict
    mean_cosine: float


class Poison:
    """Blows up on any attribute access; guards reference-free paths."""

    def __getattr__(self, name):
        raise AssertionError(f"reference data was read (attribute {name!r})")


class TestSelection:
    def test_dev_accuracy_picks_best(self):
        dev = RefLexicon({"w": {"right"}})
        quality = {0.1: "wrong", 0.2: "right", 0.3: "wrong"}

        def runner(scale, seed):
            return FakeOutcome({"w": quality[scale]}, 0.0)

        best, points = select_scaling_constant(runner, [0.1, 0.2, 0.3], "dev-accuracy", dev=dev)
        assert best == 0.2
        assert [p.mean for p in points] == [0.0, 1.0, 0.0]

    def test_tie_breaks_toward_smaller_scale(self):
        def runner(scale, seed):
            return FakeOutcome({}, 0.5)

        best, _ = select_scaling_constant(runner, [0.4, 0.1, 0.2], "objective")
        assert best == 0.1

    def test_objective_path_reads_no_reference(self):
        def runner(scale, seed):
            return FakeOutcome({}, scale)

        best, _ = select_scaling_constant(runner, [0.1, 0.9], "objective", dev=Poison())
        assert best == 0.9

    def test_averaging_over_seeded_runs(self):
        def runner(scale, seed):
            return FakeOutcome({}, scale + 0.1 * seed)

        best, points = select_scaling_constant(
            runner, [0.1, 0.5], "objective", runs_per_c=3, seeds=[0, 1, 2]
        )
        assert best == 0.5
        assert points[1].values == [0.5, 0.6, 0.7]

    def test_runner_failure_names_the_scale(self, caplog):
        # The typed error propagates unchanged (the CLI maps it to its exit
        # code); the log names the failing constant.
        def runner(scale, seed):
            raise ConvergenceError("boom")

        with pytest.raises(ConvergenceError, match="boom"):
            select_scaling_constant(runner, [0.3], "objective")
        assert "c=0.3" in caplog.text

    def test_reproducible_selection(self):
        def runner(scale, seed):
            return FakeOutcome({}, scale * (seed + 1))

        first = select_scaling_constant(runner, [0.2, 0.4], "objective", seeds=[7])
        second = select_scaling_constant(runner, [0.2, 0.4], "objective", seeds=[7])
        assert first[0] == second[0]
        assert [p.mean for p in first[1]] == [p.mean for p in second[1]]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            select_scaling_constant(lambda c, s: None, [], "objective")

    def test_dev_required_for_accuracy(self):
        with pytest.raises(ValueError):
            select_scaling_constant(lambda c, s: None, [0.1], "dev-accuracy")
