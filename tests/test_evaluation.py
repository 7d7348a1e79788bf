"""Precision@1, the external-scorer boost, and scaling-constant selection."""

import math

import pytest

from orthomap import pipeline
from orthomap.corpus_io import RefLexicon
from orthomap.errors import ConfigError, ConvergenceError, InputFormatError
from orthomap.evaluation import (
    ScorerTable,
    external_scorer_boost,
    load_scorer_table,
    precision_at_1,
    scorer_boost_value,
    select_scaling_constant,
)
from orthomap.pipeline import RunConfig, run_sweep


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


class Poison:
    """Blows up on any attribute access; guards reference-free paths."""

    def __getattr__(self, name):
        raise AssertionError(f"reference data was read (attribute {name!r})")


def sweep_config(bench, out_dir, **overrides):
    cfg = dict(
        src_embeddings=str(bench.src_embeddings),
        tgt_embeddings=str(bench.tgt_embeddings),
        output_dir=str(out_dir),
        mode="ortho-ext",
        criterion="objective",
        seeds=[4],
        stall_window=5,
    )
    cfg.update(overrides)
    return RunConfig(**cfg)


class TestSelection:
    """select_scaling_constant reduces (c, [value of each run]) rows. The
    sweep that runs the points and computes their values, and the
    configuration check that vets its grid and criterion, are
    pipeline.run_sweep and RunConfig.validate(for_sweep=True)."""

    def test_dev_accuracy_picks_best(self):
        best, points = select_scaling_constant(
            [(0.1, [0.0]), (0.2, [1.0]), (0.3, [0.0])], "dev-accuracy"
        )
        assert best == 0.2
        assert [p.mean for p in points] == [0.0, 1.0, 0.0]

    def test_tie_breaks_toward_smaller_scale(self):
        best, _ = select_scaling_constant([(0.1, [0.5]), (0.2, [0.5]), (0.4, [0.5])], "objective")
        assert best == 0.1

    def test_repeated_grid_value_keeps_its_own_row(self):
        rows = [(0.3, [0.2]), (0.3, [0.4]), (0.6, [0.4])]
        best, points = select_scaling_constant(rows, "objective")
        assert [(p.scale, p.values, p.mean) for p in points] == [
            (0.3, [0.2], 0.2), (0.3, [0.4], 0.4), (0.6, [0.4], 0.4)
        ]
        assert best == 0.3

    def test_objective_path_reads_no_reference(self, tiny_benchmark, tmp_path, monkeypatch):
        # The sweep loads the dev lexicon it is given, but the objective
        # criterion never reads it.
        monkeypatch.setattr(pipeline, "load_ref_lexicon", lambda path: Poison())
        cfg = sweep_config(
            tiny_benchmark, tmp_path / "sweep", dev_lexicon=str(tiny_benchmark.gold_lexicon),
            grid=[0.1, 0.9],
        )
        best, points = run_sweep(cfg)
        assert best in (0.1, 0.9) and [p.scale for p in points] == [0.1, 0.9]

    def test_averaging_over_seeded_runs(self):
        best, points = select_scaling_constant(
            [(0.1, [0.1, 0.2, 0.3]), (0.5, [0.5, 0.6, 0.7])], "objective"
        )
        assert best == 0.5
        assert points[1].values == [0.5, 0.6, 0.7]
        assert points[1].mean == pytest.approx(0.6)

    def test_runner_failure_names_the_scale(self, tiny_benchmark, tmp_path, monkeypatch, caplog):
        # A failing run's typed error leaves the sweep unchanged (the CLI
        # maps it to its exit code); the log names the failing point.
        def failing(*args):
            raise ConvergenceError("boom")

        monkeypatch.setattr(pipeline, "execute_run", failing)
        with pytest.raises(ConvergenceError, match="boom"):
            run_sweep(sweep_config(tiny_benchmark, tmp_path / "sweep", grid=[0.3]))
        assert "pipeline run failed at scale c=0.3, seed 4" in caplog.text
        assert not (tmp_path / "sweep").exists()

    def test_reproducible_selection(self):
        rows = [(0.2, [0.3, 0.1]), (0.4, [0.2, 0.2])]
        first = select_scaling_constant(rows, "objective")
        second = select_scaling_constant(rows, "objective")
        assert first == second
        assert rows == [(0.2, [0.3, 0.1]), (0.4, [0.2, 0.2])]

    def test_empty_grid_rejected(self, tiny_benchmark, tmp_path):
        with pytest.raises(ConfigError, match="non-empty grid"):
            sweep_config(tiny_benchmark, tmp_path, grid=[]).validate(for_sweep=True)

    def test_dev_required_for_accuracy(self, tiny_benchmark, tmp_path):
        cfg = sweep_config(tiny_benchmark, tmp_path, criterion="dev-accuracy")
        with pytest.raises(ConfigError, match="dev lexicon"):
            cfg.validate(for_sweep=True)
