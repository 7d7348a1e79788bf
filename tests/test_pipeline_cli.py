"""Pipeline orchestration and the command-line surface."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import orthomap
from orthomap import numerics, pipeline, self_learning
from orthomap.cli import THREADS_ENV_VAR, _apply_thread_limit, build_parser, main
from orthomap.corpus_io import load_ref_lexicon
from orthomap.edit_model import (
    EditModel,
    _em_chunks,
    build_edit_alphabets,
    edit_operations,
    em_train,
)
from orthomap.errors import ConfigError
from orthomap.evaluation import precision_at_1, select_scaling_constant
from orthomap.pipeline import (
    DEFAULT_GRID,
    RunConfig,
    derive_seed,
    execute_run,
    run_pipeline,
    run_sweep,
    sweep_seeds,
)
from oracles import reference_em_train


def base_config(bench, out_dir, **overrides):
    cfg = dict(
        src_embeddings=str(bench.src_embeddings),
        tgt_embeddings=str(bench.tgt_embeddings),
        output_dir=str(out_dir),
        seeds=[4],
    )
    cfg.update(overrides)
    return RunConfig(**cfg)


def gold_scorer_table(bench, path):
    """Scorer table giving every gold pair probability 0.9."""
    gold = load_ref_lexicon(bench.gold_lexicon)
    with open(path, "w", encoding="utf-8") as fh:
        for src, targets in gold.pairs.items():
            for tgt in targets:
                fh.write(f"{src}\t{tgt}\t0.9\n")
    return path


class TestRunConfig:
    def test_default_grid_shape(self):
        assert len(DEFAULT_GRID) == 18
        assert DEFAULT_GRID[0] == 0.05
        assert DEFAULT_GRID[-1] == 1.4

    def test_missing_embedding_is_config_error(self, tmp_path):
        cfg = RunConfig(
            src_embeddings=str(tmp_path / "nope.vec"),
            tgt_embeddings=str(tmp_path / "nope.vec"),
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_mode_rejected(self, tiny_benchmark, tmp_path):
        cfg = base_config(tiny_benchmark, tmp_path, mode="fancy")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_external_scorer_needs_table(self, tiny_benchmark, tmp_path):
        cfg = base_config(tiny_benchmark, tmp_path, mode="external-scorer")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_manifest_roundtrip(self, tiny_benchmark, tmp_path):
        cfg = base_config(tiny_benchmark, tmp_path, mode="ortho-ext", scale=0.25)
        manifest = cfg.to_manifest(iterations=3)
        assert manifest["package_version"]
        assert manifest["config"]["scale"] == 0.25
        back = RunConfig.from_mapping(manifest)
        assert back == cfg

    def test_flat_manifest_names_dropped_keys(self, tiny_benchmark, tmp_path, caplog):
        cfg = base_config(tiny_benchmark, tmp_path)
        flat = {**cfg.to_manifest()["config"], "package_version": "0", "train_cuttof": 5}
        with caplog.at_level("WARNING", logger="orthomap.pipeline"):
            assert RunConfig.from_mapping(flat) == cfg
        assert "train_cuttof" in caplog.text and "package_version" not in caplog.text

    def test_unknown_manifest_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"wat": 1})

    def test_derive_seed_is_stable_and_phase_dependent(self):
        assert derive_seed(3, 0) == derive_seed(3, 0)
        assert derive_seed(3, 0) != derive_seed(3, 1)


class TestRunPipeline:
    def test_baseline_artifacts(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark, tmp_path / "run", test_lexicon=str(tiny_benchmark.gold_lexicon)
        )
        outcome = run_pipeline(cfg)
        out = tmp_path / "run"
        assert (out / "lexicon.tsv").is_file()
        assert (out / "trace.tsv").is_file()
        assert (out / "predictions.tsv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "baseline"
        assert manifest["test_p_at_1"] == outcome.eval_report.p_at_1
        assert outcome.eval_report.p_at_1 >= 0.95
        trace_lines = (out / "trace.tsv").read_text().splitlines()
        assert trace_lines[0] == "iteration\tp_keep\tobjective\tdict_size\tmutual_pairs\tchurn"
        assert len(trace_lines) - 1 == outcome.result.state.iteration

    def test_no_partial_outputs_on_config_error(self, tiny_benchmark, tmp_path):
        out = tmp_path / "never"
        cfg = base_config(tiny_benchmark, out)
        cfg.src_embeddings = str(tmp_path / "missing.vec")
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
        assert not out.exists()

    def test_manifest_reproduces_run_bit_for_bit(self, tiny_benchmark, tmp_path):
        cfg = base_config(tiny_benchmark, tmp_path / "first")
        run_pipeline(cfg)
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        replay = RunConfig.from_mapping(manifest)
        replay.output_dir = str(tmp_path / "second")
        run_pipeline(replay)
        for name in ("lexicon.tsv", "trace.tsv"):
            first = (tmp_path / "first" / name).read_bytes()
            assert first == (tmp_path / "second" / name).read_bytes()

    def test_manifests_record_peak_rss(self, tiny_benchmark, tmp_path):
        run_pipeline(base_config(tiny_benchmark, tmp_path / "run", stall_window=5))
        run_sweep(
            base_config(
                tiny_benchmark, tmp_path / "sweep", criterion="objective", grid=[0.1],
                stall_window=5,
            )
        )
        for out in ("run", "sweep"):
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
            assert "peak_rss_mb" not in manifest["config"]

    def test_replay_ignores_peak_rss(self, tiny_benchmark, tmp_path, caplog):
        cfg = base_config(tiny_benchmark, tmp_path / "first")
        run_pipeline(cfg)
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        flat = {**manifest["config"], "package_version": manifest["package_version"],
                "peak_rss_mb": manifest["peak_rss_mb"]}
        with caplog.at_level("WARNING", logger="orthomap.pipeline"):
            assert RunConfig.from_mapping(flat) == cfg
        assert "['peak_rss_mb']" in caplog.text
        assert RunConfig.from_mapping(manifest) == cfg
        run_pipeline(replace(RunConfig.from_mapping(manifest), output_dir=str(tmp_path / "again")))
        for name in ("lexicon.tsv", "trace.tsv"):
            first = (tmp_path / "first" / name).read_bytes()
            assert first == (tmp_path / "again" / name).read_bytes()

    def test_dev_test_overlap_rejected(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "run",
            dev_lexicon=str(tiny_benchmark.gold_lexicon),
            test_lexicon=str(tiny_benchmark.gold_lexicon),
        )
        with pytest.raises(ConfigError, match="share"):
            run_pipeline(cfg)

    def test_edit_dist_mode_runs_and_saves_model(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "run",
            mode="edit-dist",
            scale=0.4,
            test_lexicon=str(tiny_benchmark.gold_lexicon),
        )
        outcome = run_pipeline(cfg)
        assert (tmp_path / "run" / "edit_model.tsv").is_file()
        assert outcome.extras["candidates"] > 0
        assert outcome.eval_report.p_at_1 >= 0.95

    def test_external_scorer_mode(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "run",
            mode="external-scorer",
            scale=0.4,
            scorer_table=str(gold_scorer_table(tiny_benchmark, tmp_path / "scores.tsv")),
            test_lexicon=str(tiny_benchmark.gold_lexicon),
        )
        outcome = run_pipeline(cfg)
        assert outcome.eval_report.p_at_1 >= 0.95

    def test_baseline_and_boosted_share_main_loop_seed(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        # The first loop of a boosted mode equals the loop of a standalone
        # baseline run under the same master seed; it has no final pass.
        runs, loops = [], []
        for name, records in (("run_self_learning", runs), ("run_loop", loops)):
            def recording(*args, _fn=getattr(pipeline, name), _records=records, **kwargs):
                _records.append(_fn(*args, **kwargs))
                return _records[-1]

            monkeypatch.setattr(pipeline, name, recording)
        execute_run(base_config(tiny_benchmark, tmp_path / "a"), seed=9)
        edit = execute_run(
            base_config(tiny_benchmark, tmp_path / "b", mode="edit-dist", scale=0.3),
            seed=9,
        )
        assert len(runs) == 2 and len(loops) == 1 and edit.extras["synthetic_pairs"] > 0
        base, main = runs[0], loops[0]
        assert main.trace == base.trace
        assert main.loop_dictionary == base.loop_dictionary
        assert np.array_equal(main.loop_dictionary_scores, base.loop_dictionary_scores)

    def test_boosted_synthetic_pairs_equal_full_main_run(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        # EM trains on the pairs the main loop of a full run would give.
        trained = []

        def recording_em(pairs, *args, **kwargs):
            trained.append(pairs)
            return em_train(pairs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "em_train", recording_em)
        cfg = base_config(tiny_benchmark, tmp_path, mode="edit-dist", scale=0.3)
        execute_run(cfg, seed=9)
        src, tgt = pipeline.load_inputs(cfg)
        init = self_learning.init_dictionary_unsupervised(src, tgt, len(src.vocab))
        main = self_learning.run_self_learning(
            src, tgt, cfg.loop_config(derive_seed(9, 0)), init=init
        )
        expected = pipeline._synthetic_pairs(main, src.vocab, tgt.vocab, cfg.synth_pairs)
        assert trained == [expected]

    def test_boosted_run_has_one_final_pass(self, tiny_benchmark, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("retrieve_lexicon", "compute_whitening"):
            def counting(*args, _name=name, _fn=getattr(self_learning, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(self_learning, name, counting)
        execute_run(base_config(tiny_benchmark, tmp_path, mode="edit-dist", scale=0.3), seed=9)
        assert calls == {"retrieve_lexicon": 1, "compute_whitening": 2}

    def test_degenerate_whitening_fails_in_boosted_final_pass(
        self, tiny_benchmark, tmp_path, monkeypatch
    ):
        # Without a positive eigenvalue floor every whitening fails; the
        # boosted loop's final pass whitens the rows the main loop's did.
        monkeypatch.setattr(numerics, "EIGEN_FLOOR_RATIO", 0.0)
        trained = []

        def recording_em(pairs, *args, **kwargs):
            trained.append(len(pairs))
            return em_train(pairs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "em_train", recording_em)
        for mode in ("baseline", "edit-dist"):
            with pytest.raises(ValueError, match="covariance has no positive eigenvalue"):
                execute_run(base_config(tiny_benchmark, tmp_path, mode=mode, scale=0.3), seed=9)
        assert len(trained) == 1  # the edit-dist run failed after EM


class TestSweep:
    def test_sweep_selects_and_reports(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "sweep",
            mode="ortho-ext",
            dev_lexicon=str(tiny_benchmark.gold_lexicon),
            grid=[0.1, 0.3],
        )
        best, points = run_sweep(cfg)
        assert best in (0.1, 0.3)
        report = (tmp_path / "sweep" / "sweep_report.tsv").read_text().splitlines()
        assert report[0] == "scale\tmean\truns"
        assert len(report) == 3

    def test_objective_criterion_needs_no_dev(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "sweep",
            mode="ortho-ext",
            criterion="objective",
            grid=[0.1, 0.2],
        )
        best, points = run_sweep(cfg)
        assert best in (0.1, 0.2)
        assert all(len(p.values) == 1 for p in points)


class TestStagedSweep:
    """A sweep computes the c-independent stages of a boosted run once per seed."""

    @pytest.mark.parametrize("mode", ["edit-dist", "external-scorer"])
    def test_matches_fresh_runs(self, tiny_benchmark, tmp_path, monkeypatch, mode):
        table = gold_scorer_table(tiny_benchmark, tmp_path / "scores.tsv")
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "sweep",
            mode=mode,
            scorer_table=str(table),
            dev_lexicon=str(tiny_benchmark.gold_lexicon),
            grid=[0.0, 0.4],
            runs_per_c=2,
        )
        swept = {}

        def recording_run(run_cfg, seed, *shared):
            swept[run_cfg.scale, seed] = execute_run(run_cfg, seed, *shared)
            return swept[run_cfg.scale, seed]

        monkeypatch.setattr(pipeline, "execute_run", recording_run)
        _, points = run_sweep(cfg)

        fresh = {
            (c, seed): execute_run(replace(cfg, scale=c), seed)
            for c in cfg.grid
            for seed in sweep_seeds(cfg)
        }
        assert swept.keys() == fresh.keys()
        for key, outcome in fresh.items():
            got = swept[key]
            assert got.predictions == outcome.predictions
            assert got.result.trace == outcome.result.trace
            assert (got.result.lexicon.tgt == outcome.result.lexicon.tgt).all()
            assert (got.result.lexicon_cosine == outcome.result.lexicon_cosine).all()
            assert got.extras.pop("edit_model").theta == outcome.extras.pop("edit_model").theta
            assert got.extras == outcome.extras
        assert swept[0.0, 4].extras["boosted_pairs"] == 0 < fresh[0.4, 4].extras["boosted_pairs"]
        _, expected = select_scaling_constant(
            lambda c, seed: fresh[c, seed],
            cfg.grid,
            cfg.criterion,
            runs_per_c=2,
            seeds=sweep_seeds(cfg),
            dev=load_ref_lexicon(cfg.dev_lexicon),
        )
        assert points == expected

    def test_stages_run_once_per_seed(self, tiny_benchmark, tmp_path, monkeypatch):
        # Counting wrappers on the module globals, where the benchmark's
        # spans also wrap these calls; the init also in self_learning, where
        # run_self_learning computes it when not given one.
        calls = Counter()
        for name in ("execute_run", "load_embeddings", "em_train", "candidate_pairs",
                     "run_loop", "run_self_learning", "init_dictionary_unsupervised"):
            def counting(*args, _name=name, _fn=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counting)
        monkeypatch.setattr(
            self_learning, "init_dictionary_unsupervised", pipeline.init_dictionary_unsupervised
        )
        cfg = base_config(
            tiny_benchmark,
            tmp_path / "sweep",
            mode="edit-dist",
            criterion="objective",
            grid=[0.2, 0.5],
            runs_per_c=2,
        )
        run_sweep(cfg)
        assert calls == {
            "execute_run": 4,
            "load_embeddings": 2,
            "em_train": 2,
            "candidate_pairs": 2,
            "run_loop": 2,
            "run_self_learning": 4,
            "init_dictionary_unsupervised": 2,
        }


class TestCli:
    def run_cli(self, *argv):
        return main([str(a) for a in argv])

    def test_gen_benchmark_and_induce_and_evaluate(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        assert self.run_cli(
            "gen-benchmark", "--n-words", 60, "--dim", 8, "--seed", 3,
            "--output-dir", bench_dir,
        ) == 0
        run_dir = tmp_path / "run"
        code = self.run_cli(
            "induce",
            "--src-emb", bench_dir / "embeddings.src.vec",
            "--tgt-emb", bench_dir / "embeddings.tgt.vec",
            "--output-dir", run_dir,
            "--test", bench_dir / "gold.lexicon.tsv",
            "--seed", 1,
        )
        assert code == 0
        assert (run_dir / "lexicon.tsv").is_file()
        code = self.run_cli(
            "evaluate",
            "--lexicon", run_dir / "lexicon.tsv",
            "--reference", bench_dir / "gold.lexicon.tsv",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P@1" in out

    def test_missing_embeddings_exit_code(self, tmp_path):
        code = self.run_cli(
            "induce",
            "--src-emb", tmp_path / "none.vec",
            "--tgt-emb", tmp_path / "none.vec",
            "--output-dir", tmp_path / "run",
        )
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_config_file_with_flag_override(self, tiny_benchmark, tmp_path):
        config = {
            "src_embeddings": str(tiny_benchmark.src_embeddings),
            "tgt_embeddings": str(tiny_benchmark.tgt_embeddings),
            "output_dir": str(tmp_path / "from-file"),
            "seeds": [2],
            "train_cutoff": 50,
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = self.run_cli(
            "induce", "--config", config_path, "--output-dir", tmp_path / "flag-wins"
        )
        assert code == 0
        assert (tmp_path / "flag-wins" / "lexicon.tsv").is_file()
        assert not (tmp_path / "from-file").exists()
        manifest = json.loads((tmp_path / "flag-wins" / "manifest.json").read_text())
        assert manifest["config"]["train_cutoff"] == 50

    def test_rerun_from_manifest_cli(self, tiny_benchmark, tmp_path):
        first = tmp_path / "one"
        assert self.run_cli(
            "induce",
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", first,
            "--seed", 6,
        ) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert "threads" not in manifest
        # Older manifests were flat: the fields, the outputs a run could
        # record, and "threads", which replay never applied.
        outputs = dict.fromkeys(
            ("seed_used", "iterations", "final_objective", "mean_cosine", "test_p_at_1",
             "alphabet_size", "synthetic_pairs", "candidates", "untransliterable",
             "boosted_pairs", "edit_model_path", "selected_scale"),
            1,
        )
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps({**outputs, **manifest.pop("config"), **manifest, "threads": 2}))
        for k, config in enumerate((first / "manifest.json", old)):
            second = tmp_path / f"replay{k}"
            assert self.run_cli("induce", "--config", config, "--output-dir", second) == 0
            for name in ("lexicon.tsv", "trace.tsv"):
                assert (first / name).read_bytes() == (second / name).read_bytes()
            replayed = json.loads((second / "manifest.json").read_text())
            assert "threads" not in replayed and "threads" not in replayed["config"]

    @pytest.mark.parametrize(
        "config", [{"seeds": [1], "wat": 1}, ["seeds", 1]], ids=["unknown-key", "not-an-object"]
    )
    def test_bad_config_file_exit_code(self, tiny_benchmark, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = self.run_cli(
            "induce",
            "--config", path,
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", tmp_path / "run",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seeds", 3),
            ("seeds", [1, "2"]),
            ("grid", [0.3, "0.6"]),
            ("train_cutoff", "20"),
            ("train_cutoff", 20.0),
            ("scale", True),
            ("max_vocab", "100"),
        ],
        ids=["seeds-int", "seeds-str-element", "grid-str-element", "cutoff-str",
             "cutoff-float", "scale-bool", "max-vocab-str"],
    )
    def test_config_value_of_wrong_type(
        self, tiny_benchmark, tmp_path, capsys, monkeypatch, key, value
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("inputs read before the config was checked")

        monkeypatch.setattr(pipeline, "load_embeddings", no_load)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "baseline", key: value}), encoding="utf-8")
        code = self.run_cli(
            "induce",
            "--config", path,
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", tmp_path / "run",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and repr(key) in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("gen-benchmark", "--n-words", 5, "--output-dir", "{tmp}/out"), 2),
            (("gen-benchmark", "--noise", "nan", "--output-dir", "{tmp}/out"), 2),
            (("train-edit-model", "--pairs", "{tmp}/pairs.tsv", "--output", "{tmp}/out",
              "--iterations", 0), 2),
            (("train-edit-model", "--pairs", "{tmp}/empty.tsv", "--output", "{tmp}/out"), 3),
            (("transliterate", "--model", "{tmp}/model.tsv", "qqq"), 3),
            # Only one alphabet: refused before any (here absent) file is read.
            (("train-edit-model", "--pairs", "{tmp}/absent.tsv", "--output", "{tmp}/out",
              "--src-vocab", "{tmp}/absent.vec"), 2),
            (("train-edit-model", "--pairs", "{tmp}/absent.tsv", "--output", "{tmp}/out",
              "--tgt-vocab", "{tmp}/absent.vec"), 2),
        ],
        ids=["gen-benchmark-few-words", "gen-benchmark-nan-noise", "train-zero-iterations",
             "train-empty-pairs", "transliterate-uncovered", "train-src-vocab-only",
             "train-tgt-vocab-only"],
    )
    def test_subcommand_errors_exit_with_typed_code(self, tmp_path, capsys, argv, expected):
        (tmp_path / "pairs.tsv").write_text("ab xy\nba yx\n", encoding="utf-8")
        (tmp_path / "empty.tsv").write_text("\n", encoding="utf-8")
        alphabets = build_edit_alphabets(["ab"], ["xy"])
        ops = list(edit_operations(alphabets))
        EditModel(alphabets, dict.fromkeys(ops, 1 / len(ops))).save(tmp_path / "model.tsv")
        code = self.run_cli(*(str(a).format(tmp=tmp_path) for a in argv))
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given, missing", [("--src-vocab", "--tgt-vocab"),
                                                ("--tgt-vocab", "--src-vocab")])
    def test_train_edit_model_names_the_missing_vocab(self, tmp_path, capsys, given, missing):
        code = self.run_cli(
            "train-edit-model", "--pairs", tmp_path / "absent.tsv",
            "--output", tmp_path / "model.tsv", given, tmp_path / "absent.vec",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: missing {missing}:")

    def test_trained_model_file_equals_reference(self, tmp_path, capsys):
        # The batched EM writes the file the scalar reference EM gives, byte
        # for byte, over bigram alphabets and more pairs than one chunk.
        rng = np.random.default_rng(12)
        cipher = dict(zip("abcdefgh", "qrstuvwx"))
        words = ["".join(rng.choice(list("abcdefgh"), size=rng.integers(1, 9)))
                 for _ in range(120)]
        pairs = [(w, "".join(cipher[c] for c in w)) for w in words]
        (tmp_path / "pairs.tsv").write_text(
            "".join(f"{x} {z}\n" for x, z in pairs), encoding="utf-8"
        )
        assert self.run_cli(
            "train-edit-model", "--pairs", tmp_path / "pairs.tsv",
            "--output", tmp_path / "model.tsv", "--iterations", 3,
        ) == 0
        capsys.readouterr()
        alphabets = build_edit_alphabets(words, [z for _, z in pairs])
        assert len(_em_chunks(pairs, 9)) > 1
        theta, *_ = reference_em_train(pairs, alphabets, 3)
        EditModel(alphabets, theta).save(tmp_path / "reference.tsv")
        written = (tmp_path / "model.tsv").read_bytes()
        assert written == (tmp_path / "reference.tsv").read_bytes()

    def test_train_and_transliterate_roundtrip(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        lines = []
        cipher = {"a": "x", "b": "y", "c": "z"}
        words = ["abc", "cab", "bac", "abab", "ccba", "aabb"]
        for w in words:
            lines.append(f"{w} {''.join(cipher[c] for c in w)}")
        pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model_path = tmp_path / "model.tsv"
        assert self.run_cli(
            "train-edit-model", "--pairs", pairs, "--output", model_path,
            "--iterations", 3,
        ) == 0
        capsys.readouterr()
        assert self.run_cli("transliterate", "--model", model_path, "abc") == 0
        out = capsys.readouterr().out
        word, rendered, score = out.strip().split("\t")
        assert word == "abc"
        assert rendered == "xyz"
        assert float(score) < 0

    def test_em_untrainable_exit_code(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("aa xx\n", encoding="utf-8")
        vocab = tmp_path / "vocab.vec"
        vocab.write_text("1 2\nqq 0 1\n", encoding="utf-8")
        code = self.run_cli(
            "train-edit-model",
            "--pairs", pairs,
            "--output", tmp_path / "model.tsv",
            "--src-vocab", vocab,
            "--tgt-vocab", vocab,
        )
        assert code == 6

    def test_sweep_cli(self, tiny_benchmark, tmp_path, capsys):
        code = self.run_cli(
            "sweep",
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", tmp_path / "sweep",
            "--mode", "ortho-ext",
            "--dev", tiny_benchmark.gold_lexicon,
            "--grid", "0.1,0.2",
            "--seed", 2,
        )
        assert code == 0
        assert "selected c=" in capsys.readouterr().out
        assert (tmp_path / "sweep" / "sweep_report.tsv").is_file()

    def sweep_exit_code(self, bench, src_emb, tmp_path, *extra):
        return self.run_cli(
            "sweep",
            "--src-emb", src_emb,
            "--tgt-emb", bench.tgt_embeddings,
            "--output-dir", tmp_path / "sweep",
            "--mode", "ortho-ext",
            "--criterion", "objective",
            "--grid", "0.1",
            *extra,
        )

    def test_sweep_nonconvergence_exit_code(self, tiny_benchmark, tmp_path):
        code = self.sweep_exit_code(
            tiny_benchmark, tiny_benchmark.src_embeddings, tmp_path, "--max-iterations", 2
        )
        assert code == 4
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "command, options",
        [
            ("sweep", ("--mode", "edit-dist", "--grid=-0.1,0.2")),
            ("sweep", ("--mode", "edit-dist", "--grid=0.2,abc")),
            ("sweep", ("--mode", "edit-dist", "--grid=nan")),
            ("induce", ("--mode", "ortho-ext", "--scale", "nan")),
            ("induce", ("--mode", "ortho-ext", "--scale", "inf")),
            ("induce", ("--mode", "edit-dist", "--scale", "nan")),
        ],
        ids=["grid-negative", "grid-unparsable", "grid-nan", "ortho-ext-scale-nan",
             "ortho-ext-scale-inf", "edit-dist-scale-nan"],
    )
    def test_bad_scale_exits_before_reading_input(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, command, options
    ):
        def no_loading(*args, **kwargs):
            raise AssertionError("input read before the configuration was checked")

        monkeypatch.setattr(pipeline, "load_embeddings", no_loading)
        code = self.run_cli(
            command,
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--dev", tiny_benchmark.gold_lexicon,
            "--output-dir", tmp_path / "out",
            *options,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, n_words, options, expected",
        [
            ("induce", (2, 2), ("--mode", "baseline"), 4),
            ("sweep", (2, 2), ("--mode", "ortho-ext", "--criterion", "objective",
                               "--grid", "0.1"), 4),
            ("induce", (3, 3), ("--train-cutoff", "1"), 2),
            ("induce", (1, 3), (), 3),
            ("sweep", (1, 3), ("--mode", "edit-dist", "--criterion", "objective"), 3),
        ],
        ids=["two-words-induce", "two-words-ortho-ext-sweep", "cutoff-one",
             "one-word-induce", "one-word-sweep"],
    )
    def test_degenerate_inputs_exit_with_typed_error(
        self, tmp_path, monkeypatch, capsys, command, n_words, options, expected
    ):
        # With two words per side the first keep mask (p_keep 0.1) drops all
        # four similarities; one word leaves no signature to match.
        for side, n in zip(("src", "tgt"), n_words):
            rows = [f"{side}{i} " + " ".join("1" if j == i else "0" for j in range(3))
                    for i in range(n)]
            (tmp_path / f"{side}.vec").write_text(f"{n} 3\n" + "\n".join(rows) + "\n")
        if expected == 2:
            def no_loading(*args, **kwargs):
                raise AssertionError("input read before the configuration was checked")

            monkeypatch.setattr(pipeline, "load_embeddings", no_loading)
        code = self.run_cli(
            command,
            "--src-emb", tmp_path / "src.vec",
            "--tgt-emb", tmp_path / "tgt.vec",
            "--output-dir", tmp_path / "out",
            "--seed", 1,
            *options,
        )
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error: ") and "Traceback" not in err
        if expected == 4:
            assert "no dictionary entries induced at iteration 1 " in err
        assert not (tmp_path / "out").exists()

    def test_truncated_embeddings_exit_code(self, tiny_benchmark, tmp_path, capsys):
        lines = Path(tiny_benchmark.src_embeddings).read_text(encoding="utf-8").splitlines()
        short = tmp_path / "short.vec"
        short.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
        code = self.run_cli(
            "induce",
            "--src-emb", short,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", tmp_path / "run",
        )
        assert code == 3
        declared = int(lines[0].split()[0])
        assert f"after {declared - 2} of {declared} rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_malformed_embeddings_exit_code(self, tiny_benchmark, tmp_path):
        bad = tmp_path / "bad.vec"
        bad.write_text("2 3\nw0 0 1 x\nw1 1 0 0\n", encoding="utf-8")
        assert self.sweep_exit_code(tiny_benchmark, bad, tmp_path) == 3


def test_run_options_store_into_config_fields():
    # Replay and flag overrides copy args by field name, so each run option
    # must store into exactly one RunConfig field.
    def dests(command):
        names = set(vars(build_parser().parse_args([command])))
        names -= {"verbose", "threads", "command", "func", "config"}
        return {"seeds" if name == "seed" else name for name in names}

    fields = set(RunConfig.__dataclass_fields__)
    assert dests("sweep") == fields
    assert dests("induce") == fields - {"grid", "criterion", "runs_per_c"}


def test_threads_override_blas_variables(monkeypatch):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.setenv(var, "2")
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    _apply_thread_limit(None)
    assert [os.environ[var] for var in blas_vars] == ["3"] * 3
    _apply_thread_limit(1)
    assert [os.environ[var] for var in blas_vars] == ["1"] * 3


def test_cli_import_leaves_numpy_unloaded():
    # The CLI sets the BLAS thread variables in main(); numpy must not have
    # started its backend before then.
    code = (
        "import sys, orthomap.cli; assert 'numpy' not in sys.modules; "
        "from orthomap import LoopConfig, load_embeddings, run_self_learning"
    )
    src = str(Path(orthomap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=path))


def test_predictions_agree_with_lexicon_file(tiny_benchmark, tmp_path):
    cfg = base_config(tiny_benchmark, tmp_path / "run")
    outcome = run_pipeline(cfg)
    gold = load_ref_lexicon(tiny_benchmark.gold_lexicon)
    report = precision_at_1(outcome.predictions, gold)
    assert report.evaluated == len(gold.pairs)
