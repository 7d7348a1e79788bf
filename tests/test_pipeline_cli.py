"""Pipeline orchestration and the command-line surface."""

import json
import logging
import mmap
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import orthomap
from orthomap import candidates, numerics, parallel, pipeline, self_learning
from orthomap.benchmark import generate_cipher_benchmark
from orthomap.cli import (
    THREADS_ENV_VAR,
    _apply_thread_limit,
    _workers,
    build_parser,
    main,
)
from orthomap.corpus_io import load_ref_lexicon
from orthomap.edit_model import (
    EditModel,
    _em_chunks,
    build_edit_alphabets,
    edit_operations,
    em_train,
)
from orthomap.errors import (
    CandidateError,
    ConfigError,
    ConvergenceError,
    NoTransliterationPath,
)
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
from orthomap.parallel import KeepMasks
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


def record_masks(monkeypatch, path, patient=True):
    """Append "pid drawn" or "pid inline" to ``path`` for every stochastic
    loop step that asks KeepMasks for its mask, in whichever process it
    runs. With ``patient``, a step whose mask is planned first waits until
    the drawer has reported it, or has ended, or 5 s have passed once, so
    that the drawn masks are read however slow the drawer."""
    dropped = KeepMasks.dropped
    waited = []

    def recording(self, cfg, cutoff, state):
        key = state.rng_seed, state.iteration
        deadline = time.monotonic() + 5.0
        while (
            patient and not waited and self._reports is not None
            and self._slot_of.get(key, -1) >= self._reported
        ):
            self._take_reports()
            if time.monotonic() > deadline:
                waited.append(key)
            time.sleep(0.0005)
        got = dropped(self, cfg, cutoff, state)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {'inline' if got is None else 'drawn'}\n")
        return got

    monkeypatch.setattr(KeepMasks, "dropped", recording)

    def steps():
        """Counter of (pid, "drawn" | "inline") over the steps recorded."""
        if not path.exists():
            return Counter()
        return Counter(tuple(line.split()) for line in path.read_text().splitlines())

    return steps


def mask_counts(messages):
    """(drawn ahead, drawn inline) of each loop, from its -v line."""
    pattern = r"keep masks of \d+ stochastic steps: (\d+) drawn ahead, (\d+) drawn inline"
    return [tuple(map(int, m.groups())) for m in map(re.compile(pattern).fullmatch, messages) if m]


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
                tiny_benchmark, tmp_path / "sweep", mode="ortho-ext", criterion="objective",
                grid=[0.1], stall_window=5,
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
            with pytest.raises(ConvergenceError, match="covariance has no positive eigenvalue"):
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
            grid=[0.2, 0.1, 0.2],
        )
        best, points = run_sweep(cfg)
        assert best in (0.1, 0.2)
        assert all(len(p.values) == 1 for p in points)
        # A repeated grid value is run and reported again, in its own row.
        assert [p.scale for p in points] == [0.1, 0.2, 0.2]
        assert points[1] == points[2]


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
        dev = load_ref_lexicon(cfg.dev_lexicon)
        _, expected = select_scaling_constant(
            [
                (c, [precision_at_1(fresh[c, seed].predictions, dev).p_at_1
                     for seed in sweep_seeds(cfg)])
                for c in sorted(cfg.grid)
            ],
            cfg.criterion,
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


class TestSweepWorkers:
    """A boosted sweep's points run in forked workers with the serial output."""

    def sweep(self, bench, tmp_path, name, threads, *extra):
        out = tmp_path / name
        code = main([
            "--threads", str(threads), "sweep",
            "--src-emb", str(bench.src_embeddings),
            "--tgt-emb", str(bench.tgt_embeddings),
            "--output-dir", str(out),
            "--seed", "4",
            *map(str, extra),
        ])
        return code, out

    @pytest.mark.parametrize(
        "mode, criterion",
        [("edit-dist", "objective"), ("external-scorer", "dev-accuracy")],
    )
    def test_outputs_independent_of_workers(self, tmp_path, capsys, mode, criterion):
        # Noisy, so that every point has its own mean cosine.
        bench = generate_cipher_benchmark(100, 10, seed=12, noise=0.3, out_dir=tmp_path)
        table = gold_scorer_table(bench, tmp_path / "scores.tsv")
        runs = {}
        for threads in (1, 2):
            code, out = self.sweep(
                bench, tmp_path, f"w{threads}", threads,
                "--mode", mode, "--scorer-table", table, "--criterion", criterion,
                "--dev", bench.gold_lexicon,
                "--grid", "0.4,0.0", "--runs-per-c", 2,
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs[threads] = (
                (out / "sweep_report.tsv").read_bytes(),
                capsys.readouterr().out,
                manifest.pop("selected_scale"),
            )
            assert manifest["workers"] == threads
            assert len(manifest["point_seconds"]) == 4
            assert all(t > 0 for t in manifest["point_seconds"])
            assert (manifest["worker_peak_rss_mb"] is None) == (threads == 1)
            assert multiprocessing.active_children() == []
        assert runs[1] == runs[2]
        assert runs[1][1].endswith(f"selected c={runs[1][2]:g}\n")
        if criterion == "objective":  # the points differ, so a mix-up would show
            rows = [line.split("\t") for line in runs[1][0].decode().splitlines()[1:]]
            assert len({v for row in rows for v in row[2].split(",")}) > 1

    def test_stage_helper_ends_before_workers_fork(
        self, tiny_benchmark, tmp_path, monkeypatch, caplog
    ):
        # The stage's main loop takes its masks from the drawer. The sweep
        # ends the drawer before it forks its points, and no worker forks a
        # drawer of its own, yet the forked points read the boosted phase's
        # masks drawn before that (a slow EM leaves the drawer time). Each
        # draw takes 8 ms, so that the drawer's plan, 201 masks for each of
        # the two phase seeds, outlasts the stage's main loop and EM.
        parent = os.getpid()
        forks = []
        forked = parallel.forked
        em_train = pipeline.em_train
        draw_levels = parallel._draw_levels

        def slow_draw(*args):
            time.sleep(0.008)
            return draw_levels(*args)

        def recording_forked(work, jobs, workers, describe):
            assert os.getpid() == parent, "a sweep worker forked"
            forks.append((describe(jobs[0]), len(multiprocessing.active_children())))
            return forked(work, jobs, workers, describe)

        def slow_em(*args):
            time.sleep(0.5)
            return em_train(*args)

        monkeypatch.setattr(parallel, "forked", recording_forked)
        monkeypatch.setattr(pipeline, "em_train", slow_em)
        monkeypatch.setattr(parallel, "_draw_levels", slow_draw)
        steps = record_masks(monkeypatch, tmp_path / "steps")
        caplog.set_level(logging.INFO, logger="orthomap")
        code, _ = self.sweep(
            tiny_benchmark, tmp_path, "helper", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
        )
        assert code == 0
        assert "keep-mask drawer on: 2 workers, BLAS threads 1" in caplog.text
        # The drawer, the stage's scoring slice beside it, then the points
        # with nothing else alive.
        assert forks == [
            ("drawing keep masks", 0),
            ("scoring slice 2 of 2 of seed 4's candidates", 1),
            ("running c=0.2, seed 4", 0),
        ]
        counts = steps()
        assert counts[str(parent), "drawn"] > 0  # the stage's main loop
        points = {pid for pid, how in counts if pid != str(parent) and how == "drawn"}
        assert len(points) == 2

    @pytest.mark.parametrize("mode", ["edit-dist", "ortho-ext"])
    def test_mask_readers_in_the_order_the_loops_run(self, tiny_benchmark, tmp_path, mode):
        # Each seed's stage runs its main loop before any point runs a
        # boosted loop; unboosted points each run a main loop.
        cfg = base_config(tiny_benchmark, tmp_path, mode=mode)
        points = [(c, seed) for c in (0.2, 0.5) for seed in (4, 5)]
        readers = pipeline._mask_readers(cfg, points)
        if mode == "edit-dist":
            expected = [(4, 0, 1), (5, 0, 1), (4, 1, 2), (5, 1, 2)]
        else:
            expected = [(4, 0, 2), (5, 0, 2)]
        assert list(readers.items()) == [(derive_seed(s, p), n) for s, p, n in expected]

    def test_one_point_grid_forks_one_slice(self, tiny_benchmark, tmp_path, monkeypatch):
        # No point worker: the one point runs in this process. Its stage
        # scores its candidates in two slices, as induce's does at two
        # workers. The keep-mask drawer, which the sweep's two workers
        # allow, serves the stage's main loop and the point's boosted loop.
        forks = []
        forked = parallel.forked

        def recording(work, jobs, workers, describe):
            forks.append([describe(job) for job in jobs])
            return forked(work, jobs, workers, describe)

        monkeypatch.setattr(parallel, "forked", recording)
        steps = record_masks(monkeypatch, tmp_path / "steps")
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "one", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.3",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2  # the sweep's, as induce records it
        assert manifest["worker_peak_rss_mb"] > 0  # the drawer's
        assert len(manifest["point_seconds"]) == 1
        assert forks == [
            ["drawing keep masks"], ["scoring slice 2 of 2 of seed 4's candidates"]
        ]
        assert steps() == {(str(os.getpid()), "drawn"): sum(steps().values())}

    def test_point_seconds_logged(self, tiny_benchmark, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="orthomap")
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "log", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
        )
        assert code == 0
        seconds = json.loads((out / "manifest.json").read_text())["point_seconds"]
        lines = [r.getMessage() for r in caplog.records if ": " in r.getMessage()]
        for scale, value in zip(("0.2", "0.5"), seconds):
            assert f"c={scale}, seed 4: {value:.3f} s" in lines

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_point_raised_in_grid_order(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, caplog, threads
    ):
        # Points after the first fail, each with its own message: the sweep
        # ends on the first failing point in grid order, as a serial one.
        run_boosted = pipeline._run_boosted

        def failing(src, tgt, cfg, *args):
            if cfg.scale > 0.3:
                raise CandidateError(f"no pairs at c={cfg.scale:g}")
            return run_boosted(src, tgt, cfg, *args)

        monkeypatch.setattr(pipeline, "_run_boosted", failing)
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "fail", threads,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.8,0.2,0.5",
        )
        assert code == CandidateError.exit_code
        assert capsys.readouterr().err == "error: no pairs at c=0.5\n"
        assert "pipeline run failed at scale c=0.5, seed 4" in caplog.text
        assert "c=0.8, seed" not in caplog.text
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_stage_raised_before_any_point(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, caplog, threads
    ):
        # Seeds 4 and 5 build their stages; seed 6's fails, and the sweep
        # ends there, before any point runs.
        caplog.set_level(logging.INFO, logger="orthomap")
        stage = pipeline.boost_stage

        def failing(src, tgt, cfg, seed, **kwargs):
            if seed == 6:
                raise CandidateError("candidate filtering produced no pairs")
            return stage(src, tgt, cfg, seed, **kwargs)

        monkeypatch.setattr(pipeline, "boost_stage", failing)
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "stage", threads,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.5,0.2",
            "--runs-per-c", 3,
        )
        assert code == CandidateError.exit_code == 5
        assert capsys.readouterr().err == "error: candidate filtering produced no pairs\n"
        stages = [m.split(" stage: ")[0] for m in caplog.messages if " stage: " in m]
        assert stages == ["seed 4", "seed 5"]
        assert "pipeline stage failed for seed 6" in caplog.text
        assert not re.search(r"c=[\d.]+, seed \d", caplog.text)
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_singular_whitening_exits_4(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, caplog, threads
    ):
        # The boosted loop's final pass is the sweep's first whitening, so
        # at two workers the error is raised in a worker.
        monkeypatch.setattr(numerics, "EIGEN_FLOOR_RATIO", 0.0)
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "singular", threads,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
        )
        assert code == ConvergenceError.exit_code == 4
        err = capsys.readouterr().err
        assert err == "error: covariance has no positive eigenvalue\n"
        assert "pipeline run failed at scale c=0.2, seed 4" in caplog.text
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_an_error(self, tiny_benchmark, tmp_path, monkeypatch, capsys):
        run_point = pipeline._run_point

        def dying(cfg, scale, *args):
            if scale > 0.3:
                os._exit(9)
            return run_point(cfg, scale, *args)

        monkeypatch.setattr(pipeline, "_run_point", dying)
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "dead", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the worker running c=0.5, seed 4 ended without a result (exit code 9)\n"
        )
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dead_slice_worker_exits_1(self, tiny_benchmark, tmp_path, monkeypatch, capsys):
        score_slice = pipeline._score_slice

        def dying(*args):
            if args[-2] > 0:  # a worker's slice
                os._exit(9)
            return score_slice(*args)

        monkeypatch.setattr(pipeline, "_score_slice", dying)
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "dead", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the worker scoring slice 2 of 2 of seed 4's candidates ended without "
            "a result (exit code 9)\n"
        )
        assert not out.exists()

    def test_stage_seconds_recorded_and_logged(self, tiny_benchmark, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="orthomap")
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "stages", 2,
            "--mode", "edit-dist", "--criterion", "objective", "--grid", "0.2,0.5",
            "--runs-per-c", 2,
        )
        assert code == 0
        seconds = json.loads((out / "manifest.json").read_text())["stage_seconds"]
        assert len(seconds) == 2 and min(seconds) > 0
        lines = [r.getMessage() for r in caplog.records if " stage: " in r.getMessage()]
        assert [line.split(" stage: ")[0] for line in lines] == ["seed 4", "seed 5"]
        for line in lines:
            assert "main loop" in line and "EM" in line and "filtered and scored" in line

    def test_library_sweep_stays_serial(self, tiny_benchmark, tmp_path):
        cfg = base_config(
            tiny_benchmark, tmp_path / "lib", mode="edit-dist", criterion="objective",
            grid=[0.2, 0.5],
        )
        run_sweep(cfg)
        assert json.loads((tmp_path / "lib" / "manifest.json").read_text())["workers"] == 1

    def test_unboosted_sweep_stays_serial(self, tiny_benchmark, tmp_path):
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "ortho", 2,
            "--mode", "ortho-ext", "--criterion", "objective", "--grid", "0.1,0.2",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2
        assert len(manifest["point_seconds"]) == 2
        # The keep-mask drawer is the one worker that ran.
        assert manifest["worker_peak_rss_mb"] > 0

    @pytest.mark.parametrize(
        "mode, grid", [("ortho-ext", "0.1,0.2"), ("edit-dist", "0.3")],
        ids=["unboosted", "one-boosted-point"],
    )
    def test_forked_load_recorded(self, tiny_benchmark, tmp_path, monkeypatch, caplog, mode, grid):
        # The only worker of these sweeps parses the target file.
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        caplog.set_level(logging.INFO, logger="orthomap")
        code, out = self.sweep(
            tiny_benchmark, tmp_path, "load", 2,
            "--mode", mode, "--criterion", "objective", "--grid", grid,
        )
        assert code == 0
        assert "inputs parsed by 2 processes" in caplog.text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2
        assert manifest["worker_peak_rss_mb"] > 0

    def test_points_in_this_process_keep_the_helper(self, tmp_path, monkeypatch, capsys, caplog):
        # ortho-ext's points run in the sweep's process, where both of their
        # 128-wide loops take the masks of the one phase seed they share
        # from the drawer at two workers, with the one-worker output.
        bench = generate_cipher_benchmark(200, 8, seed=21, noise=0.1, out_dir=tmp_path)
        caplog.set_level(logging.INFO, logger="orthomap")
        record_masks(monkeypatch, tmp_path / "steps")
        runs = {}
        for threads in (1, 2):
            caplog.clear()
            code, out = self.sweep(
                bench, tmp_path, f"w{threads}", threads,
                "--mode", "ortho-ext", "--criterion", "objective", "--grid", "0.3,0.6",
                "--stall-window", 10, "--objective-eps", 0.02,
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["config"].pop("output_dir")
            assert manifest.pop("workers") == threads
            assert (manifest.pop("worker_peak_rss_mb") is None) == (threads == 1)
            for key in ("peak_rss_mb", "point_seconds", "stage_seconds"):
                manifest.pop(key)
            assert manifest["blas_threads"] == 1
            drawer = [m for m in caplog.messages if m.startswith("keep-mask drawer")]
            assert drawer == [
                f"keep-mask drawer {'on' if threads == 2 else 'off'}: {threads} worker"
                f"{'s' if threads == 2 else ''}, BLAS threads 1, a one-tile stochastic loop "
                "matrix of 200 x 200"
                + ("; plans 41 masks for each of 1 phase seed (41 of 819 slots)" * (threads - 1))
            ]
            counts = mask_counts(caplog.messages)
            assert len(counts) == 2
            if threads == 2:  # the 41 steps every loop takes, drawn ahead
                assert all(ahead == 41 for ahead, inline in counts)
            runs[threads] = (
                capsys.readouterr().out, (out / "sweep_report.tsv").read_bytes(), manifest
            )
        assert runs[1] == runs[2]


class TestStageWorkers:
    """A seed's candidate filtering and scoring split over slices of the
    source words give the serial stage, error and log lines."""

    def stage(self, bench, tmp_path, mode, workers, seed=4):
        # A scorer table of varied probabilities for the gold pairs.
        gold = sorted(load_ref_lexicon(bench.gold_lexicon).pairs.items())
        table = tmp_path / "scores.tsv"
        table.write_text(
            "".join(f"{s}\t{t}\t{0.1 + k % 7 / 8}\n" for k, (s, ts) in enumerate(gold) for t in ts),
            encoding="utf-8",
        )
        cfg = base_config(bench, tmp_path / "stage", mode=mode, scorer_table=str(table))
        return pipeline.boost_stage(*pipeline.load_inputs(cfg), cfg, seed, workers=workers)

    @pytest.mark.parametrize("mode", ["edit-dist", "external-scorer"])
    def test_stage_independent_of_workers(self, tmp_path, mode):
        # Noisy, so that unit boosts vary; 100 words make uneven slices at 3.
        bench = generate_cipher_benchmark(100, 10, seed=12, noise=0.3, out_dir=tmp_path)
        stages = {w: self.stage(bench, tmp_path, mode, w) for w in (1, 2, 3)}
        serial = stages[1]
        assert len(serial.src) > 100 and len(set(serial.unit.tolist())) > 2
        for w, stage in stages.items():
            assert np.array_equal(stage.src, serial.src)
            assert np.array_equal(stage.tgt, serial.tgt)
            assert np.array_equal(stage.unit.view(np.uint64), serial.unit.view(np.uint64))
            extras = dict(stage.extras)
            assert extras.pop("edit_model").theta == serial.extras["edit_model"].theta
            assert extras == {k: v for k, v in serial.extras.items() if k != "edit_model"}
            assert stage.init == serial.init

    def test_untransliterable_words_logged_once_with_the_total(
        self, tiny_benchmark, tmp_path, monkeypatch, caplog
    ):
        transliterate = candidates.transliterate
        top = pipeline.load_inputs(base_config(tiny_benchmark, tmp_path))[0].vocab.top(100)
        untransliterable = [w for w in top if w[0] in "abc"]

        def failing(word, model):
            if word in untransliterable:
                raise NoTransliterationPath(word)
            return transliterate(word, model)

        monkeypatch.setattr(candidates, "transliterate", failing)
        with caplog.at_level(logging.WARNING, logger="orthomap"):
            stage = self.stage(tiny_benchmark, tmp_path, "edit-dist", 3)
        assert stage.extras["untransliterable"] == len(untransliterable) > 3
        message = f"{len(untransliterable)} source words had no transliteration path"
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("orthomap.pipeline", message)
        ]

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({0, 2}, 0), ({2}, 2)])
    def test_earliest_failing_slice_raised(
        self, tiny_benchmark, tmp_path, monkeypatch, failing, raised
    ):
        score_slice = pipeline._score_slice
        starts = [0, 33, 66]  # of 100 words in 3 slices

        def failing_slices(*args):
            lo = args[-2]
            if starts.index(lo) in failing:
                raise CandidateError(f"slice from word {lo}")
            return score_slice(*args)

        monkeypatch.setattr(pipeline, "_score_slice", failing_slices)
        with pytest.raises(CandidateError) as excinfo:
            self.stage(tiny_benchmark, tmp_path, "edit-dist", 3)
        assert str(excinfo.value) == f"slice from word {starts[raised]}"


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
            ("sweep", ("--mode", "edit-dist", "--grid=")),
            ("induce", ("--mode", "ortho-ext", "--scale", "nan")),
            ("induce", ("--mode", "ortho-ext", "--scale", "inf")),
            ("induce", ("--mode", "edit-dist", "--scale", "nan")),
        ],
        ids=["grid-negative", "grid-unparsable", "grid-nan", "grid-empty", "ortho-ext-scale-nan",
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

    @pytest.mark.parametrize("mode", [None, "baseline"], ids=["default-mode", "baseline"])
    def test_baseline_sweep_exits_2_before_reading_input(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, mode
    ):
        # Baseline runs never read c, so every point of such a sweep would
        # rerun one identical loop.
        def no_loading(*args, **kwargs):
            raise AssertionError("input read before the configuration was checked")

        monkeypatch.setattr(pipeline, "load_embeddings", no_loading)
        code = self.run_cli(
            "sweep",
            "--src-emb", tiny_benchmark.src_embeddings,
            "--tgt-emb", tiny_benchmark.tgt_embeddings,
            "--output-dir", tmp_path / "out",
            "--criterion", "objective",
            *(["--mode", mode] if mode else []),
        )
        assert code == ConfigError.exit_code == 2
        assert capsys.readouterr().err.startswith("error: a baseline sweep has nothing to select")
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

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (2, "1.2", "sum to"),
            (2, "nan", "nan"),
            (2, "inf", "not finite"),
            (2, "-0.01", "-0.01"),
            (0, "abc", "unigrams or bigrams"),
        ],
        ids=["bad-sum", "nan", "inf", "negative", "trigram"],
    )
    def test_malformed_model_file_exit_code(self, tmp_path, capsys, column, value, message):
        # The first operation's field is replaced in a valid model file.
        alphabets = build_edit_alphabets(["ab"], ["xy"])
        ops = list(edit_operations(alphabets))
        model = tmp_path / "model.tsv"
        EditModel(alphabets, dict.fromkeys(ops, 1 / len(ops))).save(model)
        header, first, *rest = model.read_text(encoding="utf-8").splitlines()
        fields = first.split("\t")
        fields[column] = value
        model.write_text("\n".join([header, "\t".join(fields), *rest]) + "\n", encoding="utf-8")
        code = self.run_cli("transliterate", "--model", model, "ab")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: {model}: ") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_repeated_model_operation_exit_code(self, tmp_path, capsys):
        # The repeated row would leave 0.5 + 0.25 + 0.25 = 1, but the rows
        # sum to 1.9: the second is rejected, naming both lines.
        model = tmp_path / "model.tsv"
        rows = ["editmodel\tv1", "a\tb\t0.9", "a\t\t0.25", "\tb\t0.25", "a\tb\t0.5"]
        model.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = self.run_cli("transliterate", "--model", model, "a")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: {model}:5: ") and "line 2" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def scorer_table_error(self, bench, tmp_path, monkeypatch, capsys, table):
        """The exit code and stderr of an external-scorer induce with the
        scorer table ``table``, asserting that no loop ran or wrote."""
        path = tmp_path / "scores.tsv"
        path.write_text(table, encoding="utf-8")

        def no_init(*args, **kwargs):
            raise AssertionError("initial dictionary built before the table was read")

        monkeypatch.setattr(pipeline, "init_dictionary_unsupervised", no_init)
        code = self.run_cli(
            "--threads", 1, "induce",
            "--src-emb", bench.src_embeddings,
            "--tgt-emb", bench.tgt_embeddings,
            "--output-dir", tmp_path / "out",
            "--mode", "external-scorer", "--scorer-table", path,
        )
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "lexicon.tsv").exists()
        return code, err.removeprefix(f"error: {path}")

    @pytest.mark.parametrize(
        "table", ["", "\n", "ab\tα\t0.5\nba\tαα\t0.9\n"], ids=["empty", "blank", "one-char"]
    )
    def test_scorer_table_without_two_target_chars_exits_before_the_loop(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys, table
    ):
        code, err = self.scorer_table_error(tiny_benchmark, tmp_path, monkeypatch, capsys, table)
        assert code == 3
        assert err.startswith(": ") and "at least 2" in err

    def test_repeated_scorer_pair_exits_before_the_loop(
        self, tiny_benchmark, tmp_path, monkeypatch, capsys
    ):
        table = "ab\tαβ\t0.5\nba\tβα\t0.9\nab\tαβ\t0.7\n"
        code, err = self.scorer_table_error(tiny_benchmark, tmp_path, monkeypatch, capsys, table)
        assert code == 3
        assert err.startswith(":3: pair 'ab', 'αβ' repeats line 1")


class TestInduceWorkers:
    """induce's artifacts do not depend on its worker count."""

    ARTIFACTS = ("lexicon.tsv", "trace.tsv", "predictions.tsv", "eval_summary.txt",
                 "edit_model.tsv")
    # Outputs that name the run's directory or describe the process.
    VOLATILE = (
        "edit_model_path", "peak_rss_mb", "workers", "blas_threads", "worker_peak_rss_mb"
    )

    def artifacts(self, out):
        files = {n: (out / n).read_bytes() for n in self.ARTIFACTS if (out / n).exists()}
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].pop("output_dir")
        workers = manifest["workers"]
        for key in self.VOLATILE:
            manifest.pop(key, None)
        return files, manifest, workers

    @pytest.mark.parametrize("mode", ["baseline", "ortho-ext", "edit-dist"])
    def test_outputs_identical_at_one_two_and_three(
        self, tiny_benchmark, tmp_path, monkeypatch, caplog, mode
    ):
        # Both parallel parts on at two and three: the target file is parsed
        # in a worker and every loop takes its masks from the drawer, as it
        # does where BLAS runs on one thread.
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        record_masks(monkeypatch, tmp_path / "steps")
        caplog.set_level(logging.INFO, logger="orthomap")
        runs = {}
        for threads in (1, 2, 3):
            caplog.clear()
            out = tmp_path / f"w{threads}"
            code = main([
                "--threads", str(threads), "induce",
                "--src-emb", str(tiny_benchmark.src_embeddings),
                "--tgt-emb", str(tiny_benchmark.tgt_embeddings),
                "--test", str(tiny_benchmark.gold_lexicon),
                "--output-dir", str(out), "--seed", "3", "--mode", mode, "--scale", "0.4",
                "--stall-window", "3", "--objective-eps", "0.02",
            ])
            assert code == 0
            files, manifest, workers = self.artifacts(out)
            assert workers == threads
            counts = mask_counts(caplog.messages)
            assert len(counts) == (2 if mode == "edit-dist" else 1)
            for ahead, inline in counts:
                assert (ahead > 0, inline > 0) == ((True, False) if threads > 1 else (False, True))
            runs[threads] = files, manifest
        assert runs[1] == runs[2] == runs[3]
        assert len(runs[1][0]) == (5 if mode == "edit-dist" else 4)
        replay = tmp_path / "replay"
        assert main(["--threads", "2", "induce", "--config", str(tmp_path / "w3" / "manifest.json"),
                     "--output-dir", str(replay)]) == 0
        assert self.artifacts(replay)[:2] == runs[1]

    def test_forks_beside_a_blas_thread_pool(self, tiny_benchmark, tmp_path):
        # At --threads 2 induce runs BLAS on two threads, and its boosted
        # stage forks a scoring worker once the main loop has used them.
        src = str(Path(orthomap.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.pop(THREADS_ENV_VAR, None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"w{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "orthomap.cli", "--threads", threads, "induce",
                 "--src-emb", str(tiny_benchmark.src_embeddings),
                 "--tgt-emb", str(tiny_benchmark.tgt_embeddings),
                 "--output-dir", str(out), "--mode", "edit-dist", "--scale", "0.4",
                 "--stall-window", "3", "--objective-eps", "0.02"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs[threads] = json.loads((out / "manifest.json").read_text())["workers"]
        assert runs == {"1": 1, "2": 2}

    def test_parse_and_helper_logged_once(self, tiny_benchmark, tmp_path, monkeypatch, caplog):
        # At --threads 2 BLAS takes both cores, so the keep-mask drawer
        # stays off.
        monkeypatch.setattr(pipeline, "_FORK_LOAD_BYTES", 0)
        caplog.set_level(logging.INFO, logger="orthomap")
        assert main([
            "--threads", "2", "induce",
            "--src-emb", str(tiny_benchmark.src_embeddings),
            "--tgt-emb", str(tiny_benchmark.tgt_embeddings),
            "--output-dir", str(tmp_path / "out"), "--stall-window", "2",
        ]) == 0
        lines = [r.getMessage() for r in caplog.records]
        assert [m for m in lines if "parsed by" in m] == ["inputs parsed by 2 processes"]
        drawer = [m for m in lines if m.startswith("keep-mask drawer")]
        assert drawer == [
            "keep-mask drawer off: 2 workers, BLAS threads 2, a one-tile stochastic loop "
            "matrix of 100 x 100"
        ]

    @pytest.mark.parametrize(
        "threads, env, expected",
        [("2", None, 2), (None, "1", 1), (None, None, None)],
        ids=["threads-2", "openblas-1", "unset"],
    )
    def test_blas_threads_recorded(self, tiny_benchmark, tmp_path, monkeypatch, threads, env, expected):
        for var in (*numerics._BLAS_THREAD_VARS, "MKL_NUM_THREADS", THREADS_ENV_VAR):
            monkeypatch.delenv(var, raising=False)
        if env is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
        out = tmp_path / "run"
        assert main([
            *(["--threads", threads] if threads else []), "induce",
            "--src-emb", str(tiny_benchmark.src_embeddings),
            "--tgt-emb", str(tiny_benchmark.tgt_embeddings),
            "--test", str(tiny_benchmark.gold_lexicon),
            "--output-dir", str(out), "--stall-window", "2",
        ]) == 0
        assert json.loads((out / "manifest.json").read_text())["blas_threads"] == expected
        replay = tmp_path / "replay"
        assert main([
            *(["--threads", threads] if threads else []), "induce",
            "--config", str(out / "manifest.json"), "--output-dir", str(replay),
        ]) == 0
        files, manifest, _ = self.artifacts(out)
        replayed, replayed_manifest, _ = self.artifacts(replay)
        assert replayed == files and replayed_manifest == manifest
        assert json.loads((replay / "manifest.json").read_text())["blas_threads"] == expected

    def induce(self, bench, out, threads, *extra):
        return main([
            "-v", "--threads", str(threads), "induce",
            "--src-emb", str(bench.src_embeddings),
            "--tgt-emb", str(bench.tgt_embeddings),
            "--test", str(bench.gold_lexicon),
            "--output-dir", str(out), "--seed", "3", "--mode", "edit-dist", "--scale", "0.4",
            "--stall-window", "3", "--objective-eps", "0.02", *extra,
        ])

    @pytest.mark.parametrize(
        "workers, blas, tile_bytes, p_init",
        [(1, 1, None, 0.1), (2, 2, None, 0.1), (2, None, None, 0.1), (2, 1, 8000, 0.1),
         (2, 1, None, 1.0)],
        ids=[
            "one-worker", "two-blas-threads", "blas-unset", "several-tiles", "no-stochastic-steps"
        ],
    )
    def test_drawer_off_without_an_idle_core_or_any_one_tile_loop(
        self, tiny_benchmark, tmp_path, monkeypatch, caplog, workers, blas, tile_bytes, p_init
    ):
        # BLAS on more than one thread, or on every core, leaves the drawer
        # no idle core; a loop of several tiles, or at p_keep 1 throughout,
        # has no masks it could take.
        monkeypatch.setattr(parallel, "blas_threads", lambda: blas)
        if tile_bytes is not None:  # the 100 x 100 loop matrix in tiles of 10 rows
            monkeypatch.setattr(self_learning, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(KeepMasks, "__init__", None)  # never built
        caplog.set_level(logging.INFO, logger="orthomap")
        cfg = base_config(
            tiny_benchmark, tmp_path / "out", mode="edit-dist", scale=0.4, stall_window=3,
            objective_eps=0.02, p_init=p_init,
        )
        forked = parallel.workers_forked
        run_pipeline(cfg, workers=workers)
        assert parallel.workers_forked - forked == (0 if workers == 1 else 1)  # scoring slices
        fits = tile_bytes is None and p_init < 1.0
        assert [m for m in caplog.messages if m.startswith("keep-mask drawer")] == [
            f"keep-mask drawer off: {workers} worker{'s' if workers > 1 else ''}, BLAS threads "
            f"{'unset' if blas is None else blas}, {'a' if fits else 'no'} one-tile stochastic "
            "loop matrix of 100 x 100"
        ]

    @pytest.mark.parametrize(
        "failure", ["killed", "error", "never-reports", "bounded", "racing"]
    )
    def test_outputs_identical_whatever_the_drawer_does(
        self, tiny_benchmark, tmp_path, monkeypatch, caplog, failure
    ):
        # A drawer killed, or failing, after five masks; one that never
        # reports; one whose byte bound holds five masks: the steps after
        # the fifth draw their masks inline, with the one-worker artifacts.
        # Racing, three runs take whichever masks the drawer has reported
        # by each step, and give those artifacts too.
        monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
        assert self.induce(tiny_benchmark, tmp_path / "serial", 1) == 0
        serial = self.artifacts(tmp_path / "serial")[:2]
        if failure == "racing":
            for run in range(3):
                assert self.induce(tiny_benchmark, tmp_path / f"race{run}", 2) == 0
                assert self.artifacts(tmp_path / f"race{run}")[:2] == serial
            return
        draw_levels = self_learning._draw_levels
        drawn = []

        def failing_draw(*args):
            if len(drawn) == 5:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise FloatingPointError("drawer failed")
            drawn.append(args)
            return draw_levels(*args)

        if failure == "never-reports":
            monkeypatch.setattr(KeepMasks, "draw", lambda self: time.sleep(600))
        elif failure == "bounded":
            monkeypatch.setattr(parallel, "_MASK_BYTES", 5 * 3 * mmap.PAGESIZE)
        else:
            monkeypatch.setattr(parallel, "_draw_levels", failing_draw)
        record_masks(monkeypatch, tmp_path / "steps", patient=failure != "never-reports")
        caplog.set_level(logging.INFO, logger="orthomap")
        assert self.induce(tiny_benchmark, tmp_path / "drawn", 2) == 0
        assert "keep-mask drawer on" in caplog.text
        main_loop, boosted_loop = mask_counts(caplog.messages)
        assert main_loop[0] == (0 if failure == "never-reports" else 5) and main_loop[1] > 0
        assert boosted_loop[0] == 0
        assert self.artifacts(tmp_path / "drawn")[:2] == serial

    def test_worker_peak_rss_recorded(self, tiny_benchmark, tmp_path, monkeypatch):
        # null where nothing forked: one worker, or BLAS on both cores and a
        # target file too small to parse beside the source; the drawer's
        # peak otherwise.
        peaks = {}
        for name, threads, blas in (("serial", 1, 1), ("blas", 2, 2), ("drawer", 2, 1)):
            monkeypatch.setattr(parallel, "blas_threads", lambda: blas)
            out = tmp_path / name
            assert main([
                "--threads", str(threads), "induce",
                "--src-emb", str(tiny_benchmark.src_embeddings),
                "--tgt-emb", str(tiny_benchmark.tgt_embeddings),
                "--output-dir", str(out), "--stall-window", "2",
            ]) == 0
            peaks[name] = json.loads((out / "manifest.json").read_text())["worker_peak_rss_mb"]
        assert peaks["serial"] is None and peaks["blas"] is None
        assert peaks["drawer"] > 0


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


@pytest.mark.parametrize(
    "argv, expected",
    [(["--threads", "3", "sweep"], "1"), (["sweep"], "1"), (["--threads", "3", "induce"], "3")],
    ids=["sweep-threads", "sweep-env", "induce-threads"],
)
def test_sweep_runs_blas_on_one_thread(tmp_path, monkeypatch, argv, expected):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.setenv(var, "2")
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    missing = str(tmp_path / "missing.vec")
    code = main([*argv, "--src-emb", missing, "--tgt-emb", missing,
                 "--output-dir", str(tmp_path / "out")])
    assert code == ConfigError.exit_code
    assert [os.environ[var] for var in blas_vars] == [expected] * 3


def test_sweep_worker_count(monkeypatch):
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert _workers(None) == len(os.sched_getaffinity(0))
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert _workers(None) == 3
    assert _workers(2) == 2
    for bad in ("many", "-1", "0"):
        monkeypatch.setenv(THREADS_ENV_VAR, bad)
        with pytest.raises(ConfigError):
            _workers(None)
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    for bad in (0, -2):  # --threads is checked, not replaced by the variable
        with pytest.raises(ConfigError, match="--threads must be at least 1"):
            _workers(bad)
    monkeypatch.setattr(sys, "platform", "darwin")  # no fork: points run in-process
    assert _workers(4) == 1
    # Off Linux the count is still checked.
    for threads, env in ((0, "3"), (None, "-1"), (None, "many")):
        monkeypatch.setenv(THREADS_ENV_VAR, env)
        with pytest.raises(ConfigError):
            _workers(threads)


@pytest.mark.parametrize("command", ["induce", "sweep", "evaluate"])
@pytest.mark.parametrize(
    "threads, env", [("0", None), ("-1", None), (None, "0"), (None, "two")],
    ids=["flag-0", "flag-negative", "env-0", "env-text"],
)
def test_bad_thread_count_exits_2_before_reading_input(
    tmp_path, monkeypatch, capsys, command, threads, env
):
    calls = []
    monkeypatch.setattr(pipeline, "load_embeddings", lambda *a, **k: calls.append(a))
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.setenv(var, "2")
    if env is None:
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV_VAR, env)
    bench = generate_cipher_benchmark(20, 4, seed=3, noise=0.0, out_dir=tmp_path)
    if command == "evaluate":
        args = ["--lexicon", str(bench.gold_lexicon), "--reference", str(bench.gold_lexicon)]
    else:
        args = ["--src-emb", str(bench.src_embeddings), "--tgt-emb", str(bench.tgt_embeddings),
                "--output-dir", str(tmp_path / "out"), "--mode", "baseline"]
    code = main([*(["--threads", threads] if threads else []), command, *args])
    assert code == ConfigError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err
    assert calls == [] and not (tmp_path / "out").exists()
    assert [os.environ[var] for var in blas_vars] == ["2"] * 3


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


def test_cli_import_leaves_multiprocessing_unloaded():
    # Importing multiprocessing.pool costs about 25 ms; only a sweep that
    # forks workers pays it, and only a run that maps memory imports mmap.
    code = (
        "import sys, orthomap.cli, orthomap.pipeline; "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'; "
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures imported'; "
        "assert 'mmap' not in sys.modules, 'mmap imported'"
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
