"""The allocator policy and the phase log lines of orthomap.memory."""

import json
import logging
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orthomap
from orthomap import cli, memory
from orthomap.benchmark import generate_cipher_benchmark

PHASE_LINE = re.compile(r"peak RSS after (.+): \d+\.\d MB, ([\d,]+) minor page faults")
GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class FakeLibc:
    """A C library whose mallopt records its calls and answers ``result``."""

    def __init__(self, result):
        self.calls = []
        self.result = result

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_phase_line_reports_minor_page_faults(caplog):
    caplog.set_level(logging.INFO, logger="orthomap")
    memory.log_peak_rss(logging.getLogger("orthomap.pipeline"), "the loop")
    (message,) = caplog.messages
    match = PHASE_LINE.fullmatch(message)
    assert match and match[1] == "the loop"
    assert int(match[2].replace(",", "")) > 0


def test_pin_sets_both_thresholds(monkeypatch):
    libc = FakeLibc(1)
    monkeypatch.setattr(memory, "_load_libc", lambda: libc)
    assert memory.pin_allocator() is True
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_pin_stops_where_mallopt_refuses(monkeypatch):
    libc = FakeLibc(0)
    monkeypatch.setattr(memory, "_load_libc", lambda: libc)
    assert memory.pin_allocator() is False
    assert libc.calls == [(-3, 32 << 20)]


@pytest.mark.parametrize("failure", ["no-library", "no-mallopt"])
def test_pin_is_a_silent_no_op_where_mallopt_is_missing(monkeypatch, capsys, caplog, failure):
    def no_library():
        raise OSError("cannot load the C library")

    monkeypatch.setattr(memory, "_load_libc", no_library if failure == "no-library" else object)
    caplog.set_level(logging.DEBUG)
    assert memory.pin_allocator() is False
    assert capsys.readouterr() == ("", "")
    assert caplog.records == []


@pytest.mark.skipif(not GLIBC, reason="mallopt's thresholds are glibc's")
def test_glibc_accepts_the_policy():
    assert memory.pin_allocator() is True


def test_cli_pins_once_per_command_after_the_thread_limit(tiny_benchmark, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(
        memory, "pin_allocator", lambda: calls.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    )
    out = tmp_path / "run"
    commands = [
        ["--threads", "3", "gen-benchmark", "--n-words", "20", "--dim", "4",
         "--output-dir", str(tmp_path / "bench")],
        ["--threads", "2", "induce", "--src-emb", str(tiny_benchmark.src_embeddings),
         "--tgt-emb", str(tiny_benchmark.tgt_embeddings), "--output-dir", str(out),
         "--stall-window", "2", "--objective-eps", "0.02"],
        ["--threads", "1", "evaluate", "--lexicon", str(out / "lexicon.tsv"),
         "--reference", str(tiny_benchmark.gold_lexicon)],
    ]
    for expected, argv in zip((["3"], ["3", "2"], ["3", "2", "1"]), commands):
        assert cli.main(argv) == 0
        assert calls == expected


# A run in a fresh process, with the policy as cli.main applies it or with
# pin_allocator stubbed to a no-op before cli.main runs.
_RUN = "import sys; from orthomap import cli; sys.exit(cli.main(sys.argv[1:]))"
_RUN_UNPINNED = (
    "import sys; from orthomap import cli, memory; "
    "memory.pin_allocator = lambda: False; sys.exit(cli.main(sys.argv[1:]))"
)


def run_fresh(argv, pinned):
    src = str(Path(orthomap.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.pop(cli.THREADS_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN if pinned else _RUN_UNPINNED, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def wide_pair(tmp_path_factory):
    """A pair whose loop arrays are larger than glibc's initial 128 KiB
    mmap threshold: 600 words of 48 dimensions, cutoff 400."""
    out = tmp_path_factory.mktemp("wide-pair")
    return generate_cipher_benchmark(600, 48, seed=5, noise=0.1, out_dir=out)


# Manifest outputs that describe the process, not the run's results.
VOLATILE = ("output_dir", "edit_model_path", "peak_rss_mb", "worker_peak_rss_mb",
            "stage_seconds", "point_seconds")


def artifacts(out):
    files = {name: (out / name).read_bytes()
             for name in ("lexicon.tsv", "trace.tsv", "sweep_report.tsv", "edit_model.tsv")
             if (out / name).exists()}
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"].pop("output_dir")
    return files, {k: v for k, v in manifest.items() if k not in VOLATILE}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "command, options",
    [
        ("induce", ("--mode", "baseline")),
        ("induce", ("--mode", "ortho-ext", "--scale", "0.3")),
        ("sweep", ("--mode", "edit-dist", "--grid", "0.3,0.6", "--criterion", "objective")),
    ],
    ids=["baseline", "ortho-ext", "edit-sweep"],
)
def test_artifacts_identical_with_and_without_the_policy(
    wide_pair, tiny_benchmark, tmp_path, command, options, threads
):
    bench = tiny_benchmark if command == "sweep" else wide_pair
    runs = []
    for pinned in (True, False):
        out = tmp_path / f"pinned-{pinned}"
        run_fresh(["--threads", threads, command, "--src-emb", bench.src_embeddings,
                   "--tgt-emb", bench.tgt_embeddings, "--output-dir", out, "--seed", 3,
                   "--train-cutoff", 400, "--stall-window", 3, "--objective-eps", 0.02,
                   *options], pinned)
        runs.append(artifacts(out))
    assert runs[0] == runs[1]
    assert "trace.tsv" in runs[0][0] or "sweep_report.tsv" in runs[0][0]


def loop_faults(stderr):
    """Minor page faults taken between the end of loading and the end of
    the loop, from the -v phase lines."""
    faults = {m[1]: int(m[2].replace(",", "")) for m in map(PHASE_LINE.search, stderr.splitlines())
              if m}
    return faults["the loop"] - faults["loading"]


@pytest.mark.skipif(not GLIBC, reason="mallopt's thresholds are glibc's")
def test_policy_halves_the_loops_minor_page_faults(wide_pair, tmp_path):
    faults = {}
    for pinned in (True, False):
        proc = run_fresh(["-v", "--threads", 1, "induce", "--src-emb", wide_pair.src_embeddings,
                          "--tgt-emb", wide_pair.tgt_embeddings,
                          "--output-dir", tmp_path / f"pinned-{pinned}", "--seed", 3,
                          "--train-cutoff", 400, "--stall-window", 3, "--objective-eps", 0.02],
                         pinned)
        faults[pinned] = loop_faults(proc.stderr)
    assert faults[True] < 0.5 * faults[False], faults
