"""Self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py      # from the root of a source checkout

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that a corrupted lexicon counts as a
failed operation; that records with different stamps are not compared; and
that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import records  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_PARAMS = {
    "wide-baseline": {"n_words": 300, "dim": 30, "rank": 10, "band": 60},
    "edit-sweep": {"n_words": 60, "dim": 10},
    "ortho-ext": {"n_words": 60, "dim": 8},
}


def toy(name):
    w = WORKLOADS[name]
    options = list(w.cli_options)
    if "--train-cutoff" in options:
        options[options.index("--train-cutoff") + 1] = "100"
    return dataclasses.replace(
        w, params={**w.params, **TOY_PARAMS[name]}, cli_options=tuple(options), p_floor=0.0
    )


def check_result(result, expected, label):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, (label, set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert sorted(m) == ["unit", "value"], (label, name)
        assert isinstance(m["value"], (int, float)), (label, name)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            result, detail = run.run(root, toy(name), 1, 0.0, trace, spec)
            check_result(result, spec["per_layer" if trace else "end_to_end"], f"{name} trace={trace}")
            runs[(name, trace)] = {"stamp": run.stamp(root, toy(name), 1, 0.0, trace),
                                   "result": result, **detail}
            print(f"ok: {name} trace={trace} emits every metric with its unit")

    # A corrupted lexicon is a failed operation, and the run is not correct.
    original = run.check_operation

    def corrupting(workload, in_dir, out_dir, exit_code):
        lexicon = Path(out_dir) / "lexicon.tsv"
        lines = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[0].split("\t")
        lines[0] = "\t".join([fields[0], "notaword"] + fields[2:])
        lexicon.write_text("".join(lines), encoding="utf-8")
        return original(workload, in_dir, out_dir, exit_code)

    run.check_operation = corrupting
    try:
        result, _ = run.run(root, toy("ortho-ext"), 1, 0.0, 0, spec)
    finally:
        run.check_operation = original
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
    print("ok: a corrupted lexicon counts as a failed operation")

    # Records of one code compare cleanly; a differing stamp is refused.
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = []
        for key, record in runs.items():
            path = work / f"{key[0]}-{key[1]}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            paths.append(path)
        summary = records.summarize(paths)
        lines = records.compare(summary, summary, spec)
        assert not any("REGRESSION" in x or "NOT REPRODUCIBLE" in x for x in lines), lines
        other = json.loads(json.dumps(summary))
        other["stamp"]["blas_threads"] += 1
        try:
            records.compare(summary, other, spec)
        except SystemExit:
            print("ok: records with different stamps are not compared")
        else:
            raise AssertionError("records with different stamps were compared")

        # Without the program's sources the benchmark fails and prints no result.
        bare = work / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "ortho-ext", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and "{" not in proc.stdout, proc
        print("ok: without sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
