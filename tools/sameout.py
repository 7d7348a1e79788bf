"""Whether a change keeps every output of the benchmark's workloads: a
parent commit against a change, byte for byte.

    python3 tools/sameout.py PARENT CHANGE

Run from the root of a git checkout that holds both commits. Each commit
is exported with tools/pairs.py's ``export`` into a fresh temporary
directory. The parent's perfbench/workloads.py writes one input per
workload (``generate``, operation 0 of run seed 1) and gives its CLI
arguments (``cli_argv``). Each commit's CLI then runs every workload at
``--threads`` 1 and 2, with PYTHONDONTWRITEBYTECODE=1 and BLAS on one
thread: numpy is loaded before the CLI sets its thread variables, so
induce's cosines do not depend on ``--threads``. Both sides run on the
same relative paths, so the paths the manifests record are equal.

Every output file and each run's stdout (a sweep's per-c means and its
"selected c=" line) must be equal byte for byte, and manifest.json equal
but for VOLATILE, the fields that record the process rather than the
result. Prints one line per (workload, threads) and the count of
differences; exits 1 on any difference.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Manifest fields that may differ between two runs of one commit.
VOLATILE = (
    "edit_model_path", "peak_rss_mb", "workers", "blas_threads", "worker_peak_rss_mb",
    "stage_seconds", "point_seconds",
)
THREADS = (1, 2)
RUN_SEED = 1
_LAUNCH = "import sys, numpy, orthomap.cli; sys.exit(orthomap.cli.main(sys.argv[1:]))"


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def manifest_differences(parent, change):
    """Sorted top-level keys of two manifests whose values differ, or
    that one of them lacks, VOLATILE keys aside."""
    keys = (parent.keys() | change.keys()) - set(VOLATILE)
    missing = object()
    return sorted(k for k in keys if parent.get(k, missing) != change.get(k, missing))


def differences(parent_dir, change_dir):
    """How two output directories differ, one line per difference."""

    def names(path):
        return {p.name for p in path.iterdir()} if path.is_dir() else set()

    found = []
    for name in sorted(names(parent_dir) | names(change_dir)):
        a, b = parent_dir / name, change_dir / name
        if not (a.is_file() and b.is_file()):
            found.append(f"{name}: only in the {'parent' if a.is_file() else 'change'}")
        elif name == "manifest.json":
            keys = manifest_differences(json.loads(a.read_bytes()), json.loads(b.read_bytes()))
            found += [f"manifest.json: {key} differs" for key in keys]
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{name} differs")
    return found


def run_differences(parent, change):
    """How two runs differ, each given as (exit code, stdout, output
    directory): their outputs (see differences), their stdout byte for
    byte, and their exit codes."""
    (parent_code, parent_stdout, parent_dir), (code, stdout, out_dir) = parent, change
    found = differences(parent_dir, out_dir)
    if parent_stdout != stdout:
        found.append("stdout differs")
    if parent_code != code:
        found.append(f"exit code {parent_code} -> {code}")
    return found


def run(copy, cwd, argv):
    """One CLI invocation of the commit in ``copy``, in ``cwd``; returns
    its exit code, its stdout and its output directory, ``cwd``/out."""
    cwd.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ORTHOMAP_THREADS"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout, cwd / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    pairs = _module("pairs", Path(__file__).resolve().with_name("pairs.py"))
    work = Path(tempfile.mkdtemp(prefix="sameout-"))
    sides = {"parent": args.parent, "change": args.change}
    copies = {side: pairs.export(commit, work / side) for side, commit in sides.items()}
    sys.path.insert(0, str(copies["parent"] / "src"))  # the generators import orthomap
    workloads = _module("workloads", copies["parent"] / "perfbench" / "workloads.py")
    total = 0
    for name, workload in workloads.WORKLOADS.items():
        inputs = work / "inputs" / name
        workloads.generate(workload.params, RUN_SEED, 0, inputs, work / "inputs" / f"{name}-base")
        seed = workloads.op_seed(RUN_SEED, 0)
        for threads in THREADS:
            runs = {}
            for side in sides:
                cwd = work / "runs" / side / f"{name}-{threads}"
                relative = Path(os.path.relpath(inputs, cwd))
                args = workloads.cli_argv(workload, relative, "out", seed)
                runs[side] = run(copies[side], cwd, ["--threads", str(threads), *args])
            found = run_differences(runs["parent"], runs["change"])
            total += len(found)
            print(f"{name} at --threads {threads} (exit {runs['change'][0]}): "
                  f"{len(found)} differences", flush=True)
            for line in found:
                print(f"  {line}")
    print(f"{total} differences (runs in {work})")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
