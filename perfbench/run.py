"""orthomap benchmark: one seeded workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a source checkout. The load is a closed loop: one
client makes one CLI invocation at a time, each in a fresh process, on
inputs written for it alone from the workload seed. Operations repeat for
``--seconds`` (at least MIN_OPS of them) and their medians are reported;
a fixed reference task timed before each untraced operation turns the
median wall time into ``wall_ref_s`` (see calibrate.py).
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` each input runs untraced and then traced (the difference
is the tracing overhead), and one extra memory pass under tracemalloc gives
the ``*.peak_mb`` metrics. The last line of standard output is one JSON
object; ``--record`` also writes the full record.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

BLAS_THREADS = 1  # one thread: steadier than two on a shared 2-core machine
# Pinned before numpy loads: for the operations and this process's reference task.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(BLAS_THREADS)))

from calibrate import REFERENCE_S, reference_task  # noqa: E402
from check import check_operation  # noqa: E402
from workloads import WORKLOADS, cli_argv, op_seed  # noqa: E402

MIN_OPS = 3
MIN_TRACED_INPUTS = 2  # each runs untraced, then traced
SETUP_PROBES = 5
GEN_BATCH = 4  # inputs written per generator process
OP_TIMEOUT_S = 150
DEADLINE_S = 170  # every run ends well inside 180 s, even when an operation hangs
# The files whose change changes what is measured; hashed into every stamp.
MEASURING = ("run.py", "op.py", "spans.py", "check.py", "workloads.py", "calibrate.py")


class Harness:
    """Spawns the generator and operation processes of one run."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env.pop("ORTHOMAP_THREADS", None)
        self._count = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def _timeout(self):
        return max(1.0, min(OP_TIMEOUT_S, self.remaining()))

    def _run(self, argv):
        try:
            return subprocess.run(
                [sys.executable, *argv], env=self.env, cwd=self.root,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            return None

    def fresh_dir(self, label):
        self._count += 1
        path = self.work / f"{self._count:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def generate(self, workload, run_seed, first, count):
        """Input directories of operations ``first`` to ``first + count - 1``,
        written by one generator process (starting one costs about as much
        as writing a small input)."""
        in_dirs = [self.fresh_dir(f"in-{index}") for index in range(first, first + count)]
        proc = self._run([str(HERE / "workloads.py"), json.dumps(workload.params),
                          str(run_seed), str(first), str(self.work / "base"),
                          *map(str, in_dirs)])
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"input generation failed: {proc and proc.stderr[-2000:]}")
        return in_dirs

    def operation(self, mode, argv=()):
        """One op.py process; returns what it reported, or its exit code."""
        result = self.work / f"result-{self._count:03d}-{mode}.json"
        result.unlink(missing_ok=True)
        spawn = time.monotonic()
        proc = self._run([str(HERE / "op.py"), repr(spawn), str(result), mode, *argv])
        if proc is None:
            return {"exit_code": "timeout"}
        if not result.is_file():
            return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
        return json.loads(result.read_text(encoding="utf-8"))

    def invoke(self, workload, in_dir, seed, mode):
        """One checked CLI invocation on ``in_dir`` with fresh outputs."""
        out_dir = self.fresh_dir(f"out-{seed}-{mode}")
        report = self.operation(mode, cli_argv(workload, in_dir, out_dir, seed))
        problem, facts = check_operation(workload, in_dir, out_dir, report.get("exit_code"))
        report.update(facts, seed=seed, mode=mode, problem=problem)
        shutil.rmtree(out_dir, ignore_errors=True)
        return report


def _median(values):
    return statistics.median(values) if values else 0.0


def _source_hash(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.is_file() else ():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


def stamp(root, workload, seed, seconds, trace):
    """What must match before two records may be compared (see records.py).

    ``git_commit`` and ``source_sha256`` identify the code measured and are
    the one thing allowed to differ between compared records.
    """
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    bench_hash = hashlib.sha256()
    for name in MEASURING:
        bench_hash.update(name.encode() + b"\0" + (HERE / name).read_bytes())
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_hash(root),
        "benchmark_sha256": bench_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "workload": workload.name,
        "command": workload.command,
        "params": workload.params,
        "cli_options": list(workload.cli_options),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def measure(harness, workload, seed, seconds, trace):
    """Run operations until ``seconds`` have passed; return their reports."""
    probes = [harness.operation("setup") for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes if "setup_s" in p]
    ops, overheads, memory = [], [], None
    start = time.monotonic()
    if trace:
        # A pass of its own, never timed: tracemalloc roughly doubles run time.
        [in_dir] = harness.generate(workload, seed, 0, 1)
        memory = harness.invoke(workload, in_dir, op_seed(seed, 0), "memory")
        ops.append(memory)
    inputs, durations, pending = 0, [], []
    # Start another input only while it is expected to end within ``seconds``,
    # and never once the run's deadline is near.
    while harness.remaining() > _median(durations) and (
        inputs < (MIN_TRACED_INPUTS if trace else MIN_OPS)
        or time.monotonic() - start + _median(durations) < seconds
    ):
        began = time.monotonic()
        if not pending:
            pending = harness.generate(workload, seed, inputs, GEN_BATCH)
        in_dir = pending.pop(0)
        calibration = reference_task()
        plain = harness.invoke(workload, in_dir, op_seed(seed, inputs), "plain")
        plain["calibration_s"] = calibration
        ops.append(plain)
        if trace:
            traced = harness.invoke(workload, in_dir, op_seed(seed, inputs), "trace")
            if traced["problem"] is None and traced["lexicon_sha256"] != plain.get("lexicon_sha256"):
                traced["problem"] = "traced output differs from the untraced one"
            ops.append(traced)
            if "wall_s" in traced and "wall_s" in plain:
                overheads.append(traced["wall_s"] - plain["wall_s"])
        shutil.rmtree(in_dir, ignore_errors=True)
        inputs += 1
        durations.append(time.monotonic() - began)
    setups += [op["setup_s"] for op in ops if "setup_s" in op and op["mode"] == "plain"]
    return setups, ops, overheads, memory


def metrics_of(spec, setups, ops, overheads, memory, trace):
    """The metrics BENCHMARK.json names for this kind of run, with units."""
    good = [op for op in ops if op["problem"] is None]
    plain = [op for op in good if op["mode"] == "plain"]
    if trace:
        traced = [op["layers"] for op in good if op["mode"] == "trace"]
        values = {name: _median([t[name] for t in traced]) for name in traced[0]} if traced else {}
        values["trace.overhead_s"] = _median(overheads)
        if memory is not None and memory["problem"] is None:
            values.update({k: v for k, v in memory["layers"].items() if k.endswith(".peak_mb")})
        names = spec["per_layer"]
    else:
        # The host alternates between a fast and a slow state within seconds.
        # An operation spans several switches, a pass of the reference task
        # few: the mean of its passes, not their median, follows the share
        # of time the run spent slow.
        wall = _median([op["wall_s"] for op in plain])
        calibration = statistics.fmean([op["calibration_s"] for op in plain]) if plain else 0.0
        values = {
            "wall_ref_s": wall * REFERENCE_S / calibration if plain else 0.0,
            "setup_s": _median(setups),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in plain]),
            "p_at_1": _median([op["p_at_1"] for op in plain]),
        }
        names = spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}


def run(root, workload, seed, seconds, trace, spec):
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        harness = Harness(root, work)
        setups, ops, overheads, memory = measure(harness, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(op["problem"] is not None for op in ops)
    metrics = metrics_of(spec, setups, ops, overheads, memory, trace)
    return {
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }, {"setup_s": setups, "operations": ops}


def print_report(result, detail):
    for op in detail["operations"]:
        print(
            f"op seed={op['seed']} mode={op['mode']} wall_s={op.get('wall_s', float('nan')):.3f}"
            f" setup_s={op.get('setup_s', float('nan')):.3f}"
            f" calibration_s={op.get('calibration_s', float('nan')):.3f}"
            f" peak_rss_mb={op.get('peak_rss_mb', float('nan')):.1f}"
            f" p_at_1={op.get('p_at_1')} iterations={op.get('iterations')}"
            f" lexicon_sha256={str(op.get('lexicon_sha256'))[:16]}"
            f" {'ok' if op['problem'] is None else 'FAILED: ' + op['problem']}"
        )
    print(f"fail_ratio {result['failed'] / max(1, result['attempted']):.4f} ratio"
          f" ({result['failed']} of {result['attempted']} operations)")
    plain = [op for op in detail["operations"] if op["mode"] == "plain" and op["problem"] is None]
    if plain:
        print(f"wall_s {_median([op['wall_s'] for op in plain]):.6g} s (median as measured)")
        print(f"calibration_s {statistics.fmean([op['calibration_s'] for op in plain]):.6g} s"
              f" (mean; REFERENCE_S is {REFERENCE_S} s)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the stamped full record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "orthomap" / "cli.py").is_file():
        print(f"error: {root} holds no orthomap source tree (src/orthomap)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    record_stamp = stamp(root, workload, args.seed, args.seconds, args.trace)
    try:
        result, detail = run(root, workload, args.seed, args.seconds, args.trace, spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(result, detail)
    if args.record:
        record = {"stamp": record_stamp, "result": result, **detail}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
