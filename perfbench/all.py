"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/all.py --seed N [--seconds S] [--record-dir DIR]

Each run is the same as one ``run.py`` call; with ``--record-dir`` the run
records land there, ready for ``records.py summarize``.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--record-dir", help="write one record per run here")
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            run_argv = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.record_dir:
                Path(args.record_dir).mkdir(parents=True, exist_ok=True)
                record = Path(args.record_dir) / f"{name}-s{args.seed}-t{trace}.json"
                run_argv += ["--record", str(record)]
            status = max(status, run.main(run_argv))
    return status


if __name__ == "__main__":
    sys.exit(main())
