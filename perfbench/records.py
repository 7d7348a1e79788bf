"""Summarize run records into one stamped record, and compare two of them.

    python3 perfbench/records.py summarize OUT.json RUN.json...
    python3 perfbench/records.py compare BASE.json NEW.json

RUN.json files are written by ``run.py --record``. A summary holds, per
workload, each metric's values over the runs with their median, quartiles
and spread (quartile distance over median), and the output facts of every
operation: lexicon_sha256, p_at_1 and iterations, keyed by operation seed.
``compare`` refuses two summaries whose stamps differ in anything but the
code measured, checks outputs for bit-for-bit equality when the code is the
same, and judges each end-to-end metric against its bound.
"""

import json
import statistics
import sys
from pathlib import Path

CODE_KEYS = ("git_commit", "source_sha256")  # what a comparison compares
RUN_KEYS = ("seed", "trace")  # vary between the runs a summary holds


def _stats(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def summarize(paths):
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    common = {k: v for k, v in runs[0]["stamp"].items()
              if k not in RUN_KEYS and k not in ("workload", "command", "params", "cli_options")}
    workloads = {}
    for run in runs:
        stamp = run["stamp"]
        for key, value in common.items():
            if stamp[key] != value:
                raise SystemExit(f"records disagree on {key}: {value!r} vs {stamp[key]!r}")
        w = workloads.setdefault(stamp["workload"], {
            "params": stamp["params"], "cli_options": stamp["cli_options"],
            "seeds": {"untraced": [], "traced": []}, "metrics": {}, "operations": {},
            "attempted": 0, "failed": 0,
        })
        kind = "traced" if stamp["trace"] else "untraced"
        w["seeds"][kind].append(stamp["seed"])
        w["attempted"] += run["result"]["attempted"]
        w["failed"] += run["result"]["failed"]
        for name, metric in run["result"]["metrics"].items():
            w["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            w["metrics"][name]["values"].append(metric["value"])
        for op in run["operations"]:
            facts = {k: op.get(k) for k in ("lexicon_sha256", "p_at_1", "iterations")}
            seen = w["operations"].setdefault(str(op["seed"]), facts)
            if seen != facts:
                raise SystemExit(f"{stamp['workload']} seed {op['seed']}: outputs differ "
                                 f"between operations of the same code: {seen} vs {facts}")
    for w in workloads.values():
        w["fail_ratio"] = w["failed"] / max(1, w["attempted"])
        for metric in w["metrics"].values():
            metric.update(_stats(metric.pop("values")))
    return {"stamp": common, "workloads": workloads}


def compare(base, new, spec):
    """Lines of the verdict; raises SystemExit when the stamps differ."""
    for key in set(base["stamp"]) | set(new["stamp"]):
        if key not in CODE_KEYS and base["stamp"].get(key) != new["stamp"].get(key):
            raise SystemExit(f"refusing to compare: stamps differ in {key}: "
                             f"{base['stamp'].get(key)!r} vs {new['stamp'].get(key)!r}")
    same_code = base["stamp"]["source_sha256"] == new["stamp"]["source_sha256"]
    lines = []
    for name in sorted(set(base["workloads"]) | set(new["workloads"])):
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None or n is None or b["params"] != n["params"] or b["seeds"] != n["seeds"]:
            raise SystemExit(f"refusing to compare: workload {name} differs")
        for metric in spec["end_to_end"]:
            mb, mn = b["metrics"][metric["name"]], n["metrics"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mn["median"] - mb["median"]) / mb["median"]
            if mb["spread"] > metric["bound"]:
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            lines.append(f"{name} {metric['name']}: {mb['median']:.6g} -> {mn['median']:.6g}"
                         f" {metric['unit']} ({-worse:+.1%} better, bound {metric['bound']:.0%}) {verdict}")
        # Runs of equal length may fit different numbers of operations.
        common = [s for s in b["operations"] if s in n["operations"]]
        changed = [s for s in common if b["operations"][s] != n["operations"][s]]
        if same_code and changed:
            lines.append(f"{name}: NOT REPRODUCIBLE, outputs differ at seeds {changed}")
        else:
            lines.append(f"{name}: outputs changed at {len(changed)} of {len(common)} shared operation seeds")
        lines.append(f"{name}: fail_ratio {b['fail_ratio']:.4f} -> {n['fail_ratio']:.4f}")
    return lines


def main(argv):
    if len(argv) >= 3 and argv[0] == "summarize":
        out = summarize(argv[2:])
        Path(argv[1]).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        lines = compare(base, new, spec)
        print("\n".join(lines))
        return 1 if any("REGRESSION" in x or "NOT REPRODUCIBLE" in x for x in lines) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
