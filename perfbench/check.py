"""Output checks of one operation; a failed check counts as a failed operation."""

import hashlib
import json
from pathlib import Path


def _vocab(path):
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return [line.split(" ", 1)[0] for line in fh]


def _gold(path):
    gold = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, tgt = line.split()
            gold.setdefault(src, set()).add(tgt)
    return gold


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_induce(in_dir, out_dir, p_floor):
    """lexicon.tsv has one line per source word, each with an in-vocabulary
    target; its P@1 against the gold lexicon agrees with the manifest and
    reaches the floor. Returns (problem or None, facts)."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    src_vocab = _vocab(in_dir / "src.vec")
    tgt_vocab = set(_vocab(in_dir / "tgt.vec"))
    predicted = {}
    with open(out_dir / "lexicon.tsv", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                return f"lexicon line {lineno}: {len(fields)} fields", {}
            src, tgt = fields[0], fields[1]
            if src in predicted:
                return f"lexicon line {lineno}: second line for {src!r}", {}
            if tgt not in tgt_vocab:
                return f"lexicon line {lineno}: target {tgt!r} not in vocabulary", {}
            predicted[src] = tgt
    if sorted(predicted) != sorted(src_vocab):
        return f"lexicon covers {len(predicted)} of {len(src_vocab)} source words", {}
    gold = _gold(in_dir / "gold.tsv")
    p_at_1 = sum(predicted[s] in t for s, t in gold.items()) / len(gold)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    facts = {
        "p_at_1": p_at_1,
        "lexicon_sha256": _sha256(out_dir / "lexicon.tsv"),
        "iterations": manifest.get("iterations"),
    }
    if abs(manifest.get("test_p_at_1", -1.0) - p_at_1) > 1e-12:
        return f"manifest P@1 {manifest.get('test_p_at_1')} != lexicon P@1 {p_at_1}", facts
    if p_at_1 < p_floor:
        return f"P@1 {p_at_1:.4f} below floor {p_floor}", facts
    return None, facts


def check_sweep(out_dir, grid, p_floor):
    """sweep_report.tsv has one row per grid value and the manifest selects
    one of them; that value's dev P@1 reaches the floor."""
    out_dir = Path(out_dir)
    with open(out_dir / "sweep_report.tsv", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    means = {float(r[0]): float(r[1]) for r in rows}
    if sorted(means) != sorted(grid):
        return f"sweep report covers {sorted(means)}, grid is {sorted(grid)}", {}
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    selected = manifest.get("selected_scale")
    if selected not in means:
        return f"selected scale {selected} not in the grid", {}
    facts = {
        "p_at_1": means[selected],
        "lexicon_sha256": _sha256(out_dir / "sweep_report.tsv"),
        "iterations": None,
    }
    if means[selected] != max(means.values()):
        return f"selected c={selected} is not the best grid value", facts
    if means[selected] < p_floor:
        return f"dev P@1 {means[selected]:.4f} below floor {p_floor}", facts
    return None, facts


def check_operation(workload, in_dir, out_dir, exit_code):
    """Problem description or None, and the facts read from the outputs."""
    if exit_code != 0:
        return f"exit code {exit_code}", {}
    try:
        if workload.command == "sweep":
            grid = workload.cli_options[workload.cli_options.index("--grid") + 1]
            return check_sweep(out_dir, [float(c) for c in grid.split(",")], workload.p_floor)
        return check_induce(in_dir, out_dir, workload.p_floor)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}", {}
