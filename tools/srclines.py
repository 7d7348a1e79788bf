"""Non-blank line counts of the package's modules, at a commit and in the
working tree.

    python3 tools/srclines.py [REV]

Run from the root of a git checkout. For each src/orthomap/*.py at REV
(default HEAD, read through ``git show``) or in the working tree, prints
its non-blank lines at REV, in the working tree and the change, then the
totals. A module on one side only counts 0 on the other.
"""

import argparse
import subprocess
from pathlib import Path

PACKAGE = "src/orthomap"


def nonblank(text):
    """The number of lines of ``text`` holding more than whitespace."""
    return sum(1 for line in text.splitlines() if line.strip())


def counts_at(rev):
    """{path: non-blank lines} of the package's modules at ``rev``."""

    def git(*args):
        return subprocess.run(
            ["git", *args], check=True, capture_output=True, text=True, encoding="utf-8"
        ).stdout

    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").splitlines()
    return {p: nonblank(git("show", f"{rev}:{p}")) for p in paths if p.endswith(".py")}


def counts_in_tree():
    """{path: non-blank lines} of the package's modules in the working tree."""
    return {
        path.as_posix(): nonblank(path.read_text(encoding="utf-8"))
        for path in Path(PACKAGE).glob("*.py")
    }


def rows(before, after):
    """(path, before, after, change) for each module in path order, then
    ("total", ...)."""
    table = [
        (path, before.get(path, 0), after.get(path, 0))
        for path in sorted(before.keys() | after.keys())
    ]
    table.append(("total", sum(r[1] for r in table), sum(r[2] for r in table)))
    return [(path, b, a, a - b) for path, b, a in table]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)
    table = rows(counts_at(args.rev), counts_in_tree())
    width = max(len(path) for path, *_ in table)
    print(f"{'module':<{width}}  {args.rev:>8}  {'tree':>8}  {'change':>7}")
    for path, b, a, change in table:
        print(f"{path:<{width}}  {b:>8}  {a:>8}  {change:>+7}")


if __name__ == "__main__":
    main()
