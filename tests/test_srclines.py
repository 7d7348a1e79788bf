"""The line counting of tools/srclines.py."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "srclines", Path(__file__).resolve().parents[1] / "tools" / "srclines.py"
)
srclines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(srclines)


def test_blank_and_whitespace_lines_not_counted():
    assert srclines.nonblank("") == 0
    assert srclines.nonblank("a\n\n  \n\t\nb") == 2
    assert srclines.nonblank("x = 1\r\n\r\n# note\n") == 2


def test_rows_cover_both_sides_and_total():
    before = {"src/orthomap/a.py": 10, "src/orthomap/gone.py": 4}
    after = {"src/orthomap/a.py": 7, "src/orthomap/new.py": 2}
    assert srclines.rows(before, after) == [
        ("src/orthomap/a.py", 10, 7, -3),
        ("src/orthomap/gone.py", 4, 0, -4),
        ("src/orthomap/new.py", 0, 2, 2),
        ("total", 14, 9, -5),
    ]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_and_tree_counts(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "orthomap"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one"], check=True)
    (package / "a.py").write_text("x = 1\n", encoding="utf-8")
    (package / "b.py").write_text("z = 3\n\n", encoding="utf-8")
    assert srclines.counts_at("HEAD") == {"src/orthomap/a.py": 2}
    assert srclines.counts_in_tree() == {"src/orthomap/a.py": 1, "src/orthomap/b.py": 1}
    srclines.main([])
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "2", "2", "+0"]
