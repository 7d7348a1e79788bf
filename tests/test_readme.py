"""The README's code examples run as printed."""

import re
import shutil
from pathlib import Path

from orthomap.benchmark import generate_cipher_benchmark

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    # The example reads src.vec and tgt.vec from the working directory.
    bench = generate_cipher_benchmark(60, 10, seed=3, noise=0.0, out_dir=tmp_path / "bench")
    shutil.copy(bench.src_embeddings, tmp_path / "src.vec")
    shutil.copy(bench.tgt_embeddings, tmp_path / "tgt.vec")
    monkeypatch.chdir(tmp_path)
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    lines = capsys.readouterr().out.splitlines()
    src_words = set(names["src"].vocab.words)
    assert len(lines) == len(names["result"].lexicon) > 0
    assert all(line.split(" ")[0] in src_words for line in lines)
