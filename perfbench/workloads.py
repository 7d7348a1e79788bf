"""Seeded workloads: input generators, CLI arguments and output floors.

Generators write through public orthomap functions only, so the program
under test receives plain files and nothing else. A seed fixes every input
byte. Why each workload exists is recorded next to its name in
BENCHMARK.json.
"""

import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LATIN = "abcdefghijklmnopqrst"
GREEK = "αβγδεζηθικλμνξοπρστυ"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "induce" or "sweep"
    params: dict  # generator inputs; recorded in every stamp
    cli_options: tuple
    p_floor: float  # lowest acceptable P@1 of one operation


def _random_words(rng, n):
    words, seen = [], set()
    while len(words) < n:
        word = "".join(rng.choice(list(LATIN), size=int(rng.integers(3, 9))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _write_pairs(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt in pairs:
            fh.write(f"{src} {tgt}\n")


def _banded_order(rng, n, band):
    return np.concatenate([lo + rng.permutation(min(band, n - lo)) for lo in range(0, n, band)])


def gen_banded(seed, out_dir, n_words, dim, rank, noise, band):
    """A low-rank random space and a rotated, noisy copy of it whose rows
    are shuffled only within bands of ``band`` frequency ranks.

    The two training heads share most of their words but not all of them,
    so the pair is not bijective where the loop trains. The rank keeps the
    unsupervised initialisation solvable at d = 300; an isotropic Gaussian
    space of that width gives it nothing to match on.
    """
    from orthomap.corpus_io import EmbeddingMatrix, Vocabulary, write_embeddings

    rng = np.random.default_rng([seed, 1])
    src_words = _random_words(rng, n_words)
    cipher = dict(zip(LATIN, rng.permutation(list(GREEK))))
    images = ["".join(cipher[c] for c in w) for w in src_words]
    basis = _random_orthogonal(rng, dim)[:rank]
    src = rng.standard_normal((n_words, rank)) @ basis
    src += 0.3 * np.sqrt(rank / dim) * rng.standard_normal((n_words, dim))
    order = _banded_order(rng, n_words, band)
    tgt = src[order] @ _random_orthogonal(rng, dim)
    tgt += noise * np.sqrt(rank / dim) * rng.standard_normal(tgt.shape)
    out = Path(out_dir)
    write_embeddings(EmbeddingMatrix(Vocabulary(src_words), src), out / "src.vec")
    write_embeddings(
        EmbeddingMatrix(Vocabulary([images[i] for i in order]), tgt), out / "tgt.vec"
    )
    _write_pairs(out / "gold.tsv", zip(src_words, images))


def reshuffle_banded(base_dir, seed, out_dir, band):
    """Copy a banded pair with each side's rows shuffled again within bands.

    Every operation of a run gets distinct files this way (other frequency
    ranks, other training heads) without formatting the 300-wide rows anew,
    which costs more than most operations.
    """
    rng = np.random.default_rng([seed, 2])
    for name in ("src.vec", "tgt.vec"):
        with open(Path(base_dir) / name, encoding="utf-8") as fh:
            header, *rows = fh.readlines()
        order = _banded_order(rng, len(rows), band)
        with open(Path(out_dir) / name, "w", encoding="utf-8") as fh:
            fh.write(header)
            fh.writelines(rows[i] for i in order)
    shutil.copyfile(Path(base_dir) / "gold.tsv", Path(out_dir) / "gold.tsv")


def gen_cipher(seed, out_dir, n_words, dim, noise):
    """The package's cipher benchmark; the dev lexicon is the gold's first half."""
    from orthomap.benchmark import generate_cipher_benchmark

    bench = generate_cipher_benchmark(n_words, dim, seed, noise, out_dir)
    out = Path(out_dir)
    bench.src_embeddings.rename(out / "src.vec")
    bench.tgt_embeddings.rename(out / "tgt.vec")
    bench.gold_lexicon.rename(out / "gold.tsv")
    pairs = [(w, bench.encipher(w)) for w in bench.source_words]
    _write_pairs(out / "dev.tsv", pairs[: len(pairs) // 2])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-baseline",
            command="induce",
            params={"generator": "banded", "n_words": 1500, "dim": 300, "rank": 40,
                    "noise": 0.1, "band": 350},
            cli_options=("--mode", "baseline", "--train-cutoff", "450",
                         "--stall-window", "6", "--objective-eps", "0.02"),
            p_floor=0.95,
        ),
        Workload(
            name="edit-sweep",
            command="sweep",
            params={"generator": "cipher", "n_words": 200, "dim": 20, "noise": 0.1},
            cli_options=("--mode", "edit-dist", "--grid", "0.3,0.6",
                         "--criterion", "dev-accuracy", "--stall-window", "10",
                         "--objective-eps", "0.02"),
            p_floor=0.9,
        ),
        Workload(
            name="ortho-ext",
            command="induce",
            params={"generator": "cipher", "n_words": 200, "dim": 8, "noise": 0.1},
            cli_options=("--mode", "ortho-ext", "--scale", "0.3", "--stall-window", "10",
                         "--objective-eps", "0.02"),
            p_floor=0.9,
        ),
    )
}


def generate(params, run_seed, index, out_dir, base_dir):
    """Write the inputs of operation ``index`` of a run into ``out_dir``.

    Banded pairs are reshuffled from one pair per run, kept in ``base_dir``;
    cipher pairs are cheap and generated afresh from the operation's seed.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    kwargs = {k: v for k, v in params.items() if k != "generator"}
    if params["generator"] == "cipher":
        gen_cipher(op_seed(run_seed, index), out_dir, **kwargs)
        return
    if not (Path(base_dir) / "gold.tsv").is_file():
        Path(base_dir).mkdir(parents=True, exist_ok=True)
        gen_banded(run_seed, base_dir, **kwargs)
    reshuffle_banded(base_dir, op_seed(run_seed, index), out_dir, params["band"])


def op_seed(run_seed, index):
    """Seed of operation ``index`` of a run; the program receives it too."""
    return run_seed * 1000 + index


def cli_argv(workload, in_dir, out_dir, seed):
    """Arguments of the single CLI invocation that forms one operation."""
    in_dir = Path(in_dir)
    argv = [workload.command, "--src-emb", str(in_dir / "src.vec"),
            "--tgt-emb", str(in_dir / "tgt.vec"), "--seed", str(seed),
            "--output-dir", str(out_dir), *workload.cli_options]
    if workload.command == "sweep":
        return argv + ["--dev", str(in_dir / "dev.tsv")]
    return argv + ["--test", str(in_dir / "gold.tsv")]


if __name__ == "__main__":
    # python3 workloads.py PARAMS_JSON RUN_SEED FIRST_INDEX BASE_DIR OUT_DIR...
    # writes the inputs of operations FIRST_INDEX, FIRST_INDEX + 1, ... into
    # the OUT_DIRs, in a process of its own so the generator's memory never
    # counts against an operation.
    import json

    params, run_seed, first = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    for index, out_dir in enumerate(sys.argv[5:], start=first):
        generate(params, run_seed, index, out_dir, sys.argv[4])
