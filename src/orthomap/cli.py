"""Command-line surface.

Subcommands: induce, evaluate, sweep, transliterate, train-edit-model,
gen-benchmark. Heavy imports happen inside main() so the thread limit can
be applied to the numerical backend before it loads.

Exit codes: 0 success; a command ended by an error exits with the
error class's exit_code (see errors.py).
"""

import argparse
import json
import logging
import os
import sys

THREADS_ENV_VAR = "ORTHOMAP_THREADS"


def _add_run_options(parser):
    # Each dest is a RunConfig field, except --seed, which sets the one-seed
    # list "seeds". Paths may come from --config, so they are validated
    # later, not here.
    parser.add_argument("--src-emb", dest="src_embeddings", help="source embedding file")
    parser.add_argument("--tgt-emb", dest="tgt_embeddings", help="target embedding file")
    parser.add_argument("--output-dir", help="artifact directory")
    parser.add_argument(
        "--mode",
        choices=("baseline", "ortho-ext", "edit-dist", "external-scorer"),
        help="pipeline configuration (default baseline)",
    )
    parser.add_argument("--scale", type=float, help="orthographic scaling constant c")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--dev", dest="dev_lexicon", help="development lexicon file")
    parser.add_argument("--test", dest="test_lexicon", help="test lexicon file")
    parser.add_argument("--scorer-table", help="conditional probability table (TSV)")
    parser.add_argument("--max-vocab", type=int, help="truncate both vocabularies")
    parser.add_argument("--train-cutoff", type=int, help="words used for training")
    parser.add_argument("--csls-k", type=int, help="neighbourhood size for rescaling")
    parser.add_argument("--stall-window", type=int, help="iterations without improvement")
    parser.add_argument("--p-init", type=float, help="initial keep probability")
    parser.add_argument("--p-factor", type=float, help="keep probability multiplier")
    parser.add_argument("--objective-eps", type=float, help="improvement threshold")
    parser.add_argument("--max-iterations", type=int, help="hard iteration cap")
    parser.add_argument("--em-iterations", type=int, help="edit-model EM iterations")
    parser.add_argument("--synth-pairs", type=int, help="synthetic training pairs")
    parser.add_argument("--delete-k", type=int, help="max deletions for candidates")
    parser.add_argument("--alphabet-k", type=int, help="n-grams per language and order")
    parser.add_argument(
        "--oov-mode", choices=("skip", "count-wrong"), help="handling of OOV test words"
    )
    parser.add_argument("--config", help="JSON config file; explicit flags win")


def _config_from_args(args):
    from dataclasses import fields, replace

    from .errors import ConfigError
    from .pipeline import RunConfig

    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                mapping = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        cfg = RunConfig.from_mapping(mapping)
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    flags = {name: value for name, value in flags.items() if value is not None}
    if args.seed is not None:
        flags["seeds"] = [args.seed]
    grid = flags.pop("grid", None)
    if grid:
        try:
            flags["grid"] = [float(v) for v in grid.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"malformed --grid {grid!r}") from None
    return replace(cfg, **flags)


def _cmd_induce(args):
    from .pipeline import run_pipeline

    cfg = _config_from_args(args)
    outcome = run_pipeline(cfg, workers=args.workers)
    print(f"lexicon written to {cfg.output_dir}/lexicon.tsv")
    if outcome.eval_report is not None:
        print(outcome.eval_report.summary())
    return 0


def _thread_count(threads):
    """--threads, else $ORTHOMAP_THREADS, as a count of at least 1; None
    when neither is given."""
    from .errors import ConfigError

    source = "--threads"
    if threads is None:
        threads, source = os.environ.get(THREADS_ENV_VAR), THREADS_ENV_VAR
        if not threads:
            return None
        try:
            threads = int(threads)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be at least 1, got {threads}")
    return threads


def _workers(threads):
    """Workers of induce and sweep: --threads, else $ORTHOMAP_THREADS, else
    the cores this process may run on. Workers are forked, so 1 off Linux,
    where the count is still validated."""
    count = _thread_count(threads)
    if not sys.platform.startswith("linux"):
        return 1
    return count or len(os.sched_getaffinity(0))


def _cmd_sweep(args):
    from .pipeline import run_sweep

    cfg = _config_from_args(args)
    best, points = run_sweep(cfg, workers=args.workers)
    for point in points:
        print(f"c={point.scale:g}\t{point.mean:.6f}")
    print(f"selected c={best:g}")
    return 0


def _cmd_evaluate(args):
    from .corpus_io import load_ref_lexicon, read_lexicon_tsv
    from .evaluation import precision_at_1, write_predictions_tsv

    predicted = read_lexicon_tsv(args.lexicon)
    ref = load_ref_lexicon(args.reference)
    report = precision_at_1(predicted, ref, args.oov_mode)
    print(report.summary())
    if args.predictions_out:
        write_predictions_tsv(report, args.predictions_out)
    return 0


def _cmd_transliterate(args):
    from .edit_model import EditModel, transliterate

    model = EditModel.load(args.model)
    if args.words:
        words = args.words
    elif args.input:
        with open(args.input, encoding="utf-8", errors="surrogateescape") as fh:
            words = [line.strip() for line in fh if line.strip()]
    else:
        words = [line.strip() for line in sys.stdin if line.strip()]
    for word in words:
        rendered, score = transliterate(word, model)
        print(f"{word}\t{rendered}\t{score:.6f}")
    return 0


def _cmd_train_edit_model(args):
    from .corpus_io import load_embeddings
    from .edit_model import build_edit_alphabets, em_train
    from .errors import ConfigError, InputFormatError

    if args.iterations < 1:
        raise ConfigError("--iterations must be at least 1")
    if bool(args.src_vocab) != bool(args.tgt_vocab):
        missing = "--src-vocab" if args.tgt_vocab else "--tgt-vocab"
        raise ConfigError(
            f"missing {missing}: --src-vocab and --tgt-vocab are given together or not at all"
        )
    pairs = []
    with open(args.pairs, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise InputFormatError(f"{args.pairs}:{lineno}: expected 2 fields")
            pairs.append((tokens[0], tokens[1]))
    if not pairs:
        raise InputFormatError(f"{args.pairs}: no word pairs")
    if args.src_vocab:
        src_words = load_embeddings(args.src_vocab).vocab.words
        tgt_words = load_embeddings(args.tgt_vocab).vocab.words
    else:
        src_words = [x for x, _ in pairs]
        tgt_words = [z for _, z in pairs]
    alphabets = build_edit_alphabets(src_words, tgt_words)
    model = em_train(pairs, alphabets, args.iterations)
    model.save(args.output)
    stats = model.training_stats
    print(
        f"model written to {args.output} "
        f"(log-likelihood {stats.log_likelihoods[-1]:.4f}, "
        f"skipped {stats.skipped_uncovered + stats.skipped_zero_prob})"
    )
    return 0


def _cmd_gen_benchmark(args):
    from .benchmark import generate_cipher_benchmark

    bench = generate_cipher_benchmark(
        args.n_words, args.dim, args.seed, args.noise, args.output_dir
    )
    print(f"benchmark written to {args.output_dir}")
    print(f"  source embeddings: {bench.src_embeddings}")
    print(f"  target embeddings: {bench.tgt_embeddings}")
    print(f"  gold lexicon:      {bench.gold_lexicon}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orthomap",
        description="Induce bilingual word translation dictionaries from "
        "monolingual embeddings, optionally using orthographic signals.",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="log progress")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"numerical backend threads; for induce, also the processes that may "
        f"parse the inputs and score candidates; for sweep, worker processes each "
        f"on one backend thread (default: ${THREADS_ENV_VAR} or all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="run the pipeline and write a lexicon")
    _add_run_options(p)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("sweep", help="select the scaling constant over a grid")
    _add_run_options(p)
    p.add_argument("--grid", help="comma-separated c values (default: built-in 18)")
    p.add_argument("--criterion", choices=("dev-accuracy", "objective"))
    p.add_argument("--runs-per-c", type=int, help="seeded runs averaged per value")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="score an induced lexicon against a reference")
    p.add_argument("--lexicon", required=True, help="induced lexicon TSV")
    p.add_argument("--reference", required=True, help="reference lexicon file")
    p.add_argument("--oov-mode", choices=("skip", "count-wrong"), default="skip")
    p.add_argument("--predictions-out", help="write per-pair predictions TSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("transliterate", help="render words with a trained edit model")
    p.add_argument("--model", required=True, help="edit model file")
    p.add_argument("--input", help="file with one word per line (default: stdin)")
    p.add_argument("words", nargs="*", help="words given directly")
    p.set_defaults(func=_cmd_transliterate)

    p = sub.add_parser("train-edit-model", help="EM-train an edit model on word pairs")
    p.add_argument("--pairs", required=True, help="file with one word pair per line")
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--src-vocab", help="embedding file defining the source alphabet")
    p.add_argument("--tgt-vocab", help="embedding file defining the target alphabet")
    p.set_defaults(func=_cmd_train_edit_model)

    p = sub.add_parser("gen-benchmark", help="generate a synthetic cipher benchmark")
    p.add_argument("--n-words", type=int, default=2000)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_gen_benchmark)
    return parser


def _apply_thread_limit(threads):
    """Set the BLAS thread variables to ``threads``, else to
    $ORTHOMAP_THREADS; leave them alone when neither is given."""
    threads = _thread_count(threads)
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

    from .errors import InputFormatError, OrthomapError

    try:
        # Before numpy loads, so that BLAS starts with these threads. A sweep
        # spends its threads on worker processes, each with one BLAS thread.
        # induce forks its workers only while BLAS is idle (to parse the
        # target file, to score candidates), so it gives its threads to BLAS,
        # as every other command does.
        if args.command in ("induce", "sweep"):
            args.workers = _workers(args.threads)
        _apply_thread_limit(1 if args.command == "sweep" else args.threads)
        return args.func(args)
    except (OrthomapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # An OSError is an unreadable input file.
        return getattr(exc, "exit_code", InputFormatError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
