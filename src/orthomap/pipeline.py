"""End-to-end run orchestration: configuration, modes, artifacts, sweeps.

Four modes cover the supported configurations: "baseline" is the plain
self-learning loop; "ortho-ext" extends the embeddings with character
n-gram counts; "edit-dist" learns a stochastic edit distance on induced
pairs and boosts candidate similarities; "external-scorer" boosts the same
candidates with file-fed conditional probabilities instead.

A sweep over the scaling constant c loads the inputs once. In the boosted
modes it then builds the stage that does not depend on c (main loop, edit
model, candidates scored at c = 1) once per seed, and runs one boosted
loop per (c, seed). run_sweep alone orders these points; selection only
reduces the values they give. Forked worker processes may share a
stage's candidate scoring and run the boosted loops side by side. Given
two or more workers, a run parses a large target embedding file in a
forked worker while it parses the source file, and one forked drawer
draws the keep masks of its loops' stochastic steps ahead of them;
orthomap.parallel forks them all. Every output is the same for every
worker count; both manifests record the worker count and the BLAS thread
count, which can move the last bits of induce's cosines.
"""

import contextlib
import dataclasses
import json
import logging
import math
import time
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .candidates import DeleteIndex, candidate_pairs
from .corpus_io import (
    EmbeddingMatrix,
    SparseDictionary,
    Vocabulary,
    embedding_shape,
    load_embeddings,
    load_ref_lexicon,
    log_duplicates,
    parse_embeddings,
    write_lexicon,
)
from .edit_model import build_edit_alphabets, edit_similarity_boost, em_train
from .errors import CandidateError, ConfigError, InputFormatError
from .evaluation import (
    external_scorer_boost,
    load_scorer_table,
    precision_at_1,
    select_scaling_constant,
    write_predictions_tsv,
)
from .memory import log_peak_rss, peak_rss_mb
from .numerics import blas_threads, normalize_embeddings
from .ortho_extension import build_ngram_alphabet, extend_embeddings, extension_matrix
from .self_learning import (
    LoopConfig,
    SimilarityBoost,
    init_dictionary_unsupervised,
    run_loop,
    run_self_learning,
    training_cutoff,
)

logger = logging.getLogger(__name__)

MODES = ("baseline", "ortho-ext", "edit-dist", "external-scorer")
BOOSTED_MODES = ("edit-dist", "external-scorer")
CRITERIA = ("dev-accuracy", "objective")

# 18 scaling constants between 0.05 and 1.4: fine steps where the optimum
# usually falls, coarser ones above.
DEFAULT_GRID = [round(0.05 * i, 2) for i in range(1, 9)] + [
    round(0.5 + 0.1 * i, 2) for i in range(10)
]

# Named sub-streams of the master seed, one per self-learning phase.
_PHASE_MAIN = 0
_PHASE_BOOSTED = 1


def derive_seed(master, phase):
    """Stable per-phase seed so reruns of any mode share their main loop."""
    state = np.random.SeedSequence([int(master), int(phase)]).generate_state(1, np.uint64)
    return int(state[0])


def _valid_scale(c):
    return math.isfinite(c) and c >= 0.0


def _fits(value, kind):
    """Whether a JSON value has a field's annotated type. An int is also a
    float; a bool is neither."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:  # an optional field
        return any(_fits(value, k) for k in args)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass
class RunConfig:
    """Every knob of a pipeline run; defaults match the full-scale setup."""

    src_embeddings: str = ""
    tgt_embeddings: str = ""
    output_dir: str | None = None
    mode: str = "baseline"
    scale: float = 0.0
    grid: list[float] = field(default_factory=lambda: list(DEFAULT_GRID))
    seeds: list[int] = field(default_factory=lambda: [0])
    runs_per_c: int = 1
    criterion: str = "dev-accuracy"
    dev_lexicon: str | None = None
    test_lexicon: str | None = None
    scorer_table: str | None = None
    max_vocab: int | None = None
    oov_mode: str = "skip"
    train_cutoff: int = 20_000
    csls_k: int = 10
    stall_window: int = 50
    p_init: float = 0.1
    p_factor: float = 2.0
    objective_eps: float = 1e-6
    max_iterations: int = 10_000
    em_iterations: int = 3
    synth_pairs: int = 5_000
    delete_k: int = 2
    alphabet_k: int = 100

    def loop_config(self, seed):
        return LoopConfig(
            train_cutoff=self.train_cutoff,
            csls_k=self.csls_k,
            stall_window=self.stall_window,
            p_init=self.p_init,
            p_factor=self.p_factor,
            objective_eps=self.objective_eps,
            rng_seed=seed,
            max_iterations=self.max_iterations,
        )

    def validate(self, for_sweep=False):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not _valid_scale(self.scale):
            raise ConfigError(f"scale must be finite and non-negative, got {self.scale}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if self.oov_mode not in ("skip", "count-wrong"):
            raise ConfigError(f"unknown oov_mode {self.oov_mode!r}")
        for name in ("src_embeddings", "tgt_embeddings"):
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"{name} is required")
            if not Path(path).is_file():
                raise ConfigError(f"{name}: no such file: {path}")
        for name in ("dev_lexicon", "test_lexicon", "scorer_table"):
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name}: no such file: {path}")
        if self.mode == "external-scorer" and not self.scorer_table:
            raise ConfigError("external-scorer mode requires a scorer table")
        if min(self.em_iterations, self.synth_pairs, self.alphabet_k) < 1:
            raise ConfigError("em_iterations, synth_pairs and alphabet_k must be positive")
        if self.delete_k < 0:
            raise ConfigError("delete_k must be non-negative")
        if self.max_vocab is not None and self.max_vocab < 2:
            raise ConfigError("max_vocab must be at least 2")
        if self.train_cutoff < 2:
            raise ConfigError("train_cutoff must be at least 2")
        try:
            self.loop_config(self.seeds[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if for_sweep:
            if self.mode == "baseline":
                raise ConfigError("a baseline sweep has nothing to select: baseline ignores c")
            if not self.grid:
                raise ConfigError("sweep requires a non-empty grid")
            bad = [c for c in self.grid if not _valid_scale(c)]
            if bad:
                raise ConfigError(f"grid values must be finite and non-negative, got {bad}")
            if self.criterion not in CRITERIA:
                raise ConfigError(f"unknown criterion {self.criterion!r}")
            if self.criterion == "dev-accuracy" and not self.dev_lexicon:
                raise ConfigError("dev-accuracy selection requires a dev lexicon")
            if self.runs_per_c < 1:
                raise ConfigError("runs_per_c must be at least 1")
            seeds = sweep_seeds(self)
            for k, seed in enumerate(seeds):
                if seed in seeds[:k]:
                    raise ConfigError(f"seed {seed} repeats in the sweep's seeds {seeds}")

    def to_manifest(self, **outputs):
        """The manifest of a run: this configuration as one "config" object,
        with the package version and the run's outputs beside it."""
        return {"config": dataclasses.asdict(self), "package_version": __version__, **outputs}

    @classmethod
    def from_mapping(cls, mapping):
        """The configuration a config file holds.

        A manifest holds it as its "config" object. A manifest written
        before the configuration was nested is flat and carries
        "package_version" but no "config"; its fields are kept and the
        other keys dropped with a warning that names them, so a misspelled
        field shows. Any other mapping lists fields only. Every value must
        have its field's type, list elements included.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        if isinstance(mapping, dict) and "config" in mapping:
            mapping = mapping["config"]
        elif isinstance(mapping, dict) and "package_version" in mapping:
            dropped = sorted(set(mapping) - known - {"package_version"})
            if dropped:
                logger.warning("flat manifest: ignoring non-config keys %s", dropped)
            mapping = {k: v for k, v in mapping.items() if k in known}
        if not isinstance(mapping, dict):
            raise ConfigError("a configuration must be a JSON object")
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            if f.name in mapping and not _fits(mapping[f.name], f.type):
                kind = f.type.__name__ if isinstance(f.type, type) else f.type
                raise ConfigError(
                    f"config key {f.name!r} must be {kind}, got {mapping[f.name]!r}"
                )
        return cls(**mapping)


@dataclass
class PipelineResult:
    """In-memory outcome of one run."""

    predictions: dict
    mean_cosine: float
    result: object
    src_vocab: object
    tgt_vocab: object
    eval_report: object = None
    extras: dict = field(default_factory=dict)


# Bytes of a target embedding file from which, given two or more workers,
# a forked worker parses it while this process parses the source file.
# Measured in-process on 2 cores, serial against forked: 3.3 against 9.1 ms
# at 80 KB, 19 against 17 ms at 0.5 MB, 71 against 43 ms at 1.2 MB (the
# benchmark's files: tens of KB, and 9 MB).
_FORK_LOAD_BYTES = 1 << 20


def load_inputs(cfg, workers=1):
    """Both embedding matrices as the configured mode's loops consume them.

    With ``workers`` above 1 and a target file of at least _FORK_LOAD_BYTES,
    a forked worker parses the target file while this process parses the
    source file; a malformed file raises the error a serial load raises.
    ortho-ext appends its c-scaled n-gram columns before normalizing, so it
    keeps the matrices as loaded; every other mode normalizes here. The
    initial dictionary matches at least two words per side, and the maps
    need one width on both.
    """
    shape = None
    try:
        if workers > 1 and Path(cfg.tgt_embeddings).stat().st_size >= _FORK_LOAD_BYTES:
            shape = embedding_shape(cfg.tgt_embeddings, cfg.max_vocab)
    except (InputFormatError, OSError):
        pass  # raised by the serial load, after any error of the source file
    if shape is None:
        src = load_embeddings(cfg.src_embeddings, cfg.max_vocab)
        tgt = load_embeddings(cfg.tgt_embeddings, cfg.max_vocab)
    else:
        src, tgt = _load_beside(cfg, shape)
    logger.info("inputs parsed by %d process%s", *((1, "") if shape is None else (2, "es")))
    for path, emb in ((cfg.src_embeddings, src), (cfg.tgt_embeddings, tgt)):
        if len(emb.vocab) < 2:
            raise InputFormatError(f"{path}: at least 2 words needed, found {len(emb.vocab)}")
    if src.dim != tgt.dim:
        raise InputFormatError(
            f"{cfg.src_embeddings} has {src.dim} values per word, "
            f"{cfg.tgt_embeddings} has {tgt.dim}"
        )
    if cfg.mode != "ortho-ext":
        # Into copies, as normalize_embeddings leaves its argument alone. The
        # loaded arrays' memory goes back to the heap for the loop's arrays;
        # normalized in place, wide-baseline ran no faster and peaked no
        # lower (ten pairs: wall_ref_s 1.96 -> 2.00 s, peak 70.8 -> 70.7 MB).
        src = normalize_embeddings(src)
        tgt = normalize_embeddings(tgt)
    log_peak_rss(logger, "loading")
    return src, tgt


def _load_beside(cfg, shape):
    """Both embedding matrices, the source parsed here and the target by a
    forked worker into a parallel.shared_array of ``shape``. Only the
    target's words and its count of duplicates come back through the pipe:
    the rows need no copy, and this process allocates what a serial load
    allocates. The target's duplicate warning is logged here, after the
    source's, as a serial load logs them."""
    shared = parallel.shared_array(shape, np.float64)

    def parse(path):
        emb, duplicates = parse_embeddings(path, cfg.max_vocab, out=shared)
        return emb.vocab.words, duplicates

    with parallel.forked(parse, [cfg.tgt_embeddings], 1, "loading {}".format) as results:
        src = load_embeddings(cfg.src_embeddings, cfg.max_vocab)
        words, duplicates = next(results)
    log_duplicates(cfg.tgt_embeddings, duplicates)
    return src, EmbeddingMatrix(Vocabulary(words), shared[: len(words)])


def _mask_readers(cfg, points):
    """The number of loops that read each phase seed's keep masks, for the
    (c, seed) ``points`` of a run or sweep, in the order the phases run: a
    boosted mode's main loops (one per seed, in its stage) come first."""
    seeds = [seed for _, seed in points]
    if cfg.mode in BOOSTED_MODES:
        loops = [(seed, _PHASE_MAIN) for seed in dict.fromkeys(seeds)]
        loops += [(seed, _PHASE_BOOSTED) for seed in seeds]
    else:
        loops = [(seed, _PHASE_MAIN) for seed in seeds]
    readers = {}
    for seed, phase in loops:
        key = derive_seed(seed, phase)
        readers[key] = readers.get(key, 0) + 1
    return readers


def _keep_masks(cfg, inputs, points, workers):
    return parallel.keep_masks(
        cfg.loop_config(0), training_cutoff(*inputs, cfg), _mask_readers(cfg, points), workers
    )


def _run_plain(src, tgt, cfg, seed, masks):
    loop_cfg = cfg.loop_config(derive_seed(seed, _PHASE_MAIN))
    return run_self_learning(src, tgt, loop_cfg, masks=masks)


def _run_extended(src_raw, tgt_raw, cfg, seed, extras, masks):
    cutoff = training_cutoff(src_raw, tgt_raw, cfg)
    alphabet = build_ngram_alphabet(
        src_raw.vocab.top(cutoff), tgt_raw.vocab.top(cutoff), cfg.alphabet_k
    )
    extras["alphabet_size"] = len(alphabet)
    src = extend_embeddings(
        src_raw, extension_matrix(src_raw.vocab.words, alphabet, cfg.scale)
    )
    tgt = extend_embeddings(
        tgt_raw, extension_matrix(tgt_raw.vocab.words, alphabet, cfg.scale)
    )
    loop_cfg = cfg.loop_config(derive_seed(seed, _PHASE_MAIN))
    return run_self_learning(src, tgt, loop_cfg, n_extension_cols=len(alphabet), masks=masks)


def _synthetic_pairs(loop, src_vocab, tgt_vocab, n):
    """Highest-similarity entries of a loop's final dictionary, as words."""
    scores = loop.loop_dictionary_scores
    order = np.argsort(-scores, kind="stable")[:n]
    d = loop.loop_dictionary
    return [
        (src_vocab.words[int(d.src[k])], tgt_vocab.words[int(d.tgt[k])]) for k in order
    ]


@dataclass
class BoostStage:
    """The part of a boosted run that does not depend on the scaling constant.

    Candidate pairs in sorted order with their boost at c = 1. Both boost
    formulas end in ``scale * max(0.0, ...)``, so the boost at c is
    ``c * unit``, bit for bit. ``init`` is the initial dictionary, which
    both loops of the seed share.
    """

    src: np.ndarray
    tgt: np.ndarray
    unit: np.ndarray
    extras: dict
    init: SparseDictionary


def _score_slice(src_words, tgt_words, model, cfg, index, table, lo, hi):
    """Candidates of the source words lo..hi-1 in sorted order, as an
    (n, 2) array of (source, target) indices, with their boosts at c = 1
    and the count of those words without a transliteration path."""
    cands, skipped = candidate_pairs(src_words[lo:hi], tgt_words, model, cfg.delete_k, index)
    cands = sorted(cands)
    words = [(src_words[lo + i], tgt_words[j]) for i, j in cands]
    if table is None:
        unit = [edit_similarity_boost(x, z, model, 1.0) for x, z in words]
    else:
        unit = [external_scorer_boost(x, z, table, 1.0) for x, z in words]
    pairs = np.array(cands, np.int64).reshape(-1, 2)
    pairs[:, 0] += lo
    return pairs, np.array(unit, float), skipped


def boost_stage(src, tgt, cfg, seed, workers=1, masks=None):
    """Initial dictionary, main loop, edit model and unit-scale candidate
    boosts for one seed.

    Only the main loop's dictionary is read, so it runs without the final
    pass of a plain run; the boosted loop's final pass whitens the same
    rows. The main loop takes its keep masks from ``masks`` where it can
    (see run_loop). With ``workers`` above 1, candidate filtering and
    scoring split the source words into that many contiguous slices: this
    process does the first, forked workers the others, and the slices
    joined in order are the serial result.
    """
    # Read first, so that a malformed table stops the run before any loop.
    table = load_scorer_table(cfg.scorer_table) if cfg.mode == "external-scorer" else None
    start = time.perf_counter()
    cutoff = training_cutoff(src, tgt, cfg)
    init = init_dictionary_unsupervised(src, tgt, cutoff)
    loop_cfg = cfg.loop_config(derive_seed(seed, _PHASE_MAIN))
    loop = run_loop(src, tgt, loop_cfg, init=init, masks=masks)
    pairs = _synthetic_pairs(loop, src.vocab, tgt.vocab, cfg.synth_pairs)
    extras = {"synthetic_pairs": len(pairs)}
    loop_end = time.perf_counter()

    src_words = src.vocab.top(cutoff)
    tgt_words = tgt.vocab.top(cutoff)
    alphabets = build_edit_alphabets(src_words, tgt_words)
    model = em_train(pairs, alphabets, cfg.em_iterations)
    extras["edit_model"] = model
    em_end = time.perf_counter()

    index = DeleteIndex.build(tgt_words, cfg.delete_k)
    bounds = [len(src_words) * w // workers for w in range(workers + 1)]

    def score(w):
        return _score_slice(src_words, tgt_words, model, cfg, index, table, *bounds[w : w + 2])

    if workers > 1:
        with parallel.forked(
            score, range(1, workers), workers - 1,
            lambda w: f"scoring slice {w + 1} of {workers} of seed {seed}'s candidates",
        ) as results:
            slices = [score(0), *results]
    else:
        slices = [score(0)]
    cands = np.concatenate([s[0] for s in slices])
    skipped = sum(s[2] for s in slices)
    extras["candidates"] = len(cands)
    extras["untransliterable"] = skipped
    if skipped:
        logger.warning("%d source words had no transliteration path", skipped)
    if not len(cands):
        raise CandidateError("candidate filtering produced no pairs")
    logger.info(
        "seed %d stage: init and main loop %.3f s, EM %.3f s, %d candidate pairs filtered "
        "and scored at c=1 in %.3f s",
        seed, loop_end - start, em_end - loop_end, len(cands), time.perf_counter() - em_end,
    )
    unit = np.concatenate([s[1] for s in slices])
    return BoostStage(cands[:, 0], cands[:, 1], unit, extras, init)


def _run_boosted(src, tgt, cfg, seed, stage, extras, masks):
    values = cfg.scale * stage.unit
    keep = values > 0.0
    extras.update(stage.extras, boosted_pairs=int(keep.sum()))
    boost = SimilarityBoost(stage.src[keep], stage.tgt[keep], values[keep])
    loop_cfg = cfg.loop_config(derive_seed(seed, _PHASE_BOOSTED))
    return run_self_learning(src, tgt, loop_cfg, boost=boost, init=stage.init, masks=masks)


def execute_run(cfg, seed, inputs=None, stage=None, masks=None, workers=1):
    """Run the configured mode and return the in-memory outcome.

    A sweep passes ``inputs``, the pair ``load_inputs(cfg)`` returns, in
    the boosted modes ``stage``, the seed's BoostStage, and ``masks``, its
    KeepMasks or None, so that calls differing only in ``cfg.scale`` load
    the inputs once and run the c-independent stages once per seed. Without
    inputs everything is computed afresh, the keep masks by a drawer of the
    run's own. ``workers`` is the number of cores the run may use (see
    load_inputs, parallel.keep_masks and boost_stage); the outcome is the
    same for every count.
    """
    if inputs is not None:
        return _outcome(cfg, seed, *inputs, stage, workers, masks)
    inputs = load_inputs(cfg, workers)
    with _keep_masks(cfg, inputs, [(cfg.scale, seed)], workers) as masks:
        return _outcome(cfg, seed, *inputs, stage, workers, masks)


def _outcome(cfg, seed, src, tgt, stage, workers, masks):
    extras = {}
    if cfg.mode == "baseline":
        result = _run_plain(src, tgt, cfg, seed, masks)
    elif cfg.mode == "ortho-ext":
        result = _run_extended(src, tgt, cfg, seed, extras, masks)
    else:
        if stage is None:
            stage = boost_stage(src, tgt, cfg, seed, workers=workers, masks=masks)
        result = _run_boosted(src, tgt, cfg, seed, stage, extras, masks)
    src_words = src.vocab.words
    tgt_words = tgt.vocab.words
    predictions = {
        src_words[int(i)]: tgt_words[int(j)]
        for i, j in zip(result.lexicon.src, result.lexicon.tgt)
    }
    return PipelineResult(
        predictions=predictions,
        mean_cosine=float(result.lexicon_cosine.mean()),
        result=result,
        src_vocab=src.vocab,
        tgt_vocab=tgt.vocab,
        extras=extras,
    )


def _ensure_disjoint(dev, test):
    overlap = [
        (s, t) for s, targets in dev.pairs.items() for t in targets
        if t in test.pairs.get(s, ())
    ]
    if overlap:
        raise ConfigError(
            f"dev and test lexicons share {len(overlap)} pairs, e.g. {overlap[0]}"
        )


def _write_trace(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration\tp_keep\tobjective\tdict_size\tmutual_pairs\tchurn\n")
        for e in trace:
            fh.write(
                f"{e.iteration}\t{e.p_keep:.10g}\t{e.objective:.12f}"
                f"\t{e.dict_size}\t{e.mutual_pairs}\t{e.churn}\n"
            )


def run_pipeline(cfg, workers=1):
    """Validate, run, and write all artifacts into the output directory.

    Artifacts: lexicon.tsv, trace.tsv, manifest.json, edit_model.tsv for the
    boosted modes, and an evaluation report when a test lexicon is given.
    Nothing is written when validation fails. ``workers`` is as in
    execute_run and recorded in the manifest; the other artifacts do not
    depend on it.
    """
    cfg.validate()
    if not cfg.output_dir:
        raise ConfigError("output_dir is required")
    dev = test = None
    if cfg.dev_lexicon:
        dev = load_ref_lexicon(cfg.dev_lexicon)
    if cfg.test_lexicon:
        test = load_ref_lexicon(cfg.test_lexicon)
    if dev is not None and test is not None:
        _ensure_disjoint(dev, test)

    seed = cfg.seeds[0]
    forks = parallel.workers_forked
    outcome = execute_run(cfg, seed, workers=workers)
    forked = parallel.workers_forked > forks

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = outcome.result
    write_lexicon(
        result.lexicon,
        outcome.src_vocab,
        outcome.tgt_vocab,
        out_dir / "lexicon.tsv",
        scores=result.lexicon_cosine,
    )
    _write_trace(result.trace, out_dir / "trace.tsv")
    model = outcome.extras.pop("edit_model", None)
    if model is not None:
        model.save(out_dir / "edit_model.tsv")
        outcome.extras["edit_model_path"] = str(out_dir / "edit_model.tsv")

    outputs = {
        "seed_used": seed,
        "iterations": result.state.iteration,
        "final_objective": result.state.objective,
        "mean_cosine": outcome.mean_cosine,
        "peak_rss_mb": peak_rss_mb(),
        "workers": workers,
        "blas_threads": blas_threads(),
        "worker_peak_rss_mb": peak_rss_mb(children=True) if forked else None,
    }
    outputs.update(
        {k: v for k, v in outcome.extras.items() if isinstance(v, (int, float, str))}
    )

    if test is not None:
        report = precision_at_1(outcome.predictions, test, cfg.oov_mode)
        outcome.eval_report = report
        outputs["test_p_at_1"] = report.p_at_1
        with open(out_dir / "eval_summary.txt", "w", encoding="utf-8") as fh:
            fh.write(report.summary() + "\n")
        write_predictions_tsv(report, out_dir / "predictions.tsv")
        logger.info("test %s", report.summary())

    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.to_manifest(**outputs), fh, indent=2, sort_keys=True)
    return outcome


def sweep_seeds(cfg):
    """The seeds of the averaged runs: the first runs_per_c of cfg.seeds,
    a short list extended by counting up from its last seed."""
    seeds = list(cfg.seeds)
    while len(seeds) < cfg.runs_per_c:
        seeds.append(seeds[-1] + 1)
    return seeds[: cfg.runs_per_c]


@dataclass
class PointOutcome:
    """What selection reads of one (c, seed) run, and the run's seconds."""

    predictions: dict
    mean_cosine: float
    seconds: float


def _run_point(cfg, scale, seed, inputs, stages, masks):
    start = time.perf_counter()
    outcome = execute_run(replace(cfg, scale=scale), seed, inputs, stages.get(seed), masks)
    return PointOutcome(outcome.predictions, outcome.mean_cosine, time.perf_counter() - start)


def _sweep_outcomes(cfg, inputs, points, stages, workers, masks):
    """PointOutcomes of a sweep's (c, seed) points, in the order of ``points``.

    ``stages`` holds each seed's BoostStage in the boosted modes. Only
    those fan out, over up to ``workers`` processes, one point each: an
    ortho-ext point builds its own cutoff x cutoff initial dictionary, so
    two at once may not fit in memory. With more than one worker,
    ``masks.stop()`` ends the keep-mask drawer, and forked processes run
    the points, each on one core; they inherit the inputs, the stages and
    the masks drawn so far copy-on-write. Every loop takes its masks from
    ``masks``, a KeepMasks or None. Closing the generator ends every
    worker.
    """
    fan_out = min(workers, len(points)) if cfg.mode in BOOSTED_MODES else 1
    if fan_out > 1:
        if masks is not None:
            masks.stop()
        with parallel.forked(
            lambda point: _run_point(cfg, *point, inputs, stages, masks), points, fan_out,
            lambda point: f"running c={point[0]:g}, seed {point[1]}",
        ) as results:
            yield from results
    else:
        for scale, seed in points:
            yield _run_point(cfg, scale, seed, inputs, stages, masks)


def run_sweep(cfg, workers=1):
    """Select the scaling constant over the grid and write a report.

    Points run in ascending c, then seed order; a repeated grid value is
    its own row. The boosted modes first build each seed's BoostStage, on
    ``workers`` slices (see boost_stage); a failing stage is logged with
    its seed and raised before any point runs. A point's criterion value
    is its P@1 on the dev lexicon under cfg.oov_mode, or its mean cosine.
    With ``workers`` above 1 the target file may be parsed in a forked
    worker (see load_inputs), keep masks are drawn in another (see
    parallel.keep_masks) and points may run in others (see
    _sweep_outcomes); every output, error and log line is the serial
    sweep's. The manifest records ``workers``, and the workers' peak RSS
    when any ran.
    """
    cfg.validate(for_sweep=True)
    if not cfg.output_dir:
        raise ConfigError("output_dir is required")
    dev = load_ref_lexicon(cfg.dev_lexicon) if cfg.dev_lexicon else None

    forks = parallel.workers_forked
    inputs = load_inputs(cfg, workers)
    grid = sorted(cfg.grid)
    seeds = sweep_seeds(cfg)
    points = [(c, seed) for c in grid for seed in seeds]
    stages, stage_seconds, seconds, values = {}, [], [], []
    with _keep_masks(cfg, inputs, points, workers) as masks:
        if cfg.mode in BOOSTED_MODES:
            for seed in seeds:
                start = time.perf_counter()
                try:
                    stages[seed] = boost_stage(*inputs, cfg, seed, workers=workers, masks=masks)
                except Exception:
                    logger.error("pipeline stage failed for seed %d", seed)
                    raise
                stage_seconds.append(time.perf_counter() - start)
        outcomes = _sweep_outcomes(cfg, inputs, points, stages, workers, masks)
        with contextlib.closing(outcomes):
            for scale, seed in points:
                try:
                    outcome = next(outcomes)
                except Exception:
                    logger.error("pipeline run failed at scale c=%g, seed %d", scale, seed)
                    raise
                seconds.append(outcome.seconds)
                logger.info("c=%g, seed %d: %.3f s", scale, seed, outcome.seconds)
                if cfg.criterion == "dev-accuracy":
                    values.append(precision_at_1(outcome.predictions, dev, cfg.oov_mode).p_at_1)
                else:
                    values.append(outcome.mean_cosine)
    runs = len(seeds)
    best, report = select_scaling_constant(
        [(c, values[k * runs : (k + 1) * runs]) for k, c in enumerate(grid)], cfg.criterion
    )
    forked = parallel.workers_forked > forks
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sweep_report.tsv", "w", encoding="utf-8") as fh:
        fh.write("scale\tmean\truns\n")
        for point in report:
            runs = ",".join(f"{v:.6f}" for v in point.values)
            fh.write(f"{point.scale:g}\t{point.mean:.6f}\t{runs}\n")
    manifest = cfg.to_manifest(
        selected_scale=best,
        peak_rss_mb=peak_rss_mb(),
        workers=workers,
        blas_threads=blas_threads(),
        stage_seconds=stage_seconds,
        point_seconds=seconds,
        worker_peak_rss_mb=peak_rss_mb(children=True) if forked else None,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    logger.info("selected scaling constant c=%g by %s", best, cfg.criterion)
    return best, report
