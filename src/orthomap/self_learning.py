"""Iterative mapping/induction loop.

One iteration solves the orthogonal maps for the current dictionary, builds
the rescaled similarity matrix over the training cutoff, and induces a new
bidirectional dictionary from it, zeroing entries stochastically to force
exploration. The keep probability starts small and doubles whenever the
objective stalls; once it reaches 1 and stalls again, a modified final
iteration with whitening produces the output maps and lexicon. Iterations
at p_keep 1 that would replay a fixed point of the induction return its
objective without recomputing it. The loop's Procrustes problem is solved
over the columns each side uses: a column that is zero in every training
row adds only zero singular values and moves no score, which is what the
n-gram columns of the other script are under an orthographic extension.

The initial dictionary, every iteration and the final retrieval share one
nearest-neighbour kernel. It never holds a whole score matrix: ScoreTiles
builds the matrix one row tile at a time from its factors, csls_means reads
the tiles once for the hubness statistics (pass 1), and _best_entries
rebuilds them, adjusts, boosts and masks each one, and reduces it to the
best entry of every row and column (pass 2). Their reductions copy a slice
of a tile at a time, never a whole tile.

Given two or more cores, a loop with a wide enough solve keeps one helper
thread: it draws a step's keep-mask uniforms while the SVD runs and builds
one map product while the other is built. Every result is the same bit
for bit with or without it.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import SparseDictionary
from .errors import ConvergenceError
from .memory import log_peak_rss
from .numerics import blas_threads, compute_whitening, normalize_rows, weighted_cross_svd
from .ortho_extension import strip_extension

logger = logging.getLogger(__name__)

# Bytes of float64 scores per row tile: the kernel's working set is a few
# tiles plus O(n * csls_k), whatever the vocabulary sizes.
_TILE_BYTES = 4 << 20
# Bytes of a slice of a tile that its reductions copy at once: the top-k
# partitions and retrieval's adjusted scores hold one slice, not a tile.
# Slices of 64 KiB made the partitions of 200- to 450-row tiles 15-25%
# slower, in per-call overhead; at 256 KiB they take a whole tile's time.
_SLICE_BYTES = 256 << 10
# Solve width (used columns of the narrower side) from which a loop with
# two or more workers, and BLAS on one thread, keeps a helper thread: it
# draws the keep-mask uniforms beside the SVD and builds the target-side
# map product beside the source-side one. Narrower solves gain less than
# the thread's handoffs and its second BLAS buffer cost: measured at the
# benchmark's 20 and 128 columns (slower or more memory) and 300 (faster);
# the crossover between 128 and 300 was not measured.
_HELPER_MIN_WIDTH = 256


@dataclass
class LoopConfig:
    """Constants of the self-learning loop."""

    train_cutoff: int = 20_000
    csls_k: int = 10
    stall_window: int = 50
    p_init: float = 0.1
    p_factor: float = 2.0
    objective_eps: float = 1e-6
    rng_seed: int = 0
    max_iterations: int = 10_000

    def __post_init__(self):
        if min(self.train_cutoff, self.csls_k, self.stall_window, self.max_iterations) < 1:
            raise ValueError("loop counts must be positive")
        if not 0.0 < self.p_init <= 1.0:
            raise ValueError("p_init must lie in (0, 1]")
        if self.p_factor <= 1.0:
            raise ValueError("p_factor must exceed 1")
        if self.objective_eps <= 0.0:
            raise ValueError("objective_eps must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass
class TrainState:
    """Mutable loop state; the induction step reads it for seeding.

    induce_dictionary records its dictionary here, with the adjusted score
    of each entry before masking.
    """

    p_keep: float
    rng_seed: int
    iteration: int = 0
    stall_counter: int = 0
    objective: float = float("-inf")
    dictionary: SparseDictionary | None = None
    dictionary_scores: np.ndarray | None = None
    churn: int = 0  # entries of dictionary not in the step's input dictionary


@dataclass
class TraceEntry:
    iteration: int
    p_keep: float
    objective: float
    dict_size: int
    mutual_pairs: int
    churn: int


@dataclass
class SimilarityBoost:
    """Sparse additive adjustment to similarity entries (boosted pairs)."""

    src: np.ndarray
    tgt: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.tgt = np.ascontiguousarray(self.tgt, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        order = np.argsort(self.src, kind="stable")
        self.src = self.src[order]
        self.tgt = self.tgt[order]
        self.values = self.values[order]

    def __len__(self):
        return len(self.src)

    def restricted(self, n_src, n_tgt):
        keep = (self.src < n_src) & (self.tgt < n_tgt)
        return SimilarityBoost(self.src[keep], self.tgt[keep], self.values[keep])

    def add_to(self, block, lo):
        """Add the boost in place to ``block``, which holds rows [lo, lo + len(block)).

        Entries of rows outside the block are skipped; duplicate pairs sum.
        """
        a = np.searchsorted(self.src, lo)
        b = np.searchsorted(self.src, lo + block.shape[0])
        np.add.at(block, (self.src[a:b] - lo, self.tgt[a:b]), self.values[a:b])


def _tile_rows(n_cols):
    return max(1, _TILE_BYTES // (8 * n_cols))


def _tile_shape(n_rows, n_cols):
    """Shape of the row tiles of an n_rows x n_cols ScoreTiles matrix."""
    return min(n_rows, _tile_rows(n_cols)), n_cols


def _slice_len(n):
    """Length of a slice of a tile whose other side is n long."""
    return max(1, _SLICE_BYTES // (8 * n))


class ScoreTiles:
    """A score matrix that exists one row tile at a time.

    ``build(lo, hi, out)`` writes rows [lo, hi) into ``out``. Tiles have
    _tile_rows(n_cols) rows and share one buffer, so a matrix that fits one
    tile is built once however many passes read it. ``buffer``, when
    given, is that buffer, of shape _tile_shape(n_rows, n_cols).
    """

    def __init__(self, n_rows, n_cols, build, buffer=None):
        if n_rows == 0 or n_cols == 0:
            raise ValueError("empty vocabulary")
        self.shape = (n_rows, n_cols)
        self.tile_shape = _tile_shape(n_rows, n_cols)
        self._build = build
        self._buffer = np.empty(self.tile_shape) if buffer is None else buffer
        self._held = None  # first row of the tile the buffer holds as built

    def tiles(self, stop=None, consume=False):
        """Yield (lo, hi, tile) for every row tile that starts below ``stop``.

        A tile is valid until the next one is yielded; with ``consume`` the
        caller may overwrite it.
        """
        n_rows, step = self.shape[0], self.tile_shape[0]
        for lo in range(0, n_rows if stop is None else stop, step):
            hi = min(lo + step, n_rows)
            tile = self._buffer[: hi - lo]
            if self._held != lo:
                self._build(lo, hi, tile)
            self._held = None if consume else lo
            yield lo, hi, tile


def _product(left, right, buffer=None):
    """ScoreTiles of ``left @ right.T``, built in ``buffer`` when given."""
    right_t = right.T
    return ScoreTiles(
        len(left),
        len(right),
        lambda lo, hi, out: np.matmul(left[lo:hi], right_t, out=out),
        buffer,
    )


# The partitions below treat each row (or column) on its own, so a slice
# at a time gives the whole tile's values bit for bit, in the same order.


def topk_row_mean(sim, k):
    """Mean of the k largest entries of each row, partitioned a slice of
    rows at a time."""
    k = min(k, sim.shape[1])
    out = np.empty(len(sim))
    step = _slice_len(sim.shape[1])
    for lo in range(0, len(sim), step):
        top = np.partition(sim[lo : lo + step], -k, axis=1)[:, -k:]
        top.mean(axis=1, out=out[lo : lo + step])
    return out


def _top_rows(block, k):
    """The k largest entries of each column of ``block`` (all of them when
    it has at most k rows), in the order np.partition leaves them,
    partitioned a slice of columns at a time."""
    k = min(k, len(block))
    out = np.empty((k, block.shape[1]))
    step = _slice_len(len(block))
    for lo in range(0, block.shape[1], step):
        out[:, lo : lo + step] = np.partition(block[:, lo : lo + step], -k, axis=0)[-k:]
    return out


def csls_means(scores, k, stats_rows=None, row_means=True):
    """Pass 1: per-source and per-target nearest-neighbour mean similarities.

    Returns (row means, column means) of the ScoreTiles ``scores``. A row
    mean averages the k largest entries of the full row (None unless
    ``row_means``); a column mean those among the column's first
    ``stats_rows`` rows (all rows by default): each tile's top k per column
    merges into a running (k x n_cols) array. When those rows lie in one
    tile, this partitions and sums exactly as topk_row_mean on the dense
    transposed matrix; across tiles it sums the same values in another
    order.
    """
    n_rows = scores.shape[0]
    stop = n_rows if stats_rows is None else stats_rows
    col_k = min(k, stop)
    rows = np.empty(n_rows) if row_means else None
    top = None
    for lo, hi, tile in scores.tiles(None if row_means else stop):
        if rows is not None:
            rows[lo:hi] = topk_row_mean(tile, k)
        if lo < stop:
            part = _top_rows(tile[: stop - lo], col_k)
            top = part if top is None else _top_rows(np.concatenate([top, part]), col_k)
    return rows, top.mean(axis=0)


def csls_adjust(block, row_means, col_means, out=None):
    """Hubness-corrected similarities: 2*S(i,j) - row_mean_i - col_mean_j.

    ``row_means`` may be None, as a per-row constant does not move a row's
    argmax. The result goes to ``out`` (which may be ``block``) when given.
    """
    out = np.multiply(block, 2.0, out=out)
    if row_means is not None:
        out -= row_means[:, None]
    out -= col_means[None, :]
    return out


def _row_uniforms(seed, iteration):
    """Return ``fill(lo, out)``, which writes row ``lo + r``'s uniforms into ``out[r]``.

    Each row draws from a counter-based generator keyed per (seed,
    iteration, row), starting at counter 0, so results do not depend on how
    rows are grouped into tiles. The 128-bit key packs iteration and row
    into the second word (both stay far below 2**32). One Philox is re-keyed
    per row through its public state: a fresh one per row costs twice as
    much, because each construction also reads OS entropy.
    """
    bitgen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], np.uint64))
    gen = np.random.Generator(bitgen)
    # A freshly keyed state: counter zeros, buffer empty (buffer_pos 4).
    # Assigning it copies the values, so the dict itself stays fresh.
    fresh = bitgen.state
    key = fresh["state"]["key"]

    def fill(lo, out):
        for r in range(out.shape[0]):
            key[1] = (iteration << 32) | (lo + r)
            bitgen.state = fresh
            gen.random(out=out[r])
        return out

    return fill


def _uniforms_into(buffer, state):
    """``draw(lo, hi)``: the keep-mask uniforms of rows [lo, hi), written
    into ``buffer``, which has at least hi - lo rows."""
    fill = _row_uniforms(state.rng_seed, state.iteration)
    return lambda lo, hi: fill(lo, buffer[: hi - lo])


def _best_entries(
    scores, means=None, boost=None, state=None, backward=True, cosines=False, uniforms=None
):
    """Pass 2: the best entry of every row and of every column.

    Each tile of the ScoreTiles ``scores`` is rebuilt, adjusted by
    ``means`` (row means or None, column means), boosted, and masked: with
    state.p_keep < 1, entries are dropped with probability 1 - p_keep,
    seeded per row. ``uniforms(lo, hi)`` gives the mask's uniforms of rows
    [lo, hi), as _uniforms_into draws them (by default into a tile-sized
    buffer). Returns (row argmax, row max, column argmax, column max,
    cosines). Columns merge across tiles with a strict ``>``, so the
    earliest row wins a tie, as in a dense argmax; a column with every
    entry dropped keeps argmax -1. With ``backward`` False the column
    arrays are not computed (-1 and -inf throughout); with ``cosines`` the
    last array holds each row's unadjusted score at its argmax, else it is
    None. The cosines need the unadjusted tile, so then each tile is
    adjusted into a copy one slice of rows at a time; every step treats a
    row on its own, or merges columns in row order, so slices give the
    whole tile's results.
    """
    n_rows, n_cols = scores.shape
    forward = np.empty(n_rows, np.int64)
    row_best = np.empty(n_rows)
    col_arg = np.full(n_cols, -1, np.int64)
    col_best = np.full(n_cols, -np.inf)
    cos = np.empty(n_rows) if cosines else None
    step = _slice_len(n_cols) if cosines else scores.tile_shape[0]
    adjusted = np.empty((min(step, n_rows), n_cols)) if cosines else None
    stochastic = state is not None and state.p_keep < 1.0
    if stochastic and uniforms is None:
        uniforms = _uniforms_into(np.empty(scores.tile_shape), state)
    for t_lo, t_hi, tile in scores.tiles(consume=True):
        for lo in range(t_lo, t_hi, step):
            hi = min(lo + step, t_hi)
            raw = tile[lo - t_lo : hi - t_lo]
            block = raw
            if means is not None:
                row_means, col_means = means
                block = csls_adjust(
                    raw,
                    None if row_means is None else row_means[lo:hi],
                    col_means,
                    out=raw if adjusted is None else adjusted[: hi - lo],
                )
            if boost is not None:
                boost.add_to(block, lo)
            if stochastic:
                block[uniforms(lo, hi) >= state.p_keep] = -np.inf
            rows = np.arange(hi - lo)
            arg = block.argmax(axis=1)
            forward[lo:hi] = arg
            row_best[lo:hi] = block[rows, arg]
            if cos is not None:
                cos[lo:hi] = raw[rows, arg]
            if backward:
                blk_arg = block.argmax(axis=0)
                blk_max = block[blk_arg, np.arange(n_cols)]
                better = blk_max > col_best
                col_best[better] = blk_max[better]
                col_arg[better] = blk_arg[better] + lo
    return forward, row_best, col_arg, col_best, cos


def induce_dictionary(scores, state, means=None, boost=None, uniforms=None):
    """Bidirectional dictionary from a ScoreTiles matrix.

    Scores are adjusted by ``means``, boosted and masked (with
    ``uniforms``) as in _best_entries; each source picks its best kept
    target and vice versa, and mutual choices get weight 2. The dictionary
    and each entry's score before masking are also stored in ``state``.
    """
    n_src, n_tgt = scores.shape
    forward, row_best, backward, col_best, _ = _best_entries(
        scores, means, boost, state, uniforms=uniforms
    )
    src_fwd = np.nonzero(row_best > -np.inf)[0]
    tgt_bwd = np.nonzero(backward >= 0)[0]
    src = np.concatenate([src_fwd, backward[tgt_bwd]])
    tgt = np.concatenate([forward[src_fwd], tgt_bwd])
    if len(src) == 0:
        raise ConvergenceError(
            f"no dictionary entries induced at iteration {state.iteration}"
            f" (p_keep {state.p_keep:.4g}): every similarity was masked out"
        )
    best = np.concatenate([row_best[src_fwd], col_best[tgt_bwd]])
    codes = src * n_tgt + tgt
    uniq, first, weight = np.unique(codes, return_index=True, return_counts=True)
    state.dictionary = SparseDictionary(uniq // n_tgt, uniq % n_tgt, weight, n_src, n_tgt)
    state.dictionary_scores = best[first]
    return state.dictionary


def _signatures(rows, block):
    """Similarities of ``rows`` to every row of ``block``, each row sorted
    in descending order and length-normalized."""
    sim = rows @ block.T
    sim.sort(axis=1)
    return normalize_rows(sim[:, ::-1])


def init_dictionary_unsupervised(src_emb, tgt_emb, cutoff):
    """Seed dictionary assuming the two spaces are approximately isometric.

    Each word is described by the sorted, length-normalized vector of its
    within-language similarities over the top-cutoff words; words are then
    matched across languages by nearest neighbour on these signatures.
    The target signatures are the one cutoff x cutoff array held; source
    signatures are built per tile.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if cutoff > len(src_emb.vocab) or cutoff > len(tgt_emb.vocab):
        raise ValueError("cutoff exceeds a vocabulary size")
    x_cut = src_emb.data[:cutoff]
    z_cut = tgt_emb.data[:cutoff]
    tgt_sig = np.empty((cutoff, cutoff))
    step = _tile_rows(cutoff)
    for lo in range(0, cutoff, step):
        tgt_sig[lo : lo + step] = _signatures(z_cut[lo : lo + step], z_cut)
    tgt_sig_t = tgt_sig.T

    def build(lo, hi, out):
        np.matmul(_signatures(x_cut[lo:hi], x_cut), tgt_sig_t, out=out)

    state = TrainState(p_keep=1.0, rng_seed=0, iteration=0)
    return induce_dictionary(ScoreTiles(cutoff, cutoff, build), state)


def run_schedule(cfg, step_fn, seed=None):
    """Drive the keep-probability schedule until convergence.

    ``step_fn(state)`` performs one iteration and returns its objective; the
    trace records it with the size, mutual pairs and state.churn of the
    dictionary the step leaves in ``state``.
    The keep probability multiplies by p_factor whenever the best objective
    fails to improve by objective_eps within stall_window iterations; the
    run ends when the stall fires with p_keep already at 1.
    """
    state = TrainState(
        p_keep=cfg.p_init,
        rng_seed=cfg.rng_seed if seed is None else seed,
    )
    trace = []
    best = -np.inf
    while True:
        state.iteration += 1
        if state.iteration > cfg.max_iterations:
            raise ConvergenceError(
                f"no convergence within {cfg.max_iterations} iterations"
            )
        objective = step_fn(state)
        if not math.isfinite(objective):
            raise ConvergenceError(
                f"non-finite objective {objective} at iteration {state.iteration}"
            )
        state.objective = objective
        d = state.dictionary
        trace.append(
            TraceEntry(
                state.iteration,
                state.p_keep,
                objective,
                0 if d is None else len(d),
                0 if d is None else int(np.count_nonzero(d.weight == 2)),
                state.churn,
            )
        )
        if objective - best >= cfg.objective_eps:
            best = objective
            state.stall_counter = 0
            continue
        state.stall_counter += 1
        if state.stall_counter >= cfg.stall_window:
            if state.p_keep >= 1.0:
                break
            state.p_keep = min(1.0, state.p_keep * cfg.p_factor)
            state.stall_counter = 0
            logger.info(
                "iteration %d: objective stalled, p_keep -> %.4g",
                state.iteration,
                state.p_keep,
            )
    return state, trace


def _used_columns(block):
    """``block`` without its all-zero columns; ``block`` itself, uncopied,
    when it has none."""
    used = np.flatnonzero(block.any(axis=0))
    return block if len(used) == block.shape[1] else block[:, used]


def _churn(new, old):
    """Number of entries of ``new`` that are not entries of ``old``."""
    span = int(max(new.tgt.max(), old.tgt.max())) + 1
    kept = np.intersect1d(new.src * span + new.tgt, old.src * span + old.tgt, assume_unique=True)
    return len(new) - len(kept)


@dataclass
class LoopResult:
    """The loop's outcome: its trace and final state, and the dictionary
    that state ends with, with each entry's score before masking."""

    trace: list
    loop_dictionary: SparseDictionary
    loop_dictionary_scores: np.ndarray
    state: TrainState = field(repr=False, default=None)


@dataclass(kw_only=True)
class SelfLearningResult(LoopResult):
    """Everything a caller needs after a completed run: the loop's outcome
    and the maps and lexicon of the whitened final pass."""

    w_src: np.ndarray
    w_tgt: np.ndarray
    lexicon: SparseDictionary
    lexicon_cosine: np.ndarray


def _cutoff(src_emb, tgt_emb, cfg):
    return min(cfg.train_cutoff, len(src_emb.vocab), len(tgt_emb.vocab))


class _LoopHelper:
    """A loop's helper thread (a one-thread pool) and the arrays it writes,
    allocated once for the loop: both map products, the score tile and the
    keep-mask uniforms of one tile.

    Only untraced numpy work runs on it (the uniforms' fill and np.matmul),
    since a tracer keeps one span stack per process. A loop without it
    allocates these arrays per step, as the kernel does by default: pinned
    for the loop, they raised the peak RSS of runs whose peak falls in the
    loop's SVD, which otherwise reuses their memory (the benchmark's
    ortho-ext: 42.6 to 43.5 MB).
    """

    def __init__(self, pool, cutoff, r):
        self.pool = pool
        self.cutoff = cutoff
        self.shape = _tile_shape(cutoff, cutoff)
        self.left = np.empty((cutoff, r))
        self.right = np.empty((cutoff, r))
        self.tile = np.empty(self.shape)
        self.draws = np.empty(self.shape)

    def draw(self, state):
        """(start, uniforms): the step's keep-mask uniforms for
        induce_dictionary, and ``start()``, which has the helper draw them
        all, or None where they are drawn tile by tile as they are used
        (at p_keep 1, or for a matrix of several tiles).

        The uniforms depend only on the seed and iteration, so ``start`` is
        weighted_cross_svd's ``before_svd``. The drawing holds the
        interpreter lock for most of its time, re-taking it after every
        row, so while it ran this thread waited for the lock between the
        numpy calls that build the SVD's input; the SVD itself needs no
        lock."""
        uniforms = _uniforms_into(self.draws, state)
        if state.p_keep >= 1.0 or self.shape[0] < self.cutoff:
            return None, uniforms
        drawn = []

        def start():
            drawn.append(self.pool.submit(uniforms, 0, self.cutoff))

        return start, lambda lo, hi: drawn[0].result()[lo:hi]

    def product(self, x, u, z, v):
        """ScoreTiles of (x @ u) @ (z @ v).T, with z @ v built on the
        helper while this thread builds x @ u."""
        right = self.pool.submit(np.matmul, z, v, out=self.right)
        np.matmul(x, u, out=self.left)
        right.result()
        return _product(self.left, self.right, self.tile)


def run_loop(src_emb, tgt_emb, cfg, *, boost=None, init=None, workers=1):
    """The self-learning loop from the initial dictionary to convergence.

    ``boost`` is an optional SimilarityBoost; its entries inside the cutoff
    block are added to the adjusted similarities of every iteration.
    ``init`` is the initial dictionary when the caller already holds
    init_dictionary_unsupervised's result for these matrices and cutoff; it
    is computed here otherwise. With ``workers`` above 1, the number of
    cores this process may use alone, BLAS on one thread (so that a core
    is idle beside it) and a solve at least _HELPER_MIN_WIDTH wide, one
    helper thread runs beside each step (see _LoopHelper); the results are
    the same bit for bit.
    """
    cutoff = _cutoff(src_emb, tgt_emb, cfg)
    if boost is not None:
        boost = boost.restricted(cutoff, cutoff)
    if init is None:
        init = init_dictionary_unsupervised(src_emb, tgt_emb, cutoff)
    # Every dictionary index lies below the cutoff. The loop solves its
    # Procrustes problem over the training rows' used columns (a and b of
    # them) and keeps the min(a, b) singular pairs that can carry weight.
    x_used = _used_columns(src_emb.data[:cutoff])
    z_used = _used_columns(tgt_emb.data[:cutoff])
    logger.info(
        "procrustes over %d x %d of %d x %d columns",
        x_used.shape[1],
        z_used.shape[1],
        src_emb.dim,
        tgt_emb.dim,
    )
    r = min(x_used.shape[1], z_used.shape[1])
    blas = blas_threads()
    helped = workers > 1 and blas == 1 and r >= _HELPER_MIN_WIDTH
    logger.info(
        "loop helper thread %s: solve width %d, %d worker%s, BLAS threads %s "
        "(on from width %d, 2 workers and 1 BLAS thread)",
        "on" if helped else "off", r, workers, "" if workers == 1 else "s",
        "unset" if blas is None else blas, _HELPER_MIN_WIDTH,
    )
    # Once p_keep is 1 a step depends only on its input dictionary. When its
    # induction returns that input, every later step would recompute the
    # same objective, dictionary and scores, and state already holds the
    # last two: such steps return the recorded objective at once.
    fixed = None  # (dictionary, objective) of the fixed point

    def step(state, helper):
        nonlocal fixed
        d = init if state.dictionary is None else state.dictionary
        if fixed is not None and d is fixed[0]:
            return fixed[1]
        if helper is None:
            uniforms = None
            u, s, vt = weighted_cross_svd(x_used, z_used, d)
            scores = _product(x_used @ u[:, :r], z_used @ vt[:r].T)
        else:
            start, uniforms = helper.draw(state)
            u, s, vt = weighted_cross_svd(x_used, z_used, d, before_svd=start)
            scores = helper.product(x_used, u[:, :r], z_used, vt[:r].T)
        objective = float(s.sum() / d.weight_sum)
        new_d = induce_dictionary(scores, state, csls_means(scores, cfg.csls_k), boost, uniforms)
        state.churn = _churn(new_d, d)
        if state.p_keep >= 1.0 and new_d == d:
            fixed = new_d, objective
            logger.info("iteration %d: dictionary reached its fixed point", state.iteration)
        return objective

    if helped:
        # The helper lives only as long as the loop, so that no thread is
        # alive when the caller forks workers.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1, "orthomap-loop-helper") as pool:
            helper = _LoopHelper(pool, cutoff, r)
            state, trace = run_schedule(cfg, lambda state: step(state, helper))
    else:
        state, trace = run_schedule(cfg, lambda state: step(state, None))
    logger.info(
        "converged after %d iterations, final objective %.6f",
        state.iteration,
        state.objective,
    )
    log_peak_rss(logger, "the loop")
    return LoopResult(trace, state.dictionary, state.dictionary_scores, state)


def _whitened_rows(emb, rows, cutoff, n_extension_cols):
    """Whitening pair of strip_extension's training rows, and ``rows`` of
    the whitened full matrix, gathered so that neither the stripped copy
    nor the full product outlives this call. The product covers every row
    before the gather because BLAS may round a row differently in a
    product of another row count."""
    final = strip_extension(emb, n_extension_cols)
    wh = compute_whitening(final, slice(0, cutoff))
    return wh, (final.data @ wh.forward)[rows]


def _whitened_maps(src_emb, tgt_emb, dictionary, cutoff, n_extension_cols):
    """Maps of the modified final iteration: strip any extension, whiten
    both sides over the training rows, solve, reweight by the square root
    of the singular values and undo the whitening on each side."""
    wh_src, xs = _whitened_rows(src_emb, dictionary.src, cutoff, n_extension_cols)
    wh_tgt, zs = _whitened_rows(tgt_emb, dictionary.tgt, cutoff, n_extension_cols)
    # Entry k of the dictionary is row k of both gathers.
    k = np.arange(len(dictionary))
    u, s, vt = weighted_cross_svd(xs, zs, SparseDictionary(k, k, dictionary.weight))
    v = vt.T
    root = np.sqrt(s)
    w_src = wh_src.forward @ ((u * root) @ u.T) @ wh_src.inverse @ u
    w_tgt = wh_tgt.forward @ ((v * root) @ v.T) @ wh_tgt.inverse @ v
    return w_src, w_tgt


def run_self_learning(
    src_emb, tgt_emb, cfg, *, n_extension_cols=0, boost=None, init=None, workers=1
):
    """Full unsupervised run: run_loop, then the whitened final pass.

    ``n_extension_cols`` trailing columns are stripped from both matrices
    before the final pass (0 when no orthographic extension is active).
    ``boost``, ``init`` and ``workers`` are as in run_loop; the boost is
    also added to the final retrieval.
    """
    loop = run_loop(src_emb, tgt_emb, cfg, boost=boost, init=init, workers=workers)
    cutoff = _cutoff(src_emb, tgt_emb, cfg)
    if boost is not None:
        boost = boost.restricted(cutoff, cutoff)
    # Each side's stripped, renormalized rows are built for the solve and
    # again for retrieval, so that at most one copy is held at a time and
    # none while the score tiles are.
    w_src, w_tgt = _whitened_maps(
        src_emb, tgt_emb, loop.loop_dictionary, cutoff, n_extension_cols
    )
    log_peak_rss(logger, "the final solve")
    lexicon, cosines = retrieve_lexicon(
        src_emb, tgt_emb, w_src, w_tgt, cfg, boost=boost, n_extension_cols=n_extension_cols
    )
    log_peak_rss(logger, "retrieval")
    return SelfLearningResult(
        **vars(loop), w_src=w_src, w_tgt=w_tgt, lexicon=lexicon, lexicon_cosine=cosines
    )


def _mapped_rows(emb, w, n_extension_cols):
    if n_extension_cols is not None:
        emb = strip_extension(emb, n_extension_cols)
    mapped = emb.data @ w
    return normalize_rows(mapped, out=mapped)


def retrieve_lexicon(src_emb, tgt_emb, w_src, w_tgt, cfg, boost=None, n_extension_cols=None):
    """Nearest-neighbour retrieval over the full vocabularies.

    Neighbourhood statistics for the hubness correction come from the top
    train_cutoff words of the other language; ranking covers every target.
    Mapped rows are length-normalized so scores are cosines. ``boost`` is
    added to the ranking scores. With ``n_extension_cols`` the rows mapped
    are strip_extension's of the given matrices, each held only until it
    is mapped. Returns the lexicon (one entry per source word, weight 1)
    and the cosine of each source to its chosen target.
    """
    xm = _mapped_rows(src_emb, w_src, n_extension_cols)
    zm = _mapped_rows(tgt_emb, w_tgt, n_extension_cols)
    n_src, n_tgt = xm.shape[0], zm.shape[0]
    cutoff = min(cfg.train_cutoff, n_src, n_tgt)
    scores = _product(xm, zm)
    _, col_means = csls_means(
        scores, min(cfg.csls_k, cutoff), stats_rows=cutoff, row_means=False
    )
    tgt_idx, _, _, _, cosines = _best_entries(
        scores, (None, col_means), boost, backward=False, cosines=True
    )
    lexicon = SparseDictionary(
        np.arange(n_src), tgt_idx, np.ones(n_src, np.int64), n_src, n_tgt
    )
    return lexicon, cosines
