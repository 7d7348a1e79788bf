"""Iterative mapping/induction loop.

One iteration solves the orthogonal maps for the current dictionary, builds
the rescaled similarity matrix over the training cutoff, and induces a new
bidirectional dictionary from it, zeroing entries stochastically to force
exploration. The keep probability starts small and doubles whenever the
objective stalls; once it reaches 1 and stalls again, a modified final
iteration with whitening produces the output maps and lexicon.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import SparseDictionary
from .errors import ConvergenceError
from .numerics import compute_whitening, normalize_rows, weighted_cross_svd
from .ortho_extension import strip_extension

logger = logging.getLogger(__name__)

_ROW_BLOCK = 1024


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
    """Mutable loop state; the induction step reads it for seeding."""

    p_keep: float
    rng_seed: int
    iteration: int = 0
    stall_counter: int = 0
    objective: float = float("-inf")
    dictionary: SparseDictionary | None = None


@dataclass
class TraceEntry:
    iteration: int
    p_keep: float
    objective: float


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


def topk_row_mean(sim, k):
    """Mean of the k largest entries of each row."""
    k = min(k, sim.shape[1])
    return np.partition(sim, -k, axis=1)[:, -k:].mean(axis=1)


def csls_means(sim, k):
    """Per-source and per-target nearest-neighbour mean similarities."""
    return topk_row_mean(sim, k), topk_row_mean(sim.T, k)


def csls_adjust(block, row_means, col_means):
    """Hubness-corrected similarities: 2*S(i,j) - row_mean_i - col_mean_j."""
    return 2.0 * block - row_means[:, None] - col_means[None, :]


def _row_uniforms(seed, iteration):
    """Return ``fill(lo, out)``, which writes row ``lo + r``'s uniforms into ``out[r]``.

    Each row draws from a counter-based generator keyed per (seed,
    iteration, row), starting at counter 0, so results do not depend on how
    rows are grouped into blocks. The 128-bit key packs iteration and row
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


def induce_dictionary(scores, state):
    """Bidirectional dictionary from an adjusted similarity matrix.

    ``scores`` holds the rescaled, boost-augmented similarities of every
    source (row) to every target (column); it is read in row blocks and
    never modified. Entries are zeroed with probability 1 - p_keep (seeded
    per row); each source picks its best kept target and vice versa, and
    mutual choices get weight 2.
    """
    n_src, n_tgt = scores.shape
    if n_src == 0 or n_tgt == 0:
        raise ValueError("empty vocabulary")
    forward = np.full(n_src, -1, np.int64)
    col_best = np.full(n_tgt, -np.inf)
    backward = np.full(n_tgt, -1, np.int64)
    stochastic = state.p_keep < 1.0
    if stochastic:
        fill = _row_uniforms(state.rng_seed, state.iteration)
        draws = np.empty((min(_ROW_BLOCK, n_src), n_tgt))
    for lo in range(0, n_src, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n_src)
        # A copy: the keep mask below writes into it.
        block = np.array(scores[lo:hi], dtype=np.float64)
        if stochastic:
            block[fill(lo, draws[: hi - lo]) >= state.p_keep] = -np.inf
        row_max = block.max(axis=1)
        valid = row_max > -np.inf
        forward[lo:hi][valid] = block[valid].argmax(axis=1)
        blk_arg = block.argmax(axis=0)
        blk_max = block[blk_arg, np.arange(n_tgt)]
        better = blk_max > col_best
        col_best[better] = blk_max[better]
        backward[better] = blk_arg[better] + lo
    src_fwd = np.nonzero(forward >= 0)[0]
    tgt_bwd = np.nonzero(backward >= 0)[0]
    src = np.concatenate([src_fwd, backward[tgt_bwd]])
    tgt = np.concatenate([forward[src_fwd], tgt_bwd])
    if len(src) == 0:
        raise ValueError("no dictionary entries induced (all similarities zeroed)")
    codes = src * n_tgt + tgt
    uniq, weight = np.unique(codes, return_counts=True)
    return SparseDictionary(uniq // n_tgt, uniq % n_tgt, weight, n_src, n_tgt)


def init_dictionary_unsupervised(src_emb, tgt_emb, cutoff):
    """Seed dictionary assuming the two spaces are approximately isometric.

    Each word is described by the sorted, length-normalized vector of its
    within-language similarities over the top-cutoff words; words are then
    matched across languages by nearest neighbour on these signatures.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if cutoff > len(src_emb.vocab) or cutoff > len(tgt_emb.vocab):
        raise ValueError("cutoff exceeds a vocabulary size")
    signatures = []
    for emb in (src_emb, tgt_emb):
        block = emb.data[:cutoff]
        sim = block @ block.T
        sim = np.sort(sim, axis=1)[:, ::-1]
        signatures.append(normalize_rows(sim))
    sim = signatures[0] @ signatures[1].T
    state = TrainState(p_keep=1.0, rng_seed=0, iteration=0)
    return induce_dictionary(sim, state)


def run_schedule(cfg, step_fn, seed=None):
    """Drive the keep-probability schedule until convergence.

    ``step_fn(state)`` performs one iteration and returns its objective.
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
        trace.append(TraceEntry(state.iteration, state.p_keep, objective))
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
            logger.debug(
                "iteration %d: objective stalled, p_keep -> %.4g",
                state.iteration,
                state.p_keep,
            )
    return state, trace


@dataclass
class SelfLearningResult:
    """Everything a caller needs after a completed run."""

    w_src: np.ndarray
    w_tgt: np.ndarray
    lexicon: SparseDictionary
    lexicon_cosine: np.ndarray
    trace: list
    loop_dictionary: SparseDictionary
    loop_dictionary_scores: np.ndarray
    state: TrainState = field(repr=False, default=None)


def run_self_learning(src_emb, tgt_emb, cfg, *, n_extension_cols=0, boost=None, loop_seed=None):
    """Full unsupervised run: init, loop to convergence, whitened final pass.

    ``n_extension_cols`` trailing columns are stripped from both matrices
    before the final iteration (0 when no orthographic extension is active).
    ``boost`` is an optional SimilarityBoost; its entries inside the cutoff
    block are added to the adjusted similarities of every iteration and of
    the final retrieval.
    """
    n_src = len(src_emb.vocab)
    n_tgt = len(tgt_emb.vocab)
    cutoff = min(cfg.train_cutoff, n_src, n_tgt)
    x = src_emb.data
    z = tgt_emb.data
    x_cut = x[:cutoff]
    z_cut = z[:cutoff]
    if boost is not None:
        boost = boost.restricted(cutoff, cutoff)

    holder = {"dict": init_dictionary_unsupervised(src_emb, tgt_emb, cutoff)}

    def step(state):
        d = holder["dict"]
        u, s, vt = weighted_cross_svd(x, z, d)
        w_src, w_tgt = u, vt.T
        objective = float(s.sum() / d.weight_sum)
        sim = (x_cut @ w_src) @ (z_cut @ w_tgt).T
        row_means, col_means = csls_means(sim, cfg.csls_k)
        adjusted = csls_adjust(sim, row_means, col_means)
        if boost is not None:
            boost.add_to(adjusted, 0)
        new_d = induce_dictionary(adjusted, state)
        holder["dict"] = new_d
        holder["scores"] = adjusted[new_d.src, new_d.tgt]
        state.dictionary = new_d
        return objective

    state, trace = run_schedule(cfg, step, seed=loop_seed)
    loop_dict = holder["dict"]

    # Modified final iteration: strip any extension, whiten both sides over
    # the training rows, solve, reweight by sqrt of the singular values and
    # undo the whitening on each side.
    src_final = strip_extension(src_emb, n_extension_cols)
    tgt_final = strip_extension(tgt_emb, n_extension_cols)
    wh_src = compute_whitening(src_final, slice(0, cutoff))
    wh_tgt = compute_whitening(tgt_final, slice(0, cutoff))
    u, s, vt = weighted_cross_svd(
        src_final.data @ wh_src.forward, tgt_final.data @ wh_tgt.forward, loop_dict
    )
    v = vt.T
    root = np.sqrt(s)
    w_src = wh_src.forward @ ((u * root) @ u.T) @ wh_src.inverse @ u
    w_tgt = wh_tgt.forward @ ((v * root) @ v.T) @ wh_tgt.inverse @ v

    lexicon, cosines = retrieve_lexicon(
        src_final, tgt_final, w_src, w_tgt, cfg, boost=boost
    )
    logger.info(
        "converged after %d iterations, final objective %.6f",
        state.iteration,
        state.objective,
    )
    return SelfLearningResult(
        w_src=w_src,
        w_tgt=w_tgt,
        lexicon=lexicon,
        lexicon_cosine=cosines,
        trace=trace,
        loop_dictionary=loop_dict,
        loop_dictionary_scores=holder["scores"],
        state=state,
    )


def retrieve_lexicon(src_emb, tgt_emb, w_src, w_tgt, cfg, boost=None):
    """Nearest-neighbour retrieval over the full vocabularies.

    Neighbourhood statistics for the hubness correction come from the top
    train_cutoff words of the other language; ranking covers every target.
    Mapped rows are length-normalized so scores are cosines. ``boost`` is
    added to the ranking scores. Returns the lexicon (one entry per source
    word, weight 1) and the cosine of each source to its chosen target.
    """
    xm = normalize_rows(src_emb.data @ w_src)
    zm = normalize_rows(tgt_emb.data @ w_tgt)
    n_src, n_tgt = xm.shape[0], zm.shape[0]
    cutoff = min(cfg.train_cutoff, n_src, n_tgt)
    k = min(cfg.csls_k, cutoff)

    x_cut = xm[:cutoff]
    col_means = np.empty(n_tgt)
    for lo in range(0, n_tgt, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n_tgt)
        col_means[lo:hi] = topk_row_mean((x_cut @ zm[lo:hi].T).T, k)

    tgt_idx = np.empty(n_src, np.int64)
    cosines = np.empty(n_src)
    for lo in range(0, n_src, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n_src)
        sim = xm[lo:hi] @ zm.T
        scores = 2.0 * sim - col_means[None, :]
        if boost is not None:
            boost.add_to(scores, lo)
        arg = scores.argmax(axis=1)
        tgt_idx[lo:hi] = arg
        cosines[lo:hi] = sim[np.arange(hi - lo), arg]
    lexicon = SparseDictionary(
        np.arange(n_src), tgt_idx, np.ones(n_src, np.int64), n_src, n_tgt
    )
    return lexicon, cosines
