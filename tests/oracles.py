"""Independent brute-force oracles used to derive expected test values.

Everything here deliberately avoids the dynamic programs and index
structures it checks: probabilities come from explicit path enumeration,
transliterations from enumerating segmentations, candidate pairs and
n-gram counts from their definitions, the loop objective from explicit dot
products. The dense scoring path near the end is the reference the sparse,
single-pass self-learning code is checked against, and the reference loop
after it solves and induces at every iteration, replays included, over
every column. The edit-model EM at the end runs its three recursions
separately: a forward table, a mirrored backward table, and an E-step that
revisits every cell, in log space for a pair whose probability underflows;
a 40-digit decimal forward recursion checks those log probabilities.
"""

import decimal
import math

import numpy as np


def enumerate_edit_probability(x, z, theta, max_src_len, max_tgt_len):
    """Joint probability as an explicit sum over complete operation sequences."""
    total = 0.0

    def extend(n, m, acc):
        nonlocal total
        if n == len(x) and m == len(z):
            total += acc
            return
        for j in range(0, max_src_len + 1):
            if n + j > len(x):
                break
            for k in range(0, max_tgt_len + 1):
                if j == 0 and k == 0:
                    continue
                if m + k > len(z):
                    break
                p = theta.get((x[n : n + j], z[m : m + k]), 0.0)
                if p > 0.0:
                    extend(n + j, m + k, acc * p)

    extend(0, 0, 1.0)
    return total


def enumerate_posterior_stats(x, z, theta, max_src_len, max_tgt_len):
    """Posterior operation counts and expected path length by enumeration."""
    paths = []

    def extend(n, m, acc, ops):
        if n == len(x) and m == len(z):
            paths.append((acc, list(ops)))
            return
        for j in range(0, max_src_len + 1):
            if n + j > len(x):
                break
            for k in range(0, max_tgt_len + 1):
                if j == 0 and k == 0:
                    continue
                if m + k > len(z):
                    break
                op = (x[n : n + j], z[m : m + k])
                p = theta.get(op, 0.0)
                if p > 0.0:
                    ops.append(op)
                    extend(n + j, m + k, acc * p, ops)
                    ops.pop()

    extend(0, 0, 1.0, [])
    total = sum(p for p, _ in paths)
    counts = {}
    expected_ops = 0.0
    for p, ops in paths:
        posterior = p / total
        expected_ops += posterior * len(ops)
        for op in ops:
            counts[op] = counts.get(op, 0.0) + posterior
    return counts, expected_ops, total


def enumerate_transliteration_score(x, theta, src_items, tgt_items, max_src_len):
    """Best segmentation score by enumerating all segmentations of x."""
    best = -math.inf

    def best_substitution(segment):
        top = -math.inf
        for a_tgt in list(tgt_items) + [""]:
            p = theta.get((segment, a_tgt), 0.0)
            if p > 0.0:
                top = max(top, math.log(p))
        return top

    def split(pos, acc):
        nonlocal best
        if pos == len(x):
            best = max(best, acc)
            return
        for j in range(1, max_src_len + 1):
            if pos + j > len(x):
                break
            segment = x[pos : pos + j]
            if segment not in src_items:
                continue
            score = best_substitution(segment)
            if score == -math.inf:
                continue
            split(pos + j, acc + score)

    split(0, 0.0)
    return best


def brute_force_candidates(translits, tgt_words, k):
    """Quadratic deletion-intersection check over all word pairs."""
    from orthomap.candidates import delete_variants

    tgt_variants = [delete_variants(w, k) for w in tgt_words]
    pairs = set()
    for i, rendered in enumerate(translits):
        if rendered is None:
            continue
        mine = delete_variants(rendered, k)
        for j, theirs in enumerate(tgt_variants):
            if not mine.isdisjoint(theirs):
                pairs.add((i, j))
    return pairs


def random_orthogonal(rng, dim):
    """Haar-distributed orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_theta(rng, alphabets):
    """Random normalized operation table over the full operation set."""
    from orthomap.edit_model import edit_operations

    ops = list(edit_operations(alphabets))
    raw = rng.random(len(ops)) + 1e-3
    raw /= raw.sum()
    return dict(zip(ops, raw))


def count_occurrences(ngram, word):
    """Occurrences of ngram in word, counting overlaps ("aaa" has "aa" twice)."""
    n = len(ngram)
    return sum(1 for i in range(len(word) - n + 1) if word[i : i + n] == ngram)


def objective_value(src_emb, tgt_emb, w_src, w_tgt, dictionary):
    """Weighted mean dot product of mapped dictionary pairs.

    Lies in [-1, 1] for unit rows and orthogonal maps; equals
    trace(Sigma) / total weight right after a Procrustes solve.
    """
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    xs = src_emb.data[dictionary.src] @ w_src
    zs = tgt_emb.data[dictionary.tgt] @ w_tgt
    dots = np.einsum("ij,ij->i", xs, zs)
    return float((dots * dictionary.weight).sum() / dictionary.weight_sum)


def similarity_block(src_emb, w_src, tgt_emb, w_tgt, row_range, col_range):
    """Exact block of the mapped similarity matrix for the given ranges.

    Ranges are (start, stop) pairs; the full matrix never needs to exist.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if not (0 <= r0 <= r1 <= src_emb.data.shape[0]):
        raise ValueError(f"row range {row_range} out of bounds")
    if not (0 <= c0 <= c1 <= tgt_emb.data.shape[0]):
        raise ValueError(f"column range {col_range} out of bounds")
    return (src_emb.data[r0:r1] @ w_src) @ (tgt_emb.data[c0:c1] @ w_tgt).T


def keep_mask(seed, iteration, row, n, p_keep):
    """Keep mask of one row from a freshly constructed Philox keyed per
    (seed, iteration, row): the reference for the re-keyed generator."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (iteration << 32) | row], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(n) < p_keep


def reference_load_embeddings(path, max_vocab=None):
    """Words and rows of an embedding file parsed row by row with
    float(), as load_embeddings parsed every row before it read blocks
    with np.loadtxt; raises its InputFormatError messages."""
    from orthomap.errors import InputFormatError

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise InputFormatError(f"{path}: malformed header {header!r}")
        count, dim = int(parts[0]), int(parts[1])
        limit = count if max_vocab is None else min(count, max_vocab)
        words, rows, rows_read = [], [], 0
        for lineno, line in enumerate(fh, start=2):
            if rows_read == limit:
                break
            rows_read += 1
            tokens = line.split()
            if not tokens:
                raise InputFormatError(f"{path}:{lineno}: empty line")
            if len(tokens) != dim + 1:
                raise InputFormatError(
                    f"{path}:{lineno}: expected {dim} values, found {len(tokens) - 1}"
                )
            if tokens[0] in words:
                continue
            try:
                vec = np.array(tokens[1:], dtype=np.float64)
            except ValueError:
                raise InputFormatError(f"{path}:{lineno}: non-numeric entry") from None
            if not np.isfinite(vec).all():
                raise InputFormatError(f"{path}:{lineno}: non-finite entry")
            words.append(tokens[0])
            rows.append(vec)
    if rows_read < limit:
        raise InputFormatError(
            f"{path}: file ends after {rows_read} of {limit} rows (header declares {count})"
        )
    return words, np.array(rows).reshape(len(rows), dim)


# The dense scoring path that self_learning replaced: whole cutoff x
# cutoff matrices, a boost materialized as a dense addend, and retrieval in
# 1024-row blocks. Differential tests compare the tiled kernel against it.
# It imports nothing from self_learning, so the reference does not move
# with the code it checks.

_ROW_BLOCK = 1024


def normalize_rows(matrix):
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms > 0.0, norms, 1.0)


def topk_row_mean(sim, k):
    """Mean of the k largest entries of each row."""
    k = min(k, sim.shape[1])
    return np.partition(sim, -k, axis=1)[:, -k:].mean(axis=1)


def top_rows(block, k):
    """The k largest entries of each column of ``block`` (all of them when
    it has at most k rows), partitioned over the whole block at once."""
    k = min(k, len(block))
    return np.partition(block, -k, axis=0)[-k:].copy()


def csls_means(sim, k):
    """Per-source and per-target nearest-neighbour mean similarities."""
    return topk_row_mean(sim, k), topk_row_mean(sim.T, k)


def csls_adjust(block, row_means, col_means):
    """Hubness-corrected similarities: 2*S(i,j) - row_mean_i - col_mean_j."""
    return 2.0 * block - row_means[:, None] - col_means[None, :]


def dense_boost(boost, lo, hi, n_cols):
    """Dense addend for source rows [lo, hi); duplicate pairs sum."""
    block = np.zeros((hi - lo, n_cols))
    a = np.searchsorted(boost.src, lo)
    b = np.searchsorted(boost.src, hi)
    if b > a:
        np.add.at(block, (boost.src[a:b] - lo, boost.tgt[a:b]), boost.values[a:b])
    return block


def adjusted_similarity(x_cut, z_cut, w_src, w_tgt, csls_k, boost=None):
    """Rescaled, boosted similarity matrix over the training cutoff."""
    sim = (x_cut @ w_src) @ (z_cut @ w_tgt).T
    row_means, col_means = csls_means(sim, csls_k)
    adjusted = csls_adjust(sim, row_means, col_means)
    if boost is not None and len(boost):
        adjusted += dense_boost(boost, 0, adjusted.shape[0], adjusted.shape[1])
    return adjusted


def dense_induction(scores):
    """Bidirectional dictionary by full argmax over rows and columns.

    Returns {(source, target): weight}; mutual choices weigh 2. Rows and
    columns whose entries are all -inf (masked out) choose nothing.
    """
    pairs = {}
    for i, j in enumerate(scores.argmax(axis=1)):
        if scores[i, j] > -np.inf:
            pairs[(i, int(j))] = pairs.get((i, int(j)), 0) + 1
    for j, i in enumerate(scores.argmax(axis=0)):
        if scores[i, j] > -np.inf:
            pairs[(int(i), j)] = pairs.get((int(i), j), 0) + 1
    return pairs


def dense_init(src_data, tgt_data, cutoff):
    """Signature-matching seed dictionary over whole cutoff x cutoff matrices."""
    signatures = []
    for data in (src_data, tgt_data):
        block = data[:cutoff]
        sim = np.sort(block @ block.T, axis=1)[:, ::-1]
        signatures.append(normalize_rows(sim))
    return dense_induction(signatures[0] @ signatures[1].T)


def dense_retrieval(src_emb, tgt_emb, w_src, w_tgt, train_cutoff, csls_k, boost=None):
    """Full-vocabulary retrieval; returns (target index, cosine) per source."""
    xm = normalize_rows(src_emb.data @ w_src)
    zm = normalize_rows(tgt_emb.data @ w_tgt)
    n_src, n_tgt = xm.shape[0], zm.shape[0]
    k = min(csls_k, train_cutoff, n_src, n_tgt)
    x_cut = xm[: min(train_cutoff, n_src, n_tgt)]
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
        if boost is not None and len(boost):
            scores += dense_boost(boost, lo, hi, n_tgt)
        arg = scores.argmax(axis=1)
        tgt_idx[lo:hi] = arg
        cosines[lo:hi] = sim[np.arange(hi - lo), arg]
    return tgt_idx, cosines


def dictionary_churn(new, old):
    """Entries (source, target) of ``new`` that ``old`` does not hold."""
    before = {(i, j) for i, j, _ in old.pairs()}
    return sum((i, j) not in before for i, j, _ in new.pairs())


def reference_self_learning(src_emb, tgt_emb, cfg, boost=None, n_extension_cols=0):
    """run_self_learning with a step that always solves, scores and induces
    over every column.

    The package's kernel and schedule are reused; only the step differs:
    it never skips an iteration that replays a fixed point, and it solves
    the Procrustes problem over all rows and columns of both matrices,
    all-zero columns included. Returns the SelfLearningResult and the
    per-iteration history of (p_keep, input dictionary, induced dictionary).
    """
    from orthomap import self_learning as sl
    from orthomap.numerics import compute_whitening, weighted_cross_svd
    from orthomap.ortho_extension import strip_extension

    cutoff = min(cfg.train_cutoff, len(src_emb.vocab), len(tgt_emb.vocab))
    x, z = src_emb.data, tgt_emb.data
    if boost is not None:
        boost = boost.restricted(cutoff, cutoff)
    init = sl.init_dictionary_unsupervised(src_emb, tgt_emb, cutoff)
    history = []

    def step(state):
        d = init if state.dictionary is None else state.dictionary
        u, s, vt = weighted_cross_svd(x, z, d)
        objective = float(s.sum() / d.weight_sum)
        scores = sl._product(x[:cutoff] @ u, z[:cutoff] @ vt.T)
        new_d = sl.induce_dictionary(scores, state, sl.csls_means(scores, cfg.csls_k), boost)
        state.churn = dictionary_churn(new_d, d)
        history.append((state.p_keep, d, new_d))
        return objective

    state, trace = sl.run_schedule(cfg, step)
    src_final = strip_extension(src_emb, n_extension_cols)
    tgt_final = strip_extension(tgt_emb, n_extension_cols)
    wh_src = compute_whitening(src_final, slice(0, cutoff))
    wh_tgt = compute_whitening(tgt_final, slice(0, cutoff))
    u, s, vt = weighted_cross_svd(
        src_final.data @ wh_src.forward, tgt_final.data @ wh_tgt.forward, state.dictionary
    )
    v = vt.T
    root = np.sqrt(s)
    w_src = wh_src.forward @ ((u * root) @ u.T) @ wh_src.inverse @ u
    w_tgt = wh_tgt.forward @ ((v * root) @ v.T) @ wh_tgt.inverse @ v
    lexicon, cosines = sl.retrieve_lexicon(src_final, tgt_final, w_src, w_tgt, cfg, boost=boost)
    result = sl.SelfLearningResult(
        w_src=w_src,
        w_tgt=w_tgt,
        lexicon=lexicon,
        lexicon_cosine=cosines,
        trace=trace,
        loop_dictionary=state.dictionary,
        loop_dictionary_scores=state.dictionary_scores,
        state=state,
    )
    return result, history


def fixed_point_iteration(history):
    """First iteration at p_keep 1 whose induction returned its input, or None."""
    for iteration, (p_keep, before, after) in enumerate(history, start=1):
        if p_keep >= 1.0 and after == before:
            return iteration
    return None


def reference_forward_table(x, z, theta, max_j, max_k, one=1.0):
    """Prefix-pair generation probabilities as a (|x|+1) x (|z|+1) table.

    ``one`` sets the number type: 1.0, or a Decimal 1 when ``theta`` holds
    Decimals.
    """
    n_max, m_max = len(x), len(z)
    table = [[one * 0] * (m_max + 1) for _ in range(n_max + 1)]
    table[0][0] = one
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n == 0 and m == 0:
                continue
            total = one * 0
            for j in range(0, min(max_j, n) + 1):
                x_gram = x[n - j : n]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m) + 1):
                    p = theta.get((x_gram, z[m - k : m]))
                    if p:
                        total += p * table[n - j][m - k]
            table[n][m] = total
    return table


def reference_backward_table(x, z, theta, max_j, max_k):
    """Suffix-pair generation probabilities, the mirror of the forward pass."""
    n_max, m_max = len(x), len(z)
    table = [[0.0] * (m_max + 1) for _ in range(n_max + 1)]
    table[n_max][m_max] = 1.0
    for n in range(n_max, -1, -1):
        for m in range(m_max, -1, -1):
            if n == n_max and m == m_max:
                continue
            total = 0.0
            for j in range(0, min(max_j, n_max - n) + 1):
                x_gram = x[n : n + j]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m_max - m) + 1):
                    p = theta.get((x_gram, z[m : m + k]))
                    if p:
                        total += p * table[n + j][m + k]
            table[n][m] = total
    return table


def decimal_log_probability(x, z, theta, max_j, max_k):
    """log p(x, z) from the forward recursion in 40-digit decimal
    arithmetic, whose exponent range reaches far below a float's."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = {op: decimal.Decimal(p) for op, p in theta.items()}
        table = reference_forward_table(x, z, exact, max_j, max_k, one=decimal.Decimal(1))
        p = table[len(x)][len(z)]
        return float(p.ln()) if p > 0 else -math.inf


def _log_sum(terms):
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def reference_log_forward_table(x, z, theta, max_j, max_k):
    """reference_forward_table in log space; -inf stands for zero."""
    n_max, m_max = len(x), len(z)
    table = [[-math.inf] * (m_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 0.0
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            if n == 0 and m == 0:
                continue
            terms = []
            for j in range(0, min(max_j, n) + 1):
                x_gram = x[n - j : n]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m) + 1):
                    p = theta.get((x_gram, z[m - k : m]))
                    if p and table[n - j][m - k] > -math.inf:
                        terms.append(table[n - j][m - k] + math.log(p))
            table[n][m] = _log_sum(terms)
    return table


def reference_log_backward_table(x, z, theta, max_j, max_k):
    """reference_backward_table in log space; -inf stands for zero."""
    n_max, m_max = len(x), len(z)
    table = [[-math.inf] * (m_max + 1) for _ in range(n_max + 1)]
    table[n_max][m_max] = 0.0
    for n in range(n_max, -1, -1):
        for m in range(m_max, -1, -1):
            if n == n_max and m == m_max:
                continue
            terms = []
            for j in range(0, min(max_j, n_max - n) + 1):
                x_gram = x[n : n + j]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m_max - m) + 1):
                    p = theta.get((x_gram, z[m : m + k]))
                    if p and table[n + j][m + k] > -math.inf:
                        terms.append(table[n + j][m + k] + math.log(p))
            table[n][m] = _log_sum(terms)
    return table


def _expected_counts(x, z, theta, max_j, max_k, alpha, beta, zero, weight, counts):
    """The E-step: adds ``weight(prefix, theta, suffix)`` of every operation
    at every position where neither prefix nor suffix equals ``zero`` (0.0
    for linear tables, -inf for log tables) to ``counts``."""
    for n in range(len(x) + 1):
        for m in range(len(z) + 1):
            suffix = beta[n][m]
            if suffix == zero:
                continue
            for j in range(0, min(max_j, n) + 1):
                x_gram = x[n - j : n]
                k_lo = 1 if j == 0 else 0
                for k in range(k_lo, min(max_k, m) + 1):
                    op = (x_gram, z[m - k : m])
                    t = theta.get(op)
                    if t:
                        prefix = alpha[n - j][m - k]
                        if prefix != zero:
                            counts[op] = counts.get(op, 0.0) + weight(prefix, t, suffix)


def reference_em_train(pairs, alphabets, iterations):
    """EM with a separate E-step over the forward and backward tables.

    A pair whose probability underflows to zero is recomputed with log-space
    tables. Returns the final operation table, the per-iteration
    log-likelihoods and the uncovered and zero-probability skip counts.
    """
    from orthomap.edit_model import edit_operations

    usable = []
    skipped_uncovered = 0
    for x, z in pairs:
        if set(x) <= alphabets.src_chars and set(z) <= alphabets.tgt_chars:
            usable.append((x, z))
        else:
            skipped_uncovered += 1
    ops = list(edit_operations(alphabets))
    theta = dict.fromkeys(ops, 1.0 / len(ops))
    max_j = alphabets.max_src_len
    max_k = alphabets.max_tgt_len
    log_likelihoods = []
    skipped_zero = 0
    for _ in range(iterations):
        counts = {}
        log_likelihood = 0.0
        skipped_zero = 0
        for x, z in usable:
            alpha = reference_forward_table(x, z, theta, max_j, max_k)
            p = alpha[len(x)][len(z)]
            if p > 0.0:
                beta = reference_backward_table(x, z, theta, max_j, max_k)
                log_likelihood += math.log(p)
                _expected_counts(
                    x, z, theta, max_j, max_k, alpha, beta, 0.0,
                    lambda prefix, t, suffix: prefix * t * suffix / p, counts,
                )
                continue
            alpha = reference_log_forward_table(x, z, theta, max_j, max_k)
            lp = alpha[len(x)][len(z)]
            if lp == -math.inf:
                skipped_zero += 1
                continue
            beta = reference_log_backward_table(x, z, theta, max_j, max_k)
            log_likelihood += lp
            _expected_counts(
                x, z, theta, max_j, max_k, alpha, beta, -math.inf,
                lambda prefix, t, suffix: math.exp(prefix + math.log(t) + suffix - lp), counts,
            )
        log_likelihoods.append(log_likelihood)
        total = sum(counts.values())
        theta = {op: counts.get(op, 0.0) / total for op in ops}
    return theta, log_likelihoods, skipped_uncovered, skipped_zero
