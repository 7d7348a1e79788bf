"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The heavyweight fixtures (the 2000-word cipher run) are shared
across criteria.
"""

import math
import time

import numpy as np
import pytest

from orthomap.benchmark import generate_cipher_benchmark
from orthomap.candidates import DeleteIndex, candidate_pairs
from orthomap.corpus_io import EmbeddingMatrix, SparseDictionary, Vocabulary, load_ref_lexicon
from orthomap.edit_model import (
    EditAlphabets,
    EditModel,
    _forward_table,
    boost_from_log_prob,
    build_edit_alphabets,
    em_train,
    transliterate,
)
from orthomap.evaluation import precision_at_1, scorer_boost_value
from orthomap.numerics import compute_whitening, weighted_cross_svd
from orthomap.ortho_extension import NgramAlphabet
from orthomap.pipeline import RunConfig, _synthetic_pairs, run_sweep
from orthomap.self_learning import LoopConfig, run_schedule
from conftest import fresh_run
from oracles import (
    brute_force_candidates,
    enumerate_edit_probability,
    enumerate_transliteration_score,
    random_orthogonal,
    random_theta,
)

BENCH_SEED = 20260808


def check(number, label, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {label}{suffix}")
    assert condition, f"criterion {number}: {label}{suffix}"


@pytest.fixture(scope="session")
def cipher_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("cipher-2000")
    return generate_cipher_benchmark(2000, 50, seed=BENCH_SEED, noise=0.0, out_dir=out)


@pytest.fixture(scope="session")
def baseline_run(cipher_bench):
    cfg = RunConfig(
        src_embeddings=str(cipher_bench.src_embeddings),
        tgt_embeddings=str(cipher_bench.tgt_embeddings),
        mode="baseline",
        seeds=[1],
    )
    started = time.perf_counter()
    outcome = fresh_run(cfg, 1)
    duration = time.perf_counter() - started
    return outcome, duration


def test_01_cipher_benchmark_end_to_end(cipher_bench, baseline_run):
    outcome, duration = baseline_run
    gold = load_ref_lexicon(cipher_bench.gold_lexicon)
    report = precision_at_1(outcome.predictions, gold)
    check(
        1,
        "baseline pipeline recovers the cipher benchmark",
        report.p_at_1 >= 0.95 and duration < 600.0,
        f"P@1={report.p_at_1:.4f}, {duration:.0f}s",
    )


def test_02_edit_model_recovers_cipher(cipher_bench, baseline_run):
    outcome, _ = baseline_run
    pairs = _synthetic_pairs(outcome.result, outcome.src_vocab, outcome.tgt_vocab, 5000)
    alphabets = build_edit_alphabets(outcome.src_vocab.words, outcome.tgt_vocab.words)
    model = em_train(pairs, alphabets, iterations=3)
    hits = sum(
        model.best_substitution(c)[0] == image for c, image in cipher_bench.cipher.items()
    )
    check(
        2,
        "EM assigns maximal probability to the true cipher images",
        hits >= 0.9 * len(cipher_bench.cipher),
        f"{hits}/{len(cipher_bench.cipher)} characters, {len(pairs)} training pairs",
    )


def test_03_forward_probability_equals_enumeration():
    rng = np.random.default_rng(33)
    alphabets = EditAlphabets(NgramAlphabet(list("abc")), NgramAlphabet(list("xyz")))
    strings = lambda chars: [""] + [
        a + b + c
        for a in chars
        for b in [""] + list(chars)
        for c in ([""] if b == "" else [""] + list(chars))
    ]
    src_strings = sorted(set(strings("abc")), key=len)
    tgt_strings = sorted(set(strings("xyz")), key=len)
    worst = 0.0
    for _ in range(20):
        theta = random_theta(rng, alphabets)
        model = EditModel(alphabets, theta)
        for x in src_strings:
            for z in tgt_strings:
                expected = enumerate_edit_probability(x, z, theta, 1, 1)
                p = _forward_table(x, z, model)[len(x)][len(z)]
                worst = max(worst, abs(p - expected))
    check(
        3,
        "forward DP equals exhaustive edit-sequence enumeration",
        worst <= 1e-12,
        f"max abs error {worst:.2e} over 20 tables x {len(src_strings) * len(tgt_strings)} pairs",
    )


def test_04_em_monotonic_and_worked_example():
    rng = np.random.default_rng(44)
    pairs = [
        (
            "".join(rng.choice(list("abcd"), size=rng.integers(1, 6))),
            "".join(rng.choice(list("wxyz"), size=rng.integers(1, 6))),
        )
        for _ in range(40)
    ]
    alphabets = build_edit_alphabets([x for x, _ in pairs], [z for _, z in pairs])
    model = em_train(pairs, alphabets, iterations=10)
    lls = model.training_stats.log_likelihoods
    monotone = all(b >= a - 1e-9 * abs(a) for a, b in zip(lls, lls[1:]))

    tiny = EditAlphabets(NgramAlphabet(["a"]), NgramAlphabet(["b"]))
    worked = em_train([("a", "b")], tiny, iterations=1)
    theta_ok = (
        abs(worked.theta[("a", "b")] - 3 / 7) <= 1e-12
        and abs(worked.theta[("a", "")] - 2 / 7) <= 1e-12
        and abs(worked.theta[("", "b")] - 2 / 7) <= 1e-12
    )
    p_before = math.exp(worked.training_stats.log_likelihoods[0])
    p_after = _forward_table("a", "b", worked)[1][1]
    rises = abs(p_before - 5 / 9) <= 1e-12 and abs(p_after - 29 / 49) <= 1e-12
    check(
        4,
        "EM log-likelihood is non-decreasing and the one-pair example matches",
        monotone and theta_ok and rises,
        f"10-iteration trace monotone={monotone}, p {p_before:.4f}->{p_after:.4f}",
    )


def test_05_procrustes_beats_random_orthogonal_maps():
    rng = np.random.default_rng(55)
    worst_gap = np.inf
    trace_err = 0.0
    for dim in (2, 3, 5):
        n = 8
        x = rng.standard_normal((n, dim))
        z = rng.standard_normal((n, dim))
        weight = rng.integers(1, 3, size=n)
        d = SparseDictionary(np.arange(n), rng.permutation(n), weight)
        u, s, vt = weighted_cross_svd(x, z, d)
        m = (x[d.src] * d.weight[:, None]).T @ z[d.tgt]
        best = float(np.sum(m * (u @ vt)))
        trace_err = max(trace_err, abs(best - s.sum()))
        for _ in range(10_000):
            a = random_orthogonal(rng, dim)
            b = random_orthogonal(rng, dim)
            worst_gap = min(worst_gap, best - float(np.sum(m * (a @ b.T))))
    check(
        5,
        "SVD solution dominates 10000 random orthogonal map pairs per instance",
        worst_gap >= -1e-9 and trace_err <= 1e-6,
        f"smallest margin {worst_gap:.3e}, trace mismatch {trace_err:.2e}",
    )


def test_06_whitening_identities():
    rng = np.random.default_rng(66)
    rows = rng.standard_normal((300, 8)) @ np.diag(rng.uniform(0.5, 4.0, size=8))
    emb = EmbeddingMatrix(Vocabulary([f"w{i}" for i in range(300)]), rows)
    pair = compute_whitening(emb)
    white = rows @ pair.forward
    cov_err = np.abs(white.T @ white / 300 - np.eye(8)).max()
    inv_err = np.abs(pair.forward @ pair.inverse - np.eye(8)).max()
    check(
        6,
        "whitened covariance and forward*inverse are identity",
        cov_err <= 1e-6 and inv_err <= 1e-6,
        f"covariance error {cov_err:.2e}, inverse error {inv_err:.2e}",
    )


def test_07_symmetric_delete_matches_brute_force():
    rng = np.random.default_rng(77)
    chars = list("abcdef")
    make = lambda n: ["".join(rng.choice(chars, size=rng.integers(3, 9))) for _ in range(n)]
    src, tgt = make(500), make(500)
    alphabets = build_edit_alphabets(src, tgt)
    theta = {(c, c): 1.0 / len(chars) for c in chars}
    model = EditModel(alphabets, theta)
    pairs, _ = candidate_pairs(src, model, DeleteIndex.build(tgt, 2))
    translits = [transliterate(w, model)[0] for w in src]
    expected = brute_force_candidates(translits, tgt, 2)
    check(
        7,
        "candidate pairs equal the quadratic deletion-intersection oracle",
        pairs == expected,
        f"{len(pairs)} pairs over 500x500 words",
    )


def test_08_boost_boundary_behaviour():
    scale = 0.73
    at_one_edit = scale * boost_from_log_prob(0.0, 5, 40, 60)
    chance = -3 * math.log((1 + 40) * (1 + 60))
    at_chance_edit = scale * boost_from_log_prob(chance, 3, 40, 60)
    at_one_scorer = scale * scorer_boost_value(1.0, 37)
    at_chance_scorer = scale * scorer_boost_value(0.5, 2)
    exact = (
        at_one_edit == scale
        and at_chance_edit == 0.0
        and at_one_scorer == scale
        and at_chance_scorer == 0.0
    )
    check(
        8,
        "both boosts are exactly 0 at chance and exactly c at certainty",
        exact,
        f"edit ({at_chance_edit}, {at_one_edit}), scorer ({at_chance_scorer}, {at_one_scorer})",
    )


def test_09_zero_extension_reduces_to_baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("zero-ext")
    bench = generate_cipher_benchmark(150, 12, seed=BENCH_SEED, noise=0.3, out_dir=out)
    shared = dict(
        src_embeddings=str(bench.src_embeddings),
        tgt_embeddings=str(bench.tgt_embeddings),
        seeds=[3],
    )
    plain = fresh_run(RunConfig(mode="baseline", **shared), 3)
    zero = fresh_run(RunConfig(mode="ortho-ext", scale=0.0, **shared), 3)
    check(
        9,
        "ortho-ext with c=0 is lexicon-identical to baseline",
        plain.predictions == zero.predictions,
        f"{len(plain.predictions)} entries compared",
    )


def test_10_stall_schedule_doubles_every_window():
    cfg = LoopConfig(stall_window=50, p_init=0.1, p_factor=2.0)
    state, trace = run_schedule(cfg, lambda s: 0.5)
    first_seen = {}
    for entry in trace:
        first_seen.setdefault(entry.p_keep, entry.iteration)
    levels = list(first_seen)
    # The value doubles after the last iteration of each phase, so doubling
    # events sit one before each later phase start.
    events = [iteration - 1 for iteration in list(first_seen.values())[1:]]
    gaps = [b - a for a, b in zip(events, events[1:])]
    ended_after_stall = state.iteration == events[-1] + 50
    check(
        10,
        "keep probability doubles exactly every 50 stalled iterations",
        levels == [0.1, 0.2, 0.4, 0.8, 1.0]
        and all(g == 50 for g in gaps)
        and ended_after_stall,
        f"doubling events {events}, terminated at {state.iteration}",
    )


def test_11_transliteration_matches_exhaustive_search():
    rng = np.random.default_rng(111)
    words = ["abba", "baab", "abab", "bbaa"]
    alphabets = build_edit_alphabets(words, ["xy", "yx"])
    worst = 0.0
    for _ in range(25):
        theta = random_theta(rng, alphabets)
        model = EditModel(alphabets, theta)
        for n in range(1, 5):
            for code in range(2**n):
                x = "".join("ab"[(code >> i) & 1] for i in range(n))
                expected = enumerate_transliteration_score(
                    x, theta, set(alphabets.src.items), alphabets.tgt.items,
                    alphabets.max_src_len,
                )
                _, score = transliterate(x, model)
                worst = max(worst, abs(score - expected))
    check(
        11,
        "transliteration score equals exhaustive segmentation search",
        worst <= 1e-12,
        f"max abs log-space error {worst:.2e}",
    )


def test_12_sweep_beats_zero_scale_baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep-bench")
    bench = generate_cipher_benchmark(200, 8, seed=BENCH_SEED, noise=0.3, out_dir=out)
    gold = load_ref_lexicon(bench.gold_lexicon)
    shared = dict(
        src_embeddings=str(bench.src_embeddings),
        tgt_embeddings=str(bench.tgt_embeddings),
        seeds=[0],
    )
    plain = fresh_run(RunConfig(mode="baseline", **shared), 0)
    baseline_acc = precision_at_1(plain.predictions, gold).p_at_1
    cfg = RunConfig(
        mode="ortho-ext",
        output_dir=str(out / "sweep"),
        dev_lexicon=str(bench.gold_lexicon),
        **shared,
    )
    best, points = run_sweep(cfg)
    selected = next(p for p in points if p.scale == best)
    check(
        12,
        "sweep over the 18-value grid selects c at least as good as c=0",
        len(points) == 18 and selected.mean >= baseline_acc,
        f"c={best} dev accuracy {selected.mean:.3f} vs baseline {baseline_acc:.3f}",
    )
