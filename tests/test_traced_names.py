"""The names the traced benchmark wraps still exist in the package.

perfbench/spans.py wraps orthomap functions by (module, name) from outside
the program; a rename there would turn every traced operation into a
failure. This reads perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from orthomap import pipeline, self_learning
from orthomap.corpus_io import EmbeddingMatrix, Vocabulary, load_embeddings
from orthomap.numerics import normalize_embeddings
from orthomap.ortho_extension import build_ngram_alphabet
from orthomap.self_learning import LoopConfig
from conftest import fresh_run

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_names():
    return spans_module().TRACED


@pytest.mark.parametrize("module_name, func_name", traced_names())
def test_traced_function_resolves(module_name, func_name):
    module = importlib.import_module(f"orthomap.{module_name}")
    assert callable(getattr(module, func_name, None))


def test_run_schedule_accepts_traced_signature():
    # spans.py calls run_schedule(cfg, step_fn, seed=...) with a wrapped step_fn.
    module = importlib.import_module("orthomap.self_learning")
    cfg = LoopConfig(stall_window=1, p_init=1.0)
    seeds = []

    def step_fn(state):
        seeds.append(state.rng_seed)
        return 1.0

    state, trace = module.run_schedule(cfg, step_fn, seed=7)
    assert seeds == [7, 7] and len(trace) == state.iteration == 2


KERNEL_NAMES = (
    "init_dictionary_unsupervised",
    "csls_means",
    "csls_adjust",
    "induce_dictionary",
    "retrieve_lexicon",
)


def test_run_calls_every_traced_kernel_function(monkeypatch):
    # spans.py times these names by replacing self_learning's attributes; a
    # run that bypassed them would leave their per-layer metrics at 0.
    calls = dict.fromkeys(KERNEL_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in KERNEL_NAMES:
        monkeypatch.setattr(self_learning, name, counting(name, getattr(self_learning, name)))
    rng = np.random.default_rng(5)
    data = rng.standard_normal((40, 6))
    src = normalize_embeddings(EmbeddingMatrix(Vocabulary([f"s{i}" for i in range(40)]), data))
    tgt = normalize_embeddings(EmbeddingMatrix(Vocabulary([f"t{i}" for i in range(40)]), data))
    cfg = LoopConfig(train_cutoff=40, stall_window=1, p_init=1.0)
    self_learning.run_self_learning(src, tgt, cfg)
    assert all(count >= 1 for count in calls.values()), calls


def installed_tracer(monkeypatch):
    """perfbench's Tracer, installed until the test ends."""
    spans = spans_module()
    modules = [m for n, m in sys.modules.items() if n.startswith("orthomap.")]
    for module in modules:  # install() replaces these; monkeypatch restores them
        for _, func_name in spans.TRACED:
            if func_name in module.__dict__:
                monkeypatch.setattr(module, func_name, module.__dict__[func_name])
    tracer = spans.Tracer()
    tracer.install()
    return spans, tracer


def test_boosted_run_traces_its_one_init(tiny_benchmark, monkeypatch):
    # A boosted run computes the init once, in pipeline.boost_stage, for
    # both of its loops. The spans must still see that call, or
    # self_learning.init_dictionary.s would read 0 on a boosted workload.
    # Likewise EM and boost scoring must each be seen with their work counts.
    spans, tracer = installed_tracer(monkeypatch)
    cfg = pipeline.RunConfig(
        src_embeddings=str(tiny_benchmark.src_embeddings),
        tgt_embeddings=str(tiny_benchmark.tgt_embeddings),
        mode="edit-dist",
        scale=0.3,
        stall_window=5,
    )
    extras = fresh_run(cfg, 0).extras
    names = [span[0] for span in tracer.spans]
    metrics = spans.layer_metrics(tracer.spans)
    assert names.count("self_learning.init_dictionary_unsupervised") == 1
    assert names.count("self_learning.run_schedule") == 2
    assert metrics["self_learning.init_dictionary.s"] > 0.0
    assert names.count("edit_model.em_train") == 1
    assert metrics["edit_model.em_train.s"] > 0.0
    assert metrics["edit_model.em_pairs"] == extras["synthetic_pairs"] > 0
    assert metrics["edit_model.edit_similarity_boost.calls"] == extras["candidates"] > 0


def test_extended_run_solves_over_used_columns(tiny_benchmark, monkeypatch, caplog):
    # The cipher's two scripts share no n-gram, so each side uses its
    # embedding columns and the extension columns of its own script; the
    # traced svd_dim shows that width. Fixed-point replays solve nothing.
    spans, tracer = installed_tracer(monkeypatch)
    cfg = pipeline.RunConfig(
        src_embeddings=str(tiny_benchmark.src_embeddings),
        tgt_embeddings=str(tiny_benchmark.tgt_embeddings),
        mode="ortho-ext",
        scale=0.3,
        stall_window=5,
    )
    with caplog.at_level("INFO", logger="orthomap.self_learning"):
        outcome = fresh_run(cfg, 0)
    metrics = spans.layer_metrics(tracer.spans)

    src = load_embeddings(cfg.src_embeddings)
    tgt = load_embeddings(cfg.tgt_embeddings)
    alphabet = build_ngram_alphabet(src.vocab.words, tgt.vocab.words, cfg.alphabet_k)
    used = [g for g in alphabet.items if any(g in w for w in src.vocab.words)]
    assert 0 < len(used) < len(alphabet)
    assert metrics["numerics.svd_dim"] == src.dim + len(used)

    iterations = outcome.result.state.iteration
    (fixed,) = [
        int(r.getMessage().split()[1].rstrip(":"))
        for r in caplog.records
        if r.getMessage().endswith("reached its fixed point")
    ]
    replays = iterations - fixed
    assert replays > 0
    assert metrics["self_learning.iterations"] == iterations
    assert metrics["numerics.weighted_cross_svd.calls"] == iterations - replays + 1
