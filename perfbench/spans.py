"""Outside-in tracing of one CLI invocation.

Public functions of each orthomap module are wrapped from here, by
replacing the module attribute wherever a caller looks the name up, so no
file of the program changes. Loop iterations are timed by wrapping the
``step_fn`` that ``run_schedule`` receives. Spans stay in memory and are
reduced to per-layer metrics when the invocation ends.
"""

import importlib
import os
import statistics
import sys
import time
import tracemalloc

# (module, function) pairs wrapped as spans; the span is named after them.
TRACED = (
    ("cli", "main"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "run_sweep"),
    ("pipeline", "execute_run"),
    ("corpus_io", "load_embeddings"),
    ("numerics", "normalize_embeddings"),
    ("numerics", "compute_whitening"),
    ("numerics", "weighted_cross_svd"),
    ("self_learning", "init_dictionary_unsupervised"),
    ("self_learning", "run_schedule"),
    ("self_learning", "csls_means"),
    ("self_learning", "csls_adjust"),
    ("self_learning", "induce_dictionary"),
    ("self_learning", "retrieve_lexicon"),
    ("ortho_extension", "extension_matrix"),
    ("edit_model", "em_train"),
    ("edit_model", "edit_similarity_boost"),
    ("candidates", "candidate_pairs"),
    ("evaluation", "precision_at_1"),
    ("evaluation", "write_predictions_tsv"),
)

ITERATION = "self_learning.iteration"
# The memory pass traces allocations only inside these spans, which never
# nest: their peak is the most memory the span itself held at once, and
# the Python-heavy rest of a run is not slowed by tracemalloc.
PEAK_SPANS = ("self_learning.retrieve_lexicon", ITERATION)
MB = 1024.0 * 1024.0


def _count_info(name, args, result):
    """Work counts read from a call's arguments and return value."""
    if name == "corpus_io.load_embeddings":
        return {"bytes": os.path.getsize(args[0])}
    if name == "numerics.weighted_cross_svd":
        return {"dim": args[0].shape[1]}
    if name == "self_learning.induce_dictionary":
        return {"entries": len(result), "mutual": int((result.weight == 2).sum())}
    if name == "ortho_extension.extension_matrix":
        return {"cols": result.shape[1]}
    if name == "edit_model.em_train":
        return {"pairs": len(args[0])}
    if name == "edit_model.edit_similarity_boost":
        return {"hit": result > 0.0}
    if name == "candidates.candidate_pairs":
        return {"pairs": len(result[0])}
    return None


class Tracer:
    """Records (name, parent, start, end, info) spans of one invocation."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0.0, 0.0, None])
        self._stack.append(len(self.spans) - 1)
        if self.memory and name in PEAK_SPANS:
            tracemalloc.start()
        self.spans[-1][2] = time.perf_counter()
        return len(self.spans) - 1

    def _exit(self, index, info):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span[3] = end
        span[4] = info
        if self.memory and span[0] in PEAK_SPANS:
            peak = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
            span[4] = dict(info or {}, peak_mb=peak)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(index, _count_info(name, args, result) if result is not None else None)

        return traced

    def wrap_schedule(self, fn):
        tracer = self

        def run_schedule(cfg, step_fn, seed=None):
            return fn(cfg, tracer.wrap(ITERATION, step_fn), seed=seed)

        return tracer.wrap("self_learning.run_schedule", run_schedule)

    def install(self):
        """Wrap every traced function under each name that refers to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "orthomap" or n.startswith("orthomap.")
        ]
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"orthomap.{module_name}")
            original = getattr(module, func_name)
            name = f"{module_name}.{func_name}"
            if name == "self_learning.run_schedule":
                wrapper = self.wrap_schedule(original)
            else:
                wrapper = self.wrap(name, original)
            for m in modules:
                if m.__dict__.get(func_name) is original:
                    setattr(m, func_name, wrapper)


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans):
    """Reduce the spans of one invocation to the per-layer metrics."""
    by_name = {}
    child_s = [0.0] * len(spans)
    for name, parent, start, end, info in spans:
        by_name.setdefault(name, []).append((end - start, info or {}))
        if parent >= 0:
            child_s[parent] += end - start

    def total(name):
        return sum(d for d, _ in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def infos(name, key):
        return [i[key] for _, i in by_name.get(name, ()) if key in i]

    iterations = [d for d, _ in by_name.get(ITERATION, ())]
    iteration_self = sum(
        (end - start) - child_s[k]
        for k, (name, _, start, end, _) in enumerate(spans)
        if name == ITERATION
    )
    roots = [k for k, s in enumerate(spans) if s[1] < 0]
    entries = infos("self_learning.induce_dictionary", "entries")
    mutual = infos("self_learning.induce_dictionary", "mutual")
    hits = infos("edit_model.edit_similarity_boost", "hit")
    load_s = total("corpus_io.load_embeddings")
    return {
        "cli.self_s": sum(spans[k][3] - spans[k][2] - child_s[k] for k in roots),
        "pipeline.execute_run.calls": calls("pipeline.execute_run"),
        "pipeline.execute_run.s": total("pipeline.execute_run"),
        "corpus_io.load_embeddings.s": load_s,
        "corpus_io.load_embeddings.mb_per_s":
            sum(infos("corpus_io.load_embeddings", "bytes")) / MB / load_s if load_s else 0.0,
        "numerics.normalize_embeddings.s": total("numerics.normalize_embeddings"),
        "numerics.compute_whitening.s": total("numerics.compute_whitening"),
        "numerics.weighted_cross_svd.s": total("numerics.weighted_cross_svd"),
        "numerics.weighted_cross_svd.calls": calls("numerics.weighted_cross_svd"),
        "numerics.svd_dim": max(infos("numerics.weighted_cross_svd", "dim"), default=0),
        "self_learning.iterations": len(iterations),
        "self_learning.iteration.s": sum(iterations),
        "self_learning.iteration.self_s": iteration_self,
        "self_learning.iteration.p50_ms": 1e3 * _quantile(iterations, 50) if iterations else 0.0,
        "self_learning.iteration.p90_ms": 1e3 * _quantile(iterations, 90) if iterations else 0.0,
        "self_learning.init_dictionary.s": total("self_learning.init_dictionary_unsupervised"),
        "self_learning.csls_means.s": total("self_learning.csls_means"),
        "self_learning.csls_adjust.s": total("self_learning.csls_adjust"),
        "self_learning.induce_dictionary.s": total("self_learning.induce_dictionary"),
        "self_learning.retrieve_lexicon.s": total("self_learning.retrieve_lexicon"),
        "self_learning.dict_entries.mean": statistics.fmean(entries) if entries else 0.0,
        "self_learning.mutual_ratio": sum(mutual) / sum(entries) if entries else 0.0,
        "ortho_extension.extension_matrix.s": total("ortho_extension.extension_matrix"),
        "ortho_extension.extension_cols": max(infos("ortho_extension.extension_matrix", "cols"), default=0),
        "edit_model.em_train.s": total("edit_model.em_train"),
        "edit_model.em_pairs": sum(infos("edit_model.em_train", "pairs")),
        "edit_model.edit_similarity_boost.s": total("edit_model.edit_similarity_boost"),
        "edit_model.edit_similarity_boost.calls": calls("edit_model.edit_similarity_boost"),
        "edit_model.boost_hit_ratio": sum(hits) / len(hits) if hits else 0.0,
        "candidates.candidate_pairs.s": total("candidates.candidate_pairs"),
        "candidates.pairs": sum(infos("candidates.candidate_pairs", "pairs")),
        "evaluation.s": total("evaluation.precision_at_1") + total("evaluation.write_predictions_tsv"),
    }


def peak_metrics(spans):
    """tracemalloc peaks recorded by a memory pass, in MB."""
    out = {}
    for name in PEAK_SPANS:
        peaks = [i["peak_mb"] for n, _, _, _, i in spans if n == name and i]
        out[f"{name}.peak_mb"] = max(peaks, default=0.0)
    return out
