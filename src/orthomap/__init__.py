"""Unsupervised bilingual lexicon induction from monolingual embeddings,
with orthographic signals that work across writing systems."""

import importlib

__version__ = "0.1.0"

# Re-exported names resolve on first access (PEP 562), so importing the
# package, or orthomap.cli, does not load numpy: the CLI must set the BLAS
# thread variables before the numerical backend starts.
_EXPORTS = {
    "EmbeddingMatrix": "corpus_io",
    "RefLexicon": "corpus_io",
    "SparseDictionary": "corpus_io",
    "Vocabulary": "corpus_io",
    "build_pivot_lexicon": "corpus_io",
    "load_embeddings": "corpus_io",
    "load_ref_lexicon": "corpus_io",
    "write_embeddings": "corpus_io",
    "write_lexicon": "corpus_io",
    "LoopConfig": "self_learning",
    "run_self_learning": "self_learning",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
