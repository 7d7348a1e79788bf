"""Dense linear-algebra primitives behind the mapping loop.

Conventions: embeddings are row vectors, maps multiply on the right
(mapped = E @ W). Orthogonal map pairs come from the SVD of the weighted
cross-covariance X^T D Z; whitening transforms are symmetric inverse
square roots of uncentered second-moment matrices.
"""

import logging
import os
from dataclasses import dataclass

import numpy as np

from .corpus_io import EmbeddingMatrix
from .errors import ConvergenceError

logger = logging.getLogger(__name__)


# Bytes of squares row_norms holds at once, whatever the matrix size, so
# normalizing needs no full-size temporary.
_NORM_BLOCK_BYTES = 64 << 10


def row_norms(matrix):
    """Euclidean length of each row, bit for bit np.linalg.norm(matrix, axis=1).

    That norm reduces a full-size array of squares; here the squares exist
    for one block of rows at a time, and each row is reduced exactly as
    there.
    """
    n_rows, n_cols = matrix.shape
    norms = np.empty(n_rows)
    step = max(1, _NORM_BLOCK_BYTES // (8 * max(1, n_cols)))
    for lo in range(0, n_rows, step):
        block = matrix[lo : lo + step]
        np.add.reduce(block * block, axis=1, out=norms[lo : lo + step])
    return np.sqrt(norms, out=norms)


def _divide_rows(matrix, norms, out):
    return np.divide(matrix, np.where(norms > 0.0, norms, 1.0)[:, None], out=out)


def normalize_rows(matrix, out=None):
    """Scale each row to unit Euclidean length; zero rows are left alone.

    The result goes to ``out`` (which may be ``matrix``) when given.
    """
    return _divide_rows(matrix, row_norms(matrix), out)


def normalize_embeddings(emb):
    """Mean-center every dimension, then length-normalize every row.

    The result is a new matrix; ``emb`` is left as it was. Rows that
    become zero after centering (duplicates of the mean) stay zero and are
    reported with a warning.
    """
    if len(emb.vocab) == 0:
        raise ValueError("empty embedding matrix")
    data = np.array(emb.data, dtype=np.float64)
    data -= data.mean(axis=0)
    norms = row_norms(data)
    zero_rows = int((norms == 0.0).sum())
    if zero_rows:
        logger.warning("%d rows have zero norm after centering", zero_rows)
    return EmbeddingMatrix(emb.vocab, _divide_rows(data, norms, data))


@dataclass
class WhiteningPair:
    """Symmetric whitening transform and its inverse.

    forward = C^(-1/2) and inverse = C^(+1/2) for the uncentered second
    moment C of the selected rows, with eigenvalues clamped below at
    eigen_floor for numerical safety.
    """

    forward: np.ndarray
    inverse: np.ndarray
    eigen_floor: float


# Relative clamp applied to covariance eigenvalues before the root.
EIGEN_FLOOR_RATIO = 1e-9


def compute_whitening(emb, rows=None):
    """Whitening pair for the selected rows of an embedding matrix.

    Applying ``forward`` gives the selected rows unit variance and zero
    covariance across dimensions (up to the eigenvalue clamp). A selection
    without a positive second moment raises ConvergenceError: the loop
    ended on rows that span nothing.
    """
    data = emb.data if isinstance(emb, EmbeddingMatrix) else np.asarray(emb)
    selected = data if rows is None else data[rows]
    n = selected.shape[0]
    if n == 0 or not np.any(selected):
        raise ConvergenceError("whitening requires a non-zero row selection")
    cov = selected.T @ selected / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = EIGEN_FLOOR_RATIO * float(eigvals[-1])
    if floor <= 0.0:
        raise ConvergenceError("covariance has no positive eigenvalue")
    clamped = np.maximum(eigvals, floor)
    forward = (eigvecs * clamped**-0.5) @ eigvecs.T
    inverse = (eigvecs * clamped**0.5) @ eigvecs.T
    return WhiteningPair(forward, inverse, floor)


# The variables OpenBLAS takes its thread count from, first one first.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads():
    """The BLAS thread count the environment sets: the first of
    _BLAS_THREAD_VARS that holds a positive integer, as OpenBLAS reads
    them, or None when none does (BLAS then runs on every core). The CLI
    sets these variables before numpy loads."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def weighted_cross_svd(x, z, dictionary):
    """SVD of sum_(i,j,w) w * x_i^T z_j over the dictionary entries."""
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    xs = x[dictionary.src] * dictionary.weight[:, None]
    m = xs.T @ z[dictionary.tgt]
    u, s, vt = np.linalg.svd(m)
    return u, s, vt
