"""Exception hierarchy shared across the package.

The CLI maps each class to a distinct exit code, so raising the right
type matters more than the message text.
"""


class OrthomapError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OrthomapError):
    """Invalid or inconsistent run configuration."""


class InputFormatError(OrthomapError):
    """Malformed input file (embeddings, lexicons, scorer tables, models)."""


class ConvergenceError(OrthomapError):
    """Self-learning failed: no convergence within the iteration cap, a
    non-finite objective, or an iteration that induced no dictionary."""


class CandidateError(OrthomapError):
    """Candidate generation produced no usable pairs."""


class EmTrainingError(OrthomapError):
    """Edit-distance EM had no trainable pairs."""


class AlphabetCoverageError(OrthomapError):
    """A string contains characters outside the edit alphabets."""


class NoTransliterationPath(OrthomapError):
    """No valid segmentation of the source string exists under the model."""
