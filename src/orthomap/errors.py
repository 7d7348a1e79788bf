"""Exception hierarchy shared across the package.

Each class declares the exit code the CLI returns when it ends a command,
so raising the right type matters more than the message text. An
unreadable file (OSError) exits with InputFormatError's code.
"""


class OrthomapError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(OrthomapError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class InputFormatError(OrthomapError):
    """Malformed input file (embeddings, lexicons, scorer tables, models)."""

    exit_code = 3


class ConvergenceError(OrthomapError):
    """Self-learning failed: no convergence within the iteration cap, a
    non-finite objective, an iteration that induced no dictionary, or a
    final dictionary whose rows cannot be whitened."""

    exit_code = 4


class CandidateError(OrthomapError):
    """Candidate generation produced no usable pairs."""

    exit_code = 5


class EmTrainingError(OrthomapError):
    """Edit-distance EM had no trainable pairs."""

    exit_code = 6


class AlphabetCoverageError(OrthomapError):
    """A string contains characters outside the edit alphabets."""

    exit_code = 3


class NoTransliterationPath(OrthomapError):
    """No valid segmentation of the source string exists under the model."""

    exit_code = 3
