"""The process's allocator policy, and its peak resident set size and minor
page faults for phase log lines and manifests."""

import sys

try:
    import resource
except ImportError:  # not a Unix
    resource = None

# glibc's mallopt parameters (malloc.h) and the values pin_allocator sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# The ceiling of glibc's own dynamic mmap threshold on 64-bit: arrays below
# it come from the heap, larger ones are still mapped per allocation.
MMAP_THRESHOLD_BYTES = 32 << 20
# Freed memory at the top of the heap stays resident up to this much.
TRIM_THRESHOLD_BYTES = 64 << 20


def _load_libc():
    """The C library's symbols; raises OSError where they cannot be loaded."""
    import ctypes

    return ctypes.CDLL(None)


def pin_allocator():
    """Fix glibc's mmap and trim thresholds for this process and the ones
    it forks. Left to glibc, both move with what the process frees, so
    whether a loop iteration's arrays come from the heap or are mapped and
    faulted in afresh depends on allocation history.

    True when both are set; where mallopt is missing (or, on Windows,
    CDLL(None) is refused) or refuses a value, nothing more is set.
    """
    try:
        mallopt = _load_libc().mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    )


def peak_rss_mb(children=False):
    """Peak RSS so far in MiB, or None where the platform does not report it.

    With ``children``, the largest peak of the child processes this process
    has waited for. ru_maxrss is in KiB on Linux and in bytes on macOS.
    """
    if resource is None:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def log_peak_rss(logger, phase):
    """One INFO line with the peak RSS reached by the end of ``phase`` and
    the minor page faults the process has taken so far."""
    if resource is None:
        return
    usage = resource.getrusage(resource.RUSAGE_SELF)
    logger.info(
        "peak RSS after %s: %.1f MB, %s minor page faults",
        phase, peak_rss_mb(), f"{usage.ru_minflt:,}",
    )
