"""Peak resident set size of this process or its children, for phase log
lines and manifests."""

import sys

try:
    import resource
except ImportError:  # not a Unix
    resource = None


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
    """One INFO line with the peak RSS reached by the end of ``phase``."""
    peak = peak_rss_mb()
    if peak is not None:
        logger.info("peak RSS after %s: %.1f MB", phase, peak)
