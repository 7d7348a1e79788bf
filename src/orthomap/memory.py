"""Peak resident set size of this process, for phase log lines and manifests."""

import sys

try:
    import resource
except ImportError:  # not a Unix
    resource = None


def peak_rss_mb():
    """Peak RSS so far in MiB, or None where the platform does not report it.

    ru_maxrss is in KiB on Linux and in bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def log_peak_rss(logger, phase):
    """One INFO line with the peak RSS reached by the end of ``phase``."""
    peak = peak_rss_mb()
    if peak is not None:
        logger.info("peak RSS after %s: %.1f MB", phase, peak)
