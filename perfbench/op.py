"""One operation: a fresh process that makes one orthomap CLI invocation.

    python3 op.py SPAWN_TIME RESULT_JSON MODE [CLI ARGS...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (the clock is system-wide on Linux), so setup_s covers interpreter
start plus the imports every CLI call pays. MODE is "setup" (imports only),
"plain" (untraced), "trace" (spans) or "memory" (spans plus tracemalloc
peaks; its timings are never reported).
"""

import sys
import time


def main():
    import numpy

    import orthomap.cli
    import orthomap.pipeline  # noqa: F401  (the subcommands import it lazily)

    numpy.ones((64, 64)) @ numpy.ones((64, 64))  # BLAS loaded, its threads started
    ready = time.monotonic()

    import json
    import resource

    spawn, result_path, mode, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    out = {"setup_s": ready - spawn}
    if mode != "setup":
        tracer = None
        if mode in ("trace", "memory"):
            import spans

            tracer = spans.Tracer(memory=mode == "memory")
            tracer.install()
        start = time.monotonic()
        code = orthomap.cli.main(argv)
        out["wall_s"] = time.monotonic() - start
        out["exit_code"] = code
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"] = spans.layer_metrics(tracer.spans)
            if mode == "memory":
                out["layers"].update(spans.peak_metrics(tracer.spans))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
