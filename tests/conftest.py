import multiprocessing
import os
import threading

import pytest

from orthomap import pipeline
from orthomap.benchmark import generate_cipher_benchmark


def fresh_run(cfg, seed):
    """The point (cfg.scale, seed) on products of its own, as induce runs
    its one point."""
    with pipeline._prepared(cfg, [(cfg.scale, seed)], 1) as (_, run, _):
        [(outcome, _)] = run(lambda outcome: outcome)
    return outcome


@pytest.fixture(scope="session")
def tiny_benchmark(tmp_path_factory):
    """Small noiseless cipher benchmark shared by pipeline-level tests."""
    out = tmp_path_factory.mktemp("tiny-bench")
    return generate_cipher_benchmark(100, 10, seed=11, noise=0.0, out_dir=out)


@pytest.fixture(autouse=True)
def restore_blas_variables(monkeypatch):
    """cli.main sets the BLAS thread variables; undo that after each test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)


@pytest.fixture(autouse=True)
def no_live_children():
    """Fail a test that leaves a worker process running: every fork site
    must end its workers, whether the run succeeds or fails."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    assert alive == [], f"the test left live child processes: {alive}"


@pytest.fixture(autouse=True)
def no_live_threads():
    """Fail a test that leaves a thread running besides the main one: no
    thread may be alive when a caller forks workers (a forked worker gets
    no copy of it)."""
    yield
    alive = [t for t in threading.enumerate() if t is not threading.main_thread()]
    assert alive == [], f"the test left live threads: {alive}"
