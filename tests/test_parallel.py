"""Forked work: the drawer's lifecycle, its shared mapping, and the rule
that no other module forks or maps memory."""

import ast
import multiprocessing
import time
from pathlib import Path

import pytest

import orthomap
from orthomap import parallel
from orthomap.parallel import keep_masks
from orthomap.self_learning import LoopConfig


def test_started_drawer_ends_by_itself_after_its_plan(monkeypatch):
    # The drawer draws its plan, 2 phase seeds of certain_steps (17 at
    # stall_window 4), reports each mask and ends without stop().
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    cfg = LoopConfig(train_cutoff=30, stall_window=4)
    with keep_masks(cfg, 30, {3: 1, 4: 1}, 2) as masks:
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.001)
        assert multiprocessing.active_children() == []
        masks._take_reports()
        assert masks._reports is None  # the drawer's end was read
        assert masks._reported == 34
        masks.stop()


def test_keep_masks_off_yields_none(monkeypatch):
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    cfg = LoopConfig(train_cutoff=30)
    forks = parallel.workers_forked
    with keep_masks(cfg, 30, {3: 1}, 1) as masks:
        assert masks is None
    assert parallel.workers_forked == forks


def test_stop_ends_the_drawer_and_keeps_its_reports(monkeypatch):
    # stop() ends the forked drawer and takes every mask it reported; the
    # end of the context then has nothing left to do. The plan, 8001 masks
    # at stall_window 2000, keeps the drawer busy until stop().
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    cfg = LoopConfig(train_cutoff=30, rng_seed=3, stall_window=2000)
    with keep_masks(cfg, 30, {3: 1}, 2) as masks:
        assert len(multiprocessing.active_children()) == 1
        deadline = time.monotonic() + 30
        while masks._reported < 2 and time.monotonic() < deadline:
            masks._take_reports()
            time.sleep(0.001)
        masks.stop()
        assert multiprocessing.active_children() == []
        assert masks._reports is None and masks._report_to is None
        reported = masks._reported
        assert 2 <= reported < 8001
    assert masks._reported == reported


# What only orthomap.parallel may use: the modules that fork or map
# memory, and the calls that make a pipe, lower a priority or free pages.
FORKING_MODULES = {"multiprocessing", "mmap"}
FORKING_CALLS = {("os", "pipe"), ("os", "nice"), ("os", "fork"), (None, "madvise")}


def forking_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] in FORKING_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in FORKING_MODULES:
                yield node.module
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
            if (owner, node.func.attr) in FORKING_CALLS or (None, node.func.attr) in FORKING_CALLS:
                yield f"{owner or '...'}.{node.func.attr}()"


def test_only_parallel_forks_or_maps_memory():
    package = Path(orthomap.__file__).parent
    uses = {
        path.name: sorted(set(forking_uses(ast.parse(path.read_text(encoding="utf-8")))))
        for path in package.glob("*.py")
    }
    assert uses.pop("parallel.py")  # the rule reads what it is meant to
    assert {name: found for name, found in uses.items() if found} == {}
