"""Forked work, the one module that forks processes or shares memory.

``forked`` runs the pipeline's worker jobs, ``shared_array`` maps memory
that forked processes share, and ``keep_masks`` owns the keep-mask drawer
from start to end: a forked process that draws a plan fixed before it
starts and hears nothing from the loops. ``multiprocessing`` (about
0.4 MB of resident memory and 10 ms) and ``mmap`` are imported only once
a run forks or maps.
"""

import contextlib
import logging
import os
import traceback

import numpy as np

from .errors import OrthomapError
from .numerics import blas_threads
from .self_learning import _draw_levels, _tile_shape, certain_steps, keep_schedule

logger = logging.getLogger(__name__)

# Bytes of keep-mask levels, one per entry of a loop's score matrix, that
# KeepMasks may hold at once; steps past it draw their masks inline.
_MASK_BYTES = 32 << 20

# Worker processes ``forked`` has started in this process, so that a run
# knows whether its manifest has a workers' peak RSS to report.
workers_forked = 0


def _work(conn, work, jobs):
    """A forked worker: send ``work(job)`` for each job in turn, or the
    first error, with its traceback as a note, and stop there."""
    for job in jobs:
        try:
            conn.send(work(job))
        except Exception as exc:
            exc.add_note(traceback.format_exc())
            conn.send(exc)
            return


@contextlib.contextmanager
def forked(work, jobs, workers, describe):
    """Fork ``workers`` processes that take ``jobs`` in turn and give an
    iterator over the ``work(job)`` results in job order. It raises a
    job's error where that job's result would come, and OrthomapError,
    naming ``describe(job)``, for a worker that ended without the result.
    Leaving the context ends every worker.

    Forked, not spawned, so that the workers read what this process holds
    copy-on-write instead of each unpickling a copy. No Python thread but
    the caller's runs in this package, so none is lost to a fork; OpenBLAS
    stops its thread pool before a fork and restarts it on its next call.
    """
    import multiprocessing

    global workers_forked
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []

    def results():
        for i, job in enumerate(jobs):
            proc = procs[i % workers]
            try:
                result = conns[i % workers].recv()
            except EOFError:
                proc.join()
                raise OrthomapError(
                    f"the worker {describe(job)} ended without a result "
                    f"(exit code {proc.exitcode})"
                ) from None
            if isinstance(result, Exception):
                raise result
            yield result

    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=_work, args=(send, work, jobs[w::workers]), daemon=True)
            proc.start()
            procs.append(proc)
            workers_forked += 1
            send.close()
        yield results()
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def shared_array(shape, dtype):
    """A zeroed array over an anonymous mapping of whole pages, its
    ``base``, that the processes forked after this call share."""
    import mmap

    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize))


@contextlib.contextmanager
def keep_masks(cfg, cutoff, readers, workers):
    """The KeepMasks of loops with the LoopConfig ``cfg`` (any phase seed)
    over ``cutoff`` rows, its drawer running until its plan is drawn, its
    stop() or the end of the context; or None, unless there are two or
    more ``workers``, BLAS runs on one thread (so that a core is free
    beside the loops), and the loops are one-tile ones with stochastic
    steps."""
    blas = blas_threads()
    fits = _tile_shape(cutoff, cutoff)[0] >= cutoff and bool(keep_schedule(cfg))
    on = workers > 1 and blas == 1 and fits
    masks = KeepMasks(cfg, cutoff, readers) if on else None
    logger.info(
        "keep-mask drawer %s: %d worker%s, BLAS threads %s, %s one-tile stochastic loop "
        "matrix of %d x %d%s",
        "on" if on else "off", workers, "" if workers == 1 else "s",
        "unset" if blas is None else blas, "a" if fits else "no", cutoff, cutoff,
        "" if masks is None else f"; {masks.describe()}",
    )
    if masks is None:
        yield None
        return
    try:
        masks.start()
        yield masks
    finally:
        masks.stop()


class KeepMasks:
    """Keep masks of the stochastic steps of a run's loops, drawn ahead of them.

    ``readers`` maps each phase seed to the number of loops that will read
    its masks, in the order the loops run. The plan is the steps every
    such loop takes (self_learning.certain_steps) of each phase seed in
    that order, cut to the slots that _MASK_BYTES holds. The drawer
    (``draw``, forked by ``start``) writes each planned step's levels
    (self_learning._draw_levels) into its slot, in plan order, reports each
    with one byte through a pipe, and ends. A step takes its mask once it
    has been reported and draws it inline otherwise (``dropped``), so no
    loop waits. A slot is released once each loop of this process that
    reads it has read it, so a single reader holds one mask at a time;
    loops in forked processes count their own reads, so they release only
    slots no other loop reads.
    """

    def __init__(self, cfg, cutoff, readers):
        import mmap

        self.schedule = keep_schedule(cfg)
        self.cutoff = cutoff
        self._probabilities = (cfg.p_init, cfg.p_factor)
        self._sharing = dict(readers)  # loops that read each seed's masks
        self._stride = -(-cutoff * cutoff // mmap.PAGESIZE) * mmap.PAGESIZE
        self._capacity = _MASK_BYTES // self._stride
        self._steps = certain_steps(cfg)
        plan = [(seed, i) for seed in readers for i in range(1, self._steps + 1)]
        # (phase seed, iteration) -> slot of each step drawn ahead, in plan order
        self._slot_of = {step: slot for slot, step in enumerate(plan[: self._capacity])}
        self._slots = shared_array((len(self._slot_of), self._stride), np.uint8)
        self._reported = 0  # masks the drawer has reported, in plan order
        self._reads = {}  # slot -> reads in this process
        self._reports, self._report_to = os.pipe()
        os.set_blocking(self._reports, False)
        self._drawer = contextlib.ExitStack()  # ends the forked drawer

    def describe(self):
        """The plan, as the drawer's log line states it."""
        seeds = len(self._sharing)
        return (
            f"plans {self._steps} masks for each of {seeds} phase seed"
            f"{'' if seeds == 1 else 's'} ({len(self._slot_of)} of {self._capacity} slots)"
        )

    def _slot(self, slot):
        """The levels of ``slot``, a cutoff x cutoff view of the mapping."""
        return self._slots[slot, : self.cutoff**2].reshape(self.cutoff, self.cutoff)

    def draw(self):
        """Draw and report the plan's masks in order (the drawer's one job)."""
        for (seed, iteration), slot in self._slot_of.items():
            _draw_levels(seed, iteration, self.schedule, self._slot(slot))
            os.write(self._report_to, b"\0")

    def start(self):
        """Fork the drawer, at the lowest priority, to draw the plan."""

        def draw(_):
            os.nice(19)
            os.close(self._reports)  # so that a report fails once this process has ended
            self.draw()

        self._drawer.enter_context(forked(draw, [None], 1, lambda _: "drawing keep masks"))
        os.close(self._report_to)  # so that reading ends when the drawer does
        self._report_to = None

    def _take_reports(self):
        while self._reports is not None:
            try:
                data = os.read(self._reports, 1 << 16)
            except BlockingIOError:
                return
            if not data:  # the drawer has ended
                os.close(self._reports)
                self._reports = None
                return
            self._reported += len(data)

    def dropped(self, cfg, cutoff, state):
        """``dropped(lo, hi)`` (see self_learning._best_entries) of the
        stochastic step ``state`` of a loop with ``cfg`` over ``cutoff``
        rows, from its drawn mask, or None where that mask is not planned,
        not reported yet, or released."""
        seed = state.rng_seed
        slot = self._slot_of.get((seed, state.iteration))
        if (
            slot is None
            or cutoff != self.cutoff
            or (cfg.p_init, cfg.p_factor) != self._probabilities
            or self._reads.get(slot, 0) == self._sharing[seed]
        ):
            return None
        self._take_reports()
        if slot >= self._reported:
            return None
        mask = self._slot(slot) > self.schedule.index(state.p_keep)
        self._reads[slot] = self._reads.get(slot, 0) + 1
        if self._reads[slot] == self._sharing[seed]:
            import mmap

            self._slots.base.madvise(mmap.MADV_REMOVE, slot * self._stride, self._stride)
        return lambda lo, hi: mask[lo:hi]

    def stop(self):
        """End the drawer, take its last reports, and no more."""
        self._drawer.close()
        self._take_reports()
        for fd in (self._reports, self._report_to):
            if fd is not None:
                os.close(fd)
        self._reports = self._report_to = None
