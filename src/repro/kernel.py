"""Numeric kernel selection and shared array utilities.

The hot numeric loops of the library — staircase-curve evaluation
(:mod:`repro.arrivals.staircase`), the batched Theorem 1 Kleene
iterations (:mod:`repro.analysis.busy_window`), the Def. 10 evaluators
(:mod:`repro.analysis.twca`) and the dense simplex tableau
(:mod:`repro.ilp.simplex`) — each have two interchangeable
implementations: a vectorized numpy one and a pure-Python reference.
This module owns the switch between them.

Selection is process-wide and resolved once, from the ``REPRO_KERNEL``
environment variable:

* ``auto`` (default, also the empty string): chosen per batch by size.
  A batch of fewer than :data:`VECTOR_MIN` cells takes the pure-Python
  path, a larger one the numpy path.  Without numpy every batch takes
  the pure-Python path;
* ``numpy``: force the vectorized kernel for every batch, however
  small; raises :class:`KernelUnavailable` when numpy is not installed;
* ``python``: force the pure-Python reference for every batch (the
  differential baseline of the kernel-parity tests).

Where a batch starts — ``_InterferenceModel.totals_many`` called with
plain lists (sized by its q count), the multi-q and block Def. 10
evaluators (by q count, and by signatures x q), the simplex tableau
(by its rows), the response-time baseline's batched demands (by q
count), the simulator (by the activations it is given) and its
activation streams (by event count) — the site asks :func:`numpy_for`
with its size.  The helpers it calls follow their input: an ndarray
passed in means the numpy path (:func:`numpy_for_batch`), and the
metrics over a simulation result follow the trace it carries.

numpy itself is imported on the first vector batch, not at start-up,
so a run whose batches all stay small (``repro --help``, a small
``repro batch``, a daemon client) never imports it.  The daemons
(``repro serve``, ``repro shard-worker``) are the exception: they call
:func:`preload` before listening, so a daemon's memory footprint and
the latency of its first large request do not depend on which systems
it is sent.

:func:`kernel_name` reports the selection, not a resolution:
``"auto"``, ``"numpy"`` or ``"python"`` (``auto`` without numpy
reports ``"python"``, since every batch then takes that path).  The
daemon's ``/healthz``, its ``/cache/stats`` and the ``--timings``
fields of a batch export carry the same name.

:func:`set_kernel` (surfaced as ``--kernel`` on the analyzing CLI
subcommands) writes the requested name back into ``os.environ`` so
that batch and shard worker processes inherit it — ``auto`` stays
``auto`` there.  Both kernels are bit-identical by design, so the
switch never changes results, only wall-clock time.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

#: Whether numpy is importable in this process (independent of the
#: selected kernel).  Found without importing it.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: The two concrete kernels (``auto`` picks one of these per batch).
KERNELS: Tuple[str, ...] = ("numpy", "python")

#: Smallest batch, in cells, that ``auto`` sends to numpy; below it
#: numpy's fixed cost per call outweighs the vector work.  Chosen end
#: to end on a shared 2-vCPU Xeon (Python 3.11, numpy 2.4): wall time
#: of an in-process ``repro shard --serial`` over the 200-system WATERS
#: corpus of seed 301 (most batches 1-8 q, every tableau 2 rows) and of
#: ``repro batch`` over the 64-system deep-window family of the same
#: seed (batches up to hundreds of cells), median of 5 runs (2 runs for
#: the first and last rows):
#:
#: ===========  ==========  ===========
#: VECTOR_MIN   corpus      deep window
#: 1 (numpy)    2.1-2.2 s   3.3-3.8 s
#: 16           1.20 s      2.93 s
#: 32           1.13 s      2.56 s
#: 64           1.16 s      2.72 s
#: (python)     1.1-1.2 s   8.6-8.8 s
#: ===========  ==========  ===========
VECTOR_MIN = 32

_ENV_VAR = "REPRO_KERNEL"

_active: Optional[str] = None
_numpy = None


class KernelUnavailable(RuntimeError):
    """A kernel was requested that this interpreter cannot provide."""


def _normalize(name: Optional[str]) -> str:
    raw = ("" if name is None else str(name)).strip().lower() or "auto"
    if raw != "auto" and raw not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {('auto',) + KERNELS}"
        )
    if raw == "numpy" and not HAVE_NUMPY:
        raise KernelUnavailable(
            "REPRO_KERNEL=numpy requested but numpy is not importable; "
            "install the 'speed' extra or use --kernel python"
        )
    return raw


def _resolve(raw: str) -> str:
    return "python" if raw == "auto" and not HAVE_NUMPY else raw


def kernel_name() -> str:
    """The active selection (``"auto"``, ``"numpy"`` or ``"python"``),
    resolved from ``REPRO_KERNEL`` on first use."""
    global _active
    if _active is None:
        _active = _resolve(_normalize(os.environ.get(_ENV_VAR)))
    return _active


def _import_numpy():
    global _numpy
    import numpy

    _numpy = numpy
    return numpy


def numpy_for(size: int):
    """The numpy module when a batch of ``size`` cells should take the
    vector path, else ``None``.

    The idiom of every batch-origin site::

        np = numpy_for(len(batch))
        if np is None:
            ... pure-Python reference ...
        ... vectorized path ...

    Under ``auto`` the answer depends on ``size`` (see
    :data:`VECTOR_MIN`); the forced kernels ignore it.
    """
    active = _active or kernel_name()
    if active == "python" or (active == "auto" and size < VECTOR_MIN):
        return None
    return _numpy or _import_numpy()


def numpy_for_batch(batch: Sequence):
    """:func:`numpy_for` sized by ``len(batch)``, except that an ndarray
    ``batch`` (passed in from a vector caller) takes the numpy path
    unless the pure-Python kernel is selected."""
    if hasattr(batch, "dtype"):
        return numpy_or_none()
    return numpy_for(len(batch))


def numpy_or_none():
    """The numpy module unless the pure-Python kernel is selected.

    For helpers reached from a vector path; ``auto`` vectorizes here,
    as for any batch of :data:`VECTOR_MIN` cells.
    """
    return numpy_for(VECTOR_MIN)


def preload() -> None:
    """Import numpy now unless the pure-Python kernel is selected.

    For long-running processes that serve whatever systems arrive: a
    batch of :data:`VECTOR_MIN` cells or more may come at any time, so
    they pay the import once at start-up instead of on that request.
    """
    numpy_or_none()


def set_kernel(name: Optional[str]) -> str:
    """Select the kernel for this process and its future workers.

    ``name`` is ``"auto"``/``None``, ``"numpy"`` or ``"python"``.  The
    request is validated eagerly (``"numpy"`` without numpy raises
    :class:`KernelUnavailable`), installed process-wide, and mirrored
    into ``os.environ[REPRO_KERNEL]`` as requested, so that spawned
    batch and shard workers make the identical choice.  Returns the
    active selection as :func:`kernel_name` reports it.
    """
    global _active
    requested = _normalize(name)
    _active = _resolve(requested)
    os.environ[_ENV_VAR] = requested
    return _active


@contextmanager
def using_kernel(name: Optional[str]) -> Iterator[str]:
    """Context manager: select ``name`` for the duration of the block,
    restoring the previous selection (and environment) afterwards."""
    global _active
    previous_active = _active
    previous_env = os.environ.get(_ENV_VAR)
    try:
        yield set_kernel(name)
    finally:
        _active = previous_active
        if previous_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = previous_env


# ----------------------------------------------------------------------
# Array utilities
# ----------------------------------------------------------------------
def solve_monotone_fixed_points(
    seeds: Sequence[float],
    totals_many,
    totals_one,
    *,
    max_window: float,
    max_iterations: int,
):
    """Batched Kleene iteration of a pointwise-monotone operator.

    Every coordinate ``i`` starts from ``seeds[i]`` (a sound lower
    bound on its least fixed point) and advances through
    ``horizon <- total`` steps until ``total <= horizon``; converged
    coordinates are masked out so one sweep of ``totals_many`` serves
    exactly the still-active ones.  Because the operator is monotone,
    every sound seed converges to exactly the least fixed point, so the
    returned values are bit-identical to a coordinate-at-a-time scalar
    iteration.

    ``totals_many(indices, horizons)`` evaluates the operator for the
    given coordinate indices at the given horizons and returns the
    totals (list or ndarray).  When it raises ``OverflowError`` the
    sweep falls back to ``totals_one(index, horizon)`` per coordinate
    so the offender can be isolated instead of poisoning the batch.

    Returns ``(values, iterations, failures)``: per-coordinate fixed
    points (``None`` where failed), evaluation counts, and failure
    reasons (``None``, or a string starting with ``"window"``,
    ``"iterations"`` or ``"overflow:"``).
    """
    n = len(seeds)
    values: List[Optional[float]] = [None] * n
    iterations = [0] * n
    failures: List[Optional[str]] = [None] * n
    active = list(range(n))
    horizons = [float(seed) for seed in seeds]
    while active:
        probe = [horizons[i] for i in active]
        try:
            totals = totals_many(active, probe)
        except OverflowError:
            totals = []
            still = []
            for i, horizon in zip(active, probe):
                try:
                    totals.append(totals_one(i, horizon))
                    still.append(i)
                except OverflowError as exc:
                    iterations[i] += 1
                    failures[i] = f"overflow: {exc}"
            active = still
        next_active = []
        for i, total in zip(active, totals):
            total = float(total)
            iterations[i] += 1
            if total <= horizons[i]:
                values[i] = total
            elif total > max_window:
                failures[i] = "window"
            elif iterations[i] > max_iterations:
                failures[i] = "iterations"
            else:
                horizons[i] = total
                next_active.append(i)
        active = next_active
    return values, iterations, failures


def solve_monotone_fixed_points_2d(
    seeds: Sequence[Sequence[float]],
    totals_many,
    totals_one,
    *,
    max_window: float,
    max_iterations: int,
    stop_row=None,
    cells_as_arrays: bool = False,
):
    """2-D masked Kleene iteration: an ``(S, Q)`` matrix of independent
    monotone fixed points advanced as one batch.

    Row ``r`` holds ``len(seeds[r])`` coordinates; cell ``(r, c)``
    starts from ``seeds[r][c]`` (a sound lower bound on its least fixed
    point) and advances through ``horizon <- total`` steps until
    ``total <= horizon``, exactly like the 1-D
    :func:`solve_monotone_fixed_points` — every cell iterates
    independently, so batching across rows never changes any cell's
    horizon sequence and the results stay bit-identical to per-row 1-D
    or cell-at-a-time scalar iteration.

    ``totals_many(cells, horizons)`` evaluates the operator for the
    given ``(row, col)`` cells at the given horizons and returns the
    totals (list or ndarray).  When it raises ``OverflowError`` the
    sweep falls back to ``totals_one(row, col, horizon)`` per cell so
    the offender can be isolated instead of poisoning the batch.

    ``stop_row(row, col, total)`` (optional) is checked on every fresh
    total *before* the convergence test; returning true settles the
    whole row — its remaining cells are masked out of all later sweeps
    (the Def. 10 early exit: one missed deadline decides the
    signature).  Cells of a stopped row keep whatever value/failure
    they had already reached.

    Returns ``(values, iterations, failures, stopped)``: three
    row-major 2-D lists shaped like ``seeds`` (``values[r][c]`` is
    ``None`` where unconverged, ``failures[r][c]`` is ``None`` or a
    string starting with ``"window"``, ``"iterations"`` or
    ``"overflow:"``) plus one ``stopped`` flag per row.

    ``cells_as_arrays=True`` (numpy kernel only) switches the driver's
    bookkeeping to flat int64/float64 arrays and changes the callback
    contracts: ``totals_many(rows, cols, horizons)`` and
    ``stop_row(rows, cols, totals)`` receive parallel ndarrays (and the
    latter returns a boolean ndarray), eliminating the per-cell tuple
    churn of every sweep.  Per-cell semantics — iteration counting,
    convergence and failure tests, the within-sweep row stop (cells of
    a row after its first stopping cell are skipped) — replay the
    legacy loop exactly, so values, iterations, failures and stop
    flags are identical cell for cell.
    """
    if cells_as_arrays:
        return _solve_2d_arrays(
            seeds,
            totals_many,
            totals_one,
            max_window=max_window,
            max_iterations=max_iterations,
            stop_row=stop_row,
        )
    shape = [len(row) for row in seeds]
    values: List[List[Optional[float]]] = [[None] * width for width in shape]
    iterations: List[List[int]] = [[0] * width for width in shape]
    failures: List[List[Optional[str]]] = [[None] * width for width in shape]
    stopped: List[bool] = [False] * len(shape)
    horizons: List[List[float]] = [[float(seed) for seed in row] for row in seeds]
    active: List[Tuple[int, int]] = [
        (r, c) for r, width in enumerate(shape) for c in range(width)
    ]
    while active:
        probe = [horizons[r][c] for r, c in active]
        try:
            totals = totals_many(active, probe)
        except OverflowError:
            totals = []
            still = []
            for (r, c), horizon in zip(active, probe):
                try:
                    totals.append(totals_one(r, c, horizon))
                    still.append((r, c))
                except OverflowError as exc:
                    iterations[r][c] += 1
                    failures[r][c] = f"overflow: {exc}"
            active = still
        next_active = []
        for (r, c), total in zip(active, totals):
            if stopped[r]:
                continue
            total = float(total)
            iterations[r][c] += 1
            if stop_row is not None and stop_row(r, c, total):
                stopped[r] = True
            elif total <= horizons[r][c]:
                values[r][c] = total
            elif total > max_window:
                failures[r][c] = "window"
            elif iterations[r][c] > max_iterations:
                failures[r][c] = "iterations"
            else:
                horizons[r][c] = total
                next_active.append((r, c))
        active = [(r, c) for r, c in next_active if not stopped[r]]
    return values, iterations, failures, stopped


def _solve_2d_arrays(
    seeds,
    totals_many,
    totals_one,
    *,
    max_window: float,
    max_iterations: int,
    stop_row=None,
):
    """Array-cells backend of :func:`solve_monotone_fixed_points_2d`.

    The active set lives as parallel ``rows`` / ``cols`` / ``horizons``
    arrays plus a flat cell id (``offset[row] + col``); every sweep is
    a handful of boolean masks over those arrays instead of a Python
    loop over ``(row, col)`` tuples.
    """
    np = numpy_or_none()
    if np is None:
        raise KernelUnavailable(
            "cells_as_arrays=True requires the numpy kernel"
        )
    shape = [len(row) for row in seeds]
    num_rows = len(shape)
    offsets: List[int] = []
    running = 0
    for width in shape:
        offsets.append(running)
        running += width
    total_cells = running
    values_flat = np.full(total_cells, np.nan)
    iter_flat = np.zeros(total_cells, dtype=np.int64)
    failures_flat: List[Optional[str]] = [None] * total_cells
    stopped = np.zeros(num_rows, dtype=bool)

    rows = np.repeat(np.arange(num_rows, dtype=np.int64), shape)
    cols = np.concatenate(
        [np.arange(width, dtype=np.int64) for width in shape]
    ) if total_cells else np.empty(0, dtype=np.int64)
    ids = np.asarray(offsets, dtype=np.int64)[rows] + cols
    horizons = np.asarray(
        [float(seed) for row in seeds for seed in row], dtype=np.float64
    )

    while rows.size:
        try:
            totals = totals_many(rows, cols, horizons)
        except OverflowError:
            keep_pos: List[int] = []
            fallback: List[float] = []
            for pos in range(rows.size):
                try:
                    fallback.append(
                        totals_one(
                            int(rows[pos]), int(cols[pos]), float(horizons[pos])
                        )
                    )
                    keep_pos.append(pos)
                except OverflowError as exc:
                    iter_flat[ids[pos]] += 1
                    failures_flat[ids[pos]] = f"overflow: {exc}"
            keep = np.asarray(keep_pos, dtype=np.int64)
            rows, cols, ids = rows[keep], cols[keep], ids[keep]
            horizons = horizons[keep]
            totals = fallback
            if not rows.size:
                break
        totals = np.asarray(totals, dtype=np.float64)
        n = rows.size
        processed = np.ones(n, dtype=bool)
        stop_now = np.zeros(n, dtype=bool)
        if stop_row is not None:
            hits = np.asarray(stop_row(rows, cols, totals), dtype=bool)
            if hits.any():
                # Replay the legacy within-sweep order: the first
                # stopping cell of a row settles it and every later
                # cell of that row in this sweep is skipped untouched.
                first = np.full(num_rows, n, dtype=np.int64)
                np.minimum.at(first, rows[hits], np.flatnonzero(hits))
                processed = np.arange(n) <= first[rows]
                stop_now = hits & processed
                stopped[rows[stop_now]] = True
        iter_flat[ids[processed]] += 1
        eligible = processed & ~stop_now
        converged = eligible & (totals <= horizons)
        values_flat[ids[converged]] = totals[converged]
        rest = eligible & ~converged
        window = rest & (totals > max_window)
        rest &= ~window
        exhausted = rest & (iter_flat[ids] > max_iterations)
        for pos in np.flatnonzero(window).tolist():
            failures_flat[ids[pos]] = "window"
        for pos in np.flatnonzero(exhausted).tolist():
            failures_flat[ids[pos]] = "iterations"
        keep = rest & ~exhausted & ~stopped[rows]
        horizons = totals[keep]
        rows, cols, ids = rows[keep], cols[keep], ids[keep]

    values = []
    iterations = []
    failures = []
    for r, width in enumerate(shape):
        lo = offsets[r]
        row_values = values_flat[lo : lo + width].tolist()
        values.append([None if v != v else v for v in row_values])
        iterations.append(iter_flat[lo : lo + width].tolist())
        failures.append(failures_flat[lo : lo + width])
    return values, iterations, failures, stopped.tolist()
