"""Machine-speed calibration: short fixed probes, timed while a command runs.

The benchmark's host is a shared VM whose speed swings by up to 2x over
seconds to minutes. A wall time alone then measures the host as much as the
program. ``Calibrator`` runs short fixed probes from a ``SIGALRM`` handler
every ``EVERY_S`` seconds of wall time, one kind after another, and every kind
once before and after each command. The kinds stand for what the program is
made of: interpreter arithmetic, small dict and list allocations, small
complex numpy arrays (the power flow) and a small HiGHS LP (the model fits
and the MILP).

``speed`` gives the host's speed over an interval: for each kind, its
reference seconds ``REF_S`` over the weighted median of its probe seconds in
the interval, and the geometric mean of these ratios over the kinds. Each
probe is weighted by the wall time since the probe of its kind before it, so
a stretch in which the signal waited for a long C call counts by its length.
A command's scaled seconds are its wall (or CPU) seconds with the probes' own
time (``own``) taken out, times that speed. They read as the command's
seconds on a host on which each probe takes its ``REF_S``: a slow host
stretches the command and the probes alike and the product stays put, while
a faster program shortens only the command.

The probes are fixed code of this directory, so a change to the program does
not change them. They run on the command's own thread; a program that ran
work on other threads at the same time would slow them with its own load.
This one runs on one thread.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import linprog

EVERY_S = 0.05

_RNG = np.random.default_rng(12345)
_VECS = [_RNG.random(3) + 1j * _RNG.random(3) for _ in range(24)]
_MATS = [_RNG.random((3, 3)) + 1j * _RNG.random((3, 3)) for _ in range(24)]
# An L1 fit of 13 coefficients to 30 samples, as ``cla.fit_cla`` solves them.
_P = _RNG.random((30, 12))
_Y = _P @ _RNG.random(12) + 0.1 * _RNG.random(30)
_LP_C = np.concatenate([np.zeros(13), np.ones(30)])
_LP_A = np.block([[np.ones((30, 1)), _P, -np.eye(30)],
                  [-np.ones((30, 1)), -_P, -np.eye(30)]])
_LP_B = np.concatenate([_Y, -_Y])
_LP_BOUNDS = [(None, None)] * 13 + [(0, None)] * 30


def _interp() -> None:
    acc = 0
    for i in range(8000):
        acc += i * i % 7


def _alloc() -> None:
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = [i] * 3


def _small_arrays() -> None:
    for v, z in zip(_VECS, _MATS):
        cur = np.conj((v * 0.5) / (v + 1.0))
        v_new = v - z @ cur
        float(np.max(np.abs(v_new - v)))
        np.array([v_new[k] for k in range(3)], dtype=complex)


def _lp() -> None:
    res = linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=_LP_BOUNDS, method="highs")
    if res.status != 0:
        raise RuntimeError(f"calibration LP failed: {res.message}")


PROBES: Dict[str, Callable[[], None]] = {
    "interp": _interp, "alloc": _alloc, "small_arrays": _small_arrays, "lp": _lp,
}
KINDS = list(PROBES)
# Reference seconds of each probe: about their medians on the 2-vCPU host
# described in bench/README.md, so that scaled seconds there come near wall
# seconds.
REF_S = {"interp": 0.0007, "alloc": 0.0008, "small_arrays": 0.00035, "lp": 0.0035}


class Calibrator:
    """Times the probes on a wall-clock timer between ``start`` and ``stop``."""

    def __init__(self):
        # Each sample: (kind, wall start, wall seconds, CPU seconds).
        self.samples: List[Tuple[str, float, float, float]] = []
        self._next = 0
        self._old = None

    def _sample(self, kind: str) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        PROBES[kind]()
        self.samples.append((kind, t0, time.perf_counter() - t0, time.process_time() - c0))

    def sample_all(self) -> None:
        """One probe of every kind, now (before and after a timed interval)."""
        for kind in KINDS:
            self._sample(kind)

    def _on_alarm(self, signum, frame) -> None:
        self._sample(KINDS[self._next % len(KINDS)])
        self._next += 1

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    @contextlib.contextmanager
    def paused(self):
        """No probes inside the block, as while a child process runs: on two
        vCPUs the probes would slow it and it would slow them."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def speed(self, t0: float, t1: float) -> float:
        """Host speed from ``t0`` to ``t1``: 1 on the reference host, below 1
        on a slower one.

        Needs a probe of every kind before ``t0`` and after ``t1``.
        """
        logs = []
        for kind in KINDS:
            mine = [s for s in self.samples if s[0] == kind]
            before = [s for s in mine if s[1] < t0]
            inside = [s for s in mine if t0 <= s[1] < t1]
            after = [s for s in mine if s[1] >= t1]
            if not before or not after:
                raise ValueError(f"no {kind} probe before and after the interval")
            points = before[-1:] + inside + after[:1]
            logs.append(math.log(REF_S[kind] / _weighted_median(
                [(b[2], b[1] - a[1]) for a, b in zip(points, points[1:])])))
        return math.exp(sum(logs) / len(logs))

    def own(self, t0: float, t1: float) -> Tuple[float, float]:
        """Wall and CPU seconds the probes took from ``t0`` to ``t1``."""
        inside = [s for s in self.samples if t0 <= s[1] < t1]
        return sum(s[2] for s in inside), sum(s[3] for s in inside)


def _weighted_median(pairs: List[Tuple[float, float]]) -> float:
    """Median of ``(value, weight)`` pairs."""
    pairs = sorted(pairs)
    half, acc = sum(w for _, w in pairs) / 2, 0.0
    for value, w in pairs:
        acc += w
        if acc >= half:
            return value
    return pairs[-1][0]
