"""A fixed CPU workload, timed beside the program to read the host's speed.

The shared host's CPU speed drifts by up to 1.8x, in phases from under a
second to minutes, so a wall time of the same work moves with the moment it
was taken.  The benchmark times this kernel during and around the
program's calls, in the same process (``Sampler``), and reports each time
scaled to the host speed at which the kernel takes ``REF_S`` seconds:

    scaled = wall * REF_S / (mean kernel time during and around it)

The kernel mixes what the program's layers do: small complex products and
reductions in a Python loop (like ``kernels``), LAPACK SVDs and
eigenvalue solves (``linalg``), and a JSON round trip (``cli``,
``matrixio``).  It imports nothing from the package, so no change to the
program changes it.
"""
from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

# seconds the kernel takes at the reference speed: its median on a 2-core
# shared host in a calm spell; a constant, so it sets only the unit
REF_S = 0.027

_rng = np.random.default_rng(20260218)
_M = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_X = _rng.standard_normal((16, 8)) + 1j * _rng.standard_normal((16, 8))
_A = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_H = _A + _A.conj().T
_DOC = {"rows": [[float(v) for v in row] for row in _rng.standard_normal((40, 40))]}


def kernel() -> float:
    """One pass of the fixed work; the return value keeps it from being elided."""
    acc = 0.0
    x = _X
    for _ in range(960):
        mx = _M @ x
        f = np.einsum("ij,ij->j", x.conj(), mx).real
        x = mx / np.sqrt(np.einsum("ij,ij->j", mx.conj(), mx).real)
        acc += float(f[0])
    for _ in range(24):
        acc += float(np.linalg.svd(_A, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(_H)[0])
    for _ in range(3):
        acc += len(json.loads(json.dumps(_DOC))["rows"])
    return acc


def time_kernel() -> float:
    """Wall seconds of one pass of ``kernel``."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(kernel_times) -> float:
    """Factor from wall seconds to seconds at the reference speed, for an
    interval during and around which the kernel took ``kernel_times``."""
    return REF_S / statistics.fmean(kernel_times)


class Sampler:
    """Times the kernel on demand (``sample``) and, between ``start`` and
    ``stop``, every ``every_s`` wall seconds from a SIGALRM handler.

    The handler runs between two bytecodes of whatever the main thread is
    doing, the program's call included.  ``times`` holds every kernel time
    in the order taken; ``paused`` is the wall time spent taking them, which
    the caller subtracts from any interval a sample interrupted.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.times: list = []
        self.paused = 0.0
        self._busy = False

    def sample(self, keep: bool = True) -> None:
        """Time one pass of the kernel; ``keep=False`` counts it as paused
        time only (a first, cold pass)."""
        if self._busy:  # an alarm during a sample: skip it, do not nest
            return
        self._busy = True
        start = time.perf_counter()
        try:
            t = time_kernel()
            if keep:
                self.times.append(t)
        finally:
            self.paused += time.perf_counter() - start
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
