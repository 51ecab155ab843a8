"""Batch evaluation of the sphere objective.

    f(x) = Re<x, A x> - Re<x, B x>**gamma        for unit x,

which encodes every inequality of the paranormal family once A, B, and
gamma are chosen by the caller.  The dense oracle scans it over hundreds
of thousands of quasi-random unit vectors; membership decisions
themselves come from pencil.family_certificates, which needs no sphere
search.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation (numpy is the only one)."""
    return "numpy"


def objective_batch(a, b, xs, gamma, b_floor=1e-14):
    """Objective values for a batch of unit row vectors xs (m, n)."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    xs = np.ascontiguousarray(xs, dtype=np.complex128)
    av = np.einsum("ij,ij->i", xs.conj(), xs @ a.T).real
    bv = np.maximum(np.einsum("ij,ij->i", xs.conj(), xs @ b.T).real, 0.0)
    bp = np.where(bv > b_floor, bv ** float(gamma), 0.0)
    return av - bp


def warmup() -> None:
    """Nothing to compile; kept for harnesses that warm up before timing."""
