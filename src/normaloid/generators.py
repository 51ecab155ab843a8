"""Seeded random constructors for matrices inside each operator class.

All randomness flows through numpy's PCG64 bit generator seeded explicitly
(the results files record the generator name via RNG_NAME), so every
generated matrix is reproducible from (class, dimension, seed) alone.
Entries of the base ensemble are standard complex Gaussians,
(x + iy) / sqrt(2) with x, y ~ N(0, 1).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import InvalidParameter
from .linalg import adjoint, as_operator, operator_norm, svd

RNG_NAME = "numpy-PCG64"
# eigenvalue moduli of gen_normal are drawn uniformly from this interval
NORMAL_RADIAL = (0.3, 2.0)
# gen_posinormal redraws until sigma_min > POSINORMAL_MIN_RELATIVE_SV * sigma_max
POSINORMAL_MIN_RELATIVE_SV = 0.05


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _check_dim(n: int) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameter(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def gen_random(n: int, seed) -> np.ndarray:
    """iid standard complex Gaussian entries."""
    n = _check_dim(n)
    return _complex_normal(_rng(seed), (n, n))


def gen_hermitian(n: int, seed) -> np.ndarray:
    """Hermitian matrix (GUE-style symmetrization of a Gaussian draw)."""
    g = gen_random(n, seed)
    return (g + adjoint(g)) / 2.0


def gen_unitary(n: int, seed) -> np.ndarray:
    """Haar unitary via QR with the R-diagonal phase fix."""
    n = _check_dim(n)
    g = _complex_normal(_rng(seed), (n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d = d / np.abs(d)
    return q * d


def gen_normal(n: int, seed) -> np.ndarray:
    """Unitary conjugation of a random complex diagonal.

    Eigenvalue moduli are drawn from NORMAL_RADIAL, phases uniformly.
    """
    n = _check_dim(n)
    rng = _rng(seed)
    w = gen_unitary(n, rng.integers(0, 2**63))
    moduli = rng.uniform(NORMAL_RADIAL[0], NORMAL_RADIAL[1], n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    d = moduli * np.exp(1j * phases)
    return (w * d) @ adjoint(w)


def gen_psd(n: int, seed) -> np.ndarray:
    """G*G for a Gaussian G: positive semidefinite, generically full rank."""
    g = gen_random(n, seed)
    a = adjoint(g) @ g
    return (a + adjoint(a)) / 2.0


def _check_rank(n: int, r: int) -> int:
    if not (isinstance(r, (int, np.integer)) and 0 <= r <= n):
        raise InvalidParameter(f"rank must be an integer in [0, {n}], got {r!r}")
    return int(r)


def gen_partial_isometry(n: int, rank: int, seed) -> np.ndarray:
    """W1 (I_r + 0) W2* for independent Haar factors: generic partial isometry."""
    n = _check_dim(n)
    rank = _check_rank(n, rank)
    rng = _rng(seed)
    w1 = gen_unitary(n, rng.integers(0, 2**63))
    w2 = gen_unitary(n, rng.integers(0, 2**63))
    d = np.zeros(n)
    d[:rank] = 1.0
    return (w1 * d) @ adjoint(w2)


def gen_quasinormal_partial_isometry(n: int, rank: int, seed) -> np.ndarray:
    """W (U_r + 0) W*: a partial isometry commuting with its own modulus."""
    n = _check_dim(n)
    rank = _check_rank(n, rank)
    rng = _rng(seed)
    w = gen_unitary(n, rng.integers(0, 2**63))
    core = np.zeros((n, n), dtype=np.complex128)
    if rank:
        core[:rank, :rank] = gen_unitary(rank, rng.integers(0, 2**63))
    return w @ core @ adjoint(w)


def gen_binormal(n: int, seed, min_sv: float = 0.0) -> np.ndarray:
    """W Pi D W* with D >= 0 diagonal, Pi a phased permutation and W Haar.

    T*T = W D^2 W* and TT* = W Pi D^2 Pi* W* commute because D^2 and
    Pi D^2 Pi* are both diagonal.  A nontrivial permutation with distinct
    weights makes T non-normal; the unitary conjugation hides the sparse
    structure without changing any class membership.  min_sv > 0 forces
    invertibility.
    """
    n = _check_dim(n)
    rng = _rng(seed)
    d = rng.uniform(min_sv, 1.0 + min_sv, n)
    if n == 1:
        perm = np.arange(n)
    else:
        perm = rng.permutation(n)
        if np.all(perm == np.arange(n)):
            perm = np.roll(np.arange(n), 1)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    pi = np.zeros((n, n), dtype=np.complex128)
    pi[perm, np.arange(n)] = phases
    w = gen_unitary(n, rng.integers(0, 2**63))
    return w @ (pi * d) @ adjoint(w)


def gen_normaloid(n: int, seed) -> np.ndarray:
    """Norm-attaining eigenvalue glued to a generic block.

    diag(||A|| e^(i theta)) + A has spectral radius equal to its norm but a
    generically non-normal action, then a Haar conjugation mixes the basis.
    """
    n = _check_dim(n)
    rng = _rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    if n == 1:
        c = rng.uniform(0.3, 2.0)
        return np.array([[c * np.exp(1j * theta)]], dtype=np.complex128)
    a = _complex_normal(rng, (n - 1, n - 1))
    c = operator_norm(a)
    t = np.zeros((n, n), dtype=np.complex128)
    t[0, 0] = c * np.exp(1j * theta)
    t[1:, 1:] = a
    w = gen_unitary(n, rng.integers(0, 2**63))
    return w @ t @ adjoint(w)


def gen_posinormal(n: int, seed) -> np.ndarray:
    """Well-conditioned invertible Gaussian draw (invertible => posinormal)."""
    n = _check_dim(n)
    rng = _rng(seed)
    for _ in range(64):
        g = _complex_normal(rng, (n, n))
        sig = svd(g, compute_uv=False)
        if sig[-1] > POSINORMAL_MIN_RELATIVE_SV * sig[0]:
            return g
    # append a ridge as a deterministic last resort
    return g + 2.0 * POSINORMAL_MIN_RELATIVE_SV * sig[0] * np.eye(n, dtype=np.complex128)


def gen_nilpotent(n: int, seed) -> np.ndarray:
    """Unitary conjugation of a strictly upper triangular Gaussian draw."""
    n = _check_dim(n)
    rng = _rng(seed)
    g = np.triu(_complex_normal(rng, (n, n)), k=1)
    w = gen_unitary(n, rng.integers(0, 2**63))
    return w @ g @ adjoint(w)


def gen_scalar_power_root(n: int, power: int, seed, normal: bool = True,
                          cond: float = 3.0) -> np.ndarray:
    """Matrix T with T^power = c I for a seeded scalar c, |c| in [0.5, 2).

    Eigenvalues are power-th roots of c (at least two distinct branches
    whenever n > 1).  normal=True conjugates the diagonal by a unitary
    (T normal, hence normaloid); normal=False uses an invertible
    similarity with condition number near cond, which destroys normality
    and the norm-radius equality while keeping T^power scalar.
    """
    n = _check_dim(n)
    if not (isinstance(power, (int, np.integer)) and power >= 1):
        raise InvalidParameter(f"power must be a positive integer, got {power!r}")
    rng = _rng(seed)
    scalar = complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    root = abs(scalar) ** (1.0 / power)
    base_arg = np.angle(scalar) / power
    branches = rng.integers(0, power, n)
    if n > 1 and power > 1 and len(set(branches.tolist())) == 1:
        branches[0] = (branches[0] + 1) % power
    eigs = root * np.exp(1j * (base_arg + 2.0 * np.pi * branches / power))
    if normal:
        w = gen_unitary(n, rng.integers(0, 2**63))
        return (w * eigs) @ adjoint(w)
    w1 = gen_unitary(n, rng.integers(0, 2**63))
    w2 = gen_unitary(n, rng.integers(0, 2**63))
    sv = np.logspace(0.0, np.log10(cond), n)
    s = (w1 * sv) @ adjoint(w2)
    return s @ np.diag(eigs) @ np.linalg.inv(s)


_SIMPLE = {
    "random": gen_random,
    "hermitian": gen_hermitian,
    "unitary": gen_unitary,
    "normal": gen_normal,
    "psd": gen_psd,
    "binormal": gen_binormal,
    "normaloid": gen_normaloid,
    "posinormal": gen_posinormal,
    "nilpotent": gen_nilpotent,
}

_RANKED = {
    "partial-isometry": gen_partial_isometry,
    "quasinormal-partial-isometry": gen_quasinormal_partial_isometry,
}

GENERATOR_CLASSES = tuple(sorted(_SIMPLE) + sorted(_RANKED))


def generate(class_id: str, n: int, seed, rank: Optional[int] = None) -> np.ndarray:
    """A member of generator class class_id; rank only for the partial-isometry classes."""
    n = _check_dim(n)
    if class_id in _SIMPLE:
        if rank is not None:
            raise InvalidParameter(f"class {class_id!r} does not take a rank")
        return as_operator(_SIMPLE[class_id](n, seed))
    if class_id in _RANKED:
        r = rank if rank is not None else max(n // 2, 1)
        return as_operator(_RANKED[class_id](n, _check_rank(n, r), seed))
    raise InvalidParameter(
        f"unknown generator class {class_id!r}; expected one of {GENERATOR_CLASSES}"
    )
