"""Dense complex matrix primitives: spectra, fractional powers, polar parts.

Everything downstream (predicates, pencils, transforms) is built from these
routines, so their tolerance behavior is pinned here.  The hub is
:class:`SpectralSnapshot`: one SVD of T / ||T|| gives |T|^s, |T*|^s, the
polar factor, the rank and the kernel projector, all cut at one rank
cutoff, so the kernel of U always equals the kernel of |T|.  Every LAPACK
call goes through :func:`svd`, :func:`eigh`, :func:`eigvalsh` or
:func:`eigvals`, which look the routine up on ``np.linalg`` at call time
and turn a ``LinAlgError`` into :class:`ConvergenceFailure`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULT, ToleranceConfig
from .errors import ConvergenceFailure, InvalidParameter


def _lapack(name: str, *args, **kwargs):
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{name} did not converge: {exc}") from exc


def svd(m: np.ndarray, compute_uv: bool = True):
    return _lapack("svd", m, compute_uv=compute_uv)


def eigh(h: np.ndarray):
    return _lapack("eigh", h)


def eigvalsh(h: np.ndarray) -> np.ndarray:
    return _lapack("eigvalsh", h)


def eigvals(m: np.ndarray) -> np.ndarray:
    return _lapack("eigvals", m)


def as_operator(m) -> np.ndarray:
    """Validate and return a square, finite complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidParameter(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidParameter("matrix entries must be finite")
    return a


def adjoint(t: np.ndarray) -> np.ndarray:
    return t.conj().T


def operator_norm(t) -> float:
    """Largest singular value."""
    return float(svd(as_operator(t), compute_uv=False)[0])


def spectral_radius(t) -> float:
    return float(np.max(np.abs(eigvals(as_operator(t)))))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2.0


class SpectralSnapshot:
    """One SVD of T_hat = T / ||T|| and what the predicates derive from it.

    t          the validated matrix T
    norm       ||T||; 0.0 only for the exact zero matrix
    t_hat      T / ||T||; the zero matrix stays zero
    sigma_hat  singular values of t_hat, descending (sigma_hat[0] = 1)
    rank       how many sigma_hat exceed rank_tol.  The others count as
               zero in every power, the polar factor and the kernel projector.

    T is first scaled by the exact power of two that puts its largest
    entry in [1/2, 1), so no product formed from t_hat overflows or
    underflows and scale-invariant quantities computed on t_hat do not
    move when T is scaled.  Derived matrices are computed on first use and
    kept for the snapshot's life, which is one call: build it with
    :func:`snapshot` and drop it with the result.
    """

    def __init__(self, t, cfg: ToleranceConfig = DEFAULT):
        a = as_operator(t)
        n = a.shape[0]
        self.t = a
        self.rank_tol = cfg.rank_tol
        self._powers: dict = {}
        top = max(float(np.max(np.abs(a.real))), float(np.max(np.abs(a.imag))))
        if top == 0.0:
            self.norm = 0.0
            self.t_hat = np.zeros_like(a)
            self.sigma_hat = np.zeros(n)
            self._w = self._vh = np.eye(n, dtype=np.complex128)
        else:
            e = math.frexp(top)[1]
            scaled = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
            w, sig, vh = svd(scaled)
            top_sig = float(sig[0])
            # raises OverflowError when ||T|| itself is not representable
            self.norm = math.ldexp(top_sig, e)
            self.t_hat = scaled / top_sig
            self.sigma_hat = sig / top_sig
            self._w, self._vh = w, vh
        self.rank = int(np.count_nonzero(self.sigma_hat > cfg.rank_tol))
        self._cut = np.where(self.sigma_hat > cfg.rank_tol, self.sigma_hat, 0.0)

    def modulus_power(self, s: float) -> np.ndarray:
        """|T_hat|^s = V Sigma^s V* (s >= 0; 0**0 = 1 makes s = 0 the identity)."""
        return self._power(False, float(s))

    def modulus_adjoint_power(self, s: float) -> np.ndarray:
        """|T_hat*|^s = W Sigma^s W*."""
        return self._power(True, float(s))

    def _power(self, adjoint_side: bool, s: float) -> np.ndarray:
        key = (adjoint_side, s)
        if key not in self._powers:
            basis = self._w if adjoint_side else adjoint(self._vh)
            self._powers[key] = _hermitian_part((basis * self._cut**s) @ adjoint(basis))
        return self._powers[key]

    @functools.cached_property
    def modulus_pinv(self) -> np.ndarray:
        """Pseudo-inverse of |T_hat|: V Sigma^+ V* over the kept singular values."""
        inv = np.divide(1.0, self._cut, out=np.zeros_like(self._cut), where=self._cut > 0.0)
        v = adjoint(self._vh)
        return (v * inv) @ self._vh

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """T_hat* T_hat, formed directly."""
        return adjoint(self.t_hat) @ self.t_hat

    @functools.cached_property
    def cogram(self) -> np.ndarray:
        """T_hat T_hat*, formed directly."""
        return self.t_hat @ adjoint(self.t_hat)

    @functools.cached_property
    def polar_factor(self) -> np.ndarray:
        """U = W_r V_r*, zero on the kernel of |T|.

        T = U ||T|| |T_hat| up to rank_tol * ||T||, and the kernels of U and
        |T_hat| agree because both drop the same singular values.
        """
        return self._w[:, :self.rank] @ self._vh[:self.rank, :]

    @functools.cached_property
    def kernel_projector(self) -> np.ndarray:
        """Orthogonal projector onto N(T), the complement of R(T*)."""
        vk = adjoint(self._vh[self.rank:, :])
        return _hermitian_part(vk @ adjoint(vk))

    @functools.cached_property
    def rho_hat(self) -> float:
        """Spectral radius of T_hat (one eigvals call)."""
        return float(np.max(np.abs(eigvals(self.t_hat))))

    @functools.cached_property
    def skew_norm(self) -> float:
        """||T_hat - T_hat*||, shared by the self-adjoint family."""
        return float(svd(self.t_hat - adjoint(self.t_hat), compute_uv=False)[0])

    @functools.cached_property
    def self_commutator_eig(self) -> tuple:
        """Ascending eigenvalues and eigenvectors of T_hat* T_hat - T_hat T_hat*."""
        return eigh(_hermitian_part(self.gram - self.cogram))

    @functools.cached_property
    def normality_defect(self) -> float:
        """||T_hat* T_hat - T_hat T_hat*||, from self_commutator_eig."""
        w, _ = self.self_commutator_eig
        return max(abs(float(w[0])), abs(float(w[-1])))

    @functools.cached_property
    def binormality_defect(self) -> float:
        """||T_hat* T_hat . T_hat T_hat* - T_hat T_hat* . T_hat* T_hat|| (one SVD)."""
        return float(svd(self.gram @ self.cogram - self.cogram @ self.gram, compute_uv=False)[0])

    @property
    def right_singular_vectors(self) -> np.ndarray:
        """V of T_hat = W Sigma V*, as columns."""
        return adjoint(self._vh)

    @property
    def left_singular_vectors(self) -> np.ndarray:
        """W of T_hat = W Sigma V*, as columns."""
        return self._w

    @property
    def cut_singular_values(self) -> np.ndarray:
        """sigma_hat with the values at or below rank_tol set to 0, as every power uses them."""
        return self._cut


def snapshot(t, cfg: ToleranceConfig = DEFAULT) -> SpectralSnapshot:
    """t itself if it is a snapshot with cfg's rank cutoff, else a new snapshot of t."""
    if isinstance(t, SpectralSnapshot):
        if t.rank_tol == cfg.rank_tol:
            return t
        t = t.t
    return SpectralSnapshot(t, cfg)


def power_ranks(t, cfg: ToleranceConfig = DEFAULT):
    """Yield the ranks of T, T^2, T^3, ... without end, each judged against ||T||^k.

    rank(T^k) counts the singular values of T_hat^k above rank_tol, so a
    power that is roundoff in T's scale (T^2 of a square-zero T) has rank
    0 rather than full rank relative to its own norm.
    """
    s = snapshot(t, cfg)
    yield s.rank
    power = s.t_hat
    while True:
        power = power @ s.t_hat
        yield int(np.count_nonzero(svd(power, compute_uv=False) > cfg.rank_tol))


def matrix_power(t, n: int) -> np.ndarray:
    """T^n by repeated multiplication (n >= 0)."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise InvalidParameter(f"matrix power must be a nonnegative integer, got {n!r}")
    a = as_operator(t)
    out = np.eye(a.shape[0], dtype=np.complex128)
    for _ in range(int(n)):
        out = out @ a
    return out
