"""Dense complex matrix primitives: spectra, fractional powers, polar parts.

Everything downstream (predicates, pencils, transforms) is built from these
routines, so their tolerance behavior is pinned here.  The hub is
:class:`SpectralSnapshot`: one SVD of T / ||T|| gives |T|^s, |T*|^s, the
polar factor, the rank and the range and kernel projectors, all cut at one
rank cutoff, so the kernel of U always equals the kernel of |T|.  Hermitian
inputs to the eigen routines are validated then symmetrized, and PSD powers
clamp eigenvalues below the rank cutoff before powering.  Every LAPACK call
goes through :func:`svd`, :func:`eigh`, :func:`eigvalsh` or :func:`eigvals`,
which look the routine up on ``np.linalg`` at call time and turn a
``LinAlgError`` into :class:`ConvergenceFailure`.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import ABS_FLOOR, DEFAULT, ToleranceConfig
from .errors import ConvergenceFailure, InvalidParameter, NonHermitianInput, NotPositive


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


def rel_scale(t: np.ndarray) -> float:
    """Comparison scale: operator norm floored away from zero."""
    return max(operator_norm(t), ABS_FLOOR)


def general_eigenvalues(t) -> np.ndarray:
    """All n eigenvalues (with multiplicity), sorted by (real, imag)."""
    w = eigvals(as_operator(t))
    order = np.lexsort((w.imag, w.real))
    return w[order]


def spectral_radius(t) -> float:
    return float(np.max(np.abs(general_eigenvalues(t))))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2.0


class SpectralSnapshot:
    """One SVD of T_hat = T / ||T|| and what the predicates derive from it.

    t          the validated matrix T
    norm       ||T||; 0.0 only for the exact zero matrix
    t_hat      T / ||T||; the zero matrix stays zero
    sigma_hat  singular values of t_hat, descending (sigma_hat[0] = 1)
    rank       how many sigma_hat exceed rank_tol.  The others count as
               zero in every power, the polar factor and the projectors.

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
        """U = W_r V_r*, zero on the kernel of |T|."""
        return self._w[:, :self.rank] @ self._vh[:self.rank, :]

    @functools.cached_property
    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto R(T)."""
        wr = self._w[:, :self.rank]
        return _hermitian_part(wr @ adjoint(wr))

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

    @property
    def right_singular_vectors(self) -> np.ndarray:
        """V of T_hat = W Sigma V*, as columns."""
        return adjoint(self._vh)


def snapshot(t, cfg: ToleranceConfig = DEFAULT) -> SpectralSnapshot:
    """t itself if it is a snapshot with cfg's rank cutoff, else a new snapshot of t."""
    if isinstance(t, SpectralSnapshot):
        if t.rank_tol == cfg.rank_tol:
            return t
        t = t.t
    return SpectralSnapshot(t, cfg)


@dataclasses.dataclass(frozen=True)
class HermitianEigen:
    """Ascending eigenvalues and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_hermitian(a: np.ndarray, cfg: ToleranceConfig, what: str) -> np.ndarray:
    """Check near-Hermitianness and return the symmetrized matrix."""
    asym = operator_norm(a - adjoint(a))
    if asym > cfg.eq_rtol * rel_scale(a):
        raise NonHermitianInput(
            f"{what}: anti-Hermitian part {asym:.3e} exceeds "
            f"{cfg.eq_rtol:.1e} * scale {rel_scale(a):.3e}"
        )
    return _hermitian_part(a)


def hermitian_eig(a, cfg: ToleranceConfig = DEFAULT) -> HermitianEigen:
    """Eigendecomposition of a (tolerantly) Hermitian matrix."""
    w, q = eigh(_require_hermitian(as_operator(a), cfg, "hermitian_eig"))
    return HermitianEigen(w, q)


def psd_power(a, alpha: float, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """Fractional power A^alpha of a PSD matrix via its eigensystem.

    Eigenvalues below rank_tol * ||A|| are clamped to zero before powering;
    eigenvalues below -psd_tol * ||A|| raise NotPositive.  Powers of T*T
    and TT* come from :class:`SpectralSnapshot` instead, which cuts
    singular values, not their squares, at rank_tol.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise InvalidParameter(f"power must be positive, got {alpha}")
    eig = hermitian_eig(a, cfg)
    w, q = eig.eigenvalues, eig.eigenvectors
    scale = max(float(np.max(np.abs(w))), ABS_FLOOR)
    if float(w[0]) < -cfg.psd_tol * scale:
        raise NotPositive(
            f"matrix has eigenvalue {w[0]:.6e} below -psd_tol * {scale:.3e}"
        )
    w = np.where(w < cfg.rank_tol * scale, 0.0, w)
    powered = w**alpha
    return _hermitian_part((q * powered) @ q.conj().T)


def modulus(t, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """|T| = (T*T)^(1/2), from the SVD of T for small-singular-value accuracy."""
    return modulus_power(t, 1.0, cfg)


def modulus_adjoint(t, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """|T*| = (TT*)^(1/2)."""
    snap = snapshot(t, cfg)
    return snap.norm * snap.modulus_adjoint_power(1.0)


def modulus_power(t, s: float, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """|T|^s for s >= 0: ||T||^s times the snapshot's |T_hat|^s.

    Singular values at or below rank_tol * sigma_max count as zero (0**0
    evaluates to 1, so s = 0 gives the identity, which is the convention
    making T |T|^(s-1) = U |T|^s at s = 1 exact).
    """
    s = float(s)
    if s < 0.0:
        raise InvalidParameter(f"modulus power must be nonnegative, got {s}")
    snap = snapshot(t, cfg)
    return snap.norm**s * snap.modulus_power(s)


@dataclasses.dataclass(frozen=True)
class PolarDecomposition:
    """T = U P with P = |T| PSD and U a partial isometry, N(U) = N(P)."""

    u: np.ndarray
    p: np.ndarray
    rank: int


def polar_decompose(t, cfg: ToleranceConfig = DEFAULT) -> PolarDecomposition:
    """Canonical polar decomposition from the snapshot's SVD.

    U = W_r V_r* keeps only singular directions above rank_tol * sigma_max,
    and P zeroes the same singular values, so ||U P - T|| <= rank_tol * ||T||
    and the two kernels agree by construction.
    """
    snap = snapshot(t, cfg)
    return PolarDecomposition(snap.polar_factor, snap.norm * snap.modulus_power(1.0), snap.rank)


def is_psd(m, cfg: ToleranceConfig = DEFAULT, scale: float | None = None):
    """(decision, margin) for positive semidefiniteness of a Hermitian matrix.

    margin = lambda_min / max(scale, floor); scale defaults to ||M||.
    """
    eig = hermitian_eig(m, cfg)
    w = eig.eigenvalues
    denom = max(float(np.max(np.abs(w))) if scale is None else float(scale), ABS_FLOOR)
    margin = float(w[0]) / denom
    return margin >= -cfg.psd_tol, margin


def rank(t, cfg: ToleranceConfig = DEFAULT) -> int:
    """Number of singular values above rank_tol * sigma_max.

    A matrix with ||T|| <= ABS_FLOOR has rank 0: the property suites
    compare rank(T^2) with rank(T), and T^2 of a nilpotent T is roundoff
    that would otherwise have full rank relative to its own norm.
    """
    snap = snapshot(t, cfg)
    return snap.rank if snap.norm > ABS_FLOOR else 0


def kernel_projector(t, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """Orthogonal projector onto N(T)."""
    return snapshot(t, cfg).kernel_projector


def range_projector(t, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """Orthogonal projector onto R(T)."""
    return snapshot(t, cfg).range_projector


def matrix_power(t, n: int) -> np.ndarray:
    """T^n by repeated multiplication (n >= 0)."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise InvalidParameter(f"matrix power must be a nonnegative integer, got {n!r}")
    a = as_operator(t)
    out = np.eye(a.shape[0], dtype=np.complex128)
    for _ in range(int(n)):
        out = out @ a
    return out
