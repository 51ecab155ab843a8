"""Dense complex matrix primitives: spectra, fractional powers, polar parts.

Everything downstream (predicates, pencils, transforms) is built from these
routines, so their tolerance behavior is pinned here.  The hub is
:class:`SpectralSnapshot`: one SVD T / ||T|| = W Sigma V* gives |T|^s,
|T*|^s, the polar factor and the rank, all cut at one rank cutoff, so the
kernel of U always equals the kernel of |T|, and the singular coordinates
C = V*W, whose cached forms (coordinate_power, coordinate_adjoint_power,
coordinate_square, modulus_gap_eig) with Sigma and the spectral radius
are all that classify reads.
Every LAPACK call goes through :func:`svd`, :func:`eigh`,
:func:`eigvalsh` or :func:`eigvals`, which look the routine up on
``np.linalg`` at call time and turn a ``LinAlgError`` into
:class:`ConvergenceFailure`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULT, ToleranceConfig
from .errors import ConvergenceFailure, InvalidParameter, NumericalFailure


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
    """Validate and return a square, finite, C-contiguous complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidParameter(f"expected a square matrix, got shape {a.shape}")
    # the real and imaginary parts interleaved, one n x 2n float64 view
    if not np.isfinite(a.view(np.float64)).all():
        raise InvalidParameter("matrix entries must be finite")
    return a


def adjoint(t: np.ndarray) -> np.ndarray:
    return t.conj().T


def operator_norm(t) -> float:
    """Largest singular value."""
    return float(svd(as_operator(t), compute_uv=False)[0])


def spectral_radius(t) -> float:
    return float(np.max(np.abs(eigvals(as_operator(t)))))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2.0


def finite_power(base: float, e: float, name: str, base_name: str = "||T||") -> float:
    """base ** e for Python floats; a NumericalFailure naming the power and its base when it overflows."""
    try:
        return base**e
    except OverflowError:
        raise NumericalFailure(f"{name} overflows at {base_name} = {base!r}") from None


class SpectralSnapshot:
    """One SVD of T_hat = T / ||T|| and what the predicates derive from it.

    t          the validated matrix T
    norm       ||T||; 0.0 only for the exact zero matrix
    t_hat      T / ||T||; the zero matrix stays zero
    sigma_hat  singular values of t_hat, descending (sigma_hat[0] = 1)
    rank       how many sigma_hat exceed rank_tol.  The others count as
               zero in every power and the polar factor.

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
        self._coordinate_powers: dict = {}
        self._coordinate_adjoint_powers: dict = {}
        self._modulus_gap_eigs: dict = {}
        parts = a.view(np.float64)
        top = float(np.max(np.abs(parts)))
        if top == 0.0:
            self.norm = 0.0
            self.t_hat = np.zeros_like(a)
            self.sigma_hat = np.zeros(n)
            self._w = self._vh = np.eye(n, dtype=np.complex128)
        else:
            e = math.frexp(top)[1]
            scaled = np.ldexp(parts, -e).view(np.complex128)
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
            self._powers[key] = hermitian_part((basis * self._cut**s) @ adjoint(basis))
        return self._powers[key]

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
    def rho_hat(self) -> float:
        """Spectral radius of T_hat (one eigvals call)."""
        return float(np.max(np.abs(eigvals(self.t_hat))))

    @functools.cached_property
    def skew_norm(self) -> float:
        """||T_hat - T_hat*|| = ||C Sigma - Sigma C*||, shared by the self-adjoint family."""
        c, sig = self.coordinates, self.sigma_hat
        return float(svd(c * sig - sig[:, None] * adjoint(c), compute_uv=False)[0])

    def modulus_gap_eig(self, e: float) -> tuple:
        """eigh of the Hermitian part of V*(|T_hat|^e - |T_hat*|^e)V = Sigma_cut^e - C Sigma_cut^e C*.

        Formed once per exponent e; e = 2 is the self-commutator
        T_hat* T_hat - T_hat T_hat*, and x = V y maps a witness back.
        """
        if e not in self._modulus_gap_eigs:
            m = np.diag(self._cut**e) - self.coordinate_adjoint_power(e)
            self._modulus_gap_eigs[e] = eigh(hermitian_part(m))
        return self._modulus_gap_eigs[e]

    @functools.cached_property
    def normality_defect(self) -> float:
        """||T_hat* T_hat - T_hat T_hat*||, from modulus_gap_eig(2.0)."""
        w, _ = self.modulus_gap_eig(2.0)
        return max(abs(float(w[0])), abs(float(w[-1])))

    @functools.cached_property
    def binormality_defect(self) -> float:
        """||[T_hat* T_hat, T_hat T_hat*]|| = ||Sigma^2 M - M Sigma^2|| for M = C Sigma^2 C*, Sigma cut (one SVD)."""
        m, sq = self.coordinate_adjoint_power(2.0), self._cut**2.0
        return float(svd(sq[:, None] * m - m * sq, compute_uv=False)[0])

    @functools.cached_property
    def isometry_defect(self) -> float:
        """||T*T - I|| = max |sigma^2 - 1| over the raw singular values sigma = ||T|| sigma_hat."""
        sig = self.norm * self.sigma_hat
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(sig * sig - 1.0)))

    @functools.cached_property
    def coordinates(self) -> np.ndarray:
        """C = V*W, the singular coordinates: T_hat W = W Sigma C and T_hat V = W Sigma.

        Every form of T_hat that classify reads comes from C and Sigma in
        V's coordinates (see the classes and pencil modules); the last
        n - rank rows of C are N(T)'s, so ||K T_hat|| = ||C[rank:, :] Sigma||
        for K the projector onto N(T).
        """
        return self._vh @ self._w

    def coordinate_power(self, m: int) -> np.ndarray:
        """Y_m = (C Sigma)^(m-1) C (m >= 1), with the uncut sigma_hat.

        With R = Sigma C, T_hat W y = W R y, so T_hat^m's forms in the
        singular coordinates come from Y_m = C R^(m-1).  Y_2 and Y_3 take
        one product with C Sigma each, higher m repeated squaring, so Y_m
        has the same bits whichever caller asks first.  Roundoff that
        overflows a huge power is a ConvergenceFailure.
        """
        if m not in self._coordinate_powers:
            c = self.coordinates
            if m == 1:
                y = c
            elif m <= 3:
                y = (c * self.sigma_hat) @ self.coordinate_power(m - 1)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    y = matrix_power(c * self.sigma_hat, m - 1) @ c
                if not np.isfinite(y).all():
                    raise ConvergenceFailure(f"k-paranormal's T_hat^{m} overflows in roundoff: "
                                             f"(C Sigma)^{m - 1} C is not finite")
            self._coordinate_powers[m] = y
        return self._coordinate_powers[m]

    @functools.cached_property
    def coordinate_square(self) -> np.ndarray:
        """Sigma C Sigma = W* T_hat^2 V, with the uncut sigma_hat: T_hat^2 = W (Sigma C Sigma) V*."""
        sig = self.sigma_hat
        return sig[:, None] * self.coordinates * sig

    def coordinate_adjoint_power(self, e: float) -> np.ndarray:
        """V*|T_hat*|^e V = C Sigma_cut^e C*, formed once per exponent e (a float)."""
        if e not in self._coordinate_adjoint_powers:
            c = self.coordinates
            self._coordinate_adjoint_powers[e] = (c * self._cut**e) @ adjoint(c)
        return self._coordinate_adjoint_powers[e]

    @functools.cached_property
    def orthogonality_defect(self) -> float:
        """||V*V - I||_F + ||W*W - I||_F: how far the coordinates' bases are from orthonormal."""
        eye = np.eye(len(self.sigma_hat))
        return sum(float(np.linalg.norm(adjoint(b) @ b - eye)) for b in (self.right_singular_vectors, self._w))

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
    """T^n (n >= 0) as a new array: numpy's matrix_power, (T T) T up to n = 3, then repeated squaring."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise InvalidParameter(f"matrix power must be a nonnegative integer, got {n!r}")
    a = as_operator(t)
    # numpy hands back its argument itself at n = 1
    return a.copy() if n == 1 else np.linalg.matrix_power(a, int(n))
