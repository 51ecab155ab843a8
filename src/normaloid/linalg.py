"""Dense complex matrix primitives and the decider's per-matrix cache.

Everything downstream (predicates, pencils, transforms) is built from these
routines, so their tolerance behavior is pinned here.  The hub is
:class:`SpectralSnapshot`: one SVD T / ||T|| = W Sigma V* gives the rank,
the singular values cut at one rank cutoff and the singular coordinates
C = V*W, whose cached forms (coordinate_power, coordinate_adjoint_power,
coordinate_square, modulus_gap_eig, normaloid_radius) with Sigma are all
that classify reads.  The reference forms |T|^s, |T*|^s and the polar
factor U are built from the same V, W and cut Sigma in the reference
module, so the kernel of U always equals the kernel of |T|.  Each
eigensolve computes only what a verdict reads: a semidefinite margin
takes eigvalsh, the norm of a skew-Hermitian K eigvalsh of 1j K,
normaloid one eigvals of C's top-cluster block, and T_hat's own eigvals
only when that block does not decide it.
Every LAPACK call goes through :func:`svd`, :func:`eigh`,
:func:`eigvalsh` or :func:`eigvals`, which look the routine up on
``np.linalg`` at call time and turn a ``LinAlgError`` into
:class:`ConvergenceFailure`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULT, MARGINAL_FACTOR, ToleranceConfig
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


def skew_hermitian_norm(k: np.ndarray) -> float:
    """||K|| for K skew-Hermitian up to roundoff: max |lambda| of eigvalsh(1j * K), on the exactly skew-Hermitian (K - K*) / 2.

    1j * K is Hermitian with K's singular values as its eigenvalues'
    moduli, and eigvalsh reads one triangle of it, so K's part outside
    the skew-Hermitian matrices is dropped first, not read half-way.
    """
    w = eigvalsh(1j * ((k - adjoint(k)) / 2.0))
    return max(abs(float(w[0])), abs(float(w[-1])))


# a top-cluster eigenpair (lam, x) of T_hat decides normaloid when
# ||T_hat x - lam x|| is at most this many n eps
EIGENPAIR_GATE = 256.0


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
               zero in every power (cut_singular_values).

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
        self._coordinate_powers: dict = {}
        self._coordinate_adjoint_powers: dict = {}
        self._modulus_gap_eigs: dict = {}
        self._modulus_gap_margins: dict = {}
        self._normaloid_radii: dict = {}
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

    @functools.cached_property
    def rho_hat(self) -> float:
        """Spectral radius of T_hat (one eigvals call)."""
        return float(np.max(np.abs(eigvals(self.t_hat))))

    def normaloid_radius(self, eq_rtol: float) -> tuple:
        """(rho, eigenpair): T_hat's spectral radius as normaloid reads it, with the eigenpair (lam, x) behind it or None.

        On the top cluster sigma_hat >= 1 - eq_rtol, of k indices, the
        block V_1* T_hat V_1 = C_11 Sigma_1 of C Sigma is read at its
        eigenvalue lam of largest modulus: C_00 when k = 1, with no LAPACK
        call, else one eigvals of the k x k block and its null vector y of
        C_11 Sigma_1 - lam I by one svd.  lam = x* T_hat x at the unit
        x = V_1 y, so w(T_hat) >= |lam|.  When |lam| >= 1 - eq_rtol and
        ||T_hat x - lam x|| <= EIGENPAIR_GATE n eps, lam is an eigenvalue
        of T_hat to that backward error, and rho = |lam| with (lam, x);
        any other T_hat, the zero matrix included, gets rho_hat and None.
        Kept per eq_rtol.
        """
        if eq_rtol not in self._normaloid_radii:
            pair = self._top_cluster_eigenpair(eq_rtol)
            self._normaloid_radii[eq_rtol] = (abs(pair[0]), pair) if pair else (self.rho_hat, None)
        return self._normaloid_radii[eq_rtol]

    def _top_cluster_eigenpair(self, eq_rtol: float):
        """normaloid_radius's (lam, x) from the top-cluster block, or None when the block does not decide."""
        n = len(self.sigma_hat)
        k = int(np.count_nonzero(self.sigma_hat >= 1.0 - eq_rtol))
        if k == 0:
            return None
        block = self.coordinates[:k, :k] * self.sigma_hat[:k]
        values = block[0] if k == 1 else eigvals(block)
        lam = complex(values[np.argmax(np.abs(values))])
        if abs(lam) < 1.0 - eq_rtol:
            return None
        y = np.ones(1) if k == 1 else svd(block - lam * np.eye(k))[2][-1].conj()
        x = self.right_singular_vectors[:, :k] @ y
        if not np.linalg.norm(self.t_hat @ x - lam * x) <= EIGENPAIR_GATE * n * np.finfo(float).eps:
            return None
        return lam, x

    @functools.cached_property
    def skew_norm(self) -> float:
        """||T_hat - T_hat*|| = ||C Sigma - Sigma C*||, shared by the self-adjoint family."""
        c, sig = self.coordinates, self.sigma_hat
        return skew_hermitian_norm(c * sig - sig[:, None] * adjoint(c))

    def modulus_gap_eig(self, e: float) -> tuple:
        """(w, h): h the Hermitian part of V*(|T_hat|^e - |T_hat*|^e)V = Sigma_cut^e - C Sigma_cut^e C*, w its eigvalsh.

        Formed once per exponent e; e = 2 is the self-commutator
        T_hat* T_hat - T_hat T_hat*, and x = V y maps a witness back.
        """
        if e not in self._modulus_gap_eigs:
            h = hermitian_part(np.diag(self._cut**e) - self.coordinate_adjoint_power(e))
            self._modulus_gap_eigs[e] = eigvalsh(h), h
        return self._modulus_gap_eigs[e]

    def modulus_gap_margin(self, e: float, psd_tol: float) -> tuple:
        """psd_margin of modulus_gap_eig(e), searched once per exponent and psd_tol.

        Hyponormal and p-hyponormal at p = 1 both read e = 2.  Each call
        gets its own witness dict and vector.
        """
        key = (e, psd_tol)
        if key not in self._modulus_gap_margins:
            self._modulus_gap_margins[key] = self.psd_margin(*self.modulus_gap_eig(e), psd_tol)
        margin, witness = self._modulus_gap_margins[key]
        return margin, witness and {**witness, "vector": witness["vector"].copy()}

    def psd_margin(self, w: np.ndarray, h: np.ndarray, psd_tol: float) -> tuple:
        """(margin, witness dict) of lambda_min(h) for h = V*MV Hermitian and w its eigvalsh.

        V is unitary, so h has M's eigenvalues.  A refuted margin's witness
        is the column x of [V W] with the lowest x*Mx when that value is at
        most -MARGINAL_FACTOR psd_tol, as the family's "snapshot-basis-refuted"
        rule reads its columns; else the bottom eigenvector y of one eigh of
        h, mapped to x = V y.  The witness's value is x*Mx at x.
        """
        margin = float(w[0])
        if margin >= -psd_tol:
            return margin, None
        values = self.basis_column_values(h)
        j = int(np.argmin(values))
        if values[j] <= -MARGINAL_FACTOR * psd_tol:
            return margin, {"vector": self.basis_columns[:, j].copy(), "value": float(values[j])}
        lam, q = eigh(h)
        return margin, {"vector": self.right_singular_vectors @ q[:, 0], "value": float(lam[0])}

    def basis_column_values(self, h: np.ndarray) -> np.ndarray:
        """x*Mx at the 2n columns x of basis_columns, for h = V*MV: diag(h), then diag(C* h C) as W = V C."""
        c = self.coordinates
        return np.concatenate((h.diagonal().real, np.einsum("ij,ij->j", c.conj(), h @ c).real))

    @functools.cached_property
    def basis_columns(self) -> np.ndarray:
        """[V W], the 2n columns at which refuted verdicts look for a witness first."""
        return np.hstack((self.right_singular_vectors, self._w))

    @functools.cached_property
    def normality_defect(self) -> float:
        """||T_hat* T_hat - T_hat T_hat*||, from modulus_gap_eig(2.0)'s eigenvalues."""
        w, _ = self.modulus_gap_eig(2.0)
        return max(abs(float(w[0])), abs(float(w[-1])))

    @functools.cached_property
    def binormality_defect(self) -> float:
        """||[T_hat* T_hat, T_hat T_hat*]|| = ||Sigma^2 M - M Sigma^2|| for M = C Sigma^2 C*, Sigma cut.

        The commutator of two Hermitian matrices is skew-Hermitian; M is
        Hermitian only to roundoff, which skew_hermitian_norm's
        (K - K*) / 2 removes.
        """
        m, sq = self.coordinate_adjoint_power(2.0), self._cut**2.0
        return skew_hermitian_norm(sq[:, None] * m - m * sq)

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

    @functools.cached_property
    def right_singular_vectors(self) -> np.ndarray:
        """V of T_hat = W Sigma V*, as columns: formed once, read-only."""
        v = adjoint(self._vh)
        v.flags.writeable = False
        return v

    @property
    def left_singular_vectors(self) -> np.ndarray:
        """W of T_hat = W Sigma V*, as columns."""
        return self._w

    @property
    def cut_singular_values(self) -> np.ndarray:
        """sigma_hat with the values at or below rank_tol set to 0, as every power and U use them."""
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
