"""Polar-type transforms and identity residuals.

The generalized transform of T = U|T| at exponent s is U|T|^s.  Several
exact identities tie it to T itself:

    T |T|^alpha = |T*|^alpha T                       (any alpha > 0)
    |T*|^q = U |T|^q U*                              (any q > 0)
    U|T|^s U|T|^s = T|T|^(s-1) T|T|^(s-1)
                  = |T*|^(s-1) T^2 |T|^(s-1)         (s >= 1)

Every helper takes a matrix or a linalg.SpectralSnapshot of one and reads
T_hat = T / ||T|| from that one snapshot, with |T_hat|^s, |T_hat*|^s and U
from the reference module.  Each identity is homogeneous in T, so its
residual ||lhs(T_hat) - rhs(T_hat)|| is the relative residual of the
identity for T itself: no division, no floor, and the same value wherever
c T sits in the float range.  The exact zero matrix has T_hat = 0
and residual 0.  Every exponent and lambda must be a finite float, and a
power of ||T|| or lambda that overflows is a NumericalFailure naming it.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import DEFAULT, ToleranceConfig
from .errors import InvalidParameter, NonHermitianInput, NotBinormal, NotPositive, NotUnit, PremiseViolated
from .linalg import adjoint, eigh, eigvalsh, finite_power, hermitian_part, matrix_power, operator_norm, snapshot
from .reference import modulus_adjoint_power, modulus_power, polar_factor


@dataclasses.dataclass(frozen=True)
class TransformResult:
    s: float
    matrix: np.ndarray
    residuals: dict


def _positive(x, name: str) -> float:
    """x as a float that is positive and finite, else InvalidParameter naming it."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {x}")
    return x


def generalized_transform(t, s: float, cfg: ToleranceConfig = DEFAULT) -> TransformResult:
    """U|T|^s together with the identity residuals that certify it.

    residuals always contains "polar_q" (the conjugation identity for
    |T*|^s) and adds "trans_equiv" when s >= 1.
    """
    s = _positive(s, "transform exponent")
    snap = snapshot(t, cfg)
    mat = finite_power(snap.norm, s, "||T||^s") * (polar_factor(snap) @ modulus_power(snap, s))
    residuals = {"polar_q": polar_conjugation_residual(snap, s, cfg)}
    if s >= 1.0:
        residuals["trans_equiv"] = trans_equiv_residual(snap, s, cfg)
    return TransformResult(s=s, matrix=mat, residuals=residuals)


def fundamental_identity_residual(t, alpha: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of T |T|^alpha = |T*|^alpha T."""
    alpha = _positive(alpha, "alpha")
    snap = snapshot(t, cfg)
    lhs = snap.t_hat @ modulus_power(snap, alpha)
    return operator_norm(lhs - modulus_adjoint_power(snap, alpha) @ snap.t_hat)


def polar_conjugation_residual(t, q: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of |T*|^q = U |T|^q U*."""
    q = _positive(q, "q")
    snap = snapshot(t, cfg)
    u = polar_factor(snap)
    return operator_norm(modulus_adjoint_power(snap, q) - u @ modulus_power(snap, q) @ adjoint(u))


def trans_equiv_residual(t, s: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Worst pairwise residual among the three expressions for (U|T|^s)^2.

    Valid for s >= 1 (the exponent s - 1 must be nonnegative).
    """
    s = float(s)
    if not 1.0 <= s < math.inf:
        raise InvalidParameter(f"the squared-transform identity needs a finite s >= 1, got {s}")
    snap = snapshot(t, cfg)
    a, mod = snap.t_hat, modulus_power(snap, s - 1.0)
    ts = polar_factor(snap) @ modulus_power(snap, s)
    e1 = ts @ ts
    half = a @ mod
    e2 = half @ half
    e3 = modulus_adjoint_power(snap, s - 1.0) @ (a @ a) @ mod
    return max(operator_norm(e1 - e2), operator_norm(e1 - e3), operator_norm(e2 - e3))


def _power_premises(t, lam: float, power, cfg: ToleranceConfig):
    """Check the premises shared by the power inequalities.

    Validates a positive finite lam and the positive integer power, and
    checks on the snapshot's T_hat that T is binormal (else NotBinormal)
    and that TT* <= lam T*T (else PremiseViolated).  Returns (lam,
    snapshot).
    """
    lam = _positive(lam, "lambda")
    if not (isinstance(power, (int, np.integer)) and power >= 1):
        raise InvalidParameter(f"power must be a positive integer, got {power!r}")
    snap = snapshot(t, cfg)
    if snap.binormality_defect > cfg.eq_rtol:
        raise NotBinormal(f"the power inequalities need a binormal T: ||[T*T, TT*]|| / ||T||^4 = "
                          f"{snap.binormality_defect:.3e} exceeds {cfg.eq_rtol:.1e}")
    a = snap.t_hat
    base_w = eigvalsh(hermitian_part(lam * (adjoint(a) @ a) - a @ adjoint(a)))
    if float(base_w[0]) < -cfg.psd_tol * max(lam, 1.0):
        raise PremiseViolated(f"TT* <= lambda T*T fails: min eigenvalue {base_w[0]:.3e} at lambda={lam}")
    return lam, snap


def _normalized_min_eig(diff: np.ndarray, scale: float, cfg: ToleranceConfig):
    margin = float(eigvalsh(hermitian_part(diff))[0]) / scale
    return margin >= -cfg.psd_tol, margin


def power_inequality_check(t, lam: float, n: int, cfg: ToleranceConfig = DEFAULT):
    """Certify T^n T*^n <= lam^(n^2) T*^n T^n for binormal T with TT* <= lam T*T.

    Returns (decision, margin) where margin is the normalized smallest
    eigenvalue of the difference.  Raises NotBinormal when the moduli do
    not commute and PremiseViolated when the base inequality fails.
    """
    lam, snap = _power_premises(t, lam, n, cfg)
    lam_power = finite_power(lam, float(n * n), "lambda^(n^2)", "lambda")
    an = matrix_power(snap.t_hat, int(n))
    diff = lam_power * (adjoint(an) @ an) - an @ adjoint(an)
    return _normalized_min_eig(diff, max(lam_power, 1.0), cfg)


def intermediate_power_inequality_check(t, lam: float, k: int, cfg: ToleranceConfig = DEFAULT):
    """Certify (TT*)^k <= lam^k (T*T)^k under the same premises."""
    lam, snap = _power_premises(t, lam, k, cfg)
    lam_power = finite_power(lam, float(k), "lambda^k", "lambda")
    a = snap.t_hat
    diff = lam_power * matrix_power(adjoint(a) @ a, int(k)) - matrix_power(a @ adjoint(a), int(k))
    return _normalized_min_eig(diff, max(lam_power, 1.0), cfg)


def holder_mccarthy_check(a_mat, x, alpha: float, cfg: ToleranceConfig = DEFAULT):
    """Verify the convexity inequality for <A^alpha x, x> on a PSD matrix.

    alpha >= 1: <A^alpha x, x> >= <A x, x>^alpha for unit x; for
    0 < alpha <= 1 the inequality reverses.  Returns (decision, gap) with
    gap >= 0 meaning the inequality holds.  Both sides are taken for
    A_hat = A / ||A|| from the snapshot of A, so the gap is normalized by
    ||A||^alpha; eigenvalues of A_hat below rank_tol count as zero.
    """
    alpha = _positive(alpha, "alpha")
    snap = snapshot(a_mat, cfg)
    if snap.skew_norm > cfg.eq_rtol:
        raise NonHermitianInput(
            f"anti-Hermitian part {snap.skew_norm:.3e} of A / ||A|| exceeds {cfg.eq_rtol:.1e}"
        )
    a = snap.t_hat
    w, q = eigh(hermitian_part(a))
    if float(w[0]) < -cfg.psd_tol:
        raise NotPositive("the inequality requires a positive semidefinite matrix")
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != a.shape[0]:
        raise InvalidParameter("vector length does not match the matrix dimension")
    nv = float(np.linalg.norm(v))
    if not abs(nv - 1.0) <= 1e-8:
        raise NotUnit(f"vector norm {nv} is not 1 within 1e-8")
    weights = np.abs(adjoint(q) @ v) ** 2
    lhs = float(weights @ np.where(w < cfg.rank_tol, 0.0, w) ** alpha)
    rhs = max(float(np.real(v.conj() @ (a @ v))), 0.0) ** alpha
    gap = (lhs - rhs) if alpha >= 1.0 else (rhs - lhs)
    return gap >= -cfg.psd_tol, gap


def embry_power_identity(v_mat, n: int, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of V*^n V^n = (V*V)^n (zero for quasinormal V)."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameter(f"power must be a positive integer, got {n!r}")
    snap = snapshot(v_mat, cfg)
    a = snap.t_hat
    an = matrix_power(a, int(n))
    return operator_norm(adjoint(an) @ an - matrix_power(adjoint(a) @ a, int(n)))
