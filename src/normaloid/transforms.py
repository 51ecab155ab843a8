"""Polar-type transforms and identity residuals.

The generalized transform of T = U|T| at exponent s is U|T|^s.  Several
exact identities tie it to T itself:

    T |T|^alpha = |T*|^alpha T                       (any alpha > 0)
    |T*|^q = U |T|^q U*                              (any q > 0)
    U|T|^s U|T|^s = T|T|^(s-1) T|T|^(s-1)
                  = |T*|^(s-1) T^2 |T|^(s-1)         (s >= 1)

Residuals here are relative: ||lhs - rhs|| / max(||T||^degree, floor) with
the homogeneity degree of the identity, so they are scale invariant and
comparable across matrices.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .config import ABS_FLOOR, DEFAULT, ToleranceConfig
from .errors import InvalidParameter, NotBinormal, NotPositive, NotUnit, PremiseViolated
from .linalg import (
    adjoint,
    as_operator,
    eigvalsh,
    hermitian_eig,
    matrix_power,
    modulus_power,
    operator_norm,
    polar_decompose,
    psd_power,
)


def _rel(diff: np.ndarray, t: np.ndarray, degree: float) -> float:
    return operator_norm(diff) / max(operator_norm(t) ** degree, ABS_FLOOR)


@dataclasses.dataclass(frozen=True)
class TransformResult:
    s: float
    matrix: np.ndarray
    residuals: dict


def generalized_transform(t, s: float, cfg: ToleranceConfig = DEFAULT) -> TransformResult:
    """U|T|^s together with the identity residuals that certify it.

    residuals always contains "polar_q" (the conjugation identity for
    |T*|^s) and adds "trans_equiv" when s >= 1.
    """
    s = float(s)
    if not s > 0.0:
        raise InvalidParameter(f"transform exponent must be positive, got {s}")
    a = as_operator(t)
    pd = polar_decompose(a, cfg)
    mat = pd.u @ modulus_power(a, s, cfg)
    residuals = {"polar_q": polar_conjugation_residual(a, s, cfg)}
    if s >= 1.0:
        residuals["trans_equiv"] = trans_equiv_residual(a, s, cfg)
    return TransformResult(s=s, matrix=mat, residuals=residuals)


def fundamental_identity_residual(t, alpha: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of T |T|^alpha = |T*|^alpha T."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    a = as_operator(t)
    lhs = a @ modulus_power(a, alpha, cfg)
    rhs = modulus_power(adjoint(a), alpha, cfg) @ a
    return _rel(lhs - rhs, a, 1.0 + alpha)


def polar_conjugation_residual(t, q: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of |T*|^q = U |T|^q U*."""
    q = float(q)
    if not q > 0.0:
        raise InvalidParameter(f"q must be positive, got {q}")
    a = as_operator(t)
    pd = polar_decompose(a, cfg)
    lhs = modulus_power(adjoint(a), q, cfg)
    rhs = pd.u @ modulus_power(a, q, cfg) @ adjoint(pd.u)
    return _rel(lhs - rhs, a, q)


def trans_equiv_residual(t, s: float, cfg: ToleranceConfig = DEFAULT) -> float:
    """Worst pairwise residual among the three expressions for (U|T|^s)^2.

    Valid for s >= 1 (the exponent s - 1 must be nonnegative).
    """
    s = float(s)
    if s < 1.0:
        raise InvalidParameter(f"the squared-transform identity needs s >= 1, got {s}")
    a = as_operator(t)
    pd = polar_decompose(a, cfg)
    ts = pd.u @ modulus_power(a, s, cfg)
    e1 = ts @ ts
    half = a @ modulus_power(a, s - 1.0, cfg)
    e2 = half @ half
    e3 = modulus_power(adjoint(a), s - 1.0, cfg) @ (a @ a) @ modulus_power(a, s - 1.0, cfg)
    deg = 2.0 * s
    return max(_rel(e1 - e2, a, deg), _rel(e1 - e3, a, deg), _rel(e2 - e3, a, deg))


def _power_premises(t, lam: float, power, cfg: ToleranceConfig, not_binormal: str, premise_fails: str):
    """Check the premises shared by the power inequalities.

    Validates lam > 0 and the positive integer power, scales T to unit
    norm, and checks that T is binormal (else NotBinormal(not_binormal))
    and that TT* <= lam T*T (else PremiseViolated with premise_fails
    formatted with the smallest eigenvalue w and lam).  Returns
    (lam, T / ||T||, T*T, TT*) of the scaled matrix.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise InvalidParameter(f"lambda must be positive, got {lam}")
    if not (isinstance(power, (int, np.integer)) and power >= 1):
        raise InvalidParameter(f"power must be a positive integer, got {power!r}")
    a = as_operator(t)
    nrm = operator_norm(a)
    if nrm > ABS_FLOOR:
        a = a / nrm
    tt = adjoint(a) @ a
    tts = a @ adjoint(a)
    if operator_norm(tt @ tts - tts @ tt) > cfg.eq_rtol:
        raise NotBinormal(not_binormal)
    base = lam * tt - tts
    base_w = eigvalsh((base + adjoint(base)) / 2.0)
    if float(base_w[0]) < -cfg.psd_tol * max(lam, 1.0):
        raise PremiseViolated(premise_fails.format(w=base_w[0], lam=lam))
    return lam, a, tt, tts


def _normalized_min_eig(diff: np.ndarray, scale: float, cfg: ToleranceConfig):
    margin = float(eigvalsh((diff + adjoint(diff)) / 2.0)[0]) / scale
    return margin >= -cfg.psd_tol, margin


def power_inequality_check(t, lam: float, n: int, cfg: ToleranceConfig = DEFAULT):
    """Certify T^n T*^n <= lam^(n^2) T*^n T^n for binormal T with TT* <= lam T*T.

    Returns (decision, margin) where margin is the normalized smallest
    eigenvalue of the difference.  Raises NotBinormal when the moduli do
    not commute and PremiseViolated when the base inequality fails.
    """
    lam, a, _, _ = _power_premises(
        t, lam, n, cfg,
        "power inequality is only certified for binormal matrices",
        "TT* <= lambda T*T fails: min eigenvalue {w:.3e} at lambda={lam}",
    )
    an = matrix_power(a, int(n))
    diff = lam ** float(n * n) * (adjoint(an) @ an) - an @ adjoint(an)
    return _normalized_min_eig(diff, max(lam ** float(n * n), 1.0), cfg)


def intermediate_power_inequality_check(t, lam: float, k: int, cfg: ToleranceConfig = DEFAULT):
    """Certify (TT*)^k <= lam^k (T*T)^k under the same premises."""
    lam, _, tt, tts = _power_premises(
        t, lam, k, cfg,
        "intermediate power inequality needs a binormal matrix",
        "TT* <= lambda T*T fails",
    )
    diff = lam ** float(k) * psd_power(tt, float(k), cfg) - psd_power(tts, float(k), cfg)
    return _normalized_min_eig(diff, max(lam ** float(k), 1.0), cfg)


def holder_mccarthy_check(a_mat, x, alpha: float, cfg: ToleranceConfig = DEFAULT):
    """Verify the convexity inequality for <A^alpha x, x> on a PSD matrix.

    alpha >= 1: <A^alpha x, x> >= <A x, x>^alpha for unit x; for
    0 < alpha <= 1 the inequality reverses.  Returns (decision, gap) with
    gap >= 0 meaning the inequality holds (normalized by ||A||^alpha).
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    a = as_operator(a_mat)
    eig = hermitian_eig(a, cfg)  # raises NonHermitianInput as needed
    top = max(float(np.max(np.abs(eig.eigenvalues))), ABS_FLOOR)
    if float(eig.eigenvalues[0]) < -cfg.psd_tol * top:
        raise NotPositive("the inequality requires a positive semidefinite matrix")
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != a.shape[0]:
        raise InvalidParameter("vector length does not match the matrix dimension")
    nv = float(np.linalg.norm(v))
    if abs(nv - 1.0) > 1e-8:
        raise NotUnit(f"vector norm {nv} is not 1 within 1e-8")
    lhs = float(np.real(v.conj() @ (psd_power(a, alpha, cfg) @ v)))
    rhs_base = max(float(np.real(v.conj() @ (a @ v))), 0.0)
    rhs = rhs_base**alpha
    gap = (lhs - rhs) if alpha >= 1.0 else (rhs - lhs)
    gap /= max(top**alpha, ABS_FLOOR)
    return gap >= -cfg.psd_tol, gap


def embry_power_identity(v_mat, n: int, cfg: ToleranceConfig = DEFAULT) -> float:
    """Relative residual of V*^n V^n = (V*V)^n (zero for quasinormal V)."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameter(f"power must be a positive integer, got {n!r}")
    a = as_operator(v_mat)
    an = matrix_power(a, int(n))
    lhs = adjoint(an) @ an
    rhs = matrix_power(adjoint(a) @ a, int(n))
    return _rel(lhs - rhs, a, 2.0 * n)
