"""The paranormal family's definitions, evaluated directly.

T is absolute-(p,r)-paranormal when the pencil

    M(lam) = r |T*|^r |T|^(2p) |T*|^r - (p+r) lam^p |T*|^(2r) + p lam^(p+r) I

is PSD for every lam > 0, that is when f(x) = <Ax,x> - <Bx,x>^gamma >= 0
on the unit sphere, with A = |T*|^r |T|^(2p) |T*|^r, B = |T*|^(2r) and
gamma = (p+r)/r; k-paranormal and absolute-k-paranormal share the
template (see normaloid.pencil).  Here are the definitions both sides
read (the FAMILY_FORMS rows, the objective rule, the certificate), the
n x n reference forms, the one pencil builder, and the checks built on
them: the lambda grid scan, pencil-scan, the dense sphere oracle, the
witness replay and the binormal scalar check.  The decider imports from
this module and nothing here imports the decider, so a reference check
shares no code with the result it checks.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, ToleranceConfig
from .errors import InvalidParameter, NotBinormal, NumericalFailure
from .linalg import adjoint, eigvalsh, finite_power, matrix_power, snapshot

# coordinates of b(x) below this are treated as exactly zero in the objective
B_FLOOR = 1e-14
# lambda samples of check_abs_pr_lambda_grid's reference scan
GRID_POINTS = 200
# most complex entries pencil_stacks puts into one stack (16 MB)
GRID_STACK_ENTRIES = 2**20
# dense oracle defaults
ORACLE_SAMPLES_LOG2 = 18  # 2**18 = 262144 > 2e5 unit vectors


@dataclasses.dataclass
class PencilCertificate:
    """Outcome of one membership check, with enough data to replay it.

    method names how the check ended.  From the snapshot's singular
    coordinates, with no eigensolve, family_certificates reports
    "snapshot-basis-certified" (a proven lower bound from V*AV and V*BV,
    less the slacks) and "snapshot-basis-refuted" (margin is the objective
    at a singular vector, the witness_vector).  decide's seed probes report
    "pencil-refuted" (margin is the objective at witness_vector) or
    "collapse-marginal" (decision True; margin is the smallest objective
    the probes saw, at least -psd_tol, not a bound, and the verdict is
    marginal by the paper's finite-dimensional collapse).  The grid scan's
    margin is the smallest pencil eigenvalue it sampled, the oracle's the
    smallest objective it sampled.  Margins are in unit-norm normalized units.
    When decision is False at least one witness field is populated;
    witness_lambda is in the same units as lambda_grid(1.0).
    """

    method: str
    decision: bool
    margin: float
    witness_lambda: float | None = None
    witness_vector: np.ndarray | None = None
    evaluations: int = 0


def _validate_pr(p: float, r: float) -> tuple[float, float]:
    """p and r as floats: positive, and finite with 2p, 2r and gamma = (p+r)/r, which exceeds 1.

    An exponent or a gamma that is not a finite float would reach LAPACK
    as an infinite or nan form, and a p so small against r that gamma
    rounds to 1 leaves no pencil to decide.
    """
    p, r = float(p), float(r)
    if not (p > 0.0) or not (r > 0.0):
        raise InvalidParameter(f"exponents must be positive, got p={p}, r={r}")
    if not (math.isfinite(2.0 * p) and math.isfinite(2.0 * r) and math.isfinite((p + r) / r)):
        raise InvalidParameter(f"exponents must give finite powers and gamma, got p={p}, r={r}")
    if not (p + r) / r > 1.0:
        raise InvalidParameter(f"p is too small against r: gamma = (p+r)/r rounds to 1 at p={p}, r={r}")
    return p, r


def _check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not 1.0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be finite and exceed 1, got {gamma}")
    return gamma


class _FamilyRow(NamedTuple):
    """One family class at fixed parameters: its key (kind, *parameters), gamma and lam_exp.

    Rows with one key are one row.  lam_exp maps the decider's mu to the
    class's lambda.  A row holds no form: family_forms builds a row's n x n
    A and B from its key, and the decider its forms in singular coordinates.
    """

    key: tuple
    gamma: float
    lam_exp: float


def _power_row(k):
    """k-paranormal, ||T^(k+1) x|| >= ||T x||^(k+1): A = (T^(k+1))* T^(k+1), B = T*T.

    k = 0 holds for every T and has no row (None).  V*AV = Z*Z with
    Z = Sigma Y_k Sigma, and V*BV = Sigma^2.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
    if k == 0:
        return None
    return _FamilyRow(("k-paranormal", int(k)), _check_gamma(k + 1), 1.0 / k)


def _absolute_k_row(k):
    """absolute-k-paranormal, || |T|^k T x || >= ||T x||^(k+1): A = T* |T|^(2k) T, B = T*T.

    V*AV = Z*Z with Z = Sigma_cut^k C Sigma, and V*BV = Sigma^2.  At
    k = 1 it is paranormal's row, as T* |T|^2 T = (T^2)* T^2.
    """
    k = float(k)
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not math.isfinite(2.0 * k):
        raise InvalidParameter(f"k must give a finite power |T|^(2k), got {k}")
    if k == 1.0:
        return FAMILY_FORMS["paranormal"]()
    return _FamilyRow(("absolute-k-paranormal", k), _check_gamma(k + 1.0), 1.0 / k)


def _absolute_pr_row(p, r):
    """absolute-(p,r)-paranormal: A = |T*|^r |T|^(2p) |T*|^r, B = |T*|^(2r).

    V*AV = Z*Z with Z = Sigma_cut^p C Sigma_cut^r C*, and
    V*BV = C Sigma_cut^(2r) C*.
    """
    p, r = _validate_pr(p, r)
    return _FamilyRow(("absolute-pr-paranormal", p, r), _check_gamma((p + r) / r), 1.0 / p)


# class id -> builder of its row from the class's parameters (k, or p and r);
# the builder validates them and gives None for a class that every T satisfies
FAMILY_FORMS = {
    "paranormal": lambda: _power_row(1),
    "k-paranormal": _power_row,
    "absolute-k-paranormal": _absolute_k_row,
    "absolute-pr-paranormal": _absolute_pr_row,
}


def family_forms(t, class_id: str, cfg: ToleranceConfig = DEFAULT, **params):
    """(A, B, gamma, lam_exp) of one paranormal-family class for T / ||T||: the reference forms.

    t is a snapshot or a matrix; params are the class's (k, or p and r),
    validated before anything else.  A and B are n x n, built from the
    definitions with T_hat, matrix_power and the snapshot's modulus powers,
    not from singular coordinates.  Returns None when there is nothing to
    decide: the class holds for every T (k-paranormal with k = 0), or T = 0,
    which has no T / ||T|| and satisfies every class.
    """
    row = FAMILY_FORMS[class_id](**params)
    s = snapshot(t, cfg)
    if row is None or s.norm == 0.0:
        return None
    kind, *args = row.key
    if kind == "k-paranormal":
        tk = matrix_power(s.t_hat, args[0] + 1)
        a, b = adjoint(tk) @ tk, s.gram
    elif kind == "absolute-k-paranormal":
        a, b = adjoint(s.t_hat) @ s.modulus_power(2.0 * args[0]) @ s.t_hat, s.gram
    else:
        p, r = args
        mod_r = s.modulus_adjoint_power(r)
        a, b = mod_r @ s.modulus_power(2.0 * p) @ mod_r, s.modulus_adjoint_power(2.0 * r)
    return (a + adjoint(a)) / 2.0, b, row.gamma, row.lam_exp


def _objective(av, bv, gamma: float):
    """(f, b) from a = <Ax,x> and b = <Bx,x>: f = a - b^gamma with b clamped to [0, 1].

    0 <= B <= I for the forms of a unit-norm T_hat, so the clamp removes
    only roundoff, which a huge gamma would otherwise raise to a power;
    b <= B_FLOOR counts as 0.  av and bv are floats (C's pow) or arrays
    (numpy's, which rounds unlike it), gamma one float.
    """
    bv = np.minimum(np.maximum(bv, 0.0), 1.0)
    return av - np.where(bv > B_FLOOR, bv**gamma, 0.0), bv


def _values(a, b, v: np.ndarray) -> tuple[float, float]:
    """(<Av,v>, <Bv,v>) at one vector v, as floats."""
    vc = v.conj()
    return float((vc @ (a @ v)).real), float((vc @ (b @ v)).real)


def pencil_stacks(a, b, p: float, r: float, lams):
    """Yield the Hermitian parts of r A - (p+r) lam^p B + p lam^(p+r) I, lam in lams, as stacks.

    The one pencil formula; Ando's pencil T*^2 T^2 - 2 lam T*T + lam^2 I
    is (p, r) = (1, 1) on A = (T^2)* T^2 and B = T*T.  p and r are valid
    exponents and every lam must be positive.  A stack holds at most
    GRID_STACK_ENTRIES complex entries, and a stacked eigensolve gives
    each pencil its own bits.  The coefficients are scalars, one lam at a
    time: numpy's vector pow rounds unlike its scalar pow.
    """
    p, r = float(p), float(r)
    lams = [float(lam) for lam in lams]
    if not all(lam > 0.0 for lam in lams):
        raise InvalidParameter(f"lambda must be positive, got {min(lams)}")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    c_b = np.array([(p + r) * lam**p for lam in lams])[:, None, None]
    c_i = np.array([p * lam ** (p + r) for lam in lams])[:, None, None]
    step = max(1, GRID_STACK_ENTRIES // a.size)
    for start in range(0, len(lams), step):
        m = r * a - c_b[start:start + step] * b + c_i[start:start + step] * eye
        yield (m + m.conj().transpose(0, 2, 1)) / 2.0


def _pencil_minima(a, b, p: float, r: float, lams) -> np.ndarray:
    """The smallest eigenvalue of each pencil of pencil_stacks, one stacked eigvalsh per stack."""
    return np.concatenate([eigvalsh(m)[:, 0] for m in pencil_stacks(a, b, p, r, lams)])


def lambda_grid(norm_squared: float, points: int) -> np.ndarray:
    """points log-spaced lambda samples on [1e-6 * ||T||^2, ||T||^2] (points >= 1)."""
    if not (isinstance(points, (int, np.integer)) and points >= 1):
        raise InvalidParameter(f"points must be a positive integer, got {points!r}")
    hi = norm_squared if norm_squared > 0.0 else 1.0
    return np.logspace(np.log10(hi) - 6.0, np.log10(hi), points)


def check_abs_pr_lambda_grid(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Refutation-complete grid scan of the pencil's minimum eigenvalue on T / ||T||.

    A negative eigenvalue at any sampled lambda certifies non-membership
    (the pencil condition is necessary); a clean grid does not certify
    membership by itself, which is why the decider stays authoritative.
    """
    if (forms := family_forms(t, "absolute-pr-paranormal", cfg, p=p, r=r)) is None:
        return PencilCertificate(method="lambda-grid", decision=True, margin=0.0)
    a, b, _, _ = forms
    lams = lambda_grid(1.0, GRID_POINTS)
    bottom = _pencil_minima(a, b, p, r, lams)
    i = int(np.argmin(bottom))
    decision = bool(bottom[i] >= -cfg.psd_tol)
    return PencilCertificate("lambda-grid", decision, float(bottom[i]), evaluations=len(lams),
                             witness_lambda=None if decision else float(lams[i]))


def pencil_scan(t, p: float, r: float, points: int, cfg: ToleranceConfig = DEFAULT) -> tuple:
    """(lams, minima): the pencil's smallest eigenvalue on T's own scale at lambda_grid(||T||^2, points).

    The forms are the raw |T*|^r |T|^(2p) |T*|^r and |T*|^(2r), the
    snapshot's unit-norm powers scaled back by powers of ||T||.  A nonzero
    T whose 1e-6 ||T||^2 underflows to 0 has no such grid, and a T whose
    ||T||^2, ||T||^(2p), ||T||^(2r) or pencil entries overflow has no
    finite pencil: each is a NumericalFailure naming ||T||.
    """
    s = snapshot(t, cfg)
    norm_squared = finite_power(s.norm, 2.0, "||T||^2")
    lams = lambda_grid(norm_squared, points)
    p, r = _validate_pr(p, r)
    if s.norm > 0.0 and not (norm_squared > 0.0 and lams[0] > 0.0):
        raise NumericalFailure(f"||T||^2 underflows at ||T|| = {s.norm!r}: the lambda grid's first sample, "
                               f"1e-6 ||T||^2, rounds to 0")
    mod_2p = finite_power(s.norm, 2.0 * p, "||T||^(2p)") * s.modulus_power(2.0 * p)  # |T|^(2p)
    mod_2r = finite_power(s.norm, 2.0 * r, "||T||^(2r)") * s.modulus_adjoint_power(2.0 * r)  # |T*|^(2r)
    mod_r = s.norm**r * s.modulus_adjoint_power(r)  # |T*|^r, finite as ||T||^(2r) is
    try:
        # an entry past the float range raises here, where it would warn and go on as inf or nan
        with np.errstate(over="raise", invalid="raise"):
            minima = _pencil_minima(mod_r @ mod_2p @ mod_r, mod_2r, p, r, lams)
    except (OverflowError, FloatingPointError):
        minima = None
    if minima is None or not np.isfinite(minima).all():
        raise NumericalFailure(f"a pencil entry overflows at ||T|| = {s.norm!r}")
    return lams, minima


@functools.lru_cache(maxsize=32)
def _unit_sphere_cache(n: int, count_log2: int, seed: int) -> np.ndarray:
    """Deterministic quasi-random unit vectors in C^n (rows)."""
    # imported here: scipy.stats costs about a second at import, and only
    # the oracle and the tests draw sphere points
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=2 * n, scramble=True, seed=seed)
    u = sob.random_base2(count_log2)
    # keep strictly inside (0,1) so the normal inverse CDF stays finite
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    z = ndtri(u)
    pts = z[:, :n] + 1j * z[:, n:]
    nrm = np.linalg.norm(pts, axis=1)
    bad = nrm < 1e-9
    if bad.any():
        pts[bad] = 0.0
        pts[bad, 0] = 1.0
        nrm[bad] = 1.0
    pts /= nrm[:, None]
    pts.setflags(write=False)
    return pts


def sphere_points(n: int, count: int, seed: int) -> np.ndarray:
    """count quasi-random unit vectors in C^n, reproducible for fixed seed."""
    if count < 1:
        raise InvalidParameter(f"count must be positive, got {count}")
    log2 = max(int(np.ceil(np.log2(count))), 0)
    return _unit_sphere_cache(int(n), log2, int(seed))[:count]


def dense_oracle(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT, seed: int = 0,
                 samples_log2: int = ORACLE_SAMPLES_LOG2) -> PencilCertificate:
    """Dense quasi-random sphere scan: the decider's independent reference."""
    if (forms := family_forms(t, "absolute-pr-paranormal", cfg, p=p, r=r)) is None:
        return PencilCertificate(method="dense-oracle", decision=True, margin=0.0)
    a, b, gamma, _ = forms
    pts = _unit_sphere_cache(a.shape[0], samples_log2, seed + 104729)
    pts_c = pts.conj()
    vals, _ = _objective(np.einsum("ij,ij->i", pts_c, pts @ a.T).real,
                         np.einsum("ij,ij->i", pts_c, pts @ b.T).real, gamma)
    i = int(np.argmin(vals))
    f = float(vals[i])
    decision = f >= -cfg.psd_tol
    return PencilCertificate("dense-oracle", decision, f, evaluations=int(pts.shape[0]),
                             witness_vector=None if decision else pts[i].copy())


def evaluate_objective(t, p: float, r: float, x, cfg: ToleranceConfig = DEFAULT) -> float:
    """Replay the normalized sphere objective at a witness x: finite, nonzero, of T's dimension."""
    s = snapshot(t, cfg)
    parts = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1).view(np.float64)
    if parts.size != 2 * s.t.shape[0]:
        raise InvalidParameter(f"witness vector has length {parts.size // 2}, T has dimension {s.t.shape[0]}")
    if not np.isfinite(parts).all():
        raise InvalidParameter("witness vector entries must be finite")
    if (top := float(np.max(np.abs(parts)))) == 0.0:
        raise InvalidParameter("witness vector must be nonzero")
    if (forms := family_forms(s, "absolute-pr-paranormal", cfg, p=p, r=r)) is None:
        return 0.0
    a, b, gamma, _ = forms
    # the snapshot's exact power-of-two scaling, so the norm neither overflows nor underflows
    v = np.ldexp(parts, -math.frexp(top)[1]).view(np.complex128)
    return float(_objective(*_values(a, b, v / np.linalg.norm(v)), gamma)[0])


def binormal_scalar_check(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT):
    """(decision, margin) for absolute-(p,r)-paranormality of a binormal matrix.

    For binormal T the moduli squared commute; in a joint eigenbasis the
    pencil condition reduces to: every joint pair with g > 0 satisfies
    f >= g.  (Minimizing over lambda lands at lambda = g and leaves
    r * g^r * (f^p - g^p) >= 0; the converse follows from the weighted
    arithmetic-geometric mean bound, so this is an equivalence and the
    exponents only need to be valid, they do not move the answer.)

    margin is the worst normalized f - g over active pairs (0.0 when no
    pair is active).  Raises NotBinormal when the moduli do not commute.
    """
    p, r = _validate_pr(p, r)
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return True, 0.0
    if s.binormality_defect > cfg.eq_rtol:
        raise NotBinormal(f"moduli do not commute: ||[T*T, TT*]|| / ||T||^4 = {s.binormality_defect:.3e}")
    # V diagonalizes T_hat* T_hat with eigenvalues f = sigma_hat^2; within
    # each cluster of equal f, TT* acts on the cluster's columns of V
    v, f = s.right_singular_vectors, s.sigma_hat**2
    gap = 1e-8 * float(f[0])
    g = np.empty_like(f)
    i = 0
    while i < len(f):
        j = i + 1
        while j < len(f) and f[j - 1] - f[j] <= gap:
            j += 1
        block = v[:, i:j]
        g[i:j] = eigvalsh(adjoint(block) @ s.cogram @ block)
        i = j
    active = g > cfg.psd_tol
    if not active.any():
        return True, 0.0
    margin = float(np.min(f[active] - g[active]))
    return margin >= -cfg.psd_tol, margin
