"""Decision procedures for the paranormal inequality family.

An n x n matrix T is absolute-(p,r)-paranormal when

    || |T|^p |T*|^r x ||^r  >=  || |T*|^r x ||^(p+r)       for all unit x,

equivalently when the pencil

    M(lam) = r |T*|^r |T|^(2p) |T*|^r - (p+r) lam^p |T*|^(2r) + p lam^(p+r) I

is PSD for every lam > 0.  Minimizing the pencil's quadratic form over lam
for a fixed unit vector x gives the scalar reduction

    min_lam <M(lam) x, x> = r * (a(x) - b(x)^((p+r)/r)),   lam* = b(x)^(1/r),

with a(x) = <|T*|^r |T|^(2p) |T*|^r x, x> and b(x) = <|T*|^(2r) x, x>.  So
membership is exactly nonnegativity of the sphere objective

    f(x) = a(x) - b(x)^gamma,   gamma = (p+r)/r,

and the same template covers paranormal (A = (T^2)* T^2, B = T*T, gamma = 2),
k-paranormal, and absolute-k-paranormal checks.

With T scaled to unit norm, 0 <= B <= I, and the tangent bound
b^gamma >= gamma mu b - (gamma-1) mu^(gamma/(gamma-1)) (equality at
mu = b^(gamma-1) <= 1) turns the minimum of f over the sphere into the
one-dimensional problem

    min over mu in [0, 1] of  g(mu) = lambda_min(A - gamma mu B) + (gamma-1) mu^(gamma/(gamma-1)).

For Ando's paranormality pencil T*^2 T^2 - 2 lam T*T + lam^2 I this is
g(lam) itself.

The paper proves that an absolute-(p,r)-paranormal T with T^2 compact
is normal, so in finite dimension every class of the family equals
normal.  Every row starts from the snapshot's singular coordinates
(_SingularCoordinates): with T_hat = W Sigma V* and C = V*W, each value
and projected form the family needs comes from C and Sigma, with no
n x n form of T.  :func:`family_certificates` is the one entry: it
decides each distinct row once, all rows in one pass on the path
is_normal's test picks.  Every form of a normal T is a function of T*T,
which V diagonalizes, so a T that passes has a row
"snapshot-basis-certified" when Weyl's inequality on its V*AV and V*BV
gives a margin, less the slacks, >= -psd_tol.  Any other T has f
tabled at every column of [V W], and a row whose lowest column has
f <= -10 psd_tol is "snapshot-basis-refuted".  Neither makes an eigensolve.

Every other row builds its forms and goes to :func:`decide`, the last
witness search: three seed probes at mu = 1, 0 and 1/2, one full
eigensolve of A - gamma mu B each, whose bottom eigenvectors x have
f(x) <= g(mu).  One with f(x) < -psd_tol refutes the row.  A row no
probe refutes is "collapse-marginal": a member by its margin, the
smallest f the probes saw, which is not a bound, and marginal by the
collapse, since its T is neither refuted nor normal enough to certify.

The lambda grid is a scan tool (and the CLI's ``pencil-scan``); the dense
quasi-random sphere scan is the independent reference the tests compare
against.  All checks work on one linalg.SpectralSnapshot of T (built here
when a caller passes a plain matrix), so the forms come from T / ||T||,
margins are already relative and the PSD threshold applies directly.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT, ToleranceConfig
from .errors import InvalidParameter, NotBinormal
from .linalg import (
    adjoint,
    as_operator,
    eigh,
    eigvalsh,
    snapshot,
)

# coordinates of b(x) below this are treated as exactly zero in the objective
B_FLOOR = 1e-14
# decide's probes on [0, 1], in order; refutations usually fall on the first
SEED_MUS = (1.0, 0.0, 0.5)
# method of a row neither certified nor refuted; by the paper's
# finite-dimensional collapse its verdict is marginal
COLLAPSE = "collapse-marginal"
# lambda samples of check_abs_pr_lambda_grid's reference scan
GRID_POINTS = 200
# most complex entries the scan stacks into one eigensolve (16 MB)
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
    the probes saw, not a bound, and the verdict is marginal by the
    paper's finite-dimensional collapse).  The grid scan's margin is
    the smallest pencil eigenvalue it sampled, the oracle's the smallest
    objective it sampled.  Margins are in unit-norm normalized units.
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
    """p and r as floats: positive, and finite with 2p, 2r and gamma = (p+r)/r.

    An exponent or a gamma that is not a finite float would reach LAPACK
    as an infinite or nan form.
    """
    p, r = float(p), float(r)
    if not (p > 0.0) or not (r > 0.0):
        raise InvalidParameter(f"exponents must be positive, got p={p}, r={r}")
    if not (math.isfinite(2.0 * p) and math.isfinite(2.0 * r) and math.isfinite((p + r) / r)):
        raise InvalidParameter(f"exponents must give finite powers and gamma, got p={p}, r={r}")
    return p, r


def pencil_matrix(t, p: float, r: float, lam: float, cfg: ToleranceConfig = DEFAULT) -> np.ndarray:
    """The Hermitian pencil M(lam) for the raw (unnormalized) matrix or its snapshot."""
    p, r = _validate_pr(p, r)
    lam = float(lam)
    if not lam > 0.0:
        raise InvalidParameter(f"lambda must be positive, got {lam}")
    s = snapshot(t, cfg)
    mod_r = s.norm**r * s.modulus_adjoint_power(r)  # |T*|^r
    mod_2p = s.norm ** (2.0 * p) * s.modulus_power(2.0 * p)  # |T|^(2p)
    mod_2r = s.norm ** (2.0 * r) * s.modulus_adjoint_power(2.0 * r)  # |T*|^(2r)
    eye = np.eye(s.t.shape[0], dtype=np.complex128)
    m = r * (mod_r @ mod_2p @ mod_r) - (p + r) * lam**p * mod_2r + p * lam ** (p + r) * eye
    return (m + adjoint(m)) / 2.0


def ando_pencil_matrix(t, lam: float) -> np.ndarray:
    """Paranormality pencil T*^2 T^2 - 2 lam T*T + lam^2 I."""
    lam = float(lam)
    if not lam > 0.0:
        raise InvalidParameter(f"lambda must be positive, got {lam}")
    a = as_operator(t)
    a2 = a @ a
    m = adjoint(a2) @ a2 - 2.0 * lam * (adjoint(a) @ a) + lam**2 * np.eye(a.shape[0], dtype=np.complex128)
    return (m + adjoint(m)) / 2.0


def _matrix_power(base: np.ndarray, e: int) -> np.ndarray:
    """base^e (e >= 1) by left-to-right square-and-multiply: at most 2 log2(e) products.

    At e = 2 and 3 that is the repeated product base base and (base base) base.
    """
    out = base
    for bit in bin(e)[3:]:
        out = out @ out
        if bit == "1":
            out = out @ base
    return out


class _SingularCoordinates:
    """The family in the snapshot's singular coordinates, with no n x n form of T.

    With T_hat = W Sigma V*, C = V*W and R = Sigma C: T_hat V e_j =
    sigma_j W e_j and T_hat W y = W R y, while |T_hat|^s = V Sigma^s V* and
    |T_hat*|^s = W Sigma^s W* scale coordinates.  So a row's projected
    forms V*AV, V*BV and its values at the columns of [V W] come from
    Y_m = C R^(m-1) = (C Sigma)^(m-1) C and C Sigma^r C*, assuming V and W
    orthonormal.  T_hat itself uses the uncut sigma_hat, a modulus power
    the cut one, as SpectralSnapshot.modulus_power does.  Each product is
    formed on first use and kept for the call, so rows that share an
    exponent share its products, with the bits each would build alone.
    """

    def __init__(self, s):
        self.sigma = s.sigma_hat
        self.cut = s.cut_singular_values
        self._snapshot = s
        c = adjoint(s.right_singular_vectors) @ s.left_singular_vectors
        self._c_sigma = c * self.sigma
        self._memo: dict = {("y", 1): c}

    def _kept(self, key, build: Callable):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def power(self, m: int) -> np.ndarray:
        """Y_m; Y_1 = C."""
        # Y_2 and Y_3 by one product each, higher powers by square-and-multiply,
        # so each Y_m has the same bits whichever rows ask for it
        return self._kept(("y", m), lambda: (
            self._c_sigma @ self.power(m - 1) if m <= 3
            else _matrix_power(self._c_sigma, m - 1) @ self.power(1)))

    def sq(self, m: int) -> np.ndarray:
        """|Y_m|^2 entrywise; |Y_1|^2 = |C|^2."""
        return self._kept(("sq", m), lambda: _abs2(self.power(m)))

    def cut_power(self, e: float) -> np.ndarray:
        """The diagonal of Sigma^e, Sigma cut."""
        return self._kept(("cut", e), lambda: self.cut**e)

    def cut_sq(self, e: float) -> np.ndarray:
        """Sigma^e |C|^2 as a row: sum_i sigma_i^e |C_ij|^2 for each j, Sigma cut."""
        return self._kept(("cut sq", e), lambda: self.cut_power(e) @ self.sq(1))

    def sq_cut(self, e: float) -> np.ndarray:
        """|C|^2 Sigma^e as a column: sum_i |C_ji|^2 sigma_i^e for each j, Sigma cut."""
        return self._kept(("sq cut", e), lambda: self.sq(1) @ self.cut_power(e))

    def _conjugate(self, r: float) -> np.ndarray:
        c = self.power(1)
        return (c * self.cut_power(r)) @ adjoint(c)

    def conjugated(self, r: float) -> np.ndarray:
        """C Sigma^r C* = V* |T_hat*|^r V, Sigma cut."""
        return self._kept(("conj", r), lambda: self._conjugate(r))

    def conjugated_sq(self, r: float) -> np.ndarray:
        """|C Sigma^r C*|^2 entrywise, Sigma cut; the product itself is not kept."""
        return self._kept(("conj-sq", r), lambda: _abs2(self._conjugate(r)))

    def gram(self) -> np.ndarray:
        """b(x) = ||T_hat x||^2: sigma_j^2 on V, ||R e_j||^2 on W."""
        s2 = self.sigma**2
        return np.concatenate((s2, s2 @ self.sq(1)))

    def projected_gram(self) -> np.ndarray:
        """V* T_hat* T_hat V = Sigma^2, as a matrix."""
        return self._kept("gram", lambda: np.diag(self.sigma**2).astype(np.complex128))

    def orthogonality_defect(self) -> float:
        """||V*V - I||_F + ||W*W - I||_F."""
        eye = np.eye(len(self.sigma))
        s = self._snapshot
        return sum(float(np.linalg.norm(adjoint(b) @ b - eye))
                   for b in (s.right_singular_vectors, s.left_singular_vectors))


def _abs2(m: np.ndarray) -> np.ndarray:
    return m.real**2 + m.imag**2


class _FamilyRow(NamedTuple):
    """One family class at fixed parameters.

    Rows with one key are one row.  From the snapshot's
    _SingularCoordinates c, projected(c) gives (V*AV, V*BV) and
    coordinates(c) gives a(x) = <Ax,x> and b(x) = <Bx,x> at the 2n columns
    x of [V W], V's first; forms(s) builds (A, B) themselves for decide's
    probes.  lam_exp maps the decider's mu to the class's lambda.
    """

    key: tuple
    gamma: float
    lam_exp: float
    forms: Callable
    projected: Callable
    coordinates: Callable


def _power_row(k):
    """k-paranormal, ||T^(k+1) x|| >= ||T x||^(k+1): A = (T^(k+1))* T^(k+1), B = T*T.

    k = 0 holds for every T and has no row (None).  T^(k+1) V e_j =
    sigma_j W R^k e_j and T^(k+1) W e_j = W R^(k+1) e_j, and
    ||R^m e_j||^2 = sum_i sigma_i^2 |(Y_m)_ij|^2.  So V*AV = Z*Z with
    Z = Sigma Y_k Sigma, and V*BV = Sigma^2.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
    if k == 0:
        return None

    def forms(s):
        tk = _matrix_power(s.t_hat, k + 1)
        a = adjoint(tk) @ tk
        return (a + adjoint(a)) / 2.0, s.gram

    def projected(c):
        z = c.sigma[:, None] * c.power(k) * c.sigma
        return adjoint(z) @ z, c.projected_gram()

    def coordinates(c):
        s2 = c.sigma**2
        a = np.concatenate((s2 * (s2 @ c.sq(k)), s2 @ c.sq(k + 1)))
        return a, c.gram()

    return _FamilyRow(("k-paranormal", int(k)), _check_gamma(k + 1), 1.0 / k,
                      forms, projected, coordinates)


def _absolute_k_row(k):
    """absolute-k-paranormal, || |T|^k T x || >= ||T x||^(k+1): A = T* |T|^(2k) T, B = T*T.

    V* T V e_j = sigma_j C e_j and V* T W e_j = C R e_j.  So V*AV = Z*Z
    with Z = Sigma_cut^k C Sigma, and V*BV = Sigma^2.  At k = 1 it is
    paranormal's row, as T* |T|^2 T = (T^2)* T^2.
    """
    k = float(k)
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not math.isfinite(2.0 * k):
        raise InvalidParameter(f"k must give a finite power |T|^(2k), got {k}")
    if k == 1.0:
        return FAMILY_FORMS["paranormal"]()

    def forms(s):
        a = adjoint(s.t_hat) @ s.modulus_power(2.0 * k) @ s.t_hat
        return (a + adjoint(a)) / 2.0, s.gram

    def projected(c):
        z = c.cut_power(k)[:, None] * c.power(1) * c.sigma
        return adjoint(z) @ z, c.projected_gram()

    def coordinates(c):
        a = np.concatenate((c.sigma**2 * c.cut_sq(2.0 * k), c.cut_power(2.0 * k) @ c.sq(2)))
        return a, c.gram()

    return _FamilyRow(("absolute-k-paranormal", k), _check_gamma(k + 1.0), 1.0 / k,
                      forms, projected, coordinates)


def _absolute_pr_row(p, r):
    """absolute-(p,r)-paranormal: A = |T*|^r |T|^(2p) |T*|^r, B = |T*|^(2r).

    V* |T*|^r V e_j = C Sigma^r C* e_j and V* |T*|^r W e_j = sigma_j^r C e_j.
    So V*AV = Z*Z with Z = Sigma_cut^p C Sigma_cut^r C*, and
    V*BV = C Sigma_cut^(2r) C*.
    """
    p, r = _validate_pr(p, r)

    def forms(s):
        mod_r = s.modulus_adjoint_power(r)
        a = mod_r @ s.modulus_power(2.0 * p) @ mod_r
        return (a + adjoint(a)) / 2.0, s.modulus_adjoint_power(2.0 * r)

    def projected(c):
        z = c.cut_power(p)[:, None] * c.conjugated(r)
        return adjoint(z) @ z, c.conjugated(2.0 * r)

    def coordinates(c):
        wp, wr = c.cut_power(2.0 * p), c.cut_power(2.0 * r)
        a = np.concatenate((wp @ c.conjugated_sq(r), wr * c.cut_sq(2.0 * p)))
        return a, np.concatenate((c.sq_cut(2.0 * r), wr))

    return _FamilyRow(("absolute-pr-paranormal", p, r), _check_gamma((p + r) / r), 1.0 / p,
                      forms, projected, coordinates)


# class id -> builder of its row from the class's parameters (k, or p and r);
# the builder validates them and gives None for a class that every T satisfies
FAMILY_FORMS = {
    "paranormal": lambda: _power_row(1),
    "k-paranormal": _power_row,
    "absolute-k-paranormal": _absolute_k_row,
    "absolute-pr-paranormal": _absolute_pr_row,
}


def family_forms(t, class_id: str, cfg: ToleranceConfig = DEFAULT, **params):
    """(A, B, gamma, lam_exp) of one paranormal-family class for T / ||T||.

    t is a snapshot or a matrix; params are the class's (k, or p and r).
    All forms come from the one SVD of the snapshot.  Returns None when
    the class holds for every T (k-paranormal with k = 0).
    """
    row = FAMILY_FORMS[class_id](**params)
    return None if row is None else (*row.forms(snapshot(t, cfg)), row.gamma, row.lam_exp)


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


def _objective(a, b, gamma: float, v: np.ndarray) -> tuple[float, float]:
    """(f(v), b(v)) at a unit vector v: f(v) = <Av,v> - b(v)^gamma, b(v) = <Bv,v> clamped to [0, 1].

    0 <= B <= I for the forms of a unit-norm T_hat, so the clamp removes
    only roundoff, which a huge gamma would otherwise raise to a power.
    """
    vc = v.conj()
    av = float((vc @ (a @ v)).real)
    bv = min(max(float((vc @ (b @ v)).real), 0.0), 1.0)
    return av - (bv**gamma if bv > B_FLOOR else 0.0), bv


def _check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not 1.0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be finite and exceed 1, got {gamma}")
    return gamma


def decide(a, b, gamma: float, cfg: ToleranceConfig = DEFAULT,
           lam_exp: float = 1.0) -> PencilCertificate:
    """The seed probes' verdict on min over unit x of <Ax,x> - <Bx,x>^gamma >= -psd_tol.

    a, b are the Hermitian forms of a unit-norm matrix (0 <= B <= I) and
    gamma > 1.  The probe at each mu of SEED_MUS solves one eigenproblem of
    A - gamma mu B; its bottom eigenvector x satisfies f(x) <= g(mu).  Once
    the best x so far has f(x) < -psd_tol the row is "pencil-refuted", with
    margin f(x) and x as a replayable witness (see _refutation).  A row no
    probe refutes is "collapse-marginal": decision True and margin the
    smallest f the probes saw.  That margin is not a lower bound on the
    minimum; the verdict rests on the paper's finite-dimensional collapse
    and is marginal.
    """
    gamma = _check_gamma(gamma)
    best_f, best_x, best_b = np.inf, None, 0.0
    for evals, mu in enumerate(SEED_MUS, 1):
        x = eigh(a - (gamma * mu) * b)[1][:, 0]
        f, bx = _objective(a, b, gamma, x)
        if f < best_f:
            best_f, best_x, best_b = f, x, bx
        if best_f < -cfg.psd_tol:
            return _refutation("pencil-refuted", best_f, best_b, gamma, lam_exp, best_x, evals)
    return PencilCertificate(COLLAPSE, True, float(best_f), evaluations=len(SEED_MUS))


def _refutation(method: str, f, b, gamma: float, lam_exp: float, x: np.ndarray,
                evaluations: int = 0) -> PencilCertificate:
    """The certificate refuting a row at the unit vector x, where f(x) = f < 0 and b(x) = b.

    The pencil's form at x is smallest, and equal to f, at mu = b^(gamma-1):
    x shows M(lam) has a negative eigenvalue at lam = mu**lam_exp.
    """
    return PencilCertificate(method, False, float(f), witness_lambda=float((b ** (gamma - 1.0)) ** lam_exp),
                             witness_vector=x.copy(), evaluations=evaluations)


def _weyl_terms(stack: np.ndarray) -> tuple:
    """Real diagonals, off-diagonal Frobenius norms and Frobenius norms of a stack of n x n matrices.

    The off-diagonal norms zero the stack's diagonals, as ||X||_F^2 - ||diag||^2
    would cancel to ~sqrt(eps); dot products of the real view need no temporary.
    """
    idx = np.arange(stack.shape[-1])
    flat = stack.reshape(len(stack), -1).view(np.float64)
    diag = stack[:, idx, idx].real
    scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    stack[:, idx, idx] = 0.0
    return diag, np.sqrt(np.einsum("ij,ij->i", flat, flat)), scale


def _weyl_margins(rows, c: _SingularCoordinates) -> np.ndarray:
    """Each row's certified lower bound on min g, less the slacks, from its projected forms.

    With alpha, d the diagonals of a row's V*AV, V*BV (row.projected) and
    e_A, e_B the Frobenius norms of their off-diagonal parts, Weyl's
    inequality gives g(mu) >= min_j [alpha_j - gamma mu (d_j + e_B) +
    (gamma-1) mu^q] - e_A, each j's term minimal at the clamped
    mu = (d_j + e_B)^(gamma-1).  The margin subtracts the eigensolver
    roundoff slack n * eps * (||A||_F + gamma ||B||_F) and, since the
    coordinates assume V and W orthonormal and V*MV has the eigenvalues of
    M only to within ||M|| ||V*V - I|| (Ostrowski), (||A||_F + gamma ||B||_F)
    (||V*V - I||_F + ||W*W - I||_F).  All rows' V*AV form one stack.
    """
    n = len(c.sigma)
    gamma = np.array([row.gamma for row in rows], dtype=float)
    proj_a = np.empty((len(rows), n, n), np.complex128)
    # rows share V*BV by identity: Sigma^2, or one C Sigma^(2r) C* per r
    forms_b: dict = {}
    ib = np.empty(len(rows), dtype=int)
    for i, row in enumerate(rows):
        proj_a[i], b = row.projected(c)
        ib[i] = forms_b.setdefault(id(b), (len(forms_b), b))[0]
    diag_a, off_a, scale_a = _weyl_terms(proj_a)
    diag_b, off_b, scale_b = _weyl_terms(np.stack([b for _, b in forms_b.values()]))
    size = scale_a + gamma * scale_b[ib]
    slack = n * np.finfo(float).eps * size
    # gamma at full shape: an exponent that broadcasts from one row takes
    # numpy's scalar path (x**2 as x*x), which rounds unlike its vector pow,
    # and a one-row call must give the bits that row gets among many
    g = np.repeat(gamma[:, None], n, axis=1)
    d = np.maximum(diag_b[ib] + off_b[ib, None], 0.0)
    mu = np.minimum(d ** (g - 1.0), 1.0)
    bound = np.min(diag_a - g * mu * d + (g - 1.0) * mu ** (g / (g - 1.0)), axis=1) - off_a
    return bound - slack - size * c.orthogonality_defect()


def _lowest_columns(rows, c: _SingularCoordinates) -> tuple:
    """(f, b, j): each row's f(x) and clamped b(x) at the columns x of [V W], and its lowest column.

    One table of the rows' a(x) and b(x) (row.coordinates), b clamped to
    [0, 1] as in _objective, is reduced in one pass; ties go to the first
    column.  b is raised to each row's gamma as a scalar, rows grouped by
    gamma: numpy's scalar pow (x**2 as x*x) rounds unlike pow with an
    exponent array, and refutations keep the scalar path's bits.
    """
    a, b = np.array([row.coordinates(c) for row in rows]).transpose(1, 0, 2)
    b = np.clip(b, 0.0, 1.0)
    gamma = np.array([row.gamma for row in rows])
    powered = np.empty_like(b)
    for g in set(gamma.tolist()):
        powered[gamma == g] = b[gamma == g] ** g
    f = a - np.where(b > B_FLOOR, powered, 0.0)
    return f, b, np.argmin(f, axis=1)


def family_certificates(t, specs, cfg: ToleranceConfig = DEFAULT):
    """Yield one certificate per (class_id, params) pair of the list specs, in order.

    params is a dict of the class's parameters (k, or p and r), or None.
    A class that holds for every T (k-paranormal with k = 0) yields None.
    Every spec is validated before any work.  Specs with one row
    (_FamilyRow.key; paranormal is k-paranormal and absolute-k-paranormal
    at k = 1) share one certificate.  The distinct rows are decided together:

    1. on a T that passes is_normal's test, "snapshot-basis-certified" when
       its Weyl margin (_weyl_margins), less every slack, is >= -psd_tol;
    2. on any other T, "snapshot-basis-refuted" at its lowest column x of
       [V W] (_lowest_columns) when f(x) <= -10 psd_tol, the edge of
       config.is_marginal's band, so no such refutation is marginal;
    3. a row left by both builds its forms for decide's seed probes, which
       refute it or, by the paper's collapse, call it "collapse-marginal".

    The probes run as the caller consumes the certificates.
    """
    rows = [FAMILY_FORMS[class_id](**(params or {})) for class_id, params in specs]
    s = snapshot(t, cfg)
    live = {row.key: row for row in rows if row is not None}
    certs = dict.fromkeys(live)
    if live and s.normality_defect <= cfg.eq_rtol:
        for key, m in zip(live, _weyl_margins(live.values(), _SingularCoordinates(s))):
            if m >= -cfg.psd_tol:
                certs[key] = PencilCertificate("snapshot-basis-certified", True, float(m))
    elif live:
        columns = np.hstack((s.right_singular_vectors, s.left_singular_vectors))
        for row, f, b, j in zip(live.values(), *_lowest_columns(live.values(), _SingularCoordinates(s))):
            if f[j] <= -10.0 * cfg.psd_tol:
                certs[row.key] = _refutation("snapshot-basis-refuted", f[j], b[j], row.gamma, row.lam_exp,
                                             columns[:, j])
    for row in rows:
        if row is not None and certs[row.key] is None:
            certs[row.key] = decide(*row.forms(s), row.gamma, cfg, row.lam_exp)
        yield None if row is None else certs[row.key]


def check_abs_pr_sphere(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Authoritative absolute-(p,r)-paranormality decision.

    Runs :func:`family_certificates` on one row; witness_lambda is in the
    units of pencil_matrix on T / ||T|| (lam = mu^(1/p)).
    """
    return next(family_certificates(t, [("absolute-pr-paranormal", {"p": p, "r": r})], cfg))


def lambda_grid(norm_squared: float, points: int) -> np.ndarray:
    """points log-spaced lambda samples on [1e-6 * ||T||^2, ||T||^2] (points >= 1)."""
    if not (isinstance(points, (int, np.integer)) and points >= 1):
        raise InvalidParameter(f"points must be a positive integer, got {points!r}")
    hi = norm_squared if norm_squared > 0.0 else 1.0
    return np.logspace(np.log10(hi) - 6.0, np.log10(hi), points)


def check_abs_pr_lambda_grid(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Refutation-complete grid scan of the pencil's minimum eigenvalue.

    A negative eigenvalue at any sampled lambda certifies non-membership
    (the pencil condition is necessary); a clean grid does not certify
    membership by itself, which is why :func:`family_certificates` stays
    authoritative.
    """
    p, r = _validate_pr(p, r)
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return PencilCertificate(method="lambda-grid", decision=True, margin=0.0)
    a, b, gamma, _ = family_forms(s, "absolute-pr-paranormal", cfg, p=p, r=r)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    lams = lambda_grid(1.0, GRID_POINTS)
    # each pencil r A - (p+r) lam^p B + p lam^(p+r) I, with the coefficients
    # taken as scalars: numpy's vector pow rounds unlike its scalar pow
    c_b = np.array([(p + r) * lam**p for lam in lams])[:, None, None]
    c_i = np.array([p * lam ** (p + r) for lam in lams])[:, None, None]
    bottom = np.empty(len(lams))
    # stacked eigensolves give each pencil's eigenvalues bit for bit; a stack
    # holds at most GRID_STACK_ENTRIES entries, so all 200 up to n = 72
    step = max(1, GRID_STACK_ENTRIES // a.size)
    for start in range(0, len(lams), step):
        m = r * a - c_b[start:start + step] * b + c_i[start:start + step] * eye
        bottom[start:start + step] = eigvalsh((m + m.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    i = int(np.argmin(bottom))
    decision = bool(bottom[i] >= -cfg.psd_tol)
    return PencilCertificate(
        method="lambda-grid",
        decision=decision,
        margin=float(bottom[i]),
        witness_lambda=None if decision else float(lams[i]),
        evaluations=len(lams),
    )


def _objective_batch(a, b, xs, gamma, b_floor=1e-14):
    """Objective values f(x) = Re<x, A x> - Re<x, B x>**gamma for a batch of unit row vectors xs (m, n)."""
    av = np.einsum("ij,ij->i", xs.conj(), xs @ a.T).real
    bv = np.maximum(np.einsum("ij,ij->i", xs.conj(), xs @ b.T).real, 0.0)
    bp = np.where(bv > b_floor, bv ** float(gamma), 0.0)
    return av - bp


def dense_oracle(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT, seed: int = 0,
                 samples_log2: int = ORACLE_SAMPLES_LOG2) -> PencilCertificate:
    """Dense quasi-random sphere scan: the decider's independent reference."""
    p, r = _validate_pr(p, r)
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return PencilCertificate(method="dense-oracle", decision=True, margin=0.0)
    a, b, gamma, _ = family_forms(s, "absolute-pr-paranormal", cfg, p=p, r=r)
    pts = _unit_sphere_cache(a.shape[0], samples_log2, seed + 104729)
    vals = _objective_batch(a, b, pts, gamma, b_floor=B_FLOOR)
    i = int(np.argmin(vals))
    f = float(vals[i])
    decision = f >= -cfg.psd_tol
    return PencilCertificate(
        method="dense-oracle",
        decision=decision,
        margin=f,
        witness_vector=None if decision else pts[i].copy(),
        evaluations=int(pts.shape[0]),
    )


def evaluate_objective(t, p: float, r: float, x, cfg: ToleranceConfig = DEFAULT) -> float:
    """Replay the normalized sphere objective at a stored witness vector."""
    p, r = _validate_pr(p, r)
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return 0.0
    a, b, gamma, _ = family_forms(s, "absolute-pr-paranormal", cfg, p=p, r=r)
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    return _objective(a, b, gamma, v / np.linalg.norm(v))[0]


def check_paranormal(t, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Paranormality via :func:`family_certificates` on Ando's pencil (lam = mu)."""
    return next(family_certificates(t, [("paranormal", None)], cfg))


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
