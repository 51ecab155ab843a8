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

The authoritative decider, :func:`decide`, works on the pencil side.  With
T scaled to unit norm, 0 <= B <= I, and the tangent bound
b^gamma >= gamma mu b - (gamma-1) mu^(gamma/(gamma-1)) (equality at
mu = b^(gamma-1) <= 1) turns the minimum of f over the sphere into the
one-dimensional problem

    min over mu in [0, 1] of  g(mu) = lambda_min(A - gamma mu B) + (gamma-1) mu^(gamma/(gamma-1)).

For Ando's paranormality pencil T*^2 T^2 - 2 lam T*T + lam^2 I this is
g(lam) itself.

In finite dimension every member of these classes is normal (the paper's
extension of Ando's theorem), and for a normal T every form A and B of
the family is a function of T*T.  So the right singular vectors V that
the snapshot already holds diagonalize all of them, and
:func:`decide_family` first tries that basis on every row at once: with
alpha, d the diagonals of V*AV, V*BV and e_A, e_B the Frobenius norms of
their off-diagonal parts, Weyl's inequality gives
g(mu) >= min_j [alpha_j - gamma mu (d_j + e_B) + (gamma-1) mu^q] - e_A,
whose minimum over [0, 1] has a closed form.  A row whose bound is
>= -psd_tol / 100 is "snapshot-basis-certified" with no eigensolve.  Its
margin subtracts decide's roundoff slack n * eps * (||A||_F + gamma ||B||_F)
and (||A||_F + gamma ||B||_F) ||V*V - I||_F, because V is orthonormal only
to roundoff.  The basis is offered only when T passes is_normal's test;
:func:`family_certificates` is the one entry that makes that choice.

A T that fails that test has f evaluated at both singular bases instead,
at every column of [V W], V's and the left singular vectors W's, with no
form built.  In the snapshot's singular coordinates every value is a
squared column norm: with C = V*W, Sigma = diag(sigma_hat) and
R = Sigma C, T_hat V e_j = sigma_j W e_j and T_hat W y = W R y, and the
moduli |T_hat|^s = V Sigma^s V*, |T_hat*|^s = W Sigma^s W* only scale
coordinates, so the default grids need 6 n x n products in all
(_SingularCoordinates).  A row whose lowest column has f <= -10 psd_tol,
the edge of config.is_marginal's band, is "snapshot-basis-refuted" with no
eigensolve, its margin and witness built from that column as decide
builds a refutation.

Every other row builds its forms and goes to :func:`decide`.  Each probe at mu0 solves one full
eigenproblem of A - gamma mu0 B, and its bottom eigenvector is a witness
candidate.  decide's first probe, at mu0 = 1, refutes most rows that
reach it; decide_family solves it for all rows that share a B form in
one stacked eigensolve and hands each row its eigenpair.
h(mu) = lambda_min(A - gamma mu B) is concave, so on any
interval it lies above its chord, and chord plus the convex power term
has a closed-form minimum, a rigorous lower bound on g there.
Best-first bisection on those bounds either finds a refuting bottom
eigenvector, certifies a bound, or brackets the minimum to psd_tol / 100.
The snapshot basis is the only certificate that needs no search.

The lambda grid is a scan tool (and the CLI's ``pencil-scan``); the dense
quasi-random sphere scan is the independent reference the tests compare
against.  All checks work on one linalg.SpectralSnapshot of T (built here
when a caller passes a plain matrix), so the forms come from T / ||T||,
margins are already relative and the PSD threshold applies directly.
"""
from __future__ import annotations

import dataclasses
import functools
import heapq
import math
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
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
# the decider stops once the minimum is bracketed to this fraction of psd_tol
RESOLUTION = 0.01
# first probes of the bisection on [0, 1]; refutations usually fall on one
SEED_MUS = (1.0, 0.0, 0.5)
# an interval is split where its lower bound is attained, kept this
# fraction of its width away from either end
SPLIT_MARGIN = 0.1
# lambda samples of check_abs_pr_lambda_grid's reference scan
GRID_POINTS = 200
# most complex entries the scan stacks into one eigensolve (16 MB)
GRID_STACK_ENTRIES = 2**20
# dense oracle defaults
ORACLE_SAMPLES_LOG2 = 18  # 2**18 = 262144 > 2e5 unit vectors


@dataclasses.dataclass
class PencilCertificate:
    """Outcome of one membership check, with enough data to replay it.

    method names how the check ended.  The decider reports
    "pencil-refuted" (margin is the objective at witness_vector),
    "pencil-certified" (margin is the chord bisection's proven lower bound
    on the minimum, less a roundoff slack) or "pencil-bracketed" (the
    minimum is pinned to psd_tol / 100 around the threshold; margin is the
    bound); decide_family adds "snapshot-basis-certified" (a proven lower
    bound from the snapshot's singular basis, with no eigensolve) and
    family_certificates "snapshot-basis-refuted" (margin is the objective
    at a singular vector of the snapshot, the witness_vector, with no
    eigensolve).  The
    grid scan's margin is the smallest pencil eigenvalue it sampled, the
    oracle's the smallest objective it sampled.  Margins are in unit-norm
    normalized units.  When decision is False at least one witness field
    is populated; witness_lambda is in the same units as lambda_grid(1.0).
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
    """The family's a(x) and b(x) at the 2n columns x of [V W], with no n x n form.

    With T_hat = W Sigma V*, C = V*W and R = Sigma C: T_hat V e_j =
    sigma_j W e_j and T_hat W y = W R y, while |T_hat|^s = V Sigma^s V* and
    |T_hat*|^s = W Sigma^s W* scale coordinates.  So every value is a
    squared column norm, read off Y_m = C R^(m-1) = (C Sigma)^(m-1) C and
    C Sigma^r C*.  T_hat itself uses the uncut sigma_hat, a modulus power
    the cut one, as SpectralSnapshot.modulus_power does.  Each product is
    formed on first use and kept for the call; the default grids need 6:
    C, Y_2 = CR, Y_3 and three C Sigma^r C*.
    """

    def __init__(self, s):
        self.sigma = s.sigma_hat
        self.cut = s.cut_singular_values
        c = adjoint(s.right_singular_vectors) @ s.left_singular_vectors
        self._c_sigma = c * self.sigma
        self._y = {1: c}
        self._sq: dict = {}
        self._conjugated: dict = {}

    def _power(self, m: int) -> np.ndarray:
        # Y_2 and Y_3 by one product each, higher powers by square-and-multiply,
        # so each Y_m has the same bits whichever rows ask for it
        if m not in self._y:
            self._y[m] = (self._c_sigma @ self._power(m - 1) if m <= 3
                          else _matrix_power(self._c_sigma, m - 1) @ self._y[1])
        return self._y[m]

    def sq(self, m: int) -> np.ndarray:
        """|Y_m|^2 entrywise; |Y_1|^2 = |C|^2."""
        if m not in self._sq:
            self._sq[m] = _abs2(self._power(m))
        return self._sq[m]

    def conjugated_sq(self, r: float) -> np.ndarray:
        """|C Sigma^r C*|^2 entrywise, Sigma cut."""
        if r not in self._conjugated:
            c = self._y[1]
            self._conjugated[r] = _abs2((c * self.cut**r) @ adjoint(c))
        return self._conjugated[r]

    def gram(self) -> np.ndarray:
        """b(x) = ||T_hat x||^2: sigma_j^2 on V, ||R e_j||^2 on W."""
        s2 = self.sigma**2
        return np.concatenate((s2, s2 @ self.sq(1)))


def _abs2(m: np.ndarray) -> np.ndarray:
    return m.real**2 + m.imag**2


class _FamilyRow(NamedTuple):
    """One family class at fixed parameters.

    forms(s) builds its Hermitian forms (A, B) from a snapshot;
    coordinates(c) gives a(x) = <Ax,x> and b(x) = <Bx,x> at the 2n columns
    x of [V W], V's first, from the snapshot's _SingularCoordinates c.
    lam_exp maps the decider's mu to the class's lambda.
    """

    gamma: float
    lam_exp: float
    forms: Callable
    coordinates: Callable


def _power_row(k):
    """k-paranormal, ||T^(k+1) x|| >= ||T x||^(k+1): A = (T^(k+1))* T^(k+1), B = T*T.

    k = 0 holds for every T and has no row (None).  T^(k+1) V e_j =
    sigma_j W R^k e_j and T^(k+1) W e_j = W R^(k+1) e_j, and
    ||R^m e_j||^2 = sum_i sigma_i^2 |(Y_m)_ij|^2.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
    if k == 0:
        return None

    def forms(s):
        tk = _matrix_power(s.t_hat, k + 1)
        a = adjoint(tk) @ tk
        return (a + adjoint(a)) / 2.0, s.gram

    def coordinates(c):
        s2 = c.sigma**2
        a = np.concatenate((s2 * (s2 @ c.sq(k)), s2 @ c.sq(k + 1)))
        return a, c.gram()

    return _FamilyRow(_check_gamma(k + 1), 1.0 / k, forms, coordinates)


def _absolute_k_row(k):
    """absolute-k-paranormal, || |T|^k T x || >= ||T x||^(k+1): A = T* |T|^(2k) T, B = T*T.

    V* T V e_j = sigma_j C e_j and V* T W e_j = C R e_j.
    """
    k = float(k)
    if not k > 0.0:
        raise InvalidParameter(f"k must be positive, got {k}")
    if not math.isfinite(2.0 * k):
        raise InvalidParameter(f"k must give a finite power |T|^(2k), got {k}")

    def forms(s):
        a = adjoint(s.t_hat) @ s.modulus_power(2.0 * k) @ s.t_hat
        return (a + adjoint(a)) / 2.0, s.gram

    def coordinates(c):
        w = c.cut ** (2.0 * k)
        a = np.concatenate((c.sigma**2 * (w @ c.sq(1)), w @ c.sq(2)))
        return a, c.gram()

    return _FamilyRow(_check_gamma(k + 1.0), 1.0 / k, forms, coordinates)


def _absolute_pr_row(p, r):
    """absolute-(p,r)-paranormal: A = |T*|^r |T|^(2p) |T*|^r, B = |T*|^(2r).

    V* |T*|^r V e_j = C Sigma^r C* e_j and V* |T*|^r W e_j = sigma_j^r C e_j.
    """
    p, r = _validate_pr(p, r)

    def forms(s):
        mod_r = s.modulus_adjoint_power(r)
        a = mod_r @ s.modulus_power(2.0 * p) @ mod_r
        return (a + adjoint(a)) / 2.0, s.modulus_adjoint_power(2.0 * r)

    def coordinates(c):
        wp, wr = c.cut ** (2.0 * p), c.cut ** (2.0 * r)
        a = np.concatenate((wp @ c.conjugated_sq(r), wr * (wp @ c.sq(1))))
        return a, np.concatenate((c.sq(1) @ wr, wr))

    return _FamilyRow(_check_gamma((p + r) / r), 1.0 / p, forms, coordinates)


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
    """(f(v), b(v)) at a unit vector v: f(v) = <Av,v> - b(v)^gamma, b(v) = max(<Bv,v>, 0)."""
    vc = v.conj()
    av = float((vc @ (a @ v)).real)
    bv = max(float((vc @ (b @ v)).real), 0.0)
    return av - (bv**gamma if bv > B_FLOOR else 0.0), bv


def _check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not 1.0 < gamma < math.inf:
        raise InvalidParameter(f"gamma must be finite and exceed 1, got {gamma}")
    return gamma


def decide(a, b, gamma: float, cfg: ToleranceConfig = DEFAULT,
           lam_exp: float = 1.0, first=None) -> PencilCertificate:
    """Certified decision of min over unit x of <Ax,x> - <Bx,x>^gamma >= -psd_tol.

    a, b are the Hermitian forms of a unit-norm matrix (0 <= B <= I) and
    gamma > 1.  Each probe at mu solves one eigenproblem of A - gamma mu B;
    its bottom eigenvector x satisfies f(x) <= g(mu), so any probe with
    f(x) < -psd_tol refutes membership with a replayable witness.  While
    no probe refutes, the interval whose chord bound is lowest is bisected
    until that bound is >= -psd_tol / 100 (certified) or lies within
    psd_tol / 100 of the best objective found (bracketed).  Certified and
    bracketed margins subtract the eigensolver roundoff slack
    n * eps * (||A||_F + gamma ||B||_F).  A witness x comes with
    witness_lambda = mu_x**lam_exp, mu_x = <Bx,x>^(gamma-1): the pencil
    parameter at which the pencil's form at x equals f(x).

    first, when given, is the eigenpair (w, x) of A - gamma B, the first
    seed probe (mu = 1), already solved; decide_family passes the ones it
    solves in stacks.
    """
    gamma = _check_gamma(gamma)
    q = gamma / (gamma - 1.0)
    tol = cfg.psd_tol
    evals = 0
    best_f, best_x, best_b = np.inf, None, 0.0

    def probe(mu: float, pair=None) -> float:
        # h(mu); the bottom eigenvector is the witness candidate
        nonlocal evals, best_f, best_x, best_b
        w, x = pair if pair is not None else eigh(a - (gamma * mu) * b)
        evals += 1
        f, bx = _objective(a, b, gamma, x[:, 0])
        if f < best_f:
            best_f, best_x, best_b = f, x[:, 0], bx
        return float(w[0])

    def interval(m0, h0, m1, h1) -> tuple:
        # heap entry: the minimum over [m0, m1] of chord(mu) + (gamma-1) mu^q,
        # the interval, and where to split it next.  The chord slope lies in
        # [-gamma, 0], so the stationary point mu lies in [0, 1].
        s = (h1 - h0) / (m1 - m0)
        mu = min(max((-s / gamma) ** (gamma - 1.0) if s < 0.0 else 0.0, m0), m1)
        lower = h0 + s * (mu - m0) + (gamma - 1.0) * mu**q
        split = min(max(mu, m0 + SPLIT_MARGIN * (m1 - m0)), m1 - SPLIT_MARGIN * (m1 - m0))
        return lower, m0, m1, h0, h1, split

    def certificate(method: str, margin: float) -> PencilCertificate:
        margin = float(margin)
        decision = margin >= -tol
        if decision:
            return PencilCertificate(method, decision, margin, evaluations=evals)
        # the pencil's form at x is smallest, and equal to f(x), at
        # mu = b(x)^(gamma-1): x itself shows M(lam) has a negative eigenvalue
        mu_x = best_b ** (gamma - 1.0)
        return PencilCertificate(
            method=method,
            decision=decision,
            margin=margin,
            witness_lambda=float(mu_x**lam_exp),
            witness_vector=best_x.copy(),
            evaluations=evals,
        )

    h_at = {}
    for mu in SEED_MUS:
        h_at[mu] = probe(mu, first if mu == 1.0 else None)
        if best_f < -tol:
            return certificate("pencil-refuted", best_f)
    # a refutation needs no slack, so it is computed once the seeds hold
    slack = a.shape[0] * np.finfo(float).eps * (np.linalg.norm(a) + gamma * np.linalg.norm(b))
    resolution = max(RESOLUTION * tol, slack)
    pts = sorted(h_at)
    heap = [interval(m0, h_at[m0], m1, h_at[m1]) for m0, m1 in zip(pts, pts[1:])]
    heapq.heapify(heap)
    while True:
        lower, m0, m1, h0, h1, mid = heap[0]
        if lower >= -resolution:
            return certificate("pencil-certified", lower - slack)
        if best_f - lower <= resolution or not m0 < mid < m1:
            return certificate("pencil-bracketed", lower - slack)
        heapq.heappop(heap)
        hm = probe(mid)
        if best_f < -tol:
            return certificate("pencil-refuted", best_f)
        heapq.heappush(heap, interval(m0, h0, mid, hm))
        heapq.heappush(heap, interval(mid, hm, m1, h1))


def _distinct_forms(rows) -> tuple:
    """The distinct forms of rows, by identity, and each row's index of A and of B among them.

    The default grids' 12 rows hold 16 distinct forms: 12 A forms and 4 B
    forms, since the snapshot caches T*T and each |T*|^(2r).
    """
    index: dict = {}
    for row in rows:
        for form in row[:2]:
            index.setdefault(id(form), (len(index), form))
    forms = [form for _, form in index.values()]
    ia = np.array([index[id(row[0])][0] for row in rows])
    ib = np.array([index[id(row[1])][0] for row in rows])
    return forms, ia, ib


def _basis_certificates(rows, cfg: ToleranceConfig, basis: np.ndarray) -> list:
    """The certificate of each row that basis certifies, None for the others.

    With V = basis, alpha and d the diagonals of V*AV and V*BV, and e_A,
    e_B the Frobenius norms of their off-diagonal parts, Weyl's inequality
    gives g(mu) >= min_j [alpha_j - gamma mu (d_j + e_B) + (gamma-1) mu^q] - e_A.
    Each j's term is convex in mu with its minimum at the clamped
    mu = (d_j + e_B)^(gamma-1).  V*MV has the eigenvalues of M only to
    within ||M|| ||V*V - I|| (Ostrowski), so the margin subtracts
    (||A||_F + gamma ||B||_F) ||V*V - I||_F on top of decide's slack.
    Each distinct form is projected once, in two broadcast products over
    their stack.
    """
    n = basis.shape[0]
    gamma = np.array([row[2] for row in rows], dtype=float)
    forms, ia, ib = _distinct_forms(rows)
    forms = np.stack(forms)
    vh = adjoint(basis)
    proj = vh @ forms @ basis
    idx = np.arange(n)
    diag = proj[:, idx, idx].real
    # zero the diagonal: ||X||_F^2 - ||diag||^2 cancels to ~sqrt(eps)
    proj[:, idx, idx] = 0.0
    off = np.linalg.norm(proj, axis=(1, 2))
    scale = np.linalg.norm(forms, axis=(1, 2))
    size = scale[ia] + gamma * scale[ib]
    slack = n * np.finfo(float).eps * size
    orth = float(np.linalg.norm(vh @ basis - np.eye(n)))
    # gamma at full shape: an exponent that broadcasts from one row takes
    # numpy's scalar path (x**2 as x*x), which rounds unlike its vector pow,
    # and a one-row call must give the bits that row gets in a stack
    g = np.repeat(gamma[:, None], n, axis=1)
    d = np.maximum(diag[ib] + off[ib, None], 0.0)
    mu = np.minimum(d ** (g - 1.0), 1.0)
    bound = np.min(diag[ia] - g * mu * d + (g - 1.0) * mu ** (g / (g - 1.0)), axis=1) - off[ia]
    margin = bound - slack - size * orth
    tol = cfg.psd_tol
    # a certificate is a member's: one the slacks push below -psd_tol
    # (large n) has no witness to report, so decide takes that row
    certified = (bound >= -np.maximum(RESOLUTION * tol, slack)) & (margin >= -tol)
    return [PencilCertificate("snapshot-basis-certified", True, float(m)) if ok else None
            for m, ok in zip(margin, certified)]


def _coordinate_refutation(a, b, gamma: float, lam_exp: float, columns: np.ndarray,
                           cfg: ToleranceConfig):
    """The "snapshot-basis-refuted" certificate of a row from a(x), b(x) at the columns x, or None.

    The row is refuted at its lowest column x, the first on ties, when
    f(x) <= -10 psd_tol: the edge of config.is_marginal's band, so no such
    refutation is marginal.  Margin and witness are built from f(x) and
    b(x) as decide builds a refutation, so evaluate_objective replays them
    to roundoff.
    """
    with np.errstate(over="ignore"):
        f = a - np.where(b > B_FLOOR, b**gamma, 0.0)
    j = int(np.argmin(f))
    if not math.isfinite(f[j]):
        # b(x) above 1 by roundoff, raised to a huge gamma, as decide's
        # _objective would raise at that x
        raise OverflowError(f"b(x)^gamma does not fit a float at gamma = {gamma}")
    if f[j] > -10.0 * cfg.psd_tol:
        return None
    return PencilCertificate("snapshot-basis-refuted", False, float(f[j]),
                             witness_lambda=float((b[j] ** (gamma - 1.0)) ** lam_exp),
                             witness_vector=columns[:, j].copy())


def decide_family(rows, cfg: ToleranceConfig = DEFAULT, basis: np.ndarray | None = None):
    """Yield one certificate per row (a, b, gamma, lam_exp) of the list rows, in order.

    When basis is given every row is first tried in it at once; a row
    whose bound is >= -psd_tol / 100 is "snapshot-basis-certified" with
    evaluations = 0.  Every other row is decided by :func:`decide`, handed
    its mu = 1 probe from one stacked eigensolve per B form.  That probe
    refutes most of the rest; the other rows bisect as decide alone would.
    A stacked eigh gives the eigenpairs of one eigh per matrix, bit for
    bit, so every certificate is the one decide alone gives.  Rows share a
    B form by identity (the snapshot caches T*T and each |T*|^(2r)), and
    stacking per B rather than all rows keeps the probe's memory at one
    group's.  The decide calls run as the caller consumes the
    certificates, so a profiler sees each one as a decision made by the
    caller (perfbench counts decisions that way).
    """
    rows = [(a, b, _check_gamma(gamma), lam_exp) for a, b, gamma, lam_exp in rows]
    if basis is not None and rows:
        certs = _basis_certificates(rows, cfg, basis)
    else:
        certs = [None] * len(rows)
    groups: dict = {}
    for i, cert in enumerate(certs):
        if cert is None:
            groups.setdefault(id(rows[i][1]), []).append(i)
    for members in groups.values():
        # decide's first probe, A - (gamma mu) B at mu = 1 with the same
        # floats, written straight into the stack: no per-row temporaries
        b = rows[members[0]][1]
        stack = np.empty((len(members), *b.shape), np.result_type(b, *(rows[i][0] for i in members)))
        for j, i in enumerate(members):
            np.subtract(rows[i][0], rows[i][2] * b, out=stack[j])
        w, x = eigh(stack)
        del stack
        for j, i in enumerate(members):
            a, b, gamma, lam_exp = rows[i]
            certs[i] = decide(a, b, gamma, cfg, lam_exp, (w[j], x[j]))
    yield from certs


def family_certificates(t, specs, cfg: ToleranceConfig = DEFAULT):
    """Yield one certificate per (class_id, params) pair of the list specs, in order.

    params is a dict of the class's parameters (k, or p and r), or None.
    A class that holds for every T (k-paranormal with k = 0) yields None.
    Every spec is validated before any work.  A T that passes is_normal's
    test builds every row's forms for :func:`decide_family` with its right
    singular vectors V as the basis to certify in: every family form of a
    normal T is a function of T*T, which V diagonalizes.  Any other T has
    every row's f evaluated at the columns of [V W] in the snapshot's
    singular coordinates (_SingularCoordinates), with no n x n form, and
    a row whose lowest column has f <= -10 psd_tol is
    "snapshot-basis-refuted" with evaluations = 0.  Only the rows left
    build their forms and go to decide_family.  Refutations and decisions
    are made as the caller consumes the certificates, like decide_family's.
    """
    rows = [FAMILY_FORMS[class_id](**(params or {})) for class_id, params in specs]
    s = snapshot(t, cfg)
    live = [row for row in rows if row is not None]
    if s.normality_defect <= cfg.eq_rtol:
        basis, certs = s.right_singular_vectors, [None] * len(live)
    else:
        coords = _SingularCoordinates(s)
        columns = np.hstack((s.right_singular_vectors, s.left_singular_vectors))
        basis = None
        certs = [_coordinate_refutation(*row.coordinates(coords), row.gamma, row.lam_exp, columns, cfg)
                 for row in live]
    decided = decide_family([(*row.forms(s), row.gamma, row.lam_exp)
                             for row, cert in zip(live, certs) if cert is None], cfg, basis)
    certs = iter(certs)
    for row in rows:
        if row is None:
            yield None
            continue
        cert = next(certs)
        yield cert if cert is not None else next(decided)


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
    membership by itself, which is why :func:`decide` stays authoritative.
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


def dense_oracle(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT, seed: int = 0,
                 samples_log2: int = ORACLE_SAMPLES_LOG2) -> PencilCertificate:
    """Dense quasi-random sphere scan: the decider's independent reference."""
    p, r = _validate_pr(p, r)
    s = snapshot(t, cfg)
    if s.norm == 0.0:
        return PencilCertificate(method="dense-oracle", decision=True, margin=0.0)
    a, b, gamma, _ = family_forms(s, "absolute-pr-paranormal", cfg, p=p, r=r)
    pts = _unit_sphere_cache(a.shape[0], samples_log2, seed + 104729)
    vals = kernels.objective_batch(a, b, pts, gamma, b_floor=B_FLOOR)
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
    """Paranormality via :func:`decide_family` on Ando's pencil (lam = mu)."""
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
