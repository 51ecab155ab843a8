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

and the same template covers k-paranormal (A = (T^(k+1))* T^(k+1), B = T*T,
gamma = k+1; paranormal at k = 1) and absolute-k-paranormal
(A = T* |T|^(2k) T, B = T*T, gamma = k+1).

With T scaled to unit norm, 0 <= B <= I, and the tangent bound
b^gamma >= gamma mu b - (gamma-1) mu^(gamma/(gamma-1)) (equality at
mu = b^(gamma-1) <= 1) turns the minimum of f over the sphere into the
one-dimensional problem

    min over mu in [0, 1] of  g(mu) = lambda_min(A - gamma mu B) + (gamma-1) mu^(gamma/(gamma-1)).

For Ando's paranormality pencil T*^2 T^2 - 2 lam T*T + lam^2 I this is
g(lam) itself.

The paper proves that an absolute-(p,r)-paranormal T with T^2 compact
is normal, so in finite dimension every class of the family equals
normal.  Every row starts from the snapshot's singular coordinates: with
T_hat = W Sigma V*, C = V*W (SpectralSnapshot.coordinates) and
R = Sigma C, T_hat V e_j = sigma_j W e_j and T_hat W y = W R y, while
|T_hat|^s = V Sigma^s V* and |T_hat*|^s = W Sigma^s W* scale coordinates.
So each value and projected form the family needs comes from
Y_m = C R^(m-1) (SpectralSnapshot.coordinate_power) and C Sigma^r C*
(SpectralSnapshot.coordinate_adjoint_power), assuming V and W
orthonormal, with no n x n form of T; T_hat itself uses the uncut
sigma_hat, a modulus power the cut one.  A row is data, its key
(kind and parameters), gamma and lam_exp, and one cached plan of the row
keys (_row_plan) is the only code that says how a kind's forms come from
C and Sigma.
:func:`family_certificates` is the one entry: it decides each distinct
row once, all rows in one pass on the path is_normal's test picks.
Every form of a normal T is a function of T*T, which V diagonalizes, so
a T that passes has a row "snapshot-basis-certified" when Weyl's
inequality on its V*AV and V*BV gives a margin, less the slacks,
>= -psd_tol; all rows' V*AV = Z*Z and distinct V*BV come as one stack
(_projected).  Any other T has f tabled at every column of [V W]
(_column_table), and a row whose lowest column has f <= -10 psd_tol is
"snapshot-basis-refuted".  Neither makes an eigensolve.

Every other row goes to :func:`decide`, the last witness search, on its
slices of the same stack: three seed probes at mu = 1, 0 and 1/2, one full
eigensolve each, whose bottom eigenvectors y give x = V y with
f(x) <= g(mu).  One with f(x) < -psd_tol beyond f's roundoff refutes
the row.  A row no probe refutes is "collapse-marginal": a member by its
margin, the smallest f the probes saw (at least -psd_tol), which is not
a bound, and marginal by the collapse.

The definitions (the rows of FAMILY_FORMS, the objective rule and the
certificate) come from normaloid.reference, which also holds the n x n
reference forms and the checks built on them.  Every check here works
on one linalg.SpectralSnapshot of T (built here when a caller passes a
plain matrix), so the forms come from T / ||T||, margins are already
relative and the PSD threshold applies directly.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, MARGINAL_FACTOR, ToleranceConfig
from .errors import ConvergenceFailure, InvalidParameter
from .linalg import SpectralSnapshot, adjoint, eigh, snapshot
from .reference import FAMILY_FORMS, PencilCertificate, _check_gamma, _objective, _values

# decide's probes on [0, 1], in order; refutations usually fall on the first
SEED_MUS = (1.0, 0.0, 0.5)
# method of a row neither certified nor refuted; by the paper's
# finite-dimensional collapse its verdict is marginal
COLLAPSE = "collapse-marginal"
# most complex entries of the family's Z built at once (1 MB): every
# default-grid row in one go up to n = 64, one row at a time from n = 256
Z_STACK_ENTRIES = 2**16


def decide(a, b, gamma: float, cfg: ToleranceConfig = DEFAULT,
           lam_exp: float = 1.0) -> PencilCertificate:
    """The seed probes' verdict on min over unit x of <Ax,x> - <Bx,x>^gamma >= -psd_tol.

    a, b are the forms of a unit-norm matrix (0 <= B <= I) in an
    orthonormal basis, V*AV and V*BV say, whose Hermitian parts the probes
    read, and gamma > 1.  The probe at each mu of SEED_MUS solves one
    eigenproblem of A - gamma mu B; its bottom eigenvector x satisfies
    f(x) <= g(mu).  Once the best x so far has f(x) + slack < -psd_tol,
    with _weyl_margins' roundoff slack n eps (||A||_F + gamma ||B||_F), the
    row is "pencil-refuted", with margin f(x) and x as a replayable witness
    (see _refutation).  A row no probe refutes is "collapse-marginal":
    decision True and margin the smallest f the probes saw, at least
    -psd_tol.  That margin is not a lower bound on the minimum; the verdict
    rests on the paper's finite-dimensional collapse and is marginal.
    """
    gamma = _check_gamma(gamma)
    a, b = (a + adjoint(a)) / 2.0, (b + adjoint(b)) / 2.0
    slack = a.shape[0] * np.finfo(float).eps * (np.linalg.norm(a) + gamma * np.linalg.norm(b))
    best_f, best_x, best_b = np.inf, None, 0.0
    for evals, mu in enumerate(SEED_MUS, 1):
        x = eigh(a - (gamma * mu) * b)[1][:, 0]
        f, bx = _objective(*_values(a, b, x), gamma)
        if f < best_f:
            best_f, best_x, best_b = f, x, bx
        if best_f + slack < -cfg.psd_tol:
            return _refutation("pencil-refuted", best_f, best_b, gamma, lam_exp, best_x, evals)
    return PencilCertificate(COLLAPSE, True, max(float(best_f), -cfg.psd_tol), evaluations=len(SEED_MUS))


def _refutation(method: str, f, b, gamma: float, lam_exp: float, x: np.ndarray,
                evaluations: int = 0) -> PencilCertificate:
    """The certificate refuting a row at the unit vector x, where f(x) = f < 0 and b(x) = b.

    The pencil's form at x is smallest, and equal to f, at mu = b^(gamma-1):
    x shows M(lam) has a negative eigenvalue at lam = mu**lam_exp.
    """
    return PencilCertificate(method, False, float(f), witness_lambda=float((b ** (gamma - 1.0)) ** lam_exp),
                             witness_vector=x.copy(), evaluations=evaluations)


# _RowPlan.bs entry of the V*BV Sigma^2, which no middle holds
_GRAM = -1
# the first rows of _vectors; Sigma_cut^e follows for each e of _RowPlan.exps
_SIGMA, _ONES, _SQUARE = 0, 1, 2


class _RowPlan(NamedTuple):
    """How _projected and _column_table build the forms of one tuple of row keys.

    The vectors are sigma, ones, sigma^2, then Sigma_cut^e for each e of
    exps.  A middle is Y_m, named ("y", m), or C Sigma_cut^e C*, named
    ("conj", e); the snapshot forms and keeps both.  Row i's Z is
    middles[mid[i]] with rows scaled by vector left[i] and columns by
    right[i], and its V*AV = Z*Z is stack entry i.  The distinct V*BV follow, one per entry
    of bs (a middle, or Sigma^2 for _GRAM); row i's is stack entry b[i].
    Row i's a on V, a on W, b on V and b on W are, for j = 0..3, the vector
    scale[i, j] times products[product[i, j]]: a triple (left, M,
    transposed) for left @ |column_middles[M]|^2, that square transposed
    when transposed is set, or left itself when M is None (the identity).
    index maps a row key to its i.
    """

    exps: tuple
    middles: tuple
    mid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    bs: tuple
    b: np.ndarray
    column_middles: tuple
    products: tuple
    scale: np.ndarray
    product: np.ndarray
    index: dict


@functools.lru_cache(maxsize=64)
def _row_plan(keys: tuple) -> _RowPlan:
    """The _RowPlan of a tuple of distinct row keys: each kind's forms from C and Sigma, as data.

    With R = Sigma C, T_hat V e_j = sigma_j W e_j and T_hat W y = W R y,
    so a column value is a squared norm sum_i l_i |M_ij|^2, scaled: the
    column table is README's "Snapshot-basis refutation" table.
    """
    exps, middles, bs, column_middles, products = {}, {}, {}, {}, {}

    def at(table: dict, item) -> int:
        return table.setdefault(item, len(table))

    def vector(e: float) -> int:
        return 3 + at(exps, e)

    def value(scale: int, left: int, middle, transposed: bool = False) -> tuple:
        m = None if middle is None else at(column_middles, middle)
        return scale, at(products, (left, m, transposed))

    rows, values = [], []  # each row's (mid, left, right, V*BV) and four column values
    for kind, *args in keys:
        # B = T*T: b is sigma_j^2 on V and ||R e_j||^2 on W
        gram = (value(_ONES, _SQUARE, None), value(_ONES, _SQUARE, ("y", 1)))
        if kind == "k-paranormal":
            # T^(k+1) V e_j = sigma_j W R^k e_j and T^(k+1) W e_j = W R^(k+1) e_j,
            # with ||R^m e_j||^2 = sum_i sigma_i^2 |(Y_m)_ij|^2
            k = args[0]
            rows.append((at(middles, ("y", k)), _SIGMA, _SIGMA, _GRAM))
            values.append((value(_SQUARE, _SQUARE, ("y", k)), value(_ONES, _SQUARE, ("y", k + 1)), *gram))
        elif kind == "absolute-k-paranormal":
            # V* T V e_j = sigma_j C e_j and V* T W e_j = C R e_j
            w = vector(2.0 * args[0])
            rows.append((at(middles, ("y", 1)), vector(args[0]), _SIGMA, _GRAM))
            values.append((value(_SQUARE, w, ("y", 1)), value(_ONES, w, ("y", 2)), *gram))
        else:
            # V* |T*|^r V e_j = C Sigma^r C* e_j and V* |T*|^r W e_j = sigma_j^r C e_j
            p, r = args
            wp, wr, conj = vector(2.0 * p), vector(2.0 * r), ("conj", r)
            rows.append((at(middles, conj), vector(p), _ONES, at(middles, ("conj", 2.0 * r))))
            values.append((value(_ONES, wp, conj), value(wr, wp, ("y", 1)), value(_ONES, wr, ("y", 1), True),
                           value(_ONES, wr, None)))
    mid, left, right, b = (np.array(x, dtype=np.intp) for x in zip(*rows))
    b = len(keys) + np.array([at(bs, j) for j in b.tolist()], dtype=np.intp)
    scale, product = np.array(values, dtype=np.intp).transpose(2, 0, 1)
    return _RowPlan(tuple(exps), tuple(middles), mid, left, right, tuple(bs), b, tuple(column_middles),
                    tuple(products), scale, product, {key: i for i, key in enumerate(keys)})


def _vectors(plan: _RowPlan, s: SpectralSnapshot) -> np.ndarray:
    """The plan's vectors: one scalar-exponent pow per exponent (numpy's vector pow rounds unlike it)."""
    vectors = np.empty((3 + len(plan.exps), len(s.sigma_hat)))
    vectors[_SIGMA], vectors[_ONES], vectors[_SQUARE] = s.sigma_hat, 1.0, s.sigma_hat**2
    for j, e in enumerate(plan.exps, 3):
        vectors[j] = s.cut_singular_values**e
    return vectors


def _middle(key: tuple, s: SpectralSnapshot) -> np.ndarray:
    """The middle key names, as the snapshot keeps it: Y_m, or C Sigma_cut^e C*."""
    kind, m = key
    return s.coordinate_power(m) if kind == "y" else s.coordinate_adjoint_power(m)


def _projected(keys: tuple, s: SpectralSnapshot) -> tuple:
    """(stack, plan): V*AV of each row key, then the rows' distinct V*BV, as one complex stack.

    Built by _row_plan(keys) from C and Sigma: each Z by two broadcasts
    and all Z*Z as one stacked product.  Stacked 3-D products and
    elementwise operations give a row the bits it gets alone, whichever
    rows sit beside it.
    """
    plan = _row_plan(keys)
    n = len(s.sigma_hat)
    vectors = _vectors(plan, s)
    middles = np.array([_middle(key, s) for key in plan.middles])
    stack = np.empty((len(keys) + len(plan.bs), n, n), np.complex128)
    for j, middle in enumerate(plan.bs, len(keys)):
        stack[j] = np.diag(vectors[_SQUARE]) if middle == _GRAM else middles[middle]
    # Z and its conjugate for at most Z_STACK_ENTRIES entries at a time
    step = max(1, Z_STACK_ENTRIES // (n * n))
    for i in range(0, len(keys), step):
        rows = slice(i, min(i + step, len(keys)))
        z = middles[plan.mid[rows]]
        z *= vectors[plan.left[rows], :, None]
        z *= vectors[plan.right[rows], None, :]
        np.matmul(z.conj().swapaxes(1, 2), z, out=stack[rows])
    return stack, plan


def _column_table(keys: tuple, s: SpectralSnapshot) -> tuple:
    """(a, b): a(x) = <Ax,x> and b(x) = <Bx,x> of each row key at the 2n columns x of [V W], V's first.

    Built by _row_plan(keys): one |M|^2 per distinct middle, one
    vector-matrix product per distinct (left, M) and every value in one
    elementwise product, which give a row the bits it gets alone.
    """
    plan = _row_plan(keys)
    n = len(s.sigma_hat)
    vectors = _vectors(plan, s)
    sq = np.empty((len(plan.column_middles), n, n))
    for j, key in enumerate(plan.column_middles):
        x = _middle(key, s)
        np.add(x.real**2, x.imag**2, out=sq[j])
    products = np.empty((len(plan.products), n))
    for i, (left, m, transposed) in enumerate(plan.products):
        products[i] = vectors[left] if m is None else vectors[left] @ (sq[m].T if transposed else sq[m])
    return (vectors[plan.scale] * products[plan.product]).reshape(len(keys), 2, -1).transpose(1, 0, 2)


def _weyl_terms(stack: np.ndarray) -> tuple:
    """Real diagonals, off-diagonal Frobenius norms and Frobenius norms of a stack of n x n matrices.

    The off-diagonal norms zero the stack's diagonals, as ||X||_F^2 - ||diag||^2
    would cancel to ~sqrt(eps), and then put them back; dot products of the
    real view need no temporary.
    """
    idx = np.arange(stack.shape[-1])
    flat = stack.reshape(len(stack), -1).view(np.float64)
    diag = stack[:, idx, idx]
    scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    stack[:, idx, idx] = 0.0
    off = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    stack[:, idx, idx] = diag
    return diag.real, off, scale


def _weyl_margins(rows, stack: np.ndarray, plan: _RowPlan, s: SpectralSnapshot) -> np.ndarray:
    """Each row's certified lower bound on min g, less the slacks, from _projected's stack.

    rows are the plan's, in its order.  With alpha, d the diagonals of a
    row's V*AV, V*BV and e_A, e_B the Frobenius norms of their off-diagonal
    parts, Weyl's inequality gives g(mu) >= min_j [alpha_j - gamma mu
    (d_j + e_B) + (gamma-1) mu^q] - e_A, each j's term minimal at the
    clamped mu = (d_j + e_B)^(gamma-1).  The margin subtracts the
    eigensolver roundoff slack n * eps * (||A||_F + gamma ||B||_F) and,
    since the coordinates assume V and W orthonormal and V*MV has the
    eigenvalues of M only to within ||M|| ||V*V - I|| (Ostrowski),
    (||A||_F + gamma ||B||_F) (||V*V - I||_F + ||W*W - I||_F).  One
    _weyl_terms pass reads every V*AV and V*BV of the stack.
    """
    n, m = stack.shape[-1], len(plan.b)
    gamma = np.array([row.gamma for row in rows], dtype=float)
    diag, off, scale = _weyl_terms(stack)
    size = scale[:m] + gamma * scale[plan.b]
    slack = n * np.finfo(float).eps * size
    # gamma at full shape: an exponent that broadcasts from one row takes
    # numpy's scalar path (x**2 as x*x), which rounds unlike its vector pow,
    # and a one-row call must give the bits that row gets among many
    g = np.repeat(gamma[:, None], n, axis=1)
    d = np.maximum(diag[plan.b] + off[plan.b, None], 0.0)
    mu = np.minimum(d, 1.0) ** (g - 1.0)  # clamped first: d > 1 by roundoff overflows at a huge gamma
    bound = np.min(diag[:m] - g * mu * d + (g - 1.0) * mu ** (g / (g - 1.0)), axis=1) - off[:m]
    return bound - slack - size * s.orthogonality_defect


def _lowest_columns(rows, s: SpectralSnapshot) -> tuple:
    """(f, b, j): each row's f(x) and clamped b(x) at the columns x of [V W], and its lowest column.

    The rows' _column_table goes through _objective one gamma at a time,
    rows grouped by gamma: numpy's pow with a scalar exponent (x**2 as
    x*x) rounds unlike pow with an exponent array, and refutations keep
    the scalar exponent's bits.  Ties go to the first column.
    """
    a, b = _column_table(tuple(row.key for row in rows), s)
    gamma = np.array([row.gamma for row in rows])
    f = np.empty_like(a)
    for g in set(gamma.tolist()):
        rows_g = gamma == g
        f[rows_g], b[rows_g] = _objective(a[rows_g], b[rows_g], g)
    return f, b, np.argmin(f, axis=1)


def family_certificates(t, specs, cfg: ToleranceConfig = DEFAULT):
    """Yield one certificate per (class_id, params) pair of the list specs, in order.

    params is a dict of the class's parameters (k, or p and r), or None.
    A class that holds for every T (k-paranormal with k = 0) yields None.
    Every spec is validated before any work, and an InvalidParameter
    message starts with the class id of the spec it rejects.  Specs with one row
    (_FamilyRow.key; paranormal is k-paranormal and absolute-k-paranormal
    at k = 1) share one certificate.  The distinct rows are decided together:

    1. on a T that passes is_normal's test, "snapshot-basis-certified" when
       its Weyl margin (_weyl_margins), less every slack, is >= -psd_tol;
    2. on any other T, "snapshot-basis-refuted" at its lowest column x of
       [V W] (_lowest_columns) when f(x) <= -MARGINAL_FACTOR psd_tol, the
       edge of config.is_marginal's band, so no such refutation is marginal;
    3. a row left by both goes to decide's seed probes on its V*AV and
       V*BV, which refute it at x = V y or, by the paper's collapse, call
       it "collapse-marginal".

    All three read the snapshot's singular coordinates, which it builds
    once and keeps (coordinate_power, orthogonality_defect), and the Weyl
    margins and the probes one _projected stack; the probes run as the
    caller consumes the certificates.  0 <= a, b <= 1 for a unit-norm T, so
    f = a - b^gamma and every margin lie in [-1, 1]; a margin outside it, as
    roundoff grown in a huge power Y_m gives, is a ConvergenceFailure
    naming the spec.
    """
    rows = []
    for class_id, params in specs:
        try:
            rows.append(FAMILY_FORMS[class_id](**(params or {})))
        except InvalidParameter as exc:
            raise InvalidParameter(f"{class_id}: {exc}") from exc
    s = snapshot(t, cfg)
    live = {row.key: row for row in rows if row is not None}
    certs = dict.fromkeys(live)
    plan = None
    if live and s.normality_defect <= cfg.eq_rtol:
        stack, plan = _projected(tuple(live), s)
        for key, m in zip(live, _weyl_margins(live.values(), stack, plan, s)):
            if m >= -cfg.psd_tol:
                certs[key] = PencilCertificate("snapshot-basis-certified", True, float(m))
    elif live:
        columns = np.hstack((s.right_singular_vectors, s.left_singular_vectors))
        for row, f, b, j in zip(live.values(), *_lowest_columns(live.values(), s)):
            if f[j] <= -MARGINAL_FACTOR * cfg.psd_tol:
                certs[row.key] = _refutation("snapshot-basis-refuted", f[j], b[j], row.gamma, row.lam_exp,
                                             columns[:, j])
    for (class_id, params), row in zip(specs, rows):
        if row is None:
            yield None
            continue
        if certs[row.key] is None:
            if plan is None:  # the rows the columns left, in one stack
                stack, plan = _projected(tuple(key for key, cert in certs.items() if cert is None), s)
            i = plan.index[row.key]
            certs[row.key] = cert = decide(stack[i], stack[plan.b[i]], row.gamma, cfg, row.lam_exp)
            if cert.witness_vector is not None:  # y, a unit vector in V's coordinates
                cert.witness_vector = s.right_singular_vectors @ cert.witness_vector
        cert = certs[row.key]
        if not -1.0 <= cert.margin <= 1.0:
            raise ConvergenceFailure(f"{class_id} {params or {}}: margin {cert.margin:.3e} lies outside [-1, 1], "
                                     f"the range of f = a - b^gamma for a unit-norm T; roundoff swamped its forms")
        yield cert


def check_abs_pr_sphere(t, p: float, r: float, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Absolute-(p,r)-paranormality by :func:`family_certificates` on its one row.

    witness_lambda is in the units of reference.pencil_stacks on the forms
    of T / ||T|| (lam = mu^(1/p)).
    """
    return next(family_certificates(t, [("absolute-pr-paranormal", {"p": p, "r": r})], cfg))


def check_paranormal(t, cfg: ToleranceConfig = DEFAULT) -> PencilCertificate:
    """Paranormality via :func:`family_certificates` on Ando's pencil (lam = mu)."""
    return next(family_certificates(t, [("paranormal", None)], cfg))
