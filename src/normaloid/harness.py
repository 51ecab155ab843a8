"""Executable property suites for the theorem surface.

Each suite turns one theorem into seeded trials over constructively
generated matrices: premises are established by construction (and
re-checked), and conclusions are asserted through the public predicates.

Trial functions: a suite is one function trial(suite, t, rng) that
returns (slacks, payload) for trial t.  run_suite is the only loop over
trials; it records each pair with _Suite.record.  Every slack is
nonnegative exactly when its assertion holds, and None marks a verdict in
the marginal annulus: such a trial is skipped (counted, never silently
dropped) rather than judged.  worst_margin is the smallest slack over
evaluated trials.  payload is a zero-argument callable that builds the
counterexample (the matrix and whatever else replays the failure).  It is
called only for the first failing trial, so a passing run builds none.

Implications: _implies judges "the premises imply the conclusion" once
every verdict is solid.  When all premises hold, the conclusion must.
When the conclusion fails, the contrapositive is asserted instead: some
premise must fail solidly.

Determinism: trial t of suite s at seed q draws rng from
PCG64(SeedSequence((q, s, t, 0))), and the generators it calls take
SeedSequence((q, s, t, salt)) with salt >= 1, so results files are
byte-identical for identical (suite, trials, seed, config).
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from . import generators as gen
from .classes import (
    _family_verdicts,
    _verdict,
    ascent,
    classify,
    is_absolute_pr_paranormal,
    is_binormal,
    is_hyponormal,
    is_normal,
    is_normaloid,
    is_partial_isometry,
    is_posinormal,
    is_quasinormal,
    is_self_adjoint,
    is_unitary,
    posinormal_lambda_min,
)
from .config import DEFAULT, ToleranceConfig
from .errors import InvalidParameter, PremiseViolated, UnknownTheoremId
from .fixtures import get_fixture
from .linalg import (
    adjoint,
    eigh,
    eigvalsh,
    hermitian_part,
    matrix_power,
    operator_norm,
    snapshot,
    spectral_radius,
    svd,
)
from .matrixio import matrix_to_obj
from .reference import binormal_scalar_check, polar_factor
from .transforms import (
    embry_power_identity,
    fundamental_identity_residual,
    intermediate_power_inequality_check,
    polar_conjugation_residual,
    power_inequality_check,
    trans_equiv_residual,
)

PR_GRID = tuple((p, r) for p in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0))
RESIDUAL_TOL = 1e-8


@dataclasses.dataclass
class PropertyResult:
    theorem_id: str
    trials: int
    failures: int
    skipped: int
    worst_margin: Optional[float]
    counterexample: Optional[dict]
    seed: int
    rng: str = gen.RNG_NAME

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


class _Suite:
    """Bookkeeping for one suite run: one record call per trial."""

    def __init__(self, theorem_id: str, seed: int, cfg: ToleranceConfig):
        self.theorem_id = theorem_id
        self.index = THEOREM_IDS.index(theorem_id)
        self.seed = int(seed)
        self.cfg = cfg
        self.trials = 0
        self.failures = 0
        self.skipped = 0
        self.worst: Optional[float] = None
        self.counterexample: Optional[dict] = None

    def seq(self, trial: int, salt: int = 0) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=(self.seed, self.index, trial, salt))

    def record(self, slacks, payload: Callable[[], dict]):
        """slacks: iterable of float (assert results) or None (marginal)."""
        self.trials += 1
        slacks = list(slacks)
        if any(s is None for s in slacks):
            self.skipped += 1
            return
        low = min(slacks) if slacks else 0.0
        if self.worst is None or low < self.worst:
            self.worst = low
        if low < 0.0:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = payload()

    def result(self) -> PropertyResult:
        return PropertyResult(
            theorem_id=self.theorem_id,
            trials=self.trials,
            failures=self.failures,
            skipped=self.skipped,
            worst_margin=self.worst,
            counterexample=self.counterexample,
            seed=self.seed,
        )


# a trial that cannot be judged (a degenerate draw, or a premise the
# construction missed): counted as skipped
_SKIP = ([None], None)


def _member(v) -> Optional[float]:
    """Slack for 'must be a member'; None skips the trial (marginal)."""
    if v.marginal:
        return None
    return v.margin + v.threshold


def _nonmember(v) -> Optional[float]:
    if v.marginal:
        return None
    return -(v.margin + v.threshold)


def _agree(v1, v2) -> Optional[float]:
    """Slack for 'memberships must agree' (skip when either is marginal)."""
    if v1.marginal or v2.marginal:
        return None
    if v1.member == v2.member:
        return 0.0
    return -min(abs(v1.margin), abs(v2.margin))


def _implies(premises, conclusion) -> Optional[float]:
    """Slack for 'all premises imply the conclusion' (skip when any is marginal).

    A failed conclusion is judged by the contrapositive: some premise
    must fail solidly.
    """
    if conclusion.marginal or any(v.marginal for v in premises):
        return None
    if all(v.member for v in premises):
        return _member(conclusion)
    if not conclusion.member:
        return max(_nonmember(v) for v in premises)
    return 0.0


def _payload(t: np.ndarray, **extra) -> dict:
    out = {"matrix": matrix_to_obj(t)}
    out.update(extra)
    return out


def _sizes(rng: np.random.Generator, lo: int = 2, hi: int = 5) -> int:
    return int(rng.integers(lo, hi + 1))


def _pick_pr(rng: np.random.Generator):
    return PR_GRID[int(rng.integers(0, len(PR_GRID)))]


def _draw(kind: str, n: int, seq, rng: np.random.Generator) -> np.ndarray:
    """A member of generator class kind, seeded by seq.

    The two partial-isometry classes take a rank, drawn from rng
    uniformly in 1..n; no other class draws from rng.
    """
    rank = int(rng.integers(1, n + 1)) if kind in gen._RANKED else None
    return gen.generate(kind, n, seq, rank)


# ---------------------------------------------------------------- suites


def _trial_self_adjoint_char(suite: _Suite, t: int, rng: np.random.Generator):
    """Self-adjointness of T is equivalent to the absolute-(p,r) inequality
    holding together with a self-adjoint polar factor."""
    cfg = suite.cfg
    p, r = _pick_pr(rng)
    branch = t % 4
    if branch in (0, 2):
        n = _sizes(rng)
        h = gen.gen_hermitian(n, suite.seq(t, 1))
        if branch == 2:
            # force rank deficiency: project out a random direction
            w, q = eigh(h)
            w[int(rng.integers(0, n))] = 0.0
            h = hermitian_part((q * w) @ q.conj().T)
        snap = snapshot(h, cfg)
        return [
            _member(is_absolute_pr_paranormal(snap, p, r, cfg)),
            _member(is_self_adjoint(polar_factor(snap), cfg)),
        ], lambda: _payload(h, branch="hermitian", p=p, r=r)
    if branch == 1:
        # normal with spectrum held away from the real axis
        n = _sizes(rng)
        w = gen.gen_unitary(n, suite.seq(t, 1))
        moduli = rng.uniform(0.3, 2.0, n)
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        phases = signs * rng.uniform(0.4, np.pi - 0.4, n)
        tmat = (w * (moduli * np.exp(1j * phases))) @ adjoint(w)
        snap = snapshot(tmat, cfg)
        return [
            _member(is_absolute_pr_paranormal(snap, p, r, cfg)),
            _nonmember(is_self_adjoint(snap, cfg)),
            _nonmember(is_self_adjoint(polar_factor(snap), cfg)),
        ], lambda: _payload(tmat, branch="nonreal-normal", p=p, r=r)
    # normaloid with self-adjoint polar factor but failing inequality
    fx = get_fixture("normaloid_swap3").matrix
    snap = snapshot(fx, cfg)
    return [
        _member(is_self_adjoint(polar_factor(snap), cfg)),
        _nonmember(is_self_adjoint(snap, cfg)),
        _nonmember(is_absolute_pr_paranormal(snap, p, r, cfg)),
        _member(is_normaloid(snap, cfg)),
    ], lambda: _payload(fx, branch="fixture", p=p, r=r)


def _trial_two_by_two(suite: _Suite, t: int, rng: np.random.Generator):
    """For 2x2 matrices, normaloid and normal coincide."""
    cfg = suite.cfg
    u = rng.random()
    if u < 0.80:
        kind = "normal" if u < 0.40 else "random"
        tmat = _draw(kind, 2, suite.seq(t, 1), rng)
    elif u < 0.97:
        a = rng.uniform(0.8, 2.0)
        b = rng.uniform(0.1, a - 0.1)
        alpha = rng.uniform(0.2, 2.0)
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        upper = np.array([[a * ph[0], alpha * ph[2]], [0.0, b * ph[1]]])
        w = gen.gen_unitary(2, suite.seq(t, 1))
        tmat = w @ upper @ adjoint(w)
        kind = "schur"
    else:
        # Schur off-diagonal tuned so the normaloid margin lands in the
        # marginal annulus: these trials must be skipped, not judged
        a, b = 1.5, 0.5
        tau = rng.uniform(3e-11, 3e-10)
        alpha = 2.0 * np.sqrt(tau)
        upper = np.array([[a, alpha], [0.0, b]], dtype=np.complex128)
        w = gen.gen_unitary(2, suite.seq(t, 1))
        tmat = w @ upper @ adjoint(w)
        kind = "near-band"
    v_noid = is_normaloid(tmat, cfg)
    v_norm = is_normal(tmat, cfg)
    return [_agree(v_noid, v_norm)], lambda: _payload(
        tmat, kind=kind, normaloid_margin=v_noid.margin, normal_margin=v_norm.margin)


def _is_scalar_residual(m: np.ndarray) -> float:
    """||M - (tr M / n) I|| / ||M||, 0 for the zero matrix."""
    nrm = operator_norm(m)
    if nrm == 0.0:
        return 0.0
    n = m.shape[0]
    lam = np.trace(m) / n
    return operator_norm(m - lam * np.eye(n, dtype=np.complex128)) / nrm


def _trial_scalar_root(suite: _Suite, t: int, rng: np.random.Generator):
    """A normaloid matrix with a scalar power is normal (and a unitary
    multiple when the scalar is nonzero); nilpotent normaloids vanish."""
    cfg = suite.cfg
    n = _sizes(rng)
    m = int(rng.integers(2, 5))
    branch = t % 5
    if branch < 2:
        tmat = gen.gen_scalar_power_root(n, m, suite.seq(t, 1), normal=True)
        power = matrix_power(tmat, m)
        lam = complex(np.trace(power) / n)
        scaled = tmat / abs(lam) ** (1.0 / m)
        return [
            1e-10 - _is_scalar_residual(power),
            _member(is_normaloid(tmat, cfg)),
            _member(is_normal(tmat, cfg)),
            _member(is_unitary(scaled, cfg)),
        ], lambda: _payload(tmat, branch="normal-root", power=m)
    if branch < 4:
        tmat = _solid_nonnormaloid_root(suite, t, n, m, rng)
        if tmat is None:
            return _SKIP
        return [
            1e-8 - _is_scalar_residual(matrix_power(tmat, m)),
            _nonmember(is_normal(tmat, cfg)),
            _nonmember(is_normaloid(tmat, cfg)),
        ], lambda: _payload(tmat, branch="similarity-root", power=m)
    nil = gen.gen_nilpotent(n, suite.seq(t, 1))
    if operator_norm(nil) <= 1e-8:
        return _SKIP
    return [_nonmember(is_normaloid(nil, cfg))], lambda: _payload(nil, branch="nilpotent")


def _solid_nonnormaloid_root(suite: _Suite, t: int, n: int, m: int,
                             rng: np.random.Generator):
    """Similarity-conjugated scalar root whose norm solidly exceeds its
    spectral radius.  A random conjugation can land arbitrarily close to
    the normaloid boundary, so resample until the gap is macroscopic."""
    for attempt in range(24):
        tmat = gen.gen_scalar_power_root(
            n, m, suite.seq(t, 10 + attempt), normal=False,
            cond=float(rng.uniform(2.0, 5.0)),
        )
        nrm = operator_norm(tmat)
        if nrm > 0 and (nrm - spectral_radius(tmat)) / nrm >= 1e-3:
            return tmat
    return None


def _square_zero(n: int, seq) -> np.ndarray:
    """Nonzero T with T^2 = 0: range inside kernel by block construction."""
    rng = np.random.Generator(np.random.PCG64(seq))
    k = max(n // 2, 1)
    block = np.zeros((n, n), dtype=np.complex128)
    block[:k, k:] = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) / np.sqrt(2)
    w = gen.gen_unitary(n, rng.integers(0, 2**63))
    return w @ block @ adjoint(w)


def _power_in_scale(tmat: np.ndarray, m: int, cfg: ToleranceConfig) -> np.ndarray:
    """T^m, or the exact zero matrix when ||T^m|| <= eq_rtol ||T||^m.

    Predicates are scale invariant: they judge a matrix against its own
    norm.  A power that vanishes in T's scale (T^2 of a square-zero T is
    pure roundoff) would otherwise be judged on its roundoff.
    """
    power = matrix_power(tmat, m)
    if operator_norm(power) <= cfg.eq_rtol * operator_norm(tmat) ** m:
        return np.zeros_like(power)
    return power


def _trial_nth_root_normal(suite: _Suite, t: int, rng: np.random.Generator):
    """If T^m is normal and T satisfies the absolute-(p,r) inequality then T
    is normal; non-normal roots of normal matrices must fail the inequality."""
    cfg = suite.cfg
    n = _sizes(rng)
    m = int(rng.integers(2, 5))
    p, r = _pick_pr(rng)
    branch = t % 10
    if branch < 3:
        tmat = gen.gen_normal(n, suite.seq(t, 1))
        return [
            _member(is_normal(matrix_power(tmat, m), cfg)),
            _member(is_absolute_pr_paranormal(tmat, p, r, cfg)),
            _member(is_normal(tmat, cfg)),
        ], lambda: _payload(tmat, branch="normal", power=m)
    if branch < 6:
        tmat, m = _square_zero(n, suite.seq(t, 1)), 2
    elif branch < 9:
        tmat = _solid_nonnormaloid_root(suite, t, n, m, rng)
        if tmat is None:
            return _SKIP
    else:
        tmat, m = get_fixture("involution_shear").matrix, 2
    return [
        _member(is_normal(_power_in_scale(tmat, m, cfg), cfg)),
        _nonmember(is_normal(tmat, cfg)),
        _nonmember(is_absolute_pr_paranormal(tmat, p, r, cfg)),
    ], lambda: _payload(tmat, branch="nonnormal-root", power=m, p=p, r=r)


def _trial_binormal_hyponormal(suite: _Suite, t: int, rng: np.random.Generator):
    """Binormal matrices satisfying the absolute-(p,r) inequality are
    hyponormal; the scalar shortcut must agree with the sphere decision."""
    cfg = suite.cfg
    n = _sizes(rng)
    p, r = _pick_pr(rng)
    branch = t % 10
    if branch < 8:
        kind = "binormal" if branch < 5 else "normal"
        tmat = _draw(kind, n, suite.seq(t, 1), rng)
    else:
        tmat, kind = get_fixture("normaloid_swap3").matrix, "fixture"
    snap = snapshot(tmat, cfg)
    v_abs = is_absolute_pr_paranormal(snap, p, r, cfg)
    v_hyp = is_hyponormal(snap, cfg)
    # dual route: scalar reduction must agree with the sphere decision
    _, scalar_margin = binormal_scalar_check(snap, p, r, cfg)
    return [
        _member(is_binormal(snap, cfg)),
        _implies([v_abs], v_hyp),
        _agree(v_abs, _verdict("binormal-scalar", scalar_margin, cfg.psd_tol)),
    ], lambda: _payload(tmat, kind=kind, p=p, r=r, abs_margin=v_abs.margin,
                        hyponormal_margin=v_hyp.margin, scalar_margin=scalar_margin)


def _trial_power_inequality(suite: _Suite, t: int, rng: np.random.Generator):
    """From TT* <= lam T*T on a binormal matrix, powers obey
    T^m T*^m <= lam^(m^2) T*^m T^m with intermediate modulus bounds, and
    powers of invertible binormal (or hyponormal) matrices stay posinormal
    (or hyponormal)."""
    cfg = suite.cfg
    n = _sizes(rng)
    branch = t % 10
    if branch < 6:
        tmat = gen.gen_binormal(n, suite.seq(t, 1), min_sv=0.35)
        snap = snapshot(tmat, cfg)
        lam = 1.01 * posinormal_lambda_min(snap, cfg)
        try:
            slacks = [power_inequality_check(snap, lam, m, cfg)[1] + cfg.psd_tol
                      for m in (2, 3, 4)]
            slacks += [intermediate_power_inequality_check(snap, lam, k, cfg)[1] + cfg.psd_tol
                       for k in (2, 3, 4)]
            slacks += [_member(is_posinormal(matrix_power(tmat, m), cfg)) for m in (2, 3, 4)]
        except PremiseViolated:
            return _SKIP
        return slacks, lambda: _payload(tmat, branch="invertible-binormal", lam=lam)
    if branch < 9:
        tmat = gen.gen_normal(n, suite.seq(t, 1))
        slacks = []
        for m in (2, 3, 4):
            power = matrix_power(tmat, m)
            slacks += [_member(is_hyponormal(power, cfg)), _member(is_posinormal(power, cfg))]
        return slacks, lambda: _payload(tmat, branch="hyponormal-binormal")
    # kernel mismatch: premise must be rejected for every lambda
    tmat = _kernel_mismatch_binormal(n, suite.seq(t, 1))
    try:
        power_inequality_check(tmat, 10.0, 2, cfg)
        slack = -1.0
    except PremiseViolated:
        slack = 0.0
    return [slack], lambda: _payload(tmat, branch="premise-violation")


def _kernel_mismatch_binormal(n: int, seq) -> np.ndarray:
    """Binormal with N(T) not inside N(T*): no lambda satisfies the premise."""
    rng = np.random.Generator(np.random.PCG64(seq))
    n = max(n, 2)
    d = rng.uniform(0.4, 1.4, n)
    perm = np.roll(np.arange(n), 1)
    d[0] = 0.0  # perm moves index 0, so the kernels of T*T and TT* differ
    pi = np.zeros((n, n), dtype=np.complex128)
    pi[perm, np.arange(n)] = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    w = gen.gen_unitary(n, rng.integers(0, 2**63))
    return w @ (pi * d) @ adjoint(w)


def _trial_mixed_adjoint_power(suite: _Suite, t: int, rng: np.random.Generator):
    """Binormal T where both T and a power of T* satisfy absolute-(p,r)
    inequalities must be normal."""
    cfg = suite.cfg
    n = _sizes(rng)
    p1, r1 = _pick_pr(rng)
    p2, r2 = _pick_pr(rng)
    m = int(rng.integers(1, 4))
    kind = "normal" if t % 5 < 2 else "binormal"
    tmat = _draw(kind, n, suite.seq(t, 1), rng)
    v1 = is_absolute_pr_paranormal(tmat, p1, r1, cfg)
    v2 = is_absolute_pr_paranormal(matrix_power(adjoint(tmat), m), p2, r2, cfg)
    return [
        _member(is_binormal(tmat, cfg)),
        _implies([v1, v2], is_normal(tmat, cfg)),
    ], lambda: _payload(tmat, kind=kind, m=m, p1=p1, r1=r1, p2=p2, r2=r2)


_COLLAPSE_KINDS = ("random", "normal", "binormal", "normaloid", "partial-isometry",
                   "quasinormal-partial-isometry", "nilpotent")


def _trial_finite_dim_collapse(suite: _Suite, t: int, rng: np.random.Generator):
    """Over square matrices the absolute-(p,r) inequality characterizes
    normality, for every tested exponent pair."""
    cfg = suite.cfg
    n = _sizes(rng)
    case = t % 9
    if case < len(_COLLAPSE_KINDS):
        kind = _COLLAPSE_KINDS[case]
        tmat = _draw(kind, n, suite.seq(t, 1), rng)
    else:
        # a normal N plus a Gaussian R scaled to delta * ||N||: deep inside
        # the equality tolerance, or macroscopically outside it
        base = gen.gen_normal(n, suite.seq(t, 1))
        noise = gen.gen_random(n, suite.seq(t, 2))
        inside = case == len(_COLLAPSE_KINDS)
        delta = 1e-13 if inside else float(rng.uniform(0.05, 0.3))
        tmat = base + delta * operator_norm(base) / operator_norm(noise) * noise
        kind = "near-normal-inside" if inside else "near-normal-outside"
    p, r = PR_GRID[t % len(PR_GRID)]
    v_abs = is_absolute_pr_paranormal(tmat, p, r, cfg)
    v_norm = is_normal(tmat, cfg)
    return [_agree(v_abs, v_norm)], lambda: _payload(
        tmat, kind=kind, p=p, r=r, abs_margin=v_abs.margin, normal_margin=v_norm.margin)


def _trial_partial_isometry_char(suite: _Suite, t: int, rng: np.random.Generator):
    """For a partial isometry the following agree: quasinormality, the
    absolute-(p,r) inequality, the second-power identity V*2 V2 = V*V, and
    the operator bound V*2 V2 >= V*V; quasinormal ones satisfy the full
    power identity chain."""
    cfg = suite.cfg
    n = _sizes(rng)
    p, r = _pick_pr(rng)
    branch = t % 10
    if branch < 9:
        kind = ("partial-isometry" if branch < 4
                else "quasinormal-partial-isometry" if branch < 7 else "unitary")
        v = _draw(kind, n, suite.seq(t, 1), rng)
    else:
        v, kind = get_fixture("partial_isometry_shift").matrix, "fixture"
    snap = snapshot(v, cfg)
    slacks = [_member(is_partial_isometry(snap, cfg))]
    v_quasi = is_quasinormal(snap, cfg)
    # second-power identity and operator-order forms of the same
    # condition, on V / ||V|| (V itself, up to roundoff, for a nonzero
    # partial isometry)
    v2 = snap.t_hat @ snap.t_hat
    diff = adjoint(v2) @ v2 - adjoint(snap.t_hat) @ snap.t_hat
    conds = [
        v_quasi,
        is_absolute_pr_paranormal(snap, p, r, cfg),
        _verdict("second-power-identity", -operator_norm(diff), cfg.eq_rtol),
        _verdict("second-power-order", float(eigvalsh(hermitian_part(diff))[0]), cfg.psd_tol),
    ]
    for i in range(len(conds)):
        for j in range(i + 1, len(conds)):
            slacks.append(_agree(conds[i], conds[j]))
    if v_quasi.member and not v_quasi.marginal:
        for m in range(2, v.shape[0] + 1):
            slacks.append(RESIDUAL_TOL - embry_power_identity(snap, m, cfg))
    return slacks, lambda: _payload(v, kind=kind, p=p, r=r)


def _ascent_is_one(snap, cfg: ToleranceConfig) -> bool:
    """Ascent 1 by a route independent of the ranks of powers.

    Ascent is 1 exactly when R(T) and N(T) meet only in 0, that is when
    the square of the polar factor, U^2 = W_r (V_r* W_r) V_r*, keeps the
    rank of T.  U's singular values are 1 or 0, so the cut at rank_tol is
    far from both.
    """
    u = polar_factor(snap)
    return int(np.count_nonzero(svd(u @ u, compute_uv=False) > cfg.rank_tol)) == snap.rank


def _trial_ascent_one(suite: _Suite, t: int, rng: np.random.Generator):
    """Matrices satisfying the absolute-(p,r) inequality have ascent one;
    higher ascent forces the inequality to fail."""
    cfg = suite.cfg
    n = _sizes(rng)
    p, r = _pick_pr(rng)
    branch = t % 10
    if branch < 4:
        moduli = rng.uniform(0.3, 2.0, n)
        if rng.random() < 0.4:
            moduli[int(rng.integers(0, n))] = 0.0
        w = gen.gen_unitary(n, suite.seq(t, 1))
        tmat = (w * (moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))) @ adjoint(w)
        kind = "normal"
    else:
        kind = "quasinormal-partial-isometry" if branch < 7 else "nilpotent"
        tmat = _draw(kind, n, suite.seq(t, 1), rng)
        if operator_norm(tmat) <= 1e-8:
            return _SKIP
    snap = snapshot(tmat, cfg)
    asc = ascent(snap, cfg)
    v_abs = is_absolute_pr_paranormal(snap, p, r, cfg)
    if v_abs.marginal:
        slack = None
    elif v_abs.member:
        slack = 0.0 if asc == 1 else -1.0
    elif asc > 1:
        slack = _nonmember(v_abs)
    else:
        slack = 0.0
    return [
        slack,
        0.0 if (asc == 1) == _ascent_is_one(snap, cfg) else -1.0,
    ], lambda: _payload(tmat, kind=kind, ascent=asc, p=p, r=r)


# the bundled counterexamples and the weaker hypothesis each one satisfies
_REMARK_COUNTEREXAMPLES = (
    ("normaloid_halfshift", is_normaloid),
    ("nilpotent_double", is_binormal),
    ("involution_shear", is_posinormal),
)


def _trial_root_partial_isometry(suite: _Suite, t: int, rng: np.random.Generator):
    """Powers of quasinormal partial isometries remain quasinormal partial
    isometries; a partial-isometry power plus the absolute-(p,r) inequality
    forces the matrix itself to be a quasinormal partial isometry, and each
    bundled counterexample defeats exactly its advertised weaker hypothesis."""
    cfg = suite.cfg
    n = _sizes(rng)
    p, r = _pick_pr(rng)
    branch = t % 10
    if branch < 5:
        kind = "quasinormal-partial-isometry" if branch < 3 else "unitary"
        v = _draw(kind, n, suite.seq(t, 1), rng)
        slacks = [_member(is_absolute_pr_paranormal(v, p, r, cfg))]
        for m in (2, 3):
            vm = matrix_power(v, m)
            slacks += [_member(is_partial_isometry(vm, cfg)), _member(is_quasinormal(vm, cfg))]
        return slacks, lambda: _payload(v, branch=kind)
    if branch < 8:
        name, weaker = _REMARK_COUNTEREXAMPLES[t % 3]
        fx = get_fixture(name).matrix
        return [
            _member(weaker(fx, cfg)),
            _member(is_partial_isometry(matrix_power(fx, 2), cfg)),
            _nonmember(is_partial_isometry(fx, cfg)),
            _nonmember(is_quasinormal(fx, cfg)),
            _nonmember(is_absolute_pr_paranormal(fx, p, r, cfg)),
        ], lambda: _payload(fx, branch="counterexample", name=name, p=p, r=r)
    tmat = _draw("normal" if rng.random() < 0.5 else "random", n, suite.seq(t, 1), rng)
    m = int(rng.integers(2, 4))
    v_abs = is_absolute_pr_paranormal(tmat, p, r, cfg)
    v_pi_power = is_partial_isometry(matrix_power(tmat, m), cfg)
    if v_abs.marginal or v_pi_power.marginal:
        slacks = [None]
    elif v_abs.member and v_pi_power.member:
        slacks = [_member(is_quasinormal(tmat, cfg)), _member(is_partial_isometry(tmat, cfg))]
    else:
        slacks = [0.0]
    return slacks, lambda: _payload(tmat, branch="generic", m=m, p=p, r=r)


def _trial_monotonicity(suite: _Suite, t: int, rng: np.random.Generator):
    """Membership in the absolute-(p,r) family never flips from true to
    false as the exponent pair grows componentwise."""
    cfg = suite.cfg
    n = _sizes(rng)
    kind = ("normal", "random", "binormal", "quasinormal-partial-isometry", "normaloid")[t % 5]
    tmat = _draw(kind, n, suite.seq(t, 1), rng)
    snap = snapshot(tmat, cfg)
    specs = [("absolute-pr-paranormal", {"p": p, "r": r}) for p, r in PR_GRID]
    verdicts = dict(zip(PR_GRID, _family_verdicts(snap, specs, cfg)))
    slacks = []
    if any(v.marginal for v in verdicts.values()):
        slacks.append(None)
    else:
        for (p1, r1), v1 in verdicts.items():
            for (p2, r2), v2 in verdicts.items():
                if p2 >= p1 and r2 >= r1 and (p1, r1) != (p2, r2):
                    if v1.member and not v2.member:
                        slacks.append(-min(abs(v1.margin), abs(v2.margin)))
                    else:
                        slacks.append(0.0)
        v_norm = is_normal(snap, cfg)
        for v in verdicts.values():
            slacks.append(_agree(v, v_norm))
    return slacks, lambda: _payload(tmat, kind=kind)


def _trial_fundamental_identity(suite: _Suite, t: int, rng: np.random.Generator):
    """Exact identity residuals: the modulus intertwining relation, the
    polar conjugation of moduli, and the squared-transform equality."""
    cfg = suite.cfg
    n = _sizes(rng, 2, 6)
    kind = ("random", "normal", "nilpotent", "partial-isometry", "random", "binormal")[t % 6]
    tmat = _draw(kind, n, suite.seq(t, 1), rng)
    if t % 6 == 4:
        w, sig, vh = svd(tmat)
        sig[int(rng.integers(0, n))] = 0.0
        tmat, kind = (w * sig) @ vh, "rank-deficient"
    alpha = (0.3, 0.5, 1.0, 2.0, 3.7)[t % 5]
    s = (1.0, 1.5, 2.0, 3.0)[t % 4]
    q = (0.5, 1.0, 2.0, 3.0)[t % 4]
    snap = snapshot(tmat, cfg)
    return [
        RESIDUAL_TOL - fundamental_identity_residual(snap, alpha, cfg),
        RESIDUAL_TOL - polar_conjugation_residual(snap, q, cfg),
        RESIDUAL_TOL - trans_equiv_residual(snap, s, cfg),
    ], lambda: _payload(tmat, kind=kind, alpha=alpha, s=s, q=q)


_CHAIN_KINDS = ("random", "normal", "hermitian", "psd", "unitary", "partial-isometry",
                "quasinormal-partial-isometry", "binormal", "normaloid", "nilpotent")


def _trial_chain_consistency(suite: _Suite, t: int, rng: np.random.Generator):
    """classify reports a hierarchy-consistent verdict set on a broad mix."""
    kind = _CHAIN_KINDS[t % len(_CHAIN_KINDS)]
    tmat = _draw(kind, _sizes(rng), suite.seq(t, 1), rng)
    report = classify(tmat, cfg=suite.cfg)
    return [0.0 if report.chain_consistent else -1.0], lambda: _payload(tmat, kind=kind)


_SUITES = {
    "SELF_ADJOINT_CHAR": _trial_self_adjoint_char,
    "TWO_BY_TWO_NORMALOID": _trial_two_by_two,
    "SCALAR_ROOT": _trial_scalar_root,
    "NTH_ROOT_NORMAL": _trial_nth_root_normal,
    "BINORMAL_HYPONORMAL": _trial_binormal_hyponormal,
    "POWER_INEQUALITY": _trial_power_inequality,
    "MIXED_ADJOINT_POWER": _trial_mixed_adjoint_power,
    "FINITE_DIM_COLLAPSE": _trial_finite_dim_collapse,
    "PARTIAL_ISOMETRY_CHAR": _trial_partial_isometry_char,
    "ASCENT_ONE": _trial_ascent_one,
    "ROOT_PARTIAL_ISOMETRY": _trial_root_partial_isometry,
    "MONOTONICITY": _trial_monotonicity,
    "FUNDAMENTAL_IDENTITY": _trial_fundamental_identity,
    "CHAIN_CONSISTENCY": _trial_chain_consistency,
}
# the suite ids, in declaration order: run_all's order and each suite's seed index
THEOREM_IDS = tuple(_SUITES)


def run_suite(theorem_id: str, trials: int, seed: int,
              cfg: ToleranceConfig = DEFAULT) -> PropertyResult:
    """Execute one property suite and return its result record."""
    if theorem_id not in _SUITES:
        raise UnknownTheoremId(theorem_id)
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise InvalidParameter(f"trials must be a positive integer, got {trials!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    suite = _Suite(theorem_id, seed, cfg)
    trial = _SUITES[theorem_id]
    for t in range(int(trials)):
        rng = np.random.Generator(np.random.PCG64(suite.seq(t)))
        suite.record(*trial(suite, t, rng))
    return suite.result()


def run_all(trials: int, seed: int, cfg: ToleranceConfig = DEFAULT) -> list:
    """Every suite in declaration order."""
    return [run_suite(tid, trials, seed, cfg) for tid in THEOREM_IDS]
