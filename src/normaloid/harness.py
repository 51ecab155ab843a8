"""Executable property suites for the theorem surface.

Each suite turns one theorem into a seeded loop over constructively
generated matrices: premises are established by construction (and
re-checked), conclusions are asserted through the public predicates, and
counterexample payloads carry everything needed to replay a failure.

Margins and skips: every assertion yields a slack that is nonnegative
exactly when the assertion holds; a trial whose governing verdict falls in
the marginal annulus is skipped (counted, never silently dropped) rather
than judged.  worst_margin is the smallest slack over evaluated trials.

Determinism: trial t of suite s at seed q draws from
PCG64(SeedSequence((q, s, t))), so results files are byte-identical for
identical (suite, trials, seed, config).
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from . import generators as gen
from .classes import (
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
from .fixtures import get_fixture, load_fixtures  # re-exported harness op
from .linalg import (
    adjoint,
    as_operator,
    eigh,
    eigvalsh,
    matrix_power,
    operator_norm,
    snapshot,
    spectral_radius,
    svd,
)
from .matrixio import matrix_to_obj
from .pencil import binormal_scalar_check
from .transforms import (
    embry_power_identity,
    fundamental_identity_residual,
    intermediate_power_inequality_check,
    polar_conjugation_residual,
    power_inequality_check,
    trans_equiv_residual,
)

THEOREM_IDS = (
    "SELF_ADJOINT_CHAR",
    "TWO_BY_TWO_NORMALOID",
    "SCALAR_ROOT",
    "NTH_ROOT_NORMAL",
    "BINORMAL_HYPONORMAL",
    "POWER_INEQUALITY",
    "MIXED_ADJOINT_POWER",
    "FINITE_DIM_COLLAPSE",
    "PARTIAL_ISOMETRY_CHAR",
    "ASCENT_ONE",
    "ROOT_PARTIAL_ISOMETRY",
    "MONOTONICITY",
    "FUNDAMENTAL_IDENTITY",
    "CHAIN_CONSISTENCY",
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
        return {
            "theorem_id": self.theorem_id,
            "trials": self.trials,
            "failures": self.failures,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "counterexample": self.counterexample,
            "seed": self.seed,
            "rng": self.rng,
        }


class _Suite:
    """Shared bookkeeping for one suite run."""

    def __init__(self, theorem_id: str, seed: int, cfg: ToleranceConfig):
        self.theorem_id = theorem_id
        self.seed = int(seed)
        self.cfg = cfg
        self.trials = 0
        self.failures = 0
        self.skipped = 0
        self.worst: Optional[float] = None
        self.counterexample: Optional[dict] = None

    def rng(self, trial: int) -> np.random.Generator:
        idx = THEOREM_IDS.index(self.theorem_id)
        return np.random.Generator(np.random.PCG64(self._seq(idx, trial)))

    def seq(self, trial: int, salt: int = 0) -> np.random.SeedSequence:
        idx = THEOREM_IDS.index(self.theorem_id)
        return self._seq(idx, trial, salt)

    def _seq(self, idx: int, trial: int, salt: int = 0) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=(abs(self.seed), idx, trial, salt))

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


def _payload(t: np.ndarray, **extra) -> dict:
    out = {"matrix": matrix_to_obj(t)}
    out.update(extra)
    return out


def _sizes(rng: np.random.Generator, lo: int = 2, hi: int = 5) -> int:
    return int(rng.integers(lo, hi + 1))


def _pick_pr(rng: np.random.Generator):
    return PR_GRID[int(rng.integers(0, len(PR_GRID)))]


# ---------------------------------------------------------------- suites


def _suite_self_adjoint_char(suite: _Suite, trials: int):
    """Self-adjointness of T is equivalent to the absolute-(p,r) inequality
    holding together with a self-adjoint polar factor."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        p, r = _pick_pr(rng)
        branch = t % 4
        if branch in (0, 2):
            n = _sizes(rng)
            h = gen.gen_hermitian(n, suite.seq(t, 1))
            if branch == 2:
                # force rank deficiency: project out a random direction
                w, q = eigh(h)
                w[int(rng.integers(0, n))] = 0.0
                h = (q * w) @ q.conj().T
                h = (h + adjoint(h)) / 2.0
            snap = snapshot(h, cfg)
            slacks = [
                _member(is_absolute_pr_paranormal(snap, p, r, cfg)),
                _member(is_self_adjoint(snap.polar_factor, cfg)),
            ]
            suite.record(slacks, lambda: _payload(h, branch="hermitian", p=p, r=r))
        elif branch == 1:
            # normal with spectrum held away from the real axis
            n = _sizes(rng)
            w = gen.gen_unitary(n, suite.seq(t, 1))
            moduli = rng.uniform(0.3, 2.0, n)
            signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            phases = signs * rng.uniform(0.4, np.pi - 0.4, n)
            tmat = (w * (moduli * np.exp(1j * phases))) @ adjoint(w)
            snap = snapshot(tmat, cfg)
            slacks = [
                _member(is_absolute_pr_paranormal(snap, p, r, cfg)),
                _nonmember(is_self_adjoint(snap, cfg)),
                _nonmember(is_self_adjoint(snap.polar_factor, cfg)),
            ]
            suite.record(slacks, lambda: _payload(tmat, branch="nonreal-normal", p=p, r=r))
        else:
            # normaloid with self-adjoint polar factor but failing inequality
            fx = get_fixture("normaloid_swap3").matrix
            snap = snapshot(fx, cfg)
            slacks = [
                _member(is_self_adjoint(snap.polar_factor, cfg)),
                _nonmember(is_self_adjoint(snap, cfg)),
                _nonmember(is_absolute_pr_paranormal(snap, p, r, cfg)),
                _member(is_normaloid(snap, cfg)),
            ]
            suite.record(slacks, lambda: _payload(fx, branch="fixture", p=p, r=r))


def _suite_two_by_two(suite: _Suite, trials: int):
    """For 2x2 matrices, normaloid and normal coincide."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        u = rng.random()
        if u < 0.40:
            tmat = gen.gen_normal(2, suite.seq(t, 1))
            kind = "normal"
        elif u < 0.80:
            tmat = gen.gen_random(2, suite.seq(t, 1))
            kind = "gaussian"
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
        suite.record(
            [_agree(v_noid, v_norm)],
            lambda: _payload(tmat, kind=kind, normaloid_margin=v_noid.margin,
                             normal_margin=v_norm.margin),
        )


def _is_scalar_residual(m: np.ndarray) -> float:
    """||M - (tr M / n) I|| / ||M||, 0 for the zero matrix."""
    nrm = operator_norm(m)
    if nrm == 0.0:
        return 0.0
    n = m.shape[0]
    lam = np.trace(m) / n
    return operator_norm(m - lam * np.eye(n, dtype=np.complex128)) / nrm


def _suite_scalar_root(suite: _Suite, trials: int):
    """A normaloid matrix with a scalar power is normal (and a unitary
    multiple when the scalar is nonzero); nilpotent normaloids vanish."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        m = int(rng.integers(2, 5))
        branch = t % 5
        if branch in (0, 1):
            tmat = gen.gen_scalar_power_root(n, m, suite.seq(t, 1), normal=True)
            power = matrix_power(tmat, m)
            lam = complex(np.trace(power) / n)
            scaled = tmat / abs(lam) ** (1.0 / m)
            slacks = [
                1e-10 - _is_scalar_residual(power),
                _member(is_normaloid(tmat, cfg)),
                _member(is_normal(tmat, cfg)),
                _member(is_unitary(scaled, cfg)),
            ]
            suite.record(slacks, lambda: _payload(tmat, branch="normal-root", power=m))
        elif branch in (2, 3):
            tmat = _solid_nonnormaloid_root(suite, t, n, m, rng)
            if tmat is None:
                suite.record([None], lambda: {})
                continue
            power = matrix_power(tmat, m)
            slacks = [
                1e-8 - _is_scalar_residual(power),
                _nonmember(is_normal(tmat, cfg)),
                _nonmember(is_normaloid(tmat, cfg)),
            ]
            suite.record(slacks, lambda: _payload(tmat, branch="similarity-root", power=m))
        else:
            nil = gen.gen_nilpotent(max(n, 2), suite.seq(t, 1))
            if operator_norm(nil) <= 1e-8:
                suite.record([None], lambda: {})
                continue
            suite.record(
                [_nonmember(is_normaloid(nil, cfg))],
                lambda: _payload(nil, branch="nilpotent"),
            )


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


def _suite_nth_root_normal(suite: _Suite, trials: int):
    """If T^m is normal and T satisfies the absolute-(p,r) inequality then T
    is normal; non-normal roots of normal matrices must fail the inequality."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        m = int(rng.integers(2, 5))
        p, r = _pick_pr(rng)
        branch = t % 10
        if branch < 3:
            tmat = gen.gen_normal(n, suite.seq(t, 1))
            slacks = [
                _member(is_normal(matrix_power(tmat, m), cfg)),
                _member(is_absolute_pr_paranormal(tmat, p, r, cfg)),
                _member(is_normal(tmat, cfg)),
            ]
            suite.record(slacks, lambda: _payload(tmat, branch="normal", power=m))
            continue
        if branch < 6:
            tmat = _square_zero(max(n, 2), suite.seq(t, 1))
            mm = 2
        elif branch < 9:
            tmat = _solid_nonnormaloid_root(suite, t, n, m, rng)
            if tmat is None:
                suite.record([None], lambda: {})
                continue
            mm = m
        else:
            tmat = get_fixture("involution_shear").matrix
            mm = 2
        power_normal = is_normal(_power_in_scale(tmat, mm, cfg), cfg)
        slacks = [
            _member(power_normal),
            _nonmember(is_normal(tmat, cfg)),
            _nonmember(is_absolute_pr_paranormal(tmat, p, r, cfg)),
        ]
        suite.record(slacks, lambda: _payload(tmat, branch="nonnormal-root", power=mm, p=p, r=r))


def _suite_binormal_hyponormal(suite: _Suite, trials: int):
    """Binormal matrices satisfying the absolute-(p,r) inequality are
    hyponormal; the scalar shortcut must agree with the sphere decision."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        p, r = _pick_pr(rng)
        branch = t % 10
        if branch < 5:
            tmat = gen.gen_binormal(n, suite.seq(t, 1))
            kind = "binormal"
        elif branch < 8:
            tmat = gen.gen_normal(n, suite.seq(t, 1))
            kind = "normal"
        else:
            tmat = get_fixture("normaloid_swap3").matrix
            kind = "fixture"
        snap = snapshot(tmat, cfg)
        v_bin = is_binormal(snap, cfg)
        v_abs = is_absolute_pr_paranormal(snap, p, r, cfg)
        v_hyp = is_hyponormal(snap, cfg)
        slacks = [_member(v_bin)]
        if v_abs.marginal or v_hyp.marginal:
            slacks.append(None)
        elif v_abs.member:
            slacks.append(_member(v_hyp))
        elif not v_hyp.member:
            # contrapositive instance: not hyponormal forces not abs-(p,r)
            slacks.append(_nonmember(v_abs))
        else:
            slacks.append(0.0)
        # dual route: scalar reduction must agree with the sphere decision
        _, scalar_margin = binormal_scalar_check(snap, p, r, cfg)
        slacks.append(_agree(v_abs, _verdict("binormal-scalar", scalar_margin, cfg.psd_tol)))
        suite.record(
            slacks,
            lambda: _payload(tmat, kind=kind, p=p, r=r, abs_margin=v_abs.margin,
                             hyponormal_margin=v_hyp.margin, scalar_margin=scalar_margin),
        )


def _suite_power_inequality(suite: _Suite, trials: int):
    """From TT* <= lam T*T on a binormal matrix, powers obey
    T^m T*^m <= lam^(m^2) T*^m T^m with intermediate modulus bounds, and
    powers of invertible binormal (or hyponormal) matrices stay posinormal
    (or hyponormal)."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        branch = t % 10
        if branch < 6:
            tmat = gen.gen_binormal(n, suite.seq(t, 1), min_sv=0.35)
            snap = snapshot(tmat, cfg)
            lam = 1.01 * posinormal_lambda_min(snap, cfg)
            slacks = []
            payload_extra = {"branch": "invertible-binormal", "lam": lam}
            try:
                for m in (2, 3, 4):
                    ok, margin = power_inequality_check(snap, lam, m, cfg)
                    slacks.append(margin + cfg.psd_tol)
                for k in (2, 3, 4):
                    ok, margin = intermediate_power_inequality_check(snap, lam, k, cfg)
                    slacks.append(margin + cfg.psd_tol)
                for m in (2, 3, 4):
                    slacks.append(_member(is_posinormal(matrix_power(tmat, m), cfg)))
            except PremiseViolated:
                slacks = [None]
            suite.record(slacks, lambda: _payload(tmat, **payload_extra))
        elif branch < 9:
            tmat = gen.gen_normal(n, suite.seq(t, 1))
            slacks = []
            for m in (2, 3, 4):
                slacks.append(_member(is_hyponormal(matrix_power(tmat, m), cfg)))
                slacks.append(_member(is_posinormal(matrix_power(tmat, m), cfg)))
            suite.record(slacks, lambda: _payload(tmat, branch="hyponormal-binormal"))
        else:
            # kernel mismatch: premise must be rejected for every lambda
            tmat = _kernel_mismatch_binormal(n, suite.seq(t, 1))
            raised = False
            try:
                power_inequality_check(tmat, 10.0, 2, cfg)
            except PremiseViolated:
                raised = True
            suite.record(
                [0.0 if raised else -1.0],
                lambda: _payload(tmat, branch="premise-violation"),
            )


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


def _suite_mixed_adjoint_power(suite: _Suite, trials: int):
    """Binormal T where both T and a power of T* satisfy absolute-(p,r)
    inequalities must be normal."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        p1, r1 = _pick_pr(rng)
        p2, r2 = _pick_pr(rng)
        m = int(rng.integers(1, 4))
        if t % 5 < 2:
            tmat = gen.gen_normal(n, suite.seq(t, 1))
            kind = "normal"
        else:
            tmat = gen.gen_binormal(n, suite.seq(t, 1))
            kind = "binormal"
        v_bin = is_binormal(tmat, cfg)
        v1 = is_absolute_pr_paranormal(tmat, p1, r1, cfg)
        v2 = is_absolute_pr_paranormal(matrix_power(adjoint(tmat), m), p2, r2, cfg)
        v_norm = is_normal(tmat, cfg)
        slacks = [_member(v_bin)]
        if v1.marginal or v2.marginal or v_norm.marginal:
            slacks.append(None)
        elif v1.member and v2.member:
            slacks.append(_member(v_norm))
        elif not v_norm.member:
            # non-normal: at least one inequality must fail solidly
            slacks.append(max(_nonmember(v1), _nonmember(v2)))
        else:
            slacks.append(0.0)
        suite.record(
            slacks,
            lambda: _payload(tmat, kind=kind, m=m, p1=p1, r1=r1, p2=p2, r2=r2),
        )


def _collapse_case(suite: _Suite, t: int, rng: np.random.Generator) -> tuple:
    n = _sizes(rng)
    kind = t % 9
    seq = suite.seq(t, 1)
    if kind == 0:
        return gen.gen_random(n, seq), "random"
    if kind == 1:
        return gen.gen_normal(n, seq), "normal"
    if kind == 2:
        return gen.gen_binormal(n, seq), "binormal"
    if kind == 3:
        return gen.gen_normaloid(n, seq), "normaloid"
    if kind == 4:
        return gen.gen_partial_isometry(n, int(rng.integers(1, n + 1)), seq), "partial-isometry"
    if kind == 5:
        return gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), seq), "qn-partial-isometry"
    if kind == 6:
        return gen.gen_nilpotent(n, seq), "nilpotent"
    if kind == 7:
        base = gen.gen_normal(n, seq)
        noise = gen.gen_random(n, suite.seq(t, 2))
        eps = 1e-13 * operator_norm(base) / operator_norm(noise)
        return base + eps * noise, "near-normal-inside"
    base = gen.gen_normal(n, seq)
    noise = gen.gen_random(n, suite.seq(t, 2))
    eps = float(rng.uniform(0.05, 0.3)) * operator_norm(base) / operator_norm(noise)
    return base + eps * noise, "near-normal-outside"


def _suite_finite_dim_collapse(suite: _Suite, trials: int):
    """Over square matrices the absolute-(p,r) inequality characterizes
    normality, for every tested exponent pair."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        tmat, kind = _collapse_case(suite, t, rng)
        p, r = PR_GRID[t % len(PR_GRID)]
        v_abs = is_absolute_pr_paranormal(tmat, p, r, cfg)
        v_norm = is_normal(tmat, cfg)
        suite.record(
            [_agree(v_abs, v_norm)],
            lambda: _payload(tmat, kind=kind, p=p, r=r, abs_margin=v_abs.margin,
                             normal_margin=v_norm.margin),
        )


def _suite_partial_isometry_char(suite: _Suite, trials: int):
    """For a partial isometry the following agree: quasinormality, the
    absolute-(p,r) inequality, the second-power identity V*2 V2 = V*V, and
    the operator bound V*2 V2 >= V*V; quasinormal ones satisfy the full
    power identity chain."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        p, r = _pick_pr(rng)
        branch = t % 10
        if branch < 4:
            v = gen.gen_partial_isometry(n, int(rng.integers(1, n + 1)), suite.seq(t, 1))
            kind = "generic"
        elif branch < 7:
            v = gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), suite.seq(t, 1))
            kind = "quasinormal"
        elif branch < 9:
            v = gen.gen_unitary(n, suite.seq(t, 1))
            kind = "unitary"
        else:
            v = get_fixture("partial_isometry_shift").matrix
            kind = "fixture"
        snap = snapshot(v, cfg)
        slacks = [_member(is_partial_isometry(snap, cfg))]
        v_quasi = is_quasinormal(snap, cfg)
        v_abs = is_absolute_pr_paranormal(snap, p, r, cfg)
        # second-power identity and operator-order forms of the same
        # condition, on V / ||V|| (V itself, up to roundoff, for a nonzero
        # partial isometry)
        v2 = snap.t_hat @ snap.t_hat
        diff = adjoint(v2) @ v2 - snap.gram
        conds = [
            v_quasi,
            v_abs,
            _verdict("second-power-identity", -operator_norm(diff), cfg.eq_rtol),
            _verdict("second-power-order", float(eigvalsh((diff + adjoint(diff)) / 2.0)[0]), cfg.psd_tol),
        ]
        for i in range(len(conds)):
            for j in range(i + 1, len(conds)):
                slacks.append(_agree(conds[i], conds[j]))
        if v_quasi.member and not v_quasi.marginal:
            for m in range(2, v.shape[0] + 1):
                slacks.append(RESIDUAL_TOL - embry_power_identity(snap, m, cfg))
        suite.record(slacks, lambda: _payload(v, kind=kind, p=p, r=r))


def _ascent_is_one(snap, cfg: ToleranceConfig) -> bool:
    """Ascent 1 by a route independent of the ranks of powers.

    Ascent is 1 exactly when R(T) and N(T) meet only in 0, that is when
    the square of the polar factor, U^2 = W_r (V_r* W_r) V_r*, keeps the
    rank of T.  U's singular values are 1 or 0, so the cut at rank_tol is
    far from both.
    """
    u = snap.polar_factor
    return int(np.count_nonzero(svd(u @ u, compute_uv=False) > cfg.rank_tol)) == snap.rank


def _suite_ascent_one(suite: _Suite, trials: int):
    """Matrices satisfying the absolute-(p,r) inequality have ascent one;
    higher ascent forces the inequality to fail."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
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
        elif branch < 7:
            tmat = gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), suite.seq(t, 1))
            kind = "qn-partial-isometry"
        else:
            tmat = gen.gen_nilpotent(max(n, 2), suite.seq(t, 1))
            if operator_norm(tmat) <= 1e-8:
                suite.record([None], lambda: {})
                continue
            kind = "nilpotent"
        snap = snapshot(tmat, cfg)
        asc = ascent(snap, cfg)
        v_abs = is_absolute_pr_paranormal(snap, p, r, cfg)
        slacks = []
        if v_abs.marginal:
            slacks.append(None)
        elif v_abs.member:
            slacks.append(0.0 if asc == 1 else -1.0)
        elif asc > 1:
            slacks.append(_nonmember(v_abs))
        else:
            slacks.append(0.0)
        slacks.append(0.0 if (asc == 1) == _ascent_is_one(snap, cfg) else -1.0)
        suite.record(slacks, lambda: _payload(tmat, kind=kind, ascent=asc, p=p, r=r))


def _suite_root_partial_isometry(suite: _Suite, trials: int):
    """Powers of quasinormal partial isometries remain quasinormal partial
    isometries; a partial-isometry power plus the absolute-(p,r) inequality
    forces the matrix itself to be a quasinormal partial isometry, and each
    bundled counterexample defeats exactly its advertised weaker hypothesis."""
    cfg = suite.cfg
    remark = ("normaloid_halfshift", "nilpotent_double", "involution_shear")
    named = {"normaloid_halfshift": is_normaloid, "nilpotent_double": is_binormal,
             "involution_shear": is_posinormal}
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        p, r = _pick_pr(rng)
        branch = t % 10
        if branch < 5:
            if branch < 3:
                label = "qn-partial-isometry"
                v = gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), suite.seq(t, 1))
            else:
                label = "unitary"
                v = gen.gen_unitary(n, suite.seq(t, 1))
            slacks = [_member(is_absolute_pr_paranormal(v, p, r, cfg))]
            for m in (2, 3):
                vm = matrix_power(v, m)
                slacks.append(_member(is_partial_isometry(vm, cfg)))
                slacks.append(_member(is_quasinormal(vm, cfg)))
            suite.record(slacks, lambda: _payload(v, branch=label))
        elif branch < 8:
            name = remark[t % 3]
            fx = get_fixture(name).matrix
            slacks = [
                _member(named[name](fx, cfg)),
                _member(is_partial_isometry(matrix_power(fx, 2), cfg)),
                _nonmember(is_partial_isometry(fx, cfg)),
                _nonmember(is_quasinormal(fx, cfg)),
                _nonmember(is_absolute_pr_paranormal(fx, p, r, cfg)),
            ]
            suite.record(slacks, lambda: _payload(fx, branch="counterexample", name=name, p=p, r=r))
        else:
            tmat = gen.gen_normal(n, suite.seq(t, 1)) if rng.random() < 0.5 else gen.gen_random(n, suite.seq(t, 1))
            m = int(rng.integers(2, 4))
            v_abs = is_absolute_pr_paranormal(tmat, p, r, cfg)
            v_pi_power = is_partial_isometry(matrix_power(tmat, m), cfg)
            slacks = []
            if v_abs.marginal or v_pi_power.marginal:
                slacks.append(None)
            elif v_abs.member and v_pi_power.member:
                slacks.append(_member(is_quasinormal(tmat, cfg)))
                slacks.append(_member(is_partial_isometry(tmat, cfg)))
            else:
                slacks.append(0.0)
            suite.record(slacks, lambda: _payload(tmat, branch="generic", m=m, p=p, r=r))


def _suite_monotonicity(suite: _Suite, trials: int):
    """Membership in the absolute-(p,r) family never flips from true to
    false as the exponent pair grows componentwise."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        kind = t % 5
        seq = suite.seq(t, 1)
        if kind == 0:
            tmat, label = gen.gen_normal(n, seq), "normal"
        elif kind == 1:
            tmat, label = gen.gen_random(n, seq), "random"
        elif kind == 2:
            tmat, label = gen.gen_binormal(n, seq), "binormal"
        elif kind == 3:
            tmat, label = gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), seq), "qn-pi"
        else:
            tmat, label = gen.gen_normaloid(n, seq), "normaloid"
        snap = snapshot(tmat, cfg)
        verdicts = {pr: is_absolute_pr_paranormal(snap, pr[0], pr[1], cfg) for pr in PR_GRID}
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
        suite.record(slacks, lambda: _payload(tmat, kind=label))


def _suite_fundamental_identity(suite: _Suite, trials: int):
    """Exact identity residuals: the modulus intertwining relation, the
    polar conjugation of moduli, and the squared-transform equality."""
    cfg = suite.cfg
    alphas = (0.3, 0.5, 1.0, 2.0, 3.7)
    svals = (1.0, 1.5, 2.0, 3.0)
    qvals = (0.5, 1.0, 2.0, 3.0)
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng, 2, 6)
        kind = t % 6
        seq = suite.seq(t, 1)
        if kind == 0:
            tmat, label = gen.gen_random(n, seq), "random"
        elif kind == 1:
            tmat, label = gen.gen_normal(n, seq), "normal"
        elif kind == 2:
            tmat, label = gen.gen_nilpotent(n, seq), "nilpotent"
        elif kind == 3:
            tmat, label = gen.gen_partial_isometry(n, int(rng.integers(1, n + 1)), seq), "partial-isometry"
        elif kind == 4:
            g = gen.gen_random(n, seq)
            w, sig, vh = svd(g)
            sig[int(rng.integers(0, n))] = 0.0
            tmat, label = (w * sig) @ vh, "rank-deficient"
        else:
            tmat, label = gen.gen_binormal(n, seq), "binormal"
        alpha = alphas[t % len(alphas)]
        s = svals[t % len(svals)]
        q = qvals[t % len(qvals)]
        snap = snapshot(tmat, cfg)
        slacks = [
            RESIDUAL_TOL - fundamental_identity_residual(snap, alpha, cfg),
            RESIDUAL_TOL - polar_conjugation_residual(snap, q, cfg),
            RESIDUAL_TOL - trans_equiv_residual(snap, s, cfg),
        ]
        suite.record(slacks, lambda: _payload(tmat, kind=label, alpha=alpha, s=s, q=q))


def _suite_chain_consistency(suite: _Suite, trials: int):
    """classify reports a hierarchy-consistent verdict set on a broad mix."""
    cfg = suite.cfg
    for t in range(trials):
        rng = suite.rng(t)
        n = _sizes(rng)
        kind = t % 10
        seq = suite.seq(t, 1)
        builders = (
            lambda: gen.gen_random(n, seq),
            lambda: gen.gen_normal(n, seq),
            lambda: gen.gen_hermitian(n, seq),
            lambda: gen.gen_psd(n, seq),
            lambda: gen.gen_unitary(n, seq),
            lambda: gen.gen_partial_isometry(n, int(rng.integers(1, n + 1)), seq),
            lambda: gen.gen_quasinormal_partial_isometry(n, int(rng.integers(1, n + 1)), seq),
            lambda: gen.gen_binormal(n, seq),
            lambda: gen.gen_normaloid(n, seq),
            lambda: gen.gen_nilpotent(n, seq),
        )
        tmat = builders[kind]()
        report = classify(tmat, cfg=cfg)
        suite.record(
            [0.0 if report.chain_consistent else -1.0],
            lambda: _payload(tmat, kind=kind),
        )


_SUITES = {
    "SELF_ADJOINT_CHAR": _suite_self_adjoint_char,
    "TWO_BY_TWO_NORMALOID": _suite_two_by_two,
    "SCALAR_ROOT": _suite_scalar_root,
    "NTH_ROOT_NORMAL": _suite_nth_root_normal,
    "BINORMAL_HYPONORMAL": _suite_binormal_hyponormal,
    "POWER_INEQUALITY": _suite_power_inequality,
    "MIXED_ADJOINT_POWER": _suite_mixed_adjoint_power,
    "FINITE_DIM_COLLAPSE": _suite_finite_dim_collapse,
    "PARTIAL_ISOMETRY_CHAR": _suite_partial_isometry_char,
    "ASCENT_ONE": _suite_ascent_one,
    "ROOT_PARTIAL_ISOMETRY": _suite_root_partial_isometry,
    "MONOTONICITY": _suite_monotonicity,
    "FUNDAMENTAL_IDENTITY": _suite_fundamental_identity,
    "CHAIN_CONSISTENCY": _suite_chain_consistency,
}


def run_suite(theorem_id: str, trials: int, seed: int,
              cfg: ToleranceConfig = DEFAULT) -> PropertyResult:
    """Execute one property suite and return its result record."""
    if theorem_id not in _SUITES:
        raise UnknownTheoremId(theorem_id)
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise InvalidParameter(f"trials must be a positive integer, got {trials!r}")
    suite = _Suite(theorem_id, seed, cfg)
    _SUITES[theorem_id](suite, int(trials))
    return suite.result()


def run_all(trials: int, seed: int, cfg: ToleranceConfig = DEFAULT) -> list:
    """Every suite in declaration order."""
    return [run_suite(tid, trials, seed, cfg) for tid in THEOREM_IDS]
