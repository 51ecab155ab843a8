import numpy as np
import pytest

from normaloid.classes import is_binormal
from normaloid.config import DEFAULT
from normaloid.errors import (
    ConvergenceFailure,
    InvalidParameter,
    NormaloidError,
    NotBinormal,
    NotPositive,
    NotUnit,
    NumericalFailure,
    PremiseViolated,
)
from normaloid.fixtures import get_fixture
from normaloid.generators import (
    gen_binormal,
    gen_nilpotent,
    gen_normal,
    gen_psd,
    gen_quasinormal_partial_isometry,
    gen_random,
)
from normaloid.linalg import adjoint, operator_norm, snapshot
from normaloid.reference import binormal_scalar_check
from normaloid.transforms import (
    embry_power_identity,
    fundamental_identity_residual,
    generalized_transform,
    holder_mccarthy_check,
    intermediate_power_inequality_check,
    polar_conjugation_residual,
    power_inequality_check,
    trans_equiv_residual,
)


def test_transform_of_fixture_at_s2_frozen_value():
    # |T| = diag(2,1,2), U swaps rows 2 and 3; the s=2 transform is
    # U|T|^2 conjugated into [[4,0,0],[0,0,4],[0,1,0]]
    t = get_fixture("normaloid_swap3").matrix
    res = generalized_transform(t, 2.0)
    expected = np.array([[4, 0, 0], [0, 0, 4], [0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(res.matrix, expected, atol=1e-10)
    for name, value in res.residuals.items():
        assert value <= 1e-10, name


def test_transform_s1_is_original_matrix():
    t = gen_random(4, 13)
    res = generalized_transform(t, 1.0)
    np.testing.assert_allclose(res.matrix, t, atol=1e-10 * operator_norm(t))


def test_transform_rejects_nonpositive_s():
    with pytest.raises(InvalidParameter):
        generalized_transform(np.eye(2), 0.0)


def test_fundamental_identity_residual_small_across_alphas():
    for seed in range(5):
        t = gen_random(4, 100 + seed)
        for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
            assert fundamental_identity_residual(t, alpha) <= 1e-10


def test_polar_conjugation_residual_small():
    for seed in range(5):
        t = gen_random(3, 200 + seed)
        for q in (0.5, 1.0, 2.0, 3.0):
            assert polar_conjugation_residual(t, q) <= 1e-10


def test_trans_equiv_residual_small_and_validates_s():
    for seed in range(5):
        t = gen_random(3, 300 + seed)
        for s in (1.0, 1.5, 2.0, 3.0):
            assert trans_equiv_residual(t, s) <= 1e-10
    with pytest.raises(InvalidParameter):
        trans_equiv_residual(gen_random(2, 0), 0.5)


def test_power_inequality_holds_with_cushioned_lambda():
    t = gen_binormal(4, 17, min_sv=0.4)
    from normaloid.classes import posinormal_lambda_min

    lam = 1.01 * posinormal_lambda_min(t)
    for n in (1, 2, 3, 4):
        ok, margin = power_inequality_check(t, lam, n)
        assert ok, (n, margin)
        assert margin >= -DEFAULT.psd_tol
    for k in (1, 2, 3):
        ok, margin = intermediate_power_inequality_check(t, lam, k)
        assert ok, (k, margin)


def test_power_inequality_premise_violation_raises():
    # diag with permutation moving the kernel: no lambda can work
    t = np.array([[0, 0, 1], [0.5, 0, 0], [0, 0, 0]], dtype=complex)
    tt = adjoint(t) @ t
    tts = t @ adjoint(t)
    assert operator_norm(tt @ tts - tts @ tt) < 1e-14  # binormal
    with pytest.raises(PremiseViolated):
        power_inequality_check(t, 100.0, 2)


def test_power_inequality_rejects_nonbinormal():
    t = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(NotBinormal):
        power_inequality_check(t, 2.0, 2)


def test_binormality_premises_read_the_snapshot_defect():
    # is_binormal, binormal_scalar_check and both power inequalities share
    # the snapshot's one cached commutator norm
    snap = snapshot(gen_binormal(4, 3), DEFAULT)
    assert snap.binormality_defect < 1e-14 and is_binormal(snap, DEFAULT).member
    snap.__dict__["binormality_defect"] = 1.0  # as if T were far from binormal
    assert not is_binormal(snap, DEFAULT).member
    with pytest.raises(NotBinormal):
        binormal_scalar_check(snap, 1.0, 1.0, DEFAULT)
    for check in (power_inequality_check, intermediate_power_inequality_check):
        with pytest.raises(NotBinormal):
            check(snap, 2.0, 2, DEFAULT)


def test_power_inequality_validates_parameters():
    t = gen_normal(2, 1)
    with pytest.raises(InvalidParameter):
        power_inequality_check(t, -1.0, 2)
    with pytest.raises(InvalidParameter):
        power_inequality_check(t, 1.0, 0)


@pytest.mark.parametrize("check", [power_inequality_check, intermediate_power_inequality_check])
def test_power_inequalities_report_eigensolver_failure(check, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigvalsh forced to fail")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    with pytest.raises(ConvergenceFailure):
        check(gen_binormal(3, 1), 2.0, 2)


def test_holder_mccarthy_gap_flips_at_alpha_one():
    # A = diag(1,4), x uniform: <A^2 x, x> = 8.5 >= <Ax,x>^2 = 6.25,
    # and the exponent below one reverses the comparison
    a = np.diag([1.0, 4.0]).astype(complex)
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ok2, gap2 = holder_mccarthy_check(a, x, 2.0)
    assert ok2
    assert gap2 == pytest.approx((8.5 - 6.25) / operator_norm(a) ** 2, abs=1e-12)
    ok_half, gap_half = holder_mccarthy_check(a, x, 0.5)
    assert ok_half
    assert gap_half > 0
    ok1, gap1 = holder_mccarthy_check(a, x, 1.0)
    assert ok1
    assert gap1 == pytest.approx(0.0, abs=1e-12)


def test_holder_mccarthy_random_psd():
    for seed in range(8):
        a = gen_psd(3, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = x / np.linalg.norm(x)
        for alpha in (0.3, 0.5, 1.0, 2.0, 3.0):
            ok, gap = holder_mccarthy_check(a, x, alpha)
            assert ok, (seed, alpha, gap)


def test_holder_mccarthy_clamps_tiny_negative_eigenvalues():
    # -1e-13 is within psd_tol of zero: accepted, and powered as 0 (an
    # unclamped square root of it would be nan)
    a = np.diag([1.0, -1e-13]).astype(complex)
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ok, gap = holder_mccarthy_check(a, x, 0.5)
    assert ok
    assert gap == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-12)


def test_holder_mccarthy_rejects_nonpositive_exponent():
    with pytest.raises(InvalidParameter):
        holder_mccarthy_check(np.eye(2), np.array([1.0, 0.0]), 0.0)


def test_holder_mccarthy_input_validation():
    a = np.diag([1.0, 4.0]).astype(complex)
    # a nan norm's distance from 1 compares false either way, so the unit
    # check asks that it be within 1e-8, which a nan or inf entry fails
    for x in ([1.0, 1.0], [np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(NotUnit):
            holder_mccarthy_check(a, np.array(x), 2.0)
    with pytest.raises(NotPositive):
        holder_mccarthy_check(np.diag([1.0, -1.0]), np.array([1.0, 0.0]), 2.0)
    with pytest.raises(InvalidParameter):
        holder_mccarthy_check(a, np.array([1.0, 0.0, 0.0]), 2.0)


def test_embry_residual_zero_for_quasinormal_one_for_shift():
    from normaloid.generators import gen_quasinormal_partial_isometry

    q = gen_quasinormal_partial_isometry(4, 2, 3)
    for n in (1, 2, 3):
        assert embry_power_identity(q, n) <= 1e-12
    v = get_fixture("partial_isometry_shift").matrix
    assert embry_power_identity(v, 2) == pytest.approx(1.0, abs=1e-12)


def test_embry_validates_power():
    with pytest.raises(InvalidParameter):
        embry_power_identity(np.eye(2), 0)


# c = 1e-150 .. 1e150: every helper reads T / ||T|| from one snapshot, so a
# residual, margin or gap of c T is the one of T, and an exception stays
# the same exception
SCALES = tuple(10.0**e for e in (-150, -100, -50, -20, -15, -8, -1, 1, 8, 20, 50, 100, 150))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NormaloidError as exc:
        return type(exc)


def _assert_scale_invariant(fn, t, *args):
    base = _outcome(fn, t, *args)
    for c in SCALES:
        got = _outcome(fn, c * t, *args)
        if isinstance(base, type):
            assert got is base, c
        elif isinstance(base, tuple):
            assert got[0] == base[0], c
            assert got[1] == pytest.approx(base[1], abs=1e-12), c
        else:
            assert got == pytest.approx(base, abs=1e-12), c
    return base


def _residual_cases():
    rank_deficient = gen_random(4, 8)
    rank_deficient[:, 1] = 0.0
    return [
        gen_random(4, 3),
        gen_nilpotent(4, 5),
        rank_deficient,
        gen_quasinormal_partial_isometry(4, 2, 3),
        get_fixture("partial_isometry_shift").matrix,
    ]


@pytest.mark.parametrize("residual,param", [
    (fundamental_identity_residual, 2.0),
    (polar_conjugation_residual, 3.0),
    (trans_equiv_residual, 2.0),
    (embry_power_identity, 2),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_residuals_are_scale_invariant(residual, param):
    for t in _residual_cases():
        _assert_scale_invariant(residual, t, param)


def test_embry_residual_of_non_quasinormal_matrix_stays_at_every_scale():
    # gen_random(4, 3) is far from quasinormal at every scale
    base = embry_power_identity(gen_random(4, 3), 2)
    assert base == pytest.approx(0.55, abs=0.01)
    for c in SCALES:
        assert embry_power_identity(c * gen_random(4, 3), 2) == pytest.approx(base, abs=1e-12), c


def _power_cases():
    t = gen_binormal(4, 17, min_sv=0.4)
    from normaloid.classes import posinormal_lambda_min

    return [
        (t, 1.01 * posinormal_lambda_min(t)),
        # not binormal at any scale
        (np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex), 1.0),
        # binormal, but N(T) is not inside N(T*): the premise fails
        (np.array([[0, 0, 1], [0.5, 0, 0], [0, 0, 0]], dtype=complex), 100.0),
    ]


@pytest.mark.parametrize("check", [power_inequality_check, intermediate_power_inequality_check])
def test_power_inequalities_are_scale_invariant(check):
    outcomes = []
    for t, lam in _power_cases():
        outcomes.append(_assert_scale_invariant(lambda m, k: check(m, lam, k), t, 2))
    assert outcomes[0][0]
    assert outcomes[1:] == [NotBinormal, PremiseViolated]


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_holder_mccarthy_gap_is_scale_invariant(alpha):
    a = np.diag([2.0, 0.5]).astype(complex)
    x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ok, gap = _assert_scale_invariant(lambda m, y: holder_mccarthy_check(m, y, alpha), a, x)
    assert ok
    if alpha == 2.0:
        # (1 + 1/16) / 2 - (5/8)^2 for A / ||A|| = diag(1, 1/4)
        assert gap == pytest.approx(0.140625, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_exponents_and_lambda_must_be_finite():
    # an infinite or nan exponent is no identity to check: each helper
    # rejects it before any work instead of reporting a roundoff residual
    t = gen_random(3, 1)
    calls = [
        lambda x: generalized_transform(t, x),
        lambda x: fundamental_identity_residual(t, x),
        lambda x: polar_conjugation_residual(t, x),
        lambda x: trans_equiv_residual(t, x),
        lambda x: holder_mccarthy_check(np.eye(2), np.array([1.0, 0.0]), x),
        lambda x: power_inequality_check(gen_binormal(4, 1, min_sv=0.35), x, 2),
        lambda x: intermediate_power_inequality_check(gen_binormal(4, 1, min_sv=0.35), x, 2),
    ]
    for call in calls:
        for x in (np.inf, np.nan):
            with pytest.raises(InvalidParameter, match="finite"):
                call(x)


@pytest.mark.filterwarnings("error")
def test_a_power_that_overflows_is_a_numerical_failure_naming_it():
    t = gen_binormal(4, 1, min_sv=0.35)
    cases = [
        (lambda: generalized_transform(3.0 * gen_random(3, 1), 1e300), r"^\|\|T\|\|\^s overflows at \|\|T\|\| = "),
        (lambda: power_inequality_check(t, 1e30, 4), r"^lambda\^\(n\^2\) overflows at lambda = 1e\+30$"),
        (lambda: intermediate_power_inequality_check(t, 1e200, 4), r"^lambda\^k overflows at lambda = 1e\+200$"),
    ]
    for call, message in cases:
        with pytest.raises(NumericalFailure, match=message):
            call()


def test_each_failed_power_premise_has_one_message():
    # both inequalities share their premises, and a failed premise reads
    # the same from either, with the value that decided it
    messages = {}
    for check in (power_inequality_check, intermediate_power_inequality_check):
        for (name, error), (t, lam) in zip((("binormal", NotBinormal), ("premise", PremiseViolated)), _power_cases()[1:]):
            with pytest.raises(error) as info:
                check(t, lam, 2)
            messages.setdefault(name, set()).add(str(info.value))
    assert {name: len(texts) for name, texts in messages.items()} == {"binormal": 1, "premise": 1}
    binormal = "the power inequalities need a binormal T: ||[T*T, TT*]|| / ||T||^4 = "
    assert messages["binormal"].pop().startswith(binormal)
    assert messages["premise"].pop().startswith("TT* <= lambda T*T fails: min eigenvalue ")
