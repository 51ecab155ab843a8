import collections

import numpy as np
import pytest

from normaloid import pencil, reference
from normaloid.classes import classify
from normaloid.config import DEFAULT, ToleranceConfig, is_marginal
from normaloid.errors import ConvergenceFailure, InvalidParameter, NotBinormal
from normaloid.fixtures import fixture_registry, get_fixture
from normaloid.generators import (
    gen_binormal,
    gen_hermitian,
    gen_nilpotent,
    gen_normal,
    gen_normaloid,
    gen_partial_isometry,
    gen_psd,
    gen_quasinormal_partial_isometry,
    gen_random,
    gen_unitary,
)
from normaloid.kernels import active_backend
from normaloid.linalg import adjoint, operator_norm, snapshot
from normaloid.pencil import (
    SEED_MUS,
    check_abs_pr_sphere,
    check_paranormal,
    decide,
    family_certificates,
)
from normaloid.reference import (
    FAMILY_FORMS,
    GRID_POINTS,
    binormal_scalar_check,
    check_abs_pr_lambda_grid,
    dense_oracle,
    evaluate_objective,
    family_forms,
    lambda_grid,
    pencil_scan,
    pencil_stacks,
    sphere_points,
)

PR_PAIRS = [(p, r) for p in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0)]
MEMBER_GENERATORS = {"normal": gen_normal, "hermitian": gen_hermitian, "psd": gen_psd}
GENERATORS = {
    **MEMBER_GENERATORS,
    "random": gen_random,
    "nilpotent": gen_nilpotent,
    "normaloid": gen_normaloid,
    "binormal": gen_binormal,
    "partial-isometry": lambda n, seed: gen_partial_isometry(n, max(n // 2, 1), seed),
    "quasinormal-partial-isometry":
        lambda n, seed: gen_quasinormal_partial_isometry(n, max(n // 2, 1), seed),
}
# the 12 distinct rows of classify's default grids
ALL_SPECS = [("paranormal", None), ("k-paranormal", {"k": 2}), ("absolute-k-paranormal", {"k": 2.0})]
ALL_SPECS += [("absolute-pr-paranormal", {"p": p, "r": r}) for p, r in PR_PAIRS]
# classify's 14 family specs at its default grids, and at --p 0.25 3 --r 0.75
# with k-paranormal at k = 0, 3, 7 and absolute-k at k = 3, 7
GRID_SPECS = [("paranormal", None), ("k-paranormal", {"k": 1}), ("k-paranormal", {"k": 2}),
              ("absolute-k-paranormal", {"k": 1.0}), ("absolute-k-paranormal", {"k": 2.0})]
GRID_SPECS += ALL_SPECS[3:]
CUSTOM_SPECS = [("paranormal", None)] + [("k-paranormal", {"k": k}) for k in (0, 3, 7)]
CUSTOM_SPECS += [("absolute-k-paranormal", {"k": k}) for k in (3.0, 7.0)]
CUSTOM_SPECS += [("absolute-pr-paranormal", {"p": p, "r": 0.75}) for p in (0.25, 3.0)]


def test_reference_imports_nothing_from_the_decider():
    # the reference side checks the decider, so it must not share its code:
    # reference.py imports neither normaloid.pencil nor any name from it
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(reference.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # "from . import x" imports the module x
            modules += [node.module] if node.module else [alias.name for alias in node.names]
    assert "numpy" in modules and not [m for m in modules if m.split(".")[-1] == "pencil"], modules
    defined = {name for name, obj in vars(pencil).items() if getattr(obj, "__module__", None) == pencil.__name__}
    assert defined and not defined & set(vars(reference)), defined & set(vars(reference))


def _pencil(a, b, p, r, lam):
    """The one pencil r A - (p+r) lam^p B + p lam^(p+r) I at a single lam."""
    (m,) = pencil_stacks(a, b, p, r, [lam])
    return m[0]


def test_pencil_matrix_rejects_bad_parameters():
    t = np.eye(2)
    with pytest.raises(InvalidParameter):
        pencil_scan(t, 0.0, 1.0, 5)
    with pytest.raises(InvalidParameter):
        pencil_scan(t, 1.0, -1.0, 5)
    a, b, _, _ = family_forms(t, "absolute-pr-paranormal", DEFAULT, p=1.0, r=1.0)
    with pytest.raises(InvalidParameter):
        _pencil(a, b, 1.0, 1.0, 0.0)
    for p, r in ((np.inf, 1.0), (1e308, 1.0), (1.0, 1e-320)):
        with pytest.raises(InvalidParameter):
            pencil_scan(t, p, r, 5)
    with pytest.raises(InvalidParameter):
        lambda_grid(1.0, 0)


def test_pencil_matrix_diagonal_formula():
    # for diagonal T everything commutes and the pencil is the scalar
    # expression applied entrywise: r a^p b^r - (p+r) lam^p b^r + p lam^(p+r)
    t = np.diag([2.0, 0.7, 0.1]).astype(complex)
    p, r, lam = 0.5, 2.0, 0.9
    t_hat = t / operator_norm(t)
    a = np.diag(adjoint(t_hat) @ t_hat).real
    b = np.diag(t_hat @ adjoint(t_hat)).real
    expected = r * a**p * b**r - (p + r) * lam**p * b**r + p * lam ** (p + r)
    forms = family_forms(t, "absolute-pr-paranormal", DEFAULT, p=p, r=r)
    got = np.diag(_pencil(*forms[:2], p, r, lam)).real
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sphere_certificate_known_negative_value():
    t = get_fixture("normaloid_swap3").matrix
    cert = check_abs_pr_sphere(t, 1.0, 1.0, DEFAULT)
    assert not cert.decision
    assert cert.margin == pytest.approx(-0.75, abs=1e-10)
    assert cert.witness_vector is not None
    # independent replay of the witness against the raw matrix
    replay = evaluate_objective(t, 1.0, 1.0, cert.witness_vector, DEFAULT)
    assert replay == pytest.approx(cert.margin, abs=1e-10)


def test_sphere_certificate_normal_is_member():
    t = gen_normal(4, 123)
    cert = check_abs_pr_sphere(t, 0.5, 2.0, DEFAULT)
    assert cert.decision
    assert cert.margin >= -DEFAULT.psd_tol


def test_lambda_grid_spans_six_decades():
    grid = lambda_grid(4.0, 7)
    assert grid[0] == pytest.approx(4e-6)
    assert grid[-1] == pytest.approx(4.0)
    assert len(grid) == 7
    # zero matrix falls back to an absolute range
    grid0 = lambda_grid(0.0, 7)
    assert grid0[0] == pytest.approx(1e-6)
    assert grid0[-1] == pytest.approx(1.0)


def test_lambda_grid_scan_matches_the_per_lambda_loop():
    # the scan stacks its pencils into eigvalsh calls (two at n = 80); its
    # margin and witness lambda are the ones a per-lambda loop gives, bit for bit
    cases = [(kind, n) for kind in ("random", "nilpotent", "normal") for n in (2, 3, 5, 16)]
    for kind, n in cases + [("random", 80)]:
        s = snapshot(GENERATORS[kind](n, 230 + n), DEFAULT)
        for p, r in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
            a, b, _, _ = family_forms(s, "absolute-pr-paranormal", DEFAULT, p=p, r=r)
            eye = np.eye(n, dtype=complex)
            best, best_lam = np.inf, None
            for lam in lambda_grid(1.0, GRID_POINTS):
                m = r * a - (p + r) * lam**p * b + p * lam ** (p + r) * eye
                w = np.linalg.eigvalsh((m + adjoint(m)) / 2.0)
                if w[0] < best:
                    best, best_lam = float(w[0]), float(lam)
            cert = check_abs_pr_lambda_grid(s, p, r, DEFAULT)
            assert cert.margin == best and cert.evaluations == GRID_POINTS, (kind, n, p, r)
            assert cert.witness_lambda == (None if cert.decision else best_lam)


def test_grid_refutations_confirmed_by_sphere():
    rng = np.random.Generator(np.random.PCG64(7))
    confirmed = 0
    for trial in range(40):
        n = int(rng.integers(2, 5))
        t = gen_random(n, 1000 + trial)
        grid_cert = check_abs_pr_lambda_grid(t, 1.0, 1.0, DEFAULT)
        if grid_cert.decision:
            continue
        sphere_cert = check_abs_pr_sphere(t, 1.0, 1.0, DEFAULT)
        assert not sphere_cert.decision, trial
        assert sphere_cert.margin < 0
        confirmed += 1
    assert confirmed > 10  # random matrices are almost never members


def test_sphere_agrees_with_dense_oracle_small():
    rng = np.random.Generator(np.random.PCG64(99))
    for trial in range(25):
        n = int(rng.integers(2, 4))
        t = gen_random(n, 2000 + trial) if trial % 2 else gen_normal(n, 2000 + trial)
        cert = check_abs_pr_sphere(t, 1.0, 0.5, DEFAULT)
        oracle = dense_oracle(t, 1.0, 0.5, DEFAULT)
        if is_marginal(cert.margin, DEFAULT.psd_tol) or is_marginal(oracle.margin, DEFAULT.psd_tol):
            continue
        assert cert.decision == oracle.decision, (trial, cert.margin, oracle.margin)
        if cert.decision:
            # full optimization ran (no early stop): a dense scan cannot
            # find anything materially below the optimizer's minimum
            assert cert.margin <= oracle.margin + 1e-9


def test_dense_oracle_does_not_refute_normal_matrices_at_huge_gamma():
    # p = 1, r = 1e-8 gives gamma ~ 1e8: b(x) = 1 + roundoff at a unitary's
    # sphere points, raised to gamma, would read as a solid refutation
    # unless b is clamped to [0, 1] as in every other evaluator
    for t in (np.eye(3), gen_unitary(3, 0)):
        oracle = dense_oracle(t, 1.0, 1e-8, DEFAULT, samples_log2=12)
        assert oracle.decision or is_marginal(oracle.margin, DEFAULT.psd_tol), oracle.margin


def test_sphere_points_deterministic_and_unit():
    a = sphere_points(3, 64, 5)
    b = sphere_points(3, 64, 5)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    c = sphere_points(3, 64, 6)
    assert not np.allclose(a, c)


def test_binormal_scalar_check_matches_sphere():
    for trial in range(12):
        t = gen_binormal(4, 3000 + trial)
        dec_scalar, margin_scalar = binormal_scalar_check(t, 1.0, 1.0, DEFAULT)
        cert = check_abs_pr_sphere(t, 1.0, 1.0, DEFAULT)
        if is_marginal(margin_scalar, DEFAULT.psd_tol) or is_marginal(cert.margin, DEFAULT.psd_tol):
            continue
        assert dec_scalar == cert.decision, trial


def test_binormal_scalar_check_rejects_nonbinormal():
    t = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0.5]], dtype=complex)
    with pytest.raises(NotBinormal):
        binormal_scalar_check(t, 1.0, 1.0, DEFAULT)


def test_binormal_scalar_known_value():
    t = get_fixture("normaloid_swap3").matrix
    w = gen_unitary(3, 8)
    # T*T has eigenvalue 4 twice and TT* is not scalar on that eigenspace, so
    # the pairs need the in-cluster solve, also after a Haar conjugation
    cycle = np.zeros((3, 3), dtype=complex)
    cycle[1, 0], cycle[2, 1], cycle[0, 2] = 1.0, 0.5, 0.5
    # here the worst pair (f, g) = (1/4, 1) lies inside the repeated
    # eigenvalue 1/4 of T*T: the diagonal of TT* in a rotated basis of that
    # eigenspace would understate g, so only the in-cluster eigenvalues give -0.75
    for m in (t, w @ t @ adjoint(w), w @ cycle @ adjoint(w)):
        dec, margin = binormal_scalar_check(m, 1.0, 1.0, DEFAULT)
        assert not dec
        assert margin == pytest.approx(-0.75, abs=1e-12)


def test_binormal_scalar_check_reads_the_snapshot_basis(monkeypatch):
    # the singular basis V already diagonalizes T*T: with the binormality
    # defect cached, the check solves one eigvalsh per cluster of equal
    # singular values and nothing else
    w = gen_unitary(3, 8)
    swap = w @ get_fixture("normaloid_swap3").matrix @ adjoint(w)
    for t, clusters in ((gen_binormal(5, 41), 5), (swap, 2)):
        s = snapshot(t)
        assert s.binormality_defect <= DEFAULT.eq_rtol
        calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}

        def counting(name, original):
            def counted(*a, **k):
                calls[name] += 1
                return original(*a, **k)
            return counted

        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
            binormal_scalar_check(s, 1.0, 1.0, DEFAULT)
        assert calls == {"svd": 0, "eigh": 0, "eigvalsh": clusters}


def test_paranormal_certificate_on_known_members_and_nonmembers():
    assert check_paranormal(np.diag([1.0, 0.5]).astype(complex), DEFAULT).decision
    t = get_fixture("normaloid_swap3").matrix
    assert not check_paranormal(t, DEFAULT).decision


def test_ando_pencil_zero_for_isometry_at_one():
    # V isometry: V*2V2 - 2 V*V + I = (V*V - I)^2-like cancellation at lam=1
    v = np.array([[1, 0], [0, 1]], dtype=complex)
    a, b, _, _ = family_forms(v, "paranormal", DEFAULT)
    m = _pencil(a, b, 1.0, 1.0, 1.0)  # Ando's pencil is (p, r) = (1, 1)
    np.testing.assert_allclose(m, np.zeros((2, 2)), atol=1e-12)


def test_zero_matrix_is_member_with_zero_margin():
    cert = check_abs_pr_sphere(np.zeros((3, 3)), 1.0, 1.0, DEFAULT)
    assert cert.decision
    assert cert.margin == 0.0


def test_evaluate_objective_renormalizes_witness():
    t = get_fixture("normaloid_swap3").matrix
    x = np.array([0.0, 2.0, 0.0], dtype=complex)  # not unit: must be rescaled
    val = evaluate_objective(t, 1.0, 1.0, x, DEFAULT)
    assert val == pytest.approx(-0.75, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_evaluate_objective_validates_the_witness_vector():
    # the replay scales x to unit norm, so a zero, non-finite or mis-sized
    # x has no objective: each is InvalidParameter with one message, and a
    # huge or tiny x replays as its direction does
    t = get_fixture("normaloid_swap3").matrix
    for x, message in (([0.0, 0.0, 0.0], "must be nonzero"), ([0.0, np.nan, 1.0], "must be finite"),
                       ([1.0, np.inf, 0.0], "must be finite"), ([1.0, 0.0], "has length 2, T has dimension 3")):
        with pytest.raises(InvalidParameter, match=message):
            evaluate_objective(t, 1.0, 1.0, np.array(x, dtype=complex), DEFAULT)
    for c in (1e300, 1e-300, 5e-324):
        assert evaluate_objective(t, 1.0, 1.0, np.array([0.0, c, 0.0]), DEFAULT) == pytest.approx(-0.75, abs=1e-12)


def test_decider_minimum_of_known_diagonal_case():
    # the objective is concave along eigenvalue mixtures, so the minimum
    # sits at an eigenvector vertex; for this matrix it equals -0.75
    t = get_fixture("normaloid_swap3").matrix
    a, b, gamma, _ = family_forms(t / operator_norm(t), "absolute-pr-paranormal", DEFAULT, p=1.0, r=1.0)
    cert = decide(a, b, gamma, DEFAULT)
    assert cert.method == "pencil-refuted"
    assert cert.margin == pytest.approx(-0.75, abs=1e-12)
    x = cert.witness_vector
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    av = float(np.real(x.conj() @ a @ x))
    bv = float(np.real(x.conj() @ b @ x))
    assert av - max(bv, 0.0) ** gamma == pytest.approx(cert.margin, abs=1e-12)
    with pytest.raises(InvalidParameter):
        decide(a, b, 1.0, DEFAULT)


def test_psd_case_minimum_nonnegative():
    # normal matrix: the same functional is nonnegative on the sphere, and
    # the snapshot's singular basis certifies it
    t = np.diag([1.0, 0.5, 0.25]).astype(complex)
    cert = check_abs_pr_sphere(t, 1.0, 1.0, DEFAULT)
    assert cert.decision is True  # a Python bool: callers compare with `is`
    assert cert.method == "snapshot-basis-certified"
    assert cert.margin >= -1e-12
    assert cert.witness_vector is None and cert.witness_lambda is None


def test_refutation_witness_replays_margin(near_normal_sweep):
    # a refutation's witness x replays on the reference forms, which share
    # no code with the singular coordinates that found it: f(x) < 0, within
    # 1e-12 of the margin.  The near-normal sweep's matrices with a row
    # decide's probes refute add witnesses x = V y from projected forms
    cases = [f.matrix for f in fixture_registry()]
    for n in (2, 3, 5, 8):
        for kind in ("random", "nilpotent", "normaloid", "binormal"):
            cases.append(GENERATORS[kind](n, 40 + n))
    refuted = 0
    for t in cases:
        for p, r in PR_PAIRS:
            cert = check_abs_pr_sphere(t, p, r, DEFAULT)
            if cert.method not in ("pencil-refuted", "snapshot-basis-refuted"):
                continue
            refuted += 1
            assert not cert.decision
            replay = evaluate_objective(t, p, r, cert.witness_vector, DEFAULT)
            assert replay < 0.0 and abs(replay - cert.margin) <= 1e-12, (p, r, replay, cert.margin)
    assert refuted > 100
    methods = collections.Counter()
    for key, (_, s, _) in near_normal_sweep.items():
        certs = list(family_certificates(s, ALL_SPECS))
        if not any(cert.method == "pencil-refuted" for cert in certs):
            continue
        for cert, (class_id, params) in zip(certs, ALL_SPECS):
            if cert.decision:
                continue
            methods[cert.method] += 1
            a, b, gamma, _ = family_forms(s, class_id, DEFAULT, **(params or {}))
            x = cert.witness_vector / np.linalg.norm(cert.witness_vector)
            replay = reference._objective(*reference._values(a, b, x), gamma)[0]
            assert replay < 0.0 and abs(replay - cert.margin) <= 1e-12, (key, class_id, params, replay, cert.margin)
    assert methods["pencil-refuted"] > 250, methods


def test_basis_refutations_are_solid_and_agree_with_decide(near_normal, projected_decide):
    # a row refuted at a singular vector is refuted at f <= -10 psd_tol,
    # outside is_marginal's band, and decide on the same row refutes it
    # too, on its projected forms and on the reference forms
    refuted = 0
    for delta in 10.0 ** np.arange(-13, 1):
        for n in (2, 3, 4, 5):
            for seed in range(10):
                s = snapshot(near_normal(n, seed, delta), DEFAULT)
                rows = _all_rows(s)
                for cert, (a, b, gamma, lam_exp), spec in zip(family_certificates(s, ALL_SPECS), rows, ALL_SPECS):
                    if cert.method != "snapshot-basis-refuted":
                        continue
                    refuted += 1
                    assert not cert.decision and cert.evaluations == 0
                    assert cert.margin <= -10 * DEFAULT.psd_tol
                    assert not is_marginal(cert.margin, DEFAULT.psd_tol)
                    assert not projected_decide(s, *spec).decision, (delta, n, seed)
                    assert not decide(a, b, gamma, DEFAULT, lam_exp).decision, (delta, n, seed)
    assert refuted > 2000


def test_near_normal_rows_the_basis_cannot_refute_reach_decide(monkeypatch, near_normal, projected_decide):
    # at distance 1e-6 from normal the family's defect is ~1e-12, too small
    # to refute at -10 psd_tol: T is not normal, so it gets no certifying
    # basis either, and every row is decide's, on its projected forms.  Its
    # seed probes refute no row either, so each is collapse-marginal: a
    # member whose margin is the smallest f of the three probes, and whose
    # verdict is marginal.  The probes on the reference forms agree
    calls = []
    monkeypatch.setattr(pencil, "decide", lambda *a, **k: calls.append(a) or decide(*a, **k))
    for n in (3, 4):
        s = snapshot(near_normal(n, 7, 1e-6), DEFAULT)
        assert s.normality_defect > DEFAULT.eq_rtol
        rows = _all_rows(s)
        calls.clear()
        certs = list(family_certificates(s, ALL_SPECS))
        assert len(calls) == len(rows)
        for cert, (a, b, gamma, lam_exp), spec in zip(certs, rows, ALL_SPECS):
            assert (cert.method, cert.decision, cert.evaluations) == (pencil.COLLAPSE, True, len(SEED_MUS))
            assert cert.witness_vector is None and cert.margin >= -DEFAULT.psd_tol
            _same_certificate(cert, projected_decide(s, *spec))
            assert decide(a, b, gamma, DEFAULT, lam_exp).decision
        verdicts = classify(s).verdicts
        assert all(v.member and v.marginal for v in verdicts if v.class_id in FAMILY_FORMS)


def test_huge_gamma_refutes_no_normal_matrix():
    # at k = 1e9, or r = 1e-10 with p = 1, gamma's size lets f's own roundoff
    # (~gamma eps) pass for a witness; by the paper's collapse every class of
    # the family holds for a normal T, so no verdict may be a solid
    # non-member and the inclusion chain must stay consistent
    for seed in range(5):
        reports = [classify(gen_unitary(4, seed), k_list=(10**9,))]
        reports += [classify(gen(4, seed), p_list=(1.0,), r_list=(1e-10,)) for gen in (gen_hermitian, gen_normal)]
        for report in reports:
            assert report.chain_consistent, seed
            for v in report.verdicts:
                if v.class_id in FAMILY_FORMS:
                    assert v.member or v.marginal, (seed, v.class_id, v.parameters, v.margin)


def _bits(cert):
    # a certificate's outcome, its floats by their bytes rather than by ==
    if cert is None:
        return None
    lam = None if cert.witness_lambda is None else np.float64(cert.witness_lambda).tobytes()
    vector = None if cert.witness_vector is None else cert.witness_vector.tobytes()
    return cert.method, cert.decision, np.float64(cert.margin).tobytes(), lam, vector, cert.evaluations


def test_a_row_certificate_does_not_depend_on_the_rows_beside_it(near_normal_sweep):
    # a full grid shares its products between rows and decides all rows in
    # one pass; each spec must still get, bit for bit, the certificate a
    # one-spec call gives, on every path: a slice of the near-normal sweep
    # and the benchmark's member and non-member kinds
    cases = [s for (_, n, seed), (_, s, _) in near_normal_sweep.items() if n == 3 and seed < 3]
    cases += [snapshot(gen(n, 240 + n), DEFAULT) for kind, gen in GENERATORS.items()
              if kind != "quasinormal-partial-isometry" for n in (4, 16)]
    methods = collections.Counter()
    for s in cases:
        for grid in (GRID_SPECS, CUSTOM_SPECS):
            for spec, cert in zip(grid, family_certificates(s, grid)):
                (alone,) = family_certificates(s, [spec])
                assert _bits(cert) == _bits(alone), spec
                methods[None if cert is None else cert.method] += 1
    assert set(methods) == {None, "snapshot-basis-certified", "snapshot-basis-refuted",
                            "pencil-refuted", pencil.COLLAPSE}, methods


def test_projected_stack_gives_each_row_its_one_row_forms(row_projected):
    # _projected builds the rows' Z in chunks of at most Z_STACK_ENTRIES
    # entries: the 12 default-grid rows in one chunk at n = 16, in chunks of
    # 10 rows at n = 80 and of 1 row at n = 256.  Every row's V*AV and
    # V*BV in the full stack are, bit for bit, the ones it gets alone
    for n in (16, 80, 256):
        for t in (gen_normal(n, 5), gen_random(n, 5)):
            s = snapshot(t, DEFAULT)
            rows = [FAMILY_FORMS[class_id](**(params or {})) for class_id, params in ALL_SPECS]
            stack, plan = pencil._projected(tuple(row.key for row in rows), s)
            assert len(stack) == len(rows) + 4
            for i, row in enumerate(rows):
                a, b = row_projected(row, s)
                assert stack[i].tobytes() == a.tobytes() and stack[plan.b[i]].tobytes() == b.tobytes(), (n, row)


def test_column_table_gives_each_row_its_one_row_values():
    # the column table's products are one per distinct (vector, middle), so
    # rows share them; every row's a(x) and b(x) at the columns of [V W] in
    # the table of all rows are, bit for bit, the ones its one-row plan gives
    for n in (2, 16, 64):
        for t in (gen_normal(n, 5), gen_random(n, 5)):
            s = snapshot(t, DEFAULT)
            keys = tuple(FAMILY_FORMS[class_id](**(params or {})).key for class_id, params in ALL_SPECS)
            a, b = pencil._column_table(keys, s)
            assert a.shape == b.shape == (len(keys), 2 * n)
            for i, key in enumerate(keys):
                (a1,), (b1,) = pencil._column_table((key,), s)
                assert a[i].tobytes() == a1.tobytes() and b[i].tobytes() == b1.tobytes(), (n, key)


def test_specs_with_one_row_share_one_certificate(monkeypatch, near_normal):
    # paranormal, k-paranormal at k = 1 and absolute-k-paranormal at k = 1
    # are one row, and a repeated spec is the same row: each is decided once
    # and every spec of it yields the one certificate
    probed = []
    monkeypatch.setattr(pencil, "decide", lambda *a, **k: probed.append(a) or decide(*a, **k))
    specs = [("paranormal", None), ("k-paranormal", {"k": 1}), ("absolute-k-paranormal", {"k": 1.0}),
             ("k-paranormal", {"k": 1})]
    for t in (gen_normal(4, 3), gen_random(4, 3), near_normal(3, 7, 1e-6)):
        probed.clear()
        first, *rest = family_certificates(t, specs)
        assert all(cert is first for cert in rest), t
        assert len(probed) == (first.method in ("pencil-refuted", pencil.COLLAPSE))
    assert first.method == pencil.COLLAPSE


def test_singular_coordinates_match_the_formed_forms(near_normal, row_projected):
    # every row's a(x) and b(x) at the columns x of [V W], read off the
    # snapshot's singular coordinates, are <Ax,x> and <Bx,x> of the
    # reference forms (family_forms, built from the definitions with no
    # singular coordinates), and its projected forms are V*AV and V*BV;
    # nilpotent and partial-isometry inputs have zero singular values, which
    # T itself keeps and the modulus powers cut.  k = 2**40 runs where
    # T_hat's spectral radius is below 1: at radius 1 both routes' T^(k+1)
    # carry ~2**40 eps of roundoff (up to 5e-3 apart on these inputs)
    specs = ALL_SPECS + [("k-paranormal", {"k": 3}), ("absolute-k-paranormal", {"k": 0.5}),
                         ("absolute-k-paranormal", {"k": 3.0}),
                         ("absolute-pr-paranormal", {"p": 0.25, "r": 3.0}),
                         ("absolute-pr-paranormal", {"p": 3.0, "r": 0.25})]
    cases = [gen(n, 210 + n) for gen in GENERATORS.values() for n in (2, 3, 5, 8, 16)]
    cases += [near_normal(n, seed, delta) for delta in 10.0 ** np.arange(-13, 1)
              for n in (2, 3, 4, 5) for seed in range(10)]
    huge = 0
    for t in cases:
        s = snapshot(t, DEFAULT)
        v = s.right_singular_vectors
        x = np.hstack((v, s.left_singular_vectors))
        extra = [("k-paranormal", {"k": 2**40})] if s.rho_hat < 0.999 else []
        huge += len(extra)
        for class_id, params in specs + extra:
            row = FAMILY_FORMS[class_id](**(params or {}))
            forms = family_forms(s, class_id, DEFAULT, **(params or {}))[:2]
            for value, form in zip((m[0] for m in pencil._column_table((row.key,), s)), forms):
                assert value.shape == (x.shape[1],)
                quadratic = np.einsum("ij,ij->j", x.conj(), form @ x).real
                assert np.max(np.abs(value - quadratic)) <= 1e-13, (class_id, params)
            for projected, form in zip(row_projected(row, s), forms):
                assert np.max(np.abs(projected - adjoint(v) @ form @ v)) <= 1e-13, (class_id, params)
    assert huge >= 20


def test_member_bound_below_dense_oracle_minimum():
    for n in (2, 3, 4):
        for kind, gen in MEMBER_GENERATORS.items():
            t = gen(n, 70 + n)
            for p, r in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
                cert = check_abs_pr_sphere(t, p, r, DEFAULT)
                assert cert.method == "snapshot-basis-certified", (kind, n, p, r)
                assert cert.evaluations == 0
                oracle = dense_oracle(t, p, r, DEFAULT, samples_log2=16)
                # the certified bound sits below every sampled objective value
                assert cert.margin <= oracle.margin, (kind, n, p, r, cert.margin, oracle.margin)


def _decisions(t):
    yield check_paranormal(t, DEFAULT)
    for p, r in PR_PAIRS:
        yield check_abs_pr_sphere(t, p, r, DEFAULT)


def _forms(t):
    yield family_forms(t, "paranormal", DEFAULT)
    for p, r in PR_PAIRS:
        yield family_forms(t, "absolute-pr-paranormal", DEFAULT, p=p, r=r)


def test_eigensolves_per_decision_are_bounded():
    # a member is certified in the snapshot's singular basis with no
    # eigensolve; a non-member is refuted there or by decide's seed probes
    for n in (2, 16, 64):
        for kind, gen in GENERATORS.items():
            t = gen(n, 90 + n)
            budget = 0 if kind in MEMBER_GENERATORS else len(SEED_MUS)
            for cert in _decisions(t):
                assert cert.evaluations <= budget, (kind, n, cert.method, cert.evaluations)


def test_member_margins_are_never_marginal():
    tol = DEFAULT.psd_tol
    for n in (2, 3, 4, 8, 16):
        for kind, gen in MEMBER_GENERATORS.items():
            rep = classify(gen(n, 110 + n))
            for v in rep.verdicts:
                if v.class_id in FAMILY_FORMS:
                    assert v.member and not v.marginal, (kind, n, v.class_id, v.parameters)
                    assert v.margin >= -tol / 10, (kind, n, v.class_id, v.parameters, v.margin)


def test_witness_lambda_gives_a_negative_pencil_eigenvalue():
    for t in (get_fixture("normaloid_halfshift").matrix, gen_random(4, 5), gen_nilpotent(5, 6)):
        t_hat = t / operator_norm(t)
        for p, r in PR_PAIRS:
            cert = check_abs_pr_sphere(t, p, r, DEFAULT)
            assert not cert.decision and cert.witness_lambda > 0.0
            a, b, _, _ = family_forms(t_hat, "absolute-pr-paranormal", DEFAULT, p=p, r=r)
            m = _pencil(a, b, p, r, cert.witness_lambda)
            x = cert.witness_vector
            # the pencil's form at the witness is r times the objective there
            assert float(np.real(x.conj() @ m @ x)) == pytest.approx(r * cert.margin, abs=1e-10)
            assert np.linalg.eigvalsh(m)[0] < 0.0
        cert = check_paranormal(t, DEFAULT)
        assert not cert.decision
        a, b, _, _ = family_forms(t_hat, "paranormal", DEFAULT)
        m = _pencil(a, b, 1.0, 1.0, cert.witness_lambda)
        x = cert.witness_vector
        assert float(np.real(x.conj() @ m @ x)) == pytest.approx(cert.margin, abs=1e-10)
        assert np.linalg.eigvalsh(m)[0] < 0.0


def test_degenerate_pencil_of_unitary_certifies_from_the_seed_probes():
    # A = B = I: every pencil matrix is scalar and eigh's basis is arbitrary,
    # so no probe's eigenvector means anything; the check functions certify
    # in the snapshot basis before any probe
    for t in (gen_unitary(5, 3), np.eye(4, dtype=complex)):
        for cert in _decisions(t):
            assert cert.method == "snapshot-basis-certified"
            assert cert.evaluations == 0
            assert -1e-12 <= cert.margin <= 0.0


def test_certified_member_margin_is_a_lower_bound():
    # the snapshot-basis bound sits below f at quasi-random sphere points and
    # at the eigenvectors of T*T, where f is a member's smallest value
    for n in (16, 32, 64):
        pts = sphere_points(n, 4096, 5)
        for kind, gen in MEMBER_GENERATORS.items():
            t = gen(n, 130 + n)
            _, vecs = np.linalg.eigh(adjoint(t) @ t)
            for cert, (a, b, gamma, _) in zip(_decisions(t), _forms(t)):
                assert cert.method == "snapshot-basis-certified", (kind, n)
                for x in (pts, vecs.T):
                    f = _sphere_objective(a, b, x, gamma).min()
                    assert cert.margin <= f, (kind, n, cert.margin, f)


def _slack(a, b, gamma):
    return a.shape[0] * np.finfo(float).eps * (np.linalg.norm(a) + gamma * np.linalg.norm(b))


def _paranormal_margin(sigma, v, w):
    # the paranormal row's Weyl margin in the singular coordinates of the
    # snapshot of diag(sigma) (sigma descending from 1) with V and W swapped
    # for the ones given before first use, so C = V*W and the orthogonality
    # defect come from them; the row is certified when it is >= -psd_tol
    s = snapshot(np.diag(sigma), DEFAULT)
    s._vh, s._w = adjoint(np.asarray(v, dtype=complex)), np.asarray(w, dtype=complex)
    rows = [FAMILY_FORMS["paranormal"]()]
    (margin,) = pencil._weyl_margins(rows, *pencil._projected((rows[0].key,), s), s)
    return margin


def test_certified_margins_subtract_the_roundoff_slack():
    # T = diag(1, 1/2): A = diag(1, 1/16), B = diag(1, 1/4), min g is exactly
    # 0 (f vanishes at both eigenvectors) and both bases are exact, so each
    # bound is 0 and the margin is minus the slack
    a = np.diag([1.0, 1.0 / 16.0]).astype(complex)
    b = np.diag([1.0, 0.25]).astype(complex)
    slack = _slack(a, b, 2.0)
    basis_cert = check_paranormal(np.diag([1.0, 0.5]), DEFAULT)
    assert basis_cert.method == "snapshot-basis-certified"
    for margin in (basis_cert.margin, _paranormal_margin([1.0, 0.5], np.eye(2), np.eye(2))):
        assert -2.0 * slack <= margin <= -slack / 2, (margin, slack)


def test_basis_margin_subtracts_the_orthogonality_defect():
    # V or W with ||X*X - I||_F = 2.8e-12 scales C = V*W by 1 + 1e-12, which
    # lifts the bound itself by only ~1e-13; the margin must also subtract
    # (||A||_F + gamma ||B||_F) ||X*X - I||_F, about -8.7e-12, for each of
    # them, since the coordinates assume both orthonormal
    a = np.diag([1.0, 1.0 / 16.0]).astype(complex)
    b = np.diag([1.0, 0.25]).astype(complex)
    eye, off = np.eye(2), (1.0 + 1e-12) * np.eye(2)
    defect = (np.linalg.norm(a) + 2.0 * np.linalg.norm(b)) * np.linalg.norm(off.T @ off - eye)
    for v, w in ((off, eye), (eye, off)):
        margin = _paranormal_margin([1.0, 0.5], v, w)
        assert margin >= -DEFAULT.psd_tol
        assert margin <= -(defect + _slack(a, b, 2.0)) / 2, (margin, defect)


def test_basis_certificate_at_n16_is_not_lost_to_cancellation():
    # the off-diagonal norms come from zeroing the diagonal; taking them as
    # sqrt(||X||_F^2 - ||diag||^2) cancels to ~1e-7 at n = 16 and would send
    # every member to the decider
    for kind, gen in MEMBER_GENERATORS.items():
        t = gen(16, 170)
        for cert in _decisions(t):
            assert cert.method == "snapshot-basis-certified", kind
            assert cert.margin >= -DEFAULT.psd_tol / 100, (kind, cert.margin)


def _same_certificate(cert, other):
    # dataclass equality would compare witness vectors as arrays
    assert (cert.method, cert.decision, cert.margin, cert.witness_lambda, cert.evaluations) == (
        other.method, other.decision, other.margin, other.witness_lambda, other.evaluations)
    if cert.witness_vector is None:
        assert other.witness_vector is None
    else:
        assert cert.witness_vector.tobytes() == other.witness_vector.tobytes()


def test_uncertified_rows_fall_back_to_decide(near_normal, projected_decide):
    # with W rotated by 1e-6 against V, C = V*W is not diagonal (e_A = 5e-7),
    # so the coordinates give the paranormal row no certificate
    c, sn = np.cos(1e-6), np.sin(1e-6)
    assert _paranormal_margin([1.0, 0.5], np.eye(2), [[c, -sn], [sn, c]]) < -DEFAULT.psd_tol
    # at distance 1e-11 from normal T passes is_normal's test and every
    # margin, slacks subtracted, is >= -psd_tol: all 12 rows are certified,
    # 9 of them with margins below -psd_tol / 100, and none is marginal
    s = snapshot(near_normal(2, 0, 1e-11), DEFAULT)
    assert s.normality_defect <= DEFAULT.eq_rtol
    certs = list(family_certificates(s, ALL_SPECS))
    assert {c.method for c in certs} == {"snapshot-basis-certified"}
    assert sum(c.margin < -DEFAULT.psd_tol / 100 for c in certs) == 9
    assert not any(is_marginal(c.margin, DEFAULT.psd_tol) for c in certs)
    # with eq_rtol = 1e-4, T at distance 1e-6 or 1e-5 passes the test too,
    # but every margin falls below -psd_tol: each row gets decide's
    # certificate on its projected forms, witness x = V y, which the seed
    # probes refute at 1e-5 only, as they do on the reference forms
    loose = ToleranceConfig(eq_rtol=1e-4)
    for delta, method in ((1e-6, pencil.COLLAPSE), (1e-5, "pencil-refuted")):
        s = snapshot(near_normal(3, 7, delta), loose)
        assert s.normality_defect <= loose.eq_rtol
        for cert, (a, b, gamma, lam_exp), spec in zip(family_certificates(s, ALL_SPECS, loose), _all_rows(s),
                                                      ALL_SPECS):
            assert cert.method == method, (delta, cert.method)
            _same_certificate(cert, projected_decide(s, *spec, loose))
            assert decide(a, b, gamma, loose, lam_exp).decision == cert.decision
    # only a T that passes is_normal's test is offered a certificate
    methods = {c.method for c in family_certificates(gen_normal(8, 1), ALL_SPECS)}
    assert methods == {"snapshot-basis-certified"}
    methods = {c.method for c in family_certificates(gen_random(8, 1), ALL_SPECS)}
    assert "snapshot-basis-certified" not in methods


def _all_rows(s):
    return [family_forms(s, class_id, DEFAULT, **(params or {})) for class_id, params in ALL_SPECS]


def test_power_forms_match_the_repeated_product():
    # k-paranormal's T^(k+1) comes from numpy's matrix_power; it must agree
    # with the plain repeated product and stay cheap at astronomically large k
    s = snapshot(gen_random(4, 31), DEFAULT)
    power = s.t_hat
    for k in range(1, 9):
        power = power @ s.t_hat
        a, b, gamma, lam_exp = family_forms(s, "k-paranormal", DEFAULT, k=k)
        assert np.max(np.abs(a - adjoint(power) @ power)) <= 1e-12
        assert b is s.gram and gamma == k + 1 and lam_exp == 1.0 / k
    a, _, gamma, _ = family_forms(snapshot(gen_random(2, 5), DEFAULT), "k-paranormal", DEFAULT, k=2**40)
    assert np.all(np.isfinite(a)) and gamma == 2.0**40 + 1


def test_huge_k_margins_lie_in_minus_one_to_one_or_fail():
    # 0 <= a, b <= 1 for a unit-norm T, so every margin of f = a - b^gamma
    # lies in [-1, 1]; at a huge k roundoff grows Y_m = (C Sigma)^(m-1) C,
    # and a row whose margin leaves [-1, 1] is a ConvergenceFailure, not a
    # verdict.  No warning is raised on the way.
    import warnings

    outcomes = collections.Counter()
    for kind, gen in GENERATORS.items():
        for n in (2, 4, 16):
            for seed in range(3):
                s = snapshot(gen(n, seed), DEFAULT)
                for k in (10**6, 10**9, 10**12, 10**15, 10**16, 10**17):
                    specs = [("k-paranormal", {"k": k}), ("absolute-k-paranormal", {"k": float(k)})]
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            certs = list(family_certificates(s, specs))
                        except ConvergenceFailure:
                            outcomes["failure"] += 1
                            continue
                    assert all(-1.0 <= c.margin <= 1.0 for c in certs), (kind, n, seed, k, certs)
                    outcomes["decided"] += 1
    assert outcomes["decided"] > outcomes["failure"], outcomes


@pytest.fixture()
def swap3_forms():
    t = get_fixture("normaloid_swap3").matrix
    t = t / operator_norm(t)
    return family_forms(t, "absolute-pr-paranormal", DEFAULT, p=1.0, r=1.0)[:3]


def _sphere_objective(a, b, xs, gamma):
    # the objective at each row of xs, through the one rule every evaluator uses
    return reference._objective(np.einsum("ij,ij->i", xs.conj(), xs @ a.T).real,
                             np.einsum("ij,ij->i", xs.conj(), xs @ b.T).real, gamma)[0]


def test_objective_batch_matches_direct_formula(swap3_forms):
    a, b, gamma = swap3_forms
    xs = sphere_points(3, 16, 0)
    vals = _sphere_objective(a, b, xs, gamma)
    for x, v in zip(xs, vals):
        av = float(np.real(x.conj() @ a @ x))
        bv = max(float(np.real(x.conj() @ b @ x)), 0.0)
        assert v == pytest.approx(av - bv**gamma, abs=1e-12)
    assert active_backend() == "numpy"


def test_degenerate_b_floor_does_not_crash():
    # b(x) identically zero: the gamma branch must not produce NaN
    a = np.eye(2, dtype=complex)
    b = np.zeros((2, 2), dtype=complex)
    vals = _sphere_objective(a, b, sphere_points(2, 8, 5), 2.0)
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)  # x*Ax = 1 everywhere
