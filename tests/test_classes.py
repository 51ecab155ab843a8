import collections

import numpy as np
import pytest

from normaloid import linalg, pencil, reference
from normaloid.classes import (
    CHAIN,
    CLASS_IDS,
    COLLAPSE_NOTE,
    REPORT_VERSION,
    SCALE_INVARIANT_CLASSES,
    SKEW_DOMINATES,
    SUBNORMAL_NOTE,
    ClassReport,
    _pencil_witness,
    _verdict,
    ascent,
    chain_consistent,
    classify,
    is_absolute_k_paranormal,
    is_absolute_pr_paranormal,
    is_binormal,
    is_class_a,
    is_hyponormal,
    is_isometry,
    is_k_paranormal,
    is_normal,
    is_normaloid,
    is_orthogonal_projection,
    is_p_hyponormal,
    is_paranormal,
    is_partial_isometry,
    is_posinormal,
    is_positive,
    is_quasinormal,
    is_self_adjoint,
    is_subnormal,
    is_unitary,
    posinormal_lambda_min,
)
from normaloid.config import DEFAULT, MARGINAL_FACTOR, ToleranceConfig, is_marginal
from normaloid.errors import InvalidParameter
from normaloid.fixtures import fixture_registry, get_fixture
from normaloid.generators import (
    gen_binormal,
    gen_hermitian,
    gen_nilpotent,
    gen_normal,
    gen_normaloid,
    gen_partial_isometry,
    gen_posinormal,
    gen_psd,
    gen_quasinormal_partial_isometry,
    gen_random,
    gen_unitary,
)
from normaloid.linalg import adjoint, eigvalsh, snapshot
from normaloid.matrixio import dumps_json, vector_from_pairs
from normaloid.reference import FAMILY_FORMS


def test_hermitian_predicates_on_diag():
    h = np.diag([1.0, -2.0]).astype(complex)
    assert is_self_adjoint(h).member
    assert not is_positive(h).member
    assert is_positive(np.diag([1.0, 2.0])).member
    assert is_normal(h).member


def test_column_shift_4x4_is_not_hyponormal():
    # commutator T*T - TT* = diag(1,0,0,-1) has a negative eigenvalue,
    # so the shift fails TT* <= T*T despite being a partial isometry
    t = np.zeros((4, 4), dtype=complex)
    t[1, 0] = t[2, 1] = t[3, 2] = 1.0
    comm = t.conj().T @ t - t @ t.conj().T
    np.testing.assert_allclose(comm, np.diag([1.0, 0, 0, -1.0]), atol=1e-15)
    v = is_hyponormal(t)
    assert not v.member
    assert v.margin == pytest.approx(-1.0, abs=1e-12)
    assert is_partial_isometry(t).member


def test_unitary_isometry_projection():
    u = gen_unitary(4, 0)
    assert is_unitary(u).member
    assert is_isometry(u).member
    assert is_partial_isometry(u).member
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert is_orthogonal_projection(p).member
    assert not is_orthogonal_projection(np.diag([1.0, 0.5, 0.0])).member
    assert not is_unitary(p).member


def test_quasinormal_and_subnormal_track_normality_here():
    t = gen_normal(3, 5)
    for pred in (is_quasinormal, is_subnormal, is_hyponormal, is_class_a, is_paranormal):
        assert pred(t).member, pred.__name__
    s = get_fixture("partial_isometry_shift").matrix
    assert not is_quasinormal(s).member
    assert "finite" in is_subnormal(s).note.lower() or is_subnormal(s).note


def test_p_hyponormal_parameter_validation():
    t = gen_normal(3, 1)
    assert is_p_hyponormal(t, 0.5).member
    with pytest.raises(InvalidParameter):
        is_p_hyponormal(t, 0.0)
    with pytest.raises(InvalidParameter):
        is_p_hyponormal(t, 1.5)


def test_k_paranormal_parameter_validation():
    t = gen_normal(3, 2)
    assert is_k_paranormal(t, 1).member
    assert is_absolute_k_paranormal(t, 2).member
    # k = 0 is the trivial inequality, always a member
    assert is_k_paranormal(t, 0).member
    # k is validated by the family's row builder, whose message names the
    # class as classify --k -1's does, before an int() could truncate it:
    # classify's grid too, so 1.5 is not reported as k = 1; a validated k
    # is written as a Python int
    for k in (-1, 1.5, np.inf, "2"):
        with pytest.raises(InvalidParameter, match=r"^k-paranormal: k must be a nonnegative integer"):
            is_k_paranormal(t, k)
        with pytest.raises(InvalidParameter, match=r"^k-paranormal: k must be a nonnegative integer"):
            classify(gen_random(3, 1), k_list=[1, k])
    assert is_k_paranormal(t, np.int64(2)).parameters == {"k": 2}
    assert type(is_k_paranormal(t, np.int64(2)).parameters["k"]) is int
    rep = classify(t, k_list=[np.int64(2), 0])
    assert rep.parameters["k_list"] == [2, 0] and all(type(k) is int for k in rep.parameters["k_list"])
    assert type(rep.verdict("k-paranormal", k=2).parameters["k"]) is int
    with pytest.raises(InvalidParameter):
        is_absolute_k_paranormal(t, 0.0)
    # |T|^(2k) and gamma = k + 1 must be finite floats
    for k in (np.inf, np.nan, 1e308):
        with pytest.raises(InvalidParameter):
            is_absolute_k_paranormal(t, k)
    for p, r in ((np.inf, 1.0), (1.0, np.inf), (1e308, 1.0), (1.0, 1e-320)):
        with pytest.raises(InvalidParameter):
            is_absolute_pr_paranormal(t, p, r)


def test_absolute_pr_fixture_margins_follow_vertex_formula():
    # diagonal moduli put the sphere minimum at a coordinate vertex with
    # value 4^(-p) - 1 after unit-norm scaling, independent of r
    t = get_fixture("normaloid_swap3").matrix
    for p, expected in ((0.5, -0.5), (1.0, -0.75), (2.0, -0.9375)):
        for r in (0.5, 1.0, 2.0):
            v = is_absolute_pr_paranormal(t, p, r)
            assert not v.member
            assert v.margin == pytest.approx(expected, abs=1e-9), (p, r)


def test_normaloid_and_binormal_known_values():
    t = get_fixture("normaloid_swap3").matrix
    assert is_normaloid(t).member
    assert is_binormal(t).member
    assert not is_normal(t).member
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not is_normaloid(n).member
    assert is_normaloid(n).margin == pytest.approx(-1.0)


def test_posinormal_lambda_min_exact_on_fixture():
    # TT* = diag(4,4,1), T*T = diag(4,1,4): the smallest workable
    # multiplier is max over ratios = 4
    t = get_fixture("normaloid_swap3").matrix
    assert posinormal_lambda_min(t) == pytest.approx(4.0, abs=1e-10)
    v = is_posinormal(t)
    assert v.member
    assert v.parameters["lambda_min"] == pytest.approx(4.0, abs=1e-10)


def test_posinormal_rejects_range_escape():
    s = get_fixture("partial_isometry_shift").matrix
    assert not is_posinormal(s).member


def test_ascent_values():
    assert ascent(np.eye(3)) == 1
    assert ascent(get_fixture("nilpotent_jordan2").matrix) == 2
    assert ascent(get_fixture("partial_isometry_shift").matrix) == 2
    assert ascent(np.zeros((3, 3))) == 1  # kernel already maximal
    t = gen_normal(4, 8)
    assert ascent(t) == 1


def test_classify_reports_the_catalog():
    # every catalog id, de-duplicated in report order, on every fixture; at
    # p = 3 alone there is no p-hyponormal verdict (it needs 0 < p <= 1)
    raw_scale = {"unitary", "isometry", "orthogonal-projection", "partial-isometry"}
    assert len(set(CLASS_IDS)) == len(CLASS_IDS) == 19 and set(CHAIN) <= set(CLASS_IDS)
    assert set(CLASS_IDS) - set(SCALE_INVARIANT_CLASSES) == raw_scale
    assert SCALE_INVARIANT_CLASSES == tuple(c for c in CLASS_IDS if c not in raw_scale)
    custom = tuple(c for c in CLASS_IDS if c != "p-hyponormal")
    fixtures = fixture_registry()
    assert len(fixtures) == 8
    for fx in fixtures:
        assert set(fx.expected) == set(CLASS_IDS), fx.name
        for ids, grid in ((CLASS_IDS, {}), (custom, {"p_list": [3], "r_list": [0.75], "k_list": [3]})):
            reported = tuple(dict.fromkeys(v.class_id for v in classify(fx.matrix, **grid).verdicts))
            assert reported == ids, (fx.name, grid)


SCALE_EXPONENTS = (-150, -100, -50, -20, -10, 10, 20, 50, 100, 150)


def _scale_invariant_members(t) -> list:
    return [(v.class_id, v.member) for v in classify(t).verdicts
            if v.class_id in SCALE_INVARIANT_CLASSES]


def test_scale_invariance_of_scale_invariant_classes():
    # every scale-invariant verdict of c T matches T's across the float range
    cases = [(f.name, f.matrix) for f in fixture_registry()]
    assert len(cases) == 8
    cases.append(("random3", gen_random(3, 21)))
    for name, t in cases:
        base = _scale_invariant_members(t)
        for c in (7.3, *(10.0**e for e in SCALE_EXPONENTS)):
            assert _scale_invariant_members(c * t) == base, (name, c)


def test_tiny_jordan_block_keeps_its_verdicts():
    # 1e-20 J is J: not normal, hyponormal, quasinormal or paranormal
    rep = classify(1e-20 * np.array([[0, 1], [0, 0]], dtype=complex))
    for class_id in ("normal", "hyponormal", "quasinormal", "paranormal"):
        assert not rep.verdict(class_id).member, class_id
    assert rep.chain_consistent
    assert rep.operator_norm == pytest.approx(1e-20, rel=1e-15)


def test_binormal_of_huge_matrix_returns_a_verdict():
    v = is_binormal(1e80 * np.array([[0, 1], [0, 0]], dtype=complex))
    assert v.member and v.margin == 0.0


def _count_lapack(monkeypatch, routine, fn, *args, **kwargs) -> int:
    calls = [0]
    original = getattr(np.linalg, routine)

    def counted(*a, **k):
        calls[0] += 1
        return original(*a, **k)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, routine, counted)
        fn(*args, **kwargs)
    return calls[0]


def test_classify_svd_budget(monkeypatch):
    # one snapshot SVD plus one norm per residual that no snapshot quantity
    # gives (projection, quasinormal, class A), and posinormal's only when
    # T has a kernel; the skew part's and binormal's norms are eigvalsh's
    for t in (gen_random(64, 3), gen_normal(16, 4), gen_binormal(5, 3)):
        assert _count_lapack(monkeypatch, "svd", classify, t) == 4, t.shape
    for t in (gen_nilpotent(16, 5), gen_partial_isometry(8, 4, 6)):
        assert _count_lapack(monkeypatch, "svd", classify, t) == 5, t.shape
    t = gen_random(16, 5)
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    assert (_count_lapack(monkeypatch, "svd", classify, t, p_list=grid, r_list=grid)
            == _count_lapack(monkeypatch, "svd", classify, t))


def test_classify_builds_one_snapshot(monkeypatch):
    # class A takes T_hat^2 = W (Sigma C Sigma) V* from the snapshot's
    # singular coordinates, not from a second snapshot of T_hat^2: one
    # classify builds the snapshot of T and no other
    from normaloid import linalg

    built = []
    init = linalg.SpectralSnapshot.__init__
    monkeypatch.setattr(linalg.SpectralSnapshot, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for t in (gen_random(8, 3), gen_normal(8, 4), gen_nilpotent(6, 5), np.zeros((3, 3))):
        built.clear()
        classify(t)
        assert len(built) == 1, t


def test_classify_reads_only_the_singular_coordinates(monkeypatch):
    # every verdict takes its forms from Sigma, C = V*W and the snapshot's
    # coordinate forms: classify runs with the n x n products of T_hat,
    # its polar factor and its modulus powers all unavailable
    from normaloid import linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("classify read an n x n form of T_hat")

    for name in ("gram", "cogram", "polar_factor"):
        monkeypatch.setattr(linalg.SpectralSnapshot, name, property(forbidden))
    for name in ("modulus_power", "modulus_adjoint_power"):
        monkeypatch.setattr(linalg.SpectralSnapshot, name, forbidden)
    matrices = [gen(n, 170 + n) for gen in GENERATOR_KINDS.values() for n in (2, 5, 16, 64)]
    matrices += [f.matrix for f in fixture_registry()] + [gen_partial_isometry(8, 3, 170)]
    for t in matrices:
        assert tuple(dict.fromkeys(v.class_id for v in classify(t).verdicts)) == CLASS_IDS
    assert snapshot(matrices[-1], DEFAULT).rank == 3


def test_member_classify_makes_three_eigensolves(monkeypatch):
    # the three semidefinite eigensolves, modulus_gap_eig at e = 2 (normal,
    # hyponormal, p-hyponormal at p = 1) and e = 1 (p = 0.5) and class A,
    # are eigvalsh calls, as are posinormal's, the skew part's norm and
    # binormal's: 6 eigvalsh and no eigh.  Positive takes one more, except
    # where ||T_hat - T_hat*|| > 1 + SKEW_DOMINATES sets its margin: here on
    # the unitary T and the normal T at n = 16 and 64 (skew norms 1.8 to
    # 2.0), not on the normal 2 x 2 (0.48) nor on a Hermitian or psd T (0).
    # The 12 distinct paranormal-family rows are certified in the
    # snapshot's singular basis without a decider probe.  Normaloid reads
    # C's top-cluster block: one index, with no LAPACK call, for a normal,
    # Hermitian or psd T; all n indices for a unitary T, one eigvals of the
    # n x n block and one svd for its eigenvector
    positive_eigvalsh = {gen_normal: (1, 0, 0), gen_unitary: (0, 0, 0), gen_hermitian: (1, 1, 1), gen_psd: (1, 1, 1)}
    for gen, extra in positive_eigvalsh.items():
        for n, positive in zip((2, 16, 64), extra):
            t = gen(n, 150 + n)
            counts = {routine: _count_lapack(monkeypatch, routine, classify, t)
                      for routine in ("eigh", "eigvalsh", "eigvals")}
            want = {"eigh": 0, "eigvalsh": 6 + positive, "eigvals": int(gen is gen_unitary)}
            assert counts == want, (gen.__name__, n, counts)
            assert classify(t).verdict("normaloid").witness is not None, (gen.__name__, n)


def test_paranormal_row_is_decided_once(monkeypatch):
    # paranormal and absolute-k-paranormal at k = 1 both build the row of
    # k-paranormal at k = 1, which the default k_list holds: a non-member's
    # 12 distinct rows are all refuted at the snapshot's singular vectors,
    # with no decide call and no eigh at all; the three verdicts differ
    # only in their labels
    for t in (gen_random(8, 3), gen_nilpotent(4, 164)):
        forms = []
        decide = pencil.decide

        def counted(a, b, *args, **kwargs):
            forms.append(id(a))
            return decide(a, b, *args, **kwargs)

        monkeypatch.setattr(pencil, "decide", counted)
        assert _count_lapack(monkeypatch, "eigh", classify, t) == 0
        assert forms == []
        monkeypatch.setattr(pencil, "decide", decide)
        rep = classify(t)
        para = rep.verdict("paranormal").to_json_dict()
        assert not para["member"]
        del para["class_id"], para["parameters"]
        for same in (rep.verdict("k-paranormal", k=1), rep.verdict("absolute-k-paranormal", k=1.0)):
            same = same.to_json_dict()
            del same["class_id"], same["parameters"]
            assert dumps_json(para) == dumps_json(same)


def test_nonmember_classify_makes_three_eigensolves(monkeypatch):
    # every family row of the benchmark's five non-member kinds is refuted
    # at a singular vector of the snapshot, and no row builds its forms for
    # decide's seed probes.  The 3 semidefinite eigensolves are eigvalsh
    # calls, as for a member, and every refuted one finds its witness at a
    # column of [V W]: no eigh
    handed = []
    decide = pencil.decide
    monkeypatch.setattr(pencil, "decide", lambda *a, **k: handed.append(a) or decide(*a, **k))
    kinds = {
        "random": gen_random,
        "nilpotent": gen_nilpotent,
        "normaloid": gen_normaloid,
        "binormal": gen_binormal,
        "partial-isometry": lambda n, seed: gen_partial_isometry(n, n // 2, seed),
    }
    for kind, gen in kinds.items():
        for n in (4, 8, 16, 32, 64):
            for seed in (0, 1):
                t = gen(n, 200 + 10 * n + seed)
                handed.clear()
                assert _count_lapack(monkeypatch, "eigh", classify, t) == 0, (kind, n, seed)
                assert handed == [], (kind, n, seed)


def test_member_classify_builds_no_form(monkeypatch, near_normal):
    # every family row is decided in the snapshot's singular coordinates:
    # certified from its projected forms V*AV and V*BV, refuted at a column
    # of [V W], or probed by decide on the same projected forms.  No row
    # carries a builder of its n x n forms, and classify never calls the
    # reference builder, on a member, a non-member, a T whose 12 distinct
    # rows decide's probes refute and one whose rows are collapse-marginal
    assert reference._FamilyRow._fields == ("key", "gamma", "lam_exp")
    monkeypatch.setattr(reference, "family_forms", lambda *a, **k: pytest.fail("a family row built its forms"))
    probed = []
    decide = pencil.decide
    monkeypatch.setattr(pencil, "decide", lambda *a, **k: probed.append(a) or decide(*a, **k))
    cases = [(gen_normal(16, 4), 0, (True, False)), (gen_random(8, 3), 0, (False, False)),
             (near_normal(3, 1, 1e-5), 12, (False, False)), (near_normal(3, 7, 1e-6), 12, (True, True))]
    for t, decided, (member, marginal) in cases:
        probed.clear()
        rep = classify(t)
        family = [v for v in rep.verdicts if v.class_id in FAMILY_FORMS]
        assert len(family) == 14 and all((v.member, v.marginal) == (member, marginal) for v in family)
        assert len(probed) == decided


def _identity_corpus():
    cases = [f.matrix for f in fixture_registry()]
    cases += [gen(n, 180 + n) for gen in (gen_random, gen_nilpotent, gen_normal) for n in (3, 16, 64)]
    return cases


def test_absolute_1_paranormal_is_paranormal():
    # T* |T|^2 T = (T^2)* T^2: the absolute-k verdict at k = 1 is the
    # paranormal verdict, certificate and all, under its own labels
    for t in _identity_corpus():
        para = is_paranormal(t).to_json_dict()
        del para["class_id"], para["parameters"]
        for v in (is_absolute_k_paranormal(t, 1.0), classify(t).verdict("absolute-k-paranormal", k=1.0)):
            v = v.to_json_dict()
            assert (v.pop("class_id"), v.pop("parameters")) == ("absolute-k-paranormal", {"k": 1.0})
            assert dumps_json(v) == dumps_json(para)


def test_1_hyponormal_is_hyponormal():
    # (T*T)^1 - (TT*)^1 is the self-commutator: p-hyponormal at p = 1
    # reads hyponormal's modulus_gap_eig(2.0) and carries its margin and witness
    for t in _identity_corpus():
        hypo = is_hyponormal(t)
        for v in (is_p_hyponormal(t, 1.0), classify(t).verdict("p-hyponormal", p=1.0)):
            assert v.parameters == {"p": 1.0}
            assert v.margin == hypo.margin
            # the witness vector is an array: compare its JSON text, bit for bit
            assert dumps_json(v.to_json_dict()["witness"]) == dumps_json(hypo.to_json_dict()["witness"])
            assert (v.member, v.marginal) == (hypo.member, hypo.marginal)


def test_hyponormal_and_1_hyponormal_read_one_modulus_gap_eig(monkeypatch):
    # one cache entry, not a branch: the snapshot searches the margin and
    # witness of its modulus_gap_eig(2.0) once, handing psd_margin the very
    # arrays that one eigvalsh made, and both verdicts read that search;
    # the refuted ones find their witness at a column of [V W], with no
    # eigh, and each verdict holds its own witness dict and vector
    seen = []
    psd_margin = linalg.SpectralSnapshot.psd_margin
    monkeypatch.setattr(linalg.SpectralSnapshot, "psd_margin",
                        lambda s, w, h, tol: seen.append((w, h)) or psd_margin(s, w, h, tol))
    for t, member in ((gen_random(6, 41), False), (gen_normal(5, 42), True), (gen_partial_isometry(6, 2, 43), False)):
        s = snapshot(t, DEFAULT)
        seen.clear()
        both = lambda: (is_hyponormal(s), is_p_hyponormal(s, 1.0))  # noqa: E731
        assert _count_lapack(monkeypatch, "eigvalsh", both) == 1
        assert _count_lapack(monkeypatch, "eigh", both) == 0
        cached = s.modulus_gap_eig(2.0)
        assert len(seen) == 1 and seen[0][0] is cached[0] and seen[0][1] is cached[1]
        hypo, p1 = both()
        assert hypo.member == p1.member == member and len(seen) == 1
        if not member:
            assert hypo.witness is not p1.witness and hypo.witness["vector"] is not p1.witness["vector"]
    # classify's default p grid, (0.5, 1.0, 2.0), reads the exponents 1 and 2: one search each
    s = snapshot(gen_random(6, 41), DEFAULT)
    seen.clear()
    classify(s)
    cached = [s.modulus_gap_eig(e) for e in (2.0, 1.0)]
    assert [(w is c[0], h is c[1]) for (w, h), c in zip(seen[:2], cached)] == [(True, True)] * 2
    assert len(seen) == 3 and seen[2][1] is not cached[0][1]  # the third is class A's


GENERATOR_KINDS = {
    "normal": gen_normal, "hermitian": gen_hermitian, "psd": gen_psd, "random": gen_random,
    "unitary": gen_unitary, "nilpotent": gen_nilpotent, "normaloid": gen_normaloid,
    "binormal": gen_binormal,
    "partial-isometry": lambda n, seed: gen_partial_isometry(n, max(n // 2, 1), seed),
    "quasinormal-partial-isometry":
        lambda n, seed: gen_quasinormal_partial_isometry(n, max(n // 2, 1), seed),
}


def _hermitian(m):
    return (m + adjoint(m)) / 2.0


def _norm2(m):
    return float(np.linalg.norm(m, 2))


def test_singular_coordinate_forms_match_their_definitions(near_normal_sweep):
    # every verdict reads T_hat's forms in V's coordinates, from C = V*W and
    # Sigma.  The n x n definitions, formed here from t_hat, give the same
    # margins within 1e-13 (relative beyond 1: the projection's margin
    # carries ||T||, 64.6 on one random 64x64): T_hat - T_hat*, its Hermitian part,
    # ||T|| T_hat^2 - T_hat, T_hat* T_hat - T_hat T_hat*,
    # T_hat |T_hat|^2 - |T_hat|^2 T_hat, [T_hat* T_hat, T_hat T_hat*] and
    # K T_hat for K the projector onto N(T); |T_hat^2| from a second
    # snapshot of T_hat^2 for class A, and the modulus powers for
    # p-hyponormal at p < 1.  Every witness, a column of [V W] or x = V y,
    # replays below -psd_tol on its definition's matrix.  lambda_min
    # agrees within 1e-13 relative, plus the definition's own roundoff
    # n eps / sigma_min^2: |T_hat|^+ TT* |T_hat|^+ amplifies the
    # eps-sized error of TT* by 1 / sigma_min^2
    # (3.8e-7 on one psd 50x50 whose lambda_min is exactly 1, which the
    # coordinates give to 1.2e-10)
    cases = [s for _, s, _ in near_normal_sweep.values()]
    cases += [snapshot(gen(n, 300 + n), DEFAULT) for gen in GENERATOR_KINDS.values() for n in range(2, 65)]
    replayed, compared = collections.Counter(), collections.Counter()
    for s in cases:
        t = s.t_hat
        gram, cogram = adjoint(t) @ t, t @ adjoint(t)
        commutator = _hermitian(gram - cogram)
        skew = _norm2(t - adjoint(t))
        kernel = s.right_singular_vectors[:, s.rank:]
        margins = {
            "self-adjoint": (is_self_adjoint(s), -skew),
            "positive": (is_positive(s), min(-skew, float(eigvalsh(_hermitian(t))[0]))),
            "orthogonal-projection": (is_orthogonal_projection(s), -max(_norm2(s.norm * (t @ t) - t), skew)),
            "normal": (is_normal(s), -_norm2(commutator)),
            "quasinormal": (is_quasinormal(s), -_norm2(t @ gram - gram @ t)),
            "binormal": (is_binormal(s), -_norm2(gram @ cogram - cogram @ gram)),
            "posinormal": (is_posinormal(s), -_norm2(kernel @ adjoint(kernel) @ t)),
        }
        for key, (v, want) in margins.items():
            assert abs(v.margin - want) <= 1e-13 * max(1.0, abs(want)), (key, v.margin, want)
            compared[key] += 1
        sq = snapshot(t @ t, DEFAULT)
        forms = {"class-A": (is_class_a(s), sq.norm * sq.modulus_power(1.0) - s.gram),
                 "hyponormal": (is_hyponormal(s), commutator),
                 ("p-hyponormal", 1.0): (is_p_hyponormal(s, 1.0), commutator)}
        for p in (0.25, 0.5):
            forms["p-hyponormal", p] = (is_p_hyponormal(s, p),
                                        s.modulus_power(2.0 * p) - s.modulus_adjoint_power(2.0 * p))
        for key, (v, m) in forms.items():
            m = _hermitian(m)
            assert abs(v.margin - float(eigvalsh(m)[0])) <= 1e-13, (key, v.margin)
            if v.witness is not None:
                x = v.witness["vector"]
                assert float((x.conj() @ m @ x).real) / float(np.vdot(x, x).real) < -DEFAULT.psd_tol, key
                replayed[key] += 1
        posinormal = margins["posinormal"][0]
        if posinormal.member and s.norm > 0.0:
            cut, v = s.cut_singular_values, s.right_singular_vectors
            pinv = (v * np.divide(1.0, cut, out=np.zeros_like(cut), where=cut > 0.0)) @ adjoint(v)
            m = _hermitian(pinv @ s.cogram @ pinv)
            lam, ref = posinormal.parameters["lambda_min"], float(eigvalsh(m)[-1])
            slack = len(cut) * np.finfo(float).eps / np.min(cut[cut > 0.0]) ** 2
            assert abs(lam - ref) <= 1e-13 * max(1.0, abs(ref)) + slack, (lam, ref, slack)
            replayed["lambda_min"] += 1
    assert min(replayed.values()) >= 600, replayed
    assert set(compared.values()) == {len(cases)}, compared


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _psd_verdict_bits(s, m):
    """(margin, witness vector or None, witness value, path) of lambda_min of h, m's Hermitian part.

    The margin is eigvalsh's.  A refuting witness is the column x of
    [V W] with the lowest x*h x, diag(h) for V's and diag(C* h C) for W's,
    when that reaches -MARGINAL_FACTOR psd_tol, else eigh's bottom
    eigenvector mapped by V.
    """
    h = (m + m.conj().T) / 2.0
    margin = float(np.linalg.eigvalsh(h)[0])
    if margin >= -DEFAULT.psd_tol:
        return margin, None, None, None
    c = s.coordinates
    values = np.concatenate((h.diagonal().real, np.einsum("ij,ij->j", c.conj(), h @ c).real))
    j = int(np.argmin(values))
    if values[j] <= -MARGINAL_FACTOR * DEFAULT.psd_tol:
        columns = np.hstack((s.right_singular_vectors, s.left_singular_vectors))
        return margin, columns[:, j], float(values[j]), "column"
    w, q = np.linalg.eigh(h)
    return margin, s.right_singular_vectors @ q[:, 0], float(w[0]), "eigh"


def test_modulus_gap_and_class_a_verdicts_are_their_formulas_bit_for_bit(near_normal):
    # p-hyponormal at every p in (0, 1] is lambda_min of the Hermitian part
    # of Sigma_cut^(2p) - C Sigma_cut^(2p) C*, and class A that of
    # Q S_cut Q* - Sigma^2 for Sigma C Sigma = P S Q*, each from eigvalsh;
    # a refuted one's witness is its lowest column of [V W], or eigh's
    # bottom eigenvector when no column reaches -MARGINAL_FACTOR psd_tol
    # (near normal, where [V W] nearly diagonalizes every modulus gap).
    # Each formula, evaluated here in the package's operand order, gives
    # the verdict's margin, witness vector and witness value to the bit
    matrices = [gen(n, 520 + n) for gen in GENERATOR_KINDS.values() for n in (2, 5, 16, 64)]
    matrices += [gen_partial_isometry(9, 4, 520), near_normal(3, 1, 1e-8), near_normal(4, 2, 1e-7)]
    witnessed = collections.Counter()
    for t in matrices:
        s = snapshot(t, DEFAULT)
        c, sig, cut = s.coordinates, s.sigma_hat, s.cut_singular_values
        forms = {}
        for p in (0.25, 0.5, 0.75, 1.0):
            e = 2.0 * p
            forms["p-hyponormal", p] = (is_p_hyponormal(s, p), np.diag(cut**e) - (c * cut**e) @ c.conj().T)
        _, sv, qh = np.linalg.svd(sig[:, None] * c * sig)
        sv = np.where(sv > DEFAULT.rank_tol * sv[0], sv, 0.0)
        forms["class-A"] = (is_class_a(s), (qh.conj().T * sv) @ qh - np.diag(sig**2))
        for key, (v, m) in forms.items():
            margin, vector, value, path = _psd_verdict_bits(s, m)
            assert _bits(v.margin) == _bits(margin), (key, v.margin, margin)
            if vector is None:
                assert v.witness is None, key
            else:
                assert _bits(v.witness["vector"]) == _bits(vector), key
                assert _bits(v.witness["value"]) == _bits(value), key
                witnessed[key, path] += 1
    assert snapshot(matrices[-3], DEFAULT).rank == 4
    # columns and eigh fallbacks both occur for every form
    assert len(witnessed) == 10 and min(witnessed.values()) >= 2, witnessed


def test_semidefinite_witness_falls_back_to_eigh_when_no_column_refutes(monkeypatch, near_normal):
    # at distance 1e-8 from normal, [V W] nearly diagonalizes the
    # self-commutator: lambda_min < -psd_tol while no column's x*Mx
    # reaches -MARGINAL_FACTOR psd_tol, so hyponormal's witness comes from
    # one eigh of V*MV, and it replays below -psd_tol on the n x n
    # definition T_hat* T_hat - T_hat T_hat*
    s = snapshot(near_normal(3, 1, 1e-8), DEFAULT)
    w, h = s.modulus_gap_eig(2.0)
    assert w[0] < -DEFAULT.psd_tol
    assert np.min(s.basis_column_values(h)) > -MARGINAL_FACTOR * DEFAULT.psd_tol
    calls = [0]
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.__setitem__(0, calls[0] + 1) or eigh(*a))
    v = is_hyponormal(s)
    assert calls == [1] and not v.member
    x, t = v.witness["vector"], s.t_hat
    m = _hermitian(adjoint(t) @ t - t @ adjoint(t))
    replay = float((x.conj() @ m @ x).real) / float(np.vdot(x, x).real)
    assert replay < -DEFAULT.psd_tol and abs(replay - v.witness["value"]) <= 1e-15, (replay, v.witness)


def _skew_corpus(near_normal_sweep):
    """Snapshots of the fixtures, every generator kind at n = 2, 3, 5, 16, 64 for seeds 0..4, and the sweep."""
    for f in fixture_registry():
        yield snapshot(f.matrix, DEFAULT)
    for gen in GENERATOR_KINDS.values():
        for n in (2, 3, 5, 16, 64):
            for seed in range(5):
                yield snapshot(gen(n, seed), DEFAULT)
    for _, s, _ in near_normal_sweep.values():
        yield s


def test_positive_margin_is_min_of_skew_and_lambda_min_bit_for_bit(near_normal_sweep):
    # positive's margin is min(-||T_hat - T_hat*||, lambda_min(H)) for
    # H = (C Sigma + Sigma C*) / 2, to the bit, also where the skew part
    # exceeds 1 + SKEW_DOMINATES and is_positive takes no eigvalsh of H
    skipped = collections.Counter()
    for s in _skew_corpus(near_normal_sweep):
        c, sig = s.coordinates, s.sigma_hat
        lam = float(np.linalg.eigvalsh((c * sig + sig[:, None] * adjoint(c)) / 2.0)[0])
        margin = is_positive(s).margin
        assert _bits(margin) == _bits(min(-s.skew_norm, lam)), (margin, -s.skew_norm, lam)
        skipped[bool(s.skew_norm > 1.0 + SKEW_DOMINATES)] += 1
    assert min(skipped[True], skipped[False]) >= 100, skipped


def test_positive_takes_no_eigvalsh_when_the_skew_part_sets_its_margin(monkeypatch):
    # with the snapshot's skew norm taken first, is_positive makes no
    # eigvalsh on a random T, whose ||T_hat - T_hat*|| is over 1, and one on
    # a Hermitian or psd T, whose skew part is roundoff
    for t, calls in ((gen_random(64, 3), 0), (gen_hermitian(64, 3), 1), (gen_psd(16, 3), 1)):
        s = snapshot(t, DEFAULT)
        assert (s.skew_norm > 1.0 + SKEW_DOMINATES) == (calls == 0), s.skew_norm
        assert _count_lapack(monkeypatch, "eigvalsh", is_positive, s) == calls, t.shape


def test_skew_hermitian_norms_match_the_svd(near_normal_sweep):
    # skew_norm and binormality_defect take max |lambda| of eigvalsh(1j K)
    # for their skew-Hermitian K; both K are at most 2 in norm (Sigma <= 1,
    # C nearly unitary), and each backward-stable solver lands within
    # n eps ||K|| of ||K||, so eigvalsh's and svd's norms agree within 4 n eps
    eps = np.finfo(float).eps
    for s in _skew_corpus(near_normal_sweep):
        n, c, sig = len(s.sigma_hat), s.coordinates, s.sigma_hat
        m, sq = s.coordinate_adjoint_power(2.0), s.cut_singular_values**2
        for norm, k in ((s.skew_norm, c * sig - sig[:, None] * adjoint(c)), (s.binormality_defect, sq[:, None] * m - m * sq)):
            ref = float(np.linalg.svd(k, compute_uv=False)[0])
            assert abs(norm - ref) <= 4 * n * eps, (n, norm, ref)


def _normaloid_corpus(near_normal_sweep):
    """(matrix snapshot, its classify report): the fixtures, every generator kind at n = 2..64, the sweep."""
    for f in fixture_registry():
        s = snapshot(f.matrix, DEFAULT)
        yield s, classify(s)
    for gen in (*GENERATOR_KINDS.values(), gen_posinormal):
        for n in (2, 3, 5, 8, 16, 32, 64):
            for seed in range(5):
                s = snapshot(gen(n, seed), DEFAULT)
                yield s, classify(s)
    for _, s, rep in near_normal_sweep.values():
        yield s, rep


def test_normaloid_fast_path_matches_the_eigvals_rule(near_normal_sweep):
    # a normaloid member decided on C's top singular cluster carries the
    # eigenpair T_hat x = lam x; every verdict's member and marginal bits
    # are those of the rule margin = max |eigvals(T_hat)| - 1, its
    # spectral_radius lies within eq_rtol ||T|| of ||T|| max |eigvals(T_hat)|,
    # and every eigenpair witness replays on T itself within the gate,
    # ||T x - ||T|| lam x|| <= EIGENPAIR_GATE n eps ||T||
    eq, eps = DEFAULT.eq_rtol, np.finfo(float).eps
    paths = collections.Counter()
    for s, rep in _normaloid_corpus(near_normal_sweep):
        v = rep.verdict("normaloid")
        rho = float(np.max(np.abs(np.linalg.eigvals(s.t_hat))))
        old = rho - (1.0 if s.norm > 0.0 else 0.0)
        assert (v.member, v.marginal) == (old >= -eq, is_marginal(old, eq)), (v.margin, old)
        assert abs(rep.spectral_radius - s.norm * rho) <= eq * s.norm, (rep.spectral_radius, s.norm * rho)
        if v.witness is None:
            paths["eigvals"] += 1
            continue
        lam, x = complex(*v.witness["lambda"]), v.witness["vector"]
        n = len(x)
        assert v.margin == abs(lam) - 1.0 == v.witness["value"] and v.member
        assert abs(np.linalg.norm(x) - 1.0) <= n * eps
        residual = np.linalg.norm(s.t @ x - (s.norm * lam) * x)
        assert residual <= linalg.EIGENPAIR_GATE * n * eps * s.norm, (residual / (n * eps * s.norm))
        paths["block"] += 1
    assert paths["block"] >= 200 and paths["eigvals"] >= 200, paths


def test_subnormal_is_normal_relabeled():
    # in finite dimension subnormal is normal: its JSON is normal's with
    # the class id and the note changed, bit for bit
    matrices = [gen(n, 530 + n) for gen in GENERATOR_KINDS.values() for n in (2, 5, 16)]
    matrices += [f.matrix for f in fixture_registry()]
    for t in matrices:
        s = snapshot(t, DEFAULT)
        normal = is_normal(s).to_json_dict()
        assert "note" not in normal
        want = {**normal, "class_id": "subnormal", "note": SUBNORMAL_NOTE}
        assert dumps_json(is_subnormal(s).to_json_dict()) == dumps_json(want)


def test_family_verdicts_match_a_direct_decide(near_normal_sweep, projected_decide):
    # each family verdict is the one a one-spec family_certificates call
    # gives, byte for byte, on the same snapshot (which decides absolute-k
    # at k = 1 on the paranormal row), although classify decides all rows
    # at once, and each row takes the path its T allows:
    # - a T that passes is_normal's test: a snapshot-basis certificate with
    #   margin >= -psd_tol, marginal by is_marginal alone;
    # - any other T: a refutation at a singular vector;
    # - a row left by both: decide's own certificate on its projected forms
    #   V*AV and V*BV, its witness mapped back to x = V y, from at most the
    #   three seed probes, refuted or collapse-marginal (a marginal member
    #   whose note names the collapse); decide on the reference forms
    #   (reference.family_forms) reaches the same decision.
    # The near-normal sweep puts rows on every path, certified rows whose
    # margins is_marginal flags among them.
    matrices = [f.matrix for f in fixture_registry()]
    matrices += [gen(n, 160 + n) for gen in (gen_random, gen_nilpotent) for n in (2, 4, 8, 16, 64)]
    matrices += [gen_normaloid(n, 160 + n) for n in (4, 16)] + [gen_binormal(n, 160 + n) for n in (4, 16)]
    cases = [(s, classify(s)) for s in (snapshot(t, DEFAULT) for t in matrices)]
    cases += [(s, rep) for _, s, rep in near_normal_sweep.values()]
    tol = DEFAULT.psd_tol
    methods = collections.Counter()
    for s, rep in cases:
        normal = s.normality_defect <= DEFAULT.eq_rtol
        for v in rep.verdicts:
            if v.class_id not in FAMILY_FORMS:
                continue
            (cert,) = pencil.family_certificates(s, [(v.class_id, v.parameters)], DEFAULT)
            if cert.method in ("pencil-refuted", pencil.COLLAPSE):
                direct = projected_decide(s, v.class_id, v.parameters)
                a, b, gamma, lam_exp = reference.family_forms(s, v.class_id, DEFAULT, **(v.parameters or {}))
                formed = pencil.decide(a, b, gamma, DEFAULT, lam_exp)
            collapse = cert.method == pencil.COLLAPSE
            expected = _verdict(v.class_id, cert.margin, tol, parameters=v.parameters,
                                witness=_pencil_witness(cert), note=COLLAPSE_NOTE if collapse else "")
            expected.marginal |= collapse
            assert dumps_json(v.to_json_dict()) == dumps_json(expected.to_json_dict())
            assert v.member == cert.decision
            if cert.method == "snapshot-basis-certified":
                assert normal and cert.margin >= -tol
                assert v.marginal == is_marginal(cert.margin, tol)
            elif cert.method == "snapshot-basis-refuted":
                assert not normal and not v.marginal
            else:
                assert cert.method in ("pencil-refuted", pencil.COLLAPSE), cert.method
                assert cert.evaluations <= len(pencil.SEED_MUS)
                assert (cert.method, cert.margin, cert.witness_lambda, cert.evaluations) == (
                    direct.method, direct.margin, direct.witness_lambda, direct.evaluations)
                assert _vector_bits(cert) == _vector_bits(direct)
                assert formed.decision == cert.decision
                assert v.marginal if collapse else not v.member
            methods[cert.method, v.marginal] += 1
    assert sum(methods.values()) == len(cases) * 14
    assert methods["snapshot-basis-refuted", False] > 2000
    assert methods["snapshot-basis-certified", True] > 100
    assert methods[pencil.COLLAPSE, True] > 2000
    assert methods["pencil-refuted", False] + methods["pencil-refuted", True] > 200


def _vector_bits(cert):
    return None if cert.witness_vector is None else cert.witness_vector.tobytes()


def test_near_normal_sweep_never_contradicts_the_collapse(near_normal_sweep):
    # the paper: absolute-(p,r)-paranormal with T^2 compact implies normal,
    # so in finite dimension every family class equals normal.  A solid
    # non-normal verdict next to a solid family member contradicts that.
    # T = N + delta (||N|| / ||R||) R has a normality margin of about
    # -delta but a family defect of order delta^2, which roundoff hides
    # below delta ~ 1e-8; the sweep covers both sides of that edge
    contradictions = []
    for (delta, n, seed), (_, _, rep) in near_normal_sweep.items():
        normal = rep.verdict("normal")
        solid = [(v.class_id, v.parameters) for v in rep.verdicts
                 if v.class_id in FAMILY_FORMS and v.member and not v.marginal]
        if not normal.member and not normal.marginal and solid:
            contradictions.append((delta, n, seed, solid))
    assert contradictions == [], f"{len(contradictions)} of 560 matrices: {contradictions[:3]}"


def test_verdict_serialization_shape():
    v = is_normal(np.eye(2))
    d = v.to_json_dict()
    assert d["class_id"] == "normal"
    assert d["member"] is True
    assert isinstance(d["margin"], float)
    assert isinstance(d["threshold"], float)


def test_classify_report_contents_and_chain():
    t = get_fixture("normaloid_swap3").matrix
    rep = classify(t)
    assert rep.dimension == 3
    assert rep.operator_norm == pytest.approx(2.0, abs=1e-12)
    assert rep.spectral_radius == pytest.approx(2.0, abs=1e-12)
    assert rep.chain_consistent
    assert rep.verdict("normaloid").member
    assert not rep.verdict("normal").member
    byid = {v.class_id for v in rep.verdicts}
    assert {"normal", "paranormal", "absolute-pr-paranormal", "posinormal"} <= byid
    d = rep.to_json_dict()
    assert d["dimension"] == 3
    assert len(d["verdicts"]) == len(rep.verdicts)


def _inline(witness: dict, table: list) -> dict:
    """A report verdict's witness with the vector its vector_index names put back in its place."""
    return {("vector" if k == "vector_index" else k): (table[x] if k == "vector_index" else x)
            for k, x in witness.items()}


@pytest.mark.parametrize(
    "t",
    [pytest.param(fx.matrix, id=fx.name) for fx in fixture_registry()]
    + [pytest.param(gen_random(16, 7), id="random16"),
       pytest.param(gen_nilpotent(16, 8), id="nilpotent16"),
       pytest.param(gen_random(64, 7), id="random64")],
)
def test_report_writes_rank_and_each_witness_vector_once(t):
    s = snapshot(t, DEFAULT)
    rep = classify(s)
    d = rep.to_json_dict()
    assert d["report_version"] == REPORT_VERSION == 2
    assert "polar_factor" not in d and d["rank"] == s.rank
    assert "seed" not in d["parameters"]
    table = d["witnesses"]
    bits = [np.array(v, dtype=np.float64).tobytes() for v in table]
    assert len(set(bits)) == len(bits)
    used = []
    assert len(d["verdicts"]) == len(rep.verdicts)
    for v, out in zip(rep.verdicts, d["verdicts"]):
        w = out["witness"]
        if w is not None and "vector_index" in w:
            assert "vector" not in w
            used.append(w["vector_index"])
            out = {**out, "witness": _inline(w, table)}
        # bit for bit, so -0.0 and 0.0 differ
        assert dumps_json(out) == dumps_json(v.to_json_dict())
    # the table lists the used vectors in order of first appearance
    assert list(dict.fromkeys(used)) == list(range(len(table)))
    if t.shape[0] == 64:
        assert len(table) < len(used)


def test_report_witness_table_tells_signed_zeros_apart():
    # 0.0 == -0.0, so a table keyed by float equality would write the first
    # vector for the second verdict too
    vectors = [[[0.0, 1.0], [0.5, -0.0]], [[-0.0, 1.0], [0.5, -0.0]], [[0.0, 1.0], [0.5, -0.0]]]
    verdicts = [_verdict("hyponormal", -1.0, DEFAULT.psd_tol,
                         witness={"vector": vector_from_pairs(x), "value": -1.0})
                for x in vectors]
    rep = ClassReport(dimension=2, operator_norm=1.0, spectral_radius=1.0,
                      rank=2, verdicts=verdicts,
                      chain_consistent=True, parameters={})
    d = rep.to_json_dict()
    assert [v["witness"] for v in d["verdicts"]] == [
        {"vector_index": i, "value": -1.0} for i in (0, 1, 0)]
    assert dumps_json(d["witnesses"]) == dumps_json(vectors[:2])


def test_classify_parametrized_lookup():
    t = gen_normal(2, 3)
    rep = classify(t, p_list=(1.0,), r_list=(1.0,), k_list=(1,))
    v = rep.verdict("absolute-pr-paranormal", p=1.0, r=1.0)
    assert v.member
    with pytest.raises(KeyError):
        rep.verdict("absolute-pr-paranormal", p=9.0, r=9.0)


def test_chain_consistency_flags_contradiction():
    good = classify(gen_psd(3, 4)).verdicts
    assert chain_consistent(good)


def test_strict_profile_still_passes_exact_members():
    strict = ToleranceConfig(eq_rtol=1e-12, psd_tol=1e-11, rank_tol=1e-12)
    u = gen_unitary(3, 11)
    assert is_unitary(u, strict).member
    assert is_normal(u, strict).member


def test_generated_classes_satisfy_their_predicates():
    for seed in range(6):
        assert is_binormal(gen_binormal(4, seed)).member
        assert is_partial_isometry(gen_partial_isometry(4, 2, seed)).member
        q = gen_quasinormal_partial_isometry(4, 2, seed)
        assert is_partial_isometry(q).member
        assert is_quasinormal(q).member
