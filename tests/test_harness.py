import json

import numpy as np
import pytest

from normaloid.classes import ascent
from normaloid.config import DEFAULT
from normaloid.errors import InvalidParameter, UnknownTheoremId
from normaloid.generators import gen_nilpotent, gen_normal, gen_quasinormal_partial_isometry, gen_unitary
from normaloid.classes import _verdict
from normaloid.harness import (
    _SUITES,
    PR_GRID,
    THEOREM_IDS,
    PropertyResult,
    _ascent_is_one,
    _implies,
    _Suite,
    run_all,
    run_suite,
)
from normaloid.linalg import adjoint, snapshot


def test_theorem_id_catalog():
    assert len(THEOREM_IDS) == 14
    assert len(set(THEOREM_IDS)) == 14
    assert "FINITE_DIM_COLLAPSE" in THEOREM_IDS
    # the ids are _SUITES' keys, in declaration order, which seeds each suite
    assert (THEOREM_IDS[0], THEOREM_IDS[7], THEOREM_IDS[-1]) == (
        "SELF_ADJOINT_CHAR", "FINITE_DIM_COLLAPSE", "CHAIN_CONSISTENCY")
    assert len(PR_GRID) == 9


def test_unknown_theorem_id_raises():
    with pytest.raises(UnknownTheoremId):
        run_suite("NOT_A_THEOREM", 10, 1)


def test_trials_validation():
    with pytest.raises(InvalidParameter):
        run_suite("TWO_BY_TWO_NORMALOID", 0, 1)


def test_two_by_two_spec_example():
    res = run_suite("TWO_BY_TWO_NORMALOID", 500, 7)
    assert res.failures == 0
    assert res.trials == 500
    assert res.skipped < 0.05 * res.trials


def test_collapse_spec_example():
    res = run_suite("FINITE_DIM_COLLAPSE", 300, 11)
    assert res.failures == 0
    # the trial loop cycles through every exponent pair
    assert res.trials == 300


def test_fundamental_identity_spec_example():
    res = run_suite("FUNDAMENTAL_IDENTITY", 300, 3)
    assert res.failures == 0
    assert res.skipped == 0
    assert res.worst_margin is not None and res.worst_margin > 0


def test_result_serialization_roundtrip():
    res = run_suite("ASCENT_ONE", 40, 2)
    d = res.to_json_dict()
    assert d["theorem_id"] == "ASCENT_ONE"
    assert d["rng"] == "numpy-PCG64"
    assert d["seed"] == 2
    assert set(d) == {
        "theorem_id", "trials", "failures", "skipped",
        "worst_margin", "counterexample", "seed", "rng",
    }
    json.dumps(d)  # JSON-serializable with no numpy leftovers


def test_determinism_same_seed_identical_results():
    a = run_suite("BINORMAL_HYPONORMAL", 60, 5).to_json_dict()
    b = run_suite("BINORMAL_HYPONORMAL", 60, 5).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seeds_change_worst_margin():
    a = run_suite("FUNDAMENTAL_IDENTITY", 50, 1)
    b = run_suite("FUNDAMENTAL_IDENTITY", 50, 2)
    assert a.worst_margin != b.worst_margin


def test_run_all_covers_catalog_in_order():
    results = run_all(5, 1)
    assert [r.theorem_id for r in results] == list(THEOREM_IDS)
    assert all(isinstance(r, PropertyResult) for r in results)
    assert all(r.failures == 0 for r in results)


def test_skip_accounting_in_marginal_band():
    # the 2x2 suite plants deliberately marginal cases at ~3% rate
    res = run_suite("TWO_BY_TWO_NORMALOID", 1000, 1)
    assert res.skipped > 0
    assert res.failures == 0


def test_failure_bookkeeping_captures_first_counterexample():
    suite = _Suite("ASCENT_ONE", 9, DEFAULT)
    suite.record([0.5, 0.2], lambda: {"tag": "fine"})
    suite.record([0.1, -0.3], lambda: {"tag": "first-failure"})
    suite.record([None], lambda: {"tag": "skip"})
    suite.record([-2.0], lambda: {"tag": "second-failure"})
    res = suite.result()
    assert res.trials == 4
    assert res.failures == 2
    assert res.skipped == 1
    assert res.worst_margin == -2.0
    assert res.counterexample == {"tag": "first-failure"}
    assert res.seed == 9


def test_all_suites_pass_at_moderate_scale():
    for tid in THEOREM_IDS:
        res = run_suite(tid, 80, 1)
        assert res.failures == 0, (tid, res.counterexample)
        assert res.trials == 80


def test_ascent_route_through_the_polar_factor():
    # ASCENT_ONE checks classes.ascent against R(T) and N(T) meeting only
    # in 0; the route must say False for every ascent above 1
    shift = np.diag(np.ones(3), 1).astype(complex)
    w = gen_unitary(4, 2)
    kernel_normal = w @ np.diag([1.0, 0.5j, -0.3, 0.0]) @ adjoint(w)
    cases = [shift, 1e-9 * shift, np.zeros((3, 3)), kernel_normal, gen_normal(5, 3),
             gen_quasinormal_partial_isometry(5, 2, 4), gen_nilpotent(5, 6)]
    cases.append(np.block([[shift, np.zeros((4, 2))], [np.zeros((2, 4)), np.eye(2)]]))
    seen = set()
    for t in cases:
        s = snapshot(t, DEFAULT)
        expected = ascent(s, DEFAULT) == 1
        assert _ascent_is_one(s, DEFAULT) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_every_payload_builds_and_serializes():
    # payloads are built only for a failing trial, so a passing run never
    # exercises them; t = 0..11 reaches every t-indexed branch of every suite
    built = 0
    for tid, trial in _SUITES.items():
        suite = _Suite(tid, 3, DEFAULT)
        for t in range(12):
            rng = np.random.Generator(np.random.PCG64(suite.seq(t)))
            slacks, payload = trial(suite, t, rng)
            assert len(slacks) >= 1
            if payload is None:
                assert slacks == [None]
                continue
            obj = payload()
            assert "matrix" in obj
            json.dumps(obj)
            built += 1
    assert built >= 14 * 11


def test_implies_slack_and_contrapositive():
    solid_in = _verdict("a", 0.5, 1e-9)
    solid_out = _verdict("b", -0.25, 1e-9)
    marginal = _verdict("c", -1e-9, 1e-9)
    assert marginal.marginal and not solid_in.marginal and not solid_out.marginal
    # any marginal verdict skips the trial
    assert _implies([solid_in, marginal], solid_in) is None
    assert _implies([solid_in], marginal) is None
    # all premises hold: the conclusion must
    assert _implies([solid_in, solid_in], solid_in) == 0.5 + 1e-9
    assert _implies([solid_in], solid_out) == -0.25 + 1e-9
    # solid non-member conclusion: the most solidly failing premise
    weaker_out = _verdict("d", -0.125, 1e-9)
    assert _implies([solid_in, solid_out, weaker_out], solid_out) == 0.25 - 1e-9
    # a premise fails and the conclusion holds: nothing to assert
    assert _implies([solid_out, solid_in], solid_in) == 0.0
