"""Acceptance gate: one test per criterion, one PASS line each on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Budgets are wall-clock upper bounds on commodity hardware; the numerical
bars are exact and never loosened.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from normaloid.classes import classify, is_absolute_pr_paranormal, is_partial_isometry, is_quasinormal
from normaloid.config import DEFAULT, is_marginal
from normaloid.fixtures import fixture_registry, get_fixture
from normaloid.generators import gen_binormal, gen_normal, gen_random
from normaloid.harness import PR_GRID, run_suite
from normaloid.linalg import adjoint, snapshot
from normaloid.pencil import check_abs_pr_sphere
from normaloid.reference import check_abs_pr_lambda_grid, dense_oracle, evaluate_objective
from normaloid.transforms import polar_conjugation_residual

GRID = [(p, r) for p in (0.5, 1.0, 2.0) for r in (0.5, 1.0, 2.0)]

NAMED_SUITES = (
    "SELF_ADJOINT_CHAR",
    "NTH_ROOT_NORMAL",
    "BINORMAL_HYPONORMAL",
    "POWER_INEQUALITY",
    "PARTIAL_ISOMETRY_CHAR",
    "ASCENT_ONE",
    "ROOT_PARTIAL_ISOMETRY",
    "MONOTONICITY",
    "CHAIN_CONSISTENCY",
)


def _announce(num: int, text: str) -> None:
    print(f"\nPASS criterion {num}: {text}")


def test_criterion_1_fixture_goldens():
    start = time.perf_counter()

    t = get_fixture("normaloid_swap3").matrix
    rep = classify(t)
    assert rep.operator_norm == pytest.approx(2.0, abs=1e-10)
    assert rep.spectral_radius == pytest.approx(2.0, abs=1e-10)
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.max(np.abs(snapshot(t).polar_factor - swap)) < 1e-10
    for cid, want in (
        ("normaloid", True),
        ("binormal", True),
        ("self-adjoint", False),
        ("normal", False),
        ("paranormal", False),
    ):
        assert rep.verdict(cid).member is want, cid

    v = get_fixture("partial_isometry_shift").matrix
    vrep = classify(v)
    assert np.max(np.abs(adjoint(v) @ v - np.diag([1.0, 0.0, 1.0]))) < 1e-12
    assert np.max(np.abs(v @ adjoint(v) - np.diag([1.0, 1.0, 0.0]))) < 1e-12
    for cid, want in (
        ("partial-isometry", True),
        ("normaloid", True),
        ("quasinormal", False),
    ):
        assert vrep.verdict(cid).member is want, cid

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _announce(1, f"fixture goldens reproduced (norms, polar factor, verdicts) in {elapsed:.2f}s")


def test_criterion_2_two_by_two_equivalence():
    start = time.perf_counter()
    res = run_suite("TWO_BY_TWO_NORMALOID", trials=1000, seed=1)
    elapsed = time.perf_counter() - start
    assert res.failures == 0, res.counterexample
    assert res.skipped < 0.05 * res.trials, res.skipped
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    _announce(
        2,
        f"1000 2x2 trials, 0 disagreements, {res.skipped} marginal skips "
        f"({res.skipped / 10:.1f}%), {elapsed:.2f}s",
    )


def test_criterion_3_finite_dim_collapse():
    res = run_suite("FINITE_DIM_COLLAPSE", trials=300, seed=1)
    assert res.failures == 0, res.counterexample
    assert res.trials == 300

    trio = [f.name for f in fixture_registry()
            if f.expected.get("normaloid") is True and f.expected.get("normal") is False]
    assert len(trio) == 3, trio
    worst = -np.inf
    for name in trio:
        t = get_fixture(name).matrix
        for p, r in GRID:
            cert = check_abs_pr_sphere(t, p, r, DEFAULT)
            assert cert.decision is False, (name, p, r)
            assert cert.witness_vector is not None
            replay = evaluate_objective(t, p, r, cert.witness_vector, DEFAULT)
            assert replay <= -1e-6, (name, p, r, replay)
            worst = max(worst, replay)
    _announce(
        3,
        "collapse equivalence holds on 300 matrices; "
        f"{', '.join(trio)} refuted at all 9 (p, r) with witness replay <= {worst:.2e}",
    )


def test_criterion_4_sphere_vs_dense_oracle():
    start = time.perf_counter()
    disagreements = 0
    marginal_skips = 0
    grid_refutations = 0
    for trial in range(200):
        n = 2 + trial % 2
        kind = trial % 3
        seed_val = 5000 + trial
        if kind == 0:
            t = gen_random(n, seed_val)
        elif kind == 1:
            t = gen_normal(n, seed_val)
        else:
            t = gen_binormal(n, seed_val)
        p, r = PR_GRID[trial % len(PR_GRID)]

        sphere = check_abs_pr_sphere(t, p, r, DEFAULT)
        oracle = dense_oracle(t, p, r, DEFAULT, seed=trial)
        assert oracle.evaluations >= 2 * 10**5 or oracle.margin == 0.0
        if is_marginal(sphere.margin, DEFAULT.psd_tol) or is_marginal(oracle.margin, DEFAULT.psd_tol):
            marginal_skips += 1
        elif sphere.decision is not oracle.decision:
            disagreements += 1

        grid = check_abs_pr_lambda_grid(t, p, r, DEFAULT)
        if not grid.decision and not is_marginal(grid.margin, DEFAULT.psd_tol):
            grid_refutations += 1
            assert sphere.decision is False, (trial, p, r)
            assert evaluate_objective(t, p, r, sphere.witness_vector, DEFAULT) < 0.0
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert grid_refutations > 0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _announce(
        4,
        f"200 sphere-vs-oracle trials (>=262144 vectors each): 0 non-marginal "
        f"disagreements, {grid_refutations} grid refutations all confirmed by "
        f"sphere witnesses, {elapsed:.1f}s",
    )


def test_criterion_5_identity_residuals():
    res = run_suite("FUNDAMENTAL_IDENTITY", trials=300, seed=1)
    assert res.failures == 0, res.counterexample
    assert res.worst_margin >= 0.0

    worst = 0.0
    for i in range(100):
        n = 2 + i % 4
        t = gen_random(n, 9000 + i)
        for q in (0.5, 1.0, 2.0, 3.0):
            worst = max(worst, polar_conjugation_residual(t, q, DEFAULT))
    assert worst <= 1e-8, worst
    _announce(
        5,
        "identity residuals <= 1e-8 across 300 matrices (alpha and power-form "
        f"families) and 100 matrices x q in {{0.5, 1, 2, 3}} (worst {worst:.2e})",
    )


def test_criterion_6_theorem_suites_and_counterexamples():
    start = time.perf_counter()
    for tid in NAMED_SUITES:
        res = run_suite(tid, trials=200, seed=1)
        assert res.failures == 0, (tid, res.counterexample)
        assert res.trials == 200

    # each counterexample keeps its named weaker property, satisfies the
    # square-root premise, and still escapes the conclusion
    cases = (
        ("normaloid_halfshift", "normaloid"),
        ("nilpotent_double", "binormal"),
        ("involution_shear", "posinormal"),
    )
    for name, named_class in cases:
        fx = get_fixture(name)
        t = fx.matrix
        assert fx.expected[named_class] is True, name
        sq = t @ t
        assert is_partial_isometry(sq, DEFAULT).member is True, name
        assert is_quasinormal(t, DEFAULT).member is False, name
        for p, r in GRID:
            assert is_absolute_pr_paranormal(t, p, r, DEFAULT).member is False, (name, p, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    _announce(
        6,
        f"9 theorem suites x 200 trials at seed 1: zero failures; all 3 "
        f"counterexamples keep their named class and defeat the conclusion, {elapsed:.1f}s",
    )


def test_criterion_7_verify_byte_determinism(tmp_path):
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("NORMALOID_"):
            del env[key]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"verify_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "normaloid", "verify", "--suite", "all",
             "--trials", "200", "--seed", "1", "--out", str(out)],
            capture_output=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    results = json.loads(outs[0])
    assert len(results) == 14
    assert all(r["failures"] == 0 for r in results)
    _announce(7, "two `verify --suite all --trials 200 --seed 1` runs are byte-identical")
