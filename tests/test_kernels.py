import numpy as np
import pytest

from normaloid.config import DEFAULT
from normaloid.fixtures import get_fixture
from normaloid.kernels import active_backend, objective_batch
from normaloid.linalg import operator_norm
from normaloid.pencil import abs_pr_forms, sphere_points


@pytest.fixture()
def swap3_forms():
    t = get_fixture("normaloid_swap3").matrix
    t = t / operator_norm(t)
    return abs_pr_forms(t, 1.0, 1.0, DEFAULT)


def test_objective_batch_matches_direct_formula(swap3_forms):
    a, b, gamma = swap3_forms
    xs = sphere_points(3, 16, 0)
    vals = objective_batch(a, b, xs, gamma)
    for x, v in zip(xs, vals):
        av = float(np.real(x.conj() @ a @ x))
        bv = max(float(np.real(x.conj() @ b @ x)), 0.0)
        assert v == pytest.approx(av - bv**gamma, abs=1e-12)
    assert active_backend() == "numpy"


def test_degenerate_b_floor_does_not_crash():
    # b(x) identically zero: the gamma branch must not produce NaN
    a = np.eye(2, dtype=complex)
    b = np.zeros((2, 2), dtype=complex)
    vals = objective_batch(a, b, sphere_points(2, 8, 5), 2.0)
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)  # x*Ax = 1 everywhere
