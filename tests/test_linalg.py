import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normaloid.config import DEFAULT
from normaloid.errors import InvalidParameter
from normaloid.generators import gen_psd, gen_random, gen_unitary
from normaloid.linalg import (
    adjoint,
    as_operator,
    matrix_power,
    operator_norm,
    power_ranks,
    snapshot,
    spectral_radius,
)


def test_as_operator_rejects_nonsquare_and_nonfinite():
    with pytest.raises(InvalidParameter):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(InvalidParameter):
        as_operator(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(InvalidParameter):
        as_operator(np.zeros((0, 0)))
    with pytest.raises(InvalidParameter):
        as_operator(np.zeros((2, 2, 2)))


def test_as_operator_upcasts():
    out = as_operator([[1, 0], [0, 2]])
    assert out.dtype == np.complex128


def test_operator_norm_and_spectral_radius_on_known_matrix():
    # companion-style matrix: eigenvalues 0,0 but norm 1
    t = np.array([[0, 1], [0, 0]], dtype=complex)
    assert operator_norm(t) == pytest.approx(1.0, abs=1e-14)
    assert spectral_radius(t) == pytest.approx(0.0, abs=1e-14)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_modulus_squares_to_ttstar(n, seed):
    s = snapshot(gen_random(n, seed))
    m, ma = s.modulus_power(1.0), s.modulus_adjoint_power(1.0)
    np.testing.assert_allclose(m @ m, s.gram, atol=1e-10)
    np.testing.assert_allclose(ma @ ma, s.cogram, atol=1e-10)


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_polar_decomposition_reconstructs(n, seed):
    t = gen_random(n, seed)
    s = snapshot(t, DEFAULT)
    u = s.polar_factor
    np.testing.assert_allclose(u @ (s.norm * s.modulus_power(1.0)), t, atol=1e-10 * s.norm)
    # u is a partial isometry: u*u is an orthogonal projection
    proj = adjoint(u) @ u
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    assert s.rank == n  # random matrices are almost surely invertible


def test_polar_of_zero_matrix():
    s = snapshot(np.zeros((3, 3)), DEFAULT)
    assert s.rank == 0
    np.testing.assert_array_equal(s.polar_factor, np.zeros((3, 3)))


def test_modulus_power_of_psd_matches_eigen_formula():
    # for PSD A, ||A||^s |A_hat|^s from the snapshot's SVD is A^s from its eigensystem
    a = gen_psd(4, 7)
    w, q = np.linalg.eigh(a)
    expected = (q * w**0.5) @ q.conj().T
    s = snapshot(a)
    np.testing.assert_allclose(s.norm**0.5 * s.modulus_power(0.5), expected, atol=1e-10)


def test_modulus_power_zero_exponent_convention():
    # 0^0 = 1, so s = 0 yields the identity even on the kernel; this is
    # the convention that makes T |T|^(s-1) exact at s = 1
    s = snapshot(np.diag([2.0, 0.0]).astype(complex))
    np.testing.assert_allclose(s.modulus_power(0.0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(s.norm**2 * s.modulus_power(2.0), np.diag([4.0, 0.0]), atol=1e-12)


def test_rank_and_projectors():
    s = snapshot(np.diag([3.0, 1e-14, 2.0]).astype(complex), DEFAULT)
    assert s.rank == 2
    pr = s.polar_factor @ adjoint(s.polar_factor)
    np.testing.assert_allclose(pr, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(s.kernel_projector, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("c", [10.0**e for e in (-150, -15, -8, 0, 8, 150)])
def test_rank_is_scale_invariant(c):
    # no absolute floor: a tiny identity still has full rank
    assert snapshot(c * np.eye(3)).rank == 3
    assert snapshot(c * np.diag([1.0, 1e-12, 0.5])).rank == 2
    assert snapshot(np.zeros((3, 3))).rank == 0


@pytest.mark.parametrize("c", [10.0**e for e in (-150, -10, 0, 10, 150)])
def test_power_ranks_judge_each_power_against_the_norm_power(c):
    # the 3x3 shift N has ranks 2, 1, 0, 0 for N, N^2, N^3, N^4 at any scale
    shift = c * np.diag([1.0, 1.0], 1).astype(complex)
    ranks = power_ranks(shift)
    assert [next(ranks) for _ in range(4)] == [2, 1, 0, 0]
    # a square-zero matrix: T^2 is roundoff in T's scale, so it has rank 0
    w = gen_unitary(4, 6)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, 2:] = [[1.0, 2.0], [0.5, -1.0]]
    ranks = power_ranks(c * (w @ block @ adjoint(w)))
    assert (next(ranks), next(ranks)) == (2, 0)


def test_matrix_power_agrees_with_repeated_multiplication():
    t = gen_random(3, 11)
    np.testing.assert_allclose(matrix_power(t, 3), t @ t @ t, atol=1e-12)
    np.testing.assert_allclose(matrix_power(t, 0), np.eye(3), atol=0)
    with pytest.raises(InvalidParameter):
        matrix_power(t, -1)


def test_unitary_norm_is_one():
    u = gen_unitary(5, 3)
    assert operator_norm(u) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(u) == pytest.approx(1.0, abs=1e-12)



def test_coordinate_powers_are_the_forms_of_the_powers_in_singular_coordinates():
    # Y_m = (C Sigma)^(m-1) C is V* T_hat^(m-1) W; the snapshot keeps each
    # one, and the orthonormal bases of an SVD have a roundoff-sized defect
    for t in (gen_random(5, 12), np.diag([1.0, 0.5, 0.0]).astype(complex)):
        s = snapshot(t, DEFAULT)
        v, w = s.right_singular_vectors, s.left_singular_vectors
        for m in range(1, 7):
            y = s.coordinate_power(m)
            np.testing.assert_allclose(y, adjoint(v) @ matrix_power(s.t_hat, m - 1) @ w, atol=1e-13)
            assert s.coordinate_power(m) is y
        assert s.coordinate_power(1) is s.coordinates
        assert 0.0 <= s.orthogonality_defect <= 1e-13

