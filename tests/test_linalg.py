import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normaloid.config import DEFAULT
from normaloid.errors import InvalidParameter, NonHermitianInput
from normaloid.generators import gen_hermitian, gen_psd, gen_random, gen_unitary
from normaloid.linalg import (
    adjoint,
    as_operator,
    hermitian_eig,
    matrix_power,
    modulus,
    modulus_power,
    operator_norm,
    polar_decompose,
    power_ranks,
    rank,
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
    t = gen_random(n, seed)
    m = modulus(t)
    np.testing.assert_allclose(m @ m, adjoint(t) @ t, atol=1e-10 * operator_norm(t) ** 2)
    ma = modulus(adjoint(t))
    np.testing.assert_allclose(ma @ ma, t @ adjoint(t), atol=1e-10 * operator_norm(t) ** 2)


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_polar_decomposition_reconstructs(n, seed):
    t = gen_random(n, seed)
    pd = polar_decompose(t, DEFAULT)
    np.testing.assert_allclose(pd.u @ pd.p, t, atol=1e-10 * operator_norm(t))
    # u is a partial isometry: u*u is an orthogonal projection
    proj = adjoint(pd.u) @ pd.u
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    assert pd.rank == n  # random matrices are almost surely invertible


def test_polar_of_zero_matrix():
    pd = polar_decompose(np.zeros((3, 3)), DEFAULT)
    assert pd.rank == 0
    np.testing.assert_array_equal(pd.u, np.zeros((3, 3)))


def test_modulus_power_of_psd_matches_eigen_formula():
    # for PSD A, |A|^s from the snapshot's SVD is A^s from its eigensystem
    a = gen_psd(4, 7)
    w, q = np.linalg.eigh(a)
    expected = (q * w**0.5) @ q.conj().T
    np.testing.assert_allclose(modulus_power(a, 0.5), expected, atol=1e-10)


def test_modulus_power_zero_exponent_convention():
    # 0^0 = 1, so s = 0 yields the identity even on the kernel; this is
    # the convention that makes T |T|^(s-1) exact at s = 1
    t = np.diag([2.0, 0.0]).astype(complex)
    out = modulus_power(t, 0.0)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(modulus_power(t, 2.0), np.diag([4.0, 0.0]), atol=1e-12)


def test_hermitian_eig_rejects_far_from_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex), DEFAULT)


def test_rank_and_projectors():
    t = np.diag([3.0, 1e-14, 2.0]).astype(complex)
    assert rank(t, DEFAULT) == 2
    s = snapshot(t, DEFAULT)
    pr = s.polar_factor @ adjoint(s.polar_factor)
    np.testing.assert_allclose(pr, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(s.kernel_projector, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("c", [10.0**e for e in (-150, -15, -8, 0, 8, 150)])
def test_rank_is_scale_invariant(c):
    # no absolute floor: a tiny identity still has full rank
    assert rank(c * np.eye(3)) == 3
    assert rank(c * np.diag([1.0, 1e-12, 0.5])) == 2
    assert rank(np.zeros((3, 3))) == 0


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


def test_hermitian_generator_feeds_hermitian_eig():
    h = gen_hermitian(4, 9)
    eig = hermitian_eig(h, DEFAULT)
    recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10 * max(operator_norm(h), 1.0))
