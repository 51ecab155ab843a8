import numpy as np
import pytest

from normaloid.classes import (
    is_binormal,
    is_normal,
    is_normaloid,
    is_partial_isometry,
    is_posinormal,
    is_positive,
    is_quasinormal,
    is_self_adjoint,
    is_unitary,
)
from normaloid.errors import ConvergenceFailure, InvalidParameter
from normaloid.generators import (
    GENERATOR_CLASSES,
    NORMAL_RADIAL,
    RNG_NAME,
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
    gen_scalar_power_root,
    gen_unitary,
    generate,
)
from normaloid.linalg import matrix_power, operator_norm, spectral_radius

SEEDS = range(25)


def test_rng_name_is_stable_contract():
    assert RNG_NAME == "numpy-PCG64"


def test_determinism_same_seed_same_matrix():
    for g in (gen_random, gen_hermitian, gen_unitary, gen_normal, gen_psd,
              gen_binormal, gen_normaloid, gen_posinormal, gen_nilpotent):
        a = g(4, 7)
        b = g(4, 7)
        np.testing.assert_array_equal(a, b)
        c = g(4, 8)
        assert not np.array_equal(a, c), g.__name__


def test_seed_sequence_accepted():
    ss = np.random.SeedSequence(entropy=(1, 2, 3))
    a = gen_random(3, ss)
    b = gen_random(3, np.random.SeedSequence(entropy=(1, 2, 3)))
    np.testing.assert_array_equal(a, b)


def test_gen_random_moments():
    # entries are standard complex normal: mean ~ 0, E|z|^2 ~ 1
    samples = np.stack([gen_random(6, s) for s in range(200)])
    assert abs(samples.mean()) < 0.02
    assert abs((np.abs(samples) ** 2).mean() - 1.0) < 0.05


def test_hermitian_and_psd():
    for s in SEEDS:
        assert is_self_adjoint(gen_hermitian(3, s)).member
        assert is_positive(gen_psd(3, s)).member


def test_unitary_and_normal():
    for s in SEEDS:
        assert is_unitary(gen_unitary(3, s)).member
        t = gen_normal(3, s)
        assert is_normal(t).member
        # eigenvalue moduli stay inside the radial band
        w = np.abs(np.linalg.eigvals(t))
        lo, hi = NORMAL_RADIAL
        assert np.all(w >= lo - 1e-9) and np.all(w <= hi + 1e-9)


def test_partial_isometries_and_rank():
    for s in SEEDS:
        v = gen_partial_isometry(4, 2, s)
        assert is_partial_isometry(v).member
        assert np.linalg.matrix_rank(v) == 2
        q = gen_quasinormal_partial_isometry(4, 2, s)
        assert is_partial_isometry(q).member
        assert is_quasinormal(q).member


def test_binormal_properties():
    for s in SEEDS:
        t = gen_binormal(4, s)
        assert is_binormal(t).member
    inv = gen_binormal(4, 0, min_sv=0.5)
    assert np.linalg.matrix_rank(inv) == 4


def test_normaloid_generator_nonnormal_members():
    nonnormal = 0
    for s in SEEDS:
        t = gen_normaloid(3, s)
        assert is_normaloid(t).member
        if not is_normal(t).member:
            nonnormal += 1
    assert nonnormal > len(SEEDS) // 2


def test_posinormal_generator():
    for s in SEEDS:
        assert is_posinormal(gen_posinormal(3, s)).member


def test_posinormal_generator_reports_svd_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("svd forced to fail")

    monkeypatch.setattr(np.linalg, "svd", broken)
    with pytest.raises(ConvergenceFailure):
        gen_posinormal(3, 0)


def test_nilpotent_generator():
    for s in SEEDS:
        t = gen_nilpotent(3, s)
        # defective eigenvalues carry O(eps^(1/n)) numerical error, so the
        # exact nilpotency T^n = 0 is the sharp assertion here
        assert operator_norm(matrix_power(t, 3)) < 1e-12
        assert spectral_radius(t) < 1e-3


def test_scalar_power_root_normal_branch():
    for s in range(10):
        t = gen_scalar_power_root(3, 3, s, normal=True)
        cube = matrix_power(t, 3)
        lam = np.trace(cube) / 3
        assert operator_norm(cube - lam * np.eye(3)) < 1e-10
        assert is_normal(t).member
        assert is_normaloid(t).member


def test_scalar_power_root_similarity_branch():
    for s in range(10):
        t = gen_scalar_power_root(3, 2, s, normal=False, cond=3.0)
        sq = matrix_power(t, 2)
        lam = np.trace(sq) / 3
        assert operator_norm(sq - lam * np.eye(3)) < 1e-8 * max(operator_norm(sq), 1.0)
        assert not is_normal(t).member


def test_generate_dispatcher_and_spec_validation():
    assert "binormal" in GENERATOR_CLASSES
    t = generate("normal", 3, 5)
    assert is_normal(t).member
    v = generate("partial-isometry", 4, 5, rank=3)
    assert np.linalg.matrix_rank(v) == 3
    with pytest.raises(InvalidParameter):
        generate("martian", 3, 0)
    with pytest.raises(InvalidParameter):
        generate("normal", 0, 0)
    with pytest.raises(InvalidParameter):
        generate("partial-isometry", 3, 0, rank=9)


def test_generator_dimension_validation():
    with pytest.raises(InvalidParameter):
        gen_random(0, 1)
    with pytest.raises(InvalidParameter):
        gen_partial_isometry(3, -1, 1)
    # rank 0 is legitimate: the zero matrix is a partial isometry
    np.testing.assert_array_equal(gen_partial_isometry(3, 0, 1), np.zeros((3, 3)))
