import numpy as np
import pytest

import normaloid.fixtures as fixtures_mod
from normaloid.config import DEFAULT
from normaloid.errors import FixtureMismatch
from normaloid.fixtures import (
    Fixture,
    fixture_registry,
    get_fixture,
    load_fixtures,
    verify_fixture,
)


def test_registry_has_enough_fixtures():
    fixtures = fixture_registry()
    assert len(fixtures) >= 7
    names = [fx.name for fx in fixtures]
    assert len(names) == len(set(names))


def test_every_fixture_verifies():
    fixtures = load_fixtures(DEFAULT)
    assert all(isinstance(fx, Fixture) for fx in fixtures)


def test_known_matrices_exact():
    swap = get_fixture("normaloid_swap3").matrix
    np.testing.assert_array_equal(
        swap, np.array([[2, 0, 0], [0, 0, 2], [0, 1, 0]], dtype=complex)
    )
    shift = get_fixture("partial_isometry_shift").matrix
    np.testing.assert_array_equal(
        shift, np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    )
    np.testing.assert_array_equal(get_fixture("identity3").matrix, np.eye(3))


def test_expected_verdicts_structure():
    fx = get_fixture("normaloid_swap3")
    assert fx.expected["normaloid"] is True
    assert fx.expected["binormal"] is True
    assert fx.expected["normal"] is False
    assert fx.expected["paranormal"] is False
    ident = get_fixture("identity3")
    assert ident.expected["positive"] is True
    assert ident.expected["unitary"] is True


def test_counterexample_trio_expectations():
    half = get_fixture("normaloid_halfshift")
    assert half.expected["normaloid"] is True
    assert half.expected["quasinormal"] is False
    dbl = get_fixture("nilpotent_double")
    assert dbl.expected["binormal"] is True
    assert dbl.expected["normaloid"] is False
    shear = get_fixture("involution_shear")
    assert shear.expected["posinormal"] is True
    assert shear.expected["partial-isometry"] is False


def test_get_fixture_loads_only_the_named_file(monkeypatch):
    loaded = []
    load = fixtures_mod._load_matrix_resource
    monkeypatch.setattr(fixtures_mod, "_load_matrix_resource", lambda name: loaded.append(name) or load(name))
    assert get_fixture("involution_shear").name == "involution_shear"
    assert loaded == ["involution_shear"]


def test_get_fixture_unknown_name():
    with pytest.raises(KeyError):
        get_fixture("not-a-fixture")


def test_tampered_expectation_detected():
    fx = get_fixture("identity3")
    tampered = Fixture(
        name=fx.name,
        matrix=fx.matrix,
        expected={**fx.expected, "normal": False},
        provenance=fx.provenance,
    )
    with pytest.raises(FixtureMismatch):
        verify_fixture(tampered, DEFAULT)


def test_tampered_matrix_detected():
    fx = get_fixture("partial_isometry_shift")
    bad = fx.matrix.copy()
    bad[0, 0] = 0.9  # no longer norm-preserving on its cokernel
    tampered = Fixture(
        name=fx.name, matrix=bad, expected=fx.expected, provenance=fx.provenance
    )
    with pytest.raises(FixtureMismatch):
        verify_fixture(tampered, DEFAULT)


def test_provenance_strings_present():
    for fx in fixture_registry():
        assert fx.provenance and isinstance(fx.provenance, str)
