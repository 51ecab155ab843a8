"""Bundled counterexample and anchor matrices with recorded verdicts.

Each fixture ships as a matrix JSON file plus the set of classes the
matrix belongs to.  Its expected verdict map covers the whole catalog,
classes.CLASS_IDS: True for the classes in that set, False for the rest.
For parametrized classes (p-hyponormal, k-paranormal,
absolute-k/(p,r)-paranormal) the expectation applies to every parameter
choice classify tests, which is well defined for these matrices: in finite
dimension the whole absolute-paranormal family collapses to normality, and
the recorded k-paranormal answers were computed per fixture.

load_fixtures() re-derives every verdict with classify and raises
FixtureMismatch on the first disagreement, so a drifting predicate cannot
silently invalidate the corpus.  get_fixture(name) loads the named
fixture's file only.
"""
from __future__ import annotations

import dataclasses
import json
from importlib import resources

import numpy as np

from .classes import CLASS_IDS, classify
from .config import DEFAULT, ToleranceConfig
from .errors import FixtureMismatch
from .matrixio import matrix_from_obj


@dataclasses.dataclass(frozen=True)
class Fixture:
    name: str
    matrix: np.ndarray
    expected: dict
    provenance: str


# (name, the classes its matrix belongs to, provenance)
_REGISTRY = (
    (
        "normaloid_swap3",
        {"normaloid", "binormal", "posinormal"},
        "weighted two-cycle glued to a norm-attaining fixed direction: "
        "norm and spectral radius both equal 2, moduli commute, polar factor "
        "is a self-adjoint symmetry, yet the matrix is far from normal",
    ),
    (
        "partial_isometry_shift",
        {"partial-isometry", "normaloid", "binormal"},
        "rank-2 partial isometry fixing one direction and shifting another; "
        "every power has unit norm so it is normaloid, but it does not "
        "commute with its modulus",
    ),
    (
        "swap_symmetry",
        set(CLASS_IDS) - {"positive", "orthogonal-projection"},
        "self-adjoint unitary symmetry exchanging two coordinates (the polar "
        "factor of the weighted two-cycle fixture)",
    ),
    (
        "nilpotent_jordan2",
        {"partial-isometry", "binormal"},
        "2x2 nilpotent Jordan block: norm 1 with empty nonzero spectrum, the "
        "extreme failure of the norm-radius equality; also a partial isometry",
    ),
    (
        "normaloid_halfshift",
        {"normaloid", "binormal"},
        "normaloid whose square is an orthogonal projection while the matrix "
        "itself is not a partial isometry (modulus squared has eigenvalue 1/4)",
    ),
    (
        "nilpotent_double",
        {"binormal"},
        "scaled 2x2 nilpotent: binormal with square zero (a partial isometry) "
        "while the matrix itself is not a partial isometry",
    ),
    (
        "involution_shear",
        {"posinormal", "binormal"},
        "invertible shear squaring to the identity: posinormal (invertible) "
        "with a partial-isometry square, but not normaloid and not a "
        "partial isometry itself",
    ),
    (
        "identity3",
        set(CLASS_IDS),
        "3x3 identity: member of every class in the hierarchy",
    ),
)


def _load_matrix_resource(name: str) -> np.ndarray:
    ref = resources.files("normaloid").joinpath("fixtures", f"{name}.json")
    with ref.open("r", encoding="utf-8") as fp:
        return matrix_from_obj(json.load(fp))


def _fixture(name: str, members, provenance: str) -> Fixture:
    return Fixture(
        name=name,
        matrix=_load_matrix_resource(name),
        expected={class_id: class_id in members for class_id in CLASS_IDS},
        provenance=provenance,
    )


def fixture_registry() -> tuple:
    """All bundled fixtures (matrices loaded, verdicts not yet verified)."""
    return tuple(_fixture(*entry) for entry in _REGISTRY)


def verify_fixture(fixture: Fixture, cfg: ToleranceConfig = DEFAULT) -> None:
    """Re-derive the fixture's verdicts; raise FixtureMismatch on drift."""
    report = classify(fixture.matrix, cfg=cfg)
    seen = set()
    for verdict in report.verdicts:
        expected = fixture.expected.get(verdict.class_id)
        if expected is None:
            continue
        seen.add(verdict.class_id)
        if verdict.member != expected:
            raise FixtureMismatch(
                f"fixture {fixture.name!r}: class {verdict.class_id!r} "
                f"(parameters {verdict.parameters!r}) classified "
                f"{verdict.member}, registry records {expected}"
            )
    missing = set(fixture.expected) - seen
    if missing:
        raise FixtureMismatch(
            f"fixture {fixture.name!r}: no verdicts produced for {sorted(missing)}"
        )


def load_fixtures(cfg: ToleranceConfig = DEFAULT) -> tuple:
    """Load and verify the whole corpus."""
    fixtures = fixture_registry()
    for fixture in fixtures:
        verify_fixture(fixture, cfg)
    return fixtures


def get_fixture(name: str) -> Fixture:
    """The named fixture, loading its matrix file only."""
    for entry in _REGISTRY:
        if entry[0] == name:
            return _fixture(*entry)
    raise KeyError(f"unknown fixture {name!r}")
