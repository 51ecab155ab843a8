import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normaloid.classes import classify
from normaloid.errors import MatrixFormatError
from normaloid.fixtures import fixture_registry
from normaloid.matrixio import (
    dumps_json,
    dumps_matrix,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    vector_from_pairs,
    vector_to_pairs,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# signed zeros, subnormals and integers that a float holds exactly
entries = st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(-(2**53), 2**53).map(float),
)


@given(st.integers(1, 5), st.data())
def test_roundtrip_preserves_entries(n, data):
    flat = data.draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
    m = np.empty((n, n), dtype=np.complex128)
    m.real = np.reshape(flat[: n * n], (n, n))
    m.imag = np.reshape(flat[n * n :], (n, n))
    out = matrix_from_obj(matrix_to_obj(m))
    assert out.dtype == np.complex128
    # bitwise: assert_array_equal would take -0.0 for 0.0
    assert out.tobytes() == m.tobytes()


@given(st.lists(st.tuples(st.integers(-(2**80), 2**80), entries), min_size=4, max_size=4))
def test_integer_entries_load_as_their_float(pairs):
    out = matrix_from_obj({"n": 2, "data": [list(p) for p in pairs]})
    ref = np.array([complex(float(re), im) for re, im in pairs]).reshape(2, 2)
    assert out.tobytes() == ref.tobytes()


def test_integer_entry_beyond_float_range_rejected():
    with pytest.raises(MatrixFormatError, match="entry 1 does not fit a float"):
        matrix_from_obj({"n": 2, "data": [[0, 0], [0, 10**400], [0, 0], [0, 0]]})


def test_file_roundtrip(tmp_path):
    m = np.array([[1 + 2j, 0], [-3.5j, 4]])
    path = tmp_path / "m.json"
    save_matrix(path, m)
    np.testing.assert_array_equal(load_matrix(path), m)
    # files end with a newline and use LF
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_dumps_is_parseable_json():
    obj = json.loads(dumps_matrix(np.eye(2)))
    assert obj["n"] == 2
    assert len(obj["data"]) == 4


def test_vector_pairs_roundtrip():
    v = np.array([1j, 2.0, -0.5 + 0.25j])
    np.testing.assert_array_equal(vector_from_pairs(vector_to_pairs(v)), v)


@pytest.mark.parametrize(
    "pairs",
    [
        [[1.0, 0.0], [True, 0]],  # bool is not a number here
        [[1.0, 0.0], ["x", 0]],  # non-numeric
        [[1.0, 0.0], [float("inf"), 0]],  # non-finite
    ],
)
def test_malformed_vector_rejected(pairs):
    with pytest.raises(MatrixFormatError, match="vector entry 1 "):
        vector_from_pairs(pairs)


@pytest.mark.parametrize(
    "obj",
    [
        {"data": [[1, 0]]},  # missing n
        {"n": 2, "data": [[1, 0]] * 3},  # wrong count
        {"n": 0, "data": []},  # empty matrix
        {"n": 1, "data": [[1]]},  # pair too short
        {"n": 1, "data": [[1, 0, 0]]},  # pair too long
        {"n": 1, "data": [["1", 0]]},  # non-numeric
        {"n": 1, "data": [[True, 0]]},  # bool is not a number here
        {"n": 1, "data": [[float("nan"), 0]]},  # non-finite
        {"n": 1.5, "data": [[1, 0]]},  # fractional dimension
    ],
)
def test_malformed_objects_rejected(obj):
    with pytest.raises(MatrixFormatError):
        matrix_from_obj(obj)


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "absent.json")


def test_load_truncated_file_raises(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 2, "data": [[1')
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def _json_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**40), 10**40),
        st.floats(width=64),
        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, float("nan"),
                         float("inf"), float("-inf")]),
        st.text(),
    )
    pair = st.lists(st.floats(width=64), min_size=2, max_size=2)
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=5), inner, max_size=4),
            st.lists(pair, max_size=4),
            # pair lists mixed with items that are not float pairs
            st.lists(st.one_of(pair, inner), min_size=1, max_size=4),
        ),
        max_leaves=20,
    )


@given(_json_values())
def test_dumps_json_equals_json_indent_2(obj):
    assert dumps_json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("fx", fixture_registry(), ids=lambda fx: fx.name)
def test_dumps_json_equals_json_indent_2_on_classify_reports(fx):
    report = classify(fx.matrix).to_json_dict()
    assert dumps_json(report) == json.dumps(report, indent=2)
