import gc
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normaloid.classes import classify
from normaloid.errors import MatrixFormatError
from normaloid.fixtures import fixture_registry
from normaloid.generators import gen_nilpotent, gen_random
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


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "data": [[1',  # not JSON
        '{"n": 2, "data": [[1, 0], [0, 0], [0, 0]]}',  # not n*n entries
        '{"n": 1, "data": [[true, 0]]}',  # bool is not a number here
        None,  # a valid file
    ],
    ids=["bad-json", "non-square", "bool-entry", "valid"],
)
def test_load_leaves_the_garbage_collector_as_it_found_it(tmp_path, enabled, text):
    path = tmp_path / "m.json"
    if text is None:
        save_matrix(path, gen_random(3, 1))
    else:
        path.write_text(text)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if text is None:
            load_matrix(path)
        else:
            with pytest.raises(MatrixFormatError):
                load_matrix(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("n", [64, 256])
def test_load_starts_no_garbage_collection(tmp_path, n):
    # json.load builds n*n acyclic [re, im] lists, which reference counting
    # frees; with the collector enabled around it, the load starts no
    # collection of them
    path = tmp_path / "m.json"
    m = gen_random(n, 5)
    save_matrix(path, m)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        loaded = load_matrix(path)
    finally:
        gc.callbacks.remove(count)
    assert starts == [] and gc.isenabled()
    assert loaded.tobytes() == m.tobytes()


@given(st.integers(1, 4), st.data())
def test_load_reads_indent_2_files_bit_for_bit(n, data):
    # every file written before outputs became compact JSON is json.dumps
    # at an indent of 2, each [re, im] pair spread over four lines
    flat = data.draw(st.lists(entries, min_size=2 * n * n, max_size=2 * n * n))
    m = np.array(flat, dtype=np.float64).view(np.complex128).reshape(n, n)
    text = json.dumps(matrix_to_obj(m), indent=2) + "\n"
    assert "\n      " in text
    assert load_matrix(io.StringIO(text)).tobytes() == m.tobytes()


@pytest.mark.parametrize(
    "t",
    [pytest.param(fx.matrix, id=fx.name) for fx in fixture_registry()]
    # non-members whose refuted rows share witness vectors
    + [pytest.param(gen_random(16, 7), id="random16"),
       pytest.param(gen_nilpotent(16, 8), id="nilpotent16")],
)
def test_dumps_json_equals_json_indent_2_on_classify_reports(t):
    # compact JSON that, indented at 2, is the text classify wrote before
    # its outputs became compact: only whitespace differs
    report = classify(t).to_json_dict()
    text = dumps_json(report)
    assert text == json.dumps(report, separators=(",", ":"))
    assert json.dumps(json.loads(text), indent=2) == json.dumps(report, indent=2)
    if t.shape[0] == 16:
        # verdicts share witness vectors: their indices repeat, the vectors
        # in the report's table do not
        indices = [v["witness"]["vector_index"] for v in report["verdicts"]
                   if v["witness"] and "vector_index" in v["witness"]]
        assert len(set(indices)) < len(indices)
        table = [json.dumps(v) for v in report["witnesses"]]
        assert len(set(table)) == len(table)
