"""Matrix exchange format.

A square complex matrix is stored as ``{"n": int, "data": [[re, im], ...]}``
with exactly n*n entries in row-major order.  Floats are written with
Python's shortest round-trip repr, so files are information-complete for
float64 and byte-stable for identical inputs.  Files are UTF-8 with LF
line endings.
"""
from __future__ import annotations

import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import IO, Union

import numpy as np

from .errors import MatrixFormatError

_NUMBER_TYPES = {int, float}


def matrix_to_obj(m: np.ndarray) -> dict:
    """Serialize a square complex matrix to the exchange dict."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixFormatError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise MatrixFormatError("matrix entries must be finite")
    return {"n": a.shape[0], "data": vector_to_pairs(a)}


def matrix_from_obj(obj) -> np.ndarray:
    """Parse the exchange dict back into a complex128 array."""
    if not isinstance(obj, dict):
        raise MatrixFormatError(f"expected a JSON object, got {type(obj).__name__}")
    if "n" not in obj or "data" not in obj:
        raise MatrixFormatError('matrix object must have keys "n" and "data"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MatrixFormatError(f'"n" must be a positive integer, got {n!r}')
    data = obj["data"]
    if not isinstance(data, list) or len(data) != n * n:
        raise MatrixFormatError(f'"data" must list n*n = {n * n} entries')
    return _complex_from_pairs(data, "entry").reshape(n, n)


def _complex_from_pairs(pairs: list, label: str) -> np.ndarray:
    """complex128 vector of a list of [re, im] pairs of finite JSON numbers.

    ``bool`` is an ``int`` subclass but not a number here, so entries must
    be exactly ``int`` or ``float``.  Errors name the first bad entry as
    ``f"{label} {index}"``.
    """
    shaped = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    flat = list(chain.from_iterable(pairs)) if shaped else []
    if not shaped or not set(map(type, flat)) <= _NUMBER_TYPES:
        for i, pair in enumerate(pairs):
            if type(pair) is not list or len(pair) != 2 or not set(map(type, pair)) <= _NUMBER_TYPES:
                raise MatrixFormatError(f"{label} {i} is not a [re, im] pair: {pair!r}")
    try:
        a = np.array(flat, dtype=np.float64)
    except OverflowError:
        # an int literal beyond the float range
        for j, v in enumerate(flat):
            try:
                float(v)
            except OverflowError:
                raise MatrixFormatError(
                    f"{label} {j // 2} does not fit a float: {pairs[j // 2]!r}"
                ) from None
        raise
    if not np.isfinite(a).all():
        i = int(np.argmin(np.isfinite(a).reshape(-1, 2).all(axis=1)))
        raise MatrixFormatError(f"{label} {i} is not finite: {pairs[i]!r}")
    # a view, not re + 1j * im, so a -0.0 imaginary part keeps its sign
    return a.view(np.complex128)


def vector_to_pairs(x: np.ndarray) -> list:
    """Serialize a complex vector as a list of [re, im] pairs."""
    v = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1)
    return v.view(np.float64).reshape(-1, 2).tolist()


def vector_from_pairs(pairs) -> np.ndarray:
    if not isinstance(pairs, list) or not pairs:
        raise MatrixFormatError("vector must be a nonempty list of [re, im] pairs")
    return _complex_from_pairs(pairs, "vector entry")


def dumps_json(obj) -> str:
    """The text ``json.dumps`` writes for ``obj`` at an indent of 2.

    json's C encoder runs only without an indent, so an indented dump
    formats every float through a chain of generators.  This walks dicts
    and lists as json does (same separators, same spelling of non-finite
    floats) and formats each list of [re, im] float pairs in one pass.
    Object keys must be strings (json would coerce numbers, bool and None;
    no output of this package has such keys); others raise TypeError.

    The walk is a local function, so a tracer that wraps each module-level
    function (perfbench's does) records one span per dump, not one per value.
    """

    def encode(o, nl: str) -> str:
        # nl is a newline followed by the indent of the line that holds o
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            if o != o:
                return "NaN"
            if o == math.inf:
                return "Infinity"
            if o == -math.inf:
                return "-Infinity"
            return float.__repr__(o)
        inner = nl + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            text = _pairs_str(o, inner)
            if text is None:
                text = ("," + inner).join([encode(v, inner) for v in o])
            return "[" + inner + text + nl + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [encode_basestring_ascii(k) + ": " + encode(v, inner) for k, v in o.items()]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return encode(obj, "\n")


def _pairs_str(o, inner: str):
    """The items of a list of [re, im] finite float pairs, else None."""
    if set(map(type, o)) != {list} or set(map(len, o)) != {2}:
        return None
    flat = tuple(chain.from_iterable(o))
    if set(map(type, flat)) != {float}:
        return None
    deeper = inner + "  "
    pair = "[" + deeper + "%r," + deeper + "%r" + inner + "]"
    text = ("," + inner).join([pair] * len(o)) % flat
    # a finite float's repr has no letter n; "inf" and "nan" do, and json
    # spells them Infinity and NaN
    return None if "n" in text else text


def dumps_matrix(m: np.ndarray) -> str:
    return dumps_json(matrix_to_obj(m)) + "\n"


def save_matrix(dest: Union[str, os.PathLike, IO[str]], m: np.ndarray) -> None:
    text = dumps_matrix(m)
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    else:
        dest.write(text)


def load_matrix(src: Union[str, os.PathLike, IO[str]]) -> np.ndarray:
    """Load a matrix file; any malformation raises MatrixFormatError."""
    try:
        if isinstance(src, (str, os.PathLike)):
            with open(src, "r", encoding="utf-8") as fp:
                obj = json.load(fp)
        else:
            obj = json.load(src)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read matrix file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"matrix file is not UTF-8: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond int's digit limit
        raise MatrixFormatError(f"matrix file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MatrixFormatError("matrix file nests too deeply to parse") from exc
    return matrix_from_obj(obj)
