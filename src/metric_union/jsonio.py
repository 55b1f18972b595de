"""Canonical JSON serialization and schema parsing for the CLI.

Emission is byte-deterministic: object keys are sorted, separators are
fixed, and every float is rendered with 17 significant digits (enough to
round-trip IEEE doubles exactly).  Parsing accepts integers wherever
decimals are expected and converts shape or type problems into
``InputError`` so the CLI can map them to a stable exit code.  Matrices
and index lists take the library's one conversion and one index check;
``load_json`` reads each matrix row by row into a float64 array.
"""

import json
import math
from json.decoder import WHITESPACE

import numpy as np

from .errors import InputError
from .glue import GlueInstance, glue_instance
from .metric import (_REAL_TYPES, FiniteMetricSpace, PointCloud,
                     UnionPartition, _index_list, _integral, _real_array,
                     build_partition, validate_metric)

__all__ = ["canonical_dumps", "to_jsonable", "load_json", "parse_space",
           "parse_partition", "parse_cloud", "parse_glue"]


def to_jsonable(value):
    """Recursively convert numpy scalars/arrays into plain Python."""
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if value is None or isinstance(value, str):
        return value
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def _emit(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"non-finite number in output: {value!r}")
        out.append(format(value, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize value of type {type(value).__name__}")


def canonical_dumps(value) -> str:
    """Deterministic JSON text for a jsonable structure."""
    out = []
    _emit(to_jsonable(value), out)
    out.append("\n")
    return "".join(out)


_SCAN = json.JSONDecoder().scan_once   # the stdlib's C scanner
_MATRIX_KEYS = frozenset(("dist", "points"))


class _Unwalked(Exception):
    """Text the walker leaves to ``json.loads``: malformed, or not JSON."""


def _skip(s, i):
    return WHITESPACE.match(s, i).end()


def _scan(s, i):
    try:
        return _SCAN(s, i)
    except (StopIteration, ValueError):   # also JSONDecodeError
        raise _Unwalked from None


def _value(s, i, matrix=False):
    """(value, end) of the JSON value at s[i].  Objects are walked, a
    ``matrix`` value that is an array of arrays goes to ``_matrix``, and
    every other value to the C scanner whole."""
    c = s[i:i + 1]
    if c == "{":
        return _object(s, _skip(s, i + 1))
    if matrix and c == "[":
        row = _skip(s, i + 1)
        if s[row:row + 1] == "[":
            # json.load's lists when a row is refused, for _real_array to
            # refuse in its own words
            return _matrix(s, row) or _scan(s, i)
    return _scan(s, i)


def _object(s, i):
    obj = {}
    if s[i:i + 1] == "}":
        return obj, i + 1
    while True:
        if s[i:i + 1] != '"':
            raise _Unwalked
        key, i = _scan(s, i)
        i = _skip(s, i)
        if s[i:i + 1] != ":":
            raise _Unwalked
        obj[key], i = _value(s, _skip(s, i + 1), key in _MATRIX_KEYS)
        i = _skip(s, i)
        c = s[i:i + 1]
        if c == "}":
            return obj, i + 1
        if c != ",":
            raise _Unwalked
        i = _skip(s, i + 1)


def _matrix(s, i):
    """(float64 array, end) of the array of arrays whose first row starts
    at s[i], filled one row at a time into a buffer grown by doubling, or
    None when some entry is not a row that ``_real_array`` takes: entry
    types within ``_REAL_TYPES``, the first row's length, no
    ``OverflowError``."""
    buf, n = None, 0
    while True:
        if s[i:i + 1] != "[":
            return None
        row, i = _scan(s, i)
        if not set(map(type, row)) <= _REAL_TYPES:
            return None
        if buf is None:
            buf = np.empty((max(len(row), 1), len(row)))
        elif len(row) != buf.shape[1]:
            return None
        elif n == buf.shape[0]:
            buf.resize((2 * n, buf.shape[1]), refcheck=False)
        try:
            buf[n] = row
        except OverflowError:   # an integer beyond float range
            return None
        n += 1
        i = _skip(s, i)
        c = s[i:i + 1]
        if c == "]":
            buf.resize((n, buf.shape[1]), refcheck=False)
            return buf, i + 1
        if c != ",":
            raise _Unwalked
        i = _skip(s, i + 1)


def load_json(path):
    """The JSON document at ``path``, with each array of arrays under a
    ``dist`` or ``points`` key as a float64 array.

    The walker takes the objects itself and hands every other value
    (scalars, strings, arrays whole, and matrix rows) to the stdlib's C
    scanner, so values are what ``json.load`` gives; a matrix nested
    inside an array stays a list.  A matrix is filled one row at a time,
    so the peak is about the text plus one float64 matrix, not n^2 Python
    floats.  A matrix with a row that ``_real_array`` would refuse comes
    back as ``json.load``'s lists, for it to refuse in the same words.
    Text the walker does not take is parsed by ``json.loads``, which
    gives its value or its error.  InputError for an unreadable file,
    bytes that are not UTF-8, malformed JSON, an integer longer than
    int's digit limit and nesting deeper than the parser's recursion
    limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        value, end = _value(text, _skip(text, 0))
        if _skip(text, end) == len(text):
            return value
    except (_Unwalked, RecursionError):
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:   # an integer past int's digit limit
        raise InputError(f"{path} holds a number JSON parsing cannot "
                         f"convert: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests deeper than the JSON parser's "
                         f"recursion limit") from None


def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputError(f"{where} is missing field {key!r}")
    return obj[key]


def parse_space(obj) -> FiniteMetricSpace:
    """{"labels": [...]?, "dist": [[...]]} -> validated space."""
    dist = _real_array(_require(obj, "dist", "space"), 2, "space.dist")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dist.shape[0]:
            raise InputError("space.labels must list one label per point")
    return validate_metric(dist, labels=labels)


def parse_partition(obj, X: FiniteMetricSpace) -> UnionPartition:
    """{"a": [...], "b": [...]} -> validated partition of ``X``; each
    side takes the library's one index check, named by its JSON path."""
    return build_partition(X, *(
        _index_list(_require(obj, s, "partition"), X.n, f"partition.{s}")
        for s in "ab"))


def parse_cloud(obj, where="points") -> PointCloud:
    """{"dim": k, "points": [[...]]} -> point cloud."""
    pts = _real_array(_require(obj, "points", where), 2,
                      f"{where}.points")
    dim = obj.get("dim")
    if dim is not None and _integral(dim, f"{where}.dim") != pts.shape[1]:
        raise InputError(
            f"{where}.dim = {dim} but points have {pts.shape[1]} columns")
    return PointCloud(pts)


def parse_glue(obj) -> GlueInstance:
    """{"u_points", "v_points", "a_idx", "b_idx", "pairing"} -> instance;
    ``glue_instance`` checks the index lists, named by their fields."""
    u = parse_cloud(_require(obj, "u_points", "glue input"), "u_points")
    v = parse_cloud(_require(obj, "v_points", "glue input"), "v_points")
    return glue_instance(u, v, *(_require(obj, k, "glue input")
                                 for k in ("a_idx", "b_idx", "pairing")))
