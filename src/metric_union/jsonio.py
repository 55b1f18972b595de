"""Canonical JSON serialization and schema parsing for the CLI.

Emission is byte-deterministic: object keys are sorted, separators are
fixed, and every float is rendered with 17 significant digits (enough to
round-trip IEEE doubles exactly).  Parsing accepts integers wherever
decimals are expected and converts shape or type problems into
``InputError`` so the CLI can map them to a stable exit code.  Matrices
and index lists take the library's one conversion and one index check.
"""

import json
import math

import numpy as np

from .errors import InputError
from .glue import GlueInstance, glue_instance
from .metric import (FiniteMetricSpace, PointCloud, UnionPartition,
                     _index_list, _integral, _real_array,
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


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


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
