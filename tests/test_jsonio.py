"""Canonical JSON emission and input-schema parsing."""

import json

import numpy as np
import pytest

from metric_union import (InputError, canonical_dumps, load_json,
                          parse_cloud, parse_glue, parse_partition,
                          parse_space, to_jsonable)


def test_canonical_dumps_sorts_keys_and_roundtrips():
    a = canonical_dumps({"b": 1, "a": [1.5, True, None, "x"]})
    b = canonical_dumps({"a": [1.5, True, None, "x"], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.5, True, None, "x"], "b": 1}


def test_canonical_dumps_float_precision():
    vals = [0.1, 1 / 3, 1e-308, 1.7976931348623157e308, -0.0, 2.0 ** 53 + 1]
    text = canonical_dumps(vals)
    assert json.loads(text) == vals   # 17 digits round-trip doubles exactly


def test_canonical_dumps_numpy_types():
    text = canonical_dumps({
        "arr": np.arange(3, dtype=np.int32),
        "f": np.float64(0.25),
        "flag": np.bool_(True),
        "mat": np.eye(2),
    })
    obj = json.loads(text)
    assert obj == {"arr": [0, 1, 2], "f": 0.25, "flag": True,
                   "mat": [[1.0, 0.0], [0.0, 1.0]]}
    assert obj["flag"] is True     # bools stay bools, not 0/1


def test_canonical_dumps_rejects_nonfinite_and_unknown():
    with pytest.raises(InputError):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(InputError):
        canonical_dumps({"x": float("inf")})
    with pytest.raises(InputError):
        canonical_dumps({"x": object()})


def test_to_jsonable_scalars():
    out = to_jsonable({"i": np.int64(3), "f": np.float32(0.5),
                       "t": (1, 2), "n": None})
    assert out == {"i": 3, "f": 0.5, "t": [1, 2], "n": None}
    assert isinstance(out["i"], int) and isinstance(out["f"], float)


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_json(bad)
    good = tmp_path / "good.json"
    good.write_text('{"x": 1}')
    assert load_json(good) == {"x": 1}


def test_parse_space_good_and_bad():
    X = parse_space({"dist": [[0, 1], [1, 0]], "labels": ["p", "q"]})
    assert X.n == 2 and X.labels == ("p", "q")
    with pytest.raises(InputError):
        parse_space({"labels": ["p"]})                    # missing dist
    with pytest.raises(InputError):
        parse_space({"dist": [[0, 1], [1, 0]], "labels": ["p"]})
    with pytest.raises(InputError):
        parse_space({"dist": [[0, "x"], ["x", 0]]})       # non-numeric
    with pytest.raises(InputError):
        parse_space({"dist": [0, 1]})                     # not a matrix
    with pytest.raises(InputError):
        parse_space([1, 2])                               # not an object


def test_parse_rejects_booleans_in_matrices():
    with pytest.raises(InputError, match="numeric matrix"):
        parse_space({"dist": [[False, True], [True, False]]})
    with pytest.raises(InputError, match="numeric matrix"):
        parse_space({"dist": [[0, 1.0], [True, 0]]})
    with pytest.raises(InputError, match="numeric matrix"):
        parse_cloud({"points": [[0.0, 1.0], [1.0, True]]})
    assert parse_cloud({"points": [[0, 1.5], [1, 0]]}).m == 2


def test_parse_partition():
    X = parse_space({"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    P = parse_partition({"a": [0, 1], "b": [1, 2]}, X)
    np.testing.assert_array_equal(P.idx_a, [0, 1])
    with pytest.raises(InputError):
        parse_partition({"a": [0, 1]}, X)                 # missing side
    with pytest.raises(InputError):
        parse_partition({"a": [0, "x"], "b": [1, 2]}, X)


def test_parse_cloud():
    C = parse_cloud({"dim": 2, "points": [[0, 0], [1, 1]]})
    assert C.m == 2 and C.dim == 2
    assert parse_cloud({"points": [[0.5]]}).dim == 1      # dim optional
    with pytest.raises(InputError):
        parse_cloud({"dim": 3, "points": [[0, 0]]})       # dim mismatch
    with pytest.raises(InputError):
        parse_cloud({"dim": 2})                           # missing points
    with pytest.raises(InputError):
        parse_cloud({"points": [0, 1]})                   # 1-d


def test_parse_glue():
    obj = {
        "u_points": {"points": [[0.0], [1.0], [2.0]]},
        "v_points": {"points": [[0.0], [2.0], [1.0]]},
        "a_idx": [0, 1, 2],
        "b_idx": [0, 1, 2],
        "pairing": [0, 1, 2],
    }
    G = parse_glue(obj)
    assert G.d_f == 4.0 and G.v_scale == 2.0
    with pytest.raises(InputError):
        parse_glue({k: v for k, v in obj.items() if k != "pairing"})
    bad = dict(obj, pairing=[0, 1, "x"])
    with pytest.raises(InputError):
        parse_glue(bad)


@pytest.mark.parametrize("dim", ["x", [2], 2.7, True, 10 ** 400, None])
def test_parse_cloud_rejects_non_integer_dim(dim):
    obj = {"dim": dim, "points": [[0, 0], [1, 1]]}
    if dim is None:
        assert parse_cloud(obj).dim == 2                  # null = absent
        return
    with pytest.raises(InputError, match="dim"):
        parse_cloud(obj)


def test_parse_cloud_accepts_integral_float_dim():
    assert parse_cloud({"dim": 2.0, "points": [[0, 0], [1, 1]]}).dim == 2


@pytest.mark.parametrize("side", [[0.7, 1], [True, 1], [[0, 1]], 1, [1e300],
                                  [10 ** 400]])
def test_parse_partition_rejects_non_integer_indices(side):
    X = parse_space({"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
    with pytest.raises(InputError, match="partition.a"):
        parse_partition({"a": side, "b": [1, 2]}, X)
    P = parse_partition({"a": [0.0, 1], "b": [1, 2]}, X)  # integral value
    np.testing.assert_array_equal(P.idx_a, [0, 1])


@pytest.mark.parametrize("field", ["a_idx", "b_idx", "pairing"])
def test_parse_glue_rejects_fractional_indices(field):
    obj = {
        "u_points": {"points": [[0.0], [1.0], [2.0]]},
        "v_points": {"points": [[0.0], [2.0], [1.0]]},
        "a_idx": [0, 1, 2],
        "b_idx": [0, 1, 2],
        "pairing": [0, 1, 2],
    }
    obj[field] = [0, 1, 2.5]
    with pytest.raises(InputError, match=field):
        parse_glue(obj)
