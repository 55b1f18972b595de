"""One intake per kind of input.

Every point set converts through ``PointCloud``, every distance matrix
through ``validate_metric``'s conversion (the same one), and every index
list through one strict check, so each public entry refuses what is not
finite real numbers with ``InputError``, and the CLI refuses the same
JSON with exit 1 and one error line.  Valid look-alikes (integer dtypes,
integral floats, Fortran-ordered and strided arrays) keep working and
give exactly what a float64 C-ordered array gives.
"""

import json
import math

import numpy as np
import pytest

from metric_union import (CoverResult, EmbedParams, InputError, PartialMap,
                          PointCloud, build_cover, build_partition,
                          choose_n_for_epsilon, direct_sum, distort_sides,
                          distortion_of, embed_union, extend_one_point,
                          extend_sequential, glue_instance, ratio_check,
                          sample_glue_instance, sample_split, select_alpha,
                          stream, sym_eigen, union_instance, validate_metric,
                          verify_cover)
from metric_union.cli import main
from metric_union.linalg import _measured

X = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
M = PartialMap(PointCloud([[0.0], [1.0]]), PointCloud([[0.0], [2.0]]))


@pytest.fixture(scope="module")
def split():
    return sample_split(64, 0)


def _rows(kind, m):
    """An m-row, one-column point set that is not real numbers."""
    col = [float(i) for i in range(m)]
    return {
        "str": [[str(v)] for v in col],
        "bool": [[i % 2 == 0] for i in range(m)],
        "complex": [[complex(v, 1.0)] for v in col],
        "ragged": [[0.0, 1.0]] + [[v] for v in col[1:]],
        "nan": [[math.nan]] + [[v] for v in col[1:]],
        "inf": [[math.inf]] + [[v] for v in col[1:]],
        "none": [[None]] + [[v] for v in col[1:]],
        "flat": col,
    }[kind]


# each entry that takes points, called with an m-row set in its one slot
POINT_ENTRIES = {
    "PointCloud": (3, lambda p, split: PointCloud(p)),
    "embed_union": (3, lambda p, split: embed_union(
        X, build_partition(X, [0, 1, 2], [2]), p, [[0.0]])),
    "glue_instance": (3, lambda p, split: glue_instance(
        p, [[0.0], [1.0], [2.0]], [0, 1], [0, 1], [0, 1])),
    "distortion_of": (3, lambda p, split: distortion_of(X, p)),
    "ratio_check": (128, lambda p, split: ratio_check(split, p)),
    "PartialMap": (2, lambda p, split: PartialMap(p, [[0.0], [2.0]])),
    "extend_sequential": (2, lambda p, split: extend_sequential(M, p)),
    "direct_sum": (3, lambda p, split: direct_sum([p])),
}
# strings were parsed and booleans taken as 0 and 1 by every entry, and
# complex values and ragged rows ended in bare numpy errors; the entries
# after PointCloud's first three also took NaN, inf and None unchecked
# (a NaN report, a RangeViolation, an empty argmax) or ended in a numpy
# error on a flat array or in an AttributeError on any array
_CASES = [(e, k) for e in POINT_ENTRIES
          for k in ("str", "bool", "complex", "ragged")]
_CASES += [(e, k) for e in ("distortion_of", "ratio_check", "PartialMap",
                            "extend_sequential", "direct_sum")
           for k in ("nan", "inf", "none", "flat")]


@pytest.mark.parametrize("entry, kind", _CASES)
def test_points_that_are_not_finite_real_numbers_are_input_errors(
        entry, kind, split):
    m, call = POINT_ENTRIES[entry]
    with pytest.raises(InputError):
        call(_rows(kind, m), split)


# extend_one_point's one point: these were parsed, taken as 1, or ended in
# a TypeError, a ValueError, an empty argmax or an InconsistentDuplicate
@pytest.mark.parametrize("x", [["0.5"], [True], [0.5j], [0.5, [1.0]],
                               [math.nan], [math.inf], [None]])
def test_a_new_point_that_is_not_finite_real_numbers_is_an_input_error(x):
    with pytest.raises(InputError):
        extend_one_point(M, x)


_LOOK_ALIKES = {
    "int": lambda a: a.astype(np.int64),
    "uint8": lambda a: a.astype(np.uint8),
    "integral floats": lambda a: a.tolist(),
    "fortran": lambda a: np.asfortranarray(a),
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
}


@pytest.mark.parametrize("look", sorted(_LOOK_ALIKES))
def test_valid_look_alikes_give_what_float_arrays_give(look):
    # integer-valued coordinates, so every look-alike holds the same values
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
    alike = _LOOK_ALIKES[look](pts)
    Y = validate_metric(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    P = build_partition(Y, [0, 1, 2], [2, 3])
    assert np.array_equal(PointCloud(alike).points, pts)
    assert distortion_of(Y, alike) == distortion_of(Y, pts)
    assert np.array_equal(direct_sum([alike]).points, pts)
    params = EmbedParams.derive(0.5, 1.0, 1.0)
    got = embed_union(Y, P, _LOOK_ALIKES[look](pts[:3]),
                      _LOOK_ALIKES[look](pts[2:]), params=params)
    want = embed_union(Y, P, pts[:3], pts[2:], params=params)
    assert np.array_equal(got.full.points, want.full.points)
    src = PartialMap(alike[:2], alike[:2])
    assert src.lip == PartialMap(PointCloud(pts[:2]), PointCloud(pts[:2])).lip
    assert np.array_equal(extend_sequential(src, alike[2:]).points,
                          extend_sequential(src, PointCloud(pts[2:])).points)
    G = glue_instance(alike, alike, np.arange(2), [0, 1.0], np.arange(2))
    assert np.array_equal(G.v_points.points, pts) and G.d_f == 1.0


def test_int_dtypes_and_huge_integers_convert():
    assert PointCloud([[2 ** 64]]).points[0, 0] == 2.0 ** 64
    assert validate_metric(np.array([[0, 1], [1, 0]], dtype=np.uint8)) \
        .dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(InputError):
        PointCloud([[10 ** 400]])


@pytest.mark.parametrize("bad", [
    [["0", "1"], ["1", "0"]],                     # parsed as numbers
    [[False, True], [True, False]],               # taken as 0 and 1
    np.array([[False, True], [True, False]]),
    [[0, 1], [1]],                                # bare numpy ValueError
    [[0, 1j], [1j, 0]],                           # bare TypeError
])
def test_distance_matrices_hold_real_numbers_only(bad):
    with pytest.raises(InputError, match="numeric matrix"):
        validate_metric(bad)


def _verify_cover(cover_idx, nearest):
    return verify_cover(X, build_partition(X, [0, 1], [2]),
                        CoverResult(0.5, cover_idx, nearest, 0.0, 6.0))


# (entry, a bad index list): each was certified, after truncating 0.7 to
# 0, parsing "0", flattening [[0], [1]] or reading True as 1
_INDEX_CASES = {
    "partition fraction": lambda: build_partition(X, [0.7, 1], [2]),
    "partition string": lambda: build_partition(X, ["0", 1], [2]),
    "partition nested": lambda: build_partition(X, [[0], [1]], [2]),
    "partition bool": lambda: build_partition(X, [0, True], [2]),
    "glue fraction": lambda: glue_instance([[0.0], [1.0]], [[0.0], [1.0]],
                                           [0.6], [1], [1]),
    "glue bool": lambda: glue_instance([[0.0], [1.0]], [[0.0], [1.0]],
                                       [True], [1], [1]),
    "glue pairing string": lambda: glue_instance(
        [[0.0], [1.0]], [[0.0], [1.0]], [0], [1], ["1"]),
    "subset fraction": lambda: distortion_of(X, [[0.0], [1.0]],
                                             subset=[0.7, 1]),
    "sub fraction": lambda: X.sub([0.7, 1]),
    "sub bool": lambda: X.sub([True, 2]),
    "take fraction": lambda: PointCloud([[0.0], [1.0]]).take([0.7]),
    "take out of range": lambda: PointCloud([[0.0], [1.0]]).take([2]),
    # verify_cover's lists ended in AttributeError or a bare IndexError
    "cover_idx bool": lambda: _verify_cover([True], [2]),
    "cover_idx repeated": lambda: _verify_cover([0, 0], [2, 2]),
    "nearest fraction": lambda: _verify_cover([0], [1.5]),
    "nearest out of range": lambda: _verify_cover([0], [99]),
    "nearest string": lambda: _verify_cover([0], ["2"]),
    "nearest too short": lambda: _verify_cover([0, 1], [2]),
}


@pytest.mark.parametrize("case", sorted(_INDEX_CASES))
def test_index_lists_are_integral_numbers_only(case):
    with pytest.raises(InputError):
        _INDEX_CASES[case]()


def test_index_look_alikes_still_work():
    P = build_partition(X, np.arange(2), [2.0, 1])
    assert P.idx_a.tolist() == [0, 1] and P.idx_b.tolist() == [1, 2]
    one = build_partition(X, [0, 1, 2], np.array([2], dtype=np.uint8))
    assert one.idx_b.tolist() == [2]
    # a one-point side embeds
    emb = embed_union(X, one, [[0.0], [1.0], [2.0]], [[0.0]])
    assert all(e.ok() for e in emb.audit) and emb.full.m == 3
    # sub takes index lists, and take repeats rows too
    for idx in (np.arange(2), [0.0, 1.0], np.array([0, 1], dtype=np.uint8)):
        assert X.sub(idx).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    cloud = PointCloud([[0.0], [1.0]])
    for idx in (np.arange(2)[::-1], [1.0, 1.0]):
        assert cloud.take(idx).points.tolist() == \
            [[float(i)] for i in np.asarray(idx, dtype=int)]


@pytest.mark.parametrize("call", [
    lambda: EmbedParams.derive("0.5", 1, 1),
    lambda: EmbedParams.derive(True, 1, 1),
    lambda: build_cover(X, build_partition(X, [0, 1], [2]), None),
    lambda: sample_split(64.5, 0),
    lambda: sample_split("64", 0),
    # each of these ended in a bare TypeError
    lambda: EmbedParams.derive(0.5, "1", 1),
    lambda: select_alpha("1", 1),
    lambda: select_alpha(math.nan, 1),   # chose alpha 1/2
    lambda: extend_one_point(M, [0.5], tol="1e-7"),
    lambda: choose_n_for_epsilon("0.5", 0),
    lambda: union_instance(10.5, 10, 2, 2, seed=0),
    # these ended in a bare TypeError, UFuncTypeError and TypeError
    lambda: sample_glue_instance(8.5, 6, 7, 2, 3, seed=0),
    lambda: sample_glue_instance(8, 6, 7, 2, 3, seed=0, wobble="0.3"),
    lambda: distort_sides(union_instance(5, 5, 2, 2, seed=0), "2", 1),
    lambda: distort_sides(union_instance(5, 5, 2, 2, seed=0), 1, None),
    lambda: sample_glue_instance(8, 6, 7, "2", 3, seed=0),
    # and this drew what stream(1, "x") draws
    lambda: stream(1.5, "x"),
])
def test_scalar_constants_that_are_not_numbers_are_input_errors(call):
    with pytest.raises(InputError):
        call()


def test_split_size_takes_an_integral_float():
    assert sample_split(64.0, 0).mask.tolist() == \
        sample_split(64, 0).mask.tolist()


def test_integral_floats_are_integers():
    assert stream(2.0, "x").random() == stream(2, "x").random()
    a, b = union_instance(6.0, 5.0, 2.0, 2.0, seed=1.0), \
        union_instance(6, 5, 2, 2, seed=1)
    assert np.array_equal(a.space.dist, b.space.dist)
    g, h = sample_glue_instance(4.0, 3.0, 3.0, 2.0, 2.0, seed=9), \
        sample_glue_instance(4, 3, 3, 2, 2, seed=9)
    assert np.array_equal(g.u_points.points, h.u_points.points)
    assert np.array_equal(g.v_points.points, h.v_points.points)


# the eigensolver returned eigenvalues [nan, 1] for the first and parsed
# the strings of the second
@pytest.mark.parametrize("matrix", [[[math.nan, 0.0], [0.0, 1.0]],
                                    [["1", "0"], ["0", "1"]]])
def test_the_checked_eigensolver_takes_finite_real_matrices_only(matrix):
    with pytest.raises(InputError):
        sym_eigen(matrix)


def test_split_image_measured_whole_equals_carried(split):
    # a bare array is measured as one cloud; its cross block is bit for
    # bit the block of the carried matrix
    pts = np.random.default_rng(0).normal(size=(128, 3))
    assert ratio_check(split, pts) == ratio_check(
        split, _measured(PointCloud(pts)))


def _write(tmp_path, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    return str(path)


_SPACE = {"dist": [[0, 1], [1, 0]]}
_EMBED = {"space": _SPACE, "partition": {"a": [0], "b": [1]},
          "phi_a": {"points": [[0.0]]}, "phi_b": {"points": [[0.0]]}}
_GLUE = {"u_points": {"points": [[0.0], [1.0]]},
         "v_points": {"points": [[0.0], [1.0]]},
         "a_idx": [0], "b_idx": [0], "pairing": [0]}


# (command, input, the JSON path the error names): strings were parsed and
# the run exited 0; null reached the library as NaN and its error named no
# field
@pytest.mark.parametrize("command, obj, where", [
    ("check-metric", {"dist": [["0", "1"], ["1", "0"]]}, "space.dist"),
    ("check-metric", {"dist": [[0, None], [None, 0]]}, "space.dist"),
    ("embed", dict(_EMBED, phi_a={"points": [["0"]]}), "phi_a.points"),
    ("embed", dict(_EMBED, phi_b={"points": [[None]]}), "phi_b.points"),
    ("glue", dict(_GLUE, u_points={"points": [["0"], ["1"]]}),
     "u_points.points"),
    ("glue", dict(_GLUE, v_points={"points": [[0.0], [None]]}),
     "v_points.points"),
])
def test_json_matrices_hold_numbers_only(tmp_path, capsys, command, obj,
                                         where):
    assert main([command, "--input", _write(tmp_path, obj)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and lines[1].startswith("runtime")
    payload = json.loads(lines[0])
    assert payload["error"] == "InputError"
    assert payload["message"].startswith(where)
