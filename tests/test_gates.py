"""Every certificate gate, driven through a public entry on both sides of
its margin.

Each row crafts an input, or patches one measurement, so that the gate's
measure lies just past its margin (it must raise the layer's error) and
just inside it (it must pass).  A gate with a margin (``allow``) is put at
margin * (1 + 1e-3) and margin * (1 - 1e-3) beyond its bound; a gate that
compares exactly is put 1e-3 of the bound past it and exactly on it.  The
last test holds the one raise path in place: only the audit module raises
the errors that certificate entries fail with.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import metric_union
import metric_union.glue as glue
import metric_union.lower_bound as lower_bound
import metric_union.union_embed as union_embed
from metric_union import (AuditViolation, CertificateViolation, CoverResult,
                          EmbedParams, FiniteMetricSpace, InputDistortionError,
                          PartialMap, PointCloud, RangeViolation, audit_image,
                          build_123_metric, build_partition, distortion_of,
                          embed_union, external_extend, mds_best_effort,
                          pairwise_distances, ratio_check,
                          sample_glue_instance, sample_split, validate_metric,
                          verify_cover)

PAST, INSIDE = 1.0 + 1e-3, 1.0 - 1e-3


def _line(*xs):
    return validate_metric(pairwise_distances(np.array(xs)[:, None]))


def _embed(phi_a=((0.0,), (1.0,)), params=None):
    """embed_union on the line points 0, 1 (side A) and 3, 4 (side B)."""
    X = _line(0.0, 1.0, 3.0, 4.0)
    P = build_partition(X, [0, 1], [2, 3])
    return embed_union(X, P, phi_a, [[3.0], [4.0]],
                       params=params or EmbedParams.derive(0.5, 1.0, 1.0))


def _side_expansion(mp, past):
    # phi_a stretches its one pair by 1 + 1e-6 * k against a claimed d_a 1
    k = PAST if past else INSIDE
    _embed(phi_a=[[0.0], [1.0 + 1e-6 * k]])


def _side_contraction(mp, past):
    normalize = union_embed._normalize_side
    k = PAST if past else INSIDE

    def contracting(X, idx, cloud):
        side, rep, scale = normalize(X, idx, cloud)
        return side, replace(rep, contraction=1.0 + 1e-6 * k), scale

    mp.setattr(union_embed, "_normalize_side", contracting)
    _embed()


def _psi_g_lip(mp, past):
    # the partial map's constant against lf * d_b = 6, allowing 6e-6
    k = PAST if past else INSIDE

    class Stretched(PartialMap):
        def __post_init__(self):
            super().__post_init__()
            object.__setattr__(self, "lip", 6.0 * (1.0 + 1e-6 * k))

    mp.setattr(union_embed, "PartialMap", Stretched)
    _embed()


def _full_delta_cross(mp, past):
    # gamma off its derived value by 1e-6 * k relative
    k = PAST if past else INSIDE
    p = EmbedParams.derive(0.5, 1.0, 1.0)
    _embed(params=replace(p, gamma=p.gamma * (1.0 + 1e-6 * k)))


def _cover(X, a, b, cover_idx, nearest, alpha=0.5):
    P = build_partition(X, a, b)
    C = CoverResult(alpha=alpha, cover_idx=np.array(cover_idx),
                    nearest=np.array(nearest), lip_f=0.0,
                    lip_bound=2.0 * (1.0 + 1.0 / alpha))
    return verify_cover(X, P, C)


def _witness_exists(mp, past):
    # a at -s has R_a = 10 + s and only the cover point at 0 to lean on:
    # d(a, 0) = s <= alpha * R_a holds exactly at s = 10
    s = 10.0 * PAST if past else 10.0
    _cover(_line(-s, 0.0, 10.0), [0, 1], [2], [1], [2])


def _separation(mp, past):
    # cover points at 0 and t, B at -10: t >= alpha * min R = 5
    t = 5.0 / PAST if past else 5.0
    _cover(_line(0.0, t, -10.0), [0, 1], [2], [0, 1], [2, 2])


def _nearest_in_b(mp, past):
    _cover(_line(-5.0, 0.0, 10.0), [0, 1], [2], [1], [0 if past else 2])


def _nearest_realizes_r(mp, past):
    # B at 10 and -10 * (1 + 1e-3); only the nearer realizes R exactly
    _cover(_line(0.0, 10.0, -10.0 * PAST), [0], [1, 2], [0],
           [2 if past else 1])


def _overlap_fixed(mp, past):
    # a space built by hand: the overlap point 0 and point 1 coincide, so
    # either realizes R = 0, but an overlap point must map to itself
    X = FiniteMetricSpace(dist=np.zeros((2, 2)), labels=(0, 1))
    _cover(X, [0], [0, 1], [0], [1 if past else 0])


def _f_lipschitz(mp, past):
    # a symmetric matrix built by hand (the bound is a theorem, so no
    # metric reaches it): cover {0, 1} at distance 1, mapped to 2 and 3 at
    # distance L against 2(1 + 1/alpha) = 6, allowing 6e-9
    k = PAST if past else INSIDE
    D = np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 1.0],
                  [1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]])
    D[2, 3] = D[3, 2] = 6.0 * (1.0 + 1e-9 * k)
    X = FiniteMetricSpace(dist=D, labels=(0, 1, 2, 3))
    _cover(X, [0, 1], [2, 3], [0, 1], [2, 3])


_GLUE = sample_glue_instance(8, 6, 7, 2, 3, seed=0, wobble=0.3)
_BOUND = 9.0 * _GLUE.d_f + 2.0


def _glue_with_reports(mp, first=None, second=None):
    """external_extend with f1's and f2's reports rewritten."""
    report, seen = glue._distortion_report, []

    def rewritten(*args):
        rep = report(*args)
        seen.append(rep)
        change = first if len(seen) == 1 else second
        return replace(rep, **change) if change else rep

    mp.setattr(glue, "_distortion_report", rewritten)
    external_extend(_GLUE)


def _glue_compatibility(mp, past):
    # f2's rows moved by 1e-9, or not at all
    built = []

    def cloud(points):
        built.append(points)
        shift = 1e-9 if past and len(built) == 2 else 0.0
        return PointCloud(points + shift)

    mp.setattr(glue, "PointCloud", cloud)
    external_extend(_GLUE)


def _glue_f1(mp, past):
    k = PAST if past else INSIDE
    _glue_with_reports(mp, first={"distortion": _BOUND + 1e-6 * k})


def _glue_f2_noncontracting(mp, past):
    k = PAST if past else INSIDE
    _glue_with_reports(mp, second={"contraction": 1.0 / (1.0 - 1e-9 * k)})


def _glue_f2(mp, past):
    k = PAST if past else INSIDE
    _glue_with_reports(mp, second={"expansion": _BOUND + 1e-6 * k,
                                   "contraction": 1.0})


_SPLIT = sample_split(64, 1)
_X123 = build_123_metric(_SPLIT)[0]
_IMAGE = mds_best_effort(_X123)


def _window_lower(mp, past):
    # e1's ratio 1e-9 * hi * k below lo, with hi = 2
    k = PAST if past else INSIDE
    r1 = ratio_check(_SPLIT, _IMAGE)[0]
    mp.setattr(lower_bound, "_ratio_window", lambda d: (r1 + 2e-9 * k, 2.0))
    ratio_check(_SPLIT, _IMAGE)


def _window_upper(mp, past):
    # e2's ratio 1e-9 * k relative above hi
    k = PAST if past else INSIDE
    r2 = ratio_check(_SPLIT, _IMAGE)[1]
    mp.setattr(lower_bound, "_ratio_window",
               lambda d: (0.1, r2 / (1.0 + 1e-9 * k)))
    ratio_check(_SPLIT, _IMAGE)


def _distortion_above_bound(mp, past):
    k = PAST if past else INSIDE
    d = distortion_of(_X123, _IMAGE).distortion
    mp.setattr(lower_bound, "certified_lower_bound",
               lambda split: d + 1e-9 * k)
    audit_image(_SPLIT, _X123, _IMAGE)


# gate: (error, the name, class or side it carries, what drives it)
GATES = {
    "side expansion": (InputDistortionError, "A", _side_expansion),
    "side contraction": (InputDistortionError, "A", _side_contraction),
    "psi audit": (AuditViolation, "psi_b.g_lip", _psi_g_lip),
    "full audit": (AuditViolation, "full.delta_cross_exact",
                   _full_delta_cross),
    "cover witness": (CertificateViolation, "cover.witness_exists",
                      _witness_exists),
    "cover separation": (CertificateViolation, "cover.separation",
                         _separation),
    "cover nearest in B": (CertificateViolation, "cover.nearest_in_b",
                           _nearest_in_b),
    "cover nearest realizes R": (CertificateViolation,
                                 "cover.nearest_realizes_r",
                                 _nearest_realizes_r),
    "cover overlap fixed": (CertificateViolation, "cover.overlap_fixed",
                            _overlap_fixed),
    "cover lip(f)": (CertificateViolation, "cover.f_lipschitz",
                     _f_lipschitz),
    "glue compatibility": (CertificateViolation, "glue.compatibility",
                           _glue_compatibility),
    "glue f1 bound": (CertificateViolation, "glue.extension_bound_f1",
                      _glue_f1),
    "glue f2 non-contracting": (CertificateViolation,
                                "glue.f2_noncontracting",
                                _glue_f2_noncontracting),
    "glue f2 bound": (CertificateViolation, "glue.extension_bound_f2",
                      _glue_f2),
    "ratio window lower": (RangeViolation, "e1", _window_lower),
    "ratio window upper": (RangeViolation, "e2", _window_upper),
    "distortion above bound": (CertificateViolation,
                               "mds_distortion_above_bound",
                               _distortion_above_bound),
}


def _named(exc):
    """The entry name, class or side an error carries."""
    return next(getattr(exc, a) for a in ("name", "which", "side")
                if hasattr(exc, a))


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_fails_past_its_margin_and_passes_inside(gate, monkeypatch):
    error, name, drive = GATES[gate]
    with monkeypatch.context() as mp:
        with pytest.raises(error) as info:
            drive(mp, True)
    assert _named(info.value) == name
    with monkeypatch.context() as mp:
        drive(mp, False)


_ONE_PATH = {"AuditViolation", "CertificateViolation",
             "InputDistortionError", "RangeViolation"}


def test_certificate_errors_are_raised_only_by_the_audit_module():
    found = []
    for path in sorted(Path(metric_union.__file__).parent.glob("*.py")):
        if path.name == "audit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) in _ONE_PATH:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
