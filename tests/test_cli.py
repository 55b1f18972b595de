"""CLI behaviour: exit codes, JSON reports, determinism."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import metric_union.cli as cli
import metric_union.glue as glue
import metric_union.lower_bound as lower_bound
from metric_union import (canonical_dumps, embed_union, external_extend,
                          glued_metric, load_json, parse_glue,
                          sample_glue_instance, to_jsonable, union_instance)
from metric_union.cli import main


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(canonical_dumps(to_jsonable(obj)))
    return str(path)


def _stderr_payload(capsys):
    err = capsys.readouterr().err
    return json.loads(err.splitlines()[0])


def _refused_as_input_error(capsys):
    """Nothing on stdout; one JSON error line naming InputError, then the
    runtime line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 2
    assert json.loads(captured.err.splitlines()[0])["error"] == "InputError"


@pytest.fixture()
def embed_input(tmp_path):
    inst = union_instance(8, 7, 2, 3, seed=31)
    obj = {
        "space": {"dist": inst.space.dist},
        "partition": {"a": inst.partition.idx_a, "b": inst.partition.idx_b},
        "phi_a": {"points": inst.phi_a.points},
        "phi_b": {"points": inst.phi_b.points},
    }
    return _write(tmp_path, "embed.json", obj), inst


def test_check_metric_ok(tmp_path, capsys):
    path = _write(tmp_path, "m.json",
                  {"dist": [[0, 1], [1, 0]], "labels": ["p", "q"]})
    assert main(["check-metric", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "n": 2, "labels": ["p", "q"]}


def test_check_metric_triangle_violation(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]})
    assert main(["check-metric", "--input", path]) == 1
    payload = _stderr_payload(capsys)
    assert payload["error"] == "TriangleViolation"
    w = payload["witness"]
    assert (w["i"], w["j"], w["k"]) == (0, 2, 1)
    assert w["slack"] == pytest.approx(1.0)
    assert w["total"] == 2


@pytest.mark.parametrize("command", ["check-metric", "embed", "cover"])
def test_asymmetric_dist_is_refused_with_a_witness(tmp_path, capsys,
                                                   command):
    dist = [[0, 1, 2], [1, 0, 1.5], [2, 1, 0]]
    obj = {"dist": dist} if command == "check-metric" else {
        "space": {"dist": dist}, "partition": {"a": [0, 1], "b": [2]}}
    path = _write(tmp_path, "asym.json", obj)
    assert main([command, "--input", path]) == 1
    payload = _stderr_payload(capsys)
    assert payload["error"] == "AsymmetryError"
    w = payload["witness"]
    assert (w["i"], w["j"], w["gap"], w["total"]) == (1, 2, 0.5, 1)


def test_embed_with_coordinates(tmp_path, capsys, embed_input):
    path, inst = embed_input
    out_file = tmp_path / "emb.json"
    assert main(["embed", "--input", path, "--output", str(out_file)]) == 0
    rep = json.loads(out_file.read_text())
    assert rep["embedding"]["dim"] == 2 + 3 + 1
    assert len(rep["embedding"]["points"]) == inst.space.n
    assert all(e["ok"] for e in rep["audit"])
    assert rep["report"]["contraction"] <= 1.0 + 1e-9
    assert rep["scale_a"] == 1.0


def test_embed_without_coordinates(tmp_path, capsys):
    inst = union_instance(7, 6, 2, 2, seed=32)
    path = _write(tmp_path, "embed2.json", {
        "space": {"dist": inst.space.dist},
        "partition": {"a": inst.partition.idx_a, "b": inst.partition.idx_b},
    })
    assert main(["embed", "--input", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(e["ok"] for e in rep["audit"])


def test_embed_alpha_flag(tmp_path, capsys, embed_input):
    path, _ = embed_input
    assert main(["embed", "--input", path, "--alpha", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["alpha"] == 0.5
    assert rep["params"]["beta"] == 1.5 * 3.0
    # a side that expands by 2 and never contracts has distortion 1 but
    # Lipschitz constant 2, which is what --alpha must pass on as d_a
    inst = union_instance(8, 9, 2, 3, seed=33)
    path = _write(tmp_path, "scaled.json", {
        "space": {"dist": inst.space.dist},
        "partition": {"a": inst.partition.idx_a, "b": inst.partition.idx_b},
        "phi_a": {"points": 2.0 * inst.phi_a.points},
        "phi_b": {"points": inst.phi_b.points},
    })
    assert main(["embed", "--input", path, "--alpha", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["d_a"] == pytest.approx(2.0, rel=1e-12)
    assert rep["params"]["d_b"] == 1.0
    assert rep["scale_a"] == 1.0
    assert all(e["ok"] for e in rep["audit"])


def test_embed_alpha_measures_each_side_once(tmp_path, capsys,
                                             kernel_calls, report_scans):
    # --alpha goes to embed_union, which reads each side's constant from
    # the one scan it checks the side with: 3 scans and 9 kernel calls, as
    # without --alpha (5 scans when the CLI measured both sides first), 4
    # scans when one side is rescaled
    inst = union_instance(30, 25, 3, 4, seed=1)
    X, P = inst.space, inst.partition
    for name, phi_a, scans in (("plain", inst.phi_a.points, 3),
                               ("scaled", 2.0 * inst.phi_a.points, 3),
                               ("contracting", 0.98 * inst.phi_a.points, 4)):
        path = _write(tmp_path, f"{name}.json", {
            "space": {"dist": X.dist},
            "partition": {"a": P.idx_a, "b": P.idx_b},
            "phi_a": {"points": phi_a},
            "phi_b": {"points": inst.phi_b.points},
        })
        kernel_calls.clear()
        report_scans.clear()
        assert main(["embed", "--input", path, "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert len(report_scans) == scans
        if name == "contracting":
            assert json.loads(out)["scale_a"] > 1.0
        else:
            assert len(kernel_calls) <= 9
        full = embed_union(X, P, phi_a, inst.phi_b.points,
                           alpha=0.5).as_dict()
        assert out == canonical_dumps({
            "embedding": {"dim": full["dim"], "points": full["points"]},
            **{k: full[k] for k in ("report", "audit", "params",
                                    "scale_a", "scale_b")}})


def test_embed_deterministic_bytes(tmp_path, embed_input):
    path, _ = embed_input
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["embed", "--input", path, "--output", str(f1)]) == 0
    assert main(["embed", "--input", path, "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cover_report(tmp_path, capsys, embed_input):
    path, inst = embed_input
    assert main(["cover", "--input", path, "--alpha", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["alpha"] == 0.5
    assert rep["lip_bound"] == 6.0
    assert rep["lip_f"] <= rep["lip_bound"]
    assert rep["cover_size"] == len(rep["cover_idx"])
    # nearest is aligned with the cover points
    assert len(rep["nearest"]) == rep["cover_size"]
    assert set(rep["cover_idx"]) <= set(inst.partition.idx_a.tolist())


def test_lowerbound_n64(capsys):
    assert main(["lowerbound", "--n", "64", "--seed", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 64
    assert rep["edges_e1"] + rep["edges_e2"] == 64 * 64
    assert rep["delta_star"] < 1.0
    assert 0.0 < rep["certified_bound"] <= 3.0
    assert all(a["ok"] for a in rep["audits"])


def test_lowerbound_seed_changes_split(capsys):
    assert main(["lowerbound", "--n", "64", "--seed", "1"]) == 0
    rep1 = json.loads(capsys.readouterr().out)
    assert main(["lowerbound", "--n", "64", "--seed", "2"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert rep1["delta_star"] != rep2["delta_star"]


def test_lowerbound_below_its_bound_exits_2(capsys, monkeypatch):
    # a best-effort embedding below the certified bound contradicts the
    # certificate: no report, exit 2 with the failed audit named
    monkeypatch.setattr(lower_bound, "certified_lower_bound",
                        lambda split: 1e9)
    assert main(["lowerbound", "--n", "64", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    payload = json.loads(err.splitlines()[0])
    assert payload["error"] == "CertificateViolation"
    assert payload["witness"]["name"] == "mds_distortion_above_bound"
    assert payload["witness"]["bound"] == 1e9


def test_lowerbound_n16_exhausts_budget(capsys):
    assert main(["lowerbound", "--n", "16", "--seed", "0"]) == 2
    payload = _stderr_payload(capsys)
    assert payload["error"] == "RetryBudgetExceeded"
    assert payload["witness"]["attempts"] == 64


def test_lowerbound_epsilon(capsys, monkeypatch):
    sizes = []
    measure = lower_bound.measure_delta
    monkeypatch.setattr(lower_bound, "measure_delta",
                        lambda mask: sizes.append(mask.shape[0])
                        or measure(mask))
    assert main(["lowerbound", "--epsilon", "0.95", "--seed", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["epsilon"] == 0.95
    assert 3.0 / (1.0 + rep["median_delta"]) ** 2 >= 3.0 - 0.95
    assert rep["certified_bound"] > 0.0
    # the reported split is the chosen n's first sample, measured once
    # with the other four, not drawn and measured again
    assert sizes.count(rep["n"]) == 5


def test_lowerbound_bad_epsilon(capsys):
    assert main(["lowerbound", "--epsilon", "1.5"]) == 1
    assert _stderr_payload(capsys)["error"] == "InputError"


def test_lowerbound_needs_n_or_epsilon(capsys):
    assert main(["lowerbound"]) == 1


def test_lowerbound_takes_n_or_epsilon_not_both(capsys):
    # either flag alone picks n, so both at once is refused, not ignored
    assert main(["lowerbound", "--n", "64", "--epsilon", "0.95"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0])["error"] == "_UsageError"


def test_seed_only_where_randomness_is_drawn(embed_input, capsys):
    path, _ = embed_input
    assert main(["embed", "--input", path, "--seed", "1"]) == 1
    assert _stderr_payload(capsys)["error"] == "_UsageError"
    for name in ("check-metric", "cover", "glue"):
        assert main([name, "--input", path, "--seed", "1"]) == 1
        assert _stderr_payload(capsys)["error"] == "_UsageError"


@pytest.mark.parametrize("argv", [["lowerbound", "--n", "16", "--seed", "-1"],
                                  ["selftest", "--seed", "-3"],
                                  ["lowerbound", "--epsilon", "0.5", "--seed",
                                   str(2 ** 64)]])
def test_out_of_range_seed_is_a_usage_error(argv, capsys):
    # stream's range is [0, 2**64); selftest printed a table of FAIL rows
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[1].startswith("runtime")
    assert json.loads(err[0])["error"] == "_UsageError"


def test_glue_command(tmp_path, capsys):
    path = _write(tmp_path, "glue.json", {
        "u_points": {"points": [[0.0], [1.0], [2.0]]},
        "v_points": {"points": [[0.0], [2.0], [1.0]]},
        "a_idx": [0, 1, 2],
        "b_idx": [0, 1, 2],
        "pairing": [0, 1, 2],
    })
    assert main(["glue", "--input", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["glued"] == {"n": 3, "n_u": 3, "n_v": 3, "n_pairs": 3,
                            "d_f": 4.0, "v_scale": 2.0}
    assert rep["distortions"]["bound"] == 9.0 * 4.0 + 2.0
    assert rep["distortions"]["distortion_f1"] <= rep["distortions"]["bound"]
    assert len(rep["f1"]["points"]) == 3
    assert all(e["ok"] for e in rep["audit"])


def test_glue_builds_the_glued_space_once(tmp_path, capsys, monkeypatch):
    S = sample_glue_instance(4, 3, 3, 2, 2, seed=9)
    path = _write(tmp_path, "glue9.json", {
        "u_points": {"points": S.u_points.points},
        "v_points": {"points": S.v_points.points},
        "a_idx": S.a_idx, "b_idx": S.b_idx, "pairing": S.pairing,
    })
    # the report with the glued space built on its own, as well as inside
    # the extension
    G = parse_glue(load_json(path))
    ext = external_extend(G)
    expected = canonical_dumps({
        "glued": {"n": glued_metric(G)[0].n, "n_u": G.u_points.m,
                  "n_v": G.v_points.m, "n_pairs": int(G.n_pairs),
                  "d_f": G.d_f, "v_scale": G.v_scale},
        "f1": {"dim": ext.f1.dim, "points": ext.f1.points},
        "f2": {"dim": ext.f2.dim, "points": ext.f2.points},
        "distortions": ext.as_dict(),
        "audit": [e.as_dict() for e in [*ext.embedding.audit, *ext.audit]],
    })
    calls = []
    build = glue._built_space

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(glue, "_built_space", counted)
    assert main(["glue", "--input", path]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == expected


def test_usage_errors(tmp_path, capsys):
    assert main(["embed"]) == 1                      # missing --input
    capsys.readouterr()
    assert main(["frobnicate"]) == 1                 # unknown command
    capsys.readouterr()
    bad = tmp_path / "nope.json"
    bad.write_text("{oops")
    assert main(["check-metric", "--input", str(bad)]) == 1
    assert _stderr_payload(capsys)["error"] == "InputError"
    assert main(["check-metric", "--input",
                 str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3", "-inf"])
def test_malformed_tol_is_an_input_error(tmp_path, capsys, embed_input, tol):
    # a NaN tol reached the audit and failed there, exit 2
    glue_path = _write(tmp_path, "glue.json", {
        "u_points": {"points": [[0.0], [1.0], [2.0]]},
        "v_points": {"points": [[0.0], [2.0], [1.0]]},
        "a_idx": [0, 1, 2], "b_idx": [0, 1, 2], "pairing": [0, 1, 2],
    })
    # a negative one in exponent form, written apart from its flag, was
    # read as an option and refused as a usage error
    for argv in (["embed", "--input", embed_input[0]],
                 ["embed", "--input", embed_input[0], "--alpha", "0.5"],
                 ["glue", "--input", glue_path]):
        for flag in ([f"--tol={tol}"], ["--tol", tol]):
            assert main([*argv, *flag]) == 1
            _refused_as_input_error(capsys)


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
def test_negative_exponent_values_reach_their_checks(capsys, embed_input,
                                                     value):
    path = embed_input[0]
    for argv in (["embed", "--input", path, "--alpha", value],
                 ["cover", "--input", path, "--alpha", value],
                 ["lowerbound", "--epsilon", value]):
        assert main(argv) == 1
        _refused_as_input_error(capsys)


@pytest.mark.parametrize("value", ["1e-160", "1e-200", "1e-300", "1e-320"])
def test_alpha_whose_constants_overflow_is_an_input_error(capsys, embed_input,
                                                          value):
    # embed died with a bare OverflowError traceback, or at 1e-320 exited 2
    # on full.headline_consistent (inf against inf); cover at 1e-320 failed
    # only when writing its infinite lip_bound
    path = embed_input[0]
    argvs = [["embed", "--input", path, "--alpha", value]]
    if value == "1e-320":
        argvs.append(["cover", "--input", path, "--alpha", value])
    for argv in argvs:
        assert main(argv) == 1
        _refused_as_input_error(capsys)


def test_lowerbound_n_beyond_any_array_is_an_input_error(capsys):
    # numpy refuses an n x n draw of this size before allocating anything;
    # the refusal escaped as an unnamed ValueError traceback
    for n in ("99999999999", str(2 ** 31)):
        assert main(["lowerbound", "--n", n]) == 1
        _refused_as_input_error(capsys)


def test_number_beyond_float_range_is_an_input_error(tmp_path, capsys,
                                                     embed_input):
    # 10**400 is a valid JSON integer that float64 cannot hold
    huge = _write(tmp_path, "huge.json", {"dist": [[0, 10 ** 400],
                                                   [10 ** 400, 0]]})
    obj = load_json(embed_input[0])
    obj["phi_b"]["points"][0][0] = 10 ** 400
    phi = _write(tmp_path, "phi.json", obj)
    for argv in (["check-metric", "--input", huge],
                 ["embed", "--input", phi]):
        assert main(argv) == 1
        _refused_as_input_error(capsys)


def test_glue_bad_pairing_maps_to_input_error(tmp_path, capsys):
    path = _write(tmp_path, "glue_bad.json", {
        "u_points": {"points": [[0.0], [1.0]]},
        "v_points": {"points": [[0.0], [1.0]]},
        "a_idx": [0, 1],
        "b_idx": [0, 1],
        "pairing": [0, 0],
    })
    assert main(["glue", "--input", path]) == 1


@pytest.mark.parametrize("u, v, a_idx, pairing, field", [
    # U' squared distances overflow: "distance matrix contains non-finite
    # entries", named for no field
    ([[0.0], [1.0], [1e200]], [[0.0], [2.0], [5.0]], [0, 1], [0, 1],
     "u_points"),
    # the matched pair at inf: a numpy RuntimeWarning, then "point cloud
    # contains non-finite entries"
    ([[0.0], [1.0], [1e200]], [[0.0], [2.0], [5.0]], [0, 2], [0, 1],
     "u_points"),
    ([[0.0], [2.0], [5.0]], [[0.0], [1.0], [1e200]], [0, 1], [0, 1],
     "v_points"),
    ([[0.0], [2.0], [5.0]], [[0.0], [1.0], [1e200]], [0, 1], [0, 2],
     "v_points")])
def test_glue_names_the_side_whose_distances_overflow(tmp_path, capsys, u, v,
                                                      a_idx, pairing, field):
    path = _write(tmp_path, "glue_huge.json", {
        "u_points": {"points": u}, "v_points": {"points": v},
        "a_idx": a_idx, "b_idx": sorted(pairing), "pairing": pairing})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["glue", "--input", path]) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[1].startswith("runtime")
    payload = json.loads(err[0])
    assert payload["error"] == "InputError"
    assert payload["message"].startswith(f"{field}: ")


@pytest.mark.parametrize("bad", [{"partition": {"a": [0.7], "b": [1]}},
                                 {"phi_a": {"dim": "x", "points": [[0.0]]}},
                                 {"phi_a": {"dim": [1], "points": [[0.0]]}},
                                 {"phi_a": {"dim": 2.7,
                                            "points": [[0.0, 0.0]]}}])
def test_embed_rejects_non_integer_fields(tmp_path, capsys, bad):
    obj = {"space": {"dist": [[0.0, 1.0], [1.0, 0.0]]},
           "partition": {"a": [0], "b": [1]}}
    path = _write(tmp_path, "embed_bad.json", dict(obj, **bad))
    assert main(["embed", "--input", path]) == 1
    assert _stderr_payload(capsys)["error"] == "InputError"


@pytest.mark.parametrize("alpha", ["abc", [0.5], True])
@pytest.mark.parametrize("command", ["embed", "cover"])
def test_json_alpha_must_be_a_number(tmp_path, capsys, embed_input,
                                     command, alpha):
    # a string or a list crashed float(), and true was taken as 1.0
    obj = load_json(embed_input[0])
    path = _write(tmp_path, "alpha.json", dict(obj, alpha=alpha))
    assert main([command, "--input", path]) == 1
    assert _stderr_payload(capsys)["error"] == "InputError"


def test_json_alpha_null_means_absent(tmp_path, capsys, embed_input):
    # embed picks alpha automatically, cover takes 1/2
    path = embed_input[0]
    nulled = _write(tmp_path, "null.json", dict(load_json(path), alpha=None))
    for command, default in (("embed", []), ("cover", ["--alpha", "0.5"])):
        assert main([command, "--input", path, *default]) == 0
        expected = capsys.readouterr().out
        assert main([command, "--input", nulled]) == 0
        assert capsys.readouterr().out == expected


def test_unwritable_output_is_an_input_error(tmp_path, capsys, embed_input):
    # as an unreadable --input is: exit 1 and an InputError, no traceback
    check = _write(tmp_path, "m.json", {"dist": [[0, 1], [1, 0]]})
    out = str(tmp_path / "missing" / "out.json")
    for argv in (["check-metric", "--input", check],
                 ["embed", "--input", embed_input[0]]):
        assert main([*argv, "--output", out]) == 1
        assert _stderr_payload(capsys)["error"] == "InputError"


def _overflowing_input(tmp_path):
    """An embed input whose sides measure finite constants but whose cross
    distances of 1e154 overflow the full image's squared distances: its
    AuditViolation holds measured = inf against a finite bound."""
    big = 1e154
    return _write(tmp_path, "huge.json", {
        "space": {"dist": [[0, 1, big], [1, 0, big - 1], [big, big - 1, 0]]},
        "partition": {"a": [0, 1], "b": [2]},
        "phi_a": {"points": [[0.0], [1.0]]},
        "phi_b": {"points": [[big]]},
    })


def test_side_whose_constant_overflows_is_an_input_error(tmp_path, capsys):
    # side A's squared distance of 1e400 makes its expansion, and so d_a,
    # inf: it failed the audit as inf against inf, exit 2
    big = 1e200
    path = _write(tmp_path, "huge_side.json", {
        "space": {"dist": [[0, big, big], [big, 0, big], [big, big, 0]]},
        "partition": {"a": [0, 1], "b": [2]},
        "phi_a": {"points": [[0.0], [big]]},
        "phi_b": {"points": [[0.0]]},
    })
    assert main(["embed", "--input", path]) == 1
    _refused_as_input_error(capsys)


def test_unwritable_output_keeps_the_audit_failure(tmp_path, capsys):
    # the audit failure comes first and keeps exit code 2
    out = str(tmp_path / "missing" / "out.json")
    assert main(["embed", "--input", _overflowing_input(tmp_path),
                 "--output", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and err[2].startswith("runtime")
    assert json.loads(err[0])["error"] == "AuditViolation"
    assert json.loads(err[1])["error"] == "InputError"


def test_non_finite_audit_values_end_in_one_error_line(tmp_path, capsys):
    path = _overflowing_input(tmp_path)
    out_file = tmp_path / "huge.out.json"
    assert main(["embed", "--input", path, "--output", str(out_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[1].startswith("runtime")
    payload = json.loads(err[0])
    assert payload["error"] == "AuditViolation"
    assert payload["witness"]["measured"] == "inf"
    assert math.isfinite(payload["witness"]["bound"])
    dumped = json.loads(out_file.read_text())
    assert dumped["error"] == payload
    assert {e["slack"] for e in dumped["audit"] if not e["ok"]} \
        == {"-inf", "nan"}


def test_memory_error_fails_by_name(tmp_path, capsys, monkeypatch):
    # memory pressure is neither malformed input (1) nor a failed
    # certificate (2): it exits 3 with the usual JSON error line
    def exhausted(args):
        raise MemoryError("Unable to allocate 3.7 GiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "check-metric", exhausted)
    path = _write(tmp_path, "m.json", {"dist": [[0, 1], [1, 0]]})
    assert main(["check-metric", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2 and err[1].startswith("runtime")
    payload = json.loads(err[0])
    assert payload["error"] == "OutOfMemory"
    assert "3.7 GiB" in payload["message"]


def test_runtime_goes_to_stderr_only(tmp_path, capsys):
    path = _write(tmp_path, "m.json", {"dist": [[0, 2], [2, 0]]})
    assert main(["check-metric", "--input", path]) == 0
    captured = capsys.readouterr()
    assert "runtime" not in captured.out
    assert "runtime" in captured.err


def test_console_script_entry_point(tmp_path, src_env):
    path = _write(tmp_path, "m.json", {"dist": [[0, 1], [1, 0]]})
    proc = subprocess.run(
        [sys.executable, "-m", "metric_union.cli"],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 1                      # no subcommand
    err = json.loads(proc.stderr.splitlines()[0])
    assert "command" in err["message"]
    proc = subprocess.run(
        ["metric-union", "check-metric", "--input", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
