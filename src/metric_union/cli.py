"""Command-line interface: JSON in, certified JSON reports out.

Subcommands: check-metric, embed, cover, lowerbound, glue, selftest.
Reports go to --output when given, else stdout; timing goes to stderr so
stdout stays byte-deterministic (floats are formatted with 17 significant
digits and keys are sorted).  Only lowerbound and selftest draw random
numbers, and they take --seed; the other commands are deterministic.
embed hands --alpha on to ``embed_union``, which measures each side's d.

Exit codes: 0 success, 1 malformed input, 2 a certified property failed
during the run (for audit failures the report is still written), 3 the
run ran out of memory (``MemoryError``, reported as OutOfMemory).
"""

import argparse
import math
import sys
import time

import numpy as np

from .cover import build_cover
from .errors import (AuditViolation, CertificateViolation,
                     CollapsedPairError, CoverageError, EmptySideError,
                     InconsistentDuplicate, InputDistortionError, InputError,
                     LengthMismatchError, MetricUnionError,
                     MetricValidationError, NotEuclidean, OutOfMemory)
from .jsonio import (canonical_dumps, load_json, parse_cloud, parse_glue,
                     parse_partition, parse_space, to_jsonable)
from .glue import external_extend
from .linalg import mds_best_effort, mds_isometric_embed
from .lower_bound import (_ratio_window, build_123_metric,
                          certified_lower_bound, choose_n_for_epsilon,
                          ratio_check, sample_split)
from .metric import distortion_of, validate_metric
from .union_embed import embed_union

__all__ = ["main"]

# errors blamed on what the user handed us, not on the computation
_INPUT_ERRORS = (InputError, MetricValidationError, CoverageError,
                 EmptySideError, CollapsedPairError, NotEuclidean,
                 LengthMismatchError, InconsistentDuplicate,
                 InputDistortionError)


class _UsageError(InputError):
    pass


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1,
    and that reads a negative float literal after an option (-1e-3, -inf)
    as its value: argparse takes only -1 and -0.5 as numbers and the rest
    as option flags, while no option of this CLI looks like a number."""

    def error(self, message):
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for k in range(len(args) - 1, 0, -1):
            flag, value = args[k - 1], args[k]
            if (flag.startswith("--") and "=" not in flag
                    and value.startswith("-") and _is_number(value)):
                args[k - 1:k + 1] = [f"{flag}={value}"]
        return super().parse_known_args(args, namespace)


def _seed(text):
    """--seed: an integer in [0, 2**64), the range every stream accepts."""
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"seed must lie in [0, 2**64), got {value}")
    return value


def _finite_or_text(value):
    """A jsonable structure with each non-finite float written as "inf",
    "-inf" or "nan": error output must serialize whatever the failure."""
    if isinstance(value, dict):
        return {k: _finite_or_text(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_text(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _error_payload(exc):
    data = {"error": type(exc).__name__, "message": str(exc)}
    witness = {}
    for key, val in vars(exc).items():
        if key == "entries":
            continue
        if key == "violations":
            witness["violations"] = [str(v) for v in val[:20]]
            continue
        try:
            witness[key] = to_jsonable(val)
        except MetricUnionError:
            witness[key] = repr(val)
    if witness:
        data["witness"] = witness
    return _finite_or_text(data)


def _write_report(obj, output):
    text = canonical_dumps(obj)
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:   # as load_json maps an unreadable input
        raise InputError(f"cannot write {output}: {exc}") from None


def _side_space(X, idx):
    return validate_metric(X.sub(idx))


def cmd_check_metric(args):
    X = parse_space(load_json(args.input))
    return {"ok": True, "n": X.n, "labels": list(X.labels)}


def _load_space_partition(obj):
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    if "space" not in obj or "partition" not in obj:
        raise InputError("input needs 'space' and 'partition' fields")
    X = parse_space(obj["space"])
    P = parse_partition(obj["partition"], X)
    return X, P


def cmd_embed(args):
    obj = load_json(args.input)
    X, P = _load_space_partition(obj)
    phi_a = parse_cloud(obj["phi_a"], "phi_a") if "phi_a" in obj \
        else mds_isometric_embed(_side_space(X, P.idx_a))
    phi_b = parse_cloud(obj["phi_b"], "phi_b") if "phi_b" in obj \
        else mds_isometric_embed(_side_space(X, P.idx_b))
    alpha = args.alpha if args.alpha is not None else obj.get("alpha")
    emb = embed_union(X, P, phi_a, phi_b, tol=args.tol, alpha=alpha)
    full = emb.as_dict()
    return {
        "embedding": {"dim": full["dim"], "points": full["points"]},
        "report": full["report"],
        "audit": full["audit"],
        "params": full["params"],
        "scale_a": full["scale_a"],
        "scale_b": full["scale_b"],
    }


def cmd_cover(args):
    obj = load_json(args.input)
    X, P = _load_space_partition(obj)
    alpha = args.alpha if args.alpha is not None else obj.get("alpha")
    # verifies the cover and lip_f; a JSON null means the default 1/2
    C = build_cover(X, P, 0.5 if alpha is None else alpha)
    return {
        "alpha": C.alpha,
        "cover_idx": C.cover_idx,
        "nearest": C.nearest,
        "lip_f": C.lip_f,
        "lip_bound": C.lip_bound,
        "cover_size": int(C.cover_idx.size),
    }


def cmd_lowerbound(args):
    report = {"seed": args.seed}
    if args.epsilon is None:
        split = sample_split(args.n, args.seed)
    else:   # the chosen n's first sample is sample_split(n, seed)
        _, median_delta, split = choose_n_for_epsilon(args.epsilon,
                                                      args.seed)
        report["epsilon"] = args.epsilon
        report["median_delta"] = median_delta

    bound = certified_lower_bound(split)
    X, _ = build_123_metric(split)
    images = mds_best_effort(X)
    measured = distortion_of(X, images).distortion
    if not measured >= bound - 1e-9:
        raise CertificateViolation("mds_distortion_above_bound", None,
                                   measured, bound)
    r1, r2 = ratio_check(split, images)
    lo, hi = _ratio_window(split.delta_star)

    report.update({
        "n": split.n,
        "attempts": split.attempts,
        "edges_e1": int(np.count_nonzero(split.mask)),
        "edges_e2": int(np.count_nonzero(~split.mask)),
        "delta_star": split.delta_star,
        "certified_bound": bound,
        "audits": [
            {"name": "mds_distortion_above_bound", "sense": "lower",
             "measured": measured, "bound": bound, "ok": True},
            {"name": "energy_ratio_e1_in_window", "sense": "range",
             "measured": r1, "lo": lo, "hi": hi, "ok": True},
            {"name": "energy_ratio_e2_in_window", "sense": "range",
             "measured": r2, "lo": lo, "hi": hi, "ok": True},
        ],
    })
    return report


def cmd_glue(args):
    G = parse_glue(load_json(args.input))
    ext = external_extend(G, tol=args.tol)
    return {
        "glued": {
            "n": ext.embedding.full.m,
            "n_u": G.u_points.m,
            "n_v": G.v_points.m,
            "n_pairs": int(G.n_pairs),
            "d_f": G.d_f,
            "v_scale": G.v_scale,
        },
        "f1": {"dim": ext.f1.dim, "points": ext.f1.points},
        "f2": {"dim": ext.f2.dim, "points": ext.f2.points},
        "distortions": ext.as_dict(),
        "audit": [e.as_dict() for e in ext.embedding.audit],
    }


def cmd_selftest(args):
    from .acceptance import run_selftest
    results, ok = run_selftest(seed=args.seed, out=sys.stdout)
    if args.output:
        _write_report({"ok": ok, "results": [r.as_dict() for r in results]},
                      args.output)
    return 0 if ok else 2


_COMMANDS = {
    "check-metric": cmd_check_metric,
    "embed": cmd_embed,
    "cover": cmd_cover,
    "lowerbound": cmd_lowerbound,
    "glue": cmd_glue,
    "selftest": cmd_selftest,
}


def _build_parser():
    parser = _Parser(prog="metric-union",
                     description="Certified Euclidean embeddings of "
                                 "two-sided metric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_input, **flags):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True)
        p.add_argument("--output", default=None)
        if flags.get("seed"):
            p.add_argument("--seed", type=_seed, default=0)
        if flags.get("alpha"):
            p.add_argument("--alpha", type=float, default=None)
        if flags.get("tol"):
            p.add_argument("--tol", type=float, default=1e-7)
        return p

    add("check-metric", True)
    add("embed", True, alpha=True, tol=True)
    add("cover", True, alpha=True)
    size = add("lowerbound", False, seed=True).add_mutually_exclusive_group(
        required=True)
    size.add_argument("--n", type=int, default=None)
    size.add_argument("--epsilon", type=float, default=None)
    add("glue", True, tol=True)
    add("selftest", False, seed=True)
    return parser


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        handler = _COMMANDS[args.command]
        result = handler(args)
        if isinstance(result, int):
            code = result
        else:
            _write_report(result, args.output)
            code = 0
    except (MetricUnionError, MemoryError) as exc:
        if isinstance(exc, MemoryError):   # named, not a bare traceback
            exc = OutOfMemory(str(exc))
        sys.stderr.write(canonical_dumps(_error_payload(exc)))
        code = (1 if isinstance(exc, _INPUT_ERRORS)
                else 3 if isinstance(exc, OutOfMemory) else 2)
        if isinstance(exc, AuditViolation) and exc.entries is not None \
                and getattr(args, "output", None):
            try:   # a failed write is reported after the audit failure
                _write_report(_finite_or_text(to_jsonable(
                    {"audit": [e.as_dict() for e in exc.entries],
                     "error": _error_payload(exc)})), args.output)
            except InputError as write_exc:
                sys.stderr.write(canonical_dumps(_error_payload(write_exc)))
    sys.stderr.write(f"runtime {time.perf_counter() - t0:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
