"""Benchmark for metric-union: four workloads, timed from outside the package.

One workload per process:

    python3 bench/run.py --workload battery --seed 0 --seconds 10 --trace 0

builds the workload's inputs from the seed (set-up, repeated and timed),
then runs whole passes over its ops until ``--seconds`` have elapsed.
Every op's result is checked independently and fingerprinted outside the
timed region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every op twice per pass, untraced and traced in alternating order,
and reports per-layer metrics from the traced copies.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is the full record: environment, failures by error
type, fingerprints, the negative control and workload facts.

All four workloads, untraced and traced, each in a fresh process:

    python3 bench/run.py --all --seed 0 [--out FILE]

prints every metric by name and unit and, at seed 0, the cross-check
against the recorded baseline in bench/baseline.json.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("battery", "large", "spectral", "glue")
# set-up repeats: at least 3, and more while they take under 2 s in all
SETUP_REPEATS = (3, 15)
SETUP_BUDGET_S = 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "METRIC_UNION_THREADS")
# every family of audit entry an embedding records (name's last part)
AUDIT_FAMILIES = (
    "away_upper", "home_lower", "home_upper", "cross_upper", "cross_lower",
    "g_lip", "side_a_sq", "side_b_sq", "cross_sq", "noncontract",
    "expansion", "headline_consistent", "dominates_phi_a",
    "dominates_phi_b", "delta_lip_a", "delta_lip_b", "delta_cross_exact",
    "claim_case_bound", "claim_dominates")

# The package comes from this checkout's src/ and nowhere else; without
# it the benchmark reports why and exits non-zero, printing no result.
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import metric_union
    from metric_union import MetricUnionError, canonical_dumps

    import workloads
    from checks import slack_minima
    from spans import Tracer, patched
    from workloads import OpFailed, Untraced, negative_ops
except ImportError as exc:
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None


class OpStats:
    """One op across passes: latencies, outcome, fingerprint, verdict."""

    def __init__(self):
        self.times = []
        self.traced_times = []
        self.error = None
        self.fingerprint = None
        self.verdict = None


class Run:
    """Outcomes of a sequence of passes over one list of ops."""

    def __init__(self, ops):
        self.ops = ops
        self.stats = [OpStats() for _ in ops]
        self.passes = 0
        self.wrong = []            # results that failed the check
        self.unexpected = []       # errors that are not the library's
        self.nondeterministic = []
        self.trace_mismatch = []


def _fingerprint(op, result, error):
    text = (f"error:{error}\n" if error is not None
            else canonical_dumps(op.canon(result)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _execute(op, tr):
    """Run one op; returns (seconds, result, error name)."""
    t0 = time.perf_counter()
    try:
        result = tr.call("bench.op", op.run, tr)
        error = None
    except MetricUnionError as exc:
        result, error = None, type(exc).__name__
    except OpFailed as exc:
        result, error = None, exc.error
    except Exception as exc:  # noqa: BLE001 - the harness must keep going
        traceback.print_exc(file=sys.stderr)
        result, error = None, f"unexpected:{type(exc).__name__}"
    return time.perf_counter() - t0, result, error


def _settle(run, k, result, error, first):
    """Check (first pass) or compare (later passes) one op's outcome."""
    op, st = run.ops[k], run.stats[k]
    fp = _fingerprint(op, result, error)
    if first:
        st.fingerprint = fp
        st.error = error
        if error is not None and error.startswith("unexpected:"):
            run.unexpected.append(op.name)
        if error is None:
            st.verdict = op.check(result)
            if st.verdict.problems:
                st.error = "CheckFailed"
                run.wrong.append({"op": op.name,
                                  "problems": st.verdict.problems})
    elif fp != st.fingerprint:
        run.nondeterministic.append(op.name)
    return fp


def run_passes(ops, seconds, tracer=None):
    """Whole passes until ``seconds`` have elapsed (at least one).

    With a tracer every op runs twice per pass, untraced and traced, the
    order alternating, and both copies must give the same fingerprint.
    """
    plain = Untraced()
    run = Run(ops)
    t0 = time.perf_counter()
    while run.passes == 0 or time.perf_counter() - t0 < seconds:
        first = run.passes == 0
        for k, op in enumerate(ops):
            if tracer is None:
                dt, result, error = _execute(op, plain)
                run.stats[k].times.append(dt)
                _settle(run, k, result, error, first)
                continue
            outcomes = {}
            for traced in ((False, True) if (run.passes + k) % 2 == 0
                           else (True, False)):
                if traced:
                    with patched(tracer):
                        outcomes[traced] = _execute(op, tracer)
                else:
                    outcomes[traced] = _execute(op, plain)
            run.stats[k].times.append(outcomes[False][0])
            run.stats[k].traced_times.append(outcomes[True][0])
            fp = _settle(run, k, *outcomes[False][1:], first)
            if _fingerprint(op, *outcomes[True][1:]) != fp:
                run.trace_mismatch.append(op.name)
        run.passes += 1
    return run


def _failures(run):
    out = {}
    for st in run.stats:
        if st.error is not None:
            out[st.error] = out.get(st.error, 0) + run.passes
    return out


def negative_control(seed):
    """Known-bad ops must be counted as failed without stopping the run."""
    run = run_passes(negative_ops(seed), 0.0)
    failures = _failures(run)
    ok = failures == {"AuditViolation": 1, "CheckFailed": 1}
    return {"ok": ok, "attempted": len(run.ops), "failures": failures,
            "caught": [w["problems"][0] for w in run.wrong]}


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    out = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
           "loadavg_1m_start": os.getloadavg()[0],
           "git_sha": None, "git_dirty": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    if (ROOT / ".git").exists():
        env["git_sha"] = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        env["git_dirty"] = None if status is None else bool(status)
    return env


def warm_up():
    """The first LAPACK calls of a process can take most of a second while
    the library starts; pay that before anything is timed."""
    a = np.random.default_rng(0).random((96, 96))
    m = a @ a.T + 96.0 * np.eye(96)
    for size in (8, 31, 96):
        np.linalg.eigh(m[:size, :size])
        np.linalg.solve(np.linalg.cholesky(m[:size, :size]), a[:size])


def _start_interpreter():
    """A fresh interpreter importing the package: the user's start-up."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import metric_union"], check=True, timeout=120)


def _percentile_tail(latencies):
    """Highest percentile with at least ten samples beyond it, else max."""
    lat = sorted(latencies)
    if len(lat) > 10:
        return lat[-11], f"p{100.0 * (len(lat) - 10) / len(lat):.4g}"
    return lat[-1], "max"


def end_to_end(run, setup_times):
    ok = [(op, st) for op, st in zip(run.ops, run.stats) if st.error is None]
    timed = sum(sum(st.times) for st in run.stats)
    points = sum(op.points for op, _ in ok) * run.passes
    latencies = [statistics.median(st.times) for _, st in ok] \
        or [statistics.median(st.times) for st in run.stats]
    tail, tail_label = _percentile_tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "points_per_s": points / timed,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "distortion_share_mean": statistics.fmean(
            [st.verdict.distortion / st.verdict.ceiling for _, st in ok]
            or [math.inf]),
    }
    facts = {"distortion_max": max((st.verdict.distortion for _, st in ok),
                                   default=math.inf),
             "op_tail_percentile": tail_label,
             "latency_samples": len(latencies),
             "setup_runs_s": setup_times}
    return metrics, facts


def per_layer(run, tracer, setup_tracer, setup_s):
    """Per-layer metrics of a traced run.

    A layer's time is reported as its share of the traced op time (of the
    set-up time for the generators), so a layer a workload never reaches
    reads 0 as a share rather than as a time; ``bench.op_s`` and
    ``bench.setup_s`` convert shares back to seconds.  Counts are exact,
    per pass.
    """
    per_pass = 1.0 / run.passes
    tot = tracer.totals()
    setup = setup_tracer.totals()
    roots = tracer.roots("bench.op")
    op_s = sum(d for d, _ in roots)

    def share(label, own=False):
        t = tot.get(label)
        return (t[1] if own else t[0]) / op_s if t else 0.0

    def calls(label):
        return tot.get(label, (0.0, 0.0, 0))[2] * per_pass

    def count(name):
        return tracer.counts.get(name, 0) * per_pass

    def setup_share(label):
        return setup.get(label, (0.0,))[0] / setup_s

    audits = [row for st in run.stats if st.verdict is not None
              for row in st.verdict.audit]
    slack = slack_minima(audits)
    splits = [st.verdict.extra for st in run.stats
              if st.verdict is not None and "delta_star" in st.verdict.extra]
    top = max(splits, key=lambda f: f["n"], default={})
    extend_s = tot.get("kirszbraun.extend", (0.0,))[0]
    untraced = sum(sum(st.times) for st in run.stats)
    traced = sum(sum(st.traced_times) for st in run.stats)
    metrics = {
        "instances.union_instance_frac":
            setup_share("instances.union_instance"),
        "instances.closure_frac": setup_share("instances.closure"),
        "metric.validate_frac": share("metric.validate"),
        "metric.validate_calls": calls("metric.validate"),
        "metric.validate_points": count("metric.validate_points"),
        "metric.distortion_frac": share("metric.distortion"),
        "metric.distortion_calls": calls("metric.distortion"),
        "metric.partition_frac": share("metric.partition"),
        "cover.build_frac": share("cover.build"),
        "cover.points": count("cover.points"),
        "kirszbraun.extend_frac": share("kirszbraun.extend"),
        "kirszbraun.extend_calls": calls("kirszbraun.extend"),
        "kirszbraun.placements": count("kirszbraun.placements"),
        "kirszbraun.placements_per_s":
            tracer.counts.get("kirszbraun.placements", 0) / extend_s
            if extend_s else 0.0,
        "kirszbraun.map_size_max":
            tracer.counts.get("kirszbraun.map_size_max", 0),
        "union_embed.embed_frac": share("union_embed.embed"),
        "union_embed.psi_frac": share("union_embed.psi"),
        "union_embed.psi_self_frac": share("union_embed.psi", own=True),
        "union_embed.full_self_frac": share("union_embed.embed", own=True),
        "union_embed.audit_entries": float(len(audits)),
        "linalg.eigen_frac": share("linalg.eigen"),
        "linalg.eigen_calls": calls("linalg.eigen"),
        "linalg.mds_frac": share("linalg.mds"),
        "linalg.direct_sum_frac": share("linalg.direct_sum"),
        "lower_bound.sample_split_frac": share("lower_bound.sample_split"),
        "lower_bound.attempts": count("lower_bound.attempts"),
        "lower_bound.measure_delta_frac": share("lower_bound.measure_delta"),
        "lower_bound.measure_delta_calls":
            calls("lower_bound.measure_delta"),
        "lower_bound.build_123_frac": share("lower_bound.build_123"),
        "lower_bound.ratio_check_frac": share("lower_bound.ratio_check"),
        "lower_bound.delta_star": top.get("delta_star", 0.0),
        "lower_bound.lb_certified": top.get("lb_certified", 0.0),
        "glue.extend_frac": share("glue.extend"),
        "glue.self_frac": share("glue.extend", own=True),
        "glue.pairs": count("glue.pairs"),
        "glue.points": count("glue.points"),
        "jsonio.load_frac": share("jsonio.load"),
        "jsonio.parse_self_frac": share("jsonio.parse", own=True),
        "jsonio.dumps_frac": share("jsonio.dumps"),
        "cli.self_frac": share("cli.main", own=True),
        "bench.op_s": op_s * per_pass,
        "bench.setup_s": setup_s,
        "bench.trace_overhead_frac": traced / untraced - 1.0,
    }
    for family in AUDIT_FAMILIES:
        metrics[f"union_embed.slack_min.{family}"] = slack.get(family, 0.0)
    covered = sum(c for _, c in roots)
    facts = {"unattributed_frac": (op_s - covered) / op_s,
             "untraced_op_s": untraced * per_pass,
             "layer_s": {label: [t * per_pass, own * per_pass, n * per_pass]
                         for label, (t, own, n) in sorted(tot.items())},
             "audit_families_seen": sorted(slack)}
    return metrics, facts


def _declared(spec, key, values):
    """Metric values keyed as declared in BENCHMARK.json, with units."""
    names = [m["name"] for m in spec[key]]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"metric names disagree with BENCHMARK.json "
                         f"{key}: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec[key]}


def run_workload(spec, name, seed, seconds, trace):
    env = environment()
    warm_up()
    negative = negative_control(seed)
    builder = workloads.WORKLOADS[name]
    setup_tracer = Tracer()
    setup_times = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        least, most = (1, 1) if trace else SETUP_REPEATS
        while len(setup_times) < least or (
                len(setup_times) < most
                and sum(setup_times) < SETUP_BUDGET_S):
            t0 = time.perf_counter()
            _start_interpreter()
            if trace:
                with patched(setup_tracer):
                    ops = builder(seed, setup_tracer, Path(tmp))
            else:
                ops = builder(seed, workloads.Untraced(), Path(tmp))
            setup_times.append(time.perf_counter() - t0)
        tracer = Tracer() if trace else None
        run = run_passes(ops, seconds, tracer)
    if trace:
        values, facts = per_layer(run, tracer, setup_tracer,
                                  sum(setup_times))
        metrics = _declared(spec, "per_layer", values)
    else:
        values, facts = end_to_end(run, setup_times)
        metrics = _declared(spec, "end_to_end", values)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = len(run.ops) * run.passes
    failures = _failures(run)
    failed = sum(failures.values())
    correct = not (run.wrong or run.unexpected or run.nondeterministic
                   or run.trace_mismatch) and negative["ok"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": run.passes, "ops_per_pass": len(run.ops),
        "fail_frac": failed / attempted, "failures": failures,
        "fingerprint": hashlib.sha256("".join(
            st.fingerprint for st in run.stats).encode()).hexdigest(),
        "op_fingerprints": {op.name: st.fingerprint
                            for op, st in zip(run.ops, run.stats)},
        "results": {op.name: ({"error": st.error} if st.error
                              else st.verdict.extra)
                    for op, st in zip(run.ops, run.stats)
                    if st.error or st.verdict.extra},
        "wrong_results": run.wrong, "unexpected_errors": run.unexpected,
        "nondeterministic": run.nondeterministic,
        "trace_mismatch": run.trace_mismatch,
        "negative_control": negative, "facts": facts, "env": env,
    }
    for key, m in metrics.items():
        print(f"{name:9s} {key:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _child(name, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited {out.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _cross_check(reports):
    """Seed-0 figures against the values recorded in bench/baseline.json."""
    with open(BENCH / "baseline.json", encoding="utf-8") as fh:
        expect = json.load(fh)["seed0_cross_check"]
    battery = reports["battery"]
    spectral = reports["spectral"]
    top = spectral["untraced"][0]["results"].get("spectral/n=256", {})
    got = {
        "battery.kirszbraun.placements": battery["traced"][1]["metrics"]
        ["kirszbraun.placements"]["value"],
        "battery.distortion_max":
            battery["untraced"][0]["facts"]["distortion_max"],
        "spectral.n256.delta_star": top.get("delta_star"),
        "spectral.n256.lb_certified": top.get("lb_certified"),
        "spectral.n256.attempts": top.get("attempts"),
        "spectral.n16.error": spectral["untraced"][0]["results"]
        .get("spectral/n=16", {}).get("error"),
        "spectral.fail_frac": spectral["untraced"][0]["fail_frac"],
    }
    rows = []
    for key, want in expect.items():
        have = got[key]
        if isinstance(want, str):
            ok = have == want
        else:
            ok = have is not None and abs(have - want) <= 5e-5 * abs(want)
        rows.append({"check": key, "expected": want, "got": have, "ok": ok})
    return rows


def run_all(seed, seconds, out_path):
    reports = {}
    good = True
    for name in WORKLOAD_NAMES:
        reports[name] = {"untraced": _child(name, seed, seconds, 0),
                         "traced": _child(name, seed, seconds, 1)}
    print(f"metric-union benchmark, seed {seed}, {seconds} s per run")
    for name, rep in reports.items():
        rec, res = rep["untraced"]
        trec, tres = rep["traced"]
        same = rec["fingerprint"] == trec["fingerprint"]
        good &= res["correct"] and tres["correct"] and same
        print(f"\n{name}: correct {res['correct']}/{tres['correct']}, "
              f"{res['attempted']} ops in {rec['passes']} passes, "
              f"fail_frac {rec['fail_frac']:.4g} {rec['failures']}, "
              f"fingerprint {rec['fingerprint'][:16]} "
              f"({'equal' if same else 'DIFFERS'} when traced)")
        for key, m in res["metrics"].items():
            note = (f"  [{rec['facts']['op_tail_percentile']} of "
                    f"{rec['facts']['latency_samples']} op latencies]"
                    if key == "op_tail_s" else "")
            print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}{note}")
        print(f"  traced: spans leave {trec['facts']['unattributed_frac']:.3%}"
              f" of op time unattributed")
        for key, m in tres["metrics"].items():
            if m["value"]:
                print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
    env = reports["battery"]["untraced"][0]["env"]
    print(f"\nenv: {json.dumps(env, sort_keys=True)}")
    summary = {"seed": seed, "seconds": seconds, "reports": reports}
    if seed == 0:
        rows = _cross_check(reports)
        summary["cross_check"] = rows
        print("\nseed-0 cross-check against bench/baseline.json:")
        for r in rows:
            print(f"  {'ok ' if r['ok'] else 'MISS'} {r['check']}: "
                  f"expected {r['expected']}, got {r['got']}")
            good &= r["ok"]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if good else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"cannot read the benchmark's definition: {exc}",
              file=sys.stderr)
        return 2
    if IMPORT_ERROR is not None:
        print(f"cannot import the package from {SRC}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if not Path(metric_union.__file__).resolve().is_relative_to(SRC):
        print(f"metric_union was imported from {metric_union.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, args.out)
    return run_workload(spec, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
