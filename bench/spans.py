"""Spans around calls into the package's layers, recorded from outside it.

In a traced run the module attributes through which one layer calls
another (``union_embed.extend_sequential``, ``glue.embed_union``,
``cli.parse_space`` and so on) are replaced by wrappers that time each
call, and are restored afterwards.  No file of the package changes, and an
untraced run never installs a wrapper.

Spans are kept in memory as (label, start, end, parent) records; a layer's
self time is its duration minus the part covered by its child spans.
"""

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span label): every call site one layer uses to reach
# another.  Several attributes share a label when they reach the same layer
# function through different modules.
PATCHES = (
    ("union_embed", "build_psi", "union_embed.psi"),
    ("union_embed", "build_cover", "cover.build"),
    ("union_embed", "extend_sequential", "kirszbraun.extend"),
    ("union_embed", "distortion_of", "metric.distortion"),
    ("union_embed", "direct_sum", "linalg.direct_sum"),
    ("glue", "embed_union", "union_embed.embed"),
    ("glue", "validate_metric", "metric.validate"),
    ("glue", "build_partition", "metric.partition"),
    ("glue", "distortion_of", "metric.distortion"),
    ("cli", "load_json", "jsonio.load"),
    ("cli", "parse_space", "jsonio.parse"),
    ("cli", "parse_partition", "jsonio.parse"),
    ("cli", "parse_cloud", "jsonio.parse"),
    ("cli", "canonical_dumps", "jsonio.dumps"),
    ("cli", "embed_union", "union_embed.embed"),
    ("cli", "distortion_of", "metric.distortion"),
    ("cli", "validate_metric", "metric.validate"),
    ("cli", "mds_isometric_embed", "linalg.mds"),
    ("jsonio", "validate_metric", "metric.validate"),
    ("jsonio", "build_partition", "metric.partition"),
    ("lower_bound", "validate_metric", "metric.validate"),
    ("lower_bound", "build_partition", "metric.partition"),
    ("lower_bound", "measure_delta", "lower_bound.measure_delta"),
    ("lower_bound", "sym_eigen", "linalg.eigen"),
    ("linalg", "sym_eigen", "linalg.eigen"),
    ("instances", "shortest_path_closure", "instances.closure"),
    ("instances", "validate_metric", "metric.validate"),
    ("instances", "build_partition", "metric.partition"),
)


def _count_extension(counts, args, result):
    partial_map, xs = args[0], args[1]
    counts["kirszbraun.placements"] = (
        counts.get("kirszbraun.placements", 0) + xs.m)
    counts["kirszbraun.map_size_max"] = max(
        counts.get("kirszbraun.map_size_max", 0), partial_map.m + xs.m)


def _count_cover(counts, args, result):
    counts["cover.points"] = (counts.get("cover.points", 0)
                              + int(result.cover_idx.size))


def _count_validate(counts, args, result):
    counts["metric.validate_points"] = (
        counts.get("metric.validate_points", 0) + result.n)


# work counts read off a call's arguments or result, per span label
_COUNTERS = {
    "kirszbraun.extend": _count_extension,
    "cover.build": _count_cover,
    "metric.validate": _count_validate,
}


class Tracer:
    """Spans and work counts of one traced run."""

    def __init__(self):
        self.spans = []   # [label, start, end, parent index or None]
        self.counts = {}
        self._open = []

    def call(self, label, fn, /, *args, **kwargs):
        # label and fn are positional-only so that a wrapped function's
        # own keywords (build_psi takes ``name=``) pass through untouched
        record = [label, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            record[2] = time.perf_counter()
        counter = _COUNTERS.get(label)
        if counter is not None:
            counter(self.counts, args, result)
        return result

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def totals(self):
        """Per label: (total seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for k, (label, start, end, _) in enumerate(self.spans):
            tot, own, calls = out.get(label, (0.0, 0.0, 0))
            out[label] = (tot + end - start, own + end - start - child[k],
                          calls + 1)
        return out

    def roots(self, label):
        """(duration, duration covered by direct children) per root span
        with the given label, in call order."""
        covered = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + end - start
        return [(end - start, covered.get(k, 0.0))
                for k, (lab, start, end, parent) in enumerate(self.spans)
                if lab == label and parent is None]


@contextmanager
def patched(tracer):
    """Route every call site in PATCHES through ``tracer`` while active."""
    saved = []
    try:
        for module_name, attr, label in PATCHES:
            module = importlib.import_module(f"metric_union.{module_name}")
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, label, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrap(tracer, label, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(label, fn, *args, **kwargs)
    return wrapper
