"""Spans around the calls into each bckcodes module, recorded from outside.

`install()` replaces every public function of the package's modules, and
the `_kernels` entry points that other modules look up by attribute, with a
wrapper that records a span: name, start, end, parent span and op id.  A
function imported by name into another module (`filters` and `cli` import
`verify_axioms` that way) is replaced there as well, by identity, so no
call escapes its span.  A function missing from the package is skipped and
its metrics read zero.

`layer_metrics()` turns one pass's spans into the per-layer metrics.  A
self time is a span's duration minus the durations of its child spans;
only `cli.<subcommand>_s` and the `codegen.census*_s` times include their
children.
"""
from __future__ import annotations

import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "fileio", "posets", "embedding", "algebra", "filters", "codegen", "_kernels")
KERNEL_ENTRY_POINTS = (
    "bck_axiom_scan", "hilbert_axiom_scan", "bck_property_scan", "canonical_table",
    "theta_fixing_perms",
)
SUBCOMMANDS = ("census", "classify", "filters", "build", "verify", "props", "iso", "roundtrip", "hasse")
_INT64 = 8

# name -> unit, in report order
PER_LAYER = {
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "fileio.parse_s": "s",
    "fileio.serialize_s": "s",
    "posets.code_poset_s": "s",
    "posets.poset_to_bck_s": "s",
    "posets.hasse_s": "s",
    "embedding.embed_s": "s",
    "embedding.tail_check_s": "s",
    "algebra.verify_s": "s",
    "algebra.verify_calls": "count",
    "algebra.props_s": "s",
    "algebra.refine_s": "s",
    "algebra.iso_self_s": "s",
    "kernels.axiom_scan_s": "s",
    "kernels.axiom_scan_calls": "count",
    "kernels.axiom_cells": "count",
    "kernels.property_scan_s": "s",
    "kernels.canonical_s": "s",
    "kernels.canonical_calls": "count",
    "kernels.perms_tried": "count",
    "kernels.perm_table_s": "s",
    "kernels.computed_mb": "MB",
    "filters.classify_s": "s",
    "filters.all_filters_s": "s",
    "filters.maximal_filters_s": "s",
    "filters.filter_count": "count",
    "filters.maximal_count": "count",
    "codegen.census_s": "s",
    "codegen.census_exhaustive_s": "s",
    "codegen.census_sampled_s": "s",
    "codegen.self_s": "s",
    "codegen.cut_s": "s",
    "codegen.matrices": "count",
    "codegen.unique_orders": "count",
    "codegen.distinct_orders": "count",
    "codegen.classes": "count",
    "codegen.useful_ratio": "ratio",
    **{f"layer.{m.lstrip('_')}_s": "s" for m in MODULES},
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.traced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}
# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "kernels.perms_tried", "kernels.axiom_cells", "codegen.unique_orders",
    "codegen.distinct_orders", "filters.filter_count",
)


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus counts read off
    arguments and results at the span boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.orders: set[bytes] = set()

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(self, args, result, rec[2] - rec[1])
            return result

        return traced

    def in_census(self) -> bool:
        return any(self.spans[i][0] == "codegen.census" for i in self.stack)


def _computed(tracer: Tracer, nbytes: int) -> None:
    mb = nbytes / 2**20
    tracer.counts["kernels.computed_mb"] = max(tracer.counts["kernels.computed_mb"], mb)


def _note_axiom_scan(tracer, args, result, seconds):
    n = len(args[0])
    tracer.counts["kernels.axiom_cells"] += n**3
    _computed(tracer, n**3 * _INT64)


def _note_property_scan(tracer, args, result, seconds):
    _computed(tracer, len(args[0]) ** 3 * _INT64)


def _note_canonical(tracer, args, result, seconds):
    table, perms = args[0], args[1]
    k, n = perms.shape[0], len(table)
    tracer.counts["kernels.perms_tried"] += k
    _computed(tracer, k * n * n * _INT64)
    if tracer.in_census():
        tracer.counts["codegen.unique_orders"] += 1
        tracer.orders.add(hashlib.blake2b(table.tobytes(), digest_size=16).digest())


def _note_perm_table(tracer, args, result, seconds):
    perms = result[0]
    _computed(tracer, perms.size * _INT64)


def _note_census(tracer, args, result, seconds):
    mode = "exhaustive" if result.mode == "exhaustive" else "sampled"
    tracer.counts[f"codegen.census_{mode}_s"] += seconds
    tracer.counts["codegen.matrices"] += result.evaluated
    tracer.counts["codegen.classes"] += result.class_count


def _note_classify(tracer, args, result, seconds):
    tracer.counts["filters.filter_count"] += result.all_filter_count
    tracer.counts["filters.maximal_count"] += len(result.maximal_filters)


def _note_all(tracer, args, result, seconds):
    tracer.counts["filters.filter_count"] += len(result)


def _note_maximal(tracer, args, result, seconds):
    tracer.counts["filters.maximal_count"] += len(result)


NOTES = {
    "kernels.bck_axiom_scan": _note_axiom_scan,
    "kernels.hilbert_axiom_scan": _note_axiom_scan,
    "kernels.bck_property_scan": _note_property_scan,
    "kernels.canonical_table": _note_canonical,
    "kernels.theta_fixing_perms": _note_perm_table,
    "codegen.census": _note_census,
    "filters.classify": _note_classify,
    "filters.all_filters": _note_all,
    "filters.maximal_filters": _note_maximal,
}


def _targets(module) -> dict[str, object]:
    """Function attributes of a module that get a span."""
    if module.__name__.endswith("._kernels"):
        names = KERNEL_ENTRY_POINTS
    elif module.__name__.endswith(".cli"):
        names = ["run_command"] + [a for a in vars(module) if a.startswith("_cmd_")]
    else:
        names = [
            a for a, v in vars(module).items()
            if not a.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
        ]
    return {a: getattr(module, a) for a in names if callable(getattr(module, a, None))}


def install() -> Tracer:
    """Wrap the bckcodes functions in spans; returns the recording tracer."""
    tracer = Tracer()
    loaded = [m for k, m in list(sys.modules.items()) if k == "bckcodes" or k.startswith("bckcodes.")]
    for short in MODULES:
        module = sys.modules.get(f"bckcodes.{short}")
        if module is None:
            continue
        for attr, fn in _targets(module).items():
            name = f"{short.lstrip('_')}.{attr.removeprefix('_cmd_')}"
            wrapped = tracer.wrap(name, fn, NOTES.get(name))
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
    return tracer


def layer_metrics(spans: list[list], counts: dict[str, float], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose op loop took `wall` s."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, child):
        total[name] += end - start
        self_time[name] += end - start - inner
        calls[name] += 1

    def s(*names: str) -> float:
        return sum(self_time[n] for n in names)

    m = {f"cli.{sub}_s": total[f"cli.{sub}"] for sub in SUBCOMMANDS}
    m["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli."))
    m["cli.stdout_bytes"] = counts.get("cli.stdout_bytes", 0)
    m["fileio.parse_s"] = s("fileio.parse_code_file", "fileio.parse_algebra_file", "fileio.sniff_format")
    m["fileio.serialize_s"] = s("fileio.serialize_algebra", "fileio.serialize_code")
    m["posets.code_poset_s"] = s("posets.code_poset", "posets.domination_leq")
    m["posets.poset_to_bck_s"] = s("posets.poset_to_bck")
    m["posets.hasse_s"] = s("posets.hasse_covers")
    m["embedding.embed_s"] = s("embedding.embed_code", "embedding.extend_matrix")
    m["embedding.tail_check_s"] = s("embedding.tail_set_check")
    m["algebra.verify_s"] = s("algebra.verify_axioms")
    m["algebra.verify_calls"] = calls["algebra.verify_axioms"]
    m["algebra.props_s"] = s("algebra.bck_properties")
    m["algebra.refine_s"] = s("algebra.refine_colors")
    m["algebra.iso_self_s"] = s("algebra.are_isomorphic")
    m["kernels.axiom_scan_s"] = s("kernels.bck_axiom_scan", "kernels.hilbert_axiom_scan")
    m["kernels.axiom_scan_calls"] = calls["kernels.bck_axiom_scan"] + calls["kernels.hilbert_axiom_scan"]
    m["kernels.axiom_cells"] = counts.get("kernels.axiom_cells", 0)
    m["kernels.property_scan_s"] = s("kernels.bck_property_scan")
    m["kernels.canonical_s"] = s("kernels.canonical_table")
    m["kernels.canonical_calls"] = calls["kernels.canonical_table"]
    m["kernels.perms_tried"] = counts.get("kernels.perms_tried", 0)
    m["kernels.perm_table_s"] = s("kernels.theta_fixing_perms")
    m["kernels.computed_mb"] = counts.get("kernels.computed_mb", 0)
    m["filters.classify_s"] = s("filters.classify")
    m["filters.all_filters_s"] = s("filters.all_filters")
    m["filters.maximal_filters_s"] = s("filters.maximal_filters")
    m["filters.filter_count"] = counts.get("filters.filter_count", 0)
    m["filters.maximal_count"] = counts.get("filters.maximal_count", 0)
    m["codegen.census_s"] = total["codegen.census"]
    for mode in ("exhaustive", "sampled"):
        m[f"codegen.census_{mode}_s"] = counts.get(f"codegen.census_{mode}_s", 0.0)
    m["codegen.self_s"] = s("codegen.census")
    m["codegen.cut_s"] = s("codegen.cut_code")
    for key in ("matrices", "unique_orders", "distinct_orders", "classes"):
        m[f"codegen.{key}"] = counts.get(f"codegen.{key}", 0)
    orders = m["codegen.unique_orders"]
    m["codegen.useful_ratio"] = m["codegen.classes"] / orders if orders else 0.0
    attributed = 0.0
    for module in MODULES:
        layer = module.lstrip("_")
        m[f"layer.{layer}_s"] = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
        attributed += m[f"layer.{layer}_s"]
    m["trace.traced_wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed
    m["trace.spans"] = len(spans)
    return m
