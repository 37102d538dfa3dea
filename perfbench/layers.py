"""The traced layer boundaries of vkg and the per-layer metrics built from them.

Only public entry points are wrapped.  Hot helpers such as ``vadd`` or
``dot`` run millions of times per query, and timing them would make the
tracing overhead swamp what it measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

# module -> wrapped functions, in the order the metrics are listed
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "linalg": ("rref", "nullspace", "invert"),
    "pbw": ("graded_basis", "component_size", "singular_kernel",
            "is_singular", "apply_string", "apply"),
    "vectors": ("build_v_n", "build_w_n", "build_w1_D", "build_w3_D4",
                "build_w1_B", "theta_image", "resolve_signs", "build_vE7"),
    "liealg": ("build_realization", "minimal_grading",
               "restricted_dual_coxeter"),
    "rootdata": ("build_root_system", "minimal_grading_data",
                 "classify_subsystem"),
    "collapsing": ("table1_audit", "table5_audit", "collapsed_level"),
    "conformal": ("kl_spectrum",),
    "serialize": ("state_to_json", "realization_to_json",
                  "root_system_to_json"),
}

SPAN_NAMES: Tuple[str, ...] = tuple(
    f"{module}.{fn}" for module, fns in ENTRY_POINTS.items() for fn in fns
)


def _rref_counts(args, kwargs, result):
    rows = [r for r in args[0] if r]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows),
            "pivots": len(result[1])}


# Counts computed at a span's boundary from its arguments and result.
BOUNDARY_COUNTS = {
    "linalg.rref": _rref_counts,
    "linalg.nullspace": lambda args, kwargs, result: {"kernel_dim": len(result)},
    "pbw.graded_basis": lambda args, kwargs, result: {"monomials": len(result)},
}

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
METRICS: List[Tuple[str, str, str]] = [("process.startup_s", "s", "lower")]
for _name in SPAN_NAMES:
    METRICS += [(f"{_name}.calls", "count", "lower"),
                (f"{_name}.self_s", "s", "lower")]
METRICS += [
    ("linalg.rref.rows", "count", "lower"),
    ("linalg.rref.nnz", "count", "lower"),
    ("linalg.rref.pivots", "count", "lower"),
    ("linalg.rref.pivot_ratio", "ratio", "higher"),
    ("linalg.nullspace.kernel_dim", "count", "higher"),
    ("pbw.graded_basis.monomials", "count", "lower"),
    ("pbw.singular_kernel.columns", "count", "lower"),
    ("liealg.build_realization.misses", "count", "lower"),
]

CACHED = ("liealg.build_realization", "rootdata.build_root_system")


def aggregate(traces: Iterable[dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the traces of one pass.

    Each trace is one query process, as written by the tracer, plus the
    ``spawn_ns`` at which the benchmark started that process.  Self time is
    a span's duration minus the durations of its direct children, which do
    not overlap because every query runs on one thread.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    counts: Dict[str, int] = {}
    startup_ns = misses = 0
    for trace in traces:
        spans = trace["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, span_counts) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            for key, n in (span_counts or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + n
            if (name == "pbw.graded_basis" and parent >= 0
                    and spans[parent][0] == "pbw.singular_kernel"):
                counts["pbw.singular_kernel.columns"] = (
                    counts.get("pbw.singular_kernel.columns", 0)
                    + span_counts["monomials"])
        main_start = next(s[1] for s in spans if s[0] == "cli.main")
        startup_ns += main_start - trace["spawn_ns"]
        misses += trace["cache"]["liealg.build_realization"][1]

    out: Dict[str, float] = {"process.startup_s": startup_ns / 1e9}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for key in ("linalg.rref.rows", "linalg.rref.nnz", "linalg.rref.pivots",
                "linalg.nullspace.kernel_dim", "pbw.graded_basis.monomials",
                "pbw.singular_kernel.columns"):
        out[key] = counts.get(key, 0)
    rows = out["linalg.rref.rows"]
    out["linalg.rref.pivot_ratio"] = out["linalg.rref.pivots"] / rows if rows else 0.0
    out["liealg.build_realization.misses"] = misses
    return out


def is_count(metric: str) -> bool:
    """Counts repeat exactly between runs of one seed; times do not."""
    return not metric.endswith("_s")
