"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import Runner, run_pass  # noqa: E402
from tracer import Tracer  # noqa: E402

# Quick queries that between them reach most layers.
QUICK = [q for q in workloads.PAPER_FAMILIES if "D:8" not in q.argv and "E7" not in q.argv]
QUICK += [q for q in workloads.queries("exceptional-tables", 0)
          if q.argv[0] in ("collapse", "kl", "weights") and "--audit" not in q.argv]


@pytest.fixture
def runner():
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        yield Runner(ROOT, tmp, time.perf_counter() + 600)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_counts_repeat_between_traced_runs(runner):
    expected = workloads.load_expected()
    first, second = (run_pass(runner, QUICK, expected, i, traced=True) for i in (0, 1))
    assert first.failures == [] and second.failures == []
    counts = [{k: v for k, v in p.layer_metrics.items() if layers.is_count(k)}
              for p in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(QUICK)
    for name in ("linalg.rref", "pbw.singular_kernel", "pbw.is_singular",
                 "vectors.build_w_n", "liealg.build_realization",
                 "rootdata.minimal_grading_data", "collapsing.collapsed_level",
                 "conformal.kl_spectrum", "serialize.state_to_json"):
        assert counts[0][f"{name}.calls"] > 0, name


def test_spans_account_for_every_call():
    """Every call of a wrapped function, by any path, is one span."""
    tracer = Tracer()
    tracer.install()
    cached = {name: tracer.originals[name] for name in layers.CACHED}
    watched = {fn.__code__: name for name, fn in tracer.originals.items()
               if name not in cached}
    watched.update({fn.__wrapped__.__code__: name for name, fn in cached.items()})
    seen = dict.fromkeys(layers.SPAN_NAMES, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen[watched[frame.f_code]] += 1

    from vkg import cli
    try:
        sys.setprofile(profile)
        for query in QUICK + [workloads.Query("audit", ("collapse", "--audit"))]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(query.argv)) == 0
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    spans = {name: 0 for name in layers.SPAN_NAMES}
    for span in tracer.spans:
        spans[span[0]] += 1
    stats = tracer.cache_stats()
    for name in layers.SPAN_NAMES:
        if name in cached:
            hits, misses = stats[name]
            assert spans[name] == hits + misses, name
            assert seen[name] == misses, name
        else:
            assert spans[name] == seen[name], name
    assert spans["collapsing.table5_audit"] == 1
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_self_time_subtracts_children():
    trace = {"spawn_ns": 0, "cache": {"liealg.build_realization": [0, 1]},
             "spans": [["cli.main", 10, 100, -1, None],
                       ["pbw.singular_kernel", 20, 80, 0, None],
                       ["pbw.graded_basis", 25, 35, 1, {"monomials": 7}],
                       ["linalg.rref", 40, 70, 1, {"rows": 4, "nnz": 9, "pivots": 3}]]}
    m = layers.aggregate([trace])
    assert m["process.startup_s"] == 10e-9
    assert m["cli.main.self_s"] == 30e-9
    assert m["pbw.singular_kernel.self_s"] == 20e-9
    assert m["pbw.singular_kernel.columns"] == 7
    assert m["linalg.rref.pivot_ratio"] == 0.75
    assert m["liealg.build_realization.misses"] == 1
    assert set(m) == {name for name, _, _ in layers.METRICS}


def test_queries_come_from_the_seed():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        assert workloads.queries(workload, 3) == workloads.queries(workload, 3)
        assert all(q.qid in expected for q in workloads.queries(workload, 3))
    levels = {q.level for seed in range(20)
              for q in workloads.queries("generic-levels", seed)}
    assert len(levels) > 20
    for seed in range(20):
        qs = workloads.queries("generic-levels", seed)
        assert len(qs) == len(workloads.GENERIC_COMPONENTS)
        assert all(q.level.denominator in workloads.DENOMINATORS for q in qs)


@pytest.mark.parametrize("k, h_dual, lacing, simple", [
    (Fraction(-2), 6, 1, False),          # D4 at -2: w1 is singular
    (Fraction(-6), 6, 1, False),          # critical level
    (Fraction(-11, 2), 6, 1, True),       # k + h = 1/2
    (Fraction(-5), 6, 1, True),           # k + h = 1
    (Fraction(-19, 4), 5, 2, True),       # B3: r(k + h) = 1/2
    (Fraction(-17, 4), 5, 2, False),      # B3: r(k + h) = 3/2
    (Fraction(-20, 3), 6, 1, True),       # negative: generic
])
def test_gorelik_kac(k, h_dual, lacing, simple):
    assert workloads.vacuum_module_is_simple(k, h_dual, lacing) is simple


def test_check_flags_wrong_answers():
    expected = workloads.load_expected()
    fixed = workloads.PAPER_FAMILIES[0]
    generic = workloads.queries("generic-levels", 0)[1]
    good = json.dumps({"level": str(generic.level), "kernel_dimension": 0, "vectors": [],
                       "component_dimension": expected[generic.qid]["component_dimension"]})
    assert workloads.check(generic, expected, 0, good.encode(), b"") is None
    bad = json.loads(good)
    bad["kernel_dimension"] = 1
    assert workloads.check(generic, expected, 0, json.dumps(bad).encode(), b"")
    assert workloads.check(fixed, expected, 0, b"wrong\n", b"")
    assert workloads.check(fixed, expected, 1, b"", b"")
    assert workloads.check(fixed, expected, 0, b"",
                           b"Traceback (most recent call last):\n")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it fails and prints no result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-families",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == b""
