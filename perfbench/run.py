#!/usr/bin/env python3
"""Closed-loop benchmark of `vkg` queries, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload generic-levels --seed 1 --seconds 35 --trace 0

One client sends the workload's queries one at a time.  Each query is a
fresh interpreter running the `vkg` console-script body with the generated
argv, and the next starts only after it exits.  Passes over the query list
repeat while another fits in ``--seconds`` (at least one), and every answer
is checked.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` each round runs an untraced pass and a pass under
``tracer.py``, and the last line reports the per-layer metrics, with the
tracing overhead in the record line before it.

Times are rescaled to a reference host speed.  A shared host runs the same
work up to twice as slowly for tens of seconds at a time, which no run
short enough to repeat can average away.  So the benchmark times a fixed
exact elimination of its own (the probe) on the CPU the queries run on:
before and after each query, and every ``PROBE_EVERY_S`` while it runs.
Each query's time is multiplied by ``PROBE_REF_S / p``, with p the mean CPU
time of those probes.  On a host where the probe takes ``PROBE_REF_S`` the
figures are plain seconds; the measured seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import layers
import workloads

HERE = Path(__file__).resolve().parent
# The body of the `vkg` console script that pyproject.toml installs.
VKG_MAIN = "import sys; from vkg.cli import main; sys.exit(main())"
SETUP_REPS = 11
# Every query must end by then, so the run ends well within 180 s.
HARD_LIMIT_S = 165.0
LOAD = "closed loop, one client: one query process at a time"
PROBE_REF_S = 0.010
# Probes while a query runs take about 2% of its CPU.
PROBE_EVERY_S = 0.5

_rng = random.Random(0)
_PROBE_ROWS = [
    {c: Fraction(_rng.randint(1, 9) * _rng.choice((-1, 1)), _rng.randint(1, 5))
     for c in _rng.sample(range(30), 5)}
    for _ in range(30)
]


def _eliminate(rows: List[Dict[int, Fraction]], ncols: int) -> int:
    work = [dict(r) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in work if col in r), None)
        if pivot is None:
            continue
        work.remove(pivot)
        rank += 1
        inv = 1 / pivot[col]
        for row in work:
            if col in row:
                factor = row[col] * inv
                for c, v in pivot.items():
                    new = row.get(c, 0) - factor * v
                    if new:
                        row[c] = new
                    else:
                        row.pop(c, None)
    return rank


def probe(reps: int = 3) -> float:
    """CPU seconds of the benchmark's own exact elimination, median of reps."""
    times = []
    for _ in range(reps):
        start = time.thread_time()
        _eliminate(_PROBE_ROWS, 30)
        times.append(time.thread_time() - start)
    return statistics.median(times)


class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float         # user + system time of the process
    rss_mb: float        # its max resident set size, MiB
    spawn_ns: int        # perf_counter_ns just before the spawn
    returncode: Optional[int]   # None when killed at the hard limit
    scale: float         # PROBE_REF_S / mean probe time around and during it


class Runner:
    """Spawns query processes with the checkout's ``src`` on the path."""

    def __init__(self, root: Path, tmp: Path, deadline: float):
        self.root, self.tmp, self.deadline = root, tmp, deadline
        # Drop settings that would change what vkg computes or how Python runs.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") and k != "VKG_CAP"}
        self.env["PYTHONPATH"] = str(root / "src")
        self._last_probe: Optional[float] = None

    def spawn(self, argv: List[str], stem: str,
              spans: Optional[Path] = None) -> Outcome:
        env = self.env if spans is None else dict(self.env, PERFBENCH_SPANS=str(spans))
        probes = [self._last_probe if self._last_probe is not None else probe()]
        with open(self.tmp / f"{stem}.out", "wb") as out, \
                open(self.tmp / f"{stem}.err", "wb") as err:
            spawn_ns = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=self.root)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = self.deadline - time.perf_counter()
                    if select.select([pidfd], [], [], max(0.0, min(left, PROBE_EVERY_S)))[0]:
                        break
                    if left <= PROBE_EVERY_S:
                        proc.kill()
                        break
                    probes.append(probe(reps=1))
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall_ns = time.perf_counter_ns() - spawn_ns
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._last_probe = probe()
        probes.append(self._last_probe)
        return Outcome(
            wall_ns / 1e9, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, spawn_ns,
            None if proc.returncode == -9 else proc.returncode,
            PROBE_REF_S / statistics.mean(probes),
        )

    def output(self, stem: str):
        return ((self.tmp / f"{stem}.out").read_bytes(),
                (self.tmp / f"{stem}.err").read_bytes())


class Pass(NamedTuple):
    outcomes: List[Outcome]     # one per query run, in query order
    failures: List[str]
    timed_out: bool
    layer_metrics: Optional[Dict[str, float]]


def run_pass(runner: Runner, queries, expected, index: int, traced: bool) -> Pass:
    outcomes = []
    for i, query in enumerate(queries):
        stem = f"p{index}{'t' if traced else 'u'}-{i}"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), *query.argv]
            spans = runner.tmp / f"{stem}.spans.json"
        else:
            argv, spans = [sys.executable, "-c", VKG_MAIN, *query.argv], None
        outcomes.append(runner.spawn(argv, stem, spans))
        if outcomes[-1].returncode is None:
            break

    failures = []
    traces = []
    for i, (query, outcome) in enumerate(zip(queries, outcomes)):
        stem = f"p{index}{'t' if traced else 'u'}-{i}"
        if outcome.returncode is None:
            failures.append(f"{query.qid}: killed at the {HARD_LIMIT_S:.0f} s limit")
            continue
        why = workloads.check(query, expected, outcome.returncode,
                              *runner.output(stem))
        if why:
            failures.append(f"{query.qid}: {why}")
        if traced:
            with open(runner.tmp / f"{stem}.spans.json", encoding="utf-8") as fh:
                trace = json.load(fh)
            trace["spawn_ns"] = outcome.spawn_ns
            traces.append(trace)
    failures += [f"{q.qid}: not run" for q in queries[len(outcomes):]]
    timed_out = outcomes[-1].returncode is None or len(outcomes) < len(queries)
    return Pass(outcomes, failures, timed_out,
                layers.aggregate(traces) if traced and not failures else None)


def summarize(passes: List[Pass]) -> Dict[str, float]:
    """Time and memory of the query list, from each query's median over passes."""
    per_query = [[p.outcomes[i] for p in passes if i < len(p.outcomes)]
                 for i in range(max(len(p.outcomes) for p in passes))]

    def total(value):
        return sum(statistics.median(value(o) for o in q) for q in per_query)

    return {
        "wall_s": total(lambda o: o.wall_s * o.scale),
        "cpu_s": total(lambda o: o.cpu_s * o.scale),
        "peak_rss_mb": max(statistics.median(o.rss_mb for o in q) for q in per_query),
        "measured_wall_s": total(lambda o: o.wall_s),
        "measured_cpu_s": total(lambda o: o.cpu_s),
    }


def measure_setup(runner: Runner) -> List[Outcome]:
    """Start an interpreter and import vkg.cli; the first start writes bytecode."""
    argv = [sys.executable, "-c", "import vkg.cli"]
    outcomes = []
    for rep in range(SETUP_REPS + 1):
        outcome = runner.spawn(argv, f"setup-{rep}")
        if outcome.returncode != 0:
            sys.exit("perfbench: cannot import vkg.cli from src/: "
                     + runner.output(f"setup-{rep}")[1].decode(errors="replace"))
        outcomes.append(outcome)
    return outcomes[1:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "vkg" / "cli.py").is_file():
        sys.exit("perfbench: run from the root of a vkg checkout (no src/vkg/cli.py here)")
    if not workloads.EXPECTED_PATH.is_file():
        sys.exit(f"perfbench: missing {workloads.EXPECTED_PATH.name}")
    expected = workloads.load_expected()
    queries = workloads.queries(args.workload, args.seed)
    # Queries and probes share one CPU (children inherit the affinity), so
    # the probe measures the speed the queries get.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    t0 = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, tmp, t0 + HARD_LIMIT_S)
        setup = measure_setup(runner)
        start = time.perf_counter()
        rounds = []
        while True:
            round_start = time.perf_counter()
            n = len(rounds)
            plain = run_pass(runner, queries, expected, n, traced=False)
            traced = None
            if args.trace and not plain.timed_out:
                traced = run_pass(runner, queries, expected, n, traced=True)
            rounds.append((plain, traced))
            now = time.perf_counter()
            if (plain.timed_out or (traced and traced.timed_out)
                    or now - start + (now - round_start) > args.seconds):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = [p for r in rounds for p in r if p is not None]
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if r[1] is not None]
    failures = [f for p in passes for f in p.failures]
    attempted = len(queries) * len(passes)
    for line in failures:
        print("FAIL", line)

    summary = summarize(plain)
    e2e = {
        "wall_s": (summary["wall_s"], "s"),
        "cpu_s": (summary["cpu_s"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(o.wall_s * o.scale for o in setup), "s"),
    }
    measured = {
        "wall_s": summary["measured_wall_s"],
        "cpu_s": summary["measured_cpu_s"],
        "setup_s": statistics.median(o.wall_s for o in setup),
    }
    print(f"{args.workload}, seed {args.seed}: {len(queries)} queries, "
          f"{len(plain)} untraced pass(es), {len(traced)} traced; {LOAD}")
    for name, (value, unit) in e2e.items():
        raw = f"  (measured {measured[name]:.4f} s)" if name in measured else ""
        print(f"  {name:12} {value:12.4f} {unit}{raw}")
    print(f"  {'failed_frac':12} {len(failures) / attempted:12.4f} "
          f"({len(failures)} of {attempted} queries)")

    record = {
        "workload": args.workload, "seed": args.seed,
        "argv": [list(q.argv) for q in queries],
        "python": platform.python_version(), "nproc": nproc,
        "pinned_cpu": cpu, "load": LOAD,
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "probe_ref_s": PROBE_REF_S,
        "median_scale": statistics.median(o.scale for p in passes for o in p.outcomes),
        "measured": measured,
    }
    correct = not failures
    if args.trace:
        layer_runs = [p.layer_metrics for p in traced if p.layer_metrics]
        metrics = {}
        if layer_runs:
            for name, unit, _ in layers.METRICS:
                values = [m[name] for m in layer_runs]
                if layers.is_count(name) and len(set(values)) > 1:
                    print(f"FAIL count {name} differs between traced passes: {values}")
                    correct = False
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            overhead = summarize(traced)["wall_s"] - summary["wall_s"]
            record["trace_overhead_s"] = overhead
            record["trace_overhead_frac"] = overhead / summary["wall_s"]
            top = sorted((k for k in metrics if k.endswith("self_s")),
                         key=lambda k: -metrics[k]["value"])[:5]
            print("  largest self times: " + ", ".join(
                f"{k} {metrics[k]['value']:.3f} s" for k in top))
        else:
            correct = False
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
