#!/usr/bin/env python3
"""Record the answers the benchmark checks against, from the current tree.

Run from the repository root at the commit whose answers are the reference:

    python3 perfbench/record_expected.py

For every query of every workload (seed 0) it stores the exit code and the
SHA-256 of stdout; for generic-level searches it stores the component
dimension instead, which does not depend on the level.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads
from run import VKG_MAIN, Runner


def main() -> int:
    root = Path.cwd()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    expected = {}
    try:
        runner = Runner(root, tmp, time.perf_counter() + 600)
        for workload in sorted(workloads.WORKLOADS):
            for i, query in enumerate(workloads.queries(workload, 0)):
                stem = f"{workload}-{i}"
                outcome = runner.spawn([sys.executable, "-c", VKG_MAIN, *query.argv], stem)
                stdout, stderr = runner.output(stem)
                entry = {"argv": list(query.argv), "exit": outcome.returncode}
                if query.level is None:
                    entry["stdout_sha256"] = workloads.digest(stdout)
                else:
                    entry["component_dimension"] = json.loads(stdout)["component_dimension"]
                expected[query.qid] = entry
                print(f"{outcome.wall_s:7.2f} s  exit {outcome.returncode}  {query.qid}",
                      file=sys.stderr)
                if stderr:
                    print(stderr.decode(errors="replace"), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
