"""Run one `vkg` query with spans around the calls into each layer.

Usage (the benchmark does this for a traced query):

    PYTHONPATH=src PERFBENCH_SPANS=out.json python3 perfbench/tracer.py <vkg argv>

The query's process is one trace.  Spans (name, start, end, parent, boundary
counts) stay in memory and are written to ``$PERFBENCH_SPANS`` when the
query exits.  Nothing in ``src/`` changes: every entry point listed in
``layers.ENTRY_POINTS`` is replaced by a timing wrapper in every ``vkg``
module namespace that holds it, so calls through names imported with
``from .x import f`` are traced too.  Cached entry points are wrapped in
front of their ``lru_cache``, so cache hits are calls as well.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import List

from layers import BOUNDARY_COUNTS, CACHED, ENTRY_POINTS


class Tracer:
    """Holds the spans of one process and the patches that record them."""

    def __init__(self):
        self.spans: List[list] = []   # [name, start_ns, end_ns, parent, counts]
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.originals = {}
        self._cache_at_install = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = BOUNDARY_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import vkg.cli  # noqa: F401  (imports every vkg module)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "vkg" or key.startswith("vkg.")]
        for module_name, fns in ENTRY_POINTS.items():
            home = sys.modules[f"vkg.{module_name}"]
            for fn in fns:
                name = f"{module_name}.{fn}"
                original = getattr(home, fn)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        self._cache_at_install = self._cache_totals()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _cache_totals(self) -> dict:
        return {name: self.originals[name].cache_info()[:2] for name in CACHED}

    def cache_stats(self) -> dict:
        """(hits, misses) of each cached entry point since install()."""
        before = self._cache_at_install
        return {name: [now[0] - before[name][0], now[1] - before[name][1]]
                for name, now in self._cache_totals().items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "cache": self.cache_stats()}, fh)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from vkg import cli

    try:
        return cli.main()
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
