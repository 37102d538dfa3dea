"""Query lists of the benchmark workloads, made from a seed, and the answer checks.

A query is one `vkg` invocation.  Fixed queries are checked byte for byte
against the exit code and stdout digest recorded in ``expected.json``.
Generic-level searches are checked against a theorem instead, because their
level comes from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class Query(NamedTuple):
    qid: str                 # stable name; the key of the recorded answer
    argv: Tuple[str, ...]    # what the program receives
    level: Optional[Fraction] = None   # set for generic-level searches


def _fixed(*argv: str) -> Query:
    return Query(" ".join(argv), tuple(argv))


# The paper's explicit vectors, and kernel searches where the paper puts a
# nonzero kernel.  Built and verified by the PBW straightening engine.
PAPER_FAMILIES = (
    _fixed("singular-verify", "--algebra", "D:4", "--family", "w1"),
    _fixed("singular-verify", "--algebra", "D:4", "--family", "w3"),
    _fixed("singular-verify", "--algebra", "D:6", "--family", "wn", "--n", "1"),
    _fixed("singular-verify", "--algebra", "D:6", "--family", "theta-wn", "--n", "1"),
    _fixed("singular-verify", "--algebra", "D:5", "--family", "vn", "--n", "1"),
    _fixed("singular-verify", "--algebra", "D:5", "--family", "vn", "--n", "2"),
    _fixed("singular-verify", "--algebra", "D:6", "--family", "vn", "--n", "1"),
    _fixed("singular-verify", "--algebra", "D:6", "--family", "vn", "--n", "3"),
    _fixed("singular-verify", "--algebra", "B:4", "--family", "w1"),
    _fixed("singular-verify", "--algebra", "E7", "--family", "ve7"),
    _fixed("singular-verify", "--algebra", "D:8", "--family", "wn", "--n", "2"),
    _fixed("singular-search", "--algebra", "D:6", "--weight", "2,2,2,2,2,2",
           "--degree", "6", "--level=-3"),
    _fixed("singular-search", "--algebra", "D:8", "--weight", "1,1,1,1,1,1,1,1",
           "--degree", "4", "--level=-6"),
    _fixed("singular-search", "--algebra", "E7", "--weight", "0,0,0,0,1,1,-1,1",
           "--degree", "2", "--level=-4"),
)

# Large components searched at generic levels: (algebra, weight, degree,
# dual Coxeter number h, lacing number r).  The weight-0, degree-4 component
# of D4 is left out: it alone takes longer than a whole run.
GENERIC_COMPONENTS = (
    ("D:4", "1,1,0,0", 4, 6, 1),
    ("A:3", "1,0,0,-1", 4, 4, 1),
    ("B:3", "1,1,0", 4, 5, 2),
    ("E6", "1/2,1/2,1/2,1/2,1/2,-1/2,-1/2,1/2", 3, 12, 1),
)
# Level k = -h - p/q: q from this set, 1 <= p <= 2q, gcd(p, q) = 1, so every
# seed searches the same components at levels of the same size.
DENOMINATORS = (2, 3, 5, 7)


def _exceptional_tables(rng: random.Random) -> List[Query]:
    e7_audit = ("bracket-audit", "--algebra", "E7", "--seed",
                str(rng.randrange(2 ** 31)))
    return [
        _fixed("collapse", "--audit"),
        _fixed("roots", "--algebra", "E8", "--realization", "--format", "json"),
        # Sampled, so its stdout does not depend on --seed.
        Query("bracket-audit --algebra E7 --seed <seeded>", e7_audit),
        _fixed("bracket-audit", "--algebra", "D:4"),
        _fixed("bracket-audit", "--algebra", "C:3"),
        _fixed("collapse", "--algebra", "E8", "--level=-10"),
        _fixed("kl", "--algebra", "E7", "--level=-4", "--quotient", "simple"),
        _fixed("kl", "--algebra", "D:6", "--level=-2", "--quotient", "simple"),
        _fixed("weights", "--algebra", "D:4", "--mu", "1,0,0,0", "--level=-2"),
    ]


def vacuum_module_is_simple(k: Fraction, h_dual: int, lacing: int) -> bool:
    """Gorelik-Kac (Adv. Math. 2007): V^k(g) is not simple exactly when
    r(k + h) is a nonnegative rational other than 1/m for a positive integer m.
    """
    x = lacing * (Fraction(k) + h_dual)
    return x < 0 or (x > 0 and x.numerator == 1)


def generic_level(rng: random.Random, h_dual: int) -> Fraction:
    q = rng.choice(DENOMINATORS)
    p = rng.choice([p for p in range(1, 2 * q + 1) if math.gcd(p, q) == 1])
    return -h_dual - Fraction(p, q)


def _generic_levels(rng: random.Random) -> List[Query]:
    out = []
    for algebra, weight, degree, h_dual, lacing in GENERIC_COMPONENTS:
        k = generic_level(rng, h_dual)
        if not vacuum_module_is_simple(k, h_dual, lacing):
            raise RuntimeError(f"level {k} of {algebra} is not generic")
        out.append(Query(
            f"generic {algebra} {weight} degree {degree}",
            ("singular-search", "--algebra", algebra, "--weight", weight,
             "--degree", str(degree), f"--level={k}", "--format", "json"),
            k,
        ))
    return out


WORKLOADS = {
    "paper-families": lambda rng: list(PAPER_FAMILIES),
    "generic-levels": _generic_levels,
    "exceptional-tables": _exceptional_tables,
}


def queries(workload: str, seed: int) -> List[Query]:
    """The workload's query list; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check(query: Query, expected: Dict[str, dict], returncode: int,
          stdout: bytes, stderr: bytes) -> Optional[str]:
    """Why the answer is wrong, or None when it is right."""
    if b"Traceback (most recent call last)" in stderr:
        return "traceback"
    want = expected[query.qid]
    if returncode != want["exit"]:
        return f"exit code {returncode}, expected {want['exit']}"
    if query.level is None:
        if digest(stdout) != want["stdout_sha256"]:
            return "stdout differs from the recorded answer"
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    got = {key: payload.get(key) for key in
           ("level", "component_dimension", "kernel_dimension", "vectors")}
    # V^k is simple at a generic level, so no vector of positive degree is
    # singular: the kernel is empty.
    need = {"level": str(query.level),
            "component_dimension": want["component_dimension"],
            "kernel_dimension": 0, "vectors": []}
    if got != need:
        return f"answer {got}, expected {need}"
    return None
