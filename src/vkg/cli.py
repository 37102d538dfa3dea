"""Batch command-line surface for the exact affine vertex algebra toolkit.

Verbs: roots, bracket-audit, singular-verify, singular-search, collapse,
kl, weights, involutions.  `build_parser` binds each verb to its `cmd_*`
function, which takes the parsed arguments alone; `main()` only resolves
`--cap`, `--format` and `--seed` in place and calls it.  An input that
would cause work beyond the size cap is refused by `_capped`, which writes
every `capped` report.  Exit codes: 0 success / verified / capped, 1 a
mathematical check failed (a JSON witness is printed), 2 usage or
configuration error; a reader that closes stdout early ends the run with 0.
All rationals cross this boundary as "p/q" strings.  A `vkg` process freezes
its start-up objects (`gc.freeze`), so the collections at exit skip them;
`main(argv)` called in process leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import sys
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii
from types import GeneratorType
from typing import Optional, Sequence

from . import collapsing, conformal, serialize, vectors
from .liealg import build_realization, identity_failure
from .pbw import CapExceededError, is_singular, singular_kernel
from .rootdata import canonical_name, parse_algebra

DEFAULT_CAP = vectors.DEFAULT_COMPONENT_CAP
CAP_ENV_VAR = "VKG_CAP"
FORMATS = ("text", "json", "latex", "csv")
USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0
BATCH = 2048  # indented-JSON pieces per write: about 20 KB of the E8 tables


def read_config_file(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment; keys: cap, format, seed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:  # missing, a directory, unreadable: a usage error
        raise ValueError(str(exc)) from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in ("cap", "format", "seed"):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve format, cap and seed into ``args``: flag > non-empty VKG_CAP
    (cap only) > config file > default; the format is checked first.  Only
    the source that wins is parsed, so a bad one that loses is ignored."""
    file_cfg = read_config_file(args.config) if args.config else {}
    args.format = args.format or file_cfg.get("format", "text")
    if args.format not in FORMATS:
        raise ValueError(f"unknown format {args.format!r}")
    if args.cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        args.cap = (_parse_int(CAP_ENV_VAR, env) if env else _parse_int(
            f"{args.config}: cap", file_cfg.get("cap", DEFAULT_CAP)))
    if args.cap < 1000:
        raise ValueError("cap must be at least 1000")
    if args.seed is None:
        args.seed = _parse_int(f"{args.config}: seed", file_cfg.get("seed", 0))
    return args


def _parse_int(source: str, value) -> int:
    """int(value), refused with the name of the setting it came from."""
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


# --family -> constructor(lr, n, cap).  Each entry looks `vectors.build_*`
# up when it is called, so a wrapper installed on the module is seen.
FAMILIES = {
    "w1": lambda lr, n, cap: (vectors.build_w1_B(lr) if lr.rs.family == "B"
                              else vectors.build_w1_D(lr)),
    "w3": lambda lr, n, cap: vectors.build_w3_D4(lr),
    "vn": lambda lr, n, cap: vectors.build_v_n(lr, n, cap=cap),
    "wn": lambda lr, n, cap: vectors.build_w_n(lr, n, cap=cap),
    "theta-wn": lambda lr, n, cap: vectors.theta_image(
        lr, vectors.build_w_n(lr, n, cap=cap)),
    "ve7": lambda lr, n, cap: vectors.build_vE7(lr),
}
# the families whose vector does not depend on n
FIXED_FAMILIES = ("w1", "w3", "ve7")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkg",
        description="exact singular vectors, collapsing levels, and module "
        "lists for universal affine vertex algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, help, algebra=True, level=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--cap", type=int, default=None,
                       help="graded-component size cap (>= 1000)")
        p.add_argument("--seed", type=int, default=None)
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="e.g. D:4, so(8), B:3, sl(6), E7")
        if level:
            p.add_argument("--level", default=None, help="exact rational p/q")
        return p

    p = verb("roots", cmd_roots, "emit root-system data")
    p.add_argument("--realization", action="store_true",
                   help="also emit the bracket and form tables")

    p = verb("bracket-audit", cmd_bracket_audit, "Jacobi/invariance sweeps")
    p.add_argument("--samples", type=int, default=10_000,
                   help="triple count for large algebras")

    p = verb("singular-verify", cmd_singular_verify,
             "construct and verify a vector", level=True)
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", type=int, default=1)

    p = verb("singular-search", cmd_singular_search,
             "kernel of the raising operators", level=True)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.add_argument("--degree", type=int, required=True)

    p = verb("collapse", cmd_collapse, "collapsing-level tables and audits",
             algebra=False, level=True)
    p.add_argument("--algebra", default=None)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--polynomials", action="store_true")
    p.add_argument("--super", action="store_true", dest="include_super",
                   help="include the superalgebra reference rows")

    p = verb("kl", cmd_kl, "classified module families", level=True)
    p.add_argument("--quotient", default="simple",
                   choices=conformal.QUOTIENTS)
    p.add_argument("--limit", type=int, default=6,
                   help="materialization bound for infinite families")

    p = verb("weights", cmd_weights, "conformal-weight computations",
             level=True)
    p.add_argument("--mu", required=True, help="comma-separated coordinates")

    p = verb("involutions", cmd_involutions, "fixed-point-free involutions",
             algebra=False)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--signs", action="store_true")
    return parser


def _parse_level(args) -> Q:
    if args.level is None:
        raise ValueError("--level is required here")
    return serialize.parse_frac(args.level)


def _parse_coordinates(rs, name: str, text: str):
    """A weight given as comma-separated coordinates, one per ambient axis."""
    w = serialize.parse_weight(text)
    if len(w) != rs.ambient:
        raise ValueError(f"{name} needs {rs.ambient} coordinates for {rs.label}")
    return w


def _scalar(o):
    """The JSON text of a str, None, bool, int or float; None otherwise."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    return json.dumps(o) if o is None or isinstance(o, (int, float)) else None


def _write_json(payload, default=None) -> None:
    """print(json.dumps(payload, indent=2, default=default)), where every
    generator in ``payload`` reads as a list: json's isinstance order and
    key rules, written ``BATCH`` pieces or more at a time, so a payload
    made of generators is never held whole."""
    out = []

    def write(o, indent):
        """Append the text of ``o``; ``indent`` is the newline and spaces
        of its level, which the caller has written."""
        if (text := _scalar(o)) is not None:
            return out.append(text)
        if keyed := isinstance(o, dict):
            items, ends = o.items(), "{}"
        elif isinstance(o, (list, tuple, GeneratorType)):
            items, ends = o, "[]"
        elif default is None:
            raise TypeError(f"Object of type {o.__class__.__name__} "
                            "is not JSON serializable")
        else:
            return write(default(o), indent)
        inner = indent + "  "
        sep, comma = ends[0] + inner, "," + inner
        for v in items:
            if keyed:
                k, v = v
                if (key := k if isinstance(k, str) else _scalar(k)) is None:
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {k.__class__.__name__}")
                sep += encode_basestring_ascii(key) + ": "
            if (t := type(v)) is str:  # the common scalars, without a call
                out.append(sep + encode_basestring_ascii(v))
            elif t is int:
                out.append(sep + int.__repr__(v))
            else:
                out.append(sep)
                write(v, inner)
            sep = comma
        out.append(indent + ends[1] if sep is comma else ends)
        if len(out) >= BATCH:
            sys.stdout.write("".join(out))
            out.clear()

    write(payload, "\n")
    sys.stdout.write("".join(out))
    sys.stdout.write("\n")


def _emit(payload, args, text_lines, latex_lines=None, csv_lines=None):
    """Print in the resolved format; latex and csv fall back to the text."""
    if args.format == "json":
        _write_json(payload, default=str)
        return
    lines = {"latex": latex_lines, "csv": csv_lines}.get(args.format)
    print("\n".join(text_lines if lines is None else lines))


def _capped(args, head: str, fields: dict, detail: str) -> int:
    """Refuse an input over the cap: report status "capped" and exit 0."""
    payload = {**fields, "status": "capped", "detail": detail}
    _emit(payload, args, [f"{head}: capped ({detail})"])
    return OK


def _refuse(mode: str, given: dict) -> None:
    """Usage error for the first flag in ``given`` that was set: a flag the
    mode does not read is refused, not silently ignored."""
    for flag, on in given.items():
        if on:
            raise ValueError(f"{mode} does not take {flag}")


# ---------------------------------------------------------------------------
# verb implementations


def cmd_roots(args) -> int:
    rs = parse_algebra(args.algebra)
    if args.realization:
        lr = build_realization(rs.family, rs.rank)
        _write_json(serialize.realization_to_json(lr))
        return OK
    payload = serialize.root_system_to_json(rs)
    text = [
        f"{rs.label}: {len(rs.roots)} roots, rank {rs.rank}, "
        f"h_dual = {serialize.frac_str(rs.dual_coxeter)}",
        "theta = " + ",".join(payload["theta"]),
        "rho   = " + ",".join(payload["rho"]),
    ] + ["root " + ",".join(r) for r in payload["roots"]]
    csv_lines = ["coordinates"] + [";".join(r) for r in payload["roots"]]
    latex = (
        [r"\begin{tabular}{c}", rf"roots of ${rs.label}$ \\"]
        + [" , ".join(r) + r" \\" for r in payload["roots"]]
        + [r"\end{tabular}"]
    )
    _emit(payload, args, text, latex, csv_lines)
    return OK


def _randrange_draws(rng: random.Random, n: int, count: int):
    """``count`` successive values of ``rng.randrange(n)``, n >= 1, drawn by
    the rejection loop on ``getrandbits(n.bit_length())`` that randrange
    runs, without its per-call argument checks."""
    bits, draw = n.bit_length(), rng.getrandbits
    for _ in range(count):
        r = draw(bits)
        while r >= n:
            r = draw(bits)
        yield r


def cmd_bracket_audit(args) -> int:
    rs = parse_algebra(args.algebra)
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    n = len(rs.roots) + rs.rank
    exhaustive = n <= 30
    if not exhaustive and args.samples > args.cap:
        return _capped(args, rs.label, {"algebra": rs.label},
                       f"{args.samples} samples exceed cap {args.cap}")
    lr = build_realization(rs.family, rs.rank)
    rng = random.Random(args.seed)
    if exhaustive:
        triples, total = itertools.product(range(n), repeat=3), n ** 3
    else:
        draws = _randrange_draws(rng, n, 3 * args.samples)
        triples = zip(draws, draws, draws)
        total = args.samples
    failure = identity_failure(lr, triples)
    if failure is not None:
        print(json.dumps({
            "triple": [serialize.base_label(lr, i) for i in failure[0]],
            "kind": "jacobi-or-invariance",
        }))
        return CHECK_FAILED
    payload = {
        "algebra": rs.label,
        "dim": n,
        "mode": "exhaustive" if exhaustive else "sampled",
        "triples_checked": total,
        "ok": True,
    }
    _emit(payload, args, [
        f"{rs.label}: {total}/{total} triples checked "
        f"({payload['mode']}), all identities hold",
    ])
    return OK


def cmd_singular_verify(args) -> int:
    family, n = args.family, args.n
    if family in FIXED_FAMILIES:
        _refuse(f"singular-verify --family {family}", {"--n": n != 1})
    level = None if args.level is None else serialize.parse_frac(args.level)
    rs = parse_algebra(args.algebra)
    lr = build_realization(rs.family, rs.rank)
    head = f"{rs.label} {family} n={n}"
    try:
        v = FAMILIES[family](lr, n, args.cap)
    except CapExceededError as exc:
        return _capped(args, head,
                       {"algebra": rs.label, "family": family, "n": n},
                       str(exc))
    if level is not None:
        v = v.at_level(level)
    ok, witness = is_singular(lr, v)
    payload = {
        "algebra": rs.label,
        "family": family,
        "n": n,
        "level": serialize.frac_str(v.level),
        "degree": serialize.frac_str(v.degree),
        "support": v.support_size(),
        "singular": ok,
    }
    if ok:
        _emit(payload, args, [
            f"{head}: singular at level {payload['level']}, degree "
            f"{payload['degree']}, {payload['support']} support monomials",
        ])
        return OK
    label, image = witness
    payload["witness"] = {
        "generator": label,
        "image": serialize.state_to_json(lr, image),
    }
    _write_json(payload)
    return CHECK_FAILED


def cmd_singular_search(args) -> int:
    rs = parse_algebra(args.algebra)
    wt = _parse_coordinates(rs, "weight", args.weight)
    k = _parse_level(args)
    if args.degree < 0:
        raise ValueError("degree must be nonnegative")
    lr = build_realization(rs.family, rs.rank)
    try:
        kernel = singular_kernel(lr, k, wt, args.degree, cap=args.cap)
    except CapExceededError as exc:
        return _capped(args, rs.label, {"algebra": rs.label}, str(exc))
    payload = {
        "algebra": rs.label,
        "level": serialize.frac_str(k),
        "weight": serialize.weight_to_json(wt),
        "degree": args.degree,
        "component_dimension": kernel.component_dimension,
        "kernel_dimension": len(kernel),
        "vectors": [serialize.state_to_json(lr, v) for v in kernel],
    }
    text = [
        f"{rs.label} at level {serialize.frac_str(k)}: component dimension "
        f"{kernel.component_dimension}, kernel dimension {len(kernel)}",
    ] + [json.dumps(v) for v in payload["vectors"]]
    _emit(payload, args, text)
    return OK


# ---------------------------------------------------------------------------
# collapse: the audit, the polynomials, one level, or the stored Table 5


def cmd_collapse(args) -> int:
    """Run the one mode the flags name; a flag that mode does not read is a
    usage error, not silently ignored."""
    level = args.level is not None
    if args.audit:
        _refuse("collapse --audit", {"--algebra": args.algebra is not None,
                                     "--level": level,
                                     "--polynomials": args.polynomials,
                                     "--super": args.include_super})
        return _collapse_audit(args)
    if args.polynomials:
        _refuse("collapse --polynomials", {"--level": level})
        return _collapse_polynomials(args)
    if level:
        if args.algebra is None:
            raise ValueError("collapse --level needs --algebra")
        _refuse("collapse --level", {"--super": args.include_super})
        return _collapse_level(args)
    return _collapse_table(args)


def _table_algebras(args) -> Sequence[collapsing.GType]:
    """The --algebra type alone, or every default audit algebra."""
    if args.algebra is not None:
        rs = parse_algebra(args.algebra)
        return [(rs.family, rs.rank)]
    return collapsing.DEFAULT_AUDIT_ALGEBRAS


def _table5_row(algebra: str, k, target: str, k_prime) -> dict:
    """One Table-5 row as every format reads it, rationals as strings."""
    return {"algebra": algebra, "k": serialize.frac_str(k), "target": target,
            "k_prime": serialize.frac_str(k_prime)}


def _table5_line(r: dict) -> str:
    return (f"  {r['algebra']:>8} k={r['k']:>6} -> {r['target']:>8} "
            f"k'={r['k_prime']:>6}")


def _emit_table5(payload, args, rows, text) -> None:
    latex = (
        [r"\begin{tabular}{c|c|c|c}",
         r"$\mathfrak g$ & target & $k$ & $k'$ \\ \hline"]
        + [rf"{r['algebra']} & {r['target']} & ${r['k']}$ & ${r['k_prime']}$ \\"
           for r in rows]
        + [r"\end{tabular}"]
    )
    csv_lines = ["algebra,k,target,k_prime"] + [
        f"{r['algebra']},{r['k']},{r['target']},{r['k_prime']}" for r in rows
    ]
    _emit(payload, args, text, latex, csv_lines)


def _audited_row(r: dict) -> dict:
    """A `table5_audit` entry as a Table-5 row; a failing row also carries
    the recomputed target and k', or why the level did not collapse."""
    row = _table5_row(r["algebra"], r["k"], r["stored"]["target"],
                      r["stored"]["k_prime"])
    row["ok"] = r["ok"]
    if not r["ok"]:
        got = dict(r["recomputed"])
        if "k_prime" in got:
            got["k_prime"] = serialize.frac_str(got["k_prime"])
        row["recomputed"] = got
    return row


def _collapse_audit(args) -> int:
    t1 = collapsing.table1_audit(collapsing.DEFAULT_AUDIT_ALGEBRAS)
    rows = [_audited_row(r) for r in collapsing.table5_audit()]
    failures = sum(not r["ok"] for r in t1 + rows)
    payload = {"grading_rows": t1, "collapsing_rows": rows,
               "failures": failures}
    text = [
        f"grading rows audited: {len(t1)}, collapsing rows audited: "
        f"{len(rows)}, failures: {failures}"
    ] + [
        _table5_line(r) + "  "
        + ("ok" if r["ok"] else "MISMATCH " + json.dumps(r))
        for r in rows
    ]
    _emit_table5(payload, args, rows, text)
    return OK if not failures else CHECK_FAILED


def _collapse_polynomials(args) -> int:
    rows = [
        {
            "algebra": canonical_name(*g),
            "roots": [serialize.frac_str(r) for r in collapsing.p_of_k(g).roots],
        }
        for g in _table_algebras(args)
    ]
    payload = {"polynomials": rows}
    if args.include_super:
        payload["super_reference"] = [
            {"algebra": a, "p": p} for a, p in collapsing.TABLE4_SUPER
        ]
    text = [
        f"{r['algebra']:>8}: (k - ({r['roots'][0]})) (k - ({r['roots'][1]}))"
        for r in rows
    ]
    latex = (
        [r"\begin{tabular}{c|c}", r"$\mathfrak g$ & $p(k)$ \\ \hline"]
        + [
            rf"{r['algebra']} & $(k-({r['roots'][0]}))(k-({r['roots'][1]}))$ \\"
            for r in rows
        ]
        + [r"\end{tabular}"]
    )
    _emit(payload, args, text, latex)
    return OK


def _collapse_level(args) -> int:
    rs = parse_algebra(args.algebra)
    g = (rs.family, rs.rank)
    k = _parse_level(args)
    payload = {"algebra": canonical_name(*g), "level": serialize.frac_str(k)}
    if not collapsing.is_collapsing(g, k):
        print(json.dumps({**payload, "collapsing": False}))
        return CHECK_FAILED
    target, kp = collapsing.collapsed_level(g, k)
    payload.update(collapsing=True, target=target,
                   k_prime=serialize.frac_str(kp))
    _emit(payload, args, [
        f"{payload['algebra']} at k = {payload['level']} collapses "
        f"to {target} at k' = {payload['k_prime']}"
    ])
    return OK


def _collapse_table(args) -> int:
    rows = [
        _table5_row(canonical_name(*row.algebra), row.k, row.target,
                    row.k_prime)
        for g in _table_algebras(args)
        for row in collapsing.stored_table5_rows(g)
    ]
    payload = {"rows": rows}
    if args.include_super:
        payload["super_reference"] = [
            {"algebra": a, "target": t, "k": k, "k_prime": kp}
            for a, t, k, kp in collapsing.TABLE5_SUPER
        ]
    _emit_table5(payload, args, rows, [_table5_line(r) for r in rows])
    return OK


# ---------------------------------------------------------------------------
# module lists, conformal weights, involutions


def cmd_kl(args) -> int:
    quotient, limit = args.quotient, args.limit
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    rs = parse_algebra(args.algebra)
    k = _parse_level(args)
    spec = conformal.kl_spectrum((rs.family, rs.rank), k, quotient)
    name, level = canonical_name(*spec.algebra), serialize.frac_str(spec.level)
    head = f"{name} at k = {level} ({quotient})"
    total = sum(limit if f.infinite else f.count for f in spec.families)
    if limit > args.cap or total > args.cap:
        detail = (f"limit {limit} exceeds cap {args.cap}" if limit > args.cap
                  else f"{total} weights exceed cap {args.cap}")
        return _capped(args, head, {"algebra": name, "level": level,
                                   "quotient": quotient}, detail)
    payload = {
        "algebra": name,
        "level": level,
        "quotient": spec.quotient,
        "provenance": spec.provenance,
        "families": [
            {
                "label": f.label,
                "infinite": f.infinite,
                "weights": [serialize.weight_to_json(w)
                            for w in f.materialize(limit)],
            }
            for f in spec.families
        ],
    }
    text = [f"{head}: {spec.provenance}"] + [
        f"  {f['label']}: " + " ; ".join(",".join(w) for w in f["weights"])
        + (" ... " if f["infinite"] else "")
        for f in payload["families"]
    ]
    _emit(payload, args, text)
    return OK


def cmd_weights(args) -> int:
    rs = parse_algebra(args.algebra)
    k = _parse_level(args)
    w = _parse_coordinates(rs, "mu", args.mu)
    sug = conformal.sugawara_weight(rs, w, k)
    low = conformal.w_lowest_weight(rs, w, k)
    roots = conformal.collapse_ell_roots(rs, k)
    payload = {
        "algebra": rs.label,
        "level": serialize.frac_str(k),
        "mu": serialize.weight_to_json(w),
        "sugawara_weight": serialize.frac_str(sug),
        "w_lowest_weight": serialize.frac_str(low),
        "theta_coeff_roots": [serialize.frac_str(r) for r in roots],
    }
    _emit(payload, args, [
        f"{rs.label} at k = {serialize.frac_str(k)}, mu = {args.mu}:",
        f"  Sugawara conformal weight: {payload['sugawara_weight']}",
        f"  reduced lowest weight:     {payload['w_lowest_weight']}",
        f"  theta-coefficient roots:   {', '.join(payload['theta_coeff_roots'])}",
    ])
    return OK


def cmd_involutions(args) -> int:
    ell, with_signs = args.ell, args.signs
    if ell < 1:
        raise ValueError("--ell must be at least 1")
    if args.count:
        _refuse("involutions --count", {"--signs": with_signs})
    n = vectors.double_factorial_odd(ell)
    if n is None or (n > args.cap and not args.count):
        detail = (f"{n} involutions exceed cap {args.cap}" if n is not None
                  else f"the count (2*{ell}-1)!! has more than "
                  f"{sys.get_int_max_str_digits()} digits")
        return _capped(args, f"ell={ell}", {"ell": ell}, detail)
    if args.count:
        _emit({"ell": ell, "count": n}, args, [str(n)])
        return OK
    invs = vectors.enumerate_involutions(ell)
    rows = []
    for p in invs:
        row = {"pairs": [list(pair) for pair in p]}
        if with_signs:
            row["sign"] = vectors.involution_sign(p)
        rows.append(row)
    payload = {"ell": ell, "count": len(invs), "involutions": rows}
    text, csv_lines = [], ["pairs" + (",sign" if with_signs else "")]
    for row in rows:
        s = " ".join(f"({i},{j})" for i, j in row["pairs"])
        text.append(s + (f"  sign {row['sign']:+d}" if with_signs else ""))
        csv_lines.append(s + (f",{row['sign']}" if with_signs else ""))
    text.append(f"count {len(invs)}")
    _emit(payload, args, text, None, csv_lines)
    return OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:  # a whole process: start-up objects live until exit
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.run(resolve_config(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: not an error of this run; point
        # stdout at devnull so the flush at shutdown does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
