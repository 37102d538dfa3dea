"""Batch command-line surface for the exact affine vertex algebra toolkit.

Verbs: roots, bracket-audit, singular-verify, singular-search, collapse,
kl, weights, involutions.  Exit codes: 0 success / verified, 1 a
mathematical check failed (a JSON witness is printed), 2 usage or
configuration error.  All rationals cross this boundary as "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import List, Optional, Sequence

from . import collapsing, conformal, serialize, vectors
from .liealg import (
    LieRealization,
    build_realization,
    invariance_holds,
    jacobi_holds,
)
from .pbw import (
    CapExceededError,
    StateVector,
    graded_basis,
    is_singular,
    singular_kernel,
)
from .rootdata import (
    UnsupportedAlgebraError,
    build_root_system,
    canonical_name,
    parse_algebra,
)

DEFAULT_CAP = vectors.DEFAULT_COMPONENT_CAP
CAP_ENV_VAR = "VKG_CAP"
FORMATS = ("text", "json", "latex", "csv")
USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0


@dataclass
class RunConfig:
    """Resolved run configuration (flags > environment > config file)."""

    verb: str
    algebra: Optional[str] = None
    level: Optional[str] = None
    fmt: str = "text"
    cap: int = DEFAULT_CAP
    seed: int = 0

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.cap < 1000:
            raise ValueError("cap must be at least 1000")


def read_config_file(path: str) -> dict:
    """Plain key = value lines; '#' starts a comment; keys: cap, format, seed."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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


def resolve_config(args) -> RunConfig:
    file_cfg = read_config_file(args.config) if args.config else {}
    cap = DEFAULT_CAP
    if "cap" in file_cfg:
        cap = int(file_cfg["cap"])
    if os.environ.get(CAP_ENV_VAR):
        cap = int(os.environ[CAP_ENV_VAR])
    if getattr(args, "cap", None) is not None:
        cap = args.cap
    fmt = file_cfg.get("format", "text")
    if getattr(args, "format", None):
        fmt = args.format
    seed = int(file_cfg.get("seed", 0))
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return RunConfig(
        verb=args.verb,
        algebra=getattr(args, "algebra", None),
        level=getattr(args, "level", None),
        fmt=fmt,
        cap=cap,
        seed=seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkg",
        description="exact singular vectors, collapsing levels, and module "
        "lists for universal affine vertex algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, algebra=True, level=False):
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

    p = sub.add_parser("roots", help="emit root-system data")
    common(p)
    p.add_argument("--realization", action="store_true",
                   help="also emit the bracket and form tables")

    p = sub.add_parser("bracket-audit", help="Jacobi/invariance sweeps")
    common(p)
    p.add_argument("--samples", type=int, default=10_000,
                   help="triple count for large algebras")

    p = sub.add_parser("singular-verify", help="construct and verify a vector")
    common(p, level=True)
    p.add_argument("--family", required=True,
                   choices=("w1", "w3", "vn", "wn", "theta-wn", "ve7"))
    p.add_argument("--n", type=int, default=1)

    p = sub.add_parser("singular-search", help="kernel of the raising operators")
    common(p, level=True)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("collapse", help="collapsing-level tables and audits")
    common(p, algebra=False, level=True)
    p.add_argument("--algebra", default=None)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--polynomials", action="store_true")
    p.add_argument("--super", action="store_true", dest="include_super",
                   help="include the superalgebra reference rows")

    p = sub.add_parser("kl", help="classified module families")
    common(p, level=True)
    p.add_argument("--quotient", default="simple",
                   choices=conformal.QUOTIENTS)
    p.add_argument("--limit", type=int, default=6,
                   help="materialization bound for infinite families")

    p = sub.add_parser("weights", help="conformal-weight computations")
    common(p, level=True)
    p.add_argument("--mu", required=True, help="comma-separated coordinates")

    p = sub.add_parser("involutions", help="fixed-point-free involutions")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--signs", action="store_true")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _parse_level(cfg: RunConfig) -> Q:
    if cfg.level is None:
        raise ValueError("--level is required here")
    return serialize.parse_frac(cfg.level)


def _emit(payload, cfg: RunConfig, text_lines, latex_lines=None, csv_lines=None):
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif cfg.fmt == "latex":
        print("\n".join(latex_lines if latex_lines is not None else text_lines))
    elif cfg.fmt == "csv":
        print("\n".join(csv_lines if csv_lines is not None else text_lines))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# verb implementations


def cmd_roots(cfg: RunConfig, realization: bool = False) -> int:
    rs = parse_algebra(cfg.algebra)
    if realization:
        lr = build_realization(rs.family, rs.rank)
        payload = serialize.realization_to_json(lr)
        print(json.dumps(payload, indent=2))
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
    _emit(payload, cfg, text, latex, csv_lines)
    return OK


def _bracket_witness(lr, triple) -> dict:
    return {
        "triple": [serialize.base_label(lr, i) for i in triple],
        "kind": "jacobi-or-invariance",
    }


def cmd_bracket_audit(cfg: RunConfig, samples: int) -> int:
    rs = parse_algebra(cfg.algebra)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lr = build_realization(rs.family, rs.rank)
    n = lr.dim
    rng = random.Random(cfg.seed)
    exhaustive = n <= 30
    if exhaustive:
        triples = (
            (a, b, c)
            for a in range(n) for b in range(n) for c in range(n)
        )
        total = n ** 3
    else:
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(samples)
        )
        total = samples
    checked = 0
    for a, b, c in triples:
        if not jacobi_holds(lr, a, b, c) or not invariance_holds(lr, a, b, c):
            print(json.dumps(_bracket_witness(lr, (a, b, c))))
            return CHECK_FAILED
        checked += 1
    payload = {
        "algebra": rs.label,
        "dim": n,
        "mode": "exhaustive" if exhaustive else "sampled",
        "triples_checked": checked,
        "ok": True,
    }
    _emit(payload, cfg, [
        f"{rs.label}: {checked}/{total} triples checked "
        f"({payload['mode']}), all identities hold",
    ])
    return OK


def _build_family(lr: LieRealization, family: str, n: int, cap: int) -> StateVector:
    if family == "w1":
        if lr.rs.family == "B":
            return vectors.build_w1_B(lr)
        return vectors.build_w1_D(lr)
    if family == "w3":
        return vectors.build_w3_D4(lr)
    if family == "vn":
        return vectors.build_v_n(lr, n, cap=cap)
    if family == "wn":
        return vectors.build_w_n(lr, n, cap=cap)
    if family == "theta-wn":
        return vectors.theta_image(lr, vectors.build_w_n(lr, n, cap=cap))
    if family == "ve7":
        return vectors.build_vE7(lr)
    raise ValueError(f"unknown family {family!r}")


def cmd_singular_verify(cfg: RunConfig, family: str, n: int) -> int:
    level = None if cfg.level is None else serialize.parse_frac(cfg.level)
    rs = parse_algebra(cfg.algebra)
    lr = build_realization(rs.family, rs.rank)
    try:
        v = _build_family(lr, family, n, cfg.cap)
    except CapExceededError as exc:
        payload = {"algebra": rs.label, "family": family, "n": n,
                   "status": "capped", "detail": str(exc)}
        _emit(payload, cfg, [f"{rs.label} {family} n={n}: capped ({exc})"])
        return OK
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
        _emit(payload, cfg, [
            f"{rs.label} {family} n={n}: singular at level "
            f"{serialize.frac_str(v.level)}, degree "
            f"{serialize.frac_str(v.degree)}, {v.support_size()} support "
            "monomials",
        ])
        return OK
    label, image = witness
    payload["witness"] = {
        "generator": label,
        "image": serialize.state_to_json(lr, image),
    }
    print(json.dumps(payload, indent=2))
    return CHECK_FAILED


def cmd_singular_search(cfg: RunConfig, weight: str, degree: int) -> int:
    rs = parse_algebra(cfg.algebra)
    wt = serialize.parse_weight(weight)
    if len(wt) != rs.ambient:
        raise ValueError(
            f"weight needs {rs.ambient} coordinates for {rs.label}"
        )
    k = _parse_level(cfg)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    lr = build_realization(rs.family, rs.rank)
    try:
        kernel = singular_kernel(lr, k, wt, degree, cap=cfg.cap)
        size = len(graded_basis(lr, wt, degree, cap=cfg.cap))
    except CapExceededError as exc:
        payload = {"algebra": rs.label, "status": "capped", "detail": str(exc)}
        _emit(payload, cfg, [f"{rs.label}: capped ({exc})"])
        return OK
    payload = {
        "algebra": rs.label,
        "level": serialize.frac_str(k),
        "weight": serialize.weight_to_json(wt),
        "degree": degree,
        "component_dimension": size,
        "kernel_dimension": len(kernel),
        "vectors": [serialize.state_to_json(lr, v) for v in kernel],
    }
    text = [
        f"{rs.label} at level {serialize.frac_str(k)}: component dimension "
        f"{size}, kernel dimension {len(kernel)}",
    ]
    for v in kernel:
        text.append(json.dumps(serialize.state_to_json(lr, v)))
    _emit(payload, cfg, text)
    return OK


def cmd_collapse(cfg: RunConfig, audit: bool, polynomials: bool,
                 include_super: bool) -> int:
    if audit:
        t1 = collapsing.table1_audit(collapsing.DEFAULT_AUDIT_ALGEBRAS)
        t5 = collapsing.table5_audit()
        bad = [r for r in t1 if not r["ok"]] + [r for r in t5 if not r["ok"]]
        payload = {
            "grading_rows": t1,
            "collapsing_rows": [_row_json(r) for r in t5],
            "failures": len(bad),
        }
        text = [
            f"grading rows audited: {len(t1)}, collapsing rows audited: "
            f"{len(t5)}, failures: {len(bad)}"
        ]
        for r in t5:
            text.append(
                _table5_line(r) + "  "
                + ("ok" if r["ok"] else "MISMATCH " + json.dumps(_row_json(r)))
            )
        _emit(payload, cfg, text, _latex_table5(t5), _csv_table5(t5))
        return OK if not bad else CHECK_FAILED

    if polynomials:
        rows = []
        for rs in _table_algebras(cfg):
            p = collapsing.p_of_k((rs.family, rs.rank))
            rows.append(
                {
                    "algebra": canonical_name(rs.family, rs.rank),
                    "roots": [serialize.frac_str(r) for r in p.roots],
                }
            )
        payload = {"polynomials": rows}
        if include_super:
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
        _emit(payload, cfg, text, latex)
        return OK

    if cfg.algebra and cfg.level is not None:
        rs = parse_algebra(cfg.algebra)
        g = (rs.family, rs.rank)
        k = _parse_level(cfg)
        if not collapsing.is_collapsing(g, k):
            print(json.dumps({
                "algebra": canonical_name(*g),
                "level": serialize.frac_str(k),
                "collapsing": False,
            }))
            return CHECK_FAILED
        target, kp = collapsing.collapsed_level(g, k)
        payload = {
            "algebra": canonical_name(*g),
            "level": serialize.frac_str(k),
            "collapsing": True,
            "target": target,
            "k_prime": serialize.frac_str(kp),
        }
        _emit(payload, cfg, [
            f"{canonical_name(*g)} at k = {serialize.frac_str(k)} collapses "
            f"to {target} at k' = {serialize.frac_str(kp)}"
        ])
        return OK

    rows = []
    for rs in _table_algebras(cfg):
        for row in collapsing.stored_table5_rows((rs.family, rs.rank)):
            rows.append(
                {
                    "algebra": canonical_name(*row.algebra),
                    "k": row.k,
                    "stored": {"target": row.target, "k_prime": row.k_prime},
                    "ok": None,
                }
            )
    payload = {"rows": [_row_json(r) for r in rows]}
    if include_super:
        payload["super_reference"] = [
            {"algebra": a, "target": t, "k": k, "k_prime": kp}
            for a, t, k, kp in collapsing.TABLE5_SUPER
        ]
    text = [_table5_line(r) for r in rows]
    _emit(payload, cfg, text, _latex_table5(rows), _csv_table5(rows))
    return OK


def _table_algebras(cfg: RunConfig) -> list:
    """The --algebra root system alone, or every default audit algebra."""
    if cfg.algebra:
        return [parse_algebra(cfg.algebra)]
    return [build_root_system(*g) for g in collapsing.DEFAULT_AUDIT_ALGEBRAS]


def _table5_line(r: dict) -> str:
    return (
        f"  {r['algebra']:>8} k={serialize.frac_str(r['k']):>6} -> "
        f"{r['stored']['target']:>8} k'="
        f"{serialize.frac_str(r['stored']['k_prime']):>6}"
    )


def _row_json(r: dict) -> dict:
    out = {
        "algebra": r["algebra"],
        "k": serialize.frac_str(r["k"]),
        "target": r["stored"]["target"],
        "k_prime": serialize.frac_str(r["stored"]["k_prime"]),
    }
    if r.get("ok") is not None:
        out["ok"] = r["ok"]
    return out


def _latex_table5(rows) -> List[str]:
    out = [
        r"\begin{tabular}{c|c|c|c}",
        r"$\mathfrak g$ & target & $k$ & $k'$ \\ \hline",
    ]
    for r in rows:
        out.append(
            rf"{r['algebra']} & {r['stored']['target']} & "
            rf"${serialize.frac_str(r['k'])}$ & "
            rf"${serialize.frac_str(r['stored']['k_prime'])}$ \\"
        )
    out.append(r"\end{tabular}")
    return out


def _csv_table5(rows) -> List[str]:
    out = ["algebra,k,target,k_prime"]
    for r in rows:
        out.append(
            f"{r['algebra']},{serialize.frac_str(r['k'])},"
            f"{r['stored']['target']},{serialize.frac_str(r['stored']['k_prime'])}"
        )
    return out


def cmd_kl(cfg: RunConfig, quotient: str, limit: int) -> int:
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    rs = parse_algebra(cfg.algebra)
    k = _parse_level(cfg)
    spec = conformal.kl_spectrum((rs.family, rs.rank), k, quotient)
    name, level = canonical_name(*spec.algebra), serialize.frac_str(spec.level)
    head = f"{name} at k = {level} ({quotient})"
    total = sum(limit if f.infinite else f.count for f in spec.families)
    if limit > cfg.cap or total > cfg.cap:
        detail = (f"limit {limit} exceeds cap {cfg.cap}" if limit > cfg.cap
                  else f"{total} weights exceed cap {cfg.cap}")
        payload = {"algebra": name, "level": level, "quotient": quotient,
                   "status": "capped", "detail": detail}
        _emit(payload, cfg, [f"{head}: capped ({detail})"])
        return OK
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
    text = [f"{head}: {spec.provenance}"]
    for f in payload["families"]:
        marker = " ... " if f["infinite"] else ""
        text.append(
            f"  {f['label']}: "
            + " ; ".join(",".join(w) for w in f["weights"])
            + marker
        )
    _emit(payload, cfg, text)
    return OK


def cmd_weights(cfg: RunConfig, mu: str) -> int:
    rs = parse_algebra(cfg.algebra)
    k = _parse_level(cfg)
    w = serialize.parse_weight(mu)
    if len(w) != rs.ambient:
        raise ValueError(f"mu needs {rs.ambient} coordinates for {rs.label}")
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
    _emit(payload, cfg, [
        f"{rs.label} at k = {serialize.frac_str(k)}, mu = {mu}:",
        f"  Sugawara conformal weight: {payload['sugawara_weight']}",
        f"  reduced lowest weight:     {payload['w_lowest_weight']}",
        f"  theta-coefficient roots:   {', '.join(payload['theta_coeff_roots'])}",
    ])
    return OK


def cmd_involutions(cfg: RunConfig, ell: int, count_only: bool,
                    with_signs: bool) -> int:
    if ell < 1:
        raise ValueError("--ell must be at least 1")
    n = vectors.double_factorial_odd(ell)
    if count_only:
        _emit({"ell": ell, "count": n}, cfg, [str(n)])
        return OK
    if n > cfg.cap:
        detail = f"{n} involutions exceed cap {cfg.cap}"
        payload = {"ell": ell, "status": "capped", "detail": detail}
        _emit(payload, cfg, [f"ell={ell}: capped ({detail})"])
        return OK
    invs = vectors.enumerate_involutions(ell)
    rows = []
    for p in invs:
        row = {"pairs": [list(pair) for pair in p]}
        if with_signs:
            row["sign"] = vectors.involution_sign(p)
        rows.append(row)
    payload = {"ell": ell, "count": len(invs), "involutions": rows}
    text = []
    for row in rows:
        s = " ".join(f"({i},{j})" for i, j in row["pairs"])
        if with_signs:
            s += f"  sign {row['sign']:+d}"
        text.append(s)
    text.append(f"count {len(invs)}")
    csv_lines = ["pairs" + (",sign" if with_signs else "")]
    for row in rows:
        s = " ".join(f"({i},{j})" for i, j in row["pairs"])
        csv_lines.append(s + (f",{row['sign']}" if with_signs else ""))
    _emit(payload, cfg, text, None, csv_lines)
    return OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        cfg = resolve_config(args)
        if cfg.verb == "roots":
            return cmd_roots(cfg, args.realization)
        if cfg.verb == "bracket-audit":
            return cmd_bracket_audit(cfg, args.samples)
        if cfg.verb == "singular-verify":
            return cmd_singular_verify(cfg, args.family, args.n)
        if cfg.verb == "singular-search":
            return cmd_singular_search(cfg, args.weight, args.degree)
        if cfg.verb == "collapse":
            return cmd_collapse(cfg, args.audit, args.polynomials,
                                args.include_super)
        if cfg.verb == "kl":
            return cmd_kl(cfg, args.quotient, args.limit)
        if cfg.verb == "weights":
            return cmd_weights(cfg, args.mu)
        if cfg.verb == "involutions":
            return cmd_involutions(cfg, args.ell, args.count, args.signs)
        raise ValueError(f"unknown verb {cfg.verb!r}")
    except (UnsupportedAlgebraError, conformal.NotClassifiedError,
            collapsing.NotCollapsingError, ValueError, OSError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
