"""The acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is all-or-nothing (zero tolerance); a one-line PASS/FAIL summary
per criterion is printed at the end of the pytest run.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from conftest import record_acceptance

from vkg.collapsing import (
    DEFAULT_AUDIT_ALGEBRAS,
    collapsed_level,
    p_of_k,
    table1_audit,
    table5_audit,
)
from vkg.conformal import (
    deligne_series,
    ell_equation_roots,
    kl_spectrum,
    w_lowest_weight,
)
from vkg.liealg import build_realization, identity_failure
from vkg.pbw import (
    CapExceededError,
    apply,
    is_singular,
    proportional,
    singular_kernel,
    vacuum,
)
from vkg.rootdata import (
    build_root_system,
    fundamental_weight,
    vadd,
    vec,
    vscale,
    vzero,
)
from vkg.vectors import (
    DEFAULT_COMPONENT_CAP,
    build_v_n,
    build_vE7,
    build_w1_B,
    build_w1_D,
    build_w3_D4,
    build_w_n,
    double_factorial_odd,
    enumerate_involutions,
    theta_image,
)

from helpers import (
    deligne_level_roots,
    half_level_roots,
    monomial_roots,
    sign_pattern_flip_equivalent,
)
from test_vectors import D6_MATCHING_SIGNS


def test_criterion_1_singular_vector_suite():
    started = time.monotonic()
    results = []

    def check(name, builder, lr):
        try:
            v = builder()
        except CapExceededError:
            results.append((name, "capped"))
            return
        ok, _ = is_singular(lr, v)
        results.append((name, "singular" if ok else "FAILED"))

    for l in (4, 5, 6):
        lr = build_realization("D", l)
        check(f"w1 in V^-2(D{l})", lambda lr=lr: build_w1_D(lr), lr)
    lr4 = build_realization("D", 4)
    check("w3 in V^-2(D4)", lambda: build_w3_D4(lr4), lr4)
    for l, n in [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 3)]:
        lr = build_realization("D", l)
        check(
            f"v_{n} in V^{n - l + 1}(D{l})",
            lambda lr=lr, n=n: build_v_n(lr, n, cap=DEFAULT_COMPONENT_CAP),
            lr,
        )
    for half_l, n in [(2, 1), (2, 2), (3, 1)]:
        lr = build_realization("D", 2 * half_l)
        check(
            f"w_{n} in V^{n - 2 * half_l + 1}(D{2 * half_l})",
            lambda lr=lr, n=n: build_w_n(lr, n, cap=DEFAULT_COMPONENT_CAP),
            lr,
        )
    for l in (4, 6):
        lr = build_realization("D", l)
        check(
            f"theta(w1) in V^{2 - l}(D{l})",
            lambda lr=lr: theta_image(lr, build_w_n(lr, 1)),
            lr,
        )
    for l in (2, 3, 4):
        lr = build_realization("B", l)
        check(f"w1 in V^-2(B{l})", lambda lr=lr: build_w1_B(lr), lr)
    lr7 = build_realization("E", 7)
    check("v_E7 in V^-4(E7)", lambda: build_vE7(lr7), lr7)

    elapsed = time.monotonic() - started
    failures = [name for name, status in results if status == "FAILED"]
    capped = [name for name, status in results if status == "capped"]
    detail = f"{len(results)} vectors, {elapsed:.1f}s"
    if capped:
        detail += f", capped: {', '.join(capped)}"
    record_acceptance(
        "criterion 1: singular-vector suite", not failures, detail
    )
    assert not failures, failures
    assert elapsed < 300


def test_criterion_2_oracle_equivalence():
    lr4 = build_realization("D", 4)
    ker4 = singular_kernel(lr4, Q(-2), vec(1, 1, 1, 1), 2)
    ok = len(ker4) == 1 and proportional(build_w1_D(lr4), ker4[0]) is not None

    lr6 = build_realization("D", 6)
    ker6 = singular_kernel(lr6, Q(-4), vec(1, 1, 1, 1, 1, 1), 3)
    ok = ok and len(ker6) == 1
    ok = ok and proportional(build_w_n(lr6, 1), ker6[0]) is not None

    record_acceptance(
        "criterion 2: brute-force kernel equivalence", ok,
        f"dims {len(ker4)} and {len(ker6)}",
    )
    assert ok


def test_criterion_3_rank_six_signs_and_involution_counts():
    lr = build_realization("D", 6)
    w = build_w_n(lr, 1)
    ok = w.support_size() == 15
    observed, reference, multisets = [], [], []
    for mono, c in sorted(w.terms.items()):
        roots = monomial_roots(lr, mono)
        matching = tuple(sorted(
            tuple(sorted(i + 1 for i, x in enumerate(r) if x)) for r in roots
        ))
        ok = ok and matching in D6_MATCHING_SIGNS and abs(c) == 1
        observed.append(1 if c > 0 else -1)
        reference.append(D6_MATCHING_SIGNS[matching])
        multisets.append(roots)
    ok = ok and sign_pattern_flip_equivalent(multisets, observed, reference)
    counts = [len(enumerate_involutions(l)) for l in range(1, 7)]
    ok = ok and counts == [1, 3, 15, 105, 945, 10395]
    ok = ok and counts == [double_factorial_odd(l) for l in range(1, 7)]
    record_acceptance(
        "criterion 3: sign-for-sign expansion and involution counts", ok,
        f"exact match: {observed == reference}",
    )
    assert ok


def test_criterion_4_table_audits():
    t1 = table1_audit(DEFAULT_AUDIT_ALGEBRAS)
    t5 = table5_audit()
    ok = all(r["ok"] for r in t1) and all(r["ok"] for r in t5)
    named = {
        ("E", 8, Q(-10)): ("E7", Q(-4)),
        ("E", 7, Q(-6)): ("so(12)", Q(-2)),
        ("E", 6, Q(-4)): ("sl(6)", Q(-1)),
        ("F", 4, Q(-3)): ("sp(6)", Q(-1, 2)),
        ("G", 2, Q(-4, 3)): ("sl(2)", Q(1)),
    }
    for (fam, rank, k), expected in named.items():
        ok = ok and collapsed_level((fam, rank), k) == expected
    trivial_targets = [r for r in t5 if r["stored"]["target"] == "C"]
    ok = ok and all(r["stored"]["k_prime"] == 0 for r in trivial_targets)
    # polynomial root sets
    ok = ok and set(p_of_k(("E", 8)).roots) == {-6, -10}
    ok = ok and set(p_of_k(("G", 2)).roots) == {Q(-4, 3), Q(-5, 3)}
    ok = ok and all(
        set(p_of_k(("D", l)).roots) == {-2, 2 - l} for l in (4, 5, 6, 7, 8)
    )
    record_acceptance(
        "criterion 4: table audits", ok,
        f"{len(t1)} grading rows, {len(t5)} collapsing rows",
    )
    assert ok


def test_criterion_5_conformal_weight_identities():
    ok = True
    for l in range(4, 9):
        rs = build_root_system("D", l)
        w1 = fundamental_weight(rs, 1)
        for j in range(0, 7):
            got = w_lowest_weight(rs, vscale(j, w1), -2)
            ok = ok and got == Q(j * (j + 2), 4 * (l - 2))
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        h = Q(rng.randint(-60, 120), rng.randint(1, 8))
        k_half = -h / 2 + 1
        k_del = -h / 6 - 1
        if h == 0 or k_half == -h or k_del == -h:
            continue
        checked += 1
        ok = ok and set(ell_equation_roots(k_half)) == set(half_level_roots(h))
        ok = ok and set(ell_equation_roots(k_del)) == set(deligne_level_roots(h))
        k = Q(rng.randint(-40, 40), rng.randint(1, 6))
        ok = ok and all(r * r - (k + 1) * r == 0 for r in ell_equation_roots(k))
    record_acceptance(
        "criterion 5: conformal-weight identities", ok,
        f"{checked} random specializations",
    )
    assert ok


def test_criterion_6_classification_enumerators():
    ok = True
    for l in (4, 5, 6, 7, 8):
        spec = kl_spectrum(("D", l), -2)
        rs = build_root_system("D", l)
        w1 = fundamental_weight(rs, 1)
        ok = ok and spec.weights() == [vscale(j, w1) for j in range(l - 4 + 1)]
    for l in (3, 4, 5):
        spec = kl_spectrum(("B", l), -2)
        rs = build_root_system("B", l)
        w1 = fundamental_weight(rs, 1)
        bound = 2 * (l - 3) + 1
        ok = ok and spec.weights() == [vscale(j, w1) for j in range(bound + 1)]
    for l in (5, 6, 7):
        spec = kl_spectrum(("D", l), 2 - l, "vbar")
        rs = build_root_system("D", l)
        wl = fundamental_weight(rs, l)
        wl1 = fundamental_weight(rs, l - 1)
        got = spec.weights(limit=6)
        ok = ok and all(vscale(t, wl) in got and vscale(t, wl1) in got
                        for t in range(6))
    unique_cases = [
        (g, -build_root_system(*g).dual_coxeter / 6 - 1)
        for g in deligne_series()
    ]
    unique_cases += [(("D", 2 * m), Q(2 - 2 * m)) for m in (2, 3, 4)]
    unique_cases += [(("E", 8), Q(-10))]
    for g, k in unique_cases:
        rs = build_root_system(*g)
        spec = kl_spectrum(g, k)
        ok = ok and spec.weights() == [vzero(rs.ambient)]
        ok = ok and p_of_k(g).evaluate(k) == 0
    record_acceptance(
        "criterion 6: classification enumerators", ok,
        f"{len(unique_cases)} unique-module cases",
    )
    assert ok


def test_criterion_7_property_sweeps():
    import itertools

    ok = True
    # exhaustive Jacobi and invariance up to rank four
    for family, rank in [("D", 4), ("B", 4), ("C", 4), ("A", 4)]:
        lr = build_realization(family, rank)
        triples = itertools.product(range(lr.dim), repeat=3)
        ok = ok and identity_failure(lr, triples) is None
    # seeded sample for the 133-dimensional algebra
    lr = build_realization("E", 7)
    rng = random.Random(7777)
    triples = [tuple(rng.randrange(lr.dim) for _ in range(3))
               for _ in range(10_000)]
    ok = ok and identity_failure(lr, triples) is None

    # commutator consistency of the loop action, seeded
    from test_pbw import random_small_state

    for family, rank, seed in [("D", 4, 21), ("B", 3, 22), ("C", 3, 23)]:
        lr = build_realization(family, rank)
        rng = random.Random(seed)
        done = 0
        while done < 40:
            v = random_small_state(lr, rng, Q(-2))
            if v is None or v.is_zero():
                continue
            done += 1
            a, b = rng.randrange(lr.dim), rng.randrange(lr.dim)
            m, n_ = rng.randint(-2, 2), rng.randint(-2, 2)
            ga, gb = (m, a), (n_, b)
            lhs = apply(lr, ga, apply(lr, gb, v))
            rhs = apply(lr, gb, apply(lr, ga, v)).terms.copy()
            for idx, coef in lr.bracket(a, b):
                for mono, c in apply(lr, (m + n_, idx), v).terms.items():
                    rhs[mono] = rhs.get(mono, Q(0)) + coef * c
            if m + n_ == 0 and lr.form(a, b):
                for mono, c in v.terms.items():
                    rhs[mono] = rhs.get(mono, Q(0)) + m * Q(-2) * lr.form(a, b) * c
            ok = ok and lhs.terms == {mm: c for mm, c in rhs.items() if c}

    # apply grading shifts on 1000 random (generator, state) pairs per algebra
    for family, rank, seed in [("D", 4, 11), ("B", 3, 12), ("C", 3, 13)]:
        lr = build_realization(family, rank)
        rng = random.Random(seed)
        pairs = 0
        while pairs < 1000:
            v = random_small_state(lr, rng, Q(-2))
            if v is None or v.is_zero():
                continue
            pairs += 1
            b = rng.randrange(lr.dim)
            mode = rng.randint(-2, 2)
            img = apply(lr, (mode, b), v)
            ok = ok and img.weight == vadd(v.weight, lr.weights[b])
            ok = ok and img.degree == v.degree - mode
    record_acceptance(
        "criterion 7: property sweeps (fixed seeds)", ok,
        "exhaustive rank-four jacobi/invariance + seeded loop-action sweeps",
    )
    assert ok
