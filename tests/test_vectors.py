import hashlib
import itertools
import json
from fractions import Fraction as Q

import pytest

from vkg import vectors
from vkg.liealg import _acc, _lift, build_realization
from vkg.pbw import (
    CapExceededError,
    _Engine,
    is_singular,
    proportional,
    singular_kernel,
    vacuum,
)
from vkg.rootdata import vadd, vec, vscale
from vkg.serialize import state_to_json
from vkg.vectors import (
    _power,
    build_v_n,
    build_vE7,
    build_w1_B,
    build_w1_D,
    build_w3_D4,
    build_w_n,
    double_factorial_odd,
    e7_d6_a1_subalgebra,
    e7_support_products,
    enumerate_involutions,
    involution_sign,
    resolve_signs,
    theta_image,
)

from helpers import (
    expand,
    flip_root_pair,
    flip_vector_signs,
    in_span_of_component,
    monomial_roots,
    sign_pattern_flip_equivalent,
)


def test_involution_counts():
    for l in range(1, 7):
        invs = enumerate_involutions(l)
        assert len(invs) == double_factorial_odd(l)
        assert len(set(invs)) == len(invs)
    assert [double_factorial_odd(l) for l in range(1, 7)] == [
        1, 3, 15, 105, 945, 10395,
    ]


def test_involution_canonical_order():
    for p in enumerate_involutions(3):
        firsts = [i for i, _ in p]
        assert firsts == sorted(firsts)
        assert all(i < j for i, j in p)
        flat = sorted(x for pair in p for x in pair)
        assert flat == list(range(1, 7))


def test_involution_signs():
    assert involution_sign(((1, 2), (3, 4))) == 1
    assert involution_sign(((1, 3), (2, 4))) == -1
    assert involution_sign(((1, 4), (2, 3))) == 1
    assert involution_sign(((1, 2),)) == 1


def conjugate_involution(p, a, b):
    """Exchange the letters a and b; recanonicalize, tracking the pair
    inversions (each inverted pair contributes -1 for an antisymmetric
    entry)."""
    swap = {a: b, b: a}
    inversions = 0
    pairs = []
    for i, j in p:
        ti, tj = swap.get(i, i), swap.get(j, j)
        if ti > tj:
            inversions += 1
            ti, tj = tj, ti
        pairs.append((ti, tj))
    return tuple(sorted(pairs)), inversions


@pytest.mark.parametrize("l", [1, 2, 3])
def test_signed_sum_total_antisymmetry(l):
    """The signed matching sum is totally antisymmetric: exchanging any two
    letters (with antisymmetric pair entries) negates every term."""
    for p in enumerate_involutions(l):
        for a, b in itertools.combinations(range(1, 2 * l + 1), 2):
            q, inversions = conjugate_involution(p, a, b)
            assert involution_sign(q) * (-1) ** inversions == -involution_sign(p)


# ---------------------------------------------------------------------------
# construction and singularity of the displayed vectors


@pytest.mark.parametrize("l,n", [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1)])
def test_v_n_singular(l, n):
    lr = build_realization("D", l)
    v = build_v_n(lr, n)
    assert v.level == n - l + 1
    assert v.weight == vscale(2 * n, vec(*([1] + [0] * (l - 1))))
    assert v.degree == 2 * n
    assert is_singular(lr, v)[0]
    assert not is_singular(lr, v.at_level(v.level + 1))[0]


@pytest.mark.parametrize("twol,n", [(4, 1), (4, 2), (6, 1)])
def test_w_n_singular(twol, n):
    lr = build_realization("D", twol)
    w = build_w_n(lr, n)
    assert w.level == n - twol + 1
    assert w.weight == tuple([Q(n)] * twol)
    assert w.degree == n * (twol // 2)
    assert is_singular(lr, w)[0]
    assert not is_singular(lr, w.at_level(w.level + 1))[0]


def test_w_n_degree_is_n_ell():
    lr = build_realization("D", 6)
    assert build_w_n(lr, 1).degree == 3


def test_w1_matches_w_n_at_d4():
    lr = build_realization("D", 4)
    assert build_w_n(lr, 1).terms == build_w1_D(lr).terms


@pytest.mark.parametrize("l", [4, 5, 6])
def test_w1_D_singular(l):
    lr = build_realization("D", l)
    w = build_w1_D(lr)
    assert w.weight == tuple([Q(1)] * 4 + [Q(0)] * (l - 4))
    assert is_singular(lr, w)[0]
    assert w.support_size() == 3


def test_w1_D_coefficients():
    lr = build_realization("D", 4)
    w = build_w1_D(lr)
    coeff_by_pairs = {}
    for mono, c in w.terms.items():
        key = frozenset(monomial_roots(lr, mono))
        coeff_by_pairs[key] = c
    assert coeff_by_pairs[frozenset({vec(1, 1, 0, 0), vec(0, 0, 1, 1)})] == 1
    assert coeff_by_pairs[frozenset({vec(1, 0, 1, 0), vec(0, 1, 0, 1)})] == -1
    assert coeff_by_pairs[frozenset({vec(1, 0, 0, 1), vec(0, 1, 1, 0)})] == 1


def test_w3_d4_singular():
    lr = build_realization("D", 4)
    w = build_w3_D4(lr)
    assert w.weight == vec(1, 1, 1, -1)
    assert is_singular(lr, w)[0]


# Example: the 15-monomial expansion at rank six, sign for sign.
D6_MATCHING_SIGNS = {
    ((1, 2), (3, 4), (5, 6)): 1,
    ((1, 2), (3, 5), (4, 6)): -1,
    ((1, 2), (3, 6), (4, 5)): 1,
    ((1, 3), (2, 4), (5, 6)): -1,
    ((1, 3), (2, 5), (4, 6)): 1,
    ((1, 3), (2, 6), (4, 5)): -1,
    ((1, 4), (2, 3), (5, 6)): 1,
    ((1, 4), (2, 5), (3, 6)): -1,
    ((1, 4), (2, 6), (3, 5)): 1,
    ((1, 5), (2, 3), (4, 6)): -1,
    ((1, 5), (2, 4), (3, 6)): 1,
    ((1, 5), (2, 6), (3, 4)): -1,
    ((1, 6), (2, 3), (4, 5)): 1,
    ((1, 6), (2, 4), (3, 5)): -1,
    ((1, 6), (2, 5), (3, 4)): 1,
}


def pair_root(i, j, dim):
    v = [Q(0)] * dim
    v[i - 1] = Q(1)
    v[j - 1] = Q(1)
    return tuple(v)


def test_w1_d6_sign_for_sign():
    lr = build_realization("D", 6)
    w = build_w_n(lr, 1)
    assert w.support_size() == 15
    observed, reference, root_multisets = [], [], []
    seen = set()
    for mono, c in w.terms.items():
        roots = monomial_roots(lr, mono)
        matching = tuple(sorted(
            tuple(sorted(i + 1 for i, x in enumerate(r) if x)) for r in roots
        ))
        assert matching in D6_MATCHING_SIGNS
        seen.add(matching)
        assert abs(c) == 1
        observed.append(1 if c > 0 else -1)
        reference.append(D6_MATCHING_SIGNS[matching])
        root_multisets.append(roots)
    assert seen == set(D6_MATCHING_SIGNS)
    # the canonical realization reproduces the signs on the nose
    assert observed == reference
    # and the documented equivalence (modulo per-root sign flips) holds too
    assert sign_pattern_flip_equivalent(root_multisets, observed, reference)


def test_sign_flip_equivalence_is_not_vacuous():
    lr = build_realization("D", 6)
    w = build_w_n(lr, 1)
    observed, reference, root_multisets = [], [], []
    for mono, c in sorted(w.terms.items()):
        roots = monomial_roots(lr, mono)
        observed.append(1 if c > 0 else -1)
        reference.append(1 if c > 0 else -1)
        root_multisets.append(roots)
    # flipping a single monomial's sign cannot come from per-root flips
    broken = list(reference)
    broken[0] = -broken[0]
    assert not sign_pattern_flip_equivalent(root_multisets, observed, broken)
    # flipping one root flips exactly the three matchings through it
    flipped = []
    target = pair_root(1, 2, 6)
    for roots, obs in zip(root_multisets, observed):
        flipped.append(-obs if target in roots else obs)
    assert sign_pattern_flip_equivalent(root_multisets, observed, flipped)


def test_theta_image():
    for l in (4, 6):
        lr = build_realization("D", l)
        w1 = build_w_n(lr, 1)
        tw = theta_image(lr, w1)
        assert tw.weight == tuple([Q(1)] * (l - 1) + [Q(-1)])
        assert is_singular(lr, tw)[0]
        back = theta_image(lr, tw)
        assert proportional(back, w1) == 1
        assert proportional(tw, w1) is None


@pytest.mark.parametrize("l", [2, 3, 4])
def test_w1_B_singular(l):
    lr = build_realization("B", l)
    w = build_w1_B(lr)
    assert is_singular(lr, w)[0]
    assert not is_singular(lr, w.at_level(Q(-1)))[0]


def test_w1_B2_frozen_expansion():
    """The rank-two vector, pinned by elimination: support and coefficients."""
    lr = build_realization("B", 2)
    w = build_w1_B(lr)
    assert w.weight == vec(1, 0) and w.degree == 2
    expected = {
        ((-1, lr.h(2)), (-1, lr.e(vec(1, 0)))): Q(-1),
        ((-1, lr.e(vec(0, -1))), (-1, lr.e(vec(1, 1)))): Q(1),
        ((-1, lr.e(vec(0, 1))), (-1, lr.e(vec(1, -1)))): Q(1),
    }
    assert w.terms == expected


def test_w1_B3_display():
    lr = build_realization("B", 3)
    w = build_w1_B(lr)
    coeff_by_roots = {
        frozenset(monomial_roots(lr, mono)): c for mono, c in w.terms.items()
    }
    assert coeff_by_roots == {
        frozenset({vec(1, 1, 0), vec(0, 0, 1)}): Q(1),
        frozenset({vec(1, 0, 1), vec(0, 1, 0)}): Q(-1),
        frozenset({vec(1, 0, 0), vec(0, 1, 1)}): Q(1),
    }


def test_component_cap_refusal():
    lr = build_realization("D", 6)
    with pytest.raises(CapExceededError):
        build_v_n(lr, 3, cap=10)
    with pytest.raises(CapExceededError):
        build_w_n(lr, 1, cap=10)


def test_w_n_cap_is_checked_before_the_involutions(monkeypatch):
    def refuse(l):
        raise AssertionError("involutions listed before the cap check")

    monkeypatch.setattr("vkg.vectors.enumerate_involutions", refuse)
    with pytest.raises(CapExceededError):
        build_w_n(build_realization("D", 8), 1, cap=10)


# ---------------------------------------------------------------------------
# what _power refuses, and what a cancelling sum gives


def _pair(lr, a, b):
    return [(-1, lr.e(a)), (-1, lr.e(b))]


def test_power_refuses_mixed_weight_summands():
    lr = build_realization("D", 4)
    summands = [(Q(1), _pair(lr, vec(1, 1, 0, 0), vec(0, 0, 1, 1))),
                (Q(1), _pair(lr, vec(1, 1, 0, 0), vec(0, 0, 1, -1)))]
    with pytest.raises(ValueError, match="weight or degree"):
        _power(lr, summands, Q(-2))
    # the same weight at another degree is refused too
    summands[1] = (Q(1), [(-2, lr.e(vec(1, 1, 0, 0))),
                          (-1, lr.e(vec(0, 0, 1, 1)))])
    with pytest.raises(ValueError, match="weight or degree"):
        _power(lr, summands, Q(-2))


def test_power_refuses_a_vector_outside_its_component():
    lr = build_realization("D", 4)
    summands = [(Q(1), _pair(lr, vec(1, 1, 0, 0), vec(0, 0, 1, 1)))]
    with pytest.raises(ValueError, match="landed outside its weight and degree"):
        _power(lr, summands, Q(-2), weight=vec(1, 1, 1, 1), degree=3)
    with pytest.raises(ValueError, match="landed outside its weight and degree"):
        _power(lr, summands, Q(-2), n=2, weight=vec(1, 1, 1, 1), degree=2)
    assert _power(lr, summands, Q(-2), weight=vec(1, 1, 1, 1), degree=2)


def test_power_refuses_no_summands():
    lr = build_realization("D", 4)
    with pytest.raises(ValueError, match="no summands"):
        _power(lr, [], Q(-2))
    with pytest.raises(ValueError, match="no summands"):
        _power(lr, iter(()), Q(-2), n=3)


@pytest.mark.parametrize("n", [1, 2])
def test_power_of_a_cancelling_sum_is_zero_in_its_component(n):
    # e_a(-1) e_b(-1) = e_b(-1) e_a(-1) when [e_a, e_b] = 0, so the sum cancels
    lr = build_realization("D", 4)
    a, b = vec(1, 1, 0, 0), vec(0, 0, 1, 1)
    v = _power(lr, [(Q(1), _pair(lr, a, b)), (Q(-1), _pair(lr, b, a))],
               Q(-5, 2), n)
    assert v.is_zero() and v.terms == {}
    assert v.level == Q(-5, 2)
    assert v.weight == vscale(n, vadd(a, b))
    assert v.degree == 2 * n


# ---------------------------------------------------------------------------
# the sorted runs of _power against the straightening engine


def _engine_power(lr, summands, level, n):
    """(sum of coef * product)^n 1 with every product straightened by the
    engine, as (monomial, coefficient) pairs in insertion order."""
    engine = _Engine(lr, level)
    terms = {(): 1}
    for _ in range(n):
        total = {}
        for coef, gens in summands:
            for mono, c in engine.act_string(gens, terms).items():
                _acc(total, mono, _lift(Q(coef)) * c)
        terms = total
    return [(m, Q(c)) for m, c in terms.items()]


def _checked_powers(monkeypatch, build, lr):
    """Build a vector, comparing each ``_power`` call with ``_engine_power``;
    returns the vector, whether each call went through ``act_string``, and
    how many engines each call built."""
    calls, engine_used, built, engines = [], [], [], []
    act_string, power, init = (_Engine.act_string, vectors._power,
                               _Engine.__init__)

    def counted(self, gens, terms):
        calls.append(gens)
        return act_string(self, gens, terms)

    def constructed(self, lr, k):
        built.append(k)
        init(self, lr, k)

    def checked(lr, summands, level, n=1, **kwargs):
        summands = list(summands)
        calls.clear()
        built.clear()
        v = power(lr, summands, level, n, **kwargs)
        engine_used.append(bool(calls))
        engines.append(len(built))
        assert list(v.terms.items()) == _engine_power(lr, summands, level, n)
        return v

    monkeypatch.setattr(_Engine, "act_string", counted)
    monkeypatch.setattr(_Engine, "__init__", constructed)
    monkeypatch.setattr(vectors, "_power", checked)
    return build(lr), engine_used, engines


@pytest.mark.parametrize("family, rank, build", [
    ("D", 4, build_w1_D),
    ("B", 4, build_w1_B),
    ("D", 4, build_w3_D4),
    ("D", 5, lambda lr: build_v_n(lr, 1)),
    ("D", 5, lambda lr: build_v_n(lr, 2)),
    ("D", 6, lambda lr: build_v_n(lr, 3)),
    ("D", 6, lambda lr: build_w_n(lr, 1)),
    ("D", 8, lambda lr: build_w_n(lr, 2)),
    ("D", 6, lambda lr: theta_image(lr, build_w_n(lr, 1))),
], ids=["w1 D4", "w1 B4", "w3 D4", "v_1 D5", "v_2 D5", "v_3 D6", "w_1 D6",
        "w_2 D8", "theta-w_1 D6"])
def test_power_sorted_runs_match_the_engine(monkeypatch, family, rank, build):
    # the paper's factors commute and pair to zero: no product is straightened
    # and no engine is built
    v, engine_used, engines = _checked_powers(monkeypatch, build,
                                              build_realization(family, rank))
    assert not v.is_zero() and engine_used and not any(engine_used)
    assert not any(engines)


def test_power_straightens_b3_w1_through_the_engine(monkeypatch):
    # e_{eps2} and e_{eps3} do not commute, so the sorted runs do not apply
    v, engine_used, engines = _checked_powers(monkeypatch, build_w1_B,
                                              build_realization("B", 3))
    assert not v.is_zero() and engine_used == [True]
    assert engines == [1]


def test_power_straightens_a_nonnegative_mode(monkeypatch):
    # e_a(0) commutes with e_b(-1) and kills the vacuum: the product is zero,
    # not a monomial with a mode 0 factor
    a, b = vec(1, 1, 0, 0), vec(0, 0, 1, 1)

    def build(lr):
        return vectors._power(lr, [(Q(1), [(0, lr.e(a)), (-1, lr.e(b))])],
                              Q(-2))

    v, engine_used, engines = _checked_powers(monkeypatch, build,
                                              build_realization("D", 4))
    assert v.is_zero() and engine_used == [True]
    assert engines == [1]


# ---------------------------------------------------------------------------
# oracle equivalence with the brute-force kernel


def test_kernel_oracle_d4():
    lr = build_realization("D", 4)
    ker = singular_kernel(lr, Q(-2), vec(1, 1, 1, 1), 2)
    assert len(ker) == 1
    assert proportional(build_w_n(lr, 1), ker[0]) is not None
    assert proportional(build_v_n(lr, 1), ker[0]) is None
    ker_v = singular_kernel(lr, Q(-2), vec(2, 0, 0, 0), 2)
    assert len(ker_v) == 1
    assert proportional(build_v_n(lr, 1), ker_v[0]) is not None


def test_kernel_oracle_d6():
    lr = build_realization("D", 6)
    ker = singular_kernel(lr, Q(-4), vec(1, 1, 1, 1, 1, 1), 3)
    assert len(ker) == 1
    assert proportional(build_w_n(lr, 1), ker[0]) is not None


# ---------------------------------------------------------------------------
# sign-flip covariance: flipping one root pair re-signs kernel coefficients


def test_kernel_covariance_under_root_flip():
    lr = build_realization("D", 4)
    root = vec(1, 1, 0, 0)
    lr2 = flip_root_pair(lr, root)
    k1 = singular_kernel(lr, Q(-2), vec(1, 1, 1, 1), 2)
    k2 = singular_kernel(lr2, Q(-2), vec(1, 1, 1, 1), 2)
    assert len(k1) == len(k2) == 1
    resigned = flip_vector_signs(lr, k1[0], root)
    assert proportional(k2[0], resigned) is not None
    # the re-signed image is singular in the flipped realization ...
    assert is_singular(lr2, resigned)[0]
    # ... and differs from the original by more than a global scalar
    assert proportional(k1[0], resigned) is None


# ---------------------------------------------------------------------------
# the E7 vector


def test_e7_support_weight_homogeneous():
    lr = build_realization("E", 7)
    products = e7_support_products(lr)
    assert len(products) == 5
    weights = {vadd(a, b) for a, b in products}
    assert len(weights) == 1
    (w,) = weights
    assert w == vadd(lr.rs.theta, pair_root(5, 6, 8))


def test_resolve_signs_dimension_and_magnitudes():
    lr = build_realization("E", 7)
    sol, monos = resolve_signs(lr)
    assert len(sol) == len(monos) == 5
    assert sol[0] == 1
    assert {abs(c) for c in sol} == {Q(1)}
    # the resolved pattern is flip-equivalent to the all-plus display
    root_multisets = [monomial_roots(lr, m) for m in monos]
    observed = [1 if c > 0 else -1 for c in sol]
    assert sign_pattern_flip_equivalent(root_multisets, observed, [1] * 5)


def test_vE7_singular():
    lr = build_realization("E", 7)
    v = build_vE7(lr)
    assert v.support_size() == 5
    assert is_singular(lr, v)[0]
    assert not is_singular(lr, v.at_level(Q(-3)))[0]
    # uniqueness on its full graded component, not just the support
    ker = singular_kernel(lr, Q(-4), v.weight, 2)
    assert len(ker) == 1
    assert proportional(v, ker[0]) is not None


def test_e7_d6_a1_subalgebra_structure():
    lr = build_realization("E", 7)
    rs = lr.rs
    pos, a1_root, generators = e7_d6_a1_subalgebra(lr)
    assert len(pos) == 30
    assert len(set(pos)) == 30
    root_set = set(rs.roots)
    assert all(r in root_set for r in pos)
    assert a1_root in root_set
    # the A1 factor is orthogonal to the whole D6 subsystem
    assert all(rs.form(a1_root, r) == 0 for r in pos)
    # the 60 roots form a D6 subsystem
    from vkg.rootdata import classify_subsystem
    full = list(pos) + [vscale(-1, r) for r in pos]
    assert classify_subsystem(full) == ("D", 6)
    # the six generators lie in the subsystem and are its simple roots:
    # every positive root is a nonnegative integer combination of them
    assert all(g in pos for g in generators)
    for r in pos:
        coeffs = expand(list(generators), r)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
    # bracket closure: [subsystem, subsystem] stays inside it + its Cartan
    span = set(full)
    for a in full:
        for b in full:
            for idx, _ in lr.bracket(lr.e(a), lr.e(b)):
                lab = lr.labels[idx]
                assert lab[0] == "h" or lab[1] in span


def test_ideal_generator_fixtures():
    """The three displayed generators are simultaneously singular at the
    even-rank special level: the quadratic v_1, the matching sum w_1, and
    its diagram twist."""
    for twol in (4, 6):
        lr = build_realization("D", twol)
        k = Q(2 - twol)
        v1 = build_v_n(lr, 1)
        w1 = build_w_n(lr, 1)
        tw1 = theta_image(lr, w1)
        assert v1.level == w1.level == tw1.level == k
        for v in (v1, w1, tw1):
            assert is_singular(lr, v)[0]
        weights = {v1.weight, w1.weight, tw1.weight}
        assert len(weights) == 3


def permutation_sign_by_cycles(perm):
    """Independent sign computation via cycle decomposition."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_involution_sign_against_cycle_oracle(l):
    for p in enumerate_involutions(l):
        flat = [x for pair in p for x in pair]
        assert involution_sign(p) == permutation_sign_by_cycles(flat)


def test_theta_image_of_v1_is_singular():
    # the quadratic vector's weight is fixed by the diagram twist, and the
    # automorphism image must stay singular
    for l in (4, 5):
        lr = build_realization("D", l)
        v1 = build_v_n(lr, 1)
        tv = theta_image(lr, v1)
        assert tv.weight == v1.weight
        assert is_singular(lr, tv)[0]


def test_w1_and_w3_fail_at_shifted_level():
    lr = build_realization("D", 4)
    for build in (build_w1_D, build_w3_D4):
        v = build(lr)
        assert is_singular(lr, v)[0]
        assert not is_singular(lr, v.at_level(Q(-1)))[0]
        assert not is_singular(lr, v.at_level(Q(0)))[0]


def test_families_extend_beyond_acceptance_grid():
    # the constructions hold for every positive power, including levels >= 0
    lr4 = build_realization("D", 4)
    w3_power = build_w_n(lr4, 3)  # level 0
    assert w3_power.level == 0 and w3_power.support_size() == 10
    assert is_singular(lr4, w3_power)[0]
    v4 = build_v_n(lr4, 4)  # level +1
    assert v4.level == 1 and v4.degree == 8
    assert is_singular(lr4, v4)[0]
    lr6 = build_realization("D", 6)
    w2 = build_w_n(lr6, 2)  # level -3, 120 support monomials
    assert w2.support_size() == 120
    assert is_singular(lr6, w2)[0]


def test_w1_B5_via_long_root_subalgebra():
    lr = build_realization("B", 5)
    w = build_w1_B(lr)
    assert is_singular(lr, w)[0]


def test_all_constructors_lie_in_their_components():
    cases = []
    for l in (4, 5):
        lr = build_realization("D", l)
        cases += [(lr, build_w1_D(lr)), (lr, build_v_n(lr, 1)),
                  (lr, build_v_n(lr, 2))]
    lr4 = build_realization("D", 4)
    cases += [(lr4, build_w3_D4(lr4)), (lr4, build_w_n(lr4, 2)),
              (lr4, theta_image(lr4, build_w_n(lr4, 1)))]
    lr6 = build_realization("D", 6)
    cases += [(lr6, build_w_n(lr6, 1)), (lr6, build_v_n(lr6, 3))]
    for l in (2, 3, 4):
        lr = build_realization("B", l)
        cases.append((lr, build_w1_B(lr)))
    lr7 = build_realization("E", 7)
    cases.append((lr7, build_vE7(lr7)))
    for lr, v in cases:
        assert in_span_of_component(lr, v)


def _vector_cases():
    D = {l: build_realization("D", l) for l in range(4, 8)}
    B = {l: build_realization("B", l) for l in range(2, 6)}
    E7 = build_realization("E", 7)
    cases = {f"w1 D{l}": (D[l], build_w1_D(D[l])) for l in range(4, 8)}
    cases.update({f"w1 B{l}": (B[l], build_w1_B(B[l])) for l in range(2, 6)})
    cases.update({f"v_1 D{l}": (D[l], build_v_n(D[l], 1)) for l in range(4, 8)})
    cases["v_2 D5"] = (D[5], build_v_n(D[5], 2))
    cases["v_3 D6"] = (D[6], build_v_n(D[6], 3))
    cases["w3 D4"] = (D[4], build_w3_D4(D[4]))
    for l, n in ((6, 1), (4, 2)):
        w = build_w_n(D[l], n)
        cases[f"w_{n} D{l}"] = (D[l], w)
        cases[f"theta w_{n} D{l}"] = (D[l], theta_image(D[l], w))
    cases["vE7"] = (E7, build_vE7(E7))
    return cases


# SHA-256 of the compact, key-sorted JSON of state_to_json, recorded before
# the formula vectors moved onto one construction path.  A change to a
# monomial, a coefficient, the level, the weight or the degree fails here.
VECTOR_DIGESTS = {
    "w1 D4": "61108101791bb49c73dd909a216222a4713ee3d1825806fd816411d016aaf69d",
    "w1 D5": "269c6ba671cdb96e5badd92a70ec396730990def933a600c335e5c9f83e76e23",
    "w1 D6": "37c5416442cc218c996e32bdbfcc92bc550e51f264b86c81674f95afb1af6915",
    "w1 D7": "e3bb1aa6bb89618499d486d67b9e8a27b9aac2fdf44dabfb44a80666310012a8",
    "w1 B2": "953d5da95b5e636543bbd37099d61eb8a8a699e759348eda42353cec0ad235fc",
    "w1 B3": "c750bd60662e81f6918ae32306e3e023c626fb948b1fa9476bb3d3ac4195b92d",
    "w1 B4": "61108101791bb49c73dd909a216222a4713ee3d1825806fd816411d016aaf69d",
    "w1 B5": "269c6ba671cdb96e5badd92a70ec396730990def933a600c335e5c9f83e76e23",
    "v_1 D4": "3faa6f996e5f0b49b3dfd1a66c2ce19550a3ae98b661e8f9201357c0e99e56d2",
    "v_1 D5": "f11cfd898881a7d175c8fb5d2899beea85f983bd2c2db3db3dbc1e89665d7dda",
    "v_1 D6": "333cfa8f2bfd470a32f219083a371ccc71f8fb3a26ba5ef84ca06184d93c64d4",
    "v_1 D7": "5cb104824fa53fd9e9d284bf837799b5dd2d5acb5b5c636bc2abf550af4a778a",
    "v_2 D5": "472f2c54765077356d8766781c8e9ef8a56bee6b43ff73004ec2050ff1e444e5",
    "v_3 D6": "58ae879a4d625e7e2ac6d431faaeb269af142eab55182c0f5b0f74f13037a210",
    "w3 D4": "309bb390f1f295473aa5ee86830f75413fad800191f2d37777a96a20cb850033",
    "w_1 D6": "9b583589650ee969fe514ef0251bd4bb11e4e4570dcd6d83b8a4cb2de395b9ee",
    "theta w_1 D6": "5f59715bd51717b7ff80b5ac90fb4e07a7322c2042f2cc20ae36e1829b5c9e88",
    "w_2 D4": "545755d095023a505d7a42a14c13ee7e76b9ab303077912cd89932a498d5bd2b",
    "theta w_2 D4": "33180c7a8531e666666cb96f9192aec19409f25dc40d7e6ed1ecbcce27742100",
    "vE7": "b6498c9435aa7bbf34eee566cc3b6b1d5b318b12ccc6b9d113dc1775506cc94c",
}


def test_vector_json_digest():
    got = {}
    for name, (lr, v) in _vector_cases().items():
        text = json.dumps(state_to_json(lr, v), sort_keys=True,
                          separators=(",", ":"))
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == VECTOR_DIGESTS
