import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from vkg.liealg import _lift, build_realization
from vkg.pbw import (
    MAX_SEARCH_DEGREE,
    CapExceededError,
    StateVector,
    apply,
    _Engine,
    _raising_images,
    apply_string,
    component_size,
    constraint_rows,
    graded_basis,
    is_singular,
    proportional,
    raising_generators,
    singular_kernel,
    vacuum,
)
from vkg.rootdata import vadd, vec, vscale, vzero
from vkg import serialize
from vkg.vectors import build_v_n, build_w_n

from helpers import (
    ReferenceStraightener,
    in_span_of_component,
    state_from_json,
)

D4 = build_realization("D", 4)
B2 = build_realization("B", 2)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def gen(lr, root, mode):
    return (mode, lr.e(root))


def w1_d4(level=Q(-2)):
    vac = vacuum(D4, level)
    pieces = [
        (1, vec(1, 1, 0, 0), vec(0, 0, 1, 1)),
        (-1, vec(1, 0, 1, 0), vec(0, 1, 0, 1)),
        (1, vec(1, 0, 0, 1), vec(0, 1, 1, 0)),
    ]
    out = None
    for s, a, b in pieces:
        t = apply_string(D4, [gen(D4, a, -1), gen(D4, b, -1)], vac).scaled(s)
        out = t if out is None else out + t
    return out


def test_vacuum_annihilation():
    vac = vacuum(D4, Q(-2))
    for root in (vec(1, 1, 0, 0), vec(-1, -1, 0, 0)):
        for mode in (0, 1, 2):
            assert apply(D4, gen(D4, root, mode), vac).is_zero()
    assert apply(D4, (0, D4.h(1)), vac).is_zero()


def test_single_commutator_example():
    # e_{-a}(1) e_a(-1) vac = k (e_-a | e_a) vac
    k = Q(-2)
    a = vec(1, 1, 0, 0)
    v = apply(D4, gen(D4, a, -1), vacuum(D4, k))
    img = apply(D4, gen(D4, vscale(-1, a), 1), v)
    pairing = D4.form(D4.e(vscale(-1, a)), D4.e(a))
    assert img.terms == {(): k * pairing}


STRAIGHTENED_ALGEBRAS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6)]


def straightening_inputs(lr):
    """Seeded (level, generator, monomial) triples: monomials of length <= 5
    with modes -3..-1, and generators of modes -3..2, at two levels and the
    critical level."""
    rng = random.Random(f"{lr.rs.family}{lr.rs.rank}")
    for k in (Q(-2), Q(-5, 2), -lr.rs.dual_coxeter):
        for _ in range(400):
            mono = tuple(sorted((rng.randint(-3, -1), rng.randrange(lr.dim))
                                for _ in range(rng.randint(0, 5))))
            yield k, (rng.randint(-3, 2), rng.randrange(lr.dim)), mono


@pytest.mark.parametrize("family, rank", STRAIGHTENED_ALGEBRAS)
def test_engine_matches_the_reference_straightener(family, rank):
    lr = build_realization(family, rank)
    engines = {}
    sizes = set()
    for k, gen, mono in straightening_inputs(lr):
        if k not in engines:
            engines[k] = _Engine(lr, k), ReferenceStraightener(lr, k)
        engine, reference = engines[k]
        image = engine.act_string((gen,), {mono: 1})
        assert image == reference.act_mono(gen, mono)
        sizes.add(min(len(image), 2))
    assert sizes == {0, 1, 2}


def test_nested_straightening_calls_lower_the_termination_measure(monkeypatch):
    # the termination measure of the module docstring: each call of _into
    # made inside another lowers (len(prefix) + len(mono), len(prefix))
    # lexicographically; a prefix factor that does not fit keeps the sum
    into = _Engine._into
    measures, rising = [], []
    nested = out_of_order = 0

    def checked(self, out, prefix, gen, mono, c):
        nonlocal nested, out_of_order
        measure = (len(prefix) + len(mono), len(prefix))
        if measures:
            nested += 1
            out_of_order += measure[0] == measures[-1][0]
            if measure >= measures[-1]:
                rising.append((prefix, gen, mono, measures[-1]))
        measures.append(measure)
        try:
            into(self, out, prefix, gen, mono, c)
        finally:
            measures.pop()

    monkeypatch.setattr(_Engine, "_into", checked)
    for family, rank in STRAIGHTENED_ALGEBRAS:
        lr = build_realization(family, rank)
        for k, gen, mono in straightening_inputs(lr):
            _Engine(lr, k).act_string((gen,), {mono: 1})
    d6 = build_realization("D", 6)
    assert is_singular(d6, build_w_n(d6, 1)) == (True, None)
    assert is_singular(D4, build_v_n(D4, 4)) == (True, None)
    assert nested > 0
    assert out_of_order > 0
    assert not rising, (len(rising), rising[:3])


def _reference_image(reference, gen, terms):
    out = {}
    for mono, c in terms.items():
        for m2, c2 in reference.act_mono(gen, mono).items():
            out[m2] = out.get(m2, 0) + c * c2
    return {m: c for m, c in out.items() if c}


def _cancelling_pair(lr, reference):
    """e_a(0) and two terms x h(-1), x' h'(-1) whose images cancel.

    [e_a(0), h(-1)] = [e_a, h](-1) is a multiple of e_a(-1) for every Cartan
    element h, so two terms scaled by each other's multiple cancel.
    """
    cartan = [i for i, lab in enumerate(lr.labels) if lab[0] == "h"]
    a = next(a for a in range(lr.dim)
             if sum(bool(lr.bracket(a, h)) for h in cartan) >= 2)
    h1, h2 = [((-1, h),) for h in cartan if lr.bracket(a, h)][:2]
    gen, target = (0, a), ((-1, a),)
    r1, r2 = reference.act_mono(gen, h1), reference.act_mono(gen, h2)
    assert set(r1) == set(r2) == {target}
    return gen, {h1: r2[target], h2: -r1[target]}


def sliding_combinations(lr):
    """Paper vectors made of long runs of mutually commuting mode -1
    factors, so the commutators of their raising images slide left past
    many prefix factors: v_4 on D4, and 40 seeded monomials of w_2 on D8."""
    if (lr.rs.family, lr.rs.rank) == ("D", 4):
        yield build_v_n(lr, 4)
    if (lr.rs.family, lr.rs.rank) == ("D", 8):
        w = build_w_n(lr, 2)
        monos = random.Random("w_2 on D8").sample(sorted(w.terms), 40)
        yield w._replace(terms={m: w.terms[m] for m in monos})


@pytest.mark.parametrize("family, rank", STRAIGHTENED_ALGEBRAS + [("D", 8)])
def test_act_terms_is_the_sum_of_the_reference_images(family, rank):
    """``_Engine.act_string`` on one generator: one accumulator serves every
    term of a combination, so its image is the sum of the reference images
    of the terms, cancellations included."""
    lr = build_realization(family, rank)
    for v in sliding_combinations(lr):
        assert v.level.denominator == 1
        engine = _Engine(lr, v.level)
        reference = ReferenceStraightener(lr, v.level)
        for _, gen in raising_generators(lr):
            image = engine.act_string((gen,), v.terms)
            assert image == _reference_image(reference, gen, v.terms)
            assert all(type(c) is int for c in image.values())
    rng = random.Random(f"combinations {family}{rank}")
    inputs = list(straightening_inputs(lr))
    for k in (Q(-2), Q(-5, 2), -lr.rs.dual_coxeter):
        engine, reference = _Engine(lr, k), ReferenceStraightener(lr, k)
        den = 1 if k.denominator == 1 else 3
        planted_gen, pair = _cancelling_pair(lr, reference)
        assert engine.act_string((planted_gen,), pair) == {}
        for i in range(60):
            gen = planted_gen if i % 3 == 0 else rng.choice(inputs)[1]
            monos = {rng.choice(inputs)[2] for _ in range(rng.randint(1, 6))}
            terms = {m: Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, den))
                     for m in monos}
            if gen == planted_gen:
                terms.update(pair)
            image = engine.act_string((gen,), terms)
            assert image == _reference_image(reference, gen, terms)
            if k.denominator == 1:
                assert all(type(c) is int for c in image.values())


@pytest.mark.parametrize("family, rank", STRAIGHTENED_ALGEBRAS + [("D", 8)])
def test_raising_images_match_the_reference_and_one_call_per_generator(
        family, rank):
    """The one-scan images of ``_raising_images`` equal the reference images,
    and the top-level ``_into`` calls one generator at a time, term for term
    and in insertion order; several combinations in one call keep their
    images apart."""
    lr = build_realization(family, rank)
    combinations = {}
    for v in sliding_combinations(lr):
        combinations.setdefault(v.level, []).append(v.terms)
    rng = random.Random(f"raising images {family}{rank}")
    inputs = list(straightening_inputs(lr))
    for k in (Q(-2), Q(-5, 2), -lr.rs.dual_coxeter):
        for _ in range(30):
            monos = {rng.choice(inputs)[2] for _ in range(rng.randint(1, 6))}
            combinations.setdefault(k, []).append(
                {m: Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for m in monos})
    raising = raising_generators(lr)
    nonzero = 0
    for k, combos in combinations.items():
        engine, reference = _Engine(lr, k), ReferenceStraightener(lr, k)
        all_images = list(_raising_images(engine, raising, combos))
        assert len(all_images) == len(combos)
        for terms, images in zip(combos, all_images):
            assert len(images) == len(raising)
            for (_, gen), image in zip(raising, images):
                one = {}
                for mono, c in terms.items():
                    engine._into(one, (), gen, mono, _lift(c))
                assert list(image.items()) == list(one.items())
                assert image == _reference_image(reference, gen, terms)
                nonzero += bool(image)
    assert nonzero


def _first_failing_generator(lr, v):
    """The witness of ``is_singular``, found with one ``act_string`` call per
    raising generator, and how many generators fail."""
    engine = _Engine(lr, v.level)
    failing = [(label, gen, image) for label, gen in raising_generators(lr)
               if (image := engine.act_string((gen,), v.terms))]
    label, gen, image = failing[0]
    return label, gen, [(m, Q(c)) for m, c in image.items()], len(failing)


def _check_witness(lr, v, label, gen):
    ok, (witness_label, image) = is_singular(lr, v)
    assert not ok and witness_label == label
    assert list(image.terms.items()) == _first_failing_generator(lr, v)[2]
    assert (image.weight, image.degree) == (
        apply(lr, gen, v).weight, apply(lr, gen, v).degree)
    assert all(type(c) is Q for c in image.terms.values())


def test_is_singular_witness_at_a_mode_0_simple_root():
    # a combination of a whole component fails at several generators; the
    # witness is the first in raising order, a mode 0 simple root
    basis = graded_basis(D4, vec(1, 1, 0, 0), 2)
    v = StateVector(Q(-5, 2), vec(1, 1, 0, 0), Q(2),
                    {m: Q(i + 1) for i, m in enumerate(basis)})
    label, gen, _, failing = _first_failing_generator(D4, v)
    assert gen[0] == 0 and failing >= 2
    assert label == raising_generators(D4)[0][0]
    _check_witness(D4, v, label, gen)


@pytest.mark.parametrize("lr, build", [
    (D4, lambda lr: w1_d4(Q(-1))),
    (build_realization("D", 5), lambda lr: build_v_n(lr, 2).at_level(Q(-1))),
    (build_realization("D", 6), lambda lr: build_w_n(lr, 1).at_level(Q(-2))),
], ids=["w1 D4", "v_2 D5", "w_1 D6"])
def test_is_singular_witness_of_a_paper_vector_at_a_wrong_level(lr, build):
    # mode 0 images do not depend on the level, so a paper vector at a
    # wrong level fails only at e_-theta(1), the last raising generator
    v = build(lr)
    label, gen, _, failing = _first_failing_generator(lr, v)
    assert failing == 1 and (label, gen) == raising_generators(lr)[-1]
    _check_witness(lr, v, label, gen)


def test_500_factor_monomials_straighten_within_the_default_recursion_limit():
    # MAX_SEARCH_DEGREE admits monomials of 500 mode -1 factors.  In the
    # second image h(-1) passes the n - 2 factors f(-1) before it, and the
    # accumulator nests one call for each of them.
    a1 = build_realization("A", 1)
    alpha = a1.rs.simple_roots[0]
    e, f = a1.e(alpha), a1.e(vscale(-1, alpha))
    (h, c_fe), = a1.bracket(f, e)
    (e_, c_he), = a1.bracket(h, e)
    (f_, c_fh), = a1.bracket(f, h)
    assert (e_, f_) == (e, f)
    n, k = MAX_SEARCH_DEGREE, -2
    engine = _Engine(a1, Q(k))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)         # Python's default
    try:
        image = engine.act_string(((1, f),), {((-1, e),) * n: 1})
        mixed = engine.act_string(((0, f),), {
            ((-2, f),) + ((-1, f),) * (n - 2) + ((-1, e),): 1})
    finally:
        sys.setrecursionlimit(limit)
    # e_-a(1) e_a(-1)^n = sum_i e_a(-1)^i (c_fe h(0) + k (f | e)) e_a(-1)^(n-1-i)
    assert image == {((-1, e),) * (n - 1):
                     c_fe * c_he * n * (n - 1) // 2 + n * k * a1.form(f, e)}
    # f(0) f(-2) f(-1)^(n-2) e(-1) = c_fe f(-2) f(-1)^(n-2) h(-1), reordered
    assert mixed == {
        ((-2, f), (-1, h)) + ((-1, f),) * (n - 2): c_fe,
        ((-2, f), (-2, f)) + ((-1, f),) * (n - 3): c_fe * c_fh * (n - 2),
    }


def test_weight_and_degree_bookkeeping():
    k = Q(-2)
    v = apply_string(
        D4,
        [gen(D4, vec(1, -1, 0, 0), -2), gen(D4, vec(0, 1, 1, 0), -1)],
        vacuum(D4, k),
    )
    assert v.weight == vec(1, 0, 1, 0)
    assert v.degree == 3


@given(a=rationals, b=rationals)
def test_apply_linearity(a, b):
    k = Q(-2)
    u = apply_string(D4, [gen(D4, vec(1, 1, 0, 0), -1),
                          gen(D4, vec(0, 0, 1, 1), -1)], vacuum(D4, k))
    w = apply_string(D4, [gen(D4, vec(1, 0, 1, 0), -1),
                          gen(D4, vec(0, 1, 0, 1), -1)], vacuum(D4, k))
    g = gen(D4, vec(-1, 1, 0, 0), 0)
    lhs = apply(D4, g, u.scaled(a) + w.scaled(b))
    rhs = apply(D4, g, u).scaled(a) + apply(D4, g, w).scaled(b)
    assert lhs.terms == rhs.terms


def random_small_state(lr, rng, k):
    """A random rational combination of short products of (-1)/(-2) generators."""
    n = lr.dim
    out = None
    for _ in range(rng.randint(1, 3)):
        gens = []
        for _ in range(rng.randint(0, 2)):
            base = rng.randrange(n)
            gens.append((rng.choice((-1, -1, -2)), base))
        coef = Q(rng.randint(-3, 3), rng.randint(1, 4))
        piece = apply_string(lr, gens, vacuum(lr, k)).scaled(coef)
        if out is None:
            out = piece
        elif piece.weight == out.weight and piece.degree == out.degree:
            out = out + piece
    return out


@pytest.mark.parametrize("family,rank,seed", [("D", 4, 1), ("B", 3, 2), ("C", 3, 3)])
def test_commutator_consistency(family, rank, seed):
    """[a(m), b(n)] v equals ([a,b](m+n) + m delta k (a|b)) v on random states."""
    lr = build_realization(family, rank)
    rng = random.Random(seed)
    k = Q(-2)
    for _ in range(60):
        v = random_small_state(lr, rng, k)
        if v is None or v.is_zero():
            continue
        a = rng.randrange(lr.dim)
        b = rng.randrange(lr.dim)
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)
        ga, gb = (m, a), (n, b)
        lhs = apply(lr, ga, apply(lr, gb, v))
        rhs_terms = {}
        for mono, c in apply(lr, gb, apply(lr, ga, v)).terms.items():
            rhs_terms[mono] = rhs_terms.get(mono, Q(0)) + c
        for idx, coef in lr.bracket(a, b):
            img = apply(lr, (m + n, idx), v)
            for mono, c in img.terms.items():
                rhs_terms[mono] = rhs_terms.get(mono, Q(0)) + coef * c
        if m + n == 0:
            f = lr.form(a, b)
            if f:
                for mono, c in v.terms.items():
                    rhs_terms[mono] = rhs_terms.get(mono, Q(0)) + m * k * f * c
        rhs_terms = {mm: c for mm, c in rhs_terms.items() if c}
        assert lhs.terms == rhs_terms


def test_grading_shift_property():
    rng = random.Random(77)
    k = Q(-3)
    lr = D4
    for _ in range(300):
        v = random_small_state(lr, rng, k)
        if v is None or v.is_zero():
            continue
        b = rng.randrange(lr.dim)
        mode = rng.randint(-2, 2)
        img = apply(lr, (mode, b), v)
        assert img.weight == vadd(v.weight, lr.weights[b])
        assert img.degree == v.degree - mode
        for mono in img.terms:
            wt = vzero(lr.rs.ambient)
            deg = Q(0)
            for mo, base in mono:
                wt = vadd(wt, lr.weights[base])
                deg -= mo
            assert wt == img.weight and deg == img.degree


# ---------------------------------------------------------------------------
# graded components, with an independent brute-force oracle


def brute_components(lr, degree):
    """Every graded component of a degree, by brute force: each multiset of
    loop generators (mode, base) with modes in -degree..-1, kept when its
    modes sum to -degree and filed under its weight."""
    gens = [(m, b) for m in range(-degree, 0) for b in range(lr.dim)]
    found = {}
    for length in range(degree + 1):
        for mono in itertools.combinations_with_replacement(gens, length):
            if sum(m for m, _ in mono) == -degree:
                wt = vzero(lr.rs.ambient)
                for _, b in mono:
                    wt = vadd(wt, lr.weights[b])
                found.setdefault(wt, set()).add(mono)
    return found


def brute_graded_basis(lr, weight, degree):
    return brute_components(lr, degree).get(tuple(weight), set())


def check_every_component(lr, degree):
    components = brute_components(lr, degree)
    for weight, monos in components.items():
        assert graded_basis(lr, weight, degree) == sorted(monos)
        assert component_size(lr, weight, degree, len(monos)) == len(monos)
    # a weight no monomial of this degree reaches
    far = vscale(degree + 1, lr.rs.theta)
    assert far not in components
    assert graded_basis(lr, far, degree) == []
    assert component_size(lr, far, degree, 10) == 0


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("C", 2), ("D", 4)])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_search_matches_brute_force_on_every_component(family, rank, degree):
    check_every_component(build_realization(family, rank), degree)


@pytest.mark.parametrize("degree", [0, 1])
def test_search_matches_brute_force_on_e6(degree):
    """E6 weights have half-integer coordinates, so the doubled weights that
    the search looks its last factors up by are odd.  Degree 2 alone takes
    seconds by brute force, so E6 stops at degree 1."""
    check_every_component(build_realization("E", 6), degree)


def test_graded_basis_d4_oracle():
    got = graded_basis(D4, vec(1, 1, 1, 1), 2)
    assert len(got) == 3
    assert set(got) == brute_graded_basis(D4, vec(1, 1, 1, 1), 2)
    assert all(
        all(D4.labels[b][0] == "e" for _, b in mono) and len(mono) == 2
        for mono in got
    )


def test_graded_basis_b2_oracle():
    got = graded_basis(B2, vec(1, 0), 2)
    assert len(got) == 5
    assert set(got) == brute_graded_basis(B2, vec(1, 0), 2)


def test_graded_basis_trivial_cases():
    assert graded_basis(D4, vzero(4), 0) == [()]
    assert graded_basis(D4, vec(1, 0, 0, 0), 0) == []
    assert graded_basis(D4, vec(1, 1, 0, 0), 1) == [((-1, D4.e(vec(1, 1, 0, 0))),)]


def test_graded_basis_zero_weight_oracle():
    got = graded_basis(B2, vzero(2), 2)
    assert set(got) == brute_graded_basis(B2, vzero(2), 2)


def test_graded_basis_d6_matchings():
    lr = build_realization("D", 6)
    got = graded_basis(lr, vec(1, 1, 1, 1, 1, 1), 3)
    assert len(got) == 15
    for mono in got:
        assert len(mono) == 3
        assert all(mode == -1 for mode, _ in mono)


def test_graded_basis_cap():
    lr = build_realization("D", 6)
    with pytest.raises(CapExceededError):
        graded_basis(lr, vzero(6), 4, cap=50)


COUNTED_COMPONENTS = [
    # (family, rank, weight or "theta", degree, size, small enough to brute)
    ("B", 2, "theta", 3, 18, True),
    ("D", 4, (1, 1, 1, 1), 2, 3, True),
    ("D", 4, (0, 0, 0, 0), 4, 779, False),
    ("C", 3, (1, 1, 0), 5, 1361, False),
    ("E", 6, "theta", 3, 240, False),
    ("D", 6, (1, 1, 1, 1, 1, 1), 3, 15, False),
    ("D", 4, (20, 0, 0, 0), 20, 66, False),
    ("D", 4, (40, 0, 0, 0), 40, 231, False),
    ("D", 8, (2,) * 8, 8, 6202, False),
]


@pytest.mark.parametrize("family, rank, weight, degree, size, brute",
                         COUNTED_COMPONENTS)
def test_component_size_counts_the_graded_basis(family, rank, weight, degree,
                                                size, brute):
    lr = build_realization(family, rank)
    w = lr.rs.theta if weight == "theta" else vec(*weight)
    basis = graded_basis(lr, w, degree)
    assert len(basis) == size
    if brute:
        assert set(basis) == brute_graded_basis(lr, w, degree)
    for cap in (size + 100, size, size - 1, size // 2, 1):
        try:
            listed = len(graded_basis(lr, w, degree, cap=cap))
        except CapExceededError:
            listed = None
        assert component_size(lr, w, degree, cap) == listed
    assert component_size(lr, w, degree, size) == size
    assert component_size(lr, w, degree, size - 1) is None


def test_deep_degree_is_refused_before_the_search():
    # v_600 on D4 lives in degree 1200, deeper than the search may recurse.
    weight = vec(1200, 0, 0, 0)
    for search in (lambda: component_size(D4, weight, 1200, 1000),
                   lambda: graded_basis(D4, weight, 1200, cap=1000)):
        with pytest.raises(ValueError, match="degree 1200 exceeds"):
            search()


def test_integer_and_rational_levels_agree():
    # The engine keeps ints at an integral level and Fractions at a rational
    # one; the images of a raising generator are affine in k either way.
    lr, weight = D4, D4.rs.theta
    basis = graded_basis(lr, weight, 2)
    engines = {k: _Engine(lr, k) for k in (Q(-3), Q(-2), Q(-5, 2))}
    saw_level = False
    for _, g in raising_generators(lr):
        for mono in basis:
            img = {k: e.act_string((g,), {mono: 1})
                   for k, e in engines.items()}
            for k in (Q(-3), Q(-2)):
                assert all(type(c) is int for c in img[k].values())
            keys = set().union(*img.values())
            for m in keys:
                lo, hi = img[Q(-3)].get(m, 0), img[Q(-2)].get(m, 0)
                assert img[Q(-5, 2)].get(m, 0) == Q(lo + hi) / 2
                saw_level |= lo != hi
    assert saw_level


@pytest.mark.parametrize("k", [Q(-2), Q(-5, 2)])
def test_apply_is_the_product_of_one_factor(k):
    """``apply`` and ``apply_string`` straighten through one product path:
    the raising generators (which kill w1 only at -2) and e_theta(-1)."""
    v = w1_d4(k)
    gens = [g for _, g in raising_generators(D4)]
    gens.append(gen(D4, D4.rs.theta, -1))
    for g in gens:
        assert apply(D4, g, v) == apply_string(D4, [g], v)
    # w1 is singular only at -2, so elsewhere some image is nonzero
    assert any(apply(D4, g, v).terms for g in gens[:-1]) == (k != -2)


def test_a_state_minus_itself_has_no_terms():
    """``StateVector.__add__`` drops every entry that cancels."""
    v = w1_d4()
    assert (v + v.scaled(-1)).terms == {}
    assert (v + v).terms == v.scaled(2).terms


@pytest.mark.parametrize("k", [Q(-2), Q(-5, 2)])
def test_coefficients_leave_the_engine_as_fractions(k):
    def all_fractions(terms):
        return all(type(c) is Q for c in terms.values())

    engine = _Engine(D4, k)
    basis = graded_basis(D4, vec(1, 1, 1, 1), 2)
    rows = constraint_rows(engine, basis)
    assert rows and all(all_fractions(row) for row in rows)
    v = w1_d4(k)
    assert all_fractions(v.terms)
    theta = gen(D4, D4.rs.theta, -1)
    assert all_fractions(apply_string(D4, [theta], v).terms)
    ok, (_, image) = is_singular(D4, apply(D4, theta, vacuum(D4, k)))
    assert not ok and image.terms and all_fractions(image.terms)
    c = proportional(w1_d4(k).scaled(3), w1_d4(k))
    assert type(c) is Q and c == 3
    assert type(proportional(v, v.scaled(-2))) is Q


def test_is_singular_examples():
    w1 = w1_d4()
    ok, witness = is_singular(D4, w1)
    assert ok and witness is None
    # a generator state at level -2 is not singular; the lowering witness
    # pairs to k (e_-theta | e_theta) = -2
    v = apply(D4, gen(D4, vec(1, 1, 0, 0), -1), vacuum(D4, Q(-2)))
    ok, witness = is_singular(D4, v)
    assert not ok
    label, image = witness
    assert image.terms == {(): Q(-2)}
    assert image == apply(D4, gen(D4, vscale(-1, D4.rs.theta), 1), v)
    with pytest.raises(ValueError):
        is_singular(D4, StateVector(Q(-2), vzero(4), Q(0), {}))


def test_singular_kernel_d4():
    ker = singular_kernel(D4, Q(-2), vec(1, 1, 1, 1), 2)
    assert len(ker) == 1
    assert proportional(ker[0], w1_d4()) is not None


def test_singular_kernel_theta_space():
    # at a generic level the theta weight space at degree one has no
    # singular vector; at level zero the generator itself is one
    assert singular_kernel(D4, Q(1), D4.rs.theta, 1) == []
    assert singular_kernel(D4, Q(-7, 3), D4.rs.theta, 1) == []
    ker0 = singular_kernel(D4, Q(0), D4.rs.theta, 1)
    assert len(ker0) == 1
    assert ker0[0].terms == {((-1, D4.e(D4.rs.theta)),): Q(1)}


def test_singular_vector_lies_in_component_span():
    assert in_span_of_component(D4, w1_d4())


def test_raising_generator_count():
    assert len(raising_generators(D4)) == D4.rs.rank + 1


def test_state_serialize_round_trip():
    w1 = w1_d4()
    payload = serialize.state_to_json(D4, w1)
    back = state_from_json(D4, payload)
    assert back == w1
    again = serialize.state_to_json(D4, back)
    assert again == payload


def test_parse_frac_strictness():
    assert serialize.parse_frac("-5/3") == Q(-5, 3)
    assert serialize.parse_frac("7") == 7
    for bad in ("1.5", "5/0", "0x2", "", "1/-2"):
        with pytest.raises(ValueError):
            serialize.parse_frac(bad)


def test_critical_level_allowed_in_loop_action():
    # the straightening rule needs no Sugawara structure, so the critical
    # level is fine here (only the conformal layer rejects it)
    k = Q(-6)  # critical for D4
    v = apply_string(D4, [gen(D4, vec(1, 1, 0, 0), -1)], vacuum(D4, k))
    img = apply(D4, gen(D4, vec(-1, -1, 0, 0), 1), v)
    assert img.terms == {(): k}


def test_graded_basis_deep_modes_oracle():
    # a component with Cartan-dressed monomials, repeated factors, and
    # modes down to -3
    got = graded_basis(B2, B2.rs.theta, 3)
    assert set(got) == brute_graded_basis(B2, B2.rs.theta, 3)
    lengths = sorted({len(m) for m in got})
    assert lengths == [1, 2, 3]
    assert ((-3, B2.e(B2.rs.theta)),) in got


def test_no_singular_vector_at_generic_level_d4():
    # Gorelik-Kac: V^k(D4) is simple when k + 6 < 0, so the 422-monomial
    # component of weight (1,1,0,0) and degree 4 has no singular vector.
    k = Q(-15, 2)
    assert k + D4.rs.dual_coxeter < 0
    assert len(graded_basis(D4, vec(1, 1, 0, 0), 4)) == 422
    assert singular_kernel(D4, k, vec(1, 1, 0, 0), 4) == []


def test_kernel_carries_its_component_dimension():
    lr = build_realization("D", 5)
    w = vec(2, 0, 0, 0, 0)
    for k in (Q(-3), Q(-2)):
        ker = singular_kernel(lr, k, w, 2)
        assert ker.component_dimension == len(graded_basis(lr, w, 2))
    assert singular_kernel(lr, Q(-3), vec(9, 0, 0, 0, 0), 2).component_dimension == 0


def test_graded_basis_negative_coordinate_weight():
    w = vec(1, -1, 0, 0)
    got = graded_basis(D4, w, 2)
    assert set(got) == brute_graded_basis(D4, w, 2)


def test_kernel_level_dependence():
    # the quadratic vector at weight 2 eps_1 exists at level 1 - rank and
    # nowhere nearby
    lr = build_realization("D", 5)
    w = vec(2, 0, 0, 0, 0)
    assert singular_kernel(lr, Q(-3), w, 2) != []
    assert singular_kernel(lr, Q(-2), w, 2) == []
    assert singular_kernel(lr, Q(0), w, 2) == []


state_strategy = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=D4.dim - 1),
                      st.integers(min_value=-3, max_value=-1)),
            min_size=0, max_size=3,
        ),
    ),
    min_size=1, max_size=3,
)


@given(data=state_strategy)
def test_serialize_round_trip_random_states(data):
    k = Q(-2)
    total = None
    for coef, gens in data:
        piece = apply_string(
            D4, [(m, b) for b, m in gens], vacuum(D4, k)
        ).scaled(coef)
        if total is None:
            total = piece
        elif piece.weight == total.weight and piece.degree == total.degree:
            total = total + piece
    payload = serialize.state_to_json(D4, total)
    back = state_from_json(D4, payload)
    assert back == total
    assert serialize.state_to_json(D4, back) == payload


@given(num=st.integers(-10**9, 10**9), den=st.integers(1, 10**6))
def test_fraction_string_round_trip(num, den):
    q = Q(num, den)
    assert serialize.parse_frac(serialize.frac_str(q)) == q


def test_frac_str_prints_every_type_as_a_fraction_would():
    """Ints and Fractions print as themselves, a bool as its Fraction."""
    for value in (0, -3, 7, Q(0), Q(4), Q(-5, 2), True, False):
        assert serialize.frac_str(value) == str(Q(value))
    assert [serialize.frac_str(v) for v in (True, False)] == ["1", "0"]


# SHA-256 of the compact JSON of graded_basis, recorded while the search ran
# on LCM-rescaled coordinates, with the size of each component.  The two D4
# weights off the root lattice have empty components.  E6 at theta and D4 at
# weight 0 were recorded while the search still looped over every generator
# for the last factor of a monomial; at weight 0 many last factors are
# Cartan elements, which share one doubled weight.  D8 at (2, ..., 2), the
# cap component of w_2, was recorded while the search walked every
# generator in basis order and listed monomials as it met them.
GRADED_BASIS_DIGESTS = [
    ("D", 4, (1, 1, 0, 0), 4, 422,
     "ad4ecb4a3e0f6973813dfe28de3f37360cb5c2a06301ba05d97cf35bd0292d96"),
    ("B", 3, (1, 1, 0), 4, 244,
     "efad17a5131b94964a11739eec704a198f2ef691a4661a9a70788e572035a09f"),
    ("A", 3, (1, 0, 0, -1), 4, 136,
     "ed76a41ff81716599a2fd2f14cc22c61d915107c33a8ee95a2db2de2723f7c8b"),
    ("C", 3, (1, 1, 0), 5, 1361,
     "1015f754218a2eabbeb8d0eb2ec0a8921cf4bba83ccb2c4754a873ef6e4bec52"),
    ("E", 8, (0,) * 8, 2, 164,
     "dce4d922e741291e418f6190c00b31ae57a13ec35b41d3710375dc162621e1d2"),
    ("B", 2, (1, 0), 2, 5,
     "e29a7b4cfa3abf2bb8970447dcf297b3f2609f1eaaa654771e81977decf54603"),
    ("D", 4, (Q(1, 3), 0, 0, 0), 2, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("D", 4, (Q(1, 2),) * 4, 2, 0,
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("E", 6, (Q(1, 2),) * 5 + (Q(-1, 2), Q(-1, 2), Q(1, 2)), 3, 240,
     "51ddf64dca76a0c8a1a2dc18d73796de3cdcd749867d7e77f2989f3c524300d0"),
    ("D", 4, (0,) * 4, 4, 779,
     "e4689c4111c1ed9f7cc3b3fe38c123276387772673696cd8db50ca9776793b8a"),
    ("D", 8, (2,) * 8, 8, 6202,
     "e1e2c93d13d76d8026175414f4a38cdef98e8ea51dfd88bdc08a201e5f3afe1c"),
]


@pytest.mark.parametrize("family, rank, weight, degree, size, digest",
                         GRADED_BASIS_DIGESTS)
def test_graded_basis_digest(family, rank, weight, degree, size, digest):
    lr = build_realization(family, rank)
    basis = graded_basis(lr, vec(*weight), degree)
    text = json.dumps([[list(g) for g in m] for m in basis],
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(basis) == size
    assert component_size(lr, vec(*weight), degree, size) == size
    if size:
        assert component_size(lr, vec(*weight), degree, size - 1) is None


# SHA-256 of the compact JSON of constraint_rows, each row as its [column,
# value] pairs in insertion order with values through frac_str, and the
# number of rows.  The order in which straightening emits terms fixes the
# row order, the row order fixes the order of kernel bases, and so output
# bytes.
CONSTRAINT_ROWS_DIGESTS = [
    ("D", 4, (1, 1, 0, 0), 4, Q(-13, 2), 968,
     "4ec5e4c1f01aec5e38341dd44af80298bed63fc352ee5a4d383c9983a9df8f33"),
    ("D", 6, (2,) * 6, 6, Q(-3), 456,
     "1a9219472e9dd5188ba025474a3e2beef921f5bc252162125df763ff1771e2d1"),
    ("E", 6, (Q(1, 2),) * 5 + (Q(-1, 2), Q(-1, 2), Q(1, 2)), 3, Q(-37, 3), 537,
     "29e3f9cae8663f7593d69588e12270dd472a120152ca019b57a10758ab31d3b2"),
]


@pytest.mark.parametrize("family, rank, weight, degree, k, nrows, digest",
                         CONSTRAINT_ROWS_DIGESTS)
def test_constraint_rows_digest(family, rank, weight, degree, k, nrows,
                                digest):
    lr = build_realization(family, rank)
    rows = constraint_rows(_Engine(lr, k), graded_basis(lr, vec(*weight), degree))
    text = json.dumps([[[c, serialize.frac_str(v)] for c, v in row.items()]
                       for row in rows], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(rows) == nrows
