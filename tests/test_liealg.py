import hashlib
import itertools
import json
import random
from fractions import Fraction as Q

import pytest

from vkg.liealg import (
    DegenerateFormError,
    _check_flip,
    _dual_pairs,
    _matrix_basis,
    build_realization,
    dynkin_flip,
    identity_failure,
    minimal_grading,
    restricted_dual_coxeter,
)
from vkg.rootdata import (
    UnsupportedAlgebraError,
    build_root_system,
    vadd,
    vec,
    vscale,
)
from vkg.serialize import realization_to_json

from helpers import (
    double_pairing,
    expand,
    flip_root_pair,
    flip_structure_constant,
    materialize,
    reference_identity_failure,
)


def bracket_vec(lr, terms, idx):
    out = {}
    for i, c in terms:
        for j, cc in lr.bracket(i, idx):
            out[j] = out.get(j, Q(0)) + c * cc
    return {k: v for k, v in out.items() if v}


def test_d4_bracket_spot_checks():
    lr = build_realization("D", 4)
    out = lr.bracket(lr.e(vec(1, -1, 0, 0)), lr.e(vec(0, 1, -1, 0)))
    assert len(out) == 1
    idx, coeff = out[0]
    assert lr.labels[idx] == ("e", vec(1, 0, -1, 0))
    assert abs(coeff) == 1
    assert lr.bracket(lr.e(vec(1, 1, 0, 0)), lr.e(vec(0, 0, 1, 1))) == ()


def test_e7_theta_sl2_triple():
    lr = build_realization("E", 7)
    theta = lr.rs.theta
    e, f = lr.e(theta), lr.e(vscale(-1, theta))
    coroot = dict(lr.bracket(e, f))
    # [e_theta, e_-theta] is the theta-coroot; x = coroot/2 acts by +-1
    assert coroot  # lands in the Cartan span
    assert all(lr.labels[i][0] == "h" for i in coroot)
    act = bracket_vec(lr, tuple(coroot.items()), e)
    assert act == {e: Q(2)}
    act = bracket_vec(lr, tuple(coroot.items()), f)
    assert act == {f: Q(-2)}
    half = tuple((i, c / 2) for i, c in coroot.items())
    assert bracket_vec(lr, half, e) == {e: Q(1)}


def test_cartan_action_on_root_vectors():
    for family, rank in [("D", 4), ("B", 3), ("C", 3), ("A", 3), ("E", 6)]:
        lr = build_realization(family, rank)
        rs = lr.rs
        for a in rs.roots:
            ia = lr.e(a)
            for i in range(rank):
                expected = rs.form(lr.cartan_duals[i], a)
                got = dict(lr.bracket(lr.h(i + 1), ia))
                assert got == ({ia: expected} if expected else {})


def test_e_f_bracket_lands_in_cartan():
    for family, rank in [("D", 5), ("B", 4), ("C", 4), ("E", 7)]:
        lr = build_realization(family, rank)
        for a in lr.rs.positive_roots:
            terms = lr.bracket(lr.e(a), lr.e(vscale(-1, a)))
            assert terms and all(lr.labels[i][0] == "h" for i, _ in terms)


def _seeded_triples(n, seed, count):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(count)]


@pytest.mark.parametrize("family,rank", [("D", 4), ("B", 3), ("C", 3), ("A", 3)])
def test_jacobi_exhaustive_small(family, rank):
    """Jacobi and invariance hold on every basis triple."""
    lr = build_realization(family, rank)
    assert identity_failure(lr, itertools.product(range(lr.dim), repeat=3)) is None


@pytest.mark.parametrize("family,rank", [("D", 4), ("B", 3), ("C", 3), ("A", 3)])
def test_invariance_exhaustive_small(family, rank):
    """With one pairing doubled in the form table, the exhaustive sweep
    stops on a triple where invariance fails and Jacobi, which reads no
    form, holds."""
    lr = build_realization(family, rank)
    broken = double_pairing(lr, lr.rs.simple_roots[0])
    failure = identity_failure(broken, itertools.product(range(lr.dim), repeat=3))
    assert failure is not None and failure[1:] == (True, False)


@pytest.mark.parametrize("family,rank,samples", [("E", 7, 10_000), ("E", 6, 3_000),
                                                 ("E", 8, 3_000), ("D", 6, 3_000)])
def test_jacobi_and_invariance_sampled(family, rank, samples):
    lr = build_realization(family, rank)
    triples = _seeded_triples(lr.dim, 20240 + rank, samples)
    assert identity_failure(lr, triples) is None


def _broken_tables(lr, count, seed):
    """Copies of lr that are no longer a Lie algebra with an invariant form.

    ``count`` negate one structure constant N_{a,b} each, for seeded
    ordered pairs of roots with a + b a root, and one doubles the pairing
    of the first simple root.  The rest enter a value where the tables have
    none, so that the first failure is on a triple with only one nonzero
    bracket among those a sum reads, which a narrower skip would miss:
    (h_1 | e_theta) = 1, and, from rank 3, [h_x, h_y] = e_d for each pair
    of h_1, h_2, h_3, with d a root that the third does not kill.
    """
    roots = set(lr.rs.roots)
    pairs = [(a, b) for a in lr.rs.roots for b in lr.rs.roots
             if vadd(a, b) in roots]
    picked = random.Random(seed).sample(pairs, min(count, len(pairs)))
    tables = [flip_structure_constant(lr, a, b) for a, b in picked]
    tables.append(double_pairing(lr, lr.rs.simple_roots[0]))
    h1, theta = lr.h(1), lr.e(lr.rs.theta)
    form = dict(lr.form_table)
    form[(h1, theta)] = form[(theta, h1)] = 1
    tables.append(lr._replace(form_table=form))
    if lr.rank >= 3:
        h = [lr.h(1), lr.h(2), lr.h(3)]
        for x, y, z in ((0, 1, 2), (1, 2, 0), (0, 2, 1)):
            d = next(i for i in range(lr.rank, lr.dim) if lr.bracket(h[z], i))
            bracket = dict(lr.bracket_table)
            bracket[(h[x], h[y])], bracket[(h[y], h[x])] = ((d, 1),), ((d, -1),)
            tables.append(lr._replace(bracket_table=bracket))
    return tables


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
def test_identity_failure_matches_the_per_triple_oracle(family, rank):
    """On the exhaustive triple list, the batched checker and the per-triple
    oracle return None on the intact table and the same first failing
    triple with the same two flags on every broken copy."""
    lr = build_realization(family, rank)
    triples = list(itertools.product(range(lr.dim), repeat=3))
    assert identity_failure(lr, triples) is None
    assert reference_identity_failure(lr, triples) is None
    for broken in _broken_tables(lr, 12, seed=rank):
        failure = identity_failure(broken, triples)
        assert failure is not None
        assert failure == reference_identity_failure(broken, triples)


def test_identity_failure_flags_match_the_oracle_on_single_triples():
    """On A2, intact and broken, each one-triple list gives the oracle's
    two flags, or None where both identities hold."""
    lr = build_realization("A", 2)
    for table in [lr] + _broken_tables(lr, 12, seed=0):
        for triple in itertools.product(range(lr.dim), repeat=3):
            assert (identity_failure(table, [triple])
                    == reference_identity_failure(table, [triple]))


def test_grading_respects_bracket():
    for family, rank in [("D", 4), ("B", 3), ("E", 7)]:
        lr = build_realization(family, rank)
        rs = lr.rs
        grade = {}
        for idx in range(lr.dim):
            w = lr.weights[idx]
            grade[idx] = rs.form(w, rs.theta) / 2 if any(w) else Q(0)
        rng = random.Random(11)
        for _ in range(2000):
            a, b = rng.randrange(lr.dim), rng.randrange(lr.dim)
            for i, _ in lr.bracket(a, b):
                assert grade[i] == grade[a] + grade[b]


def test_minimal_grading_pieces():
    lr = build_realization("D", 6)
    mg = minimal_grading(lr)
    sizes = {g: len(v) for g, v in mg.pieces.items()}
    assert sizes[Q(1)] == sizes[Q(-1)] == 1
    assert sizes[Q(1, 2)] == sizes[Q(-1, 2)] == 16
    assert sizes[Q(0)] == lr.dim - 2 - 32


def test_restricted_dual_coxeter_dual_route():
    """Dual-basis Casimir agrees with the root-data eigenvalue formula."""
    for family, rank in [("D", 4), ("D", 5), ("D", 6), ("B", 2), ("B", 3),
                         ("B", 4), ("C", 3), ("A", 4), ("E", 6), ("E", 7),
                         ("E", 8)]:
        lr = build_realization(family, rank)
        mg = minimal_grading(lr)
        for i, comp in enumerate(mg.data.components):
            assert restricted_dual_coxeter(mg, i) == comp.dual_coxeter0
        assert restricted_dual_coxeter(mg, -1) == 0


def test_restricted_dual_coxeter_refuses_a_degenerate_pairing():
    """With one pairing (e_a|e_-a) zeroed in a copied form table, the dual
    basis of the component holding a does not exist."""
    lr = build_realization("D", 5)
    mg = minimal_grading(lr)
    i, comp = next((i, c) for i, c in enumerate(mg.data.components) if c.roots)
    a = comp.roots[0]
    form = dict(lr.form_table)
    form[(lr.e(a), lr.e(vscale(-1, a)))] = Q(0)
    broken = mg._replace(lr=lr._replace(form_table=form))
    assert restricted_dual_coxeter(mg, i) == comp.dual_coxeter0
    with pytest.raises(DegenerateFormError):
        restricted_dual_coxeter(broken, i)


def test_restricted_dual_coxeter_spec_values():
    for l in (4, 5, 6):
        mg = minimal_grading(build_realization("D", l))
        values = {c.type_label: restricted_dual_coxeter(mg, i)
                  for i, c in enumerate(mg.data.components)}
        assert values["sl(2)"] == 2
        # component level at k = -2 must come out to l - 4
        assert -2 + (mg.lr.rs.dual_coxeter - values["sl(2)"]) / 2 == l - 4
    for l in (2, 3, 4):
        mg = minimal_grading(build_realization("B", l))
        sl2 = [restricted_dual_coxeter(mg, i)
               for i, c in enumerate(mg.data.components)
               if c.type_label == "sl(2)" and c.theta_norm == 2]
        assert sl2 == [2]
        assert -2 + (mg.lr.rs.dual_coxeter - sl2[0]) / 2 == Q(2 * l - 7, 2)
    mg = minimal_grading(build_realization("E", 8))
    assert restricted_dual_coxeter(mg, 0) == 18


def test_dynkin_flip_examples():
    lr = build_realization("D", 6)
    flip = dynkin_flip(lr)
    # fixed simple roots eps_k - eps_{k+1}
    for k in range(1, 5):
        root = [0] * 6
        root[k - 1], root[k] = 1, -1
        idx = lr.e(vec(*root))
        assert flip[idx] == (idx, 1)
    # the fork roots swap (up to the realization's sign)
    plus = lr.e(vec(0, 0, 0, 0, 1, 1))
    minus = lr.e(vec(0, 0, 0, 0, 1, -1))
    i2, s = flip[plus]
    assert i2 == minus and abs(s) == 1
    # involution on every basis element
    for idx, (jdx, s) in flip.items():
        j2, s2 = flip[jdx]
        assert j2 == idx and s * s2 == 1


def test_flip_check_refuses_a_rescaled_root_vector():
    """Negating one fork root vector and its image keeps an involution but
    breaks [e_a, e_-a] = (e_a|e_-a) nu(a): the automorphism check refuses it."""
    lr = build_realization("D", 4)
    flip = dict(dynkin_flip(lr))
    i = lr.e(vec(0, 0, 1, 1))
    j, s = flip[i]
    flip[i], flip[j] = (j, -s), (i, -flip[j][1])
    with pytest.raises(ValueError, match="not an automorphism"):
        _check_flip(lr, flip)


def test_dynkin_flip_rejects_non_d():
    with pytest.raises(UnsupportedAlgebraError):
        dynkin_flip(build_realization("B", 3))


def test_flip_root_pair_is_same_algebra():
    lr = build_realization("D", 4)
    lr2 = flip_root_pair(lr, vec(1, 1, 0, 0))
    assert identity_failure(lr2, _seeded_triples(lr2.dim, 5, 4000)) is None
    # pairing and coroot conventions survive the rescale
    e, f = lr2.e(vec(1, 1, 0, 0)), lr2.e(vec(-1, -1, 0, 0))
    assert lr2.form(e, f) == 1
    assert dict(lr2.bracket(e, f)) == dict(lr.bracket(e, f))


# SHA-256 of the compact, key-sorted JSON of realization_to_json, its
# generators read into lists.  A3, B3, C3, D4 and E6-E8 were recorded before
# the cocycle realization moved to int simple-root coefficients, B5-B8,
# C4-C8, D7, D9 and D10 while the so(n) and sp(n) matrices still had
# Fraction entries, the rest while the matrix and cocycle tables still had
# a builder each.  Any change to the basis order, a structure constant or
# the form fails here.
REALIZATION_DIGESTS = [
    ("A", 1, "6a86f9f1a6bb73c23da88a4739fcb8e5fa93479b4e2baa97cf622860e46d3ff9"),
    ("A", 2, "7b4ee8779437f15323d00faf3e1a0ff704f656337385e9dc81b122632cac7b1d"),
    ("A", 3, "115fd440370dab45587891bc3479c2a9f0303fc0f46e352fea5999b0ab245508"),
    ("B", 2, "b20b76b127d2530c75d0af3e5d31a88cf59deea7adf76498314a344c087d4628"),
    ("B", 3, "5f23fcf4b3f7ca646e116a8ad9574f0bdf28671015ff1a16054ea53a2794e482"),
    ("B", 4, "f1d74c9498003089cfbf67a337cd4d0e235806a9c9fdec39dba4cbe196f66fbf"),
    ("B", 5, "a9d349f62e8ab2e55b862fd31afc2384fbc61eae861533f0fe9ff246d6f6a4c3"),
    ("B", 6, "5c8e6705f87420087b3d4f631c71b670cf5307de7127f5c81293c7a36f44af0e"),
    ("B", 7, "adfe1ee42d62a433391b33592c79749460d30f60c88ced5fc91b7bd7416dca58"),
    ("B", 8, "756c03e94cac1e91dcf7beaa45d9674b6ce39973deab2c5a4dfbeaecbb90ff90"),
    ("C", 1, "e2151cf663c01148f61bbacd2a3db36ce6e90859cf34c76abb568b2772d5697d"),
    ("C", 2, "5c974b867244e4f6fcf5afae36b73fb50e432635c33e81940c50dff93b209dc4"),
    ("C", 3, "9d937e76a9be1156032413cd9d3a7d187ac6b884e0a1240ba30da42e56a976b1"),
    ("C", 4, "d7dda672695a8a0512e54a401a27a5b37af81c96bb86a35ef868c180720c7a1f"),
    ("C", 5, "3a0b7bba2d73d93cbc373e3a1c72487aa4ef5d27df177d07d0bd54e197113a5d"),
    ("C", 6, "666da5f067d4e2ae58f66d810e193c495d90a4f04692f6ed54b739cba834dd89"),
    ("C", 7, "c36e970ec816ad03a08c1d995fecec5f53a02f0b50f5d93931ca7162bb10d3a1"),
    ("C", 8, "031108483e6e55fbf595f86fd65f8c7cf54e5d35b2fc8ae701afbc723d10e483"),
    ("D", 3, "a091f550f069ca11de9b961d353db1ce014d33d7e3ee06b97e9cdc14d03207ea"),
    ("D", 4, "f15dce3c14866bfa58c3726b764738117825e10f258b5078efc9b876c3a96b5e"),
    ("D", 5, "7a8811927e6be3a8a6c437062c828d62ae35db53470ccc3a74c07f4182011560"),
    ("D", 6, "ac5a458c0187dadd52654009cb88579bddbd657c7b5f77528d778399748491dd"),
    ("D", 7, "cabeda8ddfd77a361cd89c554def5db1482bbf70d207cc080c6580e985208a85"),
    ("D", 8, "60d3f743aae82821b5507c28b92921cd1b3322f6c11d2b59c53e817d9ecabfc1"),
    ("D", 9, "bfeeae54ccc72cc3d90ce7e3b9c1b765afd41119efa77cc682e751e99a7efa3c"),
    ("D", 10, "cc0208f409c2c05ef7a66944eca43b437d6621496916df9802cd679ed0528e57"),
    ("E", 6, "336dddc6fe3a680b2fe58533a17509bf7b5b9f515e5ff6afcd55c7ca0a6f7fa8"),
    ("E", 7, "a189dd672cb53caf09bba4aa1ba3b3781e3b50fc59535006dc26607c9209cfd6"),
    ("E", 8, "0a89b5e081943f52675c41a8c41baf7176ff1e4440d789c5a3a35ac404f4e6c9"),
]


@pytest.mark.parametrize("family,rank,digest", REALIZATION_DIGESTS)
def test_realization_json_digest(family, rank, digest):
    payload = materialize(realization_to_json(build_realization(family, rank)))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,rank",
                         [(f, r) for f, r, _ in REALIZATION_DIGESTS])
def test_realization_values_are_fractions(family, rank):
    """Every table value is an exact rational as a ``Coef``: an int, or a
    Fraction with denominator > 1; never a float, a bool or an integral
    Fraction."""
    lr = build_realization(family, rank)
    values = [c for terms in lr.bracket_table.values() for _, c in terms]
    values += list(lr.form_table.values())
    assert values and all(type(v) is int
                          or (type(v) is Q and v.denominator > 1)
                          for v in values)


def _exact(values):
    return all(type(v) in (int, Q) for v in values)


@pytest.mark.parametrize("family,rank",
                         [(f, r) for f, r, _ in REALIZATION_DIGESTS])
def test_dual_pairs_coroots_and_casimir_are_exact(family, rank):
    """An int table value divided by an int would be a float: the dual
    pairs, the coroots and the restricted dual Coxeter numbers of every
    component stay ints and Fractions."""
    lr = build_realization(family, rank)
    mg = minimal_grading(lr)
    for i, comp in enumerate(mg.data.components):
        for x, dual in _dual_pairs(lr, comp.roots):
            assert _exact(x.values()) and _exact(dual.values())
        for a in comp.roots:
            assert _exact(c for _, c in lr.coroot(a))
        assert _exact([restricted_dual_coxeter(mg, i)])
    assert _exact([restricted_dual_coxeter(mg, -1)])


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3),
                                         ("D", 4), ("E", 6), ("E", 7)])
def test_coroot_is_the_solved_expansion(family, rank):
    """nu(alpha), read off the tables, is alpha solved in the Cartan duals
    by elimination, for every root, and every value is a Fraction."""
    lr = build_realization(family, rank)
    for a in lr.rs.roots:
        coroot = lr.coroot(a)
        assert all(type(c) is Q for _, c in coroot)
        solved = expand(lr.cartan_duals, a)
        assert coroot == tuple((i, c) for i, c in enumerate(solved) if c)


def test_jacobi_refuses_a_flipped_structure_constant():
    """With N_{a1,a2} negated in A2, the triple (e_a1, e_a2, e_-theta) fails
    Jacobi: only [e_-theta, [e_a1, e_a2]] changes, and it is nonzero.  It
    fails invariance too, as ([e_a1, e_a2] | e_-theta) changes sign."""
    lr = build_realization("A", 2)
    a1, a2 = lr.rs.simple_roots
    triple = (lr.e(a1), lr.e(a2), lr.e(vscale(-1, lr.rs.theta)))
    broken = flip_structure_constant(lr, a1, a2)
    assert identity_failure(lr, [triple]) is None
    assert identity_failure(broken, [triple]) == (triple, False, False)


def test_invariance_refuses_a_changed_pairing():
    """With (e_a1|e_-a1) doubled in A2, ([e_a1, e_-a1] | h_1) still reads the
    old pairing through the bracket, so (e_a1, e_-a1, h_1) fails
    invariance; Jacobi reads no form and still holds."""
    lr = build_realization("A", 2)
    a1 = lr.rs.simple_roots[0]
    e, f, h = lr.e(a1), lr.e(vscale(-1, a1)), lr.h(1)
    broken = double_pairing(lr, a1)
    assert identity_failure(lr, [(e, f, h)]) is None
    assert identity_failure(broken, [(e, f, h)]) == ((e, f, h), True, False)


def _flip_sign(x):
    x[max(x)] = -x[max(x)]


def _misplace(x):
    x[(0, 2)] = x.pop((0, 1))


def _double(x):
    x[max(x)] *= 2


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in
                                         REALIZATION_DIGESTS if f in "BCD"])
def test_matrix_entries_are_ints(family, rank):
    mats, _ = _matrix_basis(build_root_system(family, rank))
    assert all(type(v) is int for m in mats.values() for v in m.values())


# SHA-256 of [rank, pairing factor, sorted (label, sorted entries)] of the
# so(n) / sp(n) root matrices, over C1-C10, B2-B10 and D3-D10; recorded
# while the matrices were still written out one root type at a time.
MATRIX_BASIS_DIGESTS = [
    ("B", range(2, 11),
     "b3ef66e8a4af5d9a9cd0e55d34645e89fa54d66a65b35fd6665541b26243d244"),
    ("C", range(1, 11),
     "d2c4c6e4575ee5546e4cc2715b24fe5a71c75f1ba73b295878f321ad46afb677"),
    ("D", range(3, 11),
     "16c6846b5fd41dcf17690ce30a118827300b89cf3d2009d192483873d873411b"),
]


@pytest.mark.parametrize("family,ranks,digest", MATRIX_BASIS_DIGESTS)
def test_matrix_basis_digest(family, ranks, digest):
    payload = []
    for rank in ranks:
        mats, factor = _matrix_basis(build_root_system(family, rank))
        payload.append([rank, str(factor), sorted(
            (label, sorted(m.items())) for label, m in mats.items())])
    text = json.dumps(payload, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("corrupt", [_flip_sign, _misplace, _double])
def test_corrupted_root_matrix_is_refused(monkeypatch, corrupt):
    """A root matrix off by one sign, or with one entry doubled, fails
    [X_a, X_b] = N X_(a+b) on ints; one with an entry moved is no longer a
    weight vector of its root."""
    import vkg.liealg as liealg

    matrix_basis = liealg._matrix_basis

    def corrupted(rs):
        mats, factor = matrix_basis(rs)
        corrupt(mats[("e", vec(1, -1, 0, 0))])
        return mats, factor

    monkeypatch.setattr(liealg, "_matrix_basis", corrupted)
    with pytest.raises(ValueError):
        build_realization.__wrapped__("D", 4)


# SHA-256 of the sorted flip map [index, image index, sign] on D3-D10,
# recorded while the signs were still read off the so(2l) matrices.
FLIP_DIGESTS = [
    (3, "e10f2ab63d6bb79caf8e7d547e2d541cef8cd90d1fa66b6255237b85949b9dae"),
    (4, "4eb3bffed3953f5cfb73123591eb915c7bdd2e8530633c4f7209cce8449dbc63"),
    (5, "f7f9a9587208cb4c9802aba0ad11f9c18249de970a81b93652a5921fc4d01eb5"),
    (6, "c6a2a612f098319e96ff801d9ff4df72d8a71cf7240d9fb0cf04b8648991eaa6"),
    (7, "7bd7c412384fad4e5e9e4fcf0e214b452faabe647c12c2c7188e6b4bb8e0c398"),
    (8, "2eb118e30115cae730956c39729bbae31ff52317d13a108fcbdcfc00a34b9056"),
    (9, "8c5597d0d08622eaba9c99621c19cbe3a265163de65bef4be83358b36574f696"),
    (10, "2c57710a7a6e63a594c34384d5becf2b6d72eee196c58fbe8f563573ba28e176"),
]


@pytest.mark.parametrize("rank,digest", FLIP_DIGESTS)
def test_dynkin_flip_digest(rank, digest):
    flip = dynkin_flip(build_realization("D", rank))
    rows = sorted([i, j, str(s)] for i, (j, s) in flip.items())
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
