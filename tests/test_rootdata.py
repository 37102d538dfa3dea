import hashlib
import json
from fractions import Fraction as Q

import pytest

from vkg import linalg
from vkg.collapsing import DEFAULT_AUDIT_ALGEBRAS
from vkg.rootdata import (
    UnsupportedAlgebraError,
    _span_dim,
    build_root_system,
    canonical_name,
    canonical_type,
    casimir_eigenvalue,
    classify_subsystem,
    dot,
    fundamental_weight,
    minimal_grading_data,
    parse_algebra,
    vadd,
    vec,
    vscale,
    vzero,
)
from vkg.serialize import root_system_to_json

from helpers import is_dominant_integral, reference_grading_components

# (family, rank, number of roots, dual Coxeter number)
TABLE_ONE_VALUES = [
    ("A", 2, 6, 3),
    ("A", 5, 30, 6),
    ("A", 7, 56, 8),
    ("B", 2, 8, 3),
    ("B", 3, 18, 5),
    ("B", 5, 50, 9),
    ("C", 2, 8, 3),
    ("C", 4, 32, 5),
    ("D", 3, 12, 4),
    ("D", 4, 24, 6),
    ("D", 6, 60, 10),
    ("D", 8, 112, 14),
    ("E", 6, 72, 12),
    ("E", 7, 126, 18),
    ("E", 8, 240, 30),
    ("F", 4, 48, 9),
    ("G", 2, 12, 4),
]


@pytest.mark.parametrize("family,rank,nroots,hdual", TABLE_ONE_VALUES)
def test_root_counts_and_dual_coxeter(family, rank, nroots, hdual):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == nroots
    assert rs.form(rs.theta, rs.theta) == 2
    assert rs.form(rs.rho, rs.theta) == rs.dual_coxeter - 1
    assert rs.dual_coxeter == hdual
    assert classify_subsystem(rs.roots) == canonical_type(family, rank)


def test_e7_root_breakdown():
    rs = build_root_system("E", 7)
    pair_roots = [a for a in rs.roots if sorted(abs(x) for x in a)[-3:] == [0, 1, 1]]
    integral = [a for a in pair_roots if all(x.denominator == 1 for x in a)]
    halves = [a for a in rs.roots if all(abs(x) == Q(1, 2) for x in a)]
    axis = [a for a in rs.roots if sum(abs(x) for x in a) == 2
            and a[6] != 0 and a[7] != 0]
    assert len(halves) == 64
    assert len(axis) == 2
    assert len(integral) - len(axis) == 60
    assert rs.theta == vec(0, 0, 0, 0, 0, 0, -1, 1)


def test_d4_spec_example():
    rs = build_root_system("D", 4)
    assert rs.dual_coxeter == 6
    assert rs.theta == vec(1, 1, 0, 0)
    assert len(rs.roots) == 2 * 4 * 3


def test_b2_spec_example():
    rs = build_root_system("B", 2)
    assert rs.dual_coxeter == 3
    assert rs.theta == vec(1, 1)
    assert len(rs.roots) == 8


def test_form_examples():
    rs = build_root_system("D", 4)
    assert rs.form(rs.theta, rs.theta) == 2
    assert rs.form(vzero(4), vec(1, 2, 3, 4)) == 0
    rs6 = build_root_system("D", 6)
    assert rs6.form(rs6.rho, rs6.theta) == 9


# SHA-256 of the compact, key-sorted JSON of root_system_to_json, recorded
# from the hand-written root lists that the root-string generator replaced.
# Any change to coordinates, root order, theta, rho or h^vee fails here.
ROOT_SYSTEM_DIGESTS = [
    ("A", 1, "c49b378a7b4792bd8eff1c535b32449d96d1141bc0a05a418c1092c31d067d3f"),
    ("A", 2, "e925b538aba0671f10e1065a03ff8af2f4e5a8ba285d1ce9bec126744afbf8ca"),
    ("A", 3, "570c27c3d8cb6ff3fe8cf284d89d80da7c8c9e99dc17f1fe692692addb69612a"),
    ("A", 4, "699043f403c48b1e1a0f9723bc2d85c73f821190f788cdbd32051ed08afeb34d"),
    ("A", 5, "b22fe7494ecd5e2b432ce31eb1cc6bea68257dcaa36b34b95a52cc433466004a"),
    ("A", 6, "2709703baefee9ef4dd9c5934b3d9c49eb76703196762e6729fabacb77f06025"),
    ("A", 7, "20fb86028ef28d2a52292b422b72e77011d573f21f1d1074ab03e6a09a0f8ac5"),
    ("A", 8, "ca45d54c2826beee694cc8bc089427700a6ac474aec645074b2646fc0248233b"),
    ("A", 9, "fc3eeff8e6b1c6c60fa0cf04fa4f0bd85f9ed0f4b57bb04577599cf952e85f9b"),
    ("B", 2, "6daf1c57518e402d0f903dac8a93ad8120b2a949e82c7d79fe36a090c2ca74b7"),
    ("B", 3, "a1373a69939c9eec58ac14c3a8bf848a39c2dabec85f7eaf9cf5ed8f334792b3"),
    ("B", 4, "b38b5c2823a8c79cf3e27636b7555707e22301cd3b6c510de45cfbe99b9b7443"),
    ("B", 5, "5b7e4bae4cb26822e6d4811c0ae8a10f6f04772b58c45c69829d3e095117fa40"),
    ("B", 6, "3b393f2367abd900c51a2596542edffde77f2bf18715148e878094e82865b4df"),
    ("B", 7, "ccdbcab222c243508f46a6b133e545bb7ca0ed487c728321df2730cae99e4edc"),
    ("B", 8, "159429cefd5be293a0625e9f993ff05967f018a6070341a6140feb09c2de9dca"),
    ("B", 9, "5c579ea3e511218c549218058757a092a76f700f57b66ad73468cefbcc874c69"),
    ("C", 1, "1d75caec2b7b9fd2b16dbf2101855aa172805f9c5de8d1c98199d9371f9be831"),
    ("C", 2, "47e359d877b09444692744fd38b3c3faf738d3a589f77cba58fb56fd91960194"),
    ("C", 3, "278decf695ed8ea75d64d42dd75ab8a7b9dc424ff3760d2e45f06f845cbd9b18"),
    ("C", 4, "e2cabf15405d80ead81470387af0159d430be6a9f3f664d362d0935381b8e4f2"),
    ("C", 5, "66de74392875f3648fce763e273daf47d70c8f55734c1ebb64d4f7740c89fa9d"),
    ("C", 6, "d447463bc332f36d288fabc6910d09ec272a6af0c03629d072ca98d4d284cd6a"),
    ("C", 7, "b85ba2ab278bd2b93058bc9b5926d033b088dfe12a6231365c18f8f2e539a3aa"),
    ("C", 8, "1a905202f52674b0ae346eedc540b13901a2a3bd8e5e42eb27bea1740428f3f3"),
    ("C", 9, "d7bd05f427568676f47cbde2dd5c78f2d79e1dcd3891ab3c489745ab892f838b"),
    ("D", 3, "c2db6c6db4a072c1962c654c2c8c777d112d20a84a342be246266f0d01e20d1a"),
    ("D", 4, "3c1c6bd4344b452d73e94ed532758bf9a9c30d5178697d697043c625a24a7bae"),
    ("D", 5, "584dc0a097f4e6b1ba1f30e78f86ad71c54a2cb25b5fa3ffd14794e7a5200fde"),
    ("D", 6, "c58042256a4ed5bef434aa4ff37deb2f3a63c49ec2979aec5da184f7a46bd117"),
    ("D", 7, "74818e2e929859f637bf94970d4444b1569673b89ec6b25a295c25553fcb1f7c"),
    ("D", 8, "e382c048973015dd6ea05843cf7980d45b80aaab739a836456eb10ecdea871c7"),
    ("D", 9, "ec7f4dc191392ec15a7f13c4747bc73000f4ec2613122af0d4139bb007c29e6b"),
    ("E", 6, "6dde3d2a5e3b9b9b725163f4e0861a65eb8ab225dc43236a05442c3a543718c2"),
    ("E", 7, "77433d8acaa1818202866bba317a44ddf5a6b5052911f1d8261763ae4ec2d272"),
    ("E", 8, "fea6aec9e6599aa76325616d27e7d0af34f6bed56a22cbcdff514e3458da437a"),
    ("F", 4, "e55b6d593888fa4ddcae158b31e723985621d1e72bed87fc631c74ea509bbb52"),
    ("G", 2, "0e66893e42112ce33bfd3d121cd51c2e557431d1035dd8a146d5daab8b8ed5b1"),
]


@pytest.mark.parametrize("family,rank,digest", ROOT_SYSTEM_DIGESTS)
def test_root_system_json_digest(family, rank, digest):
    text = json.dumps(root_system_to_json(build_root_system(family, rank)),
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in ROOT_SYSTEM_DIGESTS])
def test_lattice_doubles_the_roots(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.lattice) == len(rs.roots)
    for lat, root in zip(rs.lattice, rs.roots):
        assert all(type(x) is int and x == 2 * y for x, y in zip(lat, root))
        assert len(lat) == len(root) == rs.ambient
    order = lambda vs: sorted(range(len(vs)), key=vs.__getitem__)
    assert order(rs.lattice) == order(rs.roots)


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in ROOT_SYSTEM_DIGESTS])
def test_minimal_grading_dimensions(family, rank):
    """Kac-Wakimoto: dim g_1/2 = 2 h^vee - 4 in the minimal grading.

    g = g_-1 + g_-1/2 + (g^natural + C x) + g_1/2 + g_1 with g_+-1 of
    dimension 1, so dim g^natural = dim g - 4 h^vee + 5.
    """
    rs = build_root_system(family, rank)
    gd = minimal_grading_data(rs)
    dim_g = len(rs.roots) + rank
    assert gd.dim_g_half == 2 * rs.dual_coxeter - 4
    assert gd.dim_gnat == dim_g - 4 * rs.dual_coxeter + 5


def _root_count(family, rank):
    if family == "A":
        return rank * (rank + 1)
    if family in "BC":
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
            ("F", 4): 48, ("G", 2): 12}[(family, rank)]


def _dual_coxeter(family, rank):
    """h^vee from its closed form in the rank."""
    if family in "AC":
        return rank + 1
    if family == "B":
        return 2 * rank - 1
    if family == "D":
        return 2 * rank - 2
    return {("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
            ("F", 4): 9, ("G", 2): 4}[(family, rank)]


SUPPORTED_UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(1, 9)] + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", SUPPORTED_UP_TO_RANK_8)
def test_root_system_oracle(family, rank):
    """Weyl closure, the classical root count, the highest root and the
    closed-form dual Coxeter number.

    Plain tuple arithmetic only, nothing from the generator: a set that
    holds the simple roots, is closed under the simple reflections and has
    the right size is the root system.
    """
    rs = build_root_system(family, rank)
    roots = set(rs.roots)
    ip = lambda a, b: sum(x * y for x, y in zip(a, b))
    assert len(roots) == len(rs.roots) == _root_count(family, rank)
    assert set(rs.simple_roots) <= roots
    for a in rs.simple_roots:
        for b in rs.roots:
            c = 2 * ip(b, a) / ip(a, a)
            assert tuple(y - c * x for x, y in zip(a, b)) in roots
    for a in rs.positive_roots:
        assert tuple(x + y for x, y in zip(rs.theta, a)) not in roots
    assert rs.dual_coxeter == _dual_coxeter(family, rank)


def _eliminated_rank(vectors):
    rows = [{c: Q(x) for c, x in enumerate(v) if x} for v in vectors]
    return len(linalg.rref(rows, len(vectors[0]))[1])


@pytest.mark.parametrize("field", ["lattice", "roots"])
@pytest.mark.parametrize("family,rank", SUPPORTED_UP_TO_RANK_8)
def test_span_dim_counts_the_simple_roots(family, rank, field):
    """The count of lexicographically simple roots is the rank that exact
    elimination finds, on the int lattice and on the Fraction roots."""
    rs = build_root_system(family, rank)
    vectors = getattr(rs, field)
    assert _span_dim(vectors) == _eliminated_rank(vectors) == rs.rank


@pytest.mark.parametrize("g", DEFAULT_AUDIT_ALGEBRAS)
def test_span_dim_of_every_grading_component(g):
    """Every component block of the audited gradings, including the rank
    one blocks inside a larger ambient space."""
    for comp in minimal_grading_data(build_root_system(*g)).components:
        assert _span_dim(comp.roots) == _eliminated_rank(comp.roots)
        assert _span_dim(comp.roots) == comp.rank


@pytest.mark.parametrize(
    "family,rank",
    SUPPORTED_UP_TO_RANK_8 + [("A", 20), ("B", 20), ("C", 20), ("D", 20)])
def test_grading_components_match_the_all_pairs_rules(family, rank):
    """Blocks, highest roots and ranks of the linear passes equal those of
    the all-pairs rules, field by field."""
    rs = build_root_system(family, rank)
    gd = minimal_grading_data(rs)
    reference = reference_grading_components(rs)
    assert gd.components == reference
    assert gd.center_dim == rs.rank - 1 - sum(c.rank for c in reference)


@pytest.mark.parametrize("first,second,nroots", [
    (("A", 8), ("E", 6), 72),
    (("A", 15), ("E", 8), 240),
    (("D", 15), ("A", 20), 420),
])
def test_classify_tells_apart_equal_root_counts(first, second, nroots):
    """Root systems with the same number of roots and one root length are
    told apart by their rank alone."""
    for g in (first, second):
        rs = build_root_system(*g)
        assert len(rs.roots) == nroots
        assert classify_subsystem(rs.roots) == g
        assert classify_subsystem(rs.lattice) == g


def test_form_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(vec(1, 0), vec(1, 0, 0))


def test_casimir_eigenvalue():
    rs = build_root_system("D", 4)
    assert casimir_eigenvalue(rs, vzero(4)) == 0
    assert casimir_eigenvalue(rs, rs.theta) == 2 * rs.dual_coxeter == 12
    rs6 = build_root_system("D", 6)
    mu = vec(1, 1, 1, 1, 1, 1)  # 2 * omega_6
    # (mu, mu) = 6 and (mu, 2 rho) = 2(5+4+3+2+1+0) = 30
    assert casimir_eigenvalue(rs6, mu) == 36


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _, _ in TABLE_ONE_VALUES])
def test_casimir_theta_identity(family, rank):
    rs = build_root_system(family, rank)
    assert casimir_eigenvalue(rs, rs.theta) == 2 * rs.dual_coxeter


def test_unsupported_types():
    for family, rank in [("B", 1), ("D", 2), ("E", 5), ("F", 3), ("G", 3),
                         ("H", 4), ("A", 0)]:
        with pytest.raises(UnsupportedAlgebraError):
            build_root_system(family, rank)


def test_parse_algebra():
    assert parse_algebra("D:4").label == "D4"
    assert parse_algebra("so(8)").label == "D4"
    assert parse_algebra("so(9)").label == "B4"
    assert parse_algebra("sl(6)").label == "A5"
    assert parse_algebra("sp(6)").label == "C3"
    assert parse_algebra("E7").label == "E7"
    with pytest.raises(UnsupportedAlgebraError):
        parse_algebra("sp(7)")
    with pytest.raises(UnsupportedAlgebraError):
        parse_algebra("Dfour")


def test_fundamental_weights_pair_correctly():
    for family, rank in [("B", 3), ("C", 3), ("D", 4), ("D", 6), ("A", 3),
                         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        for i in range(1, rank + 1):
            w = fundamental_weight(rs, i)
            for j, a in enumerate(rs.simple_roots, start=1):
                pairing = 2 * rs.form(w, a) / rs.form(a, a)
                assert pairing == (1 if i == j else 0)


def test_type_a_fundamental_weights():
    rs = build_root_system("A", 3)
    q = Q(1, 4)
    assert fundamental_weight(rs, 1) == (3 * q, -q, -q, -q)
    assert fundamental_weight(rs, 2) == (2 * q, 2 * q, -2 * q, -2 * q)
    assert fundamental_weight(rs, 3) == (q, q, q, -3 * q)


def test_spin_weights_are_half_integral():
    rs = build_root_system("D", 6)
    w6 = fundamental_weight(rs, 6)
    w5 = fundamental_weight(rs, 5)
    assert w6 == tuple([Q(1, 2)] * 6)
    assert w5 == tuple([Q(1, 2)] * 5 + [Q(-1, 2)])
    assert is_dominant_integral(rs, w6)
    assert is_dominant_integral(rs, vadd(w5, w6))
    assert not is_dominant_integral(rs, vec(0, 1, 0, 0, 0, 0))


def test_dominant_integral():
    rs = build_root_system("D", 4)
    assert is_dominant_integral(rs, vzero(4))
    assert is_dominant_integral(rs, vec(3, 0, 0, 0))
    assert not is_dominant_integral(rs, vec(-1, 0, 0, 0))
    assert not is_dominant_integral(rs, vec(Q(1, 3), 0, 0, 0))


# ---------------------------------------------------------------------------
# minimal grading at the root level (the Table 1 structure)

GRADING_CASES = [
    # algebra, expected component multiset, center, dim g_half
    (("D", 6), ["sl(2)", "so(8)"], 0, 16),
    (("D", 5), ["sl(2)", "sl(4)"], 0, 12),
    (("D", 4), ["sl(2)", "sl(2)", "sl(2)"], 0, 8),
    (("D", 3), ["sl(2)"], 1, 4),
    (("B", 2), ["sl(2)"], 0, 2),
    (("B", 3), ["sl(2)", "sl(2)"], 0, 6),
    (("B", 4), ["sl(2)", "so(5)"], 0, 10),
    (("C", 3), ["so(5)"], 0, 4),
    (("C", 4), ["sp(6)"], 0, 6),
    (("A", 2), [], 1, 2),
    (("A", 4), ["sl(3)"], 1, 6),
    (("G", 2), ["sl(2)"], 0, 4),
    (("F", 4), ["sp(6)"], 0, 14),
    (("E", 6), ["sl(6)"], 0, 20),
    (("E", 7), ["so(12)"], 0, 32),
    (("E", 8), ["E7"], 0, 56),
]


@pytest.mark.parametrize("g,comps,center,half", GRADING_CASES)
def test_grading_components(g, comps, center, half):
    rs = build_root_system(*g)
    gd = minimal_grading_data(rs)
    got = sorted(c.type_label for c in gd.components)
    assert got == sorted(comps)
    assert gd.center_dim == center
    assert gd.dim_g_half == half
    dim_g = len(rs.roots) + rs.rank
    assert dim_g == gd.dim_gnat + 3 + 2 * gd.dim_g_half


def test_classify_exceptional_isomorphisms():
    assert canonical_type("C", 2) == ("B", 2)
    assert canonical_type("D", 3) == ("A", 3)
    assert canonical_name("B", 2) == "so(5)"
    rs = build_root_system("B", 2)
    assert classify_subsystem(rs.roots) == ("B", 2)
    rs = build_root_system("D", 3)
    assert classify_subsystem(rs.roots) == ("A", 3)


def test_restricted_dual_coxeter_values():
    # half the Casimir eigenvalue of each component under the ambient form
    gd = minimal_grading_data(build_root_system("D", 6))
    by_type = {c.type_label: c.dual_coxeter0 for c in gd.components}
    assert by_type == {"sl(2)": 2, "so(8)": 6}
    gd = minimal_grading_data(build_root_system("E", 8))
    assert [c.dual_coxeter0 for c in gd.components] == [18]
    gd = minimal_grading_data(build_root_system("G", 2))
    assert [c.dual_coxeter0 for c in gd.components] == [Q(2, 3)]
    gd = minimal_grading_data(build_root_system("B", 3))
    assert sorted(c.dual_coxeter0 for c in gd.components) == [1, 2]
