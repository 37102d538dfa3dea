"""The immutable records of the package: every field is read-only, equal
data compare equal, and a changed copy made with ``_replace`` is refused
like a corrupted table."""

import importlib
import pkgutil
import typing
from fractions import Fraction as Q

import pytest

import vkg
from vkg.collapsing import (
    CollapsePolynomial,
    CollapsingRow,
    Table1Row,
    p_of_k,
    stored_table5_rows,
    table1_expected,
)
from vkg.conformal import KLSpectrum, WeightFamily, kl_spectrum
from vkg.liealg import (
    LieRealization,
    MinimalGrading,
    build_realization,
    identity_failure,
    minimal_grading,
)
from vkg.pbw import StateVector, vacuum
from vkg.rootdata import (
    GradingData,
    RootSubsystem,
    RootSystem,
    build_root_system,
    minimal_grading_data,
    vscale,
)

from helpers import double_pairing


def _grading_data():
    return minimal_grading_data(build_root_system("E", 8))


def _spectrum():
    return kl_spectrum(("D", 5), -2)


# each record type with a builder of one instance from real data
RECORDS = [
    (RootSystem, lambda: build_root_system("E", 8)),
    (RootSubsystem, lambda: _grading_data().components[0]),
    (GradingData, _grading_data),
    (LieRealization, lambda: build_realization("A", 2)),
    (MinimalGrading, lambda: minimal_grading(build_realization("A", 2))),
    (StateVector, lambda: vacuum(build_realization("A", 2), -1)),
    (CollapsePolynomial, lambda: p_of_k(("E", 8))),
    (CollapsingRow, lambda: stored_table5_rows(("E", 8))[0]),
    (Table1Row, lambda: table1_expected(("E", 8))),
    (WeightFamily, lambda: _spectrum().families[0]),
    (KLSpectrum, _spectrum),
]


@pytest.mark.parametrize("kind, build", RECORDS,
                         ids=[kind.__name__ for kind, _ in RECORDS])
def test_record_fields_are_read_only(kind, build):
    record = build()
    assert type(record) is kind
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0


def test_record_annotations_are_types():
    """The list above holds every record of the package, and no field
    annotation is a ``typing.ForwardRef``: ``NamedTuple`` compiles one for
    each string annotation at import."""
    records = set()
    for info in pkgutil.iter_modules(vkg.__path__):
        module = importlib.import_module(f"vkg.{info.name}")
        records.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and obj.__module__ == module.__name__)
    assert records == {kind for kind, _ in RECORDS}
    refs = [f"{kind.__name__}.{name}" for kind in records
            for name, hint in kind.__annotations__.items()
            if isinstance(hint, typing.ForwardRef)]
    assert not refs, refs


def test_root_systems_built_twice_compare_equal():
    first = build_root_system("E", 8)
    build_root_system.cache_clear()
    second = build_root_system("E", 8)
    assert second is not first
    assert second == first
    assert second.dual_coxeter == 30


def test_weight_family_count_is_the_field():
    finite, = kl_spectrum(("D", 5), -2).families
    assert finite.count == 2
    assert len(finite.materialize()) == 2
    infinite = kl_spectrum(("B", 2), -2).families[0]
    assert infinite.count is None and infinite.infinite


def test_state_vector_addition_adds_terms():
    v = vacuum(build_realization("A", 2), -1)
    total = v + v
    assert type(total) is StateVector
    assert total.terms == {(): Q(2)}
    assert total.level == v.level and total.weight == v.weight


def test_replaced_form_table_is_refused():
    """A copy with one pairing changed by ``_replace`` keeps every other
    field, leaves the original as it was, and fails invariance."""
    lr = build_realization("A", 2)
    a1 = lr.rs.simple_roots[0]
    e, f, h = lr.e(a1), lr.e(vscale(-1, a1)), lr.h(1)
    broken = double_pairing(lr, a1)
    assert type(broken) is LieRealization
    assert broken.rs is lr.rs and broken.bracket_table is lr.bracket_table
    assert lr.form(e, f) != broken.form(e, f)
    assert identity_failure(lr, [(e, f, h)]) is None
    assert identity_failure(broken, [(e, f, h)]) == ((e, f, h), True, False)
