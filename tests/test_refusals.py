"""Library refusals that no other test reaches, each pinned by its exception
type and text."""

from fractions import Fraction as Q

import pytest

from vkg.liealg import build_realization
from vkg.pbw import (
    StateVector,
    component_size,
    graded_basis,
    proportional,
    vacuum,
)
from vkg.rootdata import (
    UnsupportedAlgebraError,
    build_root_system,
    fundamental_weight,
    vzero,
)
from vkg.vectors import (
    build_v_n,
    build_w1_B,
    build_w_n,
    e7_subset_root,
    enumerate_involutions,
)


def _state(level=0, weight=(0, 0, 0, 0), degree=0):
    return StateVector(Q(level), tuple(map(Q, weight)), Q(degree), {(): Q(1)})


REFUSALS = {
    "add at another level": (
        lambda: _state() + _state(level=1),
        ValueError, "cannot add states at different levels"),
    "add at another weight": (
        lambda: _state() + _state(weight=(1, 0, 0, 0)),
        ValueError, "cannot add states of different weight or degree"),
    "add at another degree": (
        lambda: _state() + _state(degree=1),
        ValueError, "cannot add states of different weight or degree"),
    "graded_basis at degree -1": (
        lambda: graded_basis(build_realization("D", 4), vzero(4), -1),
        ValueError, "degree must be nonnegative"),
    "component_size at degree -1": (
        lambda: component_size(build_realization("D", 4), vzero(4), -1, 10),
        ValueError, "degree must be nonnegative"),
    "fundamental weight 0": (
        lambda: fundamental_weight(build_root_system("D", 4), 0),
        ValueError, "index 0 out of range for rank 4"),
    "fundamental weight rank + 1": (
        lambda: fundamental_weight(build_root_system("D", 4), 5),
        ValueError, "index 5 out of range for rank 4"),
    "Cartan index 0": (
        lambda: build_realization("D", 4).h(0),
        ValueError, "Cartan index 0 out of range"),
    "involutions of 0 pairs": (
        lambda: enumerate_involutions(0),
        ValueError, "need l >= 1"),
    "v_n at n = 0": (
        lambda: build_v_n(build_realization("D", 4), 0),
        ValueError, "n must be positive"),
    "w_n at n = 0": (
        lambda: build_w_n(build_realization("D", 4), 0),
        ValueError, "n must be positive"),
    "w1_B on type D": (
        lambda: build_w1_B(build_realization("D", 4)),
        UnsupportedAlgebraError, "build_w1_B needs type B of rank >= 2"),
    "E7 root of an even subset": (
        lambda: e7_subset_root((1, 2)),
        ValueError, "subset must have odd size"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, error, text = REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == text


def test_zero_is_proportional_to_anything_with_factor_zero():
    lr = build_realization("D", 4)
    zero = vacuum(lr, -2).scaled(0)
    assert proportional(zero, vacuum(lr, -2)) == 0
