"""Exact polynomial calculus on axis-aligned cells."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuboid_complex.polytensor import (
    CellBox, Degree3, EntityRef, TensorPoly, UNIT_BOX, box, degree_from_caps,
    moment, monomial_weight,
)

F = Fraction


def vertex_entity(point):
    p = tuple(F(c) for c in point)
    return EntityRef("vertex", CellBox(p, p))


def test_degree_grid_layout():
    d = Degree3(2, 1, 3)
    assert d.dim() == 3 * 2 * 4
    exps = list(d.exponents())
    assert exps[0] == (0, 0, 0)
    assert exps[1] == (0, 0, 1)          # z fastest
    assert exps[-1] == (2, 1, 3)
    for pos, e in enumerate(exps):
        assert d.index(e) == pos
    assert d.contains((2, 1, 3))
    assert not d.contains((3, 0, 0))


def test_degree_negative_cap_is_empty():
    d = Degree3(2, -1, 0)
    assert d.is_empty
    assert d.dim() == 0
    assert list(d.exponents()) == []


def test_degree_from_caps():
    d = degree_from_caps({0: 4}, 2)
    assert d.caps == (4, 2, 2)


def test_box_geometry():
    b = box(0, 2, 1, 4, 0, F(1, 2))
    assert b.h(0) == 2 and b.h(1) == 3 and b.h(2) == F(1, 2)
    assert b.measure() == 3
    assert b.free_axes() == (0, 1, 2)
    assert b.to_reference((1, 1, F(1, 4))) == (F(1, 2), 0, F(1, 2))
    with pytest.raises(ValueError):
        box(1, 0, 0, 1, 0, 1)


def test_entity_kind_validation():
    face = CellBox((F(0), F(0), F(0)), (F(1), F(1), F(0)))
    assert EntityRef("face", face).tag == "xy"
    with pytest.raises(ValueError):
        EntityRef("edge", face)
    v = vertex_entity((1, 2, 3))
    assert v.kind == "vertex" and v.measure() == 1


def test_monomial_and_coeff():
    p = TensorPoly.monomial((2, 0, 1), UNIT_BOX, coeff=F(3))
    assert p.coeff((2, 0, 1)) == 3
    assert p.coeff((0, 0, 0)) == 0
    assert p.coeff((9, 9, 9)) == 0       # outside the grid reads as zero
    assert not p.is_zero()
    assert TensorPoly.zero(Degree3(1, 1, 1)).is_zero()


def test_algebra_and_cell_guard():
    p = TensorPoly.monomial((1, 0, 0))
    q = TensorPoly.monomial((0, 1, 0))
    s = p + q - p.scale(2)
    assert s.coeff((1, 0, 0)) == -1 and s.coeff((0, 1, 0)) == 1
    assert (-(p + q) + p + q).is_zero()
    prod = p * q
    assert prod.coeff((1, 1, 0)) == 1
    other = TensorPoly.monomial((1, 0, 0), box(0, 2, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        _ = p + other


def test_eval_physical_on_scaled_box():
    # p = x_ref^2 on [0, 1/2]: physically p(x) = (2x)^2.
    b = box(0, F(1, 2), 0, 1, 0, 1)
    p = TensorPoly.monomial((2, 0, 0), b)
    assert p.eval_physical((F(1, 4), 0, 0)) == F(1, 4)
    assert p.eval_physical((F(1, 2), F(1, 3), F(2, 3))) == 1
    assert p.eval_reference((F(1, 2), 0, 0)) == F(1, 4)


def test_differentiate_is_physical():
    # d/dx of (2x)^2 = 8x at x = 1/4 is 2.
    b = box(0, F(1, 2), 0, 1, 0, 1)
    p = TensorPoly.monomial((2, 0, 0), b)
    dp = p.differentiate(0)
    assert dp.eval_physical((F(1, 4), 0, 0)) == 2
    assert dp.degree.caps[0] == 1


def test_differentiate_frozen_axis_raises():
    face = CellBox((F(0), F(0), F(0)), (F(1), F(1), F(0)))
    p = TensorPoly.monomial((1, 1, 0), face)
    with pytest.raises(ValueError):
        p.differentiate(2)


def test_antiderivative_fundamental_theorem():
    b = box(0, F(1, 2), 0, F(1, 3), 0, F(3, 4))
    p = TensorPoly.from_terms(
        {(0, 0, 0): F(2), (1, 1, 0): F(-3), (2, 0, 2): F(5, 7)}, cell=b)
    for axis in range(3):
        back = p.antiderivative(axis).differentiate(axis)
        assert (back - p).is_zero()


def test_antiderivative_vanishes_at_lower_face():
    b = box(1, 3, 0, 1, 0, 1)
    p = TensorPoly.from_terms({(1, 0, 0): F(1), (0, 2, 1): F(4)}, cell=b)
    big = p.antiderivative(0)
    lower = EntityRef("face", CellBox((F(1), F(0), F(0)), (F(1), F(1), F(1))))
    assert big.trace(lower).is_zero()
    # and it really integrates: antiderivative of 1 along x is x - 1 here
    one = TensorPoly.monomial((0, 0, 0), b)
    assert one.antiderivative(0).eval_physical((F(5, 2), 0, 0)) == F(3, 2)


def test_trace_values_match_evaluation():
    b = box(0, 2, 0, 1, 0, 1)
    p = TensorPoly.from_terms({(2, 1, 0): F(1), (0, 0, 2): F(-2)}, cell=b)
    hi_face = EntityRef("face", CellBox((F(2), F(0), F(0)), (F(2), F(1), F(1))))
    t = p.trace(hi_face)
    for y, z in ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1))):
        assert t.eval_physical((2, y, z)) == p.eval_physical((2, y, z))


def test_trace_commutes_with_tangential_derivative():
    b = box(0, 1, 0, 3, 0, 1)
    p = TensorPoly.from_terms({(1, 2, 1): F(5), (0, 1, 0): F(2)}, cell=b)
    face = EntityRef("face", CellBox((F(1), F(0), F(0)), (F(1), F(3), F(1))))
    a = p.differentiate(1).trace(face)
    bb = p.trace(face).differentiate(1)
    assert (a - bb).is_zero()


def test_moment_closed_form_unit_cell():
    cell = EntityRef("cell", UNIT_BOX)
    for (a, b_, c) in ((0, 0, 0), (1, 0, 0), (2, 3, 1)):
        p = TensorPoly.monomial((a, b_, c))
        w = TensorPoly.monomial((0, 0, 0))
        assert moment(p, w, cell) == F(1, (a + 1) * (b_ + 1) * (c + 1))


def test_moment_scales_with_measure():
    bx = box(0, 2, 0, 3, 0, F(1, 2))
    cell = EntityRef("cell", bx)
    one = TensorPoly.monomial((0, 0, 0), bx)
    assert moment(one, one, cell) == 3
    # reference x on a face: integral of x_ref over the z=0 face of area 6
    face = EntityRef("face", CellBox((F(0), F(0), F(0)), (F(2), F(3), F(0))))
    px = TensorPoly.monomial((1, 0, 0), face.extent)
    w = monomial_weight((0, 0, 0), face)
    assert moment(px, w, face) == F(1, 2) * 6


def test_moment_auto_traces_from_the_cell():
    b = box(0, 1, 0, 1, 0, 1)
    p = TensorPoly.from_terms({(1, 1, 1): F(1)}, cell=b)
    hi = EntityRef("face", CellBox((F(1), F(0), F(0)), (F(1), F(1), F(1))))
    w = monomial_weight((0, 0, 0), hi)
    # trace at x=1 is y z; integral over the unit face is 1/4
    assert moment(p, w, hi) == F(1, 4)


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponents, st.fractions(min_value=-5, max_value=5,
                                                max_denominator=6),
                        min_size=0, max_size=6)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_product_rule(t1, t2):
    p = TensorPoly.from_terms(t1)
    q = TensorPoly.from_terms(t2)
    for axis in range(3):
        lhs = (p * q).differentiate(axis)
        rhs = p.differentiate(axis) * q + p * q.differentiate(axis)
        assert (lhs - rhs).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys, st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=7),
                        st.fractions(min_value=0, max_value=1, max_denominator=7),
                        st.fractions(min_value=0, max_value=1, max_denominator=7)))
def test_eval_is_linear(t1, pt):
    p = TensorPoly.from_terms(t1)
    assert (p + p).eval_reference(pt) == 2 * p.eval_reference(pt)
    assert p.scale(F(-3, 2)).eval_reference(pt) == F(-3, 2) * p.eval_reference(pt)
