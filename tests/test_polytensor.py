"""Exact polynomial calculus on axis-aligned cells."""

from fractions import Fraction
from itertools import product

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


# ---------------------------------------------------------------------------
# the kernel against the dict-based calculus it replaced


def _oracle_terms(p):
    kx, ky, kz = p.degree.caps
    exps = [(i, j, l) for i in range(kx + 1) for j in range(ky + 1)
            for l in range(kz + 1)]
    return {e: v for e, v in zip(exps, p.coeffs) if v}


def _oracle_poly(terms, caps, cell):
    """A polynomial from its terms, laid out z fastest by hand."""
    kx, ky, kz = caps
    c = [0] * max(0, (kx + 1) * (ky + 1) * (kz + 1))
    for (i, j, l), v in terms.items():
        if v:
            assert 0 <= i <= kx and 0 <= j <= ky and 0 <= l <= kz
            c[(i * (ky + 1) + j) * (kz + 1) + l] = v
    return TensorPoly(Degree3(*caps), c, cell)


def oracle_differentiate(p, axis):
    h = p.cell.h(axis)
    caps = list(p.degree.caps)
    caps[axis] -= 1
    terms = {}
    for e, v in _oracle_terms(p).items():
        if e[axis] >= 1:
            ne = list(e)
            ne[axis] -= 1
            terms[tuple(ne)] = v * e[axis] / h
    if Degree3(*caps).is_empty:
        caps = [0, 0, 0]
    return _oracle_poly(terms, caps, p.cell)


def oracle_antiderivative(p, axis):
    h = p.cell.h(axis)
    caps = list(p.degree.caps)
    caps[axis] += 1
    terms = {}
    for e, v in _oracle_terms(p).items():
        ne = list(e)
        ne[axis] += 1
        terms[tuple(ne)] = v * h / (e[axis] + 1)
    return _oracle_poly(terms, caps, p.cell)


def oracle_trace(p, at, entity):
    """``at[a]`` is None on a free axis, else the side (0 or 1) it sits at."""
    terms = {}
    for e, v in _oracle_terms(p).items():
        if any(at[a] == 0 and e[a] for a in range(3)):
            continue
        ne = tuple(0 if at[a] is not None else e[a] for a in range(3))
        terms[ne] = terms.get(ne, 0) + v
    caps = [p.degree.caps[a] if at[a] is None else 0 for a in range(3)]
    return _oracle_poly(terms, caps, entity.extent)


def oracle_binop(p, q, sign):
    terms = _oracle_terms(p)
    for e, v in _oracle_terms(q).items():
        terms[e] = terms.get(e, 0) + sign * v
    caps = [max(a, b) for a, b in zip(p.degree.caps, q.degree.caps)]
    return _oracle_poly(terms, caps, p.cell)


def oracle_scale(p, f):
    return _oracle_poly({e: f * v for e, v in _oracle_terms(p).items()},
                        p.degree.caps, p.cell)


def same(p, q):
    return (p.degree == q.degree and p.cell == q.cell and p.coeffs == q.coeffs
            and isinstance(p.coeffs, tuple)
            and all(type(c) is Fraction for c in p.coeffs))


def entities_of(cell):
    """Every face, edge and vertex of ``cell``, with its sides per axis."""
    out = []
    for at in product((None, 0, 1), repeat=3):
        if at == (None, None, None):
            continue
        lo = [cell.hi[a] if at[a] == 1 else cell.lo[a] for a in range(3)]
        hi = [cell.lo[a] if at[a] == 0 else cell.hi[a] for a in range(3)]
        kind = ("vertex", "edge", "face")[sum(l < h for l, h in zip(lo, hi))]
        out.append((at, EntityRef(kind, CellBox(tuple(lo), tuple(hi)))))
    return out


caps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
coefficient = st.one_of(st.just(F(0)),
                        st.fractions(min_value=-7, max_value=7, max_denominator=9))
corner = st.fractions(min_value=-3, max_value=3, max_denominator=5)
extent = st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7)


@st.composite
def cells(draw):
    lo = [draw(corner) for _ in range(3)]
    return CellBox(tuple(lo), tuple(x + draw(extent) for x in lo))


@st.composite
def tensor_polys(draw, cell, caps=None):
    caps = caps if caps is not None else draw(caps3)
    n = (caps[0] + 1) * (caps[1] + 1) * (caps[2] + 1)
    return TensorPoly(Degree3(*caps), draw(st.lists(coefficient, min_size=n, max_size=n)),
                      cell)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_calculus_matches_dict_oracle(data):
    cell = data.draw(cells())
    p = data.draw(tensor_polys(cell))
    for axis in range(3):
        assert same(p.differentiate(axis), oracle_differentiate(p, axis))
        assert same(p.antiderivative(axis), oracle_antiderivative(p, axis))
    for at, entity in entities_of(cell):
        t = p.trace(entity)
        assert same(t, oracle_trace(p, at, entity))
        for at2, sub in entities_of(entity.extent):
            if all(at2[a] is None or at[a] is None for a in range(3)):
                assert same(t.trace(sub), oracle_trace(t, at2, sub))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_sum_difference_and_scale_match_dict_oracle(data, equal_grids):
    cell = data.draw(cells())
    p = data.draw(tensor_polys(cell))
    q = data.draw(tensor_polys(cell, p.degree.caps if equal_grids else None))
    assert same(p + q, oracle_binop(p, q, 1))
    assert same(p - q, oracle_binop(p, q, -1))
    assert same(q - p, oracle_binop(q, p, -1))
    f = data.draw(coefficient)
    assert same(p.scale(f), oracle_scale(p, f))
    assert same(p.scale(-2), oracle_scale(p, F(-2)))
    assert same(-p, oracle_scale(p, F(-1)))


def test_derivative_that_empties_the_grid():
    p = TensorPoly(Degree3(0, 2, 1), [F(k, 3) for k in range(6)], box(0, 2, 0, 1, 0, 3))
    d = p.differentiate(0)
    assert same(d, oracle_differentiate(p, 0))
    assert d.degree == Degree3(0, 0, 0) and d.is_zero()


def test_coefficient_invariants():
    half = F(1, 2)
    p = TensorPoly(Degree3(1, 0, 0), [half, 3])
    assert isinstance(p.coeffs, tuple)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs[0] is half           # a Fraction is stored, not re-wrapped
    assert p.coeffs[1] == 3
    q = TensorPoly(Degree3(0, 0, 1), [0.25, -2])
    assert q.coeffs == (F(1, 4), F(-2)) and all(type(c) is Fraction for c in q.coeffs)
    r = TensorPoly.from_terms({(1, 0, 0): 2, (0, 0, 0): 0.5})
    assert r.coeffs == (F(1, 2), F(2)) and all(type(c) is Fraction for c in r.coeffs)
    with pytest.raises(ValueError):
        TensorPoly(Degree3(1, 0, 0), [1])
