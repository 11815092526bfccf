"""Differential operators: hand examples, identities, degree containments."""

import random
from fractions import Fraction

import pytest

from cuboid_complex.elements import family, shape_space
from cuboid_complex.operators import (
    MembershipError, OPERATORS, PolyField, check_identity_curl_symgrad,
    coordinate_field, curl_curl_transpose, curl_rows, curl_transpose,
    curl_vec, div_rows, field_coords, field_to_coords, gradgrad, grad_vec,
    scalar_field, sym_grad, transpose_field,
)
from cuboid_complex.polytensor import TensorPoly, UNIT_BOX, box
from cuboid_complex.verify import random_member_field

F = Fraction


def mono(exp, cell=UNIT_BOX, c=1):
    return TensorPoly.monomial(exp, cell, F(c))


def field_is_zero(f):
    return all(p.is_zero() for p in f.comps.values())


def vector_field(comps, cell):
    return PolyField("vector", dict(comps), cell)


def matrix_field(comps, cell, symmetric=False):
    return PolyField("matrix", dict(comps), cell, symmetric)


def trace_field(f):
    return f.mat(0, 0) + f.mat(1, 1) + f.mat(2, 2)


def test_gradgrad_of_quadratic():
    # u = x^2 y: Hessian rows are (2y, 2x, 0), (2x, 0, 0), (0, 0, 0)
    h = gradgrad(scalar_field(mono((2, 1, 0))))
    assert h.mat(0, 0) == mono((0, 1, 0), c=2)
    assert h.mat(0, 1) == mono((1, 0, 0), c=2)
    assert h.mat(1, 0) == mono((1, 0, 0), c=2)
    assert h.mat(1, 1).is_zero() and h.mat(2, 2).is_zero()
    assert h.symmetric


def test_gradgrad_kills_affine():
    u = scalar_field(TensorPoly.from_terms(
        {(0, 0, 0): F(7), (1, 0, 0): F(2), (0, 1, 0): F(-1), (0, 0, 1): F(5)}))
    assert field_is_zero(gradgrad(u))


def test_sym_grad_kills_rigid_motions():
    # translations and the three infinitesimal rotations e_i cross x
    rigid = [
        {"x": mono((0, 0, 0))},
        {"y": mono((0, 0, 1), c=-1), "z": mono((0, 1, 0))},
        {"x": mono((0, 0, 1)), "z": mono((1, 0, 0), c=-1)},
        {"x": mono((0, 1, 0), c=-1), "y": mono((1, 0, 0))},
    ]
    for comps in rigid:
        assert field_is_zero(sym_grad(vector_field(comps, UNIT_BOX)))


def test_div_rows_hand_example():
    # rows (xy, 0, 0) and (0, 0, yz): divergence (y, y)
    f = matrix_field({"xx": mono((1, 1, 0)), "zz": mono((0, 1, 1))}, UNIT_BOX)
    d = div_rows(f)
    assert d.vec(0) == mono((0, 1, 0))
    assert d.vec(1).is_zero()
    assert d.vec(2) == mono((0, 1, 0))


def test_curl_vec_hand_example():
    # curl (0, 0, xy) = (x, -y, 0)
    v = vector_field({"z": mono((1, 1, 0))}, UNIT_BOX)
    c = curl_vec(v)
    assert c.vec(0) == mono((1, 0, 0))
    assert c.vec(1) == mono((0, 1, 0), c=-1)
    assert c.vec(2).is_zero()


def test_curl_transpose_is_conjugated_curl():
    rng = random.Random(3)
    f = random_member_field(family("sigma", 3), UNIT_BOX, rng)
    lhs = curl_transpose(f)
    rhs = transpose_field(curl_rows(transpose_field(f)))
    for a in range(3):
        for b in range(3):
            assert (lhs.mat(a, b) - rhs.mat(a, b)).is_zero()


def test_operators_are_physical():
    # on a stretched cell the chain factors must appear
    cell = box(0, 2, 0, 1, 0, 1)
    u = scalar_field(mono((2, 0, 0), cell))     # u = (x/2)^2 physically
    h = gradgrad(u)
    assert h.mat(0, 0).eval_physical((1, 0, 0)) == F(1, 2)


def test_complex_property_locally():
    rng = random.Random(5)
    for _ in range(10):
        u = scalar_field(TensorPoly.from_terms(
            {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
             F(rng.randint(-9, 9)) for _ in range(5)}))
        assert field_is_zero(curl_rows(gradgrad(u)))
        v = random_member_field(family("x", 2), UNIT_BOX, rng)
        assert field_is_zero(curl_curl_transpose(sym_grad(v)))
        s = random_member_field(family("sigma", 3), UNIT_BOX, rng)
        assert field_is_zero(div_rows(curl_rows(s)))
        g = random_member_field(family("phi", 2), UNIT_BOX, rng)
        assert field_is_zero(div_rows(curl_curl_transpose(g)))


def test_trace_of_curl_rows_on_symmetric_input():
    rng = random.Random(9)
    for _ in range(5):
        s = random_member_field(family("sigma", 3), UNIT_BOX, rng)
        assert trace_field(curl_rows(s)).is_zero()


def test_identity_residuals_vanish():
    v = vector_field({"x": mono((0, 1, 1))}, UNIT_BOX)   # v = (yz, 0, 0)
    r1, r2 = check_identity_curl_symgrad(v)
    assert field_is_zero(r1) and field_is_zero(r2)
    rng = random.Random(11)
    for k in (2, 3):
        w = random_member_field(family("x", k), UNIT_BOX, rng)
        r1, r2 = check_identity_curl_symgrad(w)
        assert field_is_zero(r1) and field_is_zero(r2)


@pytest.mark.parametrize("src,op,dst,k", [
    ("u", "gradgrad", "sigma", 3),
    ("sigma", "curl", "xi", 3),
    ("xi", "div", "q", 3),
    ("u", "gradgrad", "sigma-red", 3),
    ("sigma-red", "curl", "xi-red", 3),
    ("xi-red", "div", "q-red", 3),
    ("x", "symgrad", "phi", 2),
    ("phi", "curlcurlt", "gamma", 2),
    ("gamma", "div", "z", 2),
    ("phi", "curlcurlt", "gamma-red", 2),
    ("gamma-red", "div", "z-red", 2),
])
def test_degree_containment(src, op, dst, k):
    """Each operator maps its source shape space inside the target grids."""
    rng = random.Random(hash((src, op, dst)) & 0xFFFF)
    dst_spec = shape_space(family(dst, k))
    for _ in range(3):
        f = random_member_field(family(src, k), UNIT_BOX, rng)
        field_to_coords(OPERATORS[op](f), dst_spec)


def test_coordinate_round_trip():
    spec = shape_space(family("xi", 3))
    coords = field_coords(spec)
    rng = random.Random(13)
    f = random_member_field(family("xi", 3), UNIT_BOX, rng)
    vec = field_to_coords(f, spec)
    assert len(vec) == len(coords) == spec.local_dimension()
    g = PolyField("matrix", {}, UNIT_BOX)
    # rebuild from coordinates and compare
    comps = {}
    for (comp, exp), v in zip(coords, vec):
        cf = coordinate_field(spec, comp, exp, UNIT_BOX)
        for key, p in cf.comps.items():
            comps[key] = comps.get(key, TensorPoly.zero(p.degree)) + p.scale(v)
    for key, p in comps.items():
        assert (p - f.component(key)).is_zero()


def test_membership_rejections():
    sig = shape_space(family("sigma", 3))
    asym = matrix_field({"xy": mono((0, 0, 0)), "yx": mono((1, 0, 0))}, UNIT_BOX)
    with pytest.raises(MembershipError):
        field_to_coords(asym, sig)
    xi = shape_space(family("xi", 3))
    traced = matrix_field({"xx": mono((0, 0, 0))}, UNIT_BOX)
    with pytest.raises(MembershipError):
        field_to_coords(traced, xi)
    overflow = matrix_field({"xy": mono((9, 0, 0)), "yx": mono((9, 0, 0))},
                            UNIT_BOX)
    with pytest.raises(MembershipError):
        field_to_coords(overflow, sig)
