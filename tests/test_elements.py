"""Element families: shape spaces, DOF catalogs, unisolvency, bubbles."""

import random
from fractions import Fraction

import pytest

from cuboid_complex import _exactcore, elements
from cuboid_complex.elements import (
    FAMILY_NAMES, FamilyId, apply_dof, axis_functionals, bubble_basis_divT,
    check_unisolvence, entity_ref_for, family, global_dimension_formula,
    _group_positions, group_dof_matrix, local_dofs, min_order, shape_space,
)
from cuboid_complex.polytensor import Degree3, EntityRef, TensorPoly, UNIT_BOX, box

F = Fraction

# family -> (min order, local dimension at min order and min order + 1)
FROZEN_LOCAL_DIMS = {
    "u":         (3, 64, 125),
    "sigma":     (3, 204, 465),
    "sigma-red": (3, 204, 465),
    "xi":        (3, 198, 488),
    "xi-red":    (3, 198, 488),
    "q":         (3, 54, 144),
    "q-red":     (3, 54, 144),
    "x":         (2, 144, 300),
    "phi":       (2, 204, 465),
    "gamma":     (2, 102, 279),
    "gamma-red": (2, 102, 279),
    "z":         (2, 36, 108),
    "z-red":     (2, 36, 108),
}


def test_catalog_is_complete():
    assert set(FAMILY_NAMES) == set(FROZEN_LOCAL_DIMS)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_local_dimensions_frozen(name):
    k0, dim0, dim1 = FROZEN_LOCAL_DIMS[name]
    assert min_order(name) == k0
    assert shape_space(family(name, k0)).local_dimension() == dim0
    assert shape_space(family(name, k0 + 1)).local_dimension() == dim1


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_dof_count_matches_dimension(name):
    k0 = min_order(name)
    for k in (k0, k0 + 1):
        fam = family(name, k)
        assert len(local_dofs(fam)) == shape_space(fam).local_dimension()


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_unisolvent_at_min_order(name):
    r = check_unisolvence(family(name, min_order(name)))
    assert r["square"] and r["nonsingular"]
    assert r["rank"] == r["local_dim"]


def dense_unisolvence(fam):
    """The oracle: every group's DOF block from group_dof_matrix, checked
    square and eliminated by ff_rank."""
    spec = shape_space(fam)
    dim, ndofs = spec.local_dimension(), len(local_dofs(fam))
    rank, square = 0, ndofs == dim
    for g in spec.groups:
        block = group_dof_matrix(fam, g.name)
        if block:
            square = square and len(block) == len(block[0])
            ints, _ = _exactcore.clear_denominators(
                [dict(enumerate(r)) for r in block])
            rank += _exactcore.ff_rank(ints, len(block[0]))
    return {"family": fam.name, "k": fam.k, "local_dim": dim,
            "num_dofs": ndofs, "rank": rank, "square": square,
            "nonsingular": square and rank == dim}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_unisolvence_equals_dense_oracle(name):
    """The ranks from the 1-D tables and the coupled block's two diagonal
    blocks equal the eliminated dense blocks, at k = min..min+2."""
    for k in range(min_order(name), min_order(name) + 3):
        fam = family(name, k)
        assert check_unisolvence(fam) == dense_unisolvence(fam)


@pytest.mark.parametrize("name,k", [("u", 5), ("sigma-red", 4), ("xi-red", 4)])
def test_unisolvence_sees_a_singular_table(monkeypatch, name, k):
    """Negative control: with the moment against t^1 read as the moment
    against t^0, tables holding both are singular.  The check reports the
    family singular with the oracle's rank: a product block by its table
    ranks, sigma-red's fibred blocks (both kinds of factor singular) by
    elimination, and xi-red's coupled block by rank M11 + rank G."""
    real = elements._axis_table

    def merged(cap, d, w, side, h):
        return real(cap, d, 0 if (d, w, side) == (0, 1, None) else w, side, h)

    monkeypatch.setattr(elements, "_axis_table", merged)
    fam = family(name, k)
    got = check_unisolvence(fam)
    assert got == dense_unisolvence(fam)
    assert got["square"] and not got["nonsingular"]
    assert got["rank"] < got["local_dim"]


def test_family_validation():
    with pytest.raises(ValueError):
        family("u", 2)
    with pytest.raises(ValueError):
        family("gamma", 1)
    with pytest.raises(ValueError):
        family("nonsense", 3)


def test_shape_space_structure():
    sig = shape_space(family("sigma", 3))
    assert sig.kind == "matrix" and sig.symmetric and not sig.traceless
    xi = shape_space(family("xi", 3))
    assert xi.kind == "matrix" and xi.traceless and not xi.symmetric
    diag = xi.group_of("zz")
    assert diag.components == ("xx", "yy", "zz")
    assert diag.independent == ("xx", "yy")
    q = shape_space(family("q", 3))
    assert q.kind == "vector"
    # anisotropic caps: q_x is capped at k-2 along x, k-1 across
    assert q.degrees["x"].caps == (1, 2, 2)


def test_phi_is_one_order_above_sigma():
    assert shape_space(family("phi", 2)).degrees == shape_space(family("sigma", 3)).degrees
    assert (shape_space(family("phi", 2)).local_dimension()
            == shape_space(family("sigma", 3)).local_dimension() == 204)


def test_reduced_families_share_shape_spaces():
    for name in ("sigma", "xi", "q", "gamma", "z"):
        k = min_order(name)
        assert (shape_space(family(name, k)).degrees
                == shape_space(family(name + "-red", k)).degrees)


def test_sigma_trace_gaps_and_the_reduction():
    # sigma_xx carries no DOFs on x-normal faces in either variant; that is
    # why its trace there may jump (the documented negative control).
    for name in ("sigma", "sigma-red"):
        dofs = local_dofs(family(name, 4))
        on_x_faces = {d.component for d in dofs
                      if d.entity_label[0] == "face" and d.entity_label[1] == 0}
        assert "xx" not in on_x_faces
    # the reduction itself: full sigma pairs face values of sigma_xx with
    # normal-derivative moments, the reduced variant keeps values only
    full = {d.deriv for d in local_dofs(family("sigma", 4))
            if d.entity_label[:2] == ("face", 2) and d.component == "xx"}
    red = {d.deriv for d in local_dofs(family("sigma-red", 4))
           if d.entity_label[:2] == ("face", 2) and d.component == "xx"}
    assert full == {(0, 0, 0), (0, 0, 1)}
    assert red == {(0, 0, 0)}


@pytest.mark.parametrize("k,dim", [(3, 8), (4, 40), (5, 108)])
def test_bubble_dimension(k, dim):
    basis = bubble_basis_divT(k)
    assert len(basis.triples) == dim
    assert 2 * (k - 2) ** 2 * (k + 1) == dim


def test_bubble_constraints_exactly():
    basis = bubble_basis_divT(3)
    for xx, yy, zz in basis.triples:
        assert (xx + yy + zz).is_zero()
        for axis, comp in ((0, xx), (1, yy), (2, zz)):
            for side in (0, 1):
                lo = list(UNIT_BOX.lo)
                hi = list(UNIT_BOX.hi)
                (lo if side == 0 else hi)[axis] = side
                (hi if side == 0 else lo)[axis] = side
                face = EntityRef("face", type(UNIT_BOX)(tuple(map(F, lo)),
                                                        tuple(map(F, hi))))
                assert comp.trace(face).is_zero()


def _unit_face(axis, side):
    lo, hi = list(UNIT_BOX.lo), list(UNIT_BOX.hi)
    lo[axis] = hi[axis] = F(side)
    return EntityRef("face", type(UNIT_BOX)(tuple(lo), tuple(hi)))


def oracle_bubble_basis(k):
    """The bubble basis from its definition: unknowns are the xx then yy
    coefficients on Q_{k-1}^3 (zz = -(xx + yy)), one constraint per face
    trace coefficient, taken by ``TensorPoly.trace``, and the nullspace read
    from a plain Fraction Gauss-Jordan reduced echelon form: per free
    column, 1 there and minus that column's entry of each pivot row."""
    exps = list(Degree3(k - 1, k - 1, k - 1).exponents())
    n = len(exps)
    rows = {}
    for j in range(2 * n):
        mono = TensorPoly.monomial(exps[j % n])
        for axis, comp in ((0, mono if j < n else None),
                           (1, None if j < n else mono), (2, -mono)):
            for side in (0, 1):
                if comp is not None:
                    for e, v in comp.trace(_unit_face(axis, side)).terms():
                        rows.setdefault((axis, side, e), [F(0)] * (2 * n))[j] = v
    mat = list(rows.values())
    pivots = []
    for col in range(2 * n):
        t = len(pivots)
        p = next((i for i in range(t, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        mat[t], mat[p] = mat[p], mat[t]
        mat[t] = [v / mat[t][col] for v in mat[t]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != t and f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[t])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(2 * n) if c not in pivots):
        vec = [F(0)] * (2 * n)
        vec[fc] = F(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


@pytest.mark.parametrize("k", [3, 4, 5])
def test_bubble_basis_is_the_reduced_echelon_nullspace(k):
    # the reduced echelon form is unique, so the basis is too: the integer
    # elimination must reproduce the Fraction one entry for entry
    n = k ** 3
    want = [(vec[:n], vec[n:]) for vec in oracle_bubble_basis(k)]
    got = [(list(xx.coeffs), list(yy.coeffs))
           for xx, yy, _zz in bubble_basis_divT(k).triples]
    assert got == want


def test_xired_diagonal_count_identity():
    # vertex/edge/face/coupled-cell DOFs of the diagonal tie out to 2k^3
    for k in range(3, 7):
        counted = 16 + 24 * (k - 2) + 6 * (k - 2) ** 2 + 2 * (k - 2) ** 2 * (k + 1)
        assert counted == 2 * k ** 3
    dofs = local_dofs(family("xi-red", 3))
    diag = [d for d in dofs if d.component in ("xx", "yy", "zz") or d.kind == "coupled"]
    assert len(diag) == 2 * 27


# an anisotropic cell away from the origin: every h differs from 1 and
# from the others, so a lost h^-d, side or fold shows in some entry
_ANISO = box(F(1, 3), F(5, 6), F(-2, 5), F(3, 5), F(7, 4), F(2))

_FULL_CASES = ([(name, min_order(name)) for name in FAMILY_NAMES]
               + [(name, min_order(name) + 1) for name in ("u", "sigma", "xi", "q")])


@pytest.mark.parametrize("name,k", _FULL_CASES)
def test_dof_matrix_matches_apply_dof(name, k):
    """D(h) c equals every DOF applied to the field with coordinates c."""
    fam = family(name, k)
    spec = shape_space(fam)
    bubbles = bubble_basis_divT(k) if name == "xi-red" else None
    bound = local_dofs(fam, _ANISO)
    by_group = {g: [bound[p] for p in positions]
                for g, positions in _group_positions(fam).items()}
    for seed in (1, 2):
        rng = random.Random(seed)
        coords = [F(rng.randint(-5, 5)) for _ in range(spec.local_dimension())]
        field = {}
        off = 0
        for g in spec.groups:
            for comp in g.independent:
                n = spec.degrees[comp].dim()
                field[comp] = TensorPoly(spec.degrees[comp], coords[off:off + n],
                                         _ANISO)
                off += n
        if spec.traceless:
            field["zz"] = -(field["xx"] + field["yy"])
        off = 0
        for g in spec.groups:
            width = len(spec.group_coords(g))
            c = coords[off:off + width]
            off += width
            mat = group_dof_matrix(fam, g.name, _ANISO)
            assert len(mat) == len(by_group[g.name])
            for row, dof in zip(mat, by_group[g.name]):
                got = sum((v * x for v, x in zip(row, c)), F(0))
                assert got == apply_dof(dof, field, spec, bubbles), (
                    name, k, seed, dof.entity_label, dof.component, dof.deriv)


def test_local_dofs_is_a_fresh_list_each_call():
    fam = family("sigma", 3)
    first = local_dofs(fam)
    want = list(first)
    first.reverse()
    first.pop()
    assert local_dofs(fam) == want


def test_local_dofs_on_a_cell_keeps_the_unit_catalog():
    def tags(dofs):
        return [(d.entity_label, d.component, d.deriv, d.weight, d.kind,
                 d.bubble_index) for d in dofs]

    for name in ("x", "xi-red"):
        fam = family(name, min_order(name))
        bound = local_dofs(fam, _ANISO)
        assert tags(bound) == tags(local_dofs(fam))
        assert all(d.entity == entity_ref_for(d.entity_label, _ANISO)
                   for d in bound)


@pytest.mark.parametrize("cell", [UNIT_BOX, _ANISO], ids=["unit", "aniso"])
def test_local_dofs_bind_one_entity_per_label(cell):
    for name in FAMILY_NAMES:
        shared = {}
        for d in local_dofs(family(name, min_order(name)), cell):
            assert d.entity == entity_ref_for(d.entity_label, cell)
            assert shared.setdefault(d.entity_label, d.entity) is d.entity, (
                name, d.entity_label)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_rebound_dofs_keep_the_unit_functionals(name):
    """The 1-D functionals come from the entity label, so rebinding to a
    cell whose lower corner is off the origin on every axis keeps them.

    On the unit cell a frozen axis sits at the coordinate of its side, so
    there the extent is the oracle for the sides.
    """
    fam = family(name, min_order(name))
    unit = local_dofs(fam)
    funcs = [axis_functionals(d) for d in unit]
    for d, f in zip(unit, funcs):
        ext = d.entity.extent
        assert [side for _d, _w, side in f] == [
            None if ext.lo[a] < ext.hi[a] else int(ext.lo[a]) for a in range(3)]
    assert [axis_functionals(d) for d in local_dofs(fam, _ANISO)] == funcs


def test_global_dimension_formula_spot_values():
    counts = (27, 54, 36, 8)  # the 2x2x2 mesh
    values = {
        "u": (3, 216), "sigma": (3, 882), "xi": (3, 970), "q": (3, 300),
        "x": (2, 540), "phi": (2, 882), "gamma": (2, 588), "z": (2, 240),
    }
    for name, (k, want) in values.items():
        assert global_dimension_formula(family(name, k), counts) == want
    assert 4 - 216 + 882 - 970 + 300 == 0
    assert 6 - 540 + 882 - 588 + 240 == 0


def test_dofs_sorted_and_deduplicated():
    fam = family("gamma", 2)
    dofs = local_dofs(fam)
    keys = [d.sort_key() for d in dofs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
