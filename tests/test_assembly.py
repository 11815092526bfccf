"""Global spaces: entity-identified DOFs, operators, reconstruction, IO."""

import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

import cuboid_complex
from cuboid_complex import _exactcore, assembly
from cuboid_complex.assembly import (
    COMPLEXES, ConformityError, SparseMatrix, _dof_factors, _dof_scales,
    _operator_rows, _reference_block,
    assemble_space, interpolate, local_operator_block, operator_matrix,
    read_matrix_market, reconstruct_local, write_matrix_market,
)
from cuboid_complex.elements import (FAMILY_NAMES, _COMP_POS, FamilyId,
                                     _bubbles_for, _group_positions, apply_dof,
                                     family, group_dof_matrix, group_forms,
                                     local_dofs, min_order, shape_space)
from cuboid_complex.mesh import build_box_mesh, uniform_unit_mesh
from cuboid_complex.operators import (OPERATORS, MembershipError,
                                      coordinate_field, field_coords,
                                      field_to_coords)
from cuboid_complex.polytensor import (AXIS_NAMES, UNIT_BOX, CellBox, Degree3,
                                       TensorPoly)
from cuboid_complex.verify import _as_columns, composition_is_zero, exact_rank

F = Fraction


# ---------------------------------------------------------------------------
# the polynomial-calculus oracle: the operator applied to one monomial
# coordinate field at a time, and dense products through the integer kernel


def frac_mul(a, b):
    """Exact product of dense rational matrices via the integer kernel."""
    ia, da = _exactcore.clear_denominators(a)
    ib, db = _exactcore.clear_denominators(b, common=True)
    prod = _exactcore.imat_mul(ia, ib)
    return [[F(v, d * db[0]) for v in row] for row, d in zip(prod, da)]


def sparse_mul(a, b):
    """Exact product of sparse rational rows via the integer kernel."""
    ia, da = _exactcore.clear_denominators(a)
    ib, db = _exactcore.clear_denominators(b, common=True)
    return [{j: F(v, d * db[0]) for j, v in row.items()}
            for row, d in zip(_exactcore.spmul(ia, ib), da)]


def operator_coord_matrix(op, src, dst, cell):
    """The operator in monomial coordinates on ``cell``, column by column."""
    dst_spec = shape_space(dst)
    src_spec = shape_space(src)
    cols = [field_to_coords(OPERATORS[op](coordinate_field(src_spec, c, e, cell)),
                            dst_spec)
            for c, e in field_coords(src_spec)]
    return [list(row) for row in zip(*cols)]


def _group_layout(fam: FamilyId):
    """Per component group: its name, the catalog positions of its DOFs and
    the offset of its monomial coordinates."""
    spec = shape_space(fam)
    off = 0
    for g, positions in zip(spec.groups, _group_positions(fam).values()):
        yield g.name, positions, off
        off += len(spec.group_coords(g))


def _dof_matrix(fam: FamilyId, cell: CellBox) -> list[dict[int, Fraction]]:
    """DOFs (catalog order) by monomial coordinates, from the group blocks,
    as sparse rows."""
    D: list[dict[int, Fraction]] = [{} for _ in local_dofs(fam)]
    for gname, positions, off in _group_layout(fam):
        for p, row in zip(positions, group_dof_matrix(fam, gname, cell)):
            D[p] = {off + j: v for j, v in enumerate(row) if v}
    return D


def _reconstructor(fam: FamilyId, cell: CellBox) -> list[dict[int, Fraction]]:
    """Monomial coordinates by DOF values, as sparse rows: the exact inverse
    of the DOF matrix, taken group block by group block."""
    R: list[dict[int, Fraction]] = [
        {} for _ in range(shape_space(fam).local_dimension())]
    for gname, positions, off in _group_layout(fam):
        mat = group_dof_matrix(fam, gname, cell)
        if len(mat) != len(mat[0]):
            raise AssertionError(
                f"{fam.name} k={fam.k} group {gname}: DOF matrix "
                f"{len(mat)}x{len(mat[0])} is not square")
        # mat = diag(1 / dens) @ imat, so mat^-1 = imat^-1 @ diag(dens)
        imat, dens = _exactcore.clear_denominators(mat)
        inv, inv_den = _exactcore.fj_inverse(imat)
        for a, row in enumerate(inv):
            for p, v, d in zip(positions, row, dens):
                if v:
                    R[off + a][p] = Fraction(v * d, inv_den)
    return R


def dof_scale(dof, h):
    """Physical/reference DOF ratio: entity measure over derivative factors."""
    s = F(1)
    for a in dof.entity.free_axes:
        s *= h[a]
    for a in range(3):
        if dof.deriv[a]:
            s /= h[a] ** dof.deriv[a]
    return s


def component_weight(fam, comp, h):
    """Weight ``w`` of one component on a cell of shape ``h``, by the table
    of the assembly module docstring."""
    base = fam.name.removesuffix("-red")
    H = h[0] * h[1] * h[2]
    if base == "u":
        return F(1)
    if comp == "diag":
        return H
    a, b = AXIS_NAMES.index(comp[0]), AXIS_NAMES.index(comp[-1])
    if base == "x":
        return h[a]
    if base in ("sigma", "phi"):
        return h[a] * h[b]
    if base == "xi":
        return h[a] * H / h[b]
    if base == "q":
        return h[a] * H
    if base == "gamma":
        return H * H / (h[a] * h[b])
    if base == "z":
        return H * H / h[a]
    raise ValueError(fam.name)


def rational(rows, den):
    """Integer rows over ``den`` as sparse rational rows."""
    return [{j: F(v, den) for j, v in row.items()} for row in rows]


def dense(rows, ncols):
    out = [[F(0)] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i][j] = v
    return out


def test_unit_cell_dimensions_match_local():
    mesh = uniform_unit_mesh(1, 1, 1)
    for name in FAMILY_NAMES:
        fam = family(name, min_order(name))
        space = assemble_space(fam, mesh)
        assert space.dimension == len(space.ref_dofs)


def test_spec_spot_dimensions():
    mesh = uniform_unit_mesh(1, 1, 1)
    assert assemble_space(family("xi-red", 3), mesh).dimension == 54 + 144
    assert assemble_space(family("gamma", 2), mesh).dimension == 24 + 72 + 6


def test_shared_entity_dofs_are_identified():
    mesh = uniform_unit_mesh(2, 1, 1)
    space = assemble_space(family("u", 3), mesh)
    # 12 vertices at 8 DOFs each on a mesh with no free edge/face slots at k=3
    assert space.dimension == 96
    # both cells reference the shared middle wall's 4 vertices, 8 DOFs each
    assert len(set(space.cell_maps[0]) & set(space.cell_maps[1])) == 32


@pytest.mark.parametrize("name,k,shape", [
    ("u", 3, (2, 1, 1)),
    ("sigma", 3, (2, 1, 1)),
    ("xi-red", 3, (2, 1, 1)),      # exercises the coupled bubble DOFs
    ("gamma", 2, (2, 2, 1)),
    ("z-red", 2, (2, 1, 1)),
])
def test_reconstruct_interpolate_round_trip(name, k, shape):
    """Coefficients -> local fields -> DOF evaluation -> same coefficients."""
    mesh = uniform_unit_mesh(*shape)
    space = assemble_space(family(name, k), mesh)
    rng = random.Random(42)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(space.dimension)]
    local = {ci: reconstruct_local(space, ci, coeffs)
             for ci in range(mesh.num_cells)}
    back = interpolate(space, lambda ci, box: local[ci].comps)
    assert back == coeffs


def test_operator_matrix_shapes_and_kernel_columns():
    mesh = uniform_unit_mesh(1, 1, 1)
    u = assemble_space(family("u", 3), mesh)
    sigma = assemble_space(family("sigma", 3), mesh)
    a = operator_matrix("gradgrad", u, sigma)
    assert (a.nrows, a.ncols) == (204, 64)
    # interpolants of affine functions are annihilated column-combinations
    vecs = []
    for lin in ({(0, 0, 0): F(1)}, {(1, 0, 0): F(1)}, {(0, 1, 0): F(1)},
                {(0, 0, 1): F(1)}):
        vecs.append(interpolate(u, lambda ci, box: {
            "s": TensorPoly.from_terms(
                {e: v * (box.h(0) if e == (1, 0, 0) else
                         box.h(1) if e == (0, 1, 0) else
                         box.h(2) if e == (0, 0, 1) else 1)
                 for e, v in lin.items()}, cell=box)}))
    columns = _as_columns(vecs, u.dimension)
    assert columns.nnz > 0
    assert composition_is_zero(a, columns)


def test_div_matrix_rank_on_unit_cell():
    mesh = uniform_unit_mesh(1, 1, 1)
    xi = assemble_space(family("xi", 3), mesh)
    q = assemble_space(family("q", 3), mesh)
    d = operator_matrix("div", xi, q)
    assert (d.nrows, d.ncols) == (54, 198)
    assert exact_rank(d) == 54


def test_operator_matrix_rejects_unsanctioned_edges():
    mesh = uniform_unit_mesh(1, 1, 1)
    u = assemble_space(family("u", 3), mesh)
    z = assemble_space(family("z", 2), mesh)
    with pytest.raises((KeyError, ValueError, AssertionError)):
        operator_matrix("div", u, z)


def test_assembly_on_nonuniform_breakpoints():
    mesh = build_box_mesh([0, F(1, 3), 1], [0, F(1, 2)], [0, F(2, 5)])
    space = assemble_space(family("q", 3), mesh)
    rng = random.Random(7)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(space.dimension)]
    local = {ci: reconstruct_local(space, ci, coeffs)
             for ci in range(mesh.num_cells)}
    assert interpolate(space, lambda ci, box: local[ci].comps) == coeffs


def test_clear_denominators_dense_rows():
    rows = [[F(1, 2), F(0)], [F(1, 3), F(5)]]
    ints, dens = _exactcore.clear_denominators(rows, common=True)
    assert dens == [6, 6]
    assert ints == [[3, 0], [2, 30]]
    ints, dens = _exactcore.clear_denominators(rows)
    assert dens == [2, 3]
    assert ints == [[1, 0], [1, 15]]


def test_clear_denominators_common_is_product_safe():
    a = [{0: F(1, 2)}, {1: F(1, 3)}]
    rows, dens = _exactcore.clear_denominators(a, common=True)
    assert dens == [6, 6]
    assert rows == [{0: 3}, {1: 2}]
    m = SparseMatrix.from_rational(2, 2, a)
    assert (m.rows, m.den) == (rows, 6)
    # per-row clearing would lose the relative scale between rows
    per_row, dens = _exactcore.clear_denominators(a)
    assert per_row == [{0: 1}, {1: 1}]
    assert dens == [2, 3]
    # dict rows drop zero entries
    assert _exactcore.clear_denominators([{0: F(0), 2: F(3, 4)}])[0] == [{2: 3}]


def test_frac_mul_exact():
    a = [[F(1, 2), F(1, 3)], [F(0), F(2)]]
    b = [[F(3), F(0)], [F(1, 2), F(1, 7)]]
    got = frac_mul(a, b)
    assert got == [[F(5, 3), F(1, 21)], [F(1), F(2, 7)]]


def test_matrix_market_round_trip(tmp_path):
    mesh = uniform_unit_mesh(1, 1, 1)
    xi = assemble_space(family("xi", 3), mesh)
    q = assemble_space(family("q", 3), mesh)
    d = operator_matrix("div", xi, q)
    path = str(tmp_path / "div.mtx")
    write_matrix_market(path, d, comment="div on the unit cell")
    back = read_matrix_market(path)
    assert (back.nrows, back.ncols, back.nnz) == (d.nrows, d.ncols, d.nnz)
    assert list(back.entries()) == list(d.entries())
    with open(path) as fh:
        header = fh.readline()
    assert "coordinate rational" in header


def test_matrix_market_float_mode(tmp_path):
    m = SparseMatrix.from_rational(2, 3, [{0: F(1, 3)}, {2: F(-7, 2)}])
    path = str(tmp_path / "m.mtx")
    write_matrix_market(path, m, float_mode=True)
    back = read_matrix_market(path)
    assert back.nrows == 2 and back.ncols == 3
    vals = {(i, j): v for i, j, v in back.entries()}
    assert abs(float(vals[(0, 0)]) - 1 / 3) < 1e-15
    assert float(vals[(1, 2)]) == -3.5


@pytest.mark.parametrize("entries,message", [
    (["0 1 1/2"], r"line 5: entry \(0, 1\) is outside the 2x3 matrix"),
    (["2 4 1/2"], r"line 5: entry \(2, 4\) is outside the 2x3 matrix"),
    (["3 1 1/2"], r"line 5: entry \(3, 1\) is outside the 2x3 matrix"),
    (["1 2 1/2", "1 2 3"], r"line 6: entry \(1, 2\) repeats"),
], ids=["row-zero", "column-past-ncols", "row-past-nrows", "duplicate"])
def test_matrix_market_refuses_a_bad_entry(tmp_path, entries, message):
    # a 0 row index used to land in the last row, a column past ncols was
    # stored, a row past nrows raised IndexError and a repeat overwrote
    path = tmp_path / "bad.mtx"
    path.write_text("\n".join(
        ["%%MatrixMarket matrix coordinate rational general", "% comment",
         "%", f"2 3 {len(entries)}", *entries]) + "\n")
    with pytest.raises(ValueError, match=message):
        read_matrix_market(str(path))


@pytest.mark.parametrize("text,message", [
    ("", "empty file, no MatrixMarket header line"),
    ("%%MatrixMarket matrix coordinate rational general\n",
     "no size line after the MatrixMarket header"),
    ("%%MatrixMarket matrix coordinate rational general\n% comment\n%\n",
     "no size line after the MatrixMarket header"),
], ids=["empty", "header-only", "comments-only"])
def test_matrix_market_refuses_a_truncated_file(tmp_path, text, message):
    # each used to raise a bare StopIteration
    path = tmp_path / "short.mtx"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_matrix_market(str(path))


@pytest.mark.parametrize("header,lines,named", [
    # the two 2x2 files that loaded wrongly: the symmetric one as its lower
    # triangle, without the mirrored (1, 2), and the pattern one failed on
    # an unpack of its value-less entries
    ("coordinate real symmetric", ["2 2 2", "1 1 1.5", "2 1 -2"],
     "symmetric"),
    ("coordinate pattern general", ["2 2 2", "1 1", "2 1"], "pattern"),
    ("coordinate real skew-symmetric", ["2 2 1", "2 1 3"], "skew-symmetric"),
    ("coordinate complex hermitian", ["2 2 1", "1 1 1 0"],
     "complex hermitian"),
    ("coordinate complex general", ["2 2 1", "1 1 1 2"], "complex"),
    ("array real general", ["2 2", "1", "0", "0", "1"], "array"),
], ids=["symmetric", "pattern", "skew-symmetric", "hermitian", "complex",
        "array"])
def test_matrix_market_refuses_an_unsupported_qualifier(tmp_path, header,
                                                        lines, named):
    path = tmp_path / "unsupported.mtx"
    path.write_text("\n".join([f"%%MatrixMarket matrix {header}", *lines])
                    + "\n")
    with pytest.raises(ValueError, match=f"^MatrixMarket {named} matrices "
                                         f"are not supported"):
        read_matrix_market(str(path))


def test_conformity_audit_passes_on_every_edge():
    mesh = uniform_unit_mesh(2, 1, 1)
    edges = [
        ("u", "gradgrad", "sigma", 3), ("sigma", "curl", "xi", 3),
        ("xi", "div", "q", 3),
        ("u", "gradgrad", "sigma-red", 3), ("sigma-red", "curl", "xi-red", 3),
        ("xi-red", "div", "q-red", 3),
        ("x", "symgrad", "phi", 2), ("phi", "curlcurlt", "gamma", 2),
        ("gamma", "div", "z", 2),
        ("phi", "curlcurlt", "gamma-red", 2), ("gamma-red", "div", "z-red", 2),
    ]
    for src, op, dst, k in edges:
        a = operator_matrix(op, assemble_space(family(src, k), mesh),
                            assemble_space(family(dst, k), mesh))
        assert a.nrows > 0 and a.ncols > 0


def _ladder_edges():
    return sorted({(fams[i], op, fams[i + 1])
                   for fams, ops, _kd, _min_k in COMPLEXES.values()
                   for i, op in enumerate(ops)})


_SCALING_CASES = (
    [(src, op, dst, min_order(src)) for src, op, dst in _ladder_edges()]
    + [(src, op, dst, min_order(src) + 1) for src, op, dst in _ladder_edges()
       if src in COMPLEXES["gradgrad"][0] and dst in COMPLEXES["gradgrad"][0]])


# distinct sides other than 1, so a weight on the wrong axis shows
_SIDES = sorted({F(p, q) for p in range(1, 10) for q in range(1, 10)} - {1})


@pytest.mark.parametrize("src,op,dst,k", _SCALING_CASES)
def test_scaled_block_equals_direct_block(src, op, dst, k):
    """K(h) = diag(a_dst) K(1) diag(1/a_src) matches D_dst(h) O(h) R_src(h),
    with D and R built directly on a cell of shape h and O by polynomial
    calculus on that cell, compared as dense matrices."""
    rng = random.Random(f"{src}-{op}-{dst}-{k}")
    h = tuple(rng.sample(_SIDES, 3))
    cell = CellBox((F(0), F(0), F(0)), h)
    s, d = family(src, k), family(dst, k)
    nsrc = len(local_dofs(s))
    direct = frac_mul(dense(_dof_matrix(d, cell),
                            shape_space(d).local_dimension()),
                      frac_mul(operator_coord_matrix(op, s, d, cell),
                               dense(_reconstructor(s, cell), nsrc)))
    rows, den = local_operator_block(op, s, d, h)
    assert den > 0
    assert dense(rational(rows, den), nsrc) == direct


@pytest.mark.parametrize("src,op,dst,k", (
    [(src, op, dst, min_order(src)) for src, op, dst in _ladder_edges()]
    + [(src, op, dst, min_order(src) + 1) for src, op, dst in _ladder_edges()]))
def test_operator_rows_equal_polynomial_calculus(src, op, dst, k):
    """O(1) from the stencil equals the operator applied by polynomial
    calculus to every monomial coordinate field, entry for entry."""
    s, d = family(src, k), family(dst, k)
    ncols = shape_space(s).local_dimension()
    assert (dense(_operator_rows(op, s, d), ncols)
            == operator_coord_matrix(op, s, d, UNIT_BOX))


@pytest.mark.parametrize("src,op,dst,k", (
    [(src, op, dst, min_order(src)) for src, op, dst in _ladder_edges()]
    + [(src, op, dst, min_order(src) + 1) for src, op, dst in _ladder_edges()]))
def test_factored_block_equals_dense_pipeline(src, op, dst, k):
    """K(1) from the 1-D factor tables equals D(1) O(1) R(1) with D from
    group_dof_matrix and R from fj_inverse of every group block, entry for
    entry; the gradgrad-reduced edges mix product and exception groups."""
    s, d = family(src, k), family(dst, k)
    oracle = sparse_mul(
        _dof_matrix(d, UNIT_BOX),
        sparse_mul(_operator_rows(op, s, d), _reconstructor(s, UNIT_BOX)))
    rows, den = _reference_block(op, s, d)
    assert den > 0
    assert rational(rows, den) == oracle


_GRADED_3X2X4 = build_box_mesh([0, F(2, 7), F(1, 2), 1], [0, F(3, 5), 1],
                               [0, F(1, 4), F(2, 3), F(5, 6), 1])


def _graded_mesh(seed):
    """A 2x2x1 mesh with seeded x and y breakpoints and distinct widths on
    each axis, so each of its four cells has its own shape."""
    rng = random.Random(seed)
    mids = sorted({F(p, q) for q in range(2, 8) for p in range(1, q)} - {F(1, 2)})
    return build_box_mesh([0, rng.choice(mids), 1], [0, rng.choice(mids), 1],
                          [0, 1])


@pytest.mark.parametrize("src,op,dst", _ladder_edges())
def test_operator_matrix_equals_rational_scatter(src, op, dst):
    """The integer operator matrix over its denominator equals the scatter
    of the Fraction blocks D(h) O(h) R(h), built on each cell by the
    oracle, in pattern and in every value, on a uniform and a graded mesh."""
    k = min_order(src)
    s, d = family(src, k), family(dst, k)
    for mesh in (uniform_unit_mesh(2, 1, 1), _graded_mesh(20260818)):
        sspace, dspace = assemble_space(s, mesh), assemble_space(d, mesh)
        A = operator_matrix(op, sspace, dspace)
        assert A.den > 0
        assert all(type(v) is int and v for row in A.rows for v in row.values())
        want = {}
        for ci in range(mesh.num_cells):
            cell = mesh.cell_box(ci)
            O = [{j: v for j, v in enumerate(row) if v}
                 for row in operator_coord_matrix(op, s, d, cell)]
            block = sparse_mul(_dof_matrix(d, cell),
                               sparse_mul(O, _reconstructor(s, cell)))
            for i, row in enumerate(block):
                gi = dspace.cell_maps[ci][i]
                for j, v in row.items():
                    key = (gi, sspace.cell_maps[ci][j])
                    assert want.setdefault(key, v) == v
        assert {(i, j): F(v, A.den) for i, row in enumerate(A.rows)
                for j, v in row.items()} == want


_ANISO_MESH = build_box_mesh([F(1, 2), F(5, 6)], [0, F(7, 4)], [-1, F(-3, 5)])


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_reconstruct_local_equals_dense_inverse(name):
    """reconstruct_local (three 1-D passes per product component) equals
    the dense inverse of the DOF matrix built on the cell, applied to the
    cell's DOF values, on two seeded coefficient vectors."""
    fam = family(name, min_order(name))
    space = assemble_space(fam, _ANISO_MESH)
    spec = shape_space(fam)
    R = _reconstructor(fam, _ANISO_MESH.cell_box(0))
    for seed in (1, 2):
        rng = random.Random(f"{name}-{seed}")
        coeffs = [F(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in range(space.dimension)]
        values = [coeffs[g] for g in space.cell_maps[0]]
        want = [sum((v * values[j] for j, v in row.items()), F(0))
                for row in R]
        got = field_to_coords(reconstruct_local(space, 0, coeffs), spec)
        assert got == want


@pytest.mark.parametrize("op,src,dst,message", [
    ("curl", family("sigma", 4), family("xi", 3), "outside degree grid"),
    ("curl", family("sigma", 3), family("sigma", 3), "asymmetric pair"),
    ("gradgrad", family("u", 3), family("xi", 3), "nonzero trace"),
])
def test_operator_rows_check_membership(op, src, dst, message):
    with pytest.raises(MembershipError, match=message):
        _operator_rows(op, src, dst)


def _tamper_one_shared_entry(monkeypatch, change):
    """Assemble gradgrad u -> sigma on a 2x1x1 mesh of two cell shapes after
    ``change(rows, den, i, j)`` has rewritten the first cell's integer block
    and returned its denominator; ``(i, j)`` is a nonzero entry whose row
    and column DOFs the second cell shares."""
    mesh = build_box_mesh([0, F(1, 3), 1], [0, 1], [0, 1])
    src = assemble_space(family("u", 3), mesh)
    dst = assemble_space(family("sigma", 3), mesh)
    h0 = tuple(mesh.cell_box(0).h(a) for a in range(3))
    assert h0 != tuple(mesh.cell_box(1).h(a) for a in range(3))
    real = assembly.local_operator_block
    block, _den = real("gradgrad", src.fam, dst.fam, h0)
    i, j = next((i, j) for i, row in enumerate(block) for j in row
                if dst.cell_maps[0][i] in dst.cell_maps[1]
                and src.cell_maps[0][j] in src.cell_maps[1])

    def tampered(op_name, s, d, h):
        rows, den = real(op_name, s, d, h)
        if h == h0:
            den = change(rows, den, i, j)
        return rows, den

    monkeypatch.setattr(assembly, "local_operator_block", tampered)
    operator_matrix("gradgrad", src, dst)


def test_conformity_audit_sees_cells_disagree(monkeypatch):
    def bump(rows, den, i, j):
        rows[i][j] += 1
        return den
    with pytest.raises(ConformityError, match="cells disagree"):
        _tamper_one_shared_entry(monkeypatch, bump)


def test_conformity_audit_sees_an_implicit_zero(monkeypatch):
    def drop(rows, den, i, j):
        del rows[i][j]
        return den
    with pytest.raises(ConformityError, match="zero/nonzero clash"):
        _tamper_one_shared_entry(monkeypatch, drop)


def test_conformity_audit_sees_a_block_over_another_denominator(monkeypatch):
    """The first shape's block over twice its denominator halves every
    value it gives, and the shared entries no longer agree."""
    def halve(rows, den, i, j):
        return 2 * den
    with pytest.raises(ConformityError, match="cells disagree"):
        _tamper_one_shared_entry(monkeypatch, halve)


def test_conformity_audit_sees_a_one_sided_contribution(monkeypatch):
    """A nonzero in the first cell's block at a target DOF both cells carry,
    from a source DOF only the first cell carries, is stored unopposed by
    the scatter; the audit finds the second cell without the source DOF."""
    mesh = build_box_mesh([0, F(1, 3), 1], [0, 1], [0, 1])
    src = assemble_space(family("u", 3), mesh)
    own = next(j for j, gj in enumerate(src.cell_maps[0])
               if gj not in src.cell_maps[1])

    def reach(rows, den, i, j):
        assert own not in rows[i]
        rows[i][own] = 1
        return den
    with pytest.raises(ConformityError, match="one-sided contribution"):
        _tamper_one_shared_entry(monkeypatch, reach)


def oracle_operator_matrix(op_name, src, dst):
    """The global matrix by scatter, then audit: every cell's block is
    scattered keeping the first value at each entry, then each cell that
    carries a target DOF must reproduce its whole stored row.  Returns
    ``(rows, den)``."""
    mesh = src.mesh
    shapes = [tuple(box.h(a) for a in range(3))
              for box in map(mesh.cell_box, range(mesh.num_cells))]
    by_shape = {h: local_operator_block(op_name, src.fam, dst.fam, h)
                for h in dict.fromkeys(shapes)}
    L = lcm(*(den for _rows, den in by_shape.values()))
    blocks = [[{j: v * (L // den) for j, v in row.items()} for row in K]
              for K, den in map(by_shape.__getitem__, shapes)]
    rows = [{} for _ in range(dst.dimension)]
    for ci, K in enumerate(blocks):
        smap = src.cell_maps[ci]
        for gi, krow in zip(dst.cell_maps[ci], K):
            for j, v in krow.items():
                rows[gi].setdefault(smap[j], v)
    for ci, K in enumerate(blocks):
        local_col = {gj: j for j, gj in enumerate(src.cell_maps[ci])}
        for gi, krow in zip(dst.cell_maps[ci], K):
            for gj, stored in rows[gi].items():
                assert krow.get(local_col.get(gj)) == stored, (ci, gi, gj)
    return rows, L


@pytest.mark.parametrize("src,op,dst", _ladder_edges())
def test_one_pass_audit_equals_scatter_then_audit(src, op, dst):
    k = min_order(src)
    s, d = family(src, k), family(dst, k)
    for mesh in (uniform_unit_mesh(2, 2, 2), _graded_mesh(20260818),
                 _GRADED_3X2X4):
        sspace, dspace = assemble_space(s, mesh), assemble_space(d, mesh)
        A = operator_matrix(op, sspace, dspace)
        assert (A.rows, A.den) == oracle_operator_matrix(op, sspace, dspace)


def _reference_cache_sizes():
    caches = {f"{mod.__name__}.{name}": fn
              for mod in (cuboid_complex.assembly, cuboid_complex.elements)
              for name, fn in vars(mod).items() if hasattr(fn, "cache_info")}
    assert "cuboid_complex.elements._unit_catalog" in caches
    return {name: fn.cache_info().currsize for name, fn in caches.items()}


def test_reference_caches_do_not_grow_with_cell_shapes():
    first = build_box_mesh([0, F(1, 3), 1], [0, F(2, 5), 1], [0, 1])
    second = build_box_mesh([0, F(1, 7), F(1, 2)], [0, F(3, 4)],
                            [0, F(1, 5), F(5, 4)])

    def shapes(mesh):
        return {tuple(mesh.cell_box(ci).h(a) for a in range(3))
                for ci in range(mesh.num_cells)}

    def curl(mesh):
        return operator_matrix("curl",
                               assemble_space(family("sigma-red", 3), mesh),
                               assemble_space(family("xi-red", 3), mesh))

    assert not shapes(first) & shapes(second)
    curl(first)
    after_first = _reference_cache_sizes()
    curl(second)
    assert _reference_cache_sizes() == after_first


def test_factor_tables_invert_each_distinct_table_once(monkeypatch):
    """Building the 13 families' factor tables at minimum order inverts
    each distinct square 1-D table, keyed by cap and functional list, once,
    plus ``M11`` and ``G`` of each coupled block: 7 inversions, where one
    per fibre and per family would be 206."""
    calls = []
    real = _exactcore.fj_inverse
    monkeypatch.setattr(_exactcore, "fj_inverse",
                        lambda mat: calls.append(len(mat)) or real(mat))
    assembly._factor_table.cache_clear()
    assembly._unit_tables.cache_clear()
    keys, coupled = set(), 0
    for name in FAMILY_NAMES:
        fam = family(name, min_order(name))
        assembly._factor_table(fam)
        for forms in group_forms(fam).values():
            for form in forms:
                if form.axes is None:
                    coupled += 2
                    continue
                caps = shape_space(fam).degrees[form.comps[0]].caps
                keys.update((caps[a], tuple(fl)) for a, lists
                            in enumerate(form.axes) for fl in lists)
    assert len(calls) <= len(keys) + coupled == 7


_MIN_AND_NEXT = [(name, min_order(name) + dk)
                 for name in FAMILY_NAMES for dk in (0, 1)]


@pytest.mark.parametrize("name,k", _MIN_AND_NEXT)
def test_dof_factors_equal_scale_over_weight(name, k):
    """The exponent table gives dof_scale and a = dof_scale / w exactly, at
    random sides."""
    fam = family(name, k)
    rng = random.Random(f"{name}-{k}")
    for _ in range(3):
        h = tuple(rng.sample(_SIDES, 3))
        dofs = local_dofs(fam)
        assert _dof_scales(fam, h) == [dof_scale(d, h) for d in dofs]
        assert _dof_factors(fam, h) == [
            dof_scale(d, h) / component_weight(fam, d.component, h)
            for d in dofs]


def _random_field(fam: FamilyId, box: CellBox, rng: random.Random) -> dict:
    """Every stored component of the family (zz too, on the traceless ones)
    at random degrees up to two above the shape space's caps, one of them
    missing and, on a symmetric family, xy given as yx."""
    spec = shape_space(fam)
    comps = sorted(spec.degrees)
    missing = rng.choice([c for c in comps if c not in ("xy", "zz")]
                         if len(comps) > 1 else [None])
    field = {}
    for comp in comps:
        if comp == missing:
            continue
        deg = Degree3(*(c + rng.randint(0, 2) for c in spec.degrees[comp].caps))
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(deg.dim())]
        key = "yx" if spec.symmetric and comp == "xy" else comp
        field[key] = TensorPoly(deg, coeffs, box)
    return field


@pytest.mark.parametrize("name,k", _MIN_AND_NEXT)
def test_interpolate_equals_apply_dof(name, k):
    """interpolate (1-D tables contracted with each component's
    coefficients) equals apply_dof (polynomial calculus) on every DOF, for
    a field outside the shape space, on the unit cell and on an anisotropic
    cell with nonzero lo."""
    fam = family(name, k)
    spec = shape_space(fam)
    for mesh in (uniform_unit_mesh(1, 1, 1), _ANISO_MESH):
        box = mesh.cell_box(0)
        space = assemble_space(fam, mesh)
        field = _random_field(fam, box, random.Random(f"{name}-{k}-{box}"))
        want = [F(0)] * space.dimension
        for dof, g in zip(local_dofs(fam, box), space.cell_maps[0]):
            want[g] = apply_dof(dof, field, spec, _bubbles_for(fam))
        assert interpolate(space, lambda ci, b: field) == want
        assert any(want)


def test_interpolate_rejects_a_multivalued_field():
    """Negative control: shifting one cell's yy by a constant breaks the
    agreement at the DOFs the two cells of sigma share."""
    mesh = uniform_unit_mesh(2, 1, 1)
    space = assemble_space(family("sigma", 3), mesh)
    rng = random.Random(11)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(space.dimension)]
    local = [reconstruct_local(space, ci, coeffs).comps for ci in range(2)]
    assert interpolate(space, lambda ci, box: local[ci]) == coeffs
    box1 = mesh.cell_box(1)
    shifted = dict(local[1], yy=local[1]["yy"] + TensorPoly(Degree3(0, 0, 0),
                                                            [1], box1))
    with pytest.raises(AssertionError, match="field is multivalued at DOF"):
        interpolate(space, lambda ci, box: shifted if ci else local[0])


def test_interpolate_rejects_a_component_off_its_cell():
    mesh = uniform_unit_mesh(2, 1, 1)
    space = assemble_space(family("u", 3), mesh)
    first = mesh.cell_box(0)
    with pytest.raises(ValueError, match="component s of the field on cell 1"):
        interpolate(space, lambda ci, box: {
            "s": TensorPoly(Degree3(1, 0, 0), [1, 2], first)})


# ---------------------------------------------------------------------------
# DOF numbering by entity offsets against the per-cell key oracle


_ENTITY_RANK = {"vertex": 0, "edge": 1, "face": 2, "cell": 3}


def _dof_sort_key(key) -> tuple:
    (kind, gid), comp, deriv, weight, _kind, bub = key
    return (_ENTITY_RANK[kind], gid, _COMP_POS[comp], deriv, weight, bub)


def oracle_numbering(fam, mesh):
    """Every cell's DOFs as key tuples (``dof_key`` of the global entity),
    the distinct keys sorted by (entity rank, id, component, deriv, weight,
    bubble index), and each cell's keys looked up in that order: the sorted
    ``keys`` and the ``cell_maps``."""
    ref = local_dofs(fam)
    per_cell = []
    for ci in range(mesh.num_cells):
        ids = mesh.cell_entity_ids(ci)
        per_cell.append([d.dof_key(ids[d.entity_label]) for d in ref])
    keys = sorted({k for cell in per_cell for k in cell}, key=_dof_sort_key)
    index = {k: i for i, k in enumerate(keys)}
    return keys, [[index[k] for k in cell] for cell in per_cell]


_NUMBERING_MESHES = (
    uniform_unit_mesh(1, 1, 1), uniform_unit_mesh(2, 2, 2),
    uniform_unit_mesh(4, 3, 3), _graded_mesh(3), _GRADED_3X2X4,
)


@pytest.mark.parametrize("name,k", _MIN_AND_NEXT)
def test_numbering_equals_the_sorted_keys(name, k):
    fam = family(name, k)
    for mesh in _NUMBERING_MESHES:
        keys, cell_maps = oracle_numbering(fam, mesh)
        space = assemble_space(fam, mesh)
        assert space.dimension == len(keys), mesh.shape
        assert space.cell_maps == cell_maps, mesh.shape


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_key_rebuilds_the_sorted_keys(name):
    mesh = uniform_unit_mesh(2, 2, 1)
    fam = family(name, min_order(name))
    keys, _cell_maps = oracle_numbering(fam, mesh)
    space = assemble_space(fam, mesh)
    assert [space.key(gi) for gi in range(space.dimension)] == keys


@pytest.mark.parametrize("name,label,cls", [
    ("u", ("vertex", (1, 0, 1)), "vertex"),
    ("sigma", ("edge", 1, (1, 0)), "edge along y"),
    ("z", ("face", 2, 1), "face normal to z"),
])
def test_numbering_refuses_labels_that_differ(monkeypatch, name, label, cls):
    """Negative control: a catalog in which one label lacks a DOF its
    sibling labels of the same class carry has no numbering by entity
    offsets, and assembly names the family and the class."""
    fam = family(name, min_order(name))
    real = assembly.local_dofs
    dofs = real(fam)
    dropped = next(p for p, d in enumerate(dofs) if d.entity_label == label)
    monkeypatch.setattr(assembly, "local_dofs", lambda f: (
        dofs[:dropped] + dofs[dropped + 1:] if f == fam else real(f)))
    with pytest.raises(AssertionError,
                       match=f"{name} k={fam.k}: the {cls} labels"):
        assemble_space(fam, uniform_unit_mesh(2, 1, 1))


#: tracemalloc bound, in MiB above the baseline at entry, on assembling the
#: four gradgrad k=3 spaces on a uniform 4x3x3 mesh (8,240 DOFs, 36 cells)
#: and keeping them.  Measured 0.40 MiB with the numbering by entity
#: offsets, against 1.68 MiB with a key tuple per DOF per cell, a set of
#: them and the sorted keys kept on the space
ASSEMBLE_SPACE_PEAK_MIB = 0.6


def test_assemble_space_memory_peak_on_gradgrad_4x3x3():
    fams = [family(name, 3) for name in COMPLEXES["gradgrad"][0]]
    mesh = uniform_unit_mesh(4, 3, 3)
    for fam in fams:
        local_dofs(fam)   # the unit catalog is cached once per family
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spaces = [assemble_space(fam, mesh) for fam in fams]
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    assert sum(s.dimension for s in spaces) == 8240
    assert peak <= ASSEMBLE_SPACE_PEAK_MIB, peak
