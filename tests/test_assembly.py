"""Global spaces: entity-identified DOFs, operators, reconstruction, IO."""

import random
from fractions import Fraction

import pytest

import cuboid_complex
from cuboid_complex import _exactcore
from cuboid_complex.assembly import (
    COMPLEXES, SparseMatrix, _dof_matrix,
    _operator_coord_matrix, _reconstructor, assemble_space, frac_mul,
    interpolate, local_operator_block, operator_matrix, read_matrix_market,
    reconstruct_local, write_matrix_market,
)
from cuboid_complex.elements import FAMILY_NAMES, family, min_order
from cuboid_complex.mesh import build_box_mesh, uniform_unit_mesh
from cuboid_complex.polytensor import CellBox, TensorPoly
from cuboid_complex.verify import exact_rank

F = Fraction


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
    # both cells reference the shared middle wall's vertex DOFs
    owners = [set(cells) for cells in space.dof_cells]
    assert any(o == {0, 1} for o in owners)


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
    for lin in ({(0, 0, 0): F(1)}, {(1, 0, 0): F(1)}, {(0, 1, 0): F(1)},
                {(0, 0, 1): F(1)}):
        vec = interpolate(u, lambda ci, box: {
            "s": TensorPoly.from_terms(
                {e: v * (box.h(0) if e == (1, 0, 0) else
                         box.h(1) if e == (0, 1, 0) else
                         box.h(2) if e == (0, 0, 1) else 1)
                 for e, v in lin.items()}, cell=box)})
        assert all(v == 0 for v in a.matvec(vec))


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
    a = SparseMatrix(2, 2, [{0: F(1, 2)}, {1: F(1, 3)}])
    rows, dens = _exactcore.clear_denominators(a.rows, common=True)
    assert dens == [6, 6]
    assert rows == [{0: 3}, {1: 2}]
    # per-row clearing would lose the relative scale between rows
    per_row, dens = _exactcore.clear_denominators(a.rows)
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
    m = SparseMatrix(2, 3, [{0: F(1, 3)}, {2: F(-7, 2)}])
    path = str(tmp_path / "m.mtx")
    write_matrix_market(path, m, float_mode=True)
    back = read_matrix_market(path)
    assert back.nrows == 2 and back.ncols == 3
    vals = {(i, j): v for i, j, v in back.entries()}
    assert abs(float(vals[(0, 0)]) - 1 / 3) < 1e-15
    assert float(vals[(1, 2)]) == -3.5


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
    built by the same builders directly on a cell of shape h."""
    rng = random.Random(f"{src}-{op}-{dst}-{k}")
    h = tuple(rng.sample(_SIDES, 3))
    cell = CellBox((F(0), F(0), F(0)), h)
    s, d = family(src, k), family(dst, k)
    direct = frac_mul(_dof_matrix(d, cell),
                      frac_mul(_operator_coord_matrix(op, s, d, cell),
                               _reconstructor(s, cell)))
    assert local_operator_block(op, s, d, h) == direct


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
