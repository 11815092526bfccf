"""Global space assembly and exact operator matrices.

A global space enumerates degrees of freedom over the mesh entities, with
every shared DOF identified once across adjacent cells.  The assembled
operator matrix of a differential map between two such spaces is built
from local blocks, one per cell shape ``h``:

    K(h) = D_dst(h)  @  O(h)  @  R_src(h)

where ``R_src`` reconstructs monomial coordinates from source DOF values
(the inverse DOF matrix), ``O`` applies the operator in monomial
coordinates, and ``D_dst`` evaluates the target DOFs.

Under the axis scaling ``x = lo + h t`` every family is affine-equivalent
to its unit-cell element, so the pipeline runs once per edge and order, on
the unit cell, and every cell shape follows from the exact identity

    K(h) = diag(a_dst(h))  @  K(1)  @  diag(1 / a_src(h)),
    a(dof, h) = dof_scale(dof, h) / w(family, dof.component, h).

``dof_scale`` is the measure of the DOF's entity times ``h^-deriv``, which
gives ``D(h) = diag(dof_scale) D(1)``.  The component weight ``w`` is what
one reference unit of a component is worth on the cell, which gives
``O(h) = diag(1 / w_dst) O(1) diag(w_src)``; down each ladder it is the
source weight times ``h`` of the differentiated axis.  With
``H = h_x h_y h_z``, for component ``a`` or ``ab``:

    =====================  ==============================================
    family                 weight of the component
    =====================  ==============================================
    u                      1
    x                      h_a
    sigma, sigma-red, phi  h_a h_b
    xi, xi-red             h_a H / h_b (so H on the whole diagonal group,
                           and H for the coupled DOFs)
    q, q-red               h_a H
    gamma, gamma-red       H^2 / (h_a h_b)
    z, z-red               H^2 / h_a
    =====================  ==============================================

The weight is constant on each component group, so it commutes with the
block-diagonal DOF matrices.  Only unit-cell blocks and reconstructors are
cached, one per edge or family and order; a reconstruction divides the
local DOF values by ``dof_scale`` and applies ``R(1)``.

Scattering asserts conformity instead of assuming it: a shared target DOF
must receive the identical value from every adjacent cell, including the
implicit zero from cells where the source basis function is not supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from . import _exactcore
from .elements import (DofFunctional, FamilyId, _COMP_POS, _bubbles_for,
                       apply_dof, group_dof_matrix, local_dofs,
                       shape_space)
from .mesh import ENTITY_RANK, CuboidMesh, _EDGE_SIDES, _VERTEX_CORNERS
from .operators import (OPERATORS, PolyField, coordinate_field, field_coords,
                        field_to_coords)
from .polytensor import AXIS_NAMES, UNIT_BOX, CellBox, TensorPoly

_F0 = Fraction(0)

#: complex name -> (families, operators, kernel dimension, minimum order)
COMPLEXES = {
    "gradgrad": (("u", "sigma", "xi", "q"),
                 ("gradgrad", "curl", "div"), 4, 3),
    "gradgrad-reduced": (("u", "sigma-red", "xi-red", "q-red"),
                         ("gradgrad", "curl", "div"), 4, 3),
    "elasticity": (("x", "phi", "gamma", "z"),
                   ("symgrad", "curlcurlt", "div"), 6, 2),
    "elasticity-reduced": (("x", "phi", "gamma-red", "z-red"),
                           ("symgrad", "curlcurlt", "div"), 6, 2),
}

#: the sanctioned (source family, operator, target family) edges
COMPLEX_EDGES = frozenset(
    (fams[i], op, fams[i + 1])
    for fams, ops, _kd, _min_k in COMPLEXES.values()
    for i, op in enumerate(ops))


def frac_mul(a: Sequence[Sequence[Fraction]],
             b: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact product of dense rational matrices via the integer kernel.

    Row ``i`` of the product is row ``i`` of ``a`` times ``b``, so ``a`` is
    cleared row by row and only ``b`` needs one common denominator.
    """
    ia, da = _exactcore.clear_denominators(a)
    ib, db = _exactcore.clear_denominators(b, common=True)
    prod = _exactcore.imat_mul(ia, ib)
    return [[Fraction(v, d * db[0]) if v else _F0 for v in row]
            for row, d in zip(prod, da)]


# ---------------------------------------------------------------------------
# global DOF enumeration


def _dof_sort_key(key) -> tuple:
    (kind, gid), comp, deriv, weight, _tag, bub = key
    return (ENTITY_RANK[kind], gid, _COMP_POS[comp], deriv, weight, bub)


def cell_entity_ids(mesh: CuboidMesh, ci: int) -> dict[tuple, tuple[str, int]]:
    """Map the cell-local entity labels onto global (kind, id) pairs."""
    out: dict[tuple, tuple[str, int]] = {}
    for corner, (gid, _ref) in zip(_VERTEX_CORNERS, mesh.cell_vertices(ci)):
        out[("vertex", corner)] = ("vertex", gid)
    labels = [(axis, sides) for axis in range(3) for sides in _EDGE_SIDES]
    for (axis, sides), (eaxis, gid, _ref) in zip(labels, mesh.cell_edges(ci)):
        assert axis == eaxis
        out[("edge", axis, sides)] = ("edge", gid)
    for normal, side, gid, _ref in mesh.cell_faces(ci):
        out[("face", normal, side)] = ("face", gid)
    out[("cell",)] = ("cell", ci)
    return out


@dataclass
class GlobalSpace:
    """An assembled finite element space on a cuboid mesh."""

    fam: FamilyId
    mesh: CuboidMesh
    keys: list
    index: dict
    cell_maps: list[list[int]]
    dof_cells: list[tuple[int, ...]]
    ref_dofs: list[DofFunctional]

    @property
    def dimension(self) -> int:
        return len(self.keys)

    def entity_of(self, i: int) -> tuple[str, int]:
        return self.keys[i][0]


def assemble_space(fam: FamilyId, mesh: CuboidMesh) -> GlobalSpace:
    ref = local_dofs(fam)
    seen: dict = {}
    per_cell_keys: list[list] = []
    for ci in range(mesh.num_cells):
        ids = cell_entity_ids(mesh, ci)
        keys = []
        for dof in ref:
            key = dof.dof_key(ids[dof.entity_label])
            keys.append(key)
            cells = seen.get(key)
            if cells is None:
                seen[key] = [ci]
            elif cells[-1] != ci:
                cells.append(ci)
        per_cell_keys.append(keys)
    ordered = sorted(seen, key=_dof_sort_key)
    index = {key: i for i, key in enumerate(ordered)}
    cell_maps = [[index[k] for k in keys] for keys in per_cell_keys]
    dof_cells = [tuple(seen[k]) for k in ordered]
    return GlobalSpace(fam, mesh, ordered, index, cell_maps, dof_cells, ref)


# ---------------------------------------------------------------------------
# reference pipeline: unit-cell blocks and their exact diagonal scaling


def dof_scale(dof: DofFunctional, h: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """Physical/reference DOF ratio: entity measure over derivative factors."""
    s = Fraction(1)
    for a in dof.entity.free_axes:
        s *= h[a]
    for a in range(3):
        if dof.deriv[a]:
            s /= h[a] ** dof.deriv[a]
    return s


def component_weight(fam: FamilyId, comp: str,
                     h: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """Weight ``w`` of one component on a cell of shape ``h`` (module table)."""
    base = fam.name.removesuffix("-red")
    H = h[0] * h[1] * h[2]
    if base == "u":
        return Fraction(1)
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


def _group_layout(fam: FamilyId) -> list[tuple[str, list[int], int]]:
    """Per component group: its name, the catalog positions of its DOFs and
    the offset of its monomial coordinates."""
    spec = shape_space(fam)
    positions: dict[str, list[int]] = {g.name: [] for g in spec.groups}
    for i, dof in enumerate(local_dofs(fam)):
        positions[spec.group_of(dof.component).name].append(i)
    out = []
    off = 0
    for g in spec.groups:
        out.append((g.name, positions[g.name], off))
        off += len(spec.group_coords(g))
    return out


def _dof_matrix(fam: FamilyId, cell: CellBox) -> list[list[Fraction]]:
    """DOFs (catalog order) by monomial coordinates, from the group blocks."""
    width = shape_space(fam).local_dimension()
    D = [[_F0] * width for _ in local_dofs(fam)]
    for gname, positions, off in _group_layout(fam):
        for p, row in zip(positions, group_dof_matrix(fam, gname, cell)):
            D[p][off:off + len(row)] = row
    return D


def _reconstructor(fam: FamilyId, cell: CellBox) -> list[list[Fraction]]:
    """Monomial coordinates by DOF values: the exact inverse of the DOF
    matrix, taken group block by group block."""
    ndofs = len(local_dofs(fam))
    R = [[_F0] * ndofs for _ in range(shape_space(fam).local_dimension())]
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


@lru_cache(maxsize=None)
def _reference_reconstructor(fam: FamilyId) -> list[list[Fraction]]:
    """R(1), once per family and order."""
    return _reconstructor(fam, UNIT_BOX)


def _operator_coord_matrix(op_name: str, src: FamilyId, dst: FamilyId,
                           cell: CellBox) -> list[list[Fraction]]:
    """The operator in monomial coordinates, with target membership checks."""
    src_spec = shape_space(src)
    dst_spec = shape_space(dst)
    op = OPERATORS[op_name]
    cols = []
    for comp, exp in field_coords(src_spec):
        f = coordinate_field(src_spec, comp, exp, cell)
        cols.append(field_to_coords(op(f), dst_spec, strict=True))
    nrows = len(cols[0]) if cols else 0
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


@lru_cache(maxsize=None)
def _reference_block(op_name: str, src: FamilyId, dst: FamilyId
                     ) -> list[list[Fraction]]:
    """K(1) = D_dst(1) @ O(1) @ R_src(1), once per edge and order."""
    O = _operator_coord_matrix(op_name, src, dst, UNIT_BOX)
    return frac_mul(_dof_matrix(dst, UNIT_BOX),
                    frac_mul(O, _reference_reconstructor(src)))


def _dof_factors(fam: FamilyId, h: tuple) -> list[Fraction]:
    """The diagonal ``a(dof, h)`` over the catalog DOFs of a family."""
    return [dof_scale(d, h) / component_weight(fam, d.component, h)
            for d in local_dofs(fam)]


def local_operator_block(op_name: str, src: FamilyId, dst: FamilyId,
                         h: tuple) -> list[list[Fraction]]:
    """K(h) for a cell of shape ``h``: target DOFs by source DOFs."""
    inv_src = [1 / a for a in _dof_factors(src, h)]
    return [[a * v * b if v else v for v, b in zip(row, inv_src)]
            for a, row in zip(_dof_factors(dst, h),
                              _reference_block(op_name, src, dst))]


# ---------------------------------------------------------------------------
# sparse global matrices


class SparseMatrix:
    """Row-sparse exact rational matrix."""

    def __init__(self, nrows: int, ncols: int,
                 rows: list[dict[int, Fraction]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def to_float_array(self):
        import numpy as np
        a = np.zeros((self.nrows, self.ncols))
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                a[i, j] = float(v)
        return a

    def matvec(self, vec: Sequence[Fraction]) -> list[Fraction]:
        return [sum((v * vec[j] for j, v in r.items()), _F0) for r in self.rows]

    def entries(self):
        for i, r in enumerate(self.rows):
            for j, v in sorted(r.items()):
                yield i, j, v


class ConformityError(AssertionError):
    """Adjacent cells disagreed about a shared target DOF value."""


def operator_matrix(op_name: str, src: GlobalSpace, dst: GlobalSpace) -> SparseMatrix:
    """Assemble the global operator matrix (target dim by source dim).

    Raises :class:`ConformityError` when two cells report different values
    for the same (target DOF, source DOF) pair, or when a nonzero column
    entry is missing a contribution from a cell adjacent to its target DOF.
    """
    if (src.fam.name, op_name, dst.fam.name) not in COMPLEX_EDGES:
        raise ValueError(
            f"({src.fam.name}, {op_name}, {dst.fam.name}) is not an edge of "
            f"either complex")
    if src.fam.k != dst.fam.k:
        raise ValueError("operator endpoints have different orders")
    if src.mesh is not dst.mesh and src.mesh != dst.mesh:
        raise ValueError("operator endpoints live on different meshes")
    mesh = src.mesh
    A = SparseMatrix(dst.dimension, src.dimension)
    rows = A.rows
    # one scaled block per distinct cell shape, freed on return
    by_shape: dict[tuple, list[list[Fraction]]] = {}
    blocks = []
    for ci in range(mesh.num_cells):
        box = mesh.cell_box(ci)
        h = tuple(box.h(a) for a in range(3))
        if h not in by_shape:
            by_shape[h] = local_operator_block(op_name, src.fam, dst.fam, h)
        blocks.append(by_shape[h])
    for ci, K in enumerate(blocks):
        dmap = dst.cell_maps[ci]
        smap = src.cell_maps[ci]
        for i, krow in enumerate(K):
            gi = dmap[i]
            row = rows[gi]
            for j, v in enumerate(krow):
                if v:
                    gj = smap[j]
                    old = row.get(gj)
                    if old is None:
                        row[gj] = v
                    elif old != v:
                        raise ConformityError(
                            f"cells disagree at target DOF {dst.keys[gi]}: "
                            f"{old} vs {v}")
    # second pass: a stored value must be reproduced (zeros included) by
    # every cell that carries both DOFs
    for ci, K in enumerate(blocks):
        dmap = dst.cell_maps[ci]
        smap = src.cell_maps[ci]
        for i, krow in enumerate(K):
            row = rows[dmap[i]]
            if not row:
                continue
            for j, v in enumerate(krow):
                stored = row.get(smap[j])
                if stored is not None and stored != v:
                    raise ConformityError(
                        f"zero/nonzero clash at target DOF {dst.keys[dmap[i]]}")
    # adjacency audit: every cell at the target DOF must see the source DOF
    for gi, row in enumerate(rows):
        ci_set = set(dst.dof_cells[gi])
        for gj in row:
            if not ci_set.issubset(src.dof_cells[gj]):
                raise ConformityError(
                    f"target DOF {dst.keys[gi]} receives a one-sided "
                    f"contribution from source DOF {src.keys[gj]}")
    return A


# ---------------------------------------------------------------------------
# reconstruction and interpolation


def reconstruct_local(space: GlobalSpace, ci: int,
                      coeffs: Sequence[Fraction]) -> PolyField:
    """Restrict a global coefficient vector to one cell as a PolyField."""
    spec = shape_space(space.fam)
    box = space.mesh.cell_box(ci)
    h = tuple(box.h(a) for a in range(3))
    local = [coeffs[g] / dof_scale(dof, h)
             for g, dof in zip(space.cell_maps[ci], space.ref_dofs)]
    coords = [sum((v * local[j] for j, v in enumerate(row) if v), _F0)
              for row in _reference_reconstructor(space.fam)]
    comps: dict[str, TensorPoly] = {}
    off = 0
    for g in spec.groups:
        for comp in g.independent:
            grid = spec.degrees[comp]
            n = grid.dim()
            comps[comp] = TensorPoly(grid, coords[off:off + n], box)
            off += n
    if spec.traceless:
        comps["zz"] = -(comps["xx"] + comps["yy"])
    kind = spec.kind
    return PolyField(kind, comps, box, symmetric=spec.symmetric)


def interpolate(space: GlobalSpace,
                make_field: Callable[[int, CellBox], Mapping[str, TensorPoly]]
                ) -> list[Fraction]:
    """Apply every DOF to a globally smooth field given cell by cell.

    Shared DOFs are evaluated from each adjacent cell and must agree; a
    mismatch means the supplied field is not single-valued.
    """
    spec = shape_space(space.fam)
    bubbles = _bubbles_for(space.fam)
    vals: list[Fraction | None] = [None] * space.dimension
    for ci in range(space.mesh.num_cells):
        box = space.mesh.cell_box(ci)
        comps = make_field(ci, box)
        for dof, gi in zip(local_dofs(space.fam, box), space.cell_maps[ci]):
            v = apply_dof(dof, comps, spec, bubbles)
            if vals[gi] is None:
                vals[gi] = v
            elif vals[gi] != v:
                raise AssertionError(
                    f"field is multivalued at DOF {space.keys[gi]}: "
                    f"{vals[gi]} vs {v}")
    return [v if v is not None else _F0 for v in vals]


# ---------------------------------------------------------------------------
# Matrix Market I/O


def write_matrix_market(path: str, mat: SparseMatrix, float_mode: bool = False,
                        comment: str | None = None) -> None:
    field = "real" if float_mode else "rational"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{mat.nrows} {mat.ncols} {mat.nnz}\n")
        for i, j, v in mat.entries():
            if float_mode:
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
            else:
                fh.write(f"{i + 1} {j + 1} {v.numerator}/{v.denominator}\n")


def read_matrix_market(path: str) -> SparseMatrix:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket matrix coordinate"):
            raise ValueError("not a coordinate MatrixMarket file")
        rational = "rational" in header
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = (int(t) for t in line.split())
        mat = SparseMatrix(nrows, ncols)
        count = 0
        for line in fh:
            if not line.strip():
                continue
            si, sj, sv = line.split()
            v = Fraction(sv) if rational else Fraction(float(sv))
            if v:
                mat.rows[int(si) - 1][int(sj) - 1] = v
            count += 1
        if count != nnz:
            raise ValueError(f"expected {nnz} entries, read {count}")
    return mat
