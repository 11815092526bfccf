"""Global space assembly and exact operator matrices.

A global space enumerates degrees of freedom over the mesh entities, with
every shared DOF identified once across adjacent cells.  The assembled
operator matrix of a differential map between two such spaces is built
from local blocks, one per cell shape ``h``:

    K(h) = D_dst(h)  @  O(h)  @  R_src(h)

where ``R_src`` reconstructs monomial coordinates from source DOF values
(the inverse DOF matrix), ``O`` applies the operator in monomial
coordinates, and ``D_dst`` evaluates the target DOFs.  Every factor is
kept as sparse rows (one ``{column: Fraction}`` dict per row).

``O(1)`` comes from one stencil per operator and source family: the
operator from ``OPERATORS`` is applied once per independent source
component, to the probe monomial ``t^P`` at the top corner ``P`` of that
component's degree grid.  A term at ``t^(P - alpha)`` is the derivative
``d^alpha``, with coefficient ``value / (P!/(P - alpha)!)``.  Every
derivative that acts on the space leaves a term at the probe, so column
``t^e`` is ``sum coef * e!/(e - alpha)! * t^(e - alpha)`` over the stencil,
and each column gets the membership checks of ``check_membership`` (degree
grid, symmetric pair, zero trace).  The products are sparse integer
products (``_exactcore.spmul``) on rows cleared by ``clear_denominators``,
the left factor row by row and the right one with a common denominator.

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
block-diagonal DOF matrices.  Only unit-cell objects are cached: blocks
per edge, reconstructors per family and stencils per operator and source
family, each per order.  A reconstruction divides the local DOF values by
``dof_scale`` and applies ``R(1)``.

``K(h)`` is scaled from ``K(1)`` nonzero by nonzero, and the scatter walks
only nonzeros.  It asserts conformity instead of assuming it: a shared
target DOF must receive the identical value from every adjacent cell,
including the implicit zero from cells where the source basis function is
not supported.  That second pass walks every stored global entry back to
each cell's local column, so an entry a cell's block leaves out is still
compared.
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
from .operators import (OPERATORS, PolyField, check_membership,
                        coordinate_field, field_coords)
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


@lru_cache(maxsize=None)
def _reference_reconstructor(fam: FamilyId) -> list[dict[int, Fraction]]:
    """R(1), once per family and order."""
    return _reconstructor(fam, UNIT_BOX)


def _falling(e: tuple[int, int, int], alpha: tuple[int, int, int]) -> int:
    """``e!/(e - alpha)!`` taken per axis and multiplied: the factor that
    ``d^alpha`` puts on ``t^e``, zero when ``alpha`` exceeds ``e`` on an axis."""
    out = 1
    for ea, aa in zip(e, alpha):
        for i in range(aa):
            out *= ea - i
    return out


@lru_cache(maxsize=None)
def _operator_stencil(op_name: str, src: FamilyId
                      ) -> dict[str, dict[str, tuple]]:
    """The operator on the unit cell as a stencil, once per source family
    and order.

    ``OPERATORS[op_name]`` is applied once per independent source component
    ``c``, to the coordinate field of the probe monomial ``t^P`` at the top
    corner ``P`` of the component's degree grid.  Each output term at
    exponent ``P - alpha`` is one derivative ``d^alpha`` of the probe, and
    its value divided by ``P!/(P - alpha)!`` is that derivative's constant
    coefficient.  Every derivative that does not vanish on some ``t^e`` of
    the grid leaves a term at the probe, so the stencil is complete.
    Returns ``{c: {output key: ((alpha, coef), ...)}}``; a symmetric output
    also carries its transposed keys, as :meth:`PolyField.component` reads
    them.
    """
    spec = shape_space(src)
    op = OPERATORS[op_name]
    stencil = {}
    for g in spec.groups:
        for comp in g.independent:
            probe = spec.degrees[comp].caps
            out = op(coordinate_field(spec, comp, probe, UNIT_BOX))
            terms = {}
            for key, poly in out.comps.items():
                alphas = ((tuple(p - x for p, x in zip(probe, e)), v)
                          for e, v in poly.terms())
                terms[key] = tuple((a, v / _falling(probe, a))
                                   for a, v in alphas)
            if out.symmetric:
                for key in list(terms):
                    terms.setdefault(key[::-1], terms[key])
            stencil[comp] = terms
    return stencil


def _operator_rows(op_name: str, src: FamilyId, dst: FamilyId
                   ) -> list[dict[int, Fraction]]:
    """O(1): the operator in monomial coordinates on the unit cell, as
    sparse rows (target coordinates by source coordinates).

    Column ``t^e`` of component ``c`` is ``sum coef * e!/(e - alpha)! *
    t^(e - alpha)`` over the stencil of ``c``; every column must pass
    :func:`check_membership` in the target space.
    """
    dst_spec = shape_space(dst)
    stencil = _operator_stencil(op_name, src)
    bases = {}
    off = 0
    for g in dst_spec.groups:
        for comp in g.independent:
            grid = dst_spec.degrees[comp]
            bases[comp] = (grid, off)
            off += grid.dim()
    rows: list[dict[int, Fraction]] = [{} for _ in range(off)]
    for col, (comp, e) in enumerate(field_coords(shape_space(src))):
        polys = {}
        for key, terms in stencil[comp].items():
            poly = {}
            for alpha, coef in terms:
                n = _falling(e, alpha)
                if n:
                    poly[(e[0] - alpha[0], e[1] - alpha[1],
                          e[2] - alpha[2])] = coef * n
            polys[key] = poly
        check_membership(polys, dst_spec)
        for comp_t, (grid, base) in bases.items():
            for exp, v in polys.get(comp_t, {}).items():
                rows[base + grid.index(exp)][col] = v
    return rows


def _sparse_product(a: list[dict[int, Fraction]],
                    b: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Exact product of sparse rational rows through the integer kernel.

    Row ``i`` of the product is row ``i`` of ``a`` times ``b``, so ``a`` is
    cleared row by row and only ``b`` needs one common denominator.
    """
    ia, da = _exactcore.clear_denominators(a)
    ib, db = _exactcore.clear_denominators(b, common=True)
    return [{j: Fraction(v, d * db[0]) for j, v in row.items()}
            for row, d in zip(_exactcore.spmul(ia, ib), da)]


@lru_cache(maxsize=None)
def _reference_block(op_name: str, src: FamilyId, dst: FamilyId
                     ) -> list[dict[int, Fraction]]:
    """K(1) = D_dst(1) @ (O(1) @ R_src(1)) as sparse rows, once per edge and
    order."""
    OR = _sparse_product(_operator_rows(op_name, src, dst),
                         _reference_reconstructor(src))
    return _sparse_product(_dof_matrix(dst, UNIT_BOX), OR)


def _dof_factors(fam: FamilyId, h: tuple) -> list[Fraction]:
    """The diagonal ``a(dof, h)`` over the catalog DOFs of a family."""
    return [dof_scale(d, h) / component_weight(fam, d.component, h)
            for d in local_dofs(fam)]


def local_operator_block(op_name: str, src: FamilyId, dst: FamilyId,
                         h: tuple) -> list[dict[int, Fraction]]:
    """K(h) for a cell of shape ``h`` as sparse rows: target DOFs by source
    DOFs."""
    inv_src = [1 / a for a in _dof_factors(src, h)]
    return [{j: a * v * inv_src[j] for j, v in row.items()}
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
    by_shape: dict[tuple, list[dict[int, Fraction]]] = {}
    blocks = []
    for ci in range(mesh.num_cells):
        box = mesh.cell_box(ci)
        h = tuple(box.h(a) for a in range(3))
        if h not in by_shape:
            by_shape[h] = local_operator_block(op_name, src.fam, dst.fam, h)
        blocks.append(by_shape[h])
    for ci, K in enumerate(blocks):
        smap = src.cell_maps[ci]
        for gi, krow in zip(dst.cell_maps[ci], K):
            row = rows[gi]
            for j, v in krow.items():
                gj = smap[j]
                old = row.get(gj)
                if old is None:
                    row[gj] = v
                elif old != v:
                    raise ConformityError(
                        f"cells disagree at target DOF {dst.keys[gi]}: "
                        f"{old} vs {v}")
    # second pass: a stored value must be reproduced by every cell that
    # carries both DOFs, including the cells whose block holds an implicit
    # zero there; the stored entries are mapped back to local columns
    for ci, K in enumerate(blocks):
        local_col = {gj: j for j, gj in enumerate(src.cell_maps[ci])}
        for gi, krow in zip(dst.cell_maps[ci], K):
            for gj, stored in rows[gi].items():
                j = local_col.get(gj)
                if j is not None and krow.get(j, _F0) != stored:
                    raise ConformityError(
                        f"zero/nonzero clash at target DOF {dst.keys[gi]}")
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
    coords = [sum((v * local[j] for j, v in row.items()), _F0)
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
