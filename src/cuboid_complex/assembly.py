"""Global space assembly and exact operator matrices.

A global space enumerates degrees of freedom over the mesh entities, with
every shared DOF identified once across adjacent cells.  The assembled
operator matrix of a differential map between two such spaces is built
from local blocks, one per cell shape ``h``:

    K(h) = D_dst(h)  @  O(h)  @  R_src(h)

where ``R_src`` reconstructs monomial coordinates from source DOF values
(the inverse DOF matrix), ``O`` applies the operator in monomial
coordinates, and ``D_dst`` evaluates the target DOFs.

``O(1)`` comes from one stencil per operator and source family: the
operator from ``OPERATORS`` is applied once per independent source
component, to the probe monomial ``t^P`` at the top corner ``P`` of that
component's degree grid.  A term at ``t^(P - alpha)`` is the derivative
``d^alpha``, with coefficient ``value / (P!/(P - alpha)!)``.  Every
derivative that acts on the space leaves a term at the probe, so column
``t^e`` is ``sum coef * e!/(e - alpha)! * t^(e - alpha)`` over the stencil.
The probe column passes the membership checks of ``check_membership``
(degree grid, symmetric pair, zero trace).  Every other column has the
probe's derivatives at exponents ``e - alpha <= P - alpha``, each scaled
by the same factor in every output component, so it passes too.

The reference pipeline is sum-factorised.  Every DOF that is not coupled
is a product of three 1-D functionals (a value or first derivative at an
end point, or a moment against ``t^w``).  A component group is a *product
group* when, for each independent component, its DOFs are exactly
``F_x x F_y x F_z`` with ``|F_a| = cap_a + 1`` distinct 1-D functionals on
axis ``a``.  That component's DOF block is then ``P (T_x (x) T_y (x) T_z)``
for a row permutation ``P`` and square 1-D tables ``T_a``, and its inverse
is ``(T_x^-1 (x) T_y^-1 (x) T_z^-1) P^T`` (Van Loan, JCAM 123, 2000).  The
factor table (``_factor_table``, once per family and order) stores ``P``,
each ``T_a`` and its exact inverse.  At k = min..min+2, 168 of the 180
groups are product groups.  The 12 others are, at each order, the three
off-diagonal groups of ``sigma-red`` and the diagonal group of ``xi-red``
(the coupled bubble DOFs); they keep their dense block from
``group_dof_matrix`` and its inverse from ``fj_inverse``.

A derivative is a product of 1-D derivative matrices, so for a target
component ``t`` and a source component ``s`` (Orszag, JCP 37, 1980):

    K(1)[t, s] = sum coef * (x)_a (T_t,a @ Der_a^alpha_a @ T_s,a^-1)

over the stencil terms of ``s`` that land on ``t``.  Only the nonzeros of
the ``(k+1) x (k+1)`` factors are expanded, in integers over one common
denominator.  No dense ``R(1)`` of a product group is formed.  An
exception group takes the identity in place of its 1-D factors, and its
dense block or inverse is applied to the result as an integer product.
``K(1)`` is every such block rescaled to the lcm ``D1`` of their
denominators: integer rows over ``D1``, with no ``Fraction`` per entry.
``reconstruct_local`` applies ``(T_x^-1 (x) T_y^-1 (x) T_z^-1) P^T`` as
three 1-D passes.

Under the axis scaling ``x = lo + h t`` every family is affine-equivalent
to its unit-cell element, so the pipeline runs once per edge and order, on
the unit cell, and every cell shape follows from the exact identity

    K(h) = diag(a_dst(h))  @  K(1)  @  diag(1 / a_src(h)),
    a(dof, h) = dof_scale(dof, h) / w(family, dof.component, h).

``dof_scale`` is the measure of the DOF's entity times ``h^-deriv``, which
gives ``D(h) = diag(dof_scale) D(1)``.  The component weight ``w`` is what
one reference unit of a component is worth on the cell, which gives
``O(h) = diag(1 / w_dst) O(1) diag(w_src)``; down each ladder it is the
source weight times ``h`` of the differentiated axis.  Both are monomials
``h_x^m0 h_y^m1 h_z^m2``.  ``dof_scale`` has ``m_a = 1 - deriv_a`` on an
axis the DOF's entity spans and ``-deriv_a`` on the others.  With
``H = h_x h_y h_z``, the weight of component ``a`` or ``ab`` is
``H^p h_a^q h_b^r``:

    =====================  ===========  ===================================
    family                 (p, q, r)    weight of the component
    =====================  ===========  ===================================
    u                      (0, 0, 0)    1
    x                      (0, 1, 0)    h_a
    sigma, sigma-red, phi  (0, 1, 1)    h_a h_b
    xi, xi-red             (1, 1, -1)   h_a H / h_b (so H on the whole
                                        diagonal group and the coupled DOFs)
    q, q-red               (1, 1, 0)    h_a H
    gamma, gamma-red       (2, -1, -1)  H^2 / (h_a h_b)
    z, z-red               (2, -1, 0)   H^2 / h_a
    =====================  ===========  ===================================

The exponent table (``_exponent_table``, once per family and order) holds
the exponents of ``dof_scale`` and of ``a`` for every catalog DOF; a cell
shape costs one power product per distinct exponent triple.  The weight is
constant on each component group, so it commutes with the block-diagonal
DOF matrices.  Only unit-cell objects are cached: blocks per edge, factor
and exponent tables per family and stencils per operator and source
family, each per order.  A reconstruction divides the local DOF values by
``dof_scale`` and applies ``R(1)``, in integers.

The reverse path, :func:`interpolate`, is sum-factorised too.  On a cell,
a DOF that is not coupled has the value ``dof_scale * (t_x (x) t_y (x)
t_z) c``.  Here ``c`` holds the reference coefficients of the field's
component, cleared to integers, and ``t_a`` is the integer 1-D table at
``h = 1`` of the DOF's functional on axis ``a``, taken over the
component's own degree grid.  So the value equals ``apply_dof`` for any
polynomial, inside the shape space or not.  The contraction runs over z,
then y, then x, and the DOFs of one cell share the partial sums of their
trailing functionals.  A coupled DOF of ``xi-red`` is a sum of cell
moments against the monomials of its bubble triple, each diagonal
component against its own member.

``K(h)`` is scaled from ``K(1)`` nonzero by nonzero, in integers.  With
``a_i = n_i / d_i``, the entry ``a_i K(1)_ij / (D1 a_j)`` is stored as
``r_i K(1)_ij c_j`` over ``den_h = D1 lcm(d) lcm(n)``, where ``r_i = n_i
lcm(d) / d_i`` runs over the target DOFs and ``c_j = d_j lcm(n) / n_j``
over the source DOFs.  The scatter rescales each shape's block once by
``L // den_h``, with ``L`` the lcm of the ``den_h``, so the global matrix
is integer rows over ``L`` and every comparison is between integers.  It
walks only nonzeros and keeps the first cell's value at each entry; it
asserts conformity instead of assuming it.  One audit then walks, for
each cell and each target DOF it carries, every stored entry of that
row: the cell must carry the source DOF, its block must hold a value
there (not an implicit zero) and the value must equal the stored one.
So a shared target DOF receives the identical value from every cell that
carries it, with ``cell_maps`` the one record of which cell carries
which DOF.  The audit is one premise of the composition certificate:
``verify.verify_complex`` proves ``A2 @ A1 == 0`` from ``K2(1) @ K1(1) ==
0`` and this audit, with no global product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, perm, prod
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _exactcore
from .elements import (DofFunctional, FamilyId, _COMP_POS, _DIAG_COMPS,
                       _axis_table, _bubbles_for, _component_poly,
                       axis_functionals, group_dof_matrix, local_dofs,
                       shape_space)
from .mesh import ENTITY_RANK, CuboidMesh
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


@dataclass
class GlobalSpace:
    """An assembled finite element space on a cuboid mesh: the sorted DOF
    ``keys``, per cell the global index of each catalog DOF
    (``cell_maps``), and the unit-cell catalog ``ref_dofs``."""

    fam: FamilyId
    mesh: CuboidMesh
    keys: list
    cell_maps: list[list[int]]
    ref_dofs: list[DofFunctional]

    @property
    def dimension(self) -> int:
        return len(self.keys)


def assemble_space(fam: FamilyId, mesh: CuboidMesh) -> GlobalSpace:
    ref = local_dofs(fam)
    per_cell_keys = []
    for ci in range(mesh.num_cells):
        ids = mesh.cell_entity_ids(ci)
        per_cell_keys.append([dof.dof_key(ids[dof.entity_label]) for dof in ref])
    ordered = sorted({k for keys in per_cell_keys for k in keys},
                     key=_dof_sort_key)
    index = {key: i for i, key in enumerate(ordered)}
    cell_maps = [[index[k] for k in keys] for keys in per_cell_keys]
    return GlobalSpace(fam, mesh, ordered, cell_maps, ref)


# ---------------------------------------------------------------------------
# reference pipeline: unit-cell blocks and their exact diagonal scaling


#: the component weight ``w = H^p h_a^q h_b^r`` of component ``a`` or
#: ``ab`` as ``(p, q, r)``, per family without its ``-red`` suffix
_WEIGHT_EXPONENTS = {"u": (0, 0, 0), "x": (0, 1, 0), "sigma": (0, 1, 1),
                     "phi": (0, 1, 1), "xi": (1, 1, -1), "q": (1, 1, 0),
                     "gamma": (2, -1, -1), "z": (2, -1, 0)}


@lru_cache(maxsize=None)
def _exponent_table(fam: FamilyId) -> tuple[tuple, tuple]:
    """Per catalog DOF, the exponents ``m`` of ``dof_scale = h^m`` and of
    ``a = dof_scale / w``, once per family and order (module docstring)."""
    p, q, r = _WEIGHT_EXPONENTS[fam.name.removesuffix("-red")]
    scales, factors = [], []
    # one object per distinct triple: two fresh tuples per DOF, cached in
    # mid-run, kept about 0.3 MiB more resident at the peak of a ladder
    distinct: dict = {}
    for dof in local_dofs(fam):
        scale = tuple((side is None) - d for d, _w, side in axis_functionals(dof))
        # "s" and "diag" name no axis; their weight does not depend on one
        a, b = (AXIS_NAMES.index(c) if c in AXIS_NAMES else 0
                for c in (dof.component[0], dof.component[-1]))
        factor = tuple(scale[x] - p - q * (x == a) - r * (x == b)
                       for x in range(3))
        scales.append(distinct.setdefault(scale, scale))
        factors.append(distinct.setdefault(factor, factor))
    return tuple(scales), tuple(factors)


def _powers(exps: Sequence[tuple[int, int, int]], h: tuple) -> list[Fraction]:
    """``h_x^m0 h_y^m1 h_z^m2`` for each exponent triple ``m``, one product
    per distinct triple."""
    memo: dict[tuple[int, int, int], Fraction] = {}
    out = []
    for m in exps:
        v = memo.get(m)
        if v is None:
            v = memo[m] = h[0] ** m[0] * h[1] ** m[1] * h[2] ** m[2]
        out.append(v)
    return out


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


class _Unit(NamedTuple):
    """One block of a family's factor table.

    A product unit is one independent component of a product group: its
    DOFs are exactly ``F_x x F_y x F_z`` for sets ``F_a`` of ``cap_a + 1``
    distinct 1-D functionals, so its DOF block is ``P (T_x (x) T_y (x) T_z)``.
    ``dofs`` holds the catalog position of each Kronecker row (that is
    ``P``), ``tables`` and ``inverses`` each ``T_a`` and ``T_a^-1`` as
    integer rows over a denominator.  An exception unit is a whole group
    that is not a product; it keeps its DOF block (``dof_rows``, over the
    unit's coordinates, as sparse integer rows over a denominator) and the
    block's exact inverse (``recon_rows``, unit coordinates by the DOFs of
    ``dofs``, as integer rows over a denominator), and ``dofs`` lists its
    catalog positions in group order.  ``comps`` gives each component with
    the offset of its coordinates in the unit and its degree caps;
    ``offset`` places the unit's coordinates in the family's.
    """

    comps: tuple[tuple[str, int, tuple[int, int, int]], ...]
    offset: int
    dofs: tuple[int, ...]
    tables: tuple | None = None
    inverses: tuple | None = None
    dof_rows: tuple | None = None
    recon_rows: tuple | None = None


def _int_rows(mat: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """A dense rational matrix as integer rows over one denominator."""
    rows, dens = _exactcore.clear_denominators(mat, common=True)
    return rows, dens[0]


def _int_inverse(mat: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """The exact inverse of a square rational matrix as integer rows over a
    denominator."""
    # mat = diag(1 / dens) @ imat, so mat^-1 = imat^-1 @ diag(dens)
    imat, dens = _exactcore.clear_denominators(mat)
    inv, den = _exactcore.fj_inverse(imat)
    return [[v * d for v, d in zip(row, dens)] for row in inv], den


def _product_units(spec, group, catalog, positions: list[int],
                   off: int) -> list[_Unit] | None:
    """The group's independent components as product units, or None when
    the group is not a product group."""
    if any(catalog[p].kind == "coupled"
           or catalog[p].component not in group.independent for p in positions):
        return None
    units = []
    for comp in group.independent:
        caps = spec.degrees[comp].caps
        mine = [p for p in positions if catalog[p].component == comp]
        funcs = {axis_functionals(catalog[p]): p for p in mine}
        axes = [list(dict.fromkeys(f[a] for f in funcs)) for a in range(3)]
        # distinct triples, as many as F_x x F_y x F_z has: they are all of it
        if (len(funcs) != len(mine) or len(mine) != prod(c + 1 for c in caps)
                or any(len(axes[a]) != caps[a] + 1 for a in range(3))):
            return None
        tables = [[_axis_table(caps[a], *f, Fraction(1)) for f in axes[a]]
                  for a in range(3)]
        units.append(_Unit(
            ((comp, 0, caps),), off, tuple(funcs[f] for f in product(*axes)),
            tables=tuple(_int_rows(t) for t in tables),
            inverses=tuple(_int_inverse(t) for t in tables)))
        off += len(mine)
    return units


def _exception_unit(fam: FamilyId, spec, group, positions: list[int],
                    off: int) -> _Unit:
    """A group that is not a product: its DOF block and exact inverse."""
    mat = group_dof_matrix(fam, group.name)
    if len(mat) != len(mat[0]):
        raise AssertionError(
            f"{fam.name} k={fam.k} group {group.name}: DOF matrix "
            f"{len(mat)}x{len(mat[0])} is not square")
    comps = []
    local = 0
    for comp in group.independent:
        grid = spec.degrees[comp]
        comps.append((comp, local, grid.caps))
        local += grid.dim()
    dof_rows, dens = _exactcore.clear_denominators(
        [dict(enumerate(row)) for row in mat], common=True)
    return _Unit(
        tuple(comps), off, tuple(positions),
        dof_rows=(dof_rows, dens[0]),
        recon_rows=_int_inverse(mat))


@lru_cache(maxsize=None)
def _factor_table(fam: FamilyId) -> tuple[_Unit, ...]:
    """The unit-cell DOF blocks in factored form, once per family and order:
    a product unit per independent component of each product group and an
    exception unit per other group, in coordinate order."""
    spec = shape_space(fam)
    catalog = local_dofs(fam)
    units: list[_Unit] = []
    for group, (_name, positions, off) in zip(spec.groups, _group_layout(fam)):
        units.extend(_product_units(spec, group, catalog, positions, off)
                     or [_exception_unit(fam, spec, group, positions, off)])
    return tuple(units)


def _falling(e: tuple[int, int, int], alpha: tuple[int, int, int]) -> int:
    """``e!/(e - alpha)!`` taken per axis and multiplied: the factor that
    ``d^alpha`` puts on ``t^e``, zero when ``alpha`` exceeds ``e`` on an axis."""
    return perm(e[0], alpha[0]) * perm(e[1], alpha[1]) * perm(e[2], alpha[2])


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


def _stencil_column(terms: dict[str, tuple], e: tuple[int, int, int]
                    ) -> dict[str, dict[tuple[int, int, int], Fraction]]:
    """Column ``t^e`` of O(1) for one source component's stencil ``terms``,
    as ``{output key: {exponent: value}}``."""
    polys = {}
    for key, kterms in terms.items():
        poly = {}
        for alpha, coef in kterms:
            n = _falling(e, alpha)
            if n:
                poly[(e[0] - alpha[0], e[1] - alpha[1], e[2] - alpha[2])] = coef * n
        polys[key] = poly
    return polys


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
        polys = _stencil_column(stencil[comp], e)
        check_membership(polys, dst_spec)
        for comp_t, (grid, base) in bases.items():
            for exp, v in polys.get(comp_t, {}).items():
                rows[base + grid.index(exp)][col] = v
    return rows


def _scaled(rows: list[dict[int, int]], f: int) -> list[dict[int, int]]:
    """Sparse integer rows times ``f``."""
    return rows if f == 1 else [{j: x * f for j, x in r.items()} for r in rows]


def _over_lcm(pieces, nrows: int) -> tuple[list[dict[int, int]], int]:
    """``nrows`` integer rows over one denominator from ``pieces`` of
    ``(row positions, integer rows, denominator)``, each rescaled to the
    lcm of the denominators; the pieces fill disjoint entries."""
    common = lcm(*(den for _rmap, _rows, den in pieces))
    out: list[dict[int, int]] = [{} for _ in range(nrows)]
    for rmap, rows, den in pieces:
        for p, row in zip(rmap, _scaled(rows, common // den)):
            out[p].update(row)
    return out, common


def _axis_factor(left, alpha: int, right, cap_t: int, cap_s: int
                 ) -> tuple[list[list[int]], int]:
    """One axis of a stencil term, ``left @ Der^alpha @ right``, as integer
    rows over a denominator; an absent ``left`` or ``right`` is the
    identity.  ``Der^alpha`` maps ``t^e`` (``e <= cap_s``) to
    ``e!/(e - alpha)! t^(e - alpha)`` (``e - alpha <= cap_t``)."""
    if left is None:
        rows = [[0] * (cap_s + 1) for _ in range(cap_t + 1)]
        for e in range(alpha, cap_s + 1):
            rows[e - alpha][e] = perm(e, alpha)
        den = 1
    else:
        lrows, den = left
        rows = [[0] * alpha + [r[e - alpha] * perm(e, alpha)
                               for e in range(alpha, cap_s + 1)]
                for r in lrows]
    if right is not None:
        rrows, rden = right
        cols = list(zip(*rrows))
        rows = [[sum(map(mul, r, c)) for c in cols] for r in rows]
        den *= rden
    return rows, den


def _kron_sum(terms: tuple, left, right, t_caps: tuple, s_caps: tuple,
              memo: dict) -> tuple[list[dict[int, int]], int]:
    """``sum coef * (x)_a (left_a @ Der_a^alpha_a @ right_a)`` over the
    stencil ``terms`` of one (target, source) component pair, as integer
    rows over one common denominator.

    Only the nonzeros of the 1-D factors are expanded.  ``left`` and
    ``right`` are per-axis factors or None for the identity; ``memo`` keeps
    the 1-D factors of one edge.
    """
    scaled = []
    for alpha, coef in terms:
        mats = []
        den = coef.denominator
        for a in range(3):
            la = left[a] if left else None
            ra = right[a] if right else None
            key = (id(la), alpha[a], id(ra), t_caps[a], s_caps[a])
            if key not in memo:
                memo[key] = _axis_factor(la, alpha[a], ra, t_caps[a], s_caps[a])
            m, d = memo[key]
            mats.append(m)
            den *= d
        scaled.append((coef.numerator, den, mats))
    common = lcm(*(den for _n, den, _m in scaled))
    mx, my, mz = scaled[0][2]
    acc: list[dict[int, int]] = [{} for _ in range(len(mx) * len(my) * len(mz))]
    for num, den, (mx, my, mz) in scaled:
        scale = num * (common // den)
        ny, nz = len(my[0]), len(mz[0])
        ry = [[(j, v) for j, v in enumerate(r) if v] for r in my]
        rz = [[(j, v) for j, v in enumerate(r) if v] for r in mz]
        i = 0
        for r0 in mx:
            x = [(j0 * ny, scale * v0) for j0, v0 in enumerate(r0) if v0]
            if not x:
                i += len(ry) * len(rz)
                continue
            for r1 in ry:
                xy = [((c0 + j1) * nz, w0 * v1) for c0, w0 in x for j1, v1 in r1]
                for r2 in rz:
                    row = acc[i]
                    i += 1
                    for c01, w01 in xy:
                        for j2, v2 in r2:
                            c = c01 + j2
                            row[c] = row.get(c, 0) + w01 * v2
    return acc, common


@lru_cache(maxsize=None)
def _reference_block(op_name: str, src: FamilyId, dst: FamilyId
                     ) -> tuple[list[dict[int, int]], int]:
    """K(1) = D_dst(1) @ O(1) @ R_src(1) as sparse integer rows over one
    positive denominator, once per edge and order.

    For each target component ``t`` in unit ``U`` and source component
    ``s`` in unit ``V`` the block is ``sum coef * (x)_a (T_t,a @
    Der_a^alpha_a @ T_s,a^-1)`` over the stencil, with the identity in
    place of an exception unit's factors; an exception unit's dense DOF
    block or inverse is then applied to its (target, source) blocks.  Every
    block is integer rows over its own denominator, rescaled to the lcm of
    them all.  Returns ``(rows, den)``.
    """
    stencil = _operator_stencil(op_name, src)
    src_spec = shape_space(src)
    dst_spec = shape_space(dst)
    for comp, terms in stencil.items():
        # the probe column stands for every column (module docstring)
        check_membership(_stencil_column(terms, src_spec.degrees[comp].caps),
                         dst_spec)
    where = {c: (u, local, caps)
             for u in _factor_table(dst) for c, local, caps in u.comps}
    pieces: list[tuple[Sequence[int], list[dict[int, int]], int]] = []
    memo: dict = {}
    for v in _factor_table(src):
        pending: dict[int, tuple[_Unit, list]] = {}
        for s, s_local, s_caps in v.comps:
            cmap = (v.dofs if v.inverses is not None
                    else range(s_local, s_local + prod(c + 1 for c in s_caps)))
            for t, terms in stencil[s].items():
                if not terms or t not in where:
                    continue
                u, t_local, t_caps = where[t]
                acc, den = _kron_sum(terms, u.tables, v.inverses, t_caps,
                                     s_caps, memo)
                rows = [{cmap[j]: x for j, x in row.items() if x} for row in acc]
                if u.tables is not None and v.inverses is not None:
                    pieces.append((u.dofs, rows, den))
                else:
                    rmap = (range(len(acc)) if u.tables is not None
                            else range(t_local, t_local + len(acc)))
                    pending.setdefault(id(u), (u, []))[1].append((rmap, rows, den))
        for u, parts in pending.values():
            rows, den = _over_lcm(parts, len(u.dofs))
            if v.inverses is None:
                inv, d = v.recon_rows
                rows = _exactcore.spmul(rows, [
                    {p: x for p, x in zip(v.dofs, r) if x} for r in inv])
                den *= d
            if u.tables is None:
                drows, d = u.dof_rows
                rows = _exactcore.spmul(drows, rows)
                den *= d
            pieces.append((u.dofs, rows, den))
    return _over_lcm(pieces, len(local_dofs(dst)))


def _dof_scales(fam: FamilyId, h: tuple) -> list[Fraction]:
    """``dof_scale(dof, h)`` over the catalog DOFs of a family."""
    return _powers(_exponent_table(fam)[0], h)


def _dof_factors(fam: FamilyId, h: tuple) -> list[Fraction]:
    """The diagonal ``a(dof, h)`` over the catalog DOFs of a family."""
    return _powers(_exponent_table(fam)[1], h)


def local_operator_block(op_name: str, src: FamilyId, dst: FamilyId,
                         h: tuple) -> tuple[list[dict[int, int]], int]:
    """K(h) for a cell of shape ``h`` as ``(rows, den)``: sparse integer
    rows (target DOFs by source DOFs) over ``den = D1 lcm(d) lcm(n)``, see
    the module docstring."""
    K1, D1 = _reference_block(op_name, src, dst)
    a_dst = _dof_factors(dst, h)
    a_src = _dof_factors(src, h)
    ld = lcm(*(a.denominator for a in a_dst))
    ln = lcm(*(b.numerator for b in a_src))
    c = [b.denominator * (ln // b.numerator) for b in a_src]
    rows = []
    for a, row in zip(a_dst, K1):
        r = a.numerator * (ld // a.denominator)
        rows.append({j: r * x * c[j] for j, x in row.items()})
    return rows, D1 * ld * ln


# ---------------------------------------------------------------------------
# sparse global matrices


class SparseMatrix:
    """Row-sparse exact rational matrix: integer rows over one positive
    denominator ``den``, so entry ``(i, j)`` is ``rows[i][j] / den``.

    Every stored value is a nonzero ``int``.  :meth:`from_rational` is the
    one way in from rational rows.
    """

    def __init__(self, nrows: int, ncols: int,
                 rows: list[dict[int, int]] | None = None, den: int = 1):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]
        self.den = den

    @classmethod
    def from_rational(cls, nrows: int, ncols: int,
                      rows: list[dict[int, Fraction]]) -> SparseMatrix:
        """The matrix of sparse rational rows, over their least common
        denominator."""
        ints, dens = _exactcore.clear_denominators(rows, common=True)
        return cls(nrows, ncols, ints, dens[0] if dens else 1)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def to_float_array(self, rows, cols):
        """The dense float submatrix on the index lists ``rows``, ``cols``."""
        import numpy as np
        at = {j: k for k, j in enumerate(cols)}
        a = np.zeros((len(rows), len(cols)))
        for k, i in enumerate(rows):
            for j, v in self.rows[i].items():
                if j in at:
                    # int true division rounds correctly and takes any size
                    a[k, at[j]] = v / self.den
        return a

    def entries(self):
        den = self.den
        for i, r in enumerate(self.rows):
            for j, v in sorted(r.items()):
                yield i, j, Fraction(v, den)


class ConformityError(AssertionError):
    """Adjacent cells disagreed about a shared target DOF value."""


def operator_matrix(op_name: str, src: GlobalSpace, dst: GlobalSpace) -> SparseMatrix:
    """Assemble the global operator matrix (target dim by source dim).

    Every cell's block is scattered keeping the first value at each entry,
    then one audit over ``cell_maps`` checks every stored entry against
    each cell that carries its target DOF.  Raises
    :class:`ConformityError` when such a cell does not carry the source DOF
    (a one-sided contribution), holds an implicit zero there (a
    zero/nonzero clash) or holds a different value (the cells disagree).
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
    shapes = [tuple(box.h(a) for a in range(3))
              for box in map(mesh.cell_box, range(mesh.num_cells))]
    # one block per distinct cell shape, freed on return
    by_shape = {h: local_operator_block(op_name, src.fam, dst.fam, h)
                for h in dict.fromkeys(shapes)}
    L = lcm(*(den for _rows, den in by_shape.values()))
    scaled = {h: _scaled(K, L // den) for h, (K, den) in by_shape.items()}
    blocks = [scaled[h] for h in shapes]
    A = SparseMatrix(dst.dimension, src.dimension, den=L)
    rows = A.rows
    for ci, K in enumerate(blocks):
        smap = src.cell_maps[ci]
        for gi, krow in zip(dst.cell_maps[ci], K):
            row = rows[gi]
            for j, v in krow.items():
                row.setdefault(smap[j], v)
    # every cell that carries a target DOF must reproduce its whole stored
    # row, the stored entries mapped back to the cell's local columns
    for ci, K in enumerate(blocks):
        local_col = {gj: j for j, gj in enumerate(src.cell_maps[ci])}
        for gi, krow in zip(dst.cell_maps[ci], K):
            for gj, stored in rows[gi].items():
                j = local_col.get(gj)
                if j is None:
                    raise ConformityError(
                        f"target DOF {dst.keys[gi]} receives a one-sided "
                        f"contribution from source DOF {src.keys[gj]}")
                v = krow.get(j)
                if v is None:
                    raise ConformityError(
                        f"zero/nonzero clash at target DOF {dst.keys[gi]}")
                if v != stored:
                    raise ConformityError(
                        f"cells disagree at target DOF {dst.keys[gi]}: "
                        f"{Fraction(stored, L)} vs {Fraction(v, L)}")
    return A


# ---------------------------------------------------------------------------
# reconstruction and interpolation


def _axis_pass(vec: list[int], mat: list[list[int]], shape: tuple[int, int, int],
               axis: int) -> list[int]:
    """``mat`` applied along one axis of the array ``vec`` of ``shape``,
    flattened with the last axis fastest."""
    n = shape[axis]
    stride = (shape[1] * shape[2], shape[2], 1)[axis]
    out = [0] * len(vec)
    for start in range(len(vec)):
        if (start // stride) % n:
            continue
        line = vec[start:start + n * stride:stride]
        for r, mrow in enumerate(mat):
            out[start + r * stride] = sum(map(mul, mrow, line))
    return out


def reconstruct_local(space: GlobalSpace, ci: int,
                      coeffs: Sequence[Fraction]) -> PolyField:
    """Restrict a global coefficient vector to one cell as a PolyField."""
    spec = shape_space(space.fam)
    box = space.mesh.cell_box(ci)
    h = tuple(box.h(a) for a in range(3))
    local = [coeffs[g] / s
             for g, s in zip(space.cell_maps[ci], _dof_scales(space.fam, h))]
    coords = [_F0] * spec.local_dimension()
    for u in _factor_table(space.fam):
        # applied in integers to the unit's cleared DOF values
        (vec,), (den,) = _exactcore.clear_denominators([[local[p] for p in u.dofs]])
        if u.inverses is None:
            inv, d = u.recon_rows
            vec = [sum(map(mul, row, vec)) for row in inv]
            den *= d
        else:
            # (T_x^-1 (x) T_y^-1 (x) T_z^-1) P^T by three axis passes
            shape = tuple(len(m) for m, _d in u.inverses)
            for axis, (m, d) in enumerate(u.inverses):
                vec = _axis_pass(vec, m, shape, axis)
                den *= d
        for i, v in enumerate(vec):
            coords[u.offset + i] = Fraction(v, den)
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


def _coeff_array(p: TensorPoly | None) -> tuple | None:
    """A component on one cell as ``(c, den, caps, memo)``: its coefficients
    as integers ``c`` over ``den`` on its own degree grid, and an empty memo
    of partial sums; None for a missing or zero component."""
    if p is None or p.is_zero():
        return None
    (c,), (den,) = _exactcore.clear_denominators([p.coeffs])
    return c, den, p.degree.caps, {}


def _contract(arr: tuple | None, f: tuple, tables: dict) -> Fraction:
    """``(t_x (x) t_y (x) t_z) c`` at ``h = 1``, for the 1-D functionals
    ``f`` and a component ``arr`` from :func:`_coeff_array`.

    z is contracted first, then y, then x; the array's memo keeps the
    partial sums per trailing functionals.  ``tables`` keeps each integer
    1-D table over its denominator, per cap and functional.
    """
    if arr is None:
        return _F0
    c, den, caps, memo = arr
    ts = []
    for cap, fa in zip(caps, f):
        t = tables.get((cap, fa))
        if t is None:
            (row,), (d,) = _exactcore.clear_denominators(
                [_axis_table(cap, *fa, Fraction(1))])
            t = tables[(cap, fa)] = (row, d)
        ts.append(t)
    (tx, dx), (ty, dy), (tz, dz) = ts
    sz = memo.get(f[2])
    if sz is None:
        n = caps[2] + 1
        sz = memo[f[2]] = [sum(map(mul, c[i:i + n], tz))
                           for i in range(0, len(c), n)]
    syz = memo.get(f[1:])
    if syz is None:
        n = caps[1] + 1
        syz = memo[f[1:]] = [sum(map(mul, sz[i:i + n], ty))
                             for i in range(0, len(sz), n)]
    return Fraction(sum(map(mul, syz, tx)), den * dx * dy * dz)


def interpolate(space: GlobalSpace,
                make_field: Callable[[int, CellBox], Mapping[str, TensorPoly]]
                ) -> list[Fraction]:
    """Apply every DOF to a globally smooth field given cell by cell.

    ``make_field(ci, box)`` returns the field on cell ``ci`` as components
    on ``box``, of any degrees; a missing component counts as zero.  Every
    DOF value equals ``elements.apply_dof`` on the cell (module docstring).
    Shared DOFs are evaluated from each adjacent cell and must agree; a
    mismatch means the supplied field is not single-valued.  Raises
    ``ValueError`` for a component that does not live on its cell's box.
    """
    fam = space.fam
    spec = shape_space(fam)
    bubbles = _bubbles_for(fam)
    funcs = [axis_functionals(d) for d in space.ref_dofs]
    needed = {d.component for d in space.ref_dofs} - {"diag"}
    pairings = []
    if bubbles is not None:
        needed.update(_DIAG_COMPS)
        # each coupled DOF pairs every diagonal component with its weight,
        # a sum of cell moments against monomials t^e
        pairings = [[(comp, tuple((0, w, None) for w in e), b)
                     for comp, bp in zip(_DIAG_COMPS, trip)
                     for e, b in bp.terms()] for trip in bubbles.triples]
    tables: dict = {}
    vals: list[Fraction | None] = [None] * space.dimension
    for ci in range(space.mesh.num_cells):
        box = space.mesh.cell_box(ci)
        field = make_field(ci, box)
        for comp, p in field.items():
            if p.cell != box:
                raise ValueError(
                    f"component {comp} of the field on cell {ci} lives on "
                    f"{p.cell}, not on the cell's box {box}")
        arrays = {comp: _coeff_array(_component_poly(field, comp, spec))
                  for comp in needed}
        scales = _dof_scales(fam, tuple(box.h(a) for a in range(3)))
        for dof, f, s, gi in zip(space.ref_dofs, funcs, scales,
                                 space.cell_maps[ci]):
            if dof.kind == "coupled":
                v = s * sum((b * _contract(arrays[comp], fm, tables)
                             for comp, fm, b in pairings[dof.bubble_index]), _F0)
            else:
                v = s * _contract(arrays[dof.component], f, tables)
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
        rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
        count = 0
        for line in fh:
            if not line.strip():
                continue
            si, sj, sv = line.split()
            v = Fraction(sv) if rational else Fraction(float(sv))
            if v:
                rows[int(si) - 1][int(sj) - 1] = v
            count += 1
        if count != nnz:
            raise ValueError(f"expected {nnz} entries, read {count}")
    return SparseMatrix.from_rational(nrows, ncols, rows)
