"""Global space assembly and exact operator matrices.

A global space numbers its degrees of freedom by entity offsets.  Every
DOF lives on one vertex, edge, face or cell, and every entity of one class
(vertex, edge by axis, face by normal, cell) carries the same DOFs, so a
DOF's global index is its entity's start plus its rank among the entity's
DOFs, and adjacent cells share it (entity-based DOF maps: Logg, IJCSE 4,
2009).  An assembled operator matrix is built from local blocks, one per
cell shape ``h``:

    K(h) = D_dst(h)  @  O(h)  @  R_src(h)

where ``R_src`` reconstructs monomial coordinates from source DOF values
(the inverse DOF matrix), ``O`` applies the operator in monomial
coordinates (one stencil per operator and source family,
``_operator_stencil``), and ``D_dst`` evaluates the target DOFs.

The reference pipeline is sum-factorised.  Every DOF that is not coupled
is a product of three 1-D functionals (a value or first derivative at an
end point, or a moment against ``t^w``).  ``elements.group_forms`` splits
each group into blocks, which ``_factor_table`` (once per family and
order) holds factored (Van Loan, JCAM 123, 2000), in integers:

* a *product* block, one component with DOFs exactly ``F_x x F_y x F_z``
  and ``|F_a| = cap_a + 1``, is ``P (T_x (x) T_y (x) T_z)`` for a row
  permutation ``P`` and square 1-D tables ``T_a``;
* a *fibred* block (an off-diagonal ``sigma-red`` component) has a grid
  ``F_a x F_b`` and, per pair ``(i, j)``, its own ``cap_c + 1``
  functionals ``G_ij`` on the third axis: ``P diag_ij(T_c,G_ij) (T_a (x)
  T_b (x) I)``, so its inverse needs 1-D inverses only;
* the *coupled* block (the ``xi-red`` diagonal) is ``[[M11, 0], [M21,
  G]]`` in coordinates ``[C; B]`` with ``B`` the bubble basis, inverted
  by block substitution with only ``M11`` and ``G`` inverted.

A derivative is a product of 1-D derivative matrices, so for a target
component ``t`` and a source component ``s`` (Orszag, JCP 37, 1980):

    K(1)[t, s] = sum coef * (x)_a (T_t,a @ Der_a^alpha_a @ T_s,a^-1)

over the stencil terms of ``s`` that land on ``t``, with the identity on
a fibre axis and on every axis of the coupled block.  Only the nonzeros of
the 1-D factors are expanded; the rest of each block's DOF matrix and
inverse follows as sparse integer products, and no dense ``R(1)`` is
formed.  ``K(1)`` is integer rows over one denominator ``D1``.
``reconstruct_local`` applies the same factors, the 1-D inverses as one
pass per axis.

Under the axis scaling ``x = lo + h t`` every family is affine-equivalent
to its unit-cell element, so the pipeline runs once per edge and order, on
the unit cell, and every cell shape follows from the exact identity

    K(h) = diag(a_dst(h))  @  K(1)  @  diag(1 / a_src(h)),
    a(dof, h) = dof_scale(dof, h) / w(family, dof.component, h).

``dof_scale``, the measure of the DOF's entity times ``h^-deriv``, gives
``D(h) = diag(dof_scale) D(1)``.  The component weight ``w``, what one
reference unit of a component is worth on the cell, gives ``O(h) =
diag(1 / w_dst) O(1) diag(w_src)``; down each ladder it is the source
weight times ``h`` of the differentiated axis.  Both are monomials
``h_x^m0 h_y^m1 h_z^m2``: ``dof_scale`` has ``m_a = 1 - deriv_a`` on an
axis the DOF's entity spans and ``-deriv_a`` on the others, and with
``H = h_x h_y h_z`` the weight of component ``a`` or ``ab`` is
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

The weight is constant on each component group, so it commutes with the
block-diagonal DOF matrices.  Only unit-cell objects are cached: blocks
per edge, factor and exponent tables per family and stencils per operator
and source family, each per order.  A cell shape costs one power product
per distinct exponent triple (``_exponent_table``).

``K(h)`` is scaled from ``K(1)`` nonzero by nonzero, in integers.  With
``a_i = n_i / d_i``, the entry ``a_i K(1)_ij / (D1 a_j)`` is stored as
``r_i K(1)_ij c_j`` over ``den_h = D1 lcm(d) lcm(n)``, where ``r_i = n_i
lcm(d) / d_i`` runs over the target DOFs and ``c_j = d_j lcm(n) / n_j``
over the source DOFs.  The scatter rescales each shape's block once by
``L // den_h``, with ``L`` the lcm of the ``den_h``, so the global matrix
is integer rows over ``L``, and its audit (:func:`operator_matrix`, one
premise of the composition certificate of ``verify.verify_complex``)
compares integers.  The reverse path, :func:`interpolate`, contracts
integer 1-D tables too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, perm
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _exactcore
from .elements import (DofFunctional, FamilyId, _COMP_POS, _DIAG_COMPS,
                       _axis_table, _bubbles_for, _catalog_functionals,
                       _component_poly, group_forms, local_dofs, shape_space,
                       triangular_blocks)
from .mesh import CuboidMesh
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


def _entity_class(label: tuple) -> tuple:
    """The class of a local entity label, as in ``CuboidMesh.entity_blocks``."""
    return label[:2] if label[0] in ("edge", "face") else label[:1]


def _class_name(cls: tuple) -> str:
    if len(cls) == 1:
        return cls[0]
    side = "along" if cls[0] == "edge" else "normal to"
    return f"{cls[0]} {side} {AXIS_NAMES[cls[1]]}"


def _rank_key(dof: DofFunctional) -> tuple:
    return (_COMP_POS[dof.component], dof.deriv, dof.weight, dof.bubble_index,
            dof.kind)


def _entity_ranks(fam: FamilyId, ref: list[DofFunctional], labels
                  ) -> tuple[list[int], dict[tuple, int]]:
    """Each catalog DOF's rank among the DOFs of its entity label, by
    ``(component, deriv, weight, bubble index, kind)``, and the number of
    DOFs on each entity of a class.  Every label of one class must carry
    the same ranked DOFs, or there is no one numbering of the class's
    entities; raises ``AssertionError`` naming the class otherwise."""
    by_label: dict[tuple, list[int]] = {label: [] for label in labels}
    for p, dof in enumerate(ref):
        by_label[dof.entity_label].append(p)
    ranks = [0] * len(ref)
    carried: dict[tuple, list] = {}
    for label, positions in by_label.items():
        positions.sort(key=lambda p: _rank_key(ref[p]))
        dofs = [_rank_key(ref[p]) for p in positions]
        cls = _entity_class(label)
        if carried.setdefault(cls, dofs) != dofs:
            raise AssertionError(f"{fam.name} k={fam.k}: the {_class_name(cls)} "
                                 f"labels do not all carry the same DOFs")
        for rank, p in enumerate(positions):
            ranks[p] = rank
    return ranks, {cls: len(dofs) for cls, dofs in carried.items()}


@dataclass
class GlobalSpace:
    """An assembled finite element space on a cuboid mesh: its
    ``dimension``, per cell the global index of each catalog DOF
    (``cell_maps``), and the unit-cell catalog ``ref_dofs``."""

    fam: FamilyId
    mesh: CuboidMesh
    dimension: int
    cell_maps: list[list[int]]
    ref_dofs: list[DofFunctional]

    def key(self, gi: int) -> tuple:
        """The identity of global DOF ``gi``, ``DofFunctional.dof_key`` of
        its global entity, read from the first cell that carries it."""
        for ci, cmap in enumerate(self.cell_maps):
            if gi in cmap:
                dof = self.ref_dofs[cmap.index(gi)]
                return dof.dof_key(self.mesh.cell_entity_ids(ci)[dof.entity_label])
        raise IndexError(f"no cell carries DOF {gi}")


def assemble_space(fam: FamilyId, mesh: CuboidMesh) -> GlobalSpace:
    """Number the family's DOFs on the mesh by entity offsets: the entities
    in the order of ``CuboidMesh.entity_blocks``, each with the DOFs of its
    class in rank order (:func:`_entity_ranks`), so a DOF's global index is
    its entity's start plus its rank."""
    ref = local_dofs(fam)
    labels = mesh.cell_entity_ids(0)
    ranks, counts = _entity_ranks(fam, ref, labels)
    # per class, the start of its entity with id 0 and the DOFs on each
    offsets, dimension = {}, 0
    for cls, size, first in mesh.entity_blocks():
        n = counts[cls]
        offsets[cls] = (dimension - first * n, n)
        dimension += size * n
    per_label = [(label, *offsets[_entity_class(label)]) for label in labels]
    layout = [(dof.entity_label, r) for dof, r in zip(ref, ranks)]
    # one int object per DOF, shared by every cell that carries it
    numbers = list(range(dimension))
    cell_maps = []
    for ci in range(mesh.num_cells):
        ids = mesh.cell_entity_ids(ci)
        starts = {label: b + ids[label][1] * n for label, b, n in per_label}
        cell_maps.append([numbers[starts[label] + r] for label, r in layout])
    return GlobalSpace(fam, mesh, dimension, cell_maps, ref)


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
    for dof, funcs in zip(local_dofs(fam), _catalog_functionals(fam)):
        scale = tuple((side is None) - d for d, _w, side in funcs)
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


class _Unit(NamedTuple):
    """One block of a family's factor table, from one ``GroupForm``: its
    DOF matrix is ``P @ Dof @ (T_x (x) T_y (x) T_z)`` and its inverse
    ``(T_x^-1 (x) T_y^-1 (x) T_z^-1) @ R_1 @ ... @ R_m @ P^T``, with ``P``
    putting row ``i`` at catalog position ``dofs[i]``.  ``tables`` and
    ``inverses`` hold the ``T_a`` and ``T_a^-1`` (None: the identity),
    ``dof_rows`` ``Dof`` (None: the identity) and ``recon`` the ``R_i``, all
    as integer rows over a denominator.  ``comps`` holds each component's
    coordinate offset in the unit and caps; ``offset`` is the unit's."""

    comps: tuple[tuple[str, int, tuple[int, int, int]], ...]
    offset: int
    dofs: tuple[int, ...]
    tables: tuple = (None, None, None)
    inverses: tuple = (None, None, None)
    dof_rows: tuple | None = None
    recon: tuple = ()


def _int_rows(mat: list) -> tuple[list, int]:
    """Rational rows, dense or sparse, as integer rows over one denominator."""
    rows, dens = _exactcore.clear_denominators(mat, common=True)
    return rows, dens[0]


def _int_inverse(mat: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """The exact inverse of a square rational matrix as integer rows over a
    denominator."""
    # mat = diag(1 / dens) @ imat, so mat^-1 = imat^-1 @ diag(dens)
    imat, dens = _exactcore.clear_denominators(mat)
    inv, den = _exactcore.fj_inverse(imat)
    return [[v * d for v, d in zip(row, dens)] for row in inv], den


def _block_diag(blocks, lines: list[Sequence[int]]) -> tuple[list, int]:
    """Square blocks of ``(integer rows, denominator)`` as one sparse matrix
    over one denominator, block ``i`` on the indices ``lines[i]``."""
    den = lcm(*(d for _rows, d in blocks))
    out: list[dict[int, int]] = [{} for _ in range(sum(map(len, lines)))]
    for line, (rows, d) in zip(lines, blocks):
        for i, row in zip(line, rows):
            out[i] = {line[j]: v * (den // d) for j, v in enumerate(row) if v}
    return out, den


@lru_cache(maxsize=None)
def _unit_tables(cap: int, functionals: tuple) -> tuple[tuple, tuple]:
    """The square 1-D table of ``functionals`` (``(deriv, weight, side)``
    each) on ``t^e``, e = 0..cap, at ``h = 1``, and its inverse, each as
    integer rows over a denominator; once per cap and functional list."""
    tab = [_axis_table(cap, *f, Fraction(1)) for f in functionals]
    return _int_rows(tab), _int_inverse(tab)


def _fibred_unit(spec, form, off: int) -> _Unit:
    """A product or fibred block: 1-D tables and inverses, the identity on a
    fibre axis, and there ``Dof`` and ``R_1`` block diagonal by fibre."""
    comp = form.comps[0]
    caps = spec.degrees[comp].caps
    n = [c + 1 for c in caps]
    tables: list = [None] * 3
    inverses, dof_rows, recon = tables[:], None, ()
    for a, lists in enumerate(form.axes):
        tabs = [_unit_tables(caps[a], tuple(fl)) for fl in lists]
        if len(tabs) == 1:
            tables[a], inverses[a] = tabs[0]
            continue
        stride = (n[1] * n[2], n[2], 1)
        x, y = (o for o in range(3) if o != a)
        lines = [[i * stride[x] + j * stride[y] + m * stride[a] for m in range(n[a])]
                 for i in range(n[x]) for j in range(n[y])]
        dof_rows = _block_diag([t for t, _inv in tabs], lines)
        recon = (_block_diag([inv for _t, inv in tabs], lines),)
    return _Unit(((comp, 0, caps),), off, form.dofs, tuple(tables),
                 tuple(inverses), dof_rows, recon)


def _coupled_unit(fam: FamilyId, spec, form, off: int) -> _Unit:
    """A coupled block by block substitution: with ``D E = [[M11, 0],
    [M21, G]]`` (``elements.triangular_blocks``) its inverse is ``E @
    diag(I, G^-1) @ [[I, 0], [-M21, I]] @ diag(M11^-1, I)``, so only
    ``M11`` and ``G`` are inverted."""
    blocks = triangular_blocks(fam, form)
    if blocks is None:
        raise AssertionError(f"{fam.name} k={fam.k}: the coupled DOF block "
                             f"is not block triangular")
    D, E, T, npiv = blocks
    n = len(D)
    dense = [[r.get(j, _F0) for j in range(n)] for r in T]
    ginv, gd = _int_inverse([r[npiv:] for r in dense[npiv:]])
    minv, md = _int_inverse([r[:npiv] for r in dense[:npiv]])
    m21, d = _int_rows([r[:npiv] for r in dense[npiv:]])
    recon = (_int_rows(E),
             ([{t: gd} for t in range(npiv)]
              + [{npiv + j: v for j, v in enumerate(r) if v} for r in ginv], gd),
             ([{t: d} for t in range(npiv)]
              + [{**{t: -v for t, v in enumerate(r) if v}, npiv + i: d}
                 for i, r in enumerate(m21)], d),
             ([{j: v for j, v in enumerate(r) if v} for r in minv]
              + [{t: md} for t in range(npiv, n)], md))
    grid = spec.degrees[form.comps[0]]   # one grid for the whole diagonal
    comps = tuple((c, i * grid.dim(), grid.caps) for i, c in enumerate(form.comps))
    return _Unit(comps, off, form.dofs,
                 dof_rows=_int_rows([dict(enumerate(r)) for r in D]), recon=recon)


@lru_cache(maxsize=None)
def _factor_table(fam: FamilyId) -> tuple[_Unit, ...]:
    """The unit-cell DOF blocks in factored form, once per family and
    order, one unit per ``GroupForm``, in coordinate order."""
    spec = shape_space(fam)
    units: list[_Unit] = []
    off = 0
    for gname, forms in group_forms(fam).items():
        if forms is None:
            raise AssertionError(f"{fam.name} k={fam.k} group {gname}: DOF "
                                 f"block of no known structure")
        for form in forms:
            units.append(_coupled_unit(fam, spec, form, off) if form.axes is None
                         else _fibred_unit(spec, form, off))
            off += len(form.dofs)
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
    exponent ``P - alpha`` is one derivative ``d^alpha`` of the probe, with
    constant coefficient its value over ``P!/(P - alpha)!``; every
    derivative not vanishing on the grid leaves one.  If the probe column
    passes :func:`check_membership`, so does every column ``t^e``: it has
    the probe's derivatives at ``e - alpha``, each scaled by one factor in
    every output component.  Returns ``{c: {output key: ((alpha, coef),
    ...)}}``, a symmetric output with its transposed keys too.
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
    rows over one common denominator, expanding only the nonzeros of the
    1-D factors.  ``left_a``/``right_a`` None is the identity; ``memo``
    keeps the 1-D factors of one edge.
    """
    scaled = []
    for alpha, coef in terms:
        mats = []
        den = coef.denominator
        for a in range(3):
            la, ra = left[a], right[a]
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

    For target unit ``U`` and source unit ``V`` the block is ``P_U @ Dof_U
    @ (sum coef * (x)_a (T_t,a @ Der_a^alpha_a @ T_s,a^-1)) @ R_V,1 @ ...
    @ P_V^T`` over the stencil terms of each component pair (``_Unit``).
    Every block is integer rows over its own denominator, rescaled to the
    lcm of them all.  Returns ``(rows, den)``.
    """
    stencil = _operator_stencil(op_name, src)
    src_spec = shape_space(src)
    dst_spec = shape_space(dst)
    for comp, terms in stencil.items():
        # the probe column stands for every column (_operator_stencil)
        check_membership(_stencil_column(terms, src_spec.degrees[comp].caps),
                         dst_spec)
    where = {c: (u, local, caps)
             for u in _factor_table(dst) for c, local, caps in u.comps}
    pieces: list[tuple[Sequence[int], list[dict[int, int]], int]] = []
    memo: dict = {}
    for v in _factor_table(src):
        blocks: dict[int, tuple[_Unit, list]] = {}
        # columns go to their catalog positions now if no factor follows
        cmap = range(len(v.dofs)) if v.recon else v.dofs
        for s, s_local, s_caps in v.comps:
            for t, terms in stencil[s].items():
                if not terms or t not in where:
                    continue
                u, t_local, t_caps = where[t]
                acc, den = _kron_sum(terms, u.tables, v.inverses, t_caps,
                                     s_caps, memo)
                rows = [{cmap[s_local + j]: x for j, x in row.items() if x}
                        for row in acc]
                blocks.setdefault(id(u), (u, []))[1].append(
                    (range(t_local, t_local + len(acc)), rows, den))
        for u, parts in blocks.values():
            whole = len(parts) == 1 and parts[0][0] == range(len(u.dofs))
            rows, den = parts[0][1:] if whole else _over_lcm(parts, len(u.dofs))
            if u.dof_rows is not None:
                rows = _exactcore.spmul(u.dof_rows[0], rows)
                den *= u.dof_rows[1]
            for f, d in v.recon:
                rows = _exactcore.spmul(rows, f)
                den *= d
            if v.recon:
                rows = [{v.dofs[j]: x for j, x in row.items()} for row in rows]
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

    def entries(self):
        den = self.den
        for i, r in enumerate(self.rows):
            for j, v in sorted(r.items()):
                yield i, j, Fraction(v, den)


class ConformityError(AssertionError):
    """Adjacent cells disagreed about a shared target DOF value."""


def _conformity_error(src: GlobalSpace, dst: GlobalSpace, gi: int, ci: int,
                      stored: dict[int, int], mine: dict[int, int],
                      L: int) -> ConformityError:
    """Why cell ``ci``'s row ``mine`` of target DOF ``gi`` differs from
    ``stored``, the row of the first cell that carries ``gi``: a source DOF
    one of the two cells does not carry, an entry only one of them holds,
    or a value they disagree on (all over ``L``)."""
    first = next(c for c, cmap in enumerate(dst.cell_maps) if gi in cmap)
    shared = set(src.cell_maps[first]).intersection(src.cell_maps[ci])
    diff = sorted(gj for gj in stored.keys() | mine.keys()
                  if stored.get(gj) != mine.get(gj))
    for gj in diff:
        if gj not in shared:
            return ConformityError(
                f"target DOF {dst.key(gi)} receives a one-sided "
                f"contribution from source DOF {src.key(gj)}")
    if any(gj not in stored or gj not in mine for gj in diff):
        return ConformityError(f"zero/nonzero clash at target DOF {dst.key(gi)}")
    gj = diff[0]
    return ConformityError(f"cells disagree at target DOF {dst.key(gi)}: "
                           f"{Fraction(stored[gj], L)} vs {Fraction(mine[gj], L)}")


def operator_matrix(op_name: str, src: GlobalSpace, dst: GlobalSpace) -> SparseMatrix:
    """Assemble the global operator matrix (target dim by source dim).

    One pass over the cells: each cell's row of a target DOF, read through
    its ``cell_maps``, is stored by the first cell that carries the DOF and
    must equal it in every later one, as a dict.  So every stored row is
    the row of every cell that carries its target DOF.  Raises
    :class:`ConformityError` when a stored entry comes from a source DOF
    one cell does not carry (a one-sided contribution), only one of the
    cells holds an entry (a zero/nonzero clash) or they hold different
    values (the cells disagree).
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
    rows: list = [None] * dst.dimension
    for ci, h in enumerate(shapes):
        smap = src.cell_maps[ci]
        for gi, krow in zip(dst.cell_maps[ci], scaled[h]):
            mine = {smap[j]: v for j, v in krow.items()}
            stored = rows[gi]
            if stored is None:
                rows[gi] = mine
            elif stored != mine:
                raise _conformity_error(src, dst, gi, ci, stored, mine, L)
    return SparseMatrix(dst.dimension, src.dimension, rows, L)


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
        # R_m, ..., R_1 on the cleared DOF values, then one pass per T_a^-1
        (vec,), (den,) = _exactcore.clear_denominators([[local[p] for p in u.dofs]])
        for rows, d in reversed(u.recon):
            vec = [sum(x * vec[j] for j, x in row.items()) for row in rows]
            den *= d
        shape = tuple(c + 1 for c in u.comps[0][2])
        for axis, inv in enumerate(u.inverses):
            if inv is not None:
                vec = _axis_pass(vec, inv[0], shape, axis)
                den *= inv[1]
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
    return PolyField(spec.kind, comps, box, symmetric=spec.symmetric)


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
    DOF value equals ``elements.apply_dof`` on the cell; a coupled DOF is
    a sum of cell moments against the monomials of its bubble triple.
    Shared DOFs are evaluated from each adjacent cell and must agree; a
    mismatch means the supplied field is not single-valued.  Raises
    ``ValueError`` for a component that does not live on its cell's box.
    """
    fam = space.fam
    spec = shape_space(fam)
    bubbles = _bubbles_for(fam)
    funcs = _catalog_functionals(fam)
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
    scales_by_shape: dict = {}
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
        h = tuple(box.h(a) for a in range(3))
        scales = scales_by_shape.get(h)
        if scales is None:
            scales = scales_by_shape[h] = _dof_scales(fam, h)
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
                    f"field is multivalued at DOF {space.key(gi)}: "
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


#: the Matrix Market header qualifiers :func:`read_matrix_market` reads:
#: format, field and symmetry
_MM_QUALIFIERS = (("coordinate",), ("real", "integer", "rational"),
                  ("general",))


def read_matrix_market(path: str) -> SparseMatrix:
    """Load a coordinate Matrix Market file of real, integer or rational
    entries stored in full (``general``).  Any other qualifier in the
    header, such as ``symmetric``, ``pattern`` or ``array``, raises
    ``ValueError`` naming it.  An entry whose 1-based index lies outside
    the declared shape, or that repeats an earlier ``(i, j)``, raises
    ``ValueError`` naming its line, and so does a file without its header
    or its size line."""
    with open(path) as fh:
        lines = enumerate(fh, 1)
        _, header = next(lines, (0, ""))
        if not header:
            raise ValueError("empty file, no MatrixMarket header line")
        words = header.lower().split()
        if words[:2] != ["%%matrixmarket", "matrix"] or len(words) != 5:
            raise ValueError("not a MatrixMarket matrix file")
        bad = [w for w, known in zip(words[2:], _MM_QUALIFIERS)
               if w not in known]
        if bad:
            raise ValueError(f"MatrixMarket {' '.join(bad)} matrices are not "
                             f"supported, only coordinate real, integer or "
                             f"rational general ones")
        rational = words[3] == "rational"
        line = next((line for _, line in lines
                     if not line.startswith("%")), None)
        if line is None:
            raise ValueError("no size line after the MatrixMarket header")
        nrows, ncols, nnz = (int(t) for t in line.split())
        # zeros are stored too, so a repeat shows; from_rational drops them
        rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
        count = 0
        for lineno, line in lines:
            if not line.strip():
                continue
            si, sj, sv = line.split()
            i, j = int(si) - 1, int(sj) - 1
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"line {lineno}: entry ({si}, {sj}) is "
                                 f"outside the {nrows}x{ncols} matrix")
            if j in rows[i]:
                raise ValueError(f"line {lineno}: entry ({si}, {sj}) repeats")
            rows[i][j] = Fraction(sv) if rational else Fraction(float(sv))
            count += 1
        if count != nnz:
            raise ValueError(f"expected {nnz} entries, read {count}")
    return SparseMatrix.from_rational(nrows, ncols, rows)
