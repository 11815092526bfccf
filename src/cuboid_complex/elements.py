"""The element catalog: shape spaces, degrees of freedom, unisolvency.

Thirteen families are provided, identified by short names:

========== ===================================================== ======
name       space                                                 min k
========== ===================================================== ======
u          scalar, twice-differentiable across faces              3
sigma      symmetric matrix, tangential-tangential smooth         3
xi         traceless matrix, normal-row smooth                    3
q          vector, fully discontinuous (moment-matched)           3
sigma-red  reduced-regularity variant of ``sigma``                3
xi-red     reduced variant of ``xi`` with coupled diagonal        3
q-red      cell-moment-only variant of ``q``                      3
x          vector, continuous with extra tangential smoothness    2
phi        alias for ``sigma`` at order k+1                       2
gamma      symmetric matrix, normal-column smooth                 2
gamma-red  reduced-regularity variant of ``gamma``                2
z          vector, discontinuous, face-moment matched             2
z-red      cell-moment-only variant of ``z``                      2
========== ===================================================== ======

Every family is described per matrix/vector component by anisotropic
degree grids (see :class:`~cuboid_complex.polytensor.Degree3`) and by a
list of :class:`DofFunctional`.  DOFs attach to reference-cell entities;
derivative multi-indices never exceed one per axis, weights are monomials
in entity-normalized coordinates.  The traceless families store the
diagonal as the two independent components (xx, yy); zz is their negative
sum.  Component patterns are generated parametrically in the axes, which
bakes in the cyclic x -> y -> z -> x covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import lcm, prod
from typing import Iterable, Mapping, NamedTuple

from . import _exactcore
from .mesh import _EDGE_SIDES, _VERTEX_CORNERS
from .polytensor import (AXIS_NAMES, CellBox, Degree3, EntityRef, TensorPoly,
                         UNIT_BOX, degree_from_caps, moment, monomial_weight)

FAMILY_NAMES = ("u", "sigma", "xi", "q", "sigma-red", "xi-red", "q-red",
                "x", "phi", "gamma", "gamma-red", "z", "z-red")

_MIN_K = {"u": 3, "sigma": 3, "xi": 3, "q": 3, "sigma-red": 3, "xi-red": 3,
          "q-red": 3, "x": 2, "phi": 2, "gamma": 2, "gamma-red": 2,
          "z": 2, "z-red": 2}

# Storage component keys, in the fixed order used for DOF sorting.
COMPONENT_ORDER = ("s", "x", "y", "z",
                   "xx", "yy", "zz", "xy", "xz", "yx", "yz", "zx", "zy",
                   "diag")
_COMP_POS = {c: i for i, c in enumerate(COMPONENT_ORDER)}

_VEC_COMPS = ("x", "y", "z")
_SYM_COMPS = ("xx", "yy", "zz", "xy", "xz", "yz")
_DIAG_COMPS = ("xx", "yy", "zz")
_OFF_PAIRS_SYM = ((0, 1), (0, 2), (1, 2))
_OFF_PAIRS_FULL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def comp_name(*axes: int) -> str:
    return "".join(AXIS_NAMES[a] for a in axes)


def _others(a: int) -> tuple[int, int]:
    """The two remaining axes, in increasing order."""
    return tuple(x for x in range(3) if x != a)  # type: ignore[return-value]


def _third(a: int, b: int) -> int:
    return 3 - a - b


def _unit(axis: int) -> tuple[int, int, int]:
    e = [0, 0, 0]
    e[axis] = 1
    return tuple(e)  # type: ignore[return-value]


def _dsum(d1, d2):
    return (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2])


_D0 = (0, 0, 0)
_F0 = Fraction(0)


@dataclass(frozen=True)
class FamilyId:
    """A family name together with an admissible polynomial order."""

    name: str
    k: int

    def __post_init__(self) -> None:
        if self.name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.name!r}")
        if self.k < _MIN_K[self.name]:
            raise ValueError(
                f"family {self.name!r} requires k >= {_MIN_K[self.name]}, got {self.k}")


def family(name: str, k: int) -> FamilyId:
    return FamilyId(name, k)


def min_order(name: str) -> int:
    return _MIN_K[name]


def _resolve(fam: FamilyId) -> tuple[str, int]:
    """Fold the ``phi`` alias onto its base family."""
    if fam.name == "phi":
        return ("sigma", fam.k + 1)
    return (fam.name, fam.k)


# ---------------------------------------------------------------------------
# shape spaces


@dataclass(frozen=True)
class ComponentGroup:
    """Components whose DOFs and monomial coordinates form one block.

    For all families but the traceless diagonal this is a single component.
    The traceless diagonal couples (xx, yy, zz) with zz = -(xx + yy), so the
    group stores three components but only two independent ones.
    """

    name: str
    components: tuple[str, ...]
    independent: tuple[str, ...]


@dataclass(frozen=True)
class ShapeSpaceSpec:
    """Per-component degree grids plus the component group structure."""

    kind: str                     # "scalar" | "vector" | "matrix"
    symmetric: bool
    traceless: bool
    degrees: dict[str, Degree3]
    groups: tuple[ComponentGroup, ...]

    def group_coords(self, group: ComponentGroup) -> list[tuple[str, tuple[int, int, int]]]:
        """Independent monomial coordinates of a group, in canonical order."""
        out = []
        for c in group.independent:
            out.extend((c, e) for e in self.degrees[c].exponents())
        return out

    def local_dimension(self) -> int:
        return sum(len(self.group_coords(g)) for g in self.groups)

    def group_of(self, component: str) -> ComponentGroup:
        for g in self.groups:
            if component in g.components or component == g.name:
                return g
        raise KeyError(component)


@lru_cache(maxsize=None)
def shape_space(fam: FamilyId) -> ShapeSpaceSpec:
    name, k = _resolve(fam)
    if name == "u":
        return ShapeSpaceSpec("scalar", False, False,
                              {"s": Degree3(k, k, k)},
                              (ComponentGroup("s", ("s",), ("s",)),))
    if name in ("q", "q-red"):
        degs = {}
        for a in range(3):
            degs[comp_name(a)] = degree_from_caps({a: k - 2}, k - 1)
        groups = tuple(ComponentGroup(c, (c,), (c,)) for c in _VEC_COMPS)
        return ShapeSpaceSpec("vector", False, False, degs, groups)
    if name == "x":
        degs = {}
        for a in range(3):
            degs[comp_name(a)] = degree_from_caps({a: k}, k + 1)
        groups = tuple(ComponentGroup(c, (c,), (c,)) for c in _VEC_COMPS)
        return ShapeSpaceSpec("vector", False, False, degs, groups)
    if name in ("z", "z-red"):
        degs = {}
        for a in range(3):
            degs[comp_name(a)] = degree_from_caps({a: k}, k - 1)
        groups = tuple(ComponentGroup(c, (c,), (c,)) for c in _VEC_COMPS)
        return ShapeSpaceSpec("vector", False, False, degs, groups)
    if name in ("sigma", "sigma-red"):
        degs = {}
        for a in range(3):
            degs[comp_name(a, a)] = degree_from_caps({a: k - 2}, k)
        for a, b in _OFF_PAIRS_SYM:
            degs[comp_name(a, b)] = degree_from_caps({a: k - 1, b: k - 1}, k)
        groups = tuple(ComponentGroup(c, (c,), (c,)) for c in _SYM_COMPS)
        return ShapeSpaceSpec("matrix", True, False, degs, groups)
    if name in ("gamma", "gamma-red"):
        degs = {}
        for a in range(3):
            degs[comp_name(a, a)] = degree_from_caps({a: k + 1}, k - 1)
        for a, b in _OFF_PAIRS_SYM:
            degs[comp_name(a, b)] = degree_from_caps({a: k, b: k}, k - 1)
        groups = tuple(ComponentGroup(c, (c,), (c,)) for c in _SYM_COMPS)
        return ShapeSpaceSpec("matrix", True, False, degs, groups)
    if name in ("xi", "xi-red"):
        degs = {c: Degree3(k - 1, k - 1, k - 1) for c in _DIAG_COMPS}
        for a, b in _OFF_PAIRS_FULL:
            degs[comp_name(a, b)] = degree_from_caps({a: k - 2, b: k}, k - 1)
        groups = (ComponentGroup("diag", _DIAG_COMPS, ("xx", "yy")),) + tuple(
            ComponentGroup(comp_name(a, b), (comp_name(a, b),), (comp_name(a, b),))
            for a, b in _OFF_PAIRS_FULL)
        return ShapeSpaceSpec("matrix", False, True, degs, groups)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# degrees of freedom


@dataclass(frozen=True)
class DofFunctional:
    """One degree of freedom.

    ``entity_label`` is the cell-local entity tag; ``entity`` its geometric
    realization (on the reference cell for catalog DOFs, on a physical cell
    after binding).  ``kind`` is "point", "moment" or "coupled"; a coupled
    DOF pairs the traceless diagonal against one member of the cell bubble
    basis, selected by ``bubble_index``.
    """

    entity_label: tuple
    entity: EntityRef
    component: str
    deriv: tuple[int, int, int]
    weight: tuple[int, int, int]
    kind: str
    bubble_index: int = -1

    def sort_key(self):
        return (_entity_sort_key(self.entity_label), _COMP_POS[self.component],
                self.deriv, self.weight, self.bubble_index)

    def dof_key(self, entity_id: tuple[str, int]):
        """Global identity of the functional, shared across adjacent cells."""
        return (entity_id, self.component, self.deriv, self.weight,
                self.kind, self.bubble_index)


def _entity_sort_key(label: tuple) -> tuple[int, int]:
    kind = label[0]
    if kind == "vertex":
        c = label[1]
        return (0, 4 * c[0] + 2 * c[1] + c[2])
    if kind == "edge":
        _, axis, (s1, s2) = label
        return (1, 4 * axis + 2 * s1 + s2)
    if kind == "face":
        _, normal, side = label
        return (2, 2 * normal + side)
    return (3, 0)


def entity_ref_for(label: tuple, cell: CellBox) -> EntityRef:
    """Geometric realization of a local entity label on a given cell."""
    kind = label[0]
    if kind == "vertex":
        corner = label[1]
        p = tuple(cell.hi[a] if corner[a] else cell.lo[a] for a in range(3))
        return EntityRef("vertex", CellBox(p, p))
    if kind == "edge":
        _, axis, sides = label
        o1, o2 = _others(axis)
        lo = list(cell.lo)
        hi = list(cell.hi)
        for o, s in zip((o1, o2), sides):
            v = cell.hi[o] if s else cell.lo[o]
            lo[o] = hi[o] = v
        return EntityRef("edge", CellBox(tuple(lo), tuple(hi)))
    if kind == "face":
        _, normal, side = label
        lo = list(cell.lo)
        hi = list(cell.hi)
        v = cell.hi[normal] if side else cell.lo[normal]
        lo[normal] = hi[normal] = v
        return EntityRef("face", CellBox(tuple(lo), tuple(hi)))
    if kind == "cell":
        return EntityRef("cell", cell)
    raise ValueError(f"bad entity label {label!r}")


class _DofBuilder:
    """Accumulates raw DOF tuples for one family on the unit cell, with one
    entity per label."""

    def __init__(self):
        self.raw: list[DofFunctional] = []
        self.entities: dict[tuple, EntityRef] = {}

    def _add(self, label, component, deriv, weight, kind, bubble_index=-1):
        entity = self.entities.get(label)
        if entity is None:
            entity = self.entities[label] = entity_ref_for(label, UNIT_BOX)
        self.raw.append(DofFunctional(label, entity, component, deriv, weight,
                                      kind, bubble_index))

    def at_vertices(self, component: str, derivs: Iterable[tuple[int, int, int]]):
        for corner in _VERTEX_CORNERS:
            for d in derivs:
                self._add(("vertex", corner), component, d, _D0, "point")

    def on_edges(self, component: str, axis: int,
                 derivs: Iterable[tuple[int, int, int]], weight_cap: int):
        if weight_cap < 0:
            return
        for sides in _EDGE_SIDES:
            for d in derivs:
                for w in range(weight_cap + 1):
                    wexp = [0, 0, 0]
                    wexp[axis] = w
                    self._add(("edge", axis, sides), component, d, tuple(wexp), "moment")

    def on_faces(self, component: str, normal: int,
                 derivs: Iterable[tuple[int, int, int]], caps: dict[int, int]):
        o1, o2 = _others(normal)
        grid = degree_from_caps({o1: caps.get(o1, 0), o2: caps.get(o2, 0), normal: 0}, 0)
        if grid.is_empty:
            return
        for side in (0, 1):
            for d in derivs:
                for w in grid.exponents():
                    self._add(("face", normal, side), component, d, w, "moment")

    def in_cell(self, component: str, caps: dict[int, int]):
        grid = degree_from_caps(caps, 0)
        if grid.is_empty:
            return
        for w in grid.exponents():
            self._add(("cell",), component, _D0, w, "moment")

    def coupled_cell(self, component: str, count: int):
        for i in range(count):
            self._add(("cell",), component, _D0, _D0, "coupled", i)


def _dofs_u(b: _DofBuilder, k: int) -> None:
    all_derivs = sorted(product((0, 1), repeat=3))
    b.at_vertices("s", all_derivs)
    for a in range(3):
        o1, o2 = _others(a)
        derivs = sorted([_D0, _unit(o1), _unit(o2), _dsum(_unit(o1), _unit(o2))])
        b.on_edges("s", a, derivs, k - 4)
    for n in range(3):
        o1, o2 = _others(n)
        b.on_faces("s", n, sorted([_D0, _unit(n)]), {o1: k - 4, o2: k - 4})
    b.in_cell("s", {0: k - 4, 1: k - 4, 2: k - 4})


def _dofs_sigma_diag(b: _DofBuilder, k: int, a: int, reduced: bool) -> None:
    comp = comp_name(a, a)
    o1, o2 = _others(a)
    if reduced:
        b.on_edges(comp, a, [_D0], k - 2)
    else:
        derivs = sorted([_D0, _unit(o1), _unit(o2), _dsum(_unit(o1), _unit(o2))])
        b.on_edges(comp, a, derivs, k - 2)
    tang_cap = k - 2 if reduced else k - 4
    # faces containing the axis a: normal o2 spans (a, o1), normal o1 spans (a, o2)
    for other, normal in ((o1, o2), (o2, o1)):
        derivs = [_D0] if reduced else sorted([_D0, _unit(normal)])
        b.on_faces(comp, normal, derivs, {a: k - 2, other: tang_cap})
    b.in_cell(comp, {a: k - 2, o1: tang_cap, o2: tang_cap})


def _dofs_sigma_off(b: _DofBuilder, k: int, a: int, bx: int, reduced: bool) -> None:
    comp = comp_name(a, bx)
    c = _third(a, bx)
    dz = _unit(c)
    b.at_vertices(comp, sorted([_D0, dz]))
    b.on_edges(comp, a, sorted([_D0, dz]), k - 3)
    b.on_edges(comp, bx, sorted([_D0, dz]), k - 3)
    b.on_edges(comp, c, [_D0], k - 4)
    face_ab_derivs = [_D0] if reduced else sorted([_D0, dz])
    b.on_faces(comp, c, face_ab_derivs, {a: k - 3, bx: k - 3})
    b.on_faces(comp, bx, [_D0], {a: k - 3, c: k - 4})
    b.on_faces(comp, a, [_D0], {bx: k - 3, c: k - 4})
    b.in_cell(comp, {a: k - 3, bx: k - 3, c: (k - 2 if reduced else k - 4)})


def _dofs_xi_diag(b: _DofBuilder, k: int) -> None:
    # Lagrange-style grids for the two independent diagonal components.
    for comp in ("xx", "yy"):
        b.at_vertices(comp, [_D0])
        for a in range(3):
            b.on_edges(comp, a, [_D0], k - 3)
        for n in range(3):
            o1, o2 = _others(n)
            b.on_faces(comp, n, [_D0], {o1: k - 3, o2: k - 3})
        b.in_cell(comp, {0: k - 3, 1: k - 3, 2: k - 3})


def _dofs_xi_off(b: _DofBuilder, k: int, a: int, bx: int) -> None:
    comp = comp_name(a, bx)
    c = _third(a, bx)
    db = _unit(bx)
    b.on_edges(comp, a, sorted([_D0, db]), k - 2)
    b.on_faces(comp, c, [_D0], {a: k - 2, bx: k - 4})
    b.on_faces(comp, bx, sorted([_D0, db]), {a: k - 2, c: k - 3})
    b.in_cell(comp, {a: k - 2, bx: k - 4, c: k - 3})


def _dofs_xired_diag(b: _DofBuilder, k: int) -> None:
    # Values and edge/face moments; the third diagonal component is
    # determined by the zero-trace constraint, so only two independent
    # values per vertex and per edge weight survive.  Face moments pick the
    # component matching the face normal; cell moments couple all three
    # against the divergence-free-trace bubble basis.
    for comp in ("xx", "yy"):
        b.at_vertices(comp, [_D0])
        for a in range(3):
            b.on_edges(comp, a, [_D0], k - 3)
    for n in range(3):
        o1, o2 = _others(n)
        b.on_faces(comp_name(n, n), n, [_D0], {o1: k - 3, o2: k - 3})
    b.coupled_cell("diag", 2 * (k - 2) ** 2 * (k + 1))


def _dofs_xired_off(b: _DofBuilder, k: int, a: int, bx: int) -> None:
    comp = comp_name(a, bx)
    c = _third(a, bx)
    b.on_faces(comp, bx, [_D0], {a: k - 2, c: k - 1})
    b.in_cell(comp, {a: k - 2, bx: k - 2, c: k - 1})


def _dofs_q(b: _DofBuilder, k: int, a: int) -> None:
    comp = comp_name(a)
    o1, o2 = _others(a)
    b.on_edges(comp, a, [_D0], k - 2)
    b.on_faces(comp, o2, [_D0], {a: k - 2, o1: k - 3})
    b.on_faces(comp, o1, [_D0], {a: k - 2, o2: k - 3})
    b.in_cell(comp, {a: k - 2, o1: k - 3, o2: k - 3})


def _dofs_qred(b: _DofBuilder, k: int, a: int) -> None:
    o1, o2 = _others(a)
    b.in_cell(comp_name(a), {a: k - 2, o1: k - 1, o2: k - 1})


def _dofs_x(b: _DofBuilder, k: int, a: int) -> None:
    comp = comp_name(a)
    # tangential axes in cyclic order: x -> (y, z), y -> (z, x), z -> (x, y)
    bb = (a + 1) % 3
    cc = (a + 2) % 3
    derivs4 = sorted([_D0, _unit(bb), _unit(cc), _dsum(_unit(bb), _unit(cc))])
    b.at_vertices(comp, derivs4)
    b.on_edges(comp, a, derivs4, k - 2)
    b.on_edges(comp, bb, sorted([_D0, _unit(cc)]), k - 3)
    b.on_edges(comp, cc, sorted([_D0, _unit(bb)]), k - 3)
    b.on_faces(comp, a, [_D0], {bb: k - 3, cc: k - 3})
    b.on_faces(comp, cc, sorted([_D0, _unit(cc)]), {a: k - 2, bb: k - 3})
    b.on_faces(comp, bb, sorted([_D0, _unit(bb)]), {a: k - 2, cc: k - 3})
    b.in_cell(comp, {a: k - 2, bb: k - 3, cc: k - 3})


def _dofs_gamma_diag(b: _DofBuilder, k: int, a: int, reduced: bool) -> None:
    comp = comp_name(a, a)
    o1, o2 = _others(a)
    derivs = [_D0] if reduced else sorted([_D0, _unit(a)])
    b.on_faces(comp, a, derivs, {o1: k - 1, o2: k - 1})
    b.in_cell(comp, {a: (k - 1 if reduced else k - 3), o1: k - 1, o2: k - 1})


def _dofs_gamma_off(b: _DofBuilder, k: int, a: int, bx: int) -> None:
    comp = comp_name(a, bx)
    c = _third(a, bx)
    b.on_edges(comp, c, [_D0], k - 1)
    b.on_faces(comp, bx, [_D0], {a: k - 2, c: k - 1})
    b.on_faces(comp, a, [_D0], {bx: k - 2, c: k - 1})
    b.in_cell(comp, {a: k - 2, bx: k - 2, c: k - 1})


def _dofs_z(b: _DofBuilder, k: int, a: int) -> None:
    comp = comp_name(a)
    o1, o2 = _others(a)
    b.on_faces(comp, a, [_D0], {o1: k - 1, o2: k - 1})
    b.in_cell(comp, {a: k - 2, o1: k - 1, o2: k - 1})


def _dofs_zred(b: _DofBuilder, k: int, a: int) -> None:
    o1, o2 = _others(a)
    b.in_cell(comp_name(a), {a: k, o1: k - 1, o2: k - 1})


@lru_cache(maxsize=None)
def _unit_catalog(fam: FamilyId) -> tuple[DofFunctional, ...]:
    """The family's DOFs on the unit cell, once per family and order."""
    name, k = _resolve(fam)
    b = _DofBuilder()
    if name == "u":
        _dofs_u(b, k)
    elif name in ("sigma", "sigma-red"):
        red = name.endswith("red")
        for a in range(3):
            _dofs_sigma_diag(b, k, a, red)
        for a, bx in _OFF_PAIRS_SYM:
            _dofs_sigma_off(b, k, a, bx, red)
    elif name == "xi":
        _dofs_xi_diag(b, k)
        for a, bx in _OFF_PAIRS_FULL:
            _dofs_xi_off(b, k, a, bx)
    elif name == "xi-red":
        _dofs_xired_diag(b, k)
        for a, bx in _OFF_PAIRS_FULL:
            _dofs_xired_off(b, k, a, bx)
    elif name == "q":
        for a in range(3):
            _dofs_q(b, k, a)
    elif name == "q-red":
        for a in range(3):
            _dofs_qred(b, k, a)
    elif name == "x":
        for a in range(3):
            _dofs_x(b, k, a)
    elif name in ("gamma", "gamma-red"):
        red = name.endswith("red")
        for a in range(3):
            _dofs_gamma_diag(b, k, a, red)
        for a, bx in _OFF_PAIRS_SYM:
            _dofs_gamma_off(b, k, a, bx)
    elif name == "z":
        for a in range(3):
            _dofs_z(b, k, a)
    elif name == "z-red":
        for a in range(3):
            _dofs_zred(b, k, a)
    else:
        raise ValueError(name)
    b.raw.sort(key=DofFunctional.sort_key)
    return tuple(b.raw)


def local_dofs(fam: FamilyId, cell: CellBox = UNIT_BOX) -> list[DofFunctional]:
    """The family's DOFs on one cell, in canonical local order.

    The order is (entity rank, local entity, component, derivative, weight,
    bubble index).  Within one entity it is the order in which
    ``assembly.assemble_space`` numbers the entity's global DOFs.
    Each call returns a fresh list; off the unit cell every DOF is rebound
    to its entity on ``cell``, one entity per label.
    """
    dofs = _unit_catalog(fam)
    if cell == UNIT_BOX:
        return list(dofs)
    entities = {label: entity_ref_for(label, cell)
                for label in {d.entity_label for d in dofs}}
    return [replace(d, entity=entities[d.entity_label]) for d in dofs]


# ---------------------------------------------------------------------------
# bubble basis for the coupled diagonal


@dataclass(frozen=True)
class BubbleBasis:
    """Basis of diagonal triples (xx, yy, zz) in Q_{k-1,k-1,k-1}^3 that sum
    to zero pointwise and whose a-th component vanishes on both faces normal
    to axis a.  These are exactly the trial weights for the coupled cell
    moments of the reduced traceless family."""

    k: int
    triples: tuple[tuple[TensorPoly, TensorPoly, TensorPoly], ...]

    def __len__(self) -> int:
        return len(self.triples)


@lru_cache(maxsize=None)
def bubble_basis_divT(k: int) -> BubbleBasis:
    """Construct the coupled-diagonal bubble basis at order ``k`` (k >= 3).

    Solved as the exact nullspace of the face-trace and pointwise-sum
    constraints on coefficient vectors of the two independent components.
    """
    if k < 3:
        raise ValueError("bubble basis needs k >= 3")
    grid = Degree3(k - 1, k - 1, k - 1)
    exps = list(grid.exponents())
    idx = {e: i for i, e in enumerate(exps)}
    n = len(exps)  # unknowns per component; components are (xx, yy)
    rows: list[list[int]] = []

    def zero_trace_rows(offsets: tuple[int, ...], axis: int) -> None:
        # the traces at 0 and at 1 along ``axis`` of the sum of the
        # components starting at ``offsets``
        o1, o2 = _others(axis)
        for e1 in range(k):
            for e2 in range(k):
                row0 = [0] * (2 * n)
                row1 = [0] * (2 * n)
                for ea in range(k):
                    e = [0, 0, 0]
                    e[axis] = ea
                    e[o1] = e1
                    e[o2] = e2
                    i = idx[tuple(e)]
                    for off in offsets:
                        if ea == 0:
                            row0[off + i] = 1
                        row1[off + i] = 1
                rows.append(row0)
                rows.append(row1)

    zero_trace_rows((0,), 0)          # xx vanishes at x = 0, 1
    zero_trace_rows((n,), 1)          # yy vanishes at y = 0, 1
    zero_trace_rows((0, n), 2)        # zz = -(xx+yy) vanishes at z = 0, 1

    # the reduced echelon form is unique, so is this basis: per free
    # column, 1 there and minus that column's entry of each pivot row at
    # the row's pivot
    red, pivots, den = _exactcore.ff_rref(rows, 2 * n)
    basis = []
    for fc in sorted(set(range(2 * n)) - set(pivots)):
        vec = [_F0] * (2 * n)
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, red):
            vec[pc] = Fraction(-row[fc], den)
        basis.append(vec)
    expected = 2 * (k - 2) ** 2 * (k + 1)
    if len(basis) != expected:
        raise AssertionError(
            f"bubble basis dimension {len(basis)} != {expected} at k={k}")
    triples = []
    for vec in basis:
        txx = TensorPoly(grid, vec[:n])
        tyy = TensorPoly(grid, vec[n:])
        tzz = TensorPoly(grid, [-(vec[i] + vec[n + i]) for i in range(n)])
        triples.append((txx, tyy, tzz))
    return BubbleBasis(k, tuple(triples))


# ---------------------------------------------------------------------------
# applying DOFs


def _component_poly(field: Mapping[str, TensorPoly], comp: str,
                    spec: ShapeSpaceSpec | None) -> TensorPoly | None:
    p = field.get(comp)
    if p is None and spec is not None and spec.symmetric and len(comp) == 2:
        p = field.get(comp[::-1])
    return p


def apply_dof(dof: DofFunctional, field: Mapping[str, TensorPoly],
              spec: ShapeSpaceSpec | None = None,
              bubbles: BubbleBasis | None = None) -> Fraction:
    """Evaluate one DOF on a componentwise polynomial field.

    ``field`` maps storage component keys to polynomials on the cell the
    DOF was bound to.  Missing components count as zero.  Coupled DOFs
    need the ``bubbles`` basis of the matching order.
    """
    if dof.kind == "coupled":
        if bubbles is None:
            raise ValueError("coupled DOF needs the bubble basis")
        trip = bubbles.triples[dof.bubble_index]
        total = Fraction(0)
        for comp, xi in zip(_DIAG_COMPS, trip):
            p = _component_poly(field, comp, spec)
            if p is None or p.is_zero():
                continue
            w = TensorPoly(xi.degree, xi.coeffs, dof.entity.extent)
            total += moment(p, w, dof.entity)
        return total
    p = _component_poly(field, dof.component, spec)
    if p is None:
        return Fraction(0)
    p = p.differentiate_multi(dof.deriv)
    if dof.kind == "point":
        return p.eval_physical(dof.entity.extent.lo)
    return moment(p, monomial_weight(dof.weight, dof.entity), dof.entity)


def _deriv_factor_frozen(e: int, d: int, side: int) -> int:
    """Value of d-th derivative of t^e at t = side, for d in {0, 1}."""
    if d == 0:
        if side == 0:
            return 1 if e == 0 else 0
        return 1
    if side == 0:
        return 1 if e == 1 else 0
    return e


def _deriv_factor_free(e: int, d: int, w: int) -> Fraction:
    """Reference integral of (d-th derivative of t^e) * t^w over [0, 1]."""
    if d == 0:
        return Fraction(1, e + w + 1)
    if e == 0:
        return Fraction(0)
    return Fraction(e, e + w)


# ---------------------------------------------------------------------------
# DOF matrices and unisolvency


@lru_cache(maxsize=None)
def _group_positions(fam: FamilyId) -> dict[str, list[int]]:
    """The catalog positions of each component group's DOFs, in order."""
    spec = shape_space(fam)
    out: dict[str, list[int]] = {g.name: [] for g in spec.groups}
    for i, dof in enumerate(_unit_catalog(fam)):
        out[spec.group_of(dof.component).name].append(i)
    return out


def _bubbles_for(fam: FamilyId) -> BubbleBasis | None:
    """The bubble basis the family's coupled DOFs need, if it has any."""
    name, k = _resolve(fam)
    return bubble_basis_divT(k) if name == "xi-red" else None


def axis_functionals(dof: DofFunctional) -> tuple[tuple[int, int, int | None], ...]:
    """The three 1-D functionals ``(deriv, weight, side)`` a catalog DOF is
    the product of: ``side`` is None on an axis its entity spans and the
    frozen end (0 or 1) otherwise.  The sides come from the entity label,
    so a DOF rebound to any cell gives the same functionals."""
    sides: list[int | None] = [None, None, None]
    label = dof.entity_label
    if label[0] == "vertex":
        sides = list(label[1])
    elif label[0] == "edge":
        _, axis, pair = label
        for o, s in zip(_others(axis), pair):
            sides[o] = s
    elif label[0] == "face":
        _, normal, side = label
        sides[normal] = side
    return tuple((dof.deriv[a], dof.weight[a], sides[a]) for a in range(3))


@lru_cache(maxsize=None)
def _catalog_functionals(fam: FamilyId) -> tuple:
    """``axis_functionals`` of each catalog DOF, once per family and order."""
    return tuple(map(axis_functionals, _unit_catalog(fam)))


def _axis_table(cap: int, d: int, w: int, side: int | None,
                h: Fraction) -> list[Fraction]:
    """One 1-D functional on ``t^e``, e = 0..cap: on a free axis
    (``side`` None) the moment against ``t^w`` over an interval of length
    ``h``, on a frozen one the value at ``side``; ``d`` = 1 adds ``h^-1``.
    """
    scale = 1 / h if d else Fraction(1)
    if side is None:
        return [_deriv_factor_free(e, d, w) * h * scale for e in range(cap + 1)]
    return [_deriv_factor_frozen(e, d, side) * scale for e in range(cap + 1)]


def _coupled_row(dof: DofFunctional, grid: Degree3, bubbles: BubbleBasis,
                 measure: Fraction) -> list[Fraction]:
    """A coupled DOF on the (xx, yy) coordinates of the traceless diagonal.

    It pairs all three diagonal components with one bubble triple, so with
    zz = -(xx + yy) the weight of xx is ``b_xx - b_zz`` and of yy
    ``b_yy - b_zz``.  The moment of ``t^e`` against ``t^f`` is ``prod_a 1 /
    (e_a + f_a + 1)``, summed in integers over ``L^3``, ``L`` a multiple of
    every such divisor.
    """
    bxx, byy, bzz = bubbles.triples[dof.bubble_index]
    L = lcm(*range(1, 2 * max(grid.caps) + 2))
    row = []
    for weight in (bxx - bzz, byy - bzz):
        exps, coefs = zip(*weight.terms())
        (ints,), (den,) = _exactcore.clear_denominators([coefs])
        for e in grid.exponents():
            total = sum(v * (L // (e[0] + f[0] + 1)) * (L // (e[1] + f[1] + 1))
                        * (L // (e[2] + f[2] + 1)) for f, v in zip(exps, ints))
            row.append(Fraction(total, den * L ** 3) * measure)
    return row


def group_dof_matrix(fam: FamilyId, gname: str, cell: CellBox = UNIT_BOX
                     ) -> list[list[Fraction]]:
    """DOF-by-coordinate matrix of one component group (square iff unisolvent).

    This is the one DOF-matrix builder; the full matrix is block diagonal
    across the groups.  :mod:`.assembly` keeps product and fibred blocks as
    their 1-D tables (the same ``_axis_table`` rows) and calls this builder
    for the coupled block; the tests use it as the oracle.
    Every DOF is a product of 1-D functionals along the three axes, so its
    entry on the monomial ``t^e`` of its own component factors as
    ``t0[e0] * t1[e1] * t2[e2]``, one table per axis over the group's
    exponents.  Other components' coordinates are zero, except on the
    traceless diagonal, where a ``zz`` DOF lands negated on the ``xx`` and
    ``yy`` coordinates.  The coupled DOFs of ``xi-red`` are bubble moments.
    Axes and sides come from the unit-cell catalog; ``cell`` supplies ``h``.
    """
    spec = shape_space(fam)
    group = next(g for g in spec.groups if g.name == gname)
    h = tuple(cell.h(a) for a in range(3))
    dims = [spec.degrees[c].dim() for c in group.independent]
    offsets, width = dict(zip(group.independent, accumulate([0] + dims))), sum(dims)
    tables: dict[tuple, list[Fraction]] = {}   # 1-D functional -> its table
    rows = []
    for dof in map(_unit_catalog(fam).__getitem__, _group_positions(fam)[gname]):
        if dof.kind == "coupled":
            rows.append(_coupled_row(dof, spec.degrees["xx"], _bubbles_for(fam),
                                     cell.measure()))
            continue
        caps = spec.degrees[dof.component].caps
        tabs = []
        for a, f in enumerate(axis_functionals(dof)):
            key = (caps[a], *f, h[a])
            if key not in tables:
                tables[key] = _axis_table(*key)
            tabs.append(tables[key])
        rows.append(_product_row(dof.component, tabs, offsets, width))
    return rows


def _product_row(comp: str, tabs, offsets: dict[str, int], width: int) -> list[Fraction]:
    """``t0 (x) t1 (x) t2`` on component ``comp`` as a dense row over a
    group's ``width`` coordinates, independent component ``c`` from
    ``offsets[c]``."""
    t0, t1, t2 = tabs
    if comp in offsets:
        targets = [(offsets[comp], t0)]
    else:
        # traceless diagonal: zz = -(xx + yy) folds into the independents
        neg = [-v for v in t0]
        targets = [(offsets["xx"], neg), (offsets["yy"], neg)]
    row = [_F0] * width
    n12 = len(t1) * len(t2)
    for off, s0 in targets:
        for e0, f0 in enumerate(s0):
            if not f0:
                continue
            pos = off + e0 * n12
            for f1 in t1:
                if f1:
                    f01 = f0 * f1
                    for e2, f2 in enumerate(t2):
                        if f2:
                            row[pos + e2] = f01 * f2
                pos += len(t2)
    return row


class GroupForm(NamedTuple):
    """One block of a group's DOF matrix: its DOFs' catalog positions
    ``dofs``, and for one component of product DOFs, per axis, the 1-D
    functionals ``axes[a]``: one list on a Kronecker axis, one per fibre
    (row-major over the other axes) on a fibre axis, with ``dofs`` in
    Kronecker order.  A coupled block has ``axes`` None, uncoupled first."""

    comps: tuple[str, ...]
    dofs: tuple[int, ...]
    axes: tuple | None = None


def _fibred_form(comp: str, caps: tuple, funcs: dict) -> GroupForm | None:
    """A component's block, ``funcs`` mapping each DOF's 1-D functionals to
    its position, if fibred along an axis ``c``: the other axes' functionals
    form a grid ``F_a x F_b`` with ``|F_a| = cap_a + 1`` and each pair
    carries ``cap_c + 1`` on ``c``, its fibre; a product if all fibres
    hold the same ones."""
    n = [cap + 1 for cap in caps]
    for c in (2, 1, 0):
        a, b = _others(c)
        fibres: dict[tuple, list] = {}
        for f in funcs:
            fibres.setdefault((f[a], f[b]), []).append(f[c])
        fa, fb = (list(dict.fromkeys(pair[x] for pair in fibres)) for x in (0, 1))
        lists = [fibres.get((i, j), []) for i in fa for j in fb]
        if (len(fa), len(fb)) != (n[a], n[b]) or any(len(g) != n[c] for g in lists):
            continue
        if all(set(g) == set(lists[0]) for g in lists):
            lists = [list(dict.fromkeys(f[c] for f in funcs))]
        axes: list = [None] * 3
        axes[a], axes[b], axes[c] = (fa,), (fb,), tuple(lists)
        dofs = []
        for idx in product(*map(range, n)):
            f = [None] * 3
            f[a], f[b] = fa[idx[a]], fb[idx[b]]
            # a product's one list serves every fibre
            f[c] = lists[(idx[a] * n[b] + idx[b]) % len(lists)][idx[c]]
            dofs.append(funcs[tuple(f)])
        return GroupForm((comp,), tuple(dofs), tuple(axes))
    return None


@lru_cache(maxsize=None)
def group_forms(fam: FamilyId) -> dict[str, tuple[GroupForm, ...] | None]:
    """Each group's blocks, once per family and order: one coupled block
    for a group with coupled DOFs, else a product or fibred block per
    component; None for a group of no known structure."""
    spec = shape_space(fam)
    catalog = _unit_catalog(fam)
    out: dict[str, tuple[GroupForm, ...] | None] = {}
    for g, mine in zip(spec.groups, _group_positions(fam).values()):
        coupled = [catalog[p].kind == "coupled" for p in mine]
        if any(coupled):
            out[g.name] = (GroupForm(g.independent, tuple(
                p for _c, p in sorted(zip(coupled, mine)))),)
            continue
        forms = []
        for comp in g.independent:
            own = [p for p in mine if catalog[p].component == comp]
            funcs = {_catalog_functionals(fam)[p]: p for p in own}
            forms.append(len(funcs) == len(own) and _fibred_form(
                comp, spec.degrees[comp].caps, funcs) or None)
        out[g.name] = (None if None in forms or sum(len(f.dofs) for f in forms)
                       != len(mine) else tuple(forms))
    return out


def triangular_blocks(fam: FamilyId, form: GroupForm) -> tuple | None:
    """A coupled block ``D`` (rows in ``form.dofs`` order) in coordinates
    ``[C; B]``: ``(D, E, T, npiv)`` with sparse rows ``T = D E = [[M11, 0],
    [M21, G]]``, or None if it does not take that form.  ``B``, the bubble
    basis, is in reduced echelon form: each member is 1 on its own free
    coordinate (its last nonzero), 0 on the others'.  ``E`` is the unit
    vectors of the ``npiv`` other coordinates, then ``B``.  Uncoupled DOFs
    vanish on ``B``: vertex values and edge moments of ``xx``/``yy`` (on an
    edge along x, ``yy`` and ``zz`` vanish) and face moments of the normal
    component; ``G`` is the Gram matrix of ``B``.  Read afresh per call."""
    rows = dict(zip(sorted(form.dofs), group_dof_matrix(
        fam, shape_space(fam).group_of(form.comps[0]).name)))
    D = [rows[p] for p in form.dofs]
    basis = [xx.coeffs + yy.coeffs for xx, yy, _zz in _bubbles_for(fam).triples]
    free = [max(j for j, v in enumerate(b) if v) for b in basis]
    P = sorted(set(range(len(D[0]))) - set(free))
    npiv = len(D) - len(basis)
    if (len(P) != npiv or any(_unit_catalog(fam)[p].kind == "coupled"
                              for p in form.dofs[:npiv])
            or any(b[j] != (i == t) for i, b in enumerate(basis)
                   for t, j in enumerate(free))):
        return None
    pos = {j: t for t, j in enumerate(P)}
    E = [({pos[j]: Fraction(1)} if j in pos else {})
         | {npiv + t: b[j] for t, b in enumerate(basis) if b[j]} for j in range(len(D[0]))]
    ints, dens = _exactcore.clear_denominators([dict(enumerate(r)) for r in D])
    eints, edens = _exactcore.clear_denominators(E, common=True)
    T = [{j: Fraction(v, d * edens[0]) for j, v in r.items()}
         for r, d in zip(_exactcore.spmul(ints, eints), dens)]
    return None if any(max(r, default=0) >= npiv for r in T[:npiv]) else (D, E, T, npiv)


def _rank(rows: list, ncols: int) -> int:
    """The exact rank of rational rows, dense or sparse."""
    ints, _ = _exactcore.clear_denominators(
        [dict(enumerate(r)) if isinstance(r, list) else r for r in rows])
    return _exactcore.ff_rank(ints, ncols)


def _form_rank(fam: FamilyId, spec: ShapeSpaceSpec, form: GroupForm) -> int | None:
    """One block's rank from its factors, or None where their ranks leave
    it open (see :func:`check_unisolvence`)."""
    if form.axes is None:
        blocks = triangular_blocks(fam, form)
        if blocks is None:
            return None
        _D, _E, T, npiv = blocks
        g = _rank([{j: v for j, v in r.items() if j >= npiv} for r in T[npiv:]], len(T))
        return _rank(T[:npiv], npiv) + g if g == len(T) - npiv else None
    caps = spec.degrees[form.comps[0]].caps
    ranks = [[_rank([_axis_table(caps[a], *f, Fraction(1)) for f in fl], caps[a] + 1)
              for fl in lists] for a, lists in enumerate(form.axes)]
    fibre = [a for a in range(3) if len(ranks[a]) > 1]
    if not fibre:
        return prod(r for r, in ranks)
    full = all(ranks[x] == [caps[x] + 1] for x in _others(fibre[0]))
    return sum(ranks[fibre[0]]) if full else None


def check_unisolvence(fam: FamilyId) -> dict:
    """Exact unisolvency check: the DOF matrix is square and nonsingular.

    The matrix is block diagonal over the blocks of :func:`group_forms`,
    and each block's rank comes from its factors, never from eliminating
    the block.  A product block is ``P (T_x (x) T_y (x) T_z)`` for a row
    permutation ``P``, and ``rank(A (x) B) = rank A rank B`` (Van Loan,
    JCAM 123, 2000), so its rank is the product of its 1-D table ranks.
    A fibred block is ``P diag_ij(T_c,ij) (T_a (x) T_b (x) I)``: when
    ``T_a`` and ``T_b`` are nonsingular, its rank is the sum of the fibre
    tables' ranks.  A coupled block is ``[[M11, 0], [M21, G]]`` after a
    change of basis (:func:`triangular_blocks`), of rank ``rank M11 + rank
    G`` when ``G`` is nonsingular.  A block whose factors leave its rank
    open, or with no known structure, is built by :func:`group_dof_matrix`
    and eliminated.
    """
    spec = shape_space(fam)
    dim, ndofs = spec.local_dimension(), len(_unit_catalog(fam))
    rank, square = 0, ndofs == dim
    for g in spec.groups:
        forms = group_forms(fam)[g.name]
        ranks = [_form_rank(fam, spec, f) for f in forms or ()]
        if forms is None or None in ranks:
            block = group_dof_matrix(fam, g.name)
            square = square and (not block or len(block) == len(block[0]))
            ranks = [_rank(block, len(block[0])) if block else 0]
        rank += sum(ranks)
    return {"family": fam.name, "k": fam.k, "local_dim": dim, "num_dofs": ndofs,
            "rank": rank, "square": square, "nonsingular": square and rank == dim}


# ---------------------------------------------------------------------------
# global dimension formulas


def global_dimension_formula(fam: FamilyId, counts: tuple[int, int, int, int]) -> int:
    """Closed-form dimension of the assembled space from entity counts.

    ``counts`` is (vertices, edges, faces, cells).  These are the published
    per-entity dimension counts of each family; the assembled spaces are
    checked against them in the verification suite.
    """
    v, e, f, t = counts
    name, k = _resolve(fam)
    if name == "u":
        return 8 * v + 4 * (k - 3) * e + 2 * (k - 3) ** 2 * f + (k - 3) ** 3 * t
    if name == "sigma":
        diag = 4 * (k - 1) * e + 4 * (k - 1) * (k - 3) * f + 3 * (k - 1) * (k - 3) ** 2 * t
        off = (6 * v + (4 * (k - 2) + (k - 3)) * e
               + (2 * (k - 2) ** 2 + 2 * (k - 2) * (k - 3)) * f
               + 3 * (k - 2) ** 2 * (k - 3) * t)
        return diag + off
    if name == "sigma-red":
        diag = (k - 1) * e + 2 * (k - 1) ** 2 * f + 3 * (k - 1) ** 3 * t
        off = (6 * v + (4 * (k - 2) + (k - 3)) * e
               + ((k - 2) ** 2 + 2 * (k - 2) * (k - 3)) * f
               + 3 * (k - 2) ** 2 * (k - 1) * t)
        return diag + off
    if name == "xi":
        diag = 2 * v + 2 * (k - 2) * e + 2 * (k - 2) ** 2 * f + 2 * (k - 2) ** 3 * t
        off = (4 * (k - 1) * e
               + (2 * (k - 1) * (k - 3) + 4 * (k - 1) * (k - 2)) * f
               + 6 * (k - 1) * (k - 2) * (k - 3) * t)
        return diag + off
    if name == "xi-red":
        diag = (2 * v + 2 * (k - 2) * e + (k - 2) ** 2 * f
                + 2 * (k - 2) ** 2 * (k + 1) * t)
        off = 2 * (k - 1) * k * f + 6 * (k - 1) ** 2 * k * t
        return diag + off
    if name == "q":
        return (k - 1) * e + 2 * (k - 1) * (k - 2) * f + 3 * (k - 1) * (k - 2) ** 2 * t
    if name == "q-red":
        return 3 * (k - 1) * k ** 2 * t
    if name == "x":
        return (12 * v + (4 * (k - 1) + 4 * (k - 2)) * e
                + ((k - 2) ** 2 + 4 * (k - 1) * (k - 2)) * f
                + 3 * (k - 1) * (k - 2) ** 2 * t)
    if name == "gamma":
        return (k * e + (2 * k ** 2 + 2 * k * (k - 1)) * f
                + (3 * k ** 2 * (k - 2) + 3 * k * (k - 1) ** 2) * t)
    if name == "gamma-red":
        return (k * e + (k ** 2 + 2 * k * (k - 1)) * f
                + (3 * k ** 3 + 3 * k * (k - 1) ** 2) * t)
    if name == "z":
        return k ** 2 * f + 3 * (k - 1) * k ** 2 * t
    if name == "z-red":
        return 3 * (k + 1) * k ** 2 * t
    raise ValueError(name)
