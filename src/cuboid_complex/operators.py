"""Differential operators on componentwise polynomial fields.

Matrix operators act row-wise: ``curl_rows`` takes the curl of each row,
``div_rows`` the divergence of each row.  ``curl_transpose`` is
(curl of the transpose) transposed, and ``curl_curl_transpose`` composes the
two; on symmetric input it equals taking the row-wise curl of the transposed
row-wise curl.  All derivatives are physical (chain factors 1/h per axis).

Fields are component dictionaries in a :class:`PolyField` (a missing one
is zero).  The coordinate helpers at the bottom translate fields to and
from shape-space coordinates; the way into coordinates checks membership.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._value import Value
from .elements import ShapeSpaceSpec, comp_name
from .polytensor import CellBox, Degree3, TensorPoly


class PolyField(Value):
    __slots__ = ("kind", "comps", "cell", "symmetric")

    def __init__(self, kind: str, comps: dict[str, TensorPoly], cell: CellBox,
                 symmetric: bool = False) -> None:
        self.kind = kind               # "scalar" | "vector" | "matrix"
        self.comps = comps
        self.cell = cell
        self.symmetric = symmetric

    def _zero(self) -> TensorPoly:
        return TensorPoly.zero(Degree3(0, 0, 0), self.cell)

    def scalar(self) -> TensorPoly:
        return self.comps.get("s") or self._zero()

    def vec(self, a: int) -> TensorPoly:
        return self.comps.get(comp_name(a)) or self._zero()

    def mat(self, a: int, b: int) -> TensorPoly:
        p = self.comps.get(comp_name(a, b))
        if p is None and self.symmetric:
            p = self.comps.get(comp_name(b, a))
        return p if p is not None else self._zero()

    def component(self, key: str) -> TensorPoly:
        if key == "s":
            return self.scalar()
        if len(key) == 1:
            return self.vec("xyz".index(key))
        return self.mat("xyz".index(key[0]), "xyz".index(key[1]))


def scalar_field(p: TensorPoly) -> PolyField:
    return PolyField("scalar", {"s": p}, p.cell)


def gradgrad(f: PolyField) -> PolyField:
    """Hessian of a scalar field, stored with canonical symmetric keys."""
    u = f.scalar()
    grads = [u.differentiate(a) for a in range(3)]
    out = {}
    for a in range(3):
        for b in range(a, 3):
            out[comp_name(a, b)] = grads[a].differentiate(b)
    return PolyField("matrix", out, f.cell, symmetric=True)


def sym_grad(f: PolyField) -> PolyField:
    half = Fraction(1, 2)
    out = {}
    for a in range(3):
        out[comp_name(a, a)] = f.vec(a).differentiate(a)
    for a in range(3):
        for b in range(a + 1, 3):
            s = f.vec(b).differentiate(a) + f.vec(a).differentiate(b)
            out[comp_name(a, b)] = s.scale(half)
    return PolyField("matrix", out, f.cell, symmetric=True)


def grad_vec(f: PolyField) -> PolyField:
    """Jacobian: entry (a, b) is the b-derivative of component a."""
    out = {}
    for a in range(3):
        for b in range(3):
            out[comp_name(a, b)] = f.vec(a).differentiate(b)
    return PolyField("matrix", out, f.cell)


def curl_vec(f: PolyField) -> PolyField:
    out = {}
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        out[comp_name(a)] = f.vec(c).differentiate(b) - f.vec(b).differentiate(c)
    return PolyField("vector", out, f.cell)


def transpose_field(f: PolyField) -> PolyField:
    out = {comp_name(a, b): f.mat(b, a) for a in range(3) for b in range(3)}
    return PolyField("matrix", out, f.cell)


def curl_rows(f: PolyField) -> PolyField:
    out = {}
    for a in range(3):
        row = [f.mat(a, b) for b in range(3)]
        for b in range(3):
            i, j = (b + 1) % 3, (b + 2) % 3
            out[comp_name(a, b)] = row[j].differentiate(i) - row[i].differentiate(j)
    return PolyField("matrix", out, f.cell)


def curl_transpose(f: PolyField) -> PolyField:
    return transpose_field(curl_rows(transpose_field(f)))


def curl_curl_transpose(f: PolyField) -> PolyField:
    return curl_rows(curl_transpose(f))


def div_rows(f: PolyField) -> PolyField:
    out = {}
    for a in range(3):
        s = f.mat(a, 0).differentiate(0)
        s = s + f.mat(a, 1).differentiate(1)
        s = s + f.mat(a, 2).differentiate(2)
        out[comp_name(a)] = s
    return PolyField("vector", out, f.cell)


def check_identity_curl_symgrad(v: PolyField) -> tuple[PolyField, PolyField]:
    """Residuals of the two curl/symmetric-gradient commutation identities.

    Returns curl_rows(sym_grad v) - (grad curl v)^T / 2 and
    curl_transpose(sym_grad v) - (grad curl v) / 2; both vanish identically
    for every vector field, so a nonzero residual flags an operator bug.
    """
    eps = sym_grad(v)
    jac = grad_vec(curl_vec(v))
    half = Fraction(1, 2)

    def _minus_half(lhs: PolyField, rhs: PolyField) -> PolyField:
        comps = {comp_name(a, b): lhs.mat(a, b) - rhs.mat(a, b).scale(half)
                 for a in range(3) for b in range(3)}
        return PolyField("matrix", comps, v.cell)

    return (_minus_half(curl_rows(eps), transpose_field(jac)),
            _minus_half(curl_transpose(eps), jac))


#: operator registry keyed by the names used in reports and exports
OPERATORS = {
    "gradgrad": gradgrad,
    "curl": curl_rows,
    "div": div_rows,
    "symgrad": sym_grad,
    "curlcurlt": curl_curl_transpose,
}


# ---------------------------------------------------------------------------
# monomial coordinates of a shape space


def field_coords(spec: ShapeSpaceSpec) -> list[tuple[str, tuple[int, int, int]]]:
    """Independent monomial coordinates, groups concatenated in order."""
    out = []
    for g in spec.groups:
        out.extend(spec.group_coords(g))
    return out


def coordinate_field(spec: ShapeSpaceSpec, comp: str, exp: tuple[int, int, int],
                     cell: CellBox) -> PolyField:
    """The field whose ``comp`` coordinate is the unit monomial ``exp``.

    For the traceless diagonal the zz component tracks -(xx + yy), so the
    xx and yy coordinate fields carry a compensating zz monomial.
    """
    mono = TensorPoly.monomial(exp, cell)
    if spec.kind == "scalar":
        return scalar_field(mono)
    if spec.kind == "vector":
        return PolyField("vector", {comp: mono}, cell)
    comps = {comp: mono}
    if spec.traceless and comp in ("xx", "yy"):
        comps["zz"] = -mono
    return PolyField("matrix", comps, cell, symmetric=spec.symmetric)


class MembershipError(ValueError):
    """A field fell outside the degree grids of the target shape space."""


def check_membership(comps: Mapping[str, Mapping[tuple[int, int, int], Fraction]],
                     spec: ShapeSpaceSpec) -> None:
    """The strict membership checks of a field given by its terms.

    ``comps`` maps each component key the field carries to its nonzero
    terms (exponent to coefficient); a symmetric field also carries its
    transposed keys.  Symmetric targets require equal off-diagonal pairs
    where both keys are carried, traceless targets a pointwise-zero trace,
    and every independent component must stay inside its degree grid.
    """
    if spec.kind == "matrix":
        if spec.symmetric:
            for a in range(3):
                for b in range(a + 1, 3):
                    pab = comps.get(comp_name(a, b))
                    pba = comps.get(comp_name(b, a))
                    if pab is not None and pba is not None and pab != pba:
                        raise MembershipError(
                            f"asymmetric pair {comp_name(a, b)}/{comp_name(b, a)}")
        if spec.traceless:
            trace: dict[tuple[int, int, int], Fraction] = {}
            for c in ("xx", "yy", "zz"):
                for e, v in comps.get(c, {}).items():
                    trace[e] = trace.get(e, 0) + v
            if any(trace.values()):
                raise MembershipError("nonzero trace")
    for g in spec.groups:
        for comp in g.independent:
            grid = spec.degrees[comp]
            for e in comps.get(comp, ()):
                if not grid.contains(e):
                    raise MembershipError(
                        f"component {comp}: term {e} outside degree grid {grid}")


def field_to_coords(f: PolyField, spec: ShapeSpaceSpec) -> list[Fraction]:
    """Coordinates of a field in a shape space, after verifying membership
    (:func:`check_membership`)."""
    comps = {key: dict(p.terms()) for key, p in f.comps.items()}
    if f.symmetric:
        for key in list(comps):
            comps.setdefault(key[::-1], comps[key])
    check_membership(comps, spec)
    out: list[Fraction] = []
    for g in spec.groups:
        for comp in g.independent:
            p = f.component(comp)
            grid = spec.degrees[comp]
            out.extend(p.coeffs if p.degree == grid
                       else (p.coeff(e) for e in grid.exponents()))
    return out
