"""Anisotropic tensor-product polynomials with exact rational coefficients.

A :class:`TensorPoly` stores the coefficients of a polynomial on the tensor
monomial basis ``t_x^i t_y^j t_z^l`` of the *reference* cube ``[0,1]^3``,
together with the axis-aligned cell it lives on; physical derivatives
and integrals pick up the chain factors ``1/h`` and ``h``, exactly.  The
coefficients are always a tuple of ``Fraction``, one per monomial of the
degree grid, and the calculus works by position on it: along an axis the
monomials sit at a fixed stride, so derivatives, antiderivatives, traces
and sums are index arithmetic over that tuple.  Mesh
entities are :class:`EntityRef`; traces onto them and moments against
weights in entity-normalized coordinates make up the element DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import Iterator

AXIS_NAMES = ("x", "y", "z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Degree3:
    """Per-axis degree caps of an anisotropic tensor space Q_{kx,ky,kz}.

    A negative cap on any axis denotes the empty space: it contains no
    monomials at all (not even constants).  This is the natural convention
    for degree grids such as Q_{k-3,k-4} that vanish for small k.
    """

    kx: int
    ky: int
    kz: int

    @property
    def caps(self) -> tuple[int, int, int]:
        return (self.kx, self.ky, self.kz)

    @property
    def is_empty(self) -> bool:
        return self.kx < 0 or self.ky < 0 or self.kz < 0

    def dim(self) -> int:
        if self.is_empty:
            return 0
        return (self.kx + 1) * (self.ky + 1) * (self.kz + 1)

    def contains(self, exp: tuple[int, int, int]) -> bool:
        return (0 <= exp[0] <= self.kx and 0 <= exp[1] <= self.ky
                and 0 <= exp[2] <= self.kz)

    def exponents(self) -> tuple[tuple[int, int, int], ...]:
        """All exponent triples, lexicographic with z fastest."""
        return _exponents(self.caps)

    def index(self, exp: tuple[int, int, int]) -> int:
        if not self.contains(exp):
            raise IndexError(f"exponent {exp} outside degree grid {self.caps}")
        return (exp[0] * (self.ky + 1) + exp[1]) * (self.kz + 1) + exp[2]


@lru_cache(maxsize=None)
def _exponents(caps: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """The exponent triples of one degree grid, in coefficient order."""
    return tuple(product(*(range(k + 1) for k in caps)))


def degree_from_caps(caps: dict[int, int], default: int) -> Degree3:
    """Degree grid with per-axis overrides, e.g. {0: k-2} over default k."""
    return Degree3(caps.get(0, default), caps.get(1, default), caps.get(2, default))


@dataclass(frozen=True)
class CellBox:
    """An axis-aligned box, possibly degenerate along some axes."""

    lo: tuple[Fraction, Fraction, Fraction]
    hi: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        for a in range(3):
            if self.lo[a] > self.hi[a]:
                raise ValueError(f"box extent reversed on axis {AXIS_NAMES[a]}")

    def h(self, axis: int) -> Fraction:
        return self.hi[axis] - self.lo[axis]

    def free_axes(self) -> tuple[int, ...]:
        return tuple(a for a in range(3) if self.lo[a] < self.hi[a])

    def measure(self) -> Fraction:
        m = _ONE
        for a in self.free_axes():
            m *= self.h(a)
        return m

    def to_reference(self, point: tuple[Fraction, Fraction, Fraction]) -> tuple[Fraction, ...]:
        out = []
        for a in range(3):
            h = self.h(a)
            if h == 0:
                if point[a] != self.lo[a]:
                    raise ValueError("point off the degenerate axis of the box")
                out.append(_ZERO)
            else:
                out.append(Fraction(point[a] - self.lo[a], 1) / h)
        return tuple(out)


def box(lox, hix, loy, hiy, loz, hiz) -> CellBox:
    fr = Fraction
    return CellBox((fr(lox), fr(loy), fr(loz)), (fr(hix), fr(hiy), fr(hiz)))


UNIT_BOX = box(0, 1, 0, 1, 0, 1)

_KIND_FOR_NFREE = {0: "vertex", 1: "edge", 2: "face", 3: "cell"}


@dataclass(frozen=True)
class EntityRef:
    """A mesh entity: its kind and geometric extent.

    ``extent`` is degenerate (lo == hi) exactly on the frozen axes; an edge
    has one free axis, a face two, a cell three.
    """

    kind: str
    extent: CellBox

    def __post_init__(self) -> None:
        expected = _KIND_FOR_NFREE[len(self.extent.free_axes())]
        if self.kind != expected:
            raise ValueError(f"entity tagged {self.kind!r} but extent says {expected!r}")

    @property
    def free_axes(self) -> tuple[int, ...]:
        return self.extent.free_axes()

    @property
    def tag(self) -> str:
        """Axis tag, e.g. 'x' for an x-directed edge, 'yz' for a face."""
        return "".join(AXIS_NAMES[a] for a in self.free_axes) or "pt"

    def measure(self) -> Fraction:
        return self.extent.measure()


def _placed(terms, degree: Degree3) -> list[Fraction]:
    """The coefficient list of ``(exponent, Fraction)`` terms on ``degree``."""
    c = [_ZERO] * degree.dim()
    for e, v in terms:
        c[degree.index(e)] = v
    return c


class TensorPoly:
    """A polynomial on an axis-aligned cell, in reference coordinates.

    Coefficients are stored densely on the monomial basis of ``degree``,
    flattened with z fastest: ``coeffs`` is always a tuple of ``Fraction``
    of length ``degree.dim()``.  The methods work by position on that
    tuple, an axis being a stride, and skip zero coefficients; a result
    is built from Fractions as they come, never converted again.  The
    ``cell`` geometry is what makes ``differentiate`` and ``moment``
    physical rather than merely formal.
    """

    __slots__ = ("degree", "coeffs", "cell")

    def __init__(self, degree: Degree3, coeffs, cell: CellBox = UNIT_BOX):
        self.degree = degree
        self.coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(self.coeffs) != degree.dim():
            raise ValueError("coefficient count does not match degree grid")
        self.cell = cell

    @classmethod
    def _of(cls, degree: Degree3, coeffs: tuple, cell: CellBox) -> "TensorPoly":
        """A result from a ready tuple of ``degree.dim()`` Fractions."""
        p = object.__new__(cls)
        p.degree, p.coeffs, p.cell = degree, coeffs, cell
        return p

    # -- construction ---------------------------------------------------

    @classmethod
    def zero(cls, degree: Degree3, cell: CellBox = UNIT_BOX) -> "TensorPoly":
        return cls._of(degree, (_ZERO,) * degree.dim(), cell)

    @classmethod
    def monomial(cls, exp: tuple[int, int, int], cell: CellBox = UNIT_BOX,
                 coeff: Fraction = _ONE) -> "TensorPoly":
        deg = Degree3(*exp)
        c = [_ZERO] * deg.dim()
        c[-1] = coeff if type(coeff) is Fraction else Fraction(coeff)
        return cls._of(deg, tuple(c), cell)

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int, int], Fraction],
                   degree: Degree3 | None = None, cell: CellBox = UNIT_BOX) -> "TensorPoly":
        live = {e: v if type(v) is Fraction else Fraction(v)
                for e, v in terms.items() if v}
        if degree is None:
            if live:
                degree = Degree3(*(max(e[a] for e in live) for a in range(3)))
            else:
                degree = Degree3(0, 0, 0)
        return cls._of(degree, tuple(_placed(live.items(), degree)), cell)

    # -- access ----------------------------------------------------------

    def coeff(self, exp: tuple[int, int, int]) -> Fraction:
        if not self.degree.contains(exp):
            return _ZERO
        return self.coeffs[self.degree.index(exp)]

    def terms(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        for e, v in zip(self.degree.exponents(), self.coeffs):
            if v:
                yield e, v

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        if self.cell != other.cell:
            return False
        return dict(self.terms()) == dict(other.terms())

    def __hash__(self):
        raise TypeError("TensorPoly is mutable-shaped; not hashable")

    def __repr__(self) -> str:
        parts = []
        for (i, j, l), v in self.terms():
            mono = "".join(
                f"{AXIS_NAMES[a]}^{e}" if e > 1 else (AXIS_NAMES[a] if e == 1 else "")
                for a, e in enumerate((i, j, l)))
            parts.append(f"{v}*{mono}" if mono else f"{v}")
        body = " + ".join(parts) if parts else "0"
        return f"TensorPoly({body})"

    # -- algebra ----------------------------------------------------------

    def _restack(self, axis: int, picks, degree: Degree3) -> "TensorPoly":
        """The polynomial on ``degree`` whose coefficient blocks along
        ``axis`` are ``picks``: ``(m, f)`` is this one's block of power
        ``m`` times ``f``."""
        inner = prod(k + 1 for k in self.degree.caps[axis + 1:])
        zeros = (_ZERO,) * inner
        out: list[Fraction] = []
        for start in range(0, len(self.coeffs), (self.degree.caps[axis] + 1) * inner):
            for m, f in picks:
                block = self.coeffs[start + m * inner:start + (m + 1) * inner]
                out.extend(zeros if f == 0 else block if f == 1
                           else [v * f if v else v for v in block])
        return TensorPoly._of(degree, tuple(out), self.cell)

    def _binop(self, other: "TensorPoly", sign: int) -> "TensorPoly":
        if self.cell != other.cell:
            raise ValueError("polynomials live on different cells")
        deg = self.degree
        if other.degree != deg:
            deg = Degree3(*map(max, deg.caps, other.degree.caps))
        pairs = zip(self.coeffs if self.degree == deg else _placed(self.terms(), deg),
                    other.coeffs if other.degree == deg else _placed(other.terms(), deg))
        if sign > 0:
            out = tuple(x + y if x and y else x or y for x, y in pairs)
        else:
            out = tuple(x - y if x and y else -y if y else x for x, y in pairs)
        return TensorPoly._of(deg, out, self.cell)

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        return self._binop(other, 1)

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        return self._binop(other, -1)

    def __neg__(self) -> "TensorPoly":
        return self.scale(-1)

    def scale(self, factor) -> "TensorPoly":
        f = factor if type(factor) is Fraction else Fraction(factor)
        return TensorPoly._of(self.degree, tuple(c * f if c else c for c in self.coeffs),
                              self.cell)

    def __mul__(self, other):
        if isinstance(other, TensorPoly):
            if self.cell != other.cell:
                raise ValueError("polynomials live on different cells")
            terms: dict[tuple[int, int, int], Fraction] = {}
            for e1, v1 in self.terms():
                for e2, v2 in other.terms():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    terms[e] = terms.get(e, _ZERO) + v1 * v2
            deg = Degree3(*(self.degree.caps[a] + other.degree.caps[a] for a in range(3)))
            return TensorPoly.from_terms(terms, deg, self.cell)
        return self.scale(other)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def differentiate(self, axis: int) -> "TensorPoly":
        """Physical partial derivative along ``axis`` (chain factor 1/h)."""
        h = self.cell.h(axis)
        if h == 0:
            raise ValueError(f"cannot differentiate along frozen axis {AXIS_NAMES[axis]}")
        caps = list(self.degree.caps)
        caps[axis] -= 1
        new_deg = Degree3(*caps)
        if new_deg.is_empty:
            return TensorPoly.zero(Degree3(0, 0, 0), self.cell)
        return self._restack(axis, [(m, m / h) for m in range(1, caps[axis] + 2)], new_deg)

    def differentiate_multi(self, orders: tuple[int, int, int]) -> "TensorPoly":
        p = self
        for a in range(3):
            for _ in range(orders[a]):
                p = p.differentiate(a)
        return p

    def antiderivative(self, axis: int) -> "TensorPoly":
        """Exact physical antiderivative from the cell's lower face.

        Returns ``F`` with ``dF/d(axis) = self`` and ``F = 0`` on the face
        where the axis coordinate equals the cell's lower bound.
        """
        h = self.cell.h(axis)
        if h == 0:
            raise ValueError(f"cannot integrate along frozen axis {AXIS_NAMES[axis]}")
        caps = list(self.degree.caps)
        caps[axis] += 1
        new_deg = Degree3(*caps)
        if self.degree.is_empty:
            return TensorPoly.zero(new_deg, self.cell)
        picks = [(0, 0)] + [(m, h / (m + 1)) for m in range(caps[axis])]
        return self._restack(axis, picks, new_deg)

    # -- restriction and evaluation ----------------------------------------

    def trace(self, entity: EntityRef) -> "TensorPoly":
        """Restrict to a boundary entity of the cell.

        The frozen axes of ``entity`` must sit at this cell's lower or upper
        face; the free axes must span exactly the cell's extent there.  The
        result lives on the entity, with entity-normalized coordinates that
        coincide with the cell's own reference coordinates on the free axes.
        """
        at: list[int | None] = [None, None, None]
        for a in range(3):
            elo, ehi = entity.extent.lo[a], entity.extent.hi[a]
            if elo == ehi:
                if elo == self.cell.lo[a]:
                    at[a] = 0
                elif elo == self.cell.hi[a]:
                    at[a] = 1
                else:
                    raise ValueError(f"entity not on the cell boundary (axis {AXIS_NAMES[a]})")
            else:
                if (elo, ehi) != (self.cell.lo[a], self.cell.hi[a]):
                    raise ValueError(f"entity extent mismatch on free axis {AXIS_NAMES[a]}")
        deg = Degree3(*(self.degree.caps[a] if at[a] is None else 0 for a in range(3)))
        if self.degree.is_empty:
            return TensorPoly.zero(deg, entity.extent)
        vals = self.coeffs
        caps = list(self.degree.caps)   # of ``vals``, as frozen axes collapse
        for a in range(3):
            if at[a] is None:
                continue
            inner = prod(k + 1 for k in caps[a + 1:])
            run = (caps[a] + 1) * inner
            if at[a] == 0:
                # t = 0: only the power 0 survives
                vals = [v for b in range(0, len(vals), run) for v in vals[b:b + inner]]
            else:
                # t = 1: all powers contribute with weight 1
                vals = [sum(filter(None, vals[b + r:b + run:inner]), _ZERO)
                        for b in range(0, len(vals), run) for r in range(inner)]
            caps[a] = 0
        return TensorPoly._of(deg, tuple(vals), entity.extent)

    def eval_reference(self, t: tuple[Fraction, Fraction, Fraction]) -> Fraction:
        tx, ty, tz = (Fraction(c) for c in t)
        kx, ky, kz = self.degree.caps
        pz = [_ONE]
        for _ in range(kz):
            pz.append(pz[-1] * tz)
        total = _ZERO
        pos = 0
        px = _ONE
        for i in range(kx + 1):
            py = _ONE
            for j in range(ky + 1):
                xy = px * py
                for l in range(kz + 1):
                    c = self.coeffs[pos]
                    pos += 1
                    if c:
                        total += c * xy * pz[l]
                py *= ty
            px *= tx
        return total

    def eval_physical(self, point) -> Fraction:
        p = tuple(Fraction(c) for c in point)
        return self.eval_reference(self.cell.to_reference(p))


def moment(p: TensorPoly, weight: TensorPoly, entity: EntityRef) -> Fraction:
    """Physical integral of ``p * weight`` over ``entity``.

    ``p`` may live on the entity already (a trace) or on a cell having the
    entity on its boundary, in which case the trace is taken first.
    ``weight`` is a polynomial in the entity-normalized coordinates of the
    free axes (frozen-axis exponents must be zero).  Vertices are handled
    uniformly: the "integral" is the point value and the measure is 1.
    """
    if p.cell == entity.extent:
        q = p
    else:
        q = p.trace(entity)
    free = set(entity.free_axes)
    for e, _ in weight.terms():
        for a in range(3):
            if e[a] and a not in free:
                raise ValueError("weight uses a frozen axis of the entity")
    total = _ZERO
    for e1, v1 in q.terms():
        for e2, v2 in weight.terms():
            f = v1 * v2
            for a in free:
                f /= e1[a] + e2[a] + 1
            total += f
    return total * entity.measure()


def monomial_weight(exp: tuple[int, int, int], entity: EntityRef) -> TensorPoly:
    """The weight ``prod t_a^{exp_a}`` in entity-normalized coordinates."""
    for a in range(3):
        if exp[a] and a not in entity.free_axes:
            raise ValueError("weight exponent on a frozen axis")
    return TensorPoly.monomial(exp, entity.extent)
