"""Computational verification of the discrete complexes: exact
unisolvency and dimension audits, exact ranks of the assembled operator
matrices, zero compositions, exactness of the two four-space ladders (full
and reduced), kernel identification, constructive divergence preimages,
interelement continuity of the advertised traces, and the commutation
identities tying the row-wise curl to gradients of the vector curl.

A ladder is certified one edge at a time: each operator matrix is
assembled, ranked by every requested route (:func:`certified_ranks`) and
released before the next is assembled.  In "both" mode a rank disagreement
raises ``AssertionError`` naming the edge, such as ``curl: sigma -> xi``,
and both ranks.  Each exact rank comes from unit-cell facts when a lower
bound swept over the cells meets the upper bound the composition gives,
with no elimination of a ladder matrix.

Rank certification is dual-route on request: fraction-free elimination
over the integers and a float route must report the same number.  The
float route divides each row by its largest ``|entry|``, which keeps the
rank, and eliminates the matrix as given sparsely in IEEE doubles,
shortest row first, with threshold partial pivoting; an updated entry is
dropped only when it cancels to rounding noise relative to its operands.
Nothing is made dense, no exact pre-pass feeds the route, and it shares
no code with the exact elimination.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import gcd, prod

from . import _exactcore
from .assembly import (COMPLEXES, ConformityError, GlobalSpace, SparseMatrix,
                       assemble_space, interpolate, operator_matrix,
                       reconstruct_local, _catalog_functionals,
                       _operator_rows, _reference_block)
from .elements import (FamilyId, comp_name, global_dimension_formula,
                       group_forms, local_dofs, shape_space, _axis_table,
                       _group_positions, _others, _product_row, _rank)
from .mesh import CuboidMesh
from .operators import (MembershipError, PolyField,
                        check_identity_curl_symgrad, div_rows,
                        field_to_coords)
from .polytensor import TensorPoly

COMPLEX_NAMES = tuple(COMPLEXES)


def _complex(name: str) -> tuple:
    """The :data:`COMPLEXES` entry of ``name``; an unknown name raises
    ``ValueError`` naming the known complexes."""
    try:
        return COMPLEXES[name]
    except KeyError:
        raise ValueError(f"unknown complex {name!r}; known complexes: "
                         f"{', '.join(COMPLEX_NAMES)}") from None


# ---------------------------------------------------------------------------
# rank certification


def exact_rank(mat: SparseMatrix) -> int:
    rows = [r for r in mat.rows if r]
    if not rows:
        return 0
    return _exactcore.ff_rank(rows, mat.ncols)


#: the largest problem the float rank route takes, in bytes of a dense
#: ``rows x columns`` array of doubles.  The route makes nothing dense; the
#: bound is a size limit, and the CLI reports its message
FLOAT_RANK_MAX_BYTES = 1 << 30

#: an updated entry ``w = old - m·pv`` of the float elimination is zero
#: when ``|w| <= FLOAT_RANK_REL_CUTOFF · (|old| + |m·pv|)``, so only a
#: cancellation is dropped, whatever the entries' size.  On the four
#: ladders up to 3x3x3 and on graded meshes every cancellation dropped left
#: at most 1.2e-14 of its operands, rounding noise, and every entry kept at
#: least 2.9e-3; the cutoff sits near the geometric middle of that gap
FLOAT_RANK_REL_CUTOFF = 1e-9

#: a pivot is at least this fraction of its row's largest ``|entry|``
#: (threshold partial pivoting)
_PIVOT_THRESHOLD = 0.1


#: the rank routes ``certified_ranks`` and ``verify_complex`` take: the
#: exact rank, the float elimination, or both with a cross-check
ARITHMETICS = ("rational", "float", "both")


def _check_arithmetic(arithmetic: str) -> None:
    if arithmetic not in ARITHMETICS:
        raise ValueError(f"arithmetic must be 'rational', 'float' or "
                         f"'both', got {arithmetic!r}")


class DenseSizeError(ValueError):
    """The float rank route refused a matrix over its size limit."""


def _check_dense_size(shape: tuple[int, int]) -> None:
    """Raise :class:`DenseSizeError` when a matrix of ``shape`` (rows,
    columns) is over :data:`FLOAT_RANK_MAX_BYTES` as a dense array of
    doubles.  The float route makes nothing dense, so this bounds the
    problem size only; the limit and its message are part of the CLI's
    contract."""
    nrows, ncols = shape
    need = nrows * ncols * 8
    if need > FLOAT_RANK_MAX_BYTES:
        raise DenseSizeError(
            f"float rank of a {nrows}x{ncols} matrix needs "
            f"{need / 2**20:.0f} MiB dense, over the "
            f"{FLOAT_RANK_MAX_BYTES / 2**20:.0f} MiB limit; "
            f"use rational arithmetic")


def _core_float_rank(rows: list[dict[int, int]],
                     record: dict | None = None) -> int:
    """Rank of the integer ``rows`` by sparse elimination in IEEE doubles,
    each row first divided by its largest ``|entry|``; empty rows are
    skipped.  ``rows`` is read and left as it was.

    The pivot row is the shortest live row, from a ``(length, index)``
    heap whose stale entries are skipped, rebuilt once they outnumber the
    live rows.  Its pivot column is, among its entries of at least
    :data:`_PIVOT_THRESHOLD` of its largest ``|entry|``, the one whose
    column has the fewest live rows, then the lowest index (threshold
    Markowitz; Duff, Erisman and Reid, *Direct Methods for Sparse
    Matrices*).  Each column lists the rows that have held an entry there,
    beside its live count; a listed row that is gone or lacks the entry is
    skipped.  Every other row crossing that column loses it, and an
    updated entry ``w = old - m·pv`` is dropped when ``|w| <=``
    :data:`FLOAT_RANK_REL_CUTOFF` ``· (|old| + |m·pv|)``.  A row left empty
    is dependent.  Given a dict as ``record``, it is filled with the
    pivots, the smallest pivot (rows start at a largest ``|entry|`` of 1),
    and over the updates of an entry already there the smallest
    ``|w| / (|old| + |m·pv|)`` kept and the largest dropped.
    """
    cut = FLOAT_RANK_REL_CUTOFF
    live: dict[int, dict[int, float]] = {}
    col_rows: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        if not r:
            continue
        d = max(map(abs, r.values()))
        # int true division rounds correctly and takes any size
        live[i] = {j: v / d for j, v in r.items()}
        for j in r:
            col_rows.setdefault(j, []).append(i)
    col_live = {j: len(ks) for j, ks in col_rows.items()}
    heap = [(len(r), i) for i, r in live.items()]
    heapq.heapify(heap)
    recording = record is not None
    smallest_pivot, kept, dropped = 1.0, 1.0, 0.0
    pivots = 0
    while heap:
        n, i = heapq.heappop(heap)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue
        del live[i]
        floor = _PIVOT_THRESHOLD * max(map(abs, prow.values()))
        pc = min((j for j, v in prow.items() if abs(v) >= floor),
                 key=lambda j: (col_live[j], j))
        pv = prow.pop(pc)
        pivots += 1
        if recording:
            smallest_pivot = min(smallest_pivot, abs(pv))
        for j in prow:
            col_live[j] -= 1
        del col_live[pc]
        for k in col_rows.pop(pc):
            row = live.get(k)
            if row is None or pc not in row:
                continue  # gone, dropped there, or seen already
            before = len(row)
            m = row.pop(pc) / pv
            for j, v in prow.items():
                mv = m * v
                old = row.get(j)
                if old is None:
                    if mv:
                        row[j] = -mv
                        col_rows[j].append(k)
                        col_live[j] += 1
                    continue
                w = old - mv
                scale = abs(old) + abs(mv)
                if abs(w) <= cut * scale:
                    del row[j]
                    col_live[j] -= 1
                    if recording:
                        dropped = max(dropped, abs(w) / scale)
                else:
                    row[j] = w
                    if recording:
                        kept = min(kept, abs(w) / scale)
            if not row:
                del live[k]
            elif len(row) != before:
                heapq.heappush(heap, (len(row), k))
        if len(heap) > 2 * len(live):
            heap = [(len(r), k) for k, r in live.items()]
            heapq.heapify(heap)
    if recording:
        record.update(pivots=pivots, smallest_pivot=smallest_pivot,
                      smallest_kept=kept, largest_dropped=dropped)
    return pivots


def float_rank(mat: SparseMatrix) -> int:
    """Rank of ``mat`` by one sparse elimination of its rows in floating
    point (:func:`_core_float_rank`), after the size guard.
    """
    _check_dense_size((mat.nrows, mat.ncols))
    return _core_float_rank(mat.rows)


def certified_ranks(mat: SparseMatrix, arithmetic: str,
                    edge: str = "matrix") -> tuple[int, int | None]:
    """``(rank, float rank)`` of one matrix by the routes ``arithmetic``
    names, the float rank ``None`` unless it is "both".

    The float route runs first, so :func:`float_rank`'s guard refuses a
    matrix over its size limit before any exact work.  In "both" mode a
    disagreement raises ``AssertionError`` naming ``edge`` and both ranks.
    An ``arithmetic`` not in :data:`ARITHMETICS` raises ``ValueError``.
    """
    _check_arithmetic(arithmetic)
    if arithmetic == "rational":
        return exact_rank(mat), None
    rank_f = float_rank(mat)
    if arithmetic == "float":
        return rank_f, None
    return _cross_checked(exact_rank(mat), rank_f, edge)


def _cross_checked(rank: int, rank_f: int | None,
                   edge: str) -> tuple[int, int | None]:
    """``(rank, rank_f)``, once the float rank, if any, agrees."""
    if rank_f is not None and rank != rank_f:
        raise AssertionError(f"rank cross-check failed on {edge}, "
                             f"rational {rank} vs float {rank_f}")
    return rank, rank_f


def composition_is_zero(outer: SparseMatrix, inner: SparseMatrix) -> bool:
    """Exact test that outer @ inner vanishes: the product of the integer
    rows, since the two denominators are nonzero scalars."""
    return all(not row for row in _exactcore.spmul(outer.rows, inner.rows))


def _reference_compositions_zero(name: str, k: int) -> bool:
    """Whether every consecutive pair of a ladder's operators composes to
    zero on the unit cell: ``K2(1) @ K1(1) == 0``, exactly, for each pair of
    cached reference blocks (integer rows over nonzero denominators)."""
    fams, ops = COMPLEXES[name][:2]
    ids = [FamilyId(f, k) for f in fams]
    blocks = [_reference_block(op, src, dst)[0]
              for op, src, dst in zip(ops, ids, ids[1:])]
    return all(not row for inner, outer in zip(blocks, blocks[1:])
               for row in _exactcore.spmul(outer, inner))


@lru_cache(maxsize=None)
def _upper_faces(fam: FamilyId) -> tuple[int, ...]:
    """Per catalog DOF, the axes ``a`` with its entity on the face ``t_a =
    1``, as bits ``1 << a``."""
    return tuple(sum(1 << a for a, (_d, _w, side) in enumerate(f) if side == 1)
                 for f in _catalog_functionals(fam))


@lru_cache(maxsize=None)
def _mirrors(fam: FamilyId) -> tuple[tuple[int | None, ...], ...]:
    """Per catalog DOF and axis, its mirror: same component, kind, bubble
    index and functionals, other side on the axis; None if none or free."""
    keys = [(d.component, d.kind, d.bubble_index) for d in local_dofs(fam)]
    funcs = _catalog_functionals(fam)
    where = {kf: p for p, kf in enumerate(zip(keys, funcs))}
    return tuple(tuple(None if side is None else where.get(
        (key, f[:a] + ((d, w, 1 - side),) + f[a + 1:]))
        for a, (d, w, side) in enumerate(f)) for key, f in zip(keys, funcs))


def _dof_label(fam: FamilyId, p: int) -> str:
    dof = local_dofs(fam)[p]
    return f"{fam.name} DOF {p} {dof.dof_key(dof.entity_label)}"


def _chains(split: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Chains ``S_0 < S_1 < ...`` of subsets of the axes ``split`` that
    hold each subset once (de Bruijn's symmetric chains): for three axes
    ``() < x < xy < xyz``, ``z < xz`` and ``y < yz``."""
    chains = [[()]]
    for a in split:
        grown = []
        for c in chains:
            grown.append(c + [c[-1] + (a,)])
            if len(c) > 1:
                grown.append([axes + (a,) for axes in c[:-1]])
        chains = grown
    return chains


@lru_cache(maxsize=None)
def _class_ranks(op: str, src: FamilyId, dst: FamilyId,
                 split: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """``rho(S)`` for every class ``S``, a subset of the split axes
    ``split``: the rank of the edge's unit-cell block ``K(1)`` on the
    catalog DOFs ``O(S)`` of both families whose entity lies on no face
    ``t_a = 1``, ``a`` in ``S``; once per edge, order and split axes.  The
    pass that transposes ``K(1)`` checks face locality on ``split``, and
    each chain of :func:`_chains` is one staged ``ff_rank`` of the columns
    of ``K(1)``, innermost class first (the lemma is in
    :func:`verify_complex`).
    """
    K = _reference_block(op, src, dst)[0]
    faces = sum(1 << a for a in split)
    up_src = _upper_faces(src)
    columns: list[dict[int, int]] = [{} for _ in up_src]
    for i, (row, up) in enumerate(zip(K, _upper_faces(dst))):
        up &= faces
        # a row of K(1) over its content: a column scaling of K(1)^T, which
        # keeps every rank and keeps ff_rank's content removal cheap
        g = gcd(*row.values())
        for j, v in row.items():
            if up & ~up_src[j]:
                a = comp_name((up & ~up_src[j]).bit_length() - 1)
                raise ConformityError(
                    f"{op}: {src.name} -> {dst.name}, axis {a}: target "
                    f"{_dof_label(dst, i)} on the face t_{a} = 1 reads "
                    f"source {_dof_label(src, j)} off that face")
            columns[j][i] = v // g
    ranks: dict[tuple[int, ...], int] = {}
    for chain in _chains(split):
        inner = [sum(1 << a for a in axes) for axes in reversed(chain)]
        # a column's stage: the innermost class of the chain whose O holds it
        stage = [next((t for t, m in enumerate(inner) if not up & m), None)
                 for up in up_src]
        order = sorted((j for j, t in enumerate(stage) if t is not None),
                       key=stage.__getitem__)
        ends = list(accumulate(stage.count(t) for t in range(len(inner))))
        ranks.update(zip(reversed(chain), _exactcore.ff_rank(
            [columns[j] for j in order], len(K), ends=ends)))
    return ranks


def _rank_lower_bound(op: str, src: FamilyId, dst: FamilyId,
                      shape: tuple[int, int, int]) -> int:
    """``L = sum m(S) rho(S)`` over the classes ``S`` of cells of a mesh of
    ``shape``: ``S`` holds the axes on which a cell has a neighbour at +1,
    and ``m(S)``, the product of ``n_a - 1`` over ``S``, counts such cells.
    A lower bound on the rank of the edge's global matrix once its audit
    passed (:func:`verify_complex`)."""
    split = tuple(a for a in range(3) if shape[a] > 1)
    return sum(prod(shape[a] - 1 for a in axes) * rho
               for axes, rho in _class_ranks(op, src, dst, split).items())


# ---------------------------------------------------------------------------
# exactness of a ladder


def _ladder_checks(dims: list[int], ranks: list[int],
                   kernel_dim: int) -> dict[str, bool]:
    """The four rank conditions under which a four-space ladder with the
    given dimensions and operator ranks is exact."""
    return {"kernel": dims[0] - ranks[0] == kernel_dim,
            "segment1": ranks[0] == dims[1] - ranks[1],
            "segment2": ranks[1] == dims[2] - ranks[2],
            "onto": ranks[2] == dims[3]}


@dataclass
class ExactnessReport:
    complex_name: str
    k: int
    mesh_shape: tuple[int, int, int]
    dims: list[int]
    ranks: list[int]
    ranks_float: list[int] | None
    composition_zero: bool
    kernel_dim_expected: int
    exact: bool
    cohomology_dim: int
    elapsed_ms: float
    arithmetic_mode: str
    seed: int | None = None

    def checks(self) -> dict[str, bool]:
        return {**_ladder_checks(self.dims, self.ranks,
                                 self.kernel_dim_expected),
                "compositions": self.composition_zero}

    def to_dict(self) -> dict:
        return {
            "complex": self.complex_name,
            "k": self.k,
            "mesh": ",".join(str(n) for n in self.mesh_shape),
            "dims": self.dims,
            "ranks": self.ranks,
            "ranks_float": self.ranks_float,
            "composition_zero": self.composition_zero,
            "exact": self.exact,
            "cohomology_dim": self.cohomology_dim,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "arithmetic_mode": self.arithmetic_mode,
            "seed": self.seed,
        }


def complex_spaces(name: str, k: int, mesh: CuboidMesh) -> list[GlobalSpace]:
    fams, _ops, _kd, min_k = _complex(name)
    if k < min_k:
        raise ValueError(f"complex {name!r} needs k >= {min_k}")
    return [assemble_space(FamilyId(f, k), mesh) for f in fams]


def _edge_name(op: str, src: GlobalSpace, dst: GlobalSpace) -> str:
    return f"{op}: {src.fam.name} -> {dst.fam.name}"


def _edge_ranks(op: str, src: GlobalSpace, dst: GlobalSpace,
                arithmetic: str, exact: bool) -> tuple[int | None, int | None]:
    """Assemble one operator matrix, which runs its audit, and rank it by
    :func:`certified_ranks`; with ``exact`` False only by the float route
    in "both" mode, the rank None.  The matrix is freed on return."""
    mat = operator_matrix(op, src, dst)
    if exact:
        return certified_ranks(mat, arithmetic, _edge_name(op, src, dst))
    return None, float_rank(mat) if arithmetic == "both" else None


def verify_complex(name: str, k: int, mesh: CuboidMesh,
                   arithmetic: str = "rational") -> ExactnessReport:
    """Assemble one ladder and verify it is an exact complex, one edge at a
    time: each operator matrix is assembled, ranked by every route
    ``arithmetic`` asks for and released before the next, so at most one
    global matrix is alive.  In "both" mode a rank disagreement raises
    ``AssertionError`` naming the edge, such as ``curl: sigma -> xi``.

    ``composition_zero`` is proved on the unit cell, with no global product.
    Lemma: if ``K2(1) @ K1(1) == 0`` then ``A2 @ A1 == 0`` on any mesh,
    given two premises.  (1) Each cell block is ``K(h) = diag(a_dst(h)) @
    K(1) @ diag(1/a_src(h))`` (``local_operator_block``), with the same
    ``a`` on the middle space for both edges, so ``K2(h) @ K1(h) = 0`` on
    every cell.  (2) ``operator_matrix``'s audit passed on ``A1`` and
    ``A2``, over the same middle :class:`GlobalSpace`: for a target DOF
    ``i`` of ``A2`` and a cell ``c`` carrying it, the audit makes ``c``
    carry every ``m`` with ``(A2)_im`` stored and hold that value, so row
    ``i`` of ``A2`` is row ``i`` of ``K2^c`` read through ``c``'s
    ``cell_maps``, and likewise row ``m`` of ``A1`` is row ``m`` of
    ``K1^c``.  So row ``i`` of ``A2 @ A1`` is a row of ``K2^c @ K1^c =
    0``.  A failed audit raises :class:`ConformityError`, and the report is
    built only after all three audits.

    Under "rational" and "both" every rank comes from unit-cell facts when
    they pin it down, with no elimination.  Lemma: if the audit passed on
    ``A_e`` (P1), then ``rank(A_e) >= L_e = sum m(S) rho_e(S)``
    (:func:`_rank_lower_bound`).  Here ``S`` runs over the subsets of the
    axes with ``n_a > 1``, ``m(S)`` is the product of ``n_a - 1`` over
    ``S``, and ``rho_e(S)`` is the rank of ``K_e(1)`` on the target and
    source catalog DOFs ``O(S)`` whose entity lies on no face ``t_a = 1``,
    ``a`` in ``S``.  Face locality, checked on the split axes (a failure
    raises :class:`ConformityError`), puts the source DOF of every stored
    ``K_e(1)[p, j]`` on each such face ``t_a = 1`` that holds ``p``.  So
    target DOFs outside ``O(S)`` vanish on the source DOFs ``O(S)``, and
    ``rho_e(S)`` is the rank of the columns ``O(S)`` of ``K_e(1)``.  These
    nest, ``O(S') ⊆ O(S)`` for ``S ⊆ S'``, so one staged elimination per
    chain of classes reads each ``rho_e(S)`` as the rank of a prefix
    (:func:`_class_ranks`).  Give each global DOF to the cell with the
    largest id that carries it.  Cell ids are lexicographic, so a
    cell ``c`` keeps exactly its DOFs in ``O(S(c))``, where ``S(c)`` holds
    the axes on which ``c`` has a neighbour at +1, and ``m(S)`` cells have
    ``S(c) = S``.  P1 makes every cell that carries row ``i`` also carry
    column ``j`` when ``(A_e)_ij`` is stored, so ``owner(i) <= owner(j)``
    and ``A_e`` is block upper triangular by owner.  Cell ``c``'s diagonal
    block is row and column ``O(S(c))`` of ``K_e(h_c)``, a nonzero diagonal
    scaling of that of ``K_e(1)``, with rank ``rho_e(S(c))``.  One
    nonsingular minor from each diagonal block makes a nonsingular block
    triangular minor, so the ranks add up to the bound.

    The composition gives upper bounds, top down: ``r2 <= n3``, ``r1 <= n2
    - r2`` and ``r0 <= n1 - r1``.  Once ``composition_zero`` is proved, a
    rank whose two bounds meet is ``r_e = L_e``; otherwise ``A_e`` is
    assembled again and eliminated, and its exact rank gives the next
    bound.  Every ``A_e`` is still assembled in order, which runs its
    audit, and in "both" mode its float rank must agree.

    An ``arithmetic`` not in :data:`ARITHMETICS` or an unknown complex
    raises ``ValueError`` before any assembly, and a ladder too large for
    the float route :class:`DenseSizeError` before any operator matrix.
    """
    _check_arithmetic(arithmetic)
    t0 = time.monotonic()
    ops, kernel_dim = _complex(name)[1:3]
    spaces = complex_spaces(name, k, mesh)
    counts = mesh.entity_counts()
    for s in spaces:
        formula = global_dimension_formula(s.fam, counts)
        if s.dimension != formula:
            raise AssertionError(
                f"{s.fam.name} k={k}: assembled dimension {s.dimension} "
                f"!= formula {formula}")
    dims = [s.dimension for s in spaces]
    if arithmetic != "rational":
        # refuse before paying for the assembly, not after it
        for ncols, nrows in zip(dims, dims[1:]):
            _check_dense_size((nrows, ncols))
    comp_zero = _reference_compositions_zero(name, k)
    lemma = arithmetic != "float" and comp_zero
    edges = list(zip(ops, spaces, spaces[1:]))
    pairs = [_edge_ranks(op, src, dst, arithmetic, not lemma)
             for op, src, dst in edges]
    if lemma:
        bound = dims[3]
        for e in (2, 1, 0):
            op, src, dst = edges[e]
            rank = _rank_lower_bound(op, src.fam, dst.fam, mesh.shape)
            if rank != bound:
                # the bounds do not meet: eliminate A_e after all
                rank = exact_rank(operator_matrix(op, src, dst))
            pairs[e] = _cross_checked(rank, pairs[e][1],
                                      _edge_name(op, src, dst))
            bound = dims[e] - rank
    ranks = [rank for rank, _ in pairs]
    ranks_f = [rank_f for _, rank_f in pairs] if arithmetic == "both" else None
    report = ExactnessReport(
        complex_name=name, k=k, mesh_shape=mesh.shape, dims=dims,
        ranks=ranks, ranks_float=ranks_f, composition_zero=comp_zero,
        kernel_dim_expected=kernel_dim, exact=False,
        cohomology_dim=dims[0] - ranks[0],
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        arithmetic_mode=arithmetic)
    report.exact = all(report.checks().values())
    return report


def verify_dimensions(fam: FamilyId, mesh: CuboidMesh) -> dict:
    space = assemble_space(fam, mesh)
    formula = global_dimension_formula(fam, mesh.entity_counts())
    return {"family": fam.name, "k": fam.k,
            "mesh": ",".join(str(n) for n in mesh.shape), "formula": formula,
            "assembled": space.dimension, "match": formula == space.dimension}


def verify_local_complex(name: str, k: int) -> dict:
    """Exactness of one ladder on the reference cell, no DOFs involved.

    The operators act directly on monomial coordinates of the shape
    spaces, so this isolates the polynomial sequence from everything the
    DOF layer adds (reduced ladders share these shape spaces).
    """
    if name not in ("gradgrad", "elasticity"):
        raise ValueError(
            f"local ladders exist for 'gradgrad' and 'elasticity', got {name!r}")
    fams, ops, kernel_dim, min_k = COMPLEXES[name]
    if k < min_k:
        raise ValueError(f"complex {name!r} needs k >= {min_k}")
    ids = [FamilyId(f, k) for f in fams]
    dims = [shape_space(f).local_dimension() for f in ids]
    mats = [SparseMatrix.from_rational(nrows, ncols, _operator_rows(op, src, dst))
            for op, src, dst, ncols, nrows
            in zip(ops, ids, ids[1:], dims, dims[1:])]
    ranks = [exact_rank(m) for m in mats]
    comp_zero = all(composition_is_zero(m2, m1)
                    for m1, m2 in zip(mats, mats[1:]))
    alternating = dims[0] - dims[1] + dims[2] - dims[3]
    exact = all(_ladder_checks(dims, ranks, kernel_dim).values())
    return {"complex": name, "k": k, "dims": dims, "ranks": ranks,
            "alternating_sum": alternating, "composition_zero": comp_zero,
            "exact": exact and comp_zero, "cohomology_dim": kernel_dim}


# ---------------------------------------------------------------------------
# kernel identification


def _affine_poly(box, const, lin) -> TensorPoly:
    """The physical affine polynomial const + lin . x on a cell."""
    c0 = Fraction(const) + sum(Fraction(lin[a]) * box.lo[a] for a in range(3))
    terms = {(0, 0, 0): c0}
    for a in range(3):
        if lin[a]:
            e = [0, 0, 0]
            e[a] = 1
            terms[tuple(e)] = Fraction(lin[a]) * box.h(a)
    return TensorPoly.from_terms(terms, cell=box)


def kernel_field_makers(name: str):
    """Cellwise representations of the global kernel fields.

    Scalar affines for the twice-differentiable ladder; translations plus
    infinitesimal rotations for the elasticity ladder.
    """
    if name.startswith("gradgrad"):
        specs = [(1, (0, 0, 0)), (0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1))]
        return [lambda ci, box, c=c, l=l: {"s": _affine_poly(box, c, l)}
                for c, l in specs]
    rigid = [
        {"x": (1, (0, 0, 0))},
        {"y": (1, (0, 0, 0))},
        {"z": (1, (0, 0, 0))},
        {"y": (0, (0, 0, -1)), "z": (0, (0, 1, 0))},   # e_x cross position
        {"x": (0, (0, 0, 1)), "z": (0, (-1, 0, 0))},   # e_y cross position
        {"x": (0, (0, -1, 0)), "y": (0, (1, 0, 0))},   # e_z cross position
    ]
    def make(spec):
        return lambda ci, box: {c: _affine_poly(box, s0, s1)
                                for c, (s0, s1) in spec.items()}
    return [make(s) for s in rigid]


def _as_columns(vecs: list[list[Fraction]], nrows: int) -> SparseMatrix:
    """The vectors, each of length ``nrows``, as the columns of one
    matrix."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
    for c, vec in enumerate(vecs):
        for i, v in enumerate(vec):
            if v:
                rows[i][c] = v
    return SparseMatrix.from_rational(nrows, len(vecs), rows)


def kernel_identification(name: str, k: int, mesh: CuboidMesh) -> dict:
    """Confirm the kernel of the first operator is exactly the global fields.

    Each expected kernel field is interpolated (shared DOFs must agree),
    annihilated exactly by the matrix (one exact product with the
    interpolants as its columns), and the interpolants must be linearly
    independent with count matching the nullity.  The nullity is ``kd``
    when they are and the cell sweep gives ``L0 = n0 - kd``
    (:func:`verify_complex`); otherwise the matrix is eliminated.
    """
    fams, ops, kernel_dim, _ = _complex(name)
    src = assemble_space(FamilyId(fams[0], k), mesh)
    dst = assemble_space(FamilyId(fams[1], k), mesh)
    a1 = operator_matrix(ops[0], src, dst)
    columns = _as_columns([interpolate(src, mk)
                           for mk in kernel_field_makers(name)], src.dimension)
    annihilated = composition_is_zero(a1, columns)
    interp_rank = exact_rank(columns)
    if (annihilated and interp_rank == kernel_dim
            and _rank_lower_bound(ops[0], src.fam, dst.fam, mesh.shape)
            == src.dimension - kernel_dim):
        # kd independent kernel vectors, and at most kd by the rank lemma
        # of verify_complex, whose premise P1 a1's audit gave
        nullity = kernel_dim
    else:
        nullity = src.dimension - exact_rank(a1)
    return {"complex": name, "k": k, "kernel_dim": kernel_dim,
            "annihilated": annihilated, "interpolant_rank": interp_rank,
            "nullity": nullity, "identified": annihilated
            and interp_rank == kernel_dim and nullity == kernel_dim}


# ---------------------------------------------------------------------------
# constructive divergence preimages


def _random_coeffs(n: int, rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9)) for _ in range(n)]


def _preimage_routes(name: str) -> list[tuple[int, str, int]]:
    """(target component index, matrix component, integration axis) triples."""
    if name.startswith("elasticity"):
        return [(0, "xx", 0), (1, "yy", 1), (2, "zz", 2)]
    return [(0, "xy", 1), (1, "yz", 2), (2, "zx", 0)]


def _preimage_fields(name: str, mesh: CuboidMesh,
                     qfields: list[PolyField]) -> list[dict[str, TensorPoly]]:
    """Per-cell matrix components whose row divergence reproduces the
    per-cell target fields ``qfields``.

    Each target component is integrated along its designated axis cell by
    cell, carrying the accumulated boundary trace down every cell column so
    traces match across the faces the integration crosses.
    """
    shape = mesh.shape
    sigma: list[dict[str, TensorPoly]] = [dict() for _ in range(mesh.num_cells)]
    for qa, scomp, axis in _preimage_routes(name):
        o1, o2 = _others(axis)
        for t1 in range(shape[o1]):
            for t2 in range(shape[o2]):
                offset = None
                for ia in range(shape[axis]):
                    idx = [0, 0, 0]
                    idx[axis] = ia
                    idx[o1] = t1
                    idx[o2] = t2
                    ci = mesh.cell_id(*idx)
                    box = mesh.cell_box(ci)
                    t = qfields[ci].vec(qa).antiderivative(axis)
                    if offset is not None:
                        t = t + TensorPoly(offset.degree, offset.coeffs, box)
                    sigma[ci][scomp] = t
                    top = [idx[0], idx[1], idx[2]]
                    top[axis] += 1
                    offset = t.trace(mesh.face_entity(axis, *top))
    return sigma


def _div_preimage(name: str, q_space: GlobalSpace, coeffs: list[Fraction],
                  target: GlobalSpace | None) -> tuple[GlobalSpace, list[Fraction]]:
    """Build the preimage of ``coeffs`` and check it: the divergence
    equation and membership of the target's shape space per cell,
    continuity across the faces the integration crosses, and conforming
    interpolation into ``target``."""
    fams, _ops, _kd, _min_k = COMPLEXES[name]
    mesh = q_space.mesh
    if target is None:
        target = assemble_space(FamilyId(fams[2], q_space.fam.k), mesh)
    spec = shape_space(target.fam)
    qfields = [reconstruct_local(q_space, ci, coeffs)
               for ci in range(mesh.num_cells)]
    sigma = _preimage_fields(name, mesh, qfields)
    symmetric = name.startswith("elasticity")
    for ci in range(mesh.num_cells):
        field = PolyField("matrix", sigma[ci], mesh.cell_box(ci),
                          symmetric=symmetric)
        dv = div_rows(field)
        for a in range(3):
            if not (dv.vec(a) - qfields[ci].vec(a)).is_zero():
                raise AssertionError(
                    f"preimage divergence mismatch, cell {ci} component "
                    f"{comp_name(a)}")
        # by unisolvence, membership is exactly what the interpolant
        # reproduces on the cell
        try:
            field_to_coords(field, spec)
        except MembershipError as exc:
            raise AssertionError(
                f"preimage for cell {ci} left the {target.fam.name} shape "
                f"space: {exc}") from exc
    for _qa, scomp, axis in _preimage_routes(name):
        for normal, i, j, l in mesh.interior_faces():
            if normal != axis:
                continue
            lo_ci, hi_ci = mesh.face_cells(normal, i, j, l)
            fent = mesh.face_entity(normal, i, j, l)
            if sigma[lo_ci][scomp].trace(fent) != sigma[hi_ci][scomp].trace(fent):
                raise AssertionError(
                    f"preimage component {scomp} jumps across face "
                    f"({normal},{i},{j},{l})")
    return target, interpolate(target, lambda ci, box: sigma[ci])


def _preimage_complex(names: tuple[str, str], q_space: GlobalSpace) -> str:
    """The complex of ``names`` whose last family is ``q_space``'s."""
    for name in names:
        if COMPLEXES[name][0][3] == q_space.fam.name:
            return name
    raise ValueError(
        f"targets must be in {COMPLEXES[names[0]][0][3]!r} or "
        f"{COMPLEXES[names[1]][0][3]!r}, got {q_space.fam.name!r}")


def div_preimage_gradgrad(q_space: GlobalSpace, coeffs: list[Fraction],
                          target: GlobalSpace | None = None,
                          ) -> tuple[GlobalSpace, list[Fraction]]:
    """An explicit traceless-matrix preimage of a discrete vector target.

    The off-diagonal components xy, yz, zx are antiderivatives of the target
    components along y, z, x respectively.  The divergence and membership
    of the matrix shape space are checked on every cell, the traces across
    the crossed faces, and the shared-DOF agreement inside
    :func:`interpolate` certifies the construction is conforming; a failed
    check raises ``AssertionError``.  A target outside ``q`` and ``q-red``
    raises ``ValueError``.  Returns the matrix space and the coefficient
    vector of the preimage.
    """
    name = _preimage_complex(("gradgrad", "gradgrad-reduced"), q_space)
    return _div_preimage(name, q_space, coeffs, target)


def div_preimage_elasticity(q_space: GlobalSpace, coeffs: list[Fraction],
                            target: GlobalSpace | None = None,
                            ) -> tuple[GlobalSpace, list[Fraction]]:
    """Same construction for the symmetric-matrix spaces, on the diagonal,
    with targets in ``z`` or ``z-red``."""
    name = _preimage_complex(("elasticity", "elasticity-reduced"), q_space)
    return _div_preimage(name, q_space, coeffs, target)


def div_preimage_check(name: str, k: int, mesh: CuboidMesh,
                       samples: int = 10, seed: int = 20260818) -> dict:
    """Round-trip random targets through the constructive preimage.

    The constructed matrix field must satisfy the divergence equation
    exactly per cell, be continuous across the faces its integration axes
    cross, interpolate into the matrix space without shared-DOF conflicts,
    and map back to the target coefficients through the assembled
    divergence matrix.  Raises ``ValueError`` for an unknown complex or
    fewer than one sample.
    """
    fams, _ops, _kd, min_k = _complex(name)
    if k < min_k:
        raise ValueError(f"complex {name!r} needs k >= {min_k}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    q_space = assemble_space(FamilyId(fams[3], k), mesh)
    mat_space = assemble_space(FamilyId(fams[2], k), mesh)
    div_mat = operator_matrix("div", mat_space, q_space)
    rng = random.Random(seed)
    targets, preimages = [], []
    for _ in range(samples):
        coeffs = _random_coeffs(q_space.dimension, rng)
        _target, pvec = _div_preimage(name, q_space, coeffs, mat_space)
        targets.append(coeffs)
        preimages.append(pvec)
    # one integer product div @ P, with the preimages as the columns of P
    P = _as_columns(preimages, mat_space.dimension)
    back = SparseMatrix(q_space.dimension, samples,
                        _exactcore.spmul(div_mat.rows, P.rows), div_mat.den * P.den)
    T = _as_columns(targets, q_space.dimension)
    if list(back.entries()) != list(T.entries()):
        raise AssertionError("divergence matrix does not return the target")
    return {"complex": name, "k": k, "samples": samples, "exact": True}


# ---------------------------------------------------------------------------
# interelement continuity


def continuity_traces(family_name: str, normal: int) -> list[tuple[str, tuple[int, int, int]]]:
    """The (component, derivative) traces a family keeps single-valued
    across an interior face with the given normal."""
    d0 = (0, 0, 0)
    dn = tuple(int(a == normal) for a in range(3))
    tangent = [a for a in range(3) if a != normal]
    if family_name == "u":
        return [("s", d0), ("s", dn)]
    if family_name in ("sigma", "sigma-red", "phi"):
        pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
        out = ([(comp_name(a, a), d0) for a in tangent]
               + [(comp_name(a, b), d0) for a, b in pairs])
        if family_name == "phi":
            out += [(comp_name(a, a), dn) for a in tangent]
            out += [(comp_name(a, b), dn) for a, b in pairs
                    if normal not in (a, b)]
        return out
    if family_name == "xi":
        return [(c, d0) for c in ("xx", "yy", "zz")] + [
            (comp_name(a, b), d0) for a in tangent for b in range(3) if b != a]
    if family_name == "xi-red":
        return [(comp_name(normal, normal), d0)] + [
            (comp_name(a, normal), d0) for a in tangent]
    if family_name == "x":
        return [(comp_name(a), d0) for a in range(3)]
    if family_name in ("gamma", "gamma-red"):
        out = [(comp_name(min(normal, b), max(normal, b)), d0) for b in range(3)]
        if family_name == "gamma":
            out.append((comp_name(normal, normal), dn))
        return out
    if family_name == "z":
        return [(comp_name(normal), d0)]
    if family_name == "q":
        return [(comp_name(a), d0) for a in tangent]
    if family_name in ("q-red", "z-red"):
        return []
    raise ValueError(family_name)


def face_jump(space: GlobalSpace, coeffs: list[Fraction],
              face: tuple[int, int, int, int],
              traces: list[tuple[str, tuple[int, int, int]]]) -> list[Fraction]:
    """Jumps of traced quantities across one interior face.

    ``face`` is (normal, i, j, l) with the index along the normal strictly
    inside the mesh; ``traces`` lists (component, derivative multi-order)
    pairs.  Each trace is taken exactly from both adjacent cells as a
    polynomial on the face, and the coefficients of their difference are
    returned flat, trace by trace.  All zeros proves the jump vanishes on
    the whole face, at every order.
    """
    if not (len(face) == 4 and face[0] in (0, 1, 2) and all(
            0 < v < n if a == face[0] else 0 <= v < n
            for a, (v, n) in enumerate(zip(face[1:], space.mesh.shape)))):
        raise ValueError(f"face {face} is not interior")
    fent = space.mesh.face_entity(*face)
    fields = [reconstruct_local(space, ci, coeffs) for ci in space.mesh.face_cells(*face)]
    out: list[Fraction] = []
    for comp, deriv in traces:
        lo, hi = (f.component(comp).differentiate_multi(deriv).trace(fent)
                  for f in fields)
        out.extend((lo - hi).coeffs)
    return out


def _trace_determined(fam: FamilyId, comp: str, d: int, a: int, phi: list[int]) -> bool:
    """Premise (i) of :func:`jump_check` for the DOFs ``phi``: on product
    and fibred blocks, ``(d, ., 1)`` is an axis-``a`` functional of every
    fibre (the tangential 1-D tables are nonsingular, as unisolvence
    needs); otherwise the trace's rows lie in the span of ``phi``'s."""
    spec = shape_space(fam)
    group = spec.group_of(comp)
    forms = group_forms(fam)[group.name]
    if forms is not None and all(f.axes is not None for f in forms):
        # a dependent component (zz of a traceless diagonal) reads them all
        own = [f for f in forms if comp in f.comps] or forms
        return all(any(fn[::2] == (d, 1) for fn in fl)
                   for f in own for fl in f.axes[a])
    # each row is (d, 0, 1) on a, where all caps agree, times a tangential row
    dims = [spec.degrees[c].dim() for c in group.independent]
    offsets, width = dict(zip(group.independent, accumulate([0] + dims))), sum(dims)
    caps = {c: spec.degrees[c].caps for c in group.components}
    dofs, funcs = local_dofs(fam), _catalog_functionals(fam)
    rows = [_product_row(dofs[p].component, [
        [1] if x == a else _axis_table(cap, *f, Fraction(1))
        for x, (cap, f) in enumerate(zip(caps[dofs[p].component], funcs[p]))],
        offsets, width) for p in phi]
    # the trace's rows: one unit row per tangential monomial
    m = prod(cap + 1 for x, cap in enumerate(caps[comp]) if x != a)
    trace = [_product_row(comp, ([int(i == j) for i in range(m)], [1], [1]),
                          offsets, width) for j in range(m)]
    return (bool(rows) and len({c[a] for c in caps.values()}) == 1
            and _rank(rows, width) == _rank(rows + trace, width))


@lru_cache(maxsize=None)
def _face_closure(fam: FamilyId) -> tuple[dict[int, tuple], ...]:
    """Per normal axis, each DOF of a promised trace's ``Phi_1`` with its
    mirror and first trace, once :func:`jump_check`'s (i) and (ii) hold."""
    funcs, mirror = _catalog_functionals(fam), _mirrors(fam)
    out: list[dict[int, tuple]] = [{}, {}, {}]
    for a, closure in enumerate(out):
        for comp, deriv in continuity_traces(fam.name, a):
            what = f"{fam.name} k={fam.k}, axis {comp_name(a)}, trace {comp} deriv {deriv}"
            group = shape_space(fam).group_of(comp).name
            phi = [[p for p in _group_positions(fam)[group]
                    if funcs[p][a][::2] == (deriv[a], s)] for s in (0, 1)]
            if not _trace_determined(fam, comp, deriv[a], a, phi[1]):
                raise ConformityError(f"{what}: not determined by its DOFs on t = 1: " + (
                    ", ".join(_dof_label(fam, p) for p in phi[1]) or "none"))
            for s, p in ((s, p) for s in (1, 0) for p in phi[s]):
                if mirror[p][a] is None:
                    raise ConformityError(f"{what}: {_dof_label(fam, p)} has no "
                                          f"mirror on t = {1 - s}")
            closure.update((p, (mirror[p][a], comp, deriv))
                           for p in phi[1] if p not in closure)
    return tuple(out)


def jump_check(fam: FamilyId, mesh: CuboidMesh, fields: int = 5,
               seed: int = 20260818) -> dict:
    """Prove that every member keeps each trace :func:`continuity_traces`
    promises single-valued across every interior face; nothing is sampled.

    Lemma: for a normal axis ``a`` and a promised trace ``d_a^d c`` (``d``
    0 or 1), let ``Phi_s`` be the DOFs of ``c``'s group whose axis-``a``
    functional is ``(d, ., s)``.  Suppose (i) ``Phi_1`` determines the
    trace on ``t_a = 1`` of the unit cell, (ii) flipping the side on ``a``
    maps ``Phi_1`` onto ``Phi_0`` (:func:`_mirrors`), and (iii) across each
    interior face normal to ``a`` each DOF of ``Phi_1`` below has its
    mirror's global index above.  The shape spaces are full tensor grids,
    so ``t_a -> 1 - t_a`` maps each onto itself and ``Phi_1`` to ``(-1)^d
    Phi_0``: by (i) and (ii) the trace on ``t_a = 0`` is the same map of
    ``Phi_0`` as on ``t_a = 1`` of ``Phi_1``.  ``Phi``'s DOFs scale by
    ``h_a^-d``, as ``d^d/dx_a^d`` does, times extents of the face, so by
    (iii) the trace is single-valued on any box mesh, uniform or graded.
    (i) (:func:`_trace_determined`) and (ii) are unit-cell facts, checked
    once per family and order, and (iii) is checked on ``mesh``; a failure
    raises :class:`ConformityError` naming family, ``k``, axis, trace and
    DOFs.  ``traces_checked`` is ``fields`` times the (face, trace) pairs
    proved; ``seed`` is unused.  Fewer than one field or no interior face
    raises ``ValueError`` before any assembly.
    """
    if fields < 1:
        raise ValueError(f"fields must be at least 1, got {fields}")
    faces = [prod(mesh.shape) // n * (n - 1) for n in mesh.shape]  # per normal
    if not any(faces):
        raise ValueError("mesh has no interior faces")
    closure = _face_closure(fam)
    maps = assemble_space(fam, mesh).cell_maps
    for face in mesh.interior_faces():
        (lo, hi), a = mesh.face_cells(*face), face[0]
        for p, (q, comp, deriv) in closure[a].items():
            if maps[lo][p] != maps[hi][q]:
                raise ConformityError(
                    f"{fam.name} k={fam.k}, axis {comp_name(a)}, trace {comp} "
                    f"deriv {deriv}: face {face} numbers {_dof_label(fam, p)} "
                    f"{maps[lo][p]} below, {_dof_label(fam, q)} {maps[hi][q]} above")
    checked = fields * sum(n * len(continuity_traces(fam.name, a))
                           for a, n in enumerate(faces))
    return {"family": fam.name, "k": fam.k, "fields": fields,
            "traces_checked": checked, "continuous": True}


def discontinuity_witness(fam: FamilyId, mesh: CuboidMesh, comp: str,
                          normal: int, seed: int = 20260818) -> bool:
    """True when a random member jumps in ``comp`` across some interior
    face of the given normal; the negative control for reduced families."""
    space = assemble_space(fam, mesh)
    rng = random.Random(seed)
    coeffs = _random_coeffs(space.dimension, rng)
    return any(any(face_jump(space, coeffs, face, [(comp, (0, 0, 0))]))
               for face in mesh.interior_faces() if face[0] == normal)


# ---------------------------------------------------------------------------
# curl/gradient commutation identities


def check_curl_identities(u: PolyField) -> bool:
    """Both commutation identities for one vector field, exactly.

    Row-wise curl of the symmetric gradient equals half the transposed
    Jacobian of the curl; the transposed variant drops the transpose.
    """
    # each residual holds all nine components
    return all(p.is_zero() for res in check_identity_curl_symgrad(u)
               for p in res.comps.values())


def random_member_field(fam: FamilyId, cell, rng: random.Random) -> PolyField:
    """A random element of the family's shape space on one cell."""
    spec = shape_space(fam)
    comps = {}
    for g in spec.groups:
        for comp in g.independent:
            grid = spec.degrees[comp]
            comps[comp] = TensorPoly(
                grid, [Fraction(rng.randint(-9, 9)) for _ in range(grid.dim())],
                cell)
    if spec.traceless:
        comps["zz"] = -(comps["xx"] + comps["yy"])
    return PolyField(spec.kind, comps, cell, symmetric=spec.symmetric)


def identity_suite(count: int = 50, seed: int = 20260818,
                   orders: tuple[int, ...] = (2, 3)) -> dict:
    """Random vector fields from the continuous family's shape spaces must
    satisfy both curl identities on unit and anisotropic cells."""
    from .polytensor import box
    rng = random.Random(seed)
    cells = [box(0, 1, 0, 1, 0, 1),
             box(0, Fraction(1, 2), 0, Fraction(1, 3), 0, Fraction(3, 4))]
    passed = 0
    for n in range(count):
        k = orders[n % len(orders)]
        cell = cells[n % len(cells)]
        u = random_member_field(FamilyId("x", k), cell, rng)
        if not check_curl_identities(u):
            raise AssertionError(f"curl identity failed at sample {n} (k={k})")
        passed += 1
    return {"checks": count, "passed": passed, "seed": seed}
