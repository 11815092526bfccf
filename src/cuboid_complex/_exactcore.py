"""Exact integer kernels: fraction-free rank, reduced echelon form and
inverse, matrix products, and the one helper that clears rational rows to
integers.

Conventions:

* a dense matrix is a list of rows, each row a list of ``int``;
* a sparse matrix is a list of rows, each row a ``dict`` mapping column
  index to a nonzero ``int``;
* every routine is exact.  Callers keep track of denominators themselves;
  :func:`clear_denominators` is the one bridge from rational rows.

``ff_rank`` and ``ff_rref`` fix their pivot strategy deterministically,
so a run is reproducible pivot for pivot.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import gcd, lcm

# How many of the shortest live rows the Markowitz search compares when no
# column singleton is queued.  Column singletons come from the queue and
# row singletons are the shortest rows, so two rows find every count-0
# pivot; each row more costs a key per entry on every search.
_PIVOT_ROWS = 2


def clear_denominators(rows: list, common: bool = False) -> tuple[list, list[int]]:
    """Integer rows from rational rows: row ``i`` is ``out[i] / dens[i]``.

    A row is a list of values or a dict mapping column to value, kept as
    such (dict rows drop zeros).  ``dens[i]`` is the least common
    denominator of row ``i``, or with ``common`` of the whole matrix, so the
    integer rows can be added and multiplied as they stand.
    """
    dens = [lcm(*(v.denominator for v in (r.values() if isinstance(r, dict) else r)))
            for r in rows]
    if common:
        dens = [lcm(*dens)] * len(dens)
    out: list = []
    for r, d in zip(rows, dens):
        if isinstance(r, dict):
            out.append({j: v.numerator * (d // v.denominator)
                        for j, v in r.items() if v})
        else:
            out.append([v.numerator * (d // v.denominator) for v in r])
    return out, dens


def ff_rank(rows: list[dict[int, int]], ncols: int,
            counts: dict | None = None,
            ends: list[int] | None = None) -> int | list[int]:
    """Rank of a sparse integer matrix by fraction-free elimination.

    Bareiss-style cross-multiplication keeps every entry an integer, and
    per-row content removal plays the role of the exact Bareiss division.
    A target row with entry ``f`` in the pivot column becomes ``a * row -
    b * prow`` (``g = gcd(piv, f)``, ``a = piv / g``, ``b = f / g``), then
    loses its content.  The update writes only what changes: a one-entry
    pivot row only deletes its column (content removal cancels ``a`` up to
    sign); with ``a == 1`` the target is updated in place on the pivot
    row's columns; otherwise it is rebuilt once as ``{c: a * v}``, then
    updated so.  ``rows`` is copied on entry and left as it was.

    Pivots are deterministic.  A column with one live row (Markowitz count
    0) needs no search: the queue ``singles`` holds such columns in the
    order they became so, at the start or when a pivot row left them or an
    update cancelled an entry, and skips one that fill regrew or that
    emptied.  Otherwise the Markowitz count decides among the
    ``_PIVOT_ROWS`` live rows smallest in ``(length, index)``, ties broken
    toward small bit length, then by (row, column).  ``heap`` holds
    ``(len(row), index)`` entries, skipped when stale (row gone or another
    length) or repeated, so the first distinct current entries popped are
    the smallest.  Once it holds more than twice as many entries as there
    are live rows it is rebuilt from them, with the same smallest entries.
    ``col_rows[c]`` lists the rows that
    have held an entry in column ``c``, appended on fill and never pruned;
    ``col_live[c]`` counts those live and holding one now.  A listed row
    that is gone or lacks the entry (cancelled, or popped on an earlier
    visit when fill listed it twice) is skipped.

    With ``counts`` given, the dict receives ``pivots`` (the rank),
    ``singleton_pivots`` (pivots taken from the queue), ``entries_written``
    (the nonzeros each updated row holds after its update, summed: fill,
    whatever the update path), ``max_pivot_bits`` and ``peak_live`` (the
    most nonzeros the rows not yet pivoted held at once, counted at entry
    and after each row update).

    With ``ends``, a nonempty increasing list of row counts, the
    elimination runs in stages: during stage ``t`` pivot rows come only
    from ``rows[:ends[t]]``, pivot columns stay free and every live row is
    still updated.  A stage ends when no live row of its prefix is left, so
    the pivots taken by then number the rank of ``rows[:ends[t]]``, and the
    list of these prefix ranks is returned in place of the rank.  A queued
    column whose one live row lies past the prefix is dropped, and each
    stage starts with the queue rebuilt as at entry.
    """
    act: dict[int, dict[int, int]] = {}
    col_rows: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        r = {c: v for c, v in row.items() if v}
        if r:
            _strip_content(r)
            act[i] = r
            for c in r:
                col_rows.setdefault(c, []).append(i)
    col_live = {c: len(rs) for c, rs in col_rows.items()}
    staged = ends is not None
    ends = ends if staged else [len(rows)]
    limit = ends[0]
    heap = [(len(r), i) for i, r in act.items() if i < limit]
    heapify(heap)
    singles = deque(c for c, n in col_live.items() if n == 1)
    prefix_ranks: list[int] = []

    rank = singleton_pivots = written = max_bits = 0
    live_nnz = peak = sum(map(len, act.values()))
    while act:
        pc = -1
        while singles:
            c = singles.popleft()
            if col_live.get(c) == 1:
                for pi in col_rows[c]:
                    if c in act.get(pi, ()):
                        break
                if pi >= limit:
                    continue  # requeued when its row's stage starts
                pc = c
                singleton_pivots += 1
                break
        if pc < 0:
            shortlist: dict[int, dict[int, int]] = {}
            while len(shortlist) < _PIVOT_ROWS and heap:
                n, i = heappop(heap)
                r = act.get(i)
                if r is not None and len(r) == n and i not in shortlist:
                    shortlist[i] = r
            if not shortlist:
                # no live row of the prefix is left: the stage ends
                prefix_ranks.append(rank)
                if len(prefix_ranks) == len(ends):
                    break
                limit = ends[len(prefix_ranks)]
                heap = [(len(r), i) for i, r in act.items() if i < limit]
                heapify(heap)
                singles = deque(c for c, n in col_live.items() if n == 1)
                continue
            pi, pc = _pick_pivot(shortlist, col_live)
            for i, r in shortlist.items():
                if i != pi:
                    heappush(heap, (len(r), i))

        prow = act.pop(pi)
        live_nnz -= len(prow)
        piv = prow[pc]
        for c in prow:
            n = col_live[c] - 1
            col_live[c] = n
            if n == 1:
                singles.append(c)
        rank += 1
        bits = piv.bit_length()
        if bits > max_bits:
            max_bits = bits

        del col_live[pc]
        for ri in col_rows.pop(pc):
            r = act.get(ri)
            if r is None or pc not in r:
                continue  # gone, cancelled there, or seen already
            before = len(r)
            f = r.pop(pc)
            if len(prow) > 1:
                g = gcd(piv, f)
                a = piv // g
                b = f // g
                if a != 1:
                    # scaling writes every entry anyway, and a fresh dict
                    # is compact: scaling in place keeps grown tables alive
                    # and raises the memory peak
                    r = act[ri] = {c: a * v for c, v in r.items()}
                for c, pv in prow.items():
                    v = r.get(c)
                    if v is None:
                        if c != pc:  # the target's pivot entry is gone
                            r[c] = -b * pv
                            col_rows[c].append(ri)
                            col_live[c] += 1
                        continue
                    w = v - b * pv
                    if w:
                        r[c] = w
                    else:
                        del r[c]
                        n = col_live[c] - 1
                        col_live[c] = n
                        if n == 1:
                            singles.append(c)
            live_nnz += len(r) - before
            if live_nnz > peak:
                peak = live_nnz
            if r:
                written += len(r)
                _strip_content(r)
                if ri < limit:
                    heappush(heap, (len(r), ri))
            else:
                del act[ri]
        if len(heap) > 2 * len(act):
            heap = [(len(r), i) for i, r in act.items() if i < limit]
            heapify(heap)
    if counts is not None:
        counts.update(pivots=rank, singleton_pivots=singleton_pivots,
                      entries_written=written, max_pivot_bits=max_bits,
                      peak_live=peak)
    if staged:
        return prefix_ranks + [rank] * (len(ends) - len(prefix_ranks))
    return rank


def _pick_pivot(shortlist: dict[int, dict[int, int]],
                col_live: dict[int, int]) -> tuple[int, int]:
    best_key = None
    best = (-1, -1)
    for i, r in shortlist.items():
        rc = len(r) - 1
        for c, v in r.items():
            key = (rc * (col_live[c] - 1), v.bit_length(), i, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (i, c)
    return best


def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def ff_rref(mat: list[list[int]],
            ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of a dense integer matrix by one-step
    fraction-free Gauss-Jordan elimination (Bareiss), in which every
    division is exact.

    Pivots are sought left to right in the first ``ncols`` columns, in the
    row of least bit length, then index; later columns ride along.
    Returns ``(rows, pivots, den)``: ``rows[t] / den`` is row ``t`` of the
    (unique) reduced echelon form, with its leading 1 in column
    ``pivots[t]``, and the rows after the pivot rows are zero in the first
    ``ncols`` columns.  ``mat`` is left as it was.
    """
    nrows = len(mat)
    m = list(mat)  # rows are replaced, never written in place
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        t = len(pivots)
        p = -1
        best = None
        for i in range(t, nrows):
            v = m[i][c]
            if v:
                key = (v.bit_length(), i)
                if best is None or key < best:
                    best = key
                    p = i
        if p < 0:
            continue
        if p != t:
            m[t], m[p] = m[p], m[t]
        mt = m[t]
        piv = mt[c]
        for i in range(nrows):
            if i == t:
                continue
            # column c cancels: piv * f - f * piv, or piv * 0
            f = m[i][c]
            if f:
                m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], mt)]
            elif piv == -prev:
                # the usual rescale between unit pivots, at half the cost
                m[i] = [-a for a in m[i]]
            elif piv != prev:
                m[i] = [piv * a // prev for a in m[i]]
        prev = piv
        pivots.append(c)
    return m, pivots, prev


def fj_inverse(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Exact inverse of a square integer matrix, ``mat^-1 = num / den``,
    from :func:`ff_rref` of ``[mat | I]``.  Raises ``ZeroDivisionError`` if
    the matrix is singular.
    """
    n = len(mat)
    rows, pivots, den = ff_rref(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows], den


def imat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Dense integer matrix product ``a @ b``."""
    if not a or not b:
        return []
    ncols = len(b[0])
    out = []
    for arow in a:
        acc = [0] * ncols
        for k, v in enumerate(arow):
            if v:
                brow = b[k]
                for j in range(ncols):
                    w = brow[j]
                    if w:
                        acc[j] += v * w
        out.append(acc)
    return out


def spmul(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    """Sparse integer matrix product ``a @ b`` (rows of dicts)."""
    out = []
    for arow in a:
        acc: dict[int, int] = {}
        for k, v in arow.items():
            for c, w in b[k].items():
                acc[c] = acc.get(c, 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    return out
