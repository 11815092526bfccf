"""Exact integer kernels: fraction-free rank, exact inverse, matrix products,
and the one helper that clears rational rows to integers.

Conventions:

* a dense matrix is a list of rows, each row a list of ``int``;
* a sparse matrix is a list of rows, each row a ``dict`` mapping column
  index to a nonzero ``int``;
* every routine is exact.  Callers keep track of denominators themselves;
  :func:`clear_denominators` is the one bridge from rational rows.

``ff_rank`` and ``fj_inverse`` fix their pivot strategy deterministically,
so a run is reproducible pivot for pivot.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

# How many of the sparsest rows the pivot search inspects per step.  Small
# enough to keep the search cheap, large enough that the Markowitz count has
# real candidates to compare.
_PIVOT_ROWS = 12


def clear_denominators(rows: list, common: bool = False) -> tuple[list, list[int]]:
    """Integer rows from rational rows: row ``i`` is ``out[i] / dens[i]``.

    A row is a list of values or a dict mapping column to value; each output
    row has its input row's type, and dict rows drop zero entries.  Each
    ``dens[i]`` is the least common denominator of row ``i``, which keeps
    the rank, every row's kernel and the smallest integers, all that
    elimination needs.  With ``common`` every ``dens[i]`` is the least
    common denominator of the whole matrix, so the integer rows can be
    added and multiplied as they stand.  Returns ``(out, dens)``.
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


def ff_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank of a sparse integer matrix by fraction-free elimination.

    Bareiss-style cross-multiplication updates keep every intermediate
    entry an integer; per-row content removal plays the role of the exact
    Bareiss division (the guaranteed divisor always divides the row
    content, so entries never grow past the classical bound).  Pivots are
    chosen by Markowitz count among the ``_PIVOT_ROWS`` live rows smallest
    in ``(length, index)``, with ties broken toward entries of small
    magnitude and then by (row, column) index so runs are reproducible.

    Two structures keep each step proportional to the work it does:

    * ``heap`` holds ``(len(row), index)`` entries.  Every live row has a
      current entry; an entry is stale once its row is gone or has another
      length, and stale or repeated entries are skipped when popped.  So
      the first ``_PIVOT_ROWS`` distinct current entries popped are exactly
      the smallest ``(length, index)`` pairs of the live rows.
    * ``col_rows[c]`` is the set of live rows with a nonzero in column
      ``c``; its size is the Markowitz column count, and popping the pivot
      column yields the rows to eliminate.  Their order does not matter:
      each update reads only the pivot row and the target itself.
    """
    act: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        r = {c: v for c, v in row.items() if v}
        if r:
            _strip_content(r)
            act[i] = r
            for c in r:
                col_rows.setdefault(c, set()).add(i)
    heap = [(len(r), i) for i, r in act.items()]
    heapify(heap)

    rank = 0
    while act:
        shortlist: dict[int, dict[int, int]] = {}
        while len(shortlist) < _PIVOT_ROWS and heap:
            n, i = heappop(heap)
            r = act.get(i)
            if r is not None and len(r) == n and i not in shortlist:
                shortlist[i] = r
        pi, pc = _pick_pivot(shortlist, col_rows)
        for i, r in shortlist.items():
            if i != pi:
                heappush(heap, (len(r), i))

        prow = act.pop(pi)
        piv = prow[pc]
        for c in prow:
            col_rows[c].discard(pi)
        rank += 1

        for ri in col_rows.pop(pc):
            r = act.pop(ri)
            f = r.pop(pc)
            g = gcd(piv, f)
            a = piv // g
            b = f // g
            new: dict[int, int] = {}
            for c, v in r.items():
                pv = prow.get(c)
                w = a * v if pv is None else a * v - b * pv
                if w:
                    new[c] = w
                else:
                    col_rows[c].discard(ri)
            for c, pv in prow.items():
                if c != pc and c not in r:
                    new[c] = -b * pv
                    col_rows[c].add(ri)
            if new:
                _strip_content(new)
                act[ri] = new
                heappush(heap, (len(new), ri))
    return rank


def _pick_pivot(shortlist: dict[int, dict[int, int]],
                col_rows: dict[int, set[int]]) -> tuple[int, int]:
    best_key = None
    best = (-1, -1)
    for i, r in shortlist.items():
        rc = len(r) - 1
        for c, v in r.items():
            key = (rc * (len(col_rows[c]) - 1), v.bit_length() if v > 0 else (-v).bit_length(), i, c)
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


def fj_inverse(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Exact inverse of a square integer matrix.

    Runs one-step fraction-free Gauss-Jordan elimination on ``[mat | I]``.
    Every division is exact; on return the left block has been reduced to
    ``den * I`` and the right block ``num`` satisfies ``mat^-1 = num / den``.
    Raises ``ZeroDivisionError`` if the matrix is singular.
    """
    n = len(mat)
    width = 2 * n
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for t in range(n):
        p = -1
        best = None
        for i in range(t, n):
            v = m[i][t]
            if v:
                key = (v.bit_length() if v > 0 else (-v).bit_length(), i)
                if best is None or key < best:
                    best = key
                    p = i
        if p < 0:
            raise ZeroDivisionError("matrix is singular")
        if p != t:
            m[t], m[p] = m[p], m[t]
        piv = m[t][t]
        mt = m[t]
        for i in range(n):
            if i == t:
                continue
            mi = m[i]
            f = mi[t]
            if f:
                for j in range(width):
                    if j != t:
                        mi[j] = (piv * mi[j] - f * mt[j]) // prev
            elif prev != 1 or piv != 1:
                for j in range(width):
                    if j != t:
                        mi[j] = piv * mi[j] // prev
            mi[t] = 0
        prev = piv
    num = [row[n:] for row in m]
    return num, prev


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
