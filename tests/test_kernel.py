"""Exact integer kernels against a slow Fraction elimination oracle, and the
float rank route against a full-matrix SVD."""

import copy
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cuboid_complex import _exactcore, verify
from cuboid_complex.assembly import SparseMatrix, operator_matrix
from cuboid_complex.mesh import build_box_mesh, uniform_unit_mesh
from cuboid_complex.verify import (
    COMPLEXES, certified_ranks, complex_spaces, exact_rank, float_rank,
)


def oracle_rank(rows, ncols):
    """Plain Gaussian elimination over Fraction, no pivot strategy."""
    mat = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def dense_to_rows(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def random_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_identity_and_zero():
    eye = dense_to_rows([[1 if i == j else 0 for j in range(7)] for i in range(7)])
    assert _exactcore.ff_rank(eye, 7) == 7
    assert _exactcore.ff_rank([], 5) == 0
    assert _exactcore.ff_rank([{}, {}], 5) == 0


def test_rank_single_entries():
    assert _exactcore.ff_rank([{3: 17}], 5) == 1
    assert _exactcore.ff_rank([{0: 2}, {0: -3}], 1) == 1


@pytest.mark.parametrize("seed", range(8))
def test_rank_random_square_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    dense = random_int_matrix(rng, n, n)
    rows = dense_to_rows(dense)
    assert _exactcore.ff_rank(rows, n) == oracle_rank(rows, n)


@pytest.mark.parametrize("seed", range(8))
def test_rank_deficient_products(seed):
    # A (m x r) @ B (r x n) has rank at most r and generically exactly r.
    rng = random.Random(100 + seed)
    m, r, n = rng.randint(4, 9), rng.randint(1, 3), rng.randint(4, 9)
    a = random_int_matrix(rng, m, r)
    b = random_int_matrix(rng, r, n)
    prod = _exactcore.imat_mul(a, b)
    rows = dense_to_rows(prod)
    got = _exactcore.ff_rank(rows, n)
    assert got == oracle_rank(rows, n)
    assert got <= r


def test_rank_duplicated_and_scaled_rows():
    rng = random.Random(7)
    base = random_int_matrix(rng, 3, 6)
    stacked = base + [[4 * v for v in base[0]], base[1], [0] * 6]
    rows = dense_to_rows(stacked)
    assert _exactcore.ff_rank(rows, 6) == oracle_rank(rows, 6) == 3


def test_fj_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randint(1, 8)
        dense = random_int_matrix(rng, n, n)
        while oracle_rank(dense_to_rows(dense), n) < n:
            dense = random_int_matrix(rng, n, n)
        num, den = _exactcore.fj_inverse(dense)
        assert den != 0
        prod = _exactcore.imat_mul(dense, num)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (den if i == j else 0)


@pytest.mark.parametrize("seed", range(4))
def test_ff_rref_equals_the_fraction_reduced_echelon_form(seed):
    # rank 3 of 5 rows, column 0 empty and column 3 dependent, so two
    # columns are skipped; the last column is outside the pivot search
    rng = random.Random(700 + seed)
    base = random_int_matrix(rng, 3, 6)
    for row in base:
        row[0] = 0
        row[3] = 2 * row[1] - row[2]
    mat = base + [[a - 3 * b for a, b in zip(base[0], base[2])], [0] * 6]
    before = copy.deepcopy(mat)
    rows, pivots, den = _exactcore.ff_rref(mat, 5)
    assert pivots == [1, 2, 4] and len(rows) == 5
    want = [[Fraction(v) for v in row] for row in mat]
    for t, c in enumerate(pivots):
        p = next(i for i in range(t, 5) if want[i][c])
        want[t], want[p] = want[p], want[t]
        want[t] = [v / want[t][c] for v in want[t]]
        for i in range(5):
            if i != t and want[i][c]:
                f = want[i][c]
                want[i] = [a - f * b for a, b in zip(want[i], want[t])]
    assert [[Fraction(v, den) for v in row] for row in rows] == want
    assert mat == before


def test_fj_inverse_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        _exactcore.fj_inverse([[1, 2], [2, 4]])


def test_imat_mul_matches_naive():
    rng = random.Random(13)
    a = random_int_matrix(rng, 4, 6)
    b = random_int_matrix(rng, 6, 3)
    want = [[sum(a[i][k] * b[k][j] for k in range(6)) for j in range(3)]
            for i in range(4)]
    assert _exactcore.imat_mul(a, b) == want


def test_spmul_matches_naive():
    rng = random.Random(17)
    a = dense_to_rows(random_int_matrix(rng, 5, 7))
    b = dense_to_rows(random_int_matrix(rng, 7, 4))
    got = _exactcore.spmul(a, b)
    for i in range(5):
        for j in range(4):
            want = sum(a[i].get(k, 0) * b[k].get(j, 0) for k in range(7))
            assert got[i].get(j, 0) == want


small_matrices = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        min_size=1, max_size=8).map(lambda m: (m, n)))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_rank_property_matches_oracle(case):
    dense, ncols = case
    rows = dense_to_rows(dense)
    assert _exactcore.ff_rank([dict(r) for r in rows], ncols) == \
        oracle_rank(rows, ncols)


@settings(max_examples=25, deadline=None)
@given(small_matrices, st.integers(-5, 5))
def test_rank_unchanged_by_appending_combination(case, c):
    dense, ncols = case
    combo = [c * v for v in dense[0]]
    if len(dense) > 1:
        combo = [a + b for a, b in zip(combo, dense[1])]
    rows = dense_to_rows(dense)
    grown = dense_to_rows(dense + [combo])
    assert _exactcore.ff_rank(grown, ncols) == _exactcore.ff_rank(rows, ncols)


# The pivot search takes column singletons from a queue and otherwise
# shortlists the 2 shortest live rows (by length, then index); it
# eliminates through a column -> rows index.  The cases below have 30-150
# rows, so the shortlist truncates on every search and the index is
# updated through fill-in, cancellation and rows that vanish.

def sparse_row(rng, ncols, lo=2, hi=6):
    cols = rng.sample(range(ncols), rng.randint(lo, min(hi, ncols)))
    return {c: rng.choice((-7, -3, -2, -1, 1, 2, 3, 5)) for c in cols}


def sparse_deficient_rows(rng, nrows, ncols, nbasis):
    """Rows of 2-6 nonzeros spanning at most ``nbasis`` dimensions, mixed
    with exact duplicates and scaled copies of earlier rows."""
    basis = [sparse_row(rng, ncols, 2, 3) for _ in range(nbasis)]
    rows = []
    while len(rows) < nrows:
        pick = rng.random()
        if rows and pick < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif rows and pick < 0.4:
            s = rng.choice((-4, -1, 2, 3))
            rows.append({c: s * v for c, v in rng.choice(rows).items()})
        else:
            a, b = rng.sample(basis, 2)
            sa, sb = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))
            row = {c: sa * v for c, v in a.items()}
            for c, v in b.items():
                row[c] = row.get(c, 0) + sb * v
            rows.append({c: v for c, v in row.items() if v})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_rank_sparse_deficient_past_shortlist(seed):
    rng = random.Random(300 + seed)
    nrows, ncols = rng.randint(30, 150), rng.randint(20, 40)
    nbasis = rng.randint(4, 15)
    rows = sparse_deficient_rows(rng, nrows, ncols, nbasis)
    got = _exactcore.ff_rank([dict(r) for r in rows], ncols)
    assert got == oracle_rank(rows, ncols)
    assert got <= nbasis < nrows


@pytest.mark.parametrize("seed", range(4))
def test_rank_rows_cancel_to_empty(seed):
    # Every row after the first 20 is the difference of two earlier rows
    # that share a column pattern, so it is eliminated to nothing.
    rng = random.Random(400 + seed)
    ncols = 30
    rows = [sparse_row(rng, ncols) for _ in range(20)]
    for _ in range(rng.randint(15, 60)):
        a, b = rng.sample(rows[:20], 2)
        s = rng.choice((-2, 1, 5))
        row = {c: s * v for c, v in a.items()}
        for c, v in b.items():
            row[c] = row.get(c, 0) - v
        rows.append({c: v for c, v in row.items() if v})
    rows.append({c: -v for c, v in rows[0].items()})
    got = _exactcore.ff_rank(rows, ncols)
    assert got == oracle_rank(rows, ncols)
    assert got == _exactcore.ff_rank(rows[:20], ncols)


sparse_tall_matrices = st.integers(8, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.dictionaries(st.integers(0, n - 1),
                                 st.integers(-6, 6).filter(bool),
                                 min_size=2, max_size=6),
                 min_size=30, max_size=150),
        st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(-3, 3)),
                 max_size=20),
        st.just(n)))


# No shrink phase: every shrink step of a 150-row case reruns the Fraction
# oracle, which took minutes to report a wrong rank.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(sparse_tall_matrices)
def test_rank_property_sparse_tall_matches_oracle(case):
    rows, copies, ncols = case
    # more rows than columns, so every case is rank deficient; the copies
    # add duplicated (scale 1), scaled and vanishing (scale 0) rows
    for src, scale in copies:
        rows.append({c: scale * v for c, v in rows[src % len(rows)].items()
                     if scale})
    assert _exactcore.ff_rank([dict(r) for r in rows], ncols) == \
        oracle_rank(rows, ncols)


staged_matrices = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.dictionaries(st.integers(0, n - 1),
                                 st.integers(-6, 6).filter(bool),
                                 max_size=4),
                 min_size=1, max_size=24),
        st.lists(st.integers(0, 10 ** 6), max_size=6),
        st.booleans(),
        st.just(n)))


@settings(max_examples=60, deadline=None)
@given(staged_matrices, st.data())
def test_rank_stage_ends_give_prefix_ranks(case, data):
    """With stage ends, each reported rank is the rank of that row prefix.
    Rows may be empty or repeat an earlier row, and with ``lead`` a
    diagonal block puts the prefix of ``ncols`` rows at full column rank
    before the other rows."""
    rows, repeats, lead, ncols = case
    rows += [dict(rows[i % len(rows)]) for i in repeats]
    rows = data.draw(st.permutations(rows))
    if lead:
        rows = [{c: c + 2} for c in range(ncols)] + rows
    ends = data.draw(st.sets(st.integers(1, len(rows)), min_size=1))
    ends = sorted(ends | {ncols} if lead else ends)
    got = _exactcore.ff_rank([dict(r) for r in rows], ncols, ends=ends)
    assert got == [oracle_rank(rows[:e], ncols) for e in ends]


# The singleton queue, seen through ``counts``.

def test_rank_permuted_identity_takes_every_pivot_from_the_queue():
    # columns 0-5 each hold one row; columns 6-8 are shared extra columns.
    # No row is updated, so the peak is the input's 6 x 3 nonzeros.
    perm = [3, 0, 5, 1, 4, 2]
    rows = [{perm[i]: i + 2, 6: 1, 7 + i % 2: -1} for i in range(6)]
    counts = {}
    assert _exactcore.ff_rank(rows, 9, counts) == oracle_rank(rows, 9) == 6
    assert counts == {"pivots": 6, "singleton_pivots": 6,
                      "entries_written": 0, "max_pivot_bits": 3,
                      "peak_live": 18}


def test_rank_cancellation_makes_a_column_singleton():
    # The first pivot is (row 0, column 0).  Eliminating it from row 1
    # cancels row 1's entry in column 1, which leaves row 2 alone there:
    # only the cancellation puts column 1 on the queue.  Rows 2 and 3 then
    # leave columns 3 and 2 to one row each, so three pivots are queued and
    # the one update writes the single entry {2: 1}.  The live nonzeros
    # only fall from the input's 10.
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 1, 3: 1},
            {3: 1, 2: 2}]
    counts = {}
    assert _exactcore.ff_rank(rows, 4, counts) == oracle_rank(rows, 4) == 4
    assert counts == {"pivots": 4, "singleton_pivots": 3,
                      "entries_written": 1, "max_pivot_bits": 1,
                      "peak_live": 10}


def test_rank_skips_a_queued_column_that_fill_has_grown():
    # Pivot (row 0, column 0) leaves column 4 to row 2 and queues it, but
    # eliminating column 0 from row 1 fills row 1 at column 4, so by the
    # time it is popped column 4 has two rows again and must be searched,
    # not taken.  The next search pivots on (row 1, column 1), after which
    # column 4 is a singleton for real.  The fill only replaces row 1's
    # pivot entry, so the peak is the input's 6 nonzeros.
    rows = [{0: 1, 4: 1}, {0: 1, 1: 1}, {4: 1, 1: 1}]
    counts = {}
    assert _exactcore.ff_rank(rows, 5, counts) == oracle_rank(rows, 5) == 3
    assert counts == {"pivots": 3, "singleton_pivots": 1,
                      "entries_written": 3, "max_pivot_bits": 1,
                      "peak_live": 6}


@pytest.mark.parametrize("seed", range(3))
def test_rank_counts_repeat_run_for_run(seed):
    rng = random.Random(500 + seed)
    rows = sparse_deficient_rows(rng, 120, 40, 14)
    first, second = {}, {}
    rank = _exactcore.ff_rank(rows, 40, first)
    assert _exactcore.ff_rank(rows, 40, second) == rank == \
        oracle_rank(rows, 40)
    assert first == second
    assert first["pivots"] == rank


#: complex -> (entries written by ff_rank's updates on its three operator
#: matrices on uniform 2x2x2, ranks), as written by the previous pivot
#: search: Markowitz over the 12 shortest rows, no singleton queue
FILL_2X2X2 = {
    "gradgrad": ([2369, 4614, 0], [212, 670, 300]),
    "gradgrad-reduced": ([168299, 276507, 0], [212, 838, 432]),
    "elasticity": ([4667, 18506, 0], [534, 348, 240]),
    "elasticity-reduced": ([4667, 79921, 0], [534, 348, 288]),
}


@cache
def ladder_matrices(name, mesh):
    """The three operator matrices of a ladder at its minimum order on
    ``mesh``, assembled once per test run."""
    _fams, ops, _kd, k = COMPLEXES[name]
    spaces = complex_spaces(name, k, mesh)
    return tuple(operator_matrix(op, src, dst)
                 for op, src, dst in zip(ops, spaces, spaces[1:]))


def ladder_matrices_2x2x2(name):
    return ladder_matrices(name, uniform_unit_mesh(2, 2, 2))


def test_rank_fill_budget_on_2x2x2_ladders():
    # Two shortlisted rows offer fewer candidates than twelve, so some
    # pivots differ and a matrix's fill moves by a percent or two either
    # way (-4.4% to +1.2% here); a worse pivot rule moves it by far more.
    # So each matrix may exceed the old count by at most 2%, and the sum
    # over all twelve may not exceed the old sum.
    total = 0
    for name, (budget, ranks) in FILL_2X2X2.items():
        for i, mat in enumerate(ladder_matrices_2x2x2(name)):
            counts = {}
            assert _exactcore.ff_rank(mat.rows, mat.ncols, counts) == ranks[i]
            written = counts["entries_written"]
            assert written <= budget[i] + budget[i] // 50, (name, i, written)
            total += written
        # the divergence is eliminated by column singletons alone
        assert counts["singleton_pivots"] == ranks[2], name
    assert total <= sum(sum(budget) for budget, _ in FILL_2X2X2.values())


#: complex -> (entries_written, max_pivot_bits) of ff_rank on its three
#: operator matrices on uniform 2x2x2, as counted by the update that
#: rebuilt every target row; an update that writes only what changes must
#: count the same
COUNTS_2X2X2 = {
    "gradgrad": ([2371, 4588, 0], [2, 1, 1]),
    "gradgrad-reduced": ([166416, 273077, 0], [2, 16, 21]),
    "elasticity": ([4463, 18721, 0], [2, 2, 1]),
    "elasticity-reduced": ([4463, 79643, 0], [2, 4, 8]),
}


#: complex -> peak_live of ff_rank on the same three matrices: the most
#: nonzeros the rows not yet pivoted hold at once.  Only the curlcurlt
#: matrices fill past their input (5,610 and 11,226 nonzeros); every other
#: peak is the matrix's own nnz
PEAK_LIVE_2X2X2 = {
    "gradgrad": [1962, 3148, 1640],
    "gradgrad-reduced": [12336, 19468, 15112],
    "elasticity": [2124, 5689, 1296],
    "elasticity-reduced": [2124, 11657, 3264],
}


@pytest.mark.parametrize("name", sorted(COUNTS_2X2X2))
def test_rank_counts_frozen_on_2x2x2_ladders(name):
    written, bits = COUNTS_2X2X2[name]
    ranks = FILL_2X2X2[name][1]
    for i, mat in enumerate(ladder_matrices_2x2x2(name)):
        counts = {}
        assert _exactcore.ff_rank(mat.rows, mat.ncols, counts) == ranks[i]
        # the divergence is eliminated by column singletons alone
        singles = ranks[i] if i == 2 else 0
        assert counts == {"pivots": ranks[i], "singleton_pivots": singles,
                          "entries_written": written[i],
                          "max_pivot_bits": bits[i],
                          "peak_live": PEAK_LIVE_2X2X2[name][i]}, (name, i)
        # one stage over every row pivots as a call without stage ends
        staged = {}
        assert _exactcore.ff_rank(mat.rows, mat.ncols, staged,
                                  [mat.nrows]) == [ranks[i]]
        assert staged == counts, (name, i)


#: tracemalloc bounds, in MiB above the baseline at entry, on the
#: gradgrad-reduced 2x2x2 curl matrix (1270 x 1050, 19,468 nonzeros).
#: Measured 1.55 MiB for ff_rank, against 2.72 MiB with a set per column,
#: and 1.92 MiB for the whole float route, whose float rows and column
#: lists live beside the caller's integer rows
FF_RANK_PEAK_MIB = 2.0
FLOAT_RANK_PEAK_MIB = 2.0


def traced_peak_mib(run):
    """The tracemalloc peak while ``run()`` runs, above what is traced at
    its start, in MiB."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    run()
    return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20


def test_rank_memory_peaks_on_the_gradgrad_reduced_curl_matrix():
    mat = ladder_matrices_2x2x2("gradgrad-reduced")[1]
    tracemalloc.start()
    try:
        ff_peak = traced_peak_mib(lambda: _exactcore.ff_rank(mat.rows,
                                                             mat.ncols))
        float_peak = traced_peak_mib(lambda: float_rank(mat))
    finally:
        tracemalloc.stop()
    assert ff_peak <= FF_RANK_PEAK_MIB, ff_peak
    assert float_peak <= FLOAT_RANK_PEAK_MIB, float_peak


# Both rank routes leave their input as it was: every test here reads the
# same cached ladder matrices, and ``certified_ranks(..., "both")`` ranks
# one matrix by the float route and then the exact one.

def test_rank_leaves_ladder_rows_unchanged():
    for mat in ladder_matrices_2x2x2("gradgrad-reduced"):
        before = copy.deepcopy(mat.rows)
        _exactcore.ff_rank(mat.rows, mat.ncols)
        assert mat.rows == before


def test_float_rank_leaves_ladder_rows_unchanged():
    for name, (_budget, ranks) in FILL_2X2X2.items():
        for i, mat in enumerate(ladder_matrices_2x2x2(name)):
            before = copy.deepcopy(mat.rows)
            assert float_rank(mat) == ranks[i]
            assert mat.rows == before, (name, i)


@pytest.mark.parametrize("seed", range(4))
def test_rank_leaves_sparse_rows_unchanged(seed):
    rng = random.Random(600 + seed)
    rows = sparse_deficient_rows(rng, 80, 30, 10)
    rows[0] = {c: 6 * v for c, v in rows[0].items()}  # content to remove
    before = copy.deepcopy(rows)
    assert _exactcore.ff_rank(rows, 30) == oracle_rank(rows, 30)
    assert rows == before


# One matrix per update path.  No column starts with one row, so the first
# pivot comes from the Markowitz search.

def test_rank_row_singleton_pivot_only_deletes_its_column():
    # Row 0 is the row singleton {0: -1} after content removal, so the
    # first pivot removes column 0 from rows 1 and 2 and changes nothing
    # else, leaving {1: 4, 2: 6} and {1: 6, 2: 9}.  Their content must
    # still go: both become {1: 2, 2: 3}, the next pivot is 2 (2 bits, not
    # the 3 or 4 bits of the raw rows) and it cancels row 2 entirely.  The
    # live nonzeros only fall from the input's 7.
    rows = [{0: -3}, {0: 1, 1: 4, 2: 6}, {0: 1, 1: 6, 2: 9}]
    counts = {}
    assert _exactcore.ff_rank(rows, 3, counts) == oracle_rank(rows, 3) == 2
    assert counts == {"pivots": 2, "singleton_pivots": 0,
                      "entries_written": 4, "max_pivot_bits": 2,
                      "peak_live": 7}


def test_rank_unit_multiplier_updates_in_place():
    # Pivot (row 0, column 0) is 1, so row 1 becomes row1 - 3 * row0 in
    # place: column 1 cancels, which leaves row 2 alone there and queues
    # column 1; column 2 fills with -3, so column 2, queued when row 0 left
    # it, has two rows again and is skipped.  Column 3 keeps its entry.
    # Row 1 then holds {3: 1, 2: -3}, the one update's 2 entries, and the
    # live nonzeros fall from the input's 9 to 8 - 3 + 2.
    rows = [{0: 1, 1: 1, 2: 1}, {0: 3, 1: 3, 3: 1}, {1: 1, 2: 1, 3: 1}]
    counts = {}
    assert _exactcore.ff_rank(rows, 4, counts) == oracle_rank(rows, 4) == 3
    assert counts == {"pivots": 3, "singleton_pivots": 2,
                      "entries_written": 2, "max_pivot_bits": 2,
                      "peak_live": 9}


def test_rank_scaled_target_is_rebuilt():
    # Pivot (row 0, column 0) is 2 and row 1 holds 3 there, so a = 2 and
    # row 1 is rebuilt as 2 * row1 - 3 * row0 = {3: 2, 2: -3}: column 1
    # cancels only because the row was scaled first.  Row 3 is then
    # updated in place by pivot (row 2, column 4), and the last update,
    # pivot -1 against row 1's 2 (a = -1), rebuilds row 1 again.  The
    # updates write 2 + 2 + 1 entries, and none raises the live nonzeros
    # above the input's 12.
    rows = [{0: 2, 1: 4, 2: 1}, {0: 3, 1: 6, 3: 1}, {2: 1, 3: 1, 4: 1},
            {2: 1, 3: 2, 4: 3}]
    counts = {}
    assert _exactcore.ff_rank(rows, 5, counts) == oracle_rank(rows, 5) == 4
    assert counts == {"pivots": 4, "singleton_pivots": 1,
                      "entries_written": 5, "max_pivot_bits": 2,
                      "peak_live": 12}


# The column index is a list per column, appended on fill and never pruned,
# beside a live count: a row in a list may be gone, may have lost its entry,
# or may appear twice.

def test_rank_eliminates_a_row_listed_twice_once():
    # Rows P1 {0, 2}, P2 {1, 2}, S {2, 3}, T {2, 3}, R {0, 1, 2, 3}.
    # Pivot (P1, column 0) turns R into R - P1 = {1: 1, 3: 1}: R's entry in
    # column 2 cancels, but R stays in column 2's list.  Pivot (P2, column
    # 1) turns R into R - P2 = {3: 1, 2: -1}: fill brings column 2 back and
    # appends R again, so the list reads P1, P2, S, T, R, R.  Pivot (S,
    # column 2) updates T to {3: 1} and R to {3: 3}, stripped to {3: 1}, on
    # R's first visit, and skips the second.  Pivot (T, column 3) empties
    # R, which is dependent.  The updates write 2 + 2 + 1 + 1 entries; a
    # second update of R would write a seventh.
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 2}, {2: 1, 3: 3},
            {0: 1, 1: 1, 2: 1, 3: 1}]
    counts = {}
    assert _exactcore.ff_rank(rows, 4, counts) == oracle_rank(rows, 4) == 4
    assert counts == {"pivots": 4, "singleton_pivots": 0,
                      "entries_written": 6, "max_pivot_bits": 1,
                      "peak_live": 12}


def test_rank_singleton_column_skips_dead_rows_in_its_list():
    # Column 2's list is X, Y, Z.  Pivot (X, column 0) removes X, and the
    # update Y - X = {1: 1} cancels Y's entry in column 2, so column 2 has
    # one live row and is queued.  Its list then holds a pivoted row (X)
    # and a live row without the entry (Y) before Z, the row it is taken
    # from.  Columns 3 and 1 follow from the queue, with W and Y, over the
    # dead Z and W in their lists.
    rows = [{0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {2: 1, 3: 1}, {1: 1, 3: 1}]
    counts = {}
    assert _exactcore.ff_rank(rows, 4, counts) == oracle_rank(rows, 4) == 4
    assert counts == {"pivots": 4, "singleton_pivots": 3,
                      "entries_written": 1, "max_pivot_bits": 1,
                      "peak_live": 9}


def test_rank_peak_live_counts_fill_by_hand():
    # Row 0 = {0, 1, 2, 3}; rows 1-3 hold column 0 and columns 4-6; rows
    # 4-6 hold columns 1-6.  Columns 0-3 hold 4 live rows and columns 4-6
    # six, so on the two shortlisted rows, 0 and 1, the least Markowitz
    # count is 3 * 3 = 9, and the tie goes to (row 0, column 0), all
    # entries being 1 bit.  The input holds 4 + 3 * 4 + 3 * 6 = 34 nonzeros.  Row 0
    # leaves (30), and each of rows 1-3 loses column 0 and gains columns
    # 1-3 (+2 each): 36.  Every row left then holds all six columns 1-6,
    # so no later step can exceed the 6 x 6 it starts from.
    rows = [{0: 1, 1: 1, 2: 1, 3: 1},
            {0: 1, 4: 1, 5: 2, 6: 3}, {0: 1, 4: 2, 5: 3, 6: 1},
            {0: 1, 4: 3, 5: 1, 6: 2},
            {1: 1, 2: 2, 3: 3, 4: 1, 5: 1, 6: 2},
            {1: 2, 2: 1, 3: 1, 4: 1, 5: 3, 6: 1},
            {1: 3, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1}]
    counts = {}
    assert _exactcore.ff_rank(rows, 7, counts) == oracle_rank(rows, 7) == 7
    assert sum(map(len, rows)) == 34
    assert counts["peak_live"] == 36


def test_float_core_eliminates_a_row_listed_twice_once():
    # The matrix of test_rank_eliminates_a_row_listed_twice_once, scaled
    # per row: pivot (P1, column 0) drops R's entry in column 2 (1 - 1),
    # pivot (P2, column 1) fills it again, so column 2 lists R twice, and
    # pivot (S, column 2) must update R once: R = {3: 1, 2: -1} + 2 * S =
    # {3: 3}.  T - (2/3) * S = {3: 1/3} is the last pivot, and it empties
    # R.  A second update of R would find no entry in column 2.
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 2}, {2: 1, 3: 3},
            {0: 1, 1: 1, 2: 1, 3: 1}]
    want = oracle_rank(rows, 4)
    before = copy.deepcopy(rows)
    record = {}
    assert verify._core_float_rank(rows, record) == want == 4
    assert rows == before
    assert record["pivots"] == 4
    assert record["smallest_pivot"] == pytest.approx(1 / 3)
    # kept: T's 1 - 2/3 against 1 + 2/3, and R's 1 + 2 against 1 + 2
    assert record["smallest_kept"] == pytest.approx(0.2)
    assert record["largest_dropped"] == 0.0


# The float rank route: one sparse floating-point elimination of the
# row-scaled matrix.  The unscaled full-matrix SVD rank is the oracle,
# beside the exact rank.

#: singular values at most this fraction of the largest count as zero in
#: the SVD oracle
ORACLE_REL_CUTOFF = 1e-5

def dense_array(mat):
    """The whole matrix as a dense float array."""
    a = np.zeros((mat.nrows, mat.ncols))
    for i, r in enumerate(mat.rows):
        for j, v in r.items():
            # int true division rounds correctly and takes any size
            a[i, j] = v / mat.den
    return a


def oracle_float_rank(mat):
    """SVD rank of the whole dense matrix, cut off relative to its largest
    singular value."""
    if mat.nnz == 0:
        return 0
    s = np.linalg.svd(dense_array(mat), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int((s > ORACLE_REL_CUTOFF * s[0]).sum())


def sparse_matrix(dense, den=1):
    return SparseMatrix(len(dense), len(dense[0]), dense_to_rows(dense), den)


def assert_float_rank(mat, rank):
    assert float_rank(mat) == oracle_float_rank(mat) == exact_rank(mat) == rank


# Rows and columns with one or two entries, alone or in chains, where an
# update can empty a row or leave it a single entry.
@pytest.mark.parametrize("dense,rank", [
    # column 0 holds one entry, and row 2 = 2 * row 1
    ([[1, 2, 0], [0, 3, 4], [0, 6, 8]], 2),
    # row 0 holds one entry, and row 2 = 2 * row 1
    ([[0, 5, 0], [1, 2, 3], [2, 4, 6]], 2),
    # upper triangular in columns 0-2, each of which holds one entry once
    # the one before it goes, above a block in which row 4 = 2 * row 3
    ([[1, 2, 0, 0, 0],
      [0, 3, 4, 1, 1],
      [0, 0, 5, 1, 2],
      [0, 0, 0, 1, 1],
      [0, 0, 0, 2, 2]], 4),
    # no one-entry line, but rows 0 and 2 and columns 0 and 2 hold two
    ([[1, 2, 0], [3, 4, 5], [0, 6, 7]], 3),
    # every row and column holds three entries
    ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 3),
    # column 0 holds 4 in row 0 and 6 in row 1; every other row and column
    # holds three entries or more
    ([[4, 1, 1, 1], [6, 5, 6, 8], [0, 1, 2, 3], [0, 2, 1, 7],
      [0, 1, 1, 1]], 4),
    # the transpose: row 0 holds 4 in column 0 and 6 in column 1
    ([list(col) for col in zip(*[[4, 1, 1, 1], [6, 5, 6, 8], [0, 1, 2, 3],
                                 [0, 2, 1, 7], [0, 1, 1, 1]])], 4),
    # rows 0 and 1 = 2 * row 0 alone share column 0
    ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 2], [0, 1, 3, 1],
      [0, 2, 1, 5]], 4),
    # rows 0 and 1 alone share column 0 and differ in column 4 alone, so
    # row 1 - row 0 is the one entry {4: 5}
    ([[1, 1, 1, 1, 0], [1, 1, 1, 1, 5], [0, 1, 2, 3, 1],
      [0, 2, 1, 1, 1], [0, 1, 3, 2, 0]], 5),
], ids=["column_singleton", "row_singleton", "cascade", "without_singletons",
        "without_short_lines", "column_doubleton", "row_doubleton",
        "combination_cancels_a_row", "doubleton_leaves_a_singleton"])
def test_float_rank_on_short_lines(dense, rank):
    assert_float_rank(sparse_matrix(dense), rank)


def test_float_rank_skips_empty_rows():
    # upper triangular with an empty row and an empty column; an empty row
    # that reached the elimination would have no largest entry to scale by
    dense = [[1, 2, 0, 3], [0, 0, 0, 0], [0, 4, 0, 5], [0, 0, 0, 6]]
    assert_float_rank(sparse_matrix(dense, den=7), 3)


def recorded_eliminations(monkeypatch, run):
    """The record of every float elimination made while ``run()`` runs, as
    :func:`verify._core_float_rank` fills it."""
    eliminate = verify._core_float_rank
    records = []

    def recording(rows):
        record = {}
        records.append(record)
        return eliminate(rows, record)

    monkeypatch.setattr(verify, "_core_float_rank", recording)
    run()
    monkeypatch.undo()
    return records


@pytest.mark.parametrize("dense,rank", [
    # wide: row 2 = row 0 + row 1
    ([[1, 2, 3, 4, 5], [2, 1, 1, 3, 1], [3, 3, 4, 7, 6]], 2),
    # tall: row 4 = row 1 + row 2 and row 5 = row 0 + row 2
    ([[1, 2, 0, 3], [0, 1, 4, 2], [5, 0, 1, 1], [1, 3, 4, 5], [5, 1, 5, 3],
      [6, 2, 1, 4]], 3),
    # square and singular: row 3 = 2 * row 0 - row 1 + 3 * row 2
    ([[1, 2, 1, 3], [2, 1, 3, 1], [1, 1, 2, 2], [3, 6, 5, 11]], 3),
], ids=["wide", "tall", "deficient"])
def test_float_rank_eliminates_a_whole_core(monkeypatch, dense, rank):
    # every row and column holds three entries or more; the route makes one
    # elimination of the whole matrix, and each of its pivots is one rank
    mat = sparse_matrix(dense, den=3)
    assert_float_rank(mat, rank)
    records = recorded_eliminations(monkeypatch, lambda: float_rank(mat))
    assert [r["pivots"] for r in records] == [rank]


def test_float_rank_drops_by_relative_size():
    # Column 3 is 1e-12 of the rest once each row is scaled, and the rank
    # rests on it: after columns 0-2 are eliminated, the last row holds
    # only column 3, about 7e-13, and each update there kept at least
    # 0.087 of its operands, so none was a cancellation.  An absolute
    # cutoff would drop it.  The unscaled SVD sees a singular value near
    # 1e-13 of the largest, below its cutoff, so it is no oracle here.
    e = 10 ** 12
    dense = [[e, 2 * e, 3 * e, 1], [2 * e, e, e, 2], [e, e, 2 * e, 3],
             [3 * e, e, 2 * e, 5]]
    mat = sparse_matrix(dense)
    assert float_rank(mat) == exact_rank(mat) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.integers(1, 5), st.integers(3, 7), st.data())
def test_float_rank_property_of_products(m, r, n, data):
    # B (m x r) @ C (r x n) has rank at most r; its entries are sums that
    # cancel exactly, which floating point sees as rounding noise
    ints = st.integers(-3, 3)
    b = data.draw(st.lists(st.lists(ints, min_size=r, max_size=r),
                           min_size=m, max_size=m))
    c = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                           min_size=r, max_size=r))
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)]
            for row in b]
    mat = sparse_matrix(prod, den=data.draw(st.integers(1, 12)))
    assert float_rank(mat) == exact_rank(mat)


def with_singleton_chain(dense, ncols, fill, transpose):
    """``dense`` bordered by ``n = len(fill)`` new rows and columns in a
    chain: new column 0 holds one entry, in new row 0, and new column
    ``t > 0`` holds -2 in new row ``t - 1`` and ``t + 1`` in new row ``t``.
    The old rows are zero in the new columns, and the new rows are
    bidiagonal there, so the border adds ``n`` to the rank.  New row ``t``
    holds ``fill[t]`` in the old columns.  With ``transpose`` the whole
    matrix is transposed, so the chain starts at a one-entry row."""
    n = len(fill)
    out = [row + [0] * n for row in dense]
    for t, extra in enumerate(fill):
        row = list(extra) + [0] * n
        row[ncols + t] = t + 1
        if t + 1 < n:
            row[ncols + t + 1] = -2
        out.append(row)
    if transpose:
        out = [list(col) for col in zip(*out)]
    return out


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_float_rank_property_with_singleton_chains(case, data):
    dense, ncols = case
    fill = data.draw(st.lists(
        st.lists(st.integers(-20, 20), min_size=ncols, max_size=ncols),
        max_size=4))
    grown = with_singleton_chain(dense, ncols, fill, data.draw(st.booleans()))
    mat = sparse_matrix(grown, den=data.draw(st.integers(1, 12)))
    rank = oracle_rank(dense_to_rows(dense), ncols) + len(fill)
    assert_float_rank(mat, rank)


def with_doubleton_chain(rows, ncols, fill, link, transpose):
    """Sparse ``rows`` bordered by ``n = len(fill)`` new rows and ``n + 1``
    new columns, each holding two entries or none.  With ``n > 1``, new
    column ``t < n`` holds 1 in new row ``t`` and -1 in the next,
    cyclically: the new rows add up to zero there, so eliminating them
    cancels entries that only rounding keeps.  New column ``n`` holds
    ``link[1]`` in old row ``link[0]`` and 1 in new row 0.  New row ``t``
    holds ``fill[t]`` in the old columns.  With ``transpose`` the whole
    matrix is transposed, so the chain runs over rows of two entries.
    Returns ``(rows, ncols)``."""
    n = len(fill)
    out = [dict(r) for r in rows] + [dict(extra) for extra in fill]
    new = out[len(rows):]
    for t in range(n if n > 1 else 0):
        new[t][ncols + t] = 1
        new[(t + 1) % n][ncols + t] = -1
    if n:
        out[link[0] % len(rows)][ncols + n] = link[1]
        new[0][ncols + n] = 1
    width = ncols + n + 1
    if not transpose:
        return out, width
    cols = [{} for _ in range(width)]
    for i, r in enumerate(out):
        for j, v in r.items():
            cols[j][i] = v
    return cols, len(out)


@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(sparse_tall_matrices, st.data())
def test_float_rank_property_with_doubleton_chains(case, data):
    rows, copies, ncols = case
    for src, scale in copies:
        rows.append({c: scale * v for c, v in rows[src % len(rows)].items()
                     if scale})
    fill = data.draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1),
                        st.integers(-6, 6).filter(bool), max_size=6),
        max_size=6))
    link = data.draw(st.tuples(st.integers(0, 10 ** 6),
                               st.integers(-6, 6).filter(bool)))
    grown, width = with_doubleton_chain(rows, ncols, fill, link,
                                        data.draw(st.booleans()))
    mat = SparseMatrix(len(grown), width, grown,
                       data.draw(st.integers(1, 12)))
    assert float_rank(mat) == oracle_float_rank(mat) == exact_rank(mat)


@pytest.mark.parametrize("name", sorted(FILL_2X2X2))
def test_float_rank_on_2x2x2_ladders_matches_full_svd(name):
    ranks = FILL_2X2X2[name][1]
    for i, mat in enumerate(ladder_matrices_2x2x2(name)):
        assert float_rank(mat) == oracle_float_rank(mat) == ranks[i], (name, i)


#: a graded 2x2x1 mesh, every cell of its own shape
GRADED_2X2X1 = build_box_mesh([0, Fraction(1, 3), 1],
                              [0, Fraction(5, 7), Fraction(3, 2)],
                              [0, Fraction(1, 2)])


def ladder_eliminations(monkeypatch, name):
    """The record of every float elimination ``certified_ranks`` makes on
    a ladder's 2x2x2 matrices in "both" mode, whose ranks it checks."""
    def run():
        for mat, rank in zip(ladder_matrices_2x2x2(name), FILL_2X2X2[name][1]):
            assert certified_ranks(mat, "both") == (rank, rank)
    return recorded_eliminations(monkeypatch, run)


def assert_cancellation_gap(records):
    """Every entry the elimination keeps after an update is at least 1e-3
    of the update's operands, ``|w| >= 1e-3 · (|old| + |m·pv|)``, every
    one it drops is rounding noise, at most 1e-12 of them, and every pivot
    is at least 1e-3 of its row's starting scale."""
    for i, record in enumerate(records):
        assert record["smallest_kept"] >= 1e-3, (i, record)
        assert record["largest_dropped"] <= 1e-12, (i, record)
        assert record["smallest_pivot"] >= 1e-3, (i, record)


def test_float_route_cores_keep_a_cancellation_gap(monkeypatch):
    # every kept ratio is at least 0.0029 (the gradgrad-reduced div
    # matrix) and every dropped one at most 4.6e-16 (the gradgrad-reduced
    # curl matrix), with the cutoff at 1e-9; the smallest pivot is 0.024
    # (the gradgrad-reduced div matrix)
    for name in sorted(FILL_2X2X2):
        assert_cancellation_gap(ladder_eliminations(monkeypatch, name))


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_float_route_keeps_a_cancellation_gap_on_a_graded_mesh(monkeypatch,
                                                               name):
    # "both" mode raises if the float rank is not the exact one
    records = recorded_eliminations(monkeypatch, lambda: [
        certified_ranks(mat, "both")
        for mat in ladder_matrices(name, GRADED_2X2X1)])
    assert_cancellation_gap(records)
