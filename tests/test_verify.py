"""Verification layer: exactness reports, kernels, preimages, jumps."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cache

import pytest

import cuboid_complex
from cuboid_complex import _exactcore, verify
from cuboid_complex.cli import main as cli_main
from cuboid_complex import assembly, elements
from cuboid_complex.assembly import (ConformityError, SparseMatrix,
                                     _catalog_functionals,
                                     assemble_space, interpolate,
                                     operator_matrix, reconstruct_local)
from cuboid_complex.elements import (FAMILY_NAMES, family, local_dofs,
                                     min_order)
from cuboid_complex.mesh import build_box_mesh, uniform_unit_mesh
from cuboid_complex.polytensor import TensorPoly
from cuboid_complex.verify import (
    COMPLEX_NAMES, COMPLEXES, DenseSizeError, certified_ranks,
    composition_is_zero, continuity_traces, discontinuity_witness,
    div_preimage_check, div_preimage_elasticity, div_preimage_gradgrad,
    exact_rank, face_jump, float_rank, identity_suite, jump_check,
    kernel_identification, verify_complex, verify_dimensions,
    verify_local_complex,
)

F = Fraction

REPORT_KEYS = {
    "complex", "k", "mesh", "dims", "ranks", "ranks_float",
    "composition_zero", "exact",
    "cohomology_dim", "elapsed_ms", "arithmetic_mode", "seed",
}


def test_verify_complex_unit_cell_gradgrad():
    rep = verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1),
                         arithmetic="both")
    assert rep.dims == [64, 204, 198, 54]
    assert rep.ranks == [60, 144, 54]
    assert rep.composition_zero and rep.exact
    assert rep.cohomology_dim == 4
    assert set(rep.to_dict()) == REPORT_KEYS
    assert all(rep.checks().values())


def test_verify_complex_unit_cell_elasticity():
    rep = verify_complex("elasticity", 2, uniform_unit_mesh(1, 1, 1),
                         arithmetic="both")
    assert rep.dims == [144, 204, 102, 36]
    assert rep.ranks == [138, 66, 36]
    assert rep.exact and rep.cohomology_dim == 6


def test_verify_complex_rejects_low_order():
    with pytest.raises(ValueError):
        verify_complex("gradgrad", 2, uniform_unit_mesh(1, 1, 1))


@pytest.mark.parametrize("name,k,dims,ranks", [
    ("gradgrad", 3, [64, 204, 198, 54], [60, 144, 54]),
    ("elasticity", 2, [144, 204, 102, 36], [138, 66, 36]),
    ("elasticity", 3, [300, 465, 279, 108], [294, 171, 108]),
])
def test_verify_local_complex(name, k, dims, ranks):
    rep = verify_local_complex(name, k)
    assert rep["dims"] == dims
    assert rep["ranks"] == ranks
    assert rep["composition_zero"] and rep["exact"]
    assert rep["alternating_sum"] == rep["cohomology_dim"]


def test_verify_local_complex_rejects_reduced_names():
    with pytest.raises(ValueError):
        verify_local_complex("gradgrad-reduced", 3)


def test_verify_dimensions_frozen_sample():
    r = verify_dimensions(family("xi", 3), uniform_unit_mesh(2, 2, 2))
    assert r["formula"] == r["assembled"] == 970 and r["match"]


def test_rank_modes_agree():
    mesh = uniform_unit_mesh(2, 1, 1)
    xi = assemble_space(family("xi", 3), mesh)
    q = assemble_space(family("q", 3), mesh)
    d = operator_matrix("div", xi, q)
    assert exact_rank(d) == float_rank(d) == 96
    assert certified_ranks(d, "both") == (96, 96)
    assert certified_ranks(d, "rational") == certified_ranks(d, "float") \
        == (96, None)


def test_float_rank_refuses_a_matrix_too_large_to_make_dense():
    huge = SparseMatrix(200_000, 100_000)
    huge.rows[7][99_999] = 1
    with pytest.raises(DenseSizeError, match=r"200000x100000 .* 152588 MiB"):
        float_rank(huge)
    assert issubclass(DenseSizeError, ValueError)


def test_float_rank_takes_integers_past_the_float_range():
    """Entries past 2**1100 over a denominator of the same size are each
    about 1, 2 or 3; converting either to float alone would overflow."""
    den = 2**1100 + 1
    a, b, c = 3 * 2**1100, 2**1100 + 7, 2**1101 - 5
    m = SparseMatrix(3, 3, [{0: a, 1: b}, {0: 2 * a, 1: 2 * b}, {2: c}], den)
    assert float_rank(m) == exact_rank(m) == 2


def test_rational_route_never_imports_numpy():
    """The package depends on nothing outside the standard library: a
    rational run in a fresh interpreter certifies without importing
    numpy, so no route can start needing it unnoticed."""
    code = ("import sys\n"
            "from cuboid_complex import uniform_unit_mesh, verify_complex\n"
            "rep = verify_complex('gradgrad', 3, uniform_unit_mesh(1, 1, 1))\n"
            "print(rep.exact, 'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cuboid_complex.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["True", "False"]


def test_float_route_never_imports_numpy():
    """The float cross-check is a pure-Python elimination, so a "both" run
    certifies without numpy too."""
    code = ("import sys\n"
            "from cuboid_complex import uniform_unit_mesh, verify_complex\n"
            "rep = verify_complex('gradgrad', 3, uniform_unit_mesh(2, 1, 1),\n"
            "                     arithmetic='both')\n"
            "print(rep.exact, 'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cuboid_complex.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["True", "False"]


def test_certified_ranks_checks_sizes_before_any_exact_rank(monkeypatch):
    def never(mat):
        raise AssertionError("an exact rank ran before the size check")

    monkeypatch.setattr(verify, "exact_rank", never)
    huge = SparseMatrix(200_000, 100_000)
    with pytest.raises(DenseSizeError):
        certified_ranks(huge, "both")


@pytest.mark.parametrize("arithmetic", ["float", "both"])
def test_verify_complex_checks_sizes_before_assembly(monkeypatch, arithmetic):
    def never(op_name, src, dst):
        raise AssertionError("an operator matrix was assembled before the "
                             "size check")

    monkeypatch.setattr(verify, "operator_matrix", never)
    monkeypatch.setattr(verify, "FLOAT_RANK_MAX_BYTES", 1024)
    with pytest.raises(DenseSizeError, match="204x64"):
        verify.verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1),
                              arithmetic=arithmetic)


def test_unknown_arithmetic_is_refused_before_assembly(monkeypatch):
    def never(*args):
        raise AssertionError("a space was assembled before the arithmetic "
                             "check")

    monkeypatch.setattr(verify, "complex_spaces", never)
    with pytest.raises(ValueError, match="'rational', 'float' or 'both', "
                                         "got 'Rational'"):
        verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1),
                       arithmetic="Rational")
    small = SparseMatrix.from_rational(1, 1, [{0: F(1)}])
    with pytest.raises(ValueError, match="got 'exact'"):
        certified_ranks(small, "exact")


@pytest.mark.parametrize("arithmetic", ["rational", "both"])
def test_verify_complex_holds_one_matrix_at_a_time(monkeypatch, arithmetic):
    """Each operator matrix is released once ranked, before the next edge
    is assembled."""
    refs = []
    real = verify.operator_matrix

    def spy(op_name, src, dst):
        assert all(ref() is None for ref in refs), \
            f"{op_name} assembled while an earlier matrix is alive"
        mat = real(op_name, src, dst)
        refs.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(verify, "operator_matrix", spy)
    rep = verify_complex("gradgrad", 3, uniform_unit_mesh(2, 1, 1),
                         arithmetic=arithmetic)
    assert rep.exact and len(refs) == 3
    assert all(ref() is None for ref in refs)


def test_cross_check_failure_names_the_edge(monkeypatch, capsys):
    real = verify.float_rank

    def off_by_one_on_curl(mat):
        # the gradgrad k=3 curl, sigma -> xi, is 198x204 on one cell
        return real(mat) + ((mat.nrows, mat.ncols) == (198, 204))

    monkeypatch.setattr(verify, "float_rank", off_by_one_on_curl)
    message = "curl: sigma -> xi, rational 144 vs float 145"
    with pytest.raises(AssertionError, match=message):
        verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1),
                       arithmetic="both")
    code = cli_main(["complex", "--complex", "gradgrad", "--k", "3",
                     "--arithmetic", "both"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


# The composition certificate: verify_complex proves A2 @ A1 == 0 from the
# unit-cell product K2(1) @ K1(1) (its docstring has the lemma).  The global
# product is the oracle here.

_GRADED_2X2X1 = build_box_mesh([0, F(1, 3), 1], [0, F(5, 7), F(3, 2)],
                               [0, F(1, 2)])

LEMMA_CASES = ([(name, uniform_unit_mesh(2, 2, 2)) for name in COMPLEX_NAMES]
               + [(name, _GRADED_2X2X1) for name in ("gradgrad", "elasticity")]
               + [("gradgrad", uniform_unit_mesh(4, 3, 3))])


def _spy_matrices(monkeypatch) -> list:
    """Record the operator matrices verify_complex assembles, in order."""
    built = []
    real = verify.operator_matrix

    def spy(op_name, src, dst):
        mat = real(op_name, src, dst)
        built.append(mat)
        return mat

    monkeypatch.setattr(verify, "operator_matrix", spy)
    return built


@pytest.mark.parametrize(
    "name,mesh", LEMMA_CASES,
    ids=[f"{n}-{'x'.join(map(str, m.shape))}"
         + ("-graded" if m is _GRADED_2X2X1 else "") for n, m in LEMMA_CASES])
def test_composition_lemma_agrees_with_the_global_product(monkeypatch, name,
                                                          mesh):
    built = _spy_matrices(monkeypatch)
    rep = verify_complex(name, COMPLEXES[name][3], mesh)
    assert len(built) == 3
    oracle = all(composition_is_zero(built[i + 1], built[i]) for i in range(2))
    assert rep.composition_zero == oracle
    assert oracle and rep.exact


def test_verify_complex_forms_no_global_product(monkeypatch):
    built = _spy_matrices(monkeypatch)
    operands = []
    real = _exactcore.spmul

    def spy(a, b):
        operands.extend((a, b))
        return real(a, b)

    monkeypatch.setattr(_exactcore, "spmul", spy)
    rep = verify_complex("gradgrad", 3, uniform_unit_mesh(2, 1, 1))
    assert rep.composition_zero and rep.exact
    assert len(built) == 3 and operands
    assert not any(x is m.rows for x in operands for m in built)


def _edge_gains_an_entry(monkeypatch, name, k, edge):
    """Make the reference block of the ladder's edge ``edge`` (0, 1 or 2),
    as verify_complex reads it, hold one more entry, placed so that the
    unit-cell product with a neighbouring block gains a nonzero row or
    column.  The assembled matrices are left alone."""
    fams, ops = COMPLEXES[name][:2]
    ids = [family(f, k) for f in fams]
    real = verify._reference_block
    blocks = [real(op, src, dst)[0] for op, src, dst in zip(ops, ids, ids[1:])]
    rows = blocks[edge]
    if edge:
        # row 0 gains a column whose row of the previous block is nonzero
        i = 0
        j = next(m for m, r in enumerate(blocks[edge - 1])
                 if r and m not in rows[0])
    else:
        # a row the next block reads gains a column
        i = next(m for r in blocks[1] for m in r)
        j = next(m for r in rows for m in r if m not in rows[i])

    def patched(op, src, dst):
        if (op, src, dst) != (ops[edge], ids[edge], ids[edge + 1]):
            return real(op, src, dst)
        broken = list(rows)
        broken[i] = {**rows[i], j: 1}
        return broken, real(op, src, dst)[1]

    monkeypatch.setattr(verify, "_reference_block", patched)


@pytest.mark.parametrize("edge", [0, 1, 2])
def test_broken_reference_composition_is_not_certified(monkeypatch, capsys,
                                                       edge):
    _edge_gains_an_entry(monkeypatch, "gradgrad", 3, edge)
    rep = verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1))
    assert rep.composition_zero is False
    assert rep.exact is False
    assert rep.ranks == [60, 144, 54]
    code = cli_main(["complex", "--complex", "gradgrad", "--k", "3",
                     "--mesh", "1,1,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["composition_zero"] is False and out["exact"] is False


# The rank certificate: verify_complex takes each rank r_e = L_e, a sum of
# unit-cell class ranks over the cells, when it meets the bound the
# composition gives, and kernel_identification the nullity kd when L_0 =
# n0 - kd (verify_complex's docstring has the lemma).  Eliminating every
# matrix is the oracle here.

_GRADED_3X2X2 = build_box_mesh([0, F(1, 7), F(1, 2), 1], [0, F(2, 3), 1],
                               [0, F(1, 5), 1])

FIRST_RANK_MESHES = (uniform_unit_mesh(1, 1, 1), uniform_unit_mesh(2, 2, 2),
                     uniform_unit_mesh(3, 3, 3), _GRADED_2X2X1, _GRADED_3X2X2)

#: every class of cell: one cell, one axis split, and all three split
SWEEP_MESHES = FIRST_RANK_MESHES + (uniform_unit_mesh(2, 1, 1),
                                    uniform_unit_mesh(4, 3, 3))

MIN_AND_NEXT = [(name, COMPLEXES[name][3] + dk)
                for name in COMPLEX_NAMES for dk in (0, 1)]

#: the gradgrad k=3 ranks on uniform 2x2x2 (the acceptance table)
GRADGRAD_2X2X2_RANKS = [212, 670, 300]


@pytest.fixture
def fresh_class_ranks():
    """Class ranks read while the test runs, and none left cached."""
    verify._class_ranks.cache_clear()
    yield
    verify._class_ranks.cache_clear()


def _ff_rank_widths(monkeypatch) -> list:
    """Record the column count of every matrix ``ff_rank`` eliminates."""
    widths = []
    real = _exactcore.ff_rank

    def spy(rows, ncols, counts=None, ends=None):
        widths.append(ncols)
        return real(rows, ncols, counts, ends)

    monkeypatch.setattr(_exactcore, "ff_rank", spy)
    return widths


def _eliminated_ranks(name, k, mesh) -> list[int]:
    """The ladder's three ranks by eliminating every operator matrix."""
    fams, ops = COMPLEXES[name][:2]
    spaces = [assemble_space(family(f, k), mesh) for f in fams]
    return [exact_rank(operator_matrix(op, src, dst))
            for op, src, dst in zip(ops, spaces, spaces[1:])]


@pytest.mark.parametrize("name,k", MIN_AND_NEXT)
def test_first_rank_from_unit_cell_facts_equals_elimination(name, k):
    """r0, and with it r1, r2 and kernel_identification's nullity, from
    unit-cell facts equal elimination on every mesh of SWEEP_MESHES."""
    for mesh in SWEEP_MESHES:
        rep = verify_complex(name, k, mesh)
        ranks = _eliminated_ranks(name, k, mesh)
        assert rep.ranks == ranks and rep.exact, mesh.shape
        kernel = kernel_identification(name, k, mesh)
        assert kernel["nullity"] == rep.dims[0] - ranks[0], mesh.shape
        assert kernel["identified"], mesh.shape


@cache
def _oracle_class_rank(op, src, dst, axes) -> int:
    """``rho(S)`` for ``S = axes`` by eliminating the class block alone:
    rows and columns of ``K(1)`` restricted to ``O(S)``, ranked in the
    orientation with fewer rows.  No face locality is assumed."""
    faces = sum(1 << a for a in axes)
    cols, rows = ([p for p, m in enumerate(verify._upper_faces(fam))
                   if not m & faces] for fam in (src, dst))
    on = set(cols)
    K = verify._reference_block(op, src, dst)[0]
    block = [{j: v for j, v in K[i].items() if j in on} for i in rows]
    ncols = len(verify._upper_faces(src))
    if len(rows) > len(cols):
        columns: dict[int, dict[int, int]] = {j: {} for j in cols}
        for i, r in zip(rows, block):
            for j, v in r.items():
                columns[j][i] = v
        block, ncols = list(columns.values()), len(K)
    return _exactcore.ff_rank(block, ncols)


#: every split (the axes with n_a > 1) of the meshes in SWEEP_MESHES
SWEEP_SPLITS = sorted({tuple(a for a in range(3) if mesh.shape[a] > 1)
                       for mesh in SWEEP_MESHES})


@pytest.mark.parametrize("name,k", [(name, COMPLEXES[name][3] + dk)
                                    for name in COMPLEX_NAMES
                                    for dk in (0, 1, 2)])
def test_chain_class_ranks_equal_per_class_elimination(name, k):
    """One staged elimination per chain gives, for every split of
    SWEEP_MESHES, each class rank of every edge that eliminating the class
    block alone gives."""
    fams, ops = COMPLEXES[name][:2]
    ids = [family(f, k) for f in fams]
    assert SWEEP_SPLITS == [(), (0,), (0, 1), (0, 1, 2)]
    for op, src, dst in zip(ops, ids, ids[1:]):
        for split in SWEEP_SPLITS:
            ranks = verify._class_ranks(op, src, dst, split)
            assert sorted(ranks) == sorted(
                axes for n in range(len(split) + 1)
                for axes in itertools.combinations(split, n))
            for axes, rho in ranks.items():
                assert rho == _oracle_class_rank(op, src, dst, axes), \
                    (op, split, axes)


def _gradgrad_edge(edge):
    fams, ops = COMPLEXES["gradgrad"][:2]
    return ops[edge], family(fams[edge], 3), family(fams[edge + 1], 3)


@pytest.mark.parametrize("edge", [0, 1, 2])
def test_entry_moved_off_the_face_breaks_face_locality(
        monkeypatch, fresh_class_ranks, edge):
    """Negative control: an entry of a target DOF on a face ``t_a = 1``,
    moved to a source DOF off that face, breaks the face locality the class
    ranks rest on; they refuse, naming the edge, the axis and both DOFs."""
    op, src, dst = _gradgrad_edge(edge)
    real = verify._reference_block
    K = [dict(r) for r in real(op, src, dst)[0]]
    up_src, up_dst = verify._upper_faces(src), verify._upper_faces(dst)
    i = next(p for p, r in enumerate(K) if up_dst[p] and r)
    a = up_dst[i].bit_length() - 1
    j = next(iter(K[i]))
    off = next(m for m, u in enumerate(up_src)
               if not u >> a & 1 and m not in K[i])
    K[i][off] = K[i].pop(j)

    def doctored(o, s, d):
        block = real(o, s, d)
        return (K, block[1]) if (o, s, d) == (op, src, dst) else block

    monkeypatch.setattr(verify, "_reference_block", doctored)
    with pytest.raises(ConformityError) as exc:
        verify._class_ranks(op, src, dst, (0, 1, 2))
    msg = str(exc.value)
    assert msg.startswith(f"{op}: {src.name} -> {dst.name}, axis {'xyz'[a]}:")
    for fam, p in ((dst, i), (src, off)):
        dof = local_dofs(fam)[p]
        assert f"{fam.name} DOF {p} {dof.dof_key(dof.entity_label)}" in msg


@pytest.mark.parametrize("edge", [0, 1, 2])
def test_lowered_stage_rank_is_eliminated(monkeypatch, fresh_class_ranks,
                                          edge):
    """Negative control: every staged elimination of edge ``edge`` reports
    its first prefix rank one low, so the lower bound misses the
    composition bound.  That matrix alone is eliminated, and the true ranks
    are reported."""
    op, src, dst = _gradgrad_edge(edge)
    ncols = len(verify._reference_block(op, src, dst)[0])
    real = _exactcore.ff_rank

    def lowered(rows, n, counts=None, ends=None):
        ranks = real(rows, n, counts, ends)
        if ends is not None and n == ncols:
            ranks[0] -= 1
        return ranks

    monkeypatch.setattr(_exactcore, "ff_rank", lowered)
    widths = _ff_rank_widths(monkeypatch)
    rep = verify_complex("gradgrad", 3, uniform_unit_mesh(2, 2, 2))
    assert rep.ranks == GRADGRAD_2X2X2_RANKS and rep.exact
    assert [n in widths for n in rep.dims[:3]] == [e == edge for e in range(3)]


@pytest.mark.parametrize("name,k", MIN_AND_NEXT)
def test_every_class_complex_is_exact(name, k):
    """On the unit cell, the ladder on the catalog DOFs of each class
    ``S`` has the class ranks of an exact complex, with cohomology kd in
    degree 0 at ``S = ()`` and none elsewhere: what makes each lower bound
    meet its composition bound on every box mesh."""
    fams, ops, kd = COMPLEXES[name][:3]
    ids = [family(f, k) for f in fams]
    for n in range(4):
        for axes in itertools.combinations(range(3), n):
            dims = [sum(all(f[a][2] != 1 for a in axes)
                        for f in _catalog_functionals(fam)) for fam in ids]
            ranks = [verify._class_ranks(op, src, dst, (0, 1, 2))[axes]
                     for op, src, dst in zip(ops, ids, ids[1:])]
            checks = verify._ladder_checks(dims, ranks, 0 if axes else kd)
            assert all(checks.values()), (axes, dims, ranks)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_rational_route_never_eliminates_the_first_matrix(monkeypatch, name):
    """Nor any other ladder matrix: no call reaches exact_rank."""
    calls = []
    real = verify.exact_rank

    def spy(mat):
        calls.append(mat.ncols)
        return real(mat)

    monkeypatch.setattr(verify, "exact_rank", spy)
    widths = _ff_rank_widths(monkeypatch)
    rep = verify_complex(name, COMPLEXES[name][3], uniform_unit_mesh(2, 2, 2))
    assert rep.exact and calls == []
    assert not set(rep.dims) & set(widths)


def _check_broken_block_is_eliminated(monkeypatch, edge):
    """An edge reference block with one more entry breaks the unit-cell
    composition, so no rank comes from the unit cell: all three matrices
    are eliminated and their true ranks reported, never a pass."""
    _edge_gains_an_entry(monkeypatch, "gradgrad", 3, edge)
    widths = _ff_rank_widths(monkeypatch)
    mesh = uniform_unit_mesh(2, 2, 2)
    rep = verify_complex("gradgrad", 3, mesh)
    assert rep.ranks == GRADGRAD_2X2X2_RANKS
    assert all(n in widths for n in rep.dims[:3])
    assert not rep.composition_zero and not rep.exact
    assert kernel_identification("gradgrad", 3, mesh)["nullity"] == 4


def test_broken_first_block_is_eliminated(monkeypatch, fresh_class_ranks):
    """Negative control on edge 0; test_broken_later_block_is_eliminated
    takes edges 1 and 2."""
    _check_broken_block_is_eliminated(monkeypatch, 0)


@pytest.mark.parametrize("edge", [1, 2])
def test_broken_later_block_is_eliminated(monkeypatch, fresh_class_ranks,
                                          edge):
    _check_broken_block_is_eliminated(monkeypatch, edge)


@pytest.mark.parametrize("arithmetic", ["rational", "both"])
@pytest.mark.parametrize("edge", [0, 1, 2])
def test_lowered_class_rank_is_eliminated(monkeypatch, edge, arithmetic):
    """Negative control: one class rank of edge ``edge`` lowered by one, so
    its lower bound misses the composition bound.  That matrix alone is
    eliminated, and the true ranks are reported."""
    ops = COMPLEXES["gradgrad"][1]
    real = verify._class_ranks

    def lowered(op, src, dst, split):
        ranks = dict(real(op, src, dst, split))
        ranks[(0,)] -= op == ops[edge]
        return ranks

    monkeypatch.setattr(verify, "_class_ranks", lowered)
    widths = _ff_rank_widths(monkeypatch)
    mesh = uniform_unit_mesh(2, 2, 2)
    rep = verify_complex("gradgrad", 3, mesh, arithmetic=arithmetic)
    assert rep.ranks == GRADGRAD_2X2X2_RANKS and rep.exact
    assert rep.ranks_float in (None, rep.ranks)
    assert [n in widths for n in rep.dims[:3]] == [e == edge for e in range(3)]
    kernel = kernel_identification("gradgrad", 3, mesh)
    assert kernel["nullity"] == 4 and kernel["identified"]
    assert widths.count(rep.dims[0]) == 2 * (edge == 0)


@pytest.mark.parametrize("arithmetic", ["rational", "both"])
@pytest.mark.parametrize("facts_hold", [True, False])
def test_first_rank_bounds_that_do_not_meet_are_eliminated(
        monkeypatch, arithmetic, facts_hold):
    """Negative control: ``kd`` set to 5 for gradgrad.  With the unit-cell
    bound made to agree, ``L0 = n0 - 5``, it misses ``r0 <= n1 - r1`` and
    verify_complex eliminates A0; left as it is, ``L0 = n0 - 4`` gives the
    true r0 but misses kernel_identification's ``n0 - 5``, which then
    eliminates A0.  Either way the true ranks come out, not exact."""
    fams, ops, _kd, min_k = COMPLEXES["gradgrad"]
    monkeypatch.setitem(COMPLEXES, "gradgrad", (fams, ops, 5, min_k))
    mesh = uniform_unit_mesh(2, 2, 2)
    if facts_hold:
        real = verify._rank_lower_bound

        def agreeing(op, src, dst, shape):
            return real(op, src, dst, shape) - (op == ops[0])

        monkeypatch.setattr(verify, "_rank_lower_bound", agreeing)
    widths = _ff_rank_widths(monkeypatch)
    rep = verify_complex("gradgrad", 3, mesh, arithmetic=arithmetic)
    assert rep.ranks == GRADGRAD_2X2X2_RANKS
    assert (216 in widths) == facts_hold
    assert rep.ranks_float in (None, rep.ranks)
    assert rep.cohomology_dim == 4 and not rep.exact
    kernel = kernel_identification("gradgrad", 3, mesh)
    assert kernel["nullity"] == 4 and not kernel["identified"]
    assert 216 in widths


def test_first_rank_cross_check_names_the_first_edge(monkeypatch):
    real = verify.float_rank

    def off_by_one_on_gradgrad(mat):
        # the gradgrad k=3 operator, u -> sigma, is 204x64 on one cell
        return real(mat) + ((mat.nrows, mat.ncols) == (204, 64))

    monkeypatch.setattr(verify, "float_rank", off_by_one_on_gradgrad)
    with pytest.raises(AssertionError,
                       match="gradgrad: u -> sigma, rational 60 vs float 61"):
        verify_complex("gradgrad", 3, uniform_unit_mesh(1, 1, 1),
                       arithmetic="both")


def test_reduced_gradgrad_4x4x4_stays_exact():
    # a scale guard on the composition certificate and the rank kernel
    rep = verify_complex("gradgrad-reduced", 3, uniform_unit_mesh(4, 4, 4))
    assert rep.dims == [1000, 6630, 9090, 3456]
    assert rep.ranks == [996, 5634, 3456]
    assert rep.composition_zero and rep.exact


@pytest.mark.parametrize("call", [
    lambda mesh: verify_complex("hessian", 3, mesh),
    lambda mesh: verify.complex_spaces("hessian", 3, mesh),
    lambda mesh: kernel_identification("hessian", 3, mesh),
    lambda mesh: div_preimage_check("hessian", 3, mesh),
], ids=["verify_complex", "complex_spaces", "kernel_identification",
        "div_preimage_check"])
def test_unknown_complex_is_a_value_error_naming_the_known_ones(call):
    with pytest.raises(ValueError, match="unknown complex 'hessian'") as exc:
        call(uniform_unit_mesh(1, 1, 1))
    assert all(name in str(exc.value) for name in COMPLEX_NAMES)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_kernel_identification_two_cells(name):
    k = 3 if name.startswith("gradgrad") else 2
    r = kernel_identification(name, k, uniform_unit_mesh(2, 1, 1))
    assert r["identified"]
    assert r["interpolant_rank"] == r["nullity"] == r["kernel_dim"]


def test_div_preimage_constant_target_by_hand():
    # q = (1, 0, 0) on the unit cell: tau_xy = y, everything else zero
    mesh = uniform_unit_mesh(1, 1, 1)
    q = assemble_space(family("q", 3), mesh)
    ones = interp_constant_x(q)
    xi, vec = div_preimage_gradgrad(q, ones)
    from cuboid_complex.assembly import reconstruct_local
    f = reconstruct_local(xi, 0, vec)
    assert f.component("xy") == TensorPoly.monomial((0, 1, 0))
    for comp in ("xx", "yy", "zz", "yz", "zx"):
        assert f.component(comp).is_zero()


def interp_constant_x(space):
    from cuboid_complex.assembly import interpolate
    return interpolate(space, lambda ci, box: {
        "x": TensorPoly.monomial((0, 0, 0), box)})


def test_div_preimage_elasticity_by_hand():
    # q = (x, 0, 0) on the unit cell: sigma_xx = x^2/2
    mesh = uniform_unit_mesh(1, 1, 1)
    z = assemble_space(family("z", 2), mesh)
    from cuboid_complex.assembly import interpolate, reconstruct_local
    vec = interpolate(z, lambda ci, box: {
        "x": TensorPoly.monomial((1, 0, 0), box)})
    gamma, pvec = div_preimage_elasticity(z, vec)
    f = reconstruct_local(gamma, 0, pvec)
    assert f.component("xx") == TensorPoly.monomial((2, 0, 0), coeff=F(1, 2))
    assert f.component("yy").is_zero() and f.component("xy").is_zero()


def test_div_preimage_zero_is_zero():
    mesh = uniform_unit_mesh(1, 1, 1)
    q = assemble_space(family("q-red", 3), mesh)
    _xi, vec = div_preimage_gradgrad(q, [F(0)] * q.dimension)
    assert all(v == 0 for v in vec)


def test_div_preimage_rejects_wrong_space():
    mesh = uniform_unit_mesh(1, 1, 1)
    z = assemble_space(family("z", 2), mesh)
    with pytest.raises(ValueError, match="'q' or 'q-red', got 'z'"):
        div_preimage_gradgrad(z, [F(0)] * z.dimension)
    q = assemble_space(family("q", 3), mesh)
    with pytest.raises(ValueError, match="'z' or 'z-red', got 'q'"):
        div_preimage_elasticity(q, [F(0)] * q.dimension)


def _double_xy(sigma):
    sigma[0]["xy"] = sigma[0]["xy"] + sigma[0]["xy"]


def _shift_zx(sigma):
    zx = sigma[0]["zx"]
    sigma[0]["zx"] = zx + TensorPoly.monomial((0, 0, 0), zx.cell)


def _leave_the_space(sigma):
    xy = sigma[0]["xy"]
    sigma[0]["xy"] = xy + TensorPoly.monomial((2, 0, 0), xy.cell)


@pytest.mark.parametrize("change,message", [
    (_double_xy, "preimage divergence mismatch, cell 0 component x"),
    (_shift_zx, r"preimage component zx jumps across face \(0,1,0,0\)"),
    (_leave_the_space, "preimage for cell 0 left the xi shape space"),
], ids=["divergence", "trace", "membership"])
def test_div_preimage_checks_its_construction(monkeypatch, change, message):
    """The public preimage runs the per-cell divergence check, the
    crossed-face trace check and the per-cell membership check: a doubled
    ``xy`` breaks the first, a constant added to ``zx`` on one side of the
    face its x integration crosses breaks only the second, and ``x^2``
    added to ``xy``, past its x degree, breaks only the third."""
    real = verify._preimage_fields

    def broken(*args):
        sigma = real(*args)
        change(sigma)
        return sigma

    monkeypatch.setattr(verify, "_preimage_fields", broken)
    q = assemble_space(family("q", 3), uniform_unit_mesh(2, 1, 1))
    rng = random.Random(3)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(q.dimension)]
    with pytest.raises(AssertionError, match=message):
        div_preimage_gradgrad(q, coeffs)


def test_div_preimage_check_small():
    r = div_preimage_check("gradgrad", 3, uniform_unit_mesh(2, 1, 1), samples=3)
    assert r["exact"] and r["samples"] == 3


def _no_assembly(monkeypatch):
    def refuse(*_args):
        raise AssertionError("assembled a space")
    monkeypatch.setattr(verify, "assemble_space", refuse)


@pytest.mark.parametrize("samples", [0, -1])
def test_div_preimage_check_refuses_no_samples(monkeypatch, samples):
    """Zero samples would report exact having checked nothing; the count
    is refused before any space is assembled."""
    _no_assembly(monkeypatch)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        div_preimage_check("gradgrad", 3, uniform_unit_mesh(2, 1, 1),
                           samples=samples)


def test_continuity_trace_catalog():
    assert continuity_traces("u", 0) == [("s", (0, 0, 0)), ("s", (1, 0, 0))]
    assert continuity_traces("q-red", 1) == []
    assert continuity_traces("z-red", 2) == []
    assert ("xx", (0, 0, 0)) not in continuity_traces("sigma", 0)
    assert ("xx", (0, 0, 0)) in continuity_traces("sigma", 1)
    assert ("zz", (0, 0, 1)) in continuity_traces("gamma", 2)
    assert ("zz", (0, 0, 1)) not in continuity_traces("gamma-red", 2)


def test_jump_check_sigma_small():
    r = jump_check(family("sigma", 3), uniform_unit_mesh(2, 1, 1), fields=2)
    assert r["continuous"]


@pytest.mark.parametrize("fields", [0, -1])
def test_jump_check_refuses_no_fields(monkeypatch, fields):
    """Zero fields would report continuous having checked no trace; the
    count is refused before any space is assembled."""
    _no_assembly(monkeypatch)
    with pytest.raises(ValueError, match="fields must be at least 1"):
        jump_check(family("sigma", 3), uniform_unit_mesh(2, 1, 1), fields=fields)


def test_jump_check_refuses_a_mesh_without_interior_faces(monkeypatch):
    """One cell has no face to check; the mesh is refused before any space
    is assembled."""
    _no_assembly(monkeypatch)
    with pytest.raises(ValueError, match="mesh has no interior faces"):
        jump_check(family("sigma", 3), uniform_unit_mesh(1, 1, 1))


def test_face_jump_shared_derivative_moments():
    # sigma_xy with a normal derivative across a z-normal face: the face
    # DOFs pair values with d/dz moments, so the jump vanishes
    mesh = uniform_unit_mesh(1, 1, 2)
    space = assemble_space(family("sigma", 3), mesh)
    rng = random.Random(20260818)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(space.dimension)]
    jumps = face_jump(space, coeffs, (2, 0, 0, 1), [("xy", (0, 0, 1))])
    assert jumps and all(v == 0 for v in jumps)
    # and the Lagrange diagonal of xi is continuous across any interior face
    xi = assemble_space(family("xi", 3), mesh)
    coeffs = [F(rng.randint(-9, 9)) for _ in range(xi.dimension)]
    jumps = face_jump(xi, coeffs, (2, 0, 0, 1), [("xx", (0, 0, 0))])
    assert all(v == 0 for v in jumps)


def test_face_jump_sees_a_jump_that_vanishes_on_a_sample_grid():
    # q-red is fully discontinuous.  Across the x-normal face of a 2x1x1
    # mesh its x component jumps by (t_y - 1/5)(t_y - 2/5)(t_y - 3/5)(t_y - 4/5),
    # which is zero at every point of the 4x4 grid with abscissae i/5 on
    # the face, yet is not zero.
    mesh = uniform_unit_mesh(2, 1, 1)
    space = assemble_space(family("q-red", 5), mesh)

    def jump(box):
        t_y = TensorPoly.monomial((0, 1, 0), box)
        out = TensorPoly.from_terms({(0, 0, 0): F(1)}, cell=box)
        for i in range(1, 5):
            out = out * (t_y - TensorPoly.from_terms({(0, 0, 0): F(i, 5)}, cell=box))
        return out

    grid = [F(i, 5) for i in range(1, 5)]
    assert all(jump(mesh.cell_box(1)).eval_reference((0, s, t)) == 0
               for s in grid for t in grid)
    coeffs = interpolate(space, lambda ci, box: {"x": jump(box)} if ci else {})
    jumps = face_jump(space, coeffs, (0, 1, 0, 0), [("x", (0, 0, 0))])
    assert any(jumps)
    # the y component has no jump there
    assert not any(face_jump(space, coeffs, (0, 1, 0, 0), [("y", (0, 0, 0))]))


def test_face_jump_boundary_rejected():
    mesh = uniform_unit_mesh(2, 1, 1)
    space = assemble_space(family("q", 3), mesh)
    with pytest.raises(ValueError):
        face_jump(space, [F(0)] * space.dimension, (0, 0, 0, 0), [])
    with pytest.raises(ValueError):
        face_jump(space, [F(0)] * space.dimension, (1, 0, 1, 0), [])
    # the far boundary face along the normal has one cell too
    with pytest.raises(ValueError, match="not interior"):
        face_jump(space, [F(0)] * space.dimension, (0, 2, 0, 0), [])


def test_negative_control_sigma_red():
    mesh = uniform_unit_mesh(2, 1, 1)
    assert discontinuity_witness(family("sigma-red", 3), mesh, "xx", 0)


# Continuity: jump_check proves it from unit-cell facts and the mesh's
# numbering (its docstring has the lemma).  The sampled check it replaced
# is the oracle here.


def sampled_jump_check(fam, mesh, fields=5, seed=20260818, traces=None):
    """The sampled continuity audit: the promised traces (``traces(name,
    normal)``, by default :func:`continuity_traces`) of ``fields`` random
    members, compared exactly across every interior face.  Raises
    ``AssertionError`` at the first jump; returns ``jump_check``'s keys."""
    traces = traces or continuity_traces
    space = assemble_space(fam, mesh)
    rng = random.Random(seed)
    checked = 0
    for _ in range(fields):
        coeffs = verify._random_coeffs(space.dimension, rng)
        local = [reconstruct_local(space, ci, coeffs)
                 for ci in range(mesh.num_cells)]
        for face in mesh.interior_faces():
            lo, hi = (local[ci] for ci in mesh.face_cells(*face))
            fent = mesh.face_entity(*face)
            for comp, deriv in traces(fam.name, face[0]):
                t1, t2 = (f.component(comp).differentiate_multi(deriv).trace(fent)
                          for f in (lo, hi))
                if t1 != t2:
                    raise AssertionError(
                        f"{fam.name} k={fam.k}: jump in {comp} deriv {deriv} "
                        f"across face {face}")
                checked += 1
    return {"family": fam.name, "k": fam.k, "fields": fields,
            "traces_checked": checked, "continuous": True}


def _seeded_graded(shape, seed):
    """A box mesh of ``shape`` whose cell widths are random and pairwise
    distinct over all three axes."""
    rng = random.Random(seed)
    widths = rng.sample(range(1, 50), sum(shape))
    breaks, start = [], 0
    for n in shape:
        cuts = list(itertools.accumulate(F(w, 17) for w in widths[start:start + n]))
        breaks.append([F(0)] + cuts)
        start += n
    return build_box_mesh(*breaks)


@pytest.fixture
def fresh_proof():
    """The continuity proof's unit-cell caches emptied before and after, so
    a test's monkeypatch is seen and not left behind."""
    for cached in (verify._face_closure, verify._mirrors):
        cached.cache_clear()
    yield
    for cached in (verify._face_closure, verify._mirrors):
        cached.cache_clear()


CONTINUITY_CASES = ([(_seeded_graded((2, 2, 1), 11), 0)]
                    + [(_seeded_graded(shape, 12), 1)
                       for shape in ((2, 1, 1), (1, 1, 2))]
                    + [(uniform_unit_mesh(1, 2, 1), dk) for dk in (0, 1)])


@pytest.mark.parametrize("mesh, dk", CONTINUITY_CASES,
                         ids=["graded-2x2x1-min", "graded-2x1x1-min+1",
                              "graded-1x1x2-min+1", "uniform-1x2x1-min",
                              "uniform-1x2x1-min+1"])
def test_continuity_proof_agrees_with_sampled_oracle(mesh, dk, fresh_proof):
    """All 13 families: the proof and two sampled members give the same
    report.  On the graded meshes every cell width differs, so each
    normal-derivative trace (u, phi, gamma) meets two values of h_a."""
    widths = {b - a for axis in (mesh.breaks_x, mesh.breaks_y, mesh.breaks_z)
              for a, b in zip(axis, axis[1:])}
    assert mesh.shape == (1, 2, 1) or len(widths) == sum(mesh.shape)
    for name in FAMILY_NAMES:
        fam = family(name, min_order(name) + dk)
        assert jump_check(fam, mesh, fields=2) == sampled_jump_check(
            fam, mesh, fields=2), name


def test_jump_check_samples_nothing(monkeypatch, fresh_proof):
    """The proof reconstructs no field and builds no factor table, coupled
    block or bubble basis, and takes no polynomial trace."""
    def spy(*_args, **_kwargs):
        raise AssertionError("the continuity proof reached a sampling path")
    for module, name in ((assembly, "_factor_table"),
                         (assembly, "reconstruct_local"),
                         (verify, "reconstruct_local"),
                         (assembly, "triangular_blocks"),
                         (elements, "triangular_blocks"),
                         (elements, "bubble_basis_divT")):
        monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(TensorPoly, "trace", spy)
    for mesh in (uniform_unit_mesh(2, 2, 1), _seeded_graded((2, 2, 1), 11)):
        for name in FAMILY_NAMES:
            res = jump_check(family(name, min_order(name)), mesh, fields=1)
            assert res["continuous"], name


@pytest.mark.parametrize("name, comp, deriv, shape, normal", [
    ("sigma-red", "xx", (0, 0, 0), (2, 1, 1), 0),
    ("gamma-red", "zz", (0, 0, 1), (1, 1, 2), 2),
    ("xi-red", "xx", (0, 0, 0), (1, 2, 1), 1),
])
def test_unpromised_trace_is_not_proved(monkeypatch, fresh_proof, name, comp,
                                        deriv, shape, normal):
    """A trace a reduced family does not promise fails premise (i), on a
    product block by the 1-D test with no DOF on the face, on the coupled
    xi-red diagonal by the two ranks; the sampled oracle sees it jump."""
    unpromised = lambda fam_name, axis: [(comp, deriv)] if axis == normal else []
    fam, mesh = family(name, min_order(name)), uniform_unit_mesh(*shape)
    with pytest.raises(AssertionError, match="jump in"):
        sampled_jump_check(fam, mesh, fields=1, traces=unpromised)
    monkeypatch.setattr(verify, "continuity_traces", unpromised)
    with pytest.raises(ConformityError, match=re.escape(
            f"{name} k={fam.k}, axis {'xyz'[normal]}, trace {comp} deriv "
            f"{deriv}: not determined by its DOFs on t = 1: ")) as err:
        jump_check(fam, mesh)
    assert str(err.value).endswith("none") == (name != "xi-red")


def test_dof_without_mirror_is_refused(monkeypatch, fresh_proof):
    """A catalog whose face DOF on t_x = 0 is moved off the face leaves its
    partner on t_x = 1 without a mirror: premise (ii) fails naming it."""
    fam = family("sigma", 3)
    funcs = _catalog_functionals(fam)
    dofs = local_dofs(fam)
    p1 = next(p for p in verify._face_closure(fam)[0]
              if dofs[p].entity_label == ("face", 0, 1))
    p0 = verify._mirrors(fam)[p1][0]
    d, w, _side = funcs[p0][0]
    doctored = funcs[:p0] + (((d, w, None),) + funcs[p0][1:],) + funcs[p0 + 1:]
    verify._face_closure.cache_clear()
    verify._mirrors.cache_clear()
    monkeypatch.setattr(verify, "_catalog_functionals",
                        lambda f: doctored if f == fam else _catalog_functionals(f))
    with pytest.raises(ConformityError,
                       match=re.escape(f"{verify._dof_label(fam, p1)} has no "
                                       f"mirror on t = 0")):
        jump_check(fam, uniform_unit_mesh(2, 1, 1))


def test_swapped_global_indices_are_refused(monkeypatch, fresh_proof):
    """Two global indices swapped on the upper cell of one face: the shared
    DOFs no longer match across it, and premise (iii) fails there."""
    fam, mesh = family("sigma", 3), uniform_unit_mesh(2, 1, 1)
    # the mirrors, on the upper cell, of two DOFs on an x-normal face
    q1, q2 = (q for q, _comp, _deriv in list(verify._face_closure(fam)[0].values())[:2])
    real = verify.assemble_space

    def swapped(f, m):
        space = real(f, m)
        hi = space.cell_maps[1]
        hi[q1], hi[q2] = hi[q2], hi[q1]
        return space

    monkeypatch.setattr(verify, "assemble_space", swapped)
    with pytest.raises(ConformityError,
                       match=re.escape("face (0, 1, 0, 0) numbers sigma DOF")):
        jump_check(fam, mesh)


def test_identity_suite_counts():
    r = identity_suite(count=6)
    assert r["checks"] == r["passed"] == 6
