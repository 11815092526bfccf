"""Verification layer: exactness reports, kernels, preimages, jumps."""

import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import cuboid_complex
from cuboid_complex import _exactcore, verify
from cuboid_complex.cli import main as cli_main
from cuboid_complex.assembly import (SparseMatrix, assemble_space, interpolate,
                                     operator_matrix)
from cuboid_complex.elements import family
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


# The first-rank certificate: verify_complex takes r0 = n0 - kd from
# unit-cell facts when its two bounds meet, and kernel_identification the
# nullity kd (verify_complex's docstring has the lemma).  Eliminating A0 is
# the oracle here; the other two ranks are eliminated on both sides.

_GRADED_3X2X2 = build_box_mesh([0, F(1, 7), F(1, 2), 1], [0, F(2, 3), 1],
                               [0, F(1, 5), 1])

FIRST_RANK_MESHES = (uniform_unit_mesh(1, 1, 1), uniform_unit_mesh(2, 2, 2),
                     uniform_unit_mesh(3, 3, 3), _GRADED_2X2X1, _GRADED_3X2X2)


@pytest.fixture
def fresh_first_block_facts():
    """Unit-cell facts read while the test runs, and none left cached."""
    facts = verify._first_block_nullity
    facts.cache_clear()
    yield
    facts.cache_clear()


def _ff_rank_widths(monkeypatch) -> list:
    """Record the column count of every matrix ``ff_rank`` eliminates."""
    widths = []
    real = _exactcore.ff_rank

    def spy(rows, ncols, counts=None):
        widths.append(ncols)
        return real(rows, ncols, counts)

    monkeypatch.setattr(_exactcore, "ff_rank", spy)
    return widths


@pytest.mark.parametrize("name,k", [(name, COMPLEXES[name][3] + dk)
                                    for name in COMPLEX_NAMES for dk in (0, 1)])
def test_first_rank_from_unit_cell_facts_equals_elimination(name, k):
    fams, ops = COMPLEXES[name][:2]
    for mesh in FIRST_RANK_MESHES:
        rep = verify_complex(name, k, mesh)
        src, dst = (assemble_space(family(f, k), mesh) for f in fams[:2])
        r0 = exact_rank(operator_matrix(ops[0], src, dst))
        assert rep.ranks[0] == r0 and rep.exact, mesh.shape
        kernel = kernel_identification(name, k, mesh)
        assert kernel["nullity"] == src.dimension - r0, mesh.shape
        assert kernel["identified"], mesh.shape


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_rational_route_never_eliminates_the_first_matrix(monkeypatch, name):
    widths = _ff_rank_widths(monkeypatch)
    rep = verify_complex(name, COMPLEXES[name][3], uniform_unit_mesh(2, 2, 2))
    assert rep.exact
    assert rep.dims[1] in widths and rep.dims[2] in widths
    assert rep.dims[0] not in widths


def test_broken_first_block_is_eliminated(monkeypatch,
                                          fresh_first_block_facts):
    """Negative control: an edge-0 reference block with one more entry
    gives no first rank from the unit cell; A0 is eliminated."""
    _edge_gains_an_entry(monkeypatch, "gradgrad", 3, 0)
    widths = _ff_rank_widths(monkeypatch)
    mesh = uniform_unit_mesh(2, 2, 2)
    rep = verify_complex("gradgrad", 3, mesh)
    assert rep.ranks == [212, 670, 300] and 216 in widths
    assert not rep.exact
    assert kernel_identification("gradgrad", 3, mesh)["nullity"] == 4


@pytest.mark.parametrize("arithmetic", ["rational", "both"])
@pytest.mark.parametrize("facts_hold", [True, False])
def test_first_rank_bounds_that_do_not_meet_are_eliminated(
        monkeypatch, fresh_first_block_facts, arithmetic, facts_hold):
    """Negative control: with ``kd`` set to 5 for gradgrad, the unit-cell
    bound ``r0 >= n0 - 5`` misses ``r0 <= n1 - r1``, or, when F1 is left to
    see the true nullity 4, F1 fails; either way A0 is eliminated."""
    fams, ops, _kd, min_k = COMPLEXES["gradgrad"]
    monkeypatch.setitem(COMPLEXES, "gradgrad", (fams, ops, 5, min_k))
    if facts_hold:
        monkeypatch.setattr(verify, "_first_block_nullity", lambda name, k: 5)
    widths = _ff_rank_widths(monkeypatch)
    mesh = uniform_unit_mesh(2, 2, 2)
    rep = verify_complex("gradgrad", 3, mesh, arithmetic=arithmetic)
    assert rep.ranks == [212, 670, 300] and 216 in widths
    assert rep.ranks_float in (None, rep.ranks)
    assert rep.cohomology_dim == 4 and not rep.exact
    kernel = kernel_identification("gradgrad", 3, mesh)
    assert kernel["nullity"] == 4 and not kernel["identified"]


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


def test_identity_suite_counts():
    r = identity_suite(count=6)
    assert r["checks"] == r["passed"] == 6
