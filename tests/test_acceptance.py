"""Acceptance suite.

Each test covers one release criterion end to end and prints a single
PASS line on success (visible with ``pytest -s`` or ``-rP``); the
``pytest -v`` status line doubles as the machine-readable verdict.
Ladder reports are cached at module scope so the composition and
exactness criteria share one assembly per (complex, mesh) pair.
"""

import time
from functools import lru_cache

from cuboid_complex.elements import (FAMILY_NAMES, bubble_basis_divT,
                                     check_unisolvence, family, min_order)
from cuboid_complex.mesh import uniform_unit_mesh
from cuboid_complex.polytensor import UNIT_BOX, CellBox, EntityRef
from cuboid_complex.verify import (COMPLEX_NAMES, COMPLEXES,
                                   discontinuity_witness, div_preimage_check,
                                   identity_suite, jump_check,
                                   kernel_identification, verify_complex,
                                   verify_dimensions)

MESHES = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))
LADDER_MESHES = ((1, 1, 1), (2, 1, 1), (2, 2, 2))

#: complex -> mesh shape -> (space dims, operator ranks)
FROZEN_LADDERS = {
    "gradgrad": {
        (1, 1, 1): ([64, 204, 198, 54], [60, 144, 54]),
        (2, 1, 1): ([96, 334, 338, 96], [92, 242, 96]),
        (2, 2, 2): ([216, 882, 970, 300], [212, 670, 300]),
    },
    "gradgrad-reduced": {
        (1, 1, 1): ([64, 204, 198, 54], [60, 144, 54]),
        (2, 1, 1): ([96, 351, 367, 108], [92, 259, 108]),
        (2, 2, 2): ([216, 1050, 1270, 432], [212, 838, 432]),
    },
    "elasticity": {
        (1, 1, 1): ([144, 204, 102, 36], [138, 66, 36]),
        (2, 1, 1): ([224, 334, 184, 68], [218, 116, 68]),
        (2, 2, 2): ([540, 882, 588, 240], [534, 348, 240]),
    },
    "elasticity-reduced": {
        (1, 1, 1): ([144, 204, 102, 36], [138, 66, 36]),
        (2, 1, 1): ([224, 334, 188, 72], [218, 116, 72]),
        (2, 2, 2): ([540, 882, 636, 288], [534, 348, 288]),
    },
}

#: complex -> (k = minimum + 3, space dims, operator ranks) on one cell
FROZEN_HIGH_ORDER = {
    "gradgrad": (6, [343, 1491, 1692, 540], [339, 1152, 540]),
    "elasticity": (5, [882, 1491, 1065, 450], [876, 615, 450]),
    "elasticity-reduced": (5, [882, 1491, 1065, 450], [876, 615, 450]),
}

#: traces checked by jump_check per family on the 2x2x2 mesh, 5 fields
FROZEN_TRACE_COUNTS = {
    "u": 120, "sigma": 300, "xi": 420, "q": 120,
    "sigma-red": 300, "xi-red": 180, "q-red": 0,
    "x": 180, "phi": 480, "gamma": 240, "z": 60,
    "gamma-red": 180, "z-red": 0,
}


@lru_cache(maxsize=None)
def ladder(name: str, shape: tuple[int, int, int]):
    k = COMPLEXES[name][3]
    return verify_complex(name, k, uniform_unit_mesh(*shape),
                          arithmetic="both")


def test_criterion_1_unisolvence_all_families():
    start = time.monotonic()
    checked = 0
    for name in FAMILY_NAMES:
        base = min_order(name)
        for k in (base, base + 1):
            res = check_unisolvence(family(name, k))
            assert res["nonsingular"], f"{name} k={k} singular"
            assert res["rank"] == res["local_dim"] == res["num_dofs"]
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 26
    assert elapsed < 60.0, f"unisolvence sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: 26/26 unisolvent in {elapsed:.1f}s")


def test_criterion_2_dimension_formulas():
    mismatches = []
    for name in FAMILY_NAMES:
        base = min_order(name)
        for k in (base, base + 1):
            for shape in MESHES:
                res = verify_dimensions(family(name, k),
                                        uniform_unit_mesh(*shape))
                if not res["match"]:
                    mismatches.append((name, k, shape))
    assert not mismatches, mismatches
    spot = {}
    for name, want in (("u", 216), ("sigma", 882), ("xi", 970), ("q", 300)):
        res = verify_dimensions(family(name, 3), uniform_unit_mesh(2, 2, 2))
        assert res["assembled"] == want, (name, res["assembled"])
        spot[name] = want
    assert 4 - spot["u"] + spot["sigma"] - spot["xi"] + spot["q"] == 0
    print("PASS criterion 2: 104 formula checks, 4 spot values, "
          "alternating sum zero")


def test_criterion_3_compositions_vanish():
    for name in COMPLEX_NAMES:
        for shape in LADDER_MESHES:
            rep = ladder(name, shape)
            assert rep.composition_zero, (name, shape)
    print("PASS criterion 3: consecutive operators compose to zero "
          "on all 12 ladders")


def test_criterion_4_exactness_with_frozen_ranks():
    for name, per_mesh in FROZEN_LADDERS.items():
        for shape, (dims, ranks) in per_mesh.items():
            rep = ladder(name, shape)
            assert rep.dims == dims, (name, shape, rep.dims)
            assert rep.ranks == ranks, (name, shape, rep.ranks)
            assert rep.exact
            assert rep.cohomology_dim == COMPLEXES[name][2]
            assert rep.arithmetic_mode == "both"
    print("PASS criterion 4: 12 ladders exact, ranks frozen, "
          "float ranks agree")


def test_high_order_one_cell_ladders():
    for name, (k, dims, ranks) in FROZEN_HIGH_ORDER.items():
        assert k == COMPLEXES[name][3] + 3
        start = time.monotonic()
        rep = verify_complex(name, k, uniform_unit_mesh(1, 1, 1))
        elapsed = time.monotonic() - start
        assert rep.dims == dims, (name, rep.dims)
        assert rep.ranks == ranks, (name, rep.ranks)
        assert rep.exact
        assert rep.arithmetic_mode == "rational"
        print(f"{name} k={k}: {elapsed:.1f}s")
    print("PASS high order: gradgrad k=6, elasticity and elasticity-reduced "
          "k=5 exact on one cell, ranks frozen")


def test_gradgrad_reduced_k5_one_cell():
    """The reduced grad-grad ladder two orders above its minimum on one
    cell: its sigma-red and xi-red blocks are fibred and coupled, not
    product blocks."""
    start = time.monotonic()
    rep = verify_complex("gradgrad-reduced", 5, uniform_unit_mesh(1, 1, 1))
    elapsed = time.monotonic() - start
    assert rep.dims == [216, 882, 970, 300]
    assert rep.ranks == [212, 670, 300]
    assert rep.exact and rep.composition_zero
    print(f"PASS gradgrad-reduced k=5 exact on one cell in {elapsed:.1f}s")


def test_criterion_5_kernel_is_lowest_order_span():
    for name in COMPLEX_NAMES:
        for shape in LADDER_MESHES:
            res = kernel_identification(name, COMPLEXES[name][3],
                                        uniform_unit_mesh(*shape))
            assert res["identified"], (name, shape)
            assert res["kernel_dim"] == COMPLEXES[name][2]
    print("PASS criterion 5: kernels identified on all 12 ladders")


def test_criterion_6_divergence_preimages():
    for name in COMPLEX_NAMES:
        for shape in LADDER_MESHES:
            res = div_preimage_check(name, COMPLEXES[name][3],
                                     uniform_unit_mesh(*shape), samples=10)
            assert res["exact"], (name, shape)
    print("PASS criterion 6: 10 preimage round trips per complex per mesh")


def test_criterion_7_interelement_continuity():
    mesh = uniform_unit_mesh(2, 2, 2)
    for name in FAMILY_NAMES:
        res = jump_check(family(name, min_order(name)), mesh, fields=5)
        assert res["continuous"], name
        assert res["traces_checked"] == FROZEN_TRACE_COUNTS[name], name
    assert discontinuity_witness(family("sigma-red", 3),
                                 uniform_unit_mesh(2, 1, 1), "xx", 0)
    print("PASS criterion 7: 13 families continuous, reduced normal-normal "
          "jump witnessed")


def test_criterion_8_bubble_basis():
    from fractions import Fraction
    for k, want in ((3, 8), (4, 40), (5, 108)):
        basis = bubble_basis_divT(k)
        assert len(basis) == want == 2 * (k - 2) ** 2 * (k + 1)
        for xx, yy, zz in basis.triples:
            assert (xx + yy + zz).is_zero()
            for axis, comp in ((0, xx), (1, yy), (2, zz)):
                for side in (0, 1):
                    lo = list(UNIT_BOX.lo)
                    hi = list(UNIT_BOX.hi)
                    lo[axis] = hi[axis] = Fraction(side)
                    face = EntityRef("face", CellBox(tuple(lo), tuple(hi)))
                    assert comp.trace(face).is_zero()
    print("PASS criterion 8: bubble bases of dims 8/40/108 satisfy all "
          "constraints exactly")


def test_criterion_9_curl_identities():
    res = identity_suite(count=50)
    assert res["passed"] == res["checks"] == 50
    print("PASS criterion 9: 50/50 curl commutation identities hold exactly")
