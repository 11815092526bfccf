"""The benchmark's workloads and the frozen values that gate them.

A workload is a list of parts, and a part is a list of operations that one
cold worker process runs, the way one command-line invocation would (the
CLI certifies one complex per invocation).  An operation is one call into
the public API of ``cuboid_complex`` together with a check of its result;
the check returns the list of mismatches, empty when the result is right.
Every expected value below is frozen here rather than read back from the
library, so a change that breaks a certificate cannot also move its own
target.

Only arguments that later refactors keep are passed: no ``threads=`` and no
kernel-backend switch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cuboid_complex.elements import (FamilyId, check_unisolvence,
                                     global_dimension_formula)
from cuboid_complex.mesh import CuboidMesh, build_box_mesh, uniform_unit_mesh
from cuboid_complex.verify import (div_preimage_check, jump_check,
                                   kernel_identification, verify_complex)


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    parts: list[list[Operation]]
    meshes: list[CuboidMesh]


# ---------------------------------------------------------------------------
# frozen values

#: complex -> (families, minimum order, kernel dimension)
LADDERS = {
    "gradgrad": (("u", "sigma", "xi", "q"), 3, 4),
    "gradgrad-reduced": (("u", "sigma-red", "xi-red", "q-red"), 3, 4),
    "elasticity": (("x", "phi", "gamma", "z"), 2, 6),
    "elasticity-reduced": (("x", "phi", "gamma-red", "z-red"), 2, 6),
}

#: random targets per complex in div_preimage_check
PREIMAGE_SAMPLES = 2

#: family -> minimum order
MIN_ORDER = {"u": 3, "sigma": 3, "xi": 3, "q": 3, "sigma-red": 3,
             "xi-red": 3, "q-red": 3, "x": 2, "phi": 2, "gamma": 2,
             "gamma-red": 2, "z": 2, "z-red": 2}

#: (complex, uniform mesh shape) -> (space dims, operator ranks), at the
#: complex's minimum order.  The 2x2x2 rows are the acceptance tables; the
#: 4x3x3 row and the 1x1x1 row used by the smoke workloads were computed by
#: the seed program and satisfy the exactness identities.
FROZEN_LADDERS = {
    ("gradgrad", (1, 1, 1)): ([64, 204, 198, 54], [60, 144, 54]),
    ("gradgrad", (2, 2, 2)): ([216, 882, 970, 300], [212, 670, 300]),
    ("gradgrad-reduced", (2, 2, 2)): ([216, 1050, 1270, 432], [212, 838, 432]),
    ("elasticity", (2, 2, 2)): ([540, 882, 588, 240], [534, 348, 240]),
    ("elasticity-reduced", (2, 2, 2)): ([540, 882, 636, 288], [534, 348, 288]),
    ("gradgrad", (4, 3, 3)): ([640, 2970, 3482, 1148], [636, 2334, 1148]),
}

#: traces checked by jump_check on the 2x2x2 mesh with 5 fields (the
#: acceptance table), divided by its 5 fields and 12 interior faces: the
#: traces one field checks on one interior face, for every face normal.
TRACES_PER_FACE = {family: count // (5 * 12) for family, count in {
    "u": 120, "sigma": 300, "xi": 420, "q": 120,
    "sigma-red": 300, "xi-red": 180, "q-red": 0,
    "x": 180, "phi": 480, "gamma": 240, "z": 60,
    "gamma-red": 180, "z-red": 0,
}.items()}


# ---------------------------------------------------------------------------
# checks


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _ladder_op(name: str, mesh: CuboidMesh, arithmetic: str,
               frozen: tuple[list[int], list[int]] | None) -> Operation:
    """verify_complex, checked against the dimension formula, the frozen
    dims and ranks when given, and exactness."""
    families, k, kernel_dim = LADDERS[name]
    formula = [global_dimension_formula(FamilyId(f, k), mesh.entity_counts())
               for f in families]

    def check(rep) -> list[str]:
        errors: list[str] = []
        _expect(errors, "dims vs formula", rep.dims, formula)
        if frozen is not None:
            _expect(errors, "dims", rep.dims, frozen[0])
            _expect(errors, "ranks", rep.ranks, frozen[1])
        if arithmetic == "both":
            _expect(errors, "float ranks", rep.ranks_float, rep.ranks)
        _expect(errors, "composition_zero", rep.composition_zero, True)
        _expect(errors, "cohomology_dim", rep.cohomology_dim, kernel_dim)
        _expect(errors, "exact", rep.exact, True)
        return errors

    shape = "x".join(str(n) for n in mesh.shape)
    return Operation(f"verify_complex {name} k={k} {shape} {arithmetic}",
                     lambda: verify_complex(name, k, mesh, arithmetic=arithmetic),
                     check)


def _unisolvence_op(name: str, k: int) -> Operation:
    def check(res) -> list[str]:
        errors: list[str] = []
        _expect(errors, "nonsingular", res["nonsingular"], True)
        _expect(errors, "rank", res["rank"], res["local_dim"])
        _expect(errors, "num_dofs", res["num_dofs"], res["local_dim"])
        return errors

    return Operation(f"check_unisolvence {name} k={k}",
                     lambda: check_unisolvence(FamilyId(name, k)), check)


def _jump_op(name: str, mesh: CuboidMesh, seed: int) -> Operation:
    k = MIN_ORDER[name]
    nx, ny, nz = mesh.shape
    interior_faces = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
    want = TRACES_PER_FACE[name] * interior_faces

    def check(res) -> list[str]:
        errors: list[str] = []
        _expect(errors, "continuous", res["continuous"], True)
        _expect(errors, "traces_checked", res["traces_checked"], want)
        return errors

    return Operation(f"jump_check {name} k={k} seed={seed}",
                     lambda: jump_check(FamilyId(name, k), mesh, fields=1,
                                        seed=seed),
                     check)


def _preimage_op(name: str, mesh: CuboidMesh, seed: int) -> Operation:
    k = LADDERS[name][1]

    def check(res) -> list[str]:
        errors: list[str] = []
        _expect(errors, "exact", res["exact"], True)
        _expect(errors, "samples", res["samples"], PREIMAGE_SAMPLES)
        return errors

    return Operation(f"div_preimage_check {name} k={k} seed={seed}",
                     lambda: div_preimage_check(name, k, mesh,
                                                samples=PREIMAGE_SAMPLES,
                                                seed=seed),
                     check)


def _kernel_op(name: str, mesh: CuboidMesh) -> Operation:
    k, kernel_dim = LADDERS[name][1:]

    def check(res) -> list[str]:
        errors: list[str] = []
        _expect(errors, "identified", res["identified"], True)
        _expect(errors, "nullity", res["nullity"], kernel_dim)
        _expect(errors, "interpolant_rank", res["interpolant_rank"], kernel_dim)
        return errors

    return Operation(f"kernel_identification {name} k={k}",
                     lambda: kernel_identification(name, k, mesh), check)


# ---------------------------------------------------------------------------
# seeded inputs

#: candidate interior breakpoints of the graded mesh: denominators at most 7
_BREAK_CANDIDATES = sorted({Fraction(p, q) for q in range(2, 8)
                            for p in range(1, q)})


def graded_breaks(rng: random.Random, cells: int) -> list[Fraction]:
    """Breakpoints of [0, 1] into ``cells`` intervals of distinct widths."""
    while True:
        inner = sorted(rng.sample(_BREAK_CANDIDATES, cells - 1))
        breaks = [Fraction(0)] + inner + [Fraction(1)]
        widths = [b - a for a, b in zip(breaks, breaks[1:])]
        if len(set(widths)) == cells:
            return breaks


def _sub_seed(seed: int, stream: str) -> int:
    return random.Random(f"{stream}:{seed}").randrange(2 ** 31)


# ---------------------------------------------------------------------------
# workloads


def ladders_uniform(seed: int) -> Workload:
    """Every complex at minimum order on uniform 2x2x2, both rank routes.

    This is the acceptance gate's own traffic: one cell shape, so the
    per-shape block cache hits, and the only workload on the float SVD.
    The inputs are fixed; the seed is not used.
    """
    mesh = uniform_unit_mesh(2, 2, 2)
    return Workload([[_ladder_op(name, mesh, "both",
                                 FROZEN_LADDERS[(name, (2, 2, 2))])]
                     for name in LADDERS], [mesh])


def ladders_graded(seed: int) -> Workload:
    """gradgrad k=3 and elasticity k=2, rational, on a graded 2x2x1 mesh.

    The same ladder code as ladders-uniform, but the breakpoints come from
    the seed with distinct widths on each axis, so every cell has its own
    shape and every first block request misses the per-shape cache.  Ranks
    are not assumed to carry over from the uniform mesh.
    """
    rng = random.Random(_sub_seed(seed, "graded"))
    mesh = build_box_mesh(graded_breaks(rng, 2), graded_breaks(rng, 2),
                          [Fraction(0), Fraction(1)])
    return Workload([[_ladder_op(name, mesh, "rational", None)]
                     for name in ("gradgrad", "elasticity")], [mesh])


def ladder_large(seed: int) -> Workload:
    """gradgrad k=3 on uniform 4x3x3, rational: the exact rank dominates.

    The inputs are fixed; the seed is not used.
    """
    mesh = uniform_unit_mesh(4, 3, 3)
    return Workload([[_ladder_op("gradgrad", mesh, "rational",
                                 FROZEN_LADDERS[("gradgrad", (4, 3, 3))])]],
                    [mesh])


def audits(seed: int) -> Workload:
    """The certificates that are not ranks, on uniform 2x2x1.

    Unisolvence of all 13 families at minimum order, one seeded field per
    family through jump_check, seeded divergence preimages and kernel
    identification for all four complexes.  This is the only workload that
    goes from DOF values back to fields (reconstruct_local, interpolate) and
    evaluates polynomials on faces.
    """
    mesh = uniform_unit_mesh(2, 2, 1)
    jump_seed = _sub_seed(seed, "jump")
    preimage_seed = _sub_seed(seed, "preimage")
    return Workload([
        [_unisolvence_op(name, k) for name, k in MIN_ORDER.items()],
        [_jump_op(name, mesh, jump_seed) for name in MIN_ORDER],
        [_preimage_op(name, mesh, preimage_seed) for name in LADDERS],
        [_kernel_op(name, mesh) for name in LADDERS],
    ], [mesh])


def uniform(seed: int) -> Workload:
    """Everything on uniform meshes: ``ladders-uniform`` then ``audits``.

    One cell shape per mesh, so the per-shape block cache hits.  It runs
    the acceptance gate's traffic, the only float SVD, and the certificates
    that are not ranks.
    """
    ladders, certificates = ladders_uniform(seed), audits(seed)
    return Workload(ladders.parts + certificates.parts,
                    ladders.meshes + certificates.meshes)


def graded_large(seed: int) -> Workload:
    """Rational ladders whose cost is not in the cache-hit path:
    ``ladders-graded`` (every block request for a new cell shape misses)
    then ``ladder-large`` (the exact rank dominates)."""
    graded, large = ladders_graded(seed), ladder_large(seed)
    return Workload(graded.parts + large.parts, graded.meshes + large.meshes)


def smoke(seed: int) -> Workload:
    """A tiny ladder for the benchmark's own smoke test."""
    mesh = uniform_unit_mesh(1, 1, 1)
    return Workload([[_ladder_op("gradgrad", mesh, "rational",
                                 FROZEN_LADDERS[("gradgrad", (1, 1, 1))])]],
                    [mesh])


def smoke_bad_rank(seed: int) -> Workload:
    """``smoke`` with one expected rank deliberately wrong: the gate must
    report it as a failed operation."""
    mesh = uniform_unit_mesh(1, 1, 1)
    dims, ranks = FROZEN_LADDERS[("gradgrad", (1, 1, 1))]
    wrong = (dims, [ranks[0], ranks[1] + 1, ranks[2]])
    return Workload([[_ladder_op("gradgrad", mesh, "rational", wrong)]],
                    [mesh])


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "uniform": uniform,
    "graded-large": graded_large,
    "ladders-uniform": ladders_uniform,
    "ladders-graded": ladders_graded,
    "ladder-large": ladder_large,
    "audits": audits,
    "smoke": smoke,
    "smoke-bad-rank": smoke_bad_rank,
}
