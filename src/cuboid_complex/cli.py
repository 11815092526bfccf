"""Command line interface.

Verification results go to stdout as JSON; human-readable progress and
summaries go to stderr.  Exit status: 0 when every requested check passed,
1 when a verification failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .elements import FAMILY_NAMES, FamilyId, check_unisolvence, min_order
from .mesh import CuboidMesh, build_box_mesh
from .verify import (ARITHMETICS, COMPLEXES, COMPLEX_NAMES, DenseSizeError,
                     complex_spaces, identity_suite, verify_complex,
                     verify_dimensions)


def _add_mesh_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", default="1,1,1", metavar="NX,NY,NZ",
                   help="uniform cell counts per axis (default 1,1,1)")
    for axis in "xyz":
        p.add_argument(f"--breakpoints-{axis}", metavar="A,B,...",
                       help=f"explicit rational breakpoints along {axis} "
                            "(overrides --mesh on that axis)")


def _parse_mesh(parser: argparse.ArgumentParser, args) -> CuboidMesh:
    try:
        counts = [int(t) for t in args.mesh.split(",")]
        if len(counts) != 3 or any(n < 1 for n in counts):
            raise ValueError
    except ValueError:
        parser.error(f"--mesh must be three positive integers, got {args.mesh!r}")
    breaks = []
    for axis, n in zip("xyz", counts):
        given = getattr(args, f"breakpoints_{axis}")
        if given is None:
            breaks.append([Fraction(i, n) for i in range(n + 1)])
        else:
            try:
                pts = [Fraction(t.strip()) for t in given.split(",")]
            except (ValueError, ZeroDivisionError):
                parser.error(f"--breakpoints-{axis}: bad rational list {given!r}")
            breaks.append(pts)
    try:
        return build_box_mesh(*breaks)
    except ValueError as exc:
        parser.error(str(exc))
        raise  # unreachable; parser.error exits


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_unisolvence(parser, args) -> int:
    if args.family == "all":
        names = FAMILY_NAMES
    else:
        names = (args.family,)
    results = []
    ok = True
    for name in names:
        base = min_order(name)
        ks = (args.k,) if args.k is not None else (base, base + 1)
        for k in ks:
            try:
                fam = FamilyId(name, k)
            except ValueError as exc:
                parser.error(str(exc))
            res = check_unisolvence(fam)
            results.append(res)
            ok = ok and res["nonsingular"]
            _say(f"{name} k={k}: dim {res['local_dim']}, dofs {res['num_dofs']}, "
                 f"rank {res['rank']} -> "
                 f"{'unisolvent' if res['nonsingular'] else 'FAILED'}")
    _emit(results)
    return 0 if ok else 1


def _cmd_complex(parser, args) -> int:
    mesh = _parse_mesh(parser, args)
    try:
        report = verify_complex(args.complex, args.k, mesh,
                                arithmetic=args.arithmetic)
    except DenseSizeError as exc:
        _say(str(exc))
        return 1
    except (AssertionError, ValueError) as exc:
        _say(f"verification failed: {exc}")
        return 1
    _say(f"{args.complex} k={args.k} on {report.to_dict()['mesh']}: "
         f"dims {report.dims}, ranks {report.ranks}")
    for label, good in report.checks().items():
        _say(f"  {label}: {'ok' if good else 'FAILED'}")
    _emit(report.to_dict())
    return 0 if report.exact else 1


def _cmd_dims(parser, args) -> int:
    mesh = _parse_mesh(parser, args)
    try:
        fam = FamilyId(args.family, args.k)
    except ValueError as exc:
        parser.error(str(exc))
    res = verify_dimensions(fam, mesh)
    _say(f"{args.family} k={args.k} on {res['mesh']}: formula {res['formula']}, "
         f"assembled {res['assembled']}")
    _emit(res)
    return 0 if res["match"] else 1


def _cmd_export(parser, args) -> int:
    from .assembly import operator_matrix, write_matrix_market
    mesh = _parse_mesh(parser, args)
    fams, ops, _kd, min_k = COMPLEXES[args.complex]
    if args.k < min_k:
        parser.error(f"complex {args.complex!r} needs k >= {min_k}")
    if args.edge not in ops:
        parser.error(f"complex {args.complex!r} has edges {', '.join(ops)}; "
                     f"got {args.edge!r}")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if (not os.path.isdir(out_dir) or os.path.isdir(args.out)
            or not os.access(out_dir, os.W_OK)):
        parser.error(f"--out: cannot write {args.out!r}")
    pos = ops.index(args.edge)
    spaces = complex_spaces(args.complex, args.k, mesh)
    mat = operator_matrix(args.edge, spaces[pos], spaces[pos + 1])
    shape = ",".join(str(n) for n in mesh.shape)
    comment = (f"{args.edge}: {fams[pos]} -> {fams[pos + 1]}, "
               f"k={args.k}, mesh={shape}")
    write_matrix_market(args.out, mat, float_mode=args.float, comment=comment)
    _say(f"wrote {mat.nrows}x{mat.ncols} matrix ({mat.nnz} entries) to {args.out}")
    _emit({"complex": args.complex, "k": args.k, "mesh": shape,
           "edge": args.edge, "rows": mat.nrows, "cols": mat.ncols,
           "nnz": mat.nnz, "path": args.out,
           "field": "real" if args.float else "rational"})
    return 0


def _cmd_identities(parser, args) -> int:
    if args.count < 1:
        parser.error(f"--count must be at least 1, got {args.count}")
    try:
        res = identity_suite(count=args.count, seed=args.seed)
    except AssertionError as exc:
        _say(str(exc))
        return 1
    _say(f"{res['passed']}/{res['checks']} identity checks passed")
    _emit(res)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuboid-complex",
        description="Construct and verify conforming finite element "
                    "complexes on axis-aligned cuboid meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unisolvence",
                       help="exact unisolvency check for element families")
    p.add_argument("--family", default="all", choices=FAMILY_NAMES + ("all",))
    p.add_argument("--k", type=int, default=None,
                   help="polynomial order (default: each family's minimum "
                        "and minimum+1)")
    p.set_defaults(func=_cmd_unisolvence)

    p = sub.add_parser("complex", help="assemble a ladder and verify exactness")
    p.add_argument("--complex", required=True, choices=COMPLEX_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--arithmetic", default="rational",
                   choices=ARITHMETICS)
    _add_mesh_arguments(p)
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("dims", help="closed-form vs assembled dimension")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--k", type=int, required=True)
    _add_mesh_arguments(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("export", help="write one operator matrix "
                                      "(Matrix Market, exact rational)")
    p.add_argument("--complex", required=True, choices=COMPLEX_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--edge", required=True,
                   choices=("gradgrad", "curl", "div", "symgrad", "curlcurlt"))
    p.add_argument("--out", required=True)
    p.add_argument("--float", action="store_true",
                   help="write floating point entries instead of rationals")
    _add_mesh_arguments(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("identities",
                       help="random checks of the curl commutation identities")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=20260818)
    p.set_defaults(func=_cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
