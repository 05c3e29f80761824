"""Command line interface.

Exit codes: 0 success (for ``check``: dominant), 1 input/usage errors,
2 dominance failures, 3 singular or overflowing inversion, 4 golden
mismatch in ``reproduce``.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bounds import DominanceViolation
from .dominance import check_row_block_dominance
from .experiments import (EXPERIMENT_IDS, SEEDED_IDS, ExperimentSpec,
                          run_bounds_chain, run_experiment, run_region_chain)
from .inverse import RecurrenceOverflowError
from .kernels import NormKind, SingularError
from .matrixio import MatrixFileError, dump_json_text, read_matrix_file
from .structures import BlockTridiagonalMatrix


def _parse_t(value: str):
    """The refinement steps: None for "all", else a one-step tuple."""
    if value == "all":
        return None
    try:
        t = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"t must be 'all' or an integer, not {value!r}") from None
    if t < 1:
        raise argparse.ArgumentTypeError("t must be positive")
    return (t,)


def _parse_box(value: str):
    if value == "auto":
        return None
    parts = value.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("box must be 'auto' or RE_MIN,RE_MAX,IM_MIN,IM_MAX")
    try:
        re_min, re_max, im_min, im_max = values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"box {value} has a bound that is not a number") from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"box {value} has a non-finite bound")
    if not (re_min < re_max and im_min < im_max):
        raise argparse.ArgumentTypeError(
            "box must satisfy RE_MIN < RE_MAX and IM_MIN < IM_MAX")
    return re_min, re_max, im_min, im_max


def _require_tridiag(mat):
    if not isinstance(mat, BlockTridiagonalMatrix):
        raise MatrixFileError(
            "this command needs a block_tridiagonal matrix file", "$.kind")
    return mat


def cmd_check(args) -> int:
    report = check_row_block_dominance(read_matrix_file(args.input), args.norm)
    print(dump_json_text(report.to_json_dict()))
    return 0 if report.dominant else 2


def cmd_invert(args) -> int:
    a = _require_tridiag(read_matrix_file(args.input))
    chain = run_bounds_chain(a, args.norm, Path(args.output), ("inverse", "residual"))
    print(f"residual ({args.norm.value}-norm): {chain.residual['residual']:.6e}")
    print(f"wrote {chain.artifacts['inverse']} and {chain.artifacts['residual']}")
    return 0


def cmd_bounds(args) -> int:
    a = _require_tridiag(read_matrix_file(args.input))
    chain = run_bounds_chain(a, args.norm, Path(args.output), ("bounds",), args.t)
    if not chain.dominance.dominant:
        print("matrix is not row block diagonally dominant; bounds do not apply",
              file=sys.stderr)
        return 2
    for t, rep in chain.reports.items():
        eu = "n/a" if rep.max_eu is None else f"{rep.max_eu:.6g}"
        el = "n/a" if rep.max_el is None else f"{rep.max_el:.6g}"
        print(f"t={t} max_Eu={eu} max_El={el} rho1={rep.rho1:.6g} rho2={rep.rho2:.6g}")
    print(f"wrote per-step CSVs and {chain.artifacts['bounds_summary']}")
    return 0


def cmd_gershgorin(args) -> int:
    chain = run_region_chain(read_matrix_file(args.input), args.norm, Path(args.output),
                             args.box, args.nx, args.ny, None)
    summary = chain.summary
    print(f"union nodes: new={summary.union_count_new} fv={summary.union_count_fv} "
          f"violations={summary.containment_violations}")
    print(f"wrote {chain.artifacts['grid']} and {chain.artifacts['region_summary']}")
    return 0


def cmd_reproduce(args) -> int:
    if args.experiment in SEEDED_IDS and args.seed is None:
        print(f"{args.experiment} needs --seed for its row scaling", file=sys.stderr)
        return 1
    output = Path(args.output) if args.output else Path("out") / args.experiment
    spec = ExperimentSpec(
        exp_id=args.experiment, seed=args.seed, norm=args.norm,
        output_dir=output, t_values=args.t,
        nx=args.nx, ny=args.ny, box=args.box)
    result = run_experiment(spec)
    for msg in result.messages:
        print(msg)
    print(f"{args.experiment}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdom",
        description="Block diagonal dominance checks, block tridiagonal "
                    "inversion, inverse decay bounds, and block Gershgorin "
                    "inclusion regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_norm(p):
        p.add_argument("--norm", type=NormKind, choices=list(NormKind),
                       default=NormKind.TWO, metavar="{one,inf,fro,two}",
                       help="matrix norm (default: two)")

    p = sub.add_parser("check", help="row block diagonal dominance report")
    p.add_argument("--input", required=True, help="matrix JSON file")
    add_norm(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invert", help="invert a block tridiagonal matrix")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--output", default="out", help="artifact directory")
    add_norm(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bounds", help="decay bounds on the inverse block norms")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--output", default="out", help="artifact directory")
    p.add_argument("--t", type=_parse_t, default="all",
                   help="refinement step (default: all)")
    add_norm(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gershgorin", help="inclusion region grids")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--output", default="out", help="artifact directory")
    p.add_argument("--box", type=_parse_box, default=None,
                   help="auto (default) or RE_MIN,RE_MAX,IM_MIN,IM_MAX")
    p.add_argument("--nx", type=int, default=200, help="grid nodes along re")
    p.add_argument("--ny", type=int, default=200, help="grid nodes along im")
    add_norm(p)
    p.set_defaults(func=cmd_gershgorin)

    p = sub.add_parser("reproduce", help="run a named experiment against "
                                         "its expected results")
    p.add_argument("experiment", choices=EXPERIMENT_IDS)
    p.add_argument("--seed", type=int, default=None,
                   help="row-scaling seed (required for seeded experiments)")
    p.add_argument("--output", default=None, help="artifact directory")
    p.add_argument("--t", type=_parse_t, default="all")
    p.add_argument("--nx", type=int, default=400)
    p.add_argument("--ny", type=int, default=400)
    p.add_argument("--box", type=_parse_box, default=None)
    add_norm(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularError, RecurrenceOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DominanceViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
