"""Command line interface.

Exit codes: 0 all checks pass or skip (paper-mismatch tolerated unless
--strict), 1 unexpected failure (or mismatch under --strict), 2 input or
validation error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .catalog import BUILTIN_NAMES, builtin
from .errors import InputError, SscurvError
from .geometry import GeometrySpec, validate
from .geomio import dumps_geometry, load_geometry, load_jet
from .probes import SUITES
from .rat import parse_rat
from .report import build_report, emit_report, exit_code, verdict_to_dict
from .solitons import SolitonKind, SolitonProblem, proof_step_probes, residual
from .suite import DEFAULT_POOL, FuzzConfig, fuzz, run_suite

_SIGNED_VALUE = re.compile(r"-\d")


def _attach_signed_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Rewrite "--lambda -1/2" as "--lambda=-1/2" for the subcommand's rational options.

    argparse takes a dash-led value such as "-1/2" or "-1,0,1" for an option
    name unless it is attached with "=". The options rewritten are those of
    the subcommand named in argv whose type is `_rational` or `_rational_list`,
    so the parser stays the one place that says which options take rationals.
    """
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    start = next((pos + 1 for pos, token in enumerate(argv)
                  if token in subparsers.choices), len(argv))
    if start == len(argv):
        return argv
    options = {opt for action in subparsers.choices[argv[start - 1]]._actions
               if action.type in (_rational, _rational_list)
               for opt in action.option_strings}
    out = argv[:start]
    i = start
    while i < len(argv):
        if argv[i] == "--":
            out.extend(argv[i:])
            break
        if (argv[i] in options and i + 1 < len(argv)
                and _SIGNED_VALUE.match(argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _rational(text: str):
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list(text: str) -> tuple:
    return tuple(_rational(x.strip()) for x in text.split(","))


def _add_geometry_args(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_NAMES,
                       help="use a built-in geometry")
    group.add_argument("--geometry", metavar="PATH",
                       help="load a geometry JSON file")


def _add_output_args(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")


def _resolve_geometry(args) -> tuple[GeometrySpec, list[str]]:
    if args.builtin:
        return builtin(args.builtin), []
    loaded = load_geometry(args.geometry)
    return loaded.spec, list(loaded.notes)


def _validate_or_die(spec: GeometrySpec, notes, args) -> None:
    report = validate(spec)
    if not report.ok:
        doc = build_report(spec, notes=notes, include_tables=False)
        sys.stdout.write(emit_report(doc, args.format, args.out))
        failed = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.passed)
        raise InputError(f"geometry fails validation ({failed})")


def _cmd_validate(args) -> int:
    spec, notes = _resolve_geometry(args)
    report = validate(spec)
    doc = build_report(spec, notes=notes, include_tables=False)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return 0 if report.ok else 2


def _cmd_compute(args) -> int:
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    doc = build_report(spec, notes=notes)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return 0


def _cmd_probe(args) -> int:
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    ids = tuple(x.strip() for x in args.ids.split(",")) if args.ids else None
    doc = run_suite(spec, suite=args.suite, ids=ids, include_tables=args.tables)
    if notes:
        doc["notes"] = notes
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_soliton(args) -> int:
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    jet = spec.jet
    if args.jet:
        jet = load_jet(args.jet, spec.dim)
    if jet is None:
        from .geometry import ScalarJet
        jet = ScalarJet.zero(spec.dim)
    kind = SolitonKind(args.type)
    m = args.m if kind is SolitonKind.M_QUASI else None
    problem = SolitonProblem(kind, args.lam, jet, m)
    verdict = residual(spec, problem)
    steps = proof_step_probes(spec, problem)
    doc = build_report(spec, notes=notes, include_tables=args.tables,
                       solitons=[verdict_to_dict(problem, verdict, steps)])
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_fuzz(args) -> int:
    config = FuzzConfig(count=args.count, seed=args.seed, pool=args.pool or DEFAULT_POOL,
                        require_parallel_xi=args.require_parallel_xi)
    doc = fuzz(config)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_builtin(args) -> int:
    text = dumps_geometry(builtin(args.name))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscurv",
        description="Exact curvature, identity probes, and gradient-soliton "
                    "residuals for 3D homogeneous frame geometries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks only")
    _add_geometry_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("compute", help="connection, curvature, and scalar tables")
    _add_geometry_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("probe", help="run identity probes")
    _add_geometry_args(p)
    _add_output_args(p)
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.add_argument("--ids", help="comma-separated probe ids (overrides --suite)")
    p.add_argument("--strict", action="store_true",
                   help="treat paper-mismatch as failure for the exit code")
    p.add_argument("--tables", action="store_true", help="include computed tables")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("soliton", help="check a gradient-soliton equation")
    _add_geometry_args(p)
    _add_output_args(p)
    p.add_argument("--type", choices=[k.value for k in SolitonKind], required=True)
    p.add_argument("--lambda", dest="lam", metavar="P/Q", required=True, type=_rational,
                   help="the soliton constant, as an exact rational")
    p.add_argument("--m", type=int, help="nonzero integer for the m-quasi kind")
    p.add_argument("--jet", metavar="PATH",
                   help="scalar jet JSON file (defaults to the geometry's jet, else zero)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--tables", action="store_true")
    p.set_defaults(fn=_cmd_soliton)

    p = sub.add_parser("fuzz", help="randomized geometry stream through all probes")
    _add_output_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--pool", type=_rational_list,
                   help="comma-separated rational coefficients")
    p.add_argument("--require-parallel-xi", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("builtin", help="emit a built-in geometry as JSON")
    p.add_argument("name", choices=BUILTIN_NAMES)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_builtin)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_attach_signed_values(
        parser, sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SscurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
