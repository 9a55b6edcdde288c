"""Command line interface.

Exit codes: 0 all checks pass or skip (paper-mismatch tolerated unless
--strict), 1 unexpected failure (or mismatch under --strict), 2 input or
validation error.

The module level imports what the parser needs and the modules that load
with it; each command imports the rest (reports, geometry files, the probe
suites) when it runs, so one process loads no more than its command uses.
"""

from __future__ import annotations

import argparse
import re
import sys

from .catalog import BUILTIN_NAMES, builtin
from .context import SUITE_NAMES, ProbeContext
from .errors import InputError, SscurvError
from .geometry import GeometrySpec, ScalarJet
from .rat import parse_rat
from .solitons import SolitonKind, SolitonProblem, proof_step_probes, residual


class _SubcommandParser(argparse.ArgumentParser):
    """Takes a dash-led value such as "-1/2" or "-1,0,1" as a value, not an option.

    argparse's own matcher accepts only plain negative numbers; no option
    name starts with a dash and a digit, so the wider one is unambiguous.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


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
    """The command's geometry, and its loader notes."""
    if args.builtin:
        return builtin(args.builtin), []
    from .geomio import load_geometry
    loaded = load_geometry(args.geometry)
    return loaded.spec, list(loaded.notes)


def _validate_or_die(spec: GeometrySpec, notes, args) -> None:
    from .report import build_report, emit_report
    validation = ProbeContext.of(spec).validation
    if not validation.ok:
        doc = build_report(spec, notes=notes, include_tables=False)
        sys.stdout.write(emit_report(doc, args.format, args.out))
        raise InputError(f"geometry fails validation ({validation.failures})")


def _cmd_validate(args) -> int:
    from .report import build_report, emit_report
    spec, notes = _resolve_geometry(args)
    doc = build_report(spec, notes=notes, include_tables=False)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return 0 if doc["validation"]["ok"] else 2


def _cmd_compute(args) -> int:
    from .report import build_report, emit_report
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    doc = build_report(spec, notes=notes)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return 0


def _cmd_probe(args) -> int:
    from .report import emit_report, exit_code
    from .suite import run_suite
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    ids = tuple(x.strip() for x in args.ids.split(",")) if args.ids else None
    doc = run_suite(spec, args.suite, ids=ids, include_tables=args.tables)
    if notes:
        doc["notes"] = notes
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_soliton(args) -> int:
    from .geomio import load_jet
    from .report import build_report, emit_report, exit_code, verdict_to_dict
    spec, notes = _resolve_geometry(args)
    _validate_or_die(spec, notes, args)
    jet = spec.jet
    if args.jet:
        jet = load_jet(args.jet, spec.dim)
    if jet is None:
        jet = ScalarJet.zero(spec.dim)
    problem = SolitonProblem(SolitonKind(args.type), args.lam, jet, args.m)
    verdict = residual(spec, problem)
    steps = proof_step_probes(spec, problem)
    doc = build_report(spec, notes=notes, include_tables=args.tables,
                       solitons=[verdict_to_dict(problem, verdict, steps)])
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_fuzz(args) -> int:
    from .report import emit_report, exit_code
    from .suite import DEFAULT_POOL, FuzzConfig, fuzz
    config = FuzzConfig(count=args.count, seed=args.seed, pool=args.pool or DEFAULT_POOL,
                        require_parallel_xi=args.require_parallel_xi)
    doc = fuzz(config)
    sys.stdout.write(emit_report(doc, args.format, args.out))
    return exit_code(doc, strict=args.strict)


def _cmd_builtin(args) -> int:
    from .geomio import dumps_geometry
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
                    "residuals for homogeneous frame geometries of dimension 1-4.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

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
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
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
    args = make_parser().parse_args(argv)
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
