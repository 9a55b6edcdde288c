"""Deterministic report assembly and rendering.

Reports are plain dicts built in a fixed key order with every rational
rendered as a canonical string by geomio.serialize_value, and emit_report
writes their JSON through geomio.dumps_json, the writer that geometry files
use too, so identical inputs produce byte-identical JSON (the bytes of
json.dumps(report, indent=2)). No timestamps, no environment data, no set
iteration anywhere.
compute_tables and build_report take a GeometrySpec and read its shared
context.ProbeContext, so they recompute nothing a probe already built.
build_report serialises each distinct tensor once: one memo, which lives for
that call only, gives equal tensors in its tables and probe sides one shared
nested list, so deep-copy a report before mutating it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from ._version import __version__
from .context import ProbeContext, ProbeResult, ProbeStatus
from .geometry import GeometrySpec, ValidationReport
from .geomio import dumps_json, geometry_to_dict, serialize_value
from .rat import format_rat
from .solitons import SolitonProblem, SolitonVerdict


# The encoder json.dumps(sort_keys=True, separators=(",", ":")) builds on each
# call, built once: it holds no state between calls.
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def config_digest(config: dict) -> str:
    blob = _DIGEST_ENCODER.encode(config).encode()
    return hashlib.sha256(blob).hexdigest()


def geometry_digest(spec: GeometrySpec) -> str:
    return config_digest(geometry_to_dict(spec))


def validation_to_dict(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "unit_xi": report.unit_xi,
        "degenerate_xi": report.degenerate_xi,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


def probe_to_dict(result: ProbeResult, memo: dict | None = None) -> dict:
    """A probe verdict, serialised; a report's memo shares equal tensors' lists."""
    return {
        "id": result.probe_id,
        "status": result.status.value,
        "lhs": serialize_value(result.lhs, memo),
        "rhs": serialize_value(result.rhs, memo),
        "max_abs_deviation": format_rat(result.max_abs_deviation),
        "note": result.note,
    }


def verdict_to_dict(problem: SolitonProblem, verdict: SolitonVerdict,
                    proof_steps: Iterable[ProbeResult] = ()) -> dict:
    out = {
        "kind": problem.kind.value,
        "lambda": format_rat(problem.lam),
        "residual": serialize_value(verdict.residual),
        "is_soliton": verdict.is_soliton,
        "classification": verdict.classification,
        "conclusion_checks": [
            {"name": c.name, "holds": c.holds, "note": c.note}
            for c in verdict.conclusion_checks
        ],
        "proof_steps": [probe_to_dict(r) for r in proof_steps],
    }
    if problem.m is not None:
        out["m"] = problem.m
    return out


def compute_tables(spec: GeometrySpec, memo: dict | None = None) -> dict:
    """The full computed apparatus of a spec, serialized; a report's memo
    shares equal tensors' lists."""
    ctx = ProbeContext.of(spec)
    blc, bhat = ctx.lc_bundle, ctx.hat_bundle
    return {
        "structure_constants": serialize_value(spec.frame.c, memo),
        "metric": serialize_value(spec.metric.g, memo),
        "xi": serialize_value(spec.distinguished.xi, memo),
        "psi": serialize_value(spec.distinguished.psi, memo),
        "xi_unit": ctx.validation.unit_xi,
        "xi_parallel": ctx.parallel,
        "levi_civita": serialize_value(ctx.lc.gamma, memo),
        "ssnmc": serialize_value(ctx.hat.gamma, memo),
        "torsion_ssnmc": serialize_value(ctx.torsion_hat, memo),
        "non_metricity_ssnmc": serialize_value(ctx.non_metricity_hat, memo),
        "alpha_star": serialize_value(ctx.alpha, memo),
        "riemann_lc": serialize_value(blc.riemann, memo),
        "ricci_lc": serialize_value(blc.ricci, memo),
        "scalar_lc": format_rat(blc.scalar),
        "ricci_operator_lc": serialize_value(blc.ricci_op, memo),
        "riemann_ssnmc": serialize_value(bhat.riemann, memo),
        "ricci_ssnmc": serialize_value(bhat.ricci, memo),
        "scalar_ssnmc": format_rat(bhat.scalar),
        "ricci_operator_ssnmc": serialize_value(bhat.ricci_op, memo),
        "constant_sectional_lc": serialize_value(ctx.kappa_lc, memo),
        "constant_sectional_ssnmc": serialize_value(ctx.kappa_hat, memo),
    }


def build_report(spec: GeometrySpec, *, suite: str | None = None,
                 probes: Iterable[ProbeResult] = (),
                 solitons: Iterable[dict] = (),
                 notes: Iterable[str] = (),
                 include_tables: bool = True) -> dict:
    """The report of a spec, with its validation and, unless include_tables
    is false, its computed tables."""
    report = {
        "geometry": spec.name,
        "engine": {"name": "sscurv", "version": __version__},
        "input_digest": geometry_digest(spec),
        "notes": list(notes),
        "validation": validation_to_dict(ProbeContext.of(spec).validation),
    }
    if suite is not None:
        report["suite"] = suite
    memo: dict = {}  # tensor -> its nested list, for this report only
    if include_tables:
        report["tables"] = compute_tables(spec, memo)
    report["probes"] = [probe_to_dict(r, memo) for r in probes]
    report["solitons"] = list(solitons)
    return report


def emit_report(report: dict, format: str = "text", path=None) -> str:
    """Render a report and optionally write it to a file."""
    if format == "json":
        text = dumps_json(report) + "\n"
    elif format == "text":
        text = render_text(report)
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _fmt_matrix(rows, indent="  "):
    lines = []
    for row in rows:
        lines.append(indent + "[ " + "  ".join(x.rjust(6) for x in row) + " ]")
    return lines


def _fmt_connection_table(nested, label):
    # nested[k][i][j] = Gamma^k_ij; print one line "nabla_ei ej = sum" per (i, j).
    dim = len(nested)
    lines = [f"{label} (rows nabla_(e_i) e_j):"]
    for i in range(dim):
        for j in range(dim):
            terms = []
            for k in range(dim):
                v = nested[k][i][j]
                if v != "0":
                    terms.append(f"{v}*e{k + 1}" if v not in ("1", "-1")
                                 else ("e" if v == "1" else "-e") + str(k + 1))
            rhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
            lines.append(f"  nabla_e{i + 1} e{j + 1} = {rhs}")
    return lines


def render_text(report: dict) -> str:
    lines = []
    if "fuzz" in report:
        return _render_fuzz_text(report)
    lines.append(f"geometry: {report['geometry']}")
    lines.append(f"engine: {report['engine']['name']} {report['engine']['version']}")
    lines.append(f"input digest: {report['input_digest']}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    val = report["validation"]
    lines.append(f"validation: {'ok' if val['ok'] else 'FAILED'}"
                 f" (unit xi: {val['unit_xi']}, degenerate xi: {val['degenerate_xi']})")
    for c in val["checks"]:
        mark = "pass" if c["passed"] else "FAIL"
        detail = f"  {c['detail']}" if c["detail"] else ""
        lines.append(f"  [{mark}] {c['name']}{detail}")
    tables = report.get("tables")
    if tables:
        lines.append("")
        lines.extend(_fmt_connection_table(tables["levi_civita"], "levi-civita connection"))
        lines.extend(_fmt_connection_table(tables["ssnmc"], "ssnmc connection"))
        lines.append(f"xi parallel: {tables['xi_parallel']}; xi unit: {tables['xi_unit']}")
        lines.append("ricci (levi-civita):")
        lines.extend(_fmt_matrix(tables["ricci_lc"]))
        lines.append(f"scalar curvature (levi-civita): {tables['scalar_lc']}")
        lines.append("ricci (ssnmc):")
        lines.extend(_fmt_matrix(tables["ricci_ssnmc"]))
        lines.append(f"scalar curvature (ssnmc): {tables['scalar_ssnmc']}")
        lines.append(f"constant sectional (levi-civita): {tables['constant_sectional_lc']}")
        lines.append(f"constant sectional (ssnmc): {tables['constant_sectional_ssnmc']}")
    probes = report.get("probes", [])
    if probes:
        lines.append("")
        lines.append("probes:")
        for p in probes:
            extra = ""
            if p["status"] not in ("pass", "skipped") or p["note"]:
                bits = []
                if p["status"] not in ("pass", "skipped"):
                    bits.append(f"max |lhs-rhs| = {p['max_abs_deviation']}")
                if p["note"]:
                    bits.append(p["note"])
                extra = "  (" + "; ".join(bits) + ")"
            lines.append(f"  {p['id']:<8} {p['status']}{extra}")
    for sol in report.get("solitons", []):
        lines.append("")
        head = f"soliton check: kind={sol['kind']} lambda={sol['lambda']}"
        if "m" in sol:
            head += f" m={sol['m']}"
        lines.append(head)
        lines.append(f"  is_soliton: {sol['is_soliton']}"
                     f"  classification: {sol['classification']}")
        lines.append("  residual:")
        lines.extend(_fmt_matrix(sol["residual"], indent="    "))
        for c in sol["conclusion_checks"]:
            mark = "holds" if c["holds"] else "no"
            note = f"  {c['note']}" if c["note"] else ""
            lines.append(f"  conclusion [{mark}] {c['name']}{note}")
        for p in sol["proof_steps"]:
            note = f"  ({p['note']})" if p["note"] else ""
            lines.append(f"  proof step {p['id']:<4} {p['status']}{note}")
    return "\n".join(lines) + "\n"


def _render_fuzz_text(report: dict) -> str:
    cfg = report["fuzz"]
    lines = [
        "fuzz report",
        f"engine: {report['engine']['name']} {report['engine']['version']}",
        f"seed: {cfg['seed']}  count: {cfg['count']}  "
        f"require_parallel_xi: {cfg['require_parallel_xi']}",
        f"pool: {', '.join(cfg['pool'])}",
        f"generated: {report['generated']}  accepted: {report['accepted']}  "
        f"parallel: {report['parallel_accepted']}",
    ]
    lines.append("probe status counts:")
    for pid, counts in report["probe_counts"].items():
        shown = "  ".join(f"{k}={v}" for k, v in counts.items() if v)
        lines.append(f"  {pid:<8} {shown}")
    if report["unexpected"]:
        lines.append(f"UNEXPECTED failures: {len(report['unexpected'])}")
        for cert in report["unexpected"]:
            where = ""
            if cert["component"]:  # a scalar side has no component to name
                index = ", ".join(map(str, cert["component"]))
                where = f" at {cert.get('part', '')}({index})"
            lines.append(f"  candidate {cert['candidate_index']} probe {cert['probe_id']} "
                         f"status {cert['status']}{where}")
            lines.append(f"  geometry: {json.dumps(cert['geometry'], sort_keys=True)}")
    else:
        lines.append("no unexpected failures")
    lines.append(f"ok: {report['ok']}")
    return "\n".join(lines) + "\n"


def exit_code(report: dict, strict: bool = False) -> int:
    """0 all pass/skip (mismatch tolerated unless strict), 1 otherwise.

    A fuzz report lists no probes; its probe_counts say how often each
    status came up, and strict counts its paper-mismatch entries.
    """
    if "fuzz" in report and not report.get("ok", True):
        return 1
    statuses = [p["status"] for p in report.get("probes", [])]
    for sol in report.get("solitons", []):
        statuses.extend(p["status"] for p in sol.get("proof_steps", []))
    if ProbeStatus.FAIL.value in statuses:
        return 1
    if strict:
        mismatch = ProbeStatus.PAPER_MISMATCH.value
        if mismatch in statuses or any(
                counts[mismatch] for counts in report.get("probe_counts", {}).values()):
            return 1
    return 0
