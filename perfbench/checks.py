"""Correctness checks of program outputs against the oracle and known properties.

Each check returns a list of problems; an empty list means the output is
correct. Nothing is compared against a stored copy of earlier output: the
expected values come from oracle.py, Milnor's closed form, and identities
the method must satisfy.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle as O

GENERAL_IDS = ("A1", "B2", "B3", "B15", "BIANCHI", "CFLAT")
GATED_IDS = ("B5", "B6", "B7", "B8", "B9", "B10", "B11", "B12", "B13", "B14",
             "B17", "B18", "B20", "B22", "B23")
MISMATCH_IDS = ("B10", "B17")
PROOF_IDS = {"ricci": ("C4",), "yamabe": ("Y44",), "einstein": ("E54",),
             "mquasi": ("M61", "M68")}


def _cmp(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_tables(tables: dict, app: O.Apparatus) -> list[str]:
    """Computed tables against the oracle's independent derivation."""
    p: list[str] = []
    s = O.nested_str
    _cmp(p, "structure_constants", tables["structure_constants"], s(app.c))
    _cmp(p, "metric", tables["metric"], s(app.g))
    _cmp(p, "xi", tables["xi"], s(app.xi))
    _cmp(p, "psi", tables["psi"], s(app.psi))
    _cmp(p, "xi_unit", tables["xi_unit"], app.unit)
    _cmp(p, "xi_parallel", tables["xi_parallel"], app.parallel)
    _cmp(p, "levi_civita", tables["levi_civita"], s(app.gamma))
    _cmp(p, "ssnmc", tables["ssnmc"], s(app.gamma_hat))
    _cmp(p, "riemann_lc", tables["riemann_lc"], s(app.riemann))
    _cmp(p, "ricci_lc", tables["ricci_lc"], s(app.ricci))
    _cmp(p, "scalar_lc", tables["scalar_lc"], O.fmt(app.scalar))
    _cmp(p, "ricci_operator_lc", tables["ricci_operator_lc"], s(app.ricci_op))
    _cmp(p, "riemann_ssnmc", tables["riemann_ssnmc"], s(app.riemann_hat))
    _cmp(p, "ricci_ssnmc", tables["ricci_ssnmc"], s(app.ricci_hat))
    _cmp(p, "scalar_ssnmc", tables["scalar_ssnmc"], O.fmt(app.scalar_hat))
    _cmp(p, "ricci_operator_ssnmc", tables["ricci_operator_ssnmc"], s(app.ricci_op_hat))
    for key, r in (("constant_sectional_lc", app.riemann),
                   ("constant_sectional_ssnmc", app.riemann_hat)):
        kappa = O.constant_sectional(r, app.g)
        _cmp(p, key, tables[key], None if kappa is None else O.fmt(kappa))
    return p


def check_frame_change(tables: dict, geom) -> list[str]:
    """r is invariant under the push-forward B; Ricci transforms as B^T S B.

    The normal-form Ricci tensor comes from Milnor's closed form on the
    unimodular share and from the oracle elsewhere.
    """
    p: list[str] = []
    if geom.lams is not None:
        diag = O.milnor_ricci_diagonal(geom.lams)
        base_ricci = [[diag[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    else:
        base_ricci = O.ricci(O.riemann(O.koszul(geom.base_c, O.identity(3)), geom.base_c))
    base_scalar = sum((base_ricci[i][i] for i in range(3)), Fraction(0))
    _cmp(p, "scalar_lc (frame-change invariant)", tables["scalar_lc"], O.fmt(base_scalar))
    _cmp(p, "ricci_lc (B^T S B)", tables["ricci_lc"],
         O.nested_str(O.congruent(base_ricci, geom.b)))
    return p


def check_probe_statuses(statuses: dict, gated: bool) -> list[str]:
    """General probes pass; gated ones pass except exactly B10/B17, or skip."""
    p: list[str] = []
    for pid in GENERAL_IDS:
        _cmp(p, f"probe {pid}", statuses.get(pid), "pass")
    for pid in GATED_IDS:
        if not gated:
            want = "skipped"
        elif pid in MISMATCH_IDS:
            want = "paper-mismatch"
        else:
            want = "pass"
        _cmp(p, f"probe {pid}", statuses.get(pid), want)
    return p


def check_probes(probes: list, app: O.Apparatus) -> list[str]:
    """Statuses, deviations, and r-hat - r = 2 on the discrepancy probe."""
    p = check_probe_statuses({x["id"]: x["status"] for x in probes}, app.gated)
    for x in probes:
        if x["status"] in ("pass", "fail", "paper-mismatch"):
            zero = x["max_abs_deviation"] == "0"
            if zero != (x["status"] == "pass"):
                p.append(f"probe {x['id']}: status {x['status']} with deviation "
                         f"{x['max_abs_deviation']}")
    if app.gated:
        b10 = next(x for x in probes if x["id"] == "B10")
        _cmp(p, "B10 lhs (r-hat)", b10["lhs"], O.fmt(app.scalar_hat))
        _cmp(p, "B10 rhs (r - 2)", b10["rhs"], O.fmt(app.scalar - 2))
        rhat_minus_r = Fraction(b10["lhs"]) - (Fraction(b10["rhs"]) + 2)
        _cmp(p, "r-hat - r", rhat_minus_r, Fraction(2))
    return p


def _classification(lam) -> str:
    return "shrinking" if lam < 0 else "steady" if lam == 0 else "expanding"


def _check_verdict(p, app, problem, residual, is_soliton, conclusions):
    """Residual, soliton flag and conclusion flags, from JSON or text output."""
    kind, lam, m = problem["kind"], problem["lam"], problem["m"]
    res = O.soliton_residual(app, kind, lam, problem["d"], problem["dd"], m)
    want = all(x == 0 for row in res for x in row)
    _cmp(p, "residual", residual, O.nested_str(res))
    _cmp(p, "is_soliton", is_soliton, want)
    if problem.get("genuine"):
        _cmp(p, "genuine soliton", want, True)
    flags = O.conclusion(app, kind, lam, problem["d"], problem["dd"], m) if want else {}
    _cmp(p, "conclusion checks", conclusions, flags)
    return want


def check_soliton(sol: dict, app: O.Apparatus, problem: dict) -> list[str]:
    """One serialized soliton verdict against the oracle residual."""
    p: list[str] = []
    kind, lam = problem["kind"], problem["lam"]
    _cmp(p, "kind", sol["kind"], kind)
    _cmp(p, "lambda", sol["lambda"], O.fmt(lam))
    _cmp(p, "classification", sol["classification"], _classification(lam))
    is_soliton = _check_verdict(p, app, problem, sol["residual"], sol["is_soliton"],
                                {c["name"]: c["holds"] for c in sol["conclusion_checks"]})
    steps = {s["id"]: s for s in sol["proof_steps"]}
    _cmp(p, "proof step ids", sorted(steps), sorted(PROOF_IDS[kind]))
    for pid, step in steps.items():
        if not is_soliton:
            _cmp(p, f"proof step {pid}", step["status"], "skipped")
            continue
        if pid in ("C4", "Y44", "E54"):
            lhs = O.ricci_of_gradient(app, problem["d"])
            _cmp(p, f"{pid} lhs", step["lhs"], O.nested_str(lhs))
            want = "pass" if all(x == 0 for x in lhs) else "fail"
            _cmp(p, f"{pid} status", step["status"], want)
        else:
            want = "pass" if step["max_abs_deviation"] == "0" else "fail"
            _cmp(p, f"{pid} status", step["status"], want)
    return p


def check_report(doc: dict, text: str, geom) -> list[str]:
    """A full `run_suite(..., "all")` report with tables, and its JSON text."""
    app = geom.app
    p: list[str] = []
    if json.loads(text) != doc:
        p.append("emitted JSON does not parse back to the report")
    _cmp(p, "geometry", doc["geometry"], geom.name)
    _cmp(p, "validation ok", doc["validation"]["ok"], True)
    _cmp(p, "unit_xi", doc["validation"]["unit_xi"], app.unit)
    p += check_tables(doc["tables"], app)
    p += check_frame_change(doc["tables"], geom)
    p += check_probes(doc["probes"], app)
    return p


def check_fuzz(doc: dict, text: str, expected: tuple[int, int], parallel_only: bool,
               count: int) -> list[str]:
    """A fuzz report: oracle-replayed acceptance counts and probe-count identities."""
    p: list[str] = []
    if json.loads(text) != doc:
        p.append("emitted JSON does not parse back to the fuzz report")
    accepted, n_par = expected
    _cmp(p, "generated", doc["generated"], count)
    _cmp(p, "accepted", doc["accepted"], accepted)
    _cmp(p, "parallel_accepted", doc["parallel_accepted"], n_par)
    _cmp(p, "ok", doc["ok"], True)
    _cmp(p, "unexpected", doc["unexpected"], [])
    counts = doc["probe_counts"]
    for pid in GENERAL_IDS:
        _cmp(p, f"{pid} pass count", counts[pid]["pass"], accepted)
    for pid in GATED_IDS:
        want = {"pass": 0 if pid in MISMATCH_IDS else n_par,
                "fail": 0, "skipped": accepted - n_par,
                "paper-mismatch": n_par if pid in MISMATCH_IDS else 0}
        _cmp(p, f"{pid} counts", counts[pid], want)
    if parallel_only:
        _cmp(p, "parallel stream accepts only parallel", n_par, accepted)
    return p


# -- CLI text parsing --------------------------------------------------------

_PROBE_LINE = re.compile(r"^  (\S+)\s+(pass|fail|skipped|paper-mismatch)\b")


def _matrix_rows(lines, start, count=3):
    rows = []
    for line in lines[start:start + count]:
        inner = line.strip()
        if not (inner.startswith("[") and inner.endswith("]")):
            raise ValueError(f"not a matrix row: {line!r}")
        rows.append(inner[1:-1].split())
    return rows


def _line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def parse_text_report(text: str) -> dict:
    """The parts of a text report the checks use."""
    lines = text.splitlines()
    out = {"validation_ok": (_line_value(lines, "validation:") or "").startswith("ok")}
    for key, label in (("scalar_lc", "scalar curvature (levi-civita):"),
                       ("scalar_ssnmc", "scalar curvature (ssnmc):")):
        out[key] = _line_value(lines, label)
    for key, label in (("ricci_lc", "ricci (levi-civita):"), ("ricci_ssnmc", "ricci (ssnmc):")):
        if label in lines:
            out[key] = _matrix_rows(lines, lines.index(label) + 1)
    flags = _line_value(lines, "xi parallel:")
    if flags is not None:
        out["xi_parallel"] = flags.split(";")[0].strip() == "True"
    if "probes:" in lines:
        out["probes"] = {}
        for line in lines[lines.index("probes:") + 1:]:
            match = _PROBE_LINE.match(line)
            if not match:
                break
            out["probes"][match.group(1)] = match.group(2)
    if "  residual:" in lines:
        at = lines.index("  residual:")
        out["residual"] = _matrix_rows(lines, at + 1)
        out["is_soliton"] = _line_value(lines, "  is_soliton:").split()[0] == "True"
        out["conclusion"] = {}
        out["proof_steps"] = {}
        for line in lines:
            if line.startswith("  conclusion ["):
                mark, name = line[len("  conclusion ["):].split("]", 1)
                out["conclusion"][name.split()[0]] = mark == "holds"
            elif line.startswith("  proof step "):
                pid, status = line[len("  proof step "):].split()[:2]
                out["proof_steps"][pid] = status
    return out


def check_text_soliton(parsed: dict, app: O.Apparatus, problem: dict) -> list[str]:
    p: list[str] = []
    is_soliton = _check_verdict(p, app, problem, parsed.get("residual"),
                                parsed.get("is_soliton"), parsed.get("conclusion"))
    if not is_soliton:
        _cmp(p, "proof steps skipped", set(parsed.get("proof_steps", {}).values()),
             {"skipped"})
    return p


def expected_apparatus(entry: dict) -> O.Apparatus | None:
    """The oracle apparatus of the geometry an invocation runs on."""
    exp = entry["expect"]
    if "geometry" in exp:
        return exp["geometry"].app
    if "c" in exp:
        return O.Apparatus(exp["c"], exp["g"], exp["xi"])
    return None


def check_cli(entry: dict, code: int, out: str, err: str, app) -> list[str]:
    """One CLI invocation of the mix: exit code and output content."""
    exp = entry["expect"]
    p: list[str] = []
    _cmp(p, "exit code", code, exp["exit"])
    fmt = exp["format"]
    try:
        if fmt == "geometry":
            _cmp(p, "builtin geometry", json.loads(out), exp["dict"])
            return p
        if fmt == "json":
            doc = json.loads(out)
            parsed = None
        else:
            doc = None
            parsed = parse_text_report(out)
    except (ValueError, AttributeError, IndexError) as exc:
        return p + [f"unparseable output: {exc}"]

    if "jacobi_triple" in exp:
        if exp["jacobi_triple"] not in out + err:
            p.append(f"output does not name the Jacobi triple {exp['jacobi_triple']}")
        checks = {c["name"]: c["passed"] for c in doc["validation"]["checks"]}
        _cmp(p, "jacobi check", checks.get("jacobi"), False)
        return p

    cmd = entry["cmd"]
    if cmd == "validate":
        _cmp(p, "validation ok", parsed["validation_ok"], True)
    elif cmd == "compute" and doc is not None:
        p += check_tables(doc["tables"], app)
        if exp.get("example1"):
            # Criterion 1: the paper's example1 tables.
            _cmp(p, "example1 ricci", doc["tables"]["ricci_lc"],
                 [["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]])
            _cmp(p, "example1 scalar", doc["tables"]["scalar_lc"], "-6")
            _cmp(p, "example1 nabla_k1 k3", [doc["tables"]["levi_civita"][k][0][2]
                                             for k in range(3)], ["-1", "0", "0"])
    elif cmd == "compute":
        _cmp(p, "validation ok", parsed["validation_ok"], True)
        _cmp(p, "scalar_lc", parsed["scalar_lc"], O.fmt(app.scalar))
        _cmp(p, "scalar_ssnmc", parsed["scalar_ssnmc"], O.fmt(app.scalar_hat))
        _cmp(p, "ricci_lc", parsed.get("ricci_lc"), O.nested_str(app.ricci))
        _cmp(p, "ricci_ssnmc", parsed.get("ricci_ssnmc"), O.nested_str(app.ricci_hat))
        _cmp(p, "xi_parallel", parsed.get("xi_parallel"), app.parallel)
    elif cmd == "probe" and doc is not None:
        p += check_probes(doc["probes"], app)
        if exp.get("h2xr"):
            # Criterion 3: r-hat = 0 against the cataloged r - 2 = -4.
            b10 = next(x for x in doc["probes"] if x["id"] == "B10")
            _cmp(p, "h2xr B10", (b10["lhs"], b10["rhs"]), ("0", "-4"))
    elif cmd == "probe":
        p += check_probe_statuses(parsed.get("probes", {}), app.gated)
    elif cmd == "soliton" and doc is not None:
        sols = doc["solitons"]
        if len(sols) != 1:
            return p + [f"expected one soliton verdict, got {len(sols)}"]
        p += check_soliton(sols[0], app, exp["problem"])
    elif cmd == "soliton":
        p += check_text_soliton(parsed, app, exp["problem"])
    return p
