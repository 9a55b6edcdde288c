"""Check that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Runs a few operations of each workload, perturbs one value in each output
(a Gamma component off by 1/7, a residual entry, a fuzz acceptance count, a
probe status, a CLI exit code, report bytes) and requires every perturbed
operation to be counted as failed while the unperturbed ones pass. Exits 1
if any perturbation goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from workloads import CliOneshot, FuzzStream, GeneralMetric


def bump(value: str, by=Fraction(1, 7)) -> str:
    x = Fraction(value) + by
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def perturb_gamma(out):
    doc, text, sols = copy.deepcopy(out)
    doc["tables"]["levi_civita"][0][1][2] = bump(doc["tables"]["levi_civita"][0][1][2])
    return doc, json.dumps(doc, indent=2) + "\n", sols


def perturb_residual(out):
    doc, text, sols = copy.deepcopy(out)
    sols[0]["residual"][1][1] = bump(sols[0]["residual"][1][1])
    return doc, text, sols


def perturb_probe_status(out):
    doc, text, sols = copy.deepcopy(out)
    next(p for p in doc["probes"] if p["id"] == "B3")["status"] = "fail"
    return doc, json.dumps(doc, indent=2) + "\n", sols


def perturb_json_text(out):
    doc, text, sols = out
    return doc, text.replace('"scalar_lc": "', '"scalar_lc": "1', 1), sols


def perturb_fuzz_accepted(out):
    out = copy.deepcopy(out)
    doc, _ = out[0]
    doc["accepted"] += 1
    out[0] = (doc, json.dumps(doc, indent=2) + "\n")
    return out


def perturb_cli_exit(out):
    code, stdout, stderr = out
    return code + 1, stdout, stderr


def perturb_cli_text(out):
    code, stdout, stderr = out
    return code, stdout.replace("paper-mismatch", "pass", 1), stderr


class Perturbed:
    """Wraps a workload so that operation `target` returns a perturbed output."""

    def __init__(self, workload, target, perturb):
        self.workload, self.target, self.perturb = workload, target, perturb
        self.name, self.round_size = workload.name, workload.round_size

    def op(self, i, record=None):
        out = self.workload.op(i)
        return self.perturb(out) if i == self.target else out

    def __getattr__(self, attr):
        return getattr(self.workload, attr)


CASES = [
    (GeneralMetric, "Gamma component off by 1/7", 0, perturb_gamma),
    (GeneralMetric, "soliton residual entry off by 1/7", 1, perturb_residual),
    (GeneralMetric, "general probe status flipped", 2, perturb_probe_status),
    (GeneralMetric, "report JSON bytes altered", 0, perturb_json_text),
    (FuzzStream, "fuzz accepted count off by one", 1, perturb_fuzz_accepted),
    (CliOneshot, "CLI exit code changed", 1, perturb_cli_exit),
    (CliOneshot, "text probe status changed on the parallel geometry", 5, perturb_cli_text),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench"))
    missed = 0
    try:
        for cls, what, target, perturb in CASES:
            kwargs = {"pool": 4} if cls is GeneralMetric else {}
            workload = cls(run.ROOT, 7, scratch / cls.name, **kwargs)
            workload.prepare()
            workload.load()
            ops = max(target + 1, workload.round_size)
            tally = run.Tally()
            run.run_ops(Perturbed(workload, target, perturb), 0, tally, min_ops=ops)
            caught = tally.failed == 1 and f"op {target}:" in tally.problems[0]
            missed += not caught
            print(f"{'caught' if caught else 'MISSED'}: {cls.name}: {what} "
                  f"({tally.failed} of {tally.attempted} operations failed)")
            if tally.problems:
                print(f"    {tally.problems[0][:160]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
