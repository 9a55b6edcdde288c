"""The three workloads: inputs, program-side set-up, one operation, its check.

A workload object is built from the checkout root, the seed and a scratch
directory. prepare() writes the benchmark-side inputs; load() is the
program-side set-up that setup_s times (import plus building or loading the
geometries through sscurv's constructors and loaders); op(i) runs operation
i through the program and returns its output; check(i, output) compares
that output with the oracle and returns the problems found.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import calibrate
import checks
import inputs
import oracle as O


class Workload:
    name = ""
    round_size = 1  # operations per round; runs end on a round boundary
    probe = calibrate.KERNEL  # speed probe taken before and after each round
    repeats = 1  # back-to-back runs of each operation; the fastest is its time

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def load(self):
        pass

    def before(self, i: int):
        """Benchmark-side preparation of operation i, outside its timing."""

    def op(self, i: int, record=None):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def output_bytes(self, output) -> bytes:
        """The bytes the program reported, for the tracing on/off comparison."""
        raise NotImplementedError

    def label(self, i: int) -> str | None:
        """The CLI command of operation i, where there is one."""
        return None


class FuzzStream(Workload):
    """Each operation is one general and one require_parallel_xi stream."""

    name = "fuzz-stream"
    # The shortest, most allocation-heavy operations: single runs left a
    # 90th percentile that moved 14% between runs of the same seed, with
    # host noise hitting one run in ten. The faster of two runs does not.
    repeats = 2

    def prepare(self):
        super().prepare()
        self.ops = inputs.FuzzOps(self.seed)

    def before(self, i):
        self.ops[i]

    def op(self, i, record=None):
        from sscurv import FuzzConfig, fuzz
        from sscurv.report import emit_report
        fseed = self.ops[i][0]
        out = []
        for parallel_only in (False, True):
            doc = fuzz(FuzzConfig(count=inputs.FUZZ_COUNT, seed=fseed,
                                  require_parallel_xi=parallel_only))
            out.append((doc, emit_report(doc, "json")))
        return out

    def check(self, i, output):
        _, *expected = self.ops[i]
        problems = []
        for (doc, text), exp, parallel_only in zip(output, expected, (False, True)):
            problems += checks.check_fuzz(doc, text, exp, parallel_only, inputs.FUZZ_COUNT)
        return problems

    def output_bytes(self, output):
        return b"".join(text.encode() for _, text in output)


class GeneralMetric(Workload):
    """Each operation is one generated geometry: its full report and four soliton checks."""

    name = "general-metric"

    def __init__(self, root, seed, workdir, pool: int = 200):
        super().__init__(root, seed, workdir)
        self.pool = pool

    def _path(self, index):
        return self.workdir / f"gm-{index:04d}.json"

    def prepare(self):
        super().prepare()
        self.geoms = [inputs.GeneralGeometry(self.seed, i) for i in range(self.pool)]
        for geom in self.geoms:
            problems = [{"kind": p["kind"], "lambda": O.fmt(p["lam"]), "m": p["m"],
                         "jet": inputs.jet_dict(p["d"], p["dd"])} for p in geom.problems]
            self._path(geom.index).write_text(json.dumps(
                {"geometry": geom.geometry, "problems": problems}))

    def load(self):
        from sscurv import SolitonKind, SolitonProblem
        from sscurv.geomio import geometry_from_dict, jet_from_dict
        from sscurv.rat import parse_rat
        self.loaded = []
        for index in range(self.pool):
            path = self._path(index)
            data = json.loads(path.read_text())
            spec = geometry_from_dict(data["geometry"], path=str(path)).spec
            problems = [SolitonProblem(SolitonKind(p["kind"]), parse_rat(p["lambda"]),
                                       jet_from_dict(p["jet"], 3), p["m"])
                        for p in data["problems"]]
            self.loaded.append((spec, problems))

    def op(self, i, record=None):
        from sscurv import proof_step_probes, residual, run_suite
        from sscurv.report import emit_report, verdict_to_dict
        spec, problems = self.loaded[i % self.pool]
        doc = run_suite(spec, "all")
        text = emit_report(doc, "json")
        sols = [verdict_to_dict(p, residual(spec, p), proof_step_probes(spec, p))
                for p in problems]
        return doc, text, sols

    def check(self, i, output):
        doc, text, sols = output
        geom = self.geoms[i % self.pool]
        problems = checks.check_report(doc, text, geom)
        for sol, problem in zip(sols, geom.problems):
            problems += [f"{problem['kind']}: {x}"
                         for x in checks.check_soliton(sol, geom.app, problem)]
        return problems

    def output_bytes(self, output):
        doc, text, sols = output
        return text.encode() + json.dumps(sols).encode()


class CliOneshot(Workload):
    """Closed loop, one client: each operation is one fresh `python -m sscurv.cli`."""

    name = "cli-oneshot"

    def prepare(self):
        super().prepare()
        self.mix = inputs.cli_mix(self.seed, self.workdir)
        self.round_size = len(self.mix)
        self.apps = [checks.expected_apparatus(entry) for entry in self.mix]
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.probe = calibrate.Probe(lambda: calibrate.start_seconds(self.env),
                                     calibrate.START.reference_s)

    def load(self):
        from sscurv import builtin
        from sscurv.geomio import load_geometry, load_jet
        for path in sorted(self.workdir.glob("*.json")):
            if path.name.endswith("-jet.json"):
                load_jet(path, 3)
            else:
                load_geometry(path)
        for name in ("example1", "h2xr"):
            builtin(name)

    def op(self, i, record=None):
        entry = self.mix[i % len(self.mix)]
        if record is None:
            argv = [sys.executable, "-m", "sscurv.cli", *entry["argv"]]
        else:
            dump = self.workdir / f"trace-{i}.json"
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(dump), *entry["argv"]]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if record is not None:
            data = json.loads(dump.read_text())
            dump.unlink()
            record.tracer.merge(data["trace"], i)
            record.cli_import_ms.append(data["import_ms"])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, i, output):
        k = i % len(self.mix)
        return checks.check_cli(self.mix[k], *output, self.apps[k])

    def label(self, i):
        return self.mix[i % len(self.mix)]["cmd"]

    def output_bytes(self, output):
        code, out, err = output
        return f"{code}\n".encode() + out.encode()


WORKLOADS = {w.name: w for w in (FuzzStream, CliOneshot, GeneralMetric)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
