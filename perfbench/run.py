"""sscurv benchmark: one command for every workload, timed or traced.

    python3 perfbench/run.py --workload fuzz-stream --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's src/ directory and from nowhere else. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones,
measured with tracing off; with --trace 1 they are the per-layer ones from a
separate traced run. A result file stamped with the Python version, the
rational backend, the CPU count and the commit is written under .perfbench/
in the checkout. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliOneshot, FuzzStream, GeneralMetric, digest  # noqa: E402

SETUP_REPEATS = 5
MAX_PROBLEMS_SHOWN = 5


class Tally:
    """Operations attempted and failed, and the problems behind the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, workload_name, i, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"{workload_name} op {i}: " + "; ".join(problems[:3]))


class Timings:
    """Raw operation times and the same times at the reference speed."""

    def __init__(self, probe):
        self.probe = probe
        self.raw: list[float] = []
        self.round_of: list[int] = []
        self.probes: list[float] = []  # one before each round and one at the end

    def start_round(self):
        self.probes.append(self.probe.measure())

    def add(self, seconds):
        self.raw.append(seconds)
        self.round_of.append(len(self.probes) - 1)

    def scaled(self) -> list[float]:
        """Each time scaled by the mean of the probes before and after its round."""
        p = self.probes
        return [self.probe.scale(t, (p[r] + p[r + 1]) / 2)
                for t, r in zip(self.raw, self.round_of)]


def run_ops(workload, seconds, tally, *, min_ops=0, record=None, keep=None) -> Timings:
    """Whole rounds of operations until `seconds` have passed and min_ops are done.

    An operation runs workload.repeats times back to back; its time is the
    fastest run, and every run must report the same bytes. Each output is
    checked right after its operation, outside the timed span. keep, when
    given, collects the digest of each operation's output bytes.
    """
    timings = Timings(workload.probe)
    i = 0
    t_start = perf_counter()
    while True:
        timings.start_round()
        for _ in range(workload.round_size):
            workload.before(i)
            if record is not None:
                record.tracer.op = i
            best, outputs, problems = float("inf"), [], []
            try:
                for _ in range(workload.repeats):
                    t0 = perf_counter()
                    if record is None:
                        outputs.append(workload.op(i))
                    else:
                        outputs.append(record.tracer.call("op", workload.op, i, record))
                    best = min(best, perf_counter() - t0)
                problems = workload.check(i, outputs[0])
                digests = {digest(workload.output_bytes(out)) for out in outputs}
                if len(digests) > 1:
                    problems.append("identical runs reported different bytes")
                if keep is not None:
                    keep[i] = digests.pop()
            except Exception:  # an operation that raises is a failed operation
                best = min(best, perf_counter() - t0)
                problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            if record is not None:
                record.ops += workload.repeats
                label = workload.label(i)
                if label is not None:
                    record.cli_latency_ms.setdefault(label, []).append(best * 1e3)
            timings.add(best)
            tally.add(workload.name, i, problems)
            i += 1
        if perf_counter() - t_start >= seconds and i >= min_ops:
            timings.start_round()
            return timings


def measure_setup(workload) -> float:
    """Median over fresh processes of importing sscurv and loading the inputs.

    Scaled with the kernel probe, taken before and after each process.
    """
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload.name,
           str(workload.seed), str(workload.workdir)]
    subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True, timeout=120)  # fills the bytecode cache
    times = Timings(calibrate.KERNEL)
    for _ in range(SETUP_REPEATS):
        times.start_round()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.add(float(proc.stdout.split()[-1]))
    times.start_round()
    return statistics.median(times.scaled())


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def timed_run(workload, seconds, tally):
    setup_s = measure_setup(workload)
    workload.load()
    timings = run_ops(workload, seconds, tally)
    ms = [x * 1e3 for x in timings.scaled()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "throughput_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
    }
    raw_ms = [x * 1e3 for x in timings.raw]
    return metrics, {
        "ops": len(ms),
        "raw_latency_p50_ms": statistics.median(raw_ms),
        "raw_throughput_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
        "probe_ms_median": statistics.median(timings.probes) * 1e3,
        "probe_ms_reference": timings.probe.reference_s * 1e3,
    }


def complement(name, seed, workdir, tally):
    """Short traced slices of the other workloads, for layers `name` never reaches."""
    slices = {FuzzStream: 2, GeneralMetric: 4, CliOneshot: None}
    records = []
    for cls, n_ops in slices.items():
        if cls.name == name:
            continue
        sub = workdir / cls.name
        workload = cls(ROOT, seed, sub, pool=n_ops) if cls is GeneralMetric else cls(ROOT, seed, sub)
        workload.prepare()
        workload.load()
        if n_ops:
            workload.round_size = n_ops
        record = spans.Record()
        record.tracer.install()
        try:
            run_ops(workload, 0, tally, record=record)
        finally:
            record.tracer.uninstall()
        records.append((cls.name, record))
    return records


def traced_run(workload, seconds, tally):
    """Untraced reference operations, then the same operations and more, traced."""
    workload.load()
    reference: dict[int, str] = {}
    ref_lat = run_ops(workload, seconds / 4, tally, keep=reference).scaled()
    record = spans.Record()
    traced: dict[int, str] = {}
    record.tracer.install()
    try:
        lat = run_ops(workload, seconds - seconds / 4, tally, min_ops=len(ref_lat),
                      record=record, keep=traced).scaled()
    finally:
        record.tracer.uninstall()
    mismatched = [i for i in reference if traced.get(i) != reference[i]]
    for i in mismatched:
        tally.add(workload.name, i, ["report bytes differ with tracing on and off"])

    values = record.values()
    measured_on = {m: workload.name for m in values}
    for other, rec in complement(workload.name, workload.seed, workload.workdir.parent, tally):
        for metric, value in rec.values().items():
            if metric not in values:
                values[metric] = value
                measured_on[metric] = other
    metrics = {m: (values.get(m, 0.0), unit) for m, (unit, _, _) in spans.LAYER_METRICS.items()}
    n = len(ref_lat)
    summary = {
        "reference_ops": n,
        "traced_ops": len(lat),
        "bytes_identical_ops": n - len(mismatched),
        "trace_overhead_pct": (sum(lat[:n]) / sum(ref_lat) - 1) * 100,
        "spans": len(record.tracer.spans),
        "measured_on_other_workload": {m: w for m, w in measured_on.items()
                                       if w != workload.name},
        "not_measured": [m for m in spans.LAYER_METRICS if m not in values],
    }
    return metrics, summary


def stamp(rat_backend) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rat_backend": rat_backend,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sscurv" / "__init__.py").is_file():
        print(f"perfbench: no sscurv sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sscurv
    from sscurv.rat import RAT_BACKEND
    if Path(sscurv.__file__).resolve().parent != (SRC / "sscurv").resolve():
        print(f"perfbench: sscurv was imported from {sscurv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    machine = stamp(RAT_BACKEND)
    # One CPU for the benchmark and the processes it starts, so that the
    # speed kernel runs where the operations run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir / args.workload)
        workload.prepare()
        run = traced_run if args.trace else timed_run
        metrics, summary = run(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"stamp": machine, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "summary": summary,
              "problems": tally.problems, "result": result}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {json.dumps(summary)}")
    print(f"perfbench: stamp {json.dumps(record['stamp'])}; result file {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
