"""capnet's benchmark: seeded CLI workloads, each CLI run in a fresh process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of oracle-verify, deep-pde, deep-erf, chain-spec, or ``all``
for the four of them round-robin.  Runs ``benchmark/child.py`` again and
again until S seconds have passed (and at least three times), checks every
output, and prints a table and then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
runs: ``wall_s``, ``setup_s`` and ``peak_rss_mib``.  With ``--trace 1``
traced and untraced runs alternate, and the metrics are the per-layer ones
of ``tracing.py``.  ``attempted``/``failed`` count CLI runs; a run fails on
a non-zero exit, a failed output check, output bytes that differ from the
workload's first run in the invocation, or, when traced, span counts that
differ between runs or less than 90% of the wall time inside named spans.  See ``benchmark/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, strftime

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_CYCLES = 3
CHILD_TIMEOUT_S = 60.0
MIN_ATTRIBUTED = 0.9
MIB = 1024.0  # ru_maxrss is in KiB on Linux
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# Spans reported by name; each also gets its module's total.
_SPAN_SELF = (
    "oracle.empirical_spatial_capacity",
    "oracle.verify_stationarity",
    "oracle.fit_optimal_last_layer",
    "oracle.pseudo_random_eta",
    "augment.Activation.eta",
    "core.orthonormal_basis",
    "core.ProjectionMatrix.from_raw",
    "propagate.propagate_single",
    "propagate.propagate_chain",
    "propagate.Layer.to_operator",
    "deeplimit.evolve_markov",
    "deeplimit.gaussian_solution",
    "deeplimit.residual_generator",
    "analyze.erf_profile",
    "analyze.shatter_analysis",
    "cli.parse_network_spec",
    "jsonfmt.canonical_dumps",
)
_SPAN_CALLS = (
    "oracle.pseudo_random_eta",
    "core.orthonormal_basis",
    "core.ProjectionMatrix.from_raw",
    "propagate.propagate_single",
    "propagate.Layer.to_operator",
    "deeplimit.evolve_markov",
    "deeplimit.residual_generator",
)
PER_LAYER = (
    [(f"{m}.self_s", "s") for m in tracing.MODULES]
    + [(f"{m}.calls", "count") for m in tracing.MODULES]
    + [(f"{s}.self_s", "s") for s in _SPAN_SELF]
    + [(f"{s}.calls", "count") for s in _SPAN_CALLS]
    + [
        ("oracle.pseudo_random_eta.elements", "count"),
        ("oracle.eta_per_sample", "1"),
        ("oracle.traced_peak_mib", "MiB"),
        ("propagate.operator_bytes", "B"),
        ("deeplimit.steps_per_needed", "1"),
        ("jsonfmt.canonical_dumps.bytes", "B"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Sample:
    """One CLI run: its timings, peak RSS, span report and problems."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.total_s = 0.0
        self.wall_s = None
        self.rss_mib = None
        self.spans = {}
        self.traced_peak_bytes = 0
        self.hashes = {}
        self.problems = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        return {
            "workload": self.workload,
            "traced": self.traced,
            "total_s": self.total_s,
            "wall_s": self.wall_s,
            "rss_mib": self.rss_mib,
            "hashes": self.hashes,
            "problems": self.problems,
        }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _environment(env: dict) -> dict:
    """Start one untimed child: it compiles capnet and reports the environment."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--env"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"environment probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def _spawn(sample: Sample, seed: int, workdir: Path, env: dict, cpu: int) -> dict:
    """Run one child forked on ``cpu``; fill in its timings and RSS; return its report.

    A single-threaded child tends to stay on the CPU it started on, and on a
    shared host the CPUs' speeds drift apart for minutes at a time.  Starting
    successive children on each CPU in turn makes a run's median cover all
    of them; the child widens its CPU set again before any work starts.
    """
    argv = [sys.executable, str(BENCH / "child.py"), sample.workload, str(seed),
            str(workdir), "1" if sample.traced else "0", ",".join(map(str, CPUS))]
    with open(workdir / "stdout.txt", "wb") as stdout, open(workdir / "stderr.txt", "wb") as stderr:
        os.sched_setaffinity(0, [cpu])
        try:
            start = perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
        finally:
            os.sched_setaffinity(0, CPUS)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it also returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        sample.total_s = perf_counter() - start
    sample.rss_mib = usage.ru_maxrss / MIB
    if proc.returncode != 0:
        sample.problems.append(f"child exited with {proc.returncode}; see {workdir / 'stderr.txt'}")
        return {}
    report = json.loads((workdir / "stdout.txt").read_text().strip().splitlines()[-1])
    if report["code"] != 0:
        sample.problems.append(f"capnet exited with {report['code']}")
    sample.wall_s = report["wall_s"]
    return report


def _hash_outputs(workload: str, workdir: Path) -> dict:
    return {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        for name in workloads.output_files(workload)
        if (workdir / name).is_file()
    }


class Runner:
    """Runs children, checks them, and keeps the samples of one benchmark run."""

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        # workload -> output hashes of its first run; every later run must match
        self.references = {}
        self.samples = []
        self.rundir = OUT / f"run-{os.getpid()}-{strftime('%Y%m%d-%H%M%S')}"

    def run_one(self, workload: str, traced: bool) -> Sample:
        sample = Sample(workload, traced)
        workdir = self.rundir / f"{len(self.samples):03d}-{workload}-{'t' if traced else 'u'}"
        workdir.mkdir(parents=True)
        same_kind = sum(s.workload == workload and s.traced == traced for s in self.samples)
        report = _spawn(sample, self.seed, workdir, self.env, CPUS[same_kind % len(CPUS)])
        if sample.wall_s is not None and not sample.problems:
            sample.problems += workloads.check_outputs(workload, str(workdir))
            sample.hashes = _hash_outputs(workload, workdir)
            reference = self.references.setdefault(workload, sample.hashes)
            if sample.hashes != reference:
                sample.problems.append("output bytes differ from the first run of this seed")
        if traced and report:
            self._check_trace(sample, report)
        if sample.ok:
            shutil.rmtree(workdir)
        self.samples.append(sample)
        return sample

    def _check_trace(self, sample: Sample, report: dict) -> None:
        sample.spans = report["spans"]
        sample.traced_peak_bytes = report["traced_peak_bytes"]
        attributed = sum(span["self_s"] for span in sample.spans.values())
        if attributed < MIN_ATTRIBUTED * sample.wall_s:
            sample.problems.append(
                f"only {attributed:.3f} s of {sample.wall_s:.3f} s wall time is inside named spans"
            )
        counts = {name: (s["calls"], s["work"]) for name, s in sample.spans.items()}
        first = next((s for s in self.samples if s.workload == sample.workload and s.spans), None)
        if first is not None:
            expected = {name: (s["calls"], s["work"]) for name, s in first.spans.items()}
            if counts != expected:
                diff = sorted(n for n in set(counts) | set(expected) if counts.get(n) != expected.get(n))
                sample.problems.append(f"span counts differ from the first traced run: {diff[:5]}")


def _timed(samples, traced: bool) -> list:
    """Passing runs of one kind; all timed runs of that kind when none passed."""
    mine = [s for s in samples if s.traced == traced and s.wall_s is not None]
    return [s for s in mine if s.ok] or mine


def end_to_end_samples(samples) -> dict:
    good = _timed(samples, traced=False)
    return {
        "wall_s": [s.wall_s for s in good],
        "setup_s": [s.total_s - s.wall_s for s in good],
        "peak_rss_mib": [s.rss_mib for s in good],
    }


def per_layer(workload: str, samples) -> dict:
    traced = [s for s in _timed(samples, traced=True) if s.spans]
    untraced = _timed(samples, traced=False)
    first = traced[0].spans

    def self_s(prefix: str) -> float:
        return statistics.median([
            sum(v["self_s"] for k, v in s.spans.items() if k == prefix or k.startswith(prefix + "."))
            for s in traced
        ])

    def count(prefix: str, field: str = "calls") -> int:
        return sum(v[field] for k, v in first.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(numerator: float, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = self_s(module)
        metrics[f"{module}.calls"] = count(module)
    for span in _SPAN_SELF:
        metrics[f"{span}.self_s"] = self_s(span)
    for span in _SPAN_CALLS:
        metrics[f"{span}.calls"] = count(span)
    elements = count("oracle.pseudo_random_eta", "work")
    metrics["oracle.pseudo_random_eta.elements"] = elements
    metrics["oracle.eta_per_sample"] = ratio(elements, workloads.eta_samples(workload))
    metrics["oracle.traced_peak_mib"] = max(s.traced_peak_bytes for s in traced) / MIB / MIB
    metrics["propagate.operator_bytes"] = count("propagate.propagate_single", "work")
    metrics["deeplimit.steps_per_needed"] = ratio(
        count("propagate.propagate_single"), workloads.needed_steps(workload)
    )
    metrics["jsonfmt.canonical_dumps.bytes"] = count("jsonfmt.canonical_dumps", "work")
    metrics["trace.unattributed_s"] = statistics.median(
        [s.wall_s - sum(v["self_s"] for v in s.spans.values()) for s in traced]
    )
    metrics["trace.overhead_s"] = (
        statistics.median([s.wall_s for s in traced]) - statistics.median([s.wall_s for s in untraced])
    )
    return metrics


def _spread(values) -> str:
    """Sample count, quartiles and the highest percentile with ten samples beyond it."""
    text = f"median of {len(values)}"
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        text += f", quartiles {q[0]:.6g} .. {q[2]:.6g}"
    if len(values) >= 20:
        pct = 100 * (len(values) - 10) // len(values)
        text += f", p{pct} {sorted(values)[len(values) * pct // 100 - 1]:.6g}"
    return text


def print_table(workload: str, mine, metrics: dict, units: dict) -> None:
    failed = sum(not s.ok for s in mine)
    spreads = end_to_end_samples(mine)
    print(f"== {workload}: {len(mine)} runs, {failed} failed, fail_ratio = {failed / len(mine):.4f} (1)")
    for name, value in metrics.items():
        line = f"  {name:<44} {value:>16.6g} {units[name]}"
        if spreads.get(name):
            line += f"   ({_spread(spreads[name])})"
        print(line)
    for sample in mine:
        for problem in sample.problems:
            print(f"  FAILED run: {problem}")


def _save_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
    os.replace(tmp, path)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "capnet" / "cli.py").is_file():
        print(f"error: no capnet sources under {SRC}", file=sys.stderr)
        return 2
    env = _child_env()
    environment = _environment(env)
    print("environment: " + json.dumps(environment, sort_keys=True))
    runner = Runner(args.seed, env)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    schedule = [(w, traced) for w in names for traced in ((False, True) if args.trace else (False,))]
    deadline = perf_counter() + args.seconds
    try:
        cycles = 0
        while cycles < MIN_CYCLES or perf_counter() < deadline:
            for workload, traced in schedule:
                runner.run_one(workload, traced)
            cycles += 1
    finally:
        if runner.rundir.is_dir() and not any(runner.rundir.iterdir()):
            runner.rundir.rmdir()

    kinds = (False, True) if args.trace else (False,)
    missing = [w for w in names for kind in kinds
               if not _timed([s for s in runner.samples if s.workload == w], kind)]
    if missing:
        print(f"error: no run of {missing} finished; see {runner.rundir}", file=sys.stderr)
        return 1

    catalogue = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    metrics = {}
    for workload in names:
        mine = [s for s in runner.samples if s.workload == workload]
        if args.trace:
            values = per_layer(workload, mine)
        else:
            values = {k: statistics.median(v) for k, v in end_to_end_samples(mine).items()}
        print_table(workload, mine, values, catalogue)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": catalogue[name]}

    failed = sum(not s.ok for s in runner.samples)
    _save_json(
        OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
        {"args": vars(args), "environment": environment,
         "samples": [s.record() for s in runner.samples], "metrics": metrics},
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
