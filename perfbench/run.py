"""Benchmark of `wardflow build` and `wardflow analyze` on generated event logs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Inputs are generated from the seed by perfbench/gen.py
before any timing. With --trace 0 each command is a fresh `python3 -m
wardflow.cli` process, launched one at a time, and the end-to-end metrics
are printed. With --trace 1 the commands run once under perfbench/traced.py
and the per-layer metrics are printed, together with the traced analyze
time against an untraced one. Every report goes through the output checks
in perfbench/checks.py. The last line of standard output is the result
object; the line before it holds samples, quartiles, inputs, environment
and any check failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # a run stops launching commands after this long
ATTACK_STEPS = 21  # step 0 plus 20 removals of 5% each
STRATEGIES = ("degree", "random")


@dataclass(frozen=True)
class Workload:
    locations: int
    admissions: int
    categories: int = 0  # >0: aggregate locations into this many categories
    analyze_log: bool = False  # analyze reads the raw log (--from-log), not the built network
    skip_small_world: bool = False
    boot: int = 200
    sw_samples: int = 20


WORKLOADS = {
    "paper-default": Workload(200, 16_500),
    "wide-2k": Workload(2_000, 16_500, skip_small_world=True),
    "ingest-5x": Workload(200, 82_500, categories=20, analyze_log=True, skip_small_world=True),
    # small enough for perfbench/selfcheck.py; not part of BENCHMARK.json
    "tiny": Workload(60, 800, boot=25, sw_samples=5),
}


def summarize(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


class Run:
    """One benchmark run: a work directory, its commands, samples and failures."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.report_hashes: list[str] = []
        self.reference: dict | None = None
        self.validator = checks.load_validator(SRC / "wardflow" / "report_schema.json")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env.pop("PYTHONHASHSEED", None)  # each process draws its own, as for a user
        self.manifest: dict = {}

    # ---- processes -------------------------------------------------------
    def spawn(self, label: str, argv: list[str]) -> tuple[float, float, float] | None:
        """Run one command to completion.

        Returns (wall seconds, peak RSS MB, CPU seconds) or None on failure.
        """
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        self.attempted += 1
        if remaining <= 0:
            return self.fail(f"{label}: not started, run time limit reached")
        stdout_path = self.work / f"{label}.out"
        stderr_path = self.work / f"{label}.err"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
            return self.fail(f"{label}: exit {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime  # ru_maxrss is in KiB

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "wardflow.cli", *args]

    def traced(self, label: str, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "traced.py"), f"{label}.spans.json", f"{label}.report", "--", *args]

    # ---- inputs ----------------------------------------------------------
    def generate(self) -> None:
        w = self.workload
        argv = [sys.executable, str(HERE / "gen.py"), "--locations", str(w.locations),
                "--admissions", str(w.admissions), "--categories", str(w.categories),
                "--seed", str(self.seed), "--out", str(self.work)]
        result = subprocess.run(argv, cwd=self.work, env=self.env, stderr=subprocess.PIPE,
                                timeout=RUN_LIMIT_S, check=False)
        if result.returncode != 0:
            raise SystemExit(f"input generation failed: {result.stderr.decode(errors='replace')[-800:]}")
        self.manifest = json.loads((self.work / "manifest.json").read_text(encoding="utf-8"))

    def log_args(self) -> list[str]:
        return ["log.csv"] + (["--categories", "map.csv"] if self.workload.categories else [])

    def build_args(self) -> list[str]:
        return ["build", *self.log_args(), "-o", "net.graphml"]

    def analyze_args(self) -> list[str]:
        w = self.workload
        source = [*self.log_args(), "--from-log"] if w.analyze_log else ["net.graphml"]
        args = ["analyze", *source, "--seed", str(self.seed), "--boot", str(w.boot),
                "--sw-samples", str(w.sw_samples)]
        return args + (["--skip", "small_world"] if w.skip_small_world else [])

    def expectation(self) -> checks.Expectation:
        w = self.workload
        if w.analyze_log:
            digest = hashlib.sha256()
            for name in ("log.csv", "map.csv") if w.categories else ("log.csv",):
                digest.update((self.work / name).read_bytes())
            digest = digest.hexdigest()
        else:
            digest = hashlib.sha256((self.work / "net.graphml").read_bytes()).hexdigest()
        network = self.manifest["network"]
        return checks.Expectation(
            digest=digest, nodes=network["nodes"], edges=network["edges"],
            total_weight=network["transfers"], rows=self.manifest["rows"] if w.analyze_log else None,
            skip=("small_world",) if w.skip_small_world else (), boot=w.boot, sw_samples=w.sw_samples,
            attack_steps=ATTACK_STEPS, strategies=STRATEGIES,
        )

    # ---- checks ----------------------------------------------------------
    def check_build(self, label: str) -> bool:
        """The GraphML the build wrote holds the network of the generated log."""
        network = self.manifest["network"]
        want = (network["nodes"], network["edges"], network["transfers"])
        try:
            found = checks.graphml_totals(self.work / "net.graphml")
        except (OSError, ElementTree.ParseError, AttributeError, ValueError) as exc:
            self.fail(f"{label}: unreadable GraphML: {exc!r}")
            return False
        if found != want:
            self.fail(f"{label}: GraphML nodes/edges/weight {found} != generated {want}")
            return False
        return True

    def check_report(self, label: str, filename: str) -> dict | None:
        data = (self.work / filename).read_bytes()
        self.report_hashes.append(hashlib.sha256(data).hexdigest())
        try:
            report = json.loads(data)
        except ValueError as exc:
            self.fail(f"{label}: report is not JSON: {exc}")
            return None
        problems = checks.check_report(report, self.expectation(), self.validator, self.reference)
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:5]))
            return None
        if self.reference is None:
            self.reference = report
        return report

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    # ---- modes -----------------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Repeat each command until its samples add up to `seconds`, at least once.

        Commands interleave (version, build, analyze, then again those still
        due), so the samples of a command come from different moments of a
        machine whose speed drifts, and a short command gets more samples
        than a long one. The first `--version` of a fresh checkout also
        writes the bytecode caches; the median absorbs that sample.
        """
        spent = {"setup_s": 0.0, "build_s": 0.0, "analyze_s": 0.0}
        commands = {"setup_s": self.cli("--version"), "build_s": self.cli(*self.build_args()),
                    "analyze_s": self.cli(*self.analyze_args())}
        rounds = 0
        while any(time_spent < seconds for time_spent in spent.values()):
            rounds += 1
            for metric, argv in commands.items():
                if spent[metric] >= seconds:
                    continue
                label = f"{metric[:-2]}{rounds}"
                measured = self.spawn(label, argv)
                if measured is None or not self.check(metric, label):
                    return
                wall, rss, cpu = measured
                spent[metric] += wall
                self.sample(metric, wall)
                self.sample(metric[:-2] + "_cpu_s", cpu)
                self.sample("rss_mb", rss)

    def check(self, metric: str, label: str) -> bool:
        """Output check of one command; a failure is recorded and gives False."""
        if metric == "build_s":
            return self.check_build(label)
        if metric == "analyze_s":
            return self.check_report(label, f"{label}.out") is not None
        if not (self.work / f"{label}.out").read_text(encoding="utf-8").startswith("wardflow "):
            self.fail(f"{label}: unexpected --version output")
            return False
        return True

    def trace(self) -> dict[str, tuple[float, str]]:
        """Traced build and analyze, plus one untraced analyze to price the tracing."""
        if self.spawn("tbuild", self.traced("tbuild", *self.build_args())) is None or not self.check_build("tbuild"):
            return {}
        untraced = self.spawn("analyze", self.cli(*self.analyze_args()))
        if untraced is None or self.check_report("analyze", "analyze.out") is None:
            return {}
        traced = self.spawn("tanalyze", self.traced("tanalyze", *self.analyze_args()))
        report = self.check_report("tanalyze", "tanalyze.report") if traced is not None else None
        if report is None:
            return {}
        span_lists = [json.loads((self.work / f"{label}.spans.json").read_text(encoding="utf-8"))["spans"]
                      for label in ("tbuild", "tanalyze")]
        metrics = layers.layer_metrics(layers.merge(span_lists))
        metrics["trace.analyze_s"] = (traced[0], "s")
        metrics["trace.untraced_analyze_s"] = (untraced[0], "s")
        metrics["trace.overhead_ratio"] = (traced[0] / untraced[0], "ratio")
        metrics["report.byte_variants"] = (len(set(self.report_hashes)), "count")
        problems = self.cross_check(metrics, report)
        if problems:
            self.fail("tanalyze: " + "; ".join(problems))
        return metrics

    def cross_check(self, metrics: dict, report: dict) -> list[str]:
        """Counters the wrappers read agree with the report and the generated inputs.

        A counter whose wrapped function never ran (say, after a rename) is
        left out: it shows as 0 in the layer metrics, not as a failure.
        """
        def seen(name: str):
            return metrics[name][0]

        problems = []
        rows = self.manifest["rows"]
        if seen("eventlog.rows_read") % rows or seen("eventlog.rows_rejected"):
            problems.append(f"eventlog read {seen('eventlog.rows_read')} rows, rejected "
                            f"{seen('eventlog.rows_rejected')}, of {rows} per parse")
        steps = sum(len(attack["steps"]) for attack in report["resilience"].values())
        if seen("resilience.steps") not in (0, steps):
            problems.append(f"resilience.steps {seen('resilience.steps')} != {steps} in the report")
        world = report.get("small_world")
        if world and seen("smallworld.swaps_attempted"):
            proposals = world["n_samples"] * (world["n_swaps_random"] + world["n_swaps_lattice"])
            accepted = sum(world["accepted_swaps_random"]) / (world["n_samples"] * world["n_swaps_random"])
            if seen("smallworld.swaps_attempted") != proposals:
                problems.append(f"smallworld.swaps_attempted {seen('smallworld.swaps_attempted')} != {proposals}")
            if abs(seen("smallworld.accept_ratio_random") - accepted) > 1e-12:
                problems.append("smallworld.accept_ratio_random disagrees with accepted_swaps_random")
        return problems


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "wardflow" / "cli.py").is_file():
        print(f"no wardflow sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        run.generate()
        if args.trace:
            metrics = run.trace()
        else:
            run.measure(args.seconds)
            metrics = {}
            for name in ("build_s", "analyze_s", "setup_s"):
                if name in run.samples:
                    metrics[name] = (statistics.median(run.samples[name]), "s")
            if "rss_mb" in run.samples:
                metrics["peak_rss_mb"] = (max(run.samples["rss_mb"]), "MB")
            metrics["ok_ratio"] = ((run.attempted - run.failed) / run.attempted, "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # other runs still use it

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": run.failed / run.attempted,
        "report_byte_variants": len(set(run.report_hashes)),
        "problems": run.problems,
        "samples": {name: summarize(values) | {"values": values} for name, values in run.samples.items()},
        "inputs": {key: run.manifest[key] for key in ("locations", "admissions", "rows", "network", "files")},
        "environment": run.manifest["environment"],
    }
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
