"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. It checks that

1. span accounting is right on a known nested call timed by a scripted
   clock: self time, time covered by nested spans of one layer, call
   counts and failed calls;
2. run.py, on the tiny workload (60 locations, 800 admissions), prints a
   correct result naming every metric of BENCHMARK.json with its unit,
   in both trace modes, and two traced runs of one seed give identical
   counts;
3. run.py exits non-zero without printing a result in a directory that
   holds only BENCHMARK.json and perfbench/.

Prints one line per check and exits 0 when all pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
from traced import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count",)


def check_span_accounting() -> list[str]:
    # outer [0,10] holds import [1,3] and build_report [4,8], which holds clustering [5,6];
    # a fit_tail [11,12] raises ValueError
    clock = iter(float(t) for t in (0, 1, 3, 4, 5, 6, 8, 10, 11, 12)).__next__
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("metrics.clustering", lambda: None)
    build = tracer.wrap("report.build_report", lambda: leaf())
    load = tracer.wrap("network.import_network", lambda: None)

    def refit():
        raise ValueError("no tail")

    with tracer.span("cli.main"):
        load()
        build()
    try:
        tracer.wrap("powerlaw.fit_tail", refit)()
    except ValueError:
        pass
    got = {name: value for name, (value, _) in layers.layer_metrics(tracer.spans).items()}
    want = {"cli.self_s": 4.0, "report.self_s": 3.0, "report.build_s": 4.0, "network.import_s": 2.0,
            "metrics.clustering_s": 1.0, "metrics.clustering_calls": 1, "powerlaw.fit_tail_calls": 1,
            "powerlaw.refits_failed": 1, "powerlaw.fit_tail_s": 1.0}
    problems = [f"{name}: {got[name]} != {value}" for name, value in want.items() if got[name] != value]
    nested = layers.covered_time(tracer.spans, ("cli.main", "report.build_report"))
    if nested != 10.0:
        problems.append(f"covered time of nested spans counted twice: {nested} != 10.0")
    return problems


def bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "tiny", "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(trace: int, declared: list[dict]) -> tuple[list[str], dict]:
    proc = bench(trace)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"trace {trace}: not correct: {proc.stdout.strip().splitlines()[-2][:600]}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"trace {trace}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    return problems, metrics


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = [("span accounting on a known nested call", check_span_accounting())]
    problems, _ = check_result(0, spec["end_to_end"])
    results.append(("trace 0 emits every end_to_end metric with its unit", problems))
    first_problems, first = check_result(1, spec["per_layer"])
    results.append(("trace 1 emits every per_layer metric with its unit", first_problems))
    _, second = check_result(1, spec["per_layer"])
    counts = sorted(name for name, m in first.items() if m["unit"] in COUNT_UNITS and name != "report.byte_variants")
    differ = [f"{name}: {first[name]['value']} != {second.get(name, {}).get('value')}"
              for name in counts if first[name]["value"] != second.get(name, {}).get("value")]
    results.append((f"{len(counts)} count metrics repeat exactly across traced runs", differ))
    results.append(("no result without the program's sources", check_bare_directory()))

    for label, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'}: {label}")
        for problem in problems:
            print(f"    {problem}")
    return 0 if all(not problems for _, problems in results) else 1


if __name__ == "__main__":
    sys.exit(main())
