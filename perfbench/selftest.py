"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches ``spec.py``; that every layer
metric is named after a module that exists under ``src/repro/`` (so a
rename fails here); that each workload in tiny mode, untraced and
traced, verifies its answers and reports every declared metric with its
unit; and that the benchmark refuses to run without ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import spec
from common import ROOT, SCRATCH, SRC

#: Metric names the workloads print for people (besides the contract's).
NAMED = {
    "mine": ("setup_s", "peak_rss_mib", "mine_s", "error_rate"),
    "serve": ("setup_s", "peak_rss_mib", "qps", "latency_p50_ms", "latency_p99_ms",
              "error_rate"),
    "stream-ingest": ("setup_s", "peak_rss_mib", "ingest_tx_per_s", "report_p50_ms",
                      "error_rate"),
}


def module_exists(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    base = SRC.joinpath("repro", *parts)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def check_spec(errors: list[str]) -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != spec.benchmark_json():
        errors.append("BENCHMARK.json differs from spec.py (run perfbench/spec.py)")
    for name, _unit, _better in spec.PER_LAYER:
        prefix = name.rsplit(".", 1)[0]
        if prefix != "perfbench" and not module_exists(prefix):
            errors.append(f"layer metric {name}: no module repro.{prefix} under src/")


def run_bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600, check=False,
    )


def check_workload(workload: str, trace: int, errors: list[str]) -> None:
    where = f"{workload} --trace {trace}"
    # serve's five daemons each need more than 128 distinct topk keys
    # before the cache check below can see an eviction
    seconds = "10" if workload == "serve" and trace else "2"
    out = run_bench(["--workload", workload, "--seed", "7", "--seconds", seconds,
                     "--trace", str(trace), "--tiny"])
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        errors.append(f"{where}: exit {out.returncode}: {out.stderr.strip()[-300:]}"
                      f"{out.stdout.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: verification failed: {lines[:-1]}")
    want = spec.PER_LAYER_UNITS if trace else spec.END_TO_END_UNITS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics/units differ from spec: "
                      f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            errors.append(f"{where}: {name} = {m['value']!r}")
    printed = {line.split(" ", 1)[0] for line in lines if " = " in line}
    missing = [n for n in NAMED[workload] if n not in printed]
    if missing:
        errors.append(f"{where}: metrics not printed: {missing}")
    if workload == "serve" and trace:
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        if not (layers["serve.cache.evictions"] > 0
                and 0 < layers["serve.cache.hit_ratio"] < 1):
            errors.append(f"{where}: topk working set does not overflow the cache")


def check_refuses_without_src(errors: list[str]) -> None:
    bare = SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(["--workload", "mine", "--seed", "1", "--trace", "0"], cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            errors.append("the benchmark produced a result without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    check_spec(errors)
    check_refuses_without_src(errors)
    for workload, _why in spec.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace, errors)
            print(f"checked {workload} --trace {trace}", flush=True)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
