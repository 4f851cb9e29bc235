"""Smoke test of the benchmark itself, at tiny size.

    python3 bench/smoke_test.py

Checks that every workload, untraced and traced, prints every metric named
in BENCHMARK.json with its unit and a correct result; that a deliberately
wrong expected digest, and a missing recorded WARN, are counted as failures,
so the output checks are live; and that the benchmark refuses to run, without
printing a result, in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_runs(spec: dict) -> None:
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            result = result_line(proc.stdout)
            check(result is not None, f"{label}: last line is a JSON object")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{label}: correct with {result['attempted']} attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == declared[trace], f"{label}: metric names and units as declared")
            body = proc.stdout.rsplit("\n", 2)[0]
            check(all(name in body for name in declared[trace]),
                  f"{label}: every metric printed by name")


def check_live_digests() -> None:
    expected = workloads.load_expected()
    key = next(k for k in expected["ladder"] if k.endswith("@3^2"))
    expected["ladder"][key] = "0" * 16
    result = workloads.run_pass(workloads.ladder(7, True, expected).ops)
    check(result.failed == 1 and any(key in why for why in result.problems),
          f"wrong digest for {key} counted as one failure (failed={result.failed})")

    expected = workloads.load_expected()
    tiny_warn = expected["verify"]["tiny"]
    suite = next(s for s, keys in tiny_warn.items() if keys)
    dropped = tiny_warn[suite].pop()
    result = workloads.run_pass(workloads.verify_workload(7, True, expected).ops)
    check(result.failed == 1 and any(dropped in why for why in result.problems),
          f"unrecorded WARN {dropped} counted as one failure (failed={result.failed})")


def check_refuses_without_sources() -> None:
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        check(proc.returncode != 0 and result_line(proc.stdout) is None,
              f"refuses without sources (exit {proc.returncode}, no result printed)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_live_digests()
    check_refuses_without_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
