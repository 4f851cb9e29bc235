"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload interactive --seeds 1-10

Runs the benchmark once per seed (untraced, for ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median and the distance between
the first and third quartiles as a share of the median, next to the metric's
bound.  A spread below a third of the bound
is marked ``steady``.  Raw results go to ``.bench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        (ROOT / ".bench_out" / f"spread-{workload}.json").write_text(json.dumps(runs))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            verdict = "steady" if share < metric["bound"] / 3 else "NOT steady"
            print(f"  {metric['name']:14} median {median:.5g} {metric['unit']:4} "
                  f"spread {share:.4f} bound {metric['bound']}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
