"""Record the expected outputs the benchmark checks against.

    python3 bench/record.py

Writes ``bench/expected.json``: a digest of the canonical output of every
ladder operation and of every CLI call the interactive generator can draw,
and the WARN cases ``verify`` reports on the benchmark's grids.  Run it only
on a commit whose outputs are known to be right; the file in the repository
was recorded from the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frobpush import verify  # noqa: E402
from frobpush.combinat import PrimePower  # noqa: E402

import workloads  # noqa: E402


def record_ladder() -> dict:
    digests = {}
    for p, e in workloads.LADDER_RUNGS + workloads.TINY_LADDER_RUNGS:
        for op in workloads.ladder_rung(PrimePower(p, e), {}):
            digests[op.key] = workloads.digest(workloads.canonical(op.call()))
    return digests


def record_interactive() -> dict:
    digests = {}
    for tiny in (False, True):
        for cell in workloads.interactive_pool(tiny):
            for case in cell:
                code, out, err = workloads.run_cli(case.argv)
                if code != 0 or err:
                    raise SystemExit(f"{' '.join(case.argv)}: exit {code}: {err}")
                text = out
                if case.fmt == "json":
                    text = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
                digests[" ".join(case.argv)] = workloads.digest(text)
    return digests


def record_verify() -> dict:
    grids = {"full": workloads.VERIFY_GRID, "tiny": workloads.TINY_VERIFY_GRID}
    recorded = {}
    for label, grid in grids.items():
        report = verify.run_suites(list(verify.SUITES), **grid)
        fails = [res.key for _, rs in report for res in rs if res.status == "FAIL"]
        if fails:
            raise SystemExit(f"verify reports FAIL on the {label} grid: {fails}")
        recorded[label] = {
            suite: sorted(f"{suite}:{res.key}" for res in rs if res.status == "WARN")
            for suite, rs in report
        }
    return recorded


def main() -> None:
    expected = {
        "ladder": record_ladder(),
        "interactive": record_interactive(),
        "verify": record_verify(),
    }
    path = workloads.EXPECTED_PATH
    path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    sizes = {k: len(v) for k, v in expected.items()}
    print(f"wrote {path.name}: {sizes}")


if __name__ == "__main__":
    main()
