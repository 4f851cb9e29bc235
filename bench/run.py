"""The frobpush benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` a run first times untraced passes, then traced
passes, and reports the per-layer metrics, including the tracing overhead
(for ``verify``, pool passes with jobs=2 run in between, for the pool
speed-up).  Times are scaled to a reference speed; see ``clock.py``.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run records (and, for traced runs, the spans) are written to ``.bench_out/``.
``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("ladder", "interactive", "verify")
SETUP_CODE = "import frobpush; from frobpush import cli; cli.build_parser()"
SETUP_REPEATS = 11
MACHINE_NOTE = ("wall clock on a shared sandbox; nothing tuned at machine level (no "
                "frequency or cache control); the benchmark pins its own process to one "
                "CPU and scales times by a calibration loop (bench/clock.py)")

UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "combinat.calls": "count", "combinat.self_s": "s", "combinat.max_int_bits": "bits",
    "picard.terms_in": "count", "picard.classes_out": "count", "picard.merge_ratio": "ratio",
    "picard.self_s": "s",
    "catalog.calls": "count", "catalog.self_s": "s",
    "localalg.calls": "count", "localalg.self_s": "s",
    "restriction.self_s": "s", "positivity.self_s": "s",
    "cli.parse_s": "s", "cli.render_s": "s", "cli.self_s": "s",
    "verify.cases": "count", "verify.case_p50_ms": "ms", "verify.case_max_ms": "ms",
    "verify.self_s": "s", "verify.pool_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}


def git_sha() -> str:
    """HEAD of the checkout's own repository, read from .git without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def machine_record() -> dict:
    sources = sorted((SRC / "frobpush").glob("*.py"))
    src_hash = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_hash,
        "note": MACHINE_NOTE,
    }


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import frobpush and build the CLI
    parser, as every CLI call does: (scaled, measured) per start.  One
    unmeasured start fills the bytecode cache first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    clock = Clock()
    spans = []
    for _ in range(repeats):
        clock.mark()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        spans.append((t0, time.perf_counter()))
    clock.mark()
    return [clock.scaled(*span) for span in spans], [t1 - t0 for t0, t1 in spans]


def untraced(workload, seconds: float, setup: tuple[list[float], list[float]],
              workloads_mod):
    passes = workloads_mod.run_for(workload.ops, seconds)
    per_op = workloads_mod.median_times(passes)
    wall = sum(per_op)
    latency = workloads_mod.latencies(workload.ops, per_op)
    scaled_setup, measured_setup = setup
    metrics = {
        "setup_s": statistics.median(scaled_setup),
        "wall_s": wall,
        "ops_per_s": passes[0].units / wall,
        "op_p50_ms": statistics.median(latency) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = statistics.median(p.wall_s for p in passes)
    notes = {
        "setup_s": f"median of {len(scaled_setup)} fresh interpreters running "
                   f"{SETUP_CODE!r}; measured {statistics.median(measured_setup):.4g} s",
        "wall_s": f"median of {len(passes)} passes per op, summed; measured {measured:.4g} s",
        "ops_per_s": f"{passes[0].units} checked units per pass "
                     "(verification cases for verify)",
        "op_p50_ms": f"n={len(latency)} operations, each its median over {len(passes)} passes",
    }
    if len(latency) >= 100:
        p90 = statistics.quantiles(latency, n=10)[8] * 1e3
        extra = {"op_p90_ms": (p90, f"n={len(latency)}, {len(latency) // 10} beyond")}
    else:
        extra = {"op_p90_ms": (None, f"n/a: needs >= 100 operations, have {len(latency)}")}
    return passes, metrics, notes, extra


def traced(workload, seconds: float, cpus: set[int], workloads_mod, tracer_mod):
    """Untraced passes, then traced passes, for half the time each.  For
    verify, pool passes (on every CPU) come between the two."""
    half = seconds / 2
    plain = workloads_mod.run_for(workload.ops, half)
    pool = []
    if workload.pool is not None:
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            pool = workloads_mod.run_for(workload.pool, half)
        finally:
            os.sched_setaffinity(0, pinned)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        passes = workloads_mod.run_for(workload.ops, half, tracer)
    finally:
        tracer.uninstall()
    n = len(passes)
    plain_wall = sum(workloads_mod.median_times(plain))
    traced_wall = sum(workloads_mod.median_times(passes))
    # Spans are timed raw; scale them by the traced passes' own speed so
    # that layer times compare with the scaled end-to-end times.
    scale = sum(sum(p.op_s) for p in passes) / sum(p.wall_s for p in passes)
    na = {}
    metrics = {
        "combinat.calls": tracer.calls["combinat"] / n,
        "combinat.self_s": tracer.self_s["combinat"] * scale / n,
        "combinat.max_int_bits": tracer.max_int_bits,
        "picard.terms_in": tracer.terms_in / n,
        "picard.classes_out": tracer.classes_out / n,
        "picard.merge_ratio": tracer.classes_out / tracer.terms_in if tracer.terms_in else 0.0,
        "picard.self_s": tracer.self_s["picard"] * scale / n,
        "catalog.calls": tracer.calls["catalog"] / n,
        "catalog.self_s": tracer.self_s["catalog"] * scale / n,
        "localalg.calls": tracer.calls["localalg"] / n,
        "localalg.self_s": tracer.self_s["localalg"] * scale / n,
        "restriction.self_s": tracer.self_s["restriction"] * scale / n,
        "positivity.self_s": tracer.self_s["positivity"] * scale / n,
        "cli.parse_s": tracer.inclusive["parse"] * scale / n,
        "cli.render_s": tracer.inclusive["render"] * scale / n,
        "cli.self_s": tracer.self_s["cli"] * scale / n,
        "verify.cases": 0.0,
        "verify.case_p50_ms": 0.0,
        "verify.case_max_ms": 0.0,
        "verify.self_s": tracer.self_s["verify"] * scale / n,
        "verify.pool_speedup": 0.0,
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    if not tracer.terms_in:
        na["picard.merge_ratio"] = "no Decomposition built"
    if workload.name == "verify":
        metrics["verify.cases"] = statistics.median(p.units for p in passes)
    else:
        na["verify.cases"] = "workload runs no verification case"
    if tracer.case_ms:
        metrics["verify.case_p50_ms"] = statistics.median(tracer.case_ms) * scale
        metrics["verify.case_max_ms"] = max(tracer.case_ms) * scale
    else:
        na["verify.case_p50_ms"] = na["verify.case_max_ms"] = "no verification case"
    if pool:
        pool_wall = sum(workloads_mod.median_times(pool))
        metrics["verify.pool_speedup"] = plain_wall / pool_wall
    else:
        na["verify.pool_speedup"] = "only verify runs the pool path"
    notes = {
        "trace.overhead_ratio": f"traced {traced_wall:.4f} s / untraced {plain_wall:.4f} s "
                                f"per pass ({n} traced, {len(plain)} untraced passes)",
        "picard.merge_ratio": f"classes_out {tracer.classes_out} / terms_in {tracer.terms_in}",
        "verify.case_p50_ms": f"n={len(tracer.case_ms)} cases, scaled x{scale:.3f}",
        "verify.case_max_ms": f"n={len(tracer.case_ms)} cases, scaled x{scale:.3f}",
    }
    if pool:
        notes["verify.pool_speedup"] = (f"serial {plain_wall:.4f} s / jobs=2 {pool_wall:.4f} s "
                                        f"per pass ({len(plain)} + {len(pool)} passes)")
    for name in metrics:
        if name != "trace.overhead_ratio" and name not in notes:
            notes[name] = f"per traced pass, {n} traced passes"
            if UNITS[name] in ("s", "ms"):
                notes[name] += f", scaled x{scale:.3f}"
    spans = {
        "stored": tracer.spans,
        "dropped": tracer.dropped,
    }
    return plain + pool + passes, metrics, notes, na, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink inputs for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "frobpush" / "__init__.py").is_file():
        print(f"error: no frobpush sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads as workloads_mod

    expected = workloads_mod.load_expected()
    workload = workloads_mod.BUILDERS[args.workload](args.seed, args.tiny, expected)

    # One CPU runs the work and its calibration, so the calibration sees the
    # speed the work saw.  Only the pool passes of a traced verify run use
    # every CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup = None if args.trace else measure_setup(2 if args.tiny else SETUP_REPEATS)
    if workload.warmup:
        workloads_mod.run_pass(workload.ops)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.describe}")
    print("closed loop, one caller")

    if args.trace:
        passes, metrics, notes, na, spans = traced(workload, args.seconds, cpus,
                                                   workloads_mod, tracer_mod)
        extra = {}
    else:
        passes, metrics, notes, extra = untraced(workload, args.seconds, setup,
                                                     workloads_mod)
        na, spans = {}, None

    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [why for p in passes for why in p.problems]
    for why in problems[:20]:
        print(f"  problem: {why}")
    for name, value in metrics.items():
        shown = f"n/a ({na[name]})" if name in na else f"{value:.6g} {UNITS[name]}"
        print(f"  {name:24} {shown:24} {notes.get(name, '') if name not in na else ''}")
    for name, (value, note) in extra.items():
        shown = "n/a" if value is None else f"{value:.6g} ms"
        print(f"  {name:24} {shown:24} {note}")
    print(f"  {'failed_ratio':24} {failed / attempted:.6g} {'':18} {failed} of {attempted}")

    record = {
        "machine": machine, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "metrics": metrics, "notes": notes, "not_applicable": na,
        "extra": {k: v for k, (v, _) in extra.items()},
        "passes": [{"wall_s": p.wall_s, "units": p.units, "failed": p.failed} for p in passes],
        "op_s": dict(zip((op.key for op in workload.ops),
                         workloads_mod.median_times(passes[-1:] if args.trace else passes))),
        "attempted": attempted, "failed": failed, "problems": problems[:200],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            fh.write(json.dumps({"dropped": spans["dropped"],
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in spans["stored"]:
                fh.write(json.dumps(span) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
