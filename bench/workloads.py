"""The benchmark's workloads: seeded inputs, timed passes and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A workload is a list of operations built
from the seed; a pass runs them once, in order, and the outputs are checked
after the pass so that checking never sits inside a timed region.

Checks (each failure counts one operation as failed):

* a digest of the operation's canonical output against the digest recorded
  from the seed commit in ``expected.json``;
* independent invariants: rank q^dim for pushforwards, q^dim - 1 for trace
  kernels, and the Segre splitting number against a dot product of
  ``combinat.bounded_power_coefficients`` lists computed here;
* for ``verify``, no FAIL case and exactly the recorded set of WARN cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from frobpush import catalog, cli, combinat, localalg, positivity, verify
from frobpush.combinat import PrimePower
from frobpush.picard import (
    Decomposition,
    Hirzebruch,
    Line,
    LinearBlowup,
    SegreCone,
    SegreConeBlowup,
    VeroneseCone,
)
from frobpush.positivity import Verdict

from clock import Clock

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

LADDER_RUNGS = ((3, 8), (5, 6), (2, 16))
TINY_LADDER_RUNGS = ((3, 2), (2, 3))
# Closed-form families run at any e; the O(q) families stay at q <= 3^5.
CLOSED_RUNGS = ((2, 1), (3, 2), (5, 3), (2, 16), (7, 12), (3, 40), (2, 64))
SMALL_RUNGS = ((2, 3), (3, 2), (5, 2), (2, 7), (3, 4), (7, 2), (3, 5))
TINY_CLOSED_RUNGS = ((2, 1), (3, 2))
TINY_SMALL_RUNGS = ((2, 2), (3, 1))
VERIFY_GRID = {"max_d": 3, "max_e": 4, "primes": (2, 3, 5, 7)}
TINY_VERIFY_GRID = {"max_d": 2, "max_e": 1, "primes": (2, 3)}


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` judges its output.

    ``check`` returns (units attempted, units failed, problems); a unit is
    the operation itself, or one verification case for ``verify``.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int, list[str]]]
    # Operations of one group (a ladder rung) run back to back and count as
    # one operation for latency; "" means the operation stands alone.
    group: str = ""
    # The call runs its work in worker processes.  A calibration taken in
    # this process meanwhile would measure contention with them, not the
    # machine's speed, so such a call is scaled by the marks around it only.
    parallel: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    describe: str
    # verify only: the same operations with jobs=2, which the traced run
    # times against the serial ones for verify.pool_speedup.
    pool: list[Op] | None = None
    # Run one untimed pass first (only where a pass is short).
    warmup: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# Canonical forms of library results
# ---------------------------------------------------------------------------


def _summand_key(summand) -> list:
    if isinstance(summand, Line):
        return ["line", list(summand.cls.coords)]
    return ["spinor", summand.j]


def canonical(value) -> str:
    """A stable JSON text for a decomposition, a verdict or an integer."""
    if isinstance(value, Decomposition):
        body = {
            "basis": list(value.basis),
            "support_only": value.support_only,
            "summands": sorted(
                [_summand_key(s), None if m is None else str(m)] for s, m in value.items()
            ),
        }
    elif isinstance(value, Verdict):
        witness = value.witness
        body = {
            "status": value.status.value,
            "witness": None if witness is None else {
                "summand": _summand_key(witness.summand),
                "divisor": witness.divisor,
                "multiplicity": None if witness.multiplicity is None
                else str(witness.multiplicity),
            },
            "notes": list(value.notes),
        }
    elif isinstance(value, int):
        body = str(value)
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def segre_dot(q: int, r: int, s: int) -> int:
    """Splitting number of the Segre cone over P^r x P^s, computed here as
    the dot product of the coefficient lists of (1 + t + ... + t^{q-1})^{r+1}
    and ^{s+1}."""
    left = combinat.bounded_power_coefficients(q, r + 1)
    right = combinat.bounded_power_coefficients(q, s + 1)
    return sum(a * b for a, b in zip(left, right))


def _rank(decomp: Decomposition) -> int:
    return sum(m for _, m in decomp.items())


def _digest_check(expected: dict, key: str, text: str, problems: list[str]) -> None:
    want = expected.get(key)
    if want is None:
        problems.append(f"{key}: no recorded digest")
    elif digest(text) != want:
        problems.append(f"{key}: digest {digest(text)} != recorded {want}")


def _verdict(problems: list[str]) -> tuple[int, int, list[str]]:
    return 1, int(bool(problems)), problems


# ---------------------------------------------------------------------------
# ladder: the O(q) builders and verdicts at three rungs of q
# ---------------------------------------------------------------------------


def ladder_rung(fp: PrimePower, expected: dict) -> list[Op]:
    q = fp.q
    segre12 = SegreCone(1, 2)
    veronese23 = VeroneseCone(2, 3)
    blowup31 = LinearBlowup(3, 1)
    hirzebruch3 = Hirzebruch(3)
    segre_blowup11 = SegreConeBlowup(1, 1)
    dot = {}

    def rank_is(target: int):
        return lambda out: [] if _rank(out) == target else [f"rank {_rank(out)} != {target}"]

    def segre_number(out):
        if "value" not in dot:
            dot["value"] = segre_dot(q, 1, 2)
        return [] if out == dot["value"] else [f"splitting {out} != dot {dot['value']}"]

    specs = [
        ("pushforward_hirzebruch(3)",
         lambda: catalog.pushforward_hirzebruch(3, 0, 0, fp), rank_is(q**2)),
        ("pushforward_segre_cone(1,2)",
         lambda: catalog.pushforward_segre_cone(1, 2, 0, 0, 0, fp), rank_is(q**4)),
        ("pushforward_linear_blowup(3,1)",
         lambda: catalog.pushforward_linear_blowup(3, 1, fp), rank_is(q**3)),
        ("pushforward_veronese_cone(2,3)",
         lambda: catalog.pushforward_veronese_cone(2, 3, 0, 0, fp), rank_is(q**3)),
        ("splitting_number(SegreCone(1,2))",
         lambda: localalg.splitting_number(segre12, fp), segre_number),
        ("splitting_number(VeroneseCone(2,3))",
         lambda: localalg.splitting_number(veronese23, fp), lambda out: []),
        ("trace_kernel(LinearBlowup(3,1))",
         lambda: positivity.trace_kernel(blowup31, fp), rank_is(q**3 - 1)),
        ("kernel_restriction_verdict(Hirzebruch(3))",
         lambda: positivity.kernel_restriction_verdict(hirzebruch3, fp), lambda out: []),
        ("kernel_restriction_verdict(SegreConeBlowup(1,1))",
         lambda: positivity.kernel_restriction_verdict(segre_blowup11, fp), lambda out: []),
    ]
    ops = []
    for name, call, invariant in specs:
        key = f"{name}@{fp.p}^{fp.e}"

        def check(out, key=key, invariant=invariant):
            problems = [f"{key}: {p}" for p in invariant(out)]
            _digest_check(expected, key, canonical(out), problems)
            return _verdict(problems)

        ops.append(Op(key, call, check, group=f"q={fp.p}^{fp.e}"))
    return ops


def ladder(seed: int, tiny: bool, expected: dict) -> Workload:
    """The rungs in increasing q; the seed orders the calls within a rung."""
    rng = random.Random(seed)
    ops = []
    for p, e in TINY_LADDER_RUNGS if tiny else LADDER_RUNGS:
        rung = ladder_rung(PrimePower(p, e), expected["ladder"])
        rng.shuffle(rung)
        ops += rung
    groups = ", ".join(dict.fromkeys(op.group for op in ops))
    return Workload("ladder", ops, f"{len(ops)} library calls in rungs {groups}; "
                    "an operation's latency is its rung's")


# ---------------------------------------------------------------------------
# interactive: a seeded, stratified mix of CLI calls
# ---------------------------------------------------------------------------

FORMATS = ("text", "json")


def _argv(command: str, fields: dict, p: int, e: int, fmt: str) -> tuple[str, ...]:
    argv = [command]
    for name, value in fields.items():
        argv.append(f"--{name}={value}")
    argv += [f"--p={p}", f"--e={e}", f"--format={fmt}"]
    return tuple(argv)


def _bundle(*coords: int) -> str:
    return ",".join(str(c) for c in coords)


def _decompose_closed(q: int):
    for d in (1, 2, 3, 4):
        for n in (-(q + 1), -1, 0, q + 3, 2 * q + 5):
            yield {"variety": "projspace", "d": d, "bundle": _bundle(n)}, d
    for r, s in ((1, 1), (1, 2), (2, 3)):
        for u, v in ((0, 0), (-1, q + 2), (2 * q + 1, -q - 3)):
            yield {"variety": "product", "r": r, "s": s, "bundle": _bundle(u, v)}, r + s
    for d in (3, 4, 5, 6):
        yield {"variety": "quadric", "d": d}, None
    for eps in (2, 3, 4):
        yield {"variety": "cone-p", "kind": "rnc", "eps": eps}, 2


def _decompose_small(q: int):
    for eps in range(5):
        for u, v in ((0, 0), (-1, q + 2), (q + 1, -3)):
            yield {"variety": "hirzebruch", "eps": eps, "bundle": _bundle(u, v)}, 2
    for d, r in ((2, 1), (3, 1), (3, 2)):
        yield {"variety": "blowup-linear", "d": d, "r": r}, d
    for d, eps in ((1, 2), (2, 2), (2, 3)):
        for n, nprime in ((0, 0), (1, 1)):
            yield ({"variety": "veronese-cone", "d": d, "eps": eps,
                    "bundle": _bundle(n, nprime)}, d + 1)
    for r, s in ((1, 1), (1, 2)):
        for bundle in ((0, 0, 0), (1, 0, 2)):
            yield ({"variety": "segre-cone", "r": r, "s": s, "bundle": _bundle(*bundle)},
                   r + s + 1)
    for r, s in ((1, 1), (1, 2)):
        yield {"variety": "cone-p", "kind": "segre", "r": r, "s": s}, r + s + 1
    for d, eps in ((2, 2), (1, 3), (2, 3)):
        yield {"variety": "cone-p", "kind": "veronese", "d": d, "eps": eps}, d + 1


def _kernel_closed(q: int):
    for d in (1, 2, 3):
        yield {"variety": "projspace", "d": d}, d
    for r, s in ((1, 1), (1, 2)):
        yield {"variety": "product", "r": r, "s": s}, r + s
    for d in (3, 4, 5):
        yield {"variety": "quadric", "d": d}, None


def _kernel_small(q: int):
    for eps in (1, 2, 3, 4):
        yield {"variety": "hirzebruch", "eps": eps}, 2
    for d, r in ((2, 1), (3, 1)):
        yield {"variety": "blowup-linear", "d": d, "r": r}, d
    for d, eps in ((2, 2), (1, 3)):
        yield {"variety": "veronese-cone", "d": d, "eps": eps}, d + 1
    for r, s in ((1, 1), (1, 2)):
        yield {"variety": "segre-cone", "r": r, "s": s}, r + s + 1


def _local_closed(q: int):
    for eps in (2, 3, 5):
        yield {"kind": "rnc", "eps": eps}, 2


def _local_small(q: int):
    for r, s in ((1, 1), (1, 2)):
        yield {"kind": "segre", "r": r, "s": s}, r + s + 1
    for d, eps in ((2, 2), (1, 3)):
        yield {"kind": "veronese", "d": d, "eps": eps}, d + 1


# (command, choice generator, closed form?).  Every shape a generator yields
# (its fields other than the bundle) is a stratum of its own at every rung.
STRATA = (
    ("decompose", _decompose_closed, True),
    ("decompose", _decompose_small, False),
    ("kernel", _kernel_closed, True),
    ("kernel", _kernel_small, False),
    ("local", _local_closed, True),
    ("local", _local_small, False),
)


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    command: str
    fmt: str
    q: int
    dim: int | None  # None where the output is support-only (quadrics)
    segre: tuple[int, int] | None


def interactive_pool(tiny: bool) -> list[list[CliCase]]:
    """Every CLI call the generator can draw, grouped by stratum and rung."""
    closed = TINY_CLOSED_RUNGS if tiny else CLOSED_RUNGS
    small = TINY_SMALL_RUNGS if tiny else SMALL_RUNGS
    strata = []
    for command, choices, is_closed in STRATA:
        for p, e in closed if is_closed else small:
            q = p**e
            cells: dict[tuple, list[CliCase]] = {}
            for fields, dim in choices(q):
                segre = None
                if command == "local" and fields["kind"] == "segre":
                    segre = (fields["r"], fields["s"])
                shape = tuple((k, v) for k, v in fields.items() if k != "bundle")
                for fmt in FORMATS:
                    cells.setdefault(shape, []).append(
                        CliCase(_argv(command, fields, p, e, fmt), command, fmt, q, dim, segre))
            strata.extend(cells.values())
    return strata


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_call(case: CliCase):
    """Run one CLI call; JSON output is parsed and its decomposition read
    back through ``decomposition_from_json``, as a client would."""
    code, out, err = run_cli(case.argv)
    payload = back = None
    if code == 0 and case.fmt == "json":
        payload = json.loads(out)
        if case.command in ("decompose", "kernel"):
            data = payload if case.command == "decompose" else payload["kernel"]
            back = cli.decomposition_from_json(data)
    return code, out, err, payload, back


def _json_summands(data: dict) -> list:
    return sorted(
        [[entry["kind"], entry["class"]["j"] if entry["kind"] == "spinor"
          else entry["class"]], None if entry["mult"] == "unknown" else entry["mult"]]
        for entry in data["summands"]
    )


def _check_cli(case: CliCase, output, expected: dict, dots: dict) -> list[str]:
    code, out, err, payload, back = output
    if code != 0 or err:
        return [f"exit {code}, stderr {err.strip()[:200]!r}"]
    problems: list[str] = []
    text = out if payload is None else json.dumps(payload, sort_keys=True,
                                                  separators=(",", ":"))
    _digest_check(expected, " ".join(case.argv), text, problems)
    if case.command in ("decompose", "kernel") and case.dim is not None:
        want = case.q**case.dim - (case.command == "kernel")
        if payload is None:
            rank_line = next(line for line in out.splitlines() if line.startswith("rank: "))
            got = int(rank_line.split()[1])
        else:
            data = payload if case.command == "decompose" else payload["kernel"]
            got = int(data["rank"])
            if sum(int(entry["mult"]) for entry in data["summands"]) != want:
                problems.append("summand multiplicities do not add up to the rank")
        if got != want:
            problems.append(f"rank {got} != {want}")
    if back is not None:
        data = payload if case.command == "decompose" else payload["kernel"]
        read = sorted([_summand_key(s), None if m is None else str(m)] for s, m in back.items())
        if read != _json_summands(data) or list(back.basis) != data["basis"]:
            problems.append("JSON read-back differs from the written decomposition")
    if case.command == "local":
        if payload is None:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            number, convergent = int(fields["splitting number"]), Fraction(fields["convergent"])
        else:
            number = int(payload["splitting_number"])
            conv = payload["convergent"]
            convergent = Fraction(int(conv["num"]), int(conv["den"]))
        if convergent != Fraction(number, case.q**case.dim):
            problems.append(f"convergent {convergent} != {number}/q^{case.dim}")
        if case.segre is not None:
            key = (case.q, case.segre)
            if key not in dots:
                dots[key] = segre_dot(case.q, *case.segre)
            if number != dots[key]:
                problems.append(f"splitting {number} != dot {dots[key]}")
    return problems


def interactive_cases(seed: int, tiny: bool) -> list[CliCase]:
    """The seeded mix: one call from every stratum (command, shape, rung),
    with the seed choosing its bundle and output format, then the order.
    One call per shape keeps the cost of a pass nearly the same for every
    seed."""
    rng = random.Random(seed)
    cases = [rng.choice(cell) for cell in interactive_pool(tiny)]
    rng.shuffle(cases)
    return cases


def interactive(seed: int, tiny: bool, expected: dict) -> Workload:
    recorded = expected["interactive"]
    dots: dict = {}
    ops = []
    for case in interactive_cases(seed, tiny):
        def check(output, case=case):
            problems = _check_cli(case, output, recorded, dots)
            return _verdict([f"{' '.join(case.argv)}: {p}" for p in problems])

        ops.append(Op(" ".join(case.argv), lambda case=case: _cli_call(case), check))
    return Workload("interactive", ops,
                    f"{len(ops)} cli.main calls, seeded mix of decompose/kernel/local",
                    warmup=True)


# ---------------------------------------------------------------------------
# verify: the batch suites on a fixed grid
# ---------------------------------------------------------------------------


def _verify_ops(seed: int, grid: dict, jobs: int, recorded_warn: dict) -> list[Op]:
    suites = list(verify.SUITES)
    random.Random(seed).shuffle(suites)
    ops = []
    for suite in suites:
        def call(suite=suite):
            return verify.run_suites([suite], jobs=jobs, **grid)

        def check(report, suite=suite):
            results = [res for _, rs in report for res in rs]
            problems = [f"FAIL {suite}:{res.key} {res.detail}"
                        for res in results if res.status == "FAIL"]
            warned = {f"{suite}:{res.key}" for res in results if res.status == "WARN"}
            want = set(recorded_warn.get(suite, ()))
            problems += [f"unexpected WARN {key}" for key in sorted(warned - want)]
            problems += [f"missing WARN {key}" for key in sorted(want - warned)]
            return len(results), len(problems), problems

        ops.append(Op(f"run_suites([{suite!r}], jobs={jobs})", call, check, parallel=jobs > 1))
    return ops


def verify_workload(seed: int, tiny: bool, expected: dict) -> Workload:
    grid = TINY_VERIFY_GRID if tiny else VERIFY_GRID
    recorded = expected["verify"]["tiny" if tiny else "full"]
    return Workload("verify", _verify_ops(seed, grid, 1, recorded),
                    f"verify.run_suites per suite, serial, grid {grid}, suite order from the seed",
                    pool=_verify_ops(seed, grid, 2, recorded))


BUILDERS = {
    "ladder": ladder,
    "interactive": interactive,
    "verify": verify_workload,
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # measured: the sum of the operations' times
    op_s: list[float]  # each operation's time scaled to the reference speed
    units: int
    failed: int
    problems: list[str]


def run_pass(ops: list[Op], tracer=None) -> PassResult:
    """Run every operation once, timing each; check the outputs afterwards."""
    outputs = []
    spans = []
    clock = Clock()
    parallel = any(op.parallel for op in ops)
    with contextlib.nullcontext() if parallel else clock.sampling():
        for index, op in enumerate(ops):
            clock.due()
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                outputs.append((op.call(), None))
            except Exception as exc:  # an operation that raises counts as failed
                outputs.append((None, exc))
            spans.append((t0, time.perf_counter()))
        clock.mark()
    wall = sum(clock.measured(t0, t1) for t0, t1 in spans)
    op_s = [clock.scaled(t0, t1) for t0, t1 in spans]
    units = failed = 0
    problems: list[str] = []
    for op, (out, exc) in zip(ops, outputs):
        if exc is not None:
            units, failed = units + 1, failed + 1
            problems.append(f"{op.key}: raised {exc!r}")
            continue
        n, bad, why = op.check(out)
        units, failed = units + n, failed + bad
        problems += why
    return PassResult(wall, op_s, units, failed, problems)


def run_for(ops: list[Op], seconds: float, tracer=None) -> list[PassResult]:
    """Repeat passes until ``seconds`` have elapsed (at least one pass)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_pass(ops, tracer))
    return results


def median_times(passes: list[PassResult]) -> list[float]:
    """Each operation's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.op_s for p in passes))]


def latencies(ops: list[Op], times: list[float]) -> list[float]:
    """Latency samples: each operation's time, or a whole group's."""
    totals: dict = {}
    for index, (op, t) in enumerate(zip(ops, times)):
        key = op.group or index
        totals[key] = totals.get(key, 0.0) + t
    return list(totals.values())
