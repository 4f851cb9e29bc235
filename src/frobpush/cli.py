"""Command-line surface: decompose, kernel, local, and verify subcommands.

Exit codes are a stable contract: 0 success, 1 computation-domain error
(or stdout closed early), 2 usage error (a descriptor flag the chosen family
does not declare among them).  ``kernel`` offers only the families it
answers for, and no ``--kind``.  All numeric JSON output uses decimal
strings (multiplicities, ranks) or num/den string pairs (rationals) so that
arbitrary precision survives any consumer.  Every ``--format json``
document is exactly the bytes of ``json.dumps(doc, indent=2)`` and a
newline: ASCII escapes, two-space indent, keys in the order they were built.
``_json_text`` writes them in one pass, since the stdlib runs its indenting
encoder in pure Python, and writes a decomposition straight from its stores,
one string per summand, never building ``decomposition_to_json``'s dict.
So no command imports ``json``: strings go through its C escaper, ``_json``.

``main`` builds its parser once per process and reuses it on every later
call, and the parser reads each argv once: a regular argv (exact store flags
only, see ``_Command.read``) from the subcommand's flag table, and any other
by argparse's nested parse.  Both are built from one spec (``_commands``);
argparse is imported, and its parser built, only when an argv or a
handler's usage error first needs it, so every usage error is argparse's.
``main`` refuses the one value the nested parse can store wrongly: an
explicit ``--``, read as an empty list by Python 3.12.1 and older.
``verify`` is imported only when the ``verify`` subcommand runs.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the stdlib's C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from . import families, localalg, positivity
from .combinat import PrimePower
from .errors import FrobpushError, InvalidParameterError
from .picard import DESCRIPTORS, Decomposition, Line, Spinor, VarietyDescriptor
from .positivity import Verdict

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def __getattr__(name: str):
    """``cli.json``, imported on first use: no command needs the module, but
    code outside the package may read or rebind the attribute."""
    if name == "json":
        import json

        return json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def descriptor_to_json(variety: VarietyDescriptor) -> dict:
    return {"tag": variety.tag, "params": families.descriptor_params(variety)}


def _check_object(data, what: str, keys: tuple[str, ...]) -> None:
    """Refuse ``data`` unless it is a JSON object holding ``keys``."""
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{what} JSON must be an object; got {data!r}")
    for key in keys:
        if key not in data:
            raise InvalidParameterError(f"{what} JSON lacks {key!r}")


def descriptor_from_json(data: dict) -> VarietyDescriptor:
    _check_object(data, "variety", ("tag", "params"))
    tag, params = data["tag"], data["params"]
    if not isinstance(tag, str) or tag not in families.FAMILIES:
        raise FrobpushError(f"unknown variety tag {tag!r}")
    if not isinstance(params, dict):
        raise InvalidParameterError(f"variety params must be an object; got {params!r}")

    def value(name: str):
        if name not in params:
            raise InvalidParameterError(f"variety {tag!r} lacks parameter {name!r}")
        arg = params[name]
        # ``kind`` is a tag of CONE_KINDS, checked by ``build_descriptor``;
        # every other parameter is a JSON integer.
        if name != "kind" and type(arg) is not int:
            raise InvalidParameterError(
                f"variety {tag!r} parameter {name!r} must be an integer; got {arg!r}"
            )
        return arg

    return families.build_descriptor(families.FAMILIES[tag], value)


def _line_json(coords: tuple[int, ...]) -> dict:
    return {"kind": "line", "class": list(coords)}


def _spinor_json(j: int) -> dict:
    return {"kind": "spinor", "class": {"j": j}}


def _summand_to_json(summand) -> dict:
    """The ``kind`` and ``class`` of a verdict witness, as
    ``decomposition_to_json`` writes them for each summand."""
    if isinstance(summand, Line):
        return _line_json(summand.cls.coords)
    return _spinor_json(summand.j)


def _mult_text(mult: int | None) -> str:
    return "unknown" if mult is None else str(mult)


def decomposition_to_json(decomp: Decomposition) -> dict:
    summands = []
    for coords, mult in sorted(decomp.lines.items(), reverse=True):
        summand = _line_json(coords)
        summand["mult"] = _mult_text(mult)
        summands.append(summand)
    for j, mult in sorted(decomp.spinors.items(), reverse=True):
        summand = _spinor_json(j)
        summand["mult"] = _mult_text(mult)
        summands.append(summand)
    rank = None if decomp.support_only else str(decomp.rank())
    return {
        "variety": descriptor_to_json(decomp.variety),
        "basis": list(decomp.basis),
        "summands": summands,
        "rank": rank,
    }


# Below the 4300-digit cap that Python 3.11+ puts on int(str) by default.
_DIGITS = 4000


def _decimal(raw) -> int:
    """The value of a string of ASCII digits, also one longer than the
    interpreter's int/str digit cap: it is read in chunks below the cap."""
    if not (isinstance(raw, str) and raw.isascii() and raw.isdigit()):
        raise ValueError(raw)
    if len(raw) <= _DIGITS:
        return int(raw)
    value = 0
    for start in range(0, len(raw), _DIGITS):
        chunk = raw[start:start + _DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _summand_from_json(entry: dict) -> tuple[object, int | None]:
    """A summand as the ``Decomposition`` constructor takes it: a coordinate
    tuple for a line, a ``Spinor`` for a spinor twist."""
    _check_object(entry, "summand", ("kind", "class", "mult"))
    kind, cls, raw = entry["kind"], entry["class"], entry["mult"]
    try:
        mult = None if raw == "unknown" else _decimal(raw)
    except ValueError:
        raise InvalidParameterError(
            f"summand mult must be a decimal string or 'unknown'; got {raw!r}"
        ) from None
    if kind == "line":
        if not (isinstance(cls, list) and all(type(c) is int for c in cls)):
            raise InvalidParameterError(
                f"line summand class must be a list of integers; got {cls!r}"
            )
        return tuple(cls), mult
    if kind == "spinor":
        j = cls.get("j") if isinstance(cls, dict) else None
        if type(j) is not int:
            raise InvalidParameterError(f"spinor summand class needs an integer 'j'; got {cls!r}")
        return Spinor(j), mult
    raise InvalidParameterError(f"unknown summand kind {kind!r}")


def decomposition_from_json(data: dict) -> Decomposition:
    """Read back ``decomposition_to_json``.  ``rank`` is required: null
    marks a support-only decomposition, and any other value must be the
    decimal rank of the summands read back."""
    _check_object(data, "decomposition", ("variety", "basis", "summands", "rank"))
    variety = descriptor_from_json(data["variety"])
    basis, summands, rank = data["basis"], data["summands"], data["rank"]
    if not (isinstance(basis, list) and all(isinstance(name, str) for name in basis)):
        raise InvalidParameterError(f"basis must be a list of generator names; got {basis!r}")
    if not isinstance(summands, list):
        raise InvalidParameterError(f"summands must be a list; got {summands!r}")
    items = [_summand_from_json(entry) for entry in summands]
    seen = set()
    for summand, _ in items:
        if summand in seen:  # the writer lists each class once
            if isinstance(summand, Spinor):
                label = _spinor_label(summand.j)
            else:
                label = _line_label(summand)
            raise InvalidParameterError(f"summands repeat the class {label}")
        seen.add(summand)
    if rank is None:
        return Decomposition(variety, items, basis=tuple(basis), support_only=True)
    if any(mult is None for _, mult in items):
        raise InvalidParameterError("a decomposition with unknown multiplicities has rank null")
    try:
        stated = _decimal(rank)
    except ValueError:
        raise InvalidParameterError(
            f"rank must be a decimal string or null; got {rank!r}"
        ) from None
    decomp = Decomposition(variety, items, basis=tuple(basis))
    if decomp.rank() != stated:
        raise InvalidParameterError("rank differs from the rank of the summands read back")
    return decomp


_INF = float("inf")


def _float_text(value: float) -> str:
    """A float as the stdlib writes it, non-finite values included."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value) -> str:
    """A JSON scalar as the stdlib writes it: ``True`` and ``False`` before
    ``int`` (``bool`` is a subclass of it), ints through ``int.__repr__``
    (so the int/str digit cap applies as it does in the stdlib), strings
    through the stdlib's C escaper; anything else raises ``TypeError``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return _float_text(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _decomposition_text(decomp: Decomposition, newline: str) -> str:
    """``decomposition_to_json(decomp)`` as ``_json_text`` writes it where
    ``newline`` (a line break and the indent) opens its line, written from
    ``decomp``'s stores in the schema's fixed layout, one string per
    summand.  Every descriptor declares a field and a basis of at least one
    name, so only ``summands`` can be empty."""
    i1 = newline + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    params = ",".join(
        i3 + _quote(name) + ": " + _scalar_text(value)
        for name, value in families.descriptor_params(decomp.variety).items()
    )
    close = '"' + i2 + "}"
    head = i2 + "{" + i3 + '"kind": "line",' + i3 + '"class": [' + i4
    comma = "," + i4
    tail = i3 + "]," + i3 + '"mult": "'
    summands = [
        head + comma.join(map(int.__repr__, coords)) + tail + _mult_text(mult) + close
        for coords, mult in sorted(decomp.lines.items(), reverse=True)
    ]
    head = i2 + "{" + i3 + '"kind": "spinor",' + i3 + '"class": {' + i4 + '"j": '
    tail = i3 + "}," + i3 + '"mult": "'
    summands += [
        head + int.__repr__(j) + tail + _mult_text(mult) + close
        for j, mult in sorted(decomp.spinors.items(), reverse=True)
    ]
    summands_text = "[" + ",".join(summands) + i1 + "]" if summands else "[]"
    rank = "null" if decomp.support_only else '"' + str(decomp.rank()) + '"'
    return (
        "{" + i1 + '"variety": {' + i2 + '"tag": ' + _quote(decomp.variety.tag) + ","
        + i2 + '"params": {' + params + i2 + "}" + i1 + "},"
        + i1 + '"basis": [' + i2 + ("," + i2).join(map(_quote, decomp.basis)) + i1 + "],"
        + i1 + '"summands": ' + summands_text + ","
        + i1 + '"rank": ' + rank + newline + "}"
    )


def _json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, in one recursive pass, where a
    ``Decomposition`` at any depth stands for ``decomposition_to_json`` of
    it (``_decomposition_text``).

    ``doc`` holds only such decompositions and the exact types ``str``,
    ``int``, ``float``, ``bool``, ``None``, ``list``, ``tuple`` and ``dict``
    with ``str`` keys; anything else raises ``TypeError``.  Scalars are
    written by ``_scalar_text``.
    """
    parts: list[str] = []
    append = parts.append

    def write(value, newline: str) -> None:
        kind = type(value)
        if kind is dict:
            if not value:
                append("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                append(sep + _quote(key) + ": ")
                write(item, inner)
                sep = "," + inner
            append(newline + "}")
        elif kind is list or kind is tuple:
            if not value:
                append("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(newline + "]")
        elif kind is Decomposition:
            append(_decomposition_text(value, newline))
        else:
            append(_scalar_text(value))

    write(doc, "\n")
    return "".join(parts)


def verify_suite_to_json(suite: str, results: list) -> dict:
    """One suite of a ``verify`` run: every case, then the suite's totals;
    the totals' ``seconds`` is the sum of its cases' times."""
    counts = Counter(res.status for res in results)
    cases = [
        {"key": res.key, "status": res.status, "detail": res.detail, "seconds": res.seconds}
        for res in results
    ]
    totals = {
        "passed": counts["PASS"],
        "warnings": counts["WARN"],
        "failed": counts["FAIL"],
        "cases": len(results),
        "seconds": sum(res.seconds for res in results),
    }
    return {"suite": suite, "cases": cases, "totals": totals}


def _fraction_json(value) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def verdict_to_json(verdict: Verdict) -> dict:
    witness: dict | None = None
    if verdict.witness is not None:
        w = verdict.witness
        witness = {
            "summand": _summand_to_json(w.summand),
            "divisor": w.divisor,
            "multiplicity": None if w.multiplicity is None else str(w.multiplicity),
        }
    return {"status": verdict.status.value, "witness": witness, "notes": list(verdict.notes)}


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _line_label(coords: tuple[int, ...]) -> str:
    if not any(coords):
        return "O"
    return "O(" + ",".join(map(str, coords)) + ")"


def _spinor_label(j: int) -> str:
    return f"S({j})"


def class_label(summand) -> str:
    if isinstance(summand, Spinor):
        return _spinor_label(summand.j)
    return _line_label(summand.cls.coords)


def render_decomposition(decomp: Decomposition) -> str:
    params = families.descriptor_params(decomp.variety)
    lines = [
        f"variety: {decomp.variety.tag}{{"
        + ", ".join(f"{_quote(name)}: {_scalar_text(params[name])}" for name in sorted(params))
        + "}",
        "basis: " + ", ".join(decomp.basis),
    ]
    for coords, mult in sorted(decomp.lines.items(), reverse=True):
        lines.append(f"  {_line_label(coords)}: {_mult_text(mult)}")
    for j, mult in sorted(decomp.spinors.items(), reverse=True):
        lines.append(f"  {_spinor_label(j)}: {_mult_text(mult)}")
    rank = "unknown" if decomp.support_only else str(decomp.rank())
    lines.append(f"rank: {rank}")
    return "\n".join(lines)


def render_verdict(verdict: Verdict) -> str:
    parts = [f"verdict: {verdict.status.value}"]
    if verdict.witness is not None:
        w = verdict.witness
        where = f" on {w.divisor}" if w.divisor else ""
        mult = f" x{w.multiplicity}" if w.multiplicity is not None else ""
        parts.append(f"  witness{where}: {class_label(w.summand)}{mult}")
    for note in verdict.notes:
        parts.append(f"  note: {note}")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

VARIETIES = tuple(families.FAMILIES)

# The families ``kernel`` answers for, as ``positivity.kernel_verdict`` does.
KERNEL_VARIETIES = positivity.KERNEL_FAMILIES

# The integer descriptor flags: every declared field but ``kind``, in the
# order of the declarations.
FIELDS = tuple(dict.fromkeys(
    name for cls in DESCRIPTORS for name in cls.__slots__ if name != "kind"
))


def _parse_bundle(parser: _Command, raw: str | None, arity: int) -> list[int]:
    if raw is None:
        return [0] * arity
    try:
        values = [int(part) for part in raw.split(",")]
    except ValueError:
        parser.error(f"--bundle must be a comma-separated integer list; got {raw!r}")
    if len(values) != arity:
        parser.error(f"--bundle needs {arity} coordinate(s); got {len(values)}")
    return values


def _descriptor(parser: _Command, args, cls: type, flag: str):
    """Build ``cls`` from the flags named after its fields; ``flag`` is the
    flag that selected ``cls``.  A descriptor flag that is neither ``flag``
    nor a field of ``cls`` (or of a cone-p's kind) is a usage error."""
    label = f"--{flag} {getattr(args, flag)}"

    def value(name: str):
        got = getattr(args, name)
        if got is None:
            parser.error(f"--{name} is required for {label}")
        return got

    declared, where = {flag, *cls.__slots__}, label
    if "kind" in cls.__slots__:
        where += f" --kind {value('kind')}"
        declared.update(families.CONE_KINDS[args.kind].__slots__)
    for name in ("kind", *FIELDS):  # a kernel namespace has no ``kind``
        if name not in declared and getattr(args, name, None) is not None:
            parser.error(f"--{name} is not a parameter of {where}")
    return families.build_descriptor(cls, value)


def _require_zero(parser: _Command, bundle: list[int], what: str) -> None:
    if any(bundle):
        zeros = ",".join("0" * len(bundle))
        parser.error(f"{what} supports only --bundle {zeros}")


def _build_decomposition(parser: _Command, args, fp: PrimePower) -> Decomposition:
    cls = families.FAMILIES[args.variety]
    bundle = _parse_bundle(parser, args.bundle, len(cls.bases[0]))
    if cls.structure_only:
        _require_zero(parser, bundle, f"--variety {args.variety}")
    variety = _descriptor(parser, args, cls, "variety")
    return families.build(variety, tuple(bundle), fp)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_decompose(parser: _Command, args) -> int:
    fp = PrimePower(args.p, args.e)
    decomp = _build_decomposition(parser, args, fp)
    if args.format == "json":
        print(_json_text(decomp))
    else:
        print(render_decomposition(decomp))
    return EXIT_OK


def cmd_kernel(parser: _Command, args) -> int:
    fp = PrimePower(args.p, args.e)
    cls = families.FAMILIES[args.variety]
    # The trace kernel is always that of O (the canonical twist on quadrics).
    _require_zero(parser, _parse_bundle(parser, args.bundle, len(cls.bases[0])), "kernel")
    kernel, verdict = positivity.kernel_verdict(_descriptor(parser, args, cls, "variety"), fp)
    if isinstance(verdict, positivity.QuadricKernelReport):
        if args.format == "json":
            payload = {
                "kernel": kernel,
                "support_verdict": verdict_to_json(verdict.support_verdict),
                "stated_verdict": verdict_to_json(verdict.stated_verdict),
                "disagreement": verdict.disagreement,
                "notes": list(verdict.notes),
            }
            print(_json_text(payload))
        else:
            print(render_decomposition(kernel))
            print("support " + render_verdict(verdict.support_verdict))
            print("stated " + render_verdict(verdict.stated_verdict))
            for note in verdict.notes:
                print(f"note: {note}")
            if verdict.disagreement:
                print("WARNING: the two verdicts disagree")
    elif args.format == "json":
        payload = {
            "kernel": kernel,
            "verdict": verdict_to_json(verdict),
        }
        print(_json_text(payload))
    else:
        print(render_decomposition(kernel))
        print(render_verdict(verdict))
    return EXIT_OK


def cmd_local(parser: _Command, args) -> int:
    fp = PrimePower(args.p, args.e)
    kind = _descriptor(parser, args, families.CONE_KINDS[args.kind], "kind")
    number = localalg.splitting_number(kind, fp)
    convergent = localalg.f_signature_convergent(kind, fp, number)
    signature = localalg.f_signature(kind)
    if args.format == "json":
        payload = {
            "splitting_number": str(number),
            "convergent": _fraction_json(convergent),
            "f_signature": _fraction_json(signature),
        }
        print(_json_text(payload))
    else:
        print(f"splitting number: {number}")
        print(f"convergent: {convergent}")
        print(f"f-signature: {signature}")
    return EXIT_OK


def cmd_verify(parser: _Command, args) -> int:
    from . import verify  # only this subcommand needs the suites

    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for flag, value in (("max-d", args.max_d), ("max-e", args.max_e), ("jobs", args.jobs)):
        if value < 1:  # a grid of no cases, or no workers, checks nothing
            parser.error(f"--{flag} must be at least 1; got {value}")
    try:
        primes = tuple(int(p) for p in args.primes.split(","))
    except ValueError:
        parser.error(f"--primes must be a comma-separated integer list; got {args.primes!r}")
    for p in primes:
        PrimePower(p, 1)  # reject a non-prime once, before it fails every case
    report = verify.run_suites(
        suites, max_d=args.max_d, max_e=args.max_e, primes=primes, jobs=args.jobs
    )
    failed = sum(res.status == "FAIL" for _, results in report for res in results)
    if args.format == "json":
        payload = {"suites": [verify_suite_to_json(suite, results) for suite, results in report]}
        print(_json_text(payload))
    else:
        for suite, results in report:
            counts = Counter(res.status for res in results)
            for res in results:
                if res.status != "PASS" or args.verbose:
                    print(f"{res.status:4} {suite}:{res.key}  {res.detail}")
            print(
                f"suite {suite}: {counts['PASS']} passed, {counts['WARN']} warnings, "
                f"{counts['FAIL']} failed ({len(results)} cases)"
            )
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# The flag spec: its tables, and its argparse parser for every other argv
# ---------------------------------------------------------------------------


def _descriptor_flags(varieties: tuple[str, ...] = ()) -> list:
    """The flags of a subcommand that builds a descriptor: ``--variety``
    from ``varieties`` and ``--bundle`` where it has them (with ``--kind``
    where one of them holds a cone kind), each declared field, p, e and
    the format."""
    flags = []
    if varieties:
        flags.append(("--variety", {"choices": varieties, "required": True}))
        if any("kind" in families.FAMILIES[tag].__slots__ for tag in varieties):
            flags.append(("--kind", {"choices": tuple(families.CONE_KINDS)}))
        flags.append(("--bundle", {"help": "bundle coordinates, e.g. '0' or '0,1'; write a "
                                           "negative first coordinate as --bundle=-1,0"}))
    flags += [(f"--{name}", {"type": int}) for name in FIELDS]
    flags += [("--p", {"type": int, "required": True, "help": "characteristic (prime)"}),
              ("--e", {"type": int, "required": True, "help": "Frobenius exponent"}),
              ("--format", {"choices": ("text", "json"), "default": "text"})]
    return flags


def _commands() -> dict:
    """The spec: each subcommand's handler, help line and flags, each flag
    as ``add_argument`` takes it.  A flag with no ``action`` stores one
    value.  It is built with each parser, so the parser calls the handlers
    bound at that time, rebound ones (traced, say) included."""
    return {
        "decompose": (cmd_decompose, "print a pushforward decomposition",
                      _descriptor_flags(VARIETIES)),
        "kernel": (cmd_kernel, "print the trace kernel and its verdict",
                   _descriptor_flags(KERNEL_VARIETIES)),
        "local": (cmd_local, "splitting number, convergent, F-signature",
                  [("--kind", {"choices": tuple(families.CONE_KINDS), "required": True}),
                   *_descriptor_flags()]),
        "verify": (cmd_verify, "run the batch verification suites", [
            # verify.SUITES + ("all",), spelled out so that building the
            # parser does not import verify.
            ("--suite", {"choices": ("identities", "oracles", "fixtures", "all"),
                         "required": True}),
            ("--max-d", {"type": int, "default": 3}),
            ("--max-e", {"type": int, "default": 2}),
            ("--primes", {"default": "2,3,5"}),
            ("--jobs", {"type": int, "default": 1}),
            ("--verbose", {"action": "store_true", "default": False,
                           "help": "print passing cases too"}),
            ("--format", {"choices": ("text", "json"), "default": "text",
                          "help": "json: every case with its time, and per-suite totals"}),
        ]),
    }


class _Command:
    """One subcommand's flag table: its flags by option string, each with
    its ``dest``, and every destination's value before any flag is read.
    It is also the handle through which a handler reports a usage error:
    ``args.parser.error``, printed by the subcommand's argparse parser."""

    def __init__(self, root: _Parser, name: str, handler, help: str, flags: list) -> None:
        self.root, self.handler, self.help = root, handler, help
        self.flags = {option: {"dest": option[2:].replace("-", "_"), **kwargs}
                      for option, kwargs in flags}
        self.defaults = {"command": name, "handler": handler, "parser": self}
        self.defaults.update((flag["dest"], flag.get("default"))
                             for flag in self.flags.values())
        # The store flags, which take one value each, and the required ones.
        self.options = {option: flag for option, flag in self.flags.items()
                        if "action" not in flag}
        self.required = {option for option, flag in self.options.items()
                         if flag.get("required")}
        self._nested = None  # set by the root's ``nested``

    def read(self, argv: list[str]) -> SimpleNamespace | None:
        """The namespace argparse gives a regular argv, else None.  Regular:
        exact store flags only, each ``--flag=value`` or ``--flag value`` with
        a value not starting with ``-``, no value ``--``, each value passing
        its ``type`` and ``choices``, and every required flag given; the last
        of a repeated flag wins, as in argparse."""
        values, seen, tokens = dict(self.defaults), set(), iter(argv)
        for token in tokens:
            option, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, "-")  # no value left reads as a flag
            flag = self.options.get(option)
            # argparse 3.12.1 and older read a value "--" as no value at all.
            if flag is None or value == "--" or not eq and value.startswith("-"):
                return None
            kind = flag.get("type")
            try:
                value = value if kind is None else kind(value)
            except ValueError:
                return None
            choices = flag.get("choices")
            if choices is not None and value not in choices:
                return None
            values[flag["dest"]] = value
            seen.add(option)
        return SimpleNamespace(**values) if seen.issuperset(self.required) else None

    def nested(self):
        """The subcommand's argparse parser, built with the root's."""
        self.root.nested()
        return self._nested

    def error(self, message: str):
        """Print the subcommand's usage and ``message`` and exit 2, by its
        argparse parser."""
        self.nested().error(message)


class _Parser:
    """The ``frobpush`` parser, which parses each argv once.

    When ``argv[0]`` names a subcommand and the rest of argv is regular
    (``_Command.read``), that subcommand's flag table reads it, without
    argparse.  Every other argv takes argparse's nested parse (``nested``):
    an empty argv, ``-h``, an unknown or misplaced subcommand, and any
    irregular rest.  So every usage error is argparse's, printed by the
    parser that prints it in the nested parse.
    """

    def __init__(self) -> None:
        self.commands = {name: _Command(self, name, *entry)
                         for name, entry in _commands().items()}
        self._nested = None

    def nested(self):
        """The argparse parser of the same spec, built on first use; each
        subcommand's ``nested`` is its parser in it."""
        if self._nested is None:
            import argparse  # a regular argv never needs it

            nested = argparse.ArgumentParser(
                prog="frobpush",
                description="Exact Frobenius pushforward decompositions, trace-kernel "
                "positivity verdicts, and F-signature arithmetic.",
            )
            sub = nested.add_subparsers(dest="command", required=True)
            for name, command in self.commands.items():
                parser = sub.add_parser(name, help=command.help)
                parser.set_defaults(handler=command.handler, parser=command)
                for option, flag in command.flags.items():
                    parser.add_argument(option, **flag)
                command._nested = parser
            self._nested = nested
        return self._nested

    def parse_args(self, args=None):
        argv = sys.argv[1:] if args is None else list(args)
        command = self.commands.get(argv[0]) if argv else None
        parsed = None if command is None else command.read(argv[1:])
        return self.nested().parse_args(argv) if parsed is None else parsed


def build_parser() -> _Parser:
    """The ``frobpush`` parser: a flag table per subcommand, built from the
    spec, and argparse's parser of the same spec, built when first needed.
    Its ``parse_args`` parses argv once, by one of two routes (see
    ``_Parser``), so a caller that wraps ``parse_args`` still sees every
    parse."""
    return _Parser()


# One parser per builder.  ``main`` looks ``build_parser`` up when it is
# called, so a caller that rebinds ``cli.build_parser`` (to wrap
# ``parse_args``, say) gets a parser of its own builder, built once.
_PARSERS: dict = {}


def main(argv: list[str] | None = None) -> int:
    builder = build_parser
    parser = _PARSERS.get(builder)
    if parser is None:
        parser = _PARSERS[builder] = builder()
    args = parser.parse_args(argv)
    # argparse 3.12.1 and older store an explicit value "--" (``--bundle=--``)
    # as an empty list: refuse it, as a store flag takes one argument.  A flag
    # table declines that value, so only argparse's namespace can hold one.
    if not isinstance(args, SimpleNamespace):
        for option, flag in args.parser.options.items():
            if isinstance(getattr(args, flag["dest"]), list):
                args.parser.error(f"argument {option}: expected one argument")
    # Multiplicities may exceed the interpreter's int/str digit cap (4300
    # digits by default from Python 3.11; 0 means none): lift it while the
    # command runs.  Flags are parsed under the cap, so an integer flag of
    # more digits stays a usage error.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args.parser, args)
        sys.stdout.flush()  # a reader that closed the pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the interpreter's flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_DOMAIN
    except FrobpushError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
