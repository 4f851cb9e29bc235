"""Tests for the command line: output fixtures, JSON round-trips, exit codes."""

import contextlib
import hashlib
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobpush import cli, families, verify
from frobpush.catalog import (
    pushforward_hirzebruch,
    pushforward_linear_blowup,
    pushforward_product,
    pushforward_projective_space,
    pushforward_segre_cone,
    pushforward_veronese_cone,
    quadric_pushforward_support,
)
from frobpush.combinat import PrimePower
from frobpush.errors import FrobpushError, InvalidParameterError
from frobpush.localalg import cone_pushforward
from frobpush.picard import (
    Decomposition,
    Hirzebruch,
    LinearBlowup,
    Product,
    ProjSpace,
    Quadric,
    RationalNormalCone,
    SegreCone,
    SegreConeBlowup,
    VeroneseCone,
    VeroneseConeBlowup,
    change_basis,
)


# The subprocesses' environment: the source tree on the path, and stdout
# block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set.
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``cli.main`` call, usage errors
    (which exit through ``SystemExit``) included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(capsys, *argv):
    return outcome(capsys, argv)


@contextlib.contextmanager
def digit_cap(digits):
    """Run with the interpreter's int/str digit cap set to ``digits``."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit cap")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# Descriptor flags of a small member of each family and cone kind.
PARAMS = {
    "projspace": ("--d", "2"), "product": ("--r", "1", "--s", "2"), "hirzebruch": ("--eps", "2"),
    "blowup-linear": ("--d", "3", "--r", "1"), "veronese-cone": ("--d", "1", "--eps", "2"),
    "segre-cone": ("--r", "1", "--s", "1"), "quadric": ("--d", "3"),
    "rnc": ("--eps", "3"), "veronese": ("--d", "2", "--eps", "3"),
    "segre": ("--r", "1", "--s", "2"),
}


class TestDecompose:
    def test_projspace_fixture(self, capsys):
        # Reconciled P^2 row at q=3: the middle multiplicity is
        # C(q+2,2) - 3 = 7 (the row must sum to q^2 = 9).
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "projspace", "--d", "2",
            "--bundle", "0", "--p", "3", "--e", "1",
        )
        assert code == 0
        assert "O: 1" in out
        assert "O(-1): 7" in out
        assert "O(-2): 1" in out
        assert "rank: 9" in out

    def test_quadric_support_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "quadric", "--d", "3", "--p", "2", "--e", "1",
        )
        assert code == 0
        assert "O: 1" in out
        assert "unknown" in out
        assert "S(1): unknown" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "hirzebruch", "--eps", "1",
            "--bundle", "0,0", "--p", "2", "--e", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variety"]["tag"] == "hirzebruch"
        assert payload["rank"] == "4"
        assert all(isinstance(s["mult"], str) for s in payload["summands"])

    def test_text_and_json_agree(self, capsys):
        args = ["decompose", "--variety", "projspace", "--d", "2", "--bundle", "4",
                "--p", "3", "--e", "1"]
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(json_out)
        for summand in payload["summands"]:
            coords = summand["class"]
            label = "O" if not any(coords) else "O(" + ",".join(map(str, coords)) + ")"
            assert f"{label}: {summand['mult']}" in text_out


class TestConePDecompose:
    def test_rnc_classes(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "cone-p", "--kind", "rnc",
            "--eps", "2", "--p", "3", "--e", "1",
        )
        assert code == 0
        assert "O: 5" in out       # 1 + sigma_2 at q=3
        assert "O(-1): 4" in out   # q - 1 + sigma_1 + sigma_3
        assert "rank: 9" in out

    def test_veronese_q_below_eps(self, capsys):
        # q = 2 < eps = 5: the box [0, 1]^3 has 1, 3, 3, 1 points of degree
        # 0, 1, 2, 3 modulo 5, and -k*L takes those of degree 2k.
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "cone-p", "--kind", "veronese",
            "--d", "2", "--eps", "5", "--p", "2", "--e", "1",
        )
        assert code == 0
        assert out.splitlines()[2:] == ["  O: 1", "  O(-1): 3", "  O(-3): 3", "  O(-4): 1", "rank: 8"]

    def test_rejects_twist(self, capsys):
        argv = ["decompose", "--variety", "cone-p", "--kind", "rnc", "--eps", "2", "--bundle", "1",
                "--p", "3", "--e", "1"]
        assert outcome(capsys, argv)[0] == 2

    def test_negative_bundle_needs_equals(self, capsys):
        # argparse reads a value that starts with "-" as a flag unless the
        # value is joined to its option by "=".
        argv = ["decompose", "--variety", "hirzebruch", "--eps", "1", "--p", "2", "--e", "1"]
        code, out, _ = outcome(capsys, [*argv, "--bundle=-1,0"])
        assert code == 0
        assert "  O(-1,0): 1" in out.splitlines()
        assert "  O(-1,-1): 3" in out.splitlines()
        code, out, err = outcome(capsys, [*argv, "--bundle", "-1,0"])
        assert code == 2 and not out
        assert "expected one argument" in err and "Traceback" not in err


class TestKernel:
    def test_projspace_ample(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--variety", "projspace", "--d", "3", "--p", "2", "--e", "1",
        )
        assert code == 0
        assert "verdict: Ample" in out

    def test_hirzebruch_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--variety", "hirzebruch", "--eps", "2", "--p", "3", "--e", "1",
        )
        assert code == 0
        assert "NotAmpleWithWitness" in out
        assert "witness on C0: O x5" in out

    def test_hirzebruch_eps0_restricts(self, capsys):
        # Hirzebruch(0) is P^1 x P^1, whose twists are equal, yet it keeps
        # the restriction route to C0 rather than the coordinate-wise verdict.
        argv = ["kernel", "--variety", "hirzebruch", "--eps", "0", "--p", "3", "--e", "1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "verdict: NotAmpleWithWitness" in out
        assert "witness on C0: O x3" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"]["witness"]["divisor"] == "C0"

    def test_quadric_p3_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--variety", "quadric", "--d", "3", "--p", "3", "--e", "1",
        )
        assert code == 0
        assert "Ample" in out
        assert "S(2)" in out  # the (e,p)=(1,3) exclusion note

    def test_quadric_p2_d4_warns(self, capsys):
        code, out, _ = run_cli(
            capsys, "kernel", "--variety", "quadric", "--d", "4", "--p", "2", "--e", "1",
        )
        assert code == 0
        assert "disagree" in out

    SPLIT_FLAGS = {tag: PARAMS[tag] for tag in ("projspace", "product", "hirzebruch",
                                                "blowup-linear", "veronese-cone", "segre-cone")}

    def test_split_flags_cover_the_registry(self):
        split = {tag for tag, cls in families.FAMILIES.items() if cls.split}
        assert set(self.SPLIT_FLAGS) == split

    @pytest.mark.parametrize("tag", sorted(SPLIT_FLAGS))
    def test_builds_the_pushforward_once(self, capsys, monkeypatch, tag):
        """One F^e_* O per call, whether or not the verdict restricts it."""
        module, name = families.FAMILIES[tag].builder.split(".")
        module = importlib.import_module(f"frobpush.{module}")
        builder = getattr(module, name)
        calls = []

        def counting_builder(*args):
            calls.append(args)
            return builder(*args)

        monkeypatch.setattr(module, name, counting_builder)
        code, _, err = run_cli(capsys, "kernel", "--variety", tag, *self.SPLIT_FLAGS[tag],
                               "--p", "3", "--e", "1")
        assert (code, err) == (0, "")
        assert len(calls) == 1


class TestLocal:
    def test_segre_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "local", "--kind", "segre", "--r", "1", "--s", "1", "--p", "2", "--e", "1",
        )
        assert code == 0
        assert "splitting number: 6" in out
        assert "convergent: 3/4" in out
        assert "f-signature: 2/3" in out

    def test_veronese_signature(self, capsys):
        code, out, _ = run_cli(
            capsys, "local", "--kind", "veronese", "--d", "2", "--eps", "3",
            "--p", "7", "--e", "1",
        )
        assert code == 0
        assert "f-signature: 1/3" in out

    def test_veronese_d1_matches_rnc_below_regime(self, capsys):
        # q = 2 < eps = 5: the d = 1 Veronese cone is the rational normal cone.
        fields = ("--eps", "5", "--p", "2", "--e", "1")
        veronese = run_cli(capsys, "local", "--kind", "veronese", "--d", "1", *fields)
        rnc = run_cli(capsys, "local", "--kind", "rnc", *fields)
        assert veronese == rnc
        code, out, _ = veronese
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_veronese_d2_q_below_eps_answers(self, capsys):
        # q = 2 < eps = 5: of the box [0, 1]^3 only the origin has degree 0
        # modulo 5.
        code, out, _ = run_cli(
            capsys, "local", "--kind", "veronese", "--d", "2", "--eps", "5",
            "--p", "2", "--e", "1",
        )
        assert code == 0
        assert "splitting number: 1" in out
        assert "convergent: 1/8" in out

    def test_rnc_k0_splitting(self, capsys):
        code, out, _ = run_cli(
            capsys, "local", "--kind", "rnc", "--eps", "2", "--p", "2", "--e", "3",
        )
        assert code == 0
        assert "splitting number: 32" in out

    def test_segre_large_e(self, capsys):
        # q = 2^64: the sum over residues is taken by pieces, not j by j.
        q = 2**64
        code, out, _ = run_cli(
            capsys, "local", "--kind", "segre", "--r", "1", "--s", "1",
            "--p", "2", "--e", "64", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        number = int(payload["splitting_number"])
        convergent = Fraction(int(payload["convergent"]["num"]), int(payload["convergent"]["den"]))
        assert convergent == Fraction(number, q**3)
        assert abs(convergent - Fraction(2, 3)) < Fraction(1, q)

    def test_json_num_den(self, capsys):
        code, out, _ = run_cli(
            capsys, "local", "--kind", "segre", "--r", "1", "--s", "1",
            "--p", "2", "--e", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["splitting_number"] == "6"
        assert payload["convergent"] == {"num": "3", "den": "4"}
        assert payload["f_signature"] == {"num": "2", "den": "3"}


class TestLargeE:
    def test_hirzebruch_e40(self, capsys):
        q = 2**40
        code, out, _ = run_cli(
            capsys, "decompose", "--variety", "hirzebruch", "--eps", "3",
            "--p", "2", "--e", "40", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert int(payload["rank"]) == q**2
        assert sum(int(s["mult"]) for s in payload["summands"]) == q**2


class TestBigIntegers:
    """Multiplicities past the 4300-digit int/str cap of Python 3.11+: the
    CLI lifts the cap while it runs, and the JSON reader needs no lift."""

    E = 10_000  # rank q^2 = 4^10000 has 6021 digits
    ARGV = ("decompose", "--variety", "projspace", "--d", "2", "--p", "2", "--e", str(E))

    def expected(self):
        return pushforward_projective_space(2, 0, PrimePower(2, self.E))

    def test_text_output(self, capsys):
        with digit_cap(4300):
            code, out, err = run_cli(capsys, *self.ARGV)
            assert sys.get_int_max_str_digits() == 4300
        assert (code, err) == (0, "")
        with digit_cap(0):
            assert out.splitlines()[-1] == f"rank: {4**self.E}"
            assert f"  O: {self.expected().trivial_multiplicity()}" in out.splitlines()

    def test_json_output_round_trips(self, capsys):
        with digit_cap(4300):
            code, out, err = run_cli(capsys, *self.ARGV, "--format", "json")
            assert (code, err) == (0, "")
            payload = json.loads(out)
            assert len(payload["rank"]) > 4300
            assert cli.decomposition_from_json(payload) == self.expected()

    def test_local_output(self, capsys):
        with digit_cap(4300):
            code, out, err = run_cli(
                capsys, "local", "--kind", "segre", "--r", "1", "--s", "1",
                "--p", "2", "--e", "8000",
            )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "f-signature: 2/3"

    def test_long_integer_flag_is_usage_error(self, capsys):
        # Flags are parsed before the cap is lifted.  (Negative, so that a
        # parse after the lift fails fast with exit 1, not a huge q.)
        with digit_cap(4300):
            code, _, err = outcome(capsys, (*self.ARGV[:-2], "--e=-" + "1" * 4400))
        assert code == 2
        assert "argument --e: invalid int value" in err

    @pytest.mark.parametrize("digits", [4001, 5000, 8000, 12345])
    def test_long_mult_parsed(self, digits):
        mult = (10**digits - 1) // 7
        with digit_cap(0):
            raw = str(mult)
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        summand = {"kind": "line", "class": [0], "mult": raw}
        with digit_cap(4300):
            back = cli.decomposition_from_json({**decomp, "summands": [summand], "rank": raw})
        assert back.trivial_multiplicity() == mult

    @pytest.mark.parametrize("raw", ["1" * 5000 + "x", "-" + "1" * 5000, "1" * 4500 + " "])
    def test_long_malformed_mult(self, raw):
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        summand = {"kind": "line", "class": [0], "mult": raw}
        with pytest.raises(InvalidParameterError, match="mult must be"):
            cli.decomposition_from_json({**decomp, "summands": [summand]})


class TestParserReuse:
    # A usage error first, so a failed parse must leave nothing behind; a
    # second one from a handler, after parse_args succeeded.
    SEQUENCE = [
        ("decompose", "--variety", "projspace", "--d", "2", "--e", "1"),
        ("decompose", "--variety", "hirzebruch", "--eps", "1", "--p", "3", "--e", "1"),
        ("decompose", "--variety", "hirzebruch", "--eps", "1", "--p", "3", "--e", "1",
         "--format", "json"),
        ("decompose", "--variety", "projspace", "--d", "2", "--bundle", "7,x",
         "--p", "2", "--e", "1"),
        ("kernel", "--variety", "projspace", "--d", "2", "--p", "2", "--e", "2"),
        ("kernel", "--variety", "hirzebruch", "--eps", "2", "--p", "2", "--e", "1",
         "--format", "json"),
        ("local", "--kind", "segre", "--r", "1", "--s", "1", "--p", "2", "--e", "2"),
        ("local", "--kind", "rnc", "--eps", "3", "--p", "3", "--e", "1", "--format", "json"),
        ("verify", "--suite", "identities", "--max-d", "1", "--max-e", "1", "--primes", "2"),
    ]

    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_PARSERS", {})
        reused = [outcome(capsys, argv) for argv in self.SEQUENCE]
        assert list(cli._PARSERS) == [cli.build_parser]
        fresh = []
        for argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_PARSERS", {})
            fresh.append(outcome(capsys, argv))
        assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0, 0, 0, 0, 0]
        assert reused == fresh

    def test_rebound_builder_is_called_once(self, capsys, monkeypatch):
        """A caller that rebinds ``cli.build_parser`` to wrap ``parse_args``
        (as the benchmark's tracer does) gets one parser from its builder,
        whose ``parse_args`` runs on every call."""
        builds, parses = [], []
        original = cli.build_parser

        def build_parser():
            builds.append(1)
            parser = original()
            parse_args = parser.parse_args

            def counted(*args, **kwargs):
                parses.append(1)
                return parse_args(*args, **kwargs)

            parser.parse_args = counted
            return parser

        argv = ["local", "--kind", "segre", "--r", "1", "--s", "1", "--p", "2", "--e", "1"]
        # The original builder's parser exists before the rebinding, as it
        # does when a tracer is installed after untraced calls.
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "_PARSERS", dict(cli._PARSERS))
        monkeypatch.setattr(cli, "build_parser", build_parser)
        for _ in range(5):
            assert cli.main(argv) == 0
        assert (len(builds), len(parses)) == (1, 5)
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert (len(builds), len(parses)) == (1, 5)
        capsys.readouterr()

    def test_suite_choices_are_verify_suites(self):
        suite = cli.build_parser().commands["verify"].flags["--suite"]
        assert suite["choices"] == verify.SUITES + ("all",)


CORPUS = Path(__file__).resolve().parent / "argv_corpus.jsonl"
with CORPUS.open() as lines:
    ROWS = [json.loads(line) for line in lines if not line.startswith("#")]
ARGVS = [row if len(row) == 6 else [*row, "80", None] for row in ROWS]


class TestOnePassParse:
    """``parse_args`` reads each argv once, from the flag spec, with the exit
    code and output of argparse, which read every argv the flag tables
    declined when the corpus was recorded: edge argvs, the reading rules, the
    CI steps' argvs, then 100 drawn with seed 41 from the old fuzz alphabet
    (a verify argv without ``--max-d`` ends in ``--max-d=1``), and last the
    usage errors of the root and each subcommand at other widths: COLUMNS 30
    and 45, then 0 and "abc", which defer to the terminal's width, else 80,
    and an empty one beside a terminal that reports no width.
    stdout is kept as ``-h``'s usage lines, as a digest, or (None) not for a
    verify report."""

    @pytest.mark.parametrize("argv, code, out, err, columns, terminal", ARGVS, ids=[
        (" ".join(argv) or "(empty)") + ("" if columns == "80" else f" COLUMNS={columns}")
        for argv, _, _, _, columns, _ in ARGVS])
    def test_edge_argv_parses_alike(self, capsys, monkeypatch, argv, code, out, err, columns,
                                    terminal):
        def terminal_size(fd):
            if terminal is None:
                raise OSError("not a terminal")
            return os.terminal_size((terminal, 24))

        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.setattr(os, "get_terminal_size", terminal_size)
        got, printed, warned = outcome(capsys, argv)
        if got == 0 and printed.startswith("usage: "):
            printed = printed.split("\n\n", 1)[0] + "\n"
        elif printed:
            printed = "sha256:" + hashlib.sha256(printed.encode()).hexdigest()
        assert (got, printed if out is not None else None, warned) == (code, out, err)


# The usage lines at 80 columns, as the parser printed them when each
# descriptor flag was written out by hand.
USAGE = {
    "decompose": (
        "usage: frobpush decompose [-h] --variety\n"
        "                          {projspace,product,hirzebruch,blowup-linear,veronese-cone,"
        "segre-cone,quadric,cone-p}\n"
        "                          [--kind {rnc,veronese,segre}] [--bundle BUNDLE]\n"
        "                          [--d D] [--r R] [--s S] [--eps EPS] --p P --e E\n"
        "                          [--format {text,json}]\n"
    ),
    "kernel": (
        "usage: frobpush kernel [-h] --variety\n"
        "                       {projspace,product,hirzebruch,blowup-linear,veronese-cone,"
        "segre-cone,quadric}\n"
        "                       [--bundle BUNDLE] [--d D] [--r R] [--s S] [--eps EPS]\n"
        "                       --p P --e E [--format {text,json}]\n"
    ),
    "local": (
        "usage: frobpush local [-h] --kind {rnc,veronese,segre} [--d D] [--r R] [--s S]\n"
        "                      [--eps EPS] --p P --e E [--format {text,json}]\n"
    ),
    "verify": (
        "usage: frobpush verify [-h] --suite {identities,oracles,fixtures,all}\n"
        "                       [--max-d MAX_D] [--max-e MAX_E] [--primes PRIMES]\n"
        "                       [--jobs JOBS] [--verbose] [--format {text,json}]\n"
    ),
}


def test_usage_lines_are_pinned(monkeypatch):
    # The descriptor flags are the declared fields, minus ``kind``, in the
    # order of the declarations.
    assert cli.FIELDS == ("d", "r", "s", "eps")
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    usage = {name: parser.usage(command) for name, command in parser.commands.items()}
    assert usage == USAGE


def offered_argvs(command, options):
    """One argv per --variety choice (per cone kind where the family holds
    one) or --kind choice ``command`` offers, with each of its optional
    flags; for verify, one small run with every flag."""
    if command == "verify":
        yield ["--suite", "identities", "--max-d", "1", "--max-e", "1", "--primes", "2",
               "--jobs", "1", "--format", "json"]
        return
    choices = []
    if "--variety" in options:
        for tag in options["--variety"]["choices"]:
            cls = families.FAMILIES[tag]
            bundle = "--bundle=" + ",".join("0" * len(cls.bases[0]))
            if "kind" in cls.__slots__:
                choices += [["--variety", tag, "--kind", kind, *PARAMS[kind], bundle]
                            for kind in families.CONE_KINDS]
            else:
                choices.append(["--variety", tag, *PARAMS[tag], bundle])
    else:
        choices = [["--kind", kind, *PARAMS[kind]] for kind in options["--kind"]["choices"]]
    for flags in choices:
        yield [*flags, "--format", "json", "--p", "3", "--e", "1"]


def test_every_flag_has_a_use(capsys):
    """Each store flag of each subcommand, and each --variety and --kind
    choice it offers, appears in an argv that exits 0."""
    offered, used = set(), set()
    for command, flags in cli.build_parser().commands.items():
        options = {option: flag for option, flag in flags.flags.items() if "action" not in flag}
        offered.update((command, option) for option in options)
        for option in ("--variety", "--kind"):
            if option in options:
                offered.update((command, option, choice) for choice in options[option]["choices"])
        for argv in offered_argvs(command, options):
            if outcome(capsys, [command, *argv])[0] != 0:
                continue
            for flag, value in zip(argv, [*argv[1:], None]):
                flag = flag.partition("=")[0]
                if flag.startswith("--"):
                    used.update({(command, flag), (command, flag, value)})
    assert offered - used == set()


def test_cli_import_is_lazy():
    """Building the parser loads no suites and no process pool; a serial
    ``verify`` loads the suites but no pool, nor ``dataclasses`` and the
    ``inspect`` it imports; neither moves the digit cap."""
    script = (
        "import json, sys\n"
        "cap = getattr(sys, 'get_int_max_str_digits', lambda: None)\n"
        "before = cap()\n"
        "from frobpush import cli\n"
        "cli.build_parser()\n"
        "watched = ('frobpush.verify', 'concurrent.futures.process', 'multiprocessing')\n"
        "built = [m for m in watched if m in sys.modules]\n"
        "code = cli.main(['verify', '--suite', 'identities', '--max-d', '1',\n"
        "                 '--max-e', '1', '--primes', '2'])\n"
        "ran = [m for m in watched if m in sys.modules]\n"
        "heavy = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([built, code, ran, heavy, before == cap()]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, check=True)
    built, code, ran, heavy, cap_kept = json.loads(done.stdout.splitlines()[-1])
    assert built == []
    assert (code, ran, heavy) == (0, ["frobpush.verify"], [])
    assert cap_kept


def test_fresh_start_loads_no_dataclasses():
    """Under ``python -S``, whose start imports no ``site`` packages, the
    benchmark's set-up step, a text ``decompose``, a JSON ``kernel``, ``-h``,
    an abbreviation and a usage error leave none of the modules below loaded,
    ``argparse`` and the ``gettext`` and ``locale`` it brings among them: the
    CLI reads argv and writes JSON itself, and the library writes its
    annotations as strings.  ``enum`` stays, for ``VerdictStatus``, and
    ``cli.json`` resolves to ``json`` on first use.  pytest imports them all,
    so this runs in a subprocess."""
    script = (
        "import sys\n"
        "import frobpush; from frobpush import cli; cli.build_parser()\n"
        "codes = []\n"
        "for argv in sys.argv[1:]:\n"
        "    try:\n"
        "        codes.append(cli.main(argv.split()))\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "heavy = ('argparse', 'gettext', 'locale', 'json', 'typing', 're', 'dataclasses',\n"
        "         'inspect', 'fractions')\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "print(codes, loaded, 'enum' in sys.modules, cli.json is sys.modules['json'])\n"
    )
    argvs = ["decompose --variety projspace --d 2 --p 3 --e 2",
             "kernel --variety hirzebruch --eps 1 --p 2 --e 1 --format json",
             "decompose -h", "decompose --var=projspace --d=2 --p=3 --e=2",
             "decompose --variety nope --d 2 --p 2 --e 1"]
    done = subprocess.run([sys.executable, "-S", "-c", script, *argvs],
                          env=dict(ENV, COLUMNS="80"), capture_output=True, text=True, check=True)
    *printed, last = done.stdout.splitlines()
    assert last == "[0, 0, 0, 0, 2] [] True True"
    assert printed.count("rank: 81") == 2 and USAGE["decompose"] in done.stdout
    assert done.stderr.startswith(USAGE["decompose"] + "frobpush decompose: error: "
                                  "argument --variety: invalid choice: 'nope'")


def test_fresh_start_loads_no_typing():
    """Under ``python -S``, whose start imports no ``site`` packages, the
    set-up step and a regular text argv leave ``typing`` unloaded: the library
    writes its annotations as strings and takes its abstract types from
    ``collections.abc``.  With a JSON ``kernel`` after them, ``json`` stays
    unloaded too, as the CLI writes JSON itself; ``cli.json`` still resolves
    to it, on first use."""
    script = (
        "import sys\n"
        "import frobpush; from frobpush import cli; cli.build_parser()\n"
        "code = cli.main(['decompose', '--variety', 'projspace', '--d', '2', '--p', '3',\n"
        "                 '--e', '2'])\n"
        "code += cli.main(['kernel', '--variety', 'hirzebruch', '--eps', '1', '--p', '2',\n"
        "                  '--e', '1', '--format', 'json'])\n"
        "loaded = 'typing' in sys.modules, 'json' in sys.modules\n"
        "print(code, *loaded, cli.json is sys.modules.get('json'))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], env=ENV, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False False True"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        argv = ["decompose", "--variety", "projspace", "--d", "2", "--e", "1"]
        assert outcome(capsys, argv)[0] == 2

    def test_local_missing_parameter_is_2(self, capsys):
        code, _, err = outcome(capsys, ["local", "--kind", "rnc", "--p", "2", "--e", "1"])
        assert code == 2
        assert "--eps is required for --kind rnc" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--variety", "projspace", "--d", "2", "--bundle", "x",
             "--p", "2", "--e", "1"],
            ["kernel", "--variety", "projspace", "--d", "2", "--bundle", "1",
             "--p", "2", "--e", "1"],
            ["local", "--kind", "rnc", "--p", "2", "--e", "1"],
            ["verify", "--suite", "all", "--max-e", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_usage_error_names_its_subcommand(self, capsys, argv):
        # Each subcommand's own flag checks print that subcommand's usage.
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: frobpush {argv[0]} ")
        assert lines[-1].startswith(f"frobpush {argv[0]}: error: ")

    # A regular argv of each subcommand, to which one "--flag=--" is added.
    REGULAR = {
        "decompose": ["--variety", "projspace", "--d", "1", "--p", "2", "--e", "1"],
        "local": ["--kind", "segre", "--r", "1", "--s", "1", "--p", "2", "--e", "1"],
        "verify": ["--suite", "identities", "--max-d", "1", "--max-e", "1", "--primes", "2"],
    }
    REGULAR["kernel"] = REGULAR["decompose"]
    DASH_VALUES = [(name, f"{option}=--") for name, command in cli.build_parser().commands.items()
                   for option, flag in command.flags.items() if "action" not in flag]

    @pytest.mark.parametrize("command,flag", DASH_VALUES,
                             ids=[" ".join(pair) for pair in DASH_VALUES])
    def test_dash_dash_value_is_2(self, capsys, command, flag):
        """A value ``--`` after ``=`` is no value, as argparse 3.12.1 and older
        read it: every store flag refuses it as a usage error of its subcommand."""
        code, out, err = outcome(capsys, [command, *self.REGULAR[command], flag])
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"frobpush {command}: error: ")

    def test_domain_error_is_1(self, capsys):
        code, _, err = run_cli(
            capsys, "decompose", "--variety", "projspace", "--d", "2",
            "--p", "4", "--e", "1",
        )
        assert code == 1
        assert "prime" in err

    def test_veronese_cone_below_eps_is_0(self, capsys):
        # q = 2 < eps = 3: the Veronese cone blowup answers at every q, and
        # a Picard-rank-2 P^1-bundle has no ample trace kernel.
        fields = ("--variety", "veronese-cone", "--eps", "3", "--p", "2", "--e", "1",
                  "--format", "json")
        code, out, err = run_cli(capsys, "decompose", "--d", "2", *fields)
        assert (code, err) == (0, "")
        assert cli.decomposition_from_json(json.loads(out)).rank() == 2**3
        code, out, err = run_cli(capsys, "kernel", "--d", "1", *fields)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verdict"]["status"] == "NotAmpleWithWitness"
        assert cli.decomposition_from_json(doc["kernel"]).rank() == 2**2 - 1

    def test_unknown_suite_rejected(self, capsys):
        assert outcome(capsys, ["verify", "--suite", "everything", "--p"])[0] == 2

    def test_prime_near_1e18_answers_at_once(self):
        # Trial division up to sqrt(p) would run for minutes here.
        argv = ["decompose", "--variety", "projspace", "--d", "1",
                "--p", "1000000000000000003", "--e", "1"]
        done = subprocess.run([sys.executable, "-m", "frobpush.cli", *argv], env=ENV,
                              capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("rank: 1000000000000000003\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # Output smaller than the stdout buffer: the write fails at main's flush.
            ["decompose", "--variety", "projspace", "--d", "2", "--p", "2", "--e", "20"],
            # Output larger than the buffer: the write fails inside print.
            ["verify", "--suite", "all", "--max-d", "2", "--max-e", "2", "--primes", "2,3",
             "--format", "json"],
            ["decompose", "-h"],
        ],
        ids=["decompose", "verify", "help"],
    )
    def test_closed_pipe_is_1_and_quiet(self, argv):
        """A reader that closes stdout before anything is written, as ``head``
        does once it has its lines, gets exit 1 (0 for help) and no traceback."""
        proc = subprocess.Popen([sys.executable, "-m", "frobpush.cli", *argv], env=ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0 if "-h" in argv else 1, b"")

    def test_closed_pipe_leaves_no_descriptor_open(self, monkeypatch):
        """An in-process caller whose stdout pipe was closed gets exit 1, and
        the devnull descriptor that quiets the final flush is closed again."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count descriptors in")
        argv = ["decompose", "--variety", "projspace", "--d", "2", "--p", "2", "--e", "1"]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w") as stdout, monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                assert cli.main(argv) == 1
        assert len(os.listdir("/proc/self/fd")) == before

    def test_semiprime_p_is_1(self, capsys):
        p = str(1000000007 * 1000000009)
        code, out, err = run_cli(
            capsys, "decompose", "--variety", "projspace", "--d", "1", "--p", p, "--e", "1",
        )
        assert (code, out, err) == (1, "", f"error: p must be prime; got p={p}\n")

    def test_p_beyond_primality_bound_is_1(self, capsys):
        p = "3317044064679887385961981"
        code, out, err = run_cli(
            capsys, "decompose", "--variety", "projspace", "--d", "1", "--p", p, "--e", "1",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: p must be below {p}")

    # Each descriptor's refusal of out-of-range parameters, as the CLI prints
    # it: every registry tag through decompose (cone-p refuses through its
    # kind) and every cone kind through local.
    REFUSALS = [
        (["decompose", "--variety", "projspace", "--d", "0"],
         "projective space needs d >= 1; got d=0"),
        (["decompose", "--variety", "product", "--r", "0", "--s", "1"],
         "product needs r, s >= 1; got (0, 1)"),
        (["decompose", "--variety", "hirzebruch", "--eps", "-1"],
         "hirzebruch needs eps >= 0; got eps=-1"),
        (["decompose", "--variety", "blowup-linear", "--d", "3", "--r", "3"],
         "linear blowup needs d >= 2 and 1 <= r <= d-1; got (d=3, r=3)"),
        (["decompose", "--variety", "veronese-cone", "--d", "0", "--eps", "1"],
         "veronese cone blowup needs d >= 1, eps >= 1; got (d=0, eps=1)"),
        (["decompose", "--variety", "segre-cone", "--r", "1", "--s", "0"],
         "segre cone blowup needs r, s >= 1; got (1, 0)"),
        (["decompose", "--variety", "quadric", "--d", "2"],
         "quadric decompositions need d >= 3 (lower d is covered by projspace/product); "
         "got d=2"),
        (["decompose", "--variety", "cone-p", "--kind", "segre", "--r", "0", "--s", "1"],
         "segre cone needs r, s >= 1; got (0, 1)"),
        (["local", "--kind", "rnc", "--eps", "0"], "cone needs eps >= 1; got eps=0"),
        (["local", "--kind", "veronese", "--d", "1", "--eps", "0"],
         "veronese cone needs d >= 1, eps >= 1; got (d=1, eps=0)"),
        (["local", "--kind", "segre", "--r", "0", "--s", "2"],
         "segre cone needs r, s >= 1; got (0, 2)"),
    ]

    def test_refusals_cover_every_descriptor(self):
        argvs = [argv for argv, _ in self.REFUSALS]
        assert {a[2] for a in argvs if a[0] == "decompose"} == set(families.FAMILIES)
        assert {a[2] for a in argvs if a[0] == "local"} == set(families.CONE_KINDS)

    @pytest.mark.parametrize("argv, message", REFUSALS, ids=[a[2] for a, _ in REFUSALS])
    def test_descriptor_refusal_is_1(self, capsys, argv, message):
        code, out, err = outcome(capsys, [*argv, "--p", "2", "--e", "1"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # A descriptor flag the chosen family does not declare, last in each
    # argv: every registry tag (cone-p names its kind) and every cone kind.
    UNDECLARED = [
        ["decompose", "--variety", "projspace", "--d", "1", "--eps", "3"],
        ["kernel", "--variety", "product", "--r", "1", "--s", "2", "--d", "2"],
        ["kernel", "--variety", "hirzebruch", "--eps", "1", "--r", "1"],
        ["decompose", "--variety", "blowup-linear", "--d", "3", "--r", "1", "--s", "1"],
        ["kernel", "--variety", "veronese-cone", "--d", "1", "--eps", "2", "--r", "1"],
        ["decompose", "--variety", "segre-cone", "--r", "1", "--s", "1", "--eps", "2"],
        ["kernel", "--variety", "quadric", "--d", "3", "--eps", "1"],
        ["decompose", "--variety", "cone-p", "--kind", "rnc", "--eps", "2", "--d", "3"],
        ["local", "--kind", "rnc", "--eps", "2", "--d", "3"],
        ["local", "--kind", "veronese", "--d", "1", "--eps", "2", "--s", "1"],
        ["local", "--kind", "segre", "--r", "1", "--s", "1", "--eps", "2"],
    ]

    def test_undeclared_flags_cover_every_descriptor(self):
        assert {a[2] for a in self.UNDECLARED if a[0] != "local"} == set(families.FAMILIES)
        assert {a[2] for a in self.UNDECLARED if a[0] == "local"} == set(families.CONE_KINDS)

    @pytest.mark.parametrize("argv", UNDECLARED, ids=lambda argv: argv[2])
    def test_undeclared_descriptor_flag_is_2(self, capsys, argv):
        """The flag is refused; without it the argv answers."""
        selector = " ".join(argv[1:3])
        if argv[2] == "cone-p":
            selector += " --kind rnc"
        message = f"frobpush {argv[0]}: error: {argv[-2]} is not a parameter of {selector}"
        full = [*argv, "--p", "3", "--e", "1"]
        code, out, err = outcome(capsys, full)
        assert (code, out, err.splitlines()[-1:]) == (2, "", [message])
        assert outcome(capsys, [*argv[:-2], "--p", "3", "--e", "1"])[::2] == (0, "")


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--max-d", "2", "--max-e", "1",
            "--primes", "2,3",
        )
        assert code == 0
        assert "0 failed" in out

    def test_fixtures_green_with_warnings(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "fixtures", "--max-e", "1", "--primes", "2,3",
        )
        assert code == 0
        assert "WARN" in out
        assert "0 failed" in out

    def test_parallel_matches_serial(self, capsys):
        args = ["verify", "--suite", "oracles", "--max-d", "2", "--max-e", "1",
                "--primes", "2,3", "--verbose"]
        code_serial, out_serial, _ = run_cli(capsys, *args)
        code_parallel, out_parallel, _ = run_cli(capsys, *args, "--jobs", "2")
        assert code_serial == code_parallel == 0
        assert out_serial == out_parallel

    def test_json_cases_match_verbose(self, capsys):
        args = ["verify", "--suite", "all", "--max-d", "2", "--max-e", "1", "--primes", "2,3"]
        code_text, out_text, _ = run_cli(capsys, *args, "--verbose")
        code_json, out_json, _ = run_cli(capsys, *args, "--format", "json")
        assert code_text == code_json == 0
        payload = json.loads(out_json)
        text_cases = []
        for line in out_text.splitlines():
            if not line.startswith("suite "):
                status, key, detail = line.split(maxsplit=2)
                text_cases.append((status, key, detail))
        json_cases = [
            (case["status"], f"{suite['suite']}:{case['key']}", case["detail"])
            for suite in payload["suites"]
            for case in suite["cases"]
        ]
        assert json_cases == text_cases
        assert "WARN" in {status for status, _, _ in json_cases}
        for suite in payload["suites"]:
            totals, cases = suite["totals"], suite["cases"]
            summary = (
                f"suite {suite['suite']}: {totals['passed']} passed, "
                f"{totals['warnings']} warnings, {totals['failed']} failed "
                f"({totals['cases']} cases)"
            )
            assert summary in out_text.splitlines()
            assert all(case["seconds"] >= 0 for case in cases)
            assert totals["seconds"] == pytest.approx(sum(case["seconds"] for case in cases))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_case_is_one_fail(self, capsys, monkeypatch, jobs):
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers do not inherit the patched check")

        def boom(d):
            raise ZeroDivisionError(f"boom at d={d}")

        suite, _, grid = verify.CASES["eulerian-sum"]
        monkeypatch.setitem(verify.CASES, "eulerian-sum", (suite, boom, grid))
        args = ["verify", "--suite", "identities", "--max-d", "1", "--max-e", "1",
                "--primes", "2", "--jobs", jobs]
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        assert "FAIL identities:eulerian-sum(3)  raised ZeroDivisionError: boom at d=3" in out
        assert "8 failed" in out.splitlines()[-1]
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 1
        (suite,) = json.loads(out)["suites"]
        assert suite["totals"]["failed"] == 8
        assert suite["totals"]["passed"] == suite["totals"]["cases"] - 8

    def test_raising_cases_in_pool_workers(self):
        # p=4 is no prime: every case but the p-free eulerian sums raises.
        ((_, results),) = verify.run_suites(["identities"], max_d=1, max_e=1, primes=(4,), jobs=2)
        failed = [res for res in results if res.status == "FAIL"]
        assert len(failed) == len(results) - 8
        assert {res.detail for res in failed} == {
            "raised InvalidParameterError: p must be prime; got p=4"
        }

    def test_pool_is_bounded_by_the_cpus(self, monkeypatch):
        # A pool forks all its workers at its first submit, so a --jobs past
        # the CPU count must not reach it.  The fake pool maps in-process.
        import concurrent.futures

        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cases, chunksize=1):
                return map(fn, cases)

        grid = dict(max_d=1, max_e=1, primes=(2, 3))
        serial = verify.run_suites(["identities", "oracles"], **grid)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert verify.run_suites(["identities", "oracles"], jobs=10_000, **grid) == serial
        assert asked == [2]
        # An unknown CPU count means one worker: the cases run serially.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verify.run_suites(["identities", "oracles"], jobs=10_000, **grid) == serial
        assert asked == [2]

    @pytest.mark.parametrize("flag", ["--max-d", "--max-e", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_empty_grid_is_usage_error(self, capsys, flag, value):
        # A grid of no cases would pass vacuously with exit 0.
        code, out, err = outcome(capsys, ["verify", "--suite", "all", flag, value])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"frobpush verify: error: {flag} must be at least 1; got {value}"
        )

    def test_non_integer_prime_is_usage_error(self, capsys):
        code, out, err = outcome(capsys, ["verify", "--suite", "all", "--primes", "2,x"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "frobpush verify: error: --primes must be a comma-separated integer list; got '2,x'"
        )

    def test_non_prime_rejected_once(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--primes", "2,4")
        assert (code, out) == (1, "")
        assert err == "error: p must be prime; got p=4\n"


class TestJsonRoundTrip:
    def test_catalog_round_trips(self):
        fp = PrimePower(3, 1)
        decomps = [
            pushforward_projective_space(3, 2, fp),
            pushforward_product(1, 2, 0, -1, fp),
            pushforward_hirzebruch(2, 1, -3, fp),
            pushforward_linear_blowup(3, 1, fp),
            change_basis(pushforward_linear_blowup(3, 2, fp), ("H", "E")),
            pushforward_veronese_cone(2, 2, 0, 1, fp),
            pushforward_segre_cone(1, 1, 0, 0, 0, fp),
            quadric_pushforward_support(3, fp),
            quadric_pushforward_support(4, PrimePower(2, 2)),
            cone_pushforward(RationalNormalCone(3), fp),
            cone_pushforward(SegreCone(1, 2), fp),
            cone_pushforward(VeroneseCone(2, 2), fp),
        ]
        for decomp in decomps:
            payload = json.loads(json.dumps(cli.decomposition_to_json(decomp)))
            assert cli.decomposition_from_json(payload) == decomp

    def test_summand_key_order(self, capsys):
        # Line and spinor summands, and the witness, list kind and class first.
        code, out, _ = run_cli(
            capsys, "kernel", "--variety", "quadric", "--d", "3", "--p", "2", "--e", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        summands = payload["kernel"]["summands"]
        assert {s["kind"] for s in summands} == {"line", "spinor"}
        assert all(list(s) == ["kind", "class", "mult"] for s in summands)
        witness = payload["support_verdict"]["witness"]["summand"]
        assert list(witness) == ["kind", "class"]

    @pytest.mark.parametrize(
        "data, missing",
        [
            ({"tag": "projspace", "params": {}}, "'d'"),
            ({"tag": "product", "params": {"r": 1}}, "'s'"),
            ({"tag": "cone-p", "params": {"kind": "segre", "r": 1}}, "'s'"),
            ({"params": {"d": 2}}, "'tag'"),
            ({"tag": "projspace"}, "'params'"),
        ],
    )
    def test_missing_descriptor_field(self, data, missing):
        with pytest.raises(InvalidParameterError, match=missing):
            cli.descriptor_from_json(data)
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        with pytest.raises(InvalidParameterError, match=missing):
            cli.decomposition_from_json({**decomp, "variety": data})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"tag": "projspace", "params": {"d": "2"}}, "'d' must be an integer; got '2'"),
            ({"tag": "projspace", "params": {"d": 1.5}}, "'d' must be an integer; got 1.5"),
            ({"tag": "projspace", "params": {"d": True}}, "'d' must be an integer; got True"),
            ({"tag": "product", "params": {"r": 1, "s": None}}, "'s' must be an integer"),
            ({"tag": "cone-p", "params": {"kind": ["rnc"], "eps": 2}}, r"cone kind \['rnc'\]"),
            ({"tag": "cone-p", "params": {"kind": "cusp", "eps": 2}}, "unknown cone kind 'cusp'"),
            ({"tag": "cone-p", "params": {"kind": "rnc", "eps": "2"}}, "'eps' must be an integer"),
            ({"tag": "projspace", "params": {"d": 2, "eps": 7}},
             "variety 'projspace' has no parameter 'eps'"),
            ({"tag": "cone-p", "params": {"kind": "rnc", "eps": 3, "r": 1}},
             "variety 'cone-p' has no parameter 'r'"),
            ({"tag": "hirzebruch", "params": {"d": 1, "eps": 1}},
             "variety 'hirzebruch' has no parameter 'd'"),
        ],
    )
    def test_malformed_descriptor(self, data, message):
        # JSON read-back accepts only what the schema writes: integer
        # parameters, a string cone tag, and no parameter the family does not
        # declare, as the CLI refuses a flag the family does not declare.
        with pytest.raises(InvalidParameterError, match=message):
            cli.descriptor_from_json(data)
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        with pytest.raises(InvalidParameterError, match=message):
            cli.decomposition_from_json({**decomp, "variety": data})

    def test_non_string_tag(self):
        with pytest.raises(FrobpushError, match="unknown variety tag"):
            cli.descriptor_from_json({"tag": ["projspace"], "params": {"d": 2}})

    @pytest.mark.parametrize(
        "summand, message",
        [
            ({"kind": "line", "mult": "1"}, "lacks 'class'"),
            ({"class": [0], "mult": "1"}, "lacks 'kind'"),
            ({"kind": "line", "class": [0]}, "lacks 'mult'"),
            ({"kind": "line", "class": [0], "mult": "x"}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": None}, "mult must be"),
            ({"kind": "line", "class": ["x"], "mult": "1"}, "list of integers"),
            ({"kind": "line", "class": 0, "mult": "1"}, "list of integers"),
            ({"kind": "curve", "class": [0], "mult": "1"}, "unknown summand kind 'curve'"),
            ({"kind": "spinor", "class": {}, "mult": "unknown"}, "integer 'j'"),
            ({"kind": "spinor", "class": [1], "mult": "unknown"}, "integer 'j'"),
            ({"kind": "spinor", "class": {"j": "1"}, "mult": "unknown"}, "integer 'j'"),
            # Only what the schema writes: a digit string, integer coordinates.
            ({"kind": "line", "class": [0], "mult": 2.7}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": 2}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": True}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": "1_0"}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": " 12 "}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": "+3"}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": "-3"}, "mult must be"),
            ({"kind": "line", "class": [0], "mult": ""}, "mult must be"),
            ({"kind": "line", "class": [1.5], "mult": "1"}, "list of integers"),
            ({"kind": "line", "class": [True], "mult": "1"}, "list of integers"),
            ({"kind": "line", "class": ["3"], "mult": "1"}, "list of integers"),
            ({"kind": "line", "class": "3", "mult": "1"}, "list of integers"),
        ],
    )
    def test_malformed_summand(self, summand, message):
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        with pytest.raises(InvalidParameterError, match=message):
            cli.decomposition_from_json({**decomp, "summands": [summand]})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("params", 5, "params must be an object"),
            ("basis", 5, "basis must be a list"),
            ("summands", 5, "summands must be a list"),
            ("summands", [5], "summand JSON must be an object"),
        ],
    )
    def test_wrong_container_type(self, field, value, message):
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        if field == "params":
            variety = {**decomp["variety"], "params": value}
            with pytest.raises(InvalidParameterError, match=message):
                cli.descriptor_from_json(variety)
            decomp["variety"] = variety
        else:
            decomp[field] = value
        with pytest.raises(InvalidParameterError, match=message):
            cli.decomposition_from_json(decomp)

    @pytest.mark.parametrize("rank", ["99", "1", "0", "", "2.0", 2, None])
    def test_rank_is_the_summands_rank(self, rank):
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        assert decomp["rank"] == "2"
        if rank is None:
            # A null rank reads back as support-only, the only other schema.
            assert cli.decomposition_from_json({**decomp, "rank": rank}).support_only
            return
        with pytest.raises(InvalidParameterError, match="rank"):
            cli.decomposition_from_json({**decomp, "rank": rank})

    def test_unknown_mults_need_null_rank(self):
        decomp = cli.decomposition_to_json(quadric_pushforward_support(3, PrimePower(2, 1)))
        assert decomp["rank"] is None
        with pytest.raises(InvalidParameterError, match="rank null"):
            cli.decomposition_from_json({**decomp, "rank": "1"})

    @pytest.mark.parametrize("missing", ["variety", "basis", "summands", "rank"])
    def test_missing_decomposition_field(self, missing):
        decomp = cli.decomposition_to_json(pushforward_projective_space(1, 0, PrimePower(2, 1)))
        del decomp[missing]
        with pytest.raises(InvalidParameterError, match=repr(missing)):
            cli.decomposition_from_json(decomp)

    @pytest.mark.parametrize(
        "make, summands, rank, label",
        [
            (
                lambda: pushforward_projective_space(1, 0, PrimePower(2, 1)),
                [{"kind": "line", "class": [0], "mult": "1"}] * 2,
                "2",
                "O",
            ),
            (
                lambda: quadric_pushforward_support(3, PrimePower(2, 1)),
                [{"kind": "spinor", "class": {"j": 0}, "mult": "unknown"},
                 {"kind": "spinor", "class": {"j": 0}, "mult": "3"}],
                None,
                r"S\(0\)",
            ),
        ],
    )
    def test_repeated_class(self, make, summands, rank, label):
        # The writer lists each class once; a repeat is refused, not merged.
        decomp = cli.decomposition_to_json(make())
        with pytest.raises(InvalidParameterError, match=f"repeat the class {label}$"):
            cli.decomposition_from_json({**decomp, "summands": summands, "rank": rank})

    def test_schema_shape(self):
        fp = PrimePower(2, 1)
        payload = cli.decomposition_to_json(quadric_pushforward_support(3, fp))
        assert set(payload) == {"variety", "basis", "summands", "rank"}
        assert payload["rank"] is None
        kinds = {s["kind"] for s in payload["summands"]}
        assert kinds == {"line", "spinor"}
        spinor = next(s for s in payload["summands"] if s["kind"] == "spinor")
        assert spinor["class"] == {"j": 1}
        assert spinor["mult"] == "unknown"


BENCH = Path(__file__).resolve().parent.parent / "bench"


def assert_two_space_layout(out):
    """Stdout is exactly ``json.dumps(doc, indent=2)`` and a newline."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonLayout:
    """The raw bytes of every ``--format json`` document, whitespace
    included, against the stdlib's two-space layout; the digest tests hash
    a re-serialized document and so never see the layout."""

    def test_interactive_pool(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        argvs = [
            case.argv
            for stratum in workloads.interactive_pool(tiny=False)
            for case in stratum
            if case.fmt == "json"
        ]
        assert len(argvs) == 658
        for argv in argvs:
            code, out, _ = outcome(capsys, argv)
            assert code == 0, argv
            assert_two_space_layout(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "identities", "--max-d", "2", "--max-e", "1",
             "--primes", "2,3"),
            ("decompose", "--variety", "hirzebruch", "--eps", "2000", "--p", "2", "--e", "12"),
        ],
    )
    def test_large_documents(self, capsys, argv):
        code, out, _ = outcome(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert_two_space_layout(out)


# Text with quotes, backslashes, control characters, non-ASCII and a lone
# surrogate, as well as arbitrary characters.
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t e\xe9\u20ac\U0001f600\ud800') | st.characters(),
    max_size=12,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonWriter:
    """``cli._json_text`` against ``json.dumps(value, indent=2)``."""

    @given(_VALUES)
    def test_matches_the_stdlib(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_empty_and_nested_containers(self):
        for value in ([], (), {}, [[]], {"a": {}}, [(), [[], {}], {"b": [1, [2]]}]):
            assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1}, [{"a": 1, 2: "b"}], {("a",): 1}])
    def test_refuses_what_is_not_json(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_digit_cap_refusal_matches_the_stdlib(self):
        big = [10**4300]
        with digit_cap(4300):
            with pytest.raises(ValueError) as ours:
                cli._json_text(big)
            with pytest.raises(ValueError) as theirs:
                json.dumps(big, indent=2)
        assert str(ours.value) == str(theirs.value)


def written_decompositions():
    """One decomposition per registry family, at a twisted bundle where the
    family takes one, and per cone kind; the linear blowup in both bases, a
    support-only quadric with spinors (rank null), and the empty sum."""
    fp = PrimePower(3, 1)
    bundles = [(ProjSpace(2), (1,)), (Product(1, 2), (1, -2)), (Hirzebruch(2), (1, -3)),
               (LinearBlowup(3, 1), (0, 0)), (VeroneseConeBlowup(1, 2), (2, -1)),
               (SegreConeBlowup(1, 1), (1, -1, 2)), (Quadric(3), (0,))]
    decomps = [families.build(variety, bundle, fp) for variety, bundle in bundles]
    decomps.append(change_basis(decomps[3], ("H", "E")))
    decomps += [cone_pushforward(kind, fp)
                for kind in (RationalNormalCone(3), VeroneseCone(2, 3), SegreCone(1, 2))]
    decomps.append(quadric_pushforward_support(5, PrimePower(2, 2)))
    decomps.append(Decomposition(ProjSpace(1), []))
    return decomps


class TestDecompositionWriter:
    """``cli._json_text`` writes a ``Decomposition`` from its stores, as
    ``json.dumps`` writes ``decomposition_to_json`` of it, at any depth; the
    text form's params line is that of ``json.dumps(params, sort_keys=True)``."""

    DECOMPS = written_decompositions()

    @pytest.mark.parametrize("decomp", DECOMPS, ids=lambda d: f"{d.variety}-{d.basis[-1]}")
    def test_top_level(self, decomp):
        assert cli._json_text(decomp) == json.dumps(cli.decomposition_to_json(decomp), indent=2)

    @pytest.mark.parametrize("decomp", DECOMPS, ids=lambda d: f"{d.variety}-{d.basis[-1]}")
    def test_in_a_kernel_payload(self, decomp):
        verdict = {"status": "Ample", "witness": None, "notes": []}
        ours = cli._json_text({"kernel": decomp, "verdict": verdict})
        theirs = {"kernel": cli.decomposition_to_json(decomp), "verdict": verdict}
        assert ours == json.dumps(theirs, indent=2)

    @pytest.mark.parametrize("decomp", DECOMPS, ids=lambda d: f"{d.variety}-{d.basis[-1]}")
    def test_text_params_line(self, decomp):
        # The text form writes its params line by the same scalar rules.
        params = json.dumps(cli.descriptor_to_json(decomp.variety)["params"], sort_keys=True)
        first = cli.render_decomposition(decomp).split("\n")[0]
        assert first == f"variety: {decomp.variety.tag}{params}"

    def test_covers_every_family_and_cone_kind(self):
        written = {d.variety.tag for d in self.DECOMPS}
        kinds = {d.variety.kind.tag for d in self.DECOMPS if d.variety.tag == "cone-p"}
        assert (written, kinds) == (set(families.FAMILIES), set(families.CONE_KINDS))
        quadric = self.DECOMPS[-2]
        assert quadric.support_only and quadric.spinors
        assert not self.DECOMPS[-1].lines

    def test_multiplicity_beyond_the_digit_cap(self):
        # q = 2^7200: the rank of F^e_* O on P^2 has 4335 digits.
        decomp = pushforward_projective_space(2, 0, PrimePower(2, 7200))
        with digit_cap(0):  # lifted, as ``main`` lifts it
            assert max(len(str(mult)) for mult in decomp.lines.values()) > 4300
            reference = cli.decomposition_to_json(decomp)
            assert cli._json_text(decomp) == json.dumps(reference, indent=2)
            ours = cli._json_text({"kernel": decomp})
            assert ours == json.dumps({"kernel": reference}, indent=2)
