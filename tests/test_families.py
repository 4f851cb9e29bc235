"""Tests for the family registry: coverage, JSON round-trips, the rank law,
and the CLI surface generated from it."""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from frobpush import cli
from frobpush.combinat import PrimePower
from frobpush.errors import InvalidParameterError
from frobpush.families import (
    CONE_KINDS,
    FAMILIES,
    build,
    build_descriptor,
    descriptor_params,
    family_of,
    structure_pushforward,
)
from frobpush.picard import (
    DESCRIPTORS,
    ConeP,
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
)
from frobpush.restriction import restrict

# One descriptor per registry tag, plus every cone kind; each builds at q=2.
SAMPLES = [
    ProjSpace(2),
    Product(1, 2),
    Hirzebruch(3),
    LinearBlowup(3, 1),
    VeroneseConeBlowup(2, 2),
    SegreConeBlowup(1, 2),
    Quadric(4),
    ConeP(RationalNormalCone(3)),
    ConeP(VeroneseCone(2, 2)),
    ConeP(SegreCone(1, 2)),
]
FIRST_SAMPLE = {tag: next(v for v in SAMPLES if v.tag == tag) for tag in FAMILIES}


def cli_params(variety) -> list[str]:
    return [f"--{name}={value}" for name, value in descriptor_params(variety).items()]


def test_samples_cover_registry():
    assert {v.tag for v in SAMPLES} == set(FAMILIES)
    assert {v.kind.tag for v in SAMPLES if isinstance(v, ConeP)} == set(CONE_KINDS)


@pytest.mark.parametrize("variety", SAMPLES, ids=repr)
def test_descriptor_json_round_trip(variety):
    payload = json.loads(json.dumps(cli.descriptor_to_json(variety)))
    assert payload["tag"] == variety.tag
    assert cli.descriptor_from_json(payload) == variety


def test_registry_records_are_the_declared_classes():
    # A declaration with a builder is a family, one without a cone kind.
    for cls in DESCRIPTORS:
        assert (FAMILIES if cls.builder else CONE_KINDS)[cls.tag] is cls
    assert len(FAMILIES) + len(CONE_KINDS) == len(DESCRIPTORS)


def test_lattice_data_is_no_descriptor_field():
    # A field would become a constructor argument, a CLI flag and a JSON param.
    for cls in [*FAMILIES.values(), *CONE_KINDS.values()]:
        class_data = {"tag", "bases", "dim", "spinor_rank", "builder", "structure_only",
                      "split", "bundle", "divisor"}
        assert not class_data & set(cls.__slots__), cls


@pytest.mark.parametrize("variety", SAMPLES, ids=repr)
def test_rule_matrix_matches_bases(variety):
    # Restriction maps a class (x, y) to x*a_min + y on the base: the default
    # basis is xi then one pullback per base generator, and each twist has
    # one coordinate per base generator.
    cls = family_of(variety)
    if cls.bundle is None:
        assert cls.divisor is None
        return
    base, twists = variety.bundle()
    width = len(base.bases[0]) if base else 0
    assert len(variety.bases[0]) == 1 + width
    assert all(len(twist) == width for twist in twists)


# Each split family as a projective bundle P(E) -> B: the base B (None for a
# point) and the twists of E in B's Picard coordinates.  Written out here, not
# read from the declarations, so the two can be compared.
BUNDLES = {
    "projspace": lambda v: (None, ((),) * (v.d + 1)),
    "product": lambda v: (ProjSpace(v.s), ((0,),) * (v.r + 1)),
    "hirzebruch": lambda v: (ProjSpace(1), ((0,), (-v.eps,))),
    "blowup-linear": lambda v: (ProjSpace(v.d - v.r), ((0,),) * v.r + ((1,),)),
    "veronese-cone": lambda v: (ProjSpace(v.d), ((0,), (v.eps,))),
    "segre-cone": lambda v: (Product(v.r, v.s), ((0, 0), (1, 1))),
}
DIVISORS = {"hirzebruch": "C0", "blowup-linear": "E", "veronese-cone": "E", "segre-cone": "E"}


def accepted(cls, top=8):
    """Every descriptor of ``cls`` whose fields are integers in 0..top."""
    for args in itertools.product(range(top + 1), repeat=len(cls.__slots__)):
        try:
            yield cls(*args)
        except InvalidParameterError:
            pass


@pytest.mark.parametrize("tag", list(BUNDLES))
def test_declarations_match_the_projective_bundle(tag):
    cls = FAMILIES[tag]
    assert cls.split
    assert cls.divisor == DIVISORS.get(tag)
    for variety in accepted(cls):
        base, twists = BUNDLES[tag](variety)
        assert variety.bundle() == (base, twists)
        # dim P^d = d and dim P^r x P^s = r + s: the sum of the base's fields.
        assert variety.dim == sum(base._fields() if base else ()) + len(twists) - 1
        if tag not in DIVISORS:
            continue
        # Restriction to the section of E -> O(a_min): xi goes to a_min, each
        # pullback to itself.
        width = len(base.bases[0])
        least = tuple(min(twist[i] for twist in twists) for i in range(width))
        unit = tuple(tuple(int(i == j) for j in range(width)) for i in range(width))
        size = len(variety.bases[0])
        images = []
        for i in range(size):
            generator = tuple(int(i == j) for j in range(size))
            restricted = restrict(Decomposition(variety, [(generator, 1)]))
            assert restricted.variety == base
            images.extend(restricted.lines)
        assert tuple(images) == (least, *unit)


def test_unknown_tags_rejected():
    with pytest.raises(InvalidParameterError):
        family_of(SegreCone(1, 1))
    # An unknown tag and a kind that is no string, hashable or not, alike.
    for kind in ("toric", ["rnc"], 2):
        with pytest.raises(InvalidParameterError, match="unknown cone kind"):
            build_descriptor(ConeP, {"kind": kind, "eps": 2}.__getitem__)


@pytest.mark.parametrize("variety", SAMPLES, ids=repr)
def test_builder_rank_law(variety):
    for fp in (PrimePower(2, 1), PrimePower(3, 1), PrimePower(2, 2)):
        decomp = structure_pushforward(variety, fp)
        assert decomp.variety == variety
        if decomp.support_only:
            assert decomp.trivial_multiplicity() == 1
        else:
            assert decomp.rank() == fp.q**variety.dim


@pytest.mark.parametrize("variety, bundle", [
    (ProjSpace(2), (0, 0)),
    (Hirzebruch(1), (0,)),
    (LinearBlowup(3, 1), (0, 0, 0)),
])
def test_build_refuses_a_bundle_of_the_wrong_length(variety, bundle):
    with pytest.raises(InvalidParameterError) as err:
        build(variety, bundle, PrimePower(2, 1))
    want = len(FAMILIES[variety.tag].bases[0])
    assert str(err.value) == f"{variety} needs {want} bundle coordinates; got {bundle}"


@pytest.mark.parametrize("variety, bundle", [
    (LinearBlowup(3, 1), (5, 7)),
    (Quadric(3), (1,)),
    (ConeP(SegreCone(1, 1)), (-1,)),
])
def test_build_refuses_a_twist_on_a_structure_only_family(variety, bundle):
    with pytest.raises(InvalidParameterError) as err:
        build(variety, bundle, PrimePower(2, 1))
    assert str(err.value) == f"{variety} supports only the structure sheaf; got bundle {bundle}"


def test_bundle_checks_leave_the_structure_sheaf_and_the_cli_as_they_were(capsys):
    fp = PrimePower(2, 1)
    for variety in SAMPLES:
        if variety.tag in FAMILIES:
            zeros = (0,) * len(FAMILIES[variety.tag].bases[0])
            assert structure_pushforward(variety, fp) == build(variety, zeros, fp)
    # The CLI checks the bundle before it builds, with its own usage errors.
    for args, message in (
        (["--variety=projspace", "--d=2", "--bundle=0,0"], "--bundle needs 1 coordinate(s); got 2"),
        (["--variety=blowup-linear", "--d=3", "--r=1", "--bundle=5,7"],
         "--variety blowup-linear supports only --bundle 0,0"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", *args, "--p=2", "--e=1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"frobpush decompose: error: {message}"


def load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_one_builder_call_per_family():
    """The builders are looked up on their modules at each call, so the
    benchmark's tracer, which rebinds module attributes, counts each one."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for tag, variety in FIRST_SAMPLE.items():
            before = tracer.calls["catalog"] + tracer.calls["localalg"]
            structure_pushforward(variety, PrimePower(2, 1))
            after = tracer.calls["catalog"] + tracer.calls["localalg"]
            assert after - before == 1, tag
    finally:
        tracer.uninstall()


def test_cli_choices_are_registry_tags():
    assert cli.VARIETIES == tuple(FAMILIES)
    parser = cli.build_parser().nested()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    for name in ("decompose", "kernel", "local"):
        choices = {a.dest: a.choices for a in commands.choices[name]._actions}
        if name == "decompose":
            assert tuple(choices["variety"]) == tuple(FAMILIES)
        if name == "kernel":
            assert tuple(choices["variety"]) == tuple(filter(has_kernel, FAMILIES))
            assert "kind" not in choices
        else:
            assert tuple(choices["kind"]) == tuple(CONE_KINDS)


def argv(command: str, tag: str, *extra: str) -> list[str]:
    return [command, f"--variety={tag}", *cli_params(FIRST_SAMPLE[tag]),
            *extra, "--p=2", "--e=1"]


def has_kernel(tag: str) -> bool:
    return FAMILIES[tag].split or tag == "quadric"


def arity(tag: str) -> int:
    return len(FAMILIES[tag].bases[0])


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_zero_bundle_accepted(tag, capsys):
    zeros = ",".join("0" * arity(tag))
    assert cli.main(argv("decompose", tag, f"--bundle={zeros}")) == 0
    if has_kernel(tag):
        assert cli.main(argv("kernel", tag, f"--bundle={zeros}")) == 0
    capsys.readouterr()


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_malformed_bundle_is_usage_error(tag, capsys):
    for command in ("decompose", "kernel") if has_kernel(tag) else ("decompose",):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv(command, tag, "--bundle=x"))
        assert exc.value.code == 2
        assert "--bundle must be" in capsys.readouterr().err


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_wrong_bundle_arity_is_usage_error(tag, capsys):
    too_many = ",".join("0" * (arity(tag) + 1))
    for command in ("decompose", "kernel") if has_kernel(tag) else ("decompose",):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv(command, tag, f"--bundle={too_many}"))
        assert exc.value.code == 2
        assert "--bundle needs" in capsys.readouterr().err


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_kernel_rejects_nonzero_bundle(tag, capsys):
    # The trace kernel is always that of O, whatever the family; kernel
    # offers no family it does not answer for.
    one = ",".join(["1"] + ["0"] * (arity(tag) - 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv("kernel", tag, f"--bundle={one}"))
    assert exc.value.code == 2
    refusal = "kernel supports only --bundle" if has_kernel(tag) else "invalid choice"
    assert refusal in capsys.readouterr().err
