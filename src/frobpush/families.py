"""The family registry: one record per variety family, keyed by its tag.

A ``Family`` holds everything the rest of the package needs to know about a
family: its descriptor class, whether only the structure sheaf is supported,
the builder, and the restriction rule to its distinguished divisor.  Each
family and each cone kind is declared once, in ``picard``, and ``FAMILIES``
and ``CONE_KINDS`` are derived from those declarations.  The family's
lattice basis is the descriptor's ``bases``; the number of bundle
coordinates (``arity``) is read from it.  The descriptor's fields, the names
in its ``__slots__``, are at once its constructor arguments, its CLI flags
and its JSON ``params``; a ``ConeP`` field ``kind`` holds a cone named by a
tag in ``CONE_KINDS``.  Adding a family means one ``picard._declare`` call
and its builder.

Builders reach ``catalog`` and ``localalg`` through their module attributes
at call time, so whatever rebinds those attributes (a tracer, a test double)
sees every call.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import catalog, localalg, restriction
from .combinat import PrimePower
from .errors import InvalidParameterError
from .picard import DESCRIPTORS, Decomposition, VarietyDescriptor
from .restriction import RestrictionRule
from .value import Value

Builder = Callable[[VarietyDescriptor, tuple[int, ...], PrimePower], Decomposition]


class Family(Value):
    """One variety family.

    ``build(variety, bundle, fp)`` decomposes F^e_* of the line bundle whose
    ``arity`` coordinates are ``bundle``, in the variety's default basis; a
    ``structure_only`` family accepts only the zero bundle.  ``split`` marks
    the families whose F^e_* O is a complete direct sum of line bundles on
    the variety itself, so that it has a trace kernel.  ``rule`` restricts to
    the distinguished divisor that certifies the kernel is not ample; it is
    None where the ample cone is coordinate-wise.
    """

    __slots__ = ("descriptor", "build", "structure_only", "split", "rule")

    def __init__(self, descriptor: type, build: Builder, structure_only: bool = False,
                 split: bool = True, rule: Optional[RestrictionRule] = None) -> None:
        self._set(descriptor, build, structure_only, split, rule)

    @property
    def arity(self) -> int:
        """The number of coordinates of a bundle: the rank of the default basis."""
        return len(self.descriptor.bases[0])


def _family(cls: type) -> Family:
    """The registry record of a declared family.  Its builder is looked up
    on its module at each call, and a structure-only builder takes no bundle."""
    module, name = cls.builder.split(".")
    module = {"catalog": catalog, "localalg": localalg}[module]
    bundle = slice(0 if cls.structure_only else None)

    def build(v, b, fp):
        return getattr(module, name)(*v._fields(), *b[bundle], fp)

    rule = cls.rule and RestrictionRule(*cls.rule)
    return Family(cls, build, cls.structure_only, cls.split, rule)


FAMILIES: dict[str, Family] = {cls.tag: _family(cls) for cls in DESCRIPTORS if cls.builder}

CONE_KINDS: dict[str, type] = {cls.tag: cls for cls in DESCRIPTORS if not cls.builder}


def family_of(variety: VarietyDescriptor) -> Family:
    """The registry entry of a variety descriptor."""
    family = FAMILIES.get(variety.tag)
    if family is None:
        raise InvalidParameterError(f"{variety} is not in the family registry")
    return family


def build_descriptor(cls: type, value: Callable[[str], object]):
    """Construct ``cls`` from its fields, the names in its ``__slots__``,
    reading each with ``value(name)``.

    A field named ``kind`` holds a tag of ``CONE_KINDS``; that cone is built
    the same way from its own fields.
    """
    args = []
    for name in cls.__slots__:
        arg = value(name)
        if name == "kind":
            if arg not in CONE_KINDS:
                raise InvalidParameterError(f"unknown cone kind {arg!r}")
            arg = build_descriptor(CONE_KINDS[arg], value)
        args.append(arg)
    return cls(*args)


def descriptor_params(descriptor) -> dict:
    """The inverse of ``build_descriptor``: each field by name, with a cone
    kind flattened into its tag followed by its own fields."""
    params: dict = {}
    for name in descriptor.__slots__:
        arg = getattr(descriptor, name)
        if name == "kind":
            params["kind"] = arg.tag
            params.update(descriptor_params(arg))
        else:
            params[name] = arg
    return params


def structure_pushforward(variety: VarietyDescriptor, fp: PrimePower) -> Decomposition:
    """F^e_* O for any registered variety (the canonical twist on quadrics)."""
    family = family_of(variety)
    return family.build(variety, (0,) * family.arity, fp)


def restrict(decomp: Decomposition, divisor: str) -> Decomposition:
    """Restrict a line-bundle decomposition to its family's distinguished divisor."""
    rule = family_of(decomp.variety).rule
    if rule is None or rule.divisor != divisor:
        raise InvalidParameterError(
            f"no restriction rule for divisor {divisor!r} on {decomp.variety}"
        )
    return restriction.apply_rule(rule, decomp)
