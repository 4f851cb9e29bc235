"""The family registry: one record per variety family, keyed by its tag.

A ``Family`` holds everything the rest of the package needs to know about a
family: its descriptor class, whether only the structure sheaf is supported,
the builder, and the restriction rule to its distinguished divisor.  The
family's lattice basis is declared once, as the descriptor's ``bases``
class data; the number of bundle coordinates (``arity``) is read from it.
The descriptor's fields, the names in its ``__slots__``, are at once its
constructor arguments, its CLI flags and its JSON ``params``; a ``ConeP``
field ``kind`` holds a cone named by a tag in ``CONE_KINDS``.  Adding a
family means writing its descriptor with its ``bases``, its builder and one
entry in ``FAMILIES``.

Builders reach ``catalog`` and ``localalg`` through their module attributes
at call time, so whatever rebinds those attributes (a tracer, a test double)
sees every call.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import catalog, localalg, restriction
from .combinat import PrimePower
from .errors import InvalidParameterError
from .picard import (
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
    VarietyDescriptor,
    VeroneseCone,
    VeroneseConeBlowup,
)
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
    def tag(self) -> str:
        return self.descriptor.tag

    @property
    def arity(self) -> int:
        """The number of coordinates of a bundle: the rank of the default basis."""
        return len(self.descriptor.bases[0])


FAMILIES: dict[str, Family] = {
    family.tag: family
    for family in (
        Family(
            ProjSpace,
            build=lambda v, b, fp: catalog.pushforward_projective_space(v.d, *b, fp),
        ),
        Family(
            Product,
            build=lambda v, b, fp: catalog.pushforward_product(v.r, v.s, *b, fp),
        ),
        Family(
            Hirzebruch,
            build=lambda v, b, fp: catalog.pushforward_hirzebruch(v.eps, *b, fp),
            # f and C0 restrict to the negative section as degrees 1 and -eps.
            rule=RestrictionRule(
                divisor="C0",
                target=lambda v: ProjSpace(1),
                matrix=lambda v: ((-v.eps,), (1,)),
            ),
        ),
        Family(
            LinearBlowup,
            build=lambda v, b, fp: catalog.pushforward_linear_blowup(v.d, v.r, fp),
            structure_only=True,
            # Classes restrict to a fiber of the exceptional bundle through
            # their H' coordinate; H dies.
            rule=RestrictionRule(
                divisor="E",
                target=lambda v: ProjSpace(v.d - v.r),
                matrix=lambda v: ((0,), (1,)),
            ),
        ),
        Family(
            VeroneseConeBlowup,
            build=lambda v, b, fp: catalog.pushforward_veronese_cone(v.d, v.eps, *b, fp),
            rule=RestrictionRule(
                divisor="E",
                target=lambda v: ProjSpace(v.d),
                matrix=lambda v: ((0,), (1,)),
            ),
        ),
        Family(
            SegreConeBlowup,
            build=lambda v, b, fp: catalog.pushforward_segre_cone(v.r, v.s, *b, fp),
            rule=RestrictionRule(
                divisor="E",
                target=lambda v: Product(v.r, v.s),
                matrix=lambda v: ((0, 0), (1, 0), (0, 1)),
            ),
        ),
        # The support of the canonical-twist pushforward F^e_* omega^{1-q}.
        Family(
            Quadric,
            build=lambda v, b, fp: catalog.quadric_pushforward_support(v.d, fp),
            structure_only=True,
            split=False,
        ),
        # Vertex-local Weil classes of the singular cone.
        Family(
            ConeP,
            build=lambda v, b, fp: localalg.cone_pushforward(v.kind, fp),
            structure_only=True,
            split=False,
        ),
    )
}

CONE_KINDS: dict[str, type] = {
    kind.tag: kind for kind in (RationalNormalCone, VeroneseCone, SegreCone)
}


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
