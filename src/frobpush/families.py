"""The family registry: each variety family's declared class, keyed by its tag.

Each family and each cone kind is declared once, by a ``picard._declare``
call, and its declared class is its registry record: ``FAMILIES`` and
``CONE_KINDS`` key those classes by tag.  A family's class holds its lattice
``bases`` (the number of bundle coordinates is ``len(cls.bases[0])``), its
builder, whether only the structure sheaf is supported, and, for a split
family, its declared projective ``bundle`` and the ``divisor`` it restricts
to (both None elsewhere).  The descriptor's fields, the names in its
``__slots__``, are at once its constructor arguments, its CLI flags and its
JSON ``params``; a ``ConeP`` field ``kind`` holds a cone named by a tag in
``CONE_KINDS``.  Adding a family means one ``picard._declare`` call and its
builder.

``build`` looks each builder up on ``catalog`` or ``localalg`` at call time,
so whatever rebinds those attributes (a tracer, a test double) sees every
call.
"""

from __future__ import annotations

from collections.abc import Callable

from . import catalog, localalg
from .combinat import PrimePower
from .errors import InvalidParameterError
from .picard import DESCRIPTORS, Decomposition, VarietyDescriptor

FAMILIES: dict[str, type] = {cls.tag: cls for cls in DESCRIPTORS if cls.builder}

CONE_KINDS: dict[str, type] = {cls.tag: cls for cls in DESCRIPTORS if not cls.builder}

_BUILDER_MODULES = {"catalog": catalog, "localalg": localalg}


def family_of(variety: VarietyDescriptor) -> type:
    """The declared class of a registry variety; a cone kind is refused."""
    cls = FAMILIES.get(variety.tag)
    if cls is None:
        raise InvalidParameterError(f"{variety} is not in the family registry")
    return cls


def build(variety: VarietyDescriptor, bundle: tuple[int, ...], fp: PrimePower) -> Decomposition:
    """F^e_* of the line bundle whose coordinates in the variety's default
    basis are ``bundle``, by its family's builder.  The bundle must have one
    coordinate per basis element; a ``structure_only`` builder takes no
    bundle, so its family admits only zeros."""
    cls = family_of(variety)
    module, name = cls.builder.split(".")
    if len(bundle) != len(cls.bases[0]):
        raise InvalidParameterError(
            f"{variety} needs {len(cls.bases[0])} bundle coordinates; got {bundle}"
        )
    if cls.structure_only:
        if any(bundle):
            raise InvalidParameterError(
                f"{variety} supports only the structure sheaf; got bundle {bundle}"
            )
        bundle = ()
    return getattr(_BUILDER_MODULES[module], name)(*variety._fields(), *bundle, fp)


def build_descriptor(cls: type, value: Callable[[str], object]):
    """Construct ``cls`` from its fields, the names in its ``__slots__``,
    reading each with ``value(name)``.

    A field named ``kind`` holds a tag of ``CONE_KINDS``, a ``str``; that
    cone is built the same way from its own fields.
    """
    args = []
    for name in cls.__slots__:
        arg = value(name)
        if name == "kind":
            if type(arg) is not str or arg not in CONE_KINDS:
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
    return build(variety, (0,) * len(family_of(variety).bases[0]), fp)
