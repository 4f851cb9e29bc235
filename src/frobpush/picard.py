"""Picard-lattice classes, variety descriptors, and formal direct sums.

A ``Decomposition`` is a finite multiset of summands (line-bundle classes,
plus spinor twists on quadrics) with exact integer multiplicities, tagged by
the variety it lives on.  All values here are immutable; every operation
returns a fresh object, so unrestricted concurrent use is safe.  The classes,
summands and variety descriptors are ``value.Value`` records: slotted
classes whose fields are their ``__slots__``, with an ``__init__`` that runs
the checks, and no ``dataclasses`` import.  Each variety family and each
cone kind is declared once, by one ``_declare`` call that generates its
descriptor class: fields, refusal, ``tag``, ``bases``, ``dim`` and, for a
registry family, its builder and, if split, the bundle its ``dim`` derives
from and the divisor it restricts to.  ``Decomposition`` and
``change_basis`` read the declarations (``spinor_rank``, ``bases``), not
the descriptor's type.

A ``Decomposition`` keeps its line summands as coordinate tuples and its
spinor twists as integers, so the builders and the algebra (dual, twist,
basis change, restriction) merge summands on keys that hash and compare in
C.  ``PicClass`` and ``Line`` are the values a caller reads: they are built
when a decomposition is iterated or sorted, and for verdict witnesses.  They
compare, hash and pickle as ``Value`` records, by their fields.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from operator import add, neg
from types import MappingProxyType

from .errors import (
    DeterminantUnsupportedError,
    InvalidParameterError,
    LatticeMismatchError,
    NotFSplitError,
    RankUndefinedError,
)
from .value import Value

Basis = tuple[str, ...]


class PicClass(Value):
    """An integer vector of coordinates against a named lattice basis."""

    __slots__ = ("coords", "basis")

    def __init__(self, coords: tuple[int, ...], basis: Basis) -> None:
        object.__setattr__(self, "coords", tuple(map(int, coords)))
        object.__setattr__(self, "basis", tuple(basis))
        self.__post_init__()

    def __post_init__(self) -> None:
        coords, basis = self.coords, self.basis
        if len(coords) != len(basis):
            raise LatticeMismatchError(f"{len(coords)} coordinates against basis {basis}")

    @classmethod
    def zero(cls, basis: Basis) -> "PicClass":
        return cls((0,) * len(basis), tuple(basis))

    def __neg__(self) -> "PicClass":
        return PicClass(tuple(-a for a in self.coords), self.basis)

    def __repr__(self) -> str:
        return f"PicClass({self.coords}, basis={self.basis})"


class Line(Value):
    """A line-bundle summand, rank 1."""

    __slots__ = ("cls",)

    def __init__(self, cls: PicClass) -> None:
        object.__setattr__(self, "cls", cls)


class Spinor(Value):
    """A spinor-bundle twist S(j); only meaningful on quadrics."""

    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)


Summand = Line | Spinor


# ---------------------------------------------------------------------------
# Variety descriptors.  Each family and each cone kind is one ``_declare``
# call, the only place it is written down; ``families`` keys the declared
# classes by tag as ``FAMILIES`` and ``CONE_KINDS``.  ``bases``, the
# admissible ordered bases of a family's class lattice (the first is the
# default), is the one declaration of its lattice, which every other layer
# reads; as class data it is no field (no entry of ``__slots__``), so never a
# CLI flag.
# ---------------------------------------------------------------------------

DESCRIPTORS: list[type] = []


def _declare(name: str, tag: str, fields: tuple[str, ...], doc: str | None = None, *,
             refuse: str = "", refusal: str = "", dim: Callable[[Value], int] | None = None,
             bases: tuple[Basis, ...] = (), spinor_rank: Callable | None = None,
             builder: str | None = None, structure_only: bool = False,
             bundle: Callable | None = None, divisor: str | None = None) -> type:
    """The descriptor class ``name`` of one family or cone kind.

    ``fields`` are its ``__slots__`` in constructor order: at once its
    constructor arguments, its CLI flags and its JSON ``params``.  The
    constructor refuses arguments for which the expression ``refuse`` over
    the fields holds, raising ``InvalidParameterError`` with ``refusal``
    formatted from the fields.  It is generated as source, one per class,
    so a descriptor costs what a hand-written constructor costs: a verify
    pass builds about 14,000 of them.  ``dim`` and ``spinor_rank`` become
    properties; a family with a ``spinor_rank`` may hold spinor summands.

    A declaration with a ``builder`` is a registry family, and its class is
    its record in ``families.FAMILIES``.  The builder, "module.function", is
    called with the fields, then the bundle coordinates unless
    ``structure_only`` (the family accepts only the zero bundle), then the
    prime power.  A declaration with no builder is a cone kind, built inside
    ``ConeP``.

    A family declared with a ``bundle`` is ``split``: F^e_* O is a direct sum
    of line bundles, with a trace kernel.  It is a projective bundle P(E) over
    a base B, and ``variety.bundle()`` gives B (a descriptor, None for a
    point) and the twists of E in B's default basis; its own default basis is
    xi = O(1), then the pullbacks of B's.  ``dim`` is dim B + rank E - 1.
    ``divisor`` names the section over B of a quotient E -> O(a_min), which
    ``restriction.restrict`` restricts to.  The divisor is declared, not
    derived: Hirzebruch(0) has equal twists, yet restricts.  Both ``bundle``
    and ``divisor`` are None where nothing is declared.
    """
    source = f"def __init__(self, {', '.join(fields)}):\n"
    if refuse:
        source += f"    if {refuse}:\n        raise InvalidParameterError(f{refusal!r})\n"
    source += "".join(f"    _set(self, {field!r}, {field})\n" for field in fields)
    namespace = {"InvalidParameterError": InvalidParameterError, "_set": object.__setattr__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{name}.__init__"
    if bundle:
        def dim(v):
            base, twists = bundle(v)
            return (base.dim if base else 0) + len(twists) - 1
    cls = type(name, (Value,), {
        "__slots__": fields, "__doc__": doc, "__module__": __name__, "__init__": init,
        "tag": tag, "bases": bases, "dim": property(dim),
        "spinor_rank": spinor_rank and property(spinor_rank), "builder": builder,
        "structure_only": structure_only, "split": bundle is not None,
        "bundle": bundle, "divisor": divisor,
    })
    DESCRIPTORS.append(cls)
    return cls


ProjSpace = _declare(
    "ProjSpace", "projspace", ("d",),
    refuse="d < 1", refusal="projective space needs d >= 1; got d={d}",
    bases=(("H",),), bundle=lambda v: (None, ((),) * (v.d + 1)),
    builder="catalog.pushforward_projective_space",
)

Product = _declare(
    "Product", "product", ("r", "s"),
    "A product of two projective spaces P^r x P^s.",
    refuse="r < 1 or s < 1", refusal="product needs r, s >= 1; got ({r}, {s})",
    bases=(("H1", "H2"),), bundle=lambda v: (ProjSpace(v.s), ((0,),) * (v.r + 1)),
    builder="catalog.pushforward_product",
)

Hirzebruch = _declare(
    "Hirzebruch", "hirzebruch", ("eps",),
    "The ruled surface P(O + O(-eps)) over P^1; C0 is the negative section.",
    refuse="eps < 0", refusal="hirzebruch needs eps >= 0; got eps={eps}",
    bases=(("C0", "f"),), bundle=lambda v: (ProjSpace(1), ((0,), (-v.eps,))), divisor="C0",
    builder="catalog.pushforward_hirzebruch",
)

LinearBlowup = _declare(
    "LinearBlowup", "blowup-linear", ("d", "r"),
    """Blowup of P^d along a linear subspace of dimension r-1.

    Two bases coexist: ("H", "H'") from the projective-bundle structure over
    P^{d-r}, and ("H", "E") with the exceptional divisor, related by
    H = H' + E.
    """,
    refuse="d < 2 or not 1 <= r <= d - 1",
    refusal="linear blowup needs d >= 2 and 1 <= r <= d-1; got (d={d}, r={r})",
    bases=(("H", "H'"), ("H", "E")), divisor="E",
    bundle=lambda v: (ProjSpace(v.d - v.r), ((0,),) * v.r + ((1,),)),
    builder="catalog.pushforward_linear_blowup", structure_only=True,
)

VeroneseConeBlowup = _declare(
    "VeroneseConeBlowup", "veronese-cone", ("d", "eps"),
    """Blowup at the vertex of the cone over the eps-th Veronese image of P^d.

    Realized as the P^1-bundle P(O + O(eps)) over P^d; basis ("H", "H'")
    with H = E + eps*H'.
    """,
    refuse="d < 1 or eps < 1",
    refusal="veronese cone blowup needs d >= 1, eps >= 1; got (d={d}, eps={eps})",
    bases=(("H", "H'"),), bundle=lambda v: (ProjSpace(v.d), ((0,), (v.eps,))), divisor="E",
    builder="catalog.pushforward_veronese_cone",
)

SegreConeBlowup = _declare(
    "SegreConeBlowup", "segre-cone", ("r", "s"),
    """Blowup at the vertex of the cone over the Segre image of P^r x P^s.

    Basis ("H", "G1", "G2") with E = H - G1 - G2.
    """,
    refuse="r < 1 or s < 1", refusal="segre cone blowup needs r, s >= 1; got ({r}, {s})",
    bases=(("H", "G1", "G2"),), divisor="E",
    bundle=lambda v: (Product(v.r, v.s), ((0, 0), (1, 1))),
    builder="catalog.pushforward_segre_cone",
)

# Its builder gives the support of the canonical-twist pushforward
# F^e_* omega^{1-q}.
Quadric = _declare(
    "Quadric", "quadric", ("d",),
    "The smooth d-dimensional quadric, d >= 3; summands may include spinors.",
    refuse="d < 3",
    refusal="quadric decompositions need d >= 3 (lower d is covered by "
    "projspace/product); got d={d}",
    dim=lambda v: v.d, bases=(("O(1)",),), spinor_rank=lambda v: 2 ** (v.d // 2),
    builder="catalog.quadric_pushforward_support", structure_only=True,
)

RationalNormalCone = _declare(
    "RationalNormalCone", "rnc", ("eps",),
    "Projective cone over the rational normal curve of degree eps.",
    refuse="eps < 1", refusal="cone needs eps >= 1; got eps={eps}",
    dim=lambda v: 2,
)

VeroneseCone = _declare(
    "VeroneseCone", "veronese", ("d", "eps"),
    "Projective cone over the eps-th Veronese image of P^d.",
    refuse="d < 1 or eps < 1",
    refusal="veronese cone needs d >= 1, eps >= 1; got (d={d}, eps={eps})",
    dim=lambda v: v.d + 1,
)

SegreCone = _declare(
    "SegreCone", "segre", ("r", "s"),
    "Projective cone over the Segre image of P^r x P^s.",
    refuse="r < 1 or s < 1", refusal="segre cone needs r, s >= 1; got ({r}, {s})",
    dim=lambda v: v.r + v.s + 1,
)

# Its builder gives the vertex-local Weil classes of the singular cone.
ConeP = _declare(
    "ConeP", "cone-p", ("kind",),
    """The singular projective cone itself; classes are Weil divisor classes
    near the vertex, on the single generator ("L",).

    For the Segre kind L is the class of L1 in the affine chart, where the
    relation L1 + L2 ~ 0 has been imposed.  For the other kinds the class
    group near the vertex is generated by the ruling L with eps*L Cartier,
    so classes are only meaningful modulo eps; decompositions use
    representatives -k*L with 0 <= k <= eps-1.
    """,
    dim=lambda v: v.kind.dim, bases=(("L",),),
    builder="localalg.cone_pushforward", structure_only=True,
)

# Any declared descriptor; a cone kind is one declared with no builder.
VarietyDescriptor = ConeKind = Value


class _Entries(Mapping):
    """Read-only view of a decomposition's summands keyed by ``Line`` and
    ``Spinor``.  Its length reads the stores; a key is built only when the
    view is iterated."""

    __slots__ = ("_decomp",)

    def __init__(self, decomp: "Decomposition") -> None:
        self._decomp = decomp

    def __len__(self) -> int:
        return len(self._decomp._lines) + len(self._decomp._spinors)

    def __iter__(self) -> Iterator[Summand]:
        for summand, _ in self._decomp.items():
            yield summand

    def __getitem__(self, summand: Summand) -> int | None:
        store, key = self._decomp._store(summand)
        if key in store:
            return store[key]
        raise KeyError(summand)

    def __repr__(self) -> str:
        return repr(dict(self._decomp.items()))


class Decomposition(Value):
    """A finite multiset of summands with exact multiplicities.

    The constructor takes each summand as a ``Line``, a ``Spinor`` or a
    tuple of integer coordinates in ``basis``.  Line summands are stored as
    ``{coordinate tuple: multiplicity}`` and spinor twists as
    ``{j: multiplicity}``; ``lines`` and ``spinors`` are read-only views of
    the two.  The algebra works on those tuples, so building, dualising,
    twisting or restricting a decomposition builds no ``PicClass`` or
    ``Line``.  They are built only for a caller that reads them, through
    ``items``, ``sorted_items`` and ``entries`` (a read-only mapping keyed by
    ``Line`` and ``Spinor``, whose length builds nothing).

    ``support_only`` marks decompositions (quadrics) where some
    multiplicities are unknown; those entries carry ``None``.  It is a
    ``Value`` whose fields are its slots: two are equal field by field, no
    field can be reassigned, and it is unhashable, as its stores are dicts.
    """

    __slots__ = ("variety", "basis", "support_only", "_lines", "_spinors")
    __hash__ = None

    def __init__(
        self,
        variety: VarietyDescriptor,
        items: Iterable[tuple[Summand | tuple[int, ...], int | None]],
        basis: Basis | None = None,
        support_only: bool = False,
    ) -> None:
        basis = tuple(basis) if basis is not None else variety.bases[0]
        if basis not in variety.bases:
            raise LatticeMismatchError(f"basis {basis} is not a basis of {variety}")
        size = len(basis)
        lines: dict[tuple[int, ...], int | None] = {}
        spinors: dict[int, int | None] = {}
        for summand, mult in items:
            # The common summand first; anything else takes every check below.
            if type(summand) is tuple and len(summand) == size and type(mult) is int and mult > 0:
                prev = lines.get(summand, 0)
                lines[summand] = None if prev is None else prev + mult
                continue
            if type(summand) is tuple:
                if len(summand) != size:
                    raise LatticeMismatchError(
                        f"{len(summand)} coordinates against basis {basis}"
                    )
                store, key = lines, summand
            elif isinstance(summand, Line):
                if summand.cls.basis != basis:
                    raise LatticeMismatchError(
                        f"summand basis {summand.cls.basis} vs decomposition basis {basis}"
                    )
                store, key = lines, summand.cls.coords
            elif variety.spinor_rank is None:
                raise InvalidParameterError("spinor summands only live on quadrics")
            elif isinstance(summand, Spinor):
                store, key = spinors, summand.j
            else:
                raise InvalidParameterError(
                    f"a summand is a Line, a Spinor or a coordinate tuple; got {summand!r}"
                )
            if mult is None:
                if not support_only:
                    raise InvalidParameterError(
                        "unknown multiplicities require support_only=True"
                    )
                store[key] = None
                continue
            if mult < 0:
                raise InvalidParameterError(f"multiplicity must be >= 0; got {mult}")
            if mult == 0:
                continue
            prev = store.get(key, 0)
            store[key] = None if prev is None else prev + mult
        _set_variety(self, variety)
        _set_basis(self, basis)
        _set_support_only(self, support_only)
        _set_lines(self, lines)
        _set_spinors(self, spinors)

    def __reduce__(self):
        items = [*self._lines.items(), *((Spinor(j), m) for j, m in self._spinors.items())]
        return (Decomposition, (self.variety, items, self.basis, self.support_only))

    def _store(self, summand) -> tuple[dict, object]:
        """The store that would hold ``summand`` and its key there; an empty
        store for a summand that cannot occur here."""
        if type(summand) is tuple:
            return self._lines, summand
        if isinstance(summand, Line):
            if summand.cls.basis == self.basis:
                return self._lines, summand.cls.coords
        elif isinstance(summand, Spinor):
            return self._spinors, summand.j
        return {}, None

    # -- basic views --------------------------------------------------------

    @property
    def lines(self) -> Mapping[tuple[int, ...], int | None]:
        """Line summands as ``{coordinate tuple in basis: multiplicity}``."""
        return MappingProxyType(self._lines)

    @property
    def spinors(self) -> Mapping[int, int | None]:
        """Spinor twists S(j) as ``{j: multiplicity}``."""
        return MappingProxyType(self._spinors)

    @property
    def entries(self) -> Mapping[Summand, int | None]:
        return _Entries(self)

    def items(self) -> Iterator[tuple[Summand, int | None]]:
        basis = self.basis
        for coords, mult in self._lines.items():
            yield Line(PicClass(coords, basis)), mult
        for j, mult in self._spinors.items():
            yield Spinor(j), mult

    def sorted_items(self) -> list[tuple[Summand, int | None]]:
        """Line summands by descending coordinates, then spinors by
        descending twist (keys are distinct, so no multiplicity is
        compared)."""
        basis = self.basis
        items: list[tuple[Summand, int | None]] = [
            (Line(PicClass(coords, basis)), mult)
            for coords, mult in sorted(self._lines.items(), reverse=True)
        ]
        items += [(Spinor(j), mult) for j, mult in sorted(self._spinors.items(), reverse=True)]
        return items

    def trivial_class(self) -> PicClass:
        return PicClass.zero(self.basis)

    def multiplicity(self, summand: Summand | tuple[int, ...]) -> int:
        """Multiplicity of a ``Line``, a ``Spinor`` or a coordinate tuple."""
        store, key = self._store(summand)
        mult = store.get(key, 0)
        if mult is None:
            raise RankUndefinedError(f"multiplicity of {summand} is unknown")
        return mult

    def trivial_multiplicity(self) -> int:
        return self.multiplicity((0,) * len(self.basis))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{s}: {'?' if m is None else m}" for s, m in self.sorted_items()
        )
        return f"Decomposition({self.variety}, {{{body}}})"

    # -- algebra -------------------------------------------------------------

    def rank(self) -> int:
        if self.support_only:
            raise RankUndefinedError("rank undefined for a support-only decomposition")
        total = sum(self._lines.values())
        if self._spinors:
            total += self.variety.spinor_rank * sum(self._spinors.values())
        return total

    def dual(self) -> "Decomposition":
        """Dualize summand-wise: O(c) -> O(-c) and S(j) -> S(1-j)."""
        items: list = [(tuple(map(neg, coords)), mult) for coords, mult in self._lines.items()]
        items += [(Spinor(1 - j), mult) for j, mult in self._spinors.items()]
        return Decomposition(self.variety, items, self.basis, self.support_only)

    def twist(self, cls: PicClass) -> "Decomposition":
        """Tensor with the line bundle of class ``cls``.

        On quadrics the spinor index shifts by the single coordinate of
        ``cls``.
        """
        if cls.basis != self.basis:
            raise LatticeMismatchError(
                f"twist class basis {cls.basis} vs decomposition basis {self.basis}"
            )
        shift = cls.coords
        items: list = [
            (tuple(map(add, coords, shift)), mult) for coords, mult in self._lines.items()
        ]
        items += [(Spinor(j + shift[0]), mult) for j, mult in self._spinors.items()]
        return Decomposition(self.variety, items, self.basis, self.support_only)

    def det(self) -> PicClass:
        """Determinant class: the multiplicity-weighted sum of line classes."""
        if self.support_only:
            raise RankUndefinedError("determinant undefined for support-only data")
        if self._spinors:
            raise DeterminantUnsupportedError("determinant undefined with spinor summands present")
        total = [0] * len(self.basis)
        for coords, mult in self._lines.items():
            for t, c in enumerate(coords):
                total[t] += mult * c
        return PicClass(tuple(total), self.basis)

    def remove_trivial(self) -> "Decomposition":
        """Strip exactly one copy of the trivial line bundle."""
        trivial = (0,) * len(self.basis)
        lines = dict(self._lines)
        if trivial not in lines:
            raise NotFSplitError("no trivial summand to remove")
        mult = lines.pop(trivial)
        if mult is None:
            raise NotFSplitError("trivial summand present but with unknown multiplicity")
        if mult > 1:
            lines[trivial] = mult - 1
        items = [*lines.items(), *((Spinor(j), m) for j, m in self._spinors.items())]
        return Decomposition(self.variety, items, self.basis, self.support_only)


# The slot descriptors the constructor stores its fields through, bound once.
_set_variety, _set_basis, _set_support_only, _set_lines, _set_spinors = (
    Decomposition.__dict__[name].__set__ for name in Decomposition.__slots__
)


def change_basis(decomp: Decomposition, target: Basis) -> Decomposition:
    """Rewrite a linear-blowup decomposition between ("H","H'") and ("H","E").

    With H = H' + E the coordinate map is (a, b) -> (a + b, -b) in both
    directions (it is an involution).
    """
    target = tuple(target)
    if len(decomp.variety.bases) < 2:
        raise LatticeMismatchError("basis change is only defined on linear blowups")
    if target not in decomp.variety.bases:
        raise LatticeMismatchError(f"{target} is not a basis of {decomp.variety}")
    if target == decomp.basis:
        return decomp
    items = [((a + b, -b), mult) for (a, b), mult in decomp.lines.items()]
    return Decomposition(decomp.variety, items, target, decomp.support_only)
