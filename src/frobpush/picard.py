"""Picard-lattice classes, variety descriptors, and formal direct sums.

A ``Decomposition`` is a finite multiset of summands (line-bundle classes,
plus spinor twists on quadrics) with exact integer multiplicities, tagged by
the variety it lives on.  All values here are immutable; every operation
returns a fresh object, so unrestricted concurrent use is safe.  The classes,
summands and variety descriptors are ``value.Value`` records: slotted
classes whose fields are their ``__slots__``, with a hand-written
``__init__`` that runs the checks, and no ``dataclasses`` import.

A ``Decomposition`` keeps its line summands as coordinate tuples and its
spinor twists as integers, so the builders and the algebra (dual, twist,
basis change, restriction) merge summands on keys that hash and compare in
C.  ``PicClass`` and ``Line`` are the values a caller reads: they are built
when a decomposition is iterated or sorted, and for verdict witnesses.  A
``PicClass`` hashes its coordinates and basis once, when it
is built, and a ``Line`` reuses its class's hash.  Pickling rebuilds a class
from its coordinates, so the hash is never carried into another process,
whose string hashes differ.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import add, neg
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Union

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

    __slots__ = ("coords", "basis", "_hash")

    def __init__(self, coords: tuple[int, ...], basis: Basis) -> None:
        object.__setattr__(self, "coords", tuple(map(int, coords)))
        object.__setattr__(self, "basis", tuple(basis))
        self.__post_init__()

    def __post_init__(self) -> None:
        coords, basis = self.coords, self.basis
        if len(coords) != len(basis):
            raise LatticeMismatchError(f"{len(coords)} coordinates against basis {basis}")
        object.__setattr__(self, "_hash", hash((coords, basis)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, the hash.
        return (PicClass, (self.coords, self.basis))

    @classmethod
    def zero(cls, basis: Basis) -> "PicClass":
        return cls((0,) * len(basis), tuple(basis))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "PicClass") -> None:
        if self.basis != other.basis:
            raise LatticeMismatchError(f"{self.basis} vs {other.basis}")

    def __add__(self, other: "PicClass") -> "PicClass":
        self._check(other)
        return PicClass(tuple(a + b for a, b in zip(self.coords, other.coords)), self.basis)

    def __sub__(self, other: "PicClass") -> "PicClass":
        self._check(other)
        return PicClass(tuple(a - b for a, b in zip(self.coords, other.coords)), self.basis)

    def __neg__(self) -> "PicClass":
        return PicClass(tuple(-a for a in self.coords), self.basis)

    def scaled(self, k: int) -> "PicClass":
        return PicClass(tuple(k * a for a in self.coords), self.basis)

    def __repr__(self) -> str:
        return f"PicClass({self.coords}, basis={self.basis})"


class Line(Value):
    """A line-bundle summand, rank 1."""

    __slots__ = ("cls",)

    def __init__(self, cls: PicClass) -> None:
        object.__setattr__(self, "cls", cls)

    def __hash__(self) -> int:
        return self.cls._hash


class Spinor(Value):
    """A spinor-bundle twist S(j); only meaningful on quadrics."""

    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)


Summand = Union[Line, Spinor]


# ---------------------------------------------------------------------------
# Variety descriptors.  Each carries its dimension and, as class data, the
# admissible ordered bases of its class lattice (the first is the default).
# ``bases`` is the one declaration of a family's lattice, which every other
# layer reads; as class data it is no field (no entry of ``__slots__``), so
# never a CLI flag.
# ---------------------------------------------------------------------------


class ProjSpace(Value):
    __slots__ = ("d",)
    tag = "projspace"
    bases: tuple[Basis, ...] = (("H",),)

    def __init__(self, d: int) -> None:
        if d < 1:
            raise InvalidParameterError(f"projective space needs d >= 1; got d={d}")
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.d


class Product(Value):
    """A product of two projective spaces P^r x P^s."""

    __slots__ = ("r", "s")
    tag = "product"
    bases: tuple[Basis, ...] = (("H1", "H2"),)

    def __init__(self, r: int, s: int) -> None:
        if r < 1 or s < 1:
            raise InvalidParameterError(f"product needs r, s >= 1; got ({r}, {s})")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def dim(self) -> int:
        return self.r + self.s


class Hirzebruch(Value):
    """The ruled surface P(O + O(-eps)) over P^1; C0 is the negative section."""

    __slots__ = ("eps",)
    tag = "hirzebruch"
    dim = 2
    bases: tuple[Basis, ...] = (("C0", "f"),)

    def __init__(self, eps: int) -> None:
        if eps < 0:
            raise InvalidParameterError(f"hirzebruch needs eps >= 0; got eps={eps}")
        object.__setattr__(self, "eps", eps)


class LinearBlowup(Value):
    """Blowup of P^d along a linear subspace of dimension r-1.

    Two bases coexist: ("H", "H'") from the projective-bundle structure over
    P^{d-r}, and ("H", "E") with the exceptional divisor, related by
    H = H' + E.
    """

    __slots__ = ("d", "r")
    tag = "blowup-linear"
    bases: tuple[Basis, ...] = (("H", "H'"), ("H", "E"))

    def __init__(self, d: int, r: int) -> None:
        if d < 2 or not 1 <= r <= d - 1:
            raise InvalidParameterError(
                f"linear blowup needs d >= 2 and 1 <= r <= d-1; got (d={d}, r={r})"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return self.d


class VeroneseConeBlowup(Value):
    """Blowup at the vertex of the cone over the eps-th Veronese image of P^d.

    Realized as the P^1-bundle P(O + O(eps)) over P^d; basis ("H", "H'")
    with H = E + eps*H'.
    """

    __slots__ = ("d", "eps")
    tag = "veronese-cone"
    bases: tuple[Basis, ...] = (("H", "H'"),)

    def __init__(self, d: int, eps: int) -> None:
        if d < 1 or eps < 1:
            raise InvalidParameterError(
                f"veronese cone blowup needs d >= 1, eps >= 1; got (d={d}, eps={eps})"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eps", eps)

    @property
    def dim(self) -> int:
        return self.d + 1


class SegreConeBlowup(Value):
    """Blowup at the vertex of the cone over the Segre image of P^r x P^s.

    Basis ("H", "G1", "G2") with E = H - G1 - G2.
    """

    __slots__ = ("r", "s")
    tag = "segre-cone"
    bases: tuple[Basis, ...] = (("H", "G1", "G2"),)

    def __init__(self, r: int, s: int) -> None:
        if r < 1 or s < 1:
            raise InvalidParameterError(f"segre cone blowup needs r, s >= 1; got ({r}, {s})")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def dim(self) -> int:
        return self.r + self.s + 1


class Quadric(Value):
    """The smooth d-dimensional quadric, d >= 3; summands may include spinors."""

    __slots__ = ("d",)
    tag = "quadric"
    bases: tuple[Basis, ...] = (("O(1)",),)

    def __init__(self, d: int) -> None:
        if d < 3:
            raise InvalidParameterError(
                f"quadric decompositions need d >= 3 (lower d is covered by "
                f"projspace/product); got d={d}"
            )
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.d

    @property
    def spinor_rank(self) -> int:
        return 2 ** (self.d // 2)


class RationalNormalCone(Value):
    """Projective cone over the rational normal curve of degree eps."""

    __slots__ = ("eps",)
    tag = "rnc"
    dim = 2

    def __init__(self, eps: int) -> None:
        if eps < 1:
            raise InvalidParameterError(f"cone needs eps >= 1; got eps={eps}")
        object.__setattr__(self, "eps", eps)


class VeroneseCone(Value):
    """Projective cone over the eps-th Veronese image of P^d."""

    __slots__ = ("d", "eps")
    tag = "veronese"

    def __init__(self, d: int, eps: int) -> None:
        if d < 1 or eps < 1:
            raise InvalidParameterError(
                f"veronese cone needs d >= 1, eps >= 1; got (d={d}, eps={eps})"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eps", eps)

    @property
    def dim(self) -> int:
        return self.d + 1


class SegreCone(Value):
    """Projective cone over the Segre image of P^r x P^s."""

    __slots__ = ("r", "s")
    tag = "segre"

    def __init__(self, r: int, s: int) -> None:
        if r < 1 or s < 1:
            raise InvalidParameterError(f"segre cone needs r, s >= 1; got ({r}, {s})")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def dim(self) -> int:
        return self.r + self.s + 1


ConeKind = Union[RationalNormalCone, VeroneseCone, SegreCone]


class ConeP(Value):
    """The singular projective cone itself; classes are Weil divisor classes
    near the vertex, on the single generator ("L",).

    For the Segre kind L is the class of L1 in the affine chart, where the
    relation L1 + L2 ~ 0 has been imposed.  For the other kinds the class
    group near the vertex is generated by the ruling L with eps*L Cartier,
    so classes are only meaningful modulo eps; decompositions use
    representatives -k*L with 0 <= k <= eps-1.
    """

    __slots__ = ("kind",)
    tag = "cone-p"
    bases: tuple[Basis, ...] = (("L",),)

    def __init__(self, kind: ConeKind) -> None:
        object.__setattr__(self, "kind", kind)

    @property
    def dim(self) -> int:
        return self.kind.dim


VarietyDescriptor = Union[
    ProjSpace,
    Product,
    Hirzebruch,
    LinearBlowup,
    VeroneseConeBlowup,
    SegreConeBlowup,
    Quadric,
    ConeP,
]


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

    def __getitem__(self, summand: Summand) -> Optional[int]:
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
        items: Iterable[tuple[Union[Summand, tuple[int, ...]], Optional[int]]],
        basis: Optional[Basis] = None,
        support_only: bool = False,
    ) -> None:
        basis = tuple(basis) if basis is not None else variety.bases[0]
        if basis not in variety.bases:
            raise LatticeMismatchError(f"basis {basis} is not a basis of {variety}")
        size = len(basis)
        lines: dict[tuple[int, ...], Optional[int]] = {}
        spinors: dict[int, Optional[int]] = {}
        for summand, mult in items:
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
            elif not isinstance(variety, Quadric):
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
        object.__setattr__(self, "variety", variety)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "support_only", support_only)
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "_spinors", spinors)

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
    def lines(self) -> Mapping[tuple[int, ...], Optional[int]]:
        """Line summands as ``{coordinate tuple in basis: multiplicity}``."""
        return MappingProxyType(self._lines)

    @property
    def spinors(self) -> Mapping[int, Optional[int]]:
        """Spinor twists S(j) as ``{j: multiplicity}``."""
        return MappingProxyType(self._spinors)

    @property
    def entries(self) -> Mapping[Summand, Optional[int]]:
        return _Entries(self)

    def items(self) -> Iterator[tuple[Summand, Optional[int]]]:
        basis = self.basis
        for coords, mult in self._lines.items():
            yield Line(PicClass(coords, basis)), mult
        for j, mult in self._spinors.items():
            yield Spinor(j), mult

    def sorted_items(self) -> list[tuple[Summand, Optional[int]]]:
        """Line summands by descending coordinates, then spinors by
        descending twist (keys are distinct, so no multiplicity is
        compared)."""
        basis = self.basis
        items: list[tuple[Summand, Optional[int]]] = [
            (Line(PicClass(coords, basis)), mult)
            for coords, mult in sorted(self._lines.items(), reverse=True)
        ]
        items += [(Spinor(j), mult) for j, mult in sorted(self._spinors.items(), reverse=True)]
        return items

    @property
    def is_empty(self) -> bool:
        return not (self._lines or self._spinors)

    def trivial_class(self) -> PicClass:
        return PicClass.zero(self.basis)

    def multiplicity(self, summand: Union[Summand, tuple[int, ...]]) -> int:
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


def change_basis(decomp: Decomposition, target: Basis) -> Decomposition:
    """Rewrite a linear-blowup decomposition between ("H","H'") and ("H","E").

    With H = H' + E the coordinate map is (a, b) -> (a + b, -b) in both
    directions (it is an involution).
    """
    target = tuple(target)
    if not isinstance(decomp.variety, LinearBlowup):
        raise LatticeMismatchError("basis change is only defined on linear blowups")
    if target not in decomp.variety.bases:
        raise LatticeMismatchError(f"{target} is not a basis of {decomp.variety}")
    if target == decomp.basis:
        return decomp
    items = [((a + b, -b), mult) for (a, b), mult in decomp.lines.items()]
    return Decomposition(decomp.variety, items, target, decomp.support_only)
