"""Restriction of decompositions to the distinguished divisor of each family.

A family that declares a ``divisor`` is a projective bundle P(E) -> B, and
the divisor is the section over B of the quotient E -> O(a_min), where a_min
is the least twist of E.  Restricting takes xi = O(1) to a_min and each
pullback from B to itself, so a class (x, y) goes to x*a_min + y on B.
a_min is at most every twist coordinate by coordinate, so it is also their
least in tuple order, ``min(twists)``.  ``restrict`` takes no divisor: it
reads the one the decomposition's family declares.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .picard import Decomposition, change_basis


def restrict(decomp: Decomposition) -> Decomposition:
    """Restrict a line-bundle decomposition to the divisor its family declares;
    a variety that declares none is refused.

    A decomposition in another basis is first rewritten into its variety's
    default basis (only linear blowups have a second basis).  The images are
    taken one target coordinate at a time, and the columns of images are
    zipped back into coordinate tuples.
    """
    variety = decomp.variety
    if variety.divisor is None:
        raise InvalidParameterError(f"no distinguished divisor for {variety}")
    if decomp.basis != variety.bases[0]:
        decomp = change_basis(decomp, variety.bases[0])
    base, twists = variety.bundle()
    lines = decomp.lines
    images = zip(*[
        [coords[0] * a + coords[t] for coords in lines]
        for t, a in enumerate(min(twists), 1)
    ])
    return Decomposition(base, zip(images, lines.values()), support_only=decomp.support_only)
