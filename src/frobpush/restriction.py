"""Restriction of decompositions to the distinguished divisors of each family.

Each restriction is a lattice homomorphism held as data in a
``RestrictionRule``, which ``picard`` defines and this module re-exports.
Each family's rule is derived from its declared projective bundle and
divisor.  A rule's source is the default basis of its family's descriptor,
so the rule states only its divisor, its target and its matrix.
"""

from __future__ import annotations

from operator import mul

from .errors import InvalidParameterError
from .picard import Decomposition, RestrictionRule, change_basis


def apply_rule(rule: RestrictionRule, decomp: Decomposition) -> Decomposition:
    """Restrict a line-bundle decomposition along ``rule``.

    A decomposition in another basis is first rewritten into its variety's
    default basis (only linear blowups have a second basis).  The images are
    taken one target coordinate at a time: each column of the rule's matrix
    is dotted with every class, and the columns of images are zipped back
    into coordinate tuples.
    """
    if decomp.basis != decomp.variety.bases[0]:
        decomp = change_basis(decomp, decomp.variety.bases[0])
    if decomp.spinors:
        raise InvalidParameterError("spinor summands cannot be restricted")
    variety, lines = decomp.variety, decomp.lines
    images = zip(*[
        [sum(map(mul, coords, column)) for coords in lines]
        for column in zip(*rule.matrix(variety))
    ])
    return Decomposition(rule.target(variety), zip(images, lines.values()),
                         support_only=decomp.support_only)

