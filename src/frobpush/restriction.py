"""Restriction of decompositions to the distinguished divisors of each family.

Each restriction is a lattice homomorphism declared as data in a
``RestrictionRule``, which ``picard`` defines and this module re-exports;
each rule is declared with its family, as the ``rule`` of its descriptor
class.  A rule's source is the default basis of its family's descriptor, so
the rule states only its divisor, its target and its matrix.
"""

from __future__ import annotations

from operator import mul

from .errors import InvalidParameterError
from .picard import Decomposition, RestrictionRule, change_basis


def apply_rule(rule: RestrictionRule, decomp: Decomposition) -> Decomposition:
    """Restrict a line-bundle decomposition along ``rule``.

    A decomposition in another basis is first rewritten into its variety's
    default basis (only linear blowups have a second basis).
    """
    if decomp.basis != decomp.variety.bases[0]:
        decomp = change_basis(decomp, decomp.variety.bases[0])
    if decomp.spinors:
        raise InvalidParameterError("spinor summands cannot be restricted")
    target = rule.target(decomp.variety)
    rows = rule.matrix(decomp.variety)
    columns = [tuple(row[t] for row in rows) for t in range(len(target.bases[0]))]
    items = [
        (tuple(sum(map(mul, coords, column)) for column in columns), mult)
        for coords, mult in decomp.lines.items()
    ]
    return Decomposition(target, items, support_only=decomp.support_only)

