"""Exact rationals for the paper's stated values.

The LPs return floats; the paper states most of its exponents, covers
and space bounds as small rationals.  :func:`rational` reads a float as
the small rational it equals up to solver noise, so a test can compare
against ``Fraction(2, 3)`` exactly instead of with a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

#: LP solver noise is far below this; a real change of a stated value
#: (an off-by-one in a count, a wrong exponent) is far above it.
NOISE = 1e-7


def rational(value: float, max_denominator: int = 64) -> Fraction:
    """The small rational within :data:`NOISE` of ``value``.

    Falls back to the float's own exact binary value, which equals no
    small rational, so a comparison against the paper's value fails and
    shows what was computed.
    """
    frac = Fraction(value).limit_denominator(max_denominator)
    if abs(float(frac) - value) <= NOISE:
        return frac
    return Fraction(value)
