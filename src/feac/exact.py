"""Exact rational time and probability values with decimal round-tripping.

All clocks, durations, deadlines, probabilities and coordinates in this
package are `fractions.Fraction`. Scenario files only ever contain decimal
literals, and every operation applied to them (sums, products, complements)
keeps denominators of the form 2^a * 5^b, so values can always be printed
back as exact decimals. Floats never enter the arithmetic.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_number(text: str) -> Fraction:
    """Parse a decimal literal ('3', '0.25', '-1.5') or 'p/q' into an exact Fraction.

    Raises ValueError for anything else, a zero denominator included.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _int_text(n: int) -> str:
    """`str(n)`, also past `sys.get_int_max_str_digits()`, through `Decimal`,
    whose conversion has no such limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_number(value: Fraction) -> str:
    """Shortest exact decimal form of `value`.

    Falls back to 'p/q' if the denominator has a prime factor other than
    2 or 5; that never happens for values built from decimal inputs, but
    the formatter must not lie about a value it cannot represent.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return _int_text(num)
    twos = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{_int_text(num)}/{_int_text(den)}"
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    body = _int_text(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = body[:-digits], body[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
