"""Exact rational time and probability values with decimal round-tripping.

All clocks, durations, deadlines, probabilities and coordinates in this
package are `fractions.Fraction`. Scenario files only ever contain decimal
literals, and every operation applied to them (sums, products, complements)
keeps denominators of the form 2^a * 5^b, so values can always be printed
back as exact decimals. Floats never enter the arithmetic.

Where the engine orders many times (its occurrence heap, its event queue),
it orders them by `time_key` first and by the exact value only on a tie,
so most comparisons are between integers.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def time_key(t: Fraction) -> int:
    """floor(t * 2**40): an integer that never orders two values against
    their exact order (floor is monotone), so `(time_key(t), t)` pairs sort
    exactly as the values do and compare the values only on a key tie."""
    return (t.numerator << 40) // t.denominator


# A number: a decimal, or p/q. `\d` is any Unicode decimal digit, as for
# the scenario lexer and for int().
_NUMBER = re.compile(r"-?(?:\d+(?:\.\d+)?|\.\d+)|-?\d+/\d+").fullmatch


def parse_number(text: str) -> Fraction:
    """Parse a number into an exact Fraction.

    The grammar is exactly `-?(D+(.D+)?|.D+)` (a decimal: '3', '0.25',
    '-1.5', '.5') or `-?D+/D+` ('p/q'), D a decimal digit. Nothing else
    is a number: no exponent, '+' sign, '_' separator or surrounding
    whitespace. Raises ValueError for any other text, for a zero
    denominator, and for a part (whole digits, fraction digits, p or q)
    longer than `sys.get_int_max_str_digits()`.
    """
    if _NUMBER(text) is None:
        raise ValueError(f"not a number: {text!r}")
    negative = text[0] == "-"
    num, slash, den = (text[1:] if negative else text).partition("/")
    if slash:
        q = int(den)
        if not q:
            raise ValueError(f"zero denominator in {text!r}")
        p = int(num)
    else:
        whole, _, frac = num.partition(".")
        q = 10 ** len(frac)
        p = int(whole or "0") * q + int(frac or "0")
    return Fraction(-p if negative else p, q)


def parse_integer(text: str) -> int:
    """Parse an integer written exactly as `-?D+`, D a decimal digit as in
    `parse_number` (`str.isdecimal` is true for exactly the characters `\\d`
    matches): no '+' sign, '_' separator or surrounding whitespace, all of
    which `int()` takes. Raises ValueError for any other text and for more
    digits than `sys.get_int_max_str_digits()`."""
    if not (text[1:] if text[:1] == "-" else text).isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_trace_number(text: str) -> Fraction:
    """`parse_number` for a value read back from a trace.

    A value the engine computed, such as a product of probabilities, can
    have a part longer than `sys.get_int_max_str_digits()`, which `int()`
    refuses. Text in the number grammar then converts through `Decimal`,
    which has no such limit; any other text fails as it does in
    `parse_number`.
    """
    try:
        return parse_number(text)
    except ValueError:
        if _NUMBER(text) is None:
            raise
    num, _, den = text.partition("/")
    if not den:
        return Fraction(Decimal(num))
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
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
