"""Exact rational time and probability values with decimal round-tripping.

Durations, probabilities and coordinates in this package are
`fractions.Fraction`. Scenario files only ever contain decimal literals,
and every operation applied to them (sums, products, complements) keeps
denominators of the form 2^a * 5^b, so values can always be printed back
as exact decimals. Floats never enter the arithmetic.

The engine keeps its clock on integers instead: a run has one `TimeUnit`,
and every time it meets is a whole count of that unit's ticks, so its
occurrence heap, event queue and deadlines compare and add plain ints. The
unit is a power of ten whenever the inputs are decimal, so the audit log
writes a tick count as decimal text straight from the int.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _decimal_places(denominator: int) -> int | None:
    """The least m with `denominator` dividing 10**m; None when it has a
    prime factor other than 2 or 5."""
    rest, twos, fives = denominator, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return max(twos, fives) if rest == 1 else None


def format_number(value: Fraction) -> str:
    """Shortest exact decimal form of `value`.

    Falls back to 'p/q' if the denominator has a prime factor other than
    2 or 5; that never happens for values built from decimal inputs, but
    the formatter must not lie about a value it cannot represent.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return _int_text(num)
    digits = _decimal_places(den)
    if digits is None:
        return f"{_int_text(num)}/{_int_text(den)}"
    return _decimal_text(num * 10**digits // den, digits)


def _decimal_text(n: int, digits: int) -> str:
    """`n / 10**digits` as its shortest decimal text."""
    if not digits:
        return _int_text(n)
    sign = "-" if n < 0 else ""
    body = _int_text(-n if sign else n).rjust(digits + 1, "0")
    frac = body[-digits:].rstrip("0")
    return f"{sign}{body[:-digits]}.{frac}" if frac else sign + body[:-digits]


def decimal_scale(denominator: int) -> int:
    """The least power of ten that `denominator` divides, or `denominator`
    itself when it has a prime factor other than 2 or 5."""
    digits = _decimal_places(denominator)
    return denominator if digits is None else 10**digits


class TimeUnit:
    """A clock unit of 1/`scale`: time t is held as the int t * scale, its
    count of ticks.

    `digits` is m when `scale` is 10**m, and None for any other scale, whose
    tick counts print through `format_number`.
    """

    __slots__ = ("scale", "digits")

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise ValueError(f"a time unit needs a positive scale, not {scale}")
        self.scale = scale
        digits = len(_int_text(scale)) - 1
        self.digits = digits if scale == 10**digits else None

    def ticks(self, value: Fraction) -> int:
        """`value` in ticks. Raises ValueError when that is not whole: it
        never rounds."""
        count, rest = divmod(self.scale, value.denominator)
        if rest:
            raise ValueError(
                f"{format_number(value)} is not a whole number of"
                f" 1/{_int_text(self.scale)} ticks"
            )
        return value.numerator * count

    def floor(self, value: Fraction) -> int:
        """floor(value * scale): a tick count n is at most `value` exactly
        when n is at most this."""
        return value.numerator * self.scale // value.denominator

    def value(self, ticks: int) -> Fraction:
        return Fraction(ticks, self.scale)

    def text(self, ticks: int) -> str:
        """`format_number(self.value(ticks))`, made from the int's digits
        when the scale is a power of ten."""
        if self.digits is None:
            return format_number(Fraction(ticks, self.scale))
        return _decimal_text(ticks, self.digits)
