import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from feac.exact import (
    ONE,
    ZERO,
    TimeUnit,
    decimal_scale,
    format_number,
    parse_integer,
    parse_number,
    parse_trace_number,
)

# Past `sys.get_int_max_str_digits()`, whose default is 4300.
LONG = 5000


def test_parse_decimal_literals():
    assert parse_number("3") == Fraction(3)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number("-1.5") == Fraction(-3, 2)
    assert parse_number("0.684") == Fraction(171, 250)


def test_parse_fractions_and_bare_decimals():
    assert parse_number("22/7") == Fraction(22, 7)
    assert parse_number("-4/6") == Fraction(-2, 3)
    assert parse_number(".5") == Fraction(1, 2)
    assert parse_number("-.5") == Fraction(-1, 2)
    assert parse_number("-0") == 0
    assert parse_number("007.50") == Fraction(15, 2)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        parse_number("1/0")


@pytest.mark.parametrize(
    "text",
    ["1e3", "+2", "1_0", " 3", "3 ", "1.", "-", "", "1/-2", "1.5/2", "/2", "--1", "inf"],
)
def test_parse_number_takes_only_its_grammar(text):
    """`Fraction(text)` takes several of these; a number is a decimal or p/q."""
    with pytest.raises(ValueError):
        parse_number(text)


def test_parse_integer_takes_digits_with_an_optional_minus():
    # U+0663 is ARABIC-INDIC DIGIT THREE: a decimal digit to `\d` and int().
    for text, value in (("7", 7), ("-12", -12), ("007", 7), ("\u0663", 3)):
        assert parse_integer(text) == parse_number(text) == value
        assert type(parse_integer(text)) is int
    for text in ("+2", "1_0", " 3", "3 ", "", "-", "--1", "1.0", "1e3", "0x1", "\u00b2"):
        with pytest.raises(ValueError):
            parse_integer(text)


def test_each_part_of_a_number_has_its_own_digit_limit():
    limit = sys.get_int_max_str_digits()
    whole, frac = "1" * limit, "2" * limit
    assert parse_number(f"{whole}.{frac}") == Fraction(f"{whole}.{frac}")
    for text in (f"{whole}1.5", f"1.{frac}2", f"{whole}1/3", f"3/{whole}1"):
        with pytest.raises(ValueError):
            parse_number(text)


def test_constants():
    assert ZERO == 0 and ONE == 1
    assert isinstance(ZERO, Fraction) and isinstance(ONE, Fraction)


def test_format_integers():
    assert format_number(Fraction(7)) == "7"
    assert format_number(Fraction(-3)) == "-3"
    assert format_number(ZERO) == "0"


def test_format_shortest_decimal():
    assert format_number(Fraction(1, 4)) == "0.25"
    assert format_number(Fraction(171, 250)) == "0.684"
    assert format_number(Fraction(21, 5)) == "4.2"
    assert format_number(Fraction(-3, 2)) == "-1.5"
    assert format_number(Fraction(1, 8)) == "0.125"
    assert format_number(Fraction(3, 1000)) == "0.003"


def test_format_never_keeps_trailing_zeros():
    assert format_number(Fraction(10, 4)) == "2.5"
    assert format_number(Fraction(2500, 1000)) == "2.5"


def test_format_non_decimal_denominators_stay_exact():
    assert format_number(Fraction(1, 3)) == "1/3"
    assert format_number(Fraction(22, 7)) == "22/7"


def test_round_trip():
    for value in (
        Fraction(0),
        Fraction(17, 25),
        Fraction(153, 200),
        Fraction(-9, 16),
        Fraction(12345, 8),
        Fraction(1, 10**6),
        Fraction(-22, 7),
    ):
        assert parse_number(format_number(value)) == value


@pytest.mark.parametrize("digits", range(13))
def test_tick_text_is_the_shortest_decimal_of_its_value(digits):
    """A power-of-ten unit writes a tick count from the int's digits; that
    text, and `format_number` of the same value, equal a divmod reference."""
    unit, scale, rng = TimeUnit(10**digits), 10**digits, random.Random(digits)
    ticks = [0, 1, 5, 10, scale - 1, scale, scale + 1, 20 * scale, 10**LONG + 3]
    ticks += [rng.randint(1, 10**15) * 10 ** rng.randint(0, 4) for _ in range(50)]
    for n in ticks + [-n for n in ticks]:
        whole, rest = divmod(abs(n), scale)
        frac = f".{rest:0{digits}}".rstrip("0") if rest else ""
        want = f"{'-' if n < 0 else ''}{Decimal(whole)}{frac}"
        assert unit.text(n) == format_number(Fraction(n, scale)) == want, n


def test_trace_numbers_past_the_digit_limit_convert():
    """`Fraction(text)` refuses these; a trace holds them when the engine
    multiplied scenario values out, so the trace side reads them back."""
    assert LONG > sys.get_int_max_str_digits()
    values = [
        Fraction(10**LONG - 1, 10**LONG),
        -Fraction(10**LONG + 7, 2**13),
        Fraction(3**10000, 7),
        Fraction(-1, 3**10000),
        Fraction(10**LONG),
    ]
    for value in values:
        text = format_number(value)
        with pytest.raises(ValueError):
            parse_number(text)
        assert parse_trace_number(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "NaN",
        "Infinity",
        "1/0",
        "1/" + "0" * LONG,
        "1." + "5" * LONG + "/2",
        "1e" + "9" * LONG,
        "1e3",
    ],
)
def test_trace_numbers_reject_what_parse_number_rejects(text):
    with pytest.raises(ValueError):
        parse_trace_number(text)


def test_trace_numbers_within_the_limit_parse_as_scenario_numbers():
    for text in ("3", "0.25", "-1.5", "22/7", "-0.003", ".5"):
        assert parse_trace_number(text) == parse_number(text)


def _time_pairs(rng: random.Random):
    """(a, b) pairs of every kind a run's ticks must order correctly."""
    for _ in range(500):
        # Both signs and zero, over decimal and other denominators.
        den = rng.choice((1, 2, 10, 3, 7, 1000, 2**rng.randint(0, 60) * 5**rng.randint(0, 30)))
        a = Fraction(rng.randint(-(10**6), 10**6) * rng.randint(0, 1), den)
        b = Fraction(rng.randint(-(10**6), 10**6), rng.choice((den, den * 3, 1)))
        yield a, b
        yield a, a
        # Huge denominators.
        yield Fraction(rng.randint(-(10**60), 10**60), rng.randint(1, 10**50)), Fraction(
            rng.randint(-(10**60), 10**60), 3**rng.randint(1, 200)
        )
        # Neighbours far closer than any tick of a coarse run.
        step = Fraction(1, 2 ** rng.randint(41, 120))
        yield a, a + step * rng.choice((1, -1))
        edge = Fraction(rng.randint(-(2**50), 2**50), 2**40)
        yield edge, edge - step
        yield edge - step, edge - 2 * step
    for _ in range(10):
        # Parts past the digit limit, as a trace can hold them.
        big = 10**LONG + rng.randint(0, 10**6)
        a = Fraction(big + rng.randint(-5, 5), 10**LONG)
        yield a, a + Fraction(rng.choice((1, -1)), 10**LONG)
        yield a, parse_trace_number(format_number(a))
        yield -a, Fraction(rng.randint(-3, 3))


def test_ticks_order_exactly_as_the_values_do():
    """In a unit both values are whole in, equal values give equal ticks and
    ticks order as the values do; each converts back to its value."""
    rng = random.Random(40)
    seen = set()
    for a, b in _time_pairs(rng):
        unit = TimeUnit(decimal_scale(math.lcm(a.denominator, b.denominator)))
        ta, tb = unit.ticks(a), unit.ticks(b)
        assert type(ta) is int and type(tb) is int
        assert (a < b) == (ta < tb), (a, b)
        assert (a == b) == (ta == tb), (a, b)
        assert (unit.value(ta), unit.value(tb)) == (a, b)
        assert (unit.floor(a), unit.floor(b)) == (ta, tb)
        seen.add("negative" if min(a, b) < 0 else "zero" if min(a, b) == 0 else "positive")
        seen.add("decimal unit" if unit.digits is not None else "lcm unit")
        if max(a.denominator, b.denominator).bit_length() > 3 * LONG:
            seen.add("past the digit limit")
    assert seen == {
        "negative", "zero", "positive", "decimal unit", "lcm unit", "past the digit limit"
    }


def test_a_value_that_is_not_whole_in_ticks_raises_and_floor_rounds_down():
    tenths = TimeUnit(10)
    assert tenths.ticks(Fraction(3, 2)) == 15
    for value in (Fraction(1, 4), Fraction(7, 3), Fraction(-1, 20)):
        with pytest.raises(ValueError, match="not a whole number"):
            tenths.ticks(value)
    floors = [tenths.floor(v) for v in (Fraction(7, 3), Fraction(-7, 3), Fraction(1, 4))]
    assert floors == [23, -24, 2]


def test_decimal_scale_is_the_least_power_of_ten_or_the_lcm():
    assert [decimal_scale(d) for d in (1, 2, 5, 10, 4, 8, 25, 40, 2**11 * 5**3)] == [
        1, 10, 10, 10, 100, 1000, 100, 1000, 10**11,
    ]
    assert [decimal_scale(d) for d in (3, 6, 30, 7 * 2**5)] == [3, 6, 30, 7 * 2**5]
    assert (TimeUnit(10**15).digits, TimeUnit(1).digits, TimeUnit(30).digits) == (15, 0, None)
