import random
import sys
from fractions import Fraction

import pytest

from feac.exact import (
    ONE,
    ZERO,
    format_number,
    parse_integer,
    parse_number,
    parse_trace_number,
    time_key,
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


def _key_pairs(rng: random.Random):
    """(a, b) pairs of every kind `time_key` must order correctly."""
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
        # Neighbours closer than 2**-40, on either side of a key boundary.
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


def test_time_key_order_agrees_with_exact_order():
    rng = random.Random(40)
    seen = set()
    for a, b in _key_pairs(rng):
        ka, kb = time_key(a), time_key(b)
        assert isinstance(ka, int) and isinstance(kb, int)
        assert (a < b) == ((ka, a) < (kb, b)), (a, b)
        assert (a == b) == ((ka, a) == (kb, b)), (a, b)
        if a < b:
            assert ka <= kb, (a, b)
        seen.add("negative" if min(a, b) < 0 else "zero" if min(a, b) == 0 else "positive")
        if a != b and ka == kb:
            seen.add("distinct values, one key")
        if max(a.denominator, b.denominator).bit_length() > 3 * LONG:
            seen.add("past the digit limit")
    assert seen == {"negative", "zero", "positive", "distinct values, one key", "past the digit limit"}
