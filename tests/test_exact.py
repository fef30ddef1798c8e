from fractions import Fraction

import pytest

from feac.exact import ONE, ZERO, format_number, parse_number


def test_parse_decimal_literals():
    assert parse_number("3") == Fraction(3)
    assert parse_number("0.25") == Fraction(1, 4)
    assert parse_number("-1.5") == Fraction(-3, 2)
    assert parse_number("0.684") == Fraction(171, 250)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        parse_number("1/0")


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
