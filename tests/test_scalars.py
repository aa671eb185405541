from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from connexa.errors import DocumentError
from connexa.scalars import I, ONE, S, Scalar, integer

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
scalars = st.builds(Scalar, fractions, fractions)


@given(scalars, scalars)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_text_round_trip(a):
    assert Scalar.parse(str(a)) == a


@given(scalars)
def test_division(a):
    if not a.is_zero():
        assert (ONE / a) * a == ONE


def test_parse_forms():
    assert Scalar.parse("3") == S(3)
    assert Scalar.parse("-1/2") == S("-1/2")
    assert Scalar.parse("i") == I
    assert Scalar.parse("-i") == -I
    assert Scalar.parse("1/2+1/3*i") == S("1/2", "1/3")
    assert Scalar.parse("2-i") == S(2, -1)
    with pytest.raises(DocumentError):
        Scalar.parse("")
    with pytest.raises(DocumentError):
        Scalar.parse("1+2+3")


def test_integrality():
    assert S(3).is_nonneg_integer()
    assert not S(-3).is_nonneg_integer()
    assert S(-3).is_integer()
    assert not S("1/2").is_integer()
    assert not S(1, 1).is_integer()


def test_sqrt_exact():
    assert S(4).sqrt() == S(2)
    assert S(0, 2).sqrt() == S(1, 1)  # (1+i)^2 = 2i
    assert S(-9).sqrt() == S(0, 3)
    assert S(2).sqrt() is None
    assert S("9/4").sqrt() == S("3/2")
    a = S("3/5", "4/5")
    root = (a * a).sqrt()
    assert root is not None and root * root == a * a


@given(scalars)
def test_sqrt_of_square(a):
    root = (a * a).sqrt()
    assert root is not None
    assert root * root == a * a


def test_nth_root():
    assert S(8).nth_root(3) == S(2)
    assert S(16).nth_root(4) in (S(2), S(-2), S(0, 2), S(0, -2))
    assert S(-8).nth_root(3) == S(-2)
    assert S(-64).nth_root(6) == S(0, 2)
    assert S(Fraction(1, 81)).nth_root(4) == S(Fraction(1, 3))
    assert S(5).nth_root(3) is None


def test_nth_root_large_integers():
    # beyond float precision and beyond the float range
    big = 10**20 + 3
    assert S(big**3).nth_root(3) == S(big)
    assert S(-(big**3)).nth_root(3) == S(-big)
    assert S(Fraction(big**5, 7**5)).nth_root(5) == S(Fraction(big, 7))
    assert S(big**3 + 1).nth_root(3) is None
    assert S(10**400).nth_root(3) is None
    assert S(10**402).nth_root(3) == S(10**134)


def test_nth_root_gaussian_powers():
    assert S(2, 11).nth_root(3) == S(2, 1)
    assert S(-4).nth_root(4) ** 4 == S(-4)
    third = S(Fraction(2, 3), Fraction(1, 3))
    assert (third**3).nth_root(3) == third
    big = S(3**200 + 7, 5**150 - 1)
    assert (big**3).nth_root(3) == big
    assert (big**3 + ONE).nth_root(3) is None


def test_nth_root_brute_force_sweep():
    # any root of a + bi with |a|, |b| <= 30 lies in |re|, |im| <= 5
    box = [S(x, y) for x in range(-5, 6) for y in range(-5, 6)]
    for n in range(3, 7):
        powers = {y**n for y in box}
        for x in range(-30, 31):
            for y in range(-30, 31):
                m = S(x, y)
                root = m.nth_root(n)
                if m in powers:
                    assert root is not None and root**n == m
                else:
                    assert root is None


def test_integer_cache():
    assert integer(7) == S(7)
    assert integer(7) is integer(7)


def test_parse_integer_fast_path():
    # plain integers skip the general parser; "+0*i" sends the same value
    # through it
    for text in ("0", "-0", "007", "-12", "9" * 150 + "1" * 150):
        fast = Scalar.parse(text)
        assert fast == Scalar.parse(text + "+0*i")
        assert fast == Scalar(Fraction(int(text)), Fraction(0))
    # beyond the interpreter's int/str conversion limit, like the general path
    for text in ("1" * 5000, "1" * 5000 + "+0*i"):
        with pytest.raises(DocumentError):
            Scalar.parse(text)
