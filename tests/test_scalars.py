from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from connexa.errors import DocumentError
from connexa.scalars import I, ONE, S, Scalar, ZERO, dot, integer

from fraction_scalar import FracScalar, to_frac

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
    assert Scalar.parse("i+1/2") == S("1/2", 1)
    # one real and one imaginary part at most: "1+2" is not read as 3
    for text in ("1+2", "1/2-3", "-1+1", "2*i+3*i"):
        with pytest.raises(DocumentError):
            Scalar.parse(text)


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


# -- the integer form against the Fraction-pair reference ---------------------

# Dense and sparse, real and Gaussian parts, small and many-digit values.
oracle_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(max_denominator=10**30).map(lambda q: q * 10**20),
)
oracle_scalars = st.builds(Scalar, oracle_parts, oracle_parts)


def _assert_canonical(s: Scalar):
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    assert type(s.a) is type(s.b) is type(s.d) is int


@given(oracle_scalars, oracle_scalars, st.integers(-4, 6))
def test_scalar_matches_fraction_pair_oracle(a, b, k):
    fa, fb = to_frac(a), to_frac(b)
    _assert_canonical(a)
    results = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa)]
    if not b.is_zero():
        results.append((a / b, fa / fb))
    if k >= 0 or not a.is_zero():
        results.append((a**k, fa**k))
    for got, want in results:
        _assert_canonical(got)
        assert to_frac(got) == want
        assert str(got) == str(want)
        assert hash(got) == hash(want)
    assert a.norm_sq() == fa.norm_sq()
    assert (a == b) == (fa == fb)
    assert hash(a) == hash(fa)
    assert str(a) == str(fa)
    assert Scalar.parse(str(a)) == a
    assert to_frac(Scalar.parse(str(fa))) == FracScalar.parse(str(fa))


@given(oracle_scalars, st.integers(2, 5))
def test_roots_match_fraction_pair_oracle(a, n):
    for x in (a, a * a, a**n):
        got, want = x.nth_root(n), to_frac(x).nth_root(n)
        assert (got is None) == (want is None)
        if got is not None:
            assert to_frac(got) == want
        got, want = x.sqrt(), to_frac(x).sqrt()
        assert (got is None) == (want is None)
        if got is not None:
            assert to_frac(got) == want


@given(st.lists(st.tuples(oracle_scalars, oracle_scalars), max_size=12), oracle_scalars)
def test_dot_matches_fraction_pair_sum(pairs, scale):
    want = to_frac(ZERO)
    for x, y in pairs:
        want = want + to_frac(x) * to_frac(y)
    got = dot([x for x, _ in pairs], [y for _, y in pairs], scale)
    _assert_canonical(got)
    assert to_frac(got) == want * to_frac(scale)


# Every literal over this alphabet either parses, and then prints a text
# that parses back to it, or is refused as a DocumentError.
LITERAL_ALPHABET = "0123456789+-*/i .eE_()"


def _check_literal(text: str):
    try:
        value = Scalar.parse(text)
    except DocumentError:
        return
    _assert_canonical(value)
    assert Scalar.parse(str(value)) == value
    # where the stricter parser accepts, it agrees with the old one
    assert to_frac(value) == FracScalar.parse(text)


@given(st.text(alphabet=LITERAL_ALPHABET, max_size=24))
def test_parse_fuzz_literal_alphabet(text):
    _check_literal(text)


# Random characters rarely form a literal; joined pieces often do.
literal_pieces = st.sampled_from(
    ["1", "-2", "3/4", "0.5", "i", "-i", "2*i", "+", "-", "/", "*", " ", "_", "e"]
)


@given(st.lists(literal_pieces, max_size=6))
def test_parse_fuzz_literal_pieces(pieces):
    _check_literal("".join(pieces))


@given(oracle_scalars)
def test_parse_reads_back_what_str_writes(a):
    assert Scalar.parse(str(a)) == a
    # the parts in the other order read the same value
    if a.a and a.b:
        re, im = str(Scalar._ints(a.a, 0, a.d)), str(Scalar._ints(0, a.b, a.d))
        sign = "" if im.startswith("-") else "+"
        assert Scalar.parse(im + ("" if re.startswith("-") else "+") + re) == a
        assert Scalar.parse(re + sign + im) == a


def test_parse_refuses_text_outside_the_printed_form():
    # Fraction() would take all of these; the printed form has no spaces,
    # "+" prefix, "_", decimal point, exponent or non-ASCII digit
    for text in ("1_0", " 1", "1 ", "+1", "1.", ".5", "1.5", "٣", "１", "1\n",
                 "1/2 +i", "2*", "*i", "/2", "/2i", "1/-2", "1/+2", "1**i", "i*"):
        with pytest.raises(DocumentError, match="bad scalar literal"):
            Scalar.parse(text)
    assert Scalar.parse("2i") == Scalar.parse("2*i") == S(0, 2)
