import random
from fractions import Fraction

import pytest

from jordanalg.errors import DivisionByZero, FieldMismatch, ParseError
from jordanalg.fields import (
    RATIONALS,
    Field,
    Scalar,
    is_square,
    parse_field,
    prime_field,
    sqrt_if_square,
)


def test_prime_field_rejects_two_and_composites():
    for bad in (2, 4, 9, 15, 91, 1, 0, -5):
        with pytest.raises(ValueError):
            prime_field(bad)
    assert prime_field(3).p == 3
    assert prime_field(5).p == 5
    assert prime_field(1_048_573).p == 1_048_573


def test_known_small_field_values():
    assert prime_field(5)(3) * prime_field(5)(4) == 2
    assert prime_field(7)(3) / prime_field(7)(5) == 2
    assert RATIONALS(Fraction(1, 2)) + RATIONALS(Fraction(1, 3)) == Fraction(5, 6)


def test_parse_field():
    assert parse_field("Q") == RATIONALS
    assert parse_field("GF:7") == prime_field(7)
    for bad in ("GF", "GF:4", "gf:7", "R", "GF:7:1", ""):
        with pytest.raises(ParseError):
            parse_field(bad)


def test_parse_reads_fractions_like_coerce_on_both_kinds():
    rng = random.Random(20_261_018)
    for f in (prime_field(5), prime_field(2**64 + 13), RATIONALS):
        for _ in range(50):
            num, den = rng.randrange(-40, 40), rng.randrange(1, 40)
            if f.p and den % f.p == 0:
                continue
            assert f.parse_raw(f"{num}/{den}") == f.coerce(Fraction(num, den))
            assert f.parse_raw(f" {num} ") == f.coerce(num)
    assert prime_field(5).parse_raw("1/3") == prime_field(5).coerce(Fraction(1, 3)) == 2
    assert prime_field(5).parse_raw("-7/2") == 4
    for text in ("1/5", "2/10", "3/-5", "1/0", "1/", "/3", "1/x"):
        with pytest.raises(ParseError):
            prime_field(5).parse_raw(text)
    assert RATIONALS.parse_raw("2/10") == Fraction(1, 5)


def test_scalar_arithmetic_gf():
    f = prime_field(7)
    a = f(3)
    b = f(5)
    assert a + b == 1
    assert a - b == 5
    assert a * b == 1
    assert a / b == 3 * 3 % 7
    assert -a == 4
    assert (a * a.inverse()) == 1
    with pytest.raises(DivisionByZero):
        a / f(0)


def test_scalar_arithmetic_q():
    f = RATIONALS
    a = f(Fraction(2, 3))
    assert a + 1 == Fraction(5, 3)
    assert 1 - a == Fraction(1, 3)
    assert a * 3 == 2
    assert a / Fraction(4, 3) == Fraction(1, 2)
    with pytest.raises(DivisionByZero):
        a / 0


def test_cross_field_operations_rejected():
    a = prime_field(5)(2)
    b = prime_field(7)(2)
    c = RATIONALS(2)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * c


def test_half_doubles_to_one():
    for f in (RATIONALS, prime_field(3), prime_field(5), prime_field(11), prime_field(101)):
        h = f(f.half())
        assert h + h == 1


def test_coerce_fraction_into_gf():
    f = prime_field(5)
    assert f(Fraction(1, 2)).value == 3
    assert f(Fraction(-1, 3)).value == 3
    with pytest.raises(DivisionByZero):
        f(Fraction(1, 5))


def test_known_square_classifications():
    assert not is_square(prime_field(3)(2))
    assert is_square(prime_field(5)(4))
    assert sqrt_if_square(prime_field(5)(4)) == 2
    assert sqrt_if_square(prime_field(7)(3)) is None
    gf7 = prime_field(7)
    assert {a for a in range(7) if is_square(gf7(a))} == {0, 1, 2, 4}


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 101])
def test_squares_match_euler_criterion(p):
    f = prime_field(p)
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        assert is_square(f(a)) == (a in squares)


@pytest.mark.parametrize("p", [3, 7, 13, 41, 1009])
def test_sqrt_returns_canonical_root(p):
    f = prime_field(p)
    for a in range(p):
        r = sqrt_if_square(f(a))
        if a in {x * x % p for x in range(p)}:
            assert r is not None
            assert r * r == a
            assert r.value == min(r.value, (p - r.value) % p)
        else:
            assert r is None


def test_sqrt_rational():
    assert sqrt_if_square(RATIONALS(Fraction(4, 9))) == Fraction(2, 3)
    assert sqrt_if_square(RATIONALS(0)) == 0
    assert sqrt_if_square(RATIONALS(2)) is None
    assert sqrt_if_square(RATIONALS(-4)) is None
    assert is_square(RATIONALS(Fraction(49, 64)))
    assert not is_square(RATIONALS(Fraction(-49, 64)))


def test_format_parse_round_trip():
    rng = random.Random(20_240_101)
    f = prime_field(13)
    for _ in range(50):
        a = f(rng.randrange(13))
        assert f.parse_raw(f.format_raw(a.value)) == a.value
    for _ in range(50):
        q = Fraction(rng.randrange(-30, 30), rng.randrange(1, 30))
        text = RATIONALS.format_raw(q)
        assert RATIONALS.parse_raw(text) == q
    with pytest.raises(ParseError):
        RATIONALS.parse_raw("1/0")
    with pytest.raises(ParseError):
        prime_field(5).parse_raw("x")


def test_field_axioms_sampled():
    rng = random.Random("axioms")
    fields = [prime_field(11), RATIONALS]
    for f in fields:
        for _ in range(200):
            if f.is_rational:
                draw = lambda: f(Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)))
            else:
                draw = lambda: f(rng.randrange(f.p))
            a, b, c = draw(), draw(), draw()
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a + b == b + a
            assert a * b == b * a
            if b != 0:
                assert (a / b) * b == a


def test_scalar_is_hashable_and_printable():
    a = prime_field(7)(3)
    assert len({a, prime_field(7)(3)}) == 1
    assert "3" in str(a)
    b = RATIONALS(Fraction(-1, 2))
    assert str(b) == "-1/2"
