import itertools

import pytest
from hypothesis import given, strategies as st

from ordfa.ordinal import (
    MAX_DEGREE,
    DegreeOverflowError,
    Ordinal,
    OrdinalParseError,
    OrdinalRangeError,
    format_ordinal,
    parse_ordinal,
)

W = Ordinal.omega()


def test_normalization_strips_trailing_zeros():
    assert Ordinal((3, 0, 0)).coeffs == (3,)
    assert Ordinal((0, 0)).coeffs == ()
    assert Ordinal().is_zero


def test_one_plus_omega_absorbed():
    assert Ordinal.one() + W == W


def test_omega_plus_one():
    assert (W + 1).coeffs == (1, 1)


def test_mixed_sum():
    a = parse_ordinal("w^2 + 3")
    b = parse_ordinal("w + 1")
    assert a + b == parse_ordinal("w^2 + w + 1")


def test_parse_canonical_example():
    assert parse_ordinal("w^2*3 + w + 4").coeffs == (4, 1, 3)


def test_format_examples():
    assert format_ordinal(Ordinal((4, 1, 3))) == "w^2*3 + w + 4"
    assert format_ordinal(Ordinal((0, 0, 1))) == "w^2"
    assert format_ordinal(Ordinal.zero()) == "0"
    assert format_ordinal(Ordinal.from_int(7)) == "7"


def _format_by_a_loop(o):
    """The canonical text term by term, from the highest exponent down."""
    if o.is_zero:
        return "0"
    parts = []
    for k in range(len(o.coeffs) - 1, -1, -1):
        c = o.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            base = "w" if k == 1 else f"w^{k}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def test_format_matches_a_term_by_term_loop():
    # Every ordinal of degree at most 4 with coefficients at most 3.
    for coeffs in itertools.product(range(4), repeat=5):
        o = Ordinal(coeffs)
        assert format_ordinal(o) == _format_by_a_loop(o), coeffs
    top = Ordinal.omega_power(MAX_DEGREE, 2) + 5
    assert format_ordinal(top) == _format_by_a_loop(top) == f"w^{MAX_DEGREE}*2 + 5"


def test_parse_whitespace_insensitive():
    assert parse_ordinal(" w ^ 2 * 3+w+ 4 ") == parse_ordinal("w^2*3 + w + 4")


def test_parse_zero():
    assert parse_ordinal("0").is_zero
    assert parse_ordinal("w*0 + 0").is_zero


def test_parse_error_carries_position():
    with pytest.raises(OrdinalParseError) as info:
        parse_ordinal("w^2 + x")
    assert info.value.position == 6


def test_parse_error_trailing_junk():
    with pytest.raises(OrdinalParseError):
        parse_ordinal("w 3")
    with pytest.raises(OrdinalParseError):
        parse_ordinal("")


def test_parse_rejects_non_ascii_digits():
    # str.isdigit accepts these, but int() does not
    with pytest.raises(OrdinalParseError) as info:
        parse_ordinal("w^\u00b2")
    assert info.value.position == 2
    with pytest.raises(OrdinalParseError) as info:
        parse_ordinal("\u00b2")
    assert info.value.position == 0


def test_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        Ordinal.omega_power(MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        parse_ordinal(f"w^{MAX_DEGREE + 1}")
    # the bound itself is fine
    assert Ordinal.omega_power(MAX_DEGREE).degree == MAX_DEGREE


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_omega_power_rejects_an_exponent_that_is_not_a_natural(k):
    with pytest.raises(ValueError, match="exponent must be a natural"):
        Ordinal.omega_power(k)


@pytest.mark.parametrize("n", [None, "", 0.0, False, [], True, 2.0, -1])
def test_from_int_rejects_what_is_not_a_natural(n):
    with pytest.raises(ValueError, match="coefficients must be naturals"):
        Ordinal.from_int(n)


def test_parse_rejects_integers_beyond_the_digit_limit():
    for text, position in (("9" * 5000, 0), ("w^2*" + "9" * 5000, 4), ("w + " + "1" * 5000, 4)):
        with pytest.raises(OrdinalParseError, match="5,000 digits") as info:
            parse_ordinal(text)
        assert info.value.position == position


def test_format_rejects_coefficients_beyond_the_digit_limit():
    with pytest.raises(OrdinalRangeError, match="coefficient of w\\^0"):
        format_ordinal(Ordinal((2**15001 - 1,)))
    with pytest.raises(OrdinalRangeError, match="coefficient of w\\^2"):
        str(Ordinal((0, 0, 10**5000)))
    # With two coefficients too long, the error names the higher exponent.
    for coeffs, k in (((10**5000, 1, 10**5000, 3), 2), ((10**5000, 10**5000), 1)):
        with pytest.raises(OrdinalRangeError, match=f"coefficient of w\\^{k} "):
            format_ordinal(Ordinal(coeffs))
    # a degree overflow is one kind of range error
    assert issubclass(DegreeOverflowError, OrdinalRangeError)


def test_repr_writes_coefficients_beyond_the_digit_limit():
    big = Ordinal((10**5000, 7))
    text = repr(big)
    assert text.startswith("Ordinal([0x") and text.endswith(", 7])")
    assert eval(text) == big
    assert repr(Ordinal((4, 1, 3))) == "Ordinal([4, 1, 3])"
    assert repr(Ordinal()) == "Ordinal([])"


def test_comparisons():
    assert Ordinal.zero() < Ordinal.one() < W < W + 1 < W + W == parse_ordinal("w*2")
    assert parse_ordinal("w*2") < parse_ordinal("w^2") < parse_ordinal("w^2 + 1")
    assert not W < W


def test_comparison_with_a_non_ordinal_is_a_type_error():
    for compare in (
        lambda: Ordinal.one() < "a",
        lambda: Ordinal.one() <= "a",
        lambda: Ordinal.one() > "a",
        lambda: Ordinal.one() >= "a",
        lambda: "a" < Ordinal.one(),
    ):
        with pytest.raises(TypeError):
            compare()
    assert Ordinal.one() != "a"


def test_int_coercion():
    assert Ordinal.from_int(3).as_int() == 3
    assert Ordinal.zero().as_int() == 0
    with pytest.raises(ValueError):
        W.as_int()
    assert W.is_finite is False
    assert (2 + W) == W
    assert 3 < W and W > 3 and 1 <= Ordinal.one() and 2 >= Ordinal.one()


def test_finite_ordinals_hash_as_their_ints():
    for n in (0, 1, 7, 10**20):
        assert hash(Ordinal.from_int(n)) == hash(n)
    assert {Ordinal.one(): 1} == {1: 1}
    assert {Ordinal.zero(), 0, Ordinal.one(), 1, W} == {0, 1, W}


def test_bools_and_negative_ints_are_not_ordinals():
    one = Ordinal.one()
    assert one != True and one != -1 and Ordinal.zero() != False
    for op in (
        lambda: one < -1,
        lambda: -1 < one,
        lambda: one >= True,
        lambda: one + True,
        lambda: True + one,
        lambda: one + -1,
        lambda: -1 + one,
    ):
        with pytest.raises(TypeError):
            op()


ordinals = st.builds(
    Ordinal, st.lists(st.integers(min_value=0, max_value=9), max_size=6)
)


# Normal forms of every degree up to the bound, with large coefficients.
normal_forms = st.builds(
    Ordinal,
    st.lists(st.integers(min_value=0, max_value=10**20), max_size=MAX_DEGREE + 1),
)


def _terms(o):
    """The nonzero terms (exponent, coefficient), highest exponent first."""
    return [(k, c) for k, c in reversed(list(enumerate(o.coeffs))) if c]


def _sum_by_terms(a, b):
    """The coefficients of a + b, term by term: the terms of a below the
    leading term of b vanish, and a term of a at the same exponent adds
    its coefficient to it."""
    right = _terms(b)
    if not right:
        return a.coeffs
    lead, c = right[0]
    left = _terms(a)
    same = sum(x for k, x in left if k == lead)
    terms = [t for t in left if t[0] > lead] + [(lead, same + c)] + right[1:]
    out = [0] * (terms[0][0] + 1)
    for k, x in terms:
        out[k] = x
    return tuple(out)


@given(normal_forms, normal_forms, st.integers(min_value=1, max_value=10**20))
def test_sums_are_normal_forms_of_the_term_by_term_sum(a, b, n):
    # `+` builds its result without the constructor's checks.
    for total, expected in (
        (a + b, _sum_by_terms(a, b)),
        (a + n, _sum_by_terms(a, Ordinal((n,)))),
    ):
        assert total.coeffs == expected
        assert total.coeffs == Ordinal(list(total.coeffs)).coeffs
        assert not total.coeffs or total.coeffs[-1] != 0


@given(
    st.integers(min_value=0, max_value=MAX_DEGREE),
    st.integers(min_value=0, max_value=10**20),
)
def test_omega_power_is_a_normal_form(k, c):
    assert Ordinal.omega_power(k, c).coeffs == Ordinal([0] * k + [c]).coeffs


def test_zero_and_one_keep_their_values_after_arithmetic():
    zero, one = Ordinal.zero(), Ordinal.one()
    results = [
        zero + zero, zero + one, one + zero, one + one, zero + 5, one + 5,
        5 + one, one + W, W + one,
    ]
    assert [r.coeffs for r in results] == [
        (), (1,), (1,), (2,), (5,), (6,), (6,), (0, 1), (1, 1),
    ]
    assert (Ordinal.zero().coeffs, Ordinal.one().coeffs) == ((), (1,))
    assert (zero.coeffs, one.coeffs) == ((), (1,))


@given(ordinals, ordinals, ordinals)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals, st.integers(min_value=0, max_value=10**20))
def test_adding_an_int_adds_its_ordinal(a, n):
    assert a + n == a + Ordinal.from_int(n)
    assert n + a == Ordinal.from_int(n) + a
    if n == 0:
        assert a + n is a


@given(ordinals, ordinals)
def test_addition_monotone_left(a, b):
    c = a + b
    assert b <= c


@given(ordinals, ordinals, ordinals)
def test_addition_monotone(a, b, c):
    if a <= b:
        assert a + c <= b + c


@given(ordinals)
def test_low_degree_absorbed_into_omega_power(a):
    d = a.degree
    p = Ordinal.omega_power(d + 1)
    assert a + p == p


@given(ordinals)
def test_parse_format_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


@given(ordinals, ordinals)
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (b < a) == 1
