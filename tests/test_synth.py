import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import is_trim
from ordfa.dfa import Dfa
from ordfa.oracle import enum_bounded
from ordfa.ordinal import Ordinal, parse_ordinal
from ordfa.ordtype import order_type
from ordfa.synth import (
    EmptyLanguageError,
    synth,
    synth_mul_omega,
    synth_one,
    synth_sum,
    synth_times,
    synth_zero,
)
from ordfa.wellorder import check

###############################################################################
# combinators
###############################################################################


def _assert_like_checked(m):
    """m, built without Dfa()'s checks, holds the fields of its checked twin."""
    twin = Dfa(m.delta, m.start, m.finals)
    assert type(m.delta) is tuple and all(type(row) is tuple for row in m.delta)
    assert type(m.finals) is frozenset
    assert m == twin and hash(m) == hash(twin)
    return m


def test_synth_zero():
    m = _assert_like_checked(synth_zero())
    assert m.state_count == 1
    assert enum_bounded(m, 4) == []
    assert order_type(m).overall == Ordinal.zero()


def test_synth_one():
    m = _assert_like_checked(synth_one())
    assert enum_bounded(m, 4) == [""]
    assert order_type(m).overall == Ordinal.one()


def test_synth_sum_splits_on_first_letter():
    m = _assert_like_checked(synth_sum(synth_one(), synth_one()))
    assert enum_bounded(m, 4) == ["0", "1"]
    assert order_type(m).overall == Ordinal.from_int(2)


def test_synth_mul_omega_language():
    m = _assert_like_checked(synth_mul_omega(synth_one()))
    # each added lap prepends a 1
    assert enum_bounded(m, 4) == ["0", "10", "110", "1110"]
    assert order_type(m).overall == Ordinal.omega()
    assert m.state_count == 3


def test_synth_mul_omega_rejects_empty():
    with pytest.raises(EmptyLanguageError):
        synth_mul_omega(synth_zero())


def test_synth_sum_keeps_left_below_right():
    left = synth_mul_omega(synth_one())
    right = synth_one()
    m = _assert_like_checked(synth_sum(left, right))
    words = enum_bounded(m, 6)
    assert words == ["00", "010", "0110", "01110", "011110", "1"]
    assert order_type(m).overall == parse_ordinal("w + 1")


def test_synth_times_language():
    # the three length-2 words below 3, each followed by L(m) = {eps}
    m = _assert_like_checked(synth_times(synth_one(), 3))
    assert enum_bounded(m, 4) == ["00", "01", "10"]
    assert synth_times(synth_one(), 1) == synth_one()


def test_synth_times_rejects_nonpositive():
    with pytest.raises(ValueError):
        synth_times(synth_one(), 0)


@pytest.mark.parametrize("c", [0, -1, True, 2.0])
def test_synth_times_rejects_a_multiplier_that_is_not_a_positive_int(c):
    with pytest.raises(ValueError, match="the multiplier must be a positive integer"):
        synth_times(synth_one(), c)


def _times(a, c):
    """a * c by repeated ordinal addition."""
    return sum([a] * c, Ordinal.zero())


_MULTIPLIERS = st.one_of(
    st.integers(1, 40),
    st.integers(0, 12).map(lambda k: 2**k),
    st.integers(1, 12).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k + 1])),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4), _MULTIPLIERS)
def test_synth_times_multiplies_types(coeffs, c):
    a = Ordinal(coeffs)
    m = _assert_like_checked(synth_times(synth(a), c))
    assert is_trim(m)
    assert check(m).well_ordered
    assert order_type(m).overall == _times(a, c)


###############################################################################
# synth
###############################################################################


def test_synth_examples():
    m = _assert_like_checked(synth(Ordinal.omega()))
    assert order_type(m).overall == Ordinal.omega()
    assert m.state_count == 3
    a = parse_ordinal("w^2")
    assert order_type(_assert_like_checked(synth(a))).overall == a


@pytest.mark.parametrize("a", [3, True, None, "w"])
def test_synth_rejects_an_argument_that_is_not_an_ordinal(a):
    with pytest.raises(ValueError, match=f"synth needs an Ordinal, got {a!r}"):
        synth(a)


def test_synth_round_trip_mixed():
    a = parse_ordinal("w^2*3 + w + 4")
    m = synth(a)
    assert is_trim(m)
    assert check(m).well_ordered
    assert order_type(m).overall == a


def test_synth_state_bound():
    # at most 2 + sum of c_k (k + 2) states
    for text in ("0", "1", "w", "w^2", "w^2*3 + w + 4", "w^4 + w^2", "17"):
        a = parse_ordinal(text)
        m = synth(a)
        bound = 2 + sum(c * (k + 2) for k, c in enumerate(a.coeffs))
        assert m.state_count <= bound, text


def test_synth_size_logarithmic_in_coefficients():
    assert synth(parse_ordinal("1000000")).state_count <= 45
    assert synth(parse_ordinal("w^3*1000 + w*77 + 123456")).state_count <= 80


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4))
def test_synth_round_trip_random(coeffs):
    a = Ordinal(coeffs)
    m = _assert_like_checked(synth(a))
    assert is_trim(m)
    assert check(m).well_ordered
    assert order_type(m).overall == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=3), st.lists(st.integers(0, 2), max_size=3))
def test_synth_sum_adds_types(c1, c2):
    a1, a2 = Ordinal(c1), Ordinal(c2)
    m = _assert_like_checked(synth_sum(synth(a1), synth(a2)))
    assert order_type(m).overall == a1 + a2
