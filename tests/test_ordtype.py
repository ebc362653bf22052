import time

import pytest
from hypothesis import given, settings

from machines import M_0STAR1, M_CYCLE2, M_EPS, M_ONESTAR, trim_dfas
from ordfa.dfa import Dfa, condense, loop_word
from ordfa.oracle import enum_bounded, random_trim_dfa
from ordfa.ordinal import Ordinal, parse_ordinal
from ordfa.ordtype import NotWellOrderedError, order_type, rank
from ordfa.wellorder import Witness, check

W = Ordinal.omega()

###############################################################################
# order_type
###############################################################################


def test_order_type_onestar():
    table = order_type(M_ONESTAR)
    assert table.overall == W
    assert table.per_state == (W, Ordinal.zero())


def test_order_type_eps():
    assert order_type(M_EPS).overall == Ordinal.one()


def test_order_type_cycle2():
    table = order_type(M_CYCLE2)
    assert table.per_state == (W, W, Ordinal.one(), Ordinal.zero())
    assert table.overall == W


def test_order_type_finite_language():
    # L = {0, 1}: two words
    m = Dfa(delta=((1, 1), (2, 2), (2, 2)), start=0, finals=frozenset({1}))
    assert order_type(m).overall == Ordinal.from_int(2)


def test_order_type_omega_squared():
    # L = {1^a 0 1^b 0 : a, b >= 0} read right to left... spelled out:
    # state 0 loops on 1 and moves on 0 to state 1, which loops on 1
    # and accepts on 0.  Laps of laps give w * w.
    m = Dfa(
        delta=((1, 0), (2, 1), (3, 3), (3, 3)),
        start=0,
        finals=frozenset({2}),
    )
    assert order_type(m).overall == parse_ordinal("w^2")


def test_order_type_cycle_over_omega():
    # States 0 and 1 form a cycle on 1s; both 0-exits lead to state 2,
    # whose language {1^k 0} has type w.  A lap is w*2, so the whole
    # cycle, not only the state the lap starts from, has type w^2.
    m = Dfa(
        delta=((2, 1), (2, 0), (3, 2), (4, 4), (4, 4)),
        start=0,
        finals=frozenset({3}),
    )
    w2 = parse_ordinal("w^2")
    assert order_type(m).per_state == (w2, w2, W, Ordinal.one(), Ordinal.zero())


def test_order_type_rejects_non_well_ordered():
    with pytest.raises(NotWellOrderedError) as info:
        order_type(M_0STAR1)
    assert info.value.witness == Witness(access="", loop="", tail="", state=0)
    assert "state 0" in str(info.value)


def test_order_type_rejects_with_the_check_witness():
    # order_type decides through check and raises with its witness
    # (the one at the smallest failing state).
    rejected = 0
    for seed in range(300):
        m = random_trim_dfa(seed, 8)
        result = check(m)
        if result.well_ordered:
            continue
        rejected += 1
        with pytest.raises(NotWellOrderedError) as info:
            order_type(m)
        assert info.value.witness == result.witness, f"seed {seed}"
    assert rejected > 100


def _one_cycle(length):
    # States 0..length-1 form one cycle on the letter 1; every 0-exit goes
    # to the final state `length`, whose edges go to the sink.
    f, sink = length, length + 1
    delta = tuple((f, (q + 1) % length) for q in range(length))
    delta += ((sink, sink), (sink, sink))
    return Dfa(delta=delta, start=0, finals=frozenset({f}))


def test_long_cycle_is_typed_in_linear_time():
    # One lap types the whole cycle; a lap per state was quadratic.
    length = 5000
    m = _one_cycle(length)
    t0 = time.perf_counter()
    table = order_type(m)
    assert time.perf_counter() - t0 < 1.0
    assert table.per_state[:length] == (W,) * length
    m = _one_cycle(length)
    t0 = time.perf_counter()
    assert rank(m, "1" * length) == Ordinal.from_int(length)
    assert time.perf_counter() - t0 < 1.0


###############################################################################
# rank
###############################################################################


def test_rank_examples():
    assert rank(M_ONESTAR, "") == Ordinal.zero()
    assert rank(M_ONESTAR, "1") == Ordinal.one()
    assert rank(M_ONESTAR, "11") == Ordinal.from_int(2)
    assert rank(M_ONESTAR, "0") == Ordinal.one()
    assert rank(M_CYCLE2, "00") == Ordinal.zero()
    assert rank(M_CYCLE2, "0100") == Ordinal.one()
    assert rank(M_CYCLE2, "1") == W


def test_rank_accepts_precomputed_table():
    table = order_type(M_CYCLE2)
    assert rank(M_CYCLE2, "0100", table) == Ordinal.one()


def test_rank_rejects_bad_letter():
    with pytest.raises(ValueError, match="^letter 'x' at position 1 is not 0 or 1$"):
        rank(M_ONESTAR, "0x1")


def test_rank_of_unaccepted_word():
    # "01" is not in (01)*00 but still has a position: above "00" only
    assert rank(M_CYCLE2, "01") == Ordinal.one()


###############################################################################
# structural invariants
###############################################################################


def _well_ordered_table(m):
    try:
        return order_type(m)
    except NotWellOrderedError:
        return None


@settings(max_examples=200)
@given(trim_dfas())
def test_types_constant_on_components(m):
    table = _well_ordered_table(m)
    if table is None:
        return
    for members in condense(m).components:
        types = {table.per_state[q] for q in members}
        assert len(types) == 1


@settings(max_examples=200)
@given(trim_dfas())
def test_degree_bounded_by_height(m):
    table = _well_ordered_table(m)
    if table is None:
        return
    cond = condense(m)
    for q in range(m.state_count):
        assert table.per_state[q].degree <= cond.height_of[q]
        assert table.per_state[q].degree <= m.state_count


@settings(max_examples=200)
@given(trim_dfas())
def test_types_monotone_along_edges(m):
    table = _well_ordered_table(m)
    if table is None:
        return
    for q in range(m.state_count):
        for t in m.delta[q]:
            assert table.per_state[t] <= table.per_state[q]


@settings(max_examples=150)
@given(trim_dfas(max_states=6))
def test_finite_types_count_the_language(m):
    table = _well_ordered_table(m)
    if table is None or not table.overall.is_finite:
        return
    # words of a finite language are shorter than the state count
    words = enum_bounded(m, m.state_count)
    assert table.overall.as_int() == len(words)


@settings(max_examples=150)
@given(trim_dfas(max_states=6))
def test_recursive_states_have_infinite_types(m):
    table = _well_ordered_table(m)
    if table is None:
        return
    cond = condense(m)
    types = table.per_state
    for cid, members in enumerate(cond.components):
        if not cond.nontrivial[cid]:
            continue
        for q in members:
            t = types[q]
            if t.is_zero:
                continue  # the sink's self loop
            assert not t.is_finite
            # The lap from q: accepted prefixes plus each 1-position's
            # 0-exit.  Every rotation must give the same type.
            lap = Ordinal.zero()
            s = q
            for ch in loop_word(m, q):
                if s in m.finals:
                    lap = lap + 1
                if ch == "1":
                    lap = lap + types[m.delta[s][0]]
                s = m.step(s, ch)
            assert lap.times_omega() == t
            assert lap.degree + 1 == t.degree
