import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import M_0STAR1, M_CYCLE2, M_EPS, M_ONESTAR, all_words, binary_words, trim_dfas
from ordfa.dfa import Dfa, condense
from ordfa.lexorder import min_word, successor
from ordfa.oracle import enum_bounded, exhaustive_trim_dfas, random_trim_dfa
from ordfa.ordinal import Ordinal, parse_ordinal
from ordfa.ordtype import NotWellOrderedError, order_type, rank
from ordfa.synth import synth, synth_sum
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


@pytest.mark.parametrize("start", [4, 5])
def test_cycle_takes_its_largest_exit_degree(start):
    # The cycle 4 -1-> 5 -1-> 4 exits at 4 into 3 (type w^2) and at 5
    # into 2 (type w), so its lap has degree 2 whichever state it is
    # walked from, and its type is w^3, not w^2.
    m = Dfa(
        delta=((0, 0), (0, 0), (1, 2), (2, 3), (3, 5), (2, 4)),
        start=start,
        finals=frozenset({1}),
    )
    table = order_type(m)
    assert table.per_state[2:] == (W, parse_ordinal("w^2"), *[parse_ordinal("w^3")] * 2)
    assert table.overall == parse_ordinal("w^3")


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


def test_rank_rejects_a_table_of_another_automaton():
    small = synth(parse_ordinal("w+3"))
    big = synth(parse_ordinal("w^2*5+w^3"))
    with pytest.raises(ValueError, match="^the table has 5 states and start 4, "
                       "but the automaton has 8 states and start 7$"):
        rank(small, "0001", order_type(big))
    with pytest.raises(ValueError, match="^the table has 8 states"):
        rank(big, "111", order_type(small))
    # Same size, other start.
    m = Dfa(delta=((1, 0), (1, 1)), start=1, finals=frozenset({0}))
    with pytest.raises(ValueError, match="start 0, but the automaton has 2 states and start 1$"):
        rank(m, "", order_type(M_ONESTAR))


def _synth_corpus():
    """200 synthesized automata of degree at most 4.  Every other one is
    a sum (a + b) + c in any order, not in Cantor normal form, so that a
    finite summand can come before an infinite one on a word's path."""
    rng = random.Random(9)

    def ordinal():
        return Ordinal([rng.randint(0, 6) for _ in range(rng.randint(1, 5))])

    corpus = []
    for i in range(200):
        if i % 2:
            left = synth_sum(synth(ordinal()), synth(ordinal()))
            corpus.append(synth_sum(left, synth(ordinal())))
        else:
            corpus.append(synth(ordinal()))
    return corpus


def _last_word(m, q):
    """The greatest word of L(q), for live q, or None when there is none.

    Taking the 1-edge while it is live, else the 0-edge, finds it; the
    walk returns to a state exactly when L(q) has no greatest word."""
    live = m.analysis.live
    word, seen = [], set()
    while q not in seen:
        seen.add(q)
        a, b = m.delta[q]
        if live[b]:
            word.append("1")
            q = b
        elif live[a]:
            word.append("0")
            q = a
        else:
            return "".join(word)
    return None


def _walked_words(m, walk):
    """The accepted prefixes p of walk, and each p0y where y is the
    greatest word below p's live 0-edge: its successor lies past that
    whole branch, so the step between the two ranks crosses the type of
    the branch."""
    q = m.start
    for i in range(len(walk) + 1):
        if q in m.finals:
            yield walk[:i]
        a = m.delta[q][0]
        if m.analysis.live[a]:
            y = _last_word(m, a)
            if y is not None:
                yield walk[:i] + "0" + y
        if i < len(walk):
            q = m.run(q, walk[i])


def _assert_ranks_step_by_one(m, table, walks):
    # The successor's rank is one more, also where the rank is infinite
    # and finite summands before an infinite one must be absorbed.
    assert rank(m, min_word(m)) == 0
    for walk in walks:
        for w in _walked_words(m, walk):
            nxt = successor(m, w)
            if nxt is not None:
                assert rank(m, nxt, table) == rank(m, w, table) + 1, (m, w, nxt)


@settings(max_examples=300)
@given(trim_dfas(), st.lists(binary_words(12), min_size=1, max_size=8))
def test_successor_ranks_one_higher_on_infinite_types(m, walks):
    table = _well_ordered_table(m)
    if table is None or table.overall.is_finite:
        return
    _assert_ranks_step_by_one(m, table, walks)


def test_rank_absorbs_a_finite_summand_before_an_infinite_one():
    # 0 S + 1, where S = {eps} + 1 (0 1* + 1) has type 1 + w + 1 = w + 1.
    # Walking 011, S's empty word adds 1 before the 0-exit of type w;
    # w absorbs it, so 011, the last word of 0 S, has rank w, not w + 1.
    m = Dfa(
        delta=((1, 4), (5, 2), (3, 4), (5, 3), (5, 5), (5, 5)),
        start=0,
        finals=frozenset({1, 3, 4}),
    )
    assert order_type(m).overall == parse_ordinal("w + 2")
    assert successor(m, "011") == "1"
    assert rank(m, "011") == W
    assert rank(m, "1") == parse_ordinal("w + 1")


def test_successor_ranks_one_higher_on_synthesized_automata():
    rng = random.Random(4)
    for m in _synth_corpus():
        table = order_type(m)
        if table.overall.is_finite:
            continue
        walks = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            for _ in range(10)
        ]
        _assert_ranks_step_by_one(m, table, walks)


def _rank_by_letters(m, w, table):
    """The rank formula letter by letter, one ordinal addition per
    accepted proper prefix and per letter 1."""
    total = Ordinal.zero()
    q = m.start
    for ch in w:
        if q in m.finals:
            total = total + Ordinal.one()
        if ch == "1":
            total = total + table.per_state[m.delta[q][0]]
        q = m.run(q, ch)
    return total


def test_rank_matches_the_letter_by_letter_formula():
    words = list(all_words(8))
    small = [m for m in exhaustive_trim_dfas(3) if check(m).well_ordered]
    # Without a table each call builds one; on the larger synthesized
    # automata only the words of at most 5 letters pay for that.
    for corpus, untabled in ((small, 8), (_synth_corpus(), 5)):
        for m in corpus:
            table = order_type(m)
            for w in words:
                expected = _rank_by_letters(m, w, table)
                assert rank(m, w, table) == expected, (m, w)
                if len(w) <= untabled:
                    assert rank(m, w) == expected, (m, w)


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
    ids = m.analysis.component_of
    types = table.per_state
    for members in condense(m).components:
        if not any(ids[t] == ids[q] for q in members for t in m.delta[q]):
            continue  # no edge stays inside: not a cycle
        for q in members:
            t = types[q]
            if t.is_zero:
                continue  # the sink's self loop
            assert not t.is_finite
            # The lap from q, walked around the cycle: accepted prefixes
            # plus each 1-position's 0-exit.  Every rotation must give
            # the same type.
            lap = Ordinal.zero()
            s = q
            for _ in range(m.state_count):
                if s in m.finals:
                    lap = lap + 1
                on0, on1 = m.delta[s]
                if ids[on0] == ids[q]:
                    s = on0
                else:
                    lap = lap + types[on0]
                    s = on1
                if s == q:
                    break
            else:
                pytest.fail(f"the walk from state {q} did not close")
            assert t == Ordinal.omega_power(lap.degree + 1)
            assert lap.degree + 1 == t.degree
