import bisect
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machines import (
    M_0STAR1,
    M_CYCLE2,
    M_EPS,
    M_ONESTAR,
    M_ZERO_THEN_CHAIN,
    all_words,
    binary_words,
    naive_lex_less,
    naive_relation,
)
from ordfa.dfa import Dfa
from ordfa.oracle import enum_bounded, random_trim_dfa
from ordfa.ordinal import Ordinal
from ordfa.ordtype import order_type, rank
from ordfa.synth import synth
from ordfa.wellorder import check
from ordfa.lexorder import (
    ChainAnalysis,
    LexRelation,
    NoMinimumError,
    NotDescendingError,
    NotStrictChainError,
    analyze_chain,
    compare_lex,
    embed3to2,
    enumerate_words,
    extract_strict_chain,
    min_word,
    successor,
)

###############################################################################
# compare_lex
###############################################################################


def test_compare_lex_examples():
    assert compare_lex("0", "0") is LexRelation.EQUAL
    assert compare_lex("0", "01") is LexRelation.PREFIX_LESS
    assert compare_lex("01", "0") is LexRelation.PREFIX_GREATER
    assert compare_lex("01", "10") is LexRelation.STRICT_LESS
    assert compare_lex("10", "01") is LexRelation.STRICT_GREATER
    assert compare_lex("", "1") is LexRelation.PREFIX_LESS


def test_compare_lex_matches_naive_exhaustively():
    words = list(all_words(5))
    for u in words:
        for v in words:
            assert compare_lex(u, v) is naive_relation(u, v), (u, v)


@given(binary_words(), binary_words())
def test_lex_less_matches_naive(u, v):
    # The module's premise: on binary words the order is string `<`.
    assert (u < v) == naive_lex_less(u, v)


@given(binary_words(4), binary_words(4), binary_words(4))
def test_translation_invariance(w, u, v):
    assert compare_lex(w + u, w + v) is compare_lex(u, v)


@given(binary_words(4), binary_words(4), binary_words(3), binary_words(3))
def test_strict_order_absorbs_suffixes(u, v, w1, w2):
    if compare_lex(u, v) is LexRelation.STRICT_LESS:
        assert compare_lex(u + w1, v + w2) is LexRelation.STRICT_LESS


@given(binary_words(), binary_words())
def test_trichotomy(u, v):
    rel = compare_lex(u, v)
    flips = {
        LexRelation.EQUAL: LexRelation.EQUAL,
        LexRelation.PREFIX_LESS: LexRelation.PREFIX_GREATER,
        LexRelation.PREFIX_GREATER: LexRelation.PREFIX_LESS,
        LexRelation.STRICT_LESS: LexRelation.STRICT_GREATER,
        LexRelation.STRICT_GREATER: LexRelation.STRICT_LESS,
    }
    assert compare_lex(v, u) is flips[rel]
    assert (rel is LexRelation.EQUAL) == (u == v)


###############################################################################
# min_word / successor / enumerate_words
###############################################################################


def test_min_word_examples():
    assert min_word(M_ONESTAR) == ""
    assert min_word(M_CYCLE2) == "00"
    assert min_word(M_EPS) == ""


def test_min_word_empty_language():
    m = Dfa(delta=((0, 0),), start=0, finals=frozenset())
    assert min_word(m) is None


def test_min_word_no_minimum():
    with pytest.raises(NoMinimumError):
        min_word(M_0STAR1)


def test_successor_examples():
    assert successor(M_CYCLE2, "00") == "0100"
    assert successor(M_CYCLE2, "0100") == "010100"
    assert successor(M_ONESTAR, "") == "1"
    assert successor(M_ONESTAR, "11") == "111"


def test_successor_none_at_maximum():
    assert successor(M_EPS, "") is None


def test_successor_from_word_outside_language():
    # "01" is not accepted by M_CYCLE2; its successor is still "0100"
    assert successor(M_CYCLE2, "01") == "0100"


def test_enumerate_words_examples():
    assert enumerate_words(M_CYCLE2, 3) == ["00", "0100", "010100"]
    assert enumerate_words(M_ONESTAR, 4) == ["", "1", "11", "111"]
    assert enumerate_words(M_EPS, 5) == [""]
    assert enumerate_words(M_CYCLE2, 0) == []


def test_enumerate_words_takes_a_count_beyond_sys_maxsize():
    assert enumerate_words(synth(Ordinal.from_int(3)), 10**20) == ["00", "01", "10"]


def test_enumerate_words_stops_at_the_count_before_a_descending_chain():
    assert enumerate_words(M_ZERO_THEN_CHAIN, 1) == ["0"]
    with pytest.raises(NoMinimumError):
        enumerate_words(M_ZERO_THEN_CHAIN, 2)


def test_enumerate_words_empty_language():
    m = Dfa(delta=((0, 0),), start=0, finals=frozenset())
    assert enumerate_words(m, 3) == []


def test_enumerate_words_sorted_and_accepted():
    for m in (M_ONESTAR, M_CYCLE2, M_EPS):
        words = enumerate_words(m, 6)
        assert words == sorted(words)
        assert all(m.accepts(w) for w in words)


def test_successor_rejects_bad_letter():
    with pytest.raises(ValueError, match="^letter 'x' at position 1 is not 0 or 1$"):
        successor(M_ONESTAR, "0x1")


def _well_ordered_random(seeds: int, finite: bool):
    for seed in range(seeds):
        m = random_trim_dfa(seed, 5)
        if check(m).well_ordered and order_type(m).overall.is_finite == finite:
            yield m


def test_successor_matches_the_oracle_on_finite_languages():
    tried = 0
    for m in _well_ordered_random(400, finite=True):
        # A finite language has no word as long as the automaton.
        language = enum_bounded(m, m.state_count)
        for w in all_words(6):
            i = bisect.bisect_right(language, w)
            assert successor(m, w) == (language[i] if i < len(language) else None), w
        tried += 1
    assert tried >= 80


def test_enumeration_agrees_with_fresh_successors():
    tried = 0
    for m in _well_ordered_random(2000, finite=False):
        words = enumerate_words(m, 32)
        assert len(words) == 32
        for u, v in zip(words, words[1:]):
            assert successor(m, u) == v
        tried += 1
    assert tried >= 40


def _zeros_or_one(k: int) -> Dfa:
    """{0^k, 1}: a chain of k 0-steps, an accepting 1-exit at the start."""
    one, sink = k + 1, k + 2
    delta = [(i + 1, sink) for i in range(k)]
    delta[0] = (1, one)
    delta += [(sink, sink), (sink, sink), (sink, sink)]
    return Dfa(delta=tuple(delta), start=0, finals=frozenset({k, one}))


def test_successor_enumeration_and_rank_are_linear_in_the_word():
    k = 10**5
    zeros = "0" * k
    calls = [
        (lambda m: successor(m, zeros), "1"),
        (lambda m: enumerate_words(m, 2), [zeros, "1"]),
        (lambda m: rank(m, zeros + "1").as_int(), 1),
    ]
    for call, want in calls:
        m = _zeros_or_one(k)  # a fresh automaton: each call pays for its analysis
        t0 = time.perf_counter()
        got = call(m)
        took = time.perf_counter() - t0
        assert got == want
        assert took < 1.0, took


###############################################################################
# embed3to2
###############################################################################


def test_embed_examples():
    assert embed3to2("") == ""
    assert embed3to2("021") == "01110"
    assert embed3to2("2") == "11"


def test_embed_rejects_other_letters():
    with pytest.raises(ValueError, match="'3'"):
        embed3to2("013")


def test_embed_preserves_order_exhaustively():
    ternary = list(all_words(4, alphabet="012"))
    images = [embed3to2(w) for w in ternary]
    assert len(set(images)) == len(images)

    def ternary_less(u, v):
        # same order definition, letterwise on 0 < 1 < 2
        if v.startswith(u):
            return u != v
        if u.startswith(v):
            return False
        return u < v

    for u in ternary:
        for v in ternary:
            assert ternary_less(u, v) == (embed3to2(u) < embed3to2(v)), (u, v)


###############################################################################
# extract_strict_chain
###############################################################################


def test_extract_strict_chain_example():
    chain = ["011", "01", "0010", "001", "000"]
    assert extract_strict_chain(chain) == ["011", "0010", "000"]


def test_extract_strict_chain_trivial():
    assert extract_strict_chain([]) == []
    assert extract_strict_chain(["01"]) == ["01"]
    assert extract_strict_chain(["01", "0"]) == ["01"]


def test_extract_strict_chain_rejects_non_descending():
    with pytest.raises(NotDescendingError):
        extract_strict_chain(["0", "001"])
    with pytest.raises(NotDescendingError):
        extract_strict_chain(["0", "0"])


@given(st.sets(binary_words(6), max_size=12))
def test_extract_strict_chain_from_sorted_words(words):
    chain = sorted(words, reverse=True)
    out = extract_strict_chain(chain)
    for a, b in zip(out, out[1:]):
        assert compare_lex(b, a) is LexRelation.STRICT_LESS


###############################################################################
# analyze_chain
###############################################################################


def test_analyze_chain_two_letter_example():
    got = analyze_chain(["11", "10", "01", "00"])
    assert got == ChainAnalysis(
        active=((1, 1), (0, 2), (1, 3)),
        sequence=((0, 2), (1, 3)),
    )


def test_analyze_chain_three_letter_example():
    words = ["111", "110", "101", "100", "011", "010", "001"]
    got = analyze_chain(words)
    assert got.active == ((2, 1), (1, 2), (2, 3), (0, 4), (2, 5), (1, 6))
    assert got.sequence == ((0, 4), (1, 6))


def test_analyze_chain_short():
    assert analyze_chain([]) == ChainAnalysis(active=(), sequence=())
    assert analyze_chain(["0"]) == ChainAnalysis(active=(), sequence=())
    assert analyze_chain(["1", "0"]) == ChainAnalysis(
        active=((0, 1),), sequence=((0, 1),)
    )


def test_bad_chain_messages_elide_long_words():
    long = "1" * 300_000
    for fn, error in (
        (extract_strict_chain, NotDescendingError),
        (analyze_chain, NotStrictChainError),
    ):
        with pytest.raises(error) as info:
            fn([long, long])
        assert str(info.value).startswith("words[1] = '1111")
        assert len(str(info.value)) < 200


def test_analyze_chain_rejects_prefix_steps():
    with pytest.raises(NotStrictChainError):
        analyze_chain(["01", "0"])
    with pytest.raises(NotStrictChainError):
        analyze_chain(["0", "1"])


def _chain_by_definition(words):
    """analyze_chain's result as ChainAnalysis defines it: each step's
    first differing position, and each next sequence entry chosen from
    the pool of active pairs above the previous entry."""
    active = []
    for t in range(1, len(words)):
        old, new = words[t - 1], words[t]
        i = next(i for i, (a, b) in enumerate(zip(old, new)) if a != b)
        assert (old[i], new[i]) == ("1", "0")
        active.append((i, t))
    sequence = []
    i_prev, t_prev = -1, 0
    while True:
        pool = [(i, t) for (i, t) in active if i > i_prev and t > t_prev]
        if not pool:
            return ChainAnalysis(active=tuple(active), sequence=tuple(sequence))
        i_prev = min(i for i, _ in pool)
        t_prev = min(t for i, t in pool if i == i_prev)
        sequence.append((i_prev, t_prev))


@given(st.sets(binary_words(8), min_size=2, max_size=40))
def test_analyze_chain_matches_its_definition(words):
    chain = extract_strict_chain(sorted(words, reverse=True))
    assert analyze_chain(chain) == _chain_by_definition(chain)


@given(st.lists(binary_words(3), max_size=6))
def test_analyze_chain_rejects_exactly_the_steps_that_are_not_strict_drops(words):
    steps = [compare_lex(b, a) for a, b in zip(words, words[1:])]
    if all(r is LexRelation.STRICT_LESS for r in steps):
        assert analyze_chain(words) == _chain_by_definition(words)
    else:
        n = 1 + next(n for n, r in enumerate(steps) if r is not LexRelation.STRICT_LESS)
        with pytest.raises(NotStrictChainError, match=rf"^words\[{n}\] = "):
            analyze_chain(words)


@given(st.sets(binary_words(6), min_size=2, max_size=16))
def test_analyze_chain_properties(words):
    chain = extract_strict_chain(sorted(words, reverse=True))
    if len(chain) < 2:
        return
    got = analyze_chain(chain)
    assert len(got.active) == len(chain) - 1
    active = set(got.active)
    # the canonical subsequence picks activations, strictly increasing
    # in both coordinates, starting at the least position ever active
    for pair in got.sequence:
        assert pair in active
    for (i1, t1), (i2, t2) in zip(got.sequence, got.sequence[1:]):
        assert i1 < i2 and t1 < t2
    assert got.sequence[0][0] == min(i for i, _ in got.active)
