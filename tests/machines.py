"""Shared fixture automata and first-principles helpers for the tests."""

import itertools

from hypothesis import strategies as st

from ordfa.dfa import Dfa, trim
from ordfa.lexorder import LexRelation

# L = 1*
M_ONESTAR = Dfa(delta=((1, 0), (1, 1)), start=0, finals=frozenset({0}))

# L = (01)*00, states q0=0, q1=1, f=2, sink=3
M_CYCLE2 = Dfa(
    delta=((1, 3), (2, 0), (3, 3), (3, 3)),
    start=0,
    finals=frozenset({2}),
)

# L = 0*1, not well-ordered
M_0STAR1 = Dfa(delta=((0, 1), (2, 2), (2, 2)), start=0, finals=frozenset({1}))

# L = {empty word}
M_EPS = Dfa(delta=((1, 1), (1, 1)), start=0, finals=frozenset({0}))

FIXTURES = [M_ONESTAR, M_CYCLE2, M_0STAR1, M_EPS]

# L = {0} + 1 0* 1, whose least word has no successor: 1 0^(n+1) 1 is
# below 1 0^n 1
M_ZERO_THEN_CHAIN = Dfa(
    delta=((1, 2), (4, 4), (2, 3), (4, 4), (4, 4)),
    start=0,
    finals=frozenset({1, 3}),
)


def is_trim(m: Dfa) -> bool:
    """The trim predicate, read from `m.analysis`: the start reaches
    every state and at most one state is dead."""
    a = m.analysis
    return not a.unreachable and len(a.dead) <= 1


def naive_relation(u: str, v: str) -> LexRelation:
    """Textbook positional classification, independent of compare_lex."""
    if u == v:
        return LexRelation.EQUAL
    div = None
    for i in range(min(len(u), len(v))):
        if u[i] != v[i]:
            div = i
            break
    if div is None:
        return (
            LexRelation.PREFIX_LESS if len(u) < len(v) else LexRelation.PREFIX_GREATER
        )
    return LexRelation.STRICT_LESS if u[div] < v[div] else LexRelation.STRICT_GREATER


def naive_lex_less(u: str, v: str) -> bool:
    rel = naive_relation(u, v)
    return rel in (LexRelation.PREFIX_LESS, LexRelation.STRICT_LESS)


def all_words(max_len: int, alphabet: str = "01"):
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


def binary_words(max_size: int = 8):
    return st.text(alphabet="01", max_size=max_size)


@st.composite
def raw_dfas(draw, max_states: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_states))
    delta = tuple(
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(n)
    )
    finals = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    start = draw(st.integers(min_value=0, max_value=n - 1))
    return Dfa(delta=delta, start=start, finals=finals)


@st.composite
def trim_dfas(draw, max_states: int = 8):
    return trim(draw(raw_dfas(max_states))).trimmed
