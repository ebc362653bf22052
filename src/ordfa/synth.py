"""Synthesis of trim automata realizing any ordinal below w^w.

Built from five combinators: the empty language (type 0), the single
empty word (type 1), an ordered sum 0 L1 + 1 L2 (type a1 + a2), the
times-omega step {1^n 0 u : u in L} (type a * w), and the times-c step
{p u : p in P, u in L} for a set P of c words of one length (type a * c,
in O(log c) states).  Every result is trim and passes the well-order
check.

Each combinator writes its table itself, copying or offsetting the rows
of automata that are already valid, so it builds the table with
`Dfa._unchecked` and skips the checks `Dfa()` makes of outside input:
a tuple of in-range int pairs and a frozenset of finals, field for
field what the checked constructor would hold.
"""

from __future__ import annotations

from functools import reduce

from .dfa import Dfa, trim
from .ordinal import Ordinal


class EmptyLanguageError(ValueError):
    """The times-omega step needs a nonempty language."""


def synth_zero() -> Dfa:
    return Dfa._unchecked(((0, 0),), 0, frozenset(), None)


def synth_one() -> Dfa:
    return Dfa._unchecked(((1, 1), (1, 1)), 0, frozenset({0}), None)


def synth_sum(m1: Dfa, m2: Dfa) -> Dfa:
    """Language 0 L(m1) + 1 L(m2); every 0-word comes before every 1-word."""
    n1 = m1.state_count
    n2 = m2.state_count
    rows = list(m1.delta)
    rows += [(a + n1, b + n1) for a, b in m2.delta]
    rows.append((m1.start, m2.start + n1))
    finals = m1.finals | {q + n1 for q in m2.finals}
    raw = Dfa._unchecked(tuple(rows), n1 + n2, finals, None)
    return trim(raw).trimmed


def synth_mul_omega(m: Dfa) -> Dfa:
    """Language {1^n 0 u : u in L(m)}, one copy of L(m) per lap count n."""
    n = m.state_count
    raw = Dfa._unchecked(m.delta + ((m.start, n),), n, m.finals, None)
    trimmed = trim(raw).trimmed
    if not trimmed.finals:
        raise EmptyLanguageError("cannot iterate an empty language")
    return trimmed


def synth_times(m: Dfa, c: int) -> Dfa:
    """Language {p u : p in P, u in L(m)}, of type type(m) * c.

    P is the set of the c words of length L = bit length of c - 1 whose
    binary value is below c.  Words of one length form a prefix-free
    set ordered like their values, so the c copies of L(m) follow one
    another.  P is read by two states per position: *tight* while the
    prefix equals that of c - 1 in binary, *free* once it is below it.
    A tight state reading 1 against a 0 of c - 1 goes to a sink, which
    trimming merges with m's.  For c = 1, P is {eps} and m is returned.
    """
    if type(c) is not int or c < 1:
        raise ValueError(f"the multiplier must be a positive integer, got {c!r}")
    if c == 1:
        return m
    bits = format(c - 1, "b")
    n = m.state_count
    size = len(bits)
    # Rows n + i and n + size + i are the tight and the free state at
    # position i (the free one at position 0 is never entered; trim
    # drops it).  Position size is m's start; row n + 2 * size is a sink.
    tight = [n + i for i in range(size)] + [m.start]
    free = [n + size + i for i in range(size)] + [m.start]
    sink = n + 2 * size
    rows = list(m.delta)
    rows += [
        (free[i + 1], tight[i + 1]) if b == "1" else (tight[i + 1], sink)
        for i, b in enumerate(bits)
    ]
    rows += [(free[i + 1], free[i + 1]) for i in range(size)]
    rows.append((sink, sink))
    raw = Dfa._unchecked(tuple(rows), n, m.finals, None)
    return trim(raw).trimmed


def synth(a: Ordinal) -> Dfa:
    """A trim automaton whose language has order type exactly a.

    a = w^d*c_d + ... + c_0 is the ordered sum, by descending exponent,
    of one times-c_k copy of a w^k block per nonzero c_k.  ValueError
    when a is not an Ordinal (an int, a bool or None included).
    """
    if not isinstance(a, Ordinal):
        raise ValueError(f"synth needs an Ordinal, got {a!r}")
    if a.is_zero:
        return synth_zero()
    blocks = [synth_one()]
    for _ in range(a.degree):
        blocks.append(synth_mul_omega(blocks[-1]))
    parts = [
        synth_times(blocks[k], c)
        for k, c in reversed(list(enumerate(a.coeffs)))
        if c
    ]
    return reduce(synth_sum, parts)
