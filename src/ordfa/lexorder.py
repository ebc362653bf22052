"""The lexicographic order on binary words and tools built on it.

The order is the union of the prefix order (a proper prefix comes
first) and the strict order (at the first differing position, 0 beats
1).  For words over '0'/'1' this coincides exactly with Python's string
comparison: a proper prefix sorts first and '0' < '1' charwise.  The
functions here rely on that, while the relation taxonomy is exposed
through `compare_lex`.
"""

from __future__ import annotations

import enum
import reprlib
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .dfa import Dfa, validate_word


class LexRelation(enum.Enum):
    EQUAL = "equal"
    PREFIX_LESS = "prefix-less"
    PREFIX_GREATER = "prefix-greater"
    STRICT_LESS = "strict-less"
    STRICT_GREATER = "strict-greater"


class NoMinimumError(Exception):
    """The language has no lexicographic minimum (a descending chain exists)."""


class NotDescendingError(ValueError):
    """Input words are not strictly descending in the lexicographic order."""


class NotStrictChainError(ValueError):
    """Input words are not pairwise descending in the strict order."""


def compare_lex(u: str, v: str) -> LexRelation:
    if u == v:
        return LexRelation.EQUAL
    if v.startswith(u):
        return LexRelation.PREFIX_LESS
    if u.startswith(v):
        return LexRelation.PREFIX_GREATER
    return LexRelation.STRICT_LESS if u < v else LexRelation.STRICT_GREATER


def _min_from(m: Dfa, live: Sequence[bool], trace: list[int]) -> str:
    """Least word accepted from the live state trace[-1], by greedy
    descent; the states it visits after trace[-1] are appended to trace.

    Always prefers staying final (the empty word), then the 0 branch
    when it leads anywhere live.  Revisiting a state proves the descent
    never bottoms out.
    """
    delta, finals = m.delta, m.finals
    q = trace[-1]
    letters: list[str] = []
    seen = set()
    while q not in finals:
        if q in seen:
            raise NoMinimumError(
                f"greedy descent revisits state {q}; no least word exists"
            )
        seen.add(q)
        b = 0 if live[delta[q][0]] else 1
        letters.append("01"[b])
        q = delta[q][b]
        trace.append(q)
    return "".join(letters)


def _read(m: Dfa, w: str) -> list[int]:
    """States visited reading w from the start: trace[i] is the state
    after w[:i].  ValueError, as from `validate_word`, on a bad letter."""
    validate_word(w)
    delta = m.delta
    q = m.start
    trace = [q]
    for ch in w:
        q = delta[q][ch == "1"]
        trace.append(q)
    return trace


def _next(m: Dfa, live: Sequence[bool], w: str, trace: list[int]) -> str | None:
    """Least accepted word strictly above w, where trace is w's state
    trace; trace becomes the answer's trace (and stays as it is when
    there is no answer).

    Anything above w either extends it or branches off at a position
    where w reads 0.  The least extension starts with the least
    nonempty continuation; among branch points, later ones give smaller
    words, so they are tried from the right.  The scan jumps from 0 to
    0 and the suffix it drops is no longer than w, so the cost is
    O(|w| + |answer|).
    """
    delta = m.delta
    q = trace[-1]
    if live[q]:
        for b in (0, 1):
            t = delta[q][b]
            if live[t]:
                trace.append(t)
                return w + "01"[b] + _min_from(m, live, trace)

    i = len(w)
    while (i := w.rfind("0", 0, i)) >= 0:
        t = delta[trace[i]][1]
        if live[t]:
            del trace[i + 1:]
            trace.append(t)
            return w[:i] + "1" + _min_from(m, live, trace)
    return None


def min_word(m: Dfa) -> str | None:
    """Lexicographic minimum of the language, or None when it is empty.

    Raises NoMinimumError when the language is nonempty but has no
    least element.
    """
    return next(iter_words(m), None)


def successor(m: Dfa, w: str) -> str | None:
    """Least accepted word strictly above w, or None when there is none.

    Expects a trim automaton with a well-ordered language; on other
    input the greedy subcalls may raise NoMinimumError.  Raises
    ValueError, as `validate_word` does, on a letter other than '0'
    and '1'.  Reads w once: O(|w| + |answer|) time.
    """
    return _next(m, m.analysis.live, w, _read(m, w))


def iter_words(m: Dfa) -> Iterator[str]:
    """The accepted words in lexicographic order, each one found as it
    is asked for.

    One state trace is carried from each word to the next, cut at the
    branch point and extended by the new suffix, so no word is read
    again: the first n words cost O(their total length).  Raises
    NoMinimumError where the greedy descent finds no least word.
    """
    live = m.analysis.live
    if not live[m.start]:
        return
    trace = [m.start]
    w = _min_from(m, live, trace)
    while w is not None:
        yield w
        w = _next(m, live, w, trace)


def enumerate_words(m: Dfa, n: int) -> list[str]:
    """First n accepted words in lexicographic order (fewer if the
    language runs out), in O(their total length) time."""
    return [w for _, w in zip(range(n), iter_words(m))]


_EMBED = {"0": "0", "1": "10", "2": "11"}


def embed3to2(word: str) -> str:
    """Order-preserving embedding of ternary words into binary words.

    Letters map 0 -> 0, 1 -> 10, 2 -> 11.
    """
    try:
        return "".join(_EMBED[ch] for ch in word)
    except KeyError:
        bad = next(ch for ch in word if ch not in _EMBED)
        raise ValueError(f"letter {bad!r} is not 0, 1 or 2") from None


def extract_strict_chain(words: list[str]) -> list[str]:
    """Thin a strictly descending sequence down to strict-order drops.

    One scan checks each step with `<`, the lexicographic order (see
    above), and keeps words[0], then each time the first later word
    strictly (not prefix) below the last kept one.  NotDescendingError
    names the first step that does not descend.
    """
    out = list(words[:1])
    for i in range(1, len(words)):
        if not words[i] < words[i - 1]:
            # reprlib elides the middle of a long word, to keep one short line.
            raise NotDescendingError(
                f"words[{i}] = {reprlib.repr(words[i])} does not descend "
                f"below words[{i - 1}] = {reprlib.repr(words[i - 1])}"
            )
        if compare_lex(words[i], out[-1]) is LexRelation.STRICT_LESS:
            out.append(words[i])
    return out


class ChainAnalysis(NamedTuple):
    """Flip structure of a strict descending chain.

    Times are 1-based: time n is the step from the n-th word to the
    next.  Positions are 0-based indices into the words.  `active`
    lists, per step, the position where the words diverge with a 1
    turning into a 0.  `sequence` is the canonical subsequence
    (i_0, t_0), (i_1, t_1), ... where i_0 is the least position ever
    active, t_0 its (unique) time, and each next entry is the least
    larger position active after the previous time.
    """

    active: tuple[tuple[int, int], ...]
    sequence: tuple[tuple[int, int], ...]


def analyze_chain(words: list[str]) -> ChainAnalysis:
    """Active positions and canonical sequence of a strict chain.

    NotStrictChainError names the first step that is not a strict drop.
    """
    active = []
    for n in range(1, len(words)):
        old, new = words[n - 1], words[n]
        # The first difference: a strict drop reads 1 in old, 0 in new.
        i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
        if i is None or old[i] != "1" or new[i] != "0":
            raise NotStrictChainError(
                f"words[{n}] = {reprlib.repr(new)} is not strictly below "
                f"words[{n - 1}] = {reprlib.repr(old)}"
            )
        active.append((i, n))

    # The pool of the next entry holds the pairs above the last one in
    # both coordinates, and its least pair comes first in (position,
    # time) order.  A pair skipped once stays out: both bounds only grow.
    sequence = []
    i_prev, t_prev = -1, 0
    for i, t in sorted(active):
        if i > i_prev and t > t_prev:
            sequence.append((i, t))
            i_prev, t_prev = i, t
    return ChainAnalysis(active=tuple(active), sequence=tuple(sequence))
