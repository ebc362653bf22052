"""Exact order types of well-ordered regular languages over {0, 1}.

Every state's language gets an ordinal below w^w, computed bottom-up
over the strong components.  A dead state is 0.  A non-recursive
state q contributes [q final] + type(q.0) + type(q.1), matching the
split of its language into the empty word, the 0-branch and the
1-branch.  A recursive state's language splits into laps of its
cycle, so its type is lap*w = w^(deg lap + 1): only the lap's degree
matters.  A lap's type is the rank formula along the cycle, one for
each final state passed plus the type of the 0-exit wherever the
cycle reads a 1.  Where a passing cycle reads a 0, its 1-exit is the
sink (type 0).  So the lap's degree is d, the largest degree among
the types of the cycle's exits, and the state's type is w^(1 + d).
"""

from __future__ import annotations

from typing import NamedTuple

from .dfa import Dfa, validate_word
from .ordinal import Ordinal
from .wellorder import Witness, check


class NotWellOrderedError(Exception):
    """Raised when an order type is requested for a non-well-ordered language."""

    def __init__(self, witness: Witness):
        super().__init__(
            "the language is not well-ordered; a descending chain starts at "
            f"state {witness.state}"
        )
        self.witness = witness


class OrderTypeTable(NamedTuple):
    """Order types per state; the automaton's overall type is the start's."""

    per_state: tuple[Ordinal, ...]
    start: int

    @property
    def overall(self) -> Ordinal:
        return self.per_state[self.start]


def order_type(m: Dfa) -> OrderTypeTable:
    """Order types of every state's language, for trim well-ordered m.

    Raises NotWellOrderedError (carrying `check`'s witness) otherwise.
    """
    result = check(m)
    if not result.well_ordered:
        raise NotWellOrderedError(result.witness)
    delta = m.delta
    ids, live = m.analysis.component_of, m.analysis.live
    types: list[Ordinal | None] = [None] * m.state_count
    prev = None
    # Every transition out of a strong component leads to a smaller
    # component id, so in id order each exit's type is already known,
    # and the states of one component come one after another.
    for q in sorted(range(m.state_count), key=ids.__getitem__):
        a, b = delta[q]
        cid = ids[q]
        if prev is not None and ids[prev] == cid:
            # Every rotation of a lap passes the same exits, so one
            # type serves the whole component.
            t = types[prev]
        elif not live[q]:
            t = Ordinal.zero()
        elif ids[a] == cid or ids[b] == cid:  # q lies on a cycle
            # A passing cycle is simple: walk its one in-component edge
            # per state back to q, keeping the largest exit degree, which
            # is the lap's degree (see the module docstring).
            d = 0
            s = q
            for _ in range(m.state_count):
                s0, s1 = delta[s]
                s, x = (s1, s0) if ids[s1] == cid else (s0, s1)
                d = max(d, types[x].degree)
                if s == q:
                    break
            else:
                raise RuntimeError(f"the walk from state {q} did not close into a cycle")
            t = Ordinal.omega_power(1 + d)
        else:
            t = types[a] + types[b]
            if q in m.finals:
                t = Ordinal.one() + t
        types[q] = t
        prev = q
    return OrderTypeTable(per_state=tuple(types), start=m.start)


def rank(m: Dfa, w: str, table: OrderTypeTable | None = None) -> Ordinal:
    """Ordinal position of w within the well-ordered language L(m).

    This is the order type of {v accepted : v below w}; w itself need
    not be accepted.  Walking w, every accepted proper prefix adds one,
    and every position reading a 1 adds the whole type of the 0-exit
    there, in position order.  Raises ValueError, as `validate_word`
    does, on a letter other than '0' and '1', and when `table` was not
    built for an automaton of m's size and start.

    The finite summands are counted as an int.  A finite left summand
    is absorbed by an infinite one (n + a = a), so the count is dropped
    at each infinite exit and added once at the end.
    """
    validate_word(w)
    if table is None:
        table = order_type(m)
    elif len(table.per_state) != m.state_count or table.start != m.start:
        raise ValueError(
            f"the table has {len(table.per_state)} states and start "
            f"{table.start}, but the automaton has {m.state_count} states "
            f"and start {m.start}"
        )
    delta, finals, types = m.delta, m.finals, table.per_state
    q = m.start
    total = Ordinal.zero()
    n = 0
    for ch in w:
        if q in finals:
            n += 1
        if ch == "1":
            ext = types[delta[q][0]]
            if ext is None:
                raise RuntimeError(
                    f"exit target {delta[q][0]} of state {q} has no type in the table"
                )
            cs = ext.coeffs
            if len(cs) > 1:
                total = total + ext
                n = 0
            elif cs:
                n += cs[0]
        q = delta[q][ch == "1"]
    return total + n if n else total
