"""Exact order types of well-ordered regular languages over {0, 1}.

Every state's language gets an ordinal below w^w, computed bottom-up
over the strong components.  The sink is 0.  A non-recursive state q
contributes [q final] + type(q.0) + type(q.1), matching the split of
its language into the empty word, the 0-branch and the 1-branch.  A
recursive state's language splits into laps of its cycle: one lap
contributes, position by position, the acceptance of the prefix walked
so far plus the type of the 0-exit wherever the cycle reads a 1; the
full language is that lap type times w.
"""

from __future__ import annotations

import dataclasses

from .dfa import Dfa, ensure_trim, loop_word, sink_of, validate_word
from .ordinal import Ordinal
from .wellorder import Witness, build_witness, failing_state


class NotWellOrderedError(Exception):
    """Raised when an order type is requested for a non-well-ordered language."""

    def __init__(self, witness: Witness):
        super().__init__(
            "the language is not well-ordered; a descending chain starts at "
            f"state {witness.state}"
        )
        self.witness = witness


def _lap(m: Dfa, q: int, types: list[Ordinal | None]) -> tuple[list[int], Ordinal]:
    """The states of recursive q's cycle, in walk order from q, and the
    type of one lap: position by position, one for an accepted prefix
    plus the 0-exit's type where the cycle reads a 1 (a 0-position's
    1-exit is the sink).  Each exit's type must already be in `types`.
    """
    cycle = []
    total = Ordinal.zero()
    s = q
    for ch in loop_word(m, q):
        cycle.append(s)
        if s in m.finals:
            total = total + 1
        if ch == "1":
            ext = types[m.delta[s][0]]
            if ext is None:
                raise RuntimeError(
                    f"exit target {m.delta[s][0]} of state {s} was not processed first"
                )
            total = total + ext
        s = m.step(s, ch)
    return cycle, total


@dataclasses.dataclass(frozen=True)
class OrderTypeTable:
    """Order types per state; the automaton's overall type is the start's."""

    per_state: tuple[Ordinal, ...]
    start: int

    @property
    def overall(self) -> Ordinal:
        return self.per_state[self.start]


def order_type(m: Dfa) -> OrderTypeTable:
    """Order types of every state's language, for trim well-ordered m.

    Raises NotWellOrderedError (carrying the witness) otherwise.
    """
    ensure_trim(m)
    snk = sink_of(m)
    ids = m.analysis.component_of
    # The same rule and witness as `check`.
    bad = failing_state(m, ids, snk)
    if bad is not None:
        raise NotWellOrderedError(build_witness(m, bad))
    types: list[Ordinal | None] = [None] * m.state_count
    # Every transition out of a strong component leads to a smaller
    # component id, so in id order each exit's type is already known.
    for q in sorted(range(m.state_count), key=ids.__getitem__):
        if types[q] is not None:  # typed with the rest of its cycle
            continue
        a, b = m.delta[q]
        if q == snk:
            types[q] = Ordinal.zero()
        elif ids[a] == ids[q] or ids[b] == ids[q]:  # q lies on a cycle
            # A passing cycle is simple, and every rotation of a lap has
            # the same degree, so one lap types the whole component.
            cycle, lap = _lap(m, q, types)
            if lap.is_zero:
                raise RuntimeError(f"live recursive state {q} has a lap of type 0")
            t = lap.times_omega()
            for s in cycle:
                types[s] = t
        else:
            t = types[a] + types[b]
            if q in m.finals:
                t = Ordinal.one() + t
            types[q] = t
    return OrderTypeTable(per_state=tuple(types), start=m.start)


def rank(m: Dfa, w: str, table: OrderTypeTable | None = None) -> Ordinal:
    """Ordinal position of w within the well-ordered language L(m).

    This is the order type of {v accepted : v below w}; w itself need
    not be accepted.  Walking w, every accepted proper prefix adds one,
    and every position reading a 1 adds the whole type of the 0-exit
    there, in position order.  Raises ValueError, as `validate_word`
    does, on a letter other than '0' and '1'.
    """
    validate_word(w)
    if table is None:
        table = order_type(m)
    types, delta, finals = table.per_state, m.delta, m.finals
    total = Ordinal.zero()
    q = m.start
    for ch in w:
        if q in finals:
            total = total + 1
        if ch == "1":
            total = total + types[delta[q][0]]
        q = delta[q][ch == "1"]
    return total
