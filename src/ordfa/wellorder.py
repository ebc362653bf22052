"""Deciding whether the language of a trim DFA is well-ordered.

The language fails to be well-ordered exactly when some state q can
read a 0 and stay in its own strong component while its 1-edge leads
to a live state (in a trim automaton, one that is not the sink).  Such
a q yields the descending chain access (0 loop)^n 1 tail of accepted
words; conversely every descending chain produces such a state.
"""

from __future__ import annotations

from typing import NamedTuple

from .dfa import _BIT, _DROP_BITS, Dfa, ensure_trim, shortest_word, validate_word


class Witness(NamedTuple):
    """Generator of a descending chain: chain[n] = access (0 loop)^n 1 tail.

    `access` drives the start state to `state`, reading '0' then `loop`
    returns to `state`, and '1' then `tail` is accepted from it.
    """

    access: str
    loop: str
    tail: str
    state: int


class CheckResult(NamedTuple):
    well_ordered: bool
    witness: Witness | None


def witness_chain(w: Witness, n: int) -> str:
    return w.access + ("0" + w.loop) * n + "1" + w.tail


def build_witness(m: Dfa, q: int) -> Witness:
    """Deterministic witness at failing state q: breadth-first shortest
    words, ties resolved toward the letter 0.  ValueError when q yields
    no chain or is not a state.

    q's row is read once, and the access and loop searches share one
    target set {q}."""
    if not 0 <= q < m.state_count:
        raise ValueError(f"state {q} is out of range for {m.state_count} states")
    on0, on1 = m.delta[q]
    at_q = {q}
    access = shortest_word(m, m.start, at_q)
    loop = shortest_word(m, on0, at_q)
    tail = shortest_word(m, on1, m.finals)
    if access is None or loop is None or tail is None:
        raise ValueError(
            f"state {q} is not a failing state: it is unreachable, its "
            "0-edge does not lead back to it, or its 1-edge reaches no "
            "final state"
        )
    return Witness(access, loop, tail, q)


def check(m: Dfa) -> CheckResult:
    """Decide well-orderedness of L(m); NotTrimError unless m is trim.

    This is the one place the rule is applied (`ordtype.order_type`
    decides through here): state q fails when q.1 is live, which makes
    q live, and q and q.0 share a strong component.  It needs only the
    live flags and the strong-component ids of `m.analysis` (one Tarjan
    pass per automaton, no condensation).  The reported witness is at
    the smallest failing state index.
    """
    ensure_trim(m)
    a = m.analysis
    ids, live = a.component_of, a.live
    for q, (on0, on1) in enumerate(m.delta):
        if live[on1] and ids[q] == ids[on0]:
            return CheckResult(False, build_witness(m, q))
    return CheckResult(True, None)


def witness_failure(m: Dfa, w: Witness, upto: int) -> str | None:
    """First violated requirement when replaying the chain, or None.

    Checks, for n in 0..upto-1, that chain[n] is accepted.  Descent
    needs no check: chain[n+1] and chain[n] share the prefix
    access (0 loop)^n and continue with a 0 and a 1, so chain[n+1] is
    strictly below chain[n] for every witness.  Loop and tail are
    validated once, before any replay, so a bad letter raises
    ValueError for any upto; its message gives the letter's position
    in "0" + loop or "1" + tail, as the chain has it.  Access is read
    by `Dfa.run`.  Then the replay reads `delta` itself: the state after
    access (0 loop)^n is carried from one depth to the next, and each
    depth reads its row once, for the 1 before the tail and the 0
    before the loop.  The words of the chain are built only to
    describe a failure.  The automaton is deterministic, so once the
    run of access (0 loop)^n comes back to a state it held at an
    earlier depth, every later depth repeats a check that already
    passed: replay stops there, after at most one depth per state.
    """
    delta, finals = m.delta, m.finals
    loop, tail = w.loop, w.tail
    if loop.translate(_DROP_BITS) or tail.translate(_DROP_BITS):
        validate_word("0" + loop)
        validate_word("1" + tail)
    state = m.run(m.start, w.access)
    seen = set()
    for n in range(upto):
        if state in seen:
            return None
        seen.add(state)
        row = delta[state]
        s = row[1]
        for ch in tail:
            s = delta[s][_BIT[ch]]
        if s not in finals:
            return f"chain[{n}] = {witness_chain(w, n) or '(eps)'} is not accepted"
        s = row[0]
        for ch in loop:
            s = delta[s][_BIT[ch]]
        state = s
    return None


def verify_witness(m: Dfa, w: Witness, upto: int) -> bool:
    """True when the chain replays to depth upto: chain[0..upto-1] are
    accepted and each next word is strictly below the one before (see
    `witness_failure`)."""
    return witness_failure(m, w, upto) is None
