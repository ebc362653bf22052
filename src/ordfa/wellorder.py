"""Deciding whether the language of a trim DFA is well-ordered.

The language fails to be well-ordered exactly when some state q can
read a 0 and stay in its own strong component while its 1-edge leads
to a live state (in a trim automaton, one that is not the sink).  Such
a q yields the descending chain access (0 loop)^n 1 tail of accepted
words; conversely every descending chain produces such a state.
"""

from __future__ import annotations

from typing import NamedTuple

from .dfa import Dfa, ensure_trim, shortest_word, validate_word


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
    no chain or is not a state."""
    if not 0 <= q < m.state_count:
        raise ValueError(f"state {q} is out of range for {m.state_count} states")
    access = shortest_word(m, m.start, {q})
    loop = shortest_word(m, m.delta[q][0], {q})
    tail = shortest_word(m, m.delta[q][1], m.finals)
    if access is None or loop is None or tail is None:
        raise ValueError(
            f"state {q} is not a failing state: it is unreachable, its "
            "0-edge does not lead back to it, or its 1-edge reaches no "
            "final state"
        )
    return Witness(access=access, loop=loop, tail=tail, state=q)


def check(m: Dfa) -> CheckResult:
    """Decide well-orderedness of L(m) for trim m.

    This is the one place the rule is applied (`ordtype.order_type`
    decides through here): state q fails when q.1 is live, which makes
    q live, and q and q.0 share a strong component.  It needs only the
    live flags and the strong-component ids of `m.analysis` (one Tarjan
    pass per automaton, no condensation).  The reported witness is at
    the smallest failing state index.
    """
    a = m.analysis
    if a.unreachable or len(a.dead) > 1:
        ensure_trim(m)  # raises NotTrimError
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
    strictly below chain[n] for every witness.  Membership is replayed
    through `Dfa.run`: the state after access (0 loop)^n is carried from
    one depth to the next, and only '1' tail is read from it.  Both
    words are validated first, so a bad letter raises ValueError for any
    upto.  The words of the chain are built only to describe a failure.
    The automaton is deterministic, so once the run of access (0 loop)^n
    comes back to a state it held at an earlier depth, every later depth
    repeats a check that already passed: replay stops there, after at
    most one depth per state.
    """
    run, finals = m.run, m.finals
    step = validate_word("0" + w.loop)
    rest = validate_word("1" + w.tail)
    state = run(m.start, w.access)
    seen = set()
    for n in range(upto):
        if state in seen:
            return None
        seen.add(state)
        if run(state, rest) not in finals:
            return f"chain[{n}] = {witness_chain(w, n) or '(eps)'} is not accepted"
        state = run(state, step)
    return None


def verify_witness(m: Dfa, w: Witness, upto: int) -> bool:
    """True when the chain replays to depth upto: chain[0..upto-1] are
    accepted and each next word is strictly below the one before (see
    `witness_failure`)."""
    return witness_failure(m, w, upto) is None
