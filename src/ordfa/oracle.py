"""Independent reference implementations and differential testing.

Everything here either recomputes a result by a route the main modules
do not take (bounded enumeration, a reachability closure table,
length-indexed counting, greedy descent through exact-length tables)
or drives the main and reference routes against each other over
generated automata.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import NamedTuple

from .dfa import (
    Dfa,
    TrimReport,
    analyze,
    condense,
    ensure_trim,
    from_json,
    to_json,
    trim,
    validate_word,
)
from .lexorder import enumerate_words
from .ordinal import Ordinal, OrdinalRangeError, format_ordinal, parse_ordinal
from .ordtype import order_type, rank
from .wellorder import CheckResult, build_witness, check, verify_witness

ENUM_BOUND_CAP = 20
# Longest word that `fuzz`'s rank spot checks rank on every automaton.
RANK_CHECK_LEN = 3


class BoundTooLargeError(ValueError):
    """Enumeration bound beyond ENUM_BOUND_CAP."""


def enum_bounded(m: Dfa, bound: int) -> list[str]:
    """All accepted words of length at most bound, in lexicographic order.

    Pure enumeration over every candidate word, 2^(bound+1) - 1 of
    them, so the bound is capped at ENUM_BOUND_CAP.
    """
    if bound > ENUM_BOUND_CAP:
        raise BoundTooLargeError(f"bound {bound} exceeds the cap {ENUM_BOUND_CAP}")
    if bound < 0:
        raise ValueError("bound must be a natural")
    out = []
    for length in range(bound + 1):
        for tup in itertools.product("01", repeat=length):
            w = "".join(tup)
            if m.accepts(w):
                out.append(w)
    return sorted(out)


def naive_check(m: Dfa) -> CheckResult:
    """Well-order check on a reachability closure table (the bitmasks
    of `_closure`) instead of strong components.  Same verdict and
    witness as `check`: q fails when its 0-edge leads back to q.
    The sink is taken by its shape, not from `m.analysis`, so the
    routes share no liveness pass: in a trim automaton the one dead
    state is the non-final state whose two edges both loop to itself."""
    ensure_trim(m)
    q = _first_failing_state(m, _closure(m.delta))
    return CheckResult(True, None) if q is None else CheckResult(False, build_witness(m, q))


def _first_failing_state(m: Dfa, clo: list[int]) -> int | None:
    """The least state of the trim m whose 0-edge leads back to it and
    whose 1-edge is live, by the closure table clo of `_closure(m.delta)`,
    or None when m is well-ordered."""
    snk = next(
        (q for q, (a, b) in enumerate(m.delta) if a == b == q and q not in m.finals),
        None,
    )
    for q, (on0, on1) in enumerate(m.delta):
        if q != snk and on1 != snk and clo[on0] >> q & 1:
            return q
    return None


def least_shortest_word(m: Dfa, src: int, targets) -> str | None:
    """The lexicographically least of the shortest words from src into
    targets, or None when targets are out of reach.

    No search and no parent pointers: a table marks the states that
    reach targets in exactly k letters, for k up to the state count
    (a shortest word is shorter), and the word is the least such k
    spelled greedily, taking 0 whenever a target is still reachable in
    exactly the remaining letters after it.
    """
    n = m.state_count
    exact = [[q in targets for q in range(n)]]
    for _ in range(n):
        prev = exact[-1]
        exact.append([prev[a] or prev[b] for a, b in m.delta])
    k = next((k for k, row in enumerate(exact) if row[src]), None)
    if k is None:
        return None
    letters = []
    q = src
    for left in range(k - 1, -1, -1):
        a, b = m.delta[q]
        q, letter = (a, "0") if exact[left][a] else (b, "1")
        letters.append(letter)
    return "".join(letters)


def brute_rank(m: Dfa, w: str, bound: int) -> int:
    """|{v accepted : |v| <= bound, v below w}| by length-indexed counting.

    No ordinal machinery is involved: accepted-word counts per state and
    length are tabulated, then summed along w, which is checked once by
    `validate_word` and then read straight through `delta`.  Tests pin
    this against a literal filter of enum_bounded.  It takes
    O(states * bound) time, so the bound is not capped.
    """
    if bound < 0:
        raise ValueError("bound must be a natural")
    validate_word(w)
    n = m.state_count
    cnt = [1 if q in m.finals else 0 for q in range(n)]
    # cum[q][l] counts accepted words of length at most l from q.
    cum = [[c] for c in cnt]
    for _ in range(bound):
        cnt = [cnt[a] + cnt[b] for a, b in m.delta]
        for q in range(n):
            cum[q].append(cum[q][-1] + cnt[q])
    total = 0
    q = m.start
    for i, ch in enumerate(w):
        if i <= bound and q in m.finals:
            total += 1
        if ch == "1":
            rem = bound - i - 1
            if rem >= 0:
                total += cum[m.delta[q][0]][rem]
        q = m.delta[q][ch == "1"]
    return total


def random_trim_dfa(seed: int, states: int) -> Dfa:
    """Deterministic pseudo-random trim automaton with at most `states`
    states: `_random_raw_dfa(seed, states)`, trimmed."""
    return trim(_random_raw_dfa(seed, states)).trimmed


def _random_raw_dfa(seed: int, states: int) -> Dfa:
    """The uniform complete automaton with start 0 that
    `random_trim_dfa` trims: each target uniform, each state final with
    chance 1/3."""
    rng = random.Random(seed)
    delta = tuple(
        (rng.randrange(states), rng.randrange(states)) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if rng.random() < 1 / 3)
    return Dfa(delta=delta, start=0, finals=finals)


def _closure(rows: tuple[tuple[int, int], ...]) -> list[int]:
    """Reachability in zero or more steps, as bitmasks: bit p of clo[q]
    is set when some word, the empty one included, leads from q to p,
    so bit q of clo[q] is always set."""
    clo = [(1 << q) | (1 << a) | (1 << b) for q, (a, b) in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for q, (a, b) in enumerate(rows):
            new = clo[q] | clo[a] | clo[b]
            if new != clo[q]:
                clo[q] = new
                changed = True
    return clo


def _trim_by_closure(raw: Dfa) -> TrimReport:
    """What `trim` must report on raw, an automaton with start 0, read
    off the closure table of raw: the reached states keep their
    relative order, every reached dead state but the least merges into
    that least one, the sink, and the states the start does not reach
    are removed.  Dead states lead only to dead states, so the sink's
    edges become its own loops."""
    n = raw.state_count
    clo = _closure(raw.delta)
    finals = sum(1 << q for q in raw.finals)
    reach = clo[0]
    dead = [q for q in range(n) if reach >> q & 1 and not clo[q] & finals]
    merged = dead[1:]
    kept = [q for q in range(n) if reach >> q & 1 and q not in merged]
    new = {q: i for i, q in enumerate(kept)}
    sink = new[dead[0]] if dead else None
    new.update(dict.fromkeys(merged, sink))
    trimmed = Dfa(
        delta=tuple((new[a], new[b]) for a, b in (raw.delta[q] for q in kept)),
        start=new[0],
        finals=frozenset(new[q] for q in kept if finals >> q & 1),
    )
    removed = frozenset(q for q in range(n) if not reach >> q & 1)
    return TrimReport(trimmed, removed, frozenset(merged), sink)


def exhaustive_trim_dfas(max_states: int):
    """Every automaton obtained by trimming a complete automaton with at
    most max_states states, each distinct result yielded exactly once.

    The raw start state is fixed at 0; every complete automaton is
    isomorphic to one with start 0, and all properties checked against
    this family are invariant under state relabeling.

    A raw automaton is yielded as it stands when it is trim: the start
    reaches every state and at most one state is dead.  Trimming any
    other raw automaton gives one with fewer states, which came before,
    and a trim automaton trims to itself, so each result is yielded at
    its first appearance and no result is remembered.  Tests pin this
    against trimming every raw automaton by `_trim_by_closure` and
    keeping each result at its first appearance.
    The tables are built here as tuples of in-range int pairs, so each
    automaton is built without `Dfa`'s checks, its memo left empty.
    """
    for n in range(1, max_states + 1):
        everything = (1 << n) - 1
        pairs = [(a, b) for a in range(n) for b in range(n)]
        finals_of = [
            frozenset(q for q in range(n) if fmask >> q & 1)
            for fmask in range(1 << n)
        ]
        for rows in itertools.product(pairs, repeat=n):
            clo = _closure(rows)
            if clo[0] != everything:
                continue
            for fmask in range(1 << n):
                dead = sum(1 for c in clo if not c & fmask)
                if dead <= 1:
                    yield Dfa._unchecked(rows, 0, finals_of[fmask], None)


class FuzzCase(NamedTuple):
    key: int
    states: int
    verdict: str
    checks_passed: int
    first_failure: str | None


class FuzzReport(NamedTuple):
    total: int
    well_ordered: int
    not_well_ordered: int
    failures: int
    first_failure_key: int | None
    cases: tuple[FuzzCase, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_tsv(self) -> str:
        lines = ["seed\tstates\tverdict\tchecks\tfirst_failure"]
        for c in self.cases:
            lines.append(
                f"{c.key}\t{c.states}\t{c.verdict}\t{c.checks_passed}\t"
                f"{c.first_failure or '-'}"
            )
        first = self.first_failure_key if self.first_failure_key is not None else "-"
        lines.append(
            f"# total={self.total} well_ordered={self.well_ordered} "
            f"not_well_ordered={self.not_well_ordered} failures={self.failures} "
            f"first_failure={first}"
        )
        return "\n".join(lines) + "\n"


def _rank_consistency(m: Dfa, table) -> str | None:
    # Every rank, infinite ones included, sorted by word.
    ranked = sorted(
        (w, rank(m, w, table))
        for length in range(RANK_CHECK_LEN + 1)
        for w in map("".join, itertools.product("01", repeat=length))
        if m.accepts(w)
    )
    if any(not r < s for (_, r), (_, s) in zip(ranked, ranked[1:])):
        return "rank-order"
    finite = [(w, r.as_int()) for w, r in ranked if r.is_finite]
    if not finite:
        return None
    max_r = max(r for _, r in finite)
    listed = enumerate_words(m, max_r + 1)
    for a, b in zip(listed, listed[1:]):
        if not a < b:
            return "enumeration-order"
    for w, r in finite:
        if len(listed) < r:
            return "rank-enumeration"
        if any(not v < w for v in listed[:r]):
            return "rank-enumeration"
        if len(listed) > r and listed[r] < w:
            return "rank-enumeration"
        bound = len(w) + m.state_count
        if brute_rank(m, w, bound) != r or brute_rank(m, w, bound + 1) != r:
            return "rank-stabilization"
    return None


def _is_normal(t: Ordinal) -> bool:
    """Whether t's coefficients pass the checks of `Ordinal(coeffs)`
    unchanged; `+` builds its results without them."""
    try:
        return Ordinal(t.coeffs).coeffs == t.coeffs
    except (ValueError, OrdinalRangeError):
        return False


def _analysis_matches_closure(m: Dfa, clo: list[int]) -> bool:
    """Whether `m.analysis` says what the closure table clo of
    `_closure(m.delta)` says: the live flags and dead states, which
    states the start reaches, equal ids exactly where two states reach
    each other, and no edge to a larger id."""
    a = m.analysis
    ids = a.component_of
    n = m.state_count
    finals = sum(1 << q for q in m.finals)
    if a.live != tuple(bool(c & finals) for c in clo):
        return False
    if a.dead != tuple(q for q in range(n) if not a.live[q]):
        return False
    reach = clo[m.start]
    if a.unreachable != n - reach.bit_count():
        return False
    if any((ids[q] < a.reached) != bool(reach >> q & 1) for q in range(n)):
        return False
    for p, (on0, on1) in enumerate(m.delta):
        if ids[on0] > ids[p] or ids[on1] > ids[p]:
            return False
        for q in range(p + 1, n):
            if (ids[p] == ids[q]) != bool(clo[p] >> q & clo[q] >> p & 1):
                return False
    return True


def _closure_heights(clo: list[int]) -> list[int]:
    """Per state, the number of strong components strictly below its
    own, by the closure table clo of `_closure`: each component is
    counted at its least state."""
    least = sum(
        1 << p
        for p in range(len(clo))
        if not any(clo[p] >> r & clo[r] >> p & 1 for r in range(p))
    )
    return [(c & least).bit_count() - 1 for c in clo]


def _examine(m: Dfa, raw: Dfa | None = None, report: TrimReport | None = None):
    """Run the differential checks on one automaton.

    In seeded mode raw is the automaton with start 0 that `trim` made
    m from, and report is what it returned, so `report.trimmed` is m.
    Returns (verdict, checks_passed, first_failure).

    m is closed once: the one closure table judges the analysis and the
    heights and gives the failing state that `naive_check` would find,
    whose witness `check`'s must equal.  Seeded mode closes raw once
    more, for the trim reference.
    """
    checks = 0
    clo = _closure(m.delta)
    failing = _first_failing_state(m, clo)
    # The trim and the analysis come first, since `check` trusts both
    # and a wrong one can make it raise; the verdict then comes from the
    # closure table alone.  The analysis read may be one that trim
    # handed over.  It is also the one every later read gets: a memo,
    # not a pass per read.
    if raw is not None and report != _trim_by_closure(raw):
        failure = "trim-closure"
    elif m.analysis is not m.analysis or m.analysis != analyze(m):
        failure = "analysis-disagreement"
    elif not _analysis_matches_closure(m, clo):
        failure = "analysis-closure"
    else:
        failure = None
    if failure:
        return ("well-ordered" if failing is None else "not-well-ordered"), checks, failure
    fast = check(m)
    slow = None if failing is None else build_witness(m, failing)
    verdict = "well-ordered" if fast.well_ordered else "not-well-ordered"
    if (fast.well_ordered, fast.witness) != (failing is None, slow):
        return verdict, checks, "check-disagreement"
    # Heights on every case, not only the well-ordered ones: those
    # seldom have a component with two readers and no other path
    # between them, where a mask freed too early shows.
    cond = condense(m)
    if list(cond.height_of) != _closure_heights(clo):
        return verdict, checks, "height-closure"
    doc = {"start": m.start, "finals": sorted(m.finals), "delta": list(map(list, m.delta))}
    text = to_json(m)
    if text != json.dumps(doc, indent=2) + "\n" or from_json(text) != m:
        return verdict, checks, "json-text"
    checks += 1

    if not fast.well_ordered:
        # Replay stops at the first repeated state, which comes within
        # state_count depths, so this depth checks the whole chain.
        w = fast.witness
        if not verify_witness(m, w, m.state_count):
            return verdict, checks, "witness-verification"
        q0, q1 = m.delta[w.state]
        least = (
            least_shortest_word(m, m.start, {w.state}),
            least_shortest_word(m, q0, {w.state}),
            least_shortest_word(m, q1, m.finals),
        )
        if (w.access, w.loop, w.tail) != least:
            return verdict, checks, "witness-not-least"
        checks += 1
        return verdict, checks, None

    table = order_type(m)
    if not all(map(_is_normal, table.per_state)):
        return verdict, checks, "type-not-normal"
    # The types' descending sum has several infinite terms, which the
    # types themselves seldom have here, so it tests the term order.
    shown = [*table.per_state, sum(sorted(table.per_state, reverse=True), Ordinal.zero())]
    if any(parse_ordinal(format_ordinal(t)) != t for t in shown):
        return verdict, checks, "type-format"
    checks += 1
    for q in range(m.state_count):
        if table.per_state[q].degree > cond.height_of[q]:
            return verdict, checks, "height-bound"
    if table.overall.degree > m.state_count:
        return verdict, checks, "degree-bound"
    # x L(q) is a copy of L(q) inside L(m), so no type exceeds the start's.
    if any(table.overall < t for t in table.per_state):
        return verdict, checks, "type-above-start"
    checks += 1
    for members in cond.components:
        first = table.per_state[members[0]]
        if any(table.per_state[q] != first for q in members[1:]):
            return verdict, checks, "component-constancy"
    checks += 1
    failure = _rank_consistency(m, table)
    if failure:
        return verdict, checks, failure
    checks += 1
    return verdict, checks, None


def fuzz(seeds: int, states: int, *, exhaustive: bool = False) -> FuzzReport:
    """Differential sweep: on seeded cases the trim of the raw automaton
    against `_trim_by_closure`, the memoized analysis against a fresh
    pass and against the reachability closure, `check`'s verdict and
    witness against the closure's failing state, as `naive_check` finds
    it, `condense` heights against the closure's count of components
    below, the `to_json` text against `json.dumps` and back
    through `from_json`, witnesses replayed to completion and compared
    with the least shortest words, and on well-ordered cases the
    order-type invariants (types in normal form that, with their
    descending sum, format and parse back, height bound, no type above
    the start's, component constancy, and on every word of at most
    RANK_CHECK_LEN letters rank consistency, with ranks that strictly
    increase in word order).

    Seeded mode generates `seeds` random automata and reports one case
    per seed.  Exhaustive mode walks every trim automaton with at most
    `states` states instead (cases are recorded only for failures).
    A negative seeds, or states below 1, raises ValueError before any
    automaton is examined.
    """
    if seeds < 0:
        raise ValueError(f"seeds must be at least 0, got {seeds}")
    if states < 1:
        raise ValueError(f"states must be at least 1, got {states}")
    cases: list[FuzzCase] = []
    total = wo = nwo = failures = 0
    first_failure = None

    if exhaustive:
        stream = enumerate(exhaustive_trim_dfas(states))
    else:  # raw automata, trimmed below as `random_trim_dfa` trims them
        stream = ((s, _random_raw_dfa(s, states)) for s in range(seeds))

    for key, m in stream:
        raw = report = None
        if not exhaustive:
            raw, report = m, trim(m)
            m = report.trimmed
        verdict, passed, failure = _examine(m, raw, report)
        total += 1
        if verdict == "well-ordered":
            wo += 1
        else:
            nwo += 1
        if failure:
            failures += 1
            if first_failure is None:
                first_failure = key
        if failure or not exhaustive:
            cases.append(FuzzCase(key, m.state_count, verdict, passed, failure))
    return FuzzReport(
        total=total,
        well_ordered=wo,
        not_well_ordered=nwo,
        failures=failures,
        first_failure_key=first_failure,
        cases=tuple(cases),
    )
