"""Complete deterministic automata over the two-letter alphabet {0, 1}.

States are integers 0..n-1. Words are plain strings of '0'/'1'
characters; the empty string is the empty word.  An automaton is *trim*
when every state is reachable from the start and at most one state has
empty language (the sink).  Most analyses in the package assume trim
input; `trim` produces it and reports what it changed.
"""

from __future__ import annotations

import dataclasses
import json
from functools import lru_cache


class DfaFormatError(ValueError):
    """Malformed automaton description (JSON text or field values)."""


class NotTrimError(Exception):
    """An operation that requires a trim automaton was given a non-trim one."""


class MultipleSinksError(NotTrimError):
    """More than one state has empty language."""


class NotSimpleCycleError(Exception):
    """A strong component expected to be a simple cycle is not one."""


_BIT = {"0": 0, "1": 1}

# Entries kept by each per-automaton cache below.  Hits come from
# repeated questions about the automaton in hand (check then
# order_type, rank without a table, successive successor calls), so a
# short memory keeps them; a long one only gives every full garbage
# collection hundreds of thousands of retained objects to traverse.
_CACHE_SIZE = 256


@dataclasses.dataclass(frozen=True)
class Dfa:
    """Complete DFA over {0,1}: transition table, start state, final states.

    `delta[q]` is the pair (target on 0, target on 1).
    """

    delta: tuple[tuple[int, int], ...]
    start: int
    finals: frozenset[int]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.delta)
        object.__setattr__(self, "delta", rows)
        object.__setattr__(self, "finals", frozenset(self.finals))
        n = len(rows)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        for q, row in enumerate(rows):
            if len(row) != 2:
                raise ValueError(f"state {q} must have exactly two transitions")
            for t in row:
                if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t < n:
                    raise ValueError(f"state {q} has a bad transition target {t!r}")
        if not isinstance(self.start, int) or not 0 <= self.start < n:
            raise ValueError(f"bad start state {self.start!r}")
        for q in self.finals:
            if not isinstance(q, int) or isinstance(q, bool) or not 0 <= q < n:
                raise ValueError(f"bad final state {q!r}")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def step(self, q: int, letter: str) -> int:
        """State reached from q by reading one letter; ValueError unless
        the letter is '0' or '1'."""
        try:
            return self.delta[q][_BIT[letter]]
        except KeyError:
            raise ValueError(f"letter {letter!r} is not 0 or 1") from None

    def run(self, q: int, word: str) -> int:
        """State reached from q by reading word; ValueError, as from
        `validate_word`, on a letter other than '0' and '1'."""
        delta = self.delta
        try:
            for ch in word:
                q = delta[q][_BIT[ch]]
        except KeyError:
            raise ValueError(_bad_letter(word)) from None
        return q

    def accepts(self, word: str) -> bool:
        return self.run(self.start, word) in self.finals


def _bad_letter(word: str) -> str:
    """Message naming the first letter of word that is not 0 or 1."""
    i, ch = next((i, ch) for i, ch in enumerate(word) if ch not in _BIT)
    return f"letter {ch!r} at position {i} is not 0 or 1"


def validate_word(word: str) -> str:
    """word itself; ValueError at its first letter other than '0' and '1'."""
    for ch in word:
        if ch not in _BIT:
            raise ValueError(_bad_letter(word))
    return word


@lru_cache(maxsize=_CACHE_SIZE)
def reachable_states(m: Dfa) -> frozenset[int]:
    """States reachable from the start state."""
    seen = {m.start}
    todo = [m.start]
    for q in todo:  # breadth-first: the loop reaches every appended state
        for t in m.delta[q]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return frozenset(seen)


@lru_cache(maxsize=_CACHE_SIZE)
def live_states(m: Dfa) -> frozenset[int]:
    """States with nonempty language, i.e. that can reach a final state."""
    rev: list[list[int]] = [[] for _ in range(m.state_count)]
    for q, row in enumerate(m.delta):
        for t in row:
            rev[t].append(q)
    seen = set(m.finals)
    todo = list(seen)
    for q in todo:
        for p in rev[q]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return frozenset(seen)


def is_trim(m: Dfa) -> bool:
    return len(reachable_states(m)) == m.state_count and (
        m.state_count - len(live_states(m)) <= 1
    )


def ensure_trim(m: Dfa) -> None:
    unreachable = m.state_count - len(reachable_states(m))
    if unreachable:
        raise NotTrimError(f"{unreachable} unreachable state(s); run trim first")
    dead = m.state_count - len(live_states(m))
    if dead > 1:
        raise NotTrimError(f"{dead} states have empty language; run trim first")


def sink_of(m: Dfa) -> int | None:
    """The unique empty-language state, or None when every state is live.

    Diagnoses a non-trim automaton instead of silently picking one of
    several dead states.
    """
    live = live_states(m)
    dead = [q for q in range(m.state_count) if q not in live]
    if len(dead) > 1:
        raise MultipleSinksError(f"states {dead} all have empty language")
    return dead[0] if dead else None


@dataclasses.dataclass(frozen=True)
class TrimReport:
    """Result of trimming: the new automaton plus the renumbering map.

    `state_map` sends every reachable old state to its new index (dead
    states land on the sink).  Unreachable old states are dropped and
    listed in `removed_unreachable`.  `merged_into_sink` holds the dead
    states whose index disappeared by merging; `sink` is the new sink
    index when one exists.
    """

    trimmed: Dfa
    state_map: dict[int, int]
    removed_unreachable: frozenset[int]
    merged_into_sink: frozenset[int]
    sink: int | None


def trim(m: Dfa) -> TrimReport:
    """Drop unreachable states and merge all dead states into one sink.

    The language is preserved exactly.  If the whole language is empty
    the result is the one-state sink automaton with start = sink.
    Kept states keep their relative order, so a trim automaton maps to
    itself.
    """
    reach = reachable_states(m)
    live = live_states(m) & reach
    dead = reach - live
    removed = frozenset(range(m.state_count)) - reach

    if m.start not in live:
        trimmed = Dfa(delta=((0, 0),), start=0, finals=frozenset())
        return TrimReport(
            trimmed=trimmed,
            state_map={q: 0 for q in reach},
            removed_unreachable=removed,
            merged_into_sink=frozenset(dead - {min(dead)}),
            sink=0,
        )

    sink_rep = min(dead) if dead else None
    kept = sorted(live | {sink_rep}) if dead else sorted(live)
    new_index = {old: i for i, old in enumerate(kept)}
    sink_new = new_index[sink_rep] if dead else None

    def target(t: int) -> int:
        return sink_new if t in dead else new_index[t]

    rows = []
    for old in kept:
        if old == sink_rep:
            rows.append((sink_new, sink_new))
        else:
            rows.append((target(m.delta[old][0]), target(m.delta[old][1])))
    trimmed = Dfa(
        delta=tuple(rows),
        start=new_index[m.start],
        finals=frozenset(new_index[q] for q in m.finals & live),
    )
    state_map = {q: (sink_new if q in dead else new_index[q]) for q in reach}
    return TrimReport(
        trimmed=trimmed,
        state_map=state_map,
        removed_unreachable=removed,
        merged_into_sink=frozenset(dead - {sink_rep}) if dead else frozenset(),
        sink=sink_new,
    )


@dataclasses.dataclass(frozen=True)
class Condensation:
    """Strong components of an automaton with a deterministic numbering.

    Components are numbered by (height, smallest member): component 0 is
    a lowest one, and every transition out of a component leads to a
    component with a smaller number.  `height_of[q]` counts the
    components strictly below q's, over the whole reachability order.
    """

    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    dag_edges: frozenset[tuple[int, int]]
    nontrivial: tuple[bool, ...]
    height_of: tuple[int, ...]

    def height(self, q: int) -> int:
        return self.height_of[q]


def component_ids(m: Dfa) -> list[int]:
    """Strong-component id of every state, by one pass of Tarjan's
    algorithm (Tarjan 1972, SIAM J. Comput. 1(2)).

    Two states share an id exactly when they lie in the same strong
    component.  Ids count components in emission order, which is
    reverse topological: every transition leaving a component leads to
    a smaller id.  Uncached; `condense` adds the height-ordered
    numbering.  Iterative so deep transition chains cannot overflow the
    Python stack.
    """
    delta = m.delta
    n = len(delta)
    index = [0] * n  # visit number, 0 while unvisited
    low = [0] * n
    comp_of = [-1] * n  # -1 while unvisited or still on the stack
    next_edge = [0] * n
    stack: list[int] = []
    counter = 0
    k = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            i = next_edge[v]
            if i < 2:
                next_edge[v] = i + 1
                w = delta[v][i]
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append(w)
                elif comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp_of[w] = k
                    if w == v:
                        break
                k += 1
            if work:
                u = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comp_of


@lru_cache(maxsize=_CACHE_SIZE)
def condense(m: Dfa) -> Condensation:
    delta = m.delta
    emit_of = component_ids(m)
    k = max(emit_of) + 1
    emitted: list[list[int]] = [[] for _ in range(k)]
    for q, j in enumerate(emit_of):
        emitted[j].append(q)

    # Strictly-below sets as bitmasks over emission indices.  Reverse
    # topological emission order makes successors available early.
    below = [0] * k
    for j, comp in enumerate(emitted):
        mask = 0
        for q in comp:
            for t in delta[q]:
                jt = emit_of[t]
                if jt != j:
                    mask |= (1 << jt) | below[jt]
        below[j] = mask
    heights = [b.bit_count() for b in below]

    order = sorted(range(k), key=lambda j: (heights[j], min(emitted[j])))
    cid_of_emit = {j: cid for cid, j in enumerate(order)}

    component_of = tuple(cid_of_emit[emit_of[q]] for q in range(m.state_count))
    components = tuple(tuple(sorted(emitted[j])) for j in order)
    nontrivial = tuple(
        any(delta[q][b] in set(comp) for q in comp for b in (0, 1))
        for comp in components
    )
    height_of = tuple(heights[emit_of[q]] for q in range(m.state_count))
    dag_edges = frozenset(
        (component_of[q], component_of[t])
        for q in range(m.state_count)
        for t in delta[q]
        if component_of[q] != component_of[t]
    )
    return Condensation(
        component_of=component_of,
        components=components,
        dag_edges=dag_edges,
        nontrivial=nontrivial,
        height_of=height_of,
    )


def is_recursive(m: Dfa, q: int) -> bool:
    """True when q lies on a cycle and is not the sink."""
    if q == sink_of(m):
        return False
    c = condense(m)
    return c.nontrivial[c.component_of[q]]


def loop_word(m: Dfa, q: int) -> str:
    """Shortest nonempty word sending recursive q back to itself.

    Requires q's strong component to be a simple cycle: every state in
    it must have exactly one in-component outgoing edge.  That holds for
    every automaton that passes the well-order check.
    """
    c = condense(m)
    cid = c.component_of[q]
    if not c.nontrivial[cid]:
        raise ValueError(f"state {q} is not recursive")
    members = set(c.components[cid])
    for s in members:
        inside = [b for b in (0, 1) if m.delta[s][b] in members]
        if len(inside) != 1:
            raise NotSimpleCycleError(
                f"state {s} has {len(inside)} in-component edges; "
                "its component is not a simple cycle"
            )
    letters = []
    s = q
    for _ in range(len(members)):
        b = 0 if m.delta[s][0] in members else 1
        letters.append("01"[b])
        s = m.delta[s][b]
        if s == q:
            break
    if s != q:
        raise NotSimpleCycleError(f"walk from state {q} did not close into a cycle")
    return "".join(letters)


def shortest_word(m: Dfa, src: int, targets: frozenset[int] | set[int]) -> str | None:
    """Shortest word from src into targets; ties prefer the letter 0.

    Breadth-first, so among all shortest words the lexicographically
    least is produced.  Returns the empty word when src is a target.
    """
    if src in targets:
        return ""
    delta = m.delta
    prev: dict[int, tuple[int, str]] = {src: (-1, "")}
    todo = [src]
    for q in todo:  # breadth-first: the loop reaches every appended state
        for b in (0, 1):
            t = delta[q][b]
            if t not in prev:
                prev[t] = (q, "01"[b])
                if t in targets:
                    letters = []
                    s = t
                    while s != src:
                        p, ch = prev[s]
                        letters.append(ch)
                        s = p
                    return "".join(reversed(letters))
                todo.append(t)
    return None


# --- JSON serialization ---------------------------------------------------


def _require_state(value, n: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < n:
        raise DfaFormatError(f"{what} must be a state index in [0, {n}), got {value!r}")
    return value


def from_json(text: str) -> Dfa:
    """Parse the automaton file format.

    The format is a single JSON object {"start": int, "finals": [int...],
    "delta": [[on0, on1], ...]} with len(delta) states.  Unknown keys are
    rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DfaFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DfaFormatError("top level must be a JSON object")
    extra = set(doc) - {"start", "finals", "delta"}
    if extra:
        raise DfaFormatError(f"unknown keys: {sorted(extra)}")
    missing = {"start", "finals", "delta"} - set(doc)
    if missing:
        raise DfaFormatError(f"missing keys: {sorted(missing)}")
    delta = doc["delta"]
    if not isinstance(delta, list) or not delta:
        raise DfaFormatError("delta must be a nonempty list of [on0, on1] pairs")
    n = len(delta)
    rows = []
    for q, row in enumerate(delta):
        if not isinstance(row, list) or len(row) != 2:
            raise DfaFormatError(f"delta[{q}] must be a pair [on0, on1]")
        rows.append(
            (
                _require_state(row[0], n, f"delta[{q}][0]"),
                _require_state(row[1], n, f"delta[{q}][1]"),
            )
        )
    finals = doc["finals"]
    if not isinstance(finals, list):
        raise DfaFormatError("finals must be a list of state indices")
    return Dfa(
        delta=tuple(rows),
        start=_require_state(doc["start"], n, "start"),
        finals=frozenset(_require_state(f, n, "finals entry") for f in finals),
    )


def to_json(m: Dfa) -> str:
    doc = {
        "start": m.start,
        "finals": sorted(m.finals),
        "delta": [list(row) for row in m.delta],
    }
    return json.dumps(doc, indent=2) + "\n"


def load(path: str) -> Dfa:
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def dump(m: Dfa, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(m))
