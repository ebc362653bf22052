"""Complete deterministic automata over the two-letter alphabet {0, 1}.

States are integers 0..n-1. Words are plain strings of '0'/'1'
characters; the empty string is the empty word.  An automaton is *trim*
when every state is reachable from the start and at most one state has
empty language (the sink).  Most analyses in the package assume trim
input; `trim` produces it and reports what it changed.

The facts the analyses share (which states the start reaches, which
are live, the dead states, strong component ids) come from one
depth-first pass, `analyze`, memoized as `Dfa.analysis`: it runs on
first use, at most once per automaton, and is freed with it.  `trim`
returns a trim input as it is, and otherwise fills the memo of its
output by relabeling the pass it ran on its input, so an automaton
read and trimmed costs one pass in all.
Nothing is kept across automata.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from typing import NamedTuple


class DfaFormatError(ValueError):
    """Malformed automaton description (JSON text or field values)."""


class NotTrimError(Exception):
    """An operation that requires a trim automaton was given a non-trim one."""


_BIT = {"0": 0, "1": 1}
# str.translate table that deletes both letters: what is left is bad.
_DROP_BITS = str.maketrans("", "", "01")


@dataclasses.dataclass(frozen=True, init=False)
class Dfa:
    """Complete DFA over {0,1}: transition table, start state, final states.

    `delta[q]` is the pair (target on 0, target on 1).  A state is an
    int (not a bool) in range(n); ValueError names the first bad value.
    The package's one dataclass, for its memo; other records are
    NamedTuples.
    """

    delta: tuple[tuple[int, int], ...]
    start: int
    finals: frozenset[int]

    def __init__(self, delta, start, finals):
        try:
            rows = tuple(map(tuple, delta))
        except TypeError:
            # Name the first row that is not a sequence, unless delta is
            # an iterator, which the attempt has partly used up.
            for q, row in enumerate(delta if iter(delta) is not delta else ()):
                try:
                    tuple(row)
                except TypeError:
                    raise ValueError(f"state {q} must have exactly two transitions") from None
            raise
        finals = list(finals)
        n = len(rows)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        for q, row in enumerate(rows):
            try:
                a, b = row
            except ValueError:
                raise ValueError(f"state {q} must have exactly two transitions") from None
            if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
                t = next(t for t in row if type(t) is not int or not 0 <= t < n)
                raise ValueError(f"state {q} has a bad transition target {t!r}")
        if type(start) is not int or not 0 <= start < n:
            raise ValueError(f"bad start state {start!r}")
        for q in finals:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"bad final state {q!r}")
        fields = self.__dict__  # past the frozen `__setattr__`
        fields["delta"] = rows
        fields["start"] = start
        fields["finals"] = frozenset(finals)

    @property
    def state_count(self) -> int:
        return len(self.delta)

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

    @classmethod
    def _unchecked(cls, delta, start, finals, analysis) -> Dfa:
        """A Dfa with its analysis, built without the checks of `__init__`.

        Only `trim` calls it, on a non-trim input, with a table of
        in-range int pairs that it built itself as a tuple and finals as
        a frozenset, exactly the fields a checked Dfa holds, so equality
        and hashing agree with a checked twin.
        """
        m = object.__new__(cls)
        m.__dict__.update(delta=delta, start=start, finals=finals, analysis=analysis)
        return m

    @functools.cached_property
    def analysis(self) -> Analysis:
        """The `analyze` pass, run on first access and kept in the
        instance's `__dict__` by `functools.cached_property`, so it lives
        as long as the automaton: at most once per automaton, and never
        again on the output of `trim`, which is either its input or a
        new automaton whose `__dict__` entry `trim` fills.  It is not a
        field: equality and hashing ignore it."""
        return analyze(self)


def _bad_letter(word: str) -> str:
    """Message naming the first letter of word that is not 0 or 1."""
    i, ch = next((i, ch) for i, ch in enumerate(word) if ch not in _BIT)
    return f"letter {ch!r} at position {i} is not 0 or 1"


def validate_word(word: str) -> str:
    """word itself; ValueError at its first letter other than '0' and '1'."""
    if word.translate(_DROP_BITS):
        raise ValueError(_bad_letter(word))
    return word


class Analysis(NamedTuple):
    """What one depth-first pass (`analyze`) learns about an automaton.

    `component_of[q]` is q's strong-component id.  Ids count components
    in the order Tarjan's algorithm emits them, which is reverse
    topological: every transition leaving a component leads to a
    smaller id.  `live[q]` says whether q's language is nonempty.  The
    start reaches exactly the states whose id is below `reached`.
    `dead` lists the states with empty language in ascending order, and
    `unreachable` counts the states the start does not reach.
    """

    component_of: tuple[int, ...]
    live: tuple[bool, ...]
    reached: int
    dead: tuple[int, ...]
    unreachable: int


def analyze(m: Dfa) -> Analysis:
    """Strong components, liveness and reachability of every state, by
    one pass of Tarjan's algorithm (Tarjan 1972, SIAM J. Comput. 1(2)).

    The pass starts at the start state, then at each state not yet
    visited, so every state gets an id and a live flag.  A component is
    emitted only after every component it leads to, so it is live
    exactly when it holds a final state or has an edge into a live
    component emitted before it.  The components emitted from the start
    are the ones it reaches.  Iterative, so deep transition chains
    cannot overflow the Python stack: the walk goes back up through
    `parent`, the state each state was entered from.
    """
    delta, finals = m.delta, m.finals
    n = len(delta)
    index = [0] * n  # visit number, 0 while unvisited
    low = [0] * n
    comp_of = [-1] * n  # -1 while unvisited or still on the stack
    live = [False] * n
    next_edge = [0] * n
    parent = [-1] * n  # the state the walk entered a state from
    stack: list[int] = []
    dead: list[int] = []
    counter = k = 0
    reached = unreachable = -1
    for root in (m.start, *range(n)):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        v = root
        while v >= 0:
            row = delta[v]
            i = next_edge[v]
            while i < 2:
                w = row[i]
                i += 1
                if not index[w]:
                    next_edge[v] = i
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    parent[w] = v
                    v = w
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:  # both edges done: v is finished
                lv = low[v]
                if lv == index[v]:
                    # Emit v's component: v and the states above it on the
                    # stack.  Their own live flags are still False, so
                    # only finals and edges into earlier components count.
                    w = stack.pop()
                    comp_of[w] = k
                    a, b = delta[w]
                    is_live = w in finals or live[a] or live[b]
                    members = [w]
                    while w != v:
                        w = stack.pop()
                        comp_of[w] = k
                        members.append(w)
                        if not is_live:
                            a, b = delta[w]
                            is_live = w in finals or live[a] or live[b]
                    if is_live:
                        for w in members:
                            live[w] = True
                    else:
                        dead += members
                    k += 1
                u = parent[v]  # -1 at the root: the walk is over
                if u >= 0 and lv < low[u]:
                    low[u] = lv
                v = u
        if reached < 0:  # the pass from the start is over
            reached, unreachable = k, n - counter
    dead.sort()
    return Analysis(tuple(comp_of), tuple(live), reached, tuple(dead), unreachable)


def is_trim(m: Dfa) -> bool:
    a = m.analysis
    return not a.unreachable and len(a.dead) <= 1


def ensure_trim(m: Dfa) -> None:
    a = m.analysis
    if a.unreachable:
        raise NotTrimError(f"{a.unreachable} unreachable state(s); run trim first")
    if len(a.dead) > 1:
        raise NotTrimError(f"{len(a.dead)} states have empty language; run trim first")


class TrimReport(NamedTuple):
    """Result of trimming: the new automaton and what changed.

    Unreachable old states are dropped and listed in
    `removed_unreachable`.  `merged_into_sink` holds the dead states
    whose index disappeared by merging; `sink` is the new sink index
    when one exists.
    """

    trimmed: Dfa
    removed_unreachable: frozenset[int]
    merged_into_sink: frozenset[int]
    sink: int | None


def trim(m: Dfa) -> TrimReport:
    """Drop unreachable states and merge all dead states into one sink.

    The language is preserved exactly.  If the whole language is empty
    the result is the one-state sink automaton with start = sink.
    Kept states keep their relative order, so a trim automaton maps to
    itself.

    The result comes with its analysis, relabeled from `m.analysis`
    instead of computed again.  Reached live components keep their
    emission order; every reached dead component takes the sink's id,
    which sits where the first dead component was emitted.  This is
    what a fresh pass on the result finds: it takes the same edges in
    the same order, and it emits the sink the first time it touches a
    dead state, which is when the pass on m emitted that state's whole
    dead subtree, since dead states lead only to dead states.

    A trim m maps to itself, so then the result is m itself, with
    nothing removed or merged.
    """
    a = m.analysis
    if not a.unreachable and len(a.dead) <= 1:  # m is trim
        return TrimReport(
            trimmed=m,
            removed_unreachable=frozenset(),
            merged_into_sink=frozenset(),
            sink=a.dead[0] if a.dead else None,
        )
    ids, live, reached = a.component_of, a.live, a.reached
    dead = [q for q in a.dead if ids[q] < reached]  # ascending
    # New id of each reached component: ids up to the first dead one
    # stay, later dead ones join it, and later live ones close the gaps.
    renum = list(range(reached))
    components = reached
    if dead:
        dead_ids = {ids[q] for q in dead}
        first = k = min(dead_ids)
        for j in range(first + 1, reached):
            if j in dead_ids:
                renum[j] = first
            else:
                k += 1
                renum[j] = k
        components = k + 1
    # Keep the reached live states and the least dead one, the sink, in
    # their order; the other dead states land on the sink.
    sink_rep = dead[0] if dead else -1
    sink = None
    kept, component_of = [], []
    new_of = [-1] * len(ids)
    for q, j in enumerate(ids):
        if j < reached:
            if live[q]:
                new_of[q] = len(kept)
            elif q == sink_rep:
                new_of[q] = sink = len(kept)
            else:
                continue
            kept.append(q)
            component_of.append(renum[j])
    for q in dead[1:]:
        new_of[q] = sink

    # The sink's edges lead to dead states, so they become its own loops.
    delta = m.delta
    new_live = [True] * len(kept)
    if dead:
        new_live[sink] = False
    removed = frozenset()
    if a.unreachable:  # else no id is `reached` or above
        removed = frozenset([q for q, j in enumerate(ids) if j >= reached])
    trimmed = Dfa._unchecked(
        delta=tuple([(new_of[s0], new_of[s1]) for s0, s1 in map(delta.__getitem__, kept)]),
        start=new_of[m.start],
        finals=frozenset([new_of[q] for q in m.finals if ids[q] < reached]),
        analysis=Analysis(
            component_of=tuple(component_of),
            live=tuple(new_live),
            reached=components,
            dead=(sink,) if dead else (),
            unreachable=0,
        ),
    )
    return TrimReport(
        trimmed=trimmed,
        removed_unreachable=removed,
        merged_into_sink=frozenset(dead[1:]),
        sink=sink,
    )


class Condensation(NamedTuple):
    """Strong components of an automaton and their heights.

    Components are numbered by the ids of `m.analysis`: `components[j]`
    lists the states with id j in ascending order, and every transition
    out of a component leads to a smaller id.  `height_of[q]` counts the
    components strictly below q's, over the whole reachability order.
    """

    components: tuple[tuple[int, ...], ...]
    height_of: tuple[int, ...]


def condense(m: Dfa) -> Condensation:
    """Condensation of m, built on the component ids of `m.analysis`.

    Heights come from strictly-below sets kept as bitmasks over the c
    component ids, which takes time quadratic in c on a chain.  A
    component's mask is dropped once the last component with an edge
    into it has read it.  So while id j is built, the masks held are
    those of the smaller ids with an edge from id j or above, each of
    at most c bits, instead of all c of them.  On a chain the only
    large mask held is the one just built.
    """
    delta = m.delta
    ids = m.analysis.component_of
    count = max(ids) + 1
    components: list[list[int]] = [[] for _ in range(count)]
    for q, j in enumerate(ids):
        components[j].append(q)  # ascending, since q ascends

    # last[j] is the largest id with an edge into j: the last reader of
    # j's mask, since ids are read in ascending order.
    last = [0] * count
    for j, comp in enumerate(components):
        for q in comp:
            a, b = delta[q]
            last[ids[a]] = last[ids[b]] = j

    # Transitions out of a component lead to smaller ids, whose masks
    # are done.  The last reader frees a mask; a later edge from the
    # same component reads 0, which its mask already covers.
    below: list[int] = []
    heights: list[int] = []
    for j, comp in enumerate(components):
        mask = 0
        for q in comp:
            for t in delta[q]:
                jt = ids[t]
                if jt != j:
                    mask |= (1 << jt) | below[jt]
                    if last[jt] == j:
                        below[jt] = 0
        heights.append(mask.bit_count())
        below.append(mask if last[j] > j else 0)
    return Condensation(
        components=tuple(map(tuple, components)),
        height_of=tuple(heights[j] for j in ids),
    )


def shortest_word(m: Dfa, src: int, targets: frozenset[int] | set[int]) -> str | None:
    """Shortest word from src into targets; ties prefer the letter 0.

    Breadth-first, so among all shortest words the lexicographically
    least is produced.  Returns the empty word when src is a target.
    Each visited state keeps only the state it was first reached from.
    The letters are read back from `delta`: 0 wherever the 0-edge leads
    to the next state, since 0 is tried first.
    """
    if src in targets:
        return ""
    delta = m.delta
    prev = {src: -1}
    todo = [src]
    for q in todo:  # breadth-first: the loop reaches every appended state
        for t in delta[q]:  # 0 before 1
            if t not in prev:
                prev[t] = q
                if t in targets:
                    letters = []
                    while t != src:
                        p = prev[t]
                        letters.append("0" if delta[p][0] == t else "1")
                        t = p
                    return "".join(reversed(letters))
                todo.append(t)
    return None


# --- JSON serialization ---------------------------------------------------


def from_json(text: str) -> Dfa:
    """Parse the automaton file format.

    The format is a single JSON object {"start": int, "finals": [int...],
    "delta": [[on0, on1], ...]} with len(delta) states.  Unknown keys are
    rejected; `Dfa` checks the state indices.  Text that `json` cannot
    read, an integer beyond Python's int/str digit limit or nesting
    too deep for its parser included, raises DfaFormatError.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DfaFormatError(f"not valid JSON: {e}") from e
    except ValueError as e:  # only reading an integer fails otherwise
        raise DfaFormatError(
            f"not valid JSON: an integer has more than "
            f"{sys.get_int_max_str_digits():,} digits, Python's int/str limit"
        ) from e
    if not isinstance(doc, dict):
        raise DfaFormatError("top level must be a JSON object")
    extra = set(doc) - {"start", "finals", "delta"}
    if extra:
        raise DfaFormatError(f"unknown keys: {sorted(extra)}")
    missing = {"start", "finals", "delta"} - set(doc)
    if missing:
        raise DfaFormatError(f"missing keys: {sorted(missing)}")
    delta, finals = doc["delta"], doc["finals"]
    if not isinstance(delta, list) or not all(isinstance(row, list) for row in delta):
        raise DfaFormatError("delta must be a list of [on0, on1] pairs")
    if not isinstance(finals, list):
        raise DfaFormatError("finals must be a list of state indices")
    try:
        return Dfa(delta=delta, start=doc["start"], finals=finals)
    except ValueError as e:
        raise DfaFormatError(str(e)) from e


def to_json(m: Dfa) -> str:
    """The file format of `from_json`: byte for byte the text of
    `json.dumps(doc, indent=2) + "\n"`, written without the pure-Python
    encoder that `indent` selects."""
    finals = sorted(m.finals)
    if finals:
        finals_text = "[\n    " + ",\n    ".join(map(str, finals)) + "\n  ]"
    else:
        finals_text = "[]"
    rows = ",\n".join([f"    [\n      {a},\n      {b}\n    ]" for a, b in m.delta])
    return (
        f'{{\n  "start": {m.start},\n  "finals": {finals_text},\n'
        f'  "delta": [\n{rows}\n  ]\n}}\n'
    )


def load(path: str) -> Dfa:
    """The automaton in the file at path; DfaFormatError when the file
    is not UTF-8 text or not in the format `from_json` reads."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DfaFormatError(f"not UTF-8 text: {e}") from e
    return from_json(text)


def dump(m: Dfa, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(m))
