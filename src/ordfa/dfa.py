"""Complete deterministic automata over the two-letter alphabet {0, 1}.

States are integers 0..n-1. Words are plain strings of '0'/'1'
characters; the empty string is the empty word.  An automaton is *trim*
when every state is reachable from the start and at most one state has
empty language (the sink).  Most analyses in the package assume trim
input; `trim` produces it and reports what it changed.

The facts the analyses share (strong component ids, which states are
live, how many states the start does not reach) come from one
depth-first pass, `analyze`, memoized as `Dfa.analysis`: it runs on
first use, at most once per automaton, and is freed with it.  `trim`
runs the same walk from the start alone, so the states the start does
not reach cost it nothing.  It returns a trim input as it is, with
that walk as its memo, and otherwise fills the memo of its output by
relabeling the walk, so an automaton read and trimmed costs one pass
from the start in all.
Nothing is kept across automata.
"""

from __future__ import annotations

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


class Dfa:
    """Complete DFA over {0,1}: transition table, start state, final states.

    `delta[q]` is the pair (target on 0, target on 1).  A state is an
    int (not a bool) in range(n); ValueError names the first bad value,
    and is also what a delta or finals that cannot be read raises.

    Immutable, and compared, hashed and shown by its three fields, as
    a frozen dataclass would be: assigning or deleting an attribute
    raises AttributeError, and the `analysis` memo takes no part in
    equality.  A plain class with an instance `__dict__` for that memo,
    not a dataclass: importing `dataclasses` took about a third of the
    command-line tool's start-up.  Every other record is a NamedTuple.
    """

    delta: tuple[tuple[int, int], ...]
    start: int
    finals: frozenset[int]

    def __init__(self, delta, start, finals):
        """Check and store the three fields.

        One pass reads every row as a pair and tests both targets; a
        row of another length stops it at the unpacking.  Only a pass
        that fails looks at the rows again, to name the first bad one
        (`_bad_row`), so a valid table pays for no index and no message.
        """
        try:
            rows = tuple(map(tuple, delta))
        except TypeError:
            raise ValueError(_bad_rows(delta)) from None
        try:
            finals = list(finals)
        except TypeError:
            raise ValueError("finals must be a collection of state indices") from None
        n = len(rows)
        if n == 0:
            raise ValueError("an automaton needs at least one state")
        try:
            for a, b in rows:  # a row of another length raises here
                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
                    raise ValueError
        except ValueError:
            raise ValueError(_bad_row(rows)) from None
        if type(start) is not int or not 0 <= start < n:
            raise ValueError(f"bad start state {start!r}")
        for q in finals:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"bad final state {q!r}")
        fields = self.__dict__  # past the raising `__setattr__`
        fields["delta"] = rows
        fields["start"] = start
        fields["finals"] = frozenset(finals)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.delta, self.start, self.finals) == (other.delta, other.start, other.finals)

    def __hash__(self):
        return hash((self.delta, self.start, self.finals))

    def __repr__(self):
        return f"Dfa(delta={self.delta!r}, start={self.start!r}, finals={self.finals!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Dfa is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Dfa is immutable")

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
        """A Dfa built without the checks of `__init__`, with its
        analysis, or with the memo left to `analysis` when that is None.

        `trim` calls it with the analysis it relabeled, and
        `oracle.exhaustive_trim_dfas` and the combinators of `synth`
        with None.  Each passes a table of in-range int pairs that it
        built itself as a tuple of tuples, copied or offset from rows
        of valid automata, an in-range int start and finals as a
        frozenset: exactly the fields a checked Dfa holds, so equality
        and hashing agree with a checked twin.  The fields
        and the memo are set in the instance `__dict__` one by one,
        which was cheaper than one `update` call with keywords.
        """
        m = object.__new__(cls)
        fields = m.__dict__
        fields["delta"] = delta
        fields["start"] = start
        fields["finals"] = finals
        if analysis is not None:
            fields["analysis"] = analysis
        return m

    @functools.cached_property
    def analysis(self) -> Analysis:
        """The `analyze` pass, run on first access and kept in the
        instance's `__dict__` by `functools.cached_property`, so it lives
        as long as the automaton: at most once per automaton, and never
        on the output of `trim`, whose `__dict__` entry `trim` fills,
        whether the output is a new automaton or its trim input.  It is
        not a field: equality and hashing ignore it."""
        return analyze(self)


def _bad_rows(delta) -> str:
    """Message for a delta that is not a sequence of rows: it names the
    first row that is not a sequence, unless delta is an iterator,
    which the failed read has partly used up, or is not iterable."""
    try:
        if iter(delta) is not delta:
            for q, row in enumerate(delta):
                try:
                    tuple(row)
                except TypeError:
                    return f"state {q} must have exactly two transitions"
    except TypeError:
        pass
    return "delta must be a sequence of [on0, on1] pairs"


def _bad_row(rows: tuple[tuple, ...]) -> str:
    """Message naming the first row of rows that is not a pair of
    states: its length, or else its first bad target."""
    n = len(rows)
    for q, row in enumerate(rows):
        if len(row) != 2:
            return f"state {q} must have exactly two transitions"
        for t in row:
            if type(t) is not int or not 0 <= t < n:
                return f"state {q} has a bad transition target {t!r}"
    raise RuntimeError("no bad row to name")


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
    smaller id.  The components the start reaches are emitted first,
    so each state it reaches has a smaller id than each state it does
    not.  `live[q]` says whether q's language is nonempty; the dead
    states are the others.  `unreachable` counts the states the start
    does not reach.
    """

    component_of: tuple[int, ...]
    live: tuple[bool, ...]
    unreachable: int


def analyze(m: Dfa) -> Analysis:
    """Strong components, liveness and reachability of every state, by
    one pass of Tarjan's algorithm (Tarjan 1972, SIAM J. Comput. 1(2)).

    The pass, `_tarjan`'s walk, starts at the start state, then at each
    state not yet visited, in ascending order, so every state gets an id
    and a live flag.  The components emitted from the start are the
    ones it reaches.  `trim` runs the same walk from the start alone.
    """
    ids, live, _, _, unreachable = _tarjan(m, True)
    return Analysis(tuple(ids), tuple(live), unreachable)


def _tarjan(m: Dfa, every: bool) -> tuple[list[int], list[bool], int, list[int], int]:
    """Tarjan's walk from the start and then, when every is true, from
    each state not yet visited, in ascending order: (ids, live, reached,
    dead, unreachable) for the states visited.  `analyze` keeps the ids,
    the live flags and `unreachable`; only `trim` reads `reached`, the
    number of components the walk from the start emits, and `dead`, the
    dead states in emission order.

    Component ids count emitted components, and a component is emitted
    only after every component it leads to, so it is live exactly when
    it holds a final state or has an edge into a live component emitted
    before it.  `reached` and `unreachable` are read when the walk from
    the start is over.  A state the walk does not visit keeps id n, above
    every emitted id, and its live flag stays False.  The roots are a
    flag, not a list: building an iterable of them cost `analyze` about
    13% on automata of at most 4 states.

    Iterative, so deep transition chains cannot overflow the Python
    stack: the state being walked, its low value and its next edge are
    locals, and a path stack holds the three for each ancestor.  As in
    Nuutila and Soisalon-Soininen ("On finding the strongly connected
    components in a directed graph", IPL 49(1), 1994), a finished state
    goes on the component stack only when it is not its component's
    root, so a one-state component, most of them, is emitted without a
    list of members.  An emitted state's visit number becomes n + 1,
    above any low value, so a visited state is still unemitted exactly
    when its number is below the low value it is compared with.
    """
    delta, finals = m.delta, m.finals
    n = len(delta)
    done = n + 1
    index = [0] * n  # visit number: 0 while unvisited, `done` once emitted
    comp_of = [n] * n
    live = [False] * n
    path: list[tuple[int, int, int]] = []  # (state, low, next edge) per ancestor
    stack: list[int] = []  # finished non-roots not yet emitted
    dead: list[int] = []
    counter = k = cursor = 0
    reached = unreachable = -1
    v = m.start
    while True:
        counter += 1
        index[v] = low = counter
        row = delta[v]
        i = 0
        while True:
            while i < 2:
                w = row[i]
                i += 1
                x = index[w]
                if not x:
                    path.append((v, low, i))
                    counter += 1
                    index[w] = low = counter
                    v, row, i = w, delta[w], 0
                elif x < low:
                    low = x
            # Both edges done: v is finished.
            if low == index[v]:
                # Emit v's component: v and the states on the stack
                # visited after it.  Their own live flags are still False,
                # so only finals and edges into earlier components count.
                if not stack or index[stack[-1]] < low:  # v alone
                    comp_of[v] = k
                    index[v] = done
                    a, b = row
                    if v in finals or live[a] or live[b]:
                        live[v] = True
                    else:
                        dead.append(v)
                else:
                    members = [v]
                    while stack and index[stack[-1]] > low:
                        members.append(stack.pop())
                    is_live = False
                    for w in members:
                        comp_of[w] = k
                        index[w] = done
                        if not is_live:
                            a, b = delta[w]
                            is_live = w in finals or live[a] or live[b]
                    if is_live:
                        for w in members:
                            live[w] = True
                    else:
                        dead += members
                k += 1
            else:  # v's component has an older root
                stack.append(v)
            if not path:  # v is the root: the walk is over
                break
            lv = low
            v, low, i = path.pop()
            if lv < low:
                low = lv
            row = delta[v]
        if reached < 0:  # the walk from the start is over
            reached, unreachable = k, n - counter
        if counter == n or not every:
            break
        while index[cursor]:
            cursor += 1
        v = cursor
    return comp_of, live, reached, dead, unreachable


def ensure_trim(m: Dfa) -> None:
    """NotTrimError unless `m.analysis` says m is trim, counting the
    unreachable states or, when there are none, the dead states."""
    a = m.analysis
    if a.unreachable:
        raise NotTrimError(f"{a.unreachable} unreachable state(s); run trim first")
    dead = a.live.count(False)
    if dead > 1:
        raise NotTrimError(f"{dead} states have empty language; run trim first")


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

    `trim` runs `_tarjan`'s walk from the start alone, so it never
    visits a state the start does not reach.  m is trim exactly when
    the walk covers every state and finds at most one dead state, and
    then the walk is m's whole analysis: `trim` fills m's memo with it,
    unless the memo is already filled, and returns m itself, with
    nothing removed or merged.

    Otherwise the result comes with its analysis, relabeled from the
    walk instead of computed again.  Reached live components keep their
    emission order; every reached dead component takes the sink's id,
    which sits where the first dead component was emitted.  This is
    what a fresh pass on the result finds: it takes the same edges in
    the same order, and it emits the sink the first time it touches a
    dead state, which is when the walk on m emitted that state's whole
    dead subtree, since dead states lead only to dead states.

    One loop puts each state of m in one of four groups: removed
    (unreachable), kept (reached and live), the sink (the least
    reached dead state) or merged into the sink, gives each kept or
    merged state its new index, and collects the ids of the kept
    states and the sink.  The ids are those of the walk, Tarjan's with
    the refinements of Nuutila and Soisalon-Soininen, which number
    components by emission just as Tarjan's does.  They are renumbered
    in place only when a dead state was merged: otherwise every
    reached component keeps a state, and no id disappears.  Plain
    loops then fill the new rows and finals; no comprehension builds
    them.
    """
    ids, live, reached, dead, unreachable = _tarjan(m, False)
    if not unreachable and len(dead) <= 1:  # m is trim
        # The walk covered every state: it is the analysis.
        m.__dict__.setdefault("analysis", Analysis(tuple(ids), tuple(live), 0))
        return TrimReport(m, frozenset(), frozenset(), dead[0] if dead else None)
    removed, kept, merged, component_of = [], [], [], []
    new_of = [-1] * len(ids)
    sink = None
    for q, j in enumerate(ids):
        if j >= reached:
            removed.append(q)
        elif live[q]:
            new_of[q] = len(kept)
            kept.append(q)
            component_of.append(j)
        elif sink is None:
            new_of[q] = sink = len(kept)
            kept.append(q)
            component_of.append(j)
        else:
            new_of[q] = sink
            merged.append(q)
    if merged:
        # Merging empties the components of the merged states, unless
        # they share the sink's.  Ids up to the first dead one stay,
        # later dead ones join it, and later live ones close the gaps.
        renum = list(range(reached))
        for q in dead:
            renum[ids[q]] = -1
        first = k = ids[dead[0]]  # `dead` is in emission order
        for j in range(first, reached):
            if renum[j] < 0:
                renum[j] = first
            else:
                k += 1
                renum[j] = k
        for i, j in enumerate(component_of):
            component_of[i] = renum[j]
    # The sink's edges lead to dead states, so they become its own loops.
    delta = m.delta
    rows = []
    for q in kept:
        a, b = delta[q]
        rows.append((new_of[a], new_of[b]))
    finals = []
    for q in m.finals:
        if ids[q] < reached:
            finals.append(new_of[q])
    new_live = [True] * len(kept)
    if sink is not None:
        new_live[sink] = False
    trimmed = Dfa._unchecked(
        tuple(rows),
        new_of[m.start],
        frozenset(finals),
        Analysis(tuple(component_of), tuple(new_live), 0),
    )
    return TrimReport(trimmed, frozenset(removed), frozenset(merged), sink)


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

    Heights come from bitmasks over the c component ids: `upto[j]` holds
    id j and every id below it, and a component's strictly-below mask is
    the union of its exits' masks.  That takes time quadratic in c on a
    chain, but a union costs a big-int operation only when it is new:
    `u & mask` costs the smaller mask's size and tells whether u adds
    nothing, holds the whole mask (then u itself is taken, with its
    height known), or neither (then the two are ORed and counted).  So
    on a chain each id costs one big-int operation, the `mask | 1 << j`
    that makes its own `upto`.

    A component's mask is dropped once the last component with an edge
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
    # same component reads 0, which adds nothing.  The first exit finds
    # mask 0 and so takes its u whole.
    upto: list[int] = []
    heights: list[int] = []
    for j, comp in enumerate(components):
        mask = h = 0
        for q in comp:
            for t in delta[q]:
                jt = ids[t]
                if jt == j:
                    continue
                u = upto[jt]
                if last[jt] == j:
                    upto[jt] = 0
                common = u & mask
                if common == u:  # u adds nothing
                    continue
                if common == mask:  # u holds mask
                    mask = u
                    h = heights[jt] + 1
                else:
                    mask |= u
                    h = mask.bit_count()
        heights.append(h)
        upto.append(mask | 1 << j if last[j] > j else 0)
    return Condensation(
        components=tuple(map(tuple, components)),
        height_of=tuple(heights[j] for j in ids),
    )


def shortest_word(m: Dfa, src: int, targets: frozenset[int] | set[int]) -> str | None:
    """Shortest word from src into targets; ties prefer the letter 0.

    Breadth-first, so among all shortest words the lexicographically
    least is produced.  Returns the empty word when src is a target,
    and a one-letter word, the 0-edge's first, before any queue or map
    is built.  Each visited state keeps only the state it was first
    reached from.  The letters are read back from `delta`: 0 wherever
    the 0-edge leads to the next state, since 0 is tried first.
    """
    if src in targets:
        return ""
    delta = m.delta
    a, b = delta[src]
    if a in targets:
        return "0"
    if b in targets:
        return "1"
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
