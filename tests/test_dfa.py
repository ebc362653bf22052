import itertools
import json
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings

from machines import (
    FIXTURES,
    M_0STAR1,
    M_CYCLE2,
    M_EPS,
    M_ONESTAR,
    all_tiny_automata,
    all_words,
    dead_states,
    is_trim,
    raw_dfas,
    reached_from,
    trim_dfas,
)
from ordfa import dfa, lexorder, oracle, ordtype, wellorder
from ordfa.dfa import (
    Dfa,
    DfaFormatError,
    analyze,
    condense,
    from_json,
    shortest_word,
    to_json,
    trim,
)
from ordfa.ordinal import parse_ordinal
from ordfa.synth import synth

###############################################################################
# run / accepts
###############################################################################


def test_run_examples():
    assert M_ONESTAR.run(0, "11") == 0
    assert M_ONESTAR.run(0, "10") == 1
    assert M_CYCLE2.run(0, "0100") == 2


def test_accepts_examples():
    assert M_ONESTAR.accepts("")
    assert M_ONESTAR.accepts("111")
    assert not M_ONESTAR.accepts("101")
    assert M_CYCLE2.accepts("00")
    assert M_CYCLE2.accepts("0100")
    assert not M_CYCLE2.accepts("01")
    assert M_EPS.accepts("")
    assert not M_EPS.accepts("0")


def test_run_rejects_bad_letter():
    with pytest.raises(ValueError, match="letter 'x' at position 2 is not 0 or 1"):
        M_ONESTAR.run(0, "10x")
    with pytest.raises(ValueError, match="letter '2' at position 0"):
        M_ONESTAR.accepts("2")


@pytest.mark.parametrize(
    "word, message",
    [
        ("0" * 100_000 + "2", "letter '2' at position 100000 is not 0 or 1"),
        ("1" * 50_000 + "0" * 50_000 + "x1", "letter 'x' at position 100000 is not 0 or 1"),
        ("01\u00b2", "letter '\u00b2' at position 2 is not 0 or 1"),
        ("\u0661", "letter '\u0661' at position 0 is not 0 or 1"),
        ("1\x000", "letter '\\x00' at position 1 is not 0 or 1"),
        ("10\udc80", "letter '\\udc80' at position 2 is not 0 or 1"),
    ],
)
def test_validate_word_names_the_first_bad_letter(word, message):
    with pytest.raises(ValueError) as info:
        dfa.validate_word(word)
    assert str(info.value) == message


def test_validate_word_returns_good_words():
    for word in ("", "0", "1", "0110" * 25_000):
        assert dfa.validate_word(word) is word


def test_validation():
    with pytest.raises(ValueError):
        Dfa(delta=(), start=0, finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(delta=((0, 5),), start=0, finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(delta=((0, 0),), start=3, finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(delta=((0, 0),), start=0, finals=frozenset({9}))


def _bad_target_cases():
    for t in (True, 1.0, float("nan"), None, -1, 2):
        yield ((0, 0), (0, t)), 0, (), f"state 1 has a bad transition target {t!r}"
        yield ((t, 0), (0, 0)), 0, (), f"state 0 has a bad transition target {t!r}"


@pytest.mark.parametrize(
    "delta, start, finals, message",
    [
        (((0,),), 0, (), "state 0 must have exactly two transitions"),
        (((0, 0), (0, 0, 0)), 0, (), "state 1 must have exactly two transitions"),
        *_bad_target_cases(),
        (((0, 0), (0, 0)), 2, (), "bad start state 2"),
        (((0, 0), (0, 0)), True, (), "bad start state True"),
        (((0, 0), (0, 0)), 0, (1, 2), "bad final state 2"),
        (((0, 0), (0, 0)), 0, [False], "bad final state False"),
        (((0, 0), 5), 0, (), "state 1 must have exactly two transitions"),
        ((None, (0, 0)), 0, (), "state 0 must have exactly two transitions"),
        # Bad in two rows, in different ways: the first bad row is named.
        (((0, 5), (0,)), 0, (), "state 0 has a bad transition target 5"),
        (((0,), (0, 9)), 0, (), "state 0 must have exactly two transitions"),
        (((0, 0), (True, 7)), 0, (), "state 1 has a bad transition target True"),
    ],
)
def test_dfa_names_the_first_bad_value(delta, start, finals, message):
    with pytest.raises(ValueError) as info:
        Dfa(delta=delta, start=start, finals=finals)
    assert str(info.value) == message


def test_dfa_names_no_state_of_an_iterator_it_has_partly_read():
    # Reading on from the bad row would call the None row state 0.
    with pytest.raises(ValueError) as info:
        Dfa(iter([(0, 0), 5, None]), 0, ())
    assert str(info.value) == "delta must be a sequence of [on0, on1] pairs"


@pytest.mark.parametrize(
    "delta, start, finals, message",
    [
        (5, 0, [], "delta must be a sequence of [on0, on1] pairs"),
        (iter([(0, 0), 5]), 0, [], "delta must be a sequence of [on0, on1] pairs"),
        ([(0, 0)], 0, 5, "finals must be a collection of state indices"),
    ],
)
def test_dfa_raises_value_error_for_a_delta_or_finals_it_cannot_read(
    delta, start, finals, message
):
    with pytest.raises(ValueError) as info:
        Dfa(delta, start, finals)
    assert str(info.value) == message
    # Raised from None: no second copy of the TypeError behind it.
    assert info.value.__cause__ is None and info.value.__suppress_context__


###############################################################################
# the Dfa record
###############################################################################


@pytest.mark.parametrize("name", ["delta", "start", "finals", "analysis", "extra"])
def test_dfa_attributes_cannot_be_assigned_or_deleted(name):
    m = Dfa(delta=M_CYCLE2.delta, start=M_CYCLE2.start, finals=M_CYCLE2.finals)
    m.analysis  # the memo is filled, and it is as fixed as the fields
    before = dict(vars(m))
    with pytest.raises(AttributeError):
        setattr(m, name, None)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert vars(m) == before


def test_dfa_equality_and_hash_read_every_field():
    # Every start and every set of finals on two tables: 48 automata,
    # no two equal, and no two hashed alike.  The exhaustive family
    # holds each table with many sets of finals.
    ms = [
        Dfa(delta=delta, start=start, finals=[q for q in range(3) if fmask >> q & 1])
        for delta in (((1, 2), (2, 2), (2, 2)), ((1, 2), (2, 2), (2, 1)))
        for start in range(3)
        for fmask in range(8)
    ]
    for i, m in enumerate(ms):
        assert [m == other for other in ms] == [j == i for j in range(len(ms))]
    assert len({hash(m) for m in ms}) == len(ms)


def test_dfa_is_not_equal_to_the_tuple_of_its_fields():
    fields = (M_CYCLE2.delta, M_CYCLE2.start, M_CYCLE2.finals)
    assert M_CYCLE2.__eq__(fields) is NotImplemented
    assert M_CYCLE2 != fields and fields != M_CYCLE2


###############################################################################
# trim
###############################################################################


def test_trim_identity_on_trim_automaton():
    for m in FIXTURES:
        report = trim(m)
        assert report.trimmed == m
        assert report.removed_unreachable == frozenset()
        assert report.merged_into_sink == frozenset()
        assert dead_states(m) == (() if report.sink is None else (report.sink,))


def test_trim_of_a_trim_automaton_is_the_automaton_itself():
    for m in FIXTURES:
        a = m.analysis
        out = trim(m).trimmed
        assert out is m
        assert m.analysis is a and a == analyze(m)


def test_trim_merges_two_dead_states():
    # states: 0 start final, 1 and 2 dead in different ways
    m = Dfa(delta=((1, 2), (1, 2), (2, 1)), start=0, finals=frozenset({0}))
    report = trim(m)
    t = report.trimmed
    assert t.state_count == 2
    assert dead_states(t) == (report.sink,) == (1,)
    assert t.delta == ((1, 1), (1, 1))  # both dead states became the sink
    assert report.merged_into_sink == frozenset({2})
    assert report.removed_unreachable == frozenset()
    assert is_trim(t)


def test_trim_keeps_the_least_dead_state_as_the_sink():
    # Dead states 1 and 3 around the live state 2: which one stays
    # decides the sink's index.  At most 3 states cannot show this.
    m = Dfa(delta=((1, 2), (1, 1), (3, 2), (3, 3)), start=0, finals=frozenset({2}))
    report = trim(m)
    assert report.trimmed.delta == ((1, 2), (1, 1), (1, 2))
    assert (report.sink, report.merged_into_sink) == (1, frozenset({3}))


def test_trim_removes_unreachable():
    # state 2 unreachable, state 3 dead
    m = Dfa(
        delta=((1, 3), (0, 1), (2, 0), (3, 3)),
        start=0,
        finals=frozenset({1}),
    )
    report = trim(m)
    assert report.removed_unreachable == frozenset({2})
    # States 0, 1 and the dead 3 keep their order; 3 is the sink.
    assert report.trimmed.delta == ((1, 2), (0, 1), (2, 2))
    assert (report.sink, report.merged_into_sink) == (2, frozenset())
    for w in all_words(8):
        assert m.accepts(w) == report.trimmed.accepts(w)


def test_trim_empty_language():
    m = Dfa(delta=((1, 1), (0, 0)), start=0, finals=frozenset())
    report = trim(m)
    assert report.trimmed == Dfa(delta=((0, 0),), start=0, finals=frozenset())
    assert report.sink == 0
    assert report.trimmed.start == 0


@settings(max_examples=150)
@given(raw_dfas())
def test_trim_preserves_language(m):
    t = trim(m).trimmed
    for w in all_words(6):
        assert m.accepts(w) == t.accepts(w)
    assert is_trim(t)


@given(raw_dfas())
def test_trim_idempotent(m):
    t = trim(m).trimmed
    assert trim(t).trimmed == t


def _assert_trimmed_analysis_is_exact(m):
    # A twin whose memo was read first trims the same way.
    fresh = Dfa(delta=m.delta, start=m.start, finals=m.finals)
    read = Dfa(delta=m.delta, start=m.start, finals=m.finals)
    read.analysis
    report, other = trim(fresh), trim(read)
    assert report == other
    t = report.trimmed
    assert "analysis" in vars(t)  # handed over, not yet computed
    twin = Dfa(delta=t.delta, start=t.start, finals=t.finals)
    assert t.analysis == analyze(twin)
    # Built unchecked, with exactly the field types of its checked twin.
    assert type(t.delta) is tuple and all(type(row) is tuple for row in t.delta)
    assert type(t.finals) is frozenset
    assert t == twin and hash(t) == hash(twin)
    assert t.analysis == other.trimmed.analysis


def test_trimmed_analysis_is_exact_on_all_tiny_automata():
    for m in all_tiny_automata():
        _assert_trimmed_analysis_is_exact(m)


@settings(max_examples=200)
@given(raw_dfas())
def test_trimmed_analysis_is_exact(m):
    _assert_trimmed_analysis_is_exact(m)


def test_trim_fills_the_memo_only_of_an_input_the_start_fully_reaches():
    # State 2 is unreachable: trim's walk is not the whole analysis.
    m = Dfa(delta=((1, 3), (0, 1), (2, 0), (3, 3)), start=0, finals=frozenset({1}))
    trim(m)
    assert "analysis" not in vars(m)
    # Trim: the walk from the start is the analysis, and trim keeps it.
    m = Dfa(delta=M_CYCLE2.delta, start=M_CYCLE2.start, finals=M_CYCLE2.finals)
    assert trim(m).trimmed is m
    assert vars(m)["analysis"] == analyze(m)


class _RowsReadLog(tuple):
    """A transition table that logs the states whose rows are read."""

    def __getitem__(self, q):
        self.read.add(q)
        return tuple.__getitem__(self, q)


def test_trim_reads_no_row_of_a_state_the_start_does_not_reach():
    # States 2 and 4 are unreachable, and 4 is dead.
    rows = _RowsReadLog(((1, 3), (0, 1), (2, 0), (3, 3), (4, 2)))
    rows.read = set()
    m = Dfa._unchecked(rows, 0, frozenset({1}), None)
    report = trim(m)
    assert report.removed_unreachable == frozenset({2, 4})
    assert rows.read <= {0, 1, 3}


def test_trimmed_analysis_puts_the_sink_where_the_first_dead_component_was():
    # The pass emits dead {1}, live {3}, dead {4}, then live {2} and {0}:
    # the sink takes the place of the first dead component, not the last.
    m = Dfa(delta=[[1, 2], [1, 1], [3, 4], [3, 3], [4, 4]], start=0, finals=[3])
    assert m.analysis.component_of == (4, 0, 3, 1, 2)
    t = trim(m).trimmed
    assert t.delta == ((1, 2), (1, 1), (3, 1), (3, 3))
    assert t.analysis == dfa.Analysis(
        component_of=(3, 0, 2, 1),
        live=(True, False, True, True),
        unreachable=0,
    )
    _assert_trimmed_analysis_is_exact(m)


###############################################################################
# condense
###############################################################################


def _component_index(c):
    """The index in c.components of each state's component."""
    return {q: j for j, comp in enumerate(c.components) for q in comp}


def _dag_edges(m, c):
    """Pairs (component of q, component of q's target) across components."""
    where = _component_index(c)
    return {
        (where[q], where[t])
        for q in range(m.state_count)
        for t in m.delta[q]
        if where[q] != where[t]
    }


def _has_cycle(m, members):
    """Whether some edge stays inside the component `members`."""
    return any(t in members for q in members for t in m.delta[q])


def test_condense_onestar():
    c = condense(M_ONESTAR)
    assert c.components == ((1,), (0,))
    assert [_has_cycle(M_ONESTAR, comp) for comp in c.components] == [True, True]
    assert c.height_of == (1, 0)
    assert _dag_edges(M_ONESTAR, c) == {(1, 0)}


def test_condense_cycle2():
    c = condense(M_CYCLE2)
    where = _component_index(c)
    assert where[0] == where[1]
    assert {tuple(sorted(comp)) for comp in c.components} == {(0, 1), (2,), (3,)}
    assert c.height_of[0] == c.height_of[1] == 2
    assert c.height_of[2] == 1
    assert c.height_of[3] == 0


def test_condense_numbering_deterministic():
    c = condense(M_CYCLE2)
    # the analysis's ids: the sink is emitted first, the start's cycle last
    assert c.components == ((3,), (2,), (0, 1))
    assert [c.height_of[comp[0]] for comp in c.components] == [0, 1, 2]


def test_condense_heights_monotone_on_edges():
    for m in FIXTURES:
        c = condense(m)
        for a, b in _dag_edges(m, c):
            ha = c.height_of[c.components[a][0]]
            hb = c.height_of[c.components[b][0]]
            assert hb < ha


def _mutual_reach(m, a, b):
    def reaches(src, dst):
        seen = {src}
        todo = [src]
        while todo:
            q = todo.pop()
            for t in m.delta[q]:
                if t == dst:
                    return True
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return src == dst

    return reaches(a, b) and reaches(b, a)


@settings(max_examples=100)
@given(raw_dfas(max_states=6))
def test_condense_matches_pairwise_reachability(m):
    where = _component_index(condense(m))
    for a in range(m.state_count):
        for b in range(m.state_count):
            same = where[a] == where[b]
            assert same == _mutual_reach(m, a, b)


@given(raw_dfas(max_states=6))
def test_condense_dag_edges_acyclic(m):
    for a, b in _dag_edges(m, condense(m)):
        assert b < a  # every edge out of a component leads to a smaller id


def _assert_condense_keeps_the_analysis_numbering(m):
    n = m.state_count
    ids = m.analysis.component_of
    c = condense(m)
    assert c.components == tuple(
        tuple(q for q in range(n) if ids[q] == j) for j in range(max(ids) + 1)
    )
    # Heights by plain reachability: a component is the set of states
    # that reach and are reached by one of its states.
    reach = [reached_from(m, q) for q in range(n)]
    comp = [frozenset(p for p in reach[q] if q in reach[p]) for q in range(n)]
    for q in range(n):
        below = {comp[t] for t in reach[q]} - {comp[q]}
        assert c.height_of[q] == len(below)


def test_condense_keeps_the_analysis_numbering_exhaustively():
    for m in oracle.exhaustive_trim_dfas(3):
        _assert_condense_keeps_the_analysis_numbering(m)


@settings(max_examples=200)
@given(raw_dfas(max_states=6))
def test_condense_keeps_the_analysis_numbering(m):
    _assert_condense_keeps_the_analysis_numbering(m)


def test_condense_gives_each_reader_of_a_component_its_whole_mask():
    # States 2 and 3 both lead only into the cycle {1}, which leads to
    # the sink 0, and neither reaches the other: the one read second
    # learns of the sink only through the cycle's mask.
    for start in (2, 3):
        m = Dfa(delta=((0, 0), (1, 0), (1, 1), (1, 1)), start=start, finals=frozenset({1}))
        assert condense(m).height_of == (0, 1, 2, 2)
        _assert_condense_keeps_the_analysis_numbering(m)


def _chain(k):
    """{0^k, 1}: state i reads 0 to i + 1 up to the final state k, the
    start reads 1 to the final state k + 1, and k + 2 is the sink.
    Tarjan's pass emits k + 3 single-state components."""
    sink = k + 2
    delta = [(i + 1, sink) for i in range(k)]
    delta[0] = (1, k + 1)
    delta += [(sink, sink)] * 3
    return Dfa(delta=tuple(delta), start=0, finals=frozenset({k, k + 1}))


def _tower_chain(ks):
    """Built as `perfbench/gen.py`'s `tower_chain`, with any tower index
    per chain state: chain state i < len(ks) reads 0 to i + 1 (the last
    one into the sink) and 1 into tower state s_ks[i]; tower state s_j
    loops on 1 and reads 0 down to s_(j-1); s_0 is final and leads to
    the sink.  Every state is its own strong component, so heights have
    a closed form: chain state i reaches the chain states after it,
    s_0 up to the largest s_ks[i'] with i' >= i, and the sink; s_j
    reaches s_0 up to s_(j-1) and the sink.  Returns (m, heights)."""
    chain, tower = len(ks), max(ks)
    sink = chain + tower + 1
    s = range(chain, chain + tower + 1)
    delta = [(i + 1, s[k]) for i, k in enumerate(ks)]
    delta[-1] = (sink, s[ks[-1]])
    delta.append((sink, sink))  # s_0
    delta += [(s[j - 1], s[j]) for j in range(1, tower + 1)]
    delta.append((sink, sink))
    top = list(itertools.accumulate(reversed(ks), max))[::-1]
    heights = [(chain - 1 - i) + top[i] + 2 for i in range(chain)]
    heights += [j + 1 for j in range(tower + 1)] + [0]
    return Dfa(delta=delta, start=0, finals=[s[0]]), tuple(heights)


@pytest.mark.parametrize(
    "ks",
    [
        # gen.py's shape: indices rise along the chain, so each chain
        # state's tower exit adds nothing to the chain exit's mask.
        [i * 25 // 3000 for i in range(3000)],
        # Falling indices: the first 1000 chain states each OR two large
        # masks that neither holds the other.
        [max(1000 - i, 0) for i in range(3000)],
    ],
    ids=["rising", "falling"],
)
def test_condense_heights_of_a_tower_chain_match_their_closed_form(ks):
    m, heights = _tower_chain(ks)
    assert condense(m).height_of == heights


def test_condense_frees_each_mask_after_its_last_reader():
    _assert_condense_keeps_the_analysis_numbering(_chain(60))
    peaks = []
    for k in (4000, 8000):
        m = _chain(k)
        m.analysis  # the pass is not part of the peak measured
        tracemalloc.start()
        try:
            c = condense(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # Below state i < k lie i + 1, ..., k and the sink; below the
        # start, all the other states; below k and k + 1, the sink.
        assert c.height_of == (k + 2, *range(k, 0, -1), 1, 0)
    # Linear memory doubles with k.  Masks kept to the end hold k^2 / 2
    # bits, and they bring the ratio to 3 at these sizes.
    assert peaks[1] / peaks[0] < 2.5, peaks


###############################################################################
# analyze
###############################################################################


def _assert_analysis_matches_plain_searches(m):
    a = analyze(m)
    ids = a.component_of
    reach = {q: reached_from(m, q) for q in range(m.state_count)}
    assert a.unreachable == m.state_count - len(reach[m.start])
    # The states the start reaches come first: `trim` relies on it.
    unreached = set(range(m.state_count)) - reach[m.start]
    assert all(ids[p] < ids[q] for p in reach[m.start] for q in unreached)
    assert a.live == tuple(bool(reach[q] & m.finals) for q in range(m.state_count))
    for p in range(m.state_count):
        for q in range(m.state_count):
            assert (ids[p] == ids[q]) == (q in reach[p] and p in reach[q])
        assert all(ids[t] <= ids[p] for t in m.delta[p])


@settings(max_examples=200)
@given(raw_dfas())
def test_analysis_matches_plain_searches(m):
    _assert_analysis_matches_plain_searches(m)


def test_analysis_matches_plain_searches_on_all_tiny_automata():
    for m in all_tiny_automata():
        _assert_analysis_matches_plain_searches(m)


def _recursive_tarjan(m):
    """The `Analysis` of m by the textbook recursive Tarjan pass: edge 0
    before edge 1, and roots the start, then every unvisited state in
    ascending order.  Component ids count emissions."""
    n = m.state_count
    index, low = {}, {}
    stack, on_stack = [], set()
    comp_of, live = [None] * n, [False] * n
    emitted = 0

    def visit(v):
        nonlocal emitted
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in m.delta[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            members = [stack.pop()]
            while members[-1] != v:
                members.append(stack.pop())
            on_stack.difference_update(members)
            # Members' own flags are still False: only finals and edges
            # into earlier components count.
            is_live = any(q in m.finals or live[a] or live[b]
                          for q in members for a, b in [m.delta[q]])
            for q in members:
                comp_of[q] = emitted
                live[q] = is_live
            emitted += 1

    visit(m.start)
    unreachable = n - len(index)
    for root in range(n):
        if root not in index:
            visit(root)
    return dfa.Analysis(tuple(comp_of), tuple(live), unreachable)


def test_analysis_numbering_matches_recursive_tarjan_on_all_tiny_automata():
    for m in all_tiny_automata():
        assert analyze(m) == _recursive_tarjan(m), m


@settings(max_examples=300)
@given(raw_dfas())
def test_analysis_numbering_matches_recursive_tarjan(m):
    assert analyze(m) == _recursive_tarjan(m)


def test_analysis_of_a_long_0_chain():
    # State i reads 0 to i + 1 and 1 to the final last state, which
    # loops: the walk goes 100,000 states deep without recursion, and
    # emits the last state first.
    n = 100_000
    last = n - 1
    delta = tuple((i + 1, last) for i in range(last)) + ((last, last),)
    a = analyze(Dfa(delta, 0, {last}))
    assert a.component_of == tuple(n - 1 - i for i in range(n))
    assert a == dfa.Analysis(a.component_of, (True,) * n, 0)


###############################################################################
# per-automaton memos
###############################################################################


def _fresh_automaton(ordinal: str):
    """A new trim automaton of the given order type; each test below
    uses its own type, so no test sees an automaton equal to another's."""
    return synth(parse_ordinal(ordinal))


def test_analysis_is_freed_with_its_automaton():
    m = _fresh_automaton("w^3*5 + w*2 + 7")
    ref = weakref.ref(m)
    assert wellorder.check(m).well_ordered
    ordtype.order_type(m)
    words = lexorder.enumerate_words(m, 5)
    assert [ordtype.rank(m, w).as_int() for w in words] == [0, 1, 2, 3, 4]
    del m
    assert ref() is None  # freed by reference counting, no collection needed


def test_tarjan_runs_once_per_input(monkeypatch):
    # Built first: synth's trims run the analysis on their own inputs.
    made = _fresh_automaton("w^4*2 + w^2*6 + 9")
    # The same automaton with one unreachable state: raw input to trim.
    raw = Dfa(delta=made.delta + ((0, 0),), start=made.start, finals=made.finals)
    runs = []
    tarjan = dfa._tarjan

    def counting(m, every):
        runs.append(m)
        return tarjan(m, every)

    # The walk that `analyze` and `trim` share, so no pass escapes.
    monkeypatch.setattr(dfa, "_tarjan", counting)
    for m in (trim(raw).trimmed, made):
        wellorder.check(m)
        ordtype.order_type(m)
        ordtype.rank(m, "0")
        ordtype.rank(m, "1")
    # trim's one pass on raw; its output, and synth's, inherit theirs.
    assert runs == [raw]


def test_memos_leave_equality_and_hash_alone():
    m = _fresh_automaton("w^2*7 + 5")
    twin = Dfa(delta=m.delta, start=m.start, finals=m.finals)
    ordtype.order_type(m)
    assert "analysis" in vars(m)
    assert m == twin and hash(m) == hash(twin)
    assert "analysis" not in vars(twin)
    vars(twin)["analysis"] = analyze(M_0STAR1)  # a memo that differs
    assert m == twin and hash(m) == hash(twin)


###############################################################################
# the sink
###############################################################################


def test_the_sink_is_the_dead_state():
    for m, sink in ((M_ONESTAR, 1), (M_CYCLE2, 3), (Dfa(((0, 0),), 0, {0}), None)):
        assert trim(m).sink == sink
        assert dead_states(m) == (() if sink is None else (sink,))


def test_shortest_word_prefers_zero():
    assert shortest_word(M_CYCLE2, 0, {2}) == "00"
    assert shortest_word(M_CYCLE2, 0, {0}) == ""
    assert shortest_word(M_CYCLE2, 2, {0}) is None


###############################################################################
# JSON round trip
###############################################################################


def test_json_roundtrip():
    for m in FIXTURES:
        assert from_json(to_json(m)) == m


def test_json_writer_shape():
    text = to_json(M_EPS)
    assert text == (
        '{\n  "start": 0,\n  "finals": [\n    0\n  ],\n  "delta": [\n'
        "    [\n      1,\n      1\n    ],\n    [\n      1,\n      1\n    ]\n  ]\n}\n"
    )
    assert list(json.loads(text)) == ["start", "finals", "delta"]


def _json_dumps_text(m):
    doc = {
        "start": m.start,
        "finals": sorted(m.finals),
        "delta": [list(row) for row in m.delta],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_all_tiny_automata():
    for m in all_tiny_automata():
        assert to_json(m) == _json_dumps_text(m)


@given(raw_dfas())
def test_json_writer_matches_json_dumps(m):
    assert to_json(m) == _json_dumps_text(m)


def test_json_writer_writes_no_finals_as_an_empty_list():
    m = Dfa(delta=((0, 0),), start=0, finals=frozenset())
    assert to_json(m) == _json_dumps_text(m) == (
        '{\n  "start": 0,\n  "finals": [],\n  "delta": [\n'
        "    [\n      0,\n      0\n    ]\n  ]\n}\n"
    )


def test_json_rejects_unknown_keys():
    doc = json.loads(to_json(M_EPS))
    doc["comment"] = "hi"
    with pytest.raises(DfaFormatError, match="unknown keys"):
        from_json(json.dumps(doc))


def test_json_rejects_bad_shapes():
    with pytest.raises(DfaFormatError):
        from_json("[1, 2]")
    with pytest.raises(DfaFormatError):
        from_json("not json at all")
    with pytest.raises(DfaFormatError, match="missing keys"):
        from_json('{"start": 0}')
    with pytest.raises(DfaFormatError):
        from_json('{"start": 0, "finals": [], "delta": [[0, 2]]}')
    with pytest.raises(DfaFormatError):
        from_json('{"start": 0, "finals": [], "delta": [[0, true]]}')
    with pytest.raises(DfaFormatError):
        from_json('{"start": 0, "finals": 3, "delta": [[0, 0]]}')


@pytest.mark.parametrize(
    "text",
    [
        '{"start": ' + "9" * 5000 + ', "finals": [], "delta": [[0, 0]]}',
        "[" * 200_000,
    ],
    ids=["int-beyond-digit-limit", "nesting-beyond-recursion-limit"],
)
def test_json_reader_failures_are_format_errors(text):
    with pytest.raises(DfaFormatError, match="not valid JSON"):
        from_json(text)


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(to_json(M_EPS).encode() + b"\xff")
    with pytest.raises(DfaFormatError, match="not UTF-8 text"):
        dfa.load(str(path))


@given(trim_dfas())
def test_json_roundtrip_random(m):
    assert from_json(to_json(m)) == m
