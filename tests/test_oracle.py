import hashlib
import itertools

import pytest
from hypothesis import given, settings

from machines import (
    M_0STAR1,
    M_CYCLE2,
    M_EPS,
    M_ONESTAR,
    all_tiny_automata,
    all_words,
    is_trim,
    raw_dfas,
)
from ordfa import oracle
from ordfa.dfa import Dfa, TrimReport, analyze, condense, shortest_word, to_json, trim
from ordfa.oracle import (
    BoundTooLargeError,
    FuzzCase,
    _closure,
    _closure_heights,
    _examine,
    _trim_by_closure,
    brute_rank,
    enum_bounded,
    exhaustive_trim_dfas,
    fuzz,
    least_shortest_word,
    naive_check,
    random_trim_dfa,
)
from ordfa.ordinal import Ordinal, format_ordinal, parse_ordinal
from ordfa.ordtype import OrderTypeTable, order_type
from ordfa.synth import synth
from ordfa.wellorder import CheckResult, Witness, build_witness, check

###############################################################################
# enum_bounded
###############################################################################


def test_enum_bounded_examples():
    assert enum_bounded(M_CYCLE2, 4) == ["00", "0100"]
    assert enum_bounded(M_ONESTAR, 3) == ["", "1", "11", "111"]
    assert enum_bounded(M_EPS, 2) == [""]
    assert enum_bounded(M_0STAR1, 3) == ["001", "01", "1"]


def test_enum_bounded_rejects_big_bounds():
    with pytest.raises(BoundTooLargeError):
        enum_bounded(M_EPS, 21)
    with pytest.raises(ValueError):
        enum_bounded(M_EPS, -1)


###############################################################################
# naive_check
###############################################################################


def test_naive_check_fixtures():
    assert naive_check(M_ONESTAR).well_ordered
    assert naive_check(M_EPS).well_ordered
    assert naive_check(M_CYCLE2).well_ordered
    result = naive_check(M_0STAR1)
    assert not result.well_ordered
    assert result == check(M_0STAR1)


###############################################################################
# least_shortest_word
###############################################################################


def _first_word_by_length(m, src, targets):
    """The first word into targets when words are listed by length,
    then lexicographically: the literal definition."""
    return next(
        (w for w in all_words(m.state_count) if m.run(src, w) in targets), None
    )


@settings(max_examples=100)
@given(raw_dfas(max_states=5))
def test_least_shortest_word_matches_its_definition(m):
    for src in range(m.state_count):
        for targets in [*({q} for q in range(m.state_count)), m.finals]:
            assert least_shortest_word(m, src, targets) == _first_word_by_length(m, src, targets)


def test_shortest_word_is_the_least_shortest_word_exhaustively():
    for m in exhaustive_trim_dfas(3):
        for src in range(m.state_count):
            for targets in [*({q} for q in range(m.state_count)), m.finals]:
                assert shortest_word(m, src, targets) == least_shortest_word(m, src, targets)


def test_least_shortest_word_examples():
    # Both 00 and 11 reach state 3 in two letters; 00 is the least.
    m = Dfa(delta=((1, 2), (3, 0), (0, 3), (3, 3)), start=0, finals=frozenset({3}))
    assert least_shortest_word(m, 0, {3}) == "00"
    assert least_shortest_word(m, 3, {3}) == ""
    assert least_shortest_word(m, 3, {0}) is None


###############################################################################
# brute_rank
###############################################################################


def _literal_rank(m, w, bound):
    return sum(1 for v in enum_bounded(m, bound) if v < w)


def test_brute_rank_examples():
    assert brute_rank(M_ONESTAR, "11", 10) == 2
    assert brute_rank(M_CYCLE2, "0100", 10) == 1
    assert brute_rank(M_CYCLE2, "1", 6) == 3  # 00, 0100, 010100


def test_brute_rank_has_no_bound_cap():
    # Counting takes O(states * bound) time, so only enumeration is capped.
    assert brute_rank(M_ONESTAR, "1" * 30, 30) == 30
    with pytest.raises(ValueError):
        brute_rank(M_ONESTAR, "1", -1)


def test_examine_well_ordered_chain_beyond_the_enumeration_cap():
    # {1^k : k <= 24}: 25 final states in a row and the sink, order type
    # 25.  The rank checks count up to bound len(w) + 26.
    sink = 25
    delta = tuple((sink, q + 1) for q in range(24)) + ((sink, sink), (sink, sink))
    m = Dfa(delta=delta, start=0, finals=frozenset(range(25)))
    assert m.state_count == 26 and is_trim(m)
    assert _examine(m, trim(m)) == ("well-ordered", 5, None)


def test_brute_rank_matches_literal_filter():
    for m in (M_ONESTAR, M_CYCLE2, M_EPS, M_0STAR1):
        for bound in (0, 1, 4, 7):
            for w in all_words(5):
                assert brute_rank(m, w, bound) == _literal_rank(m, w, bound), (
                    m,
                    w,
                    bound,
                )


@settings(max_examples=60)
@given(raw_dfas(max_states=5))
def test_brute_rank_matches_literal_filter_random(m):
    for w in all_words(4):
        assert brute_rank(m, w, 5) == _literal_rank(m, w, 5)


###############################################################################
# generators
###############################################################################


def test_random_trim_dfa_deterministic():
    assert random_trim_dfa(7, 6) == random_trim_dfa(7, 6)
    assert len({random_trim_dfa(seed, 6) for seed in range(50)}) > 25


def test_random_trim_dfa_is_trim():
    for seed in range(300):
        m = random_trim_dfa(seed, 6)
        assert is_trim(m)
        assert m.start == 0
        assert m.state_count <= 6


def test_random_trim_dfa_hits_both_verdicts():
    verdicts = {check(random_trim_dfa(seed, 6)).well_ordered for seed in range(200)}
    assert verdicts == {True, False}


def test_exhaustive_counts_frozen():
    assert sum(1 for _ in exhaustive_trim_dfas(1)) == 2
    assert sum(1 for _ in exhaustive_trim_dfas(2)) == 38
    assert sum(1 for _ in exhaustive_trim_dfas(3)) == 2958


def test_exhaustive_yields_distinct_trim_automata():
    seen = list(exhaustive_trim_dfas(2))
    assert len(set(seen)) == len(seen)
    for m in seen:
        assert is_trim(m)
        assert m.start == 0


def _raw_dfas_with_start_0(max_states):
    """Every complete automaton of at most max_states states with start
    0, in product order of the rows, then of the finals."""
    for n in range(1, max_states + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for rows in itertools.product(pairs, repeat=n):
            for fmask in range(1 << n):
                yield Dfa(
                    delta=rows,
                    start=0,
                    finals=frozenset(q for q in range(n) if fmask >> q & 1),
                )


def _first_trim_results(max_states):
    """The family by its definition: trim every raw automaton with start
    0, in product order, and keep each result at its first appearance."""
    seen = set()
    for raw in _raw_dfas_with_start_0(max_states):
        m = _trim_by_closure(raw, _closure(raw.delta)).trimmed
        if m not in seen:
            seen.add(m)
            yield m


@pytest.mark.parametrize("max_states", [1, 2, 3])
def test_exhaustive_yields_each_trim_result_at_its_first_appearance(max_states):
    assert list(exhaustive_trim_dfas(max_states)) == list(_first_trim_results(max_states))


@settings(max_examples=200)
@given(raw_dfas(max_states=6))
def test_trim_by_closure_mirrors_trim(m):
    assert trim(m) == _trim_by_closure(m, _closure(m.delta))


def test_trim_matches_trim_by_closure_exhaustively():
    # Every raw automaton of at most 3 states with any start: 17,626 of
    # them.  The reports agree on the rows, start, finals, removed and
    # merged states and the sink.
    count = 0
    for m in all_tiny_automata():
        assert trim(m) == _trim_by_closure(m, _closure(m.delta)), m
        count += 1
    assert count == 17626


###############################################################################
# fuzz
###############################################################################


def test_fuzz_seeded_clean():
    report = fuzz(100, 4)
    assert report.ok
    assert report.total == 100
    assert len(report.cases) == 100
    assert report.well_ordered + report.not_well_ordered == 100
    assert report.well_ordered > 0 and report.not_well_ordered > 0
    assert report.first_failure_key is None


def test_fuzz_single_case():
    report = fuzz(1, 5)
    assert report.total == 1
    assert len(report.cases) == 1
    case = report.cases[0]
    assert case == FuzzCase(
        key=0,
        states=case.states,
        verdict=case.verdict,
        checks_passed=case.checks_passed,
        first_failure=None,
    )
    assert case.checks_passed >= 2


def test_examine_flags_an_analysis_that_a_fresh_pass_does_not_find():
    # A Dfa of its own, so the wrong memo stays out of the shared fixture.
    m = Dfa(delta=M_0STAR1.delta, start=M_0STAR1.start, finals=M_0STAR1.finals)
    vars(m)["analysis"] = analyze(m)._replace(unreachable=1)
    assert _examine(m, trim(m)) == ("not-well-ordered", 0, "analysis-disagreement")


_CYCLE2_ANALYSIS = analyze(M_CYCLE2)  # ids (2, 2, 1, 0), sink 3


@pytest.mark.parametrize(
    "wrong",
    [
        # the final state 2 dead
        _CYCLE2_ANALYSIS._replace(live=(True, True, False, False)),
        # the final state 2 in the cycle's component, which it does
        # not reach
        _CYCLE2_ANALYSIS._replace(component_of=(2, 2, 2, 0)),
        # the cycle 0 <-> 1 split, so its 1 -> 0 edge leads up
        _CYCLE2_ANALYSIS._replace(component_of=(3, 2, 1, 0)),
        # the final state 2 and the sink 3 in one component
        _CYCLE2_ANALYSIS._replace(component_of=(1, 1, 0, 0)),
        # every edge leads up
        _CYCLE2_ANALYSIS._replace(component_of=(0, 0, 1, 2)),
        # every state live: `check` would pass a dead state to
        # `build_witness`, which raises
        _CYCLE2_ANALYSIS._replace(live=(True,) * 4),
        # a state not reached: `check` would raise NotTrimError
        _CYCLE2_ANALYSIS._replace(unreachable=1),
    ],
)
def test_examine_flags_an_analysis_that_the_closure_contradicts(monkeypatch, wrong):
    # A fresh pass that agrees with the wrong memo leaves the closure
    # table as the only judge.  It judges before `check` reads the
    # memo, and the verdict is the closure's.
    m = Dfa(delta=M_CYCLE2.delta, start=M_CYCLE2.start, finals=M_CYCLE2.finals)
    vars(m)["analysis"] = wrong
    monkeypatch.setattr(oracle, "analyze", lambda m: m.analysis)
    assert _examine(m, trim(m)) == ("well-ordered", 0, "analysis-closure")


# Start 0 reaches 0 to 3; 1 is final with both edges to itself, 2 and 3
# are dead, and 4 is not reached.  Trimmed: 2 is the sink and 3 merges
# into it.
_RAW = Dfa(delta=((1, 2), (1, 1), (3, 3), (2, 2), (0, 0)), start=0, finals={1})
_RAW_REPORT = trim(_RAW)


@pytest.mark.parametrize(
    "wrong",
    [
        _RAW_REPORT._replace(removed_unreachable=frozenset()),
        _RAW_REPORT._replace(merged_into_sink=frozenset({2, 3})),
        _RAW_REPORT._replace(sink=None),
        _RAW_REPORT._replace(
            trimmed=Dfa(delta=((1, 2), (1, 1), (2, 2)), start=0, finals={1, 2})
        ),
    ],
    ids=["removed", "merged", "sink", "finals"],
)
def test_examine_flags_a_trim_report_that_the_closure_contradicts(wrong):
    assert _trim_by_closure(_RAW, _closure(_RAW.delta)) == _RAW_REPORT == TrimReport(
        Dfa(delta=((1, 2), (1, 1), (2, 2)), start=0, finals={1}),
        removed_unreachable=frozenset({4}),
        merged_into_sink=frozenset({3}),
        sink=2,
    )
    assert _examine(_RAW, _RAW_REPORT) == ("not-well-ordered", 2, None)
    assert _examine(_RAW, wrong) == ("not-well-ordered", 0, "trim-closure")


def test_closure_runs_once_per_examined_automaton(monkeypatch):
    calls = []
    closure = oracle._closure

    def counting(rows):
        calls.append(rows)
        return closure(rows)

    monkeypatch.setattr(oracle, "_closure", counting)
    # Raw is closed for the trim reference, and then the trimmed
    # automaton, when it is another table: a seeded raw automaton.  A
    # trim one, as exhaustive mode gives, on either verdict, is its own
    # trimmed automaton, and one closure serves both.
    assert _examine(_RAW, _RAW_REPORT)[2] is None
    assert calls == [_RAW.delta, _RAW_REPORT.trimmed.delta]
    for m in (M_CYCLE2, M_0STAR1):
        calls.clear()
        assert _examine(m, trim(m))[2] is None
        assert calls == [m.delta]


def test_closure_heights_match_condense_exhaustively():
    for m in exhaustive_trim_dfas(3):
        assert _closure_heights(_closure(m.delta)) == list(condense(m).height_of)


@pytest.mark.parametrize("m", [M_CYCLE2, M_0STAR1], ids=["well-ordered", "not-well-ordered"])
def test_examine_flags_heights_that_the_closure_contradicts(monkeypatch, m):
    # One height too low, on any verdict: the first check group
    # compares every height.
    right = condense(m)
    wrong = right._replace(height_of=(right.height_of[0] - 1, *right.height_of[1:]))
    monkeypatch.setattr(oracle, "condense", lambda m: wrong)
    verdict = "well-ordered" if check(m).well_ordered else "not-well-ordered"
    assert _examine(m, trim(m)) == (verdict, 0, "height-closure")


def test_examine_flags_an_analysis_that_is_not_kept(monkeypatch):
    # A plain property runs a fresh pass on every read: each result is
    # right, but it is not the memo that trim hands over.
    m = Dfa(delta=M_0STAR1.delta, start=M_0STAR1.start, finals=M_0STAR1.finals)
    monkeypatch.setattr(Dfa, "analysis", property(analyze))
    assert _examine(m, trim(m)) == ("not-well-ordered", 0, "analysis-disagreement")


@pytest.mark.parametrize(
    "raw, verdict",
    [
        (_RAW, "not-well-ordered"),
        # A Dfa of its own: trim hands a trim input back as it is.
        (Dfa(delta=M_CYCLE2.delta, start=M_CYCLE2.start, finals=M_CYCLE2.finals), "well-ordered"),
    ],
    ids=["relabeled", "trim-input"],
)
def test_examine_flags_a_trim_output_without_its_memo(raw, verdict):
    # Trim's output carries its analysis.  Without it, the first read
    # runs a fresh pass whose equal record stays cached, so only the
    # memo's absence before that read shows.
    report = trim(raw)
    vars(report.trimmed).pop("analysis")
    assert _examine(raw, report) == (verdict, 0, "analysis-disagreement")


# 0*10*1: states 0 and 1 both read a 0 inside their own component and
# a 1 towards the final state 2; `check` names the least, 0.
_TWO_FAILING = Dfa(delta=((0, 1), (1, 2), (3, 3), (3, 3)), start=0, finals={2})


@pytest.mark.parametrize(
    "wrong",
    [CheckResult(True, None), CheckResult(False, build_witness(_TWO_FAILING, 1))],
    ids=["verdict", "state"],
)
def test_examine_flags_a_check_that_the_closure_contradicts(monkeypatch, wrong):
    # The second witness replays and its words are least for state 1,
    # so only the failing state tells it apart.  The verdict shown is
    # the closure's.
    assert check(_TWO_FAILING).witness.state == 0
    monkeypatch.setattr(oracle, "check", lambda m: wrong)
    report = trim(_TWO_FAILING)
    assert _examine(_TWO_FAILING, report) == ("not-well-ordered", 0, "check-disagreement")


def test_examine_flags_a_witness_that_is_not_least(monkeypatch):
    # 0*1 fails at its start: the least witness is access "", loop "",
    # tail "".  The chain 00 (00)^n 1 replays just as well.
    assert check(M_0STAR1).witness == Witness(access="", loop="", tail="", state=0)
    longer = CheckResult(False, Witness(access="00", loop="", tail="", state=0))
    monkeypatch.setattr(oracle, "check", lambda m: longer)
    assert _examine(M_0STAR1, trim(M_0STAR1)) == ("not-well-ordered", 1, "witness-not-least")


def test_examine_flags_a_type_that_is_not_in_normal_form(monkeypatch):
    # 1* has type w; a sum that kept a trailing zero would give (0, 1, 0).
    table = order_type(M_ONESTAR)
    assert table.overall == Ordinal.omega()
    padded = object.__new__(Ordinal)
    padded._coeffs = table.overall.coeffs + (0,)
    types = tuple(padded if q == table.start else t for q, t in enumerate(table.per_state))
    bad = OrderTypeTable(per_state=types, start=table.start)
    monkeypatch.setattr(oracle, "order_type", lambda m: bad)
    assert _examine(M_ONESTAR, trim(M_ONESTAR)) == ("well-ordered", 1, "type-not-normal")


@pytest.mark.parametrize("fault", ["text", "reading"])
def test_examine_flags_json_that_does_not_round_trip(monkeypatch, fault):
    # No finals written as an empty list broken over lines, or a reader
    # that gives another automaton back: the first check group.
    m = trim(Dfa(delta=((1, 1), (0, 0)), start=0, finals=frozenset())).trimmed
    if fault == "text":
        monkeypatch.setattr(oracle, "to_json", lambda m: to_json(m).replace("[]", "[\n  ]"))
    else:
        monkeypatch.setattr(oracle, "from_json", lambda text: M_EPS)
    assert _examine(m, trim(m)) == ("well-ordered", 0, "json-text")


def test_examine_flags_types_that_do_not_format_back(monkeypatch):
    # A writer of infinite terms in ascending order: each type here has
    # one infinite term, so only the descending sum of the types, with
    # w^2 and w, shows it.
    m = synth(parse_ordinal("w^2"))
    types = order_type(m).per_state
    assert {format_ordinal(t) for t in types} >= {"w^2", "w"}
    assert all(sum(1 for c in t.coeffs[1:] if c) <= 1 for t in types)

    def ascending(t):
        terms = format_ordinal(t).split(" + ")
        finite = terms.pop() if terms[-1].isdigit() else None
        return " + ".join(terms[::-1] + ([finite] if finite else []))

    monkeypatch.setattr(oracle, "format_ordinal", ascending)
    assert _examine(m, trim(m)) == ("well-ordered", 1, "type-format")


def test_examine_flags_a_type_above_the_start_type(monkeypatch):
    # (01)*00 has type w at both states of its cycle; a start typed 0
    # would sit below the other one.
    table = order_type(M_CYCLE2)
    assert table.start == 0 and table.per_state[1] == Ordinal.omega()
    bad = OrderTypeTable(per_state=(Ordinal.zero(),) + table.per_state[1:], start=0)
    monkeypatch.setattr(oracle, "order_type", lambda m: bad)
    assert _examine(M_CYCLE2, trim(M_CYCLE2)) == ("well-ordered", 2, "type-above-start")


def test_examine_flags_ranks_that_do_not_increase_in_word_order(monkeypatch):
    # 1* ranks its words 0, 1, 2, ...; equal ranks for two words, even
    # infinite ones, break the order.
    monkeypatch.setattr(oracle, "rank", lambda m, w, table: Ordinal.omega())
    assert _examine(M_ONESTAR, trim(M_ONESTAR)) == ("well-ordered", 4, "rank-order")


@pytest.mark.parametrize(
    "seeds, states, message",
    [
        (-3, 5, "seeds must be at least 0, got -3"),
        (3, 0, "states must be at least 1, got 0"),
        (0, 0, "states must be at least 1, got 0"),
    ],
)
def test_fuzz_rejects_counts_that_examine_nothing(monkeypatch, seeds, states, message):
    def examine(*args):
        raise AssertionError("an automaton was examined")

    monkeypatch.setattr("ordfa.oracle._examine", examine)
    with pytest.raises(ValueError, match=message):
        fuzz(seeds, states)
    with pytest.raises(ValueError, match=message):
        fuzz(seeds, states, exhaustive=True)


# The bytes of `ordfa fuzz --seeds 2000 --states 8` and of `ordfa fuzz
# --exhaustive --states 3`.  A change that alters them on purpose
# updates the hash here and says why.
@pytest.mark.parametrize(
    "seeds, states, exhaustive, digest",
    [
        (2000, 8, False, "096ed6471610703c2492a504bad44e96e7043a1e07a357b5627d677e9a5599bd"),
        (100, 3, True, "87c6d47c29a528fa89ff359f72964681a20529a12fa239701d91df5845c12686"),
    ],
    ids=["seeded", "exhaustive"],
)
def test_fuzz_output_is_pinned(seeds, states, exhaustive, digest):
    text = fuzz(seeds, states, exhaustive=exhaustive).to_tsv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fuzz_exhaustive_small():
    report = fuzz(0, 2, exhaustive=True)
    assert report.ok
    assert report.total == 38
    assert report.cases == ()  # cases recorded only for failures


def test_fuzz_tsv_shape():
    report = fuzz(3, 4)
    text = report.to_tsv()
    lines = text.splitlines()
    assert lines[0] == "seed\tstates\tverdict\tchecks\tfirst_failure"
    assert len(lines) == 5
    assert lines[-1].startswith("# total=3 ")
    assert "failures=0" in lines[-1]
    for line in lines[1:4]:
        seed, states, verdict, checks, failure = line.split("\t")
        assert verdict in ("well-ordered", "not-well-ordered")
        assert failure == "-"
