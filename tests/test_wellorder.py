import itertools
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings

import ordfa
from machines import M_0STAR1, M_CYCLE2, M_EPS, M_ONESTAR, trim_dfas
from ordfa.dfa import Dfa, NotTrimError, trim
from ordfa.lexorder import NoMinimumError, min_word
from ordfa import wellorder
from ordfa.oracle import exhaustive_trim_dfas, naive_check, random_trim_dfa
from ordfa.wellorder import (
    Witness,
    build_witness,
    check,
    verify_witness,
    witness_chain,
    witness_failure,
)

###############################################################################
# check
###############################################################################


def test_check_well_ordered_fixtures():
    for m in (M_ONESTAR, M_CYCLE2, M_EPS):
        result = check(m)
        assert result.well_ordered
        assert result.witness is None


def test_check_zero_star_one():
    result = check(M_0STAR1)
    assert not result.well_ordered
    assert result.witness == Witness(access="", loop="", tail="", state=0)


def test_check_all_words():
    m = Dfa(delta=((0, 0),), start=0, finals=frozenset({0}))
    result = check(m)
    assert not result.well_ordered
    assert result.witness == Witness(access="", loop="", tail="", state=0)


def test_check_nontrivial_witness_parts():
    # L = (00)*1, descending at the two-state 0-cycle
    m = Dfa(
        delta=((1, 2), (0, 3), (3, 3), (3, 3)),
        start=0,
        finals=frozenset({2}),
    )
    result = check(m)
    assert not result.well_ordered
    assert result.witness == Witness(access="", loop="0", tail="", state=0)
    assert witness_chain(result.witness, 2) == "00001"


def test_check_requires_trim():
    # `naive_check` has the same gate, with the same messages.
    not_trim = Dfa(delta=((0, 1), (1, 1)), start=0, finals=frozenset())
    unreachable = Dfa(delta=((0, 0), (1, 1)), start=0, finals=frozenset({0}))
    for decide in (check, naive_check):
        with pytest.raises(NotTrimError, match=r"^2 states have empty language; run trim first$"):
            decide(not_trim)
        with pytest.raises(NotTrimError, match=r"^1 unreachable state\(s\); run trim first$"):
            decide(unreachable)


def test_witness_chain_values():
    w = Witness(access="1", loop="01", tail="0", state=3)
    assert witness_chain(w, 0) == "110"
    assert witness_chain(w, 1) == "100110"
    assert witness_chain(w, 2) == "100100110"


###############################################################################
# verify_witness
###############################################################################


def test_verify_witness_accepts_real_witness():
    result = check(M_0STAR1)
    assert verify_witness(M_0STAR1, result.witness, 16)
    assert witness_failure(M_0STAR1, result.witness, 16) is None


def test_verify_witness_rejects_fabricated_witness():
    # 1* has no descending chain; 0^n 1 fails membership from n = 1 on
    fake = Witness(access="", loop="", tail="", state=0)
    assert not verify_witness(M_ONESTAR, fake, 16)
    assert witness_failure(M_ONESTAR, fake, 16) == "chain[1] = 01 is not accepted"


def test_replay_to_the_state_count_checks_the_whole_chain():
    # Every witness whose access, loop and tail have at most one letter,
    # on every automaton of at most 3 states: replay to depth
    # state_count finds exactly what a far deeper replay finds.
    words = ("", "0", "1")
    cases = 0
    for m in exhaustive_trim_dfas(3):
        for access, loop, tail in itertools.product(words, repeat=3):
            w = Witness(access=access, loop=loop, tail=tail, state=0)
            assert witness_failure(m, w, m.state_count) == witness_failure(m, w, 10**6)
            cases += 1
    assert cases == 79_866


def test_witness_failure_names_the_first_rejected_depth():
    # L = {111, 10011}; chain[n] = 1 (00)^n 11 is accepted for n = 0, 1
    # and first rejected at n = 2.
    m = Dfa(
        delta=((6, 1), (3, 2), (6, 4), (5, 6), (6, 6), (6, 2), (6, 6)),
        start=0,
        finals=frozenset({4}),
    )
    fake = Witness(access="1", loop="0", tail="1", state=1)
    assert [m.accepts(witness_chain(fake, n)) for n in range(3)] == [True, True, False]
    assert not verify_witness(m, fake, 16)
    assert verify_witness(m, fake, 2)
    assert witness_failure(m, fake, 16) == "chain[2] = 1000011 is not accepted"


@pytest.mark.parametrize("loop, tail", [("02", ""), ("", "12")], ids=["loop", "tail"])
def test_replay_rejects_a_bad_letter_before_replaying(loop, tail):
    # Depth 0 replays nothing, so only a check made before the replay
    # raises there; a deeper replay raises the same error.
    w = Witness(access="", loop=loop, tail=tail, state=0)
    for upto in (0, 5):
        with pytest.raises(ValueError, match="^letter '2' at position 2 is not 0 or 1$"):
            witness_failure(M_ONESTAR, w, upto)


def test_build_witness_rejects_a_state_without_chain():
    # state 0 of 1* reads 0 into the sink, so no 0-loop returns to it
    with pytest.raises(ValueError, match="state 0 is not a failing state"):
        build_witness(M_ONESTAR, 0)


@pytest.mark.parametrize("q", [4, -1])
def test_build_witness_rejects_a_state_out_of_range(q):
    with pytest.raises(ValueError, match=f"state {q} is out of range for 4 states"):
        build_witness(M_CYCLE2, q)


def test_invariant_checks_survive_optimized_mode():
    # `python -O` strips assert statements; these checks must still raise.
    script = """
from ordfa.dfa import Dfa
from ordfa.ordtype import OrderTypeTable, rank
from ordfa.wellorder import build_witness
onestar = Dfa(delta=((1, 0), (1, 1)), start=0, finals=frozenset({0}))
cycle2 = Dfa(delta=((1, 3), (2, 0), (3, 3), (3, 3)), start=0, finals=frozenset({2}))
for call, expected in (
    (lambda: build_witness(onestar, 0), ValueError),
    (lambda: rank(cycle2, "01", OrderTypeTable((None,) * 4, 0)), RuntimeError),
):
    try:
        call()
    except expected:
        continue
    raise SystemExit("no error raised")
"""
    src = os.path.dirname(os.path.dirname(ordfa.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_replay_depth_is_bounded_by_the_state_count():
    # Past the first repeated state every depth repeats a passed check.
    w = check(M_0STAR1).witness
    t0 = time.perf_counter()
    assert verify_witness(M_0STAR1, w, 10**12)
    assert time.perf_counter() - t0 < 0.5


def test_passing_replay_builds_no_chain_word(monkeypatch):
    # The words of the chain only describe a failure.
    def chain(w, n):
        raise AssertionError(f"chain[{n}] was built")

    monkeypatch.setattr(wellorder, "witness_chain", chain)
    for m in (M_0STAR1, random_trim_dfa(3, 8)):
        w = check(m).witness
        assert witness_failure(m, w, 32) is None


def test_verify_witness_depth_zero_checks_nothing():
    fake = Witness(access="", loop="", tail="", state=0)
    assert verify_witness(M_ONESTAR, fake, 0)


###############################################################################
# differential against the naive checker
###############################################################################


def test_matches_naive_on_fixtures():
    for m in (M_ONESTAR, M_CYCLE2, M_EPS, M_0STAR1):
        assert check(m) == naive_check(m)


def test_matches_naive_on_random_automata():
    for seed in range(1000):
        m = random_trim_dfa(seed, 8)
        assert check(m) == naive_check(m), f"seed {seed}"


@settings(max_examples=200)
@given(trim_dfas())
def test_matches_naive_property(m):
    assert check(m) == naive_check(m)


@settings(max_examples=200)
@given(trim_dfas())
def test_negative_verdicts_carry_verified_witnesses(m):
    result = check(m)
    if not result.well_ordered:
        assert verify_witness(m, result.witness, 32)


@settings(max_examples=200)
@given(trim_dfas())
def test_well_ordered_languages_have_minima(m):
    result = check(m)
    if result.well_ordered:
        try:
            min_word(m)
        except NoMinimumError:
            pytest.fail("well-ordered language reported without a least word")


@settings(max_examples=100)
@given(trim_dfas(max_states=6))
def test_well_ordering_is_hereditary(m):
    # every reachable state's own language stays well-ordered
    if not check(m).well_ordered:
        return
    for q in range(m.state_count):
        sub = trim(
            Dfa(delta=m.delta, start=q, finals=m.finals)
        ).trimmed
        assert check(sub).well_ordered, f"state {q}"
