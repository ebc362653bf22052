"""Acceptance gate: the end-to-end requirements with their runtime budgets.

Each test prints a single PASS/FAIL summary line (visible under -s) and
fails loudly otherwise.  The two corpora (every trim automaton with at
most 4 states; 10,000 seeded random trim automata with at most 8
states) are built once per module and shared.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from machines import M_ONESTAR, all_words, naive_relation
from ordfa.dfa import Dfa, condense
from ordfa.lexorder import LexRelation, analyze_chain, compare_lex, embed3to2, enumerate_words
from ordfa.oracle import (
    brute_rank,
    enum_bounded,
    exhaustive_trim_dfas,
    naive_check,
    random_trim_dfa,
)
from ordfa.ordinal import Ordinal
from ordfa.ordtype import OrderTypeTable, order_type, rank
from ordfa.synth import synth, synth_mul_omega, synth_one
from ordfa.wellorder import check, verify_witness


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@dataclass
class Corpus:
    total: int = 0
    well_ordered: int = 0
    disagreements: int = 0
    bad_witnesses: int = 0
    tables: list[tuple[Dfa, OrderTypeTable]] = field(default_factory=list)
    elapsed: float = 0.0


def _characterize(stream) -> Corpus:
    corpus = Corpus()
    t0 = time.perf_counter()
    for m in stream:
        corpus.total += 1
        fast = check(m)
        if fast != naive_check(m):
            corpus.disagreements += 1
            continue
        if fast.well_ordered:
            corpus.well_ordered += 1
            corpus.tables.append((m, order_type(m)))
        elif not verify_witness(m, fast.witness, 32):
            corpus.bad_witnesses += 1
    corpus.elapsed = time.perf_counter() - t0
    return corpus


@pytest.fixture(scope="module")
def small_exhaustive() -> Corpus:
    return _characterize(exhaustive_trim_dfas(4))


@pytest.fixture(scope="module")
def random_sample() -> Corpus:
    return _characterize(random_trim_dfa(seed, 8) for seed in range(10_000))


def test_round_trip_synthesis_and_order_type():
    t0 = time.perf_counter()
    ordinals = {Ordinal(v) for v in itertools.product(range(4), repeat=5)}
    rng = random.Random(0)
    for _ in range(200):
        ordinals.add(Ordinal([rng.randint(0, 9) for _ in range(rng.randint(0, 7))]))
    mismatches = [a for a in ordinals if order_type(synth(a)).overall != a]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    _report(
        "round trip",
        ok,
        f"{len(ordinals)} ordinals, {len(mismatches)} mismatches, {elapsed:.1f}s (< 10s)",
    )
    assert ok, mismatches[:3]


def test_exhaustive_characterization_small_automata(small_exhaustive):
    c = small_exhaustive
    ok = (
        c.disagreements == 0
        and c.bad_witnesses == 0
        and c.total == 458_328
        and c.elapsed < 60.0
    )
    _report(
        "exhaustive characterization",
        ok,
        f"{c.total} automata ({c.well_ordered} well-ordered), "
        f"{c.disagreements} disagreements, {c.bad_witnesses} bad witnesses, "
        f"{c.elapsed:.1f}s (< 60s)",
    )
    assert ok


def test_enumeration_complete_on_finite_languages(small_exhaustive):
    # A finite language of a trim automaton has no word as long as its
    # state count, so enum_bounded to that length lists all of it.
    finite = mismatches = 0
    for m, table in small_exhaustive.tables:
        if not table.overall.is_finite:
            continue
        finite += 1
        n = table.overall.as_int()
        if enumerate_words(m, n + 1) != enum_bounded(m, m.state_count):
            mismatches += 1
    ok = mismatches == 0 and finite == 386
    _report(
        "enumeration completeness",
        ok,
        f"{finite} finite languages among {len(small_exhaustive.tables)} "
        f"well-ordered automata, {mismatches} mismatches",
    )
    assert ok


def test_sampled_characterization_eight_states(random_sample):
    c = random_sample
    ok = c.disagreements == 0 and c.bad_witnesses == 0 and c.total == 10_000
    _report(
        "sampled characterization",
        ok,
        f"{c.total} automata ({c.well_ordered} well-ordered), "
        f"{c.disagreements} disagreements, {c.bad_witnesses} bad witnesses",
    )
    assert ok


def test_worked_fixed_points():
    one_star = order_type(M_ONESTAR).overall
    laps = synth_mul_omega(synth_one())
    lap_words = enum_bounded(laps, 7)
    analysis = analyze_chain(["11", "10", "01", "00"])
    ok = (
        one_star == Ordinal.omega()
        and lap_words == ["1" * n + "0" for n in range(7)]
        and order_type(laps).overall == Ordinal.omega()
        and analysis.sequence == ((0, 2), (1, 3))
    )
    _report(
        "worked fixed points",
        ok,
        f"1* -> {one_star}, laps of {{eps}} -> 1^n 0 of type "
        f"{order_type(laps).overall}, sequence {analysis.sequence}",
    )
    assert ok


def test_height_bounds_degree(small_exhaustive, random_sample):
    violations = 0
    scanned = 0
    for corpus in (small_exhaustive, random_sample):
        for m, table in corpus.tables:
            scanned += 1
            heights = condense(m).height_of
            for q in range(m.state_count):
                if table.per_state[q].degree > heights[q]:
                    violations += 1
            if table.overall.degree > m.state_count:
                violations += 1
    ok = violations == 0 and scanned > 0
    _report(
        "height bounds degree",
        ok,
        f"{scanned} well-ordered automata, {violations} violations",
    )
    assert ok


def test_rank_consistency_finite_ranks(random_sample):
    violations = 0
    words_checked = 0
    for m, table in random_sample.tables:
        for w in all_words(6):
            if not m.accepts(w):
                continue
            r = rank(m, w, table)
            if not r.is_finite:
                continue
            words_checked += 1
            n = r.as_int()
            listed = enumerate_words(m, n + 1)
            below_exact = (
                len(listed) >= n
                and all(v < w for v in listed[:n])
                and (len(listed) == n or not listed[n] < w)
            )
            bound = len(w) + m.state_count
            stabilized = (
                brute_rank(m, w, bound) == n and brute_rank(m, w, bound + 1) == n
            )
            if not (below_exact and stabilized):
                violations += 1
    ok = violations == 0 and words_checked > 0
    _report(
        "rank consistency",
        ok,
        f"{words_checked} finite-rank words across "
        f"{len(random_sample.tables)} automata, {violations} violations",
    )
    assert ok


def test_lexicographic_axioms_and_embedding():
    t0 = time.perf_counter()
    words = list(all_words(6))
    violations = 0

    # trichotomy: exactly one relation holds, and it is the expected one
    relations = {}
    for u in words:
        for v in words:
            rel = compare_lex(u, v)
            relations[u, v] = rel
            if rel is not naive_relation(u, v):
                violations += 1

    # translation invariance: prefixing w moves nothing around
    for w in words:
        for u in words:
            for v in words:
                if compare_lex(w + u, w + v) is not relations[u, v]:
                    violations += 1

    # suffix absorption: strict drops survive arbitrary extensions
    strict = [(u, v) for (u, v), rel in relations.items() if rel is LexRelation.STRICT_LESS]
    tails = list(all_words(3))
    for u, v in strict:
        for w1 in tails:
            for w2 in tails:
                if compare_lex(u + w1, v + w2) is not LexRelation.STRICT_LESS:
                    violations += 1

    # cut-off: strictness is decided at the divergence position
    for (u, v), rel in relations.items():
        i = next((k for k in range(min(len(u), len(v))) if u[k] != v[k]), None)
        diverges_down = i is not None and u[i] < v[i]
        if diverges_down != (rel is LexRelation.STRICT_LESS):
            violations += 1

    # the ternary embedding preserves the (total) order: sorting the
    # originals and sorting the images must agree elementwise
    ternary = list(all_words(6, alphabet="012"))
    images = [embed3to2(w) for w in ternary]
    embedding_ok = len(set(images)) == len(images) and [
        embed3to2(w) for w in sorted(ternary)
    ] == sorted(images)

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and embedding_ok and elapsed < 10.0
    _report(
        "lexicographic axioms",
        ok,
        f"{len(words)}^2 binary pairs and {len(ternary)} ternary words, "
        f"{violations} violations, embedding {'ok' if embedding_ok else 'BROKEN'}, "
        f"{elapsed:.1f}s (< 10s)",
    )
    assert ok
