#!/usr/bin/env python3
"""Mutation run: do the differential fuzz and the tier-1 suite catch a
fixed list of one-line mutants of the program?

    python3 scripts/mutants.py

For each mutant the tree (src/, tests/, scripts/ and pyproject.toml) is
copied to a temporary directory and one line is replaced there; the
checkout itself is never written.  Each mutant records the tier-1 test
that killed it last.  `ordfa fuzz --seeds 2000 --states 8` runs, then
that test alone, and the whole tier-1 suite with -x only when both
pass, each in a fresh interpreter.  A mutant with no recorded test
(None, as a new one starts) runs the whole suite; the test it names
is the one to record.  One row per mutant: whether fuzz exited
nonzero, the tier-1 column (the recorded test, killed or passed, or
the whole suite's first failure), the verdict and the mutant's
seconds.  A closing line gives the number killed and the run's total
time.  A mutant is killed when any check fails; a surviving mutant
costs a whole tier-1 run.
The exit status is 1 when a mutant survives, its line is no longer in
the source or its recorded test is no longer in the suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
FUZZ = ["-m", "ordfa.cli", "fuzz", "--seeds", "2000", "--states", "8"]
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT = 1800  # seconds per run; a run that hangs counts as killed

# (name, file, line as it stands, line as mutated, recorded test): the
# line must occur exactly once in its file, as a whole line, and the
# test is a tier-1 id below tests/, or None.
MUTANTS = [
    ("shortest-word-tries-1-first", "src/ordfa/dfa.py",
     "        for t in delta[q]:  # 0 before 1",
     "        for t in reversed(delta[q]):  # 0 before 1",
     "test_oracle.py::test_fuzz_seeded_clean"),
    ("sink-at-the-last-dead-component", "src/ordfa/dfa.py",
     "        first = k = ids[dead[0]]  # `dead` is in emission order",
     "        first = k = ids[dead[-1]]  # `dead` is in emission order",
     "test_acceptance.py::test_sampled_characterization_eight_states"),
    ("cycle-type-without-the-lap-power", "src/ordfa/ordtype.py",
     "            t = Ordinal.omega_power(1 + d)",
     "            t = Ordinal.omega_power(d)",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("cycle-keeps-the-last-exit-degree", "src/ordfa/ordtype.py",
     "                d = max(d, types[x].degree)",
     "                d = types[x].degree",
     "test_ordtype.py::test_cycle_takes_its_largest_exit_degree[4]"),
    ("to-json-writes-no-empty-list", "src/ordfa/dfa.py",
     "    if finals:",
     "    if True:",
     "test_cli.py::test_fuzz"),
    ("trim-fast-path-takes-two-dead-states", "src/ordfa/dfa.py",
     "    if not unreachable and len(dead) <= 1:  # m is trim",
     "    if not unreachable and len(dead) <= 2:  # m is trim",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("condense-frees-a-mask-at-its-first-reader", "src/ordfa/dfa.py",
     "                if last[jt] == j:",
     "                if last[jt] >= j:",
     "test_acceptance.py::test_height_bounds_degree"),
    ("format-keeps-ascending-terms", "src/ordfa/ordinal.py",
     "        parts.reverse()",
     "        pass",
     "test_oracle.py::test_examine_flags_types_that_do_not_format_back"),
    ("table-rows-without-heights", "src/ordfa/cli.py",
     '            f"{q}\\t{h}\\t{fmt(t)}\\n"',
     '            f"{q}\\t{q}\\t{fmt(t)}\\n"',
     "test_cli.py::test_ordtype_table"),
    ("roundtrip-dots-at-the-count", "scripts/ordinal_roundtrip.py",
     "        if len(words) > args.words:",
     "        if len(words) >= args.words:",
     "test_cli.py::test_roundtrip_script_lists_empty_only_for_the_empty_language"),
    ("next-word-at-the-first-branch-point", "src/ordfa/lexorder.py",
     '    while (i := w.rfind("0", 0, i)) >= 0:',
     '    while (i := w.find("0", 0, i)) >= 0:',
     "test_acceptance.py::test_enumeration_complete_on_finite_languages"),
    ("sum-swaps-the-start-row", "src/ordfa/synth.py",
     "    rows.append((m1.start, m2.start + n1))",
     "    rows.append((m2.start + n1, m1.start))",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("check-flags-a-dead-1-exit", "src/ordfa/wellorder.py",
     "        if live[on1] and ids[q] == ids[on0]:",
     "        if ids[q] == ids[on0]:",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("live-rule-ignores-the-1-edge", "src/ordfa/dfa.py",
     "                            is_live = w in finals or live[a] or live[b]",
     "                            is_live = w in finals or live[a]",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("rank-keeps-the-count-at-an-infinite-exit", "src/ordfa/ordtype.py",
     "                n = 0",
     "                pass",
     "test_ordtype.py::test_rank_absorbs_a_finite_summand_before_an_infinite_one"),
    ("sum-keeps-the-right-coefficient", "src/ordfa/ordinal.py",
     "        return _normal(b[:d] + (a_d + b[d],) + a[d + 1 :])",
     "        return _normal(b[:d] + (b[d],) + a[d + 1 :])",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("sum-drops-the-left-high-terms", "src/ordfa/ordinal.py",
     "        return _normal(b[:d] + (a_d + b[d],) + a[d + 1 :])",
     "        return _normal(b[:d] + (a_d + b[d],))",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("int-sum-drops-the-left-summand", "src/ordfa/ordinal.py",
     "                return _normal((a[0] + other,) + a[1:] if a else (other,))",
     "                return _normal((other,))",
     "test_acceptance.py::test_rank_consistency_finite_ranks"),
    ("omega-power-writes-the-coefficient-first", "src/ordfa/ordinal.py",
     "            return _normal((0,) * k + (coeff,))",
     "            return _normal((coeff,) + (0,) * k)",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("exhaustive-takes-two-dead-states", "src/ordfa/oracle.py",
     "                if dead <= 1:",
     "                if dead <= 2:",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("error-line-without-standard-error-goes-to-stdout", "src/ordfa/cli.py",
     "    if sys.stderr is None:  # what Python sets when fd 2 was closed",
     "    if False:",
     "test_cli.py::test_closed_standard_error_keeps_the_exit_code[closed]"),
    ("replay-reads-the-tail-without-its-1", "src/ordfa/wellorder.py",
     "        s = row[1]",
     "        s = state",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("replay-steps-without-the-0", "src/ordfa/wellorder.py",
     "        s = row[0]",
     "        s = state",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("min-word-of-the-empty-language-is-eps", "src/ordfa/lexorder.py",
     "    return next(iter_words(m), None)",
     '    return next(iter_words(m), "")',
     "test_cli.py::test_min_empty_language"),
    ("naive-check-follows-the-1-edge", "src/ordfa/oracle.py",
     "        if q != snk and on1 != snk and clo[on0] >> q & 1:",
     "        if q != snk and on1 != snk and clo[on1] >> q & 1:",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("analysis-as-a-plain-property", "src/ordfa/dfa.py",
     "    @functools.cached_property",
     "    @property",
     "test_cli.py::test_fuzz"),
    ("less-than-compares-with-at-most", "src/ordfa/ordinal.py",
     "        return (len(a), a[::-1]) < (len(b), b[::-1])",
     "        return (len(a), a[::-1]) <= (len(b), b[::-1])",
     "test_cli.py::test_fuzz"),
    ("omega-power-takes-any-exponent-type", "src/ordfa/ordinal.py",
     "        if type(k) is not int or k < 0:",
     "        if k < 0:",
     "test_ordinal.py::test_omega_power_rejects_an_exponent_that_is_not_a_natural[True]"),
    ("enumerate-words-takes-one-more", "src/ordfa/lexorder.py",
     "    return [w for _, w in zip(range(n), iter_words(m))]",
     "    return [w for _, w in zip(range(n + 1), iter_words(m))]",
     "test_dfa.py::test_analysis_is_freed_with_its_automaton"),
    ("enum-command-takes-one-more", "src/ordfa/cli.py",
     "    for _, w in zip(range(args.count), lexorder.iter_words(m)):",
     "    for _, w in zip(range(args.count + 1), lexorder.iter_words(m)):",
     "test_cli.py::test_enum"),
    ("enumerate-words-looks-past-the-count", "src/ordfa/lexorder.py",
     "    return [w for _, w in zip(range(n), iter_words(m))]",
     "    return [w for w, _ in zip(iter_words(m), range(n))]",
     "test_lexorder.py::test_enumerate_words_stops_at_the_count_before_a_descending_chain"),
    ("enum-command-looks-past-the-count", "src/ordfa/cli.py",
     "    for _, w in zip(range(args.count), lexorder.iter_words(m)):",
     "    for w, _ in zip(lexorder.iter_words(m), range(args.count)):",
     "test_cli.py::test_enum_stops_at_the_count_before_a_descending_chain"),
    ("brute-rank-reads-letters-swapped", "src/ordfa/oracle.py",
     '        q = m.delta[q][ch == "1"]',
     '        q = m.delta[q][ch == "0"]',
     "test_acceptance.py::test_rank_consistency_finite_ranks"),
    ("descent-test-lets-equal-words-pass", "src/ordfa/lexorder.py",
     "        if not words[i] < words[i - 1]:",
     "        if words[i] > words[i - 1]:",
     "test_lexorder.py::test_extract_strict_chain_rejects_non_descending"),
    ("fuzz-drops-the-type-above-start-check", "src/ordfa/oracle.py",
     "    if any(table.overall < t for t in table.per_state):",
     "    if False:",
     "test_oracle.py::test_examine_flags_a_type_above_the_start_type"),
    ("fuzz-rank-order-lets-equal-ranks-pass", "src/ordfa/oracle.py",
     "    if any(not r < s for (_, r), (_, s) in zip(ranked, ranked[1:])):",
     "    if any(not r <= s for (_, r), (_, s) in zip(ranked, ranked[1:])):",
     "test_oracle.py::test_examine_flags_ranks_that_do_not_increase_in_word_order"),
    ("dfa-lets-a-1-target-out-of-range", "src/ordfa/dfa.py",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n):",
     "test_dfa.py::test_validation"),
    ("walk-does-not-pass-low-up", "src/ordfa/dfa.py",
     "                low = lv",
     "                pass",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("trim-lists-removed-states-only-with-dead-ones", "src/ordfa/dfa.py",
     "    return TrimReport(trimmed, frozenset(removed), frozenset(merged), sink)",
     "    return TrimReport(trimmed, frozenset(removed if dead else ()), frozenset(merged), sink)",
     "test_cli.py::test_fuzz"),
    ("check-takes-several-dead-states", "src/ordfa/wellorder.py",
     "    if a.unreachable or len(a.dead) > 1:",
     "    if a.unreachable:",
     "test_wellorder.py::test_check_requires_trim"),
    ("synth-times-takes-any-multiplier-type", "src/ordfa/synth.py",
     "    if type(c) is not int or c < 1:",
     "    if c < 1:",
     "test_synth.py::test_synth_times_rejects_a_multiplier_that_is_not_a_positive_int[True]"),
    ("check-reads-the-0-edge-liveness", "src/ordfa/wellorder.py",
     "        if live[on1] and ids[q] == ids[on0]:",
     "        if live[on0] and ids[q] == ids[on0]:",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("dot-greys-the-live-states", "src/ordfa/cli.py",
     '            fill = "" if live[q] else ", style=filled, fillcolor=lightgrey"',
     '            fill = "" if not live[q] else ", style=filled, fillcolor=lightgrey"',
     "test_cli.py::test_dot"),
    ("coerce-keeps-a-zero-coefficient", "src/ordfa/ordinal.py",
     "        return _normal((other,)) if other else _ZERO",
     "        return _normal((other,))",
     "test_ordinal.py::test_finite_ordinals_hash_as_their_ints"),
    ("one-state-component-ignores-the-1-edge", "src/ordfa/dfa.py",
     "                    if v in finals or live[a] or live[b]:",
     "                    if v in finals or live[a]:",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("one-state-component-stays-visible-to-the-low-test", "src/ordfa/dfa.py",
     "                    index[v] = done",
     "                    pass",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("trim-renumbers-only-past-one-merged-state", "src/ordfa/dfa.py",
     "    if merged:",
     "    if len(merged) > 1:",
     "test_dfa.py::test_trimmed_analysis_is_exact_on_all_tiny_automata"),
    ("condense-skips-an-exit-it-shares-a-bit-with", "src/ordfa/dfa.py",
     "                if common == u:  # u adds nothing",
     "                if common:  # u adds nothing",
     "test_acceptance.py::test_height_bounds_degree"),
    ("condense-takes-a-covering-mask-without-its-bit", "src/ordfa/dfa.py",
     "                    h = heights[jt] + 1",
     "                    h = heights[jt]",
     "test_acceptance.py::test_height_bounds_degree"),
    ("condense-counts-a-union-as-its-larger-part", "src/ordfa/dfa.py",
     "                    h = mask.bit_count()",
     "                    h = max(h, heights[jt] + 1)",
     "test_dfa.py::test_condense_keeps_the_analysis_numbering_exhaustively"),
    ("dfa-equality-ignores-the-finals", "src/ordfa/dfa.py",
     "        return (self.delta, self.start, self.finals) == (other.delta, other.start, other.finals)",
     "        return (self.delta, self.start) == (other.delta, other.start)",
     "test_dfa.py::test_dfa_equality_and_hash_read_every_field"),
    ("dfa-hash-ignores-the-finals", "src/ordfa/dfa.py",
     "        return hash((self.delta, self.start, self.finals))",
     "        return hash((self.delta, self.start))",
     "test_dfa.py::test_dfa_equality_and_hash_read_every_field"),
    ("trim-walks-from-every-root", "src/ordfa/dfa.py",
     "    ids, live, reached, dead, unreachable = _tarjan(m, False)",
     "    ids, live, reached, dead, unreachable = _tarjan(m, True)",
     "test_acceptance.py::test_sampled_characterization_eight_states"),
    ("trim-leaves-a-trim-input-without-its-memo", "src/ordfa/dfa.py",
     '        m.__dict__.setdefault("analysis", a)',
     "        pass",
     "test_dfa.py::test_trimmed_analysis_is_exact_on_all_tiny_automata"),
    ("shortest-word-shortcut-tries-1-first", "src/ordfa/dfa.py",
     "    if a in targets:",
     "    if a in targets and b not in targets:",
     "test_oracle.py::test_shortest_word_is_the_least_shortest_word_exhaustively"),
    ("unchecked-drops-the-memo-it-is-given", "src/ordfa/dfa.py",
     "        if analysis is not None:",
     "        if False:",
     "test_dfa.py::test_trimmed_analysis_is_exact_on_all_tiny_automata"),
    ("dfa-lets-a-1-target-equal-to-the-state-count", "src/ordfa/dfa.py",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b <= n):",
     "test_dfa.py::test_dfa_names_the_first_bad_value[delta12-0-finals12-state 1 has a bad transition target 2]"),
    ("dfa-names-a-short-row-by-its-targets", "src/ordfa/dfa.py",
     "        if len(row) != 2:",
     "        if len(row) > 2:",
     "test_dfa.py::test_dfa_names_the_first_bad_value[delta0-0-finals0-state 0 must have exactly two transitions]"),
    ("trim-takes-a-sink-at-index-0-as-none", "src/ordfa/dfa.py",
     "        elif sink is None:",
     "        elif not sink:",
     "test_acceptance.py::test_sampled_characterization_eight_states"),
    ("replay-steps-on-the-1-edge", "src/ordfa/wellorder.py",
     "        s = row[0]",
     "        s = row[1]",
     "test_acceptance.py::test_exhaustive_characterization_small_automata"),
    ("trim-reference-leaves-a-second-dead-state-unmerged", "src/ordfa/oracle.py",
     "    merged = dead[1:]",
     "    merged = dead[2:]",
     "test_oracle.py::test_exhaustive_yields_each_trim_result_at_its_first_appearance[2]"),
    ("trim-reference-keeps-an-unreached-final-state", "src/ordfa/oracle.py",
     "    reach = clo[0]",
     "    reach = clo[0] | finals",
     "test_cli.py::test_fuzz"),
    ("sum-enters-the-right-part-one-state-late", "src/ordfa/synth.py",
     "    rows.append((m1.start, m2.start + n1))",
     "    rows.append((m1.start, m2.start + n1 + 1))",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("times-sink-points-past-the-table", "src/ordfa/synth.py",
     "    rows.append((sink, sink))",
     "    rows.append((sink, sink + 1))",
     "test_acceptance.py::test_round_trip_synthesis_and_order_type"),
    ("omega-step-builds-a-list-table", "src/ordfa/synth.py",
     "    raw = Dfa._unchecked(m.delta + ((m.start, n),), n, m.finals, None)",
     "    raw = Dfa._unchecked([*m.delta, (m.start, n)], n, m.finals, None)",
     "test_oracle.py::test_examine_flags_types_that_do_not_format_back"),
    ("one-keeps-a-list-row", "src/ordfa/synth.py",
     "    return Dfa._unchecked(((1, 1), (1, 1)), 0, frozenset({0}), None)",
     "    return Dfa._unchecked(((1, 1), [1, 1]), 0, frozenset({0}), None)",
     "test_oracle.py::test_examine_flags_types_that_do_not_format_back"),
    ("synth-takes-any-argument-type", "src/ordfa/synth.py",
     "    if not isinstance(a, Ordinal):",
     "    if False:",
     "test_synth.py::test_synth_rejects_an_argument_that_is_not_an_ordinal[3]"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for entry in COPIED:
        src = ROOT / entry
        if src.is_dir():
            shutil.copytree(src, dest / entry, ignore=ignore)
        else:
            shutil.copy2(src, dest / entry)


def _run(tree: Path, argv):
    """(exit code or "timeout", combined output) of a Python child in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        child = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                               capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return child.returncode, child.stdout + child.stderr


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            # "FAILED <test id> - <reason>": a parametrized id may hold spaces.
            return line.split(" ", 1)[1].split(" - ", 1)[0].removeprefix("tests/")
    return "(no test named)"


def _tier1(tree: Path, tests) -> str:
    """Tier-1 column for a run of the given tests, or of the whole suite."""
    code, output = _run(tree, [*TIER1, *tests])
    return "passed" if code == 0 else f"killed: {_first_failure(output)}"


def _test_ids() -> set[str]:
    """The tier-1 test ids of the unmutated tree, without `tests/`."""
    with tempfile.TemporaryDirectory(prefix="ordfa-mutant-") as tmp:
        _copy_tree(Path(tmp))
        _, output = _run(Path(tmp), [*TIER1, "--collect-only"])
    return {line.removeprefix("tests/") for line in output.splitlines() if "::" in line}


def run_mutant(mutant, test_ids) -> tuple[str, str, str]:
    """(fuzz column, tier-1 column, verdict) for one mutant."""
    _, path, old, new, test = mutant
    if test is not None and test not in test_ids:
        return "-", "-", "STALE: the recorded test is not in the suite"
    with tempfile.TemporaryDirectory(prefix="ordfa-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / path
        lines = target.read_text(encoding="utf-8").split("\n")
        at = [i for i, line in enumerate(lines) if line == old]
        if len(at) != 1:
            return "-", "-", f"STALE: the line occurs {len(at)} times"
        lines[at[0]] = new
        target.write_text("\n".join(lines), encoding="utf-8")
        code, _ = _run(tree, FUZZ)
        fuzz = "passed" if code == 0 else f"killed (exit {code})"
        if test is None:
            tier1 = _tier1(tree, [])
        else:
            tier1 = _tier1(tree, [f"tests/{test}"])
            if tier1 == "passed":
                tier1 = _tier1(tree, []) if code == 0 else f"passed: {test}"
    killed = "killed" in fuzz or "killed" in tier1
    return fuzz, tier1, "killed" if killed else "SURVIVED"


def main() -> int:
    width = max(len(m[0]) for m in MUTANTS)
    print(f"{'mutant':<{width}}  {'fuzz':<16}  {'verdict':<8}  {'seconds':>7}  tier-1",
          flush=True)
    killed = 0
    start = time.perf_counter()
    test_ids = _test_ids()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        fuzz, tier1, verdict = run_mutant(mutant, test_ids)
        seconds = time.perf_counter() - t0
        killed += verdict == "killed"
        print(f"{mutant[0]:<{width}}  {fuzz:<16}  {verdict:<8}  {seconds:7.1f}  {tier1}",
              flush=True)
    total = time.perf_counter() - start
    print(f"{killed} of {len(MUTANTS)} killed in {total:.0f} s", flush=True)
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
