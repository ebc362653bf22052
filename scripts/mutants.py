#!/usr/bin/env python3
"""Mutation run: do the differential fuzz and the tier-1 suite catch a
fixed list of one-line mutants of the program?

    python3 scripts/mutants.py

For each mutant the tree (src/, tests/, scripts/ and pyproject.toml) is
copied to a temporary directory and one line is replaced there; the
checkout itself is never written.  Then `ordfa fuzz --seeds 2000
--states 8` runs, and the tier-1 suite with -x, each in a fresh
interpreter.  One row per mutant: whether fuzz exited nonzero, the
first tier-1 test that failed, the verdict and the mutant's seconds.
A closing line gives the number killed and the run's total time.  A
mutant is killed when either one fails; a surviving mutant costs a
full tier-1 run.
The exit status is 1 when a mutant survives or its line is no longer
in the source.
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

# (name, file, line as it stands, line as mutated): the line must occur
# exactly once in its file, as a whole line.
MUTANTS = [
    ("shortest-word-tries-1-first", "src/ordfa/dfa.py",
     "        for t in delta[q]:  # 0 before 1",
     "        for t in reversed(delta[q]):  # 0 before 1"),
    ("sink-at-the-last-dead-component", "src/ordfa/dfa.py",
     "        first = k = ids[dead[0]]  # `dead` is in emission order",
     "        first = k = ids[dead[-1]]  # `dead` is in emission order"),
    ("cycle-type-without-the-lap-power", "src/ordfa/ordtype.py",
     "            t = Ordinal.omega_power(1 + d)",
     "            t = Ordinal.omega_power(d)"),
    ("cycle-keeps-the-last-exit-degree", "src/ordfa/ordtype.py",
     "                d = max(d, types[x].degree)",
     "                d = types[x].degree"),
    ("to-json-writes-no-empty-list", "src/ordfa/dfa.py",
     "    if finals:",
     "    if True:"),
    ("trim-fast-path-takes-two-dead-states", "src/ordfa/dfa.py",
     "    if not unreachable and len(dead) <= 1:  # m is trim",
     "    if not unreachable and len(dead) <= 2:  # m is trim"),
    ("condense-frees-a-mask-at-its-first-reader", "src/ordfa/dfa.py",
     "                if last[jt] == j:",
     "                if last[jt] >= j:"),
    ("format-keeps-ascending-terms", "src/ordfa/ordinal.py",
     "        parts.reverse()",
     "        pass"),
    ("table-rows-without-heights", "src/ordfa/cli.py",
     '            f"{q}\\t{h}\\t{fmt(t)}\\n"',
     '            f"{q}\\t{q}\\t{fmt(t)}\\n"'),
    ("roundtrip-dots-at-the-count", "scripts/ordinal_roundtrip.py",
     "        if len(words) > args.words:",
     "        if len(words) >= args.words:"),
    ("next-word-at-the-first-branch-point", "src/ordfa/lexorder.py",
     '    while (i := w.rfind("0", 0, i)) >= 0:',
     '    while (i := w.find("0", 0, i)) >= 0:'),
    ("sum-swaps-the-start-row", "src/ordfa/synth.py",
     "    rows.append((m1.start, m2.start + n1))",
     "    rows.append((m2.start + n1, m1.start))"),
    ("check-flags-a-dead-1-exit", "src/ordfa/wellorder.py",
     "        if live[on1] and ids[q] == ids[on0]:",
     "        if ids[q] == ids[on0]:"),
    ("live-rule-ignores-the-1-edge", "src/ordfa/dfa.py",
     "                            is_live = w in finals or live[a] or live[b]",
     "                            is_live = w in finals or live[a]"),
    ("rank-keeps-the-count-at-an-infinite-exit", "src/ordfa/ordtype.py",
     "                n = 0",
     "                pass"),
    ("sum-keeps-the-right-coefficient", "src/ordfa/ordinal.py",
     "        return _normal(b[:d] + (a_d + b[d],) + a[d + 1 :])",
     "        return _normal(b[:d] + (b[d],) + a[d + 1 :])"),
    ("sum-drops-the-left-high-terms", "src/ordfa/ordinal.py",
     "        return _normal(b[:d] + (a_d + b[d],) + a[d + 1 :])",
     "        return _normal(b[:d] + (a_d + b[d],))"),
    ("int-sum-drops-the-left-summand", "src/ordfa/ordinal.py",
     "                return _normal((a[0] + other,) + a[1:] if a else (other,))",
     "                return _normal((other,))"),
    ("omega-power-writes-the-coefficient-first", "src/ordfa/ordinal.py",
     "            return _normal((0,) * k + (coeff,))",
     "            return _normal((coeff,) + (0,) * k)"),
    ("exhaustive-takes-two-dead-states", "src/ordfa/oracle.py",
     "                if dead <= 1:",
     "                if dead <= 2:"),
    ("error-line-without-standard-error-goes-to-stdout", "src/ordfa/cli.py",
     "    if sys.stderr is None:  # what Python sets when fd 2 was closed",
     "    if False:"),
    ("replay-reads-the-tail-without-its-1", "src/ordfa/wellorder.py",
     "        s = row[1]",
     "        s = state"),
    ("replay-steps-without-the-0", "src/ordfa/wellorder.py",
     "        s = row[0]",
     "        s = state"),
    ("min-word-of-the-empty-language-is-eps", "src/ordfa/lexorder.py",
     "    return next(iter_words(m), None)",
     '    return next(iter_words(m), "")'),
    ("naive-check-follows-the-1-edge", "src/ordfa/oracle.py",
     "        if q != snk and on1 != snk and clo[on0] >> q & 1:",
     "        if q != snk and on1 != snk and clo[on1] >> q & 1:"),
    ("analysis-as-a-plain-property", "src/ordfa/dfa.py",
     "    @functools.cached_property",
     "    @property"),
    ("less-than-compares-with-at-most", "src/ordfa/ordinal.py",
     "        return (len(a), a[::-1]) < (len(b), b[::-1])",
     "        return (len(a), a[::-1]) <= (len(b), b[::-1])"),
    ("omega-power-takes-any-exponent-type", "src/ordfa/ordinal.py",
     "        if type(k) is not int or k < 0:",
     "        if k < 0:"),
    ("enumerate-words-takes-one-more", "src/ordfa/lexorder.py",
     "    return [w for _, w in zip(range(n), iter_words(m))]",
     "    return [w for _, w in zip(range(n + 1), iter_words(m))]"),
    ("enum-command-takes-one-more", "src/ordfa/cli.py",
     "    for _, w in zip(range(args.count), lexorder.iter_words(m)):",
     "    for _, w in zip(range(args.count + 1), lexorder.iter_words(m)):"),
    ("enumerate-words-looks-past-the-count", "src/ordfa/lexorder.py",
     "    return [w for _, w in zip(range(n), iter_words(m))]",
     "    return [w for w, _ in zip(iter_words(m), range(n))]"),
    ("enum-command-looks-past-the-count", "src/ordfa/cli.py",
     "    for _, w in zip(range(args.count), lexorder.iter_words(m)):",
     "    for w, _ in zip(lexorder.iter_words(m), range(args.count)):"),
    ("brute-rank-reads-letters-swapped", "src/ordfa/oracle.py",
     '        q = m.delta[q][ch == "1"]',
     '        q = m.delta[q][ch == "0"]'),
    ("descent-test-lets-equal-words-pass", "src/ordfa/lexorder.py",
     "        if not words[i] < words[i - 1]:",
     "        if words[i] > words[i - 1]:"),
    ("fuzz-drops-the-type-above-start-check", "src/ordfa/oracle.py",
     "    if any(table.overall < t for t in table.per_state):",
     "    if False:"),
    ("fuzz-rank-order-lets-equal-ranks-pass", "src/ordfa/oracle.py",
     "    if any(not r < s for (_, r), (_, s) in zip(ranked, ranked[1:])):",
     "    if any(not r <= s for (_, r), (_, s) in zip(ranked, ranked[1:])):"),
    ("dfa-lets-a-1-target-out-of-range", "src/ordfa/dfa.py",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n):"),
    ("walk-does-not-pass-low-up", "src/ordfa/dfa.py",
     "                low = lv",
     "                pass"),
    ("trim-lists-removed-states-only-with-dead-ones", "src/ordfa/dfa.py",
     "    return TrimReport(trimmed, frozenset(removed), frozenset(merged), sink)",
     "    return TrimReport(trimmed, frozenset(removed if dead else ()), frozenset(merged), sink)"),
    ("check-takes-several-dead-states", "src/ordfa/wellorder.py",
     "    if a.unreachable or len(a.dead) > 1:",
     "    if a.unreachable:"),
    ("synth-times-takes-any-multiplier-type", "src/ordfa/synth.py",
     "    if type(c) is not int or c < 1:",
     "    if c < 1:"),
    ("check-reads-the-0-edge-liveness", "src/ordfa/wellorder.py",
     "        if live[on1] and ids[q] == ids[on0]:",
     "        if live[on0] and ids[q] == ids[on0]:"),
    ("dot-greys-the-live-states", "src/ordfa/cli.py",
     '            fill = "" if live[q] else ", style=filled, fillcolor=lightgrey"',
     '            fill = "" if not live[q] else ", style=filled, fillcolor=lightgrey"'),
    ("coerce-keeps-a-zero-coefficient", "src/ordfa/ordinal.py",
     "        return _normal((other,)) if other else _ZERO",
     "        return _normal((other,))"),
    ("one-state-component-ignores-the-1-edge", "src/ordfa/dfa.py",
     "                    if v in finals or live[a] or live[b]:",
     "                    if v in finals or live[a]:"),
    ("one-state-component-stays-visible-to-the-low-test", "src/ordfa/dfa.py",
     "                    index[v] = done",
     "                    pass"),
    ("trim-renumbers-only-past-one-merged-state", "src/ordfa/dfa.py",
     "    if merged:",
     "    if len(merged) > 1:"),
    ("condense-skips-an-exit-it-shares-a-bit-with", "src/ordfa/dfa.py",
     "                if common == u:  # u adds nothing",
     "                if common:  # u adds nothing"),
    ("condense-takes-a-covering-mask-without-its-bit", "src/ordfa/dfa.py",
     "                    h = heights[jt] + 1",
     "                    h = heights[jt]"),
    ("condense-counts-a-union-as-its-larger-part", "src/ordfa/dfa.py",
     "                    h = mask.bit_count()",
     "                    h = max(h, heights[jt] + 1)"),
    ("dfa-equality-ignores-the-finals", "src/ordfa/dfa.py",
     "        return (self.delta, self.start, self.finals) == (other.delta, other.start, other.finals)",
     "        return (self.delta, self.start) == (other.delta, other.start)"),
    ("dfa-hash-ignores-the-finals", "src/ordfa/dfa.py",
     "        return hash((self.delta, self.start, self.finals))",
     "        return hash((self.delta, self.start))"),
    ("trim-walks-from-every-root", "src/ordfa/dfa.py",
     "    ids, live, reached, dead, unreachable = _tarjan(m, False)",
     "    ids, live, reached, dead, unreachable = _tarjan(m, True)"),
    ("trim-leaves-a-trim-input-without-its-memo", "src/ordfa/dfa.py",
     '        m.__dict__.setdefault("analysis", a)',
     "        pass"),
    ("shortest-word-shortcut-tries-1-first", "src/ordfa/dfa.py",
     "    if a in targets:",
     "    if a in targets and b not in targets:"),
    ("unchecked-drops-the-memo-it-is-given", "src/ordfa/dfa.py",
     "        if analysis is not None:",
     "        if False:"),
    ("dfa-lets-a-1-target-equal-to-the-state-count", "src/ordfa/dfa.py",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):",
     "                if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b <= n):"),
    ("dfa-names-a-short-row-by-its-targets", "src/ordfa/dfa.py",
     "        if len(row) != 2:",
     "        if len(row) > 2:"),
    ("trim-takes-a-sink-at-index-0-as-none", "src/ordfa/dfa.py",
     "        elif sink is None:",
     "        elif not sink:"),
    ("replay-steps-on-the-1-edge", "src/ordfa/wellorder.py",
     "        s = row[0]",
     "        s = row[1]"),
    ("trim-reference-leaves-a-second-dead-state-unmerged", "src/ordfa/oracle.py",
     "    merged = dead[1:]",
     "    merged = dead[2:]"),
    ("trim-reference-keeps-an-unreached-final-state", "src/ordfa/oracle.py",
     "    reach = clo[0]",
     "    reach = clo[0] | finals"),
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
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named)"


def run_mutant(mutant) -> tuple[str, str, str]:
    """(fuzz column, tier-1 column, verdict) for one mutant."""
    _, path, old, new = mutant
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
        code, output = _run(tree, TIER1)
        tier1 = "passed" if code == 0 else f"killed: {_first_failure(output)}"
    killed = "killed" in fuzz or "killed" in tier1
    return fuzz, tier1, "killed" if killed else "SURVIVED"


def main() -> int:
    width = max(len(m[0]) for m in MUTANTS)
    print(f"{'mutant':<{width}}  {'fuzz':<16}  {'verdict':<8}  {'seconds':>7}  tier-1",
          flush=True)
    killed = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        fuzz, tier1, verdict = run_mutant(mutant)
        seconds = time.perf_counter() - t0
        killed += verdict == "killed"
        print(f"{mutant[0]:<{width}}  {fuzz:<16}  {verdict:<8}  {seconds:7.1f}  {tier1}",
              flush=True)
    total = time.perf_counter() - start
    print(f"{killed} of {len(MUTANTS)} killed in {total:.0f} s", flush=True)
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
