"""Seeded inputs for the three workloads, and the small independent
references the answers are checked against.

Nothing here imports `ordfa`: the trim mirror, the word runner and the
ordinal arithmetic below are separate re-implementations, so a check
built on them does not go through the route it checks.
"""

from __future__ import annotations

import json
import random
from collections import deque

# --- automata as plain lists ------------------------------------------------
#
# An automaton is (delta, start, finals) with delta a list of [on0, on1]
# rows, the same shape as the package's JSON file format.


def reach_from(delta, start):
    seen = {start}
    todo = deque(seen)
    while todo:
        q = todo.popleft()
        for t in delta[q]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def live_set(delta, finals):
    rev = [[] for _ in delta]
    for q, row in enumerate(delta):
        for t in row:
            rev[t].append(q)
    seen = set(finals)
    todo = deque(seen)
    while todo:
        q = todo.popleft()
        for p in rev[q]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def trimmed(delta, start, finals):
    """The trim automaton `ordfa.dfa.trim` must produce, or None when the
    language is empty.

    Kept states keep their relative order; every reachable dead state
    collapses onto the smallest one, which becomes the sink.
    """
    reach = reach_from(delta, start)
    live = live_set(delta, finals) & reach
    if start not in live:
        return None
    dead = reach - live
    sink_old = min(dead) if dead else None
    kept = sorted(live | ({sink_old} if dead else set()))
    index = {old: i for i, old in enumerate(kept)}
    sink = index.get(sink_old)
    rows = []
    for old in kept:
        if old == sink_old:
            rows.append((sink, sink))
        else:
            rows.append(tuple(index[t] if t in live else sink for t in delta[old]))
    new_finals = tuple(sorted(index[q] for q in finals if q in live))
    return tuple(rows), index[start], new_finals


def run_word(delta, q, word):
    for ch in word:
        q = delta[q][ch == "1"]
    return q


def accepts(delta, start, finals, word):
    return run_word(delta, start, word) in finals


def strictly_below(u, v):
    """u < v in the lexicographic order and u is not a prefix of v."""
    return u < v and not v.startswith(u)


def chain_descends(delta, start, finals, access, loop, tail, depth):
    """The words access (0 loop)^n 1 tail, n < depth, are all accepted and
    each is strictly below the one before."""
    prev = None
    for n in range(depth):
        word = access + ("0" + loop) * n + "1" + tail
        if not accepts(delta, start, finals, word):
            return False
        if prev is not None and not strictly_below(word, prev):
            return False
        prev = word
    return True


def has_word_between(delta, start, finals, lo, hi):
    """Some accepted word has length in [lo, hi)."""
    here = {start}
    for length in range(hi):
        if length >= lo and here & set(finals):
            return True
        here = {t for q in here for t in delta[q]}
    return False


def least_word(delta, start, finals):
    """Least accepted word of a well-ordered nonempty language: stop at
    a final state, else read 0 when that leads to a final state, else 1."""
    finals = set(finals)
    live = live_set(delta, finals)
    q, letters = start, []
    while q not in finals:
        b = 0 if delta[q][0] in live else 1
        letters.append("01"[b])
        q = delta[q][b]
    return "".join(letters)


# --- ordinals below w^w as coefficient lists (index = exponent) -------------


def ord_add(a, b):
    """Ordinal sum a + b: a keeps only its part at or above b's degree."""
    if not b:
        return list(a)
    d = len(b) - 1
    head = a[d] if d < len(a) else 0
    return list(b[:d]) + [head + b[d]] + list(a[d + 1:])


def ord_text(cs):
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        base = "" if k == 0 else "w" if k == 1 else f"w^{k}"
        if not base:
            parts.append(str(c))
        else:
            parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def ord_parse(text):
    """Coefficients of canonical text as `ord_text` writes it."""
    cs = []
    if text.strip() == "0":
        return cs
    for term in text.split("+"):
        term = term.strip()
        if term.startswith("w"):
            base, _, coeff = term.partition("*")
            exp = int(base[2:]) if base.startswith("w^") else 1
            c = int(coeff) if coeff else 1
        else:
            exp, c = 0, int(term)
        while len(cs) <= exp:
            cs.append(0)
        cs[exp] += c
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


# --- sweep ------------------------------------------------------------------

SWEEP_COUNT = 40_000


def sweep_inputs(seed, count=SWEEP_COUNT, lap=None, lap_every=4000):
    """`count` triples (delta, finals, trimmed form) of complete automata
    with 2 to 12 states and start 0.  `lap`, if given, is called after
    every `lap_every` of them, for the set-up's calibration probes.

    Even positions are uniform random.  Odd positions send every 0-edge
    strictly forward (the last state loops on 0) and most 1-edges
    forward or onto their own state, so about a quarter of them are
    well-ordered, many with infinite order types.
    Both the raw automata and their trimmed forms are pairwise distinct
    and no language is empty, so no analysis repeats within a pass.
    """
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        n = rng.randint(2, 12)
        if len(out) % 2:
            delta = [
                [
                    rng.randint(q + 1, n - 1) if q < n - 1 else q,
                    rng.randint(q, n - 1) if rng.random() < 0.8 else rng.randrange(n),
                ]
                for q in range(n)
            ]
        else:
            delta = [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]
        finals = [q for q in range(n) if rng.random() < 1 / 3]
        key = trimmed(delta, 0, finals)
        if key is None or key in seen:
            continue
        seen.add(key)
        out.append((delta, finals, key))
        if lap is not None and len(out) % lap_every == 0:
            lap()
    return out


# --- roundtrip --------------------------------------------------------------

ROUNDTRIP_COUNT = 150
MAX_DEGREE = 6
MAX_COEFF = 40


def _roundtrip_profile(count):
    """Coefficient lists for `count` ordinals, the same for every seed.

    Ordinal i has degree i mod 7.  For each exponent, the coefficients
    across the ordinals are one list spread from 0 to 40 and skewed
    toward small values, dealt out in a fixed shuffled order.  The
    leading coefficient is never 0.
    """
    rng = random.Random(0)
    degrees = [i % (MAX_DEGREE + 1) for i in range(count)]
    columns = []
    for k in range(MAX_DEGREE + 1):
        holders = [i for i in range(count) if degrees[i] >= k]
        h = len(holders)
        spread = [j * j * (MAX_COEFF + 1) // (h * h) for j in range(h)]
        rng.shuffle(spread)
        columns.append(dict(zip(holders, spread)))
    profile = []
    for i, d in enumerate(degrees):
        cs = [columns[k][i] for k in range(d + 1)]
        cs[d] = max(cs[d], 1)
        profile.append(cs)
    return profile


def roundtrip_inputs(seed, count=ROUNDTRIP_COUNT, jitter=3):
    """`count` ordinals with degree <= 6 and coefficients <= 40, as text.

    The work `synth` does grows faster than linearly with each term's
    coefficient times its exponent, so a free draw would make one seed
    much harder than another.  Each seed instead moves every nonzero
    coefficient of one fixed profile by up to `jitter` either way, widening
    the move until the ordinal differs from all earlier ones, and
    shuffles the order of the ordinals.
    """
    rng = random.Random(seed)
    out = []
    seen = set()
    for cs in _roundtrip_profile(count):
        d = len(cs) - 1
        reach = jitter
        while True:
            moved = [
                min(MAX_COEFF, max(1 if k == d else 0, c + rng.randint(-reach, reach)))
                if c else 0
                for k, c in enumerate(cs)
            ]
            text = ord_text(moved)
            if text not in seen:
                break
            reach += 1
        seen.add(text)
        out.append(text)
    rng.shuffle(out)
    return out


# --- large ------------------------------------------------------------------

UNIFORM_STATES = 100_000
WO_CHAIN = 40_000
WO_TOWER = 24  # loop nesting, well inside the exponent cap of 64
LONG_K = 8_000


def uniform_automaton(seed, n=UNIFORM_STATES):
    """Uniform random complete automaton; about a fifth of it is not
    reachable from the start, so trim does real work."""
    rng = random.Random(seed)
    delta = [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]
    finals = [q for q in range(n) if rng.random() < 1 / 3]
    return delta, 0, finals


def tower_chain(seed, chain=WO_CHAIN, tower=WO_TOWER):
    """Well-ordered automaton with about as many strong components as
    states, and its order types in closed form.

    A chain c_0 ..c_{N-1} reads 0 forward (c_{N-1} reads 0 into the
    sink); c_i reads 1 into tower state s_{k_i}.  Tower state s_j loops
    on 1 and reads 0 down to s_{j-1}; s_0 is final and leads to the
    sink, so s_j has type w^j.  The k_i never decrease along the chain,
    so L(c_0) has type  sum over e of w^e * (number of i with k_i = e),
    with the finite part of any final chain states absorbed.  Every
    state is its own strong component, so a state's height is the
    number of other states it reaches.
    Returns ((delta, start, finals), per-state types as coefficients,
    per-state heights).
    """
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, chain), tower))
    ks = []
    e = 0
    for i in range(chain):
        while e < tower and cuts[e] <= i:
            e += 1
        ks.append(e)
    # states: chain 0..N-1, tower N..N+tower, sink N+tower+1.
    sink = chain + tower + 1
    s = [chain + j for j in range(tower + 1)]
    delta = []
    finals = []
    for i in range(chain):
        delta.append([i + 1 if i + 1 < chain else sink, s[ks[i]]])
        if i and rng.random() < 0.5:
            finals.append(i)
    delta.append([sink, sink])  # s_0
    finals.append(s[0])
    for j in range(1, tower + 1):
        delta.append([s[j - 1], s[j]])
    delta.append([sink, sink])
    final_set = set(finals)
    types = [None] * len(delta)
    types[sink] = []
    for j in range(tower + 1):
        types[s[j]] = [0] * j + [1]
    after = []
    for i in range(chain - 1, -1, -1):
        after = ord_add(ord_add([1] if i in final_set else [], after), types[s[ks[i]]])
        types[i] = after
    heights = [chain - i + tower + 1 for i in range(chain)]
    heights += [j + 1 for j in range(tower + 1)] + [0]
    return (delta, 0, finals), types, heights


def long_word_automaton(seed, k=LONG_K):
    """{0^k, 1} with its k + 3 states numbered in a seeded order."""
    rng = random.Random(seed)
    names = list(range(k + 3))
    rng.shuffle(names)
    # logical states: chain 0..k, one final state f = k + 1, sink k + 2.
    f, sink = k + 1, k + 2
    logical = []
    for i in range(k):
        logical.append((i + 1, f if i == 0 else sink))
    logical.append((sink, sink))  # 0^k accepted here
    logical.append((sink, sink))  # f
    logical.append((sink, sink))
    delta = [None] * (k + 3)
    for i, (a, b) in enumerate(logical):
        delta[names[i]] = [names[a], names[b]]
    return delta, names[0], sorted([names[k], names[f]])


def automaton_json(delta, start, finals):
    return json.dumps({"start": start, "finals": finals, "delta": delta})


def large_commands(k=LONG_K):
    """The `large` workload's CLI invocations: (name, argv) with file
    names relative to the directory holding the generated files."""
    zeros = "0" * k
    return [
        ("check-uniform", ["check", "uniform.json"]),
        ("witness-uniform", ["witness", "uniform.json", "--verify", "32"]),
        ("trim-uniform", ["trim", "uniform.json", "-o", "uniform-trimmed.json"]),
        ("check-wellordered", ["check", "wellordered.json"]),
        ("ordtype-wellordered", ["ordtype", "wellordered.json", "--table"]),
        ("min-wellordered", ["min", "wellordered.json"]),
        ("dot-wellordered", ["dot", "wellordered.json"]),
        ("succ-long", ["succ", "longword.json", "-w", zeros]),
        ("enum-long", ["enum", "longword.json", "-n", "2"]),
        ("rank-long", ["rank", "longword.json", "-w", zeros + "1"]),
    ]
