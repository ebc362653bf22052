"""Reference checks of a pass's answers, run outside the timed region.

Each checker takes the workload's generated truth and the answers of
one pass, and returns the number of operations whose answer is wrong.
The references are the package's oracles (`naive_check`, `brute_rank`,
which reach their results without the condensation, the order-type
fold or the ordinal machinery) and the independent code in `gen`.
"""

from __future__ import annotations

import json

import gen
from worker import ROUNDTRIP_ENUM, ROUNDTRIP_RANK_EVERY, SWEEP_ENUM

ORACLE_CAP = 20  # the oracle's default enumeration bound


def _finite(n):
    return [n] if n else []


def check_sweep(truth, answers):
    from ordfa.dfa import Dfa
    from ordfa.oracle import brute_rank, naive_check

    bad = 0
    for (delta, finals, key), line in zip(truth, answers, strict=True):
        ans = json.loads(line)
        rows, start, fin = key
        m = Dfa(delta=rows, start=start, finals=fin)
        ref = naive_check(m)
        finals = set(finals)
        if ans[0] == "no":
            w = ref.witness
            ok = (
                not ref.well_ordered
                and ans[1:5] == [w.access, w.loop, w.tail, w.state]
                and ans[5] is True
                and gen.chain_descends(delta, 0, finals, w.access, w.loop, w.tail, 4)
            )
        elif ans[0] == "yes":
            ok = ref.well_ordered and _sweep_positive_ok(delta, finals, m, ans, brute_rank)
        else:
            ok = False
        bad += not ok
    return bad


def _sweep_positive_ok(delta, finals, m, ans, brute_rank):
    _, coeffs, words, ranks = ans
    n = m.state_count
    if not all(gen.accepts(delta, 0, finals, w) for w in words):
        return False
    if any(not u < v for u, v in zip(words, words[1:])):
        return False
    if ranks != [_finite(i) for i in range(len(words))]:
        return False
    for i, w in enumerate(words):
        bound = len(w) + n
        if bound <= ORACLE_CAP and brute_rank(m, w, bound) != i:
            return False
    if len(coeffs) <= 1:
        # A finite language of an n-state trim automaton has no word of
        # length n or more, so counting up to n counts all of it.
        total = coeffs[0] if coeffs else 0
        if brute_rank(m, "1" * (n + 1), n) != total:
            return False
        return len(words) == min(total, SWEEP_ENUM)
    return len(words) == SWEEP_ENUM and gen.has_word_between(delta, 0, finals, n, 2 * n)


def check_roundtrip(truth, answers):
    bad = 0
    for text, line in zip(truth, answers, strict=True):
        ans = json.loads(line)
        if ans[0] == "error":
            bad += 1
            continue
        parsed, back, shown, least, words, ranks, accepted, _states = ans
        want = gen.ord_parse(text)
        total = want[0] if len(want) == 1 else None if want else 0
        ok = (
            parsed == want
            and back == want
            and shown == text
            and gen.ord_parse(shown) == want
            and accepted
            and (not words or least == words[0])
            and all(u < v for u, v in zip(words, words[1:]))
            and ranks == [_finite(i) for i in range(0, len(words), ROUNDTRIP_RANK_EVERY)]
            and len(words) == (ROUNDTRIP_ENUM if total is None else min(total, ROUNDTRIP_ENUM))
        )
        bad += not ok
    return bad


def _witness_words(text):
    """(access, loop, tail) from the CLI's witness lines."""
    found = {}
    for line in text.splitlines():
        for label in ("x", "u", "v"):
            if line.strip().startswith(f"{label} ("):
                word = line.split("=", 1)[1].strip()
                found[label] = "" if word == "(eps)" else word
    return found.get("x"), found.get("u"), found.get("v")


def _uniform_negative_ok(truth, code, out, depth):
    delta, start, finals = truth["uniform"]
    lines = out.splitlines()
    access, loop, tail = _witness_words(out)
    return (
        code == 3
        and lines[:1] == ["not well-ordered"]
        and None not in (access, loop, tail)
        and gen.chain_descends(delta, start, set(finals), access, loop, tail, depth)
    )


def check_large(truth, outputs):
    """outputs: one (exit code, stdout, written file or None) per entry of
    `gen.large_commands`, in order."""
    k = truth["k"]
    types = truth["types"]
    wo_delta, wo_start, wo_finals = truth["wellordered"]
    bad = 0
    for (name, _argv), (code, out, written) in zip(gen.large_commands(k), outputs, strict=True):
        lines = out.splitlines()
        if name == "check-uniform":
            ok = _uniform_negative_ok(truth, code, out, 33)
        elif name == "witness-uniform":
            ok = _uniform_negative_ok(truth, code, out, 33) and lines[-1:] == [
                "verified to depth 32: ok"
            ]
        elif name == "trim-uniform":
            want = gen.trimmed(*truth["uniform"])
            try:
                doc = json.loads(written)
                got = (tuple(map(tuple, doc["delta"])), doc["start"], tuple(doc["finals"]))
            except (TypeError, ValueError, KeyError):  # missing or malformed file
                got = None
            ok = (
                code == 0
                and lines[:1] == [f"states: {len(truth['uniform'][0])} -> {len(want[0])}"]
                and got == want
            )
        elif name == "check-wellordered":
            ok = code == 0 and lines == ["well-ordered"]
        elif name == "ordtype-wellordered":
            rows = [f"{q}\t{h}\t{gen.ord_text(t)}" for q, (h, t) in
                    enumerate(zip(truth["heights"], types))]
            ok = code == 0 and lines == [
                gen.ord_text(types[wo_start]), "state\theight\tordinal", *rows
            ]
        elif name == "min-wellordered":
            want = gen.least_word(wo_delta, wo_start, wo_finals) or "(eps)"
            ok = code == 0 and lines == [want]
        elif name == "dot-wellordered":
            edges = 1 + sum(1 if a == b else 2 for a, b in wo_delta)
            ok = (
                code == 0
                and lines[:1] == ["digraph automaton {"]
                and lines[-1:] == ["}"]
                and sum(line.startswith("  subgraph cluster_") for line in lines)
                == len(wo_delta)
                and sum(" -> " in line for line in lines) == edges
            )
        elif name == "succ-long":
            ok = code == 0 and lines == ["1"]
        elif name == "enum-long":
            ok = code == 0 and lines == ["0" * k, "1"]
        elif name == "rank-long":
            ok = code == 0 and lines == ["1"]
        else:
            ok = False
        bad += not ok
    return bad
