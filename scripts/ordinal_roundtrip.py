#!/usr/bin/env python3
"""Synthesize automata for ordinals and read their types back.

Prints, for each ordinal given on the command line (or a default
showcase), the synthesized automaton's size, the recovered order type,
and the first few words of the language in order.

    python3 scripts/ordinal_roundtrip.py "w^3 + w*2" "w + 4"
"""

import argparse
import reprlib
import sys

from ordfa.lexorder import enumerate_words
from ordfa.ordinal import DegreeOverflowError, OrdinalParseError, format_ordinal, parse_ordinal
from ordfa.ordtype import order_type
from ordfa.synth import synth

SHOWCASE = [
    "0", "1", "5", "w", "w + 1", "w*3", "w^2", "w^2*3 + w + 4", "w^4 + w^2*2 + 7",
    "1000000",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ordinals", nargs="*", default=SHOWCASE, metavar="ORDINAL")
    ap.add_argument("--words", type=int, default=6, help="words to enumerate")
    args = ap.parse_args()
    if args.words < 0:
        ap.error(f"--words must be at least 0, got {args.words}")
    ordinals = []
    for text in args.ordinals:
        try:
            ordinals.append(parse_ordinal(text))
        except (OrdinalParseError, DegreeOverflowError) as e:
            # reprlib elides the middle of a long input, to keep one short line.
            print(f"error: bad ordinal {reprlib.repr(text)}: {e}", file=sys.stderr)
            return 2

    width = max(len(text) for text in args.ordinals)
    failures = 0
    for text, a in zip(args.ordinals, ordinals):
        m = synth(a)
        back = order_type(m).overall
        if back != a:
            failures += 1
        # One word beyond the count tells whether the listing goes on.
        words = enumerate_words(m, args.words + 1)
        shown = [w if w else "(eps)" for w in words[: args.words]]
        if len(words) > args.words:
            shown.append("...")
        listing = ", ".join(shown) if shown else "(empty)"
        mark = "ok" if back == a else "MISMATCH"
        print(
            f"{text:<{width}}  states={m.state_count:<3} "
            f"back={format_ordinal(back):<16} {mark}  {listing}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
