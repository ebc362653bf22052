"""Command-line front end.

Exit codes: 0 on success (for `check`: well-ordered), 3 when the
analyzed language is not well-ordered or has no least word, 2 on
malformed input, 1 when a fuzz run finds a disagreement, 4 when the
output cannot be written or standard output is closed (one `error:`
line on standard error), and 141 (128 + SIGPIPE, as for a process
that signal ends) without a message when the reader of standard
output closed it early, as `ordfa enum big.json -n 20000 | head -1`
does.  With standard error closed, the `error:` lines are dropped and
the exit codes stay the same.  Commands that analyze an automaton trim
it first; trimming never changes the language.  The empty word prints
as "(eps)".
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import reprlib
import sys

from . import dfa, lexorder, ordinal, ordtype, wellorder
from .synth import synth as synthesize

EXIT_OK = 0
EXIT_FUZZ_FAILED = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_OUTPUT = 4
EXIT_CLOSED_PIPE = 141


class InputError(Exception):
    pass


def _fmt_word(w: str) -> str:
    return w if w else "(eps)"


def _parse_word(text: str) -> str:
    if text == "(eps)":
        return ""
    try:
        return dfa.validate_word(text)
    except ValueError as e:
        # reprlib elides the middle of a long input, to keep one short line.
        raise InputError(f"bad word {reprlib.repr(text)}: {e}") from e


def _load(path: str) -> dfa.Dfa:
    try:
        return dfa.load(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except (OSError, dfa.DfaFormatError) as e:
        raise InputError(f"{path}: {e}") from e


def _load_trimmed(path: str) -> dfa.Dfa:
    return dfa.trim(_load(path)).trimmed


def _print_witness(w: wellorder.Witness) -> None:
    print(f"witness state: {w.state}")
    print(f"  x (start to state)   = {_fmt_word(w.access)}")
    print(f"  u (0-loop back)      = {_fmt_word(w.loop)}")
    print(f"  v (accepted after 1) = {_fmt_word(w.tail)}")
    chain = ", ".join(
        _fmt_word(wellorder.witness_chain(w, n)) for n in range(5)
    )
    print(f"  chain x(0u)^n 1v: {chain}, ...")


def _cmd_check(args) -> int:
    """`check`, and `witness`, which also replays the chain to --verify."""
    if args.command == "witness" and args.verify < 0:
        raise InputError(f"--verify must be at least 0, got {args.verify}")
    m = _load_trimmed(args.file)
    result = wellorder.check(m)
    if result.well_ordered:
        print("well-ordered")
        return EXIT_OK
    print("not well-ordered")
    _print_witness(result.witness)
    if args.command == "witness":
        failure = wellorder.witness_failure(m, result.witness, args.verify)
        if failure is None:
            print(f"verified to depth {args.verify}: ok")
        else:
            print(f"verification failed: {failure}")
    return EXIT_NEGATIVE


def _cmd_ordtype(args) -> int:
    m = _load_trimmed(args.file)
    # Heights before types, so the two passes' peaks do not add up.
    # The height pass holds only the masks its frontier still needs
    # (see `dfa.condense`).
    cond = dfa.condense(m) if args.table else None
    table = ordtype.order_type(m)
    print(ordinal.format_ordinal(table.overall))
    if cond is not None:
        fmt = ordinal.format_ordinal
        sys.stdout.write("state\theight\tordinal\n" + "".join([
            f"{q}\t{h}\t{fmt(t)}\n"
            for q, (h, t) in enumerate(zip(cond.height_of, table.per_state))
        ]))
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        a = ordinal.parse_ordinal(args.ordinal)
    except (ordinal.OrdinalParseError, ordinal.DegreeOverflowError) as e:
        raise InputError(f"bad ordinal {reprlib.repr(args.ordinal)}: {e}") from e
    m = synthesize(a)
    text = dfa.to_json(m)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({m.state_count} states)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_enum(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be at least 0, got {args.count}")
    m = _load_trimmed(args.file)
    # Each word is printed as it is found, so a reader that stops early
    # stops the walk; `range` leads, so no word past the count is sought.
    for _, w in zip(range(args.count), lexorder.iter_words(m)):
        print(_fmt_word(w))
    return EXIT_OK


def _cmd_rank(args) -> int:
    m = _load_trimmed(args.file)
    w = _parse_word(args.word)
    print(ordinal.format_ordinal(ordtype.rank(m, w)))
    return EXIT_OK


def _cmd_min(args) -> int:
    m = _load_trimmed(args.file)
    try:
        w = lexorder.min_word(m)
    except lexorder.NoMinimumError as e:
        print(f"no minimum: {e}")
        return EXIT_NEGATIVE
    print("(empty language)" if w is None else _fmt_word(w))
    return EXIT_OK


def _cmd_succ(args) -> int:
    m = _load_trimmed(args.file)
    nxt = lexorder.successor(m, _parse_word(args.word))
    print("(none)" if nxt is None else _fmt_word(nxt))
    return EXIT_OK


def _cmd_trim(args) -> int:
    m = _load(args.file)
    report = dfa.trim(m)
    dfa.dump(report.trimmed, args.output)
    print(f"states: {m.state_count} -> {report.trimmed.state_count}")

    def show(label, values):
        body = " ".join(str(q) for q in sorted(values)) if values else "(none)"
        print(f"{label}: {body}")

    show("removed unreachable", report.removed_unreachable)
    show("merged into sink", report.merged_into_sink)
    print(f"sink: {report.sink if report.sink is not None else '(none)'}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _read_chain(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise InputError(f"{path}: {e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e}") from e
    words = []
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            words.append(_parse_word(text))
        except InputError as e:
            raise InputError(f"{path}:{i}: {e}") from e
    return words


def _cmd_analyze_chain(args) -> int:
    words = _read_chain(args.file)
    try:
        analysis = lexorder.analyze_chain(words)
    except lexorder.NotStrictChainError as e:
        raise InputError(str(e)) from e
    print("# times are 1-based; positions are 0-based")
    print("active:")
    for pos, t in analysis.active:
        print(f"  time {t}: position {pos}")
    print("sequence:")
    for k, (i_k, t_k) in enumerate(analysis.sequence):
        print(f"  i_{k} = {i_k} at t_{k} = {t_k}")
    return EXIT_OK


def _cmd_dot(args) -> int:
    m = _load_trimmed(args.file)
    sys.stdout.write(render_dot(m))
    return EXIT_OK


def render_dot(m: dfa.Dfa) -> str:
    """Graphviz text for the automaton, states clustered by strong
    component (labeled with the component's height), dead states filled
    grey: the one sink of a trim automaton, every dead state of another.
    One f-string per cluster head, per state and per row of the table."""
    cond = dfa.condense(m)
    height_of, live, finals = cond.height_of, m.analysis.live, m.finals
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
    ]
    for cid, members in enumerate(cond.components):
        lines.append(
            f"  subgraph cluster_{cid} {{\n"
            f'    label="C{cid} (height {height_of[members[0]]})";'
        )
        for q in members:
            shape = "doublecircle" if q in finals else "circle"
            fill = "" if live[q] else ", style=filled, fillcolor=lightgrey"
            lines.append(f"    q{q} [shape={shape}{fill}];")
        lines.append("  }")
    lines.append(f"  __start -> q{m.start};")
    for q, (a, b) in enumerate(m.delta):
        if a == b:
            lines.append(f'  q{q} -> q{a} [label="0,1"];')
        else:
            lines.append(f'  q{q} -> q{a} [label="0"];\n  q{q} -> q{b} [label="1"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_fuzz(args) -> int:
    if args.states < 1:
        raise InputError(f"--states must be at least 1, got {args.states}")
    seeds = 100 if args.seeds is None else args.seeds
    if seeds < 0:
        raise InputError(f"--seeds must be at least 0, got {seeds}")
    from . import oracle  # only `fuzz` needs it: not loaded at start-up

    report = oracle.fuzz(seeds, args.states, exhaustive=args.exhaustive)
    sys.stdout.write(report.to_tsv())
    return EXIT_OK if report.ok else EXIT_FUZZ_FAILED


def _cmd_embed(args) -> int:
    try:
        print(_fmt_word(lexorder.embed3to2(args.word)))
    except ValueError as e:
        raise InputError(str(e)) from e
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ordfa",
        description="Well-ordering analysis and ordinal order types for "
        "binary DFAs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="decide whether the language is well-ordered")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("ordtype", help="order type in Cantor normal form")
    s.add_argument("file")
    s.add_argument("--table", action="store_true", help="also print per-state types")
    s.set_defaults(fn=_cmd_ordtype)

    s = sub.add_parser("synth", help="synthesize an automaton for an ordinal")
    s.add_argument("ordinal", help='e.g. "w^2*3 + w + 4"')
    s.add_argument("-o", "--output", help="write JSON here instead of stdout")
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("enum", help="first words of the language in order")
    s.add_argument("file")
    s.add_argument("-n", "--count", type=int, required=True)
    s.set_defaults(fn=_cmd_enum)

    s = sub.add_parser("rank", help="ordinal position of a word in the language")
    s.add_argument("file")
    s.add_argument("-w", "--word", required=True, help='binary word, "(eps)" for the empty word')
    s.set_defaults(fn=_cmd_rank)

    s = sub.add_parser("min", help="least accepted word")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_min)

    s = sub.add_parser("succ", help="least accepted word above the given one")
    s.add_argument("file")
    s.add_argument("-w", "--word", required=True)
    s.set_defaults(fn=_cmd_succ)

    s = sub.add_parser("trim", help="remove unreachable states, merge dead ones")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=_cmd_trim)

    s = sub.add_parser("witness", help="show and replay the descending chain")
    s.add_argument("file")
    s.add_argument("--verify", type=int, default=32, metavar="N",
                   help="replay depth (default 32)")
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("analyze-chain", help="flip structure of a word file")
    s.add_argument("file", help='one word per line, "(eps)" for the empty word')
    s.set_defaults(fn=_cmd_analyze_chain)

    s = sub.add_parser("dot", help="Graphviz rendering with components")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_dot)

    s = sub.add_parser("fuzz", help="differential sweep against the oracles")
    s.add_argument("--states", type=int, default=6)
    # argparse ignores an option whose value is its default object (and
    # small ints are cached), so --seeds defaults to None: that way
    # "--seeds 100 --exhaustive" is rejected too.
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--seeds", type=int, help="random automata (default 100)")
    mode.add_argument("--exhaustive", action="store_true",
                      help="walk all trim automata up to --states states")
    s.set_defaults(fn=_cmd_fuzz)

    s = sub.add_parser("embed", help="embed a ternary word into binary")
    s.add_argument("word")
    s.set_defaults(fn=_cmd_embed)

    return p


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.fn(args)
    except ordtype.NotWellOrderedError as e:
        print("not well-ordered")
        _print_witness(e.witness)
        return EXIT_NEGATIVE
    except lexorder.NoMinimumError as e:
        print(f"not well-ordered: {e}")
        return EXIT_NEGATIVE
    except ordinal.OrdinalRangeError as e:
        where = f"{args.file}: " if hasattr(args, "file") else ""
        _print_error(f"{where}order type out of range: {e}")
        return EXIT_INPUT
    except (InputError, dfa.NotTrimError) as e:
        _print_error(str(e))
        return EXIT_INPUT


def _discard(stream) -> None:
    """Point the stream's file descriptor at the null device, so that the
    flush at interpreter exit cannot fail again on what is still buffered."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor: nothing to redirect
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _print_error(message: str) -> None:
    """One `error:` line on standard error, or nothing when it is closed:
    the exit code still tells what went wrong."""
    if sys.stderr is None:  # what Python sets when fd 2 was closed
        return
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


def main(argv=None) -> int:
    # A command builds large acyclic structures (the parsed file, its
    # analysis, its tables) that the cyclic garbage collector would scan
    # again and again while they grow; a run leaves no cycles but its
    # argument parser's.  So the collector is off for the run, and is
    # switched back on for a caller that had it on.
    collecting = gc.isenabled()
    gc.disable()
    # Inputs are read through `_load` and `_read_chain`, which turn read
    # errors into InputError, so an OSError here came from writing.
    try:
        if sys.stdout is None:  # what Python sets when fd 1 was closed
            raise OSError(errno.EBADF, "standard output is closed")
        code = _run(argv)
        sys.stdout.flush()  # fail here, not in the flush at exit
        return code
    except OSError as e:
        _discard(sys.stdout)
        if isinstance(e, BrokenPipeError):
            return EXIT_CLOSED_PIPE
        _print_error(f"cannot write output: {e}")
        return EXIT_OUTPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
