import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys

import pytest

import ordfa
from ordfa import dfa, lexorder
from machines import M_0STAR1, M_CYCLE2, M_EPS, M_ONESTAR, M_ZERO_THEN_CHAIN
from ordfa.cli import EXIT_CLOSED_PIPE, EXIT_OUTPUT, main, render_dot
from ordfa.dfa import Dfa, dump, from_json, load
from ordfa.ordtype import order_type
from ordfa.ordinal import parse_ordinal


@pytest.fixture
def automaton_file(tmp_path):
    def write(m, name="machine.json"):
        path = tmp_path / name
        dump(m, str(path))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


###############################################################################
# check / witness
###############################################################################


def test_check_well_ordered(automaton_file, capsys):
    code, out, _ = run(capsys, "check", automaton_file(M_ONESTAR))
    assert code == 0
    assert out == "well-ordered\n"


def test_check_not_well_ordered(automaton_file, capsys):
    code, out, _ = run(capsys, "check", automaton_file(M_0STAR1))
    assert code == 3
    assert "not well-ordered" in out
    assert "witness state: 0" in out
    assert "x (start to state)   = (eps)" in out
    assert "chain x(0u)^n 1v: 1, 01, 001, 0001, 00001, ..." in out


def test_witness_replays_chain(automaton_file, capsys):
    code, out, _ = run(capsys, "witness", automaton_file(M_0STAR1), "--verify", "12")
    assert code == 3
    assert "verified to depth 12: ok" in out


def test_witness_rejects_negative_depth(automaton_file, capsys):
    code, out, err = run(capsys, "witness", automaton_file(M_0STAR1), "--verify", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --verify must be at least 0, got -3\n"


def test_witness_on_well_ordered(automaton_file, capsys):
    code, out, _ = run(capsys, "witness", automaton_file(M_CYCLE2))
    assert code == 0
    assert out == "well-ordered\n"


###############################################################################
# ordtype / rank
###############################################################################


def test_ordtype(automaton_file, capsys):
    code, out, _ = run(capsys, "ordtype", automaton_file(M_ONESTAR))
    assert code == 0
    assert out == "w\n"


def test_ordtype_table(automaton_file, capsys):
    code, out, _ = run(capsys, "ordtype", automaton_file(M_ONESTAR), "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w"
    assert lines[1] == "state\theight\tordinal"
    assert lines[2] == "0\t1\tw"
    assert lines[3] == "1\t0\t0"


def test_ordtype_not_well_ordered(automaton_file, capsys):
    code, out, _ = run(capsys, "ordtype", automaton_file(M_0STAR1))
    assert code == 3
    assert "not well-ordered" in out


def test_ordtype_trims_first(automaton_file, capsys):
    # reachable dead states collapse; language is {eps}, type 1
    m = Dfa(delta=((1, 2), (1, 2), (2, 1)), start=0, finals=frozenset({0}))
    code, out, _ = run(capsys, "ordtype", automaton_file(m))
    assert code == 0
    assert out == "1\n"


def test_rank(automaton_file, capsys):
    path = automaton_file(M_CYCLE2)
    assert run(capsys, "rank", path, "-w", "0100") == (0, "1\n", "")
    assert run(capsys, "rank", path, "-w", "(eps)") == (0, "0\n", "")
    assert run(capsys, "rank", path, "-w", "1") == (0, "w\n", "")


def test_rank_bad_word(automaton_file, capsys):
    code, _, err = run(capsys, "rank", automaton_file(M_CYCLE2), "-w", "012")
    assert code == 2
    assert "error" in err


def _omega_tower(height):
    """Loop states 0..height-1 (state i loops on 1 and reads 0 into i+1),
    a final state, and a sink: order type w^height."""
    final, sink = height, height + 1
    rows = [(i + 1, i) for i in range(height)] + [(sink, sink), (sink, sink)]
    return Dfa(delta=tuple(rows), start=0, finals=frozenset({final}))


def test_ordtype_and_rank_beyond_the_degree_bound(automaton_file, capsys):
    path = automaton_file(_omega_tower(65))
    for argv in (("ordtype", path), ("rank", path, "-w", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "degree 65 exceeds the bound 64" in err
    assert run(capsys, "ordtype", automaton_file(_omega_tower(64))) == (0, "w^64\n", "")


###############################################################################
# synth
###############################################################################


def test_synth_to_file(tmp_path, capsys):
    out_path = tmp_path / "synth.json"
    code, out, _ = run(capsys, "synth", "w^2", "-o", str(out_path))
    assert code == 0
    assert out == f"wrote {out_path} (4 states)\n"
    m = load(str(out_path))
    assert order_type(m).overall == parse_ordinal("w^2")
    # The same bytes as the text written to standard output.
    assert run(capsys, "synth", "w^2")[1].encode() == out_path.read_bytes()


def test_synth_to_stdout(capsys):
    code, out, _ = run(capsys, "synth", "w + 2")
    assert code == 0
    m = from_json(out)
    assert order_type(m).overall == parse_ordinal("w + 2")


def test_synth_bad_ordinal(capsys):
    code, _, err = run(capsys, "synth", "w^x")
    assert code == 2
    assert "bad ordinal" in err


@pytest.mark.parametrize("text, position", [("w^\u00b2", 2), ("\u00b2", 0)])
def test_synth_rejects_non_ascii_digits(capsys, text, position):
    code, out, err = run(capsys, "synth", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad ordinal")
    assert f"(at position {position})" in err
    assert len(err.splitlines()) == 1


###############################################################################
# enum / min / succ
###############################################################################


def test_enum(automaton_file, capsys):
    code, out, _ = run(capsys, "enum", automaton_file(M_CYCLE2), "-n", "3")
    assert code == 0
    assert out == "00\n0100\n010100\n"


def test_enum_prints_eps(automaton_file, capsys):
    code, out, _ = run(capsys, "enum", automaton_file(M_EPS), "-n", "2")
    assert code == 0
    assert out == "(eps)\n"


def test_enum_rejects_a_negative_count(automaton_file, capsys):
    path = automaton_file(M_CYCLE2)
    code, out, err = run(capsys, "enum", path, "-n", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --count must be at least 0, got -3\n"
    assert run(capsys, "enum", path, "-n", "0") == (0, "", "")


def test_enum_takes_a_count_beyond_sys_maxsize(automaton_file, capsys):
    # range takes any int; no run lists that many words.
    code, out, err = run(capsys, "enum", automaton_file(M_EPS), "-n", str(10**20))
    assert (code, out, err) == (0, "(eps)\n", "")


def test_enum_stops_at_the_count_before_a_descending_chain(automaton_file, capsys):
    # The word after 0 does not exist, and -n 1 never looks for it.
    path = automaton_file(M_ZERO_THEN_CHAIN)
    assert run(capsys, "enum", path, "-n", "1") == (0, "0\n", "")
    assert run(capsys, "enum", path, "-n", "2")[0] == 3


def test_enum_no_minimum(automaton_file, capsys):
    code, out, _ = run(capsys, "enum", automaton_file(M_0STAR1), "-n", "3")
    assert code == 3
    assert out.startswith("not well-ordered:")


def test_min(automaton_file, capsys):
    assert run(capsys, "min", automaton_file(M_CYCLE2)) == (0, "00\n", "")


def test_min_empty_language(automaton_file, capsys):
    empty = Dfa(delta=((0, 0),), start=0, finals=frozenset())
    assert run(capsys, "min", automaton_file(empty)) == (0, "(empty language)\n", "")


def test_min_no_minimum(automaton_file, capsys):
    code, out, _ = run(capsys, "min", automaton_file(M_0STAR1))
    assert code == 3
    assert out.startswith("no minimum:")


def test_succ(automaton_file, capsys):
    path = automaton_file(M_CYCLE2)
    assert run(capsys, "succ", path, "-w", "00") == (0, "0100\n", "")
    code, out, _ = run(capsys, "succ", automaton_file(M_EPS), "-w", "(eps)")
    assert code == 0
    assert out == "(none)\n"


###############################################################################
# trim
###############################################################################


def test_trim(automaton_file, tmp_path, capsys):
    m = Dfa(delta=((1, 2), (1, 2), (2, 1)), start=0, finals=frozenset({0}))
    out_path = tmp_path / "trimmed.json"
    code, out, _ = run(capsys, "trim", automaton_file(m), "-o", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "states: 3 -> 2"
    assert lines[1] == "removed unreachable: (none)"
    assert lines[2] == "merged into sink: 2"
    assert lines[3] == "sink: 1"
    trimmed = load(str(out_path))
    assert trimmed == Dfa(delta=((1, 1), (1, 1)), start=0, finals=frozenset({0}))


###############################################################################
# analyze-chain
###############################################################################


def test_analyze_chain(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("11\n\n10\n01\n00\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze-chain", str(path))
    assert code == 0
    assert out.splitlines() == [
        "# times are 1-based; positions are 0-based",
        "active:",
        "  time 1: position 1",
        "  time 2: position 0",
        "  time 3: position 1",
        "sequence:",
        "  i_0 = 0 at t_0 = 2",
        "  i_1 = 1 at t_1 = 3",
    ]


def test_analyze_chain_rejects_non_strict(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("0\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze-chain", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_chain_bad_letter(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("01\n02\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze-chain", str(path))
    assert code == 2
    assert "chain.txt:2" in err


###############################################################################
# dot
###############################################################################


def test_dot(automaton_file, capsys):
    code, out, _ = run(capsys, "dot", automaton_file(M_ONESTAR))
    assert code == 0
    assert out == render_dot(M_ONESTAR)
    assert out.startswith("digraph automaton {")
    assert '    q0 [shape=doublecircle];' in out
    assert [line for line in out.splitlines() if "style=filled" in line] == [
        "    q1 [shape=circle, style=filled, fillcolor=lightgrey];"
    ]
    assert 'label="C0 (height 0)";' in out
    assert 'label="C1 (height 1)";' in out
    assert "  __start -> q0;" in out
    assert '  q1 -> q1 [label="0,1"];' in out
    assert '  q0 -> q1 [label="0"];' in out
    assert '  q0 -> q0 [label="1"];' in out


@pytest.mark.parametrize("m, filled", [
    (Dfa(((0, 0),), 0, {0}), []),  # no sink
    (Dfa(((1, 2), (1, 1), (2, 2)), 0, {0}), [1, 2]),  # not trim: two dead states
])
def test_render_dot_fills_exactly_the_dead_states(m, filled):
    lines = [line for line in render_dot(m).splitlines() if "style=filled" in line]
    assert lines == [f"    q{q} [shape=circle, style=filled, fillcolor=lightgrey];" for q in filled]


###############################################################################
# fuzz / embed
###############################################################################


def test_fuzz(capsys):
    code, out, _ = run(capsys, "fuzz", "--seeds", "5", "--states", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed\tstates\tverdict\tchecks\tfirst_failure"
    assert len(lines) == 7
    assert lines[-1].startswith("# total=5 ")


def test_fuzz_rejects_bad_counts(capsys):
    code, out, err = run(capsys, "fuzz", "--states", "0")
    assert (code, out) == (2, "")
    assert err == "error: --states must be at least 1, got 0\n"
    code, out, err = run(capsys, "fuzz", "--seeds", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seeds must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "argv", [("--exhaustive", "--seeds", "5"), ("--seeds", "100", "--exhaustive")]
)
def test_fuzz_seeds_and_exhaustive_exclude_each_other(capsys, argv):
    code, out, err = run(capsys, "fuzz", *argv)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    assert "Traceback" not in err


def _run_script(name, *argv):
    src = os.path.dirname(os.path.dirname(ordfa.__file__))
    script = os.path.join(os.path.dirname(src), "scripts", name)
    return subprocess.run(
        [sys.executable, script, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("flag, value", [("--verify-depth", "5"), ("--rank-len", "2")])
def test_fuzz_has_no_strength_knobs(capsys, flag, value):
    # Witnesses replay to completion and ranks are checked at one fixed
    # length, so neither strength can be set.
    code, out, err = run(capsys, "fuzz", flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err
    child = _run_script("fuzz_sweep.py", flag, value)
    assert (child.returncode, child.stdout) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in child.stderr
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--seeds", "-5"), "--seeds must be at least 0, got -5"),
        (("--max-states", "1"), "--max-states must be at least 2, got 1"),
    ],
)
def test_fuzz_sweep_script_rejects_counts_that_sweep_nothing(argv, message):
    child = _run_script("fuzz_sweep.py", *argv)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.endswith(f"error: {message}\n")
    assert "Traceback" not in child.stderr


def test_roundtrip_script_rejects_a_bad_ordinal():
    child = _run_script("ordinal_roundtrip.py", "w", "w^^2")
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == "error: bad ordinal 'w^^2': expected an integer (at position 2)\n"
    child = _run_script("ordinal_roundtrip.py", "9" * 5000)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error: bad ordinal '999")
    assert len(child.stderr.splitlines()) == 1 and len(child.stderr) < 200


def test_roundtrip_script_lists_empty_only_for_the_empty_language():
    child = _run_script("ordinal_roundtrip.py", "--words", "0", "w", "0")
    assert child.returncode == 0, child.stderr
    rows = child.stdout.splitlines()
    assert rows[0].endswith(" ok  ...")
    assert rows[1].endswith(" ok  (empty)")


def test_roundtrip_script_ends_a_listing_with_dots_only_when_words_remain():
    child = _run_script("ordinal_roundtrip.py", "--words", "5", "5", "6", "4")
    assert child.returncode == 0, child.stderr
    rows = child.stdout.splitlines()
    assert rows[0].endswith(" ok  000, 001, 010, 011, 100")
    assert rows[1].endswith(" ok  000, 001, 010, 011, 100, ...")
    assert rows[2].endswith(" ok  00, 01, 10, 11")


def test_roundtrip_script_takes_a_word_count_beyond_sys_maxsize():
    child = _run_script("ordinal_roundtrip.py", "--words", str(10**20), "5")
    assert child.returncode == 0, child.stderr
    assert child.stdout.rstrip("\n").endswith(" ok  000, 001, 010, 011, 100")


def test_roundtrip_script_rejects_a_negative_word_count():
    child = _run_script("ordinal_roundtrip.py", "--words", "-1", "w")
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.endswith("error: --words must be at least 0, got -1\n")
    assert "Traceback" not in child.stderr


def test_embed(capsys):
    assert run(capsys, "embed", "021") == (0, "01110\n", "")
    code, _, err = run(capsys, "embed", "031")
    assert code == 2
    assert "'3'" in err


###############################################################################
# input handling
###############################################################################


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/machine.json")
    assert code == 2
    assert "no such file" in err


def test_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "broken.json" in err


def test_bad_json_shape(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"start": 0}), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "missing keys" in err


def _assert_one_error_line(code, out, err, prefix):
    assert (code, out) == (2, "")
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "content, reason",
    [
        # an integer beyond the int/str digit limit inside json.loads
        (b'{"start": ' + b"9" * 5000 + b', "finals": [], "delta": [[0, 0]]}', "not valid JSON"),
        (b"[" * 200_000, "not valid JSON"),  # deeper than the parser recurses
        (b'{"start": 0, "finals": [], "delta": [[0, 0]]}\xff', "not UTF-8 text"),
    ],
    ids=["int-beyond-digit-limit", "nesting-beyond-recursion-limit", "byte-0xff"],
)
def test_malformed_automaton_file_is_an_input_error(tmp_path, capsys, content, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", str(path))
    _assert_one_error_line(code, out, err, f"error: {path}: {reason}: ")


def test_chain_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_bytes(b"1\n\xff01\n")
    code, out, err = run(capsys, "analyze-chain", str(path))
    _assert_one_error_line(code, out, err, f"error: {path}: not UTF-8 text: ")


def test_integer_beyond_the_digit_limit_is_a_bad_ordinal(capsys):
    for text, position in (("9" * 5000, 0), ("w*" + "9" * 5000, 2)):
        code, out, err = run(capsys, "synth", text)
        _assert_one_error_line(code, out, err, "error: bad ordinal")
        assert err.endswith(f"Python's int/str limit (at position {position})\n")


def test_long_bad_input_is_echoed_short(automaton_file, capsys):
    for argv in (
        ("synth", "9" * 5000),
        ("rank", automaton_file(M_CYCLE2), "-w", "2" * 10_000),
    ):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err, "error: bad ")
        assert len(err) < 200


def test_long_words_of_a_bad_chain_are_echoed_short(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text(("1" * 300_000 + "\n") * 2, encoding="utf-8")
    code, out, err = run(capsys, "analyze-chain", str(path))
    _assert_one_error_line(code, out, err, "error: words[1] = ")
    assert "Traceback" not in err
    assert len(err.encode()) < 300


def test_integer_beyond_the_digit_limit_in_a_file_gives_no_python_advice(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"start": ' + "9" * 5000 + ', "finals": [], "delta": [[0, 0]]}')
    code, out, err = run(capsys, "check", str(path))
    _assert_one_error_line(code, out, err, f"error: {path}: not valid JSON: ")
    assert err.endswith("digits, Python's int/str limit\n")
    assert "set_int_max_str_digits" not in err


def test_order_type_beyond_the_digit_limit_is_out_of_range(automaton_file, capsys):
    # Every word of length at most 15,000: 2^15001 - 1 words, 4,516 digits.
    n = 15_000
    rows = tuple((i + 1, i + 1) for i in range(n + 1)) + ((n + 1, n + 1),)
    path = automaton_file(Dfa(delta=rows, start=0, finals=frozenset(range(n + 1))))
    for argv in (("ordtype", path), ("ordtype", path, "--table"), ("rank", path, "-w", "1")):
        code, out, err = run(capsys, *argv)
        _assert_one_error_line(code, out, err, f"error: {path}: order type out of range: ")
        assert "Python's int/str limit" in err


def test_no_arguments(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_runs_without_the_collector_and_gives_its_state_back(
    automaton_file, capsys, monkeypatch, collecting
):
    seen = []
    real_load = dfa.load
    monkeypatch.setattr(dfa, "load", lambda path: seen.append(gc.isenabled()) or real_load(path))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv in (["check", automaton_file(M_CYCLE2)], ["check", "missing.json"], ["frobnicate"]):
            main(argv)
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
    capsys.readouterr()


###############################################################################
# output failures
###############################################################################


def test_closed_pipe_exits_quietly(automaton_file):
    src = os.path.dirname(os.path.dirname(ordfa.__file__))
    child = subprocess.Popen(
        [sys.executable, "-m", "ordfa.cli", "enum", automaton_file(M_ONESTAR), "-n", "2000"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # The 2,000 words of 1* fill about 2 MB, far more than a pipe holds,
    # so the child is still writing when the reader goes away.
    assert child.stdout.readline() == b"(eps)\n"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (EXIT_CLOSED_PIPE, b"")


@pytest.mark.parametrize(
    "argv", [["check"], ["ordtype", "--table"]], ids=["check", "ordtype-table"]
)
def test_closed_standard_output_is_a_write_error(automaton_file, argv):
    # A child started with fd 1 closed sees sys.stdout as None.
    src = os.path.dirname(os.path.dirname(ordfa.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "ordfa.cli", *argv, automaton_file(M_CYCLE2)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (child.returncode, child.stderr) == (
        EXIT_OUTPUT,
        "error: cannot write output: [Errno 9] standard output is closed\n",
    )


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # What a shell wrapper can leave at fd 2 when it was closed: a file
    # open for reading, which Python wraps but cannot write to.
    os.close(2)
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)


def _close_stdout_and_stderr():
    os.close(1)
    os.close(2)


@pytest.mark.parametrize(
    "preexec, code",
    [(_close_stderr, 2), (_read_only_stderr, 2), (_close_stdout_and_stderr, EXIT_OUTPUT)],
    ids=["closed", "read-only", "stdout-too"],
)
def test_closed_standard_error_keeps_the_exit_code(tmp_path, preexec, code):
    # The error line has nowhere to go, and goes nowhere else.
    src = os.path.dirname(os.path.dirname(ordfa.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "ordfa.cli", "check", "missing.json"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=60,
        preexec_fn=preexec,
    )
    assert (child.returncode, child.stdout) == (code, "")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_enum_prints_each_word_as_it_is_found(automaton_file, monkeypatch):
    found = []
    walk = lexorder.iter_words

    def counting(m):
        for w in walk(m):
            found.append(w)
            yield w

    monkeypatch.setattr(lexorder, "iter_words", counting)
    path = automaton_file(M_ONESTAR)
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = main(["enum", path, "-n", "20000"])
    # The first print fails, so the walk stops at the first word.
    assert (code, found) == (EXIT_CLOSED_PIPE, [""])


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_write_error_prints_one_error_line(automaton_file, capsys):
    path = automaton_file(M_CYCLE2)
    with contextlib.redirect_stdout(_FullDisk()):
        code = main(["dot", path])
    assert (code, capsys.readouterr().err) == (
        EXIT_OUTPUT,
        "error: cannot write output: [Errno 28] No space left on device\n",
    )
