#!/usr/bin/env python3
"""Benchmark of the ordfa package in the checkout that holds this file.

    python3 perfbench/run.py --workload sweep|large|roundtrip \\
        --seed N --seconds S --trace 0|1

Set-up generates the workload's inputs from the seed and writes them
under `.perfbench_work/`; it is repeated and its median reported as
`setup_s`.  Then whole passes over the same inputs run, each in a fresh
interpreter with the checkout's `src/` on PYTHONPATH (the module-level
caches in `ordfa.dfa` must not carry over between passes), until about
S seconds are spent.  One operation is in flight at a time.

Workloads:
  sweep      40k distinct small raw automata through trim, check, and
             then witness replay or order type, enumeration and rank.
  large      ten `python -m ordfa.cli` invocations on three big files.
  roundtrip  150 ordinals through parse, synth, order type, format,
             least word, enumeration and rank without a table.

The host's speed drifts, so each timed operation and set-up is
bracketed by probes of a fixed calibration kernel and reported rescaled
to a host on which the kernel takes 2 ms (calib.py); the values as
measured are printed on a comment line beside them.

Every answer is checked against a reference outside the timed region;
an error or a wrong answer counts as a failed operation.  With
--trace 0 the end-to-end metrics are reported; with --trace 1 one plain
and one traced pass run (see tracing.py), followed by the doubling
series, and the per-layer metrics are reported.  The last line of
standard output is one JSON object; the lines before it restate the
metrics and record the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "large", "roundtrip")

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 60
MIN_PASSES = {"sweep": 2, "large": 3, "roundtrip": 2}
# No pass starts that would likely end after this many seconds of
# measuring, so a slow commit still finishes within its time limit.
MEASURE_CAP_S = 120
STARTUP_REPS = 7

LAYER_FUNCTIONS = (
    "dfa.from_json", "dfa.trim", "dfa.reachable_states", "dfa.live_states",
    "dfa.condense", "wellorder.check", "wellorder.build_witness",
    "wellorder.verify_witness", "ordtype.order_type", "ordtype.rank",
    "lexorder.min_word", "lexorder.successor", "lexorder.enumerate_words",
    "synth.synth", "ordinal.parse_ordinal", "ordinal.format_ordinal",
)
CLI_COMMANDS = ("check", "witness", "trim", "ordtype", "min", "dot", "succ", "enum", "rank")


class Pass:
    """One pass: per-operation seconds as measured and as rescaled to the
    reference host speed (calib.py), peak RSS, answers, trace."""

    def __init__(self, raw, probes, rss_mb, answers, trace=None, commands=None,
                 outputs=None):
        self.raw = raw
        self.times = calib.scale(raw, probes)
        self.wall = sum(self.times)
        self.rss_mb = rss_mb
        self.answers = answers
        self.trace = trace
        self.commands = commands
        self.outputs = outputs


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, stdout_path, cwd):
    """Run argv to completion; (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "w", encoding="utf-8") as out:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = (time.perf_counter_ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


# --- set-up -------------------------------------------------------------------


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def setup_sweep(seed, work, lap):
    items = gen.sweep_inputs(seed, lap=lap)
    _write_lines(work / "inputs.jsonl", ([delta, finals] for delta, finals, _ in items))
    return items


def setup_roundtrip(seed, work, lap):
    texts = gen.roundtrip_inputs(seed)
    _write_lines(work / "inputs.jsonl", texts)
    return texts


def setup_large(seed, work, lap):
    uniform = gen.uniform_automaton(seed)
    lap()
    wellordered, types, heights = gen.tower_chain(seed + 1)
    lap()
    longword = gen.long_word_automaton(seed + 2)
    for name, m in (("uniform", uniform), ("wellordered", wellordered),
                    ("longword", longword)):
        (work / f"{name}.json").write_text(gen.automaton_json(*m), encoding="utf-8")
        lap()
    return {"uniform": uniform, "wellordered": wellordered, "types": types,
            "heights": heights, "k": gen.LONG_K}


SETUPS = {"sweep": setup_sweep, "large": setup_large, "roundtrip": setup_roundtrip}


def _digest_inputs(work):
    h = hashlib.sha256()
    for path in sorted(work.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed, work, reps_at_least, kernel):
    """Generate and write the inputs several times, each timed between
    calibration probes; (rescaled seconds, raw seconds, truth)."""
    times, raw, digests = [], [], set()
    watch = calib.Stopwatch(kernel)
    while True:
        watch.start()
        truth = SETUPS[workload](seed, work, watch.lap)
        scaled, measured = watch.stop()
        times.append(scaled)
        raw.append(measured)
        digests.add(_digest_inputs(work))
        enough = len(times) >= reps_at_least and sum(raw) >= SETUP_MIN_SECONDS
        if enough or len(times) >= SETUP_MAX_REPS:
            break
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return times, raw, truth


# --- passes -------------------------------------------------------------------


def worker_pass(workload, work, traced):
    out = work / "answers.jsonl"
    argv = [sys.executable, str(WORKER), workload, str(work / "inputs.jsonl"), str(out)]
    _, code, _ = spawn(argv + (["--trace"] if traced else []), work / "worker.log", work)
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with {code}")
    lines = out.read_text(encoding="utf-8").splitlines()
    summary = json.loads(lines.pop())
    return Pass([t / 1e9 for t in summary["times_ns"]], summary["probes"],
                summary["rss_kb"] / 1024, lines, summary.get("trace"))


def large_pass(work, traced, kernel):
    """The CLI invocations one after another, each between two
    calibration probes taken in this process."""
    times, rss, answers, outputs, traces, commands = [], [], [], [], [], []
    probes = []
    out_path = work / "cli.out"
    stats_path = work / "cli-stats.json"
    written_path = work / "uniform-trimmed.json"
    for _name, argv in gen.large_commands():
        written_path.unlink(missing_ok=True)
        probes.append((len(times), kernel.probe()))
        if traced:
            cmd = [sys.executable, str(WORKER), "cli", str(out_path), str(stats_path),
                   "--", *argv]
            seconds, code, rss_kb = spawn(cmd, work / "worker.log", work)
            if code != 0:
                raise RuntimeError(f"traced CLI worker exited with {code}")
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            code = stats["exit"]
            traces.append(stats["trace"])
        else:
            cmd = [sys.executable, "-m", "ordfa.cli", *argv]
            seconds, code, rss_kb = spawn(cmd, out_path, work)
        out = out_path.read_text(encoding="utf-8")
        written = written_path.read_text(encoding="utf-8") if written_path.exists() else None
        times.append(seconds)
        rss.append(rss_kb / 1024)
        commands.append(argv[0])
        outputs.append((code, out, written))
        answers.append(hashlib.sha256(repr((code, out, written)).encode()).hexdigest())
    probes.append((len(times), kernel.probe()))
    trace = tracing.merge(traces) if traced else None
    return Pass(times, probes, max(rss), answers, trace, commands, outputs)


def run_pass(workload, work, kernel, traced=False):
    if workload == "large":
        return large_pass(work, traced, kernel)
    return worker_pass(workload, work, traced)


def failed_ops(workload, truth, passes):
    """Wrong answers in the first pass by the reference, plus answers of
    later passes that differ from the first pass's."""
    import checks

    first = passes[0]
    if workload == "sweep":
        bad = checks.check_sweep(truth, first.answers)
    elif workload == "roundtrip":
        bad = checks.check_roundtrip(truth, first.answers)
    else:
        bad = checks.check_large(truth, first.outputs)
    for p in passes[1:]:
        if len(p.answers) != len(first.answers):
            bad += len(first.answers)
            continue
        bad += sum(a != b for a, b in zip(first.answers, p.answers))
    return bad


# --- metrics ------------------------------------------------------------------


def percentile(samples, p):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[math.ceil(p * len(s) / 100) - 1]


def tail_percentile(n):
    """The highest of p99, p90 and p66 that leaves at least ten of n
    samples above it.  It is fixed per workload from the sample count of
    the fewest passes a run makes, so every run reports the same one."""
    for p in (99, 90, 66):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def end_to_end(workload, passes, setup_times, raw=False):
    """The end-to-end metrics from rescaled times, or with raw=True from
    the times as measured."""
    def times(p):
        return p.raw if raw else p.times

    ops = [t for p in passes for t in times(p)]
    pct = tail_percentile(MIN_PASSES[workload] * len(passes[0].times))
    metrics = {
        "wall_s": (statistics.median(sum(times(p)) for p in passes), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (percentile(ops, pct) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    note = f"op_tail_ms is p{pct} of {len(ops)} operations"
    return metrics, note


def startup_ms(work):
    """Interpreter start plus `import ordfa.cli`, minus a bare start."""
    bare, loaded = [], []
    for _ in range(STARTUP_REPS):
        bare.append(spawn([sys.executable, "-c", "pass"], work / "startup.log", work)[0])
        loaded.append(
            spawn([sys.executable, "-c", "import ordfa.cli"], work / "startup.log", work)[0]
        )
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


def doubling(work):
    out = work / "doubling.json"
    _, code, _ = spawn([sys.executable, str(WORKER), "doubling", str(out)],
                       work / "worker.log", work)
    if code != 0:
        raise RuntimeError(f"doubling worker exited with {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def per_layer(plain, traced, work):
    tr = traced.trace
    calls, self_ns, counts = tr["calls"], tr["self_ns"], tr["counts"]
    m = {}
    for fn in LAYER_FUNCTIONS:
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.self_s"] = (self_ns.get(fn, 0) / 1e9, "s")
    for fn in ("synth.synth_sum", "synth.synth_mul_omega"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")

    def ratio(a, b):
        return a / b if b else 0.0

    m["dfa.from_json.states"] = (counts.get("dfa.from_json.states", 0), "count")
    states_in = counts.get("dfa.trim.states_in", 0)
    m["dfa.trim.removed_ratio"] = (
        ratio(states_in - counts.get("dfa.trim.states_out", 0), states_in), "ratio")
    m["dfa.condense.components"] = (counts.get("dfa.condense.components", 0), "count")
    # Without the module-level caches there are no lookups, and both read 0.
    m["dfa.cache_lookups"] = (tr["cache_lookups"], "count")
    m["dfa.cache_hit_ratio"] = (ratio(tr["cache_hits"], tr["cache_lookups"]), "ratio")
    m["wellorder.check.negative_ratio"] = (
        ratio(counts.get("wellorder.check.negative", 0), calls.get("wellorder.check", 0)),
        "ratio")
    m["wellorder.build_witness.letters"] = (
        counts.get("wellorder.build_witness.letters", 0), "count")
    m["ordtype.order_type.calls_per_automaton"] = (
        ratio(calls.get("ordtype.order_type", 0), tr["order_type_automata"]), "ratio")
    m["ordtype.rank.letters"] = (counts.get("ordtype.rank.letters", 0), "count")
    m["lexorder.successor.letters_in"] = (
        counts.get("lexorder.successor.letters_in", 0), "count")
    m["synth.synth.states_out"] = (counts.get("synth.synth.states_out", 0), "count")
    m["cli.startup_ms"] = (startup_ms(work), "ms")
    spent = dict.fromkeys(CLI_COMMANDS, 0.0)
    for cmd, seconds in zip(plain.commands or (), plain.times):
        spent[cmd] += seconds
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_ms"] = (spent[cmd] * 1e3, "ms")
    m["trace.overhead_ratio"] = (traced.wall / plain.wall, "ratio")
    series = doubling(work)
    notes = []
    for fn, secs in series.items():
        # Geometric mean of time(2n) / time(n) over the series.
        m[f"{fn}.doubling"] = ((secs[-1] / secs[0]) ** (1 / (len(secs) - 1)), "ratio")
        notes.append(f"{fn} doubling seconds: " + " ".join(f"{s:.4f}" for s in secs))
    return m, notes


# --- entry point --------------------------------------------------------------


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def measure(workload, seed, seconds, trace, work):
    kernel = calib.Kernel()
    setup_times, setup_raw, truth = set_up(
        workload, seed, work, 1 if trace else SETUP_MIN_REPS, kernel)
    notes = [f"set-up ran {len(setup_times)} times"]
    if trace:
        plain = run_pass(workload, work, kernel)
        traced = run_pass(workload, work, kernel, traced=True)
        passes = [plain, traced]
        metrics, more = per_layer(plain, traced, work)
        notes += more
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, work, kernel))
            spent = time.perf_counter() - start
            per_pass = spent / len(passes)
            wanted = max(MIN_PASSES[workload], round(seconds / per_pass))
            if len(passes) >= wanted or spent + per_pass > MEASURE_CAP_S:
                break
        metrics, note = end_to_end(workload, passes, setup_times)
        notes.append(note)
        raw, _ = end_to_end(workload, passes, setup_raw, raw=True)
        notes.append("as measured, before rescaling: " + " ".join(
            f"{name}={value:.6g}{unit}" for name, (value, unit) in raw.items()))
    attempted = sum(len(p.times) for p in passes)
    failed = failed_ops(workload, truth, passes)
    notes.append(f"passes={len(passes)} attempted={attempted} failed_ops={failed} "
                 f"({failed / attempted:.6f} of operations)")
    return metrics, attempted, failed, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ordfa" / "__init__.py").is_file():
        print(f"error: no ordfa package under {SRC}", file=sys.stderr)
        return 2
    # The answer checks use the package's oracles.
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed, notes = measure(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"# machine: {machine_facts()}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
