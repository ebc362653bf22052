"""One timed pass, run in a fresh interpreter with the checkout's `src/`
on PYTHONPATH.

    python3 perfbench/worker.py sweep|roundtrip INPUTS OUT [--trace]
    python3 perfbench/worker.py cli OUT STATS -- ARGV...
    python3 perfbench/worker.py doubling OUT

`sweep` and `roundtrip` read one input per line, time each operation on
its own, and write one answer per line to OUT followed by a summary
line with the times, the calibration probes taken between operations
(see calib.py), the peak RSS and, with --trace, the layer counts.
Inputs are read and answers written outside the timed region.  `cli`
runs `ordfa.cli.main(ARGV)` with tracing installed and its standard
output sent to OUT.  `doubling` times trim, condense and successor on
inputs that double in size.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

import calib
import gen
import tracing

# By module, not `import ordfa.x as x`: the package rebinds the name
# `ordfa.synth` to the function of that name.
dfa, lexorder, ordinal, ordtype, synth, wellorder = (
    importlib.import_module(f"ordfa.{name}")
    for name in ("dfa", "lexorder", "ordinal", "ordtype", "synth", "wellorder")
)

SWEEP_VERIFY_DEPTH = 32
SWEEP_ENUM = 8
ROUNDTRIP_ENUM = 64
ROUNDTRIP_RANK_EVERY = 8
PROBE_EVERY_NS = 150_000_000  # calibration probe interval within a pass


def sweep_op(item):
    delta, finals = item
    m = dfa.trim(dfa.Dfa(delta=delta, start=0, finals=finals)).trimmed
    result = wellorder.check(m)
    if not result.well_ordered:
        w = result.witness
        replayed = wellorder.verify_witness(m, w, SWEEP_VERIFY_DEPTH)
        return lambda: ["no", w.access, w.loop, w.tail, w.state, replayed]
    table = ordtype.order_type(m)
    words = lexorder.enumerate_words(m, SWEEP_ENUM)
    ranks = [ordtype.rank(m, w, table) for w in words]
    return lambda: [
        "yes", list(table.overall.coeffs), words, [list(r.coeffs) for r in ranks]
    ]


def roundtrip_op(text):
    a = ordinal.parse_ordinal(text)
    m = synth.synth(a)
    back = ordtype.order_type(m).overall
    shown = ordinal.format_ordinal(back)
    least = lexorder.min_word(m)
    words = lexorder.enumerate_words(m, ROUNDTRIP_ENUM)
    ranks = [
        ordtype.rank(m, words[i]) for i in range(0, len(words), ROUNDTRIP_RANK_EVERY)
    ]

    def answer():
        delta, finals = m.delta, m.finals
        accepted = all(gen.accepts(delta, m.start, finals, w) for w in words)
        return [
            list(a.coeffs), list(back.coeffs), shown, least, words,
            [list(r.coeffs) for r in ranks], accepted, m.state_count,
        ]

    return answer


OPS = {"sweep": sweep_op, "roundtrip": roundtrip_op}


def run_pass(workload, inputs_path, out_path, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    op = OPS[workload]
    kernel = calib.Kernel()
    clock = time.perf_counter_ns
    times = []
    probes = []
    next_probe = 0
    with open(inputs_path, encoding="utf-8") as src, open(
        out_path, "w", encoding="utf-8"
    ) as out:
        for i, line in enumerate(src):
            item = json.loads(line)
            if clock() >= next_probe:
                probes.append((i, kernel.probe()))
                next_probe = clock() + PROBE_EVERY_NS
            t0 = clock()
            try:
                answer = op(item)
            except Exception as e:  # an unexpected error is a failed operation
                times.append(clock() - t0)
                out.write(json.dumps(["error", repr(e)]) + "\n")
                continue
            times.append(clock() - t0)
            out.write(json.dumps(answer()) + "\n")
        probes.append((len(times), kernel.probe()))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = {"times_ns": times, "probes": probes, "rss_kb": rss_kb}
        if tracer is not None:
            summary["trace"] = tracer.report()
        out.write(json.dumps(summary) + "\n")


def run_cli(out_path, stats_path, argv):
    tracer = tracing.Tracer()
    tracer.install()
    cli = importlib.import_module("ordfa.cli")
    with open(out_path, "w", encoding="utf-8") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = saved
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "trace": tracer.report()}, fh)


def _median_seconds(fn, inputs):
    """Median time of fn over inputs that are distinct automata, so no
    call is answered from a cache filled by an earlier one."""
    times = []
    for x in inputs:
        t0 = time.perf_counter_ns()
        fn(x)
        times.append(time.perf_counter_ns() - t0)
        for name in ("reachable_states", "live_states", "condense"):
            getattr(getattr(dfa, name, None), "cache_clear", lambda: None)()
    times.sort()
    return times[len(times) // 2] / 1e9


def _as_dfa(delta, start, finals):
    return dfa.Dfa(delta=delta, start=start, finals=finals)


DOUBLING_REPS = 3
TRIM_SIZES = (25_000, 50_000, 100_000, 200_000)
CONDENSE_SIZES = (5_000, 10_000, 20_000, 40_000)
SUCCESSOR_SIZES = (2_000, 4_000, 8_000)


def run_doubling(out_path):
    series = {"dfa.trim": [], "dfa.condense": [], "lexorder.successor": []}
    for n in TRIM_SIZES:
        machines = [_as_dfa(*gen.uniform_automaton(7 * r + n, n)) for r in range(DOUBLING_REPS)]
        series["dfa.trim"].append(_median_seconds(dfa.trim, machines))
        del machines
    for n in CONDENSE_SIZES:
        machines = [
            _as_dfa(*gen.tower_chain(7 * r + n, chain=n)[0]) for r in range(DOUBLING_REPS)
        ]
        series["dfa.condense"].append(_median_seconds(dfa.condense, machines))
        del machines
    for k in SUCCESSOR_SIZES:
        machines = [_as_dfa(*gen.long_word_automaton(r, k)) for r in range(DOUBLING_REPS)]
        word = "0" * k
        series["lexorder.successor"].append(
            _median_seconds(lambda m: lexorder.successor(m, word), machines)
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(series, fh)


def main(argv):
    mode = argv[0]
    if mode in OPS:
        run_pass(mode, argv[1], argv[2], "--trace" in argv[3:])
    elif mode == "cli":
        run_cli(argv[1], argv[2], argv[argv.index("--") + 1:])
    elif mode == "doubling":
        run_doubling(argv[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
