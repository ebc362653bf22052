"""Per-layer tracing installed from outside the package.

`install` replaces every public function of the layer modules with a
wrapper that counts calls and self time (time not spent in another
wrapped call).  A function is replaced at every module attribute that
holds it, not only where it is defined, because modules import each
other's functions by name (`ordfa.ordtype.check`, `ordfa.synth.trim`,
`ordfa.cli.synthesize`, ...).  Calls through module attributes, as the
CLI makes them, reach the wrapper on the defining module.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("dfa", "wellorder", "ordtype", "lexorder", "synth", "ordinal", "cli")


def _arg(args, kw, i, name):
    return args[i] if len(args) > i else kw[name]


# Structural counts taken where the work happens: name -> function of
# (args, kwargs, result) returning {counter: increment}.
OBSERVERS = {
    "dfa.from_json": lambda a, k, r: {"states": r.state_count},
    "dfa.trim": lambda a, k, r: {
        "states_in": _arg(a, k, 0, "m").state_count,
        "states_out": r.trimmed.state_count,
    },
    "dfa.condense": lambda a, k, r: {"components": len(r.components)},
    "wellorder.check": lambda a, k, r: {"negative": int(not r.well_ordered)},
    "wellorder.build_witness": lambda a, k, r: {
        "letters": len(r.access) + len(r.loop) + len(r.tail)
    },
    "ordtype.rank": lambda a, k, r: {"letters": len(_arg(a, k, 1, "w"))},
    "lexorder.successor": lambda a, k, r: {"letters_in": len(_arg(a, k, 1, "w"))},
    "synth.synth": lambda a, k, r: {"states_out": r.state_count},
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.order_type_automata: set[int] = set()
        self.cached: list = []
        self._stack = [0]

    def wrap(self, name, fn):
        calls, self_ns, counts, stack = self.calls, self.self_ns, self.counts, self._stack
        calls[name] = 0
        self_ns[name] = 0
        observe = OBSERVERS.get(name)
        info = getattr(fn, "cache_info", None)
        clock = time.perf_counter_ns
        distinct = self.order_type_automata if name == "ordtype.order_type" else None

        def wrapper(*args, **kwargs):
            misses = info().misses if info is not None else 0
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_ns[name] += elapsed - inner
            # A cache hit did no work, so it adds to no structural count.
            computed = info is None or info().misses > misses
            if observe is not None and computed:
                for key, inc in observe(args, kwargs, result).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + inc
            if distinct is not None:
                distinct.add(hash(_arg(args, kwargs, 0, "m")))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {n: importlib.import_module(f"ordfa.{n}") for n in LAYERS}
        bindings = [
            mod for key, mod in sys.modules.items()
            if key == "ordfa" or key.startswith("ordfa.")
        ]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                if hasattr(fn, "cache_info"):
                    self.cached.append(fn)
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in bindings:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, name, wrapper)

    def report(self) -> dict:
        hits = misses = 0
        for fn in self.cached:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "counts": self.counts,
            "order_type_automata": len(self.order_type_automata),
            "cache_hits": hits,
            "cache_lookups": hits + misses,
        }


def merge(reports: list[dict]) -> dict:
    """Sum the reports of several traced processes."""
    out = {"calls": {}, "self_ns": {}, "counts": {}}
    for key in ("order_type_automata", "cache_hits", "cache_lookups"):
        out[key] = sum(r[key] for r in reports)
    for r in reports:
        for part in ("calls", "self_ns", "counts"):
            for name, v in r[part].items():
                out[part][name] = out[part].get(name, 0) + v
    return out
