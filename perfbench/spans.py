"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` in
every ``fracergo`` namespace that binds them (``frac_multiples`` is
bound in ``systems`` and ``averages``; ``multiply``, ``apply_power`` and
``integrate`` also in ``seminorms``; ...), so calls made from any module
are seen.  A span is (name, start, end, parent); spans stay in memory
until ``uninstall``.  Counts are taken from arguments and return
values at the same boundaries.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped by the tracer.  The span name is
# "module.function" with the defining module.
TARGETS = [
    ("averages", "iterate_values"),
    ("averages", "weyl_sum"),
    ("averages", "multi_average"),
    ("averages", "recurrence_profile"),
    ("averages", "weight_values"),
    ("systems", "frac_multiples"),
    ("systems", "multiply"),
    ("systems", "apply_power"),
    ("systems", "integrate"),
    ("seminorms", "hk_seminorm_estimate"),
    ("seminorms", "gowers_norm_cyclic"),
    ("fracpoly", "pet_reduce"),
    ("fracpoly", "vdc_op"),
    ("fracpoly", "type_vector"),
    ("fracpoly", "choose_a"),
    ("fracpoly", "trace_to_json"),
    ("primes", "sieve"),
    ("primes", "save_table"),
    ("primes", "load_table"),
    ("primes", "count_prime_tuples"),
    ("primes", "singular_series"),
    ("primes", "von_mangoldt_array"),
    ("cli", "main"),
]

HK = "seminorms.hk_seminorm_estimate"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(int)
        self.useful: dict = {}  # (invocation, iterate spec) -> largest N evaluated
        self.invocation = 0
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "fracergo" or n.startswith("fracergo.")}
        for modname, fname in TARGETS:
            original = getattr(mods["fracergo." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            where = []
            for mname, mod in sorted(mods.items()):
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
                    where.append(mname)
            self.bindings[f"{modname}.{fname}"] = where

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            opened[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened[name] -= 1
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if counter is not None:
                counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counts from arguments and return values -------------------------

    def _count_averages_iterate_values(self, args, kwargs, out):
        self.counts["iterate_entries"] += len(out)
        key = (self.invocation, args[0])
        self.useful[key] = max(self.useful.get(key, 0), len(out))

    def _count_averages_multi_average(self, args, kwargs, out):
        functions, N = args[2], args[4]
        combos = 1
        for f in functions:
            combos *= len(f.terms) if hasattr(f, "terms") else f.m
        self.counts["accum_terms"] += combos * N

    def _count_systems_frac_multiples(self, args, kwargs, out):
        self.counts["phase_entries"] += len(out)

    def _count_systems_multiply(self, args, kwargs, out):
        f, g = args[0], args[1]
        self.counts["multiply_calls"] += 1
        if hasattr(out, "terms"):
            self.maxima["max_terms"] = max(self.maxima["max_terms"], len(out.terms))
            budget = args[2] if len(args) > 2 else kwargs.get("budget", _term_budget())
            self.maxima["term_budget_share"] = max(
                self.maxima["term_budget_share"], len(f.terms) * len(g.terms) / budget
            )
        if self._open[HK]:
            self.counts["hk_nodes"] += 1

    def _count_systems_apply_power(self, args, kwargs, out):
        self.counts["apply_power_calls"] += 1

    def _count_seminorms_hk_seminorm_estimate(self, args, kwargs, out):
        self.counts["hk_nodes"] += 1  # the root; every other node does one multiply

    def _count_fracpoly_pet_reduce(self, args, kwargs, out):
        self.counts["pet_steps"] += len(out.steps)
        sizes = [len(args[0])] + [len(s.family_after) for s in out.steps]
        self.maxima["max_family_size"] = max(self.maxima["max_family_size"], max(sizes))

    def _count_primes_save_table(self, args, kwargs, out):
        self.counts["cache_bytes"] += os.path.getsize(args[1])

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Total and self seconds and call counts per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for (name, t0, t1, _), c in zip(self.spans, child):
            rec = out[name]
            rec["total_s"] += t1 - t0
            rec["self_s"] += t1 - t0 - c
            rec["calls"] += 1
        return dict(out)

    def useful_entries(self) -> int:
        return sum(self.useful.values())


def _term_budget() -> int:
    from fracergo.systems import TERM_BUDGET

    return TERM_BUDGET


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """The per-layer metrics of one traced pass (seconds, counts, ratios)."""
    s = tracer.summary()
    c, m = tracer.counts, tracer.maxima

    def tot(name):
        return s.get(name, {}).get("total_s", 0.0)

    def self_(name):
        return s.get(name, {}).get("self_s", 0.0)

    def per_entry_ns(seconds, entries):
        return seconds / entries * 1e9 if entries else 0.0

    it_s, it_n = tot("averages.iterate_values"), c["iterate_entries"]
    ph_s, ph_n = tot("systems.frac_multiples"), c["phase_entries"]
    return {
        "averages.iterate_s": it_s,
        "averages.iterate_entries": it_n,
        "averages.iterate_ns_per_entry": per_entry_ns(it_s, it_n),
        "averages.iterate_useful_ratio": tracer.useful_entries() / it_n if it_n else 0.0,
        "averages.weyl_self_s": self_("averages.weyl_sum"),
        "averages.accum_self_s": self_("averages.multi_average"),
        "averages.accum_terms": c["accum_terms"],
        "averages.recur_self_s": self_("averages.recurrence_profile"),
        "averages.weight_s": tot("averages.weight_values"),
        "systems.phase_s": ph_s,
        "systems.phase_entries": ph_n,
        "systems.phase_ns_per_entry": per_entry_ns(ph_s, ph_n),
        "systems.multiply_s": tot("systems.multiply"),
        "systems.multiply_calls": c["multiply_calls"],
        "systems.max_terms": m["max_terms"],
        "systems.term_budget_share": m["term_budget_share"],
        "systems.apply_power_s": tot("systems.apply_power"),
        "systems.apply_power_calls": c["apply_power_calls"],
        "systems.integrate_s": tot("systems.integrate"),
        "seminorms.hk_self_s": self_(HK),
        "seminorms.hk_nodes": c["hk_nodes"],
        "seminorms.gowers_s": tot("seminorms.gowers_norm_cyclic"),
        "fracpoly.pet_self_s": self_("fracpoly.pet_reduce"),
        "fracpoly.vdc_op_s": tot("fracpoly.vdc_op"),
        "fracpoly.type_vector_s": tot("fracpoly.type_vector"),
        "fracpoly.choose_a_s": tot("fracpoly.choose_a"),
        "fracpoly.trace_to_json_s": tot("fracpoly.trace_to_json"),
        "fracpoly.pet_steps": c["pet_steps"],
        "fracpoly.max_family_size": m["max_family_size"],
        "primes.sieve_s": self_("primes.sieve"),
        "primes.cache_write_s": tot("primes.save_table"),
        "primes.cache_bytes": c["cache_bytes"],
        "primes.cache_read_s": tot("primes.load_table"),
        "primes.tuples_s": tot("primes.count_prime_tuples"),
        "primes.series_s": tot("primes.singular_series"),
        "primes.von_mangoldt_s": tot("primes.von_mangoldt_array"),
        "cli.self_s": self_("cli.main"),
        "cli.output_bytes": output_bytes,
    }
