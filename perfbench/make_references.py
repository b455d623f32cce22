"""Regenerate ``references.json``: the reference outputs of every value
set, the work signature of each workload, and its traced work counts.

    python3 perfbench/make_references.py

Run it from the root of a source checkout, only at a commit whose
outputs are trusted.  For each of the ``workloads.POOL`` value sets and
each workload it does one traced in-process pass, keeps the CSV rows
and checks that work signatures and work counts agree across the value
sets.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads
from spans import Tracer, layer_metrics

WORK_COUNTS = (
    "averages.iterate_entries",
    "averages.accum_terms",
    "systems.phase_entries",
    "systems.multiply_calls",
    "systems.apply_power_calls",
    "seminorms.hk_nodes",
    "fracpoly.pet_steps",
    "fracpoly.max_family_size",
    "primes.cache_bytes",
)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import fracergo.cli as cli

    out = {"pool": workloads.POOL, "values": {}, "work_signature": {}, "work_counts": {}}
    for name in workloads.WORKLOADS:
        out["values"][name] = {}
        for pool in range(workloads.POOL):
            run_dir = os.path.join(run.WORK_ROOT, f"references-{name}-{pool}")
            shutil.rmtree(run_dir, ignore_errors=True)
            work_dir = os.path.join(run_dir, "work")
            w, _ = run.setup(name, pool, work_dir)
            stats = {os.path.join(work_dir, "cache", c): run._stat(os.path.join(work_dir, "cache", c))
                     for c in w.warm_caches}
            tracer = Tracer()
            tracer.install()
            try:
                p = run.inprocess_pass(cli, w, work_dir, stats, tracer)
            finally:
                tracer.uninstall()
            problems = [f"{s['step']}: {x}" for s in p.steps for x in s["problems"]]
            if problems:
                raise SystemExit(f"{name} value set {pool}: " + "; ".join(problems))
            layers = layer_metrics(tracer, 0)
            counts = {k: layers[k] for k in WORK_COUNTS}
            sig = workloads.work_signature(w)
            if pool == 0:
                out["work_signature"][name] = sig
                out["work_counts"][name] = counts
            elif sig != out["work_signature"][name] or counts != out["work_counts"][name]:
                raise SystemExit(f"{name}: value set {pool} does different work than value set 0: "
                                 f"{sig} {counts} against {out['work_signature'][name]} "
                                 f"{out['work_counts'][name]}")
            out["values"][name][str(pool)] = {
                s["step"]: checks.parse_csv(s["csv"].decode()) for s in p.steps
            }
            print(f"{name} value set {pool}: {p.wall_s:.2f} s traced", flush=True)
            shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
