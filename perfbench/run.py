"""Benchmark for fracergo: whole ``fracergo`` CLI runs, checked.

    python3 perfbench/run.py --workload weyl-primes --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the program is taken from
``src/``; nothing is installed).  A run repeats *passes* of the
workload, each pass being its fixed sequence of CLI processes (see
``workloads.py``), for about ``--seconds`` seconds, and at least
``MIN_PASSES`` times.  It sets the workload up from scratch (input
files, sieve cache warm-up, a bare ``import fracergo.cli``) before the
first pass and once more after every pass, and reports the median as
``setup_s``.

``--trace 0`` reports the end-to-end metrics over the passes.  The
wall time of one workload run (``wall_s``) and the user + system CPU
time of its processes (``cpu_s``) are the sums over its invocations of
each invocation's median over the passes.  On a shared 2-vCPU virtual
machine the CPU runs up to 1.5x slower for stretches of 10-30 s; a
per-invocation median drops a stretch that hits one pass, where a
median of pass totals would keep part of it.  ``peak_rss_mb`` is the largest
per-invocation median max-RSS.  The quartiles printed next to each of
these are those of the per-pass totals (per-pass maxima for
``peak_rss_mb``), so they show how much whole passes spread.
``failure_rate`` is failed / attempted operations, an operation being
one invocation with its output checks (see ``checks.py``); it is
printed with the rest and carried in the result line as
``failed``/``attempted``.

``--trace 1`` gives the per-layer metrics instead.  It runs one pass as
processes (for ``cli.startup_s``), then alternates untraced and traced
passes inside this process through ``fracergo.cli.main(argv)``, with
spans recorded by ``spans.py``.  The tracing overhead is printed as the
traced minus the untraced median pass time, and reported as
``trace.overhead_factor``, their ratio.  Two run-level checks count as
operations of a traced run and fail it when they fail: the predicted
split (``SPLIT``) and the work counts stored in ``references.json``.
End-to-end numbers never come from a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-pass records,
the environment and (traced) the spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 3
# Stop starting passes past this point, so a run ends well inside the
# 180 s a run may take even when the program gets much slower.
PASS_BUDGET_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "failure_rate": "share",
                    "setup_s": "s"}
# failure_rate is 0 when all is well, so the result line carries it as
# ``failed``/``attempted`` rather than as a metric (its metrics are
# never 0).
RESULT_METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")

# The predicted split, checked (and printed) by every traced run.
SPLIT = {
    "weyl-primes": "averages.iterate_s + systems.phase_s >= 80% of the traced pass",
    "joint-torus": "averages.accum_self_s + averages.recur_self_s >= 80% of the traced pass, "
    "averages.iterate_s < 5%",
    "exact-kernels": "every averages.*_s is 0",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


# ---------------------------------------------------------------------------
# one CLI process

def run_process(cmd: list[str], log_path: str) -> dict:
    """Run ``cmd`` from the checkout root; wall, CPU and max-RSS come from
    the child's own rusage."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
    }


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "fracergo.cli", *argv]


# ---------------------------------------------------------------------------
# set-up

def setup(name: str, seed: int, work_dir: str):
    """Build the workload in ``work_dir`` from scratch: input files, warm
    sieve caches and a bare ``import fracergo.cli``.  Returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    w = workloads.build(name, seed, work_dir)
    workloads.write_inputs(w, work_dir)
    for cache, limit in sorted(w.warm_caches.items()):
        argv = ["sieve", "--limit", str(limit), "--cache", os.path.join(work_dir, "cache", cache),
                "--out", os.path.join(work_dir, "setup-out")]
        if run_process(cli_cmd(argv), os.path.join(work_dir, "setup.log"))["rc"] != 0:
            raise RuntimeError(f"cache warm-up failed: {' '.join(argv)}")
    if run_process([sys.executable, "-c", "import fracergo.cli"], os.path.join(work_dir, "import.log"))["rc"]:
        raise RuntimeError("import fracergo.cli failed")
    return w, time.perf_counter() - t0


def timed_setup(name: str, seed: int, run_dir: str) -> float:
    """One more set-up from scratch, thrown away: set-up is timed once
    before the first pass and once after every pass, so that its median
    samples the whole run rather than its first second."""
    spare = os.path.join(run_dir, "spare")
    try:
        return setup(name, seed, spare)[1]
    finally:
        shutil.rmtree(spare, ignore_errors=True)


def _stat(path: str):
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


class Pass:
    """Per-step records of one pass, with the problems its checks found."""

    def __init__(self, kind: str):
        self.kind = kind
        self.steps: list[dict] = []

    @property
    def wall_s(self) -> float:
        return sum(s["wall_s"] for s in self.steps)


def _prepare(w, work_dir: str) -> None:
    for cache in w.fresh_caches:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(work_dir, "cache", cache))
    shutil.rmtree(os.path.join(work_dir, "out"), ignore_errors=True)
    for step in w.steps:
        os.makedirs(os.path.join(work_dir, "out", step.name))


def _finish_step(rec: dict, step, out: str, warm_stats: dict) -> dict:
    rec["problems"] = checks.check_sidecar(out, step.argv[0], rec["rc"])
    if rec["problems"] and rec["stderr"].strip():
        rec["problems"].append("stderr: " + rec["stderr"].strip()[-500:])
    with contextlib.suppress(OSError):
        with open(os.path.join(out, step.argv[0] + ".csv"), "rb") as fh:
            rec["csv"] = fh.read()
        with open(os.path.join(out, step.argv[0] + ".json"), "r", encoding="utf-8") as fh:
            rec["sidecar_wall_s"] = json.load(fh).get("wall_time_s")
    rec["output_bytes"] = sum(os.path.getsize(p) for p in glob.glob(os.path.join(out, "*")))
    for cache, before in warm_stats.items():
        if cache in step.argv and _stat(cache) != before:
            rec["problems"].append(f"warmed cache {os.path.basename(cache)} was rewritten")
    rec["step"] = step.name
    return rec


def process_pass(w, work_dir: str, warm_stats: dict) -> Pass:
    _prepare(w, work_dir)
    p = Pass("process")
    for step in w.steps:
        out = os.path.join(work_dir, "out", step.name)
        log = os.path.join(out, "stderr.log")
        rec = run_process(cli_cmd([*step.argv, "--out", out]), log)
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            rec["stderr"] = fh.read()
        p.steps.append(_finish_step(rec, step, out, warm_stats))
    return p


def inprocess_pass(cli, w, work_dir: str, warm_stats: dict, tracer=None) -> Pass:
    _prepare(w, work_dir)
    p = Pass("traced" if tracer else "in-process")
    for step in w.steps:
        out = os.path.join(work_dir, "out", step.name)
        if tracer is not None:
            tracer.invocation += 1
        err = io.StringIO()
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main([*step.argv, "--out", out])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            wall = time.perf_counter() - t0
        rec = {"rc": rc, "wall_s": wall, "stderr": err.getvalue()}
        p.steps.append(_finish_step(rec, step, out, warm_stats))
    return p


def run_passes(make_pass, seconds: float, min_passes: int, budget: float = PASS_BUDGET_S) -> list:
    """Repeat passes for about ``seconds``: another pass starts only if a
    typical one still fits, after the first ``min_passes``, and never
    when it would end past ``budget``."""
    passes, took = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(make_pass())
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(took)
        if elapsed + typical > budget:
            break
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break
    return passes


# ---------------------------------------------------------------------------
# output checks over a whole run

def check_run(w, passes: list, refs: dict, oracle_table) -> None:
    """Add CSV-identity, reference and oracle problems to every step."""
    pool_refs = refs["values"][w.name][str(w.pool)]
    first = {s["step"]: s.get("csv") for s in passes[0].steps}
    oracle = None
    if w.name == "weyl-primes":
        oracle = _weyl_oracle_problems(w, first["equidist"], oracle_table)
    for p in passes:
        for s in p.steps:
            if s.get("csv") is None:
                continue
            if s["csv"] != first[s["step"]]:
                s["problems"].append("CSV bytes differ from the first pass")
            try:
                rows = checks.parse_csv(s["csv"].decode())
            except (UnicodeDecodeError, ValueError, IndexError) as exc:
                s["problems"].append(f"unreadable CSV: {exc}")
                continue
            tol = checks.TOLERANCES[s["step"]][0]
            s["problems"] += checks.compare_rows(s["step"], rows, pool_refs[s["step"]], tol)
            if oracle and s["step"] == "equidist":
                s["problems"] += oracle


def _weyl_oracle_problems(w, csv_bytes, table) -> list[str]:
    if csv_bytes is None:
        return []
    from fracergo.fracpoly import family_from_json

    rows = {r[0]: r for r in checks.parse_csv(csv_bytes.decode())}
    fam = family_from_json(w.files["f2.json"])
    z, tol = checks.weyl_oracle(list(fam), w.values["t"], 10_000, table)
    _, re_, im_ = rows[10_000]
    if abs(complex(re_, im_) - z) > tol:
        return [f"equidist N=10000: {complex(re_, im_)} differs from the oracle {z} (tolerance {tol:.3g})"]
    return []


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    import mpmath
    import numpy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# reporting

def spread(values: list) -> dict:
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {"value": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def failures(passes: list) -> tuple[int, int]:
    """(failed, attempted) operations: one operation per invocation."""
    steps = [s for p in passes for s in p.steps]
    return sum(1 for s in steps if s["problems"]), len(steps)


def _per_step(proc: list, key: str, combine) -> dict:
    """``combine`` of the per-invocation medians of ``key``, with the
    quartiles of the per-pass ``combine`` of ``key``."""
    medians = [statistics.median(p.steps[i][key] for p in proc) for i in range(len(proc[0].steps))]
    out = spread([combine(s[key] for s in p.steps) for p in proc])
    out["value"] = combine(medians)
    return out


def end_to_end(passes: list, setup_times: list) -> dict:
    """The five end-to-end metrics: each a value with quartiles and count."""
    proc = [p for p in passes if p.kind == "process"]
    failed, attempted = failures(passes)
    return {
        "wall_s": _per_step(proc, "wall_s", sum),
        "cpu_s": _per_step(proc, "cpu_s", sum),
        "peak_rss_mb": _per_step(proc, "rss_mb", max),
        "failure_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "setup_s": spread(setup_times),
    }


def split_verdict(name: str, m: dict) -> bool:
    """Whether the per-layer metrics ``m`` show the predicted ``SPLIT``."""
    wall = m["trace.traced_wall_s"]
    if name == "weyl-primes":
        return m["averages.iterate_s"] + m["systems.phase_s"] >= 0.8 * wall
    if name == "joint-torus":
        return (m["averages.accum_self_s"] + m["averages.recur_self_s"] >= 0.8 * wall
                and m["averages.iterate_s"] < 0.05 * wall)
    return all(v == 0 for k, v in m.items() if k.startswith("averages.") and k.endswith("_s"))


def per_layer(first: Pass, untraced: list, traced: list) -> dict:
    layers = [layer_metrics(t, sum(s["output_bytes"] for s in p.steps)) for p, t in traced]
    out = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    out["cli.startup_s"] = sum(s["wall_s"] - (s.get("sidecar_wall_s") or 0.0) for s in first.steps)
    out["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in untraced)
    out["trace.traced_wall_s"] = statistics.median(p.wall_s for p, _ in traced)
    out["trace.overhead_factor"] = out["trace.traced_wall_s"] / out["trace.untraced_wall_s"]
    return out


def run_checks(name: str, layers: dict, refs: dict) -> dict:
    """The traced run's own checks: problem text per check, None if it passed."""
    want = refs["work_counts"][name]
    work = {k: layers[k] for k in want}
    return {
        "predicted split": None if split_verdict(name, layers) else f"does not hold: {SPLIT[name]}",
        "work counts": None if work == want else f"{work} differ from the stored {want}",
    }


LAYER_UNITS = {"_s": "s", "_ns_per_entry": "ns/entry", "_ratio": "share", "_share": "share",
               "_bytes": "B", "_factor": "x"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracergo", "cli.py")):
        print(f"error: no fracergo sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "references.json"), "r", encoding="utf-8") as fh:
        refs = json.load(fh)

    run_dir = os.path.join(WORK_ROOT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return _run(args, refs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, refs: dict, run_dir: str) -> int:
    import fracergo.cli as cli
    from fracergo.primes import sieve

    work_dir = os.path.join(run_dir, "work")
    w, took = setup(args.workload, args.seed, work_dir)
    setup_times = [took]
    if workloads.work_signature(w) != refs["work_signature"][w.name]:
        print(f"error: workload {w.name} for seed {args.seed} does not match the stored work "
              "signature; inputs would not do equal work across seeds", file=sys.stderr)
        return 3
    warm_stats = {os.path.join(work_dir, "cache", c): _stat(os.path.join(work_dir, "cache", c))
                  for c in w.warm_caches}

    traced_runs: list = []
    untraced: list = []
    if args.trace == 0:
        def one_pass():
            p = process_pass(w, work_dir, warm_stats)
            setup_times.append(timed_setup(args.workload, args.seed, run_dir))
            return p

        passes = run_passes(one_pass, args.seconds, MIN_PASSES)
    else:
        first = process_pass(w, work_dir, warm_stats)
        def pair():
            untraced.append(inprocess_pass(cli, w, work_dir, warm_stats))
            tracer = Tracer()
            tracer.install()
            try:
                p = inprocess_pass(cli, w, work_dir, warm_stats, tracer)
            finally:
                tracer.uninstall()
            traced_runs.append((p, tracer))
            return p

        run_passes(pair, args.seconds - first.wall_s, 1, PASS_BUDGET_S - first.wall_s)
        passes = [first] + untraced + [p for p, _ in traced_runs]

    oracle_table = sieve(cli._nth_prime_bound(10_000)) if w.name == "weyl-primes" else None
    check_run(w, passes, refs, oracle_table)

    failed, attempted = failures(passes)
    if args.trace == 1:
        layers = per_layer(first, untraced, traced_runs)
        verdicts = run_checks(w.name, layers, refs)
        failed += sum(1 for v in verdicts.values() if v)
        attempted += len(verdicts)
    env = environment()
    print(f"workload {w.name}, seed {args.seed} (value set {w.pool}), "
          f"{sum(1 for p in passes if p.kind == 'process')} process passes, "
          f"{len(traced_runs)} traced passes")
    for p in passes:
        for s in p.steps:
            for prob in s["problems"]:
                print(f"  FAILED {p.kind} {s['step']}: {prob}")

    result: dict = {"environment": env, "workload": w.name, "seed": args.seed, "values": w.values,
                    "passes": [[{k: v for k, v in s.items() if k != "csv"} for s in p.steps]
                               for p in passes]}
    if args.trace == 0:
        e2e = end_to_end(passes, setup_times)
        for k, v in e2e.items():
            if k == "failure_rate":
                print(f"  {k:<13} {v['value']:.4f} {END_TO_END_UNITS[k]} ({failed} of {attempted})")
            else:
                what = "median" if k == "setup_s" else "per-pass"
                print(f"  {k:<13} {v['value']:.4f} {END_TO_END_UNITS[k]:<3} "
                      f"({what} q1 {v['q1']:.4f}, q3 {v['q3']:.4f}, n={v['n']})")
        metrics = {k: {"value": e2e[k]["value"], "unit": END_TO_END_UNITS[k]} for k in RESULT_METRICS}
        result["end_to_end"] = e2e
    else:
        for k, v in layers.items():
            print(f"  {k:<32} {v:.6g} {layer_unit(k)}")
        overhead = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        print(f"  tracing overhead (traced minus untraced pass): {overhead:.4f} s")
        for check, prob in verdicts.items():
            print(f"  {check}: {'FAILED, ' + prob if prob else 'holds'}")
        # Every per-layer metric is reported, 0 included: a layer that does
        # no work on a workload reads 0 (every averages.* time on
        # exact-kernels is the predicted split itself).
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        result.update(per_layer=layers, tracing_overhead_s=overhead, run_checks=verdicts,
                      bindings=traced_runs[-1][1].bindings,
                      spans_of_last_traced_pass=traced_runs[-1][1].spans)
    print("environment: " + json.dumps(env, sort_keys=True))
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{w.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
