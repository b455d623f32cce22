"""Command-line front door: one subcommand per experiment family.

Each ``cmd_*`` returns ``(rows, metadata, checks)``; ``main`` times the
run from after parsing and writes a CSV (``N,value`` or
``N,value_re,value_im``), a JSON sidecar with the configuration, metadata,
checks and wall time, and optionally an SVG line chart.  CSV output is
byte-identical across reruns of the same configuration; wall time lives
only in the sidecar.

Exit code 0 means every invariant check passed; failures are listed by
name on stderr.  Refused input exits 1 with ``error: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

# OpenBLAS reads this once, when numpy first loads it, so it is set before
# any import below.  Its idle workers otherwise spin for about 2^28 cycles
# after each of the contraction's small GEMMs: a second core burnt for no
# wall time (joint-torus benchmark cpu_s 3.41 -> 2.00 s at wall_s 1.88 ->
# 1.89 s, medians of 10 paired runs on 2 vCPUs).  A value already set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import averages, fracpoly, primes, seminorms, systems  # noqa: E402
from .fracpoly import json_field, json_list

SCHEMA_VERSION = 2


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}")
    if not vals:
        raise ValueError("empty list")
    return vals


def _float_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(Fraction(piece)))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"not a finite number: {piece!r}")
    if not out:
        raise ValueError("empty list")
    return out


def _nth_prime_bound(n: int) -> int:
    """An upper bound for the n-th prime (safe sieve limit)."""
    if n < 6:
        return 13
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 10


def _iterate_specs(args) -> list[averages.IterateSpec]:
    return [averages.IterateSpec(f, args.mode) for f in fracpoly.load_family(args.family)]


def _build_function(desc: dict, sys_spec):
    """One observable from its JSON descriptor; a malformed field is a
    ValueError that names it."""
    kind = json_field(desc, "kind", str, "fourier")
    if kind == "constant":
        return sys_spec.constant(systems._amplitude(desc, 1.0))
    return sys_spec.observable(kind, desc)


def _load_functions(args, sys_spec, count: int) -> list:
    if args.functions is None:
        return [sys_spec.default_function()] * count
    with open(args.functions, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    funcs = [_build_function(d, sys_spec) for d in json_field(data, "functions", json_list)]
    if len(funcs) == 1 and count > 1:
        funcs = funcs * count
    if len(funcs) != count:
        raise ValueError(f"need {count} observables, file has {len(funcs)}")
    return funcs


def _increasing(ns: list[int], flag: str) -> list[int]:
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"{flag} must be strictly increasing")
    return ns


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean cells")
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _write_csv(path: str, rows: list[tuple]) -> None:
    width = len(rows[0]) if rows else 2
    header = {2: "N,value", 3: "N,value_re,value_im"}[width]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_svg(path: str, rows: list[tuple], title: str) -> None:
    """Minimal self-contained line chart: value (or modulus) against the
    run index, N labels on the x axis."""
    xs = [r[0] for r in rows]
    ys = [abs(complex(r[1], r[2])) if len(r) == 3 else float(r[1]) for r in rows]
    w, h, ml, mb, mt, mr = 640, 400, 60, 40, 30, 20
    lo, hi = min(ys), max(ys)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    pw, ph = w - ml - mr, h - mt - mb
    pts = []
    for i, y in enumerate(ys):
        px = ml + (pw * i / max(len(ys) - 1, 1))
        py = mt + ph * (1 - (y - lo) / span)
        pts.append(f"{px:.2f},{py:.2f}")
    labels = []
    for i, x in enumerate(xs):
        px = ml + (pw * i / max(len(xs) - 1, 1))
        labels.append(
            f'<text x="{px:.2f}" y="{h - mb + 16}" font-size="11" text-anchor="middle">{x}</text>'
        )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect width="{w}" height="{h}" fill="white"/>\n'
        f'<text x="{w / 2:.0f}" y="18" font-size="13" text-anchor="middle">{title}</text>\n'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>\n'
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="black"/>\n'
        f'<text x="{ml - 6}" y="{mt + 8}" font-size="11" text-anchor="end">{hi:.4g}</text>\n'
        f'<text x="{ml - 6}" y="{h - mb}" font-size="11" text-anchor="end">{lo:.4g}</text>\n'
        + "\n".join(labels)
        + f'\n<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{" ".join(pts)}"/>\n'
        "</svg>\n"
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)


def _emit(args, rows: list[tuple], metadata: dict, checks: list[tuple[str, bool]], t0: float) -> int:
    name, out_dir = args.cmd, args.out
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, name + ".csv"), rows)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": name,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "series": [list(r) for r in rows],
        "metadata": metadata,
        "checks": [{"name": n, "passed": ok} for n, ok in checks],
        "wall_time_s": time.monotonic() - t0,
    }
    with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    if args.svg:
        _write_svg(os.path.join(out_dir, name + ".svg"), rows, name)
    failed = [n for n, ok in checks if not ok]
    for n in failed:
        print(f"invariant failed: {n}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_equidist(args):
    specs = _iterate_specs(args)
    ts = args.t if args.t is not None else [1.0] * len(specs)
    if len(ts) != len(specs):
        raise ValueError("need one frequency per family member")
    N_list = _increasing(args.N, "--N")
    table = _table_for_averages(args, specs, averages.Unweighted(), N_list)
    rows = []
    ok = True
    for N in N_list:
        z = averages.weyl_sum(specs, ts, N, table, floor_iterates=not args.no_floor)
        ok = ok and abs(z) <= 1 + 1e-9
        rows.append((N, z.real, z.imag))
    meta = {
        "frequencies": ts,
        "floored": not args.no_floor,
        "moduli": [abs(complex(r[1], r[2])) for r in rows],
    }
    return rows, meta, [("modulus_bound", ok)]


def cmd_jointavg(args):
    sys_spec = systems.parse_system(args.system)
    specs = _iterate_specs(args)
    funcs = _load_functions(args, sys_spec, len(specs))
    weight = averages.parse_weight(args.weight)
    N_list = _increasing(args.N, "--N")
    sys_spec.check_average(funcs, N_list[-1])  # before the sieve, the weights and the iterates
    if args.cert_degree is not None:
        if args.mode == "primes" or weight.shifts:
            raise ValueError("--cert-degree runs over the integers with the lambda weight; "
                             "drop --mode primes and --weight delta:...")
        fam = fracpoly.Family(tuple(s.poly for s in specs))
        averages.check_experiment(sys_spec, fam, funcs, args.cert_degree, N_list)  # before the sieve
        table = _table_for_averages(args, specs, averages.VonMangoldt(), N_list)
        result = averages.cfprime_experiment(
            sys_spec, fam, funcs, args.cert_degree, N_list, table
        )
        checks = [("finite_values", all(math.isfinite(v) for _, v in result.series))]
        return list(result.series), result.metadata, checks
    table = _table_for_averages(args, specs, weight, N_list)
    rows = []
    bench = None
    ok = True
    for N in N_list:
        r = averages.multi_average(sys_spec, specs, funcs, weight, N, table)
        bench = r.benchmark
        ok = ok and math.isfinite(r.distance)
        rows.append((N, r.distance))
    meta = {
        "weight": str(weight),
        "benchmark_re": bench.real,
        "benchmark_im": bench.imag,
        "value_column": "l2 distance to the product benchmark",
    }
    return rows, meta, [("finite_values", ok)]


def _table_for_averages(args, specs, weight, N_list) -> Optional[primes.PrimeTable]:
    if N_list[0] < 1:  # refused before the table is sieved and cached
        raise ValueError("empty average")
    limit = weight.reach(N_list[-1])
    if any(s.mode == "primes" for s in specs):
        limit = max(limit, _nth_prime_bound(N_list[-1]))
    return primes.sieve(max(limit, 2), args.cache) if limit else None  # lambda at N = 1 reads up to 1


def cmd_recurrence(args):
    sys_spec = systems.parse_system(args.system)
    specs = _iterate_specs(args)
    g = _parse_set(args.g, sys_spec)
    N_list = _increasing(args.N, "--N")
    table = _table_for_averages(args, specs, averages.Unweighted(), N_list)
    profile = averages.recurrence_profile(sys_spec, g, specs, N_list, table)
    rows = [(N, v) for N, v in profile.series]
    ok = all(-1e-9 <= v <= 1 + 1e-9 for _, v in profile.series)
    meta = {
        "benchmark": profile.benchmark,
        "value_column": "correlation along the iterates",
    }
    return rows, meta, [("profile_range", ok)]


def _parse_set(text: Optional[str], sys_spec):
    """--g indicator:p1,p2,... or arc:beta[:n_terms], built as the
    matching --functions descriptor."""
    if sys_spec.default_set is None:
        raise ValueError("recurrence refuses every --g on the skew product: "
                         "indicator sets live on Z/m and arc functions live on the rotation")
    kind, _, rest = (sys_spec.default_set if text is None else text).partition(":")
    parts = rest.split(":")
    if kind == "indicator" and len(parts) == 1:
        desc = {"kind": kind, "points": _int_list(parts[0])}
    elif kind == "arc" and len(parts) in (1, 2):
        desc = {"kind": kind, "beta": float(parts[0])}
        if parts[1:]:
            desc["n_terms"] = int(parts[1])
    else:
        raise ValueError("sets are given as indicator:p1,p2,... or arc:beta[:n_terms]")
    return _build_function(desc, sys_spec)


def cmd_seminorm(args):
    sys_spec = systems.parse_system(args.system)
    if args.oracle and sys_spec.name != "rotation":
        raise ValueError("--oracle compares estimates on the rotation only")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    f = _load_functions(args, sys_spec, 1)[0]
    degrees = _increasing(args.s, "--s")
    rows = []
    checks = []
    oracle_vals = {}
    for s in degrees:
        # Z/m reads no --N: its norm is exact
        val = sys_spec.seminorm(f, s, None if args.N is None else args.N[: s - 1]).value
        if args.oracle and s >= 2:
            oracle = seminorms.fourier_seminorm_rotation(f, s)
            oracle_vals[str(s)] = oracle
            checks.append((f"fourier_oracle_s{s}", abs(val - oracle) <= args.tol))
        rows.append((s, val))
    if sys_spec.name == "cyclic" and len(degrees) > 1:
        mono = all(a <= b + 1e-12 for (_, a), (_, b) in zip(rows, rows[1:]))
        checks.append(("cyclic_monotone", mono))
    meta = {
        "value_column": "seminorm value per degree (first column is the degree)",
        "oracle": oracle_vals,
    }
    return rows, meta, checks


def cmd_pet(args):
    fam = fracpoly.load_family(args.family)
    trace = fracpoly.pet_reduce(fam)
    print(f"family of {len(fam)}, type {fracpoly.type_vector(fam)}")
    for i, step in enumerate(trace.steps, 1):
        print(
            f"step {i}: anchor {step.anchor_index}, "
            f"type {step.type_before} -> {step.type_after}, "
            f"{len(step.family_after)} members"
        )
    rows = [(0, len(fam))] + [(i, len(s.family_after)) for i, s in enumerate(trace.steps, 1)]
    meta = {
        "trace": fracpoly.trace_to_json(trace),
        "value_column": "family size per step (first column is the step)",
    }
    # pet_reduce raises on any descent violation, so reaching this point
    # certifies the strict type decrease.
    return rows, meta, [("type_descent", True)]


def cmd_sieve(args):
    if args.shifts is None:
        if args.N is not None or args.cutoff is not None:
            raise ValueError("--N and --cutoff need --shifts: a plain sieve only counts the primes up to --limit")
        limit = args.limit if args.limit is not None else 1000000
        table = primes.sieve(limit, args.cache)
        count = table.prime_count(limit)
        checks = [("prime_count_lower", count >= limit / math.log(limit))] if limit >= 17 else []
        return [(limit, count)], {"limit": table.limit}, checks
    if args.limit is not None:
        raise ValueError("--limit is for a plain sieve: with --shifts the table covers max N + max shift and --cutoff")
    N_list = _increasing(args.N if args.N is not None else [1000, 10000], "--N")
    if N_list[0] < 0:  # refused before the table is sieved and cached
        raise ValueError(f"counting length N must be >= 0, got {N_list[0]}")
    cutoff = args.cutoff if args.cutoff is not None else 1000000
    # count_prime_tuples' and singular_series' refusals, before the table is sieved and cached
    if len(set(args.shifts)) != len(args.shifts):
        raise ValueError("shifts must be distinct")
    spread = max(args.shifts) - min(args.shifts)
    if cutoff < max(2, spread):
        raise ValueError(f"cutoff {cutoff} below the largest pairwise difference {spread}")
    # One table for counts and series; 2 keeps it valid (a cutoff below is the series' error).
    table = primes.sieve(max(2, max(N_list) + max(max(args.shifts), 0), cutoff), args.cache)
    rows = [(N, primes.count_prime_tuples(table, N, args.shifts)) for N in N_list]
    series = primes.singular_series(args.shifts, cutoff, table)._asdict()
    monotone = all(a[1] <= b[1] for a, b in zip(rows, rows[1:]))
    return rows, {"limit": table.limit, "singular_series": series}, [("counts_monotone", monotone)]


# ---------------------------------------------------------------------------
# parser

def _add_common(p, *, system=False, family=False, mode=False, weight=False, cache=False):
    if system:
        p.add_argument("--system", required=True, help="cyclic:m, rotation[:alpha], or skew[:alpha]")
    if family:
        p.add_argument("--family", required=True, help="JSON family file (k = 0)")
    if mode:
        p.add_argument("--mode", choices=["integers", "primes"], default="integers")
    if weight:
        p.add_argument("--weight", default="none", help="none, lambda, or delta:h1,h2,...")
    if cache:
        p.add_argument("--cache", default=None, help="sieve cache file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--svg", action="store_true", help="also write a line chart")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracergo",
        description="desk-scale averaging experiments along fractional-power iterates",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("equidist", help="Weyl sum sweeps")
    _add_common(p, family=True, mode=True, cache=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000, 100000], help="comma-separated average lengths")
    p.add_argument("--t", type=_float_list, default=None, help="frequencies, one per member (default all 1)")
    p.add_argument("--no-floor", action="store_true", help="use raw values instead of integer parts")
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("jointavg", help="multicorrelation averages")
    _add_common(p, system=True, family=True, mode=True, weight=True, cache=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000], help="comma-separated average lengths")
    p.add_argument("--functions", default=None, help="JSON observable file")
    p.add_argument("--cert-degree", type=int, default=None,
                   help="record a seminorm certificate and run the prime-weighted norm series")
    p.set_defaults(func=cmd_jointavg)

    p = sub.add_parser("recurrence", help="return-set correlation profiles")
    _add_common(p, system=True, family=True, mode=True, cache=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000], help="comma-separated average lengths")
    p.add_argument("--g", default=None, help="indicator:p1,p2,... or arc:beta[:n_terms]")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("seminorm", help="uniformity seminorms and oracles")
    _add_common(p, system=True)
    p.add_argument("--N", type=_int_list, default=None,
                   help="truncation lengths on the rotation and skew systems, s-1 for degree s")
    p.add_argument("--functions", default=None, help="JSON observable file (first entry is used)")
    p.add_argument("--s", type=_int_list, default=[2], help="degrees to evaluate")
    p.add_argument("--oracle", action="store_true", help="compare rotation estimates to the coefficient formula")
    p.add_argument("--tol", type=float, default=1e-2, help="oracle comparison tolerance")
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("pet", help="degree-lowering reduction traces")
    _add_common(p)
    p.add_argument("--family", required=True, help="JSON family file")
    p.set_defaults(func=cmd_pet)

    p = sub.add_parser("sieve", help="prime tables, tuple counts, singular series")
    _add_common(p, cache=True)
    p.add_argument("--limit", type=int, default=None, help="without --shifts: sieve bound (default 1000000)")
    p.add_argument("--shifts", type=_int_list, default=None, help="count n with n+h prime for all shifts h")
    p.add_argument("--N", type=_int_list, default=None,
                   help="with --shifts: counting lengths (default 1000,10000)")
    p.add_argument("--cutoff", type=int, default=None,
                   help="with --shifts: singular series truncation (default 1000000)")
    p.set_defaults(func=cmd_sieve)

    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        return _emit(args, *args.func(args), t0)
    except (ValueError, KeyError, OSError, MemoryError, fracpoly.PetError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
