"""Command-line front door: one subcommand per experiment family.

Every run writes a CSV (the machine contract: ``N,value`` or
``N,value_re,value_im``), a JSON sidecar with the full configuration,
metadata and invariant checks, and optionally a self-contained SVG line
chart.  CSV output is byte-identical across reruns of the same
configuration; wall-clock time lives only in the sidecar.

Exit code 0 means every invariant asserted during the run passed;
failures are listed by name on stderr.
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

from . import averages, fracpoly, primes, seminorms, systems
from .fracpoly import json_field, json_int, json_ints, json_list

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
    fam = fracpoly.load_family(args.family)
    if fam.k != 0:
        raise ValueError("iterate families must be parameter-free (k = 0)")
    return [averages.IterateSpec(f, args.mode) for f in fam]


def _default_function(sys_spec):
    """The indicator of 0 on Z/m, e(last coordinate) on a torus."""
    if isinstance(sys_spec, systems.Cyclic):
        return systems.indicator(sys_spec.m, [0])
    return systems.fourier_e(sys_spec.dim, (0,) * (sys_spec.dim - 1) + (1,))


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _complex_pairs(value) -> list[complex]:
    return [complex(_real(re), _real(im)) for re, im in json_list(value)]


def _amplitude(desc, default_re: Optional[float] = None) -> complex:
    return complex(json_field(desc, "re", _real, default_re), json_field(desc, "im", _real, 0.0))


def _build_function(desc: dict, sys_spec):
    """One observable from its JSON descriptor; a malformed field is a
    ValueError that names it."""
    kind = json_field(desc, "kind", str, "fourier")
    if kind == "constant":
        return systems.constant(sys_spec, _amplitude(desc, 1.0))
    if isinstance(sys_spec, systems.Cyclic):
        m = sys_spec.m
        if kind == "indicator":
            return systems.indicator(m, json_field(desc, "points", json_ints))
        if kind == "cyclic":
            return systems.CyclicFunction.make(m, json_field(desc, "values", _complex_pairs))
        raise ValueError(f"function kind {kind!r} does not fit a cyclic system")
    dim = sys_spec.dim
    if kind == "fourier":
        terms = json_field(desc, "terms", json_list)
        entries = [(json_field(t, "freq", json_ints), _amplitude(t)) for t in terms]
        return systems.FourierPoly.make(dim, entries)
    if kind == "arc":
        if dim != 1:
            raise ValueError("arc functions live on the rotation")
        beta = json_field(desc, "beta", _real)
        return systems.fejer_arc(beta, json_field(desc, "n_terms", json_int, 40))
    raise ValueError(f"function kind {kind!r} does not fit this system")


def _load_functions(args, sys_spec, count: int) -> list:
    path = getattr(args, "functions", None)
    if path is None:
        return [_default_function(sys_spec)] * count
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    funcs = [_build_function(d, sys_spec) for d in json_field(data, "functions", json_list)]
    if len(funcs) == 1 and count > 1:
        funcs = funcs * count
    if len(funcs) != count:
        raise ValueError(f"need {count} observables, file has {len(funcs)}")
    return funcs


def _increasing(ns: list[int]) -> list[int]:
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("average lengths must be strictly increasing")
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


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
        fh.write("\n")


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


def _emit(args, name: str, rows: list[tuple], metadata: dict, checks: list[tuple[str, bool]],
          t0: float) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, name + ".csv"), rows)
    config = {
        k: v for k, v in vars(args).items() if k != "func" and isinstance(v, (str, int, float, bool, list, type(None)))
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": name,
        "config": config,
        "series": [list(r) for r in rows],
        "metadata": metadata,
        "checks": [{"name": n, "passed": ok} for n, ok in checks],
        "wall_time_s": time.monotonic() - t0,
    }
    _write_json(os.path.join(out_dir, name + ".json"), payload)
    if args.svg:
        _write_svg(os.path.join(out_dir, name + ".svg"), rows, name)
    failed = [n for n, ok in checks if not ok]
    for n in failed:
        print(f"invariant failed: {n}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_equidist(args) -> int:
    t0 = time.monotonic()
    specs = _iterate_specs(args)
    ts = args.t if args.t is not None else [1.0] * len(specs)
    if len(ts) != len(specs):
        raise ValueError("need one frequency per family member")
    N_list = _increasing(args.N)
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
    return _emit(args, "equidist", rows, meta, [("modulus_bound", ok)], t0)


def cmd_jointavg(args) -> int:
    t0 = time.monotonic()
    sys_spec = systems.parse_system(args.system)
    specs = _iterate_specs(args)
    funcs = _load_functions(args, sys_spec, len(specs))
    weight = averages.parse_weight(args.weight)
    N_list = _increasing(args.N)
    if args.cert_degree is not None:
        if args.mode == "primes" or isinstance(weight, averages.DeltaVonMangoldt):
            raise ValueError("--cert-degree runs over the integers with the lambda weight; "
                             "drop --mode primes and --weight delta:...")
        table = _table_for_averages(args, specs, averages.VonMangoldt(), N_list)
        fam = fracpoly.Family(tuple(s.poly for s in specs))
        result = averages.cfprime_experiment(
            sys_spec, fam, funcs, args.cert_degree, N_list, table
        )
        rows = [(N, v) for N, v in result.series]
        meta = dict(result.metadata)
        checks = [("finite_values", all(math.isfinite(v) for _, v in result.series))]
        return _emit(args, "jointavg", rows, meta, checks, t0)
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
        "weight": averages.describe_weight(weight),
        "benchmark_re": bench.real,
        "benchmark_im": bench.imag,
        "value_column": "l2 distance to the product benchmark",
    }
    return _emit(args, "jointavg", rows, meta, [("finite_values", ok)], t0)


def _table_for_averages(args, specs, weight, N_list) -> Optional[primes.PrimeTable]:
    Nmax = max(N_list)
    limit = 0
    if any(s.mode == "primes" for s in specs):
        limit = _nth_prime_bound(Nmax)
    if isinstance(weight, (averages.VonMangoldt, averages.DeltaVonMangoldt)):
        extra = 0
        if isinstance(weight, averages.DeltaVonMangoldt):
            extra = max(primes.cube(weight.shifts))
        limit = max(limit, Nmax + extra)
    if limit == 0:
        return None
    return primes.sieve(limit, args.cache)


def cmd_recurrence(args) -> int:
    t0 = time.monotonic()
    sys_spec = systems.parse_system(args.system)
    specs = _iterate_specs(args)
    g = _parse_set(args.g, sys_spec)
    N_list = _increasing(args.N)
    table = _table_for_averages(args, specs, averages.Unweighted(), N_list)
    profile = averages.recurrence_profile(sys_spec, g, specs, N_list, table)
    rows = [(N, v) for N, v in profile.series]
    ok = all(-1e-9 <= v <= 1 + 1e-9 for _, v in profile.series)
    meta = {
        "benchmark": profile.benchmark,
        "value_column": "correlation along the iterates",
    }
    return _emit(args, "recurrence", rows, meta, [("profile_range", ok)], t0)


def _parse_set(text: Optional[str], sys_spec):
    """--g indicator:p1,p2,... or arc:beta[:n_terms], built as the
    matching --functions descriptor."""
    if text is None:
        text = "indicator:0" if isinstance(sys_spec, systems.Cyclic) else "arc:0.3:40"
    kind, _, rest = text.partition(":")
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


def cmd_seminorm(args) -> int:
    t0 = time.monotonic()
    sys_spec = systems.parse_system(args.system)
    if args.oracle and not isinstance(sys_spec, systems.Rotation):
        raise ValueError("--oracle compares estimates on the rotation only")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    f = _load_functions(args, sys_spec, 1)[0]
    degrees = _increasing(args.s)
    rows = []
    checks = []
    oracle_vals = {}
    for s in degrees:
        if isinstance(sys_spec, systems.Cyclic):
            val = seminorms.gowers_norm_cyclic(f, s)
        else:
            schedule = None
            if args.N is not None:
                schedule = args.N[: s - 1]
            val = seminorms.hk_seminorm_estimate(sys_spec, f, s, schedule).value
        if args.oracle and s >= 2:
            oracle = seminorms.fourier_seminorm_rotation(f, s)
            oracle_vals[str(s)] = oracle
            checks.append((f"fourier_oracle_s{s}", abs(val - oracle) <= args.tol))
        rows.append((s, val))
    if isinstance(sys_spec, systems.Cyclic) and len(degrees) > 1:
        mono = all(a <= b + 1e-12 for (_, a), (_, b) in zip(rows, rows[1:]))
        checks.append(("cyclic_monotone", mono))
    meta = {
        "value_column": "seminorm value per degree (first column is the degree)",
        "oracle": oracle_vals,
    }
    return _emit(args, "seminorm", rows, meta, checks, t0)


def cmd_pet(args) -> int:
    t0 = time.monotonic()
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
    return _emit(args, "pet", rows, meta, [("type_descent", True)], t0)


def cmd_sieve(args) -> int:
    t0 = time.monotonic()
    checks = []
    meta: dict = {}
    if args.shifts is not None:
        N_list = _increasing(args.N if args.N is not None else [1000, 10000])
        limit = max(N_list) + max(max(args.shifts), 0)
        table = primes.sieve(max(limit, 100), args.cache)
        rows = [(N, primes.count_prime_tuples(table, N, args.shifts)) for N in N_list]
        cutoff = args.cutoff if args.cutoff is not None else 1000000
        ss = primes.singular_series(args.shifts, cutoff, table)
        meta["singular_series"] = {
            "value": ss.value,
            "tail_bound": ss.tail_bound,
            "cutoff": ss.cutoff,
        }
        checks.append(("counts_monotone", all(a[1] <= b[1] for a, b in zip(rows, rows[1:]))))
    else:
        if args.N is not None or args.cutoff is not None:
            raise ValueError("--N and --cutoff need --shifts: a plain sieve only counts the primes up to --limit")
        limit = args.limit
        table = primes.sieve(limit, args.cache)
        count = table.prime_count(limit)
        rows = [(limit, count)]
        if limit >= 17:
            checks.append(("prime_count_lower", count >= limit / math.log(limit)))
    meta["limit"] = table.limit
    return _emit(args, "sieve", rows, meta, checks, t0)


# ---------------------------------------------------------------------------
# parser

def _add_common(p, *, system=False, family=False, mode=False, weight=False):
    if system:
        p.add_argument("--system", required=True, help="cyclic:m, rotation[:alpha], or skew[:alpha]")
    if family:
        p.add_argument("--family", required=True, help="JSON family file (k = 0)")
    if mode:
        p.add_argument("--mode", choices=["integers", "primes"], default="integers")
    if weight:
        p.add_argument("--weight", default="none", help="none, lambda, or delta:h1,h2,...")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="recorded in the sidecar; runs are deterministic")
    p.add_argument("--svg", action="store_true", help="also write a line chart")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracergo",
        description="desk-scale averaging experiments along fractional-power iterates",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("equidist", help="Weyl sum sweeps")
    _add_common(p, family=True, mode=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000, 100000], help="comma-separated average lengths")
    p.add_argument("--cache", default=None, help="sieve cache file")
    p.add_argument("--t", type=_float_list, default=None, help="frequencies, one per member (default all 1)")
    p.add_argument("--no-floor", action="store_true", help="use raw values instead of integer parts")
    p.set_defaults(func=cmd_equidist)

    p = sub.add_parser("jointavg", help="multicorrelation averages")
    _add_common(p, system=True, family=True, mode=True, weight=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000], help="comma-separated average lengths")
    p.add_argument("--cache", default=None, help="sieve cache file")
    p.add_argument("--functions", default=None, help="JSON observable file")
    p.add_argument("--cert-degree", type=int, default=None,
                   help="record a seminorm certificate and run the prime-weighted norm series")
    p.set_defaults(func=cmd_jointavg)

    p = sub.add_parser("recurrence", help="return-set correlation profiles")
    _add_common(p, system=True, family=True, mode=True)
    p.add_argument("--N", type=_int_list, default=[1000, 10000], help="comma-separated average lengths")
    p.add_argument("--cache", default=None, help="sieve cache file")
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
    _add_common(p)
    p.add_argument("--limit", type=int, default=1000000, help="sieve upper bound")
    p.add_argument("--cache", default=None, help="sieve cache file")
    p.add_argument("--shifts", type=_int_list, default=None, help="count n with n+h prime for all shifts h")
    p.add_argument("--N", type=_int_list, default=None,
                   help="with --shifts: counting lengths (default 1000,10000)")
    p.add_argument("--cutoff", type=int, default=None,
                   help="with --shifts: singular series truncation (default 1000000)")
    p.set_defaults(func=cmd_sieve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError, fracpoly.PetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
