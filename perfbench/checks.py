"""Output checks.  Each CLI invocation of a pass is one operation; it
fails when any check on its outputs fails.

* the exit code is 0, the sidecar parses, names the right subcommand,
  repeats the CSV rows, and every invariant it lists passed;
* the CSV bytes equal those of the first pass of the run;
* the CSV values match the reference outputs stored in
  ``references.json`` for the seed's value set, within ``TOLERANCES``;
* the ``equidist`` row at N = 10^4 matches an independent oracle
  (``weyl_oracle``), computed after the timed part.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from fractions import Fraction

# Absolute tolerance per step on every value column, with its reason.
# Integer columns (N, degree, step index, counts) must match exactly.
TOLERANCES = {
    "equidist": (
        5e-5,
        "Weyl sums |z| <= 1.  The CLI rounds t to a double; reducing t exactly instead (a planned "
        "change) moves each phase by at most |t - fl(t)| * j <= 2^-54 * 6.2e10 = 3.4e-6 per iterate "
        "at N = 10^6, so z moves by at most 2*pi*2*3.4e-6 = 4.3e-5.",
    ),
    "jointavg-rotation": (
        1e-9,
        "L2 distances built from sums of N <= 10^4 unit-modulus terms per Fourier combination; "
        "reordering those sums (chunking, GEMM, prefix sums) moves them by about N*eps*sum|amp| "
        "< 1e-10.",
    ),
    "jointavg-skew": (1e-9, "as jointavg-rotation, with N <= 10^5 weighted by log p <= 15: < 2e-10."),
    "recurrence-rotation": (1e-9, "as jointavg-rotation: correlations in [0, 1] from N <= 10^5 term sums."),
    "seminorm-rotation": (
        1e-9,
        "2^s-th roots of averages over 40 x 40 nodes of exact Fourier products; reordering the "
        "float sums moves the value by far less than 1e-12, the root only shrinks it.",
    ),
    "seminorm-skew": (1e-9, "as seminorm-rotation, over 200 x 200 nodes."),
    "seminorm-cyclic": (
        1e-9,
        "exact Gowers norms on Z/40 in double precision; an FFT or derivative-array evaluation "
        "rounds differently by a few ulps.",
    ),
    "pet": (0.0, "family sizes per reduction step are exact integers."),
    "sieve-tuples": (0.0, "prime-tuple counts are exact integers."),
    "sieve-limit": (0.0, "pi(3*10^7) is an exact integer."),
}


def parse_csv(text: str) -> list[list]:
    """Rows of a CLI CSV (header dropped), integers kept as ``int``."""
    rows = []
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        rows.append([int(cells[0])] + [_num(c) for c in cells[1:]])
    return rows


def _num(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def check_sidecar(out_dir: str, subcommand: str, returncode: int) -> list[str]:
    """Problems with an invocation's exit code and sidecar ([] if none)."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        with open(os.path.join(out_dir, subcommand + ".json"), "r", encoding="utf-8") as fh:
            side = json.load(fh)
        with open(os.path.join(out_dir, subcommand + ".csv"), "r", encoding="utf-8") as fh:
            rows = parse_csv(fh.read())
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"unreadable output: {exc}"]
    if side.get("subcommand") != subcommand:
        problems.append(f"sidecar names {side.get('subcommand')!r}")
    if side.get("series") != rows:
        problems.append("sidecar series differs from the CSV")
    failed = [c["name"] for c in side.get("checks", []) if not c.get("passed")]
    if failed:
        problems.append("invariants failed: " + ", ".join(failed))
    if not isinstance(side.get("wall_time_s"), (int, float)):
        problems.append("sidecar has no wall_time_s")
    return problems


def compare_rows(step: str, rows: list, ref: list, tol: float) -> list[str]:
    """Problems comparing CSV rows with the stored reference rows."""
    if len(rows) != len(ref) or any(len(a) != len(b) for a, b in zip(rows, ref)):
        return [f"{step}: shape {[len(r) for r in rows]} differs from reference {[len(r) for r in ref]}"]
    problems = []
    for row, want in zip(rows, ref):
        for got, exp in zip(row, want):
            if isinstance(exp, int) and not isinstance(exp, bool):
                ok = got == exp
            else:
                ok = math.isfinite(got) and abs(got - exp) <= tol
            if not ok:
                problems.append(f"{step}: {got!r} differs from reference {exp!r} (tolerance {tol})")
    return problems


def weyl_oracle(family_terms, ts: list[str], N: int, table) -> tuple[complex, float]:
    """Independent value of the N-th Weyl average with its tolerance.

    Iterates come from the scalar, exact ``iterate_value``; phases are
    reduced in ``Fraction`` arithmetic with the exact rational t.  The
    tolerance covers the CLI rounding t to a double: phases move by
    |t - fl(t)| * j, plus summation rounding.
    """
    from fracergo.averages import IterateSpec, iterate_value

    fracs = [Fraction(t) for t in ts]
    total = 0j
    max_j = [0] * len(fracs)
    specs = [IterateSpec(p, "primes") for p in family_terms]
    for n in range(1, N + 1):
        phase = Fraction(0)
        for i, (spec, t) in enumerate(zip(specs, fracs)):
            j = iterate_value(spec, n, table)
            max_j[i] = max(max_j[i], j)
            phase += t * j
        phase -= math.floor(phase)
        total += cmath.exp(2j * math.pi * float(phase))
    drift = sum(abs(t - Fraction(float(t))) * j for t, j in zip(fracs, max_j))
    tol = 2 * math.pi * float(drift) + 1e-12
    return total / N, tol
