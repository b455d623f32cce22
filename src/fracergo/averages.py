"""Multiple ergodic averages along integer parts of fractional-power
iterates, over plain integers or primes, with optional arithmetic
weights.

Everything here is a finite computation reported as-is: exponential
(Weyl) sums, multicorrelation averages with their L^2 distance to a
product benchmark, recurrence profiles for sets of positive measure,
and the prime-weighted experiment that ties norm decay of an average to
a seminorm certificate for its first observable.  Averages and
recurrence profiles share one n-average on Z/m, the rotation and the
skew product, along any number of iterates.

Floors of iterate values are taken exactly.  The fast path is a float
evaluation; any value landing inside a guard band around an integer is
re-done with integer roots, at doubling precision where irrational
terms are left.  The band bounds the float error from the terms, not
from the value, since cancelling terms leave a small value with a large
error: sum_i |c_i| x^(e_i) (GUARD_ULPS eps + ln x |e_i - fl(e_i)|) +
1e-9, with fl(e_i) the double nearest e_i.

Each system accumulates its own average (``average``) and gives its own
seminorm certificate (``seminorm``); nothing here asks which system it
holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .fracpoly import Family, RealExpPoly, family_to_json, is_nice
from .primes import PrimeTable, cube, von_mangoldt_cube
from .systems import CHUNK, SystemSpec, frac_multiples, integrate, l2_distance, l2_norm

GUARD_ABS = 1e-9
# Float error of one term c * x**fl(e), in units of eps times its size:
# c rounded (1/2), the power (1: pow is within an ulp), the product (1/2);
# the running sum adds at most 1/2 per term.  8 covers iterate functions
# of up to 12 terms; fl(e) != e is the separate ln x term.
GUARD_ULPS = 8


@dataclass(frozen=True)
class IterateSpec:
    """A single iterate sequence: floor of a parameter-free function of
    t, evaluated at n itself or at the n-th prime."""

    poly: RealExpPoly
    mode: str = "integers"

    def __post_init__(self):
        if self.poly.k != 0:
            raise ValueError("iterate functions take no shift parameters")
        if self.poly.is_constant_in_t():
            raise ValueError("iterate function is constant")
        if self.mode not in ("integers", "primes"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Weight:
    """The weight at the averaging index n: the product of Lambda(n + s)
    over s in cube(shifts), Lambda being log n on primes and 0 elsewhere;
    ``()`` gives Lambda itself and ``None`` the weight 1.  It is a function
    of n also in primes mode, and never renormalized: the mean of Lambda
    tending to 1 is part of what the experiments watch."""

    shifts: Optional[tuple[int, ...]]

    def __post_init__(self):
        if self.shifts is not None:
            object.__setattr__(self, "shifts", tuple(int(h) for h in self.shifts))

    def __str__(self) -> str:
        """The ``--weight`` text; ``parse_weight`` reads it back."""
        if self.shifts is None:
            return "none"
        return ("delta:" + ",".join(map(str, self.shifts))) if self.shifts else "lambda"

    def reach(self, N: int) -> int:
        """The sieve limit the weight reads at length N (0: it reads none)."""
        if self.shifts is None:
            return 0
        if min(cube(self.shifts)) < 0:  # as von_mangoldt_cube refuses, but before any sieve
            raise ValueError("cube offsets must be non-negative")
        return N + max(cube(self.shifts))


Unweighted = partial(Weight, None)
VonMangoldt = partial(Weight, ())
DeltaVonMangoldt = Weight


def parse_weight(text: str) -> Weight:
    """``none``, ``lambda`` or ``delta:h1,h2,...``."""
    if text == "none":
        return Unweighted()
    if text == "lambda":
        return VonMangoldt()
    shifts = [h for h in text.removeprefix("delta:").split(",") if h.strip()]
    if not text.startswith("delta:") or not shifts:
        raise ValueError(f"unknown weight {text!r}")
    return DeltaVonMangoldt(tuple(map(int, shifts)))


def weight_values(weight: Weight, N: int, table: Optional[PrimeTable] = None) -> np.ndarray:
    """The weight sequence at n = 1, ..., N as a float array."""
    if weight.shifts is None:
        return np.ones(N)
    if table is None:
        raise ValueError("prime-based weights need a sieve table")
    return von_mangoldt_cube(table, weight.shifts, N)


# ---------------------------------------------------------------------------
# Exact floors

def _iroot_floor(n: int, q: int) -> int:
    """Integer floor of n^(1/q) by Newton from above."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // q)
    while True:
        nr = ((q - 1) * r + n // r ** (q - 1)) // q
        if nr >= r:
            return r
        r = nr


def _exact_power(x: int, exp: Fraction) -> Optional[Fraction]:
    """x^exp as a rational, when it is one (x a positive integer)."""
    p, q = exp.numerator, exp.denominator
    xp = x**p
    r = _iroot_floor(xp, q)
    if r**q == xp:
        return Fraction(r)
    return None


def _floor_exact(poly: RealExpPoly, x: int) -> int:
    """Floor of poly(x) in integer arithmetic.

    Rational-valued terms accumulate in a Fraction.  The others are
    grouped by x^e up to a rational factor and each group's coefficient
    is summed exactly, so a cancellation such as x^(3/2) - 72 x^(13/10)
    at x = 72^5 is exactly 0.  Radicals of distinct groups are linearly
    independent over the rationals, so what is left is never an integer.
    Each x^g lies strictly between r / 2^bits and (r + 1) / 2^bits, with
    r the integer root of x^g 2^bits; bits doubles from 64 until the
    bracket this puts around the value holds no integer.
    """
    exact = Fraction(0)
    groups: dict[Fraction, Fraction] = {}  # x^g with g the largest exponent of its group
    for exp, c in poly.exponent_terms():
        r = _exact_power(x, exp)
        if r is not None:
            exact += c * r
            continue
        for g in groups:
            ratio = _exact_power(x, g - exp)
            if ratio is not None:
                groups[g] += c / ratio
                break
        else:
            groups[exp] = c
    if not any(groups.values()):
        return math.floor(exact)
    bits = 64
    while True:
        # poly(x) 2^bits lies strictly between lo and lo + width
        lo, width = exact * 2**bits, 0
        for g, c in groups.items():
            r = _iroot_floor(x**g.numerator << bits * g.denominator, g.denominator)
            lo += c * r + min(c, 0)
            width += abs(c)
        k = math.floor(lo / 2**bits)
        if lo + width <= (k + 1) * 2**bits:
            return k
        bits *= 2


def iterate_value(spec: IterateSpec, n: int, table: Optional[PrimeTable] = None) -> int:
    """The n-th term of the iterate sequence, floored exactly."""
    x = _argument_values(spec, np.array([n], dtype=np.int64), table)[0]
    return _floor_exact(spec.poly, int(x))


def _argument_values(spec: IterateSpec, ns: np.ndarray, table: Optional[PrimeTable]) -> np.ndarray:
    if len(ns) and ns.min() < 1:
        raise ValueError("indices start at 1")
    if spec.mode == "primes":
        _check_primes(table, ns.max() if len(ns) else 0)
        return table.primes[ns - 1]
    return ns


def _check_primes(table: Optional[PrimeTable], n: int) -> None:
    """Refuse primes-mode indices up to n that the table does not hold."""
    if table is None:
        raise ValueError("primes mode needs a sieve table")
    if n > len(table.primes):
        raise ValueError(f"sieve holds {len(table.primes)} primes, need index {n}")


def _guard_band(poly: RealExpPoly, xs: np.ndarray) -> np.ndarray:
    """A bound on |poly.eval((), x) - poly(x)| at every x (see GUARD_ULPS)."""
    xf = xs.astype(np.float64)
    lnx = np.log(xf)
    band = np.full(len(xf), GUARD_ABS)
    for exp, c in poly.exponent_terms():
        # x**fl(e) is off from x**e by a factor of about 1 + ln x |e - fl(e)|.
        rel = GUARD_ULPS * np.finfo(float).eps + lnx * float(abs(exp - Fraction(float(exp))))
        band += abs(float(c)) * xf ** float(exp) * rel
    return band


def iterate_values(
    spec: IterateSpec, ns: Sequence[int], table: Optional[PrimeTable] = None
) -> np.ndarray:
    """Vectorized iterate values: float evaluation with an exact re-do
    of every entry inside the guard band around an integer, CHUNK
    indices at a time."""
    ns = np.asarray(ns, dtype=np.int64)
    xs = _argument_values(spec, ns, table)
    out = np.empty(len(ns), dtype=np.int64)
    for lo in range(0, len(ns), CHUNK):
        x = xs[lo : lo + CHUNK]
        vals = spec.poly.eval((), x)
        # Floors are int64: refuse what the cast would wrap with only a warning
        # (a double that rounds up to 2^63 too), and an exact re-do past it.
        outside = np.flatnonzero(~((vals >= -(2.0**63)) & (vals < 2.0**63)))
        if len(outside):
            raise _beyond_int64(spec, ns[lo + outside[0]])
        out[lo : lo + CHUNK] = np.floor(vals)
        for i in np.flatnonzero(np.abs(vals - np.rint(vals)) < _guard_band(spec.poly, x)):
            y = _floor_exact(spec.poly, int(x[i]))
            if not -(2**63) <= y < 2**63:
                raise _beyond_int64(spec, ns[lo + i])
            out[lo + i] = y
    return out


def _beyond_int64(spec: IterateSpec, n) -> ValueError:
    return ValueError(f"iterate_values: floor of {spec.poly} at n = {n} is outside the int64 range")


# ---------------------------------------------------------------------------
# Weyl sums

def weyl_sum(
    family: Sequence[IterateSpec],
    ts: Sequence[float],
    N: int,
    table: Optional[PrimeTable] = None,
    floor_iterates: bool = True,
) -> complex:
    """(1/N) sum of e(sum_i t_i * a_i(n)) with a_i floored by default.

    With flooring off the phases use the raw real values instead; that
    variant is what the distinct-fractional-power criterion needs at
    t = 1, where floored phases are identically zero.
    """
    if len(ts) != len(family):
        raise ValueError("one frequency per iterate")
    if N < 1:
        raise ValueError("empty average")
    modes = {spec.mode for spec in family}
    if len(modes) > 1:
        raise ValueError("iterates must share a mode")
    if modes == {"primes"}:
        _check_primes(table, N)  # before the first block
    terms = [(spec, t) for spec, t in zip(family, map(float, ts)) if t != 0.0]
    total = 0j
    for lo in range(1, N + 1, CHUNK):
        ns = np.arange(lo, min(lo + CHUNK, N + 1), dtype=np.int64)
        phases = np.zeros(len(ns))
        for spec, t in terms:
            if floor_iterates:
                phases += frac_multiples(t, iterate_values(spec, ns, table))
            else:
                phases += spec.poly.eval((), _argument_values(spec, ns, table)) * t
        z = phases * (2j * np.pi)  # the characters in place: one complex block
        total += np.exp(z, out=z).sum()  # pairwise within a block, blocks in order
    return complex(total) / N


# ---------------------------------------------------------------------------
# Multicorrelation averages

@dataclass(frozen=True)
class MultiAverage:
    """A finite multicorrelation average: the averaged observable, its
    L^2 distance to the product benchmark, and the benchmark itself."""

    average: object
    distance: float
    benchmark: complex


def multi_average(
    sys: SystemSpec,
    iterates: Sequence[IterateSpec],
    functions: Sequence,
    weight: Weight,
    N: int,
    table: Optional[PrimeTable] = None,
) -> MultiAverage:
    """(1/N) sum_n w(n) * prod_i T^{a_i(n)} f_i, exactly accumulated in
    the system's own representation, with its L^2 distance to the
    product of integrals (zero for cube-difference weights).
    """
    if len(iterates) != len(functions):
        raise ValueError("one observable per iterate")
    if not iterates or N < 1:
        raise ValueError("empty average")
    sys.check_average(functions, N)
    w = weight_values(weight, N, table)
    J = [iterate_values(spec, np.arange(1, N + 1), table) for spec in iterates]
    # a cube difference averages to zero
    bench = 0j if weight.shifts else math.prod((integrate(sys, f) for f in functions), start=1 + 0j)
    avg = sys.average(J, functions, w)
    # The constant goes first, so its zero frequency leads the Parseval sum.
    return MultiAverage(avg, l2_distance(sys.constant(bench), avg), bench)


# ---------------------------------------------------------------------------
# Recurrence profiles

@dataclass(frozen=True)
class RecurrenceProfile:
    """Correlation of a set (or [0,1]-valued function) with its own
    shifted copies along the iterates, per average length, next to the
    measure^(l+1) benchmark the limit theory predicts as a floor."""

    series: tuple[tuple[int, float], ...]
    benchmark: float

    def __post_init__(self):
        lengths = [n for n, _ in self.series]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("average lengths must increase")


def recurrence_profile(
    sys: SystemSpec,
    g,
    iterates: Sequence[IterateSpec],
    N_list: Sequence[int],
    table: Optional[PrimeTable] = None,
) -> RecurrenceProfile:
    """mu(g and T^{-a_1(n)}g and ...) averaged over n <= N, for each N.

    This is the integral of g times A, the multicorrelation average of g
    along the negated iterates, on any system and for any number of
    iterates.  For real g it is Re<A, g> = (|A + g|^2 - |A - g|^2) / 4,
    taken from two L^2 distances; wherever A g = 0 both terms agree
    exactly, so a profile that vanishes identically reads 0.0.
    """
    if not iterates:
        raise ValueError("need at least one iterate")
    N_list = [int(n) for n in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("average lengths must increase")
    if any(n < 1 for n in N_list):
        raise ValueError("empty average")
    Nmax = max(N_list)
    sys.check_average([g] * len(iterates), Nmax)
    if not g.is_real():
        raise ValueError("recurrence needs a real-valued g")
    mu = integrate(sys, g)
    bench = mu.real ** (len(iterates) + 1)
    J = [iterate_values(spec, np.arange(1, Nmax + 1), table) for spec in iterates]
    series = []
    for N in N_list:
        avg = sys.average([-j[:N] for j in J], [g] * len(J), np.ones(N))
        series.append((N, (l2_distance(avg, g.scale(-1)) ** 2 - l2_distance(avg, g) ** 2) / 4))
    return RecurrenceProfile(tuple(series), bench)


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class ExperimentResult:
    series: tuple[tuple[int, float], ...]
    metadata: dict

    def __post_init__(self):
        lengths = [n for n, _ in self.series]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("average lengths must increase")


def check_experiment(
    sys: SystemSpec, family: Family, functions: Sequence, s: int, N_list: Sequence[int]
) -> None:
    """The refusals of ``cfprime_experiment``, which need no table: run
    them before sieving one."""
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("average lengths must increase")
    if len(functions) != len(family.functions):
        raise ValueError("one observable per family member")
    if not is_nice(family):
        raise ValueError("the iterate family must be nice")
    if len(set(family.functions)) < len(family.functions):
        raise ValueError("family members must be pairwise distinct")
    sys.check_degree(s)


def cfprime_experiment(
    sys: SystemSpec,
    family: Family,
    functions: Sequence,
    s: int,
    N_list: Sequence[int],
    table: Optional[PrimeTable] = None,
) -> ExperimentResult:
    """Prime-weighted average norms next to a seminorm certificate.

    The family supplies the iterate exponents (evaluated at the integer
    index, weighted by the prime von Mangoldt function).  The first
    observable gets a degree-s seminorm estimate recorded in the
    metadata; the series is the L^2 norm of the weighted average at each
    length.  Decay of the series with a small certificate, or no decay
    with a large one, is the pattern the controlling inequality
    predicts.
    """
    funcs = list(functions)
    check_experiment(sys, family, funcs, s, N_list)
    cert = sys.seminorm(funcs[0], s)
    specs = [IterateSpec(f, "integers") for f in family.functions]
    series = []
    for N in N_list:
        r = multi_average(sys, specs, funcs, VonMangoldt(), int(N), table)
        series.append((int(N), l2_norm(r.average)))
    meta = {
        "kind": "prime_weighted_norms",
        "weight": str(VonMangoldt()),
        "system": str(sys),
        "family": family_to_json(family),
        "seminorm_degree": s,
        "seminorm_schedule": list(cert.N_schedule),
        "seminorm_value": cert.value,
    }
    return ExperimentResult(tuple(series), meta)
