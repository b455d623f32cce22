"""Multiple ergodic averages along integer parts of fractional-power
iterates, over plain integers or primes, with optional arithmetic
weights.

Everything here is a finite computation reported as-is: exponential
(Weyl) sums, multicorrelation averages with their L^2 distance to a
product benchmark, recurrence profiles for sets of positive measure,
and the prime-weighted experiment that ties norm decay of an average to
a seminorm certificate for one of its observables.  Averages and
recurrence profiles share one n-average on Z/m, the rotation and the
skew product, along any number of iterates.

Floors of iterate values are taken exactly.  The fast path is a float
evaluation; any value landing inside a guard band around an integer is
re-done with integer roots, at doubling precision where irrational
terms are left.  The band bounds the float error from the terms, not
from the value, since cancelling terms leave a small value with a large
error: sum_i |c_i| x^(e_i) (GUARD_ULPS eps + ln x |e_i - fl(e_i)|) +
1e-9, with fl(e_i) the double nearest e_i.

Torus averages are contracted by GEMM, CHUNK indices n at a time, not
summed per term combination: that moves them by about N eps sum|amp|.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .fracpoly import Family, RealExpPoly, family_to_json, is_nice
from .primes import PrimeTable, von_mangoldt_cube
from .systems import (
    Cyclic,
    CyclicFunction,
    FourierPoly,
    Rotation,
    Skew,
    SystemSpec,
    _canonical,
    _check_budget,
    _check_observable,
    _check_reach,
    constant,
    describe,
    frac_multiples,
    integrate,
    l2_distance,
    l2_norm,
)
from .seminorms import hk_seminorm_estimate

__all__ = [
    "IterateSpec",
    "Unweighted",
    "VonMangoldt",
    "DeltaVonMangoldt",
    "Bounded",
    "WeightSpec",
    "MultiAverage",
    "RecurrenceProfile",
    "ExperimentResult",
    "InvariantViolation",
    "iterate_value",
    "iterate_values",
    "weight_values",
    "weyl_sum",
    "multi_average",
    "recurrence_profile",
    "delta_average_experiment",
    "cfprime_experiment",
    "vdc_inequality_check",
    "l_n",
]

GUARD_ABS = 1e-9
# Float error of one term c * x**fl(e), in units of eps times its size:
# c rounded (1/2), the power (1: pow is within an ulp), the product (1/2);
# the running sum adds at most 1/2 per term.  8 covers iterate functions
# of up to 12 terms; fl(e) != e is the separate ln x term.
GUARD_ULPS = 8
# Indices n per block of the torus contraction: one (CHUNK x terms)
# character matrix per iterate is alive at a time.
CHUNK = 1 << 12


class InvariantViolation(RuntimeError):
    """A quantity that must hold by proof failed numerically."""


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

    def describe(self) -> dict:
        return {"function": str(self.poly), "mode": self.mode}


# Weights attached to the averaging index n.  All are evaluated at the
# summation index itself, also in primes mode where the iterate argument
# is p_n: the weight stays a function of n.

@dataclass(frozen=True)
class Unweighted:
    pass


@dataclass(frozen=True)
class VonMangoldt:
    """Restriction of the von Mangoldt function to the primes: log n on
    primes, 0 elsewhere.  Never renormalized; its mean tending to 1 is
    part of what the experiments watch."""


@dataclass(frozen=True)
class DeltaVonMangoldt:
    """Product of the prime von Mangoldt weight over a cube of shifts."""

    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(int(h) for h in self.shifts))


@dataclass(frozen=True)
class Bounded:
    """An explicit bounded sequence, extended cyclically past its end."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("empty weight sequence")
        object.__setattr__(self, "values", vals)


WeightSpec = Union[Unweighted, VonMangoldt, DeltaVonMangoldt, Bounded]


def _describe_weight(w: WeightSpec) -> str:
    if isinstance(w, Unweighted):
        return "none"
    if isinstance(w, VonMangoldt):
        return "lambda"
    if isinstance(w, DeltaVonMangoldt):
        return "delta:" + ",".join(str(h) for h in w.shifts)
    return f"bounded[{len(w.values)}]"


def weight_values(weight: WeightSpec, N: int, table: Optional[PrimeTable] = None) -> np.ndarray:
    """The weight sequence at n = 1, ..., N as a float array."""
    if isinstance(weight, Unweighted):
        return np.ones(N)
    if isinstance(weight, Bounded):
        reps = -(-N // len(weight.values))
        return np.tile(np.asarray(weight.values), reps)[:N]
    if table is None:
        raise ValueError("prime-based weights need a sieve table")
    # The plain weight is the cube product over no shifts.
    shifts = weight.shifts if isinstance(weight, DeltaVonMangoldt) else ()
    return von_mangoldt_cube(table, shifts, N)


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
        if table is None:
            raise ValueError("primes mode needs a sieve table")
        if len(ns) and ns.max() > len(table.primes):
            raise ValueError(f"sieve holds {len(table.primes)} primes, need index {ns.max()}")
        return table.primes[ns - 1]
    return ns


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
    of every entry inside the guard band around an integer."""
    ns = np.asarray(ns, dtype=np.int64)
    xs = _argument_values(spec, ns, table)
    vals = spec.poly.eval((), xs)
    # Floors are int64: refuse what the cast would wrap with only a warning
    # (a double that rounds up to 2^63 too), and an exact re-do past it.
    outside = np.flatnonzero(~((vals >= -(2.0**63)) & (vals < 2.0**63)))
    if len(outside):
        raise _beyond_int64(spec, ns[outside[0]])
    out = np.floor(vals).astype(np.int64)
    risky = np.flatnonzero(np.abs(vals - np.rint(vals)) < _guard_band(spec.poly, xs))
    for i in risky:
        y = _floor_exact(spec.poly, int(xs[i]))
        if not -(2**63) <= y < 2**63:
            raise _beyond_int64(spec, ns[i])
        out[i] = y
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
    ns = np.arange(1, N + 1, dtype=np.int64)
    phases = np.zeros(N)
    for spec, t in zip(family, ts):
        t = float(t)
        if t == 0.0:
            continue
        if floor_iterates:
            js = iterate_values(spec, ns, table)
            phases += frac_multiples(t, js.tolist())
        else:
            phases += spec.poly.eval((), _argument_values(spec, ns, table)) * t
    return complex(np.mean(np.exp(2j * np.pi * phases)))


# ---------------------------------------------------------------------------
# Multicorrelation averages

@dataclass(frozen=True)
class MultiAverage:
    """A finite multicorrelation average: the averaged observable, its
    L^2 distance to the product benchmark, and the benchmark itself."""

    average: object
    distance: float
    benchmark: complex


def _gather_iterates(
    iterates: Sequence[IterateSpec], N: int, table: Optional[PrimeTable]
) -> list[np.ndarray]:
    ns = np.arange(1, N + 1, dtype=np.int64)
    return [iterate_values(spec, ns, table) for spec in iterates]


def _product_benchmark(sys, functions, weight) -> complex:
    if isinstance(weight, DeltaVonMangoldt):
        return 0j
    b = 1 + 0j
    for f in functions:
        b *= integrate(sys, f)
    return b


def multi_average(
    sys: SystemSpec,
    iterates: Sequence[IterateSpec],
    functions: Sequence,
    weight: WeightSpec,
    N: int,
    table: Optional[PrimeTable] = None,
) -> MultiAverage:
    """(1/N) sum_n w(n) * prod_i T^{a_i(n)} f_i, exactly accumulated in
    the system's own representation, with its L^2 distance to the
    product of integrals (zero for cube-difference weights).
    """
    if len(iterates) != len(functions):
        raise ValueError("one observable per iterate")
    if not iterates:
        raise ValueError("empty average")
    if N < 1:
        raise ValueError("empty average")
    for f in functions:
        _check_observable(sys, f)
    w = weight_values(weight, N, table)
    J = _gather_iterates(iterates, N, table)
    bench = _product_benchmark(sys, functions, weight)
    avg = _average(sys, J, functions, w)
    # The constant goes first, so its zero frequency leads the Parseval sum.
    return MultiAverage(avg, l2_distance(constant(sys, bench), avg), bench)


def _average(sys: SystemSpec, J, functions, w):
    """(1/N) sum_n w(n) prod_i T^{J[i][n]} f_i in the system's own
    representation."""
    if isinstance(sys, Cyclic):
        return _avg_cyclic(sys, J, functions, w)
    return _avg_torus(sys, J, functions, w)


def _avg_cyclic(sys: Cyclic, J, functions, w) -> CyclicFunction:
    m = sys.m
    arrays = [np.asarray(f.as_array()) for f in functions]
    shifts = [np.mod(j, m) for j in J]
    N = len(w)
    out = []
    for x in range(m):
        prod = np.ones(N, dtype=complex)
        for arr, j in zip(arrays, shifts):
            prod *= arr[(x + j) % m]
        out.append(complex(np.sum(w * prod) / N))
    return CyclicFunction.make(m, out)


def _avg_torus(sys: Union[Rotation, Skew], J, functions, w) -> FourierPoly:
    """A rotation frequency (k,) is read as (k, 0).  T^j moves frequency
    (k1, k2) to (k1 + j k2, k2), so the term combinations whose k2 are
    all 0 land on one frequency for every n and are contracted together;
    any other lands on a frequency per n, and its N rows are merged into
    the sum before the next combination."""
    N = len(w)
    rows = [np.pad(f.freqs, ((0, 0), (0, 2 - f.dim))) for f in functions]
    still = [np.flatnonzero(r[:, 1] == 0) for r in rows]
    # Only the combinations with some k2 != 0 are enumerated one by one.
    combos = math.prod(map(len, rows)) - math.prod(map(len, still))
    _check_budget(combos)
    # |sum_i k1_i + k2_i j_i(n)| is bounded before int64 arithmetic forms it
    reach = 0
    for r, j in zip(rows, J):
        jmax = max(-int(j.min(initial=0)), int(j.max(initial=0)))
        reach += int(np.abs(r[:, 0]).max(initial=0)) + int(np.abs(r[:, 1]).max(initial=0)) * (1 + jmax)
    _check_reach(reach)
    lin = [frac_multiples(sys.alpha, j.tolist()) for j in J]
    # Phases k * frac(j alpha) are off by at most |k| ulps.  Triangular
    # numbers overflow int64 for large iterates, so Python ints feed the
    # exact reduction; only k2 != 0 terms need them.
    tri = [
        frac_multiples(sys.alpha, [x * (x - 1) // 2 for x in j.tolist()]) if r[:, 1].any() else None
        for j, r in zip(J, rows)
    ]
    acc = FourierPoly.zero(2)
    if all(map(len, still)):
        ks = [r[t, 0] for r, t in zip(rows, still)]
        amps = [f.amps[t] for f, t in zip(functions, still)]
        k, a = _contract_stationary(ks, amps, lin, w)
        acc = _canonical(2, np.column_stack([k, 0 * k]), a)
    # Every combination with some k2 != 0 once: i is the first iterate with one.
    for combo in itertools.chain.from_iterable(
        itertools.product(*still[:i], np.flatnonzero(r[:, 1]), *map(range, map(len, rows[i + 1 :])))
        for i, r in enumerate(rows)
    ):
        k1, k2, amp, phase = 0, 0, 1 + 0j, np.zeros(N)
        for r, f, t, j, bl, bt in zip(rows, functions, combo, J, lin, tri):
            c1, c2 = r[t].tolist()
            amp *= complex(f.amps[t])
            if c1:
                phase += (c1 * bl) % 1.0
            if c2:
                phase += (c2 * bt) % 1.0
            k1 = k1 + c1 + c2 * j
            k2 += c2
        contrib = amp * w * np.exp(2j * np.pi * phase) / N
        freqs = np.vstack([acc.freqs, np.column_stack([k1, np.full(N, k2)])])
        acc = _canonical(2, freqs, np.concatenate([acc.amps, contrib]))
    return FourierPoly(sys.dim, acc.freqs[:, : sys.dim], acc.amps)


def _contract_stationary(ks, amps, lin, w) -> tuple[np.ndarray, np.ndarray]:
    """(1/N) sum_n w(n) prod_i a_i e(k_i frac(j_i(n) alpha)) over every
    combination of terms (k_i, a_i), one term of each iterate's
    frequencies ks[i] and amplitudes amps[i]; returns sums of k_i and
    their amplitudes, a sum repeated when it arises in several ways.

    Per CHUNK indices n, C_i[n, t] = a_t e(k_t frac(j_i(n) alpha)).  w C_1,
    ..., C_(l-1) fold into P[n, F] over the distinct frequency sums F, and
    one GEMM P^T C_l contracts the last iterate over n.  Each amplitude is
    its N terms summed in another order: about N eps sum|a| off."""
    # The frequency sums after each but the last iterate, and where sum F
    # times term t goes.
    sums, places = np.zeros(1, dtype=np.int64), []
    for k in ks[:-1]:
        sums, inv = np.unique(np.add.outer(sums, k).ravel(), return_inverse=True)
        places.append(inv.reshape(-1, len(k)))
    G = np.zeros((len(sums), len(ks[-1])), dtype=complex)
    for lo in range(0, len(w), CHUNK):
        x = [np.outer(b[lo : lo + CHUNK], k) for k, b in zip(ks, lin)]
        C = [a * np.exp(2j * np.pi * (y - np.floor(y))) for a, y in zip(amps, x)]  # y % 1.0, bit for bit
        P = w[lo : lo + CHUNK, None].astype(complex)
        for Ci, inv in zip(C[:-1], places):
            folded = np.zeros((len(P), inv.max() + 1), dtype=complex)
            for f in range(P.shape[1]):
                folded[:, inv[f]] += P[:, f, None] * Ci
            P = folded
        G += P.T @ C[-1]
    return np.add.outer(sums, ks[-1]).ravel(), (G / len(w)).ravel()


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
    _check_observable(sys, g)
    _require_real(sys, g)
    mu = integrate(sys, g)
    bench = mu.real ** (len(iterates) + 1)
    Nmax = max(N_list)
    J = _gather_iterates(iterates, Nmax, table)
    series = []
    for N in N_list:
        avg = _average(sys, [-j[:N] for j in J], [g] * len(J), np.ones(N))
        series.append((N, (l2_distance(avg, g.scale(-1)) ** 2 - l2_distance(avg, g) ** 2) / 4))
    return RecurrenceProfile(tuple(series), bench)


def _require_real(sys: SystemSpec, g) -> None:
    if isinstance(sys, Cyclic):
        defect = np.array([v.imag for v in g.values])
    else:
        # g - conj(g): g.conjugate() has conj(g_(-k)) at k
        defect = (g + g.conjugate().scale(-1)).amps
    if np.any(np.abs(defect) > 1e-12):
        raise ValueError("recurrence needs a real-valued g")


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class ExperimentResult:
    series: tuple[tuple[int, float], ...]
    metadata: dict
    wall_time: float

    def __post_init__(self):
        lengths = [n for n, _ in self.series]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("average lengths must increase")


def l_n(N: int) -> int:
    """Slowly growing shift range floor(exp(sqrt(log N)))."""
    if N < 1:
        raise ValueError("length must be positive")
    return math.floor(math.exp(math.sqrt(math.log(N))))


def delta_average_experiment(
    sys: SystemSpec,
    iterates: Sequence[IterateSpec],
    functions: Sequence,
    k: int,
    N_list: Sequence[int],
    table: Optional[PrimeTable] = None,
) -> ExperimentResult:
    """Cube-difference averages with the shift tuple swept over
    [l_n(N)]^k: the L^2 norm sits inside the shift average, not outside,
    and the benchmark is zero.
    """
    if k < 1:
        raise ValueError("need at least one shift coordinate")
    t0 = time.monotonic()
    series = []
    for N in N_list:
        L = l_n(N)
        dists = []
        for shifts in itertools.product(range(1, L + 1), repeat=k):
            r = multi_average(sys, iterates, functions, DeltaVonMangoldt(shifts), N, table)
            dists.append(r.distance)
        series.append((int(N), float(np.mean(dists))))
    meta = {
        "kind": "delta_average",
        "system": describe(sys),
        "iterates": [s.describe() for s in iterates],
        "shift_coordinates": k,
    }
    return ExperimentResult(tuple(series), meta, time.monotonic() - t0)


def cfprime_experiment(
    sys: SystemSpec,
    family: Family,
    functions: Sequence,
    s: int,
    N_list: Sequence[int],
    table: Optional[PrimeTable] = None,
    designated: int = 0,
) -> ExperimentResult:
    """Prime-weighted average norms next to a seminorm certificate.

    The family supplies the iterate exponents (evaluated at the integer
    index, weighted by the prime von Mangoldt function).  One designated
    observable gets a degree-s seminorm estimate recorded in the
    metadata; the series is the L^2 norm of the weighted average at each
    length.  Decay of the series with a small certificate, or no decay
    with a large one, is the pattern the controlling inequality
    predicts.
    """
    funcs = list(functions)
    if len(funcs) != len(family.functions):
        raise ValueError("one observable per family member")
    if not is_nice(family):
        raise ValueError("the iterate family must be nice")
    if len(set(family.functions)) < len(family.functions):
        raise ValueError("family members must be pairwise distinct")
    if not 0 <= designated < len(funcs):
        raise ValueError("designated index out of range")
    t0 = time.monotonic()
    cert = hk_seminorm_estimate(sys, funcs[designated], s)
    specs = [IterateSpec(f, "integers") for f in family.functions]
    series = []
    for N in N_list:
        r = multi_average(sys, specs, funcs, VonMangoldt(), int(N), table)
        series.append((int(N), l2_norm(r.average)))
    meta = {
        "kind": "prime_weighted_norms",
        "system": describe(sys),
        "family": family_to_json(family),
        "seminorm_degree": s,
        "seminorm_schedule": list(cert.N_schedule),
        "seminorm_value": cert.value,
        "designated": designated,
    }
    return ExperimentResult(tuple(series), meta, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# The finitary van der Corput inequality

def vdc_inequality_check(u: np.ndarray, H: int) -> tuple[float, float]:
    """Both sides of the finitary averaging inequality for a sequence of
    vectors, checked and returned.

    u has shape (N, d): N vectors in C^d.  The left side is the squared
    norm of the mean; the right side is the 2/H leading term plus the
    triangular sum of shifted inner products.  A numerical violation
    beyond 1e-9 raises, since the inequality is unconditional.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or len(u) == 0:
        raise ValueError("need a nonempty (N, d) array")
    N = len(u)
    if not 1 <= H <= N:
        raise ValueError("window must satisfy 1 <= H <= N")
    mean = u.mean(axis=0)
    lhs = float(np.sum(np.abs(mean) ** 2))
    norms = float(np.mean(np.sum(np.abs(u) ** 2, axis=1)))
    tri = 0.0
    for h in range(1, H):
        inner = complex(np.sum(u[h:] * np.conj(u[:-h]))) / N
        tri += (1 - h / H) * inner.real
    rhs = 2.0 / H * norms + 4.0 / H * tri
    if lhs > rhs + 1e-9:
        raise InvariantViolation(f"averaging inequality violated: {lhs} > {rhs}")
    return lhs, rhs
