"""The paper's checks that the command line never runs.

The prime tuple count against its sieve upper bound, the cube
correlation bound over star shift tuples, the finitary van der Corput
inequality, the delta averages over shift cubes and the equivalence of
two functions.  Tier-1 and the acceptance criteria test the paper's
statements through these; ``fracergo`` itself does not need them, so
they live next to the tests and are built only from the package's
public pieces (and ``fracpoly._head``, which defines equivalence).
"""

import itertools
import math
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from fracergo.averages import DeltaVonMangoldt, ExperimentResult, IterateSpec, multi_average
from fracergo.fracpoly import RealExpPoly, _head
from fracergo.primes import PrimeTable, count_prime_tuples, cube, sieve, singular_series, von_mangoldt_cube
from fracergo.systems import SystemSpec, describe


# ---------------------------------------------------------------------------
# fracpoly

def equivalent(a: RealExpPoly, b: RealExpPoly) -> bool:
    """True iff deg(a) = deg(b) and deg(a - b) is strictly smaller."""
    if a.k != b.k:
        raise ValueError("parameter-count mismatch")
    d = a.degree()
    return d == b.degree() and d >= 0 and _head(a, d) == _head(b, d)


# ---------------------------------------------------------------------------
# primes: star tuples, tuple bounds and singular series averages

def is_star(shifts: Sequence[int]) -> bool:
    c = cube(shifts)
    return len(set(c)) == len(c)


def twin_series_batch(H: int, prime_cutoff: int, table: Optional[PrimeTable] = None) -> np.ndarray:
    """Values of the truncated pair series at (0, h) for h = 1..H, via the
    multiplicative closed form.

    For p = 2 the factor vanishes unless h is even; for odd p the factor
    depends only on whether p divides h, which turns the product into a
    constant times a correction over the odd prime divisors of h.  Needs
    prime_cutoff >= H so every divisor is inside the truncation range.
    """
    if prime_cutoff < H:
        raise ValueError("prime_cutoff must cover every h (divisors up to H matter)")
    if table is None or table.limit < prime_cutoff:
        table = sieve(prime_cutoff)
    ps = table.primes[(table.primes <= prime_cutoff) & (table.primes > 2)].astype(np.float64)
    base = 2.0 * math.exp(float(np.sum(np.log1p(-1.0 / (ps - 1.0) ** 2))))
    # Smallest-prime-factor table up to H for the divisor corrections.
    spf = np.zeros(H + 1, dtype=np.int64)
    for p in range(2, H + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    out = np.zeros(H + 1)
    for h in range(2, H + 1, 2):
        m = h
        corr = 1.0
        while m > 1:
            p = int(spf[m])
            if p > 2:
                corr *= (p - 1.0) / (p - 2.0)
            while m % p == 0:
                m //= p
        out[h] = base * corr
    return out[1:]


class TupleBoundCheck(NamedTuple):
    count: int
    series: float
    expected: float
    ratio: float
    ok: bool
    degenerate: bool


def check_tuple_bound(
    table: PrimeTable,
    N: int,
    shifts: Sequence[int],
    C_k: float,
    prime_cutoff: int = 10_000,
) -> TupleBoundCheck:
    """Compare the tuple count against C_k * series * N / (log N)^k.

    A vanishing series with a nonzero count is possible at desk scale
    (degenerate tuples like (0,1) admit one early solution); it is
    reported via ``degenerate`` rather than asserted away.
    """
    k = len(shifts)
    count = count_prime_tuples(table, N, shifts)
    g = singular_series(shifts, prime_cutoff, table).value
    expected = g * N / math.log(N) ** k
    if expected == 0.0:
        degenerate = True
        ratio = 0.0 if count == 0 else math.inf
    else:
        degenerate = False
        ratio = count / expected
    return TupleBoundCheck(count, g, expected, ratio, ratio <= C_k, degenerate)


def avg_singular_sq(
    H: int,
    ell: int,
    prime_cutoff: Optional[int] = None,
    table: Optional[PrimeTable] = None,
    star_only: bool = False,
) -> float:
    """Mean of the squared cube singular series over shift boxes [1,H]^ell.

    ell = 1 uses the multiplicative batch form (cutoff >= H required);
    ell = 2 evaluates the generic truncated product per tuple, which is
    why it is restricted to desk-scale H.
    """
    if ell not in (1, 2):
        raise ValueError("only one- and two-dimensional shift boxes are supported")
    if ell == 1:
        P = prime_cutoff if prime_cutoff is not None else max(1000, H)
        vals = twin_series_batch(H, P, table)
        return float(np.mean(vals**2))
    P = prime_cutoff if prime_cutoff is not None else max(1000, 4 * H)
    if table is None or table.limit < P:
        table = sieve(P)
    total = 0.0
    n_used = 0
    for h1, h2 in product(range(1, H + 1), repeat=2):
        if star_only and not is_star((h1, h2)):
            continue
        g = singular_series(cube((h1, h2)), P, table).value
        total += g * g
        n_used += 1
    return total / n_used


def star_complement_count(N: int, ell: int) -> int:
    """How many shift tuples in [1,N]^ell have a repeated cube coordinate."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if N**ell > 2_000_000:
        raise ValueError(f"enumeration of {N}^{ell} tuples is out of budget")
    bad = 0
    for shifts in product(range(1, N + 1), repeat=ell):
        if not is_star(shifts):
            bad += 1
    return bad


def check_cor_primes(
    table: PrimeTable, shifts: Sequence[int], c: int, N: int
) -> float:
    """Empirical mean over n in [1,N] of the cube von Mangoldt product at n+c.

    Only star tuples are accepted: with a repeated cube coordinate the
    product degenerates to a square and the bound under test does not
    apply.
    """
    if not is_star(shifts):
        raise ValueError(f"{tuple(shifts)} is not a star tuple")
    if c < 0:
        raise ValueError("c must be non-negative")
    return float(np.mean(von_mangoldt_cube(table, shifts, N + c)[c:]))


# ---------------------------------------------------------------------------
# averages: delta averages and the finitary van der Corput inequality

class InvariantViolation(RuntimeError):
    """A quantity that must hold by proof failed numerically."""


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
        "iterates": [{"function": str(s.poly), "mode": s.mode} for s in iterates],
        "shift_coordinates": k,
    }
    return ExperimentResult(tuple(series), meta)


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
