"""Prime sieving, the prime-restricted von Mangoldt function and its
product over a shift cube, tuple counts, and singular series.

The sieve is a plain numpy Eratosthenes with an optional on-disk cache
(one bit per odd integer, see ``save_table``/``load_table``); its table
is read through two arrays, ``is_prime`` and ``primes``.  The singular
series is an honestly truncated Euler product: the value comes back
with a rigorous bound on what the discarded primes can still change.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "PrimeTable",
    "sieve",
    "save_table",
    "load_table",
    "von_mangoldt_cube",
    "cube",
    "count_prime_tuples",
    "nu_p",
    "SingularSeries",
    "singular_series",
]

CACHE_MAGIC = b"FRGOSV01"

# A bool array of this many bytes is where we stop pretending this is a
# desk-scale computation.
MAX_SIEVE_BYTES = 1 << 31


@dataclass(frozen=True)
class PrimeTable:
    """Primality of every integer up to ``limit``, plus the sorted primes.

    ``is_prime`` is indexed directly by the integer; ``primes[n-1]`` is
    the n-th prime (so the first prime is 2).
    """

    limit: int
    is_prime: np.ndarray
    primes: np.ndarray

    def prime_count(self, n: int) -> int:
        """pi(n) for n <= limit."""
        if n > self.limit:
            raise ValueError(f"table covers up to {self.limit}, asked for pi({n})")
        return int(np.searchsorted(self.primes, n, side="right"))


def sieve(limit: int, cache_path: Optional[str] = None) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive.

    With ``cache_path``, an existing cache file that covers ``limit`` is
    reused (restricted to [0, limit]); otherwise the table is sieved and
    written there.
    """
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    needed = limit + 1
    if needed > MAX_SIEVE_BYTES:
        raise MemoryError(
            f"sieve up to {limit} needs {needed} bytes for the primality "
            f"table, over the {MAX_SIEVE_BYTES}-byte budget"
        )
    if cache_path is not None and os.path.exists(cache_path):
        cached = load_table(cache_path)
        if cached.limit >= limit:
            return _restrict(cached, limit)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    table = PrimeTable(limit, flags, np.flatnonzero(flags).astype(np.int64))
    if cache_path is not None:
        save_table(table, cache_path)
    return table


def _restrict(table: PrimeTable, limit: int) -> PrimeTable:
    if limit == table.limit:
        return table
    flags = table.is_prime[: limit + 1].copy()
    return PrimeTable(limit, flags, np.flatnonzero(flags).astype(np.int64))


def save_table(table: PrimeTable, path: str) -> None:
    """Cache format: 8-byte magic, 8-byte little-endian limit, then a
    bitset with one bit per odd integer (bit i is the flag of 2i+1)."""
    odd_flags = table.is_prime[1::2]
    payload = np.packbits(odd_flags, bitorder="little").tobytes()
    # A temp file of its own in the cache's directory, so that runs sharing
    # a cache never write the same file and the rename stays atomic.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(table.limit.to_bytes(8, "little"))
            fh.write(payload)
        # mkstemp's file is private (0600); a cache gets the mode open() gives
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str) -> PrimeTable:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != CACHE_MAGIC:
            raise ValueError(f"{path}: not a sieve cache (bad magic {magic!r})")
        limit = int.from_bytes(fh.read(8), "little")
        payload = fh.read()
    n_odd = (limit + 1) // 2
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    if len(bits) < n_odd:
        raise ValueError(f"{path}: truncated cache file")
    flags = np.zeros(limit + 1, dtype=bool)
    flags[1::2] = bits[:n_odd].astype(bool)
    if limit >= 2:
        flags[1] = False
        flags[2] = True
    return PrimeTable(limit, flags, np.flatnonzero(flags).astype(np.int64))


# ---------------------------------------------------------------------------
# von Mangoldt

def von_mangoldt_array(table: PrimeTable, upto: int) -> np.ndarray:
    """Vector of von Mangoldt values on 0..upto (index = argument)."""
    if upto > table.limit:
        raise ValueError(f"table covers up to {table.limit}, asked for {upto}")
    out = np.zeros(upto + 1)
    ps = table.primes[table.primes <= upto]
    out[ps] = np.log(ps.astype(np.float64))
    return out


def von_mangoldt_cube(table: PrimeTable, shifts: Sequence[int], N: int) -> np.ndarray:
    """The product of Lambda(n + s) over s in cube(shifts), for n = 1, ..., N.

    Factors are taken in increasing s, a repeated subset sum squaring
    its factor; the empty tuple gives Lambda itself (cube(()) = (0,)).
    """
    offsets = sorted(cube(shifts))
    if offsets[0] < 0:
        raise ValueError("cube offsets must be non-negative")
    lam = von_mangoldt_array(table, N + offsets[-1])
    out = np.ones(N)
    for s in offsets:
        out *= lam[1 + s : N + 1 + s]
    return out


def cube(shifts: Sequence[int]) -> tuple[int, ...]:
    """All subset sums of the shifts: first the empty sum, then the
    singletons in order, then pairs, and so on (so for (h1,h2,h3) the
    result is (0, h1, h2, h3, h1+h2, h1+h3, h2+h3, h1+h2+h3))."""
    ell = len(shifts)
    out = []
    for size in range(ell + 1):
        for combo in combinations(range(ell), size):
            out.append(sum(shifts[i] for i in combo))
    return tuple(out)


# ---------------------------------------------------------------------------
# tuple counts and singular series

def count_prime_tuples(table: PrimeTable, N: int, shifts: Sequence[int]) -> int:
    """Exact count of n in [1, N] with n + h prime for every shift h."""
    if len(set(shifts)) != len(shifts):
        raise ValueError("shifts must be distinct")
    top = N + max(shifts)
    if top > table.limit:
        raise ValueError(f"table covers up to {table.limit}, need {top}")
    mask = np.ones(N, dtype=bool)
    for h in shifts:
        # n + h runs over [1 + h, N + h]; the n with n + h < 0 count as not prime
        skip = min(max(-1 - h, 0), N)
        mask[:skip] = False
        mask[skip:] &= table.is_prime[1 + h + skip : N + h + 1]
    return int(np.count_nonzero(mask))


def nu_p(p: int, values: Sequence[int]) -> int:
    """Number of residue classes mod p occupied by the values."""
    if p < 2:
        raise ValueError("p must be a prime")
    return len({v % p for v in values})


class SingularSeries(NamedTuple):
    value: float
    tail_bound: float
    cutoff: int


def singular_series(
    values: Sequence[int], prime_cutoff: int, table: Optional[PrimeTable] = None
) -> SingularSeries:
    """Truncated Euler product prod_p (1-1/p)^(-k) (1 - nu_p/p) over
    p <= prime_cutoff, with a rigorous truncation bound.

    Beyond the largest pairwise difference every factor is
    1 + O(k^2/p^2), so the relative error of stopping at P is at most
    exp(sum_{p>P} k^2/p^2) - 1 < exp(k^2/P) - 1; the returned
    ``tail_bound`` is that bound times |value|.
    """
    k = len(values)
    if k == 0:
        raise ValueError("need at least one value")
    distinct = sorted(set(values))
    max_diff = distinct[-1] - distinct[0] if len(distinct) > 1 else 0
    if prime_cutoff < max(2, max_diff):
        raise ValueError(
            f"cutoff {prime_cutoff} below the largest pairwise difference {max_diff}"
        )
    if k == 1:
        # A single value occupies one class mod every p, so each factor
        # is identically 1; skip the float product to keep this exact.
        return SingularSeries(1.0, 0.0, prime_cutoff)
    if table is None or table.limit < prime_cutoff:
        table = sieve(prime_cutoff)
    ps = table.primes[table.primes <= prime_cutoff]
    # Small primes can have coinciding residues; handle them one by one.
    # Beyond max_diff the values are automatically distinct mod p.
    small = ps[ps <= max_diff] if max_diff >= 2 else ps[:0]
    big = ps[len(small):].astype(np.float64)
    value = 1.0
    for p in small.tolist():
        nu = nu_p(p, distinct)
        value *= (1.0 - 1.0 / p) ** (-k) * (1.0 - nu / p)
        if value == 0.0:
            return SingularSeries(0.0, 0.0, prime_cutoff)
    if len(big):
        m = len(distinct)
        factors = (1.0 - 1.0 / big) ** (-k) * (1.0 - m / big)
        if np.any(factors == 0.0):
            # A prime equal to the pattern size covers every class.
            return SingularSeries(0.0, 0.0, prime_cutoff)
        # Sum the logs pairwise for a deterministic, well-conditioned product.
        value *= math.exp(float(np.sum(np.log(factors))))
    tail = abs(value) * math.expm1(k * k / prime_cutoff)
    return SingularSeries(value, tail, prime_cutoff)
