"""Prime sieving, the prime-restricted von Mangoldt function and its
product over a shift cube, tuple counts, and singular series.

The sieve is a plain numpy Eratosthenes over the odd integers, with an
optional on-disk cache; its table is one flag per odd integer, in memory
as on disk (see ``save_table``), and the sorted primes.  The singular
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

CACHE_MAGIC = b"FRGOSV01"

# A flag array of this many bytes (one per odd integer, so limits up to
# 2^32) is where we stop pretending this is a desk-scale computation.
MAX_SIEVE_BYTES = 1 << 31


@dataclass(frozen=True)
class PrimeTable:
    """The primes up to ``limit``: ``odd[i]`` is the primality flag of 2i + 1
    (2 has none), and ``primes[n-1]`` is the n-th prime (the first is 2)."""

    limit: int
    odd: np.ndarray
    primes: np.ndarray

    def prime_count(self, n: int) -> int:
        """pi(n) for n <= limit."""
        if n > self.limit:
            raise ValueError(f"table covers up to {self.limit}, asked for pi({n})")
        return int(np.searchsorted(self.primes, n, side="right"))

    def and_primes(self, mask: np.ndarray, start: int) -> None:
        """mask[j] &= (start + 2j is prime), in place; nothing below 2 is prime."""
        if start % 2 == 0:  # even integers: only 2 can be prime
            j = (2 - start) // 2  # start + 2j == 2
            mask[: max(j, 0)] = False
            mask[max(j + 1, 0) :] = False
        else:  # start + 2j = 2(i0 + j) + 1, read from a contiguous run of odd
            i0 = (start - 1) // 2
            skip = min(max(-i0, 0), len(mask))
            mask[:skip] = False
            mask[skip:] &= self.odd[i0 + skip : i0 + len(mask)]


def _table(limit: int, odd: np.ndarray) -> PrimeTable:
    odd[0] = True  # the flag of 1 holds the place of 2 while the primes are read off
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    odd[0] = False
    primes *= 2
    primes += 1
    primes[0] = 2
    return PrimeTable(limit, odd, primes)


def sieve(limit: int, cache_path: Optional[str] = None) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive.  With ``cache_path``,
    a cache file that covers ``limit`` is read and restricted to [0, limit];
    otherwise the table is sieved and written there."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    needed = (limit + 1) // 2
    if needed > MAX_SIEVE_BYTES:
        raise MemoryError(f"sieve up to {limit} needs {needed} bytes of odd flags, over the {MAX_SIEVE_BYTES}-byte budget")
    if cache_path is not None and os.path.exists(cache_path):
        cached = load_table(cache_path)
        if cached.limit >= limit:
            return PrimeTable(limit, cached.odd[:needed], cached.primes[: cached.prime_count(limit)])
        del cached  # too small: free it before the larger table is sieved
    odd = np.ones(needed, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False  # p*p, p*p + 2p, ...
    table = _table(limit, odd)
    if cache_path is not None:
        save_table(table, cache_path)
    return table


def save_table(table: PrimeTable, path: str) -> None:
    """Cache format: 8-byte magic, 8-byte little-endian limit, then a
    bitset with one bit per odd integer (bit i is the flag of 2i+1)."""
    payload = np.packbits(table.odd, bitorder="little").tobytes()
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
    if limit < 2:
        raise ValueError(f"{path}: cache limit {limit} is below 2")
    n_odd = (limit + 1) // 2
    want = (n_odd + 7) // 8  # checked before unpacking: unpackbits(count=) pads a short payload
    if len(payload) != want:
        kind = "truncated" if len(payload) < want else "overlong"
        raise ValueError(f"{path}: {kind} cache file ({len(payload)} payload bytes, limit {limit} needs {want})")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n_odd, bitorder="little")
    return _table(limit, bits.view(bool))


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
    return tuple(sum(c) for size in range(len(shifts) + 1) for c in combinations(shifts, size))


# ---------------------------------------------------------------------------
# tuple counts and singular series

def count_prime_tuples(table: PrimeTable, N: int, shifts: Sequence[int]) -> int:
    """Exact count of n in [1, N] with n + h prime for every shift h."""
    if N < 0:
        raise ValueError(f"counting length N must be >= 0, got {N}")
    if len(set(shifts)) != len(shifts):
        raise ValueError("shifts must be distinct")
    top = N + max(shifts)
    if top > table.limit:
        raise ValueError(f"table covers up to {table.limit}, need {top}")
    count = 0
    for n0 in (1, 2):  # n = n0, n0 + 2, ... <= N, along which each n + h keeps its parity
        mask = np.ones(max((N - n0) // 2 + 1, 0), dtype=bool)
        for h in shifts:
            table.and_primes(mask, n0 + h)
        count += int(np.count_nonzero(mask))
    return count


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
    max_diff = distinct[-1] - distinct[0]
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
    ps = table.primes[: table.prime_count(prime_cutoff)]
    # Up to max_diff residues can coincide; beyond it the values are
    # distinct mod p, so nu_p is their number.
    nu = np.full(len(ps), float(len(distinct)))
    small = ps[ps <= max_diff].tolist()
    nu[: len(small)] = [nu_p(p, distinct) for p in small]
    p = ps.astype(np.float64)
    factors = (1.0 - 1.0 / p) ** (-k) * (1.0 - nu / p)
    if np.any(factors == 0.0):
        # Some prime has every class occupied.
        return SingularSeries(0.0, 0.0, prime_cutoff)
    # Sum the logs pairwise for a deterministic, well-conditioned product.
    value = math.exp(float(np.sum(np.log(factors))))
    tail = abs(value) * math.expm1(k * k / prime_cutoff)
    return SingularSeries(value, tail, prime_cutoff)
