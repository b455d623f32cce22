import math
import os
import stat
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracergo.primes import (
    CACHE_MAGIC,
    avg_singular_sq,
    check_cor_primes,
    check_tuple_bound,
    count_prime_tuples,
    cube,
    is_star,
    load_table,
    nu_p,
    save_table,
    sieve,
    singular_series,
    star_complement_count,
    twin_series_batch,
    von_mangoldt_array,
)

def oracle_sieve(limit):
    """Independent primality table, bytearray instead of numpy."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def oracle_is_prime(n):
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# sieve and table

def test_sieve_small_exact():
    t = sieve(30)
    assert t.primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert t.is_prime[29] and not t.is_prime[30] and not t.is_prime[1]


def test_sieve_matches_independent_oracle():
    t = sieve(10_000)
    flags = oracle_sieve(10_000)
    assert t.is_prime.tolist() == [bool(b) for b in flags]


def test_prime_count_at_one_million(table):
    assert table.prime_count(1_000_000) == 78_498


def test_nth_prime(table):
    assert table.nth_prime(1) == 2
    assert table.nth_prime(25) == 97
    assert table.nth_prime(100_000) == 1_299_709
    with pytest.raises(ValueError):
        table.nth_prime(0)
    with pytest.raises(ValueError):
        sieve(30).nth_prime(11)


def test_prime_count_and_contains():
    t = sieve(100)
    assert t.prime_count(2) == 1
    assert t.prime_count(1) == 0
    assert t.prime_count(97) == 25
    assert t.contains(97) and not t.contains(91)
    with pytest.raises(ValueError):
        t.prime_count(101)
    with pytest.raises(ValueError):
        t.contains(-1)


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve(1)
    with pytest.raises(MemoryError):
        sieve(1 << 33)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "t.sieve")
    t = sieve(1000)
    save_table(t, path)
    back = load_table(path)
    assert back.limit == 1000
    assert np.array_equal(back.is_prime, t.is_prime)
    assert np.array_equal(back.primes, t.primes)


def test_sieve_reuses_covering_cache(tmp_path):
    path = str(tmp_path / "t.sieve")
    sieve(500, cache_path=path)
    assert load_table(path).limit == 500
    smaller = sieve(100, cache_path=path)
    assert smaller.limit == 100
    assert smaller.primes.tolist() == sieve(100).primes.tolist()
    # the cache still covers 500; asking for more forces a rewrite
    sieve(800, cache_path=path)
    assert load_table(path).limit == 800


def test_cache_write_uses_a_temp_file_of_its_own(tmp_path):
    # a leftover directory where a fixed temp name would go breaks nothing
    path = tmp_path / "p.sieve"
    (tmp_path / "p.sieve.tmp").mkdir()
    t = sieve(1000, cache_path=str(path))
    assert load_table(str(path)).primes.tolist() == t.primes.tolist()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.sieve", "p.sieve.tmp"]
    # readable as widely as a file open() creates, not mkstemp's 0600
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    # a failed write leaves no temp file behind
    with pytest.raises(OSError):
        save_table(t, str(tmp_path / "p.sieve.tmp"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.sieve", "p.sieve.tmp"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sieve"
    path.write_bytes(b"NOTMAGIC" + (0).to_bytes(8, "little"))
    with pytest.raises(ValueError, match="magic"):
        load_table(str(path))


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.sieve"
    path.write_bytes(CACHE_MAGIC + (10_000).to_bytes(8, "little") + b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        load_table(str(path))


# ---------------------------------------------------------------------------
# von Mangoldt

def lam(n):
    """log n on primes, 0 elsewhere, by trial division: independent of the sieve."""
    if n < 2 or any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        return 0.0
    return math.log(n)


def delta_lam(shifts, n):
    """The product of lam over the shift cube of n, in cube order."""
    return math.prod(lam(n + s) for s in cube(shifts))


def test_von_mangoldt_array_matches_scalar(table):
    arr = von_mangoldt_array(table, 500)
    assert arr.shape == (501,)
    for n in range(1, 501):
        assert arr[n] == lam(n)
    with pytest.raises(ValueError):
        von_mangoldt_array(sieve(100), 200)


# ---------------------------------------------------------------------------
# shift cubes

def test_cube_order_three_shifts():
    h1, h2, h3 = 1, 4, 10
    assert cube((h1, h2, h3)) == (0, h1, h2, h3, h1 + h2, h1 + h3, h2 + h3, h1 + h2 + h3)


def test_cube_empty_and_single():
    assert cube(()) == (0,)
    assert cube((7,)) == (0, 7)


def test_is_star():
    assert is_star((1, 3))
    assert is_star((2, 6))
    assert not is_star((1, 1))
    assert not is_star((1, 2, 3))  # 1 + 2 collides with 3


@given(st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=5))
@settings(max_examples=200, deadline=None)
def test_cube_is_all_subset_sums(shifts):
    sums = []
    for size in range(len(shifts) + 1):
        for combo in combinations(shifts, size):
            sums.append(sum(combo))
    got = cube(tuple(shifts))
    assert len(got) == 2 ** len(shifts)
    assert sorted(got) == sorted(sums)
    assert is_star(tuple(shifts)) == (len(set(sums)) == len(sums))


# ---------------------------------------------------------------------------
# tuple counts

def test_count_prime_tuples_vs_trial_division(table):
    for shifts in [(0, 2), (0, 2, 6), (0, 4)]:
        got = count_prime_tuples(table, 10_000, shifts)
        want = sum(
            1
            for n in range(1, 10_001)
            if all(oracle_is_prime(n + h) for h in shifts)
        )
        assert got == want


def test_count_prime_tuples_negative_shift(table):
    # n - 2 and n both prime, n <= 20: n in {5, 7, 13, 19}
    assert count_prime_tuples(table, 20, (-2, 0)) == 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=4, unique=True), st.integers(1, 300))
def test_count_prime_tuples_any_shifts_vs_trial_division(table, shifts, N):
    want = sum(1 for n in range(1, N + 1) if all(oracle_is_prime(n + h) for h in shifts))
    assert count_prime_tuples(table, N, shifts) == want


def test_count_prime_tuples_validation(table):
    with pytest.raises(ValueError):
        count_prime_tuples(table, 100, (0, 0))
    with pytest.raises(ValueError):
        count_prime_tuples(sieve(50), 100, (0, 2))


def test_nu_p():
    assert nu_p(5, (0, 5, 10)) == 1
    assert nu_p(3, (0, 1, 2)) == 3
    assert nu_p(2, (0, 2)) == 1
    with pytest.raises(ValueError):
        nu_p(1, (0,))


# ---------------------------------------------------------------------------
# singular series

def test_singular_series_single_value_exact(table):
    out = singular_series((0,), 10_000, table)
    assert out.value == 1.0
    assert out.tail_bound == 0.0


def test_singular_series_odd_pair_vanishes(table):
    # 0 and 1 cover both classes mod 2, so the product is exactly zero
    out = singular_series((0, 1), 10_000, table)
    assert out.value == 0.0
    assert out.tail_bound == 0.0


def test_singular_series_twin_vs_independent_product(table):
    got = singular_series((0, 2), 1_000_000, table).value
    value = 2.0  # factor at p = 2
    flags = oracle_sieve(10_000)
    for p in range(3, 10_001, 2):
        if flags[p]:
            value *= p * (p - 2) / (p - 1) ** 2
    # beyond the oracle cutoff the factors are within exp(4/P) of 1
    assert got == pytest.approx(value, rel=1e-3)
    # and against the literature value of the twin constant
    assert got == pytest.approx(1.3203236316, abs=2e-5)


def test_singular_series_tail_bound_is_honest(table):
    small = singular_series((0, 2), 1000, table)
    large = singular_series((0, 2), 100_000, table)
    assert abs(large.value - small.value) <= small.tail_bound


def test_singular_series_sieves_when_table_is_short():
    out = singular_series((0, 6), 5000, sieve(100))
    ref = singular_series((0, 6), 5000, sieve(5000))
    assert out.value == ref.value


def test_twin_series_batch_matches_pointwise(table):
    H, P = 50, 2000
    batch = twin_series_batch(H, P, table)
    assert batch.shape == (H,)
    for h in range(1, H + 1):
        want = singular_series((0, h), P, table).value
        assert batch[h - 1] == pytest.approx(want, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        twin_series_batch(100, 50, table)


def test_check_tuple_bound_twins(table):
    out = check_tuple_bound(table, 10_000, (0, 2), C_k=4.0)
    assert not out.degenerate
    assert out.count == count_prime_tuples(table, 10_000, (0, 2))
    assert out.ratio == out.count / out.expected
    assert out.ok


def test_check_tuple_bound_degenerate_pattern(table):
    # (0, 1) has vanishing series but one actual solution, n = 2
    out = check_tuple_bound(table, 1000, (0, 1), C_k=4.0)
    assert out.degenerate
    assert out.count == 1
    assert out.ratio == math.inf


def test_avg_singular_sq_matches_batch(table):
    H = 40
    got = avg_singular_sq(H, 1, prime_cutoff=2000, table=table)
    vals = twin_series_batch(H, 2000, table)
    assert got == pytest.approx(float(np.mean(vals**2)), rel=1e-14)


def test_avg_singular_sq_two_dimensional(table):
    # H = 6 so the box holds surviving patterns: (2,6) off the diagonal
    # and (6,6) on it (smaller boxes vanish at p = 2 or p = 3 entirely)
    H, P = 6, 2000
    got = avg_singular_sq(H, 2, prime_cutoff=P, table=table)
    total = 0.0
    for h1 in range(1, H + 1):
        for h2 in range(1, H + 1):
            total += singular_series(cube((h1, h2)), P, table).value ** 2
    assert got > 0.0
    assert got == pytest.approx(total / H**2, rel=1e-12)
    star = avg_singular_sq(H, 2, prime_cutoff=P, table=table, star_only=True)
    assert star != got  # the diagonal h1 = h2 is excluded


def test_avg_singular_sq_validation():
    with pytest.raises(ValueError):
        avg_singular_sq(10, 3)


def test_star_complement_count_matches_enumeration():
    # ell = 2: only the diagonal h1 = h2 repeats a subset sum
    assert star_complement_count(6, 2) == 6
    # ell = 3: check against a direct enumeration over index subsets
    N = 4
    bad = 0
    for h1 in range(1, N + 1):
        for h2 in range(1, N + 1):
            for h3 in range(1, N + 1):
                sums = []
                for size in range(4):
                    for combo in combinations((h1, h2, h3), size):
                        sums.append(sum(combo))
                bad += len(set(sums)) != len(sums)
    assert star_complement_count(N, 3) == bad
    with pytest.raises(ValueError):
        star_complement_count(2000, 3)


def test_check_cor_primes_vs_direct_mean(table):
    N = 2000
    got = check_cor_primes(table, (2, 6), 0, N)
    total = 0.0
    for n in range(1, N + 1):
        total += delta_lam((2, 6), n)
    assert got == pytest.approx(total / N, rel=1e-12)
    assert got > 0.0  # (5, 7, 11, 13) is a witness


def test_check_cor_primes_validation(table):
    with pytest.raises(ValueError):
        check_cor_primes(table, (1, 1), 0, 100)
    with pytest.raises(ValueError):
        check_cor_primes(table, (2, 6), -1, 100)
    with pytest.raises(ValueError):
        check_cor_primes(sieve(100), (2, 6), 0, 1000)


@pytest.mark.parametrize("shifts, c, N", [((2,), 0, 10), ((2,), 1, 10), ((2, 4), 3, 30), ((6,), 5, 1)])
def test_check_cor_primes_small_cases_vs_direct_mean(table, shifts, c, N):
    want = sum(delta_lam(shifts, n + c) for n in range(1, N + 1)) / N
    assert check_cor_primes(table, shifts, c, N) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_check_cor_primes_refuses_negative_offsets():
    # cube((-5,)) = (0, -5): lam[n - 5] would wrap around for n < 5
    with pytest.raises(ValueError, match="non-negative"):
        check_cor_primes(sieve(200), (-5,), 0, 12)
    with pytest.raises(ValueError, match="non-negative"):
        check_cor_primes(sieve(200), (3, -1), 0, 12)


def test_table_fixture_covers_acceptance_range(table):
    # the 100000-th prime must be inside the shared table
    assert table.limit >= 1_299_709
