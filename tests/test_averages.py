import itertools
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracergo import systems
from fracergo.averages import (
    CHUNK,
    DeltaVonMangoldt,
    ExperimentResult,
    IterateSpec,
    RecurrenceProfile,
    Unweighted,
    VonMangoldt,
    cfprime_experiment,
    describe_weight,
    iterate_value,
    iterate_values,
    multi_average,
    parse_weight,
    recurrence_profile,
    weight_values,
    weyl_sum,
)
from fracergo.fracpoly import Family, rexp_poly
from fracergo.primes import cube
from fracergo.systems import (
    Cyclic,
    CyclicFunction,
    FourierPoly,
    Rotation,
    Skew,
    TermBudgetError,
    apply_power,
    fejer_arc,
    fourier_const,
    fourier_e,
    frac_multiples,
    indicator,
    integrate,
    l2_distance,
    l2_norm,
    multiply,
)
from paper_checks import delta_average_experiment, l_n, vdc_inequality_check


def spec(exponents, mode="integers"):
    return IterateSpec(rexp_poly(0, exponents), mode)


SQRT = {F(1, 2): 1}
THREEHALF = {F(3, 2): 1}
MIXED = {F(3, 2): 1, F(11, 10): F(1, 3)}


# ---------------------------------------------------------------------------
# exact floors

def test_iterate_spec_validation():
    with pytest.raises(ValueError):
        IterateSpec(rexp_poly(1, {F(1, 2): {(1,): 1}}))
    with pytest.raises(ValueError):
        IterateSpec(rexp_poly(0, {0: 3}))
    with pytest.raises(ValueError):
        IterateSpec(rexp_poly(0, SQRT), "composite")


def test_sqrt_floor_matches_isqrt():
    s = spec(SQRT)
    ns = np.arange(1, 2001)
    got = iterate_values(s, ns)
    want = [math.isqrt(n) for n in range(1, 2001)]
    assert got.tolist() == want


def test_exact_powers_do_not_round_down():
    s = spec(THREEHALF)
    # 4^(3/2) = 8 and 10^6^(3/2) = 10^9 are exact integers; a float
    # landing at 7.999999999 would floor wrong without the exact re-do
    assert iterate_value(s, 4) == 8
    assert iterate_value(s, 10**6) == 10**9
    assert iterate_values(s, [4, 9, 16]).tolist() == [8, 27, 64]


def test_floor_against_high_precision():
    s = spec(MIXED)
    for n in [2, 17, 1000, 99991]:
        with mpmath.workdps(60):
            want = int(mpmath.floor(
                mpmath.power(n, mpmath.mpf(3) / 2)
                + mpmath.power(n, mpmath.mpf(11) / 10) / 3
            ))
        assert iterate_value(s, n) == want


def test_scalar_and_vector_floors_agree():
    for exps in (SQRT, THREEHALF, MIXED):
        s = spec(exps)
        ns = list(range(1, 1500))
        got = iterate_values(s, ns)
        for i, n in enumerate(ns):
            assert got[i] == iterate_value(s, n)


def _floor_120_digits(terms, n):
    """Floor of sum c * n^e at 120 digits, with no fracergo code involved."""
    with mpmath.workdps(120):
        total = mpmath.mpf(0)
        for e, c in terms.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.power(
                n, mpmath.mpf(e.numerator) / e.denominator)
        return int(mpmath.floor(total))


def test_cancelling_terms_floor_exactly_around_72_to_the_5th():
    # t^(3/2) - 72 t^(13/10) = t^(13/10) (t^(1/5) - 72): two terms near
    # 8.5e13 that cancel to a value of at most 2e7 over this range, so the
    # float error scales with the terms, not with the value.
    terms = {F(3, 2): F(1), F(13, 10): F(-72)}
    s = IterateSpec(rexp_poly(0, terms))
    n0 = 72**5
    ns = list(range(n0 - 2000, n0 + 2000))
    want = [_floor_120_digits(terms, n) for n in ns]
    want[ns.index(n0)] = 0  # the value at t = 72^5 is exactly 0
    assert iterate_values(s, ns).tolist() == want
    assert [iterate_value(s, n) for n in ns[1990:2010]] == want[1990:2010]


def test_exponent_rounding_counts_in_the_guard_band():
    # At t = 23^5 the two terms cancel exactly.  Evaluated at the doubles
    # nearest 18/11 + 2/5 and 18/11 they leave about -11.5 eps times the
    # term sizes, below 0 by more than the rounding of the arithmetic alone.
    s = IterateSpec(rexp_poly(0, {F(18, 11) + F(2, 5): 1, F(18, 11): -(23**2)}))
    assert iterate_values(s, [23**5]).tolist() == [0]


_NON_DYADIC = st.sampled_from([3, 5, 6, 7, 9, 10, 11, 12]).flatmap(
    lambda q: st.integers(q // 4 + 1, 9 * q // 4).map(lambda p: F(p, q)))


@given(_NON_DYADIC, st.sampled_from([3, 5, 7]), st.integers(-3, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_vector_floors_match_exact_floors_on_cancelling_terms(e2, q, K, data):
    # t^(e2 + a/q) - b^a t^(e2) + K is exactly K at t = b^q, with both
    # terms irrational there; around it the value lands near integers, and
    # for large b the terms exceed 2^53.
    a = data.draw(st.integers(1, q - 1))
    e1 = e2 + F(a, q)
    b_max = max(2, int(2 ** (62 / float(q * e1))) - 1)
    b = data.draw(st.integers(2, min(b_max, int(2 ** (53 / q)))))  # b^q exact as a double
    n0 = b**q
    spec_ = IterateSpec(rexp_poly(0, {e1: 1, e2: -(b**a), 0: K}))
    offsets = data.draw(st.lists(st.integers(-40, 40), max_size=12))
    ns = sorted({n0} | {max(1, n0 + o) for o in offsets})
    got = iterate_values(spec_, ns).tolist()
    assert got == [iterate_value(spec_, n) for n in ns]
    assert got[ns.index(n0)] == K


def test_floor_past_any_fixed_precision(pell_pair):
    # b 2^(1/2) - a = -1 / (a + b 2^(1/2)), about -2e-96: its floor is -1,
    # which no evaluation at a fixed 90 digits resolves.
    a, b = pell_pair
    s = spec({F(1, 2): b, 0: -a})
    assert iterate_value(s, 2) == -1
    assert iterate_values(s, [2]).tolist() == [-1]


_RADICAL_EXPONENT = st.integers(2, 12).flatmap(
    lambda q: st.integers(1, 3 * q - 1).filter(lambda p: p % q).map(lambda p: F(p, q)))
_SMALL_RATIONAL = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@given(
    st.sampled_from([11, 13, 97, 7919, 65537, 999983]),
    st.dictionaries(_RADICAL_EXPONENT, _SMALL_RATIONAL, min_size=2, max_size=4),
    st.integers(0, 40),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sums_of_radicals_floor_exactly_next_to_integers(x, terms, digits, below):
    # At a prime x > 9 no group of terms cancels (the lowest coefficient of a
    # group would need x to divide a product of integers below 10), so the
    # sum is irrational.  A constant moves it to within 10^-digits above 0
    # or below it.  Every term is below x^3 < 2^60: 120 digits resolve it.
    sign = -1 if below else 1
    scaled = {e: sign * c * 10**digits for e, c in terms.items()}
    shifted = {**terms, 0: F(-sign * _floor_120_digits(scaled, x), 10**digits)}
    want = _floor_120_digits(shifted, x)
    assert want == (-1 if below else 0)
    s = spec(shifted)
    assert iterate_value(s, x) == want
    assert iterate_values(s, [x]).tolist() == [want]


def test_iterate_primes_mode(table):
    s = spec(SQRT, "primes")
    # the fifth prime is 11
    assert iterate_value(s, 5, table) == 3
    assert iterate_values(s, [1, 2, 5], table).tolist() == [1, 1, 3]
    with pytest.raises(ValueError):
        iterate_value(s, 5)
    with pytest.raises(ValueError):
        iterate_value(s, 0, table)
    with pytest.raises(ValueError):
        iterate_values(s, [10**7], table)


@pytest.mark.parametrize("c, first_bad", [(10**19, 1), (-(10**19), 1), (2**62, 2)])
def test_iterate_values_refuse_floors_outside_int64(c, first_bad):
    # c n^(3/2) passes 2^63 (or -2^63) at n = first_bad; numpy would wrap it.
    with pytest.raises(ValueError, match=f"at n = {first_bad} is outside the int64 range"):
        iterate_values(spec({F(3, 2): c}), range(1, 11))


def test_iterate_values_keep_the_int64_end_points():
    assert iterate_values(spec({1: -(2**63)}), [1]).tolist() == [-(2**63)]
    assert iterate_values(spec({F(3, 2): 2**62}), [1]).tolist() == [2**62]


# ---------------------------------------------------------------------------
# weights

def lam(n):
    """log n on primes, 0 elsewhere, by trial division: independent of the sieve."""
    if n < 2 or any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        return 0.0
    return math.log(n)


def test_weight_values_unweighted():
    assert weight_values(Unweighted(), 4).tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("text, weight", [
    ("none", Unweighted()),
    ("lambda", VonMangoldt()),
    ("delta:2", DeltaVonMangoldt((2,))),
    ("delta:1,-3,0", DeltaVonMangoldt((1, -3, 0))),
])
def test_weight_text_reads_back(text, weight):
    assert parse_weight(text) == weight
    assert describe_weight(weight) == text


def test_weight_values_von_mangoldt(table):
    w = weight_values(VonMangoldt(), 30, table)
    for n in range(1, 31):
        assert w[n - 1] == lam(n)
    with pytest.raises(ValueError):
        weight_values(VonMangoldt(), 10)


def test_weight_values_cube_product(table):
    for shifts in [(2,), (2, 4), (1, 1)]:
        w = weight_values(DeltaVonMangoldt(shifts), 40, table)
        for n in range(1, 41):
            assert w[n - 1] == pytest.approx(
                math.prod(lam(n + s) for s in cube(shifts)), rel=1e-14
            )


def test_weight_values_cube_rejects_negative_sums(table):
    with pytest.raises(ValueError):
        weight_values(DeltaVonMangoldt((-1,)), 10, table)


# ---------------------------------------------------------------------------
# Weyl sums

def test_weyl_sum_zero_frequency():
    assert weyl_sum([spec(SQRT)], [0.0], 100) == 1.0


def test_weyl_sum_quadratic_period_four():
    # n^2 mod 4 alternates 1, 0, 1, 0, ..., so at even N the average is
    # (e(1/4) + 1) / 2 with modulus 1/sqrt(2)
    s = spec({2: 1})
    val = weyl_sum([s], [0.25], 10_000)
    assert abs(val) == pytest.approx(0.7071067811865476, abs=1e-13)


def test_weyl_sum_matches_direct_evaluation():
    s = spec(SQRT)
    N = 500
    direct = np.mean([np.exp(2j * np.pi * 0.3 * math.isqrt(n)) for n in range(1, N + 1)])
    assert weyl_sum([s], [0.3], N) == pytest.approx(complex(direct), abs=1e-12)


def test_weyl_sum_integer_frequency_on_floors_is_trivial():
    # floored phases at t = 1 vanish identically; the unfloored variant
    # keeps the fractional parts and genuinely decays
    s = spec(THREEHALF)
    assert weyl_sum([s], [1.0], 200) == 1.0
    assert abs(weyl_sum([s], [1.0], 200, floor_iterates=False)) < 0.2


def test_weyl_sum_unfloored_matches_direct():
    s = spec(THREEHALF)
    N = 300
    direct = np.mean([np.exp(2j * np.pi * 0.7 * n**1.5) for n in range(1, N + 1)])
    got = weyl_sum([s], [0.7], N, floor_iterates=False)
    assert got == pytest.approx(complex(direct), abs=1e-9)


def test_weyl_sum_validation(table):
    with pytest.raises(ValueError):
        weyl_sum([spec(SQRT)], [0.1, 0.2], 10)
    with pytest.raises(ValueError):
        weyl_sum([spec(SQRT)], [0.1], 0)
    with pytest.raises(ValueError):
        weyl_sum([spec(SQRT), spec(THREEHALF, "primes")], [0.1, 0.2], 10, table)


def test_weyl_sum_modulus_bounded():
    rng = np.random.default_rng(5)
    fam = [spec(SQRT), spec(THREEHALF)]
    for _ in range(20):
        ts = rng.uniform(-2, 2, size=2).tolist()
        assert abs(weyl_sum(fam, ts, 64)) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# multicorrelation averages

def test_multi_average_cyclic_matches_loop(table):
    sys = Cyclic(5)
    iterates = [spec(SQRT), spec({F(1, 10): 1})]
    funcs = [indicator(5, [0, 2]), indicator(5, [1])]
    N = 300
    out = multi_average(sys, iterates, funcs, VonMangoldt(), N, table)
    j1 = [iterate_value(iterates[0], n) for n in range(1, N + 1)]
    j2 = [iterate_value(iterates[1], n) for n in range(1, N + 1)]
    arrays = [np.asarray(f.as_array()) for f in funcs]
    for x in range(5):
        total = 0j
        for idx, n in enumerate(range(1, N + 1)):
            w = lam(n)
            total += w * arrays[0][(x + j1[idx]) % 5] * arrays[1][(x + j2[idx]) % 5]
        assert out.average.values[x] == pytest.approx(total / N, abs=1e-12)
    bench = integrate(sys, funcs[0]) * integrate(sys, funcs[1])
    assert out.benchmark == bench
    want_dist = math.sqrt(
        np.mean([abs(v - bench) ** 2 for v in out.average.values])
    )
    assert out.distance == pytest.approx(want_dist, rel=1e-12)


def test_multi_average_rotation_matches_operator_loop():
    sys = Rotation()
    iterates = [spec(THREEHALF), spec(MIXED)]
    funcs = [
        fourier_e(1, (1,)) + fourier_e(1, (-2,)).scale(0.5j),
        fourier_e(1, (2,)).scale(1.5),
    ]
    N = 200
    out = multi_average(sys, iterates, funcs, Unweighted(), N)
    acc = None
    for n in range(1, N + 1):
        term = multiply(
            apply_power(sys, funcs[0], iterate_value(iterates[0], n)),
            apply_power(sys, funcs[1], iterate_value(iterates[1], n)),
        )
        acc = term if acc is None else acc + term
    acc = acc.scale(1.0 / N)
    for freq, a in out.average.terms:
        assert a == pytest.approx(acc.amplitude(freq), abs=1e-10)
    for freq, a in acc.terms:
        assert a == pytest.approx(out.average.amplitude(freq), abs=1e-10)


def test_multi_average_skew_matches_operator_loop():
    sys = Skew()
    iterates = [spec(THREEHALF)]
    funcs = [fourier_e(2, (1, 1)) + fourier_e(2, (0, 1)).scale(-0.25)]
    N = 150
    out = multi_average(sys, iterates, funcs, Unweighted(), N)
    acc = None
    for n in range(1, N + 1):
        term = apply_power(sys, funcs[0], iterate_value(iterates[0], n))
        acc = term if acc is None else acc + term
    acc = acc.scale(1.0 / N)
    got = {fq: a for fq, a in out.average.terms}
    want = {fq: a for fq, a in acc.terms if abs(a) > 1e-15}
    assert set(got) == set(want)
    for fq, a in want.items():
        assert got[fq] == pytest.approx(a, abs=1e-10)


def test_multi_average_refuses_frequencies_beyond_int64():
    # k2 j(n) passes 2^63 for j(n) = floor(n^(3/2)) >= 2^13
    big = FourierPoly.make(2, [((0, 2**50), 1.0)])
    with pytest.raises(ValueError, match="int64"):
        multi_average(Skew(), [spec(THREEHALF)], [big], Unweighted(), 3000)
    out = multi_average(Skew(), [spec(THREEHALF)], [big], Unweighted(), 300)
    assert out.average.freqs[:, 0].max() == 2**50 * iterate_value(spec(THREEHALF), 300)


_AMPS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def torus_average_case(draw):
    """A rotation or skew system with one or two iterates and small random
    observables.  On the skew product every observable has a k2 = 0 and a
    k2 != 0 term, so term combinations land on both accumulation paths."""
    sys = draw(st.sampled_from([Rotation(), Skew(), Skew(0.3)]))
    count = draw(st.integers(1, 2))
    iterates = draw(st.lists(st.sampled_from([SQRT, THREEHALF, MIXED]), min_size=count, max_size=count))
    k = st.integers(-3, 3)
    funcs = []
    for _ in range(count):
        terms = draw(st.lists(st.tuples(k, st.integers(-2, 2), _AMPS), min_size=1, max_size=3))
        if sys.dim == 2:
            terms += [(draw(k), 0, draw(_AMPS)), (draw(k), draw(st.sampled_from([-1, 1])), draw(_AMPS))]
        else:
            terms = [(k1, 0, a) for k1, _, a in terms]
        funcs.append(FourierPoly.make(sys.dim, [((k1, k2)[: sys.dim], a) for k1, k2, a in terms]))
    return sys, [spec(e) for e in iterates], funcs, draw(st.integers(1, 40))


@given(torus_average_case())
@settings(max_examples=60, deadline=None)
def test_multi_average_torus_matches_operator_loop(case):
    sys, iterates, funcs, N = case
    out = multi_average(sys, iterates, funcs, Unweighted(), N)
    acc = fourier_const(sys.dim, 0)
    for n in range(1, N + 1):
        term = fourier_const(sys.dim, 1)
        for it, f in zip(iterates, funcs):
            term = multiply(term, apply_power(sys, f, iterate_value(it, n)))
        acc = acc + term
    acc = acc.scale(1.0 / N)
    assert l2_distance(out.average, acc) < 1e-10
    bench = math.prod(integrate(sys, f) for f in funcs)
    assert out.benchmark == pytest.approx(bench, abs=1e-12)
    assert out.distance == pytest.approx(l2_distance(acc, fourier_const(sys.dim, bench)), abs=1e-10)


def _operator_loop_average(sys, iterates, funcs, N):
    """(1/N) sum_n prod_i f_i o T^(a_i(n)), pulled back and multiplied out term by term."""
    acc = fourier_const(sys.dim, 0)
    for n in range(1, N + 1):
        term = fourier_const(sys.dim, 1)
        for it, f in zip(iterates, funcs):
            term = multiply(term, apply_power(sys, f, iterate_value(it, n)))
        acc = acc + term
    return acc.scale(1.0 / N)


@st.composite
def three_iterate_case(draw):
    """Three iterates on the rotation or the skew product.  On the skew
    product the first term of every observable has k2 = 0, so the
    combinations of those terms are contracted through a middle fold."""
    sys = draw(st.sampled_from([Rotation(), Skew(0.3)]))
    funcs = []
    for _ in range(3):
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-1, 1), _AMPS), min_size=1, max_size=3))
        terms[0] = (terms[0][0], 0, terms[0][2])
        funcs.append(FourierPoly.make(sys.dim, [((k1, k2)[: sys.dim], a) for k1, k2, a in terms]))
    iterates = draw(st.lists(st.sampled_from([SQRT, THREEHALF, MIXED]), min_size=3, max_size=3))
    return sys, [spec(e) for e in iterates], funcs, draw(st.integers(1, 30))


@given(three_iterate_case())
@settings(max_examples=40, deadline=None)
def test_multi_average_three_iterates_matches_operator_loop(case):
    sys, iterates, funcs, N = case
    out = multi_average(sys, iterates, funcs, Unweighted(), N)
    assert l2_distance(out.average, _operator_loop_average(sys, iterates, funcs, N)) < 1e-10


def _average_per_combination(sys, iterates, funcs, w, table):
    """A torus average of k2 = 0 terms summed one term combination at a
    time, with one exp of the summed phases each."""
    N = len(w)
    ns = np.arange(1, N + 1)
    bases = [frac_multiples(sys.alpha, iterate_values(it, ns, table).tolist()) for it in iterates]
    acc = {}
    for combo in itertools.product(*(f.terms for f in funcs)):
        phase = sum((fq[0] * b) % 1.0 for (fq, _), b in zip(combo, bases))
        amp = math.prod(a for _, a in combo)
        key = sum(fq[0] for fq, _ in combo)
        acc[key] = acc.get(key, 0j) + amp * complex(np.sum(w * np.exp(2j * np.pi * phase))) / N
    return acc


@pytest.mark.parametrize("sys", [Rotation(), Skew(0.3)], ids=["rotation", "skew"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_multi_average_across_chunk_boundaries(sys, count, table):
    # Two full chunks and three indices of a third, with lambda weights.
    N = 2 * CHUNK + 3
    iterates = [spec(e) for e in (THREEHALF, SQRT, MIXED)[:count]]
    funcs = [
        FourierPoly.make(sys.dim, [((k, 0)[: sys.dim], a) for k, a in zip(ks, (0.5, 1 - 0.5j, 0.25j))])
        for ks in ((1, -2, 3), (0, 2, -1), (1, 4, -3))[:count]
    ]
    out = multi_average(sys, iterates, funcs, VonMangoldt(), N, table)
    want = _average_per_combination(sys, iterates, funcs, weight_values(VonMangoldt(), N, table), table)
    assert {fq[0] for fq, _ in out.average.terms} == set(want)
    for fq, a in out.average.terms:
        assert abs(a - want[fq[0]]) < 1e-10


def test_term_budget_counts_only_enumerated_combinations():
    # 81^3 combinations of three rotation arcs, all contracted: no budget applies.
    arcs = [fejer_arc(b, 40) for b in (0.2, 0.3, 0.4)]
    iterates = [spec(e) for e in (SQRT, THREEHALF, MIXED)]
    out = multi_average(Rotation(), iterates, arcs, Unweighted(), 20)
    assert l2_distance(out.average, _operator_loop_average(Rotation(), iterates, arcs, 20)) < 1e-10
    # 47^3 > TERM_BUDGET combinations with k2 != 0 on the skew product.
    f = FourierPoly.make(2, [((k, 1), 1.0) for k in range(47)])
    with pytest.raises(ValueError, match="budget"):
        multi_average(Skew(), iterates, [f] * 3, Unweighted(), 20)


def test_over_budget_average_raises_term_budget_error():
    # The same over-budget product as a Fourier multiply: one error type.
    f = FourierPoly.make(2, [((k, 1), 1.0) for k in range(47)])
    with pytest.raises(TermBudgetError) as exc:
        multi_average(Skew(), [spec(SQRT)] * 3, [f] * 3, Unweighted(), 5)
    assert exc.value.needed == 47**3


def test_one_term_budget_for_products_and_averages(monkeypatch):
    # Nine term combinations, all with k2 != 0: one budget refuses both.
    f = FourierPoly.make(2, [((k, 1), 1.0) for k in range(3)])
    monkeypatch.setattr(systems, "TERM_BUDGET", 4)
    with pytest.raises(TermBudgetError):
        multiply(f, f)
    with pytest.raises(TermBudgetError) as exc:
        multi_average(Skew(), [spec(SQRT)] * 2, [f] * 2, Unweighted(), 5)
    assert (exc.value.needed, exc.value.budget) == (9, 4)
    monkeypatch.setattr(systems, "TERM_BUDGET", 9)
    multiply(f, f)
    multi_average(Skew(), [spec(SQRT)] * 2, [f] * 2, Unweighted(), 5)


def test_multi_average_cube_weight_benchmark_is_zero(table):
    sys = Cyclic(4)
    out = multi_average(
        sys, [spec(SQRT)], [indicator(4, [0])], DeltaVonMangoldt((2,)), 200, table
    )
    assert out.benchmark == 0j
    want = math.sqrt(np.mean([abs(v) ** 2 for v in out.average.values]))
    assert out.distance == pytest.approx(want, rel=1e-12)


def test_multi_average_validation(table):
    sys = Cyclic(3)
    f = indicator(3, [0])
    with pytest.raises(ValueError):
        multi_average(sys, [spec(SQRT)], [f, f], Unweighted(), 10)
    with pytest.raises(ValueError):
        multi_average(sys, [], [], Unweighted(), 10)
    with pytest.raises(ValueError):
        multi_average(sys, [spec(SQRT)], [f], Unweighted(), 0)
    with pytest.raises(ValueError):
        multi_average(Rotation(), [spec(SQRT)], [f], Unweighted(), 10)


# ---------------------------------------------------------------------------
# recurrence profiles

def test_recurrence_cyclic_matches_loop():
    sys = Cyclic(5)
    g = indicator(5, [0, 1])
    iterates = [spec(SQRT), spec(THREEHALF)]
    out = recurrence_profile(sys, g, iterates, [50, 100])
    assert out.benchmark == pytest.approx((2 / 5) ** 3)
    arr = [v.real for v in g.values]
    for N, val in out.series:
        j1 = [iterate_value(iterates[0], n) for n in range(1, N + 1)]
        j2 = [iterate_value(iterates[1], n) for n in range(1, N + 1)]
        total = 0.0
        for idx in range(N):
            s = 0.0
            for x in range(5):
                s += arr[x] * arr[(x - j1[idx]) % 5] * arr[(x - j2[idx]) % 5]
            total += s / 5
        assert val == pytest.approx(total / N, abs=1e-12)


def test_recurrence_rotation_single_matches_loop():
    sys = Rotation()
    g = fejer_arc(0.3, 10)
    iterates = [spec(THREEHALF)]
    out = recurrence_profile(sys, g, iterates, [80])
    N, val = out.series[0]
    total = 0.0
    for n in range(1, N + 1):
        j = iterate_value(iterates[0], n)
        corr = integrate(sys, multiply(g, apply_power(sys, g, -j)))
        total += corr.real
    assert val == pytest.approx(total / N, abs=1e-10)
    assert out.benchmark == pytest.approx(0.09)


def test_recurrence_rotation_pair_matches_loop():
    sys = Rotation()
    g = fejer_arc(0.4, 6)
    iterates = [spec(SQRT), spec(THREEHALF)]
    out = recurrence_profile(sys, g, iterates, [60])
    N, val = out.series[0]
    total = 0.0
    for n in range(1, N + 1):
        j1 = iterate_value(iterates[0], n)
        j2 = iterate_value(iterates[1], n)
        prod = multiply(
            multiply(g, apply_power(sys, g, -j1)), apply_power(sys, g, -j2)
        )
        total += integrate(sys, prod).real
    assert val == pytest.approx(total / N, abs=1e-10)


@st.composite
def real_rotation_observable(draw):
    """A real trigonometric polynomial: a_(-k) = conj(a_k), |k| <= 4."""
    amps = {0: complex(draw(st.floats(-1.0, 1.0)))}
    for k in draw(st.sets(st.integers(1, 4), max_size=4)):
        a = draw(_AMPS)
        amps[k], amps[-k] = a, a.conjugate()
    return FourierPoly.make(1, [((k,), a) for k, a in amps.items()])


@given(
    st.sampled_from([Rotation(), Rotation(0.3)]),
    real_rotation_observable(),
    st.lists(st.sampled_from([SQRT, THREEHALF, MIXED]), min_size=1, max_size=2),
    st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted),
)
@settings(max_examples=40, deadline=None)
def test_recurrence_rotation_matches_brute_force(sys, g, exps, N_list):
    iterates = [spec(e) for e in exps]
    out = recurrence_profile(sys, g, iterates, N_list)
    assert [N for N, _ in out.series] == N_list
    for N, val in out.series:
        total = 0.0
        for n in range(1, N + 1):
            prod = g
            for it in iterates:
                prod = multiply(prod, apply_power(sys, g, -iterate_value(it, n)))
            total += integrate(sys, prod).real
        assert val == pytest.approx(total / N, abs=1e-10)


@st.composite
def real_torus_recurrence_case(draw):
    """A real observable (a_(-k) = conj(a_k)) on the skew product with one
    to three iterates, or on the rotation with three."""
    sys = draw(st.sampled_from([Skew(), Skew(0.3), Rotation()]))
    k2 = st.integers(0, 1) if sys.dim == 2 else st.just(0)
    upper = st.tuples(st.integers(-2, 2), k2).filter(lambda k: k[1] > 0 or k[0] > 0)
    amps = {(0, 0): complex(draw(st.floats(-1.0, 1.0)))}
    for k1, k2 in draw(st.sets(upper, max_size=3)):
        a = draw(_AMPS)
        amps[k1, k2], amps[-k1, -k2] = a, a.conjugate()
    g = FourierPoly.make(sys.dim, [(k[: sys.dim], a) for k, a in amps.items()])
    count = draw(st.integers(1, 3)) if sys.dim == 2 else 3
    iterates = draw(st.lists(st.sampled_from([SQRT, THREEHALF, MIXED]), min_size=count, max_size=count))
    N_list = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True).map(sorted))
    return sys, g, [spec(e) for e in iterates], N_list


@given(real_torus_recurrence_case())
@settings(max_examples=40, deadline=None)
def test_recurrence_torus_matches_brute_force(case):
    sys, g, iterates, N_list = case
    out = recurrence_profile(sys, g, iterates, N_list)
    corr = []
    for n in range(1, N_list[-1] + 1):
        prod = g
        for it in iterates:
            prod = multiply(prod, apply_power(sys, g, -iterate_value(it, n)))
        corr.append(integrate(sys, prod).real)
    assert [N for N, _ in out.series] == N_list
    for N, val in out.series:
        assert val == pytest.approx(sum(corr[:N]) / N, abs=1e-10)


@pytest.mark.parametrize("m", [3, 4])
def test_recurrence_contrast_integer_and_fractional_exponents(m, table):
    """The abstract's contrast on Z/m, g the indicator of 0, along primes.

    With exponents (1, 3/2) or (2, 3/2) the profile is exactly 0: p^a = 0
    mod m only for p | m (p = 3 on Z/3, p = 2 on Z/4), and there
    floor(p^(3/2)) (5, or 2) misses the class of 0.  With (3/2, 5/2) it is
    positive."""
    g = indicator(m, [0])
    N_list = [10, 100, 1000, 10_000]
    for exps in [({1: 1}, THREEHALF), ({2: 1}, THREEHALF)]:
        out = recurrence_profile(Cyclic(m), g, [spec(e, "primes") for e in exps], N_list, table)
        assert [v for _, v in out.series] == [0.0] * 4
    out = recurrence_profile(Cyclic(m), g, [spec(e, "primes") for e in (THREEHALF, {F(5, 2): 1})], N_list, table)
    assert all(v > 0 for _, v in out.series)
    # An observation at N = 10^4, not a bound: 0.03723 against mu^3 = 1/27
    # on Z/3, 0.01495 against 1/64 on Z/4.
    assert out.series[-1][1] == pytest.approx(out.benchmark, rel=0.1)


def test_recurrence_constant_function_is_flat():
    out = recurrence_profile(Cyclic(3), CyclicFunction.make(3, [1, 1, 1]), [spec(SQRT)], [10, 20])
    assert all(v == pytest.approx(1.0) for _, v in out.series)
    assert out.benchmark == 1.0


def test_recurrence_validation():
    g = fejer_arc(0.3, 5)
    with pytest.raises(ValueError):
        recurrence_profile(Skew(), fourier_e(2, (0, 1)), [spec(SQRT)], [10])
    with pytest.raises(ValueError):
        recurrence_profile(Rotation(), fourier_e(1, (1,)), [spec(SQRT)], [10])
    with pytest.raises(ValueError):
        recurrence_profile(Rotation(), g, [spec(SQRT)], [20, 10])
    with pytest.raises(ValueError):
        recurrence_profile(Rotation(), g, [], [10])
    with pytest.raises(ValueError):
        RecurrenceProfile(((10, 0.5), (10, 0.6)), 0.25)


@pytest.mark.parametrize("sys, g", [(Rotation(), fejer_arc(0.3, 5)), (Cyclic(5), indicator(5, [0]))])
@pytest.mark.parametrize("N_list", [[0, 10], [-3]])
def test_recurrence_refuses_lengths_below_one(sys, g, N_list):
    with pytest.raises(ValueError, match="empty average"):
        recurrence_profile(sys, g, [spec(SQRT)], N_list)


# ---------------------------------------------------------------------------
# experiments

def test_l_n_values():
    assert l_n(1) == 1
    assert l_n(1000) == 13
    assert l_n(10**6) == 41
    with pytest.raises(ValueError):
        l_n(0)


def test_delta_average_experiment_aggregates(table):
    sys = Cyclic(4)
    iterates = [spec(SQRT)]
    funcs = [indicator(4, [0])]
    out = delta_average_experiment(sys, iterates, funcs, 1, [50, 100], table)
    assert out.metadata["kind"] == "delta_average"
    assert out.metadata["shift_coordinates"] == 1
    for N, val in out.series:
        L = l_n(N)
        dists = [
            multi_average(sys, iterates, funcs, DeltaVonMangoldt((h,)), N, table).distance
            for h in range(1, L + 1)
        ]
        assert val == pytest.approx(float(np.mean(dists)), rel=1e-12)
    with pytest.raises(ValueError):
        delta_average_experiment(sys, iterates, funcs, 0, [50], table)


def test_cfprime_experiment_skew(table):
    fam = Family((rexp_poly(0, THREEHALF),))
    out = cfprime_experiment(Skew(), fam, [fourier_e(2, (0, 1))], 2, [200, 400], table)
    assert out.metadata["kind"] == "prime_weighted_norms"
    assert out.metadata["seminorm_value"] == pytest.approx((1.0 / 1000) ** 0.25)
    ref = multi_average(
        Skew(), [IterateSpec(fam[0], "integers")], [fourier_e(2, (0, 1))],
        VonMangoldt(), 200, table,
    )
    assert out.series[0] == (200, l2_norm(ref.average))


def test_cfprime_experiment_validation(table):
    f = fourier_e(2, (0, 1))
    bad_order = Family((rexp_poly(0, SQRT), rexp_poly(0, THREEHALF)))
    with pytest.raises(ValueError):
        cfprime_experiment(Skew(), bad_order, [f, f], 2, [100], table)
    dup = Family((rexp_poly(0, THREEHALF), rexp_poly(0, THREEHALF)))
    with pytest.raises(ValueError):
        cfprime_experiment(Skew(), dup, [f, f], 2, [100], table)
    # a nice family whose second and third members are equal
    dup = Family((rexp_poly(0, {F(5, 2): 1}), rexp_poly(0, THREEHALF), rexp_poly(0, THREEHALF)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        cfprime_experiment(Skew(), dup, [f, f, f], 2, [100], table)
    fam = Family((rexp_poly(0, THREEHALF),))
    with pytest.raises(ValueError):
        cfprime_experiment(Skew(), fam, [f, f], 2, [100], table)


def test_experiment_result_validation():
    with pytest.raises(ValueError):
        ExperimentResult(((100, 0.5), (100, 0.4)), {})


# ---------------------------------------------------------------------------
# the averaging inequality

def test_vdc_check_constant_sequence():
    u = np.ones((50, 2), dtype=complex)
    lhs, rhs = vdc_inequality_check(u, 10)
    assert lhs == pytest.approx(2.0)
    assert lhs <= rhs


def test_vdc_check_degenerate_window():
    lhs, rhs = vdc_inequality_check(np.array([1 + 1j]), 1)
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(4.0)


def test_vdc_check_accepts_one_dimensional_input():
    u = np.exp(2j * np.pi * 0.37 * np.arange(100))
    lhs, rhs = vdc_inequality_check(u, 20)
    assert lhs <= rhs + 1e-9


def test_vdc_check_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        N = int(rng.integers(1, 65))
        H = int(rng.integers(1, N + 1))
        d = int(rng.integers(1, 4))
        u = rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d))
        lhs, rhs = vdc_inequality_check(u, H)
        assert lhs <= rhs + 1e-9


def test_vdc_check_validation():
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones((10, 1)), 0)
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones((10, 1)), 11)
    with pytest.raises(ValueError):
        vdc_inequality_check(np.ones((0, 1)), 1)
