import cmath
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracergo import systems
from fracergo.systems import (
    ALPHA_DEFAULT,
    Cyclic,
    CyclicFunction,
    FourierPoly,
    Rotation,
    Skew,
    TermBudgetError,
    apply_power,
    describe,
    e,
    fejer_arc,
    fourier_const,
    fourier_e,
    frac_multiples,
    indicator,
    integrate,
    l2_distance,
    l2_norm,
    multiply,
    parse_system,
)


# ---------------------------------------------------------------------------
# pointwise oracles for Fourier polynomials

def value_at(f: FourierPoly, x: Sequence[float]) -> complex:
    phases = f.freqs @ np.asarray(x, dtype=float)
    return complex(np.sum(f.amps * np.exp(2j * np.pi * phases)))


def sup_bound(f: FourierPoly) -> float:
    return float(np.sum(np.abs(f.amps)))


# ---------------------------------------------------------------------------
# exact fractional parts

def frac_mult(alpha: float, n: int) -> float:
    """Fractional part of n*alpha, exact in the double representation:
    the scalar oracle for frac_multiples and the torus phases.

    alpha as stored is a dyadic rational A / 2^e; n*A mod 2^e is exact
    integer arithmetic, so the only rounding is the final division.
    """
    fr = Fraction(alpha)
    return float(int(n) * fr.numerator % fr.denominator) / fr.denominator


@given(st.integers(min_value=-(10**12), max_value=10**12))
@settings(max_examples=300, deadline=None)
def test_frac_mult_is_exact(n):
    alpha = ALPHA_DEFAULT
    want = Fraction(alpha) * n % 1
    assert frac_mult(alpha, n) == float(want)


def test_frac_multiples_matches_scalar():
    ns = [0, 1, 17, 10**9, -5]
    got = frac_multiples(ALPHA_DEFAULT, ns)
    for i, n in enumerate(ns):
        assert got[i] == frac_mult(ALPHA_DEFAULT, n)


def test_character_values():
    assert e(0) == 1
    assert abs(e(0.37)) == pytest.approx(1.0, abs=1e-15)
    assert e(0.5) == pytest.approx(-1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# observables

def test_fourier_make_merges_and_sorts():
    f = FourierPoly.make(1, [((2,), 1.0), ((2,), -1.0), ((1,), 3.0), ((-1,), 2.0)])
    assert f.terms == (((-1,), 2.0), ((1,), 3.0))
    assert f.amplitude((2,)) == 0
    assert f.amplitude((1,)) == 3.0


def test_fourier_zero_and_const():
    z = FourierPoly.zero(2)
    assert z.terms == ()
    c = fourier_const(1, 2.5)
    assert value_at(c, (0.3,)) == 2.5
    assert integrate(Rotation(), c) == 2.5


def test_fourier_conjugate_and_scale():
    f = fourier_e(1, (3,)) + fourier_e(1, (-1,)).scale(2j)
    x = (0.21,)
    assert value_at(f.conjugate(), x) == pytest.approx(
        value_at(f, x).conjugate(), abs=1e-14
    )
    assert value_at(f.scale(-0.5), x) == pytest.approx(-0.5 * value_at(f, x), abs=1e-14)


def test_fourier_sup_bound():
    f = fourier_e(1, (1,)) + fourier_e(1, (2,)).scale(0.5)
    assert sup_bound(f) == pytest.approx(1.5)
    for x in np.linspace(0, 1, 37):
        assert abs(value_at(f, (x,))) <= sup_bound(f) + 1e-12


def test_cyclic_function_basics():
    f = CyclicFunction.make(4, [1, 2j, 0, -1])
    assert f.as_array().tolist() == [1, 2j, 0, -1]
    assert f.conjugate().as_array().tolist() == [1, -2j, 0, -1]
    with pytest.raises(ValueError):
        CyclicFunction.make(4, [1, 2])


def test_indicator():
    f = indicator(5, [0, 3])
    assert f.as_array().tolist() == [1, 0, 0, 1, 0]


def test_fejer_arc_shape_and_range():
    g = fejer_arc(0.3, 40)
    assert len(g.terms) == 81
    assert g.amplitude((0,)) == 0.3  # the integral survives smoothing exactly
    vals = [value_at(g, (x,)) for x in np.linspace(0, 1, 301, endpoint=False)]
    for v in vals:
        assert abs(v.imag) < 1e-12
        assert -1e-12 <= v.real <= 1 + 1e-12
    with pytest.raises(ValueError):
        fejer_arc(1.2, 10)


# ---------------------------------------------------------------------------
# dynamics

def test_apply_power_cyclic_rolls():
    f = CyclicFunction.make(5, [0, 1, 2, 3, 4])
    assert apply_power(Cyclic(5), f, 2).as_array().tolist() == [2, 3, 4, 0, 1]
    assert apply_power(Cyclic(5), f, -1).as_array().tolist() == [4, 0, 1, 2, 3]
    assert apply_power(Cyclic(5), f, 7).as_array().tolist() == [2, 3, 4, 0, 1]


def test_apply_power_rotation_phase():
    sys = Rotation()
    f = fourier_e(1, (3,))
    g = apply_power(sys, f, 11)
    assert g.amplitude((3,)) == e(frac_mult(sys.alpha, 33))
    x = 0.137
    want = value_at(f, ((x + 11 * sys.alpha) % 1.0,))
    assert value_at(g, (x,)) == pytest.approx(want, abs=1e-9)


def test_apply_power_skew_matches_stepwise():
    sys = Skew()
    f = fourier_e(2, (2, -3)) + fourier_e(2, (0, 1)).scale(0.5)
    stepped = f
    for _ in range(7):
        stepped = apply_power(sys, stepped, 1)
    closed = apply_power(sys, f, 7)
    assert {fq for fq, _ in closed.terms} == {fq for fq, _ in stepped.terms}
    for fq, a in closed.terms:
        assert a == pytest.approx(stepped.amplitude(fq), abs=1e-12)


def test_apply_power_skew_inverts():
    sys = Skew()
    f = fourier_e(2, (1, 2)).scale(1 - 2j)
    back = apply_power(sys, apply_power(sys, f, -4), 4)
    assert {fq for fq, _ in back.terms} == {(1, 2)}
    assert back.amplitude((1, 2)) == pytest.approx(1 - 2j, abs=1e-12)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
@settings(max_examples=100, deadline=None)
def test_apply_power_skew_adds_exponents(a, b):
    sys = Skew()
    f = fourier_e(2, (1, -2)) + fourier_e(2, (3, 1)).scale(0.25j)
    lhs = apply_power(sys, f, a + b)
    rhs = apply_power(sys, apply_power(sys, f, b), a)
    assert {fq for fq, _ in lhs.terms} == {fq for fq, _ in rhs.terms}
    for fq, amp in lhs.terms:
        assert amp == pytest.approx(rhs.amplitude(fq), abs=1e-11)


_LARGE = st.integers(2**32 + 2, 2**40)


@given(
    st.sampled_from([Rotation(), Rotation(0.3), Skew(), Skew(0.3)]),
    st.one_of(st.integers(-50, 50), _LARGE, _LARGE.map(lambda n: -n)),
    st.lists(
        st.tuples(
            st.integers(-5, 5),
            st.integers(-3, 3),
            st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_apply_power_matches_frac_mult_per_term(sys, n, terms):
    # |n| >= 2^32 + 2 puts the triangular number n(n-1)/2 above 2^63.
    f = FourierPoly.make(sys.dim, [((k1, k2)[: sys.dim], a) for k1, k2, a in terms])
    tri = n * (n - 1) // 2
    want = {}
    for fq, a in f.terms:
        k1, k2 = (*fq, 0)[:2]
        phase = frac_mult(sys.alpha, k1 * n) + (frac_mult(sys.alpha, k2 * tri) if k2 else 0.0)
        want[(k1 + n * k2, k2)[: sys.dim]] = a * e(phase)
    assert dict(apply_power(sys, f, n).terms) == want


def test_apply_power_rejects_mismatched_observables():
    with pytest.raises(ValueError):
        apply_power(Cyclic(3), CyclicFunction.make(4, [1, 0, 0, 0]), 1)
    with pytest.raises(ValueError):
        apply_power(Rotation(), fourier_e(2, (1, 0)), 1)
    with pytest.raises(ValueError):
        apply_power(Skew(), fourier_e(1, (1,)), 1)


def test_integrate_orthogonality():
    assert integrate(Rotation(), fourier_e(1, (5,))) == 0
    assert integrate(Skew(), fourier_e(2, (0, 2))) == 0
    f = CyclicFunction.make(4, [1, 1j, -1, -1j])
    assert integrate(Cyclic(4), f) == 0
    g = indicator(5, [0])
    assert integrate(Cyclic(5), g) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# products and norms

def test_multiply_is_pointwise():
    f = fourier_e(1, (1,)) + fourier_e(1, (-2,)).scale(3)
    g = fourier_e(1, (2,)).scale(1j) + fourier_const(1, 0.5)
    h = multiply(f, g)
    for x in np.linspace(0, 1, 23):
        assert value_at(h, (x,)) == pytest.approx(
            value_at(f, (x,)) * value_at(g, (x,)), abs=1e-12
        )


def test_multiply_cyclic_pointwise():
    f = CyclicFunction.make(3, [1, 2, 3])
    g = CyclicFunction.make(3, [1j, 0, -1])
    assert multiply(f, g).as_array().tolist() == [1j, 0, -3]
    with pytest.raises(ValueError):
        multiply(f, CyclicFunction.make(4, [1, 0, 0, 0]))


def test_multiply_respects_term_budget(monkeypatch):
    f = fourier_e(1, (1,)) + fourier_e(1, (2,))
    monkeypatch.setattr(systems, "TERM_BUDGET", 3)
    with pytest.raises(TermBudgetError):
        multiply(f, f)
    monkeypatch.setattr(systems, "TERM_BUDGET", 4)
    assert len(multiply(f, f).terms) == 3


def test_l2_norm_parseval():
    f = fourier_e(1, (1,)).scale(3) + fourier_e(1, (4,)).scale(4j)
    assert l2_norm(f) == pytest.approx(5.0)
    g = CyclicFunction.make(2, [3, 4])
    assert l2_norm(g) == pytest.approx(math.sqrt(12.5))


def test_l2_distance_consistency():
    f = fourier_e(1, (1,)) + fourier_e(1, (2,)).scale(2)
    g = fourier_e(1, (1,)).scale(0.5)
    want = l2_norm(f + g.scale(-1))
    assert l2_distance(f, g) == pytest.approx(want, rel=1e-14)
    a = CyclicFunction.make(3, [1, 0, 2])
    b = CyclicFunction.make(3, [0, 0, 2j])
    diff = np.abs(a.as_array() - b.as_array())
    assert l2_distance(a, b) == pytest.approx(float(np.sqrt(np.mean(diff**2))))
    with pytest.raises(ValueError):
        l2_distance(f, fourier_e(2, (1, 0)))


def test_cyclic_modulus_validation():
    with pytest.raises(ValueError):
        Cyclic(1)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.integers(2, 10**6))
@settings(max_examples=100, deadline=None)
def test_parse_system_reads_describe_back(alpha, m):
    for sys in (Cyclic(m), Rotation(alpha), Skew(alpha), Rotation(), Skew()):
        assert parse_system(describe(sys)) == sys


def test_parse_system_text():
    assert parse_system("rotation") == Rotation(ALPHA_DEFAULT)
    assert parse_system("skew:0.25") == Skew(0.25)
    assert describe(Cyclic(5)) == "cyclic:5"
    for bad in ("cyclic", "cyclic:x", "galois:7", "rotation:abc"):
        with pytest.raises(ValueError):
            parse_system(bad)


# ---------------------------------------------------------------------------
# the array representation against a dict of terms

# Small dyadic amplitudes: their sums and products are exact in any order,
# so a frequency cancels to exactly 0 on both sides or on neither.
_DYADIC = st.builds(lambda a, b: complex(a, b) / 4, st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def _entries(draw, dim):
    """(freq, amp) pairs with repeated frequencies, some cancelling exactly."""
    entries = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * dim), _DYADIC), max_size=8))
    if entries:
        entries += [(fq, -a) for fq, a in draw(st.lists(st.sampled_from(entries), max_size=3))]
    return entries


def _dict_of(entries):
    acc = {}
    for fq, a in entries:
        acc[fq] = acc.get(fq, 0j) + a
    return {fq: a for fq, a in acc.items() if a != 0}


def _dict_apply_power(sys, f, n):
    tri = n * (n - 1) // 2
    out = {}
    for fq, a in f.items():
        k1, k2 = (*fq, 0)[:2]
        phase = frac_mult(sys.alpha, k1 * n) + (frac_mult(sys.alpha, k2 * tri) if k2 else 0.0)
        out[(k1 + n * k2, k2)[: sys.dim]] = a * e(phase)
    return out


def _agrees(poly, want):
    got = dict(poly.terms)
    assert set(got) == set(want)
    for fq, a in want.items():
        assert abs(got[fq] - a) <= 1e-12 * abs(a)
    # canonical: each frequency once, sorted with the last coordinate major
    assert [fq[::-1] for fq in got] == sorted(fq[::-1] for fq in got)
    assert poly.freqs.dtype == np.int64 and poly.amps.dtype == np.complex128
    assert poly.freqs.shape == (len(want), poly.dim)


@given(
    st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(st.just(d), _entries(d), _entries(d))),
    st.integers(-40, 40),
    st.sampled_from([ALPHA_DEFAULT, 0.3]),
)
@settings(max_examples=300, deadline=None)
def test_fourier_arrays_match_dict_oracle(case, n, alpha):
    dim, ef, eg = case
    sys = Rotation(alpha) if dim == 1 else Skew(alpha)
    f, g = FourierPoly.make(dim, ef), FourierPoly.make(dim, eg)
    df, dg = _dict_of(ef), _dict_of(eg)
    _agrees(f, df)
    _agrees(f + g, _dict_of(ef + eg))
    products = [(tuple(x + y for x, y in zip(k, q)), a * b) for k, a in df.items() for q, b in dg.items()]
    _agrees(multiply(f, g), _dict_of(products))
    _agrees(f.conjugate(), {tuple(-x for x in fq): a.conjugate() for fq, a in df.items()})
    _agrees(apply_power(sys, f, n), _dict_apply_power(sys, df, n))
    for fq in itertools.product(range(-4, 5), repeat=dim):
        assert f.amplitude(fq) == df.get(fq, 0j)
    assert integrate(sys, f) == df.get((0,) * dim, 0j)
    want = math.sqrt(sum(abs(df.get(k, 0j) - dg.get(k, 0j)) ** 2 for k in set(df) | set(dg)))
    assert l2_distance(f, g) == pytest.approx(want, rel=1e-12)


def test_fourier_make_refuses_frequencies_beyond_int64():
    for fq in (2**63, -(2**63)):  # -(2^63) would negate to itself
        with pytest.raises(ValueError, match="int64"):
            FourierPoly.make(1, [((fq,), 1.0)])
    f = FourierPoly.make(1, [((2**63 - 1,), 1.0), ((1 - 2**63,), 1.0)])
    assert f.conjugate().freqs.ravel().tolist() == [1 - 2**63, 2**63 - 1]


def test_fourier_sums_and_shears_refuse_to_wrap():
    big = fourier_e(1, (2**62,))
    with pytest.raises(ValueError, match="int64"):
        multiply(big, big)
    with pytest.raises(ValueError, match="int64"):
        multiply(big.conjugate(), big.conjugate())
    small = fourier_e(1, (2**62 - 1,))
    assert multiply(small, small).terms == (((2**63 - 2,), 1 + 0j),)
    with pytest.raises(ValueError, match="int64"):
        apply_power(Skew(), fourier_e(2, (0, 2**62)), 2)
    assert apply_power(Skew(), fourier_e(2, (0, 2**62)), 1).freqs.tolist() == [[2**62, 2**62]]


def test_fourier_arrays_are_read_only():
    f = fejer_arc(0.3, 4)
    with pytest.raises(ValueError):
        f.amps[0] = 0
    with pytest.raises(ValueError):
        f.freqs[0, 0] = 7
    with pytest.raises(AttributeError):
        f.amps = np.zeros(9, dtype=complex)
    assert f.conjugate().amps.flags.writeable is False
