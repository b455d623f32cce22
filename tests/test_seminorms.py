from itertools import product

import numpy as np
import pytest

from fracergo import systems
from fracergo.seminorms import (
    DEFAULT_SCHEDULES,
    SeminormEstimate,
    fourier_seminorm_rotation,
    gowers_norm_cyclic,
    hk_seminorm_estimate,
)
from fracergo.systems import (
    Cyclic,
    CyclicFunction,
    FourierPoly,
    Rotation,
    Skew,
    TermBudgetError,
    fourier_e,
    indicator,
)


def oracle_gowers(values, s):
    """Degree-s uniformity norm as the raw 2^s-fold multilinear average,
    with the conjugation pattern written out instead of the recursion."""
    m = len(values)
    total = 0j
    for x in range(m):
        for hs in product(range(m), repeat=s):
            term = 1 + 0j
            for omega in product((0, 1), repeat=s):
                v = values[(x + sum(w * h for w, h in zip(omega, hs))) % m]
                term *= v.conjugate() if sum(omega) % 2 else v
            total += term
    avg = total / m ** (s + 1)
    assert abs(avg.imag) < 1e-10
    return max(avg.real, 0.0) ** (1.0 / 2**s)


def random_cyclic(rng, m):
    vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return CyclicFunction.make(m, vals.tolist())


# ---------------------------------------------------------------------------
# exact cyclic norms

@pytest.mark.parametrize("m", [2, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_cyclic_matches_multilinear_oracle(m, s):
    rng = np.random.default_rng(m * 10 + s)
    f = random_cyclic(rng, m)
    got = gowers_norm_cyclic(f, s)
    want = oracle_gowers(list(f.values), s)
    assert got == pytest.approx(want, abs=1e-10)


def test_cyclic_character_norms():
    m = 5
    vals = [np.exp(2j * np.pi * 2 * x / m) for x in range(m)]
    f = CyclicFunction.make(m, vals)
    assert gowers_norm_cyclic(f, 1) == pytest.approx(0.0, abs=1e-10)
    assert gowers_norm_cyclic(f, 2) == pytest.approx(1.0, abs=1e-10)
    assert gowers_norm_cyclic(f, 3) == pytest.approx(1.0, abs=1e-10)


def test_cyclic_monotone_in_degree():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(2, 12))
        f = random_cyclic(rng, m)
        u1 = gowers_norm_cyclic(f, 1)
        u2 = gowers_norm_cyclic(f, 2)
        u3 = gowers_norm_cyclic(f, 3)
        assert u1 <= u2 + 1e-12
        assert u2 <= u3 + 1e-12


def test_cyclic_norm_budget_guard():
    f = CyclicFunction.make(20_000, [1.0] * 20_000)
    with pytest.raises(ValueError, match="budget"):
        gowers_norm_cyclic(f, 3)


def test_cyclic_norm_rejects_degree_zero():
    f = indicator(3, [0])
    with pytest.raises(ValueError):
        gowers_norm_cyclic(f, 0)


# ---------------------------------------------------------------------------
# truncated estimates

def test_estimate_on_cyclic_with_full_period_is_exact():
    rng = np.random.default_rng(11)
    m = 6
    f = random_cyclic(rng, m)
    for s, schedule in [(2, (m,)), (3, (m, m))]:
        est = hk_seminorm_estimate(Cyclic(m), f, s, schedule)
        assert est.value == pytest.approx(gowers_norm_cyclic(f, s), abs=1e-10)
        assert est.N_schedule == schedule


def test_rotation_character_estimate_is_one():
    est = hk_seminorm_estimate(Rotation(), fourier_e(1, (1,)), 2, (50,))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_rotation_estimate_near_fourier_value():
    rng = np.random.default_rng(3)
    for _ in range(5):
        freqs = rng.choice(np.arange(-6, 7), size=4, replace=False)
        entries = [
            ((int(k),), complex(rng.standard_normal(), rng.standard_normal()))
            for k in freqs
        ]
        f = FourierPoly.make(1, entries)
        est = hk_seminorm_estimate(Rotation(), f, 2, (1000,))
        want = fourier_seminorm_rotation(f, 2)
        assert est.value == pytest.approx(want, abs=1e-2)


def test_skew_vertical_character_decays_exactly():
    # the only surviving derivative is n = 0, so the raw level-2 average
    # is exactly 1/N and the estimate is its fourth root
    for N in (10, 200):
        est = hk_seminorm_estimate(Skew(), fourier_e(2, (0, 1)), 2, (N,))
        assert est.value == (1.0 / N) ** 0.25


def test_skew_vertical_character_degree_three():
    est = hk_seminorm_estimate(Skew(), fourier_e(2, (0, 1)), 3, (50, 50))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_default_schedules():
    est = hk_seminorm_estimate(Rotation(), fourier_e(1, (2,)), 2)
    assert est.N_schedule == DEFAULT_SCHEDULES[2]


def test_estimate_validation():
    f = fourier_e(1, (1,))
    with pytest.raises(ValueError):
        hk_seminorm_estimate(Rotation(), f, 4)
    with pytest.raises(ValueError):
        hk_seminorm_estimate(Rotation(), f, 2, (10, 10))
    with pytest.raises(ValueError):
        hk_seminorm_estimate(Rotation(), f, 2, (0,))
    with pytest.raises(ValueError):
        SeminormEstimate(2, -0.5, (10,))


def test_term_budget_propagates(monkeypatch):
    f = fourier_e(2, (0, 1)) + fourier_e(2, (1, 0)) + fourier_e(2, (1, 1))
    monkeypatch.setattr(systems, "TERM_BUDGET", 4)
    with pytest.raises(TermBudgetError):
        hk_seminorm_estimate(Skew(), f, 2, (20,))


def test_fourier_seminorm_validation():
    with pytest.raises(ValueError):
        fourier_seminorm_rotation(fourier_e(1, (1,)), 1)
    with pytest.raises(ValueError):
        fourier_seminorm_rotation(fourier_e(2, (1, 0)), 2)


def test_fourier_seminorm_value():
    f = fourier_e(1, (1,)).scale(2) + fourier_e(1, (3,)).scale(2)
    # (2^4 + 2^4)^(1/4)
    assert fourier_seminorm_rotation(f, 2) == pytest.approx(32**0.25)
