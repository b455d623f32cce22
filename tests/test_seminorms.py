from itertools import product

import numpy as np
import pytest

from fracergo import seminorms, systems
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


def _closed_form_tolerance(s, schedule):
    """A relative bound on the rounding of the skew estimates below.

    Every node of a level takes three complex operations on one-term
    polynomials (the pullback's character and its product, then the
    derivative's product), each moving the modulus by at most 3 ulps
    relative: 9 per level, and the derivative g-bar T^m g doubles its
    input's error.  Then |mean|^2 (abs, square), the sums over each
    schedule length (one ulp per addition) and the divisions, the root
    (divides by 2^s, plus one ulp) and the reference |a| N^(-1/4) (three
    ulps)."""
    chain = 0
    for _ in range(s - 1):
        chain = 2 * chain + 9
    raw = 2 * chain + 3 + sum(schedule)
    return (raw / 2**s + 4) * 2.0**-53


@pytest.mark.parametrize("a", [0.6 - 0.3j, 2.5j, -7e-3 + 4e-3j])
def test_skew_vertical_character_closed_forms_at_any_amplitude(a):
    # f = a e(y): each derivative f-bar T^n f is |a|^2 e(n x) times a unit
    # phase, so only n = 0 has a mean; at degree 3 every derivative of a
    # one-term g has |mean|^2 = |g|^4 = |a|^8, for any schedule.
    f = FourierPoly.make(2, [((0, 1), a)])
    for N in (1, 7, 200):
        want = abs(a) * N ** -0.25
        got = hk_seminorm_estimate(Skew(), f, 2, (N,)).value
        assert abs(got - want) <= _closed_form_tolerance(2, (N,)) * want, (N, got, want)
        for M in (1, 7, 200):
            got = hk_seminorm_estimate(Skew(), f, 3, (N, M)).value
            assert abs(got - abs(a)) <= _closed_form_tolerance(3, (N, M)) * abs(a), (N, M, got)


@pytest.mark.parametrize(
    "sys, f",
    [(Rotation(0.3), systems.fejer_arc(0.2, 3)), (Skew(), fourier_e(2, (1, 1)) + fourier_e(2, (0, 1)))],
)
def test_recursion_makes_one_pullback_and_one_product_per_node(monkeypatch, sys, f):
    # perfbench/references.json stores these counts (hk_nodes,
    # apply_power_calls, multiply_calls) for its traced runs: a recursion
    # that batches a level, or caches a node, changes them and needs new
    # references with it.
    calls = {"apply_power": 0, "multiply": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(seminorms, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(seminorms, name, counted)
    for s, schedule, nodes in [(2, (9,), 9), (3, (5, 4), 5 + 5 * 4), (3, (1, 6), 1 + 6)]:
        calls.update(apply_power=0, multiply=0)
        hk_seminorm_estimate(sys, f, s, schedule)
        assert calls == {"apply_power": nodes, "multiply": nodes}, (
            f"degree {s} at {schedule}: {calls}, want {nodes} each (N1 + N1 N2 at degree 3, N at degree 2)"
        )


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
