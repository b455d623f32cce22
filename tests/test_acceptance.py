"""Go/no-go acceptance suite.

Each test here covers one numbered criterion end to end, at its stated
tolerance and runtime cap, against independent oracles written out in
this file.  All checks for a criterion are collected before anything is
asserted, so a failing criterion still reports its single verdict line
(with the measured values) in the terminal summary.
"""

import json
import math
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from fracergo.averages import (
    IterateSpec,
    Unweighted,
    cfprime_experiment,
    multi_average,
    recurrence_profile,
    weyl_sum,
)
from fracergo.cli import main
from fracergo.fracpoly import (
    Family,
    choose_a,
    family_to_json,
    is_fractional_family,
    is_nice,
    rexp_poly,
    type_lt,
    type_vector,
    vdc_op,
)
from fracergo.primes import count_prime_tuples, singular_series
from fracergo.seminorms import (
    fourier_seminorm_rotation,
    gowers_norm_cyclic,
    hk_seminorm_estimate,
)
from fracergo.systems import (
    ALPHA_DEFAULT,
    Cyclic,
    CyclicFunction,
    FourierPoly,
    Rotation,
    Skew,
    fourier_const,
    fourier_e,
    indicator,
)
from paper_checks import InvariantViolation, twin_series_batch, vdc_inequality_check


def spec(exponents, mode="integers"):
    return IterateSpec(rexp_poly(0, exponents), mode)


def finish(report, number, name, t0, cap, failures, detail=""):
    """Record the verdict line, then assert.  The runtime cap counts as
    part of the criterion, so an overrun flips the line to FAIL too."""
    elapsed = time.monotonic() - t0
    overran = cap is not None and elapsed >= cap
    report(number, name, not failures and not overran, elapsed, detail)
    assert not failures, "; ".join(failures)
    if cap is not None:
        assert elapsed < cap, f"runtime {elapsed:.2f}s breached the {cap:.0f}s cap"


# ---------------------------------------------------------------------------
# 1. reduction calculus on the worked examples, exact rational arithmetic

def test_criterion_01_reduction_examples(criterion_report):
    t0 = time.monotonic()
    failures = []

    four = Family((
        rexp_poly(1, {F(5, 2): {(1,): 1}, F(21, 10): {(2,): 1}}),
        rexp_poly(1, {F(5, 2): {(1,): 1}}),
        rexp_poly(1, {F(5, 2): {(1,): 1}, F(21, 10): {(2,): 1}, F(3, 2): {(1,): 1}}),
        rexp_poly(1, {F(1, 2): 1}),
    ))
    got_four = type_vector(four).as_tuple()
    if got_four != (2, 2, 0, 1):
        failures.append(f"four-member type {got_four} != (2, 2, 0, 1)")

    triple = Family((
        rexp_poly(0, {F(3, 2): 1}),
        rexp_poly(0, {F(3, 2): 1, F(11, 10): 1}),
        rexp_poly(0, {F(3, 2): 1, F(6, 5): 1}),
    ))
    got_triple = type_vector(triple).as_tuple()
    if got_triple != (1, 3, 0):
        failures.append(f"triple type {got_triple} != (1, 3, 0)")

    out = vdc_op(triple, 3)
    expected = (
        rexp_poly(1, {F(6, 5): -1, F(1, 2): {(1,): F(3, 2)}}),
        rexp_poly(
            1,
            {F(6, 5): -1, F(11, 10): 1, F(1, 2): {(1,): F(3, 2)}, F(1, 10): {(1,): F(11, 10)}},
        ),
        rexp_poly(1, {F(1, 2): {(1,): F(3, 2)}, F(1, 5): {(1,): F(6, 5)}}),
        rexp_poly(1, {F(6, 5): -1}),
        rexp_poly(1, {F(6, 5): -1, F(11, 10): 1}),
    )
    if tuple(out.functions) != expected:
        failures.append("difference family does not match the expected five members term for term")
    got_out = type_vector(out).as_tuple()
    if got_out != (1, 2, 1):
        failures.append(f"difference family type {got_out} != (1, 2, 1)")
    if not (is_nice(out) and is_fractional_family(out)):
        failures.append("difference family is not nice and fractional")

    finish(criterion_report, 1, "worked reduction examples", t0, 1.0, failures,
           f"types {got_four}, {got_triple} -> {got_out}")


# ---------------------------------------------------------------------------
# 2. one reduction step strictly shrinks the type, over random families

def test_criterion_02_random_descent(criterion_report, nice_family_gen):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(20260819)
    trials = 500
    good = 0
    for trial in range(trials):
        fam = nice_family_gen(rng)
        nxt = vdc_op(fam, choose_a(fam))
        if (
            is_nice(nxt)
            and is_fractional_family(nxt)
            and type_lt(type_vector(nxt), type_vector(fam))
        ):
            good += 1
        elif len(failures) < 3:
            failures.append(f"descent failed on trial {trial}: {fam}")
    if good != trials:
        failures.append(f"only {good}/{trials} families descended")

    finish(criterion_report, 2, "random family descent", t0, 30.0, failures,
           f"{good}/{trials} strict type drops")


# ---------------------------------------------------------------------------
# 3. the finitary averaging inequality on random data

def test_criterion_03_averaging_inequality(criterion_report):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(99)
    worst = -math.inf
    for trial in range(1000):
        N = int(rng.integers(1, 1001))
        H = int(rng.integers(1, N + 1))
        d = int(rng.integers(1, 4))
        u = (rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d)))
        u *= float(rng.uniform(0.1, 10.0))
        if d == 1 and rng.random() < 0.3:
            u = u[:, 0]
        try:
            lhs, rhs = vdc_inequality_check(u, H)
        except InvariantViolation as exc:
            failures.append(f"trial {trial} (N={N}, H={H}): {exc}")
            continue
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-9:
            failures.append(f"trial {trial}: lhs - rhs = {lhs - rhs}")

    finish(criterion_report, 3, "averaging inequality", t0, 10.0, failures,
           f"1000 instances, worst lhs-rhs {worst:.3e}")


# ---------------------------------------------------------------------------
# 4. tuple-count series: exact degenerate values, an independent Euler
#    product, trial-division counts, and the slow growth of the mean square

def oracle_is_prime(x: int) -> bool:
    if x < 2:
        return False
    return all(x % q for q in range(2, math.isqrt(x) + 1))


def test_criterion_04_tuple_series(criterion_report, table):
    t0 = time.monotonic()
    failures = []

    for c in (0, 3, 10):
        got = singular_series((c,), 10**4).value
        if got != 1.0:
            failures.append(f"single-shift series at {c} is {got}, not exactly 1")
    degenerate = singular_series((0, 1), 10**4).value
    if degenerate != 0.0:
        failures.append(f"(0,1) series is {degenerate}, not exactly 0")

    # The same truncated product, written out from the definition: count
    # the residues each prime leaves open and multiply the factors up.
    cutoff = 10**6
    oracle = 1.0
    for p in table.primes[table.primes <= cutoff]:
        p = int(p)
        nu = len({h % p for h in (0, 2)})
        oracle *= (1.0 - 1.0 / p) ** -2 * (1.0 - nu / p)
    got_pair = singular_series((0, 2), cutoff, table).value
    if abs(got_pair - oracle) > 1e-3:
        failures.append(f"(0,2) series {got_pair} vs oracle {oracle}")

    N = 10**4
    for shifts in ((0, 2), (0, 4), (0, 2, 6)):
        want = sum(1 for n in range(1, N + 1) if all(oracle_is_prime(n + h) for h in shifts))
        got = count_prime_tuples(table, N, shifts)
        if got != want:
            failures.append(f"tuple count {shifts}: {got} != {want}")

    batch = twin_series_batch(10**5, 10**5, table)
    cum = np.cumsum(batch**2)
    means = [float(cum[H - 1] / H) for H in (10**3, 10**4, 10**5)]
    for a, b in zip(means, means[1:]):
        if not a < b:
            failures.append(f"mean square fell across a decade: {a} -> {b}")
        if b / a >= 1.10:
            failures.append(f"mean square grew {100 * (b / a - 1):.1f}% in a decade")

    finish(criterion_report, 4, "tuple-count series", t0, 60.0, failures,
           f"pair series {got_pair:.6f}, mean squares {means[0]:.4f}/{means[1]:.4f}/{means[2]:.4f}")


# ---------------------------------------------------------------------------
# 5. uniformity seminorms against brute force, coefficient formulas, and
#    the closed-form skew decay

def brute_uniformity(values, s):
    """The 2^s-fold multilinear average over the full cyclic group,
    conjugating on odd parity, with no recursion to share mistakes with
    the implementation under test."""
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
    return max(avg.real, 0.0) ** (1.0 / 2**s)


def test_criterion_05_seminorms(criterion_report, table):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(5)

    worst_brute = 0.0
    for m in range(2, 8):
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = CyclicFunction.make(m, vals.tolist())
        for s in (1, 2, 3):
            gap = abs(gowers_norm_cyclic(f, s) - brute_uniformity(list(f.values), s))
            worst_brute = max(worst_brute, gap)
            if gap > 1e-10:
                failures.append(f"brute-force gap {gap} at m={m}, s={s}")

    for trial in range(100):
        m = int(rng.integers(2, 11))
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = CyclicFunction.make(m, vals.tolist())
        u1, u2, u3 = (gowers_norm_cyclic(f, s) for s in (1, 2, 3))
        if not (u1 <= u2 + 1e-12 and u2 <= u3 + 1e-12):
            failures.append(f"monotonicity broke on trial {trial}: {u1}, {u2}, {u3}")

    rot = Rotation(ALPHA_DEFAULT)
    worst_rot = 0.0
    for _ in range(20):
        nterms = int(rng.integers(1, 6))
        freqs = rng.choice(np.arange(-8, 9), size=nterms, replace=False)
        entries = [((int(k),), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for k in freqs]
        f = FourierPoly.make(1, entries)
        est = hk_seminorm_estimate(rot, f, 2, N_schedule=(1000,))
        worst_rot = max(worst_rot, abs(est.value - fourier_seminorm_rotation(f, 2)))
    if worst_rot > 1e-2:
        failures.append(f"rotation estimate off the coefficient formula by {worst_rot}")

    skew = Skew(ALPHA_DEFAULT)
    ey = fourier_e(2, (0, 1))
    est2 = hk_seminorm_estimate(skew, ey, 2, N_schedule=(200,))
    if est2.value != (1.0 / 200) ** 0.25:
        failures.append(f"skew s=2 value {est2.value!r} is not exactly 200**-0.25")
    est3 = hk_seminorm_estimate(skew, ey, 3, N_schedule=(200, 200))
    if est3.value < 0.5:
        failures.append(f"skew s=3 value {est3.value} < 0.5")

    finish(criterion_report, 5, "uniformity seminorms", t0, 300.0, failures,
           f"brute gap {worst_brute:.1e}, rotation gap {worst_rot:.1e}, "
           f"skew s2/s3 {est2.value:.4f}/{est3.value:.4f}")


# ---------------------------------------------------------------------------
# 6. exponential-sum decay along primes, with a periodic integer control

def test_criterion_06_equidistribution_decay(criterion_report, table):
    t0 = time.monotonic()
    failures = []

    # At t = 1 the floored phases are identically zero, so the decay
    # statement is about the raw fractional values.
    sq = spec({F(1, 2): 1}, mode="primes")
    small = abs(weyl_sum((sq,), (1.0,), 10**3, table=table, floor_iterates=False))
    large = abs(weyl_sum((sq,), (1.0,), 10**5, table=table, floor_iterates=False))
    if large > small / 3:
        failures.append(f"|S(1e5)| = {large} exceeds a third of |S(1e3)| = {small}")

    control = abs(weyl_sum((spec({2: 1}),), (0.25,), 10**4))
    if abs(control - 0.7071) > 0.01:
        failures.append(f"period-four control modulus {control} outside 0.7071 +- 0.01")

    finish(criterion_report, 6, "equidistribution decay", t0, 120.0, failures,
           f"prime-sum ratio {large / small:.3f}, control {control:.4f}")


# ---------------------------------------------------------------------------
# 7. joint averages: decay on the rotation, obstruction on a cycle

def test_criterion_07_joint_average_decay(criterion_report, table):
    t0 = time.monotonic()
    failures = []

    rot = Rotation(ALPHA_DEFAULT)
    pair = (spec({F(3, 2): 1}, "primes"), spec({F(3, 2): 1, F(11, 10): 1}, "primes"))
    fx = fourier_e(1, (1,))
    dists = [
        multi_average(rot, pair, (fx, fx), Unweighted(), N, table=table).distance
        for N in (10**3, 10**4, 10**5)
    ]
    if not (dists[0] > dists[1] > dists[2]):
        failures.append(f"rotation distances not strictly decreasing: {dists}")

    # Squares of odd primes all sit in the same class mod 4, so against
    # the order-four character the average locks on instead of decaying.
    char = CyclicFunction.make(4, [1, 1j, -1, -1j])
    locked = multi_average(
        Cyclic(4), (spec({2: 1}, "primes"),), (char,), Unweighted(), 10**5, table=table
    ).distance
    if locked < 0.9:
        failures.append(f"periodic obstruction distance {locked} < 0.9")

    finish(criterion_report, 7, "joint-average decay", t0, 300.0, failures,
           f"distances {dists[0]:.2e} > {dists[1]:.2e} > {dists[2]:.2e}, obstruction {locked:.4f}")


# ---------------------------------------------------------------------------
# 8. the recurrence floor on a five-point cycle

def test_criterion_08_recurrence_floor(criterion_report, table):
    t0 = time.monotonic()
    failures = []

    prof = recurrence_profile(
        Cyclic(5),
        indicator(5, {0}),
        (spec({F(1, 2): 1}, "primes"), spec({F(1, 10): 1}, "primes")),
        (10**3, 10**4, 10**5),
        table=table,
    )
    floor = (1 / 5) ** 3 - 0.02
    value = prof.series[-1][1]
    # Both floored iterates stay below 5 for every prime this side of
    # 5**10, so the triple intersection is empty at these lengths and the
    # profile sits at zero; the slack in the floor is what makes the
    # bound checkable at desk scale at all.
    if value < floor:
        failures.append(f"profile {value} below floor {floor}")
    if prof.benchmark != (1 / 5) ** 3:
        failures.append(f"benchmark {prof.benchmark} is not (1/5)^3")

    finish(criterion_report, 8, "recurrence floor", t0, 120.0, failures,
           f"profile {value:.4f} >= floor {floor:.4f}")


# ---------------------------------------------------------------------------
# 9. prime-weighted averages: decay under a vanishing certificate, none
#    under the constant control

def test_criterion_09_prime_weighted_control(criterion_report, table):
    t0 = time.monotonic()
    failures = []

    skew = Skew(ALPHA_DEFAULT)
    fam = Family((rexp_poly(0, {F(3, 2): 1}),))
    lengths = (10**3, 10**4, 10**5)

    decaying = cfprime_experiment(skew, fam, (fourier_e(2, (0, 1)),), 2, lengths, table=table)
    norms = [v for _, v in decaying.series]
    if not (norms[0] > norms[1] > norms[2]):
        failures.append(f"weighted norms not strictly decreasing: {norms}")
    cert = decaying.metadata["seminorm_value"]
    if cert > 0.2:
        failures.append(f"decaying run carries a large certificate {cert}")

    control = cfprime_experiment(skew, fam, (fourier_const(2, 1.0),), 2, lengths, table=table)
    flat = [v for _, v in control.series]
    if flat[-1] < flat[0] or flat[-1] < 0.9:
        failures.append(f"constant control decayed: {flat}")
    if control.metadata["seminorm_value"] != 1.0:
        failures.append(f"constant certificate {control.metadata['seminorm_value']} != 1")

    finish(criterion_report, 9, "prime-weighted control", t0, 300.0, failures,
           f"norms {norms[0]:.4f}>{norms[1]:.4f}>{norms[2]:.4f}, control ends {flat[-1]:.4f}")


# ---------------------------------------------------------------------------
# 10. every subcommand is byte-deterministic on rerun

def _family_file(path, exponent_maps):
    fam = Family(tuple(rexp_poly(0, m) for m in exponent_maps))
    path.write_text(json.dumps(family_to_json(fam)))
    return str(path)


def test_criterion_10_byte_determinism(criterion_report, tmp_path):
    t0 = time.monotonic()
    failures = []

    pair = _family_file(tmp_path / "pair.json", [{F(3, 2): 1}, {F(3, 2): 1, F(11, 10): 1}])
    quad = _family_file(tmp_path / "quad.json", [{2: 1}])
    single = _family_file(tmp_path / "single.json", [{F(3, 2): 1}])
    low = _family_file(tmp_path / "low.json", [{F(1, 2): 1}, {F(1, 10): 1}])

    runs = {
        "pet": ["pet", "--family", pair],
        "equidist": ["equidist", "--family", quad, "--t", "1/4", "--N", "128,2000"],
        "jointavg": ["jointavg", "--system", "rotation", "--family", single, "--N", "100,200"],
        "recurrence": ["recurrence", "--system", "cyclic:5", "--family", low,
                       "--mode", "primes", "--N", "100,200"],
        "seminorm": ["seminorm", "--system", "skew", "--s", "2,3", "--N", "50,50"],
        "sieve": ["sieve", "--shifts", "0,2", "--N", "100,1000",
                  "--cutoff", "1000"],
    }
    for name, argv in runs.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            out.mkdir()
            rc = main(argv + ["--out", str(out)])
            if rc != 0:
                failures.append(f"{name} exited {rc}")
                break
            outputs.append((out / f"{name}.csv").read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{name} CSV differs between identical runs")

    finish(criterion_report, 10, "byte determinism", t0, None, failures,
           f"{len(runs)} subcommands rerun byte-identical")
