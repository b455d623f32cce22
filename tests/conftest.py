import numpy as np
import pytest
from fractions import Fraction

from fracergo.fracpoly import Family, RealExpPoly, is_nice, is_fractional_family
from fracergo.primes import sieve

# Large enough for the 100000-th prime (1299709) and a 10^6 singular
# series truncation, small enough to sieve in well under a second.
SIEVE_LIMIT = 1_300_000

# One line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capture.  test_acceptance.py fills this through
# the criterion_report fixture.
ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def table():
    return sieve(SIEVE_LIMIT)


@pytest.fixture(scope="session")
def pell_pair():
    """The first a^2 - 2 b^2 = 1 with b above 10^95 (b is about 1.7e95), so
    that b 2^(1/2) - a is about -2e-96."""
    a, b = 3, 2
    while b < 10**95:
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    return a, b


@pytest.fixture
def criterion_report():
    def record(number: int, name: str, passed: bool, elapsed: float, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        tail = f" -- {detail}" if detail else ""
        ACCEPTANCE_LINES.append((number, f"[{status}] criterion {number:2d} {name}: {elapsed:.2f}s{tail}"))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def nice_family_gen():
    """A generator of random nice fractional families for the descent
    property tests: k <= 2 parameters, up to 4 members, non-integer
    exponents in (0, 3), leading exponent above 1 so a reduction step
    applies."""

    def gen(rng: np.random.Generator) -> Family:
        for _ in range(200):
            k = int(rng.integers(0, 3))
            ell = int(rng.integers(1, 5))

            def rand_exp(lo_num: int) -> Fraction:
                den = int(rng.integers(2, 11))
                num = int(rng.integers(lo_num, 3 * den))
                if num % den == 0:
                    num += 1
                if num >= 3 * den:
                    num -= den
                return Fraction(num, den)

            def rand_coeff() -> dict:
                entries = {}
                for _ in range(int(rng.integers(1, 3))):
                    powers = tuple(int(rng.integers(0, 3)) for _ in range(k))
                    c = int(rng.integers(-5, 6)) or 1
                    entries[powers] = entries.get(powers, 0) + c
                return entries

            members = []
            for i in range(ell):
                terms = {}
                # leading exponent of the first member stays above 1
                top = rand_exp(0)
                if i == 0:
                    while top <= 1:
                        top = rand_exp(2)
                terms[top] = rand_coeff()
                for _ in range(int(rng.integers(0, 2))):
                    terms.setdefault(rand_exp(0), rand_coeff())
                members.append(RealExpPoly.make(k, terms))
            members.sort(key=lambda f: f.fractional_degree(), reverse=True)
            fam = Family(tuple(members))
            if (
                is_nice(fam)
                and is_fractional_family(fam)
                and fam[0].fractional_degree() > 1
            ):
                return fam
        raise RuntimeError("family generation failed to converge")

    return gen
