"""Gowers-Host-Kra seminorms: exact on cyclic groups, finite-truncation
estimates on the rotation and skew systems.

The recursion is the standard one: the degree-1 value is the absolute
integral, and each higher degree averages the previous one over
multiplicative derivatives f-bar * T^n f.  On Z/m the average over n is
a complete period, so the cyclic result is exact; on the torus systems
the n-average is truncated at a schedule of lengths, one per recursion
level, and the truncation window is n = 0, ..., N-1.  Including n = 0
matters: it carries the |integral of |f|^2| term that keeps degenerate
cases honest (see the skew examples in the tests).

No extrapolation is performed anywhere; an estimate is the finite
average it says it is, schedule attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .systems import (
    CyclicFunction,
    FourierPoly,
    SystemSpec,
    apply_power,
    integrate,
    multiply,
)

__all__ = [
    "SeminormEstimate",
    "gowers_norm_cyclic",
    "hk_seminorm_estimate",
    "fourier_seminorm_rotation",
    "DEFAULT_SCHEDULES",
]

DEFAULT_SCHEDULES = {1: (), 2: (1000,), 3: (200, 200)}


@dataclass(frozen=True)
class SeminormEstimate:
    s: int
    value: float
    N_schedule: tuple[int, ...]

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("seminorm estimates are non-negative")


def gowers_norm_cyclic(f: CyclicFunction, s: int) -> float:
    """Exact degree-s Gowers norm of a function on Z/m.

    Each recursion level closes after one full period, so this is the
    true multilinear average, not a truncation.
    """
    if s < 1:
        raise ValueError("degree must be at least 1")
    v = f.as_array()
    if len(v) ** max(s - 1, 1) > 10**8:
        raise ValueError(f"degree {s} on modulus {f.m} is out of budget")
    return _cyclic_pow(v, s) ** (1.0 / 2**s)


def _cyclic_pow(v: np.ndarray, s: int) -> float:
    # ||f||_s ^ (2^s), recursively down to ||f||_2 ^ 4 = sum_xi |f-hat(xi)|^4.
    if s == 1:
        return abs(v.mean()) ** 2
    if s == 2:
        return float(np.sum(np.abs(np.fft.fft(v) / len(v)) ** 4))
    m = len(v)
    total = 0.0
    vc = np.conj(v)
    for n in range(m):
        total += _cyclic_pow(vc * np.roll(v, -n), s - 1)
    return total / m


def hk_seminorm_estimate(
    sys: SystemSpec,
    f,
    s: int,
    N_schedule: Optional[Sequence[int]] = None,
) -> SeminormEstimate:
    """Finite-truncation seminorm estimate of degree s on any system.

    ``N_schedule`` gives the truncation length of the n-average at each
    recursion level, outermost first (s-1 entries).  The evaluation is
    depth-first with exact Fourier arithmetic at every node, so a given
    schedule always returns the same number.  A term-budget overflow in
    the products raises; no partial value is reported.
    """
    if not 1 <= s <= 3:
        raise ValueError("estimates are limited to s <= 3 (term growth is squared per level)")
    if N_schedule is None:
        N_schedule = DEFAULT_SCHEDULES[s]
    schedule = tuple(int(n) for n in N_schedule)
    if len(schedule) != s - 1:
        raise ValueError(f"degree {s} needs {s - 1} truncation lengths, got {len(schedule)}")
    if any(n < 1 for n in schedule):
        raise ValueError("truncation lengths must be positive")
    raw = _hk_pow(sys, f, s, schedule)
    value = max(raw, 0.0) ** (1.0 / 2**s)
    return SeminormEstimate(s, value, schedule)


def _hk_pow(sys: SystemSpec, f, s: int, schedule: tuple[int, ...]) -> float:
    if s == 1:
        return abs(integrate(sys, f)) ** 2
    N = schedule[0]
    fbar = f.conjugate()
    total = 0.0
    for n in range(N):
        g = multiply(fbar, apply_power(sys, f, n))
        total += _hk_pow(sys, g, s - 1, schedule[1:])
    return total / N


def fourier_seminorm_rotation(f: FourierPoly, s: int) -> float:
    """Closed form on the rotation: the 2^s-norm of the coefficient
    sequence.  Only valid from degree 2 up (degree 1 is |f-hat(0)|)."""
    if s < 2:
        raise ValueError("the coefficient formula starts at s = 2")
    if f.dim != 1:
        raise ValueError("rotation observables are 1-dimensional")
    p = 2**s
    return float(np.sum(np.abs(f.amps) ** p)) ** (1.0 / p)
