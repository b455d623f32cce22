"""Closed-form measure-preserving systems and their observables.

Three system families, each with an exact n-th iterate and exact
integration:

* ``Cyclic(m)``     -- rotation by one on Z/m, observables are value tables;
* ``Skew(alpha)``   -- (x, y) -> (x + alpha, y + x) on the 2-torus, with
  T^n(x, y) = (x + n*alpha, y + n*x + n(n-1)/2 * alpha);
* ``Rotation(alpha)`` -- x -> x + alpha on the circle, the skew product's
  k2 = 0 slice: its frequency (k,) is read as (k, 0).

Character phases like e(k n alpha) are reduced mod 1 in exact integer
arithmetic on the binary representation of alpha before any float
rounding: n(n-1)/2 reaches 1e18 at desk scale, where a double loses the
fractional part completely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "ALPHA_DEFAULT",
    "TERM_BUDGET",
    "TermBudgetError",
    "Cyclic",
    "Rotation",
    "Skew",
    "SystemSpec",
    "describe",
    "parse_system",
    "FourierPoly",
    "CyclicFunction",
    "fourier_e",
    "fourier_const",
    "indicator",
    "fejer_arc",
    "frac_mult",
    "frac_multiples",
    "apply_power",
    "integrate",
    "multiply",
    "l2_distance",
    "l2_norm",
]

# Badly approximable, so finite-orbit equidistribution artifacts stay mild.
ALPHA_DEFAULT = math.sqrt(2.0) - 1.0

TERM_BUDGET = 100_000


class TermBudgetError(RuntimeError):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"product needs {needed} terms, budget is {budget}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class Cyclic:
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("cyclic modulus must be at least 2")


@dataclass(frozen=True)
class Rotation:
    alpha: float = ALPHA_DEFAULT
    dim: ClassVar[int] = 1


@dataclass(frozen=True)
class Skew:
    alpha: float = ALPHA_DEFAULT
    dim: ClassVar[int] = 2


SystemSpec = Union[Cyclic, Rotation, Skew]

_TORI = {"rotation": Rotation, "skew": Skew}


def describe(sys: SystemSpec) -> str:
    """The ``--system`` text of a system; ``parse_system`` reads it back."""
    if isinstance(sys, Cyclic):
        return f"cyclic:{sys.m}"
    return f"{type(sys).__name__.lower()}:{sys.alpha!r}"


def parse_system(text: str) -> SystemSpec:
    """``cyclic:m``, ``rotation[:alpha]`` or ``skew[:alpha]``."""
    name, _, param = text.partition(":")
    if name == "cyclic":
        if not param:
            raise ValueError("cyclic needs a modulus, e.g. cyclic:5")
        return Cyclic(int(param))
    if name in _TORI:
        return _TORI[name](float(param)) if param else _TORI[name]()
    raise ValueError(f"unknown system {text!r}")


def frac_mult(alpha: float, n: int) -> float:
    """Fractional part of n*alpha, exact in the double representation.

    alpha as stored is a dyadic rational A / 2^e; n*A mod 2^e is exact
    integer arithmetic, so the only rounding is the final division.
    """
    fr = Fraction(alpha)
    return float(int(n) * fr.numerator % fr.denominator) / fr.denominator


def frac_multiples(alpha: float, ns: Iterable[int]) -> np.ndarray:
    """Vector form of ``frac_mult`` (Python-int exact path per entry)."""
    fr = Fraction(alpha)
    num, den = fr.numerator, fr.denominator
    fden = float(den)
    return np.array([(int(n) * num % den) / fden for n in ns])


def e(x: float) -> complex:
    """The character exp(2 pi i x)."""
    return cmath.exp(2j * math.pi * x)


@dataclass(frozen=True)
class FourierPoly:
    """Finite trigonometric polynomial on the d-torus, d in {1, 2}.

    One term per frequency, exactly-zero amplitudes dropped.
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def make(dim: int, entries) -> "FourierPoly":
        if dim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional tori are supported")
        canon: dict[tuple[int, ...], complex] = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for freq, amp in items:
            freq = tuple(int(f) for f in freq)
            if len(freq) != dim:
                raise ValueError(f"frequency {freq} is not {dim}-dimensional")
            canon[freq] = canon.get(freq, 0j) + complex(amp)
        return FourierPoly(
            dim, tuple(sorted((f, a) for f, a in canon.items() if a != 0))
        )

    @staticmethod
    def zero(dim: int) -> "FourierPoly":
        return FourierPoly(dim, ())

    def amplitude(self, freq: tuple[int, ...]) -> complex:
        for f, a in self.terms:
            if f == freq:
                return a
        return 0j

    def conjugate(self) -> "FourierPoly":
        return FourierPoly.make(
            self.dim,
            [(tuple(-x for x in f), a.conjugate()) for f, a in self.terms],
        )

    def scale(self, c: complex) -> "FourierPoly":
        return FourierPoly.make(self.dim, [(f, c * a) for f, a in self.terms])

    def __add__(self, other: "FourierPoly") -> "FourierPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return FourierPoly.make(self.dim, list(self.terms) + list(other.terms))

    def sup_bound(self) -> float:
        return float(sum(abs(a) for _, a in self.terms))

    def value_at(self, x: Sequence[float]) -> complex:
        return sum(a * e(sum(k * xi for k, xi in zip(f, x))) for f, a in self.terms)


@dataclass(frozen=True)
class CyclicFunction:
    """A function on Z/m given by its value table."""

    m: int
    values: tuple[complex, ...]

    @staticmethod
    def make(m: int, values: Sequence[complex]) -> "CyclicFunction":
        if len(values) != m:
            raise ValueError(f"need {m} values, got {len(values)}")
        return CyclicFunction(m, tuple(complex(v) for v in values))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)

    def conjugate(self) -> "CyclicFunction":
        return CyclicFunction(self.m, tuple(v.conjugate() for v in self.values))


def fourier_e(dim: int, freq: Sequence[int]) -> FourierPoly:
    """The single character with the given frequency."""
    return FourierPoly.make(dim, [(tuple(freq), 1.0 + 0j)])


def fourier_const(dim: int, c: complex) -> FourierPoly:
    return FourierPoly.make(dim, [((0,) * dim, c)])


def indicator(m: int, points: Iterable[int]) -> CyclicFunction:
    vals = [0j] * m
    for p in points:
        vals[p % m] = 1.0 + 0j
    return CyclicFunction.make(m, vals)


def fejer_arc(beta: float, n_terms: int) -> FourierPoly:
    """Fejer-smoothed arc indicator on the circle: the order-``n_terms``
    Fejer mean of the indicator of [0, beta).

    Convolving with a non-negative unit-mass kernel keeps the values in
    [0, 1], and the zero coefficient (the integral) stays exactly beta.
    """
    if not 0 < beta < 1:
        raise ValueError("arc length must lie in (0, 1)")
    entries: list[tuple[tuple[int, ...], complex]] = [((0,), complex(beta))]
    for k in range(1, n_terms + 1):
        hat = (1 - e(-k * beta)) / (2j * math.pi * k)
        w = 1 - k / (n_terms + 1)
        entries.append(((k,), w * hat))
        entries.append(((-k,), w * hat.conjugate()))
    return FourierPoly.make(1, entries)


# ---------------------------------------------------------------------------
# dynamics

def _check_observable(sys: SystemSpec, f) -> None:
    if isinstance(sys, Cyclic):
        if not isinstance(f, CyclicFunction) or f.m != sys.m:
            raise ValueError("cyclic systems take CyclicFunction observables of matching modulus")
    elif isinstance(sys, (Rotation, Skew)):
        if not isinstance(f, FourierPoly) or f.dim != sys.dim:
            raise ValueError(f"{describe(sys)} takes {sys.dim}-dimensional Fourier polynomial observables")
    else:
        raise TypeError(f"unknown system {sys!r}")


def apply_power(sys: SystemSpec, f, n: int):
    """The pullback f compose T^n, in closed form for any integer n."""
    _check_observable(sys, f)
    n = int(n)
    if isinstance(sys, Cyclic):
        j = n % sys.m
        vals = f.values[j:] + f.values[:j]
        return CyclicFunction(sys.m, vals)
    # Torus: e(k1 x + k2 y) pulls back to frequency (k1 + n k2, k2) with
    # phase k1 n alpha + k2 n(n-1)/2 alpha; a rotation frequency (k,) is
    # the k2 = 0 slice (k, 0).
    # frac_mult per term, with alpha reduced to num / den once per call.
    tri = n * (n - 1) // 2
    num, den = Fraction(sys.alpha).as_integer_ratio()
    out = []
    for fq, a in f.terms:
        k1, k2 = (*fq, 0)[:2]
        phase = float(k1 * n * num % den) / den + (float(k2 * tri * num % den) / den if k2 else 0.0)
        out.append(((k1 + n * k2, k2)[: sys.dim], a * e(phase)))
    return FourierPoly.make(sys.dim, out)


def integrate(sys: SystemSpec, f) -> complex:
    """Exact mean: character orthogonality leaves the zero-frequency
    amplitude; on Z/m it is the plain average of the values."""
    _check_observable(sys, f)
    if isinstance(sys, Cyclic):
        return complex(np.mean(f.as_array()))
    return f.amplitude((0,) * f.dim)


def multiply(f, g, budget: int = TERM_BUDGET):
    """Pointwise product; on Fourier polynomials this is frequency
    convolution and refuses (loudly) to exceed the term budget."""
    if isinstance(f, CyclicFunction):
        if not isinstance(g, CyclicFunction) or g.m != f.m:
            raise ValueError("modulus mismatch")
        return CyclicFunction(f.m, tuple(a * b for a, b in zip(f.values, g.values)))
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    needed = len(f.terms) * len(g.terms)
    if needed > budget:
        raise TermBudgetError(needed, budget)
    out: dict[tuple[int, ...], complex] = {}
    for fq1, a1 in f.terms:
        for fq2, a2 in g.terms:
            key = tuple(x + y for x, y in zip(fq1, fq2))
            out[key] = out.get(key, 0j) + a1 * a2
    return FourierPoly.make(f.dim, out)


def l2_norm(f) -> float:
    if isinstance(f, CyclicFunction):
        return float(np.sqrt(np.mean(np.abs(f.as_array()) ** 2)))
    return math.sqrt(sum(abs(a) ** 2 for _, a in f.terms))


def l2_distance(f, g) -> float:
    """Parseval distance; exact on the Fourier side."""
    if isinstance(f, CyclicFunction):
        if not isinstance(g, CyclicFunction) or g.m != f.m:
            raise ValueError("modulus mismatch")
        return float(np.sqrt(np.mean(np.abs(f.as_array() - g.as_array()) ** 2)))
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    amps: dict[tuple[int, ...], complex] = dict(f.terms)
    for fq, a in g.terms:
        amps[fq] = amps.get(fq, 0j) - a
    return math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
