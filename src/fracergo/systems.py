"""Closed-form measure-preserving systems and their observables.

Three system families, each with an exact n-th iterate and exact
integration:

* ``Cyclic(m)``     -- rotation by one on Z/m, observables are value tables;
* ``Skew(alpha)``   -- (x, y) -> (x + alpha, y + x) on the 2-torus, with
  T^n(x, y) = (x + n*alpha, y + n*x + n(n-1)/2 * alpha);
* ``Rotation(alpha)`` -- x -> x + alpha on the circle, the skew product's
  k2 = 0 slice: its frequency (k,) is read as (k, 0).

Torus observables are ``FourierPoly``, a pair of read-only arrays (int64
frequencies, complex128 amplitudes) in one canonical order that every
torus operation keeps; nothing here evaluates one at a point.

Character phases like e(k n alpha) are reduced mod 1 in exact integer
arithmetic on the binary representation of alpha before any float
rounding: n(n-1)/2 reaches 1e18 at desk scale, where a double loses the
fractional part completely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
    "constant",
    "indicator",
    "fejer_arc",
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


class TermBudgetError(ValueError):
    """A Fourier product, or the enumerated term combinations of a torus
    average, past the budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"product needs {needed} terms, budget is {budget}")
        self.needed = needed
        self.budget = budget


def _check_budget(needed: int) -> None:
    """Refuse ``needed`` terms past TERM_BUDGET, read here at call time."""
    if needed > TERM_BUDGET:
        raise TermBudgetError(needed, TERM_BUDGET)


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
        if not param:
            return _TORI[name]()
        alpha = float(param)
        if not math.isfinite(alpha):
            raise ValueError(f"{name} angle must be finite, got {param!r}")
        return _TORI[name](alpha)
    raise ValueError(f"unknown system {text!r}")


def frac_multiples(alpha: float, ns: Iterable[int]) -> np.ndarray:
    """Fractional parts of n*alpha, exact in the double representation.

    alpha as stored is a dyadic rational A / 2^e; n*A mod 2^e is exact
    integer arithmetic per entry, so the only rounding is the division.
    """
    num, den = float(alpha).as_integer_ratio()
    fden = float(den)
    return np.array([(int(n) * num % den) / fden for n in ns])


def e(x: float) -> complex:
    """The character exp(2 pi i x)."""
    return cmath.exp(2j * math.pi * x)


@dataclass(frozen=True, eq=False)
class FourierPoly:
    """Finite trigonometric polynomial on the d-torus, d in {1, 2}: read-only
    ``freqs`` (int64, one row per frequency) and ``amps`` (complex128), exact
    zeros dropped, rows sorted with k_d as the major key.  The skew shear
    (k1, k2) -> (k1 + n k2, k2) and translations keep that order, and
    negating every row reverses it."""

    dim: int
    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        # Rows come sorted and distinct, in arrays nothing else writes to.
        if np.count_nonzero(self.amps) < len(self.amps):
            keep = self.amps != 0
            object.__setattr__(self, "freqs", self.freqs[keep])
            object.__setattr__(self, "amps", self.amps[keep])
        self.freqs.setflags(write=False)
        self.amps.setflags(write=False)

    @staticmethod
    def make(dim: int, entries) -> "FourierPoly":
        """From (freq, amp) pairs or a {freq: amp} mapping; repeated
        frequencies are summed."""
        if dim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional tori are supported")
        entries = list(entries.items() if hasattr(entries, "items") else entries)
        rows = [tuple(map(int, f)) for f, _ in entries]
        for freq in rows:
            if len(freq) != dim:
                raise ValueError(f"frequency {freq} is not {dim}-dimensional")
            _check_reach(max(map(abs, freq)))
        freqs = np.array(rows, dtype=np.int64).reshape(-1, dim)
        return _canonical(dim, freqs, np.array([a for _, a in entries], dtype=complex))

    @staticmethod
    def zero(dim: int) -> "FourierPoly":
        return FourierPoly(dim, np.zeros((0, dim), dtype=np.int64), np.zeros(0, dtype=complex))

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], complex], ...]:
        """A tuple view ((freq, amp), ...), built on each read."""
        return tuple(zip(map(tuple, self.freqs.tolist()), self.amps.tolist()))

    def amplitude(self, freq: tuple[int, ...]) -> complex:
        return complex(self.amps[(self.freqs == freq).all(axis=1)].sum())

    def conjugate(self) -> "FourierPoly":
        return FourierPoly(self.dim, -self.freqs[::-1], self.amps[::-1].conj())

    def scale(self, c: complex) -> "FourierPoly":
        return FourierPoly(self.dim, self.freqs, self.amps * c)

    def __add__(self, other: "FourierPoly") -> "FourierPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _canonical(self.dim, np.vstack([self.freqs, other.freqs]), np.hstack([self.amps, other.amps]))


def _check_reach(reach: int) -> None:
    """Frequencies are int64 with |k| < 2^63, so negating one cannot wrap;
    a shear or a product whose largest |k| could reach 2^63 is refused,
    since int64 arithmetic on arrays wraps without a warning."""
    if reach >= 2**63:
        raise ValueError("frequencies must be int64 with |k| < 2^63")


def _reach(f: FourierPoly) -> int:
    # The largest |k|, in Python: on the one-row polynomials of the
    # seminorm recursion a numpy reduction costs three times as much.
    return max(map(abs, f.freqs.ravel().tolist()), default=0)


def _canonical(dim: int, freqs: np.ndarray, amps: np.ndarray) -> FourierPoly:
    """Rows sorted (stably), each run of equal rows summed, zeros dropped."""
    if len(amps) > 1:
        order = np.lexsort(freqs.T)  # the last key, k_d, is the major one
        freqs = freqs[order]
        starts = np.flatnonzero(np.r_[True, (freqs[1:] != freqs[:-1]).any(axis=1)])
        freqs, amps = freqs[starts], np.add.reduceat(amps[order], starts)
    return FourierPoly(dim, freqs, amps)


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

    def scale(self, c: complex) -> "CyclicFunction":
        return CyclicFunction(self.m, tuple(v * c for v in self.values))


def fourier_e(dim: int, freq: Sequence[int]) -> FourierPoly:
    """The single character with the given frequency."""
    return FourierPoly.make(dim, [(tuple(freq), 1.0 + 0j)])


def fourier_const(dim: int, c: complex) -> FourierPoly:
    return FourierPoly.make(dim, [((0,) * dim, c)])


def constant(sys: SystemSpec, c: complex):
    """The constant observable c on the system."""
    if isinstance(sys, Cyclic):
        return CyclicFunction.make(sys.m, [c] * sys.m)
    return fourier_const(sys.dim, c)


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
    if n_terms < 0:
        raise ValueError(f"arc order must be non-negative, got {n_terms}")
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
    # the k2 = 0 slice (k, 0).  Each phase is reduced mod 1 in Python ints
    # with alpha = num / den, as frac_multiples does.  The shear keeps the
    # k2-major order.
    tri = n * (n - 1) // 2
    num, den = sys.alpha.as_integer_ratio()
    k1s = f.freqs[:, 0].tolist()
    k2s = f.freqs[:, 1].tolist() if f.dim == 2 else [0] * len(k1s)
    amps = [
        a * e(float(k1 * n * num % den) / den + (float(k2 * tri * num % den) / den if k2 else 0.0))
        for k1, k2, a in zip(k1s, k2s, f.amps.tolist())
    ]
    shifted = [k1 + n * k2 for k1, k2 in zip(k1s, k2s)]
    _check_reach(max(map(abs, shifted), default=0))
    freqs = f.freqs.copy()
    freqs[:, 0] = shifted
    return FourierPoly(f.dim, freqs, np.array(amps, dtype=complex))


def integrate(sys: SystemSpec, f) -> complex:
    """Exact mean: character orthogonality leaves the zero-frequency
    amplitude; on Z/m it is the plain average of the values."""
    _check_observable(sys, f)
    if isinstance(sys, Cyclic):
        return complex(np.mean(f.as_array()))
    return f.amplitude((0,) * f.dim)


def multiply(f, g):
    """Pointwise product; on Fourier polynomials this is frequency
    convolution and refuses (loudly) to exceed TERM_BUDGET terms."""
    if isinstance(f, CyclicFunction):
        if not isinstance(g, CyclicFunction) or g.m != f.m:
            raise ValueError("modulus mismatch")
        return CyclicFunction(f.m, tuple(a * b for a, b in zip(f.values, g.values)))
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    needed = len(f.amps) * len(g.amps)
    _check_budget(needed)
    _check_reach(_reach(f) + _reach(g))
    freqs = (f.freqs[:, None, :] + g.freqs[None, :, :]).reshape(needed, f.dim)
    return _canonical(f.dim, freqs, np.multiply.outer(f.amps, g.amps).ravel())


def l2_norm(f) -> float:
    if isinstance(f, CyclicFunction):
        return float(np.sqrt(np.mean(np.abs(f.as_array()) ** 2)))
    return float(np.linalg.norm(f.amps))


def l2_distance(f, g) -> float:
    """Parseval distance; exact on the Fourier side."""
    if isinstance(f, CyclicFunction):
        if not isinstance(g, CyclicFunction) or g.m != f.m:
            raise ValueError("modulus mismatch")
        return float(np.sqrt(np.mean(np.abs(f.as_array() - g.as_array()) ** 2)))
    return l2_norm(f + g.scale(-1))
