"""Closed-form measure-preserving systems and their observables.

* ``Cyclic(m)`` -- rotation by one on Z/m; observables are value tables
  (``CyclicFunction``).
* ``Torus(dim, alpha)`` -- the rotation x -> x + alpha on the circle
  (``Rotation(alpha)``, dim 1), or the skew product (x, y) -> (x + alpha,
  y + x) on the 2-torus (``Skew(alpha)``, dim 2), where T^n(x, y) =
  (x + n*alpha, y + n*x + n(n-1)/2 * alpha).  The rotation is the skew
  product's k2 = 0 slice: its frequency (k,) is read as (k, 0).

Each system carries its operations, so no layer above asks which system
it holds:

* ``str(sys)`` is its ``--system`` text, which ``parse_system`` reads
  back, and ``name`` the part before the colon;
* ``check(f)`` refuses another system's observable;
* ``apply_power(f, n)`` and ``integrate(f)`` are the pullback f o T^n and
  the exact mean (also module functions, by the same names);
* ``constant(c)``, ``default_function()`` and ``observable(kind, desc)``
  build observables, the last from a ``--functions`` JSON descriptor, and
  ``default_set`` is the default ``recurrence --g`` (None: none fits);
* ``average(J, functions, w)`` is (1/N) sum_n w(n) prod_i T^{J[i][n]} f_i;
* ``seminorm(f, s, N_schedule)`` is the degree-s seminorm and
  ``check_degree(s)`` its budget: the exact Gowers norm on Z/m, within
  m^(s-1) <= 10^8, and the truncated recursion on the torus, for s <= 3.

Observables carry ``conjugate``, ``scale``, ``+``, ``multiply``,
``l2_norm`` and ``is_real``.  A ``FourierPoly`` is a pair of read-only
arrays (int64 frequencies, complex128 amplitudes) in one canonical order
that every torus operation keeps; nothing here evaluates one at a point.

Character phases like e(k n alpha) are reduced mod 1 in exact integer
arithmetic on the binary representation of alpha before any float
rounding: n(n-1)/2 reaches 1e18 at desk scale, where a double loses the
fractional part completely.  Torus averages are contracted by GEMM, CHUNK
indices n at a time, not summed per term combination: that moves them by
about N eps sum|amp|.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Iterable, Optional, Sequence, Union

import numpy as np

from .fracpoly import json_field, json_int, json_ints, json_list

# Badly approximable, so finite-orbit equidistribution artifacts stay mild.
ALPHA_DEFAULT = math.sqrt(2.0) - 1.0

TERM_BUDGET = 100_000
# Rows (term combinations with some k2 != 0, times N) a skew average may
# merge.  Each row peaks at 146-176 B by tracemalloc, the merge's sort and
# copies included, so 2^24 rows is about 2.8 GiB: two observables of 4
# terms at N = 10^6 (16 M rows) still run, and of 8 terms (64 M rows),
# which the kernel killed on an 8 GB host, are refused before allocating.
ROW_BUDGET = 1 << 24
# Indices n per block of the torus contraction: one (CHUNK x terms)
# character matrix per iterate is alive at a time.
CHUNK = 1 << 12


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


def _check_gowers_budget(m: int, s: int) -> None:
    """The exact degree-s Gowers norm on Z/m takes m^max(s-1, 1) <= 10^8."""
    if s < 1:
        raise ValueError("degree must be at least 1")
    if m ** max(s - 1, 1) > 10**8:
        raise ValueError(f"degree {s} on modulus {m} is out of budget")


@dataclass(frozen=True)
class Cyclic:
    """Rotation by one on Z/m."""

    m: int
    name: ClassVar[str] = "cyclic"
    default_set: ClassVar[str] = "indicator:0"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("cyclic modulus must be at least 2")

    def __str__(self) -> str:
        return f"cyclic:{self.m}"

    def check(self, f) -> None:
        if not isinstance(f, CyclicFunction) or f.m != self.m:
            raise ValueError("cyclic systems take CyclicFunction observables of matching modulus")

    def apply_power(self, f: CyclicFunction, n: int) -> CyclicFunction:
        self.check(f)
        j = int(n) % self.m
        return CyclicFunction(self.m, f.values[j:] + f.values[:j])

    def integrate(self, f: CyclicFunction) -> complex:
        self.check(f)
        return complex(np.mean(f.as_array()))

    def constant(self, c: complex) -> CyclicFunction:
        return CyclicFunction.make(self.m, [c] * self.m)

    def default_function(self) -> CyclicFunction:
        return indicator(self.m, [0])

    def observable(self, kind: str, desc: dict) -> CyclicFunction:
        if kind == "indicator":
            return indicator(self.m, json_field(desc, "points", json_ints))
        if kind == "cyclic":
            return CyclicFunction.make(self.m, json_field(desc, "values", _complex_pairs))
        raise ValueError(f"function kind {kind!r} does not fit a cyclic system")

    def average(self, J, functions, w) -> CyclicFunction:
        m = self.m
        arrays = [np.asarray(f.as_array()) for f in functions]
        shifts = [np.mod(j, m) for j in J]
        N = len(w)
        out = []
        for x in range(m):
            prod = np.ones(N, dtype=complex)
            for arr, j in zip(arrays, shifts):
                prod *= arr[(x + j) % m]
            out.append(complex(np.sum(w * prod) / N))
        return CyclicFunction.make(m, out)

    def check_degree(self, s: int) -> None:
        _check_gowers_budget(self.m, s)

    def seminorm(self, f: CyclicFunction, s: int, N_schedule=None):
        """The exact Gowers norm: each level averages a whole period, so
        no truncation schedule is read."""
        from . import seminorms  # here, not at the top: seminorms imports this module

        self.check(f)
        return seminorms.SeminormEstimate(s, seminorms.gowers_norm_cyclic(f, s), (self.m,) * (s - 1))


@dataclass(frozen=True)
class Torus:
    """The rotation (dim 1) or the skew product (dim 2) by alpha."""

    dim: int
    alpha: float = ALPHA_DEFAULT
    _ratio: tuple[int, int] = field(init=False, repr=False, compare=False)  # alpha = num / den

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only 1- and 2-dimensional tori are supported")
        object.__setattr__(self, "_ratio", self.alpha.as_integer_ratio())

    def __str__(self) -> str:
        return f"{self.name}:{self.alpha!r}"

    @property
    def name(self) -> str:
        return ("rotation", "skew")[self.dim - 1]

    @property
    def default_set(self) -> Optional[str]:
        return "arc:0.3:40" if self.dim == 1 else None

    def check(self, f) -> None:
        if not isinstance(f, FourierPoly) or f.dim != self.dim:
            raise ValueError(f"{self} takes {self.dim}-dimensional Fourier polynomial observables")

    def apply_power(self, f: FourierPoly, n: int) -> FourierPoly:
        # e(k1 x + k2 y) pulls back to frequency (k1 + n k2, k2) with phase
        # k1 n alpha + k2 n(n-1)/2 alpha; a rotation frequency (k,) is the
        # k2 = 0 slice (k, 0).  Each phase is reduced mod 1 in Python ints
        # with alpha = num / den, as frac_multiples does.  The shear keeps
        # the k2-major order, and on the rotation it is the identity.
        self.check(f)
        n = int(n)
        tri = n * (n - 1) // 2
        num, den = self._ratio
        rows, amps = f.freqs.tolist(), []
        for k, a in zip(rows, f.amps.tolist()):
            k1, k2 = k if self.dim == 2 else (k[0], 0)
            phase = float(k1 * n * num % den) / den + (float(k2 * tri * num % den) / den if k2 else 0.0)
            amps.append(a * e(phase))
            if k2:
                k[0] = k1 + n * k2  # the shear, in tolist's fresh row
                _check_reach(abs(k[0]))
        freqs = np.array(rows, dtype=np.int64) if self.dim == 2 and rows else f.freqs
        return FourierPoly(f.dim, freqs, np.array(amps, dtype=complex))

    def integrate(self, f: FourierPoly) -> complex:
        """Character orthogonality leaves the zero-frequency amplitude."""
        self.check(f)
        return f.amplitude((0,) * f.dim)

    def constant(self, c: complex) -> FourierPoly:
        return fourier_const(self.dim, c)

    def default_function(self) -> FourierPoly:
        return fourier_e(self.dim, (0,) * (self.dim - 1) + (1,))

    def observable(self, kind: str, desc: dict) -> FourierPoly:
        if kind == "fourier":
            terms = json_field(desc, "terms", json_list)
            entries = [(json_field(t, "freq", json_ints), _amplitude(t)) for t in terms]
            return FourierPoly.make(self.dim, entries)
        if kind == "arc":
            if self.dim != 1:
                raise ValueError("arc functions live on the rotation")
            beta = json_field(desc, "beta", _real)
            return fejer_arc(beta, json_field(desc, "n_terms", json_int, 40))
        raise ValueError(f"function kind {kind!r} does not fit this system")

    def average(self, J, functions, w) -> FourierPoly:
        """T^j moves frequency (k1, k2) to (k1 + j k2, k2), so the term
        combinations whose k2 are all 0 land on one frequency for every n
        and are contracted together; any other lands on a frequency per n,
        and its N rows are merged into the sum before the next
        combination."""
        N = len(w)
        rows = [np.pad(f.freqs, ((0, 0), (0, 2 - f.dim))) for f in functions]
        still = [np.flatnonzero(r[:, 1] == 0) for r in rows]
        # Only the combinations with some k2 != 0 are enumerated one by one.
        combos = math.prod(map(len, rows)) - math.prod(map(len, still))
        _check_budget(combos)
        if combos * N > ROW_BUDGET:
            raise ValueError(f"the average merges {combos} term combinations x N = {N}: "
                             f"{combos * N} rows, row budget is {ROW_BUDGET}")
        # |sum_i k1_i + k2_i j_i(n)| is bounded before int64 arithmetic forms it
        reach = 0
        for r, j in zip(rows, J):
            jmax = max(-int(j.min(initial=0)), int(j.max(initial=0)))
            reach += int(np.abs(r[:, 0]).max(initial=0)) + int(np.abs(r[:, 1]).max(initial=0)) * (1 + jmax)
        _check_reach(reach)
        lin = [frac_multiples(self.alpha, j) for j in J]
        # Phases k * frac(j alpha) are off by at most |k| ulps.  Triangular
        # numbers overflow int64 for large iterates, so Python ints feed the
        # exact reduction; only k2 != 0 terms need them.
        tri = [
            frac_multiples(self.alpha, [x * (x - 1) // 2 for x in j.tolist()]) if r[:, 1].any() else None
            for j, r in zip(J, rows)
        ]
        acc = FourierPoly.zero(2)
        if all(map(len, still)):
            ks = [r[t, 0] for r, t in zip(rows, still)]
            amps = [f.amps[t] for f, t in zip(functions, still)]
            k, a = _contract_stationary(ks, amps, lin, w)
            acc = _canonical(2, np.column_stack([k, 0 * k]), a)
        # Every combination with some k2 != 0 once: i is the first iterate with one.
        for combo in itertools.chain.from_iterable(
            itertools.product(*still[:i], np.flatnonzero(r[:, 1]), *map(range, map(len, rows[i + 1 :])))
            for i, r in enumerate(rows)
        ):
            k1, k2, amp, phase = 0, 0, 1 + 0j, np.zeros(N)
            for r, f, t, j, bl, bt in zip(rows, functions, combo, J, lin, tri):
                c1, c2 = r[t].tolist()
                amp *= complex(f.amps[t])
                if c1:
                    phase += (c1 * bl) % 1.0
                if c2:
                    phase += (c2 * bt) % 1.0
                k1 = k1 + c1 + c2 * j
                k2 += c2
            contrib = amp * w * np.exp(2j * np.pi * phase) / N
            freqs = np.vstack([acc.freqs, np.column_stack([k1, np.full(N, k2)])])
            acc = _canonical(2, freqs, np.concatenate([acc.amps, contrib]))
        return FourierPoly(self.dim, acc.freqs[:, : self.dim], acc.amps)

    def check_degree(self, s: int) -> None:
        if not 1 <= s <= 3:
            raise ValueError(f"estimates take degrees s = 1..3, got {s} (term growth is squared per level)")

    def seminorm(self, f: FourierPoly, s: int, N_schedule: Optional[Sequence[int]] = None):
        """The truncated recursion, at DEFAULT_SCHEDULES[s] by default."""
        from . import seminorms  # here, not at the top: seminorms imports this module

        return seminorms.hk_seminorm_estimate(self, f, s, N_schedule)


Rotation = partial(Torus, 1)
Skew = partial(Torus, 2)

SystemSpec = Union[Cyclic, Torus]

_TORI = {"rotation": Rotation, "skew": Skew}


def describe(sys: SystemSpec) -> str:
    """The ``--system`` text of a system; ``parse_system`` reads it back."""
    return str(sys)


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


def frac_multiples(alpha: float, ns: Sequence[int]) -> np.ndarray:
    """Fractional parts of n*alpha, exact in the double representation,
    for an int64 array or a list of ints, CHUNK entries at a time.

    alpha as stored is a dyadic rational A / 2^e; n*A mod 2^e is exact
    integer arithmetic per entry, so the only rounding is the division.
    """
    num, den = float(alpha).as_integer_ratio()
    fden = float(den)
    out = np.empty(len(ns))
    for lo in range(0, len(ns), CHUNK):
        block = ns[lo : lo + CHUNK]
        block = block.tolist() if isinstance(block, np.ndarray) else block  # Python ints, not numpy scalars
        out[lo : lo + CHUNK] = [(int(n) * num % den) / fden for n in block]
    return out


def _contract_stationary(ks, amps, lin, w) -> tuple[np.ndarray, np.ndarray]:
    """(1/N) sum_n w(n) prod_i a_i e(k_i frac(j_i(n) alpha)) over every
    combination of terms (k_i, a_i), one term of each iterate's
    frequencies ks[i] and amplitudes amps[i]; returns sums of k_i and
    their amplitudes, a sum repeated when it arises in several ways.

    Per CHUNK indices n, C_i[n, t] = a_t e(k_t frac(j_i(n) alpha)).  w C_1,
    ..., C_(l-1) fold into P[n, F] over the distinct frequency sums F, and
    one GEMM P^T C_l contracts the last iterate over n.  Each amplitude is
    its N terms summed in another order: about N eps sum|a| off."""
    # The frequency sums after each but the last iterate, and where sum F
    # times term t goes.
    sums, places = np.zeros(1, dtype=np.int64), []
    for k in ks[:-1]:
        sums, inv = np.unique(np.add.outer(sums, k).ravel(), return_inverse=True)
        places.append(inv.reshape(-1, len(k)))
    G = np.zeros((len(sums), len(ks[-1])), dtype=complex)
    for lo in range(0, len(w), CHUNK):
        x = [np.outer(b[lo : lo + CHUNK], k) for k, b in zip(ks, lin)]
        C = [a * np.exp(2j * np.pi * (y - np.floor(y))) for a, y in zip(amps, x)]  # y % 1.0, bit for bit
        P = w[lo : lo + CHUNK, None].astype(complex)
        for Ci, inv in zip(C[:-1], places):
            folded = np.zeros((len(P), inv.max() + 1), dtype=complex)
            for f in range(P.shape[1]):
                folded[:, inv[f]] += P[:, f, None] * Ci
            P = folded
        G += P.T @ C[-1]
    return np.add.outer(sums, ks[-1]).ravel(), (G / len(w)).ravel()


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
        if self.amps[0] == 0 if len(self.amps) == 1 else np.count_nonzero(self.amps) < len(self.amps):
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

    def amplitude(self, freq: Sequence[int]) -> complex:
        """The amplitude at ``freq``, 0 where absent; rows are distinct."""
        freq = list(freq)
        if len(freq) != self.dim:
            raise ValueError(f"frequency {tuple(freq)} has length {len(freq)}, not the dimension {self.dim}")
        rows = self.freqs.tolist()
        return complex(self.amps[rows.index(freq)]) if freq in rows else 0j

    def conjugate(self) -> "FourierPoly":
        return FourierPoly(self.dim, -self.freqs[::-1], self.amps[::-1].conj())

    def scale(self, c: complex) -> "FourierPoly":
        return FourierPoly(self.dim, self.freqs, self.amps * c)

    def __add__(self, other: "FourierPoly") -> "FourierPoly":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _canonical(self.dim, np.vstack([self.freqs, other.freqs]), np.hstack([self.amps, other.amps]))

    def multiply(self, other: "FourierPoly") -> "FourierPoly":
        """Frequency convolution; refuses (loudly) to exceed TERM_BUDGET terms."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        needed = len(self.amps) * len(other.amps)
        _check_budget(needed)
        _check_reach(_reach(self) + _reach(other))
        if needed == 1:
            # One term: one complex product, as the outer product computes
            # it on one row (numpy's vector loop may fuse a multiply-add).
            (a,), (b,) = self.amps.tolist(), other.amps.tolist()
            return FourierPoly(self.dim, self.freqs + other.freqs, np.array([a * b]))
        freqs = (self.freqs[:, None, :] + other.freqs[None, :, :]).reshape(needed, self.dim)
        return _canonical(self.dim, freqs, np.multiply.outer(self.amps, other.amps).ravel())

    def l2_norm(self) -> float:
        """Parseval: exact on the Fourier side."""
        return float(np.linalg.norm(self.amps))

    def is_real(self) -> bool:
        # f - conj(f): conjugate() has conj(f_(-k)) at k
        return not np.any(np.abs((self + self.conjugate().scale(-1)).amps) > 1e-12)


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

    def _pairs(self, other) -> Iterable[tuple[complex, complex]]:
        if not isinstance(other, CyclicFunction) or other.m != self.m:
            raise ValueError("modulus mismatch")
        return zip(self.values, other.values)

    def __add__(self, other: "CyclicFunction") -> "CyclicFunction":
        return CyclicFunction(self.m, tuple(a + b for a, b in self._pairs(other)))

    def multiply(self, other: "CyclicFunction") -> "CyclicFunction":
        return CyclicFunction(self.m, tuple(a * b for a, b in self._pairs(other)))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.as_array()) ** 2)))

    def is_real(self) -> bool:
        return not any(abs(v.imag) > 1e-12 for v in self.values)


def _real(value) -> float:
    """A JSON number; a boolean, which Python counts as one, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _amplitude(desc, default_re: Optional[float] = None) -> complex:
    """A JSON descriptor's ``re`` + i ``im``, ``im`` 0 when absent."""
    return complex(json_field(desc, "re", _real, default_re), json_field(desc, "im", _real, 0.0))


def _complex_pairs(value) -> list[complex]:
    return [complex(_real(re), _real(im)) for re, im in json_list(value)]


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
# module functions that call the methods

def apply_power(sys: SystemSpec, f, n: int):
    """The pullback f compose T^n, in closed form for any integer n."""
    return sys.apply_power(f, n)


def integrate(sys: SystemSpec, f) -> complex:
    """The exact mean."""
    return sys.integrate(f)


def multiply(f, g):
    """The pointwise product; on Fourier polynomials this is frequency
    convolution and refuses (loudly) to exceed TERM_BUDGET terms."""
    return f.multiply(g)


def l2_norm(f) -> float:
    return f.l2_norm()


def l2_distance(f, g) -> float:
    """Parseval distance; exact on the Fourier side."""
    return l2_norm(f + g.scale(-1))
