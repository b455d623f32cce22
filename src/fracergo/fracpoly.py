"""Exact symbolic calculus for polynomials with real (rational) exponents.

The objects here are finite sums

    a(h_1, ..., h_k, t) = sum_j p_j(h_1, ..., h_k) * t^(d_j)

where the exponents d_j are non-negative rationals and the coefficients
p_j are polynomials with rational coefficients in k integer parameters.
A ``RealExpPoly`` stores such a sum as one canonical tuple of monomials
c * h^P * t^(n/q): a nonzero ``Fraction`` c, a power vector P and an int
numerator n over one canonical denominator q.  Everything degree-,
equivalence- and type-related reduces to exact comparisons of these
tuples, and floats only appear in ``eval``.

On top of the arithmetic sits the reduction calculus: parameter-shift
expansion (``taylor_shift``), the difference operation ``vdc_op``, the
complexity measure ``type_vector`` and the induction driver
``pet_reduce`` which repeatedly rewrites a family until every member has
fractional degree below one, recording a step-by-step certificate.
The JSON readers take exact numbers only: a float or a boolean is refused.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

RationalLike = Union[int, str, Fraction]

__all__ = [
    "RealExpPoly",
    "Family",
    "TypeVector",
    "PetStep",
    "PetTrace",
    "PetError",
    "rexp_poly",
    "is_nice",
    "taylor_shift",
    "vdc_op",
    "type_vector",
    "type_lt",
    "choose_a",
    "pet_reduce",
    "family_to_json",
    "family_from_json",
    "json_field",
    "json_int",
    "json_ints",
    "json_list",
    "trace_to_json",
]


class PetError(RuntimeError):
    """The reduction engine reached a state its own invariants forbid."""


def _as_fraction(x: RationalLike) -> Fraction:
    """An int, a Fraction or a rational string; a float is refused, as its
    binary value is rarely the rational that was meant, and so is a bool."""
    if isinstance(x, (int, str, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _join_signed(parts: list[str]) -> str:
    return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


def _monomial_order(term) -> tuple:
    (n, powers), _ = term
    return (-n, powers)


def _coeff_str(monomials) -> str:
    """The text of a coefficient polynomial given by its (power vector, rational) pairs."""
    parts = []
    for powers, c in monomials:
        vars_part = "".join(f"h{i+1}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(powers) if p > 0)
        if not vars_part:
            parts.append(str(c))
        elif c == 1:
            parts.append(vars_part)
        elif c == -1:
            parts.append(f"-{vars_part}")
        else:
            parts.append(f"{c}*{vars_part}")
    return _join_signed(parts)


@dataclass(frozen=True)
class RealExpPoly:
    """sum_j c_j * h^(P_j) * t^(n_j / q) with rational exponents n_j / q >= 0.

    Each monomial is ((n_j, P_j), c_j): the exponent's numerator over q,
    the power vector P_j of the k parameters and a nonzero Fraction c_j.
    q is the lcm of the exponents' reduced denominators.  Monomials are
    stored by decreasing exponent, then increasing power vector, so the
    representation is canonical and equality is structural; the zero
    polynomial has no terms and q = 1.
    """

    k: int
    q: int
    terms: tuple[tuple[tuple[int, tuple[int, ...]], Fraction], ...]

    @staticmethod
    def _canonical(k: int, q: int, pairs) -> "RealExpPoly":
        """Monomials with repeated keys summed and zeros dropped, q put in lowest terms."""
        acc: dict = {}
        for key, c in pairs:
            acc[key] = acc[key] + c if key in acc else c
        terms = tuple(sorted(((key, c) for key, c in acc.items() if c), key=_monomial_order))
        g = math.gcd(q, *(n for (n, _), _ in terms))
        if g > 1:
            q //= g
            terms = tuple(((n // g, p), c) for (n, p), c in terms)
        return RealExpPoly(k, q, terms)

    @staticmethod
    def make(k: int, entries) -> "RealExpPoly":
        """From (exponent, coefficient) pairs or an {exponent: coefficient}
        mapping.  A coefficient is a rational (a constant) or a {power
        vector: rational} mapping; repeated exponents are summed."""
        checked = []
        for exp, coeff in entries.items() if isinstance(entries, Mapping) else entries:
            exp = _as_fraction(exp)
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            for powers, c in coeff.items() if isinstance(coeff, Mapping) else [((0,) * k, coeff)]:
                powers = tuple(int(p) for p in powers)
                if len(powers) != k:
                    raise ValueError(f"power vector {powers} does not have {k} entries")
                if any(p < 0 for p in powers):
                    raise ValueError(f"negative parameter power in {powers}")
                checked.append((exp, powers, _as_fraction(c)))
        q = math.lcm(*(e.denominator for e, _, _ in checked))
        return RealExpPoly._canonical(k, q, [((e.numerator * (q // e.denominator), p), c) for e, p, c in checked])

    @staticmethod
    def zero(k: int) -> "RealExpPoly":
        return RealExpPoly(k, 1, ())

    def exponent_terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(exponent, coefficient) per monomial, the exponent a Fraction.
        Power vectors are left out, so this is all of f only when k = 0."""
        return tuple((Fraction(n, self.q), c) for (n, _), c in self.terms)

    def _groups(self) -> list[tuple[int, list]]:
        """(numerator, [(power vector, coefficient), ...]) per exponent, in term order."""
        return [(n, [(p, c) for (_, p), c in group]) for n, group in groupby(self.terms, key=lambda m: m[0][0])]

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant_in_t(self) -> bool:
        return not self.terms or self.terms[0][0][0] == 0

    def is_fractional(self) -> bool:
        """True iff every term with positive exponent has a non-integer exponent."""
        return all(n % self.q for (n, _), _ in self.terms if n > 0)

    def fractional_degree(self) -> Fraction:
        """Largest exponent carrying a nonzero coefficient; -1 for the zero polynomial."""
        if not self.terms:
            return Fraction(-1)
        return Fraction(self.terms[0][0][0], self.q)

    def degree(self) -> int:
        """Integer part of the fractional degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return self.terms[0][0][0] // self.q

    def __add__(self, other: "RealExpPoly") -> "RealExpPoly":
        if self.k != other.k:
            raise ValueError("parameter-count mismatch")
        q = math.lcm(self.q, other.q)
        pairs = [((n * (q // f.q), p), c) for f in (self, other) for (n, p), c in f.terms]
        return RealExpPoly._canonical(self.k, q, pairs)

    def __neg__(self) -> "RealExpPoly":
        return RealExpPoly(self.k, self.q, tuple((key, -c) for key, c in self.terms))

    def __sub__(self, other: "RealExpPoly") -> "RealExpPoly":
        return self + (-other)

    def widen(self) -> "RealExpPoly":
        """Reinterpret over k+1 parameters (the new last one unused)."""
        return RealExpPoly(self.k + 1, self.q, tuple(((n, p + (0,)), c) for (n, p), c in self.terms))

    def eval(self, h: Sequence[int], t):
        """Numeric value at integer parameters h and real t > 0, or at
        every entry of an array of such t.

        Each exponent's coefficient is summed exactly as a rational at h;
        only the final t-power combination is floating point,
        0.0 + sum c * t**e in term order.
        """
        if len(h) != self.k:
            raise ValueError(f"expected {self.k} parameter values, got {len(h)}")
        t = np.asarray(t, dtype=np.float64) if np.ndim(t) else float(t)
        if np.any(t <= 0):
            raise ValueError(f"t must be positive, got {t}")
        total = 0.0
        for n, monomials in self._groups():
            value = sum(math.prod((Fraction(b) ** p for b, p in zip(h, powers)), start=c) for powers, c in monomials)
            if value != 0:
                # int true division is correctly rounded: n / q == float(Fraction(n, q))
                total += float(value) * t ** (n / self.q)
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for n, monomials in self._groups():
            coeff = _coeff_str(monomials)
            e = _frac_str(n, self.q).removesuffix("/1")
            if n == 0:
                parts.append(f"({coeff})")
            elif coeff == "1":
                parts.append(f"t^({e})")
            elif coeff == "-1":
                parts.append(f"-t^({e})")
            elif len(monomials) == 1:
                parts.append(f"{coeff}*t^({e})")
            else:
                parts.append(f"({coeff})*t^({e})")
        return _join_signed(parts)


@dataclass(frozen=True)
class Family:
    """An ordered, nonempty list of RealExpPoly sharing one parameter count."""

    functions: tuple[RealExpPoly, ...]

    def __post_init__(self):
        if not self.functions:
            raise ValueError("empty family")
        k = self.functions[0].k
        if any(f.k != k for f in self.functions):
            raise ValueError("family members disagree on parameter count")

    @property
    def k(self) -> int:
        return self.functions[0].k

    def __len__(self) -> int:
        return len(self.functions)

    def __getitem__(self, i: int) -> RealExpPoly:
        return self.functions[i]

    def __iter__(self):
        return iter(self.functions)


# {exponent: coefficient} to a RealExpPoly, mainly for tests and the CLI.
rexp_poly = RealExpPoly.make


# ---------------------------------------------------------------------------
# the calculus

def _head(f: RealExpPoly, num: int, den: int = 1) -> tuple:
    """f's monomials of exponent >= num/den, as (denominator, monomials) in
    lowest terms.  Monomials are canonical, so f - g has nothing at that
    exponent or above exactly when these slices agree."""
    terms = tuple(term for term in f.terms if term[0][0] * den >= num * f.q)
    g = math.gcd(f.q, *(n for (n, _), _ in terms))
    return (f.q // g, tuple(((n // g, p), c) for (n, p), c in terms) if g > 1 else terms)


def _leading(polys: Iterable[RealExpPoly], q: int) -> list[int]:
    """The fractional degrees (-1 for zero) as int numerators over q, a multiple of every f.q."""
    return [f.terms[0][0][0] * (q // f.q) if f.terms else -q for f in polys]


def is_nice(fam: Family) -> bool:
    """First member has maximal fractional degree; every member and every
    difference from the first is non-constant in t."""
    q = math.lcm(*(f.q for f in fam))
    lead = _leading(fam, q)
    if max(lead) > lead[0] or any(f.is_constant_in_t() for f in fam):
        return False
    # first - f is constant in t exactly when the two share every term of
    # positive exponent, that is every term at or above the least one.
    low = min(n * (q // f.q) for f in fam for (n, _), _ in f.terms if n > 0)
    head = _head(fam[0], low, q)
    return all(_head(f, low, q) != head for f in fam.functions[1:])


def is_fractional_family(fam: Family) -> bool:
    return all(f.is_fractional() for f in fam)


def taylor_shift(f: RealExpPoly) -> RealExpPoly:
    """Expansion of f(h, t + h_new) through order deg(f) in a new last
    parameter, with the negligible remainder dropped.

    A term c t^e contributes binom(e, j) c h_new^j t^(e-j), so all new
    coefficients stay rational.  Terms whose exponent would go negative
    belong to the remainder and are excluded.
    """
    q = f.q
    pairs = []
    for (n, p), c in f.terms:
        pairs.append(((n, p + (0,)), c))
        binom = Fraction(1)  # binom(n/q, j)
        for j in range(1, n // q + 1):
            binom = binom * Fraction(n - (j - 1) * q, q * j)
            pairs.append(((n - j * q, p + (j,)), binom * c))
    return RealExpPoly._canonical(f.k + 1, q, pairs)


def vdc_op(fam: Family, index: int) -> Family:
    """Difference family for anchor ``fam[index-1]`` (1-based index).

    Lists the shifted differences then the plain differences,

        a~_1 - a, ..., a~_l - a,  a_1 - a, ..., a_l - a,

    removes every function that is constant in t, and keeps a single
    representative of exactly-equal entries (first occurrence wins).
    """
    if not 1 <= index <= len(fam):
        raise ValueError(f"anchor index {index} outside 1..{len(fam)}")
    neg_anchor = -fam[index - 1].widen()
    candidates = [taylor_shift(f) + neg_anchor for f in fam]
    candidates += [f.widen() + neg_anchor for f in fam]
    out: dict[RealExpPoly, None] = {}
    for g in candidates:
        if not g.is_constant_in_t():
            out.setdefault(g, None)
    if not out:
        raise PetError("vdc_op produced an empty family")
    return Family(tuple(out))


@dataclass(frozen=True)
class TypeVector:
    """(d, counts) where counts[i] is the number of equivalence classes
    of degree d - i; lexicographically ordered, d first."""

    d: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.d + 1:
            raise ValueError("counts must have d+1 entries")
        if self.counts[0] < 1:
            raise ValueError("no class at the maximal degree")

    def as_tuple(self) -> tuple[int, ...]:
        return (self.d,) + self.counts

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.as_tuple()) + ")"


def type_vector(fam: Family) -> TypeVector:
    """Count equivalence classes per degree, ignoring identically-zero members.

    Two members of common degree d are equivalent exactly when their
    terms of exponent >= d coincide (the difference then has nothing
    left at degree d or above), so each stratum is counted by grouping
    on that leading slice rather than by pairwise comparison.
    """
    members = [f for f in fam if not f.is_zero()]
    if not members:
        raise ValueError("type vector of an all-zero family is undefined")
    d = max(f.degree() for f in members)
    counts = [0] * (d + 1)
    seen: set[tuple] = set()
    for f in members:
        deg = f.degree()
        key = (deg, _head(f, deg))
        if key not in seen:
            seen.add(key)
            counts[d - deg] += 1
    return TypeVector(d, tuple(counts))


def type_lt(t1: TypeVector, t2: TypeVector) -> bool:
    return t1.as_tuple() < t2.as_tuple()


def choose_a(fam: Family) -> int:
    """Anchor choice (1-based) for the next reduction step.

    If the members do not all share one fractional degree, pick the
    lowest index in 2..l of minimal fractional degree.  Otherwise pick
    the lowest index maximizing the fractional degree of a~_1 - a_i
    (the descent argument leans on f-deg maximality here, and the
    worked three-member example pins the same reading).  Ties always go
    to the lowest index, so traces are reproducible.
    """
    if not is_nice(fam):
        raise ValueError("anchor choice requires a nice family")
    if not is_fractional_family(fam):
        raise ValueError("anchor choice requires a fractional family")
    if fam[0].fractional_degree() <= 1:
        raise ValueError("family already has fractional degree <= 1")
    q = math.lcm(*(f.q for f in fam))
    degrees = _leading(fam, q)
    if len(set(degrees)) > 1:
        tail = degrees[1:]
        return 2 + tail.index(min(tail))
    # a~_1 - a_i is (a~_1 - a_1) + (a_1 - a_i) widened.  Every monomial of the
    # first part has h_new^j with j >= 1 and it leads at e - 1 (binom(e, 1) = e
    # for the common degree e), the second has none, so nothing cancels.
    diffs = [max(degrees[0] - q, x) for x in _leading([fam[0] - f for f in fam], q)]
    return 1 + diffs.index(max(diffs))


@dataclass(frozen=True)
class PetStep:
    anchor_index: int
    family_after: Family
    type_before: TypeVector
    type_after: TypeVector


@dataclass(frozen=True)
class PetTrace:
    initial: Family
    steps: tuple[PetStep, ...]
    final: Family

    def __len__(self) -> int:
        return len(self.steps)


def pet_reduce(fam: Family, max_steps: int = 64) -> PetTrace:
    """Drive the type-descent until the maximal fractional degree drops
    below one, recording each step.

    Exhausting ``max_steps``, losing niceness, or failing to strictly
    decrease the type all raise PetError: termination and descent are
    guaranteed for correct anchor choices, so any violation is a bug in
    the engine, not in the input.
    """
    if not is_nice(fam):
        raise ValueError("pet_reduce requires a nice family")
    if not is_fractional_family(fam):
        raise ValueError("pet_reduce requires a fractional family")
    steps: list[PetStep] = []
    current = fam
    t_pre = type_vector(fam)
    while any(f.degree() >= 1 for f in current):
        if len(steps) >= max_steps:
            raise PetError(f"no termination within {max_steps} steps")
        try:
            idx = choose_a(current)  # checks that the family is nice and fractional
        except ValueError as err:
            raise PetError(f"intermediate family: {err}") from err
        after = vdc_op(current, idx)
        t_post = type_vector(after)
        if not type_lt(t_post, t_pre):
            raise PetError(f"type did not decrease: {t_pre} -> {t_post}")
        steps.append(PetStep(idx, after, t_pre, t_post))
        current = after
        t_pre = t_post
    return PetTrace(fam, tuple(steps), current)


# ---------------------------------------------------------------------------
# serialization

def _frac_str(num: int, den: int) -> str:
    """num/den in lowest terms."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def _poly_to_json(f: RealExpPoly) -> dict:
    return {
        "terms": [
            {
                "exponent": _frac_str(n, f.q),
                "coeff": [{"c": _frac_str(*c.as_integer_ratio()), "powers": list(p)} for p, c in monomials],
            }
            for n, monomials in f._groups()
        ]
    }


def family_to_json(fam: Family) -> dict:
    return {"k": fam.k, "functions": [_poly_to_json(f) for f in fam]}


def json_field(obj, key: str, convert, default=None):
    """``convert(obj[key])``, or ``default`` when the key is absent (no
    default: the field is required).  A missing required field, or a
    value ``convert`` rejects, is a ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {obj!r}")
    if key not in obj:
        if default is None:
            raise ValueError(f"missing field {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def json_int(value) -> int:
    """An integer; a JSON boolean, which Python counts as one, is refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def json_ints(value) -> tuple[int, ...]:
    return tuple(map(json_int, json_list(value)))


def family_from_json(data: dict) -> Family:
    k = json_field(data, "k", json_int)
    functions = []
    for fn in json_field(data, "functions", json_list):
        entries = []
        for term in json_field(fn, "terms", json_list):
            exp = json_field(term, "exponent", _as_fraction)
            coeff: dict = {}
            for m in json_field(term, "coeff", json_list):
                powers = json_field(m, "powers", json_ints)
                coeff[powers] = coeff.get(powers, 0) + json_field(m, "c", _as_fraction)
            entries.append((exp, coeff))
        functions.append(RealExpPoly.make(k, entries))
    return Family(tuple(functions))


def trace_to_json(trace: PetTrace) -> dict:
    """Each family once: the input, then the family after each step (the
    last one is the final family)."""
    return {
        "initial": family_to_json(trace.initial),
        "steps": [
            {
                "anchor_index": s.anchor_index,
                "family_after": family_to_json(s.family_after),
                "type_before": list(s.type_before.as_tuple()),
                "type_after": list(s.type_after.as_tuple()),
            }
            for s in trace.steps
        ],
    }


def load_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_json(json.load(fh))
