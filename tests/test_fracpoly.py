import hashlib
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracergo.fracpoly import (
    Family,
    PetError,
    RealExpPoly,
    TypeVector,
    choose_a,
    family_from_json,
    family_to_json,
    is_fractional_family,
    is_nice,
    load_family,
    pet_reduce,
    rexp_poly,
    taylor_shift,
    trace_to_json,
    type_lt,
    type_vector,
    vdc_op,
)
from paper_checks import equivalent


def test_param_polynomial_arithmetic():
    p = rexp_poly(2, {0: {(1, 0): F(3), (0, 2): F(-1, 2)}})
    q = rexp_poly(2, {0: {(1, 0): F(-3)}})
    s = p + q
    assert s.eval((4, 2), 1.0) == F(-2)
    assert (p + (-p)).is_zero()
    assert p.eval((2, 3), 1.0) == 6 - F(9, 2)


def test_param_polynomial_rejects_mismatched_powers():
    with pytest.raises(ValueError):
        rexp_poly(2, {F(1, 2): {(1,): F(1)}})


def test_rexp_poly_normalizes():
    f = rexp_poly(0, {F(1, 2): 1, F(3, 2): 2, 2: 0})
    assert [e for e, _ in f.exponent_terms()] == [F(3, 2), F(1, 2)]
    assert f.fractional_degree() == F(3, 2)
    assert f.degree() == 1


def test_rexp_poly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        rexp_poly(0, {F(-1, 2): 1})


def test_degree_of_zero():
    z = RealExpPoly.make(1, {})
    assert z.degree() == -1
    assert z.fractional_degree() == -1
    assert z.is_zero()


def test_is_fractional():
    assert rexp_poly(0, {F(3, 2): 1, F(1, 10): 2}).is_fractional()
    assert not rexp_poly(0, {F(3, 2): 1, 1: 1}).is_fractional()
    # a constant term does not spoil fractionality
    assert rexp_poly(0, {F(3, 2): 1, 0: 7}).is_fractional()


def test_eval_matches_fraction_arithmetic():
    f = rexp_poly(1, {2: {(1,): F(1, 3)}, 0: 5})
    # at h=(3,), t=2.0: (1/3)*3*4 + 5 = 9
    assert f.eval((3,), 2.0) == pytest.approx(9.0, abs=1e-12)


def test_equivalence_pinned_pairs():
    a = rexp_poly(0, {F(5, 2): 1})
    b = rexp_poly(0, {F(5, 2): 1, F(21, 10): 1})
    c = rexp_poly(0, {F(5, 2): 1, F(11, 10): 1})
    assert not equivalent(a, b)
    assert equivalent(a, c)


def test_equivalence_is_symmetric_and_reflexive():
    a = rexp_poly(0, {F(5, 2): 1, F(1, 2): 3})
    b = rexp_poly(0, {F(5, 2): 1})
    assert equivalent(a, a)
    assert equivalent(a, b) == equivalent(b, a)


def test_type_vector_pinned_four_member():
    a1 = rexp_poly(1, {F(5, 2): {(1,): 1}, F(21, 10): {(2,): 1}})
    a2 = rexp_poly(1, {F(5, 2): {(1,): 1}})
    a3 = rexp_poly(1, {F(5, 2): {(1,): 1}, F(21, 10): {(2,): 1}, F(3, 2): {(1,): 1}})
    a4 = rexp_poly(1, {F(1, 2): 1})
    assert type_vector(Family((a1, a2, a3, a4))).as_tuple() == (2, 2, 0, 1)


def test_type_vector_ignores_zero_members():
    fam = Family((rexp_poly(0, {F(3, 2): 1}), RealExpPoly.make(0, {})))
    assert type_vector(fam).as_tuple() == (1, 1, 0)
    with pytest.raises(ValueError):
        type_vector(Family((RealExpPoly.make(0, {}),)))


def test_type_vector_requires_top_class():
    with pytest.raises(ValueError):
        TypeVector(1, (0, 3))


def test_type_order_is_lexicographic():
    assert type_lt(TypeVector(1, (2, 5)), TypeVector(1, (3, 0)))
    assert type_lt(TypeVector(1, (3, 0)), TypeVector(2, (1, 0, 0)))
    assert not type_lt(TypeVector(1, (3, 0)), TypeVector(1, (3, 0)))


def test_taylor_shift_pinned_example():
    # h t^(5/2) picks up the two derivative terms in the new parameter
    f = rexp_poly(1, {F(5, 2): {(1,): 1}})
    shifted = taylor_shift(f)
    assert shifted.k == 2
    expected = rexp_poly(
        2,
        {
            F(5, 2): {(1, 0): 1},
            F(3, 2): {(1, 1): F(5, 2)},
            F(1, 2): {(1, 2): F(15, 8)},
        },
    )
    assert shifted == expected


def test_taylor_shift_drops_negative_exponents():
    f = rexp_poly(0, {F(1, 2): 1})
    shifted = taylor_shift(f)
    # degree 0, so only the j = 0 term survives
    assert shifted == rexp_poly(1, {F(1, 2): 1})


def test_vdc_pinned_three_member_family():
    a1 = rexp_poly(0, {F(3, 2): 1})
    a2 = rexp_poly(0, {F(3, 2): 1, F(11, 10): 1})
    a3 = rexp_poly(0, {F(3, 2): 1, F(6, 5): 1})
    fam = Family((a1, a2, a3))
    assert type_vector(fam).as_tuple() == (1, 3, 0)
    out = vdc_op(fam, 3)
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
    assert tuple(out.functions) == expected
    assert type_vector(out).as_tuple() == (1, 2, 1)
    assert is_nice(out)
    assert is_fractional_family(out)


def test_vdc_orders_shifted_members_first():
    a1 = rexp_poly(0, {F(3, 2): 1})
    a2 = rexp_poly(0, {F(3, 2): 1, F(11, 10): 1})
    out = vdc_op(Family((a1, a2)), 1)
    # first member is always the shifted first minus the anchor
    assert out[0] == taylor_shift(a1) - a1.widen()


def test_vdc_drops_constants_and_duplicates():
    a1 = rexp_poly(0, {F(3, 2): 1})
    fam = Family((a1,))
    out = vdc_op(fam, 1)
    # a_1 - a_1 is constant and is removed; only the shifted difference stays
    assert len(out) == 1
    assert out[0] == taylor_shift(a1) - a1.widen()


def test_choose_a_mixed_degrees_takes_minimal_tail():
    fam = Family(
        (
            rexp_poly(0, {F(5, 2): 1}),
            rexp_poly(0, {F(3, 2): 1}),
            rexp_poly(0, {F(11, 10): 1}),
        )
    )
    assert choose_a(fam) == 3


def test_choose_a_equal_degrees_maximizes_difference_degree():
    fam = Family(
        (
            rexp_poly(0, {F(3, 2): 1}),
            rexp_poly(0, {F(3, 2): 1, F(11, 10): 1}),
            rexp_poly(0, {F(3, 2): 1, F(6, 5): 1}),
        )
    )
    assert choose_a(fam) == 3


def test_choose_a_rejects_low_degree():
    with pytest.raises(ValueError):
        choose_a(Family((rexp_poly(0, {F(1, 2): 1}),)))


def test_pet_reduce_single_member():
    trace = pet_reduce(Family((rexp_poly(0, {F(3, 2): 1}),)))
    assert len(trace.steps) == 1
    assert max(f.fractional_degree() for f in trace.final) < 1
    step = trace.steps[0]
    assert type_lt(step.type_after, step.type_before)


def test_pet_reduce_pair_terminates():
    fam = Family(
        (
            rexp_poly(0, {F(3, 2): 1}),
            rexp_poly(0, {F(3, 2): 1, F(11, 10): 1}),
        )
    )
    trace = pet_reduce(fam)
    types = [s.type_before.as_tuple() for s in trace.steps] + [
        trace.steps[-1].type_after.as_tuple()
    ]
    assert all(b < a for a, b in zip(types, types[1:]))
    assert max(f.fractional_degree() for f in trace.final) < 1
    assert all(is_nice(s.family_after) for s in trace.steps)


def test_pet_reduce_below_one_is_empty():
    fam = Family(
        (
            rexp_poly(0, {F(1, 2): 1}),
            rexp_poly(0, {F(1, 10): 1}),
        )
    )
    trace = pet_reduce(fam)
    assert len(trace) == 0
    assert trace.final is fam


def test_pet_reduce_degree_two_first_step():
    trace = pet_reduce(Family((rexp_poly(0, {F(5, 2): 1}),)))
    first = trace.steps[0]
    assert first.type_before.as_tuple() == (2, 1, 0, 0)
    assert first.type_after.d <= 2
    assert first.type_after.as_tuple() < first.type_before.as_tuple()
    assert max(f.fractional_degree() for f in trace.final) < 1


def test_pet_trace_of_three_members_is_pinned():
    # t^(3/2), t^(3/2) + t^(11/10), t^(3/2) + t^(6/5) + t^(11/10): 11 steps,
    # up to 2047 members.  The digest is of the trace before exponents
    # were stored as int numerators.
    fam = Family(tuple(rexp_poly(0, m) for m in (
        {F(3, 2): 1},
        {F(3, 2): 1, F(11, 10): 1},
        {F(3, 2): 1, F(6, 5): 1, F(11, 10): 1},
    )))
    trace = pet_reduce(fam)
    assert len(trace) == 11
    assert max(len(s.family_after) for s in trace.steps) == 2047
    dump = json.dumps(trace_to_json(trace), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == "f39e2e67be17c6c5c4c402ec9ab5207c04081cc2e211324b60db26be73a03ba7"


def test_pet_text_and_values_of_three_members_are_pinned():
    # str and eval of all 4128 members after each step of the trace above;
    # most have coefficients of several monomials in up to 11 parameters.
    fam = Family(tuple(rexp_poly(0, m) for m in (
        {F(3, 2): 1},
        {F(3, 2): 1, F(11, 10): 1},
        {F(3, 2): 1, F(6, 5): 1, F(11, 10): 1},
    )))
    digest = hashlib.sha256()
    for step in pet_reduce(fam).steps:
        for f in step.family_after:
            digest.update(f"{f}\t{f.eval(tuple(range(2, 2 + f.k)), 3.7)!r}\n".encode())
    assert digest.hexdigest() == "c2d161c9da233a59d09c740a2dd9887c6e7bc96780fa48dc2a095e1f2509de7c"


def test_pet_reduce_rejects_non_fractional():
    with pytest.raises(ValueError):
        pet_reduce(Family((rexp_poly(0, {2: 1}),)))


def test_pet_reduce_step_budget():
    fam = Family((rexp_poly(0, {F(5, 2): 1}), rexp_poly(0, {F(3, 2): 1})))
    with pytest.raises(PetError):
        pet_reduce(fam, max_steps=1)


def test_descent_property_sample(nice_family_gen):
    rng = np.random.default_rng(42)
    for _ in range(50):
        fam = nice_family_gen(rng)
        out = vdc_op(fam, choose_a(fam))
        assert is_nice(out)
        assert is_fractional_family(out)
        assert type_lt(type_vector(out), type_vector(fam))


def test_family_json_roundtrip():
    fam = Family(
        (
            rexp_poly(1, {F(5, 2): {(1,): 1}, F(21, 10): {(2,): F(-1, 3)}}),
            rexp_poly(1, {F(1, 2): 7}),
        )
    )
    data = family_to_json(fam)
    back = family_from_json(json.loads(json.dumps(data)))
    assert back == fam


def test_family_from_json_sums_repeated_entries():
    # Two entries for the power vector () and a second t^(3/2) term.
    data = {
        "k": 0,
        "functions": [
            {
                "terms": [
                    {"exponent": "3/2", "coeff": [{"c": "1", "powers": []}, {"c": "2", "powers": []}]},
                    {"exponent": "3/2", "coeff": [{"c": "5", "powers": []}]},
                ]
            }
        ],
    }
    assert family_from_json(data)[0] == rexp_poly(0, {F(3, 2): 8})


def test_load_family(tmp_path):
    fam = Family((rexp_poly(0, {F(3, 2): 1}),))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_to_json(fam)))
    assert load_family(path) == fam


def test_trace_json_shape():
    trace = pet_reduce(Family((rexp_poly(0, {F(3, 2): 1}),)))
    data = trace_to_json(trace)
    assert len(data["steps"]) == 1
    step = data["steps"][0]
    assert step["type_before"] == [1, 1, 0]
    assert family_from_json(step["family_after"]) == trace.steps[0].family_after


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=3, max_denominator=8),
            st.integers(min_value=-4, max_value=4),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_add_neg_roundtrip(entries):
    terms = {}
    for exp, c in entries:
        terms[exp] = terms.get(exp, 0) + c
    f = rexp_poly(0, terms)
    assert (f - f).is_zero()
    assert f + RealExpPoly.make(0, {}) == f
    assert -(-f) == f


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2), st.data())
def test_widen_preserves_evaluation(k, data):
    entries = data.draw(
        st.dictionaries(
            st.fractions(min_value=0, max_value=3, max_denominator=6),
            st.integers(min_value=-3, max_value=3),
            min_size=1,
            max_size=3,
        )
    )
    f = rexp_poly(k, entries)
    h = tuple(data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(k))
    t = data.draw(st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    wide = f.widen()
    assert wide.k == k + 1
    assert wide.eval(h + (9,), t) == pytest.approx(f.eval(h, t), rel=1e-12, abs=1e-12)


_POLY_TERMS = st.dictionaries(
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
)


@settings(max_examples=300)
@given(_POLY_TERMS, _POLY_TERMS, _POLY_TERMS)
def test_leading_slices_agree_with_differences(shared, tail_a, tail_b):
    # Members share a random leading part, so equivalent pairs and
    # constant differences come up often.
    a = rexp_poly(0, {**tail_a, **shared})
    b = rexp_poly(0, {**tail_b, **shared})
    d = a.degree()
    assert equivalent(a, b) == (d == b.degree() and (a - b).degree() < d)
    fam = Family((a, b))
    nice = (
        a.fractional_degree() >= b.fractional_degree()
        and not a.is_constant_in_t()
        and not b.is_constant_in_t()
        and not (a - b).is_constant_in_t()
    )
    assert is_nice(fam) == nice


@settings(max_examples=50)
@given(_POLY_TERMS, st.lists(st.floats(min_value=0.5, max_value=1e7), min_size=1, max_size=5))
def test_eval_on_an_array_is_the_scalar_eval_per_entry(terms, ts):
    # numpy's power and Python's ** may differ in the last bit, so the
    # two agree to a few ulps of the term sizes, not bit for bit.
    f = rexp_poly(0, terms)
    got = f.eval((), np.array(ts)) + np.zeros(len(ts))
    for v, t in zip(got.tolist(), ts):
        size = sum(abs(float(c)) * t ** float(e) for e, c in terms.items())
        assert v == pytest.approx(f.eval((), t), rel=0, abs=4 * np.finfo(float).eps * size)



def _param_polys(k: int):
    # Few power vectors and small coefficients, so repeats and cancellations are common.
    powers = st.tuples(*[st.integers(min_value=0, max_value=2)] * k)
    return st.dictionaries(powers, st.fractions(min_value=-2, max_value=2, max_denominator=2), max_size=4)


def _rexp_polys(k: int, exps=st.fractions(min_value=0, max_value=3, max_denominator=3)):
    return st.lists(st.tuples(exps, _param_polys(k)), max_size=4).map(lambda pairs: RealExpPoly.make(k, pairs))


def _monomial_pairs(f: RealExpPoly) -> list:
    return [(F(n, f.q), {p: c}) for (n, p), c in f.terms]


def _assert_canonical(f):
    keys = [key for key, _ in f.terms]
    assert keys == sorted(set(keys), key=lambda key: (-key[0], key[1]))
    assert all(isinstance(c, F) and c != 0 for _, c in f.terms)
    assert all(len(p) == f.k for _, p in keys)
    assert math.gcd(f.q, *(n for n, _ in keys)) == 1


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2), st.data())
def test_arithmetic_is_make_of_the_concatenated_pairs(k, data):
    # p and q have one exponent, so their sums merge coefficients only.
    p, q = (data.draw(_rexp_polys(k, st.just(F(1, 2)))) for _ in range(2))
    f, g = data.draw(_rexp_polys(k)), data.draw(_rexp_polys(k))
    for a, b in ((p, q), (f, g)):
        assert a + b == RealExpPoly.make(k, _monomial_pairs(a) + _monomial_pairs(b))
        assert a - b == RealExpPoly.make(k, _monomial_pairs(a) + _monomial_pairs(-b))
        assert (a - a).is_zero()
    for x in (p, q, p + q, p - q, f, g, f + g, f - g, taylor_shift(f), taylor_shift(f) - g.widen()):
        _assert_canonical(x)


_TAILS = st.dictionaries(
    st.fractions(min_value=0, max_value=3, max_denominator=12),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
)


@settings(max_examples=200)
@example({F(1, 2): 1}, {F(11, 10): 1})
@example({F(3, 2): 1}, {F(1, 10): 1})
@given(_POLY_TERMS, _TAILS)
def test_denominator_is_canonical_however_reached(terms, extra):
    # Exponents are numerators over the least common denominator, so a
    # polynomial reached through a cancellation that removes every term
    # of a finer denominator is the one built directly.
    direct = rexp_poly(0, terms)
    other = rexp_poly(0, extra)
    reached = (direct + other) - other
    assert reached == direct and hash(reached) == hash(direct)
    d = direct.degree()
    if d < 0:
        return
    # A tail below the degree, of any denominator, leaves the leading slice alone.
    tail = rexp_poly(0, {e: c for e, c in extra.items() if e < d})
    for a in (direct, reached):
        assert equivalent(a, a + tail) and equivalent(a + tail, direct)
        assert type_vector(Family((a + tail, direct))) == type_vector(Family((reached,)))
