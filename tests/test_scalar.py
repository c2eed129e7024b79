import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR,
                               HBAR_SQRT, LimitError, KEY_ONE, decode, encode,
                               pmin_exps, plead, gaussian_solve, pdivexact,
                               pmul, pone, pconst, InconsistentSystemError)

rng = random.Random(20240817)


def rand_scalar(depth=2, vars_=("t1", "t2", "u")):
    num = {}
    for _ in range(rng.randint(1, 4)):
        s = Scalar.from_int(rng.randint(-4, 4))
        for v in vars_:
            s = s * Scalar.var(v) ** rng.randint(-depth, depth)
        num[id(s)] = s
    total = ZERO
    for s in num.values():
        total = total + s
    return total


def rand_nonzero(depth=2):
    while True:
        s = rand_scalar(depth)
        if not s.is_zero():
            return s


def test_hbar_is_t1_t2():
    assert (T1 * T2) / HBAR == ONE


def test_half_exponent_closure():
    assert HBAR_SQRT * HBAR_SQRT == HBAR
    assert Scalar.sqrt_var("t1") ** 2 == T1


def test_geometric_factor_equality():
    # cross-multiplication oracle: no gcd needed to see the equality
    assert (ONE - T1 ** 2) / (ONE - T1) == ONE + T1


def test_division_by_zero_reported():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_field_axioms_on_random_triples():
    for _ in range(40):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
    for _ in range(20):
        x = rand_nonzero()
        assert x * x.inverse() == ONE


def test_canonical_form_invariants():
    for _ in range(30):
        x = rand_nonzero() / rand_nonzero()
        # denominator lead coefficient positive under graded-lex
        assert x.den[plead(x.den)] > 0
        # no common monomial factor remains
        mins_n = pmin_exps(x.num)
        mins_d = pmin_exps(x.den)
        assert all(min(a, b) == 0 for a, b in zip(mins_n, mins_d))


def test_adams_examples():
    assert HBAR.adams(3) == HBAR ** 3
    x = (ONE - U) / (ONE - T1 ** 2)
    assert x.adams(2) == (ONE - U ** 2) / (ONE - T1 ** 4)


def test_adams_is_multiplicative_and_composes():
    for _ in range(20):
        x, y = rand_scalar(), rand_scalar()
        k = rng.randint(1, 4)
        assert (x * y).adams(k) == x.adams(k) * y.adams(k)
        j = rng.randint(1, 3)
        assert x.adams(j).adams(k) == x.adams(j * k)


def test_a_valuation_examples():
    assert (A ** 2 * T1).a_valuation() == 2
    assert (ONE / (A * (ONE - T1))).a_valuation() == -1
    assert (ONE - A * T2).a_valuation() == 0


def test_a_limit_examples():
    assert (A * T1 + T2).a_limit() == T2
    # 1/(1 - t1/a) = a/(a - t1) vanishes at a = 0
    assert (ONE / (ONE - T1 / A)).a_limit() == ZERO
    with pytest.raises(LimitError) as err:
        (ONE / A).a_limit()
    assert err.value.valuation == -1


def test_a_limit_agrees_with_a_adic_constant_term():
    # at valuation zero the limit is the a^0 coefficient of the expansion
    for _ in range(20):
        f0 = rand_nonzero()
        f1 = rand_scalar()
        g0 = rand_nonzero()
        x = (f0 + A * f1) / (g0 + A * rand_scalar())
        assert x.a_valuation() == 0
        assert x.a_limit() == f0 / g0


def test_specialize_square_roots():
    x = HBAR_SQRT + ONE
    v = x.specialize({"t1": Fraction(2, 3), "t2": Fraction(3, 5)})
    # hbar^(1/2) = (2/3)*(3/5) = 2/5
    assert v == Scalar.fraction(7, 5)
    with pytest.raises(ZeroDivisionError):
        (ONE / (ONE - T1)).specialize({"t1": Fraction(1)})


def test_render_deterministic_half_powers():
    assert Scalar.monomial(t1=3).render() == "t1^(3/2)"
    assert (T1 + ONE).render() == "t1 + 1"
    assert ZERO.render() == "0"
    x = T2 / T1
    assert x.render() == "(t2) / (t1)"


def test_equality_is_mathematical_not_structural():
    x = (ONE - T1 ** 4) / ((ONE - T1) * (ONE + T1))
    y = ONE + T1 ** 2
    assert x == y
    assert not (x != y)


def test_gaussian_solve_inconsistent():
    with pytest.raises(InconsistentSystemError):
        gaussian_solve([[ONE], [ONE]], [ONE, ONE + ONE])


# Laurent polynomials in t1, t2, u with doubled exponents in [-4, 4]
laurent = st.dictionaries(
    st.tuples(*[st.integers(-4, 4)] * 3).map(
        lambda e: encode((e[0], e[1], 0, e[2], 0))),
    st.integers(-3, 3).filter(bool), max_size=4)


@settings(max_examples=60, deadline=None)
@given(laurent, laurent.filter(bool))
def test_pdivexact_recovers_factor(f, g):
    assert pdivexact(pmul(f, g), g) == f


@settings(max_examples=60, deadline=None)
@given(laurent, laurent.filter(bool))
def test_pdivexact_quotient_is_exact_or_none(f, g):
    # terminates on every input, and a returned quotient is exact
    q = pdivexact(f, g)
    assert q is None or pmul(q, g) == f


def test_pdivexact_not_exact_terminates():
    assert pdivexact(pone(), (ONE - T1).num) is None
    assert pdivexact((ONE + T1 ** 3).num, (ONE - T1).num) is None
    assert pdivexact((T2 + T1).num, (T1 + ONE).num) is None
    # 2 does not divide 1 + t1 over the integers
    assert pdivexact((ONE + T1).num, pconst(2)) is None


def laurent_poly(*terms):
    """{key: c} from (c, t1 exponent, t2 exponent) triples."""
    return {encode((2 * e1, 2 * e2, 0, 0, 0)): c for c, e1, e2 in terms}


def test_pdivexact_laurent_examples():
    f = laurent_poly((1, -3, 0), (-1, 2, 1))
    g = laurent_poly((1, -1, -2))
    assert pdivexact(f, g) == laurent_poly((1, -2, 2), (-1, 3, 3))
    f = laurent_poly((1, 0, -1), (-1, 4, -1))
    g = laurent_poly((1, 2, 0), (-1, 0, 0))
    assert pdivexact(f, g) == laurent_poly((-1, 0, -1), (-1, 2, -1))
    assert pdivexact(laurent_poly((1, 0, -1)), g) is None


def test_reduced_keeps_integer_content():
    x = (T1 ** 2 - ONE) / (Scalar.from_int(2) * T1 - 2)
    assert len(x.den) == 2
    r = x.reduced()
    assert r.den == pconst(2)
    assert r == (T1 + ONE) / 2
    # not a Laurent polynomial over an integer: unchanged
    y = ONE / (ONE - T1)
    assert y.reduced().num == y.num and y.reduced().den == y.den
