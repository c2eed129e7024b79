import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR,
                               HBAR_SQRT, LimitError, KEY_ONE, decode, encode,
                               pmin_exps, pexp_box, plead, gaussian_solve,
                               pdivexact, _grlex,
                               pmul, pone, pconst, padd, psub, key_mul,
                               bareiss_det, bareiss_solve, solve_poly_system,
                               InconsistentSystemError, ProbeSingularError)

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


@settings(max_examples=60, deadline=None)
@given(laurent.filter(bool), laurent.filter(bool))
def test_max_key_is_a_monomial_order(f, g):
    # the largest packed key of a product is the product of the largest keys,
    # which is what lets pdivexact take max() as its leading term
    assert max(pmul(f, g)) == key_mul(max(f), max(g))


# keys in all five fields: small exponents, so that many keys share a total
# degree and plead must break ties, and large ones, whose total degrees
# (|d| <= 500000 < 2^19) wrap around the modulus 2^20 - 1
five_field_keys = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * 5),
    st.tuples(*[st.integers(-100_000, 100_000)] * 5)).map(encode)


@settings(max_examples=200, deadline=None)
@given(st.lists(five_field_keys, min_size=1, max_size=8))
def test_packed_key_extrema_match_decoded_definitions(keys):
    f = dict.fromkeys(keys, 1)
    columns = list(zip(*map(decode, f)))
    mins, maxs = [min(c) for c in columns], [max(c) for c in columns]
    assert pmin_exps(f) == mins
    assert pexp_box(f) == (mins, maxs)
    assert plead(f) == max(f, key=_grlex)


def laplace_det(matrix):
    """Determinant by cofactor expansion along the first row."""
    if not matrix:
        return pone()
    det = {}
    for j, e in enumerate(matrix[0]):
        if not e:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = pmul(e, laplace_det(minor))
        det = psub(det, term) if j % 2 else padd(det, term)
    return det


small_laurent = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 3).map(
        lambda e: encode((e[0], e[1], 0, e[2], 0))),
    st.integers(-3, 3).filter(bool), max_size=3)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 3))
    matrix = [[draw(small_laurent) for _ in range(n)] for _ in range(n)]
    return matrix, [draw(small_laurent) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_systems())
def test_bareiss_solve_matches_cramer(system):
    matrix, rhs = system
    det = laplace_det(matrix)
    assert bareiss_det(matrix) == det
    if not det:
        with pytest.raises(ZeroDivisionError):
            bareiss_solve(matrix, rhs)
        return
    D, nums = bareiss_solve(matrix, rhs)
    assert D == det
    for j, x in enumerate(nums):
        col = [row[:j] + [b] + row[j + 1:] for row, b in zip(matrix, rhs)]
        assert x == laplace_det(col)
    for row, b in zip(matrix, rhs):
        acc = {}
        for e, x in zip(row, nums):
            acc = padd(acc, pmul(e, x))
        assert acc == pmul(b, D)


def test_solve_poly_system_overdetermined():
    # three equations in two unknowns with the solution ((1+t1)/d, (t2-u)/d)
    d = (ONE + T1 * T2).num
    a = [[(T1 + U).num, (ONE - T2).num],
         [(T2 ** 2).num, (T1 - ONE).num],
         [(U + 2).num, (T1 * U).num]]
    x = [(ONE + T1).num, (T2 - U).num]
    rows = [[pmul(d, e) for e in row] for row in a]
    rhs = [padd(pmul(r[0], x[0]), pmul(r[1], x[1])) for r in a]
    sol = solve_poly_system(rows, rhs)
    assert sol == [(ONE + T1) / (ONE + T1 * T2), (T2 - U) / (ONE + T1 * T2)]
    rhs[2] = padd(rhs[2], pone())
    with pytest.raises(InconsistentSystemError) as err:
        solve_poly_system(rows, rhs)
    assert not isinstance(err.value, ProbeSingularError)


def test_solve_poly_system_singular_at_probe_points():
    # (2s - 3)(5s - 2)(6s - 11) with s = t1^(1/2) vanishes at all three
    # probe points, though the 1 x 1 system is uniquely solvable
    s = Scalar.sqrt_var("t1")
    entry = ((2 * s - 3) * (5 * s - 2) * (6 * s - 11)).num
    with pytest.raises(ProbeSingularError, match="1 x 1"):
        solve_poly_system([[entry]], [pone()])
    assert issubclass(ProbeSingularError, InconsistentSystemError)
