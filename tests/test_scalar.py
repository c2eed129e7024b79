import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR,
                               LimitError, KEY_ONE, NVARS, decode, encode,
                               pmin_exps, pexp_box, plead, pdivexact, _grlex,
                               _printed, prender, _MONOMIALS, VARIABLES,
                               pmul, pmul_int, pone, pconst, padd, psub,
                               padams, ppow, key_exp, bareiss_det,
                               invert_matrix, solve_poly_system,
                               InconsistentSystemError, ResourceLimitError,
                               pmul_into)
from hilbvertex import scalar

rng = random.Random(20240817)


def _key(**exps):
    """Packed key of named doubled exponents; every other field is 0."""
    return encode(tuple(exps.get(v, 0) for v in VARIABLES))


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
    assert Scalar.monomial(t1=1) ** 2 == T1


def test_geometric_factor_equality():
    # cross-multiplication oracle: no gcd needed to see the equality
    assert (ONE - T1 ** 2) / (ONE - T1) == ONE + T1


def test_fraction_operands_are_refused():
    # exact rationals enter through Scalar.fraction, never as operands
    with pytest.raises(TypeError):
        ONE + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) / ONE


def test_division_by_zero_reported():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_canonical_form_invariants():
    for _ in range(30):
        x = rand_nonzero() / rand_nonzero()
        # stored form: the largest key of den is 1, with a positive
        # coefficient, and the integer content is 1
        assert max(x.den) == KEY_ONE
        assert x.den[KEY_ONE] > 0
        assert math.gcd(*x.num.values(), *x.den.values()) == 1
        # printed form: the same value, content 1, den's graded-lex leading
        # coefficient positive, and no common monomial factor
        num, den = _printed(x.num, x.den)
        assert Scalar(num, den) == x
        assert math.gcd(*num.values(), *den.values()) == 1
        assert den[plead(den)] > 0
        mins_n = pmin_exps(num)
        mins_d = pmin_exps(den)
        assert all(min(a, b) == 0 for a, b in zip(mins_n, mins_d))
        assert x.render_parts() == (prender(num), prender(den))


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


def test_a_limit_examples():
    assert (A * T1 + T2).a_limit() == T2
    # 1/(1 - t1/a) = a/(a - t1) vanishes at a = 0
    assert (ONE / (ONE - T1 / A)).a_limit() == ZERO
    with pytest.raises(LimitError) as err:
        (ONE / A).a_limit()
    assert err.value.valuation == -1
    assert "a-valuation -1" in str(err.value)


def test_limit_at_zero_in_other_variables():
    # the lowest u-degree terms of num and den, divided by their u-power
    x = (U * T1 + U ** 2) / (U * (ONE + T2) + U ** 3 * Q)
    assert x.limit_at_zero("u") == T1 / (ONE + T2)
    assert (U / (T1 + U)).limit_at_zero("u") == ZERO
    # half-integer valuations come from the doubled exponents
    with pytest.raises(LimitError) as err:
        (T1 / (Scalar.monomial(u=1) + U)).limit_at_zero("u")
    assert err.value.valuation == Fraction(-1, 2)
    assert "u-valuation -1/2" in str(err.value)


@given(st.lists(st.integers(-(1 << 19), (1 << 19) - 1), min_size=NVARS,
                max_size=NVARS))
def test_key_exp_reads_one_field(exps):
    key = encode(tuple(exps))
    assert [key_exp(key, i) for i in range(NVARS)] == exps


@given(st.lists(st.integers(-(1 << 16), 1 << 16), min_size=NVARS,
                max_size=NVARS),
       st.integers(-7, 7))
def test_padams_scales_every_exponent(exps, n):
    # n * e stays inside the packed range, |n e| < 2^19
    want = {encode(tuple(n * e for e in exps)): 3}
    assert padams({encode(tuple(exps)): 3}, n) == want


def test_a_limit_agrees_with_a_adic_constant_term():
    # at valuation zero the limit is the a^0 coefficient of the expansion
    for _ in range(20):
        f0 = rand_nonzero()
        f1 = rand_scalar()
        g0 = rand_nonzero()
        x = (f0 + A * f1) / (g0 + A * rand_scalar())
        assert x.a_limit() == f0 / g0


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


# Laurent polynomials in t1, t2, u with doubled exponents in [-4, 4]
laurent = st.dictionaries(
    st.tuples(*[st.integers(-4, 4)] * 3).map(
        lambda e: _key(t1=e[0], t2=e[1], u=e[2])),
    st.integers(-3, 3).filter(bool), max_size=4)


# quotients of such polynomials, half-integer exponents included
scalars = st.builds(Scalar, laurent,
                    st.one_of(st.just(pone()), laurent.filter(bool)))


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms_on_random_triples(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + ZERO == x and x - x == ZERO and -(-x) == x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * ONE == x
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == ONE
        assert (y / x) * x == y


def _cross_equal(x, y):
    """Equality of values by cross multiplication alone."""
    return pmul(x.num, y.den) == pmul(y.num, x.den)


monomials = st.tuples(*[st.integers(-4, 4)] * 3).map(
    lambda e: _key(t1=e[0], t2=e[1], u=e[2]))
units = st.integers(-6, 6).filter(bool)


@settings(max_examples=100, deadline=None)
@given(laurent.filter(bool), laurent.filter(bool), laurent.filter(bool),
       monomials, units, units)
def test_sum_over_unit_multiple_denominators(n1, n2, d, m, a, b):
    # a b m d is a unit multiple of d: the sum keeps len(d) terms below the
    # line, and sum and equality agree with cross multiplication
    x, y = Scalar(n1, d), Scalar(n2, pmul_int(pmul({m: a}, d), b))
    total = x + y
    want = Scalar(padd(pmul(x.num, y.den), pmul(y.num, x.den)),
                  pmul(x.den, y.den))
    assert _cross_equal(total, want)
    assert total.is_zero() or len(total.den) == len(d)
    assert (x == y) == _cross_equal(x, y)
    # canonical form is unique up to a unit: an equal value over a m d is
    # stored as x is, so equality needs no unit-ratio path of its own
    same = Scalar(pmul({m: a}, n1), pmul({m: a}, d))
    assert (same.num, same.den) == (x.num, x.den)


def _printed_reference(num, den):
    """The printed form by its definition, from any num/den."""
    exps = [decode(k) for k in [*num, *den]]
    shift = KEY_ONE - encode([min(e[i] for e in exps) for i in range(NVARS)])
    g = math.gcd(*num.values(), *den.values())
    if den[max(den, key=_grlex)] < 0:
        g = -g
    return ({k + shift: c // g for k, c in num.items()},
            {k + shift: c // g for k, c in den.items()})


@settings(max_examples=100, deadline=None)
@given(laurent.filter(bool), laurent.filter(bool), monomials, units)
def test_unit_multiples_are_stored_and_printed_alike(n, d, m, c):
    x = Scalar(n, d)
    y = Scalar(pmul({m: c}, n), pmul({m: c}, d))
    assert (y.num, y.den) == (x.num, x.den)
    assert y.render() == x.render()
    # printed text follows the value's printed form, not its stored form
    pn, pd = _printed_reference(n, d)
    assert y.render_parts() == (prender(pn), prender(pd))


def test_sum_over_denominators_that_are_not_unit_multiples():
    # of the same length; the middle pair shares its leading monomial
    for d1, d2 in [(ONE - T1, ONE - T2), (T1 ** 2 + 1, T1 ** 2 + T1),
                   (ONE - T1 + T2, ONE - T1 - T2)]:
        x, y = (ONE + U) / d1, (T2 - U) / d2
        want = Scalar(padd(pmul(x.num, y.den), pmul(y.num, x.den)),
                      pmul(x.den, y.den))
        assert _cross_equal(x + y, want)
        assert x != y


def _to_sympy(poly, roots):
    import sympy
    return sympy.Add(*[c * sympy.Mul(*[r ** e for r, e in zip(roots,
                                                                decode(k))])
                       for k, c in poly.items()])


@settings(max_examples=40, deadline=None)
@given(laurent, laurent.filter(bool), laurent.filter(bool))
def test_reduced_agrees_with_sympy_cancel(f, g, h):
    # (f g) / (g h) is a Laurent polynomial over an integer at least when h
    # is a monomial times an integer
    sympy = pytest.importorskip("sympy")
    roots = sympy.symbols("r_t1 r_t2 r_q r_u r_a")  # square roots
    x = Scalar(pmul(f, g), pmul(g, h))
    r = x.reduced()
    value = _to_sympy(x.num, roots) / _to_sympy(x.den, roots)
    assert sympy.cancel(_to_sympy(r.num, roots) / _to_sympy(r.den, roots)
                        - value) == 0
    _, den = sympy.fraction(sympy.cancel(value))
    if len(sympy.Add.make_args(sympy.expand(den))) == 1:
        assert len(r.den) == 1


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


def test_ppow_refuses_a_negative_exponent():
    assert ppow({KEY_ONE: 2}, 3) == pconst(8)
    with pytest.raises(ValueError):
        ppow({KEY_ONE: 2}, -1)


def test_pdivexact_not_exact_terminates():
    assert pdivexact(pone(), (ONE - T1).num) is None
    assert pdivexact((ONE + T1 ** 3).num, (ONE - T1).num) is None
    assert pdivexact((T2 + T1).num, (T1 + ONE).num) is None
    # 2 does not divide 1 + t1 over the integers
    assert pdivexact((ONE + T1).num, pconst(2)) is None


def laurent_poly(*terms):
    """{key: c} from (c, t1 exponent, t2 exponent) triples."""
    return {_key(t1=2 * e1, t2=2 * e2): c for c, e1, e2 in terms}


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
    assert max(pmul(f, g)) == max(f) + max(g) - KEY_ONE


# keys in all NVARS fields: small exponents, so that many keys share a total
# degree and plead must break ties, and large ones, up to 80000 in every
# field
all_field_keys = st.one_of(
    st.tuples(*[st.integers(-3, 3)] * NVARS),
    st.tuples(*[st.integers(-80_000, 80_000)] * NVARS)).map(encode)


@settings(max_examples=200, deadline=None)
@given(st.lists(all_field_keys, min_size=1, max_size=8))
def test_packed_key_extrema_match_decoded_definitions(keys):
    f = dict.fromkeys(keys, 1)
    columns = list(zip(*map(decode, f)))
    mins, maxs = [min(c) for c in columns], [max(c) for c in columns]
    assert pmin_exps(f) == mins
    assert pexp_box(f) == (mins, maxs)
    assert plead(f) == max(f, key=_grlex)


def _pmul_reference(f, g):
    """The general double loop of pmul, with its zero filter."""
    out = {}
    for kf, cf in f.items():
        for kg, cg in g.items():
            k = kf + kg - KEY_ONE
            out[k] = out.get(k, 0) + cf * cg
    return {k: c for k, c in out.items() if c}


one_terms = st.builds(lambda k, c: {k: c},
                      st.one_of(st.just(KEY_ONE), monomials),
                      st.one_of(st.sampled_from([1, -1]), units))


@settings(max_examples=200, deadline=None)
@given(one_terms, laurent, st.booleans())
def test_pmul_by_one_term_matches_the_double_loop(m, f, m_first):
    a, b = (m, f) if m_first else (f, m)
    out = pmul(a, b)
    assert out == _pmul_reference(a, b)
    assert out is not a and out is not b


@settings(max_examples=200, deadline=None)
@given(laurent, laurent, laurent)
def test_pmul_into_adds_the_product_in_place(acc, f, g):
    out = dict(acc)
    assert pmul_into(out, f, g) is out
    assert {k: c for k, c in out.items() if c} == \
        padd(acc, _pmul_reference(f, g))


def test_pmul_into_checks_the_budget_before_it_writes(monkeypatch):
    f, g = (ONE + T1).num, (ONE - U).num
    out = dict(T2.num)
    monkeypatch.setattr(scalar, "MAX_TERMS", 0)
    with pytest.raises(ResourceLimitError, match="2 x 2 terms"):
        pmul_into(out, f, g)
    assert out == T2.num
    # pmul keeps its check on a one-term operand too
    with pytest.raises(ResourceLimitError):
        pmul(T2.num, f)


def test_encode_needs_every_field():
    assert decode(encode((2,) * NVARS)) == (2,) * NVARS
    for exps in [(1,), (0,) * (NVARS - 1), (0,) * (NVARS + 1)]:
        with pytest.raises(ValueError, match=f"needs {NVARS} exponents"):
            encode(exps)


def _prender_reference(f):
    """Text form with each key decoded to sort it and again to print it."""
    if not f:
        return "0"
    parts = []
    for k in sorted(f, key=_grlex, reverse=True):
        c = f[k]
        factors = []
        for name, e in zip(VARIABLES, decode(k)):
            if e % 2:
                factors.append(f"{name}^({e}/2)")
            elif e:
                factors.append(name if e == 2 else f"{name}^{e // 2}")
        mono = "*".join(factors)
        term = (mono if abs(c) == 1 else f"{abs(c)}*{mono}") if mono \
            else str(abs(c))
        parts.append(("-" if c < 0 else "+", term))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {term}" for sign, term in parts[1:])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.one_of(st.just(KEY_ONE), all_field_keys),
                       st.one_of(st.sampled_from([1, -1]), units),
                       max_size=6))
def test_prender_is_the_same_with_a_cold_and_a_warm_memo(f):
    _MONOMIALS.clear()
    cold = prender(f)
    assert set(_MONOMIALS) == set(f)
    assert prender(f) == cold == _prender_reference(f)


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
        lambda e: _key(t1=e[0], t2=e[1], u=e[2])),
    st.integers(-3, 3).filter(bool), max_size=3)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 3))
    matrix = [[draw(small_laurent) for _ in range(n)] for _ in range(n)]
    return matrix, [draw(small_laurent) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_systems())
def test_elimination_matches_laplace_and_cramer(system):
    matrix, rhs = system
    det = laplace_det(matrix)
    assert bareiss_det(matrix) == det
    if not det:
        return
    xs = solve_poly_system(matrix, rhs)
    for j, x in enumerate(xs):
        col = [row[:j] + [b] + row[j + 1:] for row, b in zip(matrix, rhs)]
        assert x == Scalar(laplace_det(col), det)


def test_bareiss_det_at_the_edges():
    assert bareiss_det([]) == pone()
    # the second row is t1 times the first
    row = [(ONE + T1).num, (T2 - U).num]
    assert bareiss_det([row, [pmul(T1.num, e) for e in row]]) == {}


def test_invert_matrix():
    a = [[ONE / (ONE - T1), T2], [U / (ONE + T2), ONE - U / (ONE - T1 * T2)]]
    inv = invert_matrix(a)
    for i in range(2):
        for j in range(2):
            entry = sum((a[i][k] * inv[k][j] for k in range(2)), ZERO)
            assert entry == (ONE if i == j else ZERO)
    with pytest.raises(InconsistentSystemError):
        invert_matrix([[ONE / (ONE - T1), T2],
                       [T1 / (ONE - T1), T1 * T2]])


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
    with pytest.raises(InconsistentSystemError):
        solve_poly_system(rows, rhs)


def test_solve_poly_system_inconsistent():
    with pytest.raises(InconsistentSystemError):
        solve_poly_system([[pone()], [pone()]], [pone(), pconst(2)])


def test_solve_poly_system_empty():
    assert solve_poly_system([], []) == []


def test_solve_poly_system_singular_at_probe_points():
    # (2s - 3)(5s - 2)(6s - 11) with s = t1^(1/2) vanishes at the rational
    # points s = 3/2, 2/5 and 11/6, yet as a polynomial it is a nonzero pivot
    s = Scalar.monomial(t1=1)
    entry = ((2 * s - 3) * (5 * s - 2) * (6 * s - 11)).num
    assert solve_poly_system([[entry]], [pone()]) == [Scalar(pone(), entry)]


@st.composite
def consistent_systems(draw):
    """A x = b with A of 1-4 rows and 1-3 columns, rank deficiency included."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    matrix = []
    for _ in range(m):
        if matrix and draw(st.booleans()):
            # a multiple of an earlier row
            row = draw(st.sampled_from(matrix))
            f = draw(small_laurent)
            matrix.append([pmul(f, e) for e in row])
        else:
            matrix.append([draw(small_laurent) for _ in range(n)])
    x = [draw(small_laurent) for _ in range(n)]
    rhs = []
    for row in matrix:
        acc = {}
        for e, v in zip(row, x):
            acc = padd(acc, pmul(e, v))
        rhs.append(acc)
    return matrix, x, rhs


@settings(max_examples=80, deadline=None)
@given(consistent_systems())
def test_solve_poly_system_on_consistent_systems(system):
    matrix, x, rhs = system
    sol = solve_poly_system(matrix, rhs)
    for row, b in zip(matrix, rhs):
        total = ZERO
        for e, v in zip(row, sol):
            total = total + Scalar(e) * v
        assert total == Scalar(b)
    if len(matrix) == len(x) and laplace_det(matrix):
        assert sol == [Scalar(v) for v in x]
