import random
from math import factorial

import pytest

from hilbvertex.scalar import Scalar, ZERO, ONE, T1, T2, U, HBAR
from hilbvertex.series import Series
from hilbvertex.characters import partitions
from hilbvertex.checks import (kernel_exponents, mellit_exponents,
                              closed_exponents)
from hilbvertex.fock import (FockElement, TensorFockElement, heis,
                             heis_denominator, exp_linear, pexp, tensor_exp,
                             jj0_substitute, jj0_correction, project_second)

rng = random.Random(99)


def rand_fock(deg, N):
    coeffs = {}
    for n in range(deg + 1):
        for mu in partitions(n):
            if rng.random() < 0.5:
                c = Scalar.from_int(rng.randint(-3, 3))
                if not c.is_zero():
                    coeffs[mu] = c
    return FockElement(coeffs, N)


def rand_tensor(N, nz):
    coeffs = {}
    for n1 in range(N + 1):
        for mu1 in partitions(n1):
            for n2 in range(N + 1 - n1):
                for mu2 in partitions(n2):
                    if rng.random() < 0.3:
                        s = Series({(0, rng.randint(0, nz)):
                                    Scalar.from_int(rng.randint(-2, 2))},
                                   0, nz)
                        if not s.is_zero():
                            coeffs[(mu1, mu2)] = s
    return TensorFockElement(coeffs, N)


def test_heis_examples():
    p1 = FockElement.p(1, 6)
    assert heis(1, p1).coefficient(()) == -ONE
    d1 = heis_denominator(1)
    assert heis(-1, FockElement.one(6)).coefficient((1,)) == -ONE / d1
    assert heis(2, p1).is_zero()


def test_heis_denominator_and_index_zero():
    d2 = (Scalar.monomial(t1=2) - Scalar.monomial(t1=-2)) * \
         (Scalar.monomial(t2=2) - Scalar.monomial(t2=-2))
    assert heis_denominator(2) == d2
    with pytest.raises(ValueError):
        heis(0, FockElement.p(1, 3))


def test_commutator_property():
    # [heis(k), heis(-k)] = k/d_k on elements of degree <= 6 (with headroom
    # so the raising step is not clipped by the truncation bound)
    for k in range(1, 5):
        f = rand_fock(6, 6 + k)
        lhs = heis(k, heis(-k, f)) - heis(-k, heis(k, f))
        assert lhs == f * (Scalar.from_int(k) / heis_denominator(k))


def test_heis_different_indices_commute():
    f = rand_fock(5, 9)
    assert heis(1, heis(-2, f)) == heis(-2, heis(1, f))
    assert heis(3, heis(-2, f)) == heis(-2, heis(3, f))


def test_exp_linear_examples():
    x = T1
    e = exp_linear({1: x}, 2)
    assert e.coefficient(()) == ONE
    assert e.coefficient((1,)) == x
    assert e.coefficient((1, 1)) == x * x * Scalar.fraction(1, 2)
    e2 = exp_linear({1: x, 2: U}, 2)
    assert e2.coefficient((2,)) == U
    assert e2.coefficient((1, 1)) == x * x * Scalar.fraction(1, 2)


def test_exp_linear_kernel_coefficient():
    # p_1 coefficient of the kernel exponential at order y
    c1 = Scalar.monomial(t1=4, t2=4) / ((ONE - T1 ** 2) * (ONE - T2 ** 2))
    e = exp_linear({1: c1}, 1)
    assert e.coefficient((1,)) == c1


def _exp_linear_by_powers(c, N, one):
    """exp_linear with each c_k^m / m! formed as ck ** m * (1/m!)."""
    out = {}
    for n in range(N + 1):
        for mu in partitions(n):
            mults = {k: mu.count(k) for k in mu}
            if any(k not in c for k in mults):
                continue
            val = None
            for k, m in mults.items():
                f = c[k] ** m * Scalar.fraction(1, factorial(m))
                val = f if val is None else val * f
            out[mu] = one if val is None else val
    return FockElement(out, N)


def _stored(v):
    if isinstance(v, Series):
        return v.bounds(), {k: _stored(s) for k, s in v.coeffs.items()}
    return v.num, v.den


@pytest.mark.parametrize("c, N, one", [
    (kernel_exponents(5), 5, ONE),
    (mellit_exponents(5), 5, ONE),
    ({1: T1, 3: U / (ONE - T2), 4: -T2 ** 3}, 5, ONE),
    (closed_exponents(3, 4), 3, Series.one(0, 4)),
    (closed_exponents(5, 8), 5, Series.one(0, 8)),
], ids=["kernel", "mellit", "no_c2", "closed_3_4", "closed_5_8"])
def test_exp_linear_is_stored_as_by_powers(c, N, one):
    got, want = exp_linear(c, N), _exp_linear_by_powers(c, N, one)
    assert got.N == want.N and got.coeffs.keys() == want.coeffs.keys()
    for mu, v in want.coeffs.items():
        assert _stored(got.coeffs[mu]) == _stored(v)


def test_pexp_examples():
    assert pexp(ZERO, 3) == FockElement.one(3)
    c, cp = T1 / (ONE - T2), T2 ** 2
    assert pexp(c + cp, 3) == pexp(c, 3) * pexp(cp, 3)
    pp = pexp(c, 4)
    for k in (1, 2, 3, 4):
        assert pp.coefficient((k,)) == c.adams(k) * Scalar.fraction(1, k)


def test_tensor_exp_examples():
    one = Series.one(0, 1)
    d = {1: Series.const(T1, 0, 1) * Series.z(0, 1)}
    te = tensor_exp({}, d, 1)
    assert te.coefficient((), (1,)) == Series.term(T1, 0, 1, 0, 1)
    assert te.coefficient((), ()) == one
    # d = 0 reduces to a first-factor exponential
    c = {1: Series.const(T2, 0, 0)}
    te = tensor_exp(c, {}, 2)
    ref = exp_linear(c, 2)
    for mu in [(), (1,), (1, 1)]:
        assert te.coefficient(mu, ()) == ref.coefficient(mu)


def test_jj0_rule_k1():
    T = TensorFockElement({((), (1,)): Series.one(0, 3)}, 4)
    out = jj0_substitute(T)
    want = Series({(0, j): -HBAR * (HBAR - HBAR.inverse())
                   for j in range(1, 4)}, 0, 3)
    assert out.coefficient((1,), ()) == want
    assert out.coefficient((), (1,)) == Series.one(0, 3)


def test_jj0_rule_k2():
    T = TensorFockElement({((), (2,)): Series.one(0, 5)}, 4)
    out = jj0_substitute(T)
    want = Series({(0, j): HBAR ** 2 * (HBAR ** 2 - HBAR ** -2)
                   for j in (2, 4)}, 0, 5)
    assert out.coefficient((2,), ()) == want


def test_jj0_fixes_first_component():
    T = TensorFockElement({((1,), ()): Series.one(0, 3)}, 4)
    assert jj0_substitute(T) == T


def test_jj0_identity_at_z_order_zero():
    T = tensor_exp({1: Series.const(T1, 0, 0)},
                   {1: Series.const(T2, 0, 0)}, 3)
    assert jj0_substitute(T) == T


def test_jj0_is_algebra_homomorphism():
    for _ in range(8):
        a, b = rand_tensor(3, 3), rand_tensor(3, 3)
        assert jj0_substitute(a * b) == jj0_substitute(a) * jj0_substitute(b)


def test_jj0_readings_differ():
    base = jj0_correction(1, 0, 3, "printed")
    alt = jj0_correction(1, 0, 3, "printed_inverse")
    assert base != alt
    with pytest.raises(ValueError):
        jj0_correction(1, 0, 3, "nonsense")


def test_project_second():
    assert project_second(
        TensorFockElement({((), (1,)): ONE}, 3)).is_zero()
    pr = project_second(TensorFockElement({((1,), ()): ONE}, 3))
    assert pr.coefficient((1,)) == ONE


def _rand_pair_keys(N):
    return [(mu1, mu2) for n1 in range(N + 1) for mu1 in partitions(n1)
            for n2 in range(N + 1 - n1) for mu2 in partitions(n2)]


def _rand_tensor_scalar(deg, N):
    return TensorFockElement({key: Scalar.from_int(rng.randint(-3, 3))
                              for key in _rand_pair_keys(deg)
                              if rng.random() < 0.3}, N)


def _rand_series(ny, nz):
    return Series({(iy, iz): Scalar.from_int(rng.randint(-3, 3))
                   * rng.choice((ONE, T1, U))
                   for iy in range(ny + 1) for iz in range(nz + 1)
                   if rng.random() < 0.4}, ny, nz)


@pytest.mark.parametrize("make, bounds, other_one", [
    (lambda: rand_fock(4, 4), (4,), TensorFockElement.one(4)),
    (lambda: _rand_tensor_scalar(4, 4), (4,), FockElement.one(4)),
    (lambda: _rand_series(3, 4), (3, 4), FockElement.one(4)),
], ids=["fock", "tensor", "series"])
def test_shared_arithmetic(make, bounds, other_one):
    # factors of full degree under their bounds: every product is truncated
    for _ in range(4):
        a, b, c = make(), make(), make()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == type(a).zero(*bounds)
    one = type(a).one(*bounds)
    assert not (one == other_one) and one != other_one
    assert not (other_one == one) and other_one != one


def test_series_times_fock_element_scales_it():
    # the Series declines the product, and FockElement.__rmul__ scales
    s = Series({(0, 0): T1, (0, 2): U}, 0, 3)
    for f in (exp_linear(closed_exponents(2, 3), 2), rand_fock(3, 3)):
        got = s * f
        assert type(got) is FockElement and got == f * s
        assert all(got.coefficient(mu) == s * c for mu, c in f.coeffs.items())


def test_jj0_needs_series_coefficients():
    with pytest.raises(TypeError):
        jj0_substitute(TensorFockElement({((), (1,)): ONE}, 3))
