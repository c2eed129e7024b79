import random

import pytest

from hilbvertex.scalar import Scalar, ZERO, ONE, T1, T2, Q, U, HBAR
from hilbvertex.series import Series, rational_reconstruct, ReconstructionError

rng = random.Random(7131)


def rand_series(ny, nz, zero_const=False):
    coeffs = {}
    for iy in range(ny + 1):
        for iz in range(nz + 1):
            if zero_const and iy == 0 and iz == 0:
                continue
            if rng.random() < 0.4:
                c = Scalar.from_int(rng.randint(-3, 3)) * T1 ** rng.randint(0, 1)
                if not c.is_zero():
                    coeffs[(iy, iz)] = c
    return Series(coeffs, ny, nz)


def test_exp_of_zero():
    assert Series.zero(3, 3).exp() == Series.one(3, 3)


def test_exp_log_roundtrip_simple():
    c = T2 / (ONE - T1)
    f = Series({(0, 1): c}, 0, 4)
    g = (Series.one(0, 4) + f).log().exp()
    assert g == Series.one(0, 4) + f


def test_exp_taylor_in_y():
    c = T1
    f = Series({(1, 0): c}, 2, 0)
    e = f.exp()
    assert e.coefficient(0, 0) == ONE
    assert e.coefficient(1, 0) == c
    assert e.coefficient(2, 0) == c * c * Scalar.fraction(1, 2)


def test_exp_log_roundtrip_random():
    for _ in range(15):
        f = rand_series(4, 6, zero_const=True)
        assert f.exp().log() == f


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        Series.one(2, 2).exp()


def test_geom_examples():
    g = Series.z(0, 3).geom()
    assert g == Series({(0, j): ONE for j in range(4)}, 0, 3)
    w = Series({(0, 1): HBAR / Q}, 0, 5)
    assert w.geom() * (Series.one(0, 5) - w) == Series.one(0, 5)


def test_negative_power_is_a_power_of_the_inverse():
    f = Series.one(0, 4) - Series.z(0, 4)
    assert f ** -1 == Series.z(0, 4).geom()
    assert f ** -3 == f.inverse() ** 3
    assert f ** -3 * f ** 3 == Series.one(0, 4)


def test_geom_inverse_random():
    for _ in range(15):
        g = rand_series(3, 4, zero_const=True)
        assert (Series.one(3, 4) - g) * g.geom() == Series.one(3, 4)


def test_adams_on_series():
    s = Series({(1, 1): T1, (0, 2): U}, 4, 4)
    a = s.adams(2)
    assert a.coefficient(2, 2) == T1 ** 2
    assert a.coefficient(0, 4) == U ** 2
    # homomorphism within truncation
    t = Series({(0, 1): T2}, 4, 4)
    assert (s * t).adams(2) == s.adams(2) * t.adams(2)


def test_reconstruct_geometric():
    num, den = rational_reconstruct(Series.z(0, 4).geom(), 0, 1)
    assert num == {0: ONE}
    assert den[0] == ONE and den[1] == -ONE


def test_reconstruct_theorem_k1_term():
    # (hbar - 1/hbar) * (z hbar/q) / (1 - z hbar/q), expanded then recovered
    w = HBAR / Q
    fac = HBAR - HBAR.inverse()
    s = Series({(0, j): fac * w ** j for j in range(1, 6)}, 0, 5)
    num, den = rational_reconstruct(s, 1, 1)
    assert num.get(0, ZERO) == ZERO
    assert num[1] == fac * w
    assert den[0] == ONE and den[1] == -w


def test_reconstruct_singular_hankel_system():
    # 1/(1 - z) with degree budgets (1, 2): the Hankel system is singular
    # yet consistent, and its free unknown is zero
    num, den = rational_reconstruct(Series.z(0, 5).geom(), 1, 2)
    assert num == {0: ONE}
    assert den == {0: ONE, 1: -ONE}


def test_reconstruct_inconsistent():
    bad = Series({(0, 0): ONE, (0, 1): ONE, (0, 3): ONE}, 0, 3)
    with pytest.raises(ReconstructionError):
        rational_reconstruct(bad, 0, 1)


def test_reconstruct_roundtrip_random():
    # draw a random rational function, expand, reconstruct, compare
    for _ in range(25):
        dn, dd = rng.randint(0, 2), rng.randint(0, 2)
        num = {j: Scalar.from_int(rng.randint(-3, 3)) for j in range(dn + 1)}
        num = {j: c for j, c in num.items() if not c.is_zero()}
        den = {0: ONE}
        for j in range(1, dd + 1):
            den[j] = Scalar.from_int(rng.randint(-2, 2)) * T1 ** rng.randint(0, 1)
        den = {j: c for j, c in den.items() if not c.is_zero()}
        orders = dn + dd + 2 + rng.randint(0, 2)
        inv = Series({(0, j): c for j, c in den.items()}, 0, orders)
        expansion = inv.inverse()
        s = Series.zero(0, orders)
        for j, c in num.items():
            s = s + Series.term(c, 0, j, 0, orders) * expansion
        got_num, got_den = rational_reconstruct(s, dn, dd)
        # certificate: den * s == num through all supplied orders
        lhs = Series({(0, j): c for j, c in got_den.items()}, 0, orders) * s
        rhs = Series({(0, j): c for j, c in got_num.items()}, 0, orders)
        assert lhs == rhs


def test_candidate_denominator_path():
    w = HBAR / Q
    s = Series({(0, j): w ** j for j in range(6)}, 0, 5)
    cand = {0: ONE, 1: -w}
    num, den = rational_reconstruct(s, 1, 1, candidate_dens=[cand])
    assert den == cand and num == {0: ONE}


def test_scale_z():
    s = Series({(0, 1): ONE, (0, 2): T1}, 0, 3)
    t = s.scale_z(HBAR)
    assert t.coefficient(0, 1) == HBAR
    assert t.coefficient(0, 2) == T1 * HBAR ** 2
