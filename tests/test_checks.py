import json

import pytest

from hilbvertex.scalar import Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR
from hilbvertex.series import Series, rational_reconstruct
from hilbvertex.characters import partitions
from hilbvertex.fock import (JJ0_READINGS, FockElement, tensor_exp,
                             jj0_substitute, project_second, pexp)
from hilbvertex.macdonald import MacdonaldBasis
from hilbvertex import checks
from hilbvertex.checks import (check_kernel_identity, check_mellit,
                               check_osum, check_ook, check_main,
                               check_degenerate_slice, check_rationality,
                               check_prop1, check_prop4, closed_F, build_F,
                               capped_vertex_table, candidate_denominator,
                               kernel_exponential, calibrate, run_check)


def den1():
    return (ONE - T1 ** 2) * (ONE - T2 ** 2)


def test_kernel_small_orders():
    rep = check_kernel_identity(2)
    assert rep.passed
    assert rep.orders == {"y": 2}


def test_kernel_wrong_orientation_witness_at_y2():
    # a supplied basis carries no orientation: the one passed is the one used
    rep = check_kernel_identity(2, "arms_t2", basis=MacdonaldBasis())
    assert not rep.passed
    assert rep.outcome == "mismatch"
    assert rep.conventions["tangent_orientation"] == "arms_t2"
    assert rep.details["degree"] == 2
    assert tuple(rep.details["fixed_point"]) in partitions(2)
    # a mismatch always carries a concrete witness with both values
    assert "localization_side" in rep.details
    assert "exponential_side" in rep.details


def test_mellit_wrong_eigenvalue_names_its_fixed_point(monkeypatch):
    right = checks.mellit_eigenvalue

    def doubled(lam):
        return right(lam) * 2 if lam == (2, 1) else right(lam)

    monkeypatch.setattr(checks, "mellit_eigenvalue", doubled)
    rep = check_mellit(3)
    assert rep.outcome == "mismatch"
    assert rep.details["degree"] == 3
    assert rep.details["fixed_point"] == [2, 1]


def test_mellit_small_orders():
    rep = check_mellit(2)
    assert rep.passed


def test_mellit_reduces_to_kernel_at_u_zero():
    m = checks.mellit_exponential(2)
    k = kernel_exponential(2)
    for mu in [(1,), (2,), (1, 1)]:
        assert m.coefficient(mu).limit_at_zero("u") == k.coefficient(mu)


def test_osum_small_orders():
    rep = check_osum(2)
    assert rep.passed
    assert "sign_transport" in rep.conventions


def test_osum_first_order_coefficient():
    o = checks.osum_exponential(1)
    assert o.coefficient((1,)) == -(HBAR ** 2) / den1()


def test_closed_F_first_order():
    F = closed_F(1, 3)
    c = F.coefficient((1,))
    want = Series.const(HBAR ** 2 * (ONE - U) / den1(), 0, 3)
    zf = Series.term(HBAR ** 2 * (HBAR - HBAR.inverse()) / (Q * den1()),
                     0, 1, 0, 3)
    inner = Series.term(HBAR / Q, 0, 1, 0, 3)
    assert c == want + zf * inner.geom()


def test_closed_F_u1_z0_is_trivial():
    F = closed_F(2, 0)
    for mu, c in F.coeffs.items():
        if mu == ():
            continue
        v = c.coefficient(0, 0)
        # every p-coefficient carries a (1 - u^k) factor
        assert v.specialize({"u": 1}).is_zero()


def test_closed_F_keeps_small_denominators():
    # the p_mu coefficients of exp(sum_k c_k p_k) share the denominators of
    # the c_k up to units; cross-multiplied sums reached 2,778 terms here
    F = closed_F(5, 8)
    assert all(len(s.num) <= 36 and len(s.den) <= 36
               for ser in F.coeffs.values() for s in ser.coeffs.values())
    assert F == pexp(checks.ook_argument(8), 5)


def test_build_F_first_order_correction():
    F = build_F(1, 3, reading="printed")
    c = F.coefficient((1,))
    base = Series.const(HBAR ** 2 * (ONE - U) / den1(), 0, 3)
    corr = Series({(0, j): HBAR ** 3 * (HBAR - HBAR.inverse()) / den1()
                   for j in (1, 2, 3)}, 0, 3)
    assert c == base + corr


def test_build_F_at_z0_is_descendent_exponential():
    F = build_F(2, 0)
    taubar = checks.mellit_exponential(2)
    for mu in [(), (1,), (2,), (1, 1)]:
        assert F.coefficient(mu).coefficient(0, 0) == taubar.coefficient(mu)


@pytest.mark.parametrize("reading", JJ0_READINGS)
def test_build_F_equals_tensor_square_route(reading):
    c, d = checks._fusion_exponents(3, 4)
    T = jj0_substitute(tensor_exp(c, d, 3), reading=reading)
    assert build_F(3, 4, reading=reading) == project_second(T)


def _scale_fock_z(f, factor):
    """z -> factor z on every coefficient of the expanded element."""
    return FockElement({mu: c.scale_z(factor) for mu, c in f.coeffs.items()},
                       f.N)


def _fock_mismatch(a, b):
    """The witness of a full-expansion comparison."""
    mu = a.first_difference(b)
    if mu is None:
        return None
    return {"p_monomial": list(mu),
            "lhs": a.coefficient(mu).render(),
            "rhs": b.coefficient(mu).render()}


def test_exponent_route_matches_full_expansions():
    # check_main decides on the exponents; the reference compares the
    # expanded FockElements, for every (reading, shift) pair
    closed_full = closed_F(3, 4)
    closed = checks.closed_exponents(3, 4)
    verdicts = []
    for reading in JJ0_READINGS:
        built_full = build_F(3, 4, reading=reading)
        derived = checks.derived_exponents(3, 4, reading=reading)
        for shift in checks.SHIFT_FAMILY:
            factor = checks._shift_scalar(shift)
            full = _scale_fock_z(closed_full, factor)
            scaled = {k: c.scale_z(factor) for k, c in closed.items()}
            same = scaled == derived
            assert (full == built_full) == same
            assert (_fock_mismatch(full, built_full)
                    == checks._exponent_mismatch(scaled, derived))
            verdicts.append(same)
    assert verdicts.count(True) == 1


def test_check_main_finds_unique_shift():
    rep = check_main(3, 4)
    assert rep.passed
    assert rep.details["winning_reading"] == "printed_inverse"
    assert rep.details["winning_shift"] == "+z*hbar^-1*q^1"
    assert rep.details["matches_printed_claim"] is False
    # the rule exactly as displayed admits no shift at all
    assert rep.details["printed_rule_shifts"] == []
    assert rep.details["claimed_shift"] == "-z*hbar^1*q^1"


@pytest.mark.parametrize("Ny, Nz, count", [(1, 1, 4), (2, 0, 90)])
def test_check_main_below_z2_cannot_name_one_shift(Ny, Nz, count):
    # why VERIFY_TARGETS sets the lowest z order of main to 2
    rep = check_main(Ny, Nz)
    assert rep.outcome == "mismatch"
    assert rep.details["reason"] == "shift is not unique"
    assert len(rep.details["matches"]) == count


def test_check_ook_small():
    assert check_ook(3, 4).passed


def test_check_ook_names_the_first_wrong_exponent(monkeypatch):
    right = checks.closed_exponents

    def wrong_c3(Ny, Nz):
        c = right(Ny, Nz)
        c[3] = c[3] + Series.term(U, 0, 2, 0, Nz)
        return c

    monkeypatch.setattr(checks, "closed_exponents", wrong_c3)
    rep = check_ook(4, 4)
    assert rep.outcome == "mismatch"
    assert rep.details["p_monomial"] == [3]
    assert rep.details["lhs"] != rep.details["rhs"]


def test_degenerate_slice():
    assert check_degenerate_slice(3).passed


def _expanded_slice(N):
    """The slice's verdict and witness from the expanded exponentials."""
    F = closed_F(N, 0)
    rhs = kernel_exponential(N)
    for mu, c in F.coeffs.items():
        val = c.coefficient(0, 0).limit_at_zero("u")
        want = rhs.coefficient(mu).limit_at_zero("u")
        if val != want:
            return "mismatch", {"p_monomial": list(mu),
                                "lhs": val.render(), "rhs": want.render()}
    return "exact-match", {"y": N}


@pytest.mark.parametrize("wrong_k", [None, 1, 3])
def test_slice_exponent_route_matches_the_expansions(monkeypatch, wrong_k):
    if wrong_k is not None:
        right = checks._closed_exponent_parts

        def wrong(k):
            a, b = right(k)
            return (a + T1 * HBAR if k == wrong_k else a), b

        monkeypatch.setattr(checks, "_closed_exponent_parts", wrong)
    rep = check_degenerate_slice(4)
    assert (rep.outcome, rep.details) == _expanded_slice(4)
    if wrong_k is not None:
        assert rep.details["p_monomial"] == [wrong_k]


def test_vertex_table_n0():
    table = capped_vertex_table(0)
    (num, den), = table.entries.values()
    assert num[0] == ONE and den[0] == ONE


def test_vertex_table_n1():
    table = capped_vertex_table(1)
    num, den = table.entries[(1,)]
    # denominator divides (1 - z hbar/q)
    assert den == {0: ONE, 1: -(HBAR / Q)}
    assert num[0] == ONE - U
    assert num[1] == (ONE - U) * (-(HBAR / Q)) + (HBAR - HBAR.inverse()) / Q
    assert table.q_free


def test_is_q_free_is_exact():
    x = (Q + ONE) * T1 / (Q + ONE)
    assert x.den != ONE.den  # the q-dependence cancels only after a gcd
    assert checks.is_q_free(x)
    assert checks.is_q_free(HBAR / (ONE - U))
    assert not checks.is_q_free((Q + ONE) / (Q + T1))
    assert not checks.is_q_free(HBAR / Q)


def test_vertex_table_n2_entries_are_small():
    # the matrix-inverse route gave entries of about 8000 terms
    table = capped_vertex_table(2)
    for num, den in table.entries.values():
        for c in list(num.values()) + list(den.values()):
            assert max(len(c.num), len(c.den)) <= 8


def test_vertex_table_certifies_its_basis():
    basis = MacdonaldBasis()
    basis.build_degree(2)
    basis._H[2][(1, 1)] = basis._H[2][(2,)]
    with pytest.raises(ArithmeticError, match=r"H_\(1, 1\) fails"):
        capped_vertex_table(2, basis=basis)


def test_vertex_table_bounds():
    with pytest.raises(ValueError):
        capped_vertex_table(checks.VERTEX_N_MAX + 1)


def test_candidate_denominator_structure():
    d = candidate_denominator(2)
    w = HBAR / Q
    assert d[0] == ONE
    assert d[1] == -w
    prod = {0: ONE}
    for k in (1, 2):
        fac = {0: ONE, k: -(w ** k)}
        new = {}
        for a, ca in prod.items():
            for b, cb in fac.items():
                new[a + b] = new.get(a + b, ZERO) + ca * cb
        prod = new
    for deg, c in prod.items():
        assert d.get(deg, ZERO) == c


def test_divides_zpoly():
    d1, d2 = candidate_denominator(1), candidate_denominator(2)
    assert checks._divides_zpoly(d1, d2) and checks._divides_zpoly(d2, d2)
    assert checks._divides_zpoly(d2, {0: ZERO, 5: ZERO})
    assert not checks._divides_zpoly(d2, d1)
    assert not checks._divides_zpoly(d1, {0: ONE})
    assert not checks._divides_zpoly(d1, {0: ONE, 1: ONE})
    assert not checks._divides_zpoly(d2, checks._zmul(d1, {0: ONE, 1: Q}))
    assert checks._divides_zpoly(d1, checks._zmul(d1, {0: U, 2: Q}))


@pytest.mark.parametrize("n", range(6))
def test_vertex_table_equals_the_series_route(n):
    # the route the tables took before they were computed exactly in z:
    # pair the truncated z-series, then reconstruct over the candidate
    basis = MacdonaldBasis()
    B = n * (n + 1) // 2
    Nz = 2 * B + 2
    pairings = basis.exp_pairings(checks.closed_exponents(n, Nz), n,
                                  one=Series.one(0, Nz))
    cand = candidate_denominator(n)
    table = capped_vertex_table(n, basis=basis)
    assert table.certified_order == Nz and table.q_free
    for lam in partitions(n):
        series = pairings[lam] * basis.ratio(lam)
        if n == 0:
            want = ({0: series.coefficient(0, 0)}, {0: ONE})
        else:
            want = rational_reconstruct(series, B, B, candidate_dens=[cand])
        for got_part, want_part in zip(table.entries[lam], want):
            assert sorted(got_part) == sorted(want_part)
            for d, c in want_part.items():
                assert got_part[d] == c
                assert got_part[d].render() == c.render()


def _times_one_minus_wk(p, k):
    return [c - (p[j - k] if j >= k else 0)
            for j, c in enumerate(p + [0] * k)]


@pytest.mark.parametrize("n", range(9))
def test_cofactor_times_its_factors_is_the_candidate(n):
    whole = [1]
    for k in range(1, n + 1):
        whole = _times_one_minus_wk(whole, k)
    assert checks._in_z(whole) == candidate_denominator(n)
    for rho in partitions(n):
        p = checks._cofactor(n, rho)
        for k in rho:
            p = _times_one_minus_wk(p, k)
        assert p == whole


def test_cofactor_of_a_non_factor_raises():
    # D_2 = (1 - w)^2 (1 + w): neither (1 - w)^3 nor 1 - w^3 divides it
    for rho in ((1, 1, 1), (3,), (2, 2)):
        with pytest.raises(ArithmeticError):
            checks._cofactor(2, rho)


def test_rationality_small():
    rep = check_rationality(2)
    assert rep.passed
    assert rep.orders == {"n": 2}
    assert rep.details["degrees"] == [1, 2]


@pytest.mark.parametrize("n", range(5))
def test_vertex_table_den_is_the_candidate(n):
    # check_rationality tests no divisibility because of this; a change
    # that reduces the entries must bring that test back
    cand = candidate_denominator(n)
    for num, den in capped_vertex_table(n).entries.values():
        assert den == cand


def test_prop1_small():
    rep = check_prop1(1)
    assert rep.passed
    validated = rep.details["validated"]
    assert {"variant": "proof", "a_power": "n"} in validated
    # statement power 2n does not admit the limit
    assert {"variant": "proof", "a_power": "2n"} not in validated


def test_prop1_rhs_example():
    # at the fixed point ((1), empty) the expected limit is hbar
    from hilbvertex.characters import o_line_eigen, size
    rhs = HBAR ** (1 + size(())) * o_line_eigen((1,), (), "first")
    assert rhs == HBAR


def test_prop4_examples():
    assert check_prop4(1, 0).passed
    assert check_prop4(2, 1).passed
    rep = check_prop4(2, 2)
    assert rep.passed


def test_report_serialization():
    rep = check_prop4(1, 1)
    data = json.loads(rep.to_json())
    assert data["check"] == "chern_limit"
    assert data["outcome"] == "exact-match"


def test_run_check_dispatch():
    rep = run_check("kernel", y_order=1)
    assert rep.passed
    # order 0 is an order, not a request for the default
    assert run_check("ook", y_order=1, z_order=0).orders == {"y": 1, "z": 0}
    assert run_check("rationality", n=0).orders == {"n": 0}
    with pytest.raises(ValueError):
        run_check("nonsense")
