import json

import pytest

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, HBAR,
                               VARIABLES, key_exp, key_var, padams, padd,
                               pdivexact, pmul, pmul_int)
from hilbvertex.series import Series, rational_reconstruct
from hilbvertex.characters import partitions, boxes, fixed_points_rank2
from hilbvertex.fock import (JJ0_READINGS, FockElement, exp_linear, tensor_exp,
                             jj0_substitute, project_second, pexp)
from hilbvertex import macdonald
from hilbvertex.macdonald import (MacdonaldBasis, default_basis, ratio,
                                  star_weight)
from hilbvertex import checks
from hilbvertex.checks import (check_kernel_identity, check_mellit,
                               check_osum, check_ook, check_main,
                               check_degenerate_slice, check_rationality,
                               check_prop1, check_prop4, closed_F, build_F,
                               capped_vertex_table, candidate_denominator,
                               run_check)


def den1():
    return (ONE - T1 ** 2) * (ONE - T2 ** 2)


def test_kernel_small_orders():
    rep = check_kernel_identity(2)
    assert rep.passed
    assert rep.orders == {"y": 2}


def test_kernel_wrong_orientation_witness_at_y2():
    # the shared basis carries no orientation: the one passed is the one used
    rep = check_kernel_identity(2, "arms_t2")
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
    k = exp_linear(checks.kernel_exponents(2), 2)
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
        assert pdivexact(v.num, (ONE - U).num) is not None


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
    keys = sorted(set(a.coeffs) | set(b.coeffs), key=lambda mu: (sum(mu), mu))
    for mu in keys:
        if a.coefficient(mu) != b.coefficient(mu):
            return {"p_monomial": list(mu),
                    "lhs": a.coefficient(mu).render(),
                    "rhs": b.coefficient(mu).render()}
    return None


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
    rhs = exp_linear(checks.kernel_exponents(N), N)
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


@pytest.mark.parametrize("stray_k", [1, 2, 3])
def test_rationality_finds_a_stray_q(monkeypatch, stray_k):
    # negative control: B_k with one extra factor of q makes N_k, and every
    # table of degree n >= k, depend on q in w
    right = checks._closed_exponent_parts

    def stray(k):
        a, b = right(k)
        return a, (b * Q if k == stray_k else b)

    monkeypatch.setattr(checks, "_closed_exponent_parts", stray)
    for n in range(stray_k):
        assert capped_vertex_table(n).q_free is True
    for n in range(stray_k, 4):
        assert capped_vertex_table(n).q_free is False
    rep = check_rationality(3)
    assert rep.outcome == "mismatch"
    assert rep.details["n"] == stray_k
    # the first fixed point whose entry depends on q is (k,)
    assert rep.details["fixed_point"] == [stray_k]


@pytest.mark.parametrize("k", range(1, 9))
def test_w_numerators_follow_the_adams_law(k):
    # N_1 = 1 - u + (u - hbar^-2) w and N_k = (-1)^(k-1) psi_k(N_1): the
    # fact that fixes g_k at both ends in z from g_1 alone
    N1 = checks._w_numerator(1)
    w = {key_var("w"): 1}
    assert N1 == padd((ONE - U).num, pmul((U - HBAR ** -2).num, w))
    assert checks._w_numerator(k) == pmul_int(padams(N1, k), (-1) ** (k - 1))


def test_vertex_table_n2_entries_are_small():
    # the matrix-inverse route gave entries of about 8000 terms
    table = capped_vertex_table(2)
    for num, den in table.entries.values():
        for c in list(num.values()) + list(den.values()):
            assert max(len(c.num), len(c.den)) <= 8


def test_vertex_table_certifies_its_basis(monkeypatch):
    # the degree-2 build gives H_(1,1) = H_(2); the table reads its basis
    # through build_degree, which refuses that table and stores nothing
    build = macdonald.macd_H_hhl

    def doctored(n):
        rows, den = build(n)
        rows[(1, 1)] = rows[(2,)]
        return rows, den
    monkeypatch.setattr(macdonald, "macd_H_hhl", doctored)
    basis = MacdonaldBasis()
    monkeypatch.setattr(macdonald, "_DEFAULT_BASIS", basis)
    with pytest.raises(ArithmeticError, match=r"H_\(1, 1\) fails"):
        capped_vertex_table(2)
    assert basis._H == {}


def test_vertex_table_bounds():
    with pytest.raises(ValueError):
        capped_vertex_table(checks.VERTEX_N_MAX + 1)


def _zmul(f, g):
    """Product of two z-polynomials {deg: Scalar}."""
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            out[d1 + d2] = out.get(d1 + d2, ZERO) + c1 * c2
    return out


def test_candidate_denominator_structure():
    d = candidate_denominator(2)
    w = HBAR / Q
    assert d[0] == ONE
    assert d[1] == -w
    prod = {0: ONE}
    for k in (1, 2):
        prod = _zmul(prod, {0: ONE, k: -(w ** k)})
    for deg, c in prod.items():
        assert d.get(deg, ZERO) == c


def test_divides_zpoly():
    d1, d2 = candidate_denominator(1), candidate_denominator(2)
    assert checks._divides_zpoly(d1, d2) and checks._divides_zpoly(d2, d2)
    assert checks._divides_zpoly(d2, {0: ZERO, 5: ZERO})
    assert not checks._divides_zpoly(d2, d1)
    assert not checks._divides_zpoly(d1, {0: ONE})
    assert not checks._divides_zpoly(d1, {0: ONE, 1: ONE})
    assert not checks._divides_zpoly(d2, _zmul(d1, {0: ONE, 1: Q}))
    assert checks._divides_zpoly(d1, _zmul(d1, {0: U, 2: Q}))


@pytest.mark.parametrize("n", range(6))
def test_vertex_table_equals_the_series_route(n):
    # the route the tables took before they were computed exactly in z:
    # pair the truncated z-series, then reconstruct over the candidate
    B = n * (n + 1) // 2
    Nz = 2 * B + 2
    pairings = default_basis().exp_pairings(checks.closed_exponents(n, Nz), n)
    cand = candidate_denominator(n)
    table = capped_vertex_table(n)
    assert table.certified_order == Nz and table.q_free
    for lam in partitions(n):
        series = pairings[lam] * ratio(lam, "arms_t1")
        if n == 0:
            # the empty product is the Scalar ONE, not a series
            want = ({0: series}, {0: ONE})
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


def _packed_in_w(p):
    """Integer coefficients in w as a packed polynomial."""
    return {key_var("w", 2 * j): c for j, c in enumerate(p) if c}


@pytest.mark.parametrize("n", range(9))
def test_cofactor_times_its_factors_is_the_candidate(n):
    whole = [1]
    for k in range(1, n + 1):
        whole = _times_one_minus_wk(whole, k)
    D = _packed_in_w(whole)
    assert {j: Scalar(c) for j, c in checks._in_z(D).items()} == \
        candidate_denominator(n)
    for rho in partitions(n):
        p = checks._cofactor(n, rho)
        for k in rho:
            p = pmul(p, _packed_in_w(_times_one_minus_wk([1], k)))
        assert p == D


def test_cofactor_of_a_non_factor_raises():
    # D_2 = (1 - w)^2 (1 + w): neither (1 - w)^3 nor 1 - w^3 divides it
    for rho in ((1, 1, 1), (3,), (2, 2)):
        with pytest.raises(ArithmeticError):
            checks._cofactor(2, rho)


@pytest.mark.parametrize("n", range(6))
def test_no_vertex_scalar_holds_w(n):
    # w is split off into the z-degree before any Scalar is built
    w = VARIABLES.index("w")
    table = capped_vertex_table(n)
    parts = [candidate_denominator(n)]
    for num, den in table.entries.values():
        parts += [num, den]
    for part in parts:
        for c in part.values():
            assert not any(key_exp(key, w) for key in [*c.num, *c.den])


def test_rationality_small():
    rep = check_rationality(2)
    assert rep.passed
    assert rep.orders == {"n": 2}
    assert rep.details["degrees"] == [1, 2]


@pytest.mark.parametrize("n", range(6))
def test_vertex_table_at_z0_is_the_mellit_eigenvalue(n):
    # at z = 0 the closed exponents c_k are the Mellit exponents A_k, so the
    # vertex route meets the localization check of check_mellit
    for lam, (num, den) in capped_vertex_table(n).entries.items():
        assert den[0] == ONE
        assert num.get(0, ZERO) == checks.mellit_eigenvalue(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_vertex_table_at_z_infinity(n):
    # the leading coefficients, B = n(n+1)/2, are the values at z = infinity,
    # hbar^(-2n) prod over the boxes of (1 - u hbar^2 w_box), w_box as in
    # mellit_eigenvalue.  Derivation: g_k = N_k / (1 - w^k) tends to minus
    # the w^k coefficient of N_k.  From N_1 = 1 - u + (u - hbar^-2) w that
    # is g_1 -> hbar^-2 (1 - u hbar^2), and by the Adams law of the N_k
    # (test_w_numerators_follow_the_adams_law) g_k -> (-1)^(k-1) hbar^(-2k)
    # (1 - (u hbar^2)^k), which is g_k at z = 0, (-1)^(k-1) (1 - u^k), with
    # u -> u hbar^2, times hbar^(-2k).  Every rho has size n, so g_rho at
    # infinity is hbar^(-2n) times g_rho at z = 0 with u -> u hbar^2; H_lam
    # and ratio(lam) hold no u.  The entry at z = 0 is the Mellit eigenvalue
    # (test_vertex_table_at_z0_is_the_mellit_eigenvalue), so its leading
    # coefficient is hbar^(-2n) times that eigenvalue at u hbar^2
    B = n * (n + 1) // 2
    for lam, (num, den) in capped_vertex_table(n).entries.items():
        want = HBAR ** (-2 * n)
        for (r, c) in boxes(lam):
            want = want * (ONE - U * HBAR ** 2
                           * Scalar.monomial(t1=4 * c, t2=4 * r))
        assert num[B] / den[B] == want


def _cyclotomic(d):
    """Phi_d(w) as integer coefficients in w, lowest degree first."""
    p = [-1] + [0] * (d - 1) + [1]  # w^d - 1 = prod over e | d of Phi_e
    for e in range(1, d):
        if d % e == 0:
            f = _cyclotomic(e)  # monic
            quo = [0] * (len(p) - len(f) + 1)
            for i in reversed(range(len(quo))):
                quo[i] = p[i + len(f) - 1]
                for j, x in enumerate(f):
                    p[i + j] -= quo[i] * x
            assert not any(p)
            p = quo
    return p


def test_cyclotomic_examples():
    assert [_cyclotomic(d) for d in (1, 2, 3, 4, 6)] == [
        [-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]]


@pytest.mark.parametrize("n", range(1, 6))
def test_vertex_table_numerator_has_no_cyclotomic_factor(n):
    # the candidate denominator D_n = prod_{k<=n} (1 - w^k) is reduced: no
    # Phi_d(w), d <= n, divides any numerator written in w = z hbar / q
    phi = {d: {j: Scalar.from_int(x) for j, x in enumerate(_cyclotomic(d))
               if x} for d in range(1, n + 1)}
    for num, den in capped_vertex_table(n).entries.values():
        in_w = {d: c * (Q / HBAR) ** d for d, c in num.items()}
        for d in phi:
            assert not checks._divides_zpoly(phi[d], in_w)
        # negative control: a factor 1 - w put in by hand is found
        assert checks._divides_zpoly(phi[1], _zmul(in_w, {0: ONE, 1: -ONE}))


def test_star_weight_cancels_the_exponent_denominators():
    # exp_pairings, pairings and capped_vertex_table rely on this: reduced()
    # keeps the fraction silently when the exact division fails
    N = 8
    families = ((checks.kernel_exponents(N), lambda k: ONE),
                (checks.mellit_exponents(N), lambda k: ONE - U ** k),
                (checks.osum_exponents(N), lambda k: (-1) ** k * ONE))
    for k in range(1, N + 1):
        A_k, B_k = checks._closed_exponent_parts(k)
        cases = [(c[k], f(k)) for c, f in families]
        cases += [(A_k, ONE - U ** k),
                  (B_k, Q ** -k * (HBAR ** k - HBAR ** -k))]
        for c, f in cases:
            g = (c * star_weight((k,))).reduced()
            assert len(g.den) == 1
            assert g == (-1) ** (k - 1) * f


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


def test_negative_n_is_refused():
    # as partitions(-1) is: not an UnboundLocalError, and not a pass over
    # zero fixed points or degrees.  Every verify target, each of its orders
    # at -1 in turn, refuses it, not only the rank-2 ones
    for fn in (fixed_points_rank2, check_prop1, checks.check_prop4_through):
        with pytest.raises(ValueError):
            fn(-1)
    for target in checks.VERIFY_TARGETS.values():
        for param, *_ in target.orders.values():
            with pytest.raises(ValueError):
                target.check(**{param: -1})


def test_report_serialization():
    rep = check_prop4(1, 1)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["check"] == "chern_limit"
    assert data["outcome"] == "exact-match"
    # the time is on the report, and never in its file form
    assert rep.seconds > 0 and data["seconds"] is None


def test_run_check_dispatch():
    rep = run_check("kernel", y_order=1)
    assert rep.passed
    # order 0 is an order, not a request for the default
    assert run_check("ook", y_order=1, z_order=0).orders == {"y": 1, "z": 0}
    assert run_check("rationality", n=0).orders == {"n": 0}
    with pytest.raises(ValueError):
        run_check("nonsense")
