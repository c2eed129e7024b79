import hashlib
import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, KEY_ONE, decode,
                               encode, padd, pconst, pmul_int)
from hilbvertex.characters import partitions, conjugate, n_stat
from hilbvertex import macdonald
from hilbvertex.macdonald import (MacdonaldBasis, MAX_DEGREE, macd_H,
                                  macd_H_axioms, macd_H_gram_schmidt,
                                  macd_H_hhl, default_basis, euler_hilb, norm,
                                  ratio, star_weight, Q_MACD, T_MACD,
                                  character_table, certify, m_to_p, z_mu,
                                  _twisted_schur, _DQ, _DT)
from hilbvertex.series import Series
from hilbvertex.fock import FockElement, exp_linear
from hilbvertex import checks
from hilbvertex.checks import closed_F, closed_exponents, check_kernel_identity

rng = random.Random(4242)


def swap_t(x):
    def sw(poly):
        out = {}
        for k, c in poly.items():
            e = list(decode(k))
            e[0], e[1] = e[1], e[0]
            out[encode(tuple(e))] = c
        return out
    return Scalar(sw(x.num), sw(x.den))


def test_degree_one_is_p1():
    H = macd_H((1,))
    assert H.coefficient((1,)) == ONE
    assert H.coefficient(()) == ZERO


def test_degree_two_table():
    half = Scalar.fraction(1, 2)
    H2, H11 = macd_H((2,)), macd_H((1, 1))
    assert H2.coefficient((1, 1)) == (ONE + Q_MACD) * half
    assert H2.coefficient((2,)) == (ONE - Q_MACD) * half
    assert H11.coefficient((1, 1)) == (ONE + T_MACD) * half
    assert H11.coefficient((2,)) == (ONE - T_MACD) * half


def test_homogeneity():
    for n in (1, 2, 3):
        for lam in partitions(n):
            H = macd_H(lam)
            assert all(sum(mu) == n for mu in H.coeffs)


def test_basis_star_orthogonal_with_closed_form_norms():
    # <H_lam, H_mu>_* = delta * w_lam with nonzero w_lam.  The certificate
    # checks the axioms, and orthogonality follows from them as a theorem;
    # this pins that star_weight, norm and q = t1^-2, t = t2^-2 are the
    # theorem's conventions.  The form is symmetric: one pairing per
    # unordered pair.
    for n in range(7):
        parts = partitions(n)
        H = {mu: macd_H(mu).coeffs for mu in parts}
        for i, mu in enumerate(parts):
            for lam in parts[i:]:
                got = ZERO
                for rho, c in H[mu].items():
                    if rho in H[lam]:
                        got = got + c * H[lam][rho] * star_weight(rho)
                assert got == (norm(lam) if lam == mu else ZERO)
            assert not norm(mu).is_zero()


def _corrupted_shared_basis(monkeypatch):
    """An empty basis, installed as the shared one, whose degree-2 build
    gives H_(1,1) = H_(2)."""
    build = macdonald.macd_H_hhl

    def doctored(n):
        rows, den = build(n)
        if n == 2:
            rows[(1, 1)] = rows[(2,)]
        return rows, den
    monkeypatch.setattr(macdonald, "macd_H_hhl", doctored)
    basis = MacdonaldBasis()
    monkeypatch.setattr(macdonald, "_DEFAULT_BASIS", basis)
    return basis


def test_corrupted_basis_fails_certification(monkeypatch):
    basis = _corrupted_shared_basis(monkeypatch)
    message = r"H_\(1, 1\) fails the t-axiom: .* s_\(1, 1\) "
    # a failed certificate stores nothing, so a second build fails again
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=message):
            basis.build_degree(2)
        assert 2 not in basis._H
    with pytest.raises(ArithmeticError, match=message):
        basis.H((1, 1))
    # the identity check reads through pairings, which build the degree;
    # the degrees below it pass and are kept
    with pytest.raises(ArithmeticError):
        check_kernel_identity(2)
    assert list(basis._H) == [0, 1]


def test_exp_pairings_certify_the_basis_first(monkeypatch):
    basis = _corrupted_shared_basis(monkeypatch)
    message = r"H_\(1, 1\) fails the t-axiom"
    with pytest.raises(ArithmeticError, match=message):
        basis.exp_pairings(checks.kernel_exponents(2), 2)
    # an empty exponent dict pairs nothing, and still certifies
    with pytest.raises(ArithmeticError, match=message):
        basis.exp_pairings({}, 2)
    for check in (checks.check_mellit, checks.check_osum):
        with pytest.raises(ArithmeticError, match=message):
            check(2)
    assert 2 not in basis._H


@pytest.mark.parametrize("corrupt, message", [
    (lambda H: H.update({(2, 1): H[(3,)]}),
     r"H_\(2, 1\) fails the t-axiom: .* s_\(1, 1, 1\) "),
    (lambda H: H.update({(2, 1): {r: pmul_int(v, 2)
                                   for r, v in H[(2, 1)].items()}}),
     r"H_\(2, 1\) fails the normalization: .* s_\(3\) "),
    (lambda H: H.update({(3,): H[(1, 1, 1)]}),
     r"H_\(3,\) fails the q-axiom: .* s_\(2, 1\) "),
], ids=["t_axiom", "normalization", "q_axiom"])
def test_certificate_names_mu_axiom_and_lam(corrupt, message):
    rows, den = macd_H_hhl(3)
    corrupt(rows)
    with pytest.raises(ArithmeticError, match=message):
        certify(3, rows, den)


def _twisted_schur_reference(f, step, chars):
    """The s_lam coefficients of f[X(1-x)], one dict entry at a time."""
    out = {lam: {} for lam in chars}
    for rho, c in f.items():
        for k in rho:
            c = padd(c, {key + k * step: -v for key, v in c.items()})
        for lam, chi in chars.items():
            acc, x = out[lam], chi.get(rho, 0)
            for key, v in c.items():
                acc[key] = acc.get(key, 0) + x * v
    return {lam: {k: v for k, v in acc.items() if v}
            for lam, acc in out.items()}


# signed integer polynomials in q and t, over several bytes per coefficient
qt_polys = st.dictionaries(
    st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(
        lambda e: KEY_ONE + e[0] * _DQ + e[1] * _DT),
    st.integers(-(1 << 70), 1 << 70).filter(bool), max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_twisted_schur_equals_the_dict_reference(data):
    n = data.draw(st.integers(0, 5))
    table = character_table(n)
    f = data.draw(st.dictionaries(st.sampled_from(list(table)), qt_polys))
    step = data.draw(st.sampled_from((_DQ, _DT)))
    kept = data.draw(st.sets(st.sampled_from(list(table))))
    chars = {lam: chi for lam, chi in table.items() if lam in kept}
    assert _twisted_schur(f, step, chars) == _twisted_schur_reference(
        f, step, chars)


@pytest.mark.parametrize("sign", [1, -1])
def test_twisted_schur_reads_a_digit_at_its_bound(sign):
    # in degree 0 nothing is twisted, and the digit 2^15 all but attains the
    # bound 2^15 + 1.  It sits next to -1, so that 16-bit slots, one bit
    # short, would read the pair as the one digit -2^15: the carry out of
    # the first slot would cancel the second
    f = {(): {KEY_ONE: sign << 15, KEY_ONE + _DT: -sign}}
    chars = {(): {(): 1}}
    for step in (_DQ, _DT):
        assert _twisted_schur(f, step, chars) == {(): f[()]}


def _certificate_error(n, rows, den):
    """The certificate's message on the degree-n table (rows, den), or
    None."""
    try:
        certify(n, rows, den)
    except ArithmeticError as e:
        return str(e)
    return None


def _doctored(rows, den, mu, rho, extra):
    """A copy of the degree-n rows with the Scalar extra, which has integer
    coefficients, added to H_mu,rho = rows[mu][rho] / den."""
    out = {lam: dict(row) for lam, row in rows.items()}
    out[mu][rho] = padd(out[mu].get(rho, {}), pmul_int(extra.num, den))
    return out


@pytest.mark.parametrize("n", range(5))
def test_one_stray_monomial_fails_the_certificate(monkeypatch, n):
    # for every (mu, rho), q t^2 added to the p_rho coefficient of H_mu;
    # the message names what the dict reference names
    rows, den = macd_H_hhl(n)
    stray = Scalar.monomial(t1=-4, t2=-8)
    for mu in rows:
        for rho in partitions(n):
            bad = _doctored(rows, den, mu, rho, stray)
            got = _certificate_error(n, bad, den)
            with monkeypatch.context() as m:
                m.setattr(macdonald, "_twisted_schur",
                          _twisted_schur_reference)
                want = _certificate_error(n, bad, den)
            assert got is not None and got == want, (mu, rho)


@pytest.mark.parametrize("extra", [
    Scalar.monomial(1 << 200, t1=-8, t2=-4),
    Scalar.monomial((1 << 120) - 1, t1=-8) - Scalar.monomial(t1=-8, t2=-4),
], ids=["huge", "adjacent_pair"])
def test_certificate_sees_coefficients_near_the_slot_bound(monkeypatch, extra):
    # the slot width comes from the doctored row itself; these terms set
    # its bound, and the pair sits in adjacent t-slots
    rows, den = macd_H_hhl(3)
    bad = _doctored(rows, den, (2, 1), (1, 1, 1), extra)
    f = bad[(2, 1)]
    chars = character_table(3)
    for step in (_DQ, _DT):
        assert _twisted_schur(f, step, chars) == _twisted_schur_reference(
            f, step, chars)
    got = _certificate_error(3, bad, den)
    with monkeypatch.context() as m:
        m.setattr(macdonald, "_twisted_schur", _twisted_schur_reference)
        assert got is not None and got == _certificate_error(3, bad, den)


def test_decompose_series_roundtrip():
    for n in (1, 2, 3):
        f = closed_F(n, 3).degree_slice(n)
        c = default_basis().decompose(f, n)
        total = FockElement.zero(n)
        for lam in partitions(n):
            total = total + macd_H(lam) * c[lam]
        assert total == f


def test_conjugation_duality():
    # H_{lam'} is H_lam with t1 and t2 exchanged
    for n in (1, 2, 3, 4):
        for lam in partitions(n):
            Hl, Hc = macd_H(lam), macd_H(conjugate(lam))
            for mu in partitions(n):
                assert swap_t(Hl.coefficient(mu)) == Hc.coefficient(mu)


def test_two_routes_agree():
    for n in (1, 2, 3):
        gs = macd_H_gram_schmidt(n)
        ax = macd_H_axioms(n)
        for lam in partitions(n):
            for mu in partitions(n):
                assert ax[lam].get(mu, ZERO) == gs[lam].get(mu, ZERO)


@pytest.mark.parametrize("n", range(6))
def test_hhl_is_the_axioms_basis_term_for_term(n):
    # identical canonical num/den dicts, not only equal values: the reports
    # and witnesses render them
    rows, _ = macd_H_hhl(n)
    basis, ax = MacdonaldBasis(), macd_H_axioms(n)
    assert list(rows) == list(ax) == partitions(n)
    for lam in ax:
        hhl = basis.H(lam).coeffs
        assert list(hhl) == list(ax[lam])
        for rho, v in ax[lam].items():
            assert (hhl[rho].num, hhl[rho].den) == (v.num, v.den)


def test_hhl_matches_gram_schmidt():
    basis = MacdonaldBasis()
    # n = 0 hands macd_P the empty Gram system
    for n in (0, 1, 2, 3, 4):
        gs = macd_H_gram_schmidt(n)
        for lam in partitions(n):
            hhl = basis.H(lam).coeffs
            for mu in partitions(n):
                assert hhl.get(mu, ZERO) == gs[lam].get(mu, ZERO)


def test_degree_six_basis_is_certified():
    # beyond the reach of the axioms route's solve, but not of the axioms.
    # The s_(6) coefficient of H_lam is the Hall pairing with
    # s_(6) = sum_rho p_rho / z_rho, the sum of its p-coefficients.
    rows, den = MacdonaldBasis().build_degree(6)
    for lam, row in rows.items():
        total = ZERO
        for v in row.values():
            total = total + Scalar(v, pconst(den))
        assert total == ONE


@pytest.mark.parametrize("n", range(7))
def test_hhl_rows_are_integer_polynomials_over_one_den(n):
    # each row's p-coefficients sum to den, the s_(n) coefficient 1, and
    # den, which is n!, is the least common denominator of every row
    rows, den = macd_H_hhl(n)
    assert type(den) is int and den == factorial(n)
    for lam, row in rows.items():
        coeffs = [c for v in row.values() for c in v.values()]
        assert all(type(c) is int for c in coeffs), lam
        assert reduce(padd, row.values(), {}) == pconst(den), lam
        assert gcd(den, *coeffs) == 1, lam


def kernel_exp(N):
    c = {k: Scalar.monomial(t1=4 * k, t2=4 * k)
         / (Scalar.from_int(k) * (ONE - T1 ** (2 * k)) * (ONE - T2 ** (2 * k)))
         for k in range(1, N + 1)}
    return exp_linear(c, N)


def test_kernel_identity_first_order():
    # H_(1) / Euler((1)) equals the y p_1 coefficient of the exponential
    lhs = default_basis().localization_sum(lambda lam: ONE, 1)
    assert lhs.coefficient((1,)) == ONE / euler_hilb((1,))
    assert lhs.coefficient((1,)) == kernel_exp(1).coefficient((1,))


def test_localization_sum_degree_zero():
    f = default_basis().localization_sum(lambda lam: ONE, 0)
    assert f.coefficient(()) == ONE


def test_decompose_basis_roundtrip():
    for n in (1, 2, 3):
        mu0 = partitions(n)[0]
        c = default_basis().decompose(macd_H(mu0), n)
        for lam in partitions(n):
            assert c[lam] == (ONE if lam == mu0 else ZERO)


def test_decompose_zero():
    from hilbvertex.fock import FockElement
    c = default_basis().decompose(FockElement.zero(2), 2)
    assert all(v.is_zero() for v in c.values())


def test_decompose_localization_roundtrip_random():
    for n in (1, 2, 3):
        eig = {lam: Scalar.from_int(rng.randint(1, 7)) for lam in partitions(n)}
        f = default_basis().localization_sum(lambda lam: eig[lam], n)
        c = default_basis().decompose(f, n)
        for lam in partitions(n):
            assert c[lam] == eig[lam] / euler_hilb(lam)


def test_degree_bound_guard():
    with pytest.raises(ValueError):
        MacdonaldBasis().build_degree(MAX_DEGREE + 1)


def _stored(pairings):
    return {lam: (p.num, p.den) for lam, p in pairings.items()}


@pytest.mark.parametrize("name", ["kernel", "mellit", "osum"])
def test_exp_pairings_equal_pairings_of_the_exponential(name):
    # identical canonical num/den, not only equal values: the witnesses of
    # the localization checks render them
    c = getattr(checks, f"{name}_exponents")(5)
    f = exp_linear(c, 5)
    basis = MacdonaldBasis()
    for n in range(6):
        assert _stored(basis.exp_pairings(c, n)) == _stored(
            basis.pairings(f, n))


def test_exp_pairings_with_a_missing_exponent():
    # as in exp_linear, a missing c_k is zero: every p_rho with a part k
    # drops out
    c = {k: v for k, v in checks.kernel_exponents(4).items() if k != 2}
    f = exp_linear(c, 4)
    basis = MacdonaldBasis()
    for n in range(5):
        assert _stored(basis.exp_pairings(c, n)) == _stored(
            basis.pairings(f, n))


def test_exp_pairings_of_the_closed_form():
    basis = MacdonaldBasis()
    for n in range(4):
        nz = n * (n + 1) + 2
        got = basis.exp_pairings(closed_exponents(n, nz), n)
        want = basis.pairings(closed_F(n, nz), n)
        assert list(got) == list(want) == partitions(n)
        for lam, p in want.items():
            # at n = 0 the empty product is the Scalar ONE: compare values
            assert isinstance(got[lam], Series) == (n > 0)
            assert got[lam] == p


def test_fixed_point_factors_are_cached_functions():
    # one value per process for each lam (and orientation), whichever basis
    # asks: the basis itself holds only the certified H_lam.  ratio
    # cancels factors and expands neither side: it is checked against the
    # expanded quotient
    assert vars(MacdonaldBasis()) == {"_H": {}}
    for n in range(8):
        for lam in partitions(n):
            assert norm(lam) is norm(lam)
            assert star_weight(lam) is star_weight(lam)
            for o in ("arms_t1", "arms_t2"):
                assert euler_hilb(lam, o) is euler_hilb(lam, o)
                assert ratio(lam, o) is ratio(lam, o)
                assert ratio(lam, o) == euler_hilb(lam, o) / norm(lam)


def test_the_pass_path_expands_no_fixed_point_factor():
    # ratio, and the localization checks that pass through it, call
    # neither euler_hilb nor norm: those expand only for witnesses
    for f in (euler_hilb, norm, ratio):
        f.cache_clear()
    for o in ("arms_t1", "arms_t2"):
        ratio((4, 2, 1), o)
    for check in (checks.check_kernel_identity, checks.check_mellit,
                  checks.check_osum):
        assert check(3).passed
    assert euler_hilb.cache_info().misses == 0
    assert norm.cache_info().misses == 0


def test_ratio_is_a_monomial_in_the_calibrated_orientation():
    # Euler(lam) / w_lam = t1^(2n(lam')) t2^(2n(lam)) in arms_t1, stored as
    # that monomial.  arms_t2, where the kernel check fails, is arms_t1 at
    # lam': it gives a monomial at the self-conjugate lam only
    for n in range(11):
        for lam in partitions(n):
            want = Scalar.monomial(t1=4 * n_stat(conjugate(lam)),
                                   t2=4 * n_stat(lam))
            got = ratio(lam, "arms_t1")
            assert (got.num, got.den) == (want.num, want.den)
            if lam != conjugate(lam):
                assert len(ratio(lam, "arms_t2").den) > 1


def test_localization_sum_in_either_orientation():
    basis = MacdonaldBasis()
    for o in ("arms_t1", "arms_t2"):
        f = basis.localization_sum(lambda lam: ONE, 3, o)
        c = basis.decompose(f, 3)
        for lam in partitions(3):
            assert c[lam] == ONE / euler_hilb(lam, o)


def _expand_p_mu(mu, nvars):
    """p_mu as a polynomial in nvars variables: {exponent tuple: int}."""
    poly = {(0,) * nvars: 1}
    for k in mu:
        new = {}
        for exps, c in poly.items():
            for i in range(nvars):
                e = exps[:i] + (exps[i] + k,) + exps[i + 1:]
                new[e] = new.get(e, 0) + c
        poly = new
    return poly


@pytest.mark.parametrize("n", range(7))
def test_p_to_m_counts_match_the_expansion(n):
    # m_to_p inverts the p-to-m counts of the brute-force expansion: sum_rho
    # m_to_p[lam][rho] p_rho, expanded in n variables, is n! m_lam, with
    # coefficient n! on every rearrangement of lam and 0 elsewhere
    nv = max(1, n)
    p = {rho: _expand_p_mu(rho, nv) for rho in partitions(n)}
    m2p = m_to_p(n)
    assert list(m2p) == partitions(n)
    for lam, row in m2p.items():
        assert all(type(c) is int for c in row.values()), lam
        got = {}
        for rho, c in row.items():
            for exps, v in p[rho].items():
                got[exps] = got.get(exps, 0) + c * v
        got = {exps: v for exps, v in got.items() if v}
        padded = tuple(lam) + (0,) * (nv - len(lam))
        assert got == {exps: factorial(n)
                       for exps in set(permutations(padded))}


def _hooks(lam):
    conj = conjugate(lam)
    return prod(lam[i] - j + conj[j] - i - 1
                for i in range(len(lam)) for j in range(lam[i]))


@pytest.mark.parametrize("n", range(1, 9))
def test_character_table_is_orthonormal(n):
    # chi by Murnaghan-Nakayama: rows orthonormal under sum_rho chi chi' /
    # z_rho, columns orthogonal with sum_lam chi(rho) chi(sigma) = z_rho
    # delta, chi^lam' = sign(rho) chi^lam, and chi^lam on the identity class
    # is the hook-length count f^lam
    chi = character_table(n)
    parts = partitions(n)
    for lam in parts:
        assert chi[lam].get((1,) * n, 0) == factorial(n) // _hooks(lam)
        for mu in parts:
            dot = sum(Fraction(chi[lam].get(rho, 0) * chi[mu].get(rho, 0),
                               z_mu(rho)) for rho in parts)
            assert dot == (lam == mu)
        for rho in parts:
            assert chi[conjugate(lam)].get(rho, 0) == (
                (-1) ** (n - len(rho)) * chi[lam].get(rho, 0))
    for rho in parts:
        for sigma in parts:
            dot = sum(chi[lam].get(rho, 0) * chi[lam].get(sigma, 0)
                      for lam in parts)
            assert dot == (z_mu(rho) if rho == sigma else 0)


def test_transition_tables_are_pinned():
    # the character tables and m_to_p for n = 0..MAX_DEGREE, nonzero entries
    # in sorted order, the m_lam coefficients (entries over n!) as reduced
    # num/den; a change of how the tables are computed leaves this text byte
    # for byte the same
    lines = []
    for n in range(MAX_DEGREE + 1):
        for lam, row in sorted(character_table(n).items()):
            lines += [f"chi {lam} {rho} {v}"
                      for rho, v in sorted(row.items()) if v]
        for lam, row in sorted(m_to_p(n).items()):
            lines += [f"m2p {lam} {rho} {c.numerator}/{c.denominator}"
                      for rho, v in sorted(row.items())
                      if (c := Fraction(v, factorial(n)))]
    text = "\n".join(lines).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "5af7a5f1df05abe809aa70706e0d0295d17e860209f8c63ee2f9690f0a7be4d2")
