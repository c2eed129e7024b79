"""The rank-2 a -> 0 limits, decided on weights, against the Scalar route.

check_prop1 and check_prop4 decide their limits on the packed weight keys of
the characters.  The references below decide them on expanded Scalars:
delta_11 inverted and multiplied out before Scalar.a_limit, and
chern_eigen(...).a_limit().  Every report's details must be the same, on the
true characters and on doctored ones (the negative controls).
"""

import pytest

from hilbvertex import characters, checks
from hilbvertex.characters import (chern_eigen, delta_11, fixed_points_rank2,
                                   o_line_eigen, size)
from hilbvertex.checks import (PROP1_POWERS, PROP1_VARIANTS, check_prop1,
                               check_prop4, check_prop4_through)
from hilbvertex.scalar import (A, HBAR, ONE, ZERO, KEY_ONE, LimitError,
                               key_var, padd)


def prop1_reference(n):
    """check_prop1's details by the Scalar route."""
    pairs, witnesses = {}, {}
    for variant in PROP1_VARIANTS:
        for pname in PROP1_POWERS:
            p = n if pname == "n" else 2 * n
            ok = True
            for (l1, l2) in fixed_points_rank2(n):
                rhs = HBAR ** (n + size(l2)) * o_line_eigen(l1, l2, "first")
                try:
                    val = (delta_11(l1, l2, variant).inverse()
                           * o_line_eigen(l1, l2) * A ** p)
                    lim = val.a_limit()
                except LimitError as e:
                    ok = False
                    witnesses[(variant, pname)] = {
                        "fixed_point": [list(l1), list(l2)],
                        "outcome": "limit-nonexistent",
                        "a_valuation": str(e.valuation)}
                    break
                if lim != rhs:
                    ok = False
                    witnesses[(variant, pname)] = {
                        "fixed_point": [list(l1), list(l2)],
                        "limit": lim.render(), "expected": rhs.render()}
                    break
            pairs[(variant, pname)] = ok
    validated = [{"variant": v, "a_power": p}
                 for (v, p), ok in pairs.items() if ok]
    return {
        "validated": validated,
        "failures": {f"{v},{p}": w for (v, p), w in witnesses.items()},
        "a_power_resolution": ("the limit exists with a^n as in the proof, "
                               "not a^(2n) as stated"
                               if any(d["a_power"] == "n" for d in validated)
                               else "no a^n validation"),
    }


def prop4_reference(n, k):
    """check_prop4's (outcome, details) by the Scalar route."""
    points = fixed_points_rank2(n)
    for (l1, l2) in points:
        val = chern_eigen((l1, l2), (ONE, A), k).a_limit()
        want = chern_eigen((l1,), (ONE,), k) if k <= size(l1) else ZERO
        if val != want:
            return "mismatch", {"fixed_point": [list(l1), list(l2)], "k": k,
                                "limit": val.render(),
                                "expected": want.render()}
    return "exact-match", {"n": n, "k": k, "fixed_points": len(points)}


def prop4_through_reference(n):
    """check_prop4_through's (outcome, orders, details) as check_prop4 once
    per k: the first failing k's report, or the last one with the k
    checked."""
    for k in range(n + 1):
        rep = check_prop4(n, k)
        if not rep.passed:
            return rep.outcome, rep.orders, rep.details
    return (rep.outcome, rep.orders,
            dict(rep.details, k_checked=list(range(n + 1))))


def _outcomes(*runs):
    """Each run's result, or the type of the error it raised."""
    out = []
    for run in runs:
        try:
            out.append(run())
        except (ArithmeticError, ValueError) as e:
            out.append(type(e))
    return out


def _prop4_both(n, k):
    """(weights, reference) for one k, each as (outcome, details)."""
    def weights():
        rep = check_prop4(n, k)
        return rep.outcome, rep.details
    return _outcomes(weights, lambda: prop4_reference(n, k))


def _through_both(n):
    """(one pass, per-k loop) for check_prop4_through(n), each as (outcome,
    orders, details)."""
    def one_pass():
        rep = check_prop4_through(n)
        return rep.outcome, rep.orders, rep.details
    return _outcomes(one_pass, lambda: prop4_through_reference(n))


@pytest.mark.parametrize("n", range(9))
def test_prop1_matches_the_scalar_route(n):
    assert check_prop1(n).details == prop1_reference(n)


@pytest.mark.parametrize("n", range(9))
def test_prop4_matches_the_scalar_route_at_every_k(n):
    for k in range(n + 1):
        weights, reference = _prop4_both(n, k)
        assert weights == reference, k


@pytest.mark.parametrize("n", range(11))
def test_prop4_through_matches_the_per_k_loop(n):
    one_pass, loop = _through_both(n)
    assert one_pass == loop


@pytest.mark.parametrize("n", [0, 3, 6])
def test_prop4_through_builds_each_character_once(monkeypatch, n):
    # one pass: the fixed points once, two characters per fixed point, and
    # no report per k
    calls = {"fixed_points_rank2": 0, "taut_character": 0}
    for name in calls:
        def counted(*args, real=getattr(checks, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(checks, name, counted)
    monkeypatch.setattr(checks, "check_prop4",
                        lambda *args: pytest.fail("check_prop4 was called"))
    assert check_prop4_through(n).passed
    assert calls == {"fixed_points_rank2": 1,
                     "taut_character": 2 * len(fixed_points_rank2(n))}


@pytest.mark.parametrize("n, k", [(2, 3), (2, -1), (0, 1)])
def test_prop4_refuses_a_chern_index_out_of_range(n, k):
    with pytest.raises(ValueError, match=f"chern index {k} out of range"):
        check_prop4(n, k)


T1_KEY = key_var("t1")
A_INV_KEY = key_var("a", -2)


def test_prop1_meets_a_surviving_a_free_weight(monkeypatch):
    # N^- is the a-negative part (a_part), so no doctored polarization can
    # put an a-free weight into it; here N^- (and T^1/2_{a<0}) gain t1, and
    # 1 / (1 - t1^-1) survives the limit, which is then no monomial
    real = characters.a_part

    def doctored(ch, sign):
        part = real(ch, sign)
        return padd(part, {T1_KEY: 1}) if sign < 0 and part else part
    monkeypatch.setattr(characters, "a_part", doctored)
    for n in range(1, 4):
        details = check_prop1(n).details
        assert details == prop1_reference(n)
        assert details["validated"] == []
        assert "/ (" in details["failures"]["proof,n"]["limit"]


def test_prop1_meets_a_pole(monkeypatch):
    # the half tangent gains the weight a^-1, so det T^1/2_{a<0} and the
    # value at a^n gain a pole of order 1
    real = characters.polarization_M2
    monkeypatch.setattr(characters, "polarization_M2",
                        lambda *args: padd(real(*args), {A_INV_KEY: 1}))
    for n in range(1, 4):
        details = check_prop1(n).details
        assert details == prop1_reference(n)
        assert details["failures"]["proof,n"]["a_valuation"] == "-1"


def test_prop1_meets_an_a_positive_weight_in_n_minus(monkeypatch):
    # N^- (and T^1/2_{a<0}) gain u = a t1, whose factor 1 / (1 - u^-1)
    # leads with -u; two copies of a^-1 in the half tangent bring the
    # a-exponent back to 0, so the witness shows the sign and the monomial
    real_part, real_half = characters.a_part, characters.polarization_M2
    u = key_var("a") + T1_KEY - KEY_ONE

    def doctored(ch, sign):
        part = real_part(ch, sign)
        return padd(part, {u: 1}) if sign < 0 and part else part
    monkeypatch.setattr(characters, "a_part", doctored)
    monkeypatch.setattr(characters, "polarization_M2",
                        lambda *args: padd(real_half(*args), {A_INV_KEY: 2}))
    for n in range(1, 4):
        details = check_prop1(n).details
        assert details == prop1_reference(n)
        assert details["failures"]["proof,n"]["limit"].startswith("-t1^")


@pytest.mark.parametrize("extra", [key_var("t2", 14), KEY_ONE,
                                   A_INV_KEY + T1_KEY - KEY_ONE],
                         ids=["new_a_free", "repeated_a_free", "a_negative"])
def test_prop4_meets_doctored_weights(monkeypatch, extra):
    # two-diagram characters gain an a-free weight, so X is not lam1's
    # weights (a new key, or the box weight 1 of lam1 twice), or a weight of
    # negative a-exponent, so a_limit decides
    real = characters.taut_character

    def doctored(lams, framing):
        ch = real(lams, framing)
        return padd(ch, {extra: 1}) if len(lams) == 2 else ch
    monkeypatch.setattr(characters, "taut_character", doctored)
    monkeypatch.setattr(checks, "taut_character", doctored)
    outcomes = set()
    for n in range(4):
        one_pass, loop = _through_both(n)
        assert one_pass == loop, n
        for k in range(n + 1):
            weights, reference = _prop4_both(n, k)
            assert weights == reference, (n, k)
            outcomes.add(weights if isinstance(weights, type)
                         else weights[0])
    assert len(outcomes) > 1


def test_prop4_through_names_the_first_failing_k(monkeypatch):
    # at n = 3 the fixed point ((2, 1), ()) comes before ((1,), (2,)).  The
    # first gains a weight of multiplicity 0, so it is open with every e_k
    # unchanged, and a doctored elementary is off by 1 there at k = 3 only;
    # the second gains an a-free weight, which fails at k = 1 and passes at
    # k = 3.  The witness is the smaller k, at the later fixed point.
    mark, extra = key_var("t2", 14), key_var("t1", 14)
    real_char, real_e = checks.taut_character, checks.elementary

    def doctored_char(lams, framing):
        ch = real_char(lams, framing)
        if lams == ((2, 1), ()):
            return {**ch, mark: 0}
        return padd(ch, {extra: 1}) if lams == ((1,), (2,)) else ch

    def doctored_e(weights, k):
        e = real_e(weights, k)
        return e + ONE if mark in weights and k == 3 else e
    monkeypatch.setattr(checks, "taut_character", doctored_char)
    monkeypatch.setattr(checks, "elementary", doctored_e)
    assert check_prop4(3, 3).details["fixed_point"] == [[2, 1], []]
    assert check_prop4(3, 1).details["fixed_point"] == [[1], [2]]
    one_pass, loop = _through_both(3)
    assert one_pass == loop
    assert one_pass == ("mismatch", {"n": 3, "k": 1},
                        check_prop4(3, 1).details)
