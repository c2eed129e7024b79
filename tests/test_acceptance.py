"""Acceptance gate: every criterion at its stated order and exact tolerance.

Each test prints one pass/fail line with the measured wall time.  All
comparisons are exact (tolerance zero); the stated time budgets assume a
single laptop-class core.
"""

import random
import time

from hilbvertex.scalar import Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR
from hilbvertex.series import Series, rational_reconstruct
from hilbvertex.characters import partitions, size, fixed_points_rank2
from hilbvertex.fock import (FockElement, TensorFockElement, heis,
                             heis_denominator, jj0_substitute)
from hilbvertex.macdonald import (macd_H_axioms, macd_H_gram_schmidt)
from hilbvertex import checks

rng = random.Random(2026)


def report(num, label, t0, budget, ok):
    took = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} in {took:.1f}s "
          f"(budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert took <= budget, f"criterion {num} exceeded {budget}s ({took:.1f}s)"


def test_criterion_01_kernel_identity():
    t0 = time.time()
    rep = checks.check_kernel_identity(5)
    assert len([lam for n in range(6) for lam in partitions(n)]) == 19
    report(1, "kernel identity y<=5", t0, 60, rep.passed)


def test_criterion_02_mellit_generating_function():
    t0 = time.time()
    rep = checks.check_mellit(4)
    report(2, "descendent series y<=4, symbolic u", t0, 120, rep.passed)


def test_criterion_03_structure_sheaf_series():
    t0 = time.time()
    rep = checks.check_osum(5)
    ok = rep.passed and "sign_transport" in rep.conventions
    report(3, "structure-sheaf series y<=5", t0, 60, ok)


def test_criterion_04_main_theorem_shift_search():
    t0 = time.time()
    rep = checks.check_main(4, 6)
    d = rep.details
    ok = (rep.passed
          and len(d["matches"]) == 1
          and "matches_printed_claim" in d)
    report(4, "main formula shift search (4,6)", t0, 600, ok)


def test_criterion_05_plethystic_form():
    t0 = time.time()
    rep = checks.check_ook(4, 6)
    report(5, "plethystic exponential form (4,6)", t0, 120, rep.passed)


def test_criterion_06_rationality():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        B = n * (n + 1) // 2
        table = checks.capped_vertex_table(n)
        ok = ok and table.certified_order == 2 * B + 2
        cand = checks.candidate_denominator(n)
        F = checks.closed_F(n, 2 * B + 2)
        from hilbvertex.macdonald import default_basis, euler_hilb
        coeffs = default_basis().decompose(F.degree_slice(n), n)
        for lam in partitions(n):
            num, den = table.entries[lam]
            # independent re-expansion certificate through all orders
            series = coeffs[lam] * euler_hilb(lam)
            nz = series.nz
            den_s = Series({(0, j): c for j, c in den.items()}, 0, nz)
            num_s = Series({(0, j): c for j, c in num.items()}, 0, nz)
            ok = ok and (den_s * series == num_s)
            ok = ok and max(den) <= B and max(num, default=0) <= B
            ok = ok and checks._divides_zpoly(den, cand)
        ok = ok and table.q_free
    report(6, "rationality of vertex tables n<=3", t0, 300, ok)


def test_criterion_07_degenerate_slice():
    t0 = time.time()
    rep = checks.check_degenerate_slice(5)
    report(7, "u=0,z=0 slice equals kernel exponential", t0, 120, rep.passed)


def test_criterion_08_limit_propositions():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        for k in range(0, n + 1):
            ok = ok and checks.check_prop4(n, k).passed
    assert len(fixed_points_rank2(3)) * 3 == 30
    rep = checks.check_prop1(3)
    ok = ok and rep.passed
    ok = ok and any(d["a_power"] == "n" for d in rep.details["validated"])
    ok = ok and "a^n" in rep.details["a_power_resolution"]
    report(8, "limit statements n<=3", t0, 120, ok)


def test_criterion_09_operator_algebra():
    t0 = time.time()
    ok = True
    for k in range(1, 5):
        coeffs = {}
        for n in range(7):
            for mu in partitions(n):
                if rng.random() < 0.6:
                    c = Scalar.from_int(rng.randint(-3, 3))
                    if not c.is_zero():
                        coeffs[mu] = c
        f = FockElement(coeffs, 6 + k)
        comm = heis(k, heis(-k, f)) - heis(-k, heis(k, f))
        ok = ok and comm == f * (Scalar.from_int(k) / heis_denominator(k))

    def rand_tensor():
        out = {}
        for n1 in range(5):
            for mu1 in partitions(n1):
                for n2 in range(5 - n1):
                    for mu2 in partitions(n2):
                        if rng.random() < 0.25:
                            s = Series({(0, rng.randint(0, 4)):
                                        Scalar.from_int(rng.randint(-2, 2))},
                                       0, 4)
                            if not s.is_zero():
                                out[(mu1, mu2)] = s
        return TensorFockElement(out, 4)

    for _ in range(50):
        a, b = rand_tensor(), rand_tensor()
        ok = ok and jj0_substitute(a * b) == \
            jj0_substitute(a) * jj0_substitute(b)
    report(9, "Heisenberg commutator and substitution algebra", t0, 300, ok)


def test_criterion_10_engine_properties():
    t0 = time.time()
    ok = True

    def rand_scalar():
        s = ZERO
        for _ in range(rng.randint(1, 3)):
            term = Scalar.from_int(rng.randint(-3, 3))
            for v in ("t1", "t2", "u"):
                term = term * Scalar.var(v) ** rng.randint(-1, 1)
            s = s + term
        return s

    # exp/log roundtrip on 100 random series within truncation (4,6)
    for _ in range(100):
        ny, nz = rng.randint(1, 4), rng.randint(1, 6)
        coeffs = {}
        for iy in range(ny + 1):
            for iz in range(nz + 1):
                if (iy, iz) != (0, 0) and rng.random() < 0.3:
                    c = Scalar.from_int(rng.randint(-2, 2))
                    if not c.is_zero():
                        coeffs[(iy, iz)] = c
        f = Series(coeffs, ny, nz)
        ok = ok and f.exp().log() == f

    # Adams multiplicativity on 100 random scalar pairs
    for _ in range(100):
        x, y = rand_scalar(), rand_scalar()
        k = rng.randint(1, 4)
        ok = ok and (x * y).adams(k) == x.adams(k) * y.adams(k)

    # geometric-series inverse on 100 random series
    for _ in range(100):
        ny, nz = rng.randint(0, 3), rng.randint(1, 5)
        coeffs = {}
        for iy in range(ny + 1):
            for iz in range(nz + 1):
                if (iy, iz) != (0, 0) and rng.random() < 0.35:
                    c = Scalar.from_int(rng.randint(-2, 2))
                    if not c.is_zero():
                        coeffs[(iy, iz)] = c
        g = Series(coeffs, ny, nz)
        ok = ok and (Series.one(ny, nz) - g) * g.geom() == Series.one(ny, nz)

    # rational reconstruction roundtrip on 100 random instances
    for _ in range(100):
        dn, dd = rng.randint(0, 2), rng.randint(0, 2)
        num = {}
        for j in range(dn + 1):
            c = Scalar.from_int(rng.randint(-3, 3))
            if not c.is_zero():
                num[j] = c
        den = {0: ONE}
        for j in range(1, dd + 1):
            c = Scalar.from_int(rng.randint(-2, 2))
            if not c.is_zero():
                den[j] = c * T2 ** rng.randint(0, 1)
        orders = dn + dd + 2
        inv = Series({(0, j): c for j, c in den.items()}, 0, orders).inverse()
        s = Series.zero(0, orders)
        for j, c in num.items():
            s = s + Series.term(c, 0, j, 0, orders) * inv
        got_num, got_den = rational_reconstruct(s, dn, dd)
        den_s = Series({(0, j): c for j, c in got_den.items()}, 0, orders)
        num_s = Series({(0, j): c for j, c in got_num.items()}, 0, orders)
        ok = ok and den_s * s == num_s

    # dual Macdonald construction agreement for |lam| <= 4
    for n in (1, 2, 3, 4):
        ax = macd_H_axioms(n)
        gs = macd_H_gram_schmidt(n)
        for lam in partitions(n):
            for mu in partitions(n):
                ok = ok and ax[lam].get(mu, ZERO) == gs[lam].get(mu, ZERO)
    report(10, "engine properties and dual construction", t0, 120, ok)
