import hashlib
import itertools
import random

import pytest

from hilbvertex.scalar import (Scalar, ZERO, ONE, T1, T2, Q, A, HBAR, padd,
                               decode, encode)
from hilbvertex.characters import (partitions, conjugate, size, boxes, arm,
                                   leg, taut_character, tangent_hilb,
                                   polarization_M2, tangent_M2, delta_11,
                                   o_line_eigen, chern_eigen,
                                   fixed_points_rank2, framing_M2,
                                   from_weights, dual, a_part, det,
                                   elementary, lambda_dot)
from hilbvertex.macdonald import euler_hilb

rng = random.Random(515)


def rank(ch):
    return sum(ch.values())


def weight_set(ch):
    out = []
    for k, m in ch.items():
        out.extend([Scalar({k: 1}).render()] * abs(m))
    return sorted(out)


def test_partitions_examples():
    assert partitions(0) == [()]
    assert len(partitions(4)) == 5
    assert partitions(2) == [(2,), (1, 1)]
    # reverse-lexicographic order is deterministic
    assert partitions(4)[0] == (4,)
    assert partitions(4)[-1] == (1, 1, 1, 1)


def test_taut_character_examples():
    V = taut_character(((1,),), (ONE,))
    assert weight_set(V) == ["1"]
    V = taut_character(((2,),), (ONE,))
    # frozen row/column convention: columns carry t1
    assert weight_set(V) == sorted(["1", "t1"])
    V = taut_character(((1,), (1,)), (ONE, A))
    assert weight_set(V) == sorted(["1", "a"])


def test_box_keys_match_the_weight_products():
    # the keys built from the t1 and t2 steps are those of the monomials
    # framing * t1^col * t2^row, in the same order
    for lams, framing in (((3, 1),), (ONE,)), (((2, 2), (1,)), (HBAR, A)):
        want = from_weights(
            fr * T1 ** c * T2 ** r
            for lam, fr in zip(lams, framing) for (r, c) in boxes(lam))
        got = taut_character(lams, framing)
        assert list(got.items()) == list(want.items())
    for lam in ((3, 1), (2, 2, 1)):
        want = from_weights(
            w for (r, c) in boxes(lam)
            for w in (T1 ** (arm(lam, r, c) + 1) * T2 ** -leg(lam, r, c),
                      T1 ** -arm(lam, r, c) * T2 ** (leg(lam, r, c) + 1)))
        got = tangent_hilb(lam, "arms_t1")
        assert list(got.items()) == list(want.items())


def test_tangent_hilb_examples():
    assert weight_set(tangent_hilb((1,), "arms_t1")) == sorted(["t1", "t2"])
    assert weight_set(tangent_hilb((2,), "arms_t1")) == sorted(
        ["t1^2", "(t2) / (t1)", "t1", "t2"])
    for n in range(7):
        for lam in partitions(n):
            assert rank(tangent_hilb(lam, "arms_t1")) == 2 * size(lam)


def test_tangent_swap_conjugate_symmetry():
    # swapping t1 <-> t2 matches conjugating the partition
    def swapped(ch):
        out = {}
        for k, m in ch.items():
            e = list(decode(k))
            e[0], e[1] = e[1], e[0]
            out[encode(tuple(e))] = m
        return out
    for n in range(7):
        for lam in partitions(n):
            got = swapped(tangent_hilb(lam, "arms_t1"))
            assert got == tangent_hilb(conjugate(lam), "arms_t1")
            assert got == tangent_hilb(lam, "arms_t2")
    with pytest.raises(ValueError):
        tangent_hilb((1,), "arms_t3")


def test_lambda_dot_examples():
    c1 = from_weights([T1])
    assert lambda_dot(c1) == ONE - T1.inverse()
    c2 = from_weights([T1, T2])
    assert lambda_dot(c2) == (ONE - T1.inverse()) * (ONE - T2.inverse())
    # monoid homomorphism
    assert lambda_dot(padd(c1, c2)) == lambda_dot(c1) * lambda_dot(c2)
    with pytest.raises(ValueError):
        lambda_dot(from_weights([ONE]))


def test_character_duality_and_det():
    for _ in range(10):
        ws = [T1 ** rng.randint(-2, 2) * T2 ** rng.randint(-2, 2) * A
              for _ in range(rng.randint(1, 4))]
        c = from_weights(ws)
        assert dual(dual(c)) == c
        d = from_weights([T2, Q])
        assert det(padd(c, d)) == det(c) * det(d)


def test_polarization_examples():
    assert polarization_M2((), (), "proof") == {}
    pol = polarization_M2((), (1,), "proof")
    assert weight_set(pol) == sorted([(HBAR / A).render(), HBAR.render()])


def test_tangent_M2_rank_and_fixed_part():
    for n in (1, 2, 3):
        for (l1, l2) in fixed_points_rank2(n):
            T = tangent_M2(l1, l2, "canonical")
            assert rank(T) == 4 * n
            assert a_part(T, 0) == padd(tangent_hilb(l1, "arms_t1"),
                                        tangent_hilb(l2, "arms_t1"))


def test_four_term_polarization_is_rank_deficient():
    # the displayed four-term half has rank 2n - n^2, not 2n; kept only for
    # the empirical comparison in the limit check
    pol = polarization_M2((1,), (1,), "four_term")
    assert rank(pol) != 2 * 2


def test_o_line_examples():
    assert o_line_eigen((1,), (), "full") == A.inverse()
    assert o_line_eigen((), (2,), "full") == T1.inverse()
    assert o_line_eigen((), ()) == ONE
    with pytest.raises(ValueError):
        o_line_eigen((1,), (), "third")


def test_chern_examples():
    assert chern_eigen(((1,),), (ONE,), 0) == ONE
    assert chern_eigen(((1,),), (ONE,), 1) == ONE
    assert chern_eigen(((1,), (1,)), (ONE, A), 2) == A
    with pytest.raises(ValueError):
        chern_eigen(((1,),), (ONE,), 2)


def test_elementary_refuses_a_negative_index():
    # as chern_eigen does; a list index from the end would give e_(r+1+k)
    # or run off the list
    ch = taut_character(((2, 1),), (ONE,))
    assert elementary(ch, 4) == ZERO
    for k in (-1, -2, -5):
        with pytest.raises(ValueError, match=f"chern index {k} out of range"):
            elementary(ch, k)


def _chern_by_scalar_convolution(lams, framing, k):
    ws = []
    for key, m in sorted(taut_character(lams, framing).items()):
        ws.extend([Scalar({key: 1})] * m)
    e = [ONE] + [ZERO] * k
    for w in ws:
        for j in range(k, 0, -1):
            e[j] = e[j] + e[j - 1] * w
    return e[k]


def test_chern_matches_scalar_convolution():
    for n in range(4):
        cases = [((lam,), (ONE,)) for lam in partitions(n)]
        cases += [(pair, (ONE, A)) for pair in fixed_points_rank2(n)]
        for lams, framing in cases:
            for k in range(n + 1):
                assert chern_eigen(lams, framing, k) == \
                    _chern_by_scalar_convolution(lams, framing, k)


def test_chern_matches_the_elementary_symmetric_sum():
    # e_k summed over k-subsets of the box weights, one diagram or two
    for n in range(6):
        cases = [((lam,), (ONE,)) for lam in partitions(n)]
        cases += [(pair, (ONE, A)) for pair in fixed_points_rank2(n)]
        for lams, framing in cases:
            ws = [Scalar({key: 1}) for key, m in
                  taut_character(lams, framing).items()
                  for _ in range(m)]
            for k in range(n + 1):
                want = ZERO
                for subset in itertools.combinations(ws, k):
                    term = ONE
                    for x in subset:
                        term = term * x
                    want = want + term
                assert chern_eigen(lams, framing, k) == want


def test_delta_trivial():
    assert delta_11((), ()) == ONE
    assert delta_11((), (), "four_term") == ONE


def test_delta_is_monomial_times_koszul():
    # proof variant at ((1),()): hbar^-1 * (1 - a)
    d = delta_11((1,), (), "proof")
    assert d == HBAR.inverse() * (ONE - A)


def test_framing_splits_first_summand():
    fr = framing_M2()
    assert fr[0] == A and fr[1] == ONE


def test_fixed_point_values_are_pinned():
    # every value of the rank-2 fixed-point data for n <= 3, both delta
    # variants included, and the Hilbert-scheme Euler classes for |lam| <= 5
    lines = []
    for n in range(4):
        for l1, l2 in fixed_points_rank2(n):
            for v in ("proof", "four_term"):
                lines.append(f"delta_11 {l1} {l2} {v}: "
                             f"{delta_11(l1, l2, v).render()}")
            for w in ("full", "first"):
                lines.append(f"o_line_eigen {l1} {l2} {w}: "
                             f"{o_line_eigen(l1, l2, w).render()}")
            for k in range(n + 1):
                lines.append(f"chern_eigen {l1} {l2} {k}: "
                             f"{chern_eigen((l1, l2), (ONE, A), k).render()}")
    for n in range(6):
        for lam in partitions(n):
            for o in ("arms_t1", "arms_t2"):
                lines.append(f"euler_hilb {lam} {o}: "
                             f"{euler_hilb(lam, o).render()}")
    assert len(lines) == 170
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "1852649a416183422b758d9afbf6a959e9bde49d0943d639e07adccbf02a5520"
