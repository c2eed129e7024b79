"""Partitions, torus characters, and fixed-point data for Hilb^n and M(n,2).

Partitions are plain tuples of weakly decreasing positive integers.  Boxes
are zero-based (row, col) pairs; the one-based (i, j) of the rank-2 geometry
displays is (row+1, col+1).

A torus character is an integer Laurent polynomial in the torus weights,
held as the plain dict {packed key: multiplicity} of scalar.py's polynomial
layer.  Sums and tensor products are padd, psub and pmul, and the dual and
the Adams operations are padams; det and the K-theoretic Euler class
lambda_dot turn a character into a Scalar.

Frozen conventions (calibrated once against the Fock-space identities, see
checks.calibrate):
  - box weight: phi(box) = framing * t1^col * t2^row;
  - Hilbert-scheme tangent orientation pairs t1 with arms:
        T_lam = sum_box t1^(arm+1) t2^(-leg) + t1^(-arm) t2^(leg+1);
  - on M(n,2) the splitting torus scales the *first* framing summand by a,
    matching the line-bundle eigenvalue a^(-|lam1|) * prod t1^(1-j) t2^(1-i);
    check_prop4 takes the swap (1, a), whose c_k limit is lam1's, not lam2's.
"""

from collections import Counter

from .scalar import (Scalar, ONE, T2, A, HBAR, KEY_ONE, VARIABLES, decode,
                     encode, key_exp, key_var, key_inv, padd, psub, pmul,
                     ppow, padams, pone)

_A_INDEX = VARIABLES.index("a")
# key steps of the weights t1 and t2: t1^i t2^j is KEY_ONE + i*_DT1 + j*_DT2
_DT1 = key_var("t1") - KEY_ONE
_DT2 = key_var("t2") - KEY_ONE
_DHBAR = _DT1 + _DT2


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partitions(n, max_part=None):
    """All partitions of n in reverse-lexicographic order, as tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            out.append((k,) + rest)
    return out


def size(lam):
    return sum(lam)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > c) for c in range(lam[0]))


def boxes(lam):
    """Zero-based (row, col) boxes of the diagram."""
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            yield (r, c)


def arm(lam, r, c):
    return lam[r] - c - 1


def leg(lam, r, c):
    cnt = 0
    for rr in range(r + 1, len(lam)):
        if lam[rr] > c:
            cnt += 1
    return cnt


def n_stat(lam):
    """n(lam) = sum_i (i-1) lam_i, zero-based rows weighted by index."""
    return sum(i * part for i, part in enumerate(lam))


def dominates(lam, mu):
    """Partial order: lam >= mu in dominance (same size assumed)."""
    s1 = s2 = 0
    for i in range(max(len(lam), len(mu))):
        s1 += lam[i] if i < len(lam) else 0
        s2 += mu[i] if i < len(mu) else 0
        if s1 < s2:
            return False
    return True


def fixed_points_rank2(n):
    """Partition pairs (lam1, lam2) with |lam1|+|lam2| = n, deterministic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for n1 in range(n, -1, -1):
        second = partitions(n - n1)
        out += [(lam1, lam2) for lam1 in partitions(n1) for lam2 in second]
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def _weight_key(w):
    """Packed key of a monomial Scalar weight."""
    if isinstance(w, int):
        if w != 1:
            raise ValueError("integer weight must be 1")
        return KEY_ONE
    if not w.is_monomial():
        raise ValueError("weight must be a monomial")
    (kn, cn), = w.num.items()
    (kd, cd), = w.den.items()
    if cn != cd:
        raise ValueError("weight must have coefficient 1")
    return kn - kd + KEY_ONE


def from_weights(ws):
    """Torus character of an iterable of monomial Scalars, each once."""
    return dict(Counter(map(_weight_key, ws)))


def dual(ch):
    """Invert every weight: the Adams operation with n = -1."""
    return padams(ch, -1)


def scale(ch, w):
    """Multiply every weight by a monomial Scalar."""
    return pmul(ch, {_weight_key(w): 1})


def a_part(ch, sign):
    """Sub-character with a-exponent <0, ==0 or >0 according to sign."""
    sign = (sign > 0) - (sign < 0)
    return {k: m for k, m in ch.items()
            if ((e := key_exp(k, _A_INDEX)) > 0) - (e < 0) == sign}


def _det_key(ch):
    # k - KEY_ONE is linear in the exponents of k, so keys multiply by
    # adding, as in pmul
    return KEY_ONE + sum(m * (k - KEY_ONE) for k, m in ch.items())


def det(ch):
    """Product of weights with multiplicity, a monomial Scalar."""
    return Scalar({_det_key(ch): 1})


def lambda_dot(ch):
    """K-theoretic Euler class prod (1 - w^{-1})^mult as a Scalar.

    Positive multiplicities go to the numerator, negative ones to the
    denominator; the empty character gives ONE.
    """
    if KEY_ONE in ch:
        raise ValueError("trivial weight has no Koszul factor")
    num, den = pone(), pone()
    for k, m in ch.items():
        f = ppow({KEY_ONE: 1, key_inv(k): -1}, abs(m))
        if m > 0:
            num = pmul(num, f)
        else:
            den = pmul(den, f)
    return Scalar(num, den)


def lambda_dot_a_lead(ch):
    """(sign, key, rest): the lowest a-order term of lambda_dot(ch) is
    sign * x^key * lambda_dot(rest).  Weight by weight, 1 - w^-1 tends to 1
    when w has negative a-exponent, leads with -w^-1 when it is positive,
    and survives in rest when w is a-free; key's a-exponent is the
    a-valuation of lambda_dot(ch)."""
    if KEY_ONE in ch:
        raise ValueError("trivial weight has no Koszul factor")
    sign, key = 1, KEY_ONE
    for k, m in a_part(ch, 1).items():
        sign, key = -sign if m % 2 else sign, key - m * (k - KEY_ONE)
    return sign, key, a_part(ch, 0)


# ---------------------------------------------------------------------------
# fixed-point data
# ---------------------------------------------------------------------------

def taut_character(lams, framing):
    """Tautological bundle character: sum over boxes of framing * t1^col * t2^row."""
    if len(framing) != len(lams):
        raise ValueError("need one framing weight per partition")
    d = {}
    for lam, fr in zip(lams, framing):
        row = _weight_key(fr)
        for row_len in lam:
            for k in range(row, row + row_len * _DT1, _DT1):
                d[k] = d.get(k, 0) + 1
            row += _DT2
    return d


def tangent_hilb(lam, orientation):
    """Tangent character of Hilb^|lam| at the fixed point lam.

    orientation chooses which axis pairs with arm lengths; "arms_t1" is the
    calibrated choice (the unique one under which the Fock-space kernel
    identity holds, see checks.calibrate).  "arms_t2" swaps t1 and t2, which
    is "arms_t1" at the conjugate partition.
    """
    if orientation == "arms_t2":
        lam = conjugate(lam)
    elif orientation != "arms_t1":
        raise ValueError(f"unknown orientation {orientation!r}")
    d = {}
    for (r, c) in boxes(lam):
        a_, l_ = arm(lam, r, c), leg(lam, r, c)
        for (e1, e2) in ((a_ + 1, -l_), (-a_, l_ + 1)):
            k = KEY_ONE + e1 * _DT1 + e2 * _DT2
            d[k] = d.get(k, 0) + 1
    return d


def framing_M2():
    """Framing weights of M(n,2): the splitting torus scales the first summand."""
    return (A, ONE)


def polarization_M2(lam1, lam2, variant="canonical"):
    """Half-tangent character of M(n,2) at ((lam1, lam2)).

    variant:
      "canonical"  W (x) V* + (t2 - 1) V* (x) V — a true polarization: its
                   completion T^(1/2) + hbar dual restricts on the a-trivial
                   part to the two Hilbert-scheme tangents;
      "four_term"  W* (x) V + (1/t2 - 1/hbar - 1) V* (x) V as displayed in
                   the source normalization (rank-deficient, kept for the
                   empirical comparison);
      "proof"      hbar W* (x) V, the simplified form used by the a->0 limit
                   argument.
    """
    framing = framing_M2()
    V = taut_character((lam1, lam2), framing)
    W = from_weights(framing)
    if variant == "proof":
        return scale(pmul(dual(W), V), HBAR)
    Vs = dual(V)
    VsV = pmul(Vs, V)
    if variant == "canonical":
        return psub(padd(pmul(W, Vs), scale(VsV, T2)), VsV)
    if variant == "four_term":
        return psub(psub(padd(pmul(dual(W), V), scale(VsV, T2.inverse())),
                         scale(VsV, HBAR.inverse())), VsV)
    raise ValueError(f"unknown polarization variant {variant!r}")


def tangent_M2(lam1, lam2, variant="canonical"):
    """Full tangent character T^(1/2) + hbar * dual(T^(1/2))."""
    return _completed(polarization_M2(lam1, lam2, variant))


def _completed(half):
    return padd(half, scale(dual(half), HBAR))


def o_line_eigen(lam1, lam2, which="full"):
    """Eigenvalue of multiplication by the line bundle O(-1) = det V* at
    ((lam1, lam2)).

    full:  a^(-|lam1|) * prod over both diagrams of t1^(1-j) t2^(1-i);
    first: the factor of lam1 alone, without the a-power.
    """
    return Scalar({o_line_key(lam1, lam2, which): 1})


def o_line_key(lam1, lam2, which="full"):
    """The packed key of the monomial o_line_eigen(lam1, lam2, which)."""
    parts = {"full": ((lam1, lam2), framing_M2()),
             "first": ((lam1,), (ONE,))}
    if which not in parts:
        raise ValueError(f"unknown component {which!r}")
    return _det_key(dual(taut_character(*parts[which])))


def chern_eigen(lams, framing, k):
    """k-th elementary symmetric function of the box weights."""
    if k < 0 or k > sum(size(l) for l in lams):
        raise ValueError(f"chern index {k} out of range")
    return elementary(taut_character(lams, framing), k)


def elementary(weights, k):
    """e_k of an effective character as a Scalar; 0 when k exceeds its rank."""
    if k < 0:
        raise ValueError(f"chern index {k} out of range")
    if any(m < 0 for m in weights.values()):
        raise ValueError("character is not effective")
    # elementary symmetric polynomials by sequential convolution on keys, in
    # place: every coefficient is positive, so nothing cancels.  After i of
    # the nb box weights only e_j with j <= i is nonzero, and only e_j with
    # j >= k - (nb - i) can still reach e_k.
    shifts = [w - KEY_ONE for w, m in weights.items() for _ in range(m)]
    nb = len(shifts)
    e = [pone()] + [{} for _ in range(k)]
    for i, shift in enumerate(shifts, 1):
        for j in range(min(k, i), max(1, k - nb + i) - 1, -1):
            acc, get = e[j], e[j].get
            for key, c in e[j - 1].items():
                key += shift
                acc[key] = get(key, 0) + c
    return Scalar(e[k])


def delta_11(lam1, lam2, variant="proof"):
    """Diagonal of the rank-2 stable envelope at ((lam1, lam2)).

    variant "four_term" evaluates the printed normalization directly:
        hbar^(-n) * (det N^- / det T^(1/2)_{a != 0})^(1/2) * Euler(N^-)
    with N^- the a-negative part of the completed tangent of the four-term
    polarization.

    variant "proof" evaluates the form the limit argument actually uses:
        hbar^(-n) * det(T^(1/2)_{a<0})^(-1) * Euler(N^-)
    with T^(1/2) = hbar W* (x) V.  The printed square-root normalization does
    not reproduce this (it differs by half powers of hbar); both are exposed
    so the limit check can report which one validates.
    """
    key, n_minus = delta_11_parts(lam1, lam2, variant)
    return Scalar({key: 1}) * lambda_dot(n_minus)


def delta_11_parts(lam1, lam2, variant="proof"):
    """(key, N^-) with delta_11(lam1, lam2, variant) = x^key Euler(N^-)."""
    n = size(lam1) + size(lam2)
    half = polarization_M2(lam1, lam2, variant)
    n_minus = a_part(_completed(half), -1)
    if variant == "proof":
        return 2 * KEY_ONE - n * _DHBAR - _det_key(a_part(half, -1)), n_minus
    if variant == "four_term":
        # det(N^-)/det(T_{!=0}), square-rooted on the half-integer lattice
        exps = decode(_det_key(psub(n_minus, padd(a_part(half, -1),
                                                   a_part(half, 1)))))
        if any(e % 2 for e in exps):
            raise ValueError("determinant is not a square on the half lattice")
        return encode(tuple(e // 2 for e in exps)) - n * _DHBAR, n_minus
    raise ValueError(f"unknown delta variant {variant!r}")
