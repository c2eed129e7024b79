"""Partitions, torus characters, and fixed-point data for Hilb^n and M(n,2).

Partitions are plain tuples of weakly decreasing positive integers.  Boxes
are zero-based (row, col) pairs; the one-based (i, j) of the rank-2 geometry
displays is (row+1, col+1).  A Character is a finite integer-multiplicity
sum of monomial weights, stored on the same packed-key lattice as Scalar, so
tensor operations are integer arithmetic on keys.

Frozen conventions (calibrated once against the Fock-space identities, see
checks.calibrate):
  - box weight: phi(box) = framing * t1^col * t2^row;
  - Hilbert-scheme tangent orientation pairs t1 with arms:
        T_lam = sum_box t1^(arm+1) t2^(-leg) + t1^(-arm) t2^(leg+1);
  - on M(n,2) the splitting torus scales the *first* framing summand by a,
    matching the line-bundle eigenvalue a^(-|lam1|) * prod t1^(1-j) t2^(1-i).
"""

from .scalar import (Scalar, ONE, A, HBAR, KEY_ONE, NVARS, VARIABLES,
                     decode, encode, key_exp, key_var, key_mul, key_inv,
                     pmul, pone)

_A_INDEX = VARIABLES.index("a")
# key steps of the weights t1 and t2: t1^i t2^j is KEY_ONE + i*_DT1 + j*_DT2
_DT1 = key_var("t1") - KEY_ONE
_DT2 = key_var("t2") - KEY_ONE


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


class Character:
    """Formal sum of monomial torus weights with integer multiplicities."""

    __slots__ = ("weights",)

    def __init__(self, weights=None):
        self.weights = {k: m for k, m in (weights or {}).items() if m}

    @staticmethod
    def from_weights(ws):
        """Build from an iterable of monomial Scalars (multiplicity 1 each)."""
        d = {}
        for w in ws:
            k = _weight_key(w)
            d[k] = d.get(k, 0) + 1
        return Character(d)

    def rank(self):
        return sum(self.weights.values())

    def is_zero(self):
        return not self.weights

    def __eq__(self, other):
        return isinstance(other, Character) and self.weights == other.weights

    __hash__ = None

    def __add__(self, other):
        d = dict(self.weights)
        for k, m in other.weights.items():
            s = d.get(k, 0) + m
            if s:
                d[k] = s
            else:
                del d[k]
        return Character(d)

    def __neg__(self):
        return Character({k: -m for k, m in self.weights.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Tensor product."""
        d = {}
        for k1, m1 in self.weights.items():
            for k2, m2 in other.weights.items():
                k = key_mul(k1, k2)
                s = d.get(k, 0) + m1 * m2
                if s:
                    d[k] = s
                else:
                    del d[k]
        return Character(d)

    def dual(self):
        return Character({key_inv(k): m for k, m in self.weights.items()})

    def scale(self, w):
        """Multiply every weight by a monomial Scalar."""
        k0 = _weight_key(w)
        return Character({key_mul(k, k0): m for k, m in self.weights.items()})

    def adams(self, n):
        """Raise every weight to the n-th power."""
        return Character({encode(tuple(e * n for e in decode(k))): m
                          for k, m in self.weights.items()})

    def a_part(self, sign):
        """Sub-character with a-exponent <0, ==0 or >0 according to sign."""
        out = {}
        for k, m in self.weights.items():
            e = key_exp(k, _A_INDEX)
            if (sign < 0 and e < 0) or (sign == 0 and e == 0) or \
               (sign > 0 and e > 0):
                out[k] = m
        return Character(out)

    def det(self):
        """Product of weights with multiplicity, a monomial Scalar."""
        exps = [0] * NVARS
        for k, m in self.weights.items():
            for i, e in enumerate(decode(k)):
                exps[i] += e * m
        return Scalar({encode(tuple(exps)): 1})

    def sqrt_monomial(self):
        """Square root of det(self); stays on the half-integer lattice."""
        exps = [0] * NVARS
        for k, m in self.weights.items():
            for i, e in enumerate(decode(k)):
                exps[i] += e * m
        if any(e % 2 for e in exps):
            raise ValueError("determinant is not a square on the half lattice")
        return Scalar({encode(tuple(e // 2 for e in exps)): 1})

    def lambda_factors(self):
        """Factor lists for prod (1 - w^{-1})^mult: (numerator, denominator).

        Each factor is a two-term polynomial dict; positive multiplicities go
        to the numerator list, negative to the denominator list.
        """
        num, den = [], []
        for k, m in self.weights.items():
            if k == KEY_ONE:
                raise ValueError("trivial weight has no Koszul factor")
            fac = {KEY_ONE: 1, key_inv(k): -1}
            (num if m > 0 else den).extend([fac] * abs(m))
        return num, den

    def lambda_dot(self):
        """K-theoretic Euler class prod (1 - w^{-1})^mult as a Scalar."""
        num_f, den_f = self.lambda_factors()
        num = pone()
        for f in num_f:
            num = pmul(num, f)
        den = pone()
        for f in den_f:
            den = pmul(den, f)
        return Scalar(num, den)

    def render(self):
        if not self.weights:
            return "0"
        parts = []
        for k in sorted(self.weights):
            m = self.weights[k]
            w = Scalar({k: 1}).render()
            parts.append(f"{'+' if m > 0 else '-'}{abs(m)}*{w}")
        return " ".join(parts)

    def __repr__(self):
        return f"Character({self.render()})"


# ---------------------------------------------------------------------------
# fixed-point data
# ---------------------------------------------------------------------------

def taut_character(lams, framing):
    """Tautological bundle character: sum over boxes of framing * t1^col * t2^row."""
    if len(framing) != len(lams):
        raise ValueError("need one framing weight per partition")
    d = {}
    for lam, fr in zip(lams, framing):
        fk = _weight_key(fr)
        for (r, c) in boxes(lam):
            k = fk + c * _DT1 + r * _DT2
            d[k] = d.get(k, 0) + 1
    return Character(d)


def tangent_hilb(lam, orientation="arms_t1"):
    """Tangent character of Hilb^|lam| at the fixed point lam.

    orientation chooses which axis pairs with arm lengths; "arms_t1" is the
    calibrated default (the unique choice under which the Fock-space kernel
    identity holds, see checks.calibrate).
    """
    d = {}
    for (r, c) in boxes(lam):
        a_, l_ = arm(lam, r, c), leg(lam, r, c)
        if orientation == "arms_t1":
            pairs = (((a_ + 1), -l_), (-a_, l_ + 1))
        elif orientation == "arms_t2":
            pairs = ((-l_, (a_ + 1)), (l_ + 1, -a_))
        else:
            raise ValueError(f"unknown orientation {orientation!r}")
        for (e1, e2) in pairs:
            k = KEY_ONE + e1 * _DT1 + e2 * _DT2
            d[k] = d.get(k, 0) + 1
    return Character(d)


def framing_character(framing):
    return Character.from_weights(framing)


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
    W = framing_character(framing)
    t2 = Scalar.var("t2")
    if V.is_zero():
        return Character()
    VsV = V.dual() * V
    if variant == "canonical":
        half = W * V.dual() + VsV.scale(t2) - VsV
    elif variant == "four_term":
        half = W.dual() * V + VsV.scale(t2.inverse()) \
            - VsV.scale(HBAR.inverse()) - VsV
    elif variant == "proof":
        half = (W.dual() * V).scale(HBAR)
    else:
        raise ValueError(f"unknown polarization variant {variant!r}")
    return half


def tangent_M2(lam1, lam2, variant="canonical"):
    """Full tangent character T^(1/2) + hbar * dual(T^(1/2))."""
    half = polarization_M2(lam1, lam2, variant)
    return half + half.dual().scale(HBAR)


def o_line_eigen(lam1, lam2, which="full"):
    """Eigenvalue of multiplication by the line bundle O(-1) at ((lam1, lam2)).

    full:   a^(-|lam1|) * prod over both diagrams of t1^(1-j) t2^(1-i);
    first / second: the single-diagram factor without the a-power.
    """
    def diagram_factor(lam):
        e1 = sum(-c for (_, c) in boxes(lam))
        e2 = sum(-r for (r, _) in boxes(lam))
        return Scalar.monomial(t1=2 * e1, t2=2 * e2)

    if which == "first":
        return diagram_factor(lam1)
    if which == "second":
        return diagram_factor(lam2)
    if which != "full":
        raise ValueError(f"unknown component {which!r}")
    return Scalar.monomial(a=-2 * size(lam1)) * diagram_factor(lam1) \
        * diagram_factor(lam2)


def chern_eigen(lams, framing, k, dual=False):
    """k-th elementary symmetric function of the (inverse) box weights."""
    if k < 0 or k > sum(size(l) for l in lams):
        raise ValueError(f"chern index {k} out of range")
    weights = taut_character(lams, framing).weights
    if any(m < 0 for m in weights.values()):
        raise ValueError("character is not effective")
    # elementary symmetric polynomials by sequential convolution on keys, in
    # place: every coefficient is positive, so nothing cancels.  After i of
    # the nb box weights only e_j with j <= i is nonzero, and only e_j with
    # j >= k - (nb - i) can still reach e_k.
    shifts = [(key_inv(w) if dual else w) - KEY_ONE
              for w, m in weights.items() for _ in range(m)]
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
    n = size(lam1) + size(lam2)
    if n == 0:
        return ONE
    half = polarization_M2(lam1, lam2, variant)
    tangent = half + half.dual().scale(HBAR)
    n_minus = tangent.a_part(-1)
    euler = n_minus.lambda_dot() if not n_minus.is_zero() else ONE
    hbar_pow = HBAR ** (-n)
    if variant == "proof":
        repelling_half = half.a_part(-1)
        det_rep = repelling_half.det() if not repelling_half.is_zero() else ONE
        return hbar_pow * det_rep.inverse() * euler
    if variant == "four_term":
        nontrivial = (half.a_part(-1) + half.a_part(1))
        ratio = n_minus - nontrivial  # det(N^-)/det(T_{!=0}) as a character
        root = ratio.sqrt_monomial()
        return hbar_pow * root * euler
    raise ValueError(f"unknown delta variant {variant!r}")
