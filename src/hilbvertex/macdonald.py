"""Macdonald polynomials in Haiman's normalization, as Fock-space elements.

The fixed-point basis H_lam is the modified Macdonald polynomial with the
Macdonald parameters specialized to q = t1^(-2), t = t2^(-2).

The basis is built by macd_H_hhl from the combinatorial formula of Haglund,
Haiman and Loehr: a direct sum over fillings of the diagram, with no linear
algebra.  Two independent constructions serve as cross-checks:

  * the axioms route (macd_H_axioms) solves the two triangularity axioms
    plus the normalization as a linear system in the Schur basis;
  * the classical route (macd_H_gram_schmidt): Gram-Schmidt for P_lam
    against the (q,t)-deformed power-sum inner product in a linear extension
    of dominance order, then the integral form J_lam, the plethysm
    X -> X/(1-t), and the t -> 1/t twist with the t^{n(lam)} prefactor.
    Without multivariate gcd its intermediate fractions grow too fast beyond
    degree 4, so it serves at small degree only.

A degree is stored once, as integer polynomial rows over one integer den
(see macd_H_hhl); Scalars are made only where H_lam or a pairing leaves the
basis.  certify checks the table actually built against these axioms, and
MacdonaldBasis.build_degree stores a degree only once it passes, so a basis
never serves an uncertified degree.  certify runs each row entry as one
Python int, one slot per q^i t^j (Kronecker substitution), wide enough for
an explicit bound on every coefficient: the twist by prod_{k in rho}
(1 - x^k) is then shifts and subtractions, and each Schur coefficient a few
big-integer multiply-adds (_twisted_schur).

Two closed rules give the transitions between the classical bases
(Macdonald, "Symmetric Functions and Hall Polynomials", I.2 and I.7):
Newton-Girard writes p_k in the h_lam, and Hall duality of m and h turns
that into m_to_p; Murnaghan-Nakayama gives the integer characters of S_n in
character_table, and s_lam = sum_rho chi^lam(rho) p_rho / z_rho.  As
n! / z_rho is the size of the class rho, n! is the one denominator of every
degree-n transition: m_to_p and the references hold n! m_lam and n! s_lam.

Also here: the fixed-point factors as cached functions of lam (the Euler
factor, the tangent character with every weight squared fed to the Koszul
product; the norm w_lam below; their ratio, formed by cancelling the
binomial factors of the two, so that neither is expanded), and
MacdonaldBasis, which holds the certified H_lam.  On it rest
decomposition into the H-basis and the localization sum over fixed points of
a given degree.  The identity checks do not expand that sum: they pair each
side with one H_lam at a time (see below), and localization_sum is the
direct reference sum they are tested against.

Decomposition uses the Garsia-Haiman *-scalar product

    <p_rho, p_rho>_* = (-1)^(|rho|-l(rho)) z_rho prod_i (1-q^rho_i)(1-t^rho_i),

under which the H_lam are orthogonal with the closed-form norms
w_lam = prod over boxes (q^a - t^(l+1)) (t^l - q^(a+1)) (Garsia-Tesler,
Adv. Math. 1996; Haiman, "Combinatorics, symmetric functions and Hilbert
schemes", 2003), a theorem about the basis the axioms determine.  So the
H_lam coefficient of f is <f, H_lam>_* / w_lam and no linear algebra is needed.
Against an exponential exp(sum_k c_k p_k) the pairing is H_lam with p_k
replaced by (-1)^(k-1) k (1-q^k)(1-t^k) c_k (the Cauchy identity; Macdonald,
"Symmetric Functions and Hall Polynomials", I.4), so exp_pairings reads it
off the exponents without expanding the exponential.
"""

from collections import Counter
from functools import cache, reduce
from math import factorial, prod
from operator import mul

from .scalar import (Scalar, ZERO, ONE, KEY_ONE, pone, pzero, pconst,
                     padams, padd, pmul, pmul_int, ppow, decode, encode,
                     key_exp, key_inv, key_var, VARIABLES, solve_poly_system)
from .characters import (partitions, conjugate, dominates, n_stat, boxes,
                         arm, leg, tangent_hilb, lambda_dot)
from .fock import FockElement

# Macdonald parameters on the engine lattice: q = t1^(-2), t = t2^(-2)
Q_MACD = Scalar.monomial(t1=-4)
T_MACD = Scalar.monomial(t2=-4)
# the same on keys: q^i t^j is the key KEY_ONE + i * _DQ + j * _DT
_DQ = key_var("t1", -4) - KEY_ONE
_DT = key_var("t2", -4) - KEY_ONE

# largest degree of the basis, and so of the localization checks
MAX_DEGREE = 8

_T1_INDEX, _T2_INDEX = VARIABLES.index("t1"), VARIABLES.index("t2")


def _invert_t2(x):
    """Substitute t2 -> 1/t2 (negate every t2 exponent)."""
    def flip(poly):
        out = {}
        for k, c in poly.items():
            e = list(decode(k))
            e[_T2_INDEX] = -e[_T2_INDEX]
            out[encode(tuple(e))] = c
        return out
    return Scalar(flip(x.num), flip(x.den))


def z_mu(mu):
    """z_mu = prod_k k^m_k m_k! over the multiplicities m_k of mu."""
    return prod(k ** m * factorial(m) for k, m in Counter(mu).items())


# ---------------------------------------------------------------------------
# transition tables: m and s in the p-basis, by the closed rules
# ---------------------------------------------------------------------------

def _p_mult(f, g):
    """Product of two dicts over partitions under concatenation of keys.

    That is the product of h_mu h_nu = h_(mu U nu) (likewise of p or e)."""
    out = {}
    for mu, a in f.items():
        for nu, b in g.items():
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def m_to_p(n):
    """n! m_lam in the p-basis: m_lam = sum_rho m_to_p(n)[lam][rho] p_rho / n!.

    Newton-Girard gives p_k = sum_{lam |- k} (-1)^(l-1) k (l-1)! / prod_i m_i!
    h_lam over the length l and multiplicities m_i of lam, and p_rho is the
    product of its p_k under h_mu h_nu = h_(mu U nu).  The m_lam are dual to
    the h_lam and the p_rho / z_rho to the p_rho, so the p_rho coefficient of
    m_lam is <m_lam, p_rho> / z_rho = [h_lam] p_rho / z_rho, and n! / z_rho
    is an integer.
    """
    p_in_h = {}
    for k in range(1, n + 1):
        p_in_h[k] = {}
        for lam in partitions(k):
            c = k * factorial(len(lam) - 1) // prod(
                map(factorial, Counter(lam).values()))
            p_in_h[k][lam] = (-1) ** (len(lam) - 1) * c
    parts = partitions(n)
    p = {rho: reduce(_p_mult, [p_in_h[k] for k in rho], {(): 1})
         for rho in parts}
    return {lam: {rho: p[rho][lam] * (factorial(n) // z_mu(rho))
                  for rho in parts if p[rho].get(lam)}
            for lam in parts}


def character_table(n):
    """chi[lam][rho], the integer characters of S_n, by Murnaghan-Nakayama.

    lam is held as its beta-set, the n beads lam_i + n - 1 - i (lam padded
    with zeros).  Removing a border strip of length r moves one bead from b
    to an empty b - r, with sign (-1)^(beads jumped), and chi^lam(rho) sums
    the signed characters of what is left at rho less the part r.  Parts
    are removed largest first, so the small remainders recur and are summed
    once.  Only the nonzero characters are kept.
    """
    memo = {}

    def chi(beads, rho):
        if not rho:
            return 1
        key = (beads, rho)
        got = memo.get(key)
        if got is None:
            r, got = rho[0], 0
            for b in beads:
                if b >= r and b - r not in beads:
                    jumped = sum(b - r < c < b for c in beads)
                    moved = beads - {b} | {b - r}
                    got += (-1) ** jumped * chi(moved, rho[1:])
            memo[key] = got
        return got

    parts = partitions(n)
    out = {}
    for lam in parts:
        beads = frozenset(v + n - 1 - i
                          for i, v in enumerate(lam + (0,) * (n - len(lam))))
        out[lam] = {rho: v for rho in parts if (v := chi(beads, rho))}
    return out


def _qt_exps(key):
    """(i, j) with key the key KEY_ONE + i * _DQ + j * _DT of q^i t^j."""
    return key_exp(key, _T1_INDEX) // -4, key_exp(key, _T2_INDEX) // -4


def _twisted_schur(f, step, chars):
    """{lam: s_lam coefficient of f[X(1-x)]} for the lam in chars.

    f maps rho to the p_rho coefficient, a polynomial in q and t over a
    denominator the caller keeps; x is q (step _DQ) or t (step _DT).  The
    plethysm multiplies the p_rho coefficient by prod_{k in rho} (1 - x^k),
    and the s_lam coefficient of g is sum_rho chi[lam][rho] g_rho over the
    nonzero characters.

    Each coefficient runs as one Python int, by Kronecker substitution: the
    coefficient of q^i t^j is the balanced base-2^B digit of the slot
    i J + j, with the rows and the width J left room for the twist's degree
    n in x.  A factor 1 - x^k is then one shift and one subtraction, and an
    s_lam coefficient a few big-integer multiply-adds.  Each factor at most
    doubles the sum of absolute coefficients, so no digit of a result
    exceeds max_rho sum|f_rho| 2^n max_lam sum_rho |chi[lam][rho]|; B, a
    whole number of bytes, exceeds the bits of that bound, so every digit is
    read exactly and a result is zero exactly when its int is.  Only the
    nonzero results are decoded.
    """
    out = {lam: {} for lam in chars}
    exps = {k: _qt_exps(k) for k in set().union(*f.values())}
    if not exps or not chars:
        return out
    n = sum(next(iter(f)))
    bound = (max(sum(map(abs, c.values())) for c in f.values()) << n) * max(
        sum(map(abs, chi.values())) for chi in chars.values())
    nbytes = (bound.bit_length() + 8) // 8
    bits, half = 8 * nbytes, 1 << (8 * nbytes - 1)
    (i0, i1), (j0, j1) = ((min(e), max(e)) for e in zip(*exps.values()))
    si, sj = _qt_exps(KEY_ONE + step)
    width = j1 - j0 + 1 + n * sj
    slots = (i1 - i0 + 1 + n * si) * width
    at = {k: ((i - i0) * width + j - j0) * nbytes
          for k, (i, j) in exps.items()}
    # every slot holds its digit plus half, so that no digit borrows
    empty = bytes(nbytes - 1) + b"\x80"
    offset = int.from_bytes(empty * slots, "little")

    def pack(c):
        buf = bytearray(empty * slots)
        for k, v in c.items():
            buf[at[k]:at[k] + nbytes] = (v + half).to_bytes(nbytes, "little")
        return int.from_bytes(buf, "little") - offset

    def unpack(x):
        raw = (x + offset).to_bytes(slots * nbytes, "little")
        poly = {}
        for slot in range(slots):
            v = int.from_bytes(raw[slot * nbytes:(slot + 1) * nbytes],
                               "little") - half
            if v:
                i, j = divmod(slot, width)
                poly[KEY_ONE + (i + i0) * _DQ + (j + j0) * _DT] = v
        return poly

    shift = (si * width + sj) * bits
    twisted = {}
    for rho, terms in f.items():
        c = pack(terms)
        for k in rho:
            c -= c << (k * shift)
        twisted[rho] = c
    for lam, chi in chars.items():
        x = sum(v * twisted[rho] for rho, v in chi.items() if rho in twisted)
        if x:
            out[lam] = unpack(x)
    return out


# ---------------------------------------------------------------------------
# the basis: the combinatorial formula of Haglund, Haiman and Loehr
# ---------------------------------------------------------------------------

def _row_words(rem, length):
    """Distinct words of the given length over the multiset rem.

    rem[v] is the multiplicity of the letter v.  Yields (word, rem minus the
    letters of word).
    """
    if not length:
        yield (), rem
        return
    for v, c in enumerate(rem):
        if c:
            left = rem[:v] + (c - 1,) + rem[v + 1:]
            for w, rest in _row_words(left, length - 1):
                yield (v,) + w, rest


def _hhl_fillings(mu):
    """{lam: {(inv, maj): count}} over the fillings of mu with content lam.

    One entry for every lam |- |mu|: the m_lam coefficient of H~_mu is the
    sum of count q^inv t^maj.  French diagram, row 0 at the bottom; the
    reading order is rows top to bottom, left to right.  Two cells attack
    when they share a row, or lie in adjacent rows with the upper cell
    strictly to the right.  A descent is a cell larger than the cell
    directly below it; maj sums leg + 1 over descents, and inv is the number
    of attacking pairs out of reading order minus the arms of the descents.

    Rows are filled in reading order.  What a row adds to inv and maj
    depends only on its word and the word of the row above, so the fillings
    below each (row, word above, letters left) are summed once, with the
    letters relabelled to those still in play.  A polynomial sum c q^i t^j
    is held as one integer with c in the bit field i * width + j, so that a
    factor q^i t^j is a shift.  That needs every step's exponent to be
    nonnegative: counted with the inversions inside the row above, it is,
    because for a descent u over v and each cell w in the arm of u, (u, w)
    or (w, v) is an inversion.
    """
    n = sum(mu)
    arms = [[arm(mu, r, c) for c in range(mu[r])] for r in range(len(mu))]
    majs = [[leg(mu, r, c) + 1 for c in range(mu[r])] for r in range(len(mu))]
    width = 1 + sum(sum(row) for row in majs[1:])
    bits = factorial(n).bit_length()  # no count exceeds n!
    memo = {}

    def below(r, upper, rem):
        # fillings of rows r, ..., 0 from rem, under the row r + 1 = upper
        present = [v for v, c in enumerate(rem) if c or v in upper]
        relabel = {v: i for i, v in enumerate(present)}
        upper = tuple(relabel[v] for v in upper)
        rem = tuple(rem[v] for v in present)
        key = (r, upper, rem)
        got = memo.get(key)
        if got is not None:
            return got
        up = len(upper)
        base = sum(a > b for i, a in enumerate(upper) for b in upper[i + 1:])
        if r < 0:
            total = 1 << (bits * base * width)
        else:
            total = 0
            for w, rest in _row_words(rem, mu[r]):
                inv, maj = base, 0
                for i in range(up):
                    inv += sum(b > w[i] for b in upper[i + 1:])
                    if upper[i] > w[i]:
                        inv -= arms[r + 1][i]
                        maj += majs[r + 1][i]
                total += below(r - 1, w, rest) << (bits * (inv * width + maj))
        memo[key] = total
        return total

    mask = (1 << bits) - 1
    out = {}
    for lam in partitions(n):
        x, pos, poly = below(len(mu) - 1, (), lam), 0, {}
        while x:
            if x & mask:
                poly[divmod(pos, width)] = x & mask
            x >>= bits
            pos += 1
        out[lam] = poly
    return out


def macd_H_hhl(n):
    """Modified Macdonald H_lam for all |lam| = n; this builds the basis.

    H~_mu = sum over fillings sigma of mu of q^inv(sigma) t^maj(sigma)
    x^sigma (Haglund, Haiman and Loehr, "A combinatorial formula for
    Macdonald polynomials", J. Amer. Math. Soc. 18, 2005), read off in the
    monomial basis by _hhl_fillings and mapped to the p-basis with m_to_p.
    Returns (rows, den) with H~_mu,rho = rows[mu][rho] / den: packed integer
    polynomials over den = n!, the denominator of m_to_p.  H~_mu' is H~_mu
    with q and t exchanged, so only the shapes with at least as many rows as
    columns are summed; their short rows merge best in the row-by-row sum.
    """
    parts = partitions(n)
    m2p = m_to_p(n)
    summed = {mu: _hhl_fillings(mu) for mu in parts
              if len(mu) >= len(conjugate(mu))}
    rows = {}
    for mu in parts:
        # H~_mu(q, t) = H~_mu'(t, q)
        src, (di, dj) = ((mu, (_DQ, _DT)) if mu in summed
                         else (conjugate(mu), (_DT, _DQ)))
        acc = {}
        for lam, poly in summed[src].items():
            poly = {KEY_ONE + i * di + j * dj: c for (i, j), c in poly.items()}
            for rho, f in m2p[lam].items():
                a = acc.setdefault(rho, {})
                for k, c in poly.items():
                    a[k] = a.get(k, 0) + c * f
        rows[mu] = {rho: row for rho in parts if (row := {
            k: c for k, c in acc.get(rho, {}).items() if c})}
    return rows, factorial(n)


# ---------------------------------------------------------------------------
# the cross-check routes
# ---------------------------------------------------------------------------

def _qt_pair_weight(mu):
    """<p_mu, p_mu> for the Macdonald inner product."""
    w = Scalar.from_int(z_mu(mu))
    for k in mu:
        w = w * (ONE - Q_MACD ** k) / (ONE - T_MACD ** k)
    return w


def macd_P(n):
    """Macdonald P_lam in the p-basis (Scalar coefficients), all |lam| = n.

    Gram-Schmidt against the (q,t)-deformed power-sum pairing in ascending
    lex order (a linear extension of dominance).  Because the span of the
    already-built P_mu equals the span of the lower m_mu, orthogonality is
    imposed directly against the monomial vectors: each P_lam = m_lam -
    sum_nu x_nu m_nu, where solve_poly_system finds the x_nu from a small
    system of Gram entries: the integer rows n! m_lam of m_to_p paired under
    the weights times clear = prod_{k<=n} (1-t^k)^(n//k), which every weight's
    denominator divides, so each entry is n!^2 clear times the true one, an
    integer polynomial, and the common factor leaves the x_nu as they are.
    """
    parts = partitions(n)
    order = sorted(parts)  # ascending lex extends dominance upward
    m2p = m_to_p(n)
    clear = ONE
    for k in range(1, n + 1):
        clear = clear * (ONE - T_MACD ** k) ** (n // k)
    weights = {mu: (_qt_pair_weight(mu) * clear).reduced() for mu in parts}
    if any(w.den != pone() for w in weights.values()):
        raise ArithmeticError("a cleared Gram weight is not a polynomial")

    def ip(f, g):
        return reduce(padd, (pmul_int(weights[mu].num, a * g[mu])
                             for mu, a in f.items() if mu in g), pzero())

    gram = {}
    for i, nu in enumerate(order):
        for mu in order[:i + 1]:
            gram[(nu, mu)] = gram[(mu, nu)] = ip(m2p[nu], m2p[mu])

    unit = Scalar.fraction(1, factorial(n))
    out = {}
    for i, lam in enumerate(order):
        lower = order[:i]
        xs = solve_poly_system([[gram[(nu, mu)] for nu in lower]
                                for mu in lower],
                               [gram[(lam, mu)] for mu in lower])
        f = dict(m2p[lam])
        for nu, x in zip(lower, xs):
            for rho, v in m2p[nu].items():
                f[rho] = f.get(rho, ZERO) - x * v
        out[lam] = {rho: v * unit for rho, v in f.items() if v}
    return out


def integral_form_factor(lam):
    """c_lam = prod over boxes (1 - q^arm t^(leg+1))."""
    c = ONE
    for (r, cc) in boxes(lam):
        c = c * (ONE - Q_MACD ** arm(lam, r, cc) * T_MACD ** (leg(lam, r, cc) + 1))
    return c


def macd_H_gram_schmidt(n):
    """Modified Macdonald H_lam for all |lam| = n, via the classical route.

    An independent cross-check of macd_H_hhl, which builds the basis, and of
    macd_H_axioms; practical up to degree 4.
    """
    P = macd_P(n)
    out = {}
    for lam, f in P.items():
        c = integral_form_factor(lam)
        g = {}
        for mu, v in f.items():
            den = ONE
            for k in mu:
                den = den * (ONE - T_MACD ** k)
            g[mu] = (c * v / den).reduced()
        tn = T_MACD ** n_stat(lam)
        h = {mu: (_invert_t2(v) * tn).reduced() for mu, v in g.items()}
        out[lam] = {mu: v for mu, v in h.items() if not v.is_zero()}
    return out


def macd_H_axioms(n):
    """Cross-check route: solve the triangularity axioms in the Schur basis.

    H_lam is determined by requiring that p_k -> (1-q^k) p_k maps it into the
    span of s_mu with mu >= lam (dominance), p_k -> (1-t^k) p_k into the span
    of s_mu with mu >= lam', and that the s_(n) coefficient is 1.  An
    independent check of macd_H_hhl, which builds the basis.  The twisted
    matrices hold the Schur coefficients of n! s_nu[X(1-x)], integer
    polynomials, so each axiom is n! times its equation and is solved as is.
    The exact solve eliminates the whole overdetermined system
    fraction-free, which makes it slow beyond degree 5.
    """
    parts = partitions(n)
    chars = character_table(n)
    unit = Scalar.fraction(1, factorial(n))
    # n! s_nu = sum_rho chi^nu(rho) (n! / z_rho) p_rho, an integer row
    s_p = {nu: {rho: x * (factorial(n) // z_mu(rho)) for rho, x in row.items()}
           for nu, row in chars.items()}

    def twisted_matrix(step):
        # entry (mu, nu): s_mu coefficient of n! s_nu[X(1-x)], x = q or t
        return {(mu, nu): c for nu in parts for mu, c in _twisted_schur(
            {rho: pconst(v) for rho, v in s_p[nu].items()}, step,
            chars).items()}

    Aq = twisted_matrix(_DQ)
    At = twisted_matrix(_DT)

    out = {}
    for lam in parts:
        rows = [[A[(mu, nu)] for nu in parts] for mu in parts
                for A, top in ((Aq, lam), (At, conjugate(lam)))
                if not dominates(mu, top)]
        rhs = [pzero() for _ in rows] + [pone()]
        rows.append([pone() if nu == parts[0] else pzero() for nu in parts])
        # the Schur coefficients are polynomial, so exact division clears
        # the determinant denominator of the solve
        sol = [x.reduced() for x in solve_poly_system(rows, rhs)]
        f = {}
        for nu, x in zip(parts, sol):
            for mu, v in s_p[nu].items():
                f[mu] = f.get(mu, ZERO) + x * v
        out[lam] = {mu: v * unit for mu, v in f.items() if not v.is_zero()}
    return out


# ---------------------------------------------------------------------------
# calibrated Euler factor of the fixed points
# ---------------------------------------------------------------------------

def _euler_weights(lam, orientation):
    """The squared tangent weights at lam, one Koszul factor 1 - w^-1 each."""
    return padams(tangent_hilb(lam, orientation), 2)


@cache
def euler_hilb(lam, orientation="arms_t1"):
    """Fixed-point Euler class: Koszul product of the squared tangent weights."""
    return lambda_dot(_euler_weights(lam, orientation))


# ---------------------------------------------------------------------------
# the Garsia-Haiman *-scalar product
# ---------------------------------------------------------------------------

@cache
def star_weight(rho):
    """<p_rho, p_rho>_* of the Garsia-Haiman *-scalar product."""
    w = Scalar.from_int((-1) ** (sum(rho) - len(rho)) * z_mu(rho))
    for k in rho:
        w = w * (ONE - Q_MACD ** k) * (ONE - T_MACD ** k)
    return w


def _norm_factors(lam):
    """The factors (q^a - t^(l+1)) and (t^l - q^(a+1)) of w_lam, box by box,
    each as the keys of its two monomials."""
    for (r, c) in boxes(lam):
        a, l = arm(lam, r, c), leg(lam, r, c)
        yield KEY_ONE + a * _DQ, KEY_ONE + (l + 1) * _DT
        yield KEY_ONE + l * _DT, KEY_ONE + (a + 1) * _DQ


@cache
def norm(lam):
    """w_lam = <H_lam, H_lam>_* = prod over boxes (q^a - t^(l+1)) (t^l - q^(a+1))."""
    return Scalar(reduce(pmul, ({m1: 1, m2: -1} for m1, m2
                                in _norm_factors(lam)), pone()))


def _unit_binomial(m1, m2):
    """(sign, m, x) with m1 - m2 = sign m (1 - x), monomials as keys; x is
    whichever of m2/m1 and m1/m2 has the larger key."""
    x = m2 - m1 + KEY_ONE
    if x > KEY_ONE:
        return 1, m1, x
    return -1, m2, key_inv(x)


@cache
def ratio(lam, orientation):
    """euler_hilb(lam, orientation) / norm(lam), reduced, with neither one
    expanded.

    A pairing <f, H_lam>_* times this ratio is the restriction of f to the
    fixed point lam.  Each Euler factor 1 - w^-1 (w a squared tangent
    weight) and each norm factor is written as sign * monomial * (1 - x),
    with x the larger of x and 1/x, and the two multisets of factors 1 - x
    cancel.  In arms_t1 they cancel box by box, for every lam: at the box
    with arm a and leg l the squared weights are w = q^-(a+1) t^l and
    q^a t^-(l+1), whose factors 1 - w^-1 are t^-l (t^l - q^(a+1)) and
    q^-a (q^a - t^(l+1)).  So the ratio is prod_box q^-a t^-l, the monomial
    t1^(2n(lam')) t2^(2n(lam)).  In arms_t2, arms_t1 at lam', the factors
    left over are multiplied out and reduced: the ratio is a monomial only
    at the self-conjugate lam.
    """
    sign, mono, net = 1, KEY_ONE, {}
    factors = [((KEY_ONE, key_inv(w)), e)
               for w, e in _euler_weights(lam, orientation).items()]
    factors += [(pair, -1) for pair in _norm_factors(lam)]
    for (m1, m2), e in factors:
        s, m, x = _unit_binomial(m1, m2)
        sign *= s ** (e % 2)
        mono += e * (m - KEY_ONE)
        net[x] = net.get(x, 0) + e
    num, den = {mono: sign}, pone()
    for x, e in net.items():
        if e > 0:
            num = pmul(num, ppow({KEY_ONE: 1, x: -1}, e))
        elif e < 0:
            den = pmul(den, ppow({KEY_ONE: 1, x: -1}, -e))
    return Scalar(num, den).reduced()


# ---------------------------------------------------------------------------
# the certified basis
# ---------------------------------------------------------------------------

def certify(n, rows, den):
    """Check the degree-n table H_mu,rho = rows[mu][rho] / den against
    Haiman's axioms.

    H~_mu is the unique symmetric function with H~_mu[X(1-q)] in the span of
    the s_lam with lam >= mu, H~_mu[X(1-t)] in the span of the s_lam with
    lam >= mu', and <H~_mu, s_(n)> = 1 (Haiman, J. Amer. Math. Soc. 14,
    2001).  Raises ArithmeticError naming mu, the axiom and lam.

    The rows are integer polynomials in q and t, and _twisted_schur forms
    the Schur coefficients of both twists on packed integers, with a slot
    width that no coefficient can overflow, so an axiom holds exactly when
    every packed coefficient outside its span is the integer 0.
    """
    chars = character_table(n)
    for mu, f in rows.items():
        for x, step, top in (("q", _DQ, mu), ("t", _DT, conjugate(mu))):
            low = {lam: chi for lam, chi in chars.items()
                   if not dominates(lam, top)}
            for lam, c in _twisted_schur(f, step, low).items():
                if c:
                    raise ArithmeticError(
                        f"H_{mu} fails the {x}-axiom: H_mu[X(1-{x})] "
                        f"has a nonzero s_{lam} coefficient")
        # <f, s_(n)> is the sum of the p-coefficients of f, here over den
        total = Counter()
        for c in f.values():
            total.update(c)
        if {k: v for k, v in total.items() if v} != pconst(den):
            raise ArithmeticError(
                f"H_{mu} fails the normalization: its s_({n}) "
                f"coefficient is not 1")


class MacdonaldBasis:
    """Per-degree cache of the certified H_lam, with the pairings,
    decomposition and localization sums that rest on them.

    The fixed-point factors are the cached functions norm, euler_hilb and
    ratio; only the last two, and localization_sum, take the orientation."""

    def __init__(self):
        self._H = {}

    def build_degree(self, n):
        """The degree-n table (rows, den) of macd_H_hhl, certified once; a
        table that fails certify is not stored."""
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} beyond the bound {MAX_DEGREE}")
        table = self._H.get(n)
        if table is None:
            table = macd_H_hhl(n)
            certify(n, *table)
            self._H[n] = table
        return table

    def H(self, lam):
        """H_lam as a FockElement with Scalar coefficients."""
        n = sum(lam)
        rows, den = self.build_degree(n)
        return FockElement({rho: Scalar(h, pconst(den))
                            for rho, h in rows[tuple(lam)].items()}, n)

    def pairings(self, f, n):
        """{lam: <f, H_lam>_*} for the degree-n slice of f.

        f is a FockElement with Scalar or Series coefficients.  Each f_rho
        <p_rho, p_rho>_* is reduced once: the weight cancels the
        (1-t1^2k)(1-t2^2k) denominators of the generating functions, so these
        terms, and with them the pairings, are Laurent polynomials over an
        integer.  This is the route for a general f; an exponential of a form
        linear in the p_k pairs faster through exp_pairings.
        """
        return self._pair(n, {rho: (f.coeffs[rho] * star_weight(rho)).reduced()
                              for rho in partitions(n) if rho in f.coeffs})

    def exp_pairings(self, c, n):
        """{lam: <exp(sum_k c_k p_k), H_lam>_*} in degree n, from the c_k.

        The p_rho coefficient of the exponential is prod_k c_k^m_k / m_k!,
        and star_weight(rho) is prod_k star_weight((k,))^m_k m_k! over the
        multiplicities m_k of rho, with star_weight((k,)) = (-1)^(k-1) k
        (1-q^k)(1-t^k); so the term of rho is g_rho = prod_{k in rho} g_k
        with g_k = star_weight((k,)) c_k (the Cauchy identity under the
        *-product).  Each g_k is reduced once, each g_rho formed once and
        shared by every lam, and the exponential is never expanded.  `c`
        maps k to Scalar or Series exponents, as for fock.exp_linear; a
        missing c_k is zero, and the empty product is ONE.
        """
        g = {k: (ck * star_weight((k,))).reduced()
             for k, ck in c.items() if k <= n}
        terms = {(): ONE}
        for rho in partitions(n):
            if rho and all(k in g for k in rho):
                terms[rho] = reduce(mul, [g[k] for k in rho])
        return self._pair(n, terms)

    def _pair(self, n, terms):
        """{lam: sum_rho H_lam,rho terms[rho]}, a missing term being zero."""
        rows, den = self.build_degree(n)
        out = {}
        for lam, row in rows.items():
            total = ZERO
            for rho, h in row.items():
                t = terms.get(rho)
                if t is not None:
                    total = t * Scalar(h) + total
            out[lam] = total * Scalar.fraction(1, den)
        return out

    def decompose(self, f, n):
        """Coefficients c_lam with (degree-n slice of f) = sum c_lam H_lam.

        By orthogonality c_lam = <f, H_lam>_* / w_lam; see pairings and norm.
        """
        return {lam: p * norm(lam).inverse()
                for lam, p in self.pairings(f, n).items()}

    def localization_sum(self, eig, n, orientation="arms_t1"):
        """sum over |lam| = n of eig(lam) H_lam / Euler(lam), exactly.

        The direct reference sum.  The identity checks never expand it: they
        compare each fixed point's H_lam coefficient through pairings.
        """
        total = FockElement.zero(n)
        for lam in partitions(n):
            total = total + self.H(lam) * (eig(lam)
                                           / euler_hilb(lam, orientation))
        return total


_DEFAULT_BASIS = None


def default_basis():
    global _DEFAULT_BASIS
    if _DEFAULT_BASIS is None:
        _DEFAULT_BASIS = MacdonaldBasis()
    return _DEFAULT_BASIS


def macd_H(lam):
    """H_lam in the frozen convention, from the shared cache."""
    return default_basis().H(lam)
