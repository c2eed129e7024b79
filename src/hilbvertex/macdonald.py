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

MacdonaldBasis.certify checks the basis actually built against these axioms.

Two closed rules give the transitions between the classical bases
(Macdonald, "Symmetric Functions and Hall Polynomials", I.2 and I.7):
Newton-Girard writes p_k in the h_lam, and Hall duality of m and h turns
that into m_to_p; Murnaghan-Nakayama gives the integer characters of S_n in
character_table, and s_lam = sum_rho chi^lam(rho) p_rho / z_rho.

Also here: the calibrated fixed-point Euler factor (the tangent character
with every weight squared, fed to the Koszul product), decomposition into
the H-basis, and the localization sum over fixed points of a given degree.
The identity checks do not expand that sum: they pair each side with one
H_lam at a time (see below), and localization_sum is the direct reference
sum they are tested against.

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

from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm, prod
from operator import mul

# pmul is not called here, but perfbench/selftest.py reads macdonald.pmul
from .scalar import (Scalar, ZERO, ONE, KEY_ONE, pone, pzero, pconst, padd,
                     pmul, pmul_int, decode, encode, key_var, VARIABLES,
                     bareiss_solve, solve_poly_system)
from .characters import (partitions, conjugate, dominates, n_stat, boxes,
                         arm, leg, tangent_hilb)
from .fock import FockElement, _mults

# Macdonald parameters on the engine lattice: q = t1^(-2), t = t2^(-2)
Q_MACD = Scalar.monomial(t1=-4)
T_MACD = Scalar.monomial(t2=-4)
# the same on keys: q^i t^j is the key KEY_ONE + i * _DQ + j * _DT
_DQ = key_var("t1", -4) - KEY_ONE
_DT = key_var("t2", -4) - KEY_ONE

# largest degree of the basis, and so of the localization checks
MAX_DEGREE = 8

_T2_INDEX = VARIABLES.index("t2")


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
    return prod(k ** m * factorial(m) for k, m in _mults(mu).items())


def _clear_row(entries):
    """Clear the denominators of one equation.

    Entries must be Scalars with monomial denominators, which the stored
    form keeps as positive integers; returns the numerators times the lcm
    of those integers over each entry's own.
    """
    L = 1
    for e in entries:
        if len(e.den) != 1:
            raise ArithmeticError("entry has a non-monomial denominator")
        L = lcm(L, e.den[KEY_ONE])
    return [pmul_int(e.num, L // e.den[KEY_ONE]) for e in entries]


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
    """m_lam in the p-basis with Fraction coefficients.

    Newton-Girard gives p_k = sum_{lam |- k} (-1)^(l-1) k (l-1)! / prod_i m_i!
    h_lam over the length l and multiplicities m_i of lam, and p_rho is the
    product of its p_k under h_mu h_nu = h_(mu U nu).  The m_lam are dual to
    the h_lam and the p_rho / z_rho to the p_rho, so the p_rho coefficient of
    m_lam is <m_lam, p_rho> / z_rho = [h_lam] p_rho / z_rho.
    """
    p_in_h = {}
    for k in range(1, n + 1):
        p_in_h[k] = {}
        for lam in partitions(k):
            c = k * factorial(len(lam) - 1) // prod(
                map(factorial, _mults(lam).values()))
            p_in_h[k][lam] = (-1) ** (len(lam) - 1) * c
    parts = partitions(n)
    p = {rho: reduce(_p_mult, [p_in_h[k] for k in rho], {(): 1})
         for rho in parts}
    return {lam: {rho: Fraction(p[rho][lam], z_mu(rho)) for rho in parts
                  if p[rho].get(lam)}
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


def _twisted_schur(f, step, chars):
    """{lam: s_lam coefficient of f[X(1-x)]} for the lam in chars.

    f maps rho to the p_rho coefficient, a polynomial over a denominator the
    caller keeps; x is the monomial with key KEY_ONE + step.  The plethysm
    multiplies the p_rho coefficient by prod_{k in rho} (1 - x^k), and the
    s_lam coefficient of g is sum_rho chi[lam][rho] g_rho.
    """
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
    monomial basis by _hhl_fillings and mapped to the p-basis with m_to_p,
    over one common integer denominator.  H~_mu' is H~_mu with q and t
    exchanged, so only the shapes with at least as many rows as columns are
    summed: their short rows are the ones the row-by-row sum merges best.
    """
    parts = partitions(n)
    m2p = m_to_p(n)
    den = lcm(*(v.denominator for row in m2p.values() for v in row.values()))
    m2p = {lam: {rho: int(v * den) for rho, v in row.items()}
           for lam, row in m2p.items()}
    summed = {mu: _hhl_fillings(mu) for mu in parts
              if len(mu) >= len(conjugate(mu))}
    out = {}
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
        out[mu] = {}
        for rho in parts:
            num = {k: c for k, c in acc.get(rho, {}).items() if c}
            if num:
                out[mu][rho] = Scalar(num, pconst(den))
    return out


# ---------------------------------------------------------------------------
# the cross-check routes
# ---------------------------------------------------------------------------

def _qt_pair_weight(mu):
    """<p_mu, p_mu> for the Macdonald inner product."""
    w = Scalar.from_int(z_mu(mu))
    for k in mu:
        w = w * (ONE - Q_MACD ** k) / (ONE - T_MACD ** k)
    return w


def _to_scalar_dict(frac_dict):
    return {mu: Scalar.fraction(v.numerator, v.denominator)
            for mu, v in frac_dict.items()}


def macd_P(n):
    """Macdonald P_lam in the p-basis (Scalar coefficients), all |lam| = n.

    Gram-Schmidt against the (q,t)-deformed power-sum pairing in ascending
    lex order (a linear extension of dominance).  Because the span of the
    already-built P_mu equals the span of the lower m_mu, orthogonality is
    imposed directly against the monomial vectors: each P_lam solves a small
    linear system whose Gram entries are cleared to polynomials, which keeps
    the exact arithmetic small.
    """
    parts = partitions(n)
    order = sorted(parts)  # ascending lex extends dominance upward
    m2p_frac = m_to_p(n)
    m2p = {lam: _to_scalar_dict(d) for lam, d in m2p_frac.items()}
    weights = {mu: _qt_pair_weight(mu) for mu in parts}
    clear = ONE
    for k in range(1, n + 1):
        clear = clear * (ONE - T_MACD ** k) ** (n // k)

    def ip(f, g):
        s = ZERO
        for mu, a in f.items():
            b = g.get(mu)
            if b is not None:
                s = s + a * b * (weights[mu] * clear).reduced()
        return s

    gram = {}
    for i, nu in enumerate(order):
        for mu in order[:i + 1]:
            gram[(nu, mu)] = gram[(mu, nu)] = ip(m2p[nu], m2p[mu])

    out = {}
    for i, lam in enumerate(order):
        lower = order[:i]
        if not lower:
            out[lam] = dict(m2p[lam])
            continue
        rows = [_clear_row([gram[(nu, mu)] for nu in lower]
                           + [gram[(lam, mu)]]) for mu in lower]
        k = len(lower)
        # coefficient of m_nu is -dets[j] / D; assemble every p-coefficient
        # as one fraction over L*D
        D, dets = bareiss_solve([r[:k] for r in rows], [r[k] for r in rows])
        L = 1
        for coeffs in [m2p_frac[lam]] + [m2p_frac[nu] for nu in lower]:
            for v in coeffs.values():
                L = L // gcd(L, v.denominator) * v.denominator
        f = {}
        for rho, v in m2p_frac[lam].items():
            f[rho] = pmul_int(D, int(v * L))
        for j, nu in enumerate(lower):
            if not dets[j]:
                continue
            for rho, v in m2p_frac[nu].items():
                f[rho] = padd(f.get(rho, pzero()),
                              pmul_int(dets[j], -int(v * L)))
        denom = pmul_int(D, L)
        out[lam] = {rho: Scalar(num, dict(denom)) for rho, num in f.items()
                    if num}
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
    independent check of macd_H_hhl, which builds the basis.  The exact
    solve eliminates the whole overdetermined system fraction-free, which
    makes it slow beyond degree 5.
    """
    parts = partitions(n)
    chars = character_table(n)
    # s_nu = sum_rho chi^nu(rho) p_rho / z_rho
    s_frac = {nu: {rho: Fraction(x, z_mu(rho)) for rho, x in row.items()}
              for nu, row in chars.items()}
    s_p = {nu: _to_scalar_dict(d) for nu, d in s_frac.items()}

    def twisted_matrix(step):
        # entry (mu, nu): s_mu coefficient of s_nu[X(1-x)], x = q or t
        cols = {}
        for nu in parts:
            den = lcm(*(v.denominator for v in s_frac[nu].values()))
            f = {rho: pconst(int(v * den)) for rho, v in s_frac[nu].items()}
            for mu, c in _twisted_schur(f, step, chars).items():
                cols[(mu, nu)] = Scalar(c, pconst(den))
        return cols

    Aq = twisted_matrix(_DQ)
    At = twisted_matrix(_DT)

    out = {}
    for lam in parts:
        rows = [_clear_row([A[(mu, nu)] for nu in parts]) for mu in parts
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
        out[lam] = {mu: v for mu, v in f.items() if not v.is_zero()}
    return out


# ---------------------------------------------------------------------------
# calibrated Euler factor of the fixed points
# ---------------------------------------------------------------------------

def euler_hilb(lam, orientation="arms_t1"):
    """Fixed-point Euler class: Koszul product of the squared tangent weights."""
    return tangent_hilb(lam, orientation).adams(2).lambda_dot()


# ---------------------------------------------------------------------------
# the Garsia-Haiman *-scalar product
# ---------------------------------------------------------------------------

def star_weight(rho):
    """<p_rho, p_rho>_* of the Garsia-Haiman *-scalar product."""
    w = Scalar.from_int((-1) ** (sum(rho) - len(rho)) * z_mu(rho))
    for k in rho:
        w = w * (ONE - Q_MACD ** k) * (ONE - T_MACD ** k)
    return w


def norm(lam):
    """w_lam = <H_lam, H_lam>_* = prod over boxes (q^a - t^(l+1)) (t^l - q^(a+1))."""
    w = ONE
    for (r, c) in boxes(lam):
        a, l = arm(lam, r, c), leg(lam, r, c)
        w = w * (Q_MACD ** a - T_MACD ** (l + 1)) * (T_MACD ** l
                                                     - Q_MACD ** (a + 1))
    return w


# ---------------------------------------------------------------------------
# the cached basis and fixed-point calculus
# ---------------------------------------------------------------------------

class MacdonaldBasis:
    """Per-degree cache of H_lam with decomposition and localization sums.

    H_lam, its certificate and w_lam do not depend on the tangent orientation,
    only the Euler factor does: euler, ratio and localization_sum take it."""

    def __init__(self):
        self._H = {}
        self._certified = set()
        self._norms = {}
        self._eulers = {}
        self._ratios = {}

    def build_degree(self, n):
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} beyond the bound {MAX_DEGREE}")
        if n in self._H:
            return
        self._H[n] = macd_H_hhl(n)

    def H(self, lam):
        """H_lam as a FockElement with Scalar coefficients."""
        n = sum(lam)
        self.build_degree(n)
        return FockElement(self._H[n][tuple(lam)], n)

    def certify(self, n):
        """Check the degree-n basis against Haiman's axioms, once.

        H~_mu is the unique symmetric function with H~_mu[X(1-q)] in the
        span of the s_lam with lam >= mu, H~_mu[X(1-t)] in the span of the
        s_lam with lam >= mu', and <H~_mu, s_(n)> = 1 (Haiman, J. Amer. Math.
        Soc. 14, 2001).  Raises ArithmeticError naming mu, the axiom and lam.
        """
        if n in self._certified:
            return
        self.build_degree(n)
        chars = character_table(n)
        for mu, H in self._H[n].items():
            # polynomials over one common factor, which the cleared ONE holds
            *coeffs, one = _clear_row([*H.values(), ONE])
            f = dict(zip(H, coeffs))
            for x, step, top in (("q", _DQ, mu), ("t", _DT, conjugate(mu))):
                low = {lam: chi for lam, chi in chars.items()
                       if not dominates(lam, top)}
                for lam, c in _twisted_schur(f, step, low).items():
                    if c:
                        raise ArithmeticError(
                            f"H_{mu} fails the {x}-axiom: H_mu[X(1-{x})] "
                            f"has a nonzero s_{lam} coefficient")
            # <f, s_(n)> is the sum of the p-coefficients of f
            if reduce(padd, coeffs, pzero()) != one:
                raise ArithmeticError(
                    f"H_{mu} fails the normalization: its s_({n}) "
                    f"coefficient is not 1")
        self._certified.add(n)

    def norm(self, lam):
        """w_lam (module-level norm), computed once per basis."""
        got = self._norms.get(lam)
        if got is None:
            got = self._norms[lam] = norm(lam)
        return got

    def euler(self, lam, orientation="arms_t1"):
        """euler_hilb(lam, orientation), computed once per orientation."""
        key = (lam, orientation)
        got = self._eulers.get(key)
        if got is None:
            got = self._eulers[key] = euler_hilb(lam, orientation)
        return got

    def ratio(self, lam, orientation="arms_t1"):
        """euler(lam, orientation) / norm(lam), reduced, computed once.

        A pairing <f, H_lam>_* times this ratio is the restriction of f to
        the fixed point lam.
        """
        key = (lam, orientation)
        got = self._ratios.get(key)
        if got is None:
            got = self._ratios[key] = (self.euler(lam, orientation)
                                       / self.norm(lam)).reduced()
        return got

    def pairings(self, f, n):
        """{lam: <f, H_lam>_*} for the degree-n slice of f.

        Certifies the basis first: these give the H_lam coefficients only on
        the basis the axioms determine.  f is a FockElement with Scalar or
        Series coefficients.  Every term f_rho H_lam,rho <p_rho, p_rho>_* is
        reduced on its own: the weight cancels the (1-t1^2k)(1-t2^2k)
        denominators of the generating functions, so the terms, and with them
        the pairings, are Laurent polynomials over an integer.  This is the
        route for a general f; an exponential of a form linear in the p_k
        pairs faster through exp_pairings.
        """
        self.certify(n)
        weights = {rho: star_weight(rho) for rho in partitions(n)}
        out = {}
        for lam, H in self._H[n].items():
            total = ZERO
            for rho, h in H.items():
                c = f.coeffs.get(rho)
                if c is not None:
                    total = (c * (h * weights[rho])).reduced() + total
            out[lam] = total
        return out

    def exp_pairings(self, c, n, one=None):
        """{lam: <exp(sum_k c_k p_k), H_lam>_*} in degree n, from the c_k.

        The p_rho coefficient of the exponential is prod_k c_k^m_k / m_k!,
        and star_weight(rho) is prod_k star_weight((k,))^m_k m_k! over the
        multiplicities m_k of rho, with star_weight((k,)) = (-1)^(k-1) k
        (1-q^k)(1-t^k); so the term of rho is g_rho = prod_{k in rho} g_k
        with g_k = star_weight((k,)) c_k (the Cauchy identity under the
        *-product).  Each g_k is reduced once, each g_rho formed once and
        shared by every lam, and the exponential is never expanded.  `c`
        maps k to Scalar or Series exponents, as for fock.exp_linear; a
        missing c_k is zero, and `one` is the value of the empty product
        (ONE by default).  Certifies the basis first, as pairings does.
        """
        self.certify(n)
        if one is None:
            one = ONE
        g = {k: (ck * star_weight((k,))).reduced()
             for k, ck in c.items() if k <= n}
        terms = {(): one}
        for rho in partitions(n):
            if rho and all(k in g for k in rho):
                terms[rho] = reduce(mul, [g[k] for k in rho])
        out = {}
        for lam, H in self._H[n].items():
            total = ZERO
            for rho, h in H.items():
                t = terms.get(rho)
                if t is not None:
                    total = t * h + total
            out[lam] = total
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
                                           / self.euler(lam, orientation))
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
