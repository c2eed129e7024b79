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

MacdonaldBasis.check_orthogonal certifies the basis actually built.

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
schemes", 2003).  So the H_lam coefficient of f is <f, H_lam>_* / w_lam and
no linear algebra is needed.
"""

from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm

from .scalar import (Scalar, ZERO, ONE, KEY_ONE, pone, pzero, pconst, padd,
                     pmul, pmul_int, decode, encode, key_var, VARIABLES,
                     bareiss_solve, solve_poly_system)
from .characters import (partitions, conjugate, dominates, n_stat, boxes,
                         arm, leg, tangent_hilb)
from .fock import FockElement

# Macdonald parameters on the engine lattice: q = t1^(-2), t = t2^(-2)
Q_MACD = Scalar.monomial(t1=-4)
T_MACD = Scalar.monomial(t2=-4)

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
    z = 1
    mult = {}
    for k in mu:
        mult[k] = mult.get(k, 0) + 1
    for k, m in mult.items():
        z *= k ** m * factorial(m)
    return z


def _clear_row(entries):
    """Clear integer contents and monomial denominators of one equation.

    Entries must be Scalars with monomial denominators; returns plain
    polynomial dicts scaled by one common factor.
    """
    L = 1
    maxexp = [0] * len(VARIABLES)
    for e in entries:
        if len(e.den) != 1:
            raise ArithmeticError("entry has a non-monomial denominator")
        (kd, cd), = e.den.items()
        L = L // gcd(L, cd) * cd
        for i, x in enumerate(decode(kd)):
            maxexp[i] = max(maxexp[i], x)
    lkey = encode(tuple(maxexp))
    out = []
    for e in entries:
        (kd, cd), = e.den.items()
        shift = lkey - kd + KEY_ONE
        out.append({k + shift - KEY_ONE: c * (L // cd)
                    for k, c in e.num.items()})
    return out


# ---------------------------------------------------------------------------
# rational symmetric-function scaffolding (Fraction coefficients, p-basis)
# ---------------------------------------------------------------------------

def _expand_p_mu(mu, nvars):
    """Expand p_mu as a polynomial in nvars variables: {exponent tuple: int}."""
    poly = {(0,) * nvars: 1}
    for k in mu:
        new = {}
        for exps, c in poly.items():
            for i in range(nvars):
                e2 = list(exps)
                e2[i] += k
                e2 = tuple(e2)
                new[e2] = new.get(e2, 0) + c
        poly = new
    return poly


def p_to_m_matrix(n):
    """Integer matrix: p_mu = sum_lam M[mu][lam] m_lam over partitions of n."""
    parts = partitions(n)
    out = {}
    for mu in parts:
        poly = _expand_p_mu(mu, max(1, n))
        row = {}
        for lam in parts:
            key = tuple(lam) + (0,) * (max(1, n) - len(lam))
            c = poly.get(key, 0)
            if c:
                row[lam] = c
        out[mu] = row
    return parts, out


def m_to_p(n):
    """m_lam in the p-basis with Fraction coefficients."""
    parts, p2m = p_to_m_matrix(n)
    idx = {lam: i for i, lam in enumerate(parts)}
    size = len(parts)
    aug = [[Fraction(p2m[mu].get(lam, 0)) for lam in parts] +
           [Fraction(1 if j == idx[mu] else 0) for j in range(size)]
           for mu in parts]
    # Fraction Gaussian elimination for the inverse
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    # aug is now [I | M^{-1}]; row lam of M^{-1} gives m_lam in the p-basis
    return {lam: {mu: aug[idx[lam]][size + idx[mu]] for mu in parts
                  if aug[idx[lam]][size + idx[mu]]}
            for lam in parts}


def h_in_p(m):
    """Complete homogeneous h_m in the p-basis."""
    return {mu: Fraction(1, z_mu(mu)) for mu in partitions(m)}


def _p_mult(f, g):
    out = {}
    for mu, a in f.items():
        for nu, b in g.items():
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def _p_add(f, g, sign=1):
    out = dict(f)
    for k, v in g.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def s_in_p(lam, _cache={}):
    """Schur s_lam in the p-basis via the Jacobi-Trudi determinant."""
    lam = tuple(lam)
    got = _cache.get(lam)
    if got is not None:
        return got
    ell = len(lam)
    if ell == 0:
        return {(): Fraction(1)}

    def entry(i, j):
        m = lam[i] - i + j
        if m < 0:
            return None
        if m == 0:
            return {(): Fraction(1)}
        return h_in_p(m)

    def det(rows, cols):
        if len(rows) == 1:
            return entry(rows[0], cols[0])
        total = {}
        for pos, col in enumerate(cols):
            e = entry(rows[0], col)
            if e is None:
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            if sub is None:
                continue
            total = _p_add(total, _p_mult(e, sub), 1 if pos % 2 == 0 else -1)
        return total

    result = det(list(range(ell)), list(range(ell)))
    _cache[lam] = result
    return result


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
    # q = t1^(-2) and t = t2^(-2): q^i t^j is the key KEY_ONE + i dq + j dt
    dq, dt = key_var("t1", -4) - KEY_ONE, key_var("t2", -4) - KEY_ONE
    summed = {mu: _hhl_fillings(mu) for mu in parts
              if len(mu) >= len(conjugate(mu))}
    out = {}
    for mu in parts:
        # H~_mu(q, t) = H~_mu'(t, q)
        src, (di, dj) = ((mu, (dq, dt)) if mu in summed
                         else (conjugate(mu), (dt, dq)))
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
    s_p = {nu: _to_scalar_dict(s_in_p(nu)) for nu in parts}
    zs = {mu: Scalar.from_int(z_mu(mu)) for mu in parts}

    def _prod_factor(mu, param):
        f = ONE
        for k in mu:
            f = f * (ONE - param ** k)
        return f

    def twisted_matrix(param):
        # entry (mu, nu): s_mu coefficient of s_nu[X(1-param)]
        cols = {}
        for nu in parts:
            twisted = {rho: v * _prod_factor(rho, param)
                       for rho, v in s_p[nu].items()}
            for mu in parts:
                val = ZERO
                for rho, a in twisted.items():
                    b = s_p[mu].get(rho)
                    if b is not None:
                        val = val + a * b * zs[rho]
                cols[(mu, nu)] = val
        return cols

    Aq = twisted_matrix(Q_MACD)
    At = twisted_matrix(T_MACD)

    out = {}
    for lam in parts:
        lam_c = conjugate(lam)
        rows, rhs = [], []
        for mu in parts:
            if not dominates(mu, lam):
                cleared = _clear_row([Aq[(mu, nu)] for nu in parts])
                rows.append(cleared)
                rhs.append({})
            if not dominates(mu, lam_c):
                cleared = _clear_row([At[(mu, nu)] for nu in parts])
                rows.append(cleared)
                rhs.append({})
        norm_key = (n,) if n else ()
        rows.append([pone() if nu == norm_key else pzero() for nu in parts])
        rhs.append(pone())
        # the Schur coefficients are polynomial, so exact division clears
        # the determinant denominator of the solve
        sol = [x.reduced() for x in solve_poly_system(rows, rhs)]
        f = {}
        for nu, x in zip(parts, sol):
            if x.is_zero():
                continue
            for mu, v in s_p[nu].items():
                f[mu] = f.get(mu, ZERO) + x * v
        out[lam] = {mu: v for mu, v in f.items() if not v.is_zero()}
    return out


# ---------------------------------------------------------------------------
# calibrated Euler factor of the fixed points
# ---------------------------------------------------------------------------

def euler_hilb(lam, orientation="arms_t1"):
    """Fixed-point Euler class: Koszul product of the squared tangent weights."""
    num_f, den_f = tangent_hilb(lam, orientation).adams(2).lambda_factors()
    return Scalar(reduce(pmul, num_f, pone()), reduce(pmul, den_f, pone()))


# ---------------------------------------------------------------------------
# the Garsia-Haiman *-scalar product
# ---------------------------------------------------------------------------

def star_weight(rho):
    """<p_rho, p_rho>_* of the Garsia-Haiman *-scalar product."""
    w = Scalar.from_int((-1) ** (sum(rho) - len(rho)) * z_mu(rho))
    for k in rho:
        w = w * (ONE - Q_MACD ** k) * (ONE - T_MACD ** k)
    return w


def _star_pairing(f, g, weights):
    """<f, g>_* of two p-coefficient dicts, weights[rho] = star_weight(rho).

    Each term is reduced on its own; see MacdonaldBasis.pairings.
    """
    total = ZERO
    for rho, h in g.items():
        c = f.get(rho)
        if c is not None:
            total = (c * (h * weights[rho])).reduced() + total
    return total


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
    """Per-degree cache of H_lam with decomposition and localization sums."""

    def __init__(self, orientation="arms_t1", max_degree=8):
        self.orientation = orientation
        self.max_degree = max_degree
        self._H = {}
        self._orthogonal = set()

    def build_degree(self, n):
        if n > self.max_degree:
            raise ValueError(f"degree {n} beyond configured bound "
                             f"{self.max_degree}")
        if n in self._H:
            return
        self._H[n] = macd_H_hhl(n)

    def H(self, lam):
        """H_lam as a FockElement with Scalar coefficients."""
        n = sum(lam)
        self.build_degree(n)
        return FockElement(self._H[n][tuple(lam)], n)

    def pairings(self, f, n):
        """{lam: <f, H_lam>_*} for the degree-n slice of f.

        f is a FockElement with Scalar or Series coefficients.  Every term
        f_rho H_lam,rho <p_rho, p_rho>_* is reduced on its own: the weight
        cancels the (1-t1^2k)(1-t2^2k) denominators of the generating
        functions, so the terms, and with them the pairings, are Laurent
        polynomials over an integer.
        """
        self.build_degree(n)
        weights = {rho: star_weight(rho) for rho in partitions(n)}
        return {lam: _star_pairing(f.coeffs, self._H[n][lam], weights)
                for lam in partitions(n)}

    def decompose(self, f, n):
        """Coefficients c_lam with (degree-n slice of f) = sum c_lam H_lam.

        By orthogonality c_lam = <f, H_lam>_* / w_lam; see pairings and norm.
        """
        return {lam: p * norm(lam).inverse()
                for lam, p in self.pairings(f, n).items()}

    def check_orthogonal(self, n):
        """Certify <H_lam, H_mu>_* = delta_lam,mu w_lam at degree n, once.

        Reading H_lam coefficients through pairings is exact only on a
        *-orthogonal basis, so the checks certify the basis they use.  Raises
        ArithmeticError naming the first (lam, mu) that fails.
        """
        if n in self._orthogonal:
            return
        self.build_degree(n)
        parts = partitions(n)
        weights = {rho: star_weight(rho) for rho in parts}
        # the *-form is diagonal in the p-basis, hence symmetric: one
        # pairing per unordered pair certifies both orders
        H = self._H[n]
        for i, mu in enumerate(parts):
            for lam in parts[i:]:
                p = _star_pairing(H[mu], H[lam], weights)
                if p != (norm(lam) if lam == mu else ZERO):
                    raise ArithmeticError(f"<H_{lam}, H_{mu}>_* is not "
                                          f"{'w_lam' if lam == mu else 0}")
        self._orthogonal.add(n)

    def localization_sum(self, eig, n):
        """sum over |lam| = n of eig(lam) H_lam / Euler(lam), exactly.

        The direct reference sum.  The identity checks never expand it: they
        compare each fixed point's H_lam coefficient through pairings.
        """
        total = FockElement.zero(n)
        for lam in partitions(n):
            total = total + self.H(lam) * (eig(lam)
                                           / euler_hilb(lam, self.orientation))
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


def fixed_point_decompose(f, n):
    return default_basis().decompose(f, n)


def localization_sum(eig, n):
    return default_basis().localization_sum(eig, n)
