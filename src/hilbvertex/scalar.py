"""Exact sparse arithmetic for Laurent rational functions of the ground variables.

Every value is a fraction num/den of sparse Laurent polynomials over the
integers in the five variables t1, t2, q, u, a.  Exponents are half-integers,
stored internally as doubled integers, so quantities like hbar^(1/2) =
(t1*t2)^(1/2) are exact.  Canonical form removes integer content and the
common monomial factor and normalizes the sign of the leading denominator
term under graded-lex order; full multivariate gcd reduction is deliberately
not performed.  Equality is decided by cross multiplication, which makes it
exact without gcd.

A polynomial is a plain dict {packed_key: int}.  A packed key holds the five
doubled exponents in 20-bit biased fields of one Python int, so monomial
multiplication is a single integer addition.
"""

import math
from fractions import Fraction

VARIABLES = ("t1", "t2", "q", "u", "a")
NVARS = len(VARIABLES)

_FIELD_BITS = 20
_BIAS = 1 << (_FIELD_BITS - 1)
_MASK = (1 << _FIELD_BITS) - 1
_EXP_MIN, _EXP_MAX = -_BIAS, _BIAS - 1

# packed key of the trivial monomial (all exponents zero)
KEY_ONE = sum(_BIAS << (_FIELD_BITS * i) for i in range(NVARS))

# guard against runaway intermediate results (see ResourceLimitError)
MAX_TERMS = 4_000_000


class LimitError(ArithmeticError):
    """Raised by a_limit when the value has a pole at a=0."""

    def __init__(self, valuation):
        super().__init__(f"limit does not exist: a-valuation {valuation} < 0")
        self.valuation = valuation


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed the configured term budget."""


class InconsistentSystemError(ArithmeticError):
    """Raised when a linear system has no solution."""


class ProbeSingularError(InconsistentSystemError):
    """Raised by solve_poly_system when every probe point makes it singular.

    The system may still be consistent: its solution is not unique, or the
    probe points all lie on the vanishing locus of its determinants.  No
    caller retries with another solver; it is a subclass only so that code
    catching InconsistentSystemError sees every failed solve.
    """


def encode(exps):
    """Pack a tuple of doubled exponents into a single integer key."""
    key = 0
    for i, e in enumerate(exps):
        if not _EXP_MIN <= e <= _EXP_MAX:
            raise OverflowError(f"exponent {e} out of packed range")
        key |= (e + _BIAS) << (_FIELD_BITS * i)
    return key


def decode(key):
    """Unpack a key into the tuple of doubled exponents."""
    return tuple(((key >> (_FIELD_BITS * i)) & _MASK) - _BIAS
                 for i in range(NVARS))


def key_mul(k1, k2):
    return k1 + k2 - KEY_ONE


def key_inv(k):
    return 2 * KEY_ONE - k


def key_var(name, doubled=2):
    exps = [0] * NVARS
    exps[VARIABLES.index(name)] = doubled
    return encode(exps)


# ---------------------------------------------------------------------------
# polynomial layer: dict {key: int}, zero coefficients never stored
# ---------------------------------------------------------------------------

def pzero():
    return {}

def pone():
    return {KEY_ONE: 1}

def pconst(n):
    return {KEY_ONE: n} if n else {}


def padd(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pneg(f):
    return {k: -c for k, c in f.items()}


def psub(f, g):
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pmul(f, g):
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    if len(f) * len(g) > 8 * MAX_TERMS:
        raise ResourceLimitError(
            f"polynomial product of {len(f)} x {len(g)} terms exceeds budget")
    out = {}
    get = out.get
    for kf, cf in f.items():
        base = kf - KEY_ONE
        for kg, cg in g.items():
            k = base + kg
            c = get(k)
            if c is None:
                out[k] = cf * cg
            else:
                out[k] = c + cf * cg
    return {k: c for k, c in out.items() if c}


def pmul_int(f, n):
    if not n:
        return {}
    return {k: c * n for k, c in f.items()}


def ppow(f, n):
    out = pone()
    base = f
    while n:
        if n & 1:
            out = pmul(out, base)
        n >>= 1
        if n:
            base = pmul(base, base)
    return out


def pcontent(f):
    g = 0
    for c in f.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


_SHIFTS = tuple(_FIELD_BITS * i for i in range(NVARS))


def pmin_exps(keys):
    """Per-variable minimum exponents over a nonempty collection of keys."""
    return [min([(k >> s) & _MASK for k in keys]) - _BIAS for s in _SHIFTS]


def pexp_box(f):
    """Per-variable minimum and maximum exponents of a nonzero polynomial."""
    fields = [[(k >> s) & _MASK for k in f] for s in _SHIFTS]
    return ([min(c) - _BIAS for c in fields],
            [max(c) - _BIAS for c in fields])


def _grlex(key):
    e = decode(key)
    return (sum(e), e)


# 2^20 = 1 modulo _MASK = 2^20 - 1, so (k - KEY_ONE + _HALF) % _MASK is the
# total degree plus _HALF, exactly while the degree lies in [-_HALF, _HALF]
_HALF = _MASK // 2
_DEGREE_SHIFT = _HALF - KEY_ONE


def plead(f):
    """Leading key under graded-lex order on doubled exponents.

    The total degree is read off the packed key; `decode` runs only to break
    ties among the keys of the top degree.
    """
    ranks = {k: (k + _DEGREE_SHIFT) % _MASK for k in f}
    top = max(ranks.values())
    tied = [k for k, r in ranks.items() if r == top]
    return tied[0] if len(tied) == 1 else max(tied, key=decode)


def padams(f, n):
    """Raise every variable to the n-th power (ring homomorphism)."""
    if n == 1:
        return dict(f)
    return {encode(tuple(e * n for e in decode(k))): c for k, c in f.items()}


def _key_ge(a, b):
    """Is every exponent of key a at least the same exponent of key b?

    While |a_i - b_i| < 2^19, each field of a - b + KEY_ONE holds
    a_i - b_i + 2^19, so a_i >= b_i exactly when the top bit of the field,
    a bit of KEY_ONE, is set.
    """
    return (a - b + KEY_ONE) & KEY_ONE == KEY_ONE


def pdivexact(f, g):
    """Exact division f/g of Laurent polynomials, or None when g does not divide f.

    Long division takes the leading term as the largest packed key.  The
    fields are biased and non-negative, so integer order on keys is the
    lex order a > u > q > t2 > t1 on exponents; monomial multiplication is
    key addition, and integer order is translation invariant, so this is a
    monomial order and lead(q*g) = lead(q) + lead(g).  Finding the lead is a
    C-level max over ints, with no decoding.

    An exact quotient has, in every variable, the minimum exponent of f less
    that of g and the maximum exponent of f less that of g.  The quotient
    monomials come out in strictly decreasing order, so division stops at
    the first one outside that box; this bounds the work when g does not
    divide f.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return {}
    (f_min, f_max), (g_min, g_max) = pexp_box(f), pexp_box(g)
    lo = encode([a - b for a, b in zip(f_min, g_min)])
    hi = encode([a - b for a, b in zip(f_max, g_max)])
    gl = max(g)
    glc = g[gl]
    rem = dict(f)
    quot = {}
    while rem:
        rl = max(rem)
        qc, r = divmod(rem[rl], glc)
        if r:
            return None
        qk = rl - gl + KEY_ONE
        if not (_key_ge(qk, lo) and _key_ge(hi, qk)):
            return None
        quot[qk] = qc
        for k, c in g.items():
            kk = k + qk - KEY_ONE
            s = rem.get(kk, 0) - c * qc
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return quot


def prender(f, order="grlex"):
    """Deterministic text form, doubled exponents rendered as halves."""
    if not f:
        return "0"
    keys = sorted(f, key=_grlex, reverse=True)
    parts = []
    for k in keys:
        c = f[k]
        exps = decode(k)
        factors = []
        for name, e in zip(VARIABLES, exps):
            if e == 0:
                continue
            if e % 2 == 0:
                p = e // 2
                factors.append(name if p == 1 else f"{name}^{p}")
            else:
                factors.append(f"{name}^({e}/2)")
        mono = "*".join(factors)
        if not mono:
            term = str(abs(c))
        elif abs(c) == 1:
            term = mono
        else:
            term = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


# ---------------------------------------------------------------------------
# Scalar: canonical fraction of Laurent polynomials
# ---------------------------------------------------------------------------

def _canonicalize(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, pone()
    mins = pmin_exps([*num, *den])
    if any(mins):
        shift = KEY_ONE - encode(mins)
        num = {k + shift: c for k, c in num.items()}
        den = {k + shift: c for k, c in den.items()}
    g = math.gcd(pcontent(num), pcontent(den))
    if den[plead(den)] < 0:
        g = -g
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den = {k: c // g for k, c in den.items()}
    return num, den


class Scalar:
    """Exact rational function of t1, t2, q, u, a with half-integer exponents."""

    __slots__ = ("num", "den")
    __hash__ = None  # equality is mathematical, not structural

    def __init__(self, num, den=None):
        if den is None:
            den = pone()
        self.num, self.den = _canonicalize(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n):
        return Scalar(pconst(n))

    @staticmethod
    def fraction(a, b):
        return Scalar(pconst(a), pconst(b))

    @staticmethod
    def var(name):
        return Scalar({key_var(name, 2): 1})

    @staticmethod
    def sqrt_var(name):
        return Scalar({key_var(name, 1): 1})

    @staticmethod
    def monomial(coeff=1, **half_exponents):
        """Monomial with named doubled exponents, e.g. monomial(t1=3) = t1^(3/2)."""
        exps = [0] * NVARS
        for name, e in half_exponents.items():
            exps[VARIABLES.index(name)] = e
        return Scalar({encode(tuple(exps)): coeff})

    # -- basic structure -----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def __bool__(self):
        return bool(self.num)

    def is_monomial(self):
        return len(self.num) == 1 and len(self.den) == 1

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(pconst(x))
        if isinstance(x, Fraction):
            return Scalar(pconst(x.numerator), pconst(x.denominator))
        return NotImplemented

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(padd(self.num, other.num), dict(self.den))
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return Scalar(num, pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s.num = pneg(self.num)
        s.den = dict(self.den)
        return s

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return Scalar._coerce(other) / self

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return Scalar(dict(self.den), dict(self.num))

    def __pow__(self, n):
        if n == 0:
            return Scalar(pone())
        if n < 0:
            return self.inverse() ** (-n)
        return Scalar(ppow(self.num, n), ppow(self.den, n))

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num is other.num and self.den is other.den:
            return True
        if self.den == other.den:
            return self.num == other.num
        return pmul(self.num, other.den) == pmul(other.num, self.den)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    # -- domain operations ----------------------------------------------------

    def adams(self, k):
        """Replace every variable v by v^k; a ring homomorphism."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        s = Scalar.__new__(Scalar)
        s.num = padams(self.num, k)
        s.den = padams(self.den, k)
        return s

    @staticmethod
    def _var_min(poly, iv):
        return min(decode(k)[iv] for k in poly)

    def valuation(self, name):
        """Order of vanishing at name=0, as a Fraction (half-integers allowed)."""
        if not self.num:
            raise ZeroDivisionError(f"valuation of zero at {name}=0")
        iv = VARIABLES.index(name)
        return Fraction(Scalar._var_min(self.num, iv)
                        - Scalar._var_min(self.den, iv), 2)

    def limit_at_zero(self, name):
        """Value at name=0; raises LimitError when the valuation is negative."""
        if not self.num:
            return Scalar(pzero())
        val = self.valuation(name)
        if val < 0:
            raise LimitError(val)
        if val > 0:
            return Scalar(pzero())
        iv = VARIABLES.index(name)
        vn = Scalar._var_min(self.num, iv)
        num = {k: c for k, c in self.num.items() if decode(k)[iv] == vn}
        den = {k: c for k, c in self.den.items() if decode(k)[iv] == vn}
        shift = key_var(name, vn)
        num = {k - shift + KEY_ONE: c for k, c in num.items()}
        den = {k - shift + KEY_ONE: c for k, c in den.items()}
        return Scalar(num, den)

    def a_valuation(self):
        return self.valuation("a")

    def a_limit(self):
        return self.limit_at_zero("a")

    def reduced(self):
        """Try to cancel the denominator by exact division; fall back to self.

        Divides the numerator by the primitive part of the denominator and
        keeps its integer content, so that (x^2 - 1) / (2x - 2) reduces to
        (x + 1) / 2.  Not part of canonical form; used where construction
        routines are known to produce Laurent polynomials (over an integer)
        hidden behind an unreduced fraction.
        """
        if len(self.den) == 1:
            return self
        content = pcontent(self.den)
        q = pdivexact(self.num, {k: c // content for k, c in self.den.items()})
        if q is None:
            return self
        return Scalar(q, pconst(content))

    def specialize(self, assignment):
        """Substitute rationals for the square roots of selected variables.

        `assignment` maps a variable name to the rational value of its square
        root, e.g. {"t1": Fraction(2, 3)} sets t1^(1/2) = 2/3, t1 = 4/9.
        """
        idx = {VARIABLES.index(n): Fraction(v) for n, v in assignment.items()}
        for i, v in idx.items():
            if v == 0:
                raise ValueError(f"cannot specialize {VARIABLES[i]} to zero")

        def subst(poly):
            acc = {}
            for k, c in poly.items():
                e = list(decode(k))
                val = Fraction(c)
                for i, r in idx.items():
                    val *= r ** e[i]
                    e[i] = 0
                kk = encode(tuple(e))
                acc[kk] = acc.get(kk, Fraction(0)) + val
            acc = {k: v for k, v in acc.items() if v}
            if not acc:
                return {}
            lcm = 1
            for v in acc.values():
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
            return {k: int(v * lcm) for k, v in acc.items()}, lcm

        sd = subst(self.den)
        if not sd:
            raise ZeroDivisionError("specialization lies on the vanishing locus "
                                    "of the denominator")
        sn = subst(self.num)
        if not sn:
            return Scalar(pzero())
        (num, ln), (den, ld) = sn, sd
        return Scalar(pmul_int(num, ld), pmul_int(den, ln))

    # -- rendering -------------------------------------------------------------

    def render(self):
        if not self.num:
            return "0"
        if self.den == pone():
            return prender(self.num)
        return f"({prender(self.num)}) / ({prender(self.den)})"

    def __repr__(self):
        return f"Scalar({self.render()})"


ZERO = Scalar(pzero())
ONE = Scalar(pone())
T1 = Scalar.var("t1")
T2 = Scalar.var("t2")
Q = Scalar.var("q")
U = Scalar.var("u")
A = Scalar.var("a")
HBAR = T1 * T2
HBAR_SQRT = Scalar.monomial(t1=1, t2=1)


# ---------------------------------------------------------------------------
# exact linear algebra over Scalar
# ---------------------------------------------------------------------------

def gaussian_solve(rows, rhs):
    """Solve A x = b exactly over Scalar by Gaussian elimination.

    Returns one solution with free variables set to zero.  Raises
    InconsistentSystemError when no solution exists.  `rows` is a list of
    lists of Scalars, `rhs` a list of Scalars.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inverse()
        a[row] = [x * inv for x in a[row]]
        for r in range(m):
            if r != row and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not a[r][n].is_zero():
            raise InconsistentSystemError("linear system has no solution")
    x = [ZERO] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x


def _bareiss(m, n):
    """Fraction-free forward elimination, in place, on the first n columns.

    `m` holds n rows of polynomial dicts; columns past the n-th (a right-hand
    side) are carried along.  Afterwards the first n columns are upper
    triangular and every division of the Bareiss recurrence was exact, so
    the last pivot m[n-1][n-1] is the determinant of the row-permuted
    matrix.  Returns the sign of that permutation, or 0 when the first n
    columns are singular.
    """
    width = len(m[0])
    sign = 1
    prev = pone()
    for r in range(n - 1):
        if not m[r][r]:
            piv = next((i for i in range(r + 1, n) if m[i][r]), None)
            if piv is None:
                return 0
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, width):
                num = psub(pmul(m[r][r], m[i][j]), pmul(m[i][r], m[r][j]))
                q = pdivexact(num, prev)
                if q is None:
                    raise ArithmeticError("Bareiss division was not exact")
                m[i][j] = q
            m[i][r] = {}
        prev = m[r][r]
    return sign if m[n - 1][n - 1] else 0


def bareiss_det(matrix):
    """Fraction-free determinant of a square matrix of polynomial dicts."""
    n = len(matrix)
    if n == 0:
        return pone()
    m = [list(r) for r in matrix]
    sign = _bareiss(m, n)
    det = m[n - 1][n - 1] if sign else {}
    return pneg(det) if sign < 0 else det


def bareiss_solve(matrix, rhs):
    """Fraction-free solve of a square system A x = b of polynomial dicts.

    Returns (D, [N_j]) with D = det(A) and x_j = N_j / D, so N_j is the
    Cramer numerator det(A with column j replaced by b).  Bareiss forward
    elimination runs on [A | b]; back-substitution then computes
    N_i = (D b'_i - sum_{j>i} a'_ij N_j) / a'_ii, where every division is
    exact because N_i is a polynomial.  Raises ZeroDivisionError when A is
    singular.
    """
    n = len(matrix)
    if n == 0:
        return pone(), []
    m = [list(r) + [b] for r, b in zip(matrix, rhs)]
    sign = _bareiss(m, n)
    if not sign:
        raise ZeroDivisionError("singular matrix")
    D = m[n - 1][n - 1]
    nums = [None] * n
    nums[n - 1] = m[n - 1][n]  # D b' / a'_{n-1,n-1}, and a'_{n-1,n-1} = D
    for i in range(n - 2, -1, -1):
        acc = pmul(D, m[i][n])
        for j in range(i + 1, n):
            acc = psub(acc, pmul(m[i][j], nums[j]))
        x = pdivexact(acc, m[i][i])
        if x is None:
            raise ArithmeticError("back-substitution division was not exact")
        nums[i] = x
    if sign < 0:
        return pneg(D), [pneg(x) for x in nums]
    return D, nums


def eval_poly(poly, point):
    """Evaluate a polynomial dict at rational square-root values per variable.

    `point` maps every variable name to the Fraction value of its square
    root (doubled exponents act directly on these values).
    """
    vals = [Fraction(point[name]) for name in VARIABLES]
    total = Fraction(0)
    for k, c in poly.items():
        term = Fraction(c)
        for v, e in zip(vals, decode(k)):
            if e:
                term *= v ** e
        total += term
    return total


_PROBE_POINTS = (
    {"t1": Fraction(3, 2), "t2": Fraction(5, 7), "q": Fraction(2, 11),
     "u": Fraction(7, 3), "a": Fraction(9, 5)},
    {"t1": Fraction(2, 5), "t2": Fraction(7, 2), "q": Fraction(3, 13),
     "u": Fraction(5, 11), "a": Fraction(4, 7)},
    {"t1": Fraction(11, 6), "t2": Fraction(3, 10), "q": Fraction(8, 3),
     "u": Fraction(2, 7), "a": Fraction(5, 13)},
)


def solve_poly_system(rows, rhs):
    """Exactly solve a consistent polynomial-entry linear system.

    `rows` is a list of lists of polynomial dicts, `rhs` a list of
    polynomial dicts; the system must have a unique solution.  A rational
    specialization picks a square invertible subsystem, bareiss_solve gives
    its solution as numerators N_j over one determinant D, and every
    equation, the picked ones included, is verified as the polynomial
    identity sum_j row_j N_j == rhs D.  Returns a list of Scalars N_j / D.
    Raises ProbeSingularError when no probe point gives an invertible
    subsystem, and InconsistentSystemError when verification fails.
    """
    m, n = len(rows), len(rows[0])
    chosen = None
    for point in _PROBE_POINTS:
        spec = [[eval_poly(e, point) for e in row] for row in rows]
        picked, used = [], []
        work = [list(r) for r in spec]
        for col in range(n):
            piv = None
            for r in range(m):
                if r not in used and work[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                continue
            used.append(piv)
            picked.append(piv)
            fac = work[piv][col]
            for r in range(m):
                if r != piv and r not in used and work[r][col] != 0:
                    f = work[r][col] / fac
                    work[r] = [x - f * y for x, y in zip(work[r], work[piv])]
        if len(picked) == n:
            chosen = picked
            break
    if chosen is None:
        raise ProbeSingularError(
            f"{m} x {n} system is singular at every probe point")
    D, nums = bareiss_solve([rows[r] for r in chosen],
                            [rhs[r] for r in chosen])
    for row, b in zip(rows, rhs):
        acc = {}
        for e, x in zip(row, nums):
            if e and x:
                acc = padd(acc, pmul(e, x))
        if acc != pmul(b, D):
            raise InconsistentSystemError("polynomial system is inconsistent")
    return [Scalar(x, dict(D)) for x in nums]


def invert_matrix(rows):
    """Exact inverse of a square Scalar matrix; raises on singular input."""
    n = len(rows)
    a = [list(r) + [ONE if i == j else ZERO for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise InconsistentSystemError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
