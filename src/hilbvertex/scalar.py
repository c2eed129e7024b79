"""Exact sparse arithmetic for Laurent rational functions of the ground variables.

Every value is a fraction num/den of sparse Laurent polynomials over the
integers in the variables t1, t2, q, u, a.  A sixth variable, w = z hbar / q,
appears only inside the numerators of the capped vertex tables (checks.py),
which are split by w-degree before any Scalar is built.  Exponents are
half-integers, stored internally as doubled integers, so quantities like
hbar^(1/2) = (t1*t2)^(1/2) are exact.  Full multivariate gcd reduction is
deliberately not performed.  Equality is decided by cross multiplication,
which makes it exact without gcd.

A fraction has two normal forms, both unique up to the choice of num/den
among unit multiples (an integer times a monomial):
- the stored form (`_canonicalize`, held by every Scalar): the largest
  packed key of den is KEY_ONE, its coefficient is positive, and num and
  den have integer content 1.  The largest key leads under a monomial order
  (see `pdivexact`), so a product or a sum of stored Scalars is stored
  again with no shift and no sign flip, and it costs one C-level max;
- the printed form (`_printed`, used only by `Scalar.render` and
  `Scalar.render_parts`): no monomial divides both num and den, and the
  graded-lex leading coefficient of den is positive.  Printed text is
  therefore independent of how a value is stored.

Two denominators that agree up to a unit, b*d2 == a*m*d1 with a monomial m
and integers a, b, are recognized in O(len) (`_unit_ratio`): a sum over them
stays over the one denominator b*d2, without cross multiplication.  On
stored denominators m is always 1.  A sum computed this way can be stored
differently from the cross-multiplied sum, with an equal value.

A polynomial is a plain dict {packed_key: int}.  A packed key holds the six
doubled exponents in 20-bit biased fields of one Python int, so monomial
multiplication is a single integer addition.  w has the last field, so a
key without w has the integer order, graded-lex rank and text it would have
without the field.  Most products in the checks have a one-term operand;
`pmul` forms those as one shift of the other operand's keys, with no
accumulator, and `pmul_into` adds a product into a running sum in place.
`prender` decodes each key once per process and keeps its graded-lex rank
and text in a memo.
"""

import math
from fractions import Fraction
from functools import reduce

VARIABLES = ("t1", "t2", "q", "u", "a", "w")
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
    """Raised by limit_at_zero when the value has a pole at name=0."""

    def __init__(self, name, valuation):
        super().__init__(
            f"limit does not exist: {name}-valuation {valuation} < 0")
        self.valuation = valuation


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed the configured term budget."""


class InconsistentSystemError(ArithmeticError):
    """Raised when a linear system has no solution."""


def encode(exps):
    """Pack a tuple of NVARS doubled exponents into a single integer key."""
    if len(exps) != NVARS:
        raise ValueError(f"a key needs {NVARS} exponents, not {len(exps)}")
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


def key_exp(key, i):
    """The doubled exponent of VARIABLES[i] in a packed key."""
    return ((key >> (_FIELD_BITS * i)) & _MASK) - _BIAS


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


def _check_budget(f, g):
    if len(f) * len(g) > 8 * MAX_TERMS:
        raise ResourceLimitError(
            f"polynomial product of {len(f)} x {len(g)} terms exceeds budget")


def pmul_into(out, f, g):
    """Add f*g into `out` in place and return `out`; zero coefficients are
    kept, so that a sum of many products drops them once, at the end."""
    _check_budget(f, g)
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
    return out


def pmul(f, g):
    """Product of two polynomials, always a new dict.

    A one-term operand c*m shifts every key of the other by m and scales it
    by c; nonzero times nonzero is nonzero, so nothing is filtered.
    """
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        _check_budget(f, g)
        (kf, cf), = f.items()
        if kf == KEY_ONE and cf == 1:
            return dict(g)
        base = kf - KEY_ONE
        return {base + k: cf * c for k, c in g.items()}
    return {k: c for k, c in pmul_into({}, f, g).items() if c}


def pmul_int(f, n):
    if not n:
        return {}
    return {k: c * n for k, c in f.items()}


def ppow(f, n):
    if n < 0:
        raise ValueError("a polynomial power needs n >= 0")
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


def padams(f, n):
    """Raise every variable to the n-th power (ring homomorphism).

    k - KEY_ONE is linear in the exponents of k, so the key of the n-th
    power is KEY_ONE + n (k - KEY_ONE); as in pmul, the exponents are
    trusted to stay in the packed range.
    """
    return {KEY_ONE + n * (k - KEY_ONE): c for k, c in f.items()}


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
    lex order w > a > u > q > t2 > t1 on exponents; monomial multiplication
    is key addition, and integer order is translation invariant, so this is
    a monomial order and lead(q*g) = lead(q) + lead(g).  Finding the lead is a
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


# packed key -> (graded-lex rank, monomial text); filled by `prender`
_MONOMIALS = {}


def _monomial(key):
    rank = _grlex(key)
    factors = []
    for name, e in zip(VARIABLES, rank[1]):
        if e == 0:
            continue
        if e % 2 == 0:
            p = e // 2
            factors.append(name if p == 1 else f"{name}^{p}")
        else:
            factors.append(f"{name}^({e}/2)")
    entry = _MONOMIALS[key] = (rank, "*".join(factors))
    return entry


def plead(f):
    """Leading key under graded-lex order on doubled exponents, ranked
    through the memo of `prender`."""
    memo = _MONOMIALS
    return max(f, key=lambda k: (memo.get(k) or _monomial(k))[0])


def prender(f):
    """Deterministic text form, doubled exponents rendered as halves.

    Terms are printed in decreasing graded-lex order.  Each key's rank and
    monomial text come from the memo `_MONOMIALS`, so a key is decoded once
    per process, however often it is printed.
    """
    if not f:
        return "0"
    memo = _MONOMIALS
    entries = [(memo.get(k) or _monomial(k), c) for k, c in f.items()]
    entries.sort(key=lambda entry: entry[0][0], reverse=True)
    parts = []
    for (_, mono), c in entries:
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

def _unit_ratio(d1, d2):
    """(a, b) with b*d2 == a*d1, or None when no such integers exist.

    d1 and d2 are stored denominators, so both lead with KEY_ONE (see
    `_canonicalize`) and the only monomial that can relate them is 1; a and
    b are the coprime integers of the ratio of the two leading
    coefficients, with b > 0, and every term is then checked.
    """
    if len(d1) != len(d2):
        return None
    c1, c2 = d1[KEY_ONE], d2[KEY_ONE]
    g = math.gcd(c1, c2)
    a, b = c2 // g, c1 // g
    get = d2.get
    for k, c in d1.items():
        if get(k, 0) * b != a * c:
            return None
    return a, b


def _canonicalize(num, den):
    """Stored form: den leads with KEY_ONE, positively, and content is 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, pone()
    lead = max(den)
    if lead != KEY_ONE:
        shift = KEY_ONE - lead
        num = {k + shift: c for k, c in num.items()}
        den = {k + shift: c for k, c in den.items()}
    g = pcontent(den)
    if g != 1:
        g = math.gcd(pcontent(num), g)
    if den[KEY_ONE] < 0:
        g = -g
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den = {k: c // g for k, c in den.items()}
    return num, den


def _printed(num, den):
    """Printed form of a stored fraction: no monomial divides both num and
    den, and the graded-lex leading coefficient of den is positive."""
    mins = pmin_exps([*num, *den])
    if any(mins):
        shift = KEY_ONE - encode(mins)
        num = {k + shift: c for k, c in num.items()}
        den = {k + shift: c for k, c in den.items()}
    if den[plead(den)] < 0:
        num, den = pneg(num), pneg(den)
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
        return NotImplemented

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(padd(self.num, other.num), dict(self.den))
        unit = _unit_ratio(self.den, other.den)
        if unit:
            a, b = unit
            num = padd(pmul_int(self.num, a), pmul_int(other.num, b))
            return Scalar(num, pmul_int(other.den, b))
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
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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

    # -- domain operations ----------------------------------------------------

    def adams(self, k):
        """Replace every variable v by v^k; a ring homomorphism."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        # scaling every exponent by k > 0 keeps the order of packed keys and
        # fixes KEY_ONE, so the stored form needs no new normalization
        s = Scalar.__new__(Scalar)
        s.num = padams(self.num, k)
        s.den = padams(self.den, k)
        return s

    def limit_at_zero(self, name):
        """Value at name=0; raises LimitError when the valuation is negative."""
        if not self.num:
            return Scalar(pzero())
        iv = VARIABLES.index(name)
        vn, vd = pmin_exps(self.num)[iv], pmin_exps(self.den)[iv]
        if vn < vd:
            raise LimitError(name, Fraction(vn - vd, 2))
        if vn > vd:
            return Scalar(pzero())
        # keep the terms of lowest degree in the variable, divided by it
        s, field = _FIELD_BITS * iv, vn + _BIAS
        shift = key_var(name, vn) - KEY_ONE
        num = {k - shift: c for k, c in self.num.items()
               if (k >> s) & _MASK == field}
        den = {k - shift: c for k, c in self.den.items()
               if (k >> s) & _MASK == field}
        return Scalar(num, den)

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

    # -- rendering -------------------------------------------------------------

    def render_parts(self):
        """Texts of the printed numerator and denominator."""
        num, den = _printed(self.num, self.den)
        return prender(num), prender(den)

    def render(self):
        if not self.num:
            return "0"
        num, den = self.render_parts()
        return num if den == "1" else f"({num}) / ({den})"

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


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination over polynomial entries
#
# `_bareiss` brings [A | right-hand sides] to echelon form and
# `_back_substitute` reads one column's Cramer numerators off it.  The three
# entry points all run on that one elimination:
# - solve_poly_system, the solve: any consistent system, verified; it serves
#   rational reconstruction (series) and the Macdonald references (macd_P,
#   macd_H_axioms);
# - bareiss_det, the determinant: sign times the last pivot;
# - invert_matrix, the inverse: the identity columns ride along.
# No code of the package calls the last two; perfbench/tracing.py times
# them by name.
# ---------------------------------------------------------------------------

def _bareiss(m, n):
    """Fraction-free echelon form, in place, on the first n columns of m.

    `m` is a list of rows of polynomial dicts; later columns (right-hand
    sides) are carried along.  In each column the pivot is the first
    remaining row with a nonzero entry; a column with none is skipped.  On
    the pivot columns and any one later column this is Bareiss's recurrence
    (Math. Comp. 22, 1968), so every entry is a minor of the row-permuted
    input and every division is exact.  Returns (pivots, sign): the pivot
    column of each of the first rank rows, and the sign of the row
    permutation.  Rows past the rank are zero in the first n columns.
    """
    sign, prev, pivots = 1, pone(), []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, len(m)):
            for j in range(c + 1, len(m[i])):
                q = pdivexact(psub(pmul(p, m[i][j]), pmul(m[i][c], m[r][j])),
                              prev)
                if q is None:
                    raise ArithmeticError("Bareiss division was not exact")
                m[i][j] = q
            m[i][c] = {}
        prev = p
        pivots.append(c)
    return pivots, sign


def _back_substitute(m, pivots, col):
    """Solve the pivot rows of an echelon form against column `col`.

    Returns (D, [N_r]) with D the last pivot and N_r / D the unknown of
    pivot column pivots[r].  Restricted to the pivot rows and columns the
    echelon form is Bareiss's triangle of a square system, so D is its
    determinant, N_r its Cramer numerator, and N_r = (D b'_r - sum_{s>r}
    a'_{r,c_s} N_s) / a'_{r,c_r} divides exactly.
    """
    k = len(pivots)
    if not k:
        return pone(), []
    D = m[k - 1][pivots[-1]]
    nums = [None] * k
    nums[-1] = m[k - 1][col]  # D b' / a', and a' = D
    for i in range(k - 2, -1, -1):
        acc = pmul(D, m[i][col])
        for j in range(i + 1, k):
            acc = psub(acc, pmul(m[i][pivots[j]], nums[j]))
        x = pdivexact(acc, m[i][pivots[i]])
        if x is None:
            raise ArithmeticError("back-substitution division was not exact")
        nums[i] = x
    return D, nums


def bareiss_det(matrix):
    """Fraction-free determinant of a square matrix of polynomial dicts."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    pivots, sign = _bareiss(m, n)
    if len(pivots) < n:
        return {}
    D = m[-1][-1] if n else pone()
    return pneg(D) if sign < 0 else D


def solve_poly_system(rows, rhs):
    """Exactly solve a consistent linear system with polynomial entries.

    `rows` is a list of lists of polynomial dicts, `rhs` a list of
    polynomial dicts; any number of rows, of any rank.  The fraction-free
    echelon form of [A | b] over all rows chooses the pivot rows exactly;
    a row past the rank with a nonzero right-hand side raises
    InconsistentSystemError.  Otherwise the unknowns of non-pivot columns
    are set to zero, the pivot unknowns are numerators N_j over one
    determinant D, and every equation is verified as the polynomial
    identity sum_j row_j N_j == rhs D.  Returns a list of Scalars N_j / D.
    """
    if not rows:
        return []
    n = len(rows[0])
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, _ = _bareiss(m, n)
    if any(row[n] for row in m[len(pivots):]):
        raise InconsistentSystemError("polynomial system is inconsistent")
    D, nums = _back_substitute(m, pivots, n)
    by_col = dict(zip(pivots, nums))
    x = [by_col.get(c, {}) for c in range(n)]
    for row, b in zip(rows, rhs):
        acc = {}
        for e, v in zip(row, x):
            if e and v:
                acc = padd(acc, pmul(e, v))
        if acc != pmul(b, D):
            raise InconsistentSystemError("polynomial system is inconsistent")
    return [Scalar(v, dict(D)) for v in x]


def invert_matrix(rows):
    """Exact inverse of a square Scalar matrix.

    Each row is cleared over the product of its denominators, and its
    cleared identity column rides along through one elimination; each
    column of the inverse is then one back-substitution.  Raises
    InconsistentSystemError when the matrix is singular.
    """
    n = len(rows)
    m = []
    for i, row in enumerate(rows):
        L = reduce(pmul, [e.den for e in row], pone())
        m.append([pdivexact(pmul(e.num, L), e.den) for e in row]
                 + [L if j == i else {} for j in range(n)])
    pivots, _ = _bareiss(m, n)
    if len(pivots) < n:
        raise InconsistentSystemError("matrix is singular")
    cols = [_back_substitute(m, pivots, n + j) for j in range(n)]
    return [[Scalar(nums[i], dict(D)) for D, nums in cols] for i in range(n)]
