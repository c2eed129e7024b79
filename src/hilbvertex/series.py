"""Truncated algebras over exact scalars, and power series in y and z.

Truncated is a commutative algebra of monomials with exact coefficients, cut
off at inclusive bounds: a finite map key -> coefficient together with the
bounds tuple.  Stored coefficients are never zero and every stored key lies
within the bounds, so zero is the empty map.  Binary operations take the
minimum of the two bounds, field by field.  A subclass gives only UNIT, the
key of the monomial 1, whether a key lies within its bounds, and the product
of two keys; this module's Series and fock's Fock-space elements are such
subclasses, and share the one arithmetic here.  Multiplying by an int, a
Scalar or a Series that is not an element of the same algebra scales every
coefficient.

A Series is the truncated algebra in y and z: keys (y_exp, z_exp), bounds
(ny, nz), Scalar coefficients.  It takes ints and Scalars as constants and
adds the series operations (exp, log, inverse, ...).  Rational
reconstruction in z closes the module.
"""

from .scalar import (Scalar, ZERO, ONE, InconsistentSystemError, pone, padd,
                     pmul, pdivexact, solve_poly_system)


class ReconstructionError(ArithmeticError):
    """No rational function of the requested degrees fits the series."""


class Truncated:
    """A truncated commutative algebra of monomials with exact coefficients.

    Subclasses set UNIT and give _within(key, bounds) and _key_product(a, b).
    """

    __slots__ = ("coeffs", "_bounds")
    __hash__ = None

    def __init__(self, coeffs, *bounds):
        self._bounds = bounds
        within = self._within
        self.coeffs = {key: c for key, c in coeffs.items()
                       if within(key, bounds) and not c.is_zero()}

    @classmethod
    def zero(cls, *bounds):
        return cls({}, *bounds)

    @classmethod
    def one(cls, *bounds):
        return cls({cls.UNIT: ONE}, *bounds)

    def bounds(self):
        return self._bounds

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        """other as an element of this algebra, or NotImplemented."""
        return other if isinstance(other, type(self)) else NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return type(self)(out, *map(min, self._bounds, other._bounds))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({key: -c for key, c in self.coeffs.items()},
                          *self._bounds)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            if isinstance(other, int):
                other = Scalar.from_int(other)
            elif not isinstance(other, (Scalar, Series)):
                return NotImplemented
            return type(self)({key: c * other for key, c in self.coeffs.items()},
                              *self._bounds)
        bounds = tuple(map(min, self._bounds, other._bounds))
        within, product = self._within, self._key_product
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = product(k1, k2)
                if within(key, bounds):
                    s = out.get(key)
                    out[key] = c1 * c2 if s is None else s + c1 * c2
        return type(self)(out, *bounds)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        theirs = other.coeffs
        return (self.coeffs.keys() == theirs.keys()
                and all(c == theirs[key] for key, c in self.coeffs.items()))


class Series(Truncated):
    __slots__ = ()
    UNIT = (0, 0)
    ny = property(lambda self: self._bounds[0])
    nz = property(lambda self: self._bounds[1])
    # kept in Series' own __dict__: perfbench/tracing.py wraps them there
    __add__ = __radd__ = Truncated.__add__
    __mul__ = __rmul__ = Truncated.__mul__

    @staticmethod
    def _within(key, bounds):
        return key[0] <= bounds[0] and key[1] <= bounds[1]

    @staticmethod
    def _key_product(a, b):
        return a[0] + b[0], a[1] + b[1]

    def _coerce(self, other):
        if isinstance(other, (int, Scalar)):
            return Series.const(other, *self._bounds)
        return super()._coerce(other)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def const(value, ny, nz):
        value = value if isinstance(value, Scalar) else Scalar.from_int(value)
        return Series({(0, 0): value}, ny, nz)

    @staticmethod
    def z(ny, nz):
        return Series({(0, 1): ONE}, ny, nz)

    @staticmethod
    def term(value, iy, iz, ny, nz):
        return Series({(iy, iz): value}, ny, nz)

    # -- structure --------------------------------------------------------------

    def coefficient(self, iy, iz):
        return self.coeffs.get((iy, iz), ZERO)

    def constant_term(self):
        return self.coefficient(0, 0)

    # -- series operations -----------------------------------------------------------

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.one(*self._bounds)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def exp(self):
        """exp of a series with zero constant term."""
        if not self.constant_term().is_zero():
            raise ValueError("exp needs a zero constant term")
        out = power = self.one(*self._bounds)
        fact = 1
        for m in range(1, sum(self._bounds) + 1):
            power = power * self
            if power.is_zero():
                break
            fact *= m
            out = out + power * Scalar.fraction(1, fact)
        return out

    def log(self):
        """log of a series with constant term 1."""
        if not self.constant_term().is_one():
            raise ValueError("log needs constant term 1")
        g = self - 1
        out = self.zero(*self._bounds)
        power = self.one(*self._bounds)
        for m in range(1, sum(self._bounds) + 1):
            power = power * g
            if power.is_zero():
                break
            out = out + power * Scalar.fraction((-1) ** (m + 1), m)
        return out

    def geom(self):
        """sum_{m>=0} self^m, the inverse of (1 - self); needs self(0,0) = 0."""
        if not self.constant_term().is_zero():
            raise ValueError("geom needs a zero constant term")
        out = power = self.one(*self._bounds)
        for _ in range(sum(self._bounds)):
            power = power * self
            if power.is_zero():
                break
            out = out + power
        return out

    def inverse(self):
        """Multiplicative inverse of a series with invertible constant term."""
        c = self.constant_term()
        if c.is_zero():
            raise ZeroDivisionError("series constant term is zero")
        cinv = c.inverse()
        g = self.one(*self._bounds) - self * cinv
        return g.geom() * cinv

    def reduced(self):
        """Scalar.reduced on every coefficient."""
        return Series({k: v.reduced() for k, v in self.coeffs.items()},
                      *self._bounds)

    def adams(self, k):
        """Replace every variable by its k-th power, including y and z."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        ny, nz = self._bounds
        out = {}
        for (iy, iz), v in self.coeffs.items():
            if iy * k > ny or iz * k > nz:
                continue
            out[(iy * k, iz * k)] = v.adams(k)
        return Series(out, ny, nz)

    def scale_z(self, factor):
        """Substitute z -> factor * z for a scalar factor."""
        return Series({(iy, iz): v * factor ** iz
                       for (iy, iz), v in self.coeffs.items()}, *self._bounds)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (iy, iz) in sorted(self.coeffs):
            mono = "*".join(
                ([f"y^{iy}"] if iy else []) + ([f"z^{iz}"] if iz else []))
            c = self.coeffs[(iy, iz)].render()
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"Series({self.render()}; ny={self.ny}, nz={self.nz})"


# ---------------------------------------------------------------------------
# rational reconstruction in z
# ---------------------------------------------------------------------------

def _z_coefficients(s):
    if any(iy for (iy, _) in s.coeffs):
        raise ValueError("rational reconstruction expects a pure z-series")
    return [s.coefficient(0, j) for j in range(s.nz + 1)]


def _over_common_denominator(scalars):
    """Rewrite Scalars over one shared denominator: (numerator polys, den).

    Keeps all downstream convolutions inside polynomial arithmetic, which is
    what makes exact reconstruction cheap; the shared denominator is the
    product of the structurally distinct denominators.
    """
    distinct = []
    for c in scalars:
        if not any(c.den == d for d in distinct):
            distinct.append(c.den)
    den = pone()
    for d in distinct:
        den = pmul(den, d)
    nums = []
    for c in scalars:
        rest = pdivexact(den, c.den)
        nums.append(pmul(c.num, rest))
    return nums, den


def _convolve(den_polys, num_polys, upto):
    """z-coefficients of den(z) * series, in shared-numerator form."""
    out = [{} for _ in range(upto + 1)]
    for d, p in den_polys.items():
        if not p:
            continue
        for j in range(upto + 1 - d):
            if num_polys[j]:
                out[j + d] = padd(out[j + d], pmul(p, num_polys[j]))
    return out


def rational_reconstruct(s, dn, dd, candidate_dens=None):
    """Reconstruct a rational function num/den in z from a truncated series.

    Returns (num, den) as dicts {z_degree: Scalar} with deg(num) <= dn,
    deg(den) <= dd, den normalized with constant term 1, certified by
    re-expansion through every supplied order.  `candidate_dens` is an
    optional list of denominator polynomials to try before the generic
    linear solve.  Raises ReconstructionError when nothing fits.
    """
    coeffs = _z_coefficients(s)
    if len(coeffs) < dn + dd + 2:
        raise ValueError(
            f"need at least {dn + dd + 2} coefficients, have {len(coeffs)}")
    M = len(coeffs) - 1
    s_nums, s_den = _over_common_denominator(coeffs)

    def finish(den):
        # den * series must be a polynomial of degree <= dn, checked through
        # every available order; this is the re-expansion certificate
        d_nums, d_den = _over_common_denominator(
            [den.get(j, ZERO) for j in range(max(den) + 1)])
        prod = _convolve(dict(enumerate(d_nums)), s_nums, M)
        if any(prod[j] for j in range(dn + 1, M + 1)):
            return None
        full_den = pmul(d_den, s_den)
        num = {}
        for j in range(dn + 1):
            if prod[j]:
                num[j] = Scalar(prod[j], dict(full_den))
        return num, den

    for cand in candidate_dens or ():
        if max(cand) > dd:
            continue
        got = finish(cand)
        if got is not None:
            return got

    # generic path: b_0 = 1 and sum_i b_i s_{j-i} = 0 for j = dn+1..dn+dd;
    # over the shared denominator this is a polynomial linear system, which
    # is singular yet consistent when the degree budgets exceed the true
    # degrees; its free unknowns are then zero
    if dd:
        rows = [[s_nums[j - i] if j - i >= 0 else {}
                 for i in range(1, dd + 1)]
                for j in range(dn + 1, dn + dd + 1)]
        rhs = [{k: -c for k, c in s_nums[j].items()}
               for j in range(dn + 1, dn + dd + 1)]
        try:
            sol = solve_poly_system(rows, rhs)
        except InconsistentSystemError:
            raise ReconstructionError(
                f"no rational function of degrees ({dn},{dd}) fits")
    else:
        sol = []
    den = {0: ONE}
    for i, b in enumerate(sol, start=1):
        if not b.is_zero():
            den[i] = b
    got = finish(den)
    if got is None:
        raise ReconstructionError(
            f"no rational function of degrees ({dn},{dd}) fits")
    return got
