"""Truncated bivariate power series in y and z over exact scalars.

A Series stores a finite map (y_exp, z_exp) -> Scalar together with inclusive
truncation orders (ny, nz).  Arithmetic never reports coefficients beyond the
bounds; the zero series has an empty map.  Binary operations combine bounds by
taking the minimum in each grading.
"""

from .scalar import (Scalar, ZERO, ONE, InconsistentSystemError, pone, padd,
                     pmul, pdivexact, solve_poly_system)


class ReconstructionError(ArithmeticError):
    """No rational function of the requested degrees fits the series."""


class Series:
    __slots__ = ("coeffs", "ny", "nz")
    __hash__ = None

    def __init__(self, coeffs, ny, nz):
        self.ny = ny
        self.nz = nz
        self.coeffs = {k: v for k, v in coeffs.items()
                       if k[0] <= ny and k[1] <= nz and not v.is_zero()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ny, nz):
        return Series({}, ny, nz)

    @staticmethod
    def const(value, ny, nz):
        value = value if isinstance(value, Scalar) else Scalar.from_int(value)
        return Series({(0, 0): value}, ny, nz)

    @staticmethod
    def one(ny, nz):
        return Series.const(ONE, ny, nz)

    @staticmethod
    def z(ny, nz):
        return Series({(0, 1): ONE}, ny, nz)

    @staticmethod
    def term(value, iy, iz, ny, nz):
        return Series({(iy, iz): value}, ny, nz)

    # -- structure --------------------------------------------------------------

    def bounds(self):
        return (self.ny, self.nz)

    def coefficient(self, iy, iz):
        return self.coeffs.get((iy, iz), ZERO)

    def constant_term(self):
        return self.coefficient(0, 0)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------------

    @staticmethod
    def _coerce(x, ny, nz):
        if isinstance(x, Series):
            return x
        if isinstance(x, (int, Scalar)):
            return Series.const(x, ny, nz)
        return NotImplemented

    def __add__(self, other):
        other = Series._coerce(other, self.ny, self.nz)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return Series(out, min(self.ny, other.ny), min(self.nz, other.nz))

    __radd__ = __add__

    def __neg__(self):
        return Series({k: -v for k, v in self.coeffs.items()}, self.ny, self.nz)

    def __sub__(self, other):
        other = Series._coerce(other, self.ny, self.nz)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Scalar._coerce(other)
            return Series({k: v * other for k, v in self.coeffs.items()},
                          self.ny, self.nz)
        if not isinstance(other, Series):
            return NotImplemented
        ny, nz = min(self.ny, other.ny), min(self.nz, other.nz)
        out = {}
        for (y1, z1), v1 in self.coeffs.items():
            for (y2, z2), v2 in other.coeffs.items():
                ky, kz = y1 + y2, z1 + z2
                if ky > ny or kz > nz:
                    continue
                k = (ky, kz)
                s = out.get(k)
                out[k] = v1 * v2 if s is None else s + v1 * v2
        return Series(out, ny, nz)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Series.one(self.ny, self.nz)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        other = Series._coerce(other, self.ny, self.nz)
        if other is NotImplemented:
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(*k) == other.coefficient(*k) for k in keys)

    # -- series operations -----------------------------------------------------------

    def exp(self):
        """exp of a series with zero constant term."""
        if not self.constant_term().is_zero():
            raise ValueError("exp needs a zero constant term")
        out = Series.one(self.ny, self.nz)
        power = Series.one(self.ny, self.nz)
        fact = 1
        for m in range(1, self.ny + self.nz + 1):
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
        out = Series.zero(self.ny, self.nz)
        power = Series.one(self.ny, self.nz)
        for m in range(1, self.ny + self.nz + 1):
            power = power * g
            if power.is_zero():
                break
            out = out + power * Scalar.fraction((-1) ** (m + 1), m)
        return out

    def geom(self):
        """sum_{m>=0} self^m, the inverse of (1 - self); needs self(0,0) = 0."""
        if not self.constant_term().is_zero():
            raise ValueError("geom needs a zero constant term")
        out = Series.one(self.ny, self.nz)
        power = Series.one(self.ny, self.nz)
        for _ in range(self.ny + self.nz):
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
        g = Series.one(self.ny, self.nz) - self * cinv
        return g.geom() * cinv

    def reduced(self):
        """Scalar.reduced on every coefficient."""
        return Series({k: v.reduced() for k, v in self.coeffs.items()},
                      self.ny, self.nz)

    def adams(self, k):
        """Replace every variable by its k-th power, including y and z."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        out = {}
        for (iy, iz), v in self.coeffs.items():
            if iy * k > self.ny or iz * k > self.nz:
                continue
            out[(iy * k, iz * k)] = v.adams(k)
        return Series(out, self.ny, self.nz)

    def scale_z(self, factor):
        """Substitute z -> factor * z for a scalar factor."""
        out = {}
        for (iy, iz), v in self.coeffs.items():
            out[(iy, iz)] = v * factor ** iz
        return Series(out, self.ny, self.nz)

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
