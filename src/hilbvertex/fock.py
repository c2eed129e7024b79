"""Fock space and its tensor square: power-sum polynomials with exact coefficients.

A FockElement is a finite map from p-monomial indices (partitions mu, meaning
p_mu = prod p_{mu_i}) to coefficients, truncated by total degree N; the degree
of p_mu is |mu|, which doubles as the y-grading of all generating functions.
Coefficients are Scalars or z-Series; the two kinds are not mixed inside one
element.  TensorFockElement indexes by pairs (mu1, mu2).  Both are the same
truncated algebra over different monomials, and share one arithmetic
(_PowerSums): each gives only its unit monomial, the degree of a monomial and
the product of two.

The tensor square (tensor_exp, jj0_substitute, project_second) is the
reference route of the derivation in the main statement; checks.build_F
reaches the same element on one factor, and tests compare the two.
jj0_substitute is the ring map p2_k -> p2_k + gamma_k p1_k, applied through
the shared multiplication.

The slope-0 Heisenberg generators act by -k d/dp_k for k > 0 and by
multiplication by -p_|k| / d_|k| for k < 0 where
d_k = (t1^(k/2) - t1^(-k/2)) (t2^(k/2) - t2^(-k/2)).
"""

from collections import Counter

from .scalar import Scalar, ZERO, ONE
from .series import Series
from .characters import partitions


def heis_denominator(k):
    """d_k for k >= 1, on the half-integer exponent lattice."""
    f1 = Scalar.monomial(t1=k) - Scalar.monomial(t1=-k)
    f2 = Scalar.monomial(t2=k) - Scalar.monomial(t2=-k)
    return f1 * f2


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


class _PowerSums:
    """A truncated commutative algebra of monomials with exact coefficients.

    Subclasses set UNIT, the key of the monomial 1, and give _degree(key)
    and _key_product(a, b).  Stored coefficients are never zero, and every
    key has degree <= N.
    """

    __slots__ = ("coeffs", "N")
    __hash__ = None

    def __init__(self, coeffs, N):
        self.N = N
        degree = self._degree
        self.coeffs = {key: c for key, c in coeffs.items()
                       if degree(key) <= N and not c.is_zero()}

    @classmethod
    def zero(cls, N):
        return cls({}, N)

    @classmethod
    def one(cls, N):
        return cls({cls.UNIT: ONE}, N)

    def _coefficient(self, key):
        c = self.coeffs.get(key)
        if c is not None:
            return c
        sample = next(iter(self.coeffs.values()), None)
        return Series.zero(*sample.bounds()) if isinstance(sample, Series) else ZERO

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return type(self)(out, min(self.N, other.N))

    def __neg__(self):
        return type(self)({key: -c for key, c in self.coeffs.items()}, self.N)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Series)):
            return type(self)({key: c * other for key, c in self.coeffs.items()},
                              self.N)
        N = min(self.N, other.N)
        degree, product = self._degree, self._key_product
        out = {}
        for k1, c1 in self.coeffs.items():
            d1 = degree(k1)
            for k2, c2 in other.coeffs.items():
                if d1 + degree(k2) > N:
                    continue
                key = product(k1, k2)
                s = out.get(key)
                out[key] = c1 * c2 if s is None else s + c1 * c2
        return type(self)(out, N)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        for key in set(self.coeffs) | set(other.coeffs):
            a = self.coeffs.get(key)
            b = other.coeffs.get(key)
            if a is None:
                a, b = b, a
            if b is None:
                if not a.is_zero():
                    return False
            elif a != b:
                return False
        return True


class FockElement(_PowerSums):
    __slots__ = ()
    UNIT = ()
    _degree = staticmethod(sum)
    _key_product = staticmethod(_merge)
    # kept in FockElement's own __dict__: perfbench/tracing.py wraps it there
    __eq__ = _PowerSums.__eq__

    @staticmethod
    def p(k, N):
        """The generator p_k with coefficient one."""
        return FockElement({(k,): ONE}, N)

    def coefficient(self, mu):
        return self._coefficient(tuple(mu))

    def degree_slice(self, n):
        return FockElement({mu: c for mu, c in self.coeffs.items()
                            if sum(mu) == n}, self.N)

    def __repr__(self):
        inner = ", ".join(f"p{list(mu)}: {c.render()}"
                          for mu, c in sorted(self.coeffs.items(),
                                              key=lambda kv: (sum(kv[0]), kv[0])))
        return f"FockElement({inner}; N={self.N})"


def heis(k, f):
    """Slope-0 Heisenberg action on a FockElement."""
    if k == 0:
        raise ValueError("Heisenberg index must be nonzero")
    if k < 0:
        return f * FockElement({(-k,): -(ONE / heis_denominator(-k))}, f.N)
    out = {}
    for mu, c in f.coeffs.items():
        m = mu.count(k)
        if not m:
            continue
        nu = list(mu)
        nu.remove(k)
        nu = tuple(nu)
        s = out.get(nu)
        term = c * (-k * m)
        out[nu] = term if s is None else s + term
    return FockElement(out, f.N)


def exp_linear(c, N):
    """exp(sum_k c_k p_k) truncated at total degree N.

    `c` maps part sizes k to coefficients; the p_mu coefficient of the result
    is prod_k c_k^{m_k} / m_k! over the multiplicities of mu.  Each
    c_k^m / m! with m > 1 is built once per call, from the one below it, as
    (c_k^{m-1} / (m-1)!) * c_k * (1/m).  The unit at p_() takes its type
    from the first exponent: a Series unit for Series exponents, else ONE.
    """
    sample = next(iter(c.values()), None)
    one = Series.one(*sample.bounds()) if isinstance(sample, Series) else ONE
    powers = {}

    def power(k, m):
        p = powers.get((k, m))
        if p is None:
            p = c[k] if m == 1 else \
                power(k, m - 1) * c[k] * Scalar.fraction(1, m)
            powers[k, m] = p
        return p

    out = {}
    for n in range(N + 1):
        for mu in partitions(n):
            mults = Counter(mu)
            if any(c.get(k) is None for k in mults):
                continue
            val = None
            for k, m in mults.items():
                f = power(k, m)
                val = f if val is None else val * f
            out[mu] = one if val is None else val
    return FockElement(out, N)


def plethystic_exponents(c1, N):
    """The exponents adams(c1, k) / k, k <= N, of the plethystic exponential."""
    return {k: c1.adams(k) * Scalar.fraction(1, k) for k in range(1, N + 1)}


def pexp(c1, N):
    """Plethystic exponential of c1 * p_1: exp(sum_k adams(c1, k) p_k / k)."""
    if isinstance(c1, (int,)):
        c1 = Scalar.from_int(c1)
    return exp_linear(plethystic_exponents(c1, N), N)


# ---------------------------------------------------------------------------
# tensor square
# ---------------------------------------------------------------------------

class TensorFockElement(_PowerSums):
    __slots__ = ()
    UNIT = ((), ())

    @staticmethod
    def _degree(key):
        return sum(key[0]) + sum(key[1])

    @staticmethod
    def _key_product(a, b):
        return _merge(a[0], b[0]), _merge(a[1], b[1])

    def coefficient(self, mu1, mu2):
        return self._coefficient((tuple(mu1), tuple(mu2)))

    def __repr__(self):
        inner = ", ".join(f"p{list(m1)}(x)p{list(m2)}: {c.render()}"
                          for (m1, m2), c in sorted(self.coeffs.items()))
        return f"TensorFockElement({inner}; N={self.N})"


def tensor_exp(c, d, N):
    """exp(sum_k c_k p^(1)_k + sum_k d_k p^(2)_k) truncated at joint degree N.

    The two sums commute, so this is the product of the single-factor
    exponentials of c and d, keeping the pairs with |mu1| + |mu2| <= N.
    """
    e1, e2 = exp_linear(c, N), exp_linear(d, N)
    return TensorFockElement({(mu1, mu2): a * b
                              for mu1, a in e1.coeffs.items()
                              for mu2, b in e2.coeffs.items()
                              if sum(mu1) + sum(mu2) <= N}, N)


# ---------------------------------------------------------------------------
# the fusion-ratio substitution on the tensor square
# ---------------------------------------------------------------------------

JJ0_READINGS = ("printed", "unsigned", "printed_inverse", "unsigned_inverse",
                "fusion_derived")


def jj0_correction(k, ny, nz, reading="printed"):
    """The z-series gamma_k with p^(2)_k -> p^(2)_k + gamma_k p^(1)_k.

    Readings of the substitution coefficient (the displayed forms disagree on
    the sign (-1)^k and on the power of hbar; "printed" is the rule as
    displayed, "fusion_derived" is what the fusion-operator expansion with the
    degree-independent central eigenvalue gives):
      printed            (-1)^k hbar^k  (hbar^k - hbar^-k) z^k/(1-z^k)
      unsigned                  hbar^k  (hbar^k - hbar^-k) z^k/(1-z^k)
      printed_inverse    (-1)^k hbar^-k (hbar^k - hbar^-k) z^k/(1-z^k)
      unsigned_inverse          hbar^-k (hbar^k - hbar^-k) z^k/(1-z^k)
      fusion_derived           -(hbar^(k/2) - hbar^(-k/2)) z^k/(1-z^k)
    """
    diff = Scalar.monomial(t1=2 * k, t2=2 * k) - Scalar.monomial(t1=-2 * k, t2=-2 * k)
    if reading == "printed":
        front = diff * Scalar.monomial((-1) ** k, t1=2 * k, t2=2 * k)
    elif reading == "unsigned":
        front = diff * Scalar.monomial(t1=2 * k, t2=2 * k)
    elif reading == "printed_inverse":
        front = diff * Scalar.monomial((-1) ** k, t1=-2 * k, t2=-2 * k)
    elif reading == "unsigned_inverse":
        front = diff * Scalar.monomial(t1=-2 * k, t2=-2 * k)
    elif reading == "fusion_derived":
        front = -(Scalar.monomial(t1=k, t2=k) - Scalar.monomial(t1=-k, t2=-k))
    else:
        raise ValueError(f"unknown substitution reading {reading!r}")
    # z^k/(1-z^k) expanded within the z-bound
    coeffs = {(0, j): front for j in range(k, nz + 1, k)}
    return Series(coeffs, ny, nz)


def jj0_substitute(T, reading="printed"):
    """Apply the algebra homomorphism p2_k -> p2_k + gamma_k p1_k.

    A term c p1_mu1 p2_mu2 maps to c p1_mu1 prod_{k in mu2} (p2_k + gamma_k
    p1_k); the terms sharing mu2 are mapped together.  Coefficients must be
    Series; the correction is exact through their z-bound.
    """
    sample = next(iter(T.coeffs.values()), None)
    if sample is None:
        return T
    if not isinstance(sample, Series):
        raise TypeError("jj0_substitute needs Series coefficients")
    ny, nz = sample.bounds()
    images = {}
    by_mu2 = {}
    for (mu1, mu2), c in T.coeffs.items():
        by_mu2.setdefault(mu2, {})[mu1, ()] = c
    out = TensorFockElement.zero(T.N)
    for mu2, first in by_mu2.items():
        term = TensorFockElement(first, T.N)
        for k in mu2:
            image = images.get(k)
            if image is None:
                image = images[k] = TensorFockElement(
                    {((), (k,)): Series.one(ny, nz),
                     ((k,), ()): jj0_correction(k, ny, nz, reading)}, T.N)
            term = term * image
        out = out + term
    return out


def project_second(T):
    """Keep only terms with trivial second component, as a FockElement."""
    return FockElement({mu1: c for (mu1, mu2), c in T.coeffs.items()
                        if not mu2}, T.N)
