"""Fock space and its tensor square: power-sum polynomials with exact coefficients.

A FockElement is a finite map from p-monomial indices (partitions mu, meaning
p_mu = prod p_{mu_i}) to coefficients, truncated by total degree N; the degree
of p_mu is |mu|, which doubles as the y-grading of all generating functions.
Coefficients are Scalars or z-Series; the two kinds are not mixed inside one
element.  TensorFockElement indexes by pairs (mu1, mu2).  Both are instances
of series.Truncated, the truncated algebra that Series is too, over their own
monomials: each gives only its unit monomial, the degree bound and the
product of two monomials.

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
from .series import Series, Truncated
from .characters import partitions


def heis_denominator(k):
    """d_k for k >= 1, on the half-integer exponent lattice."""
    f1 = Scalar.monomial(t1=k) - Scalar.monomial(t1=-k)
    f2 = Scalar.monomial(t2=k) - Scalar.monomial(t2=-k)
    return f1 * f2


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def _coefficient(f, key):
    """The coefficient of f at key: zero of the kind f stores if absent."""
    c = f.coeffs.get(key)
    if c is None:
        c = next(iter(f.coeffs.values()), ZERO) * 0
    return c


class FockElement(Truncated):
    __slots__ = ()
    UNIT = ()
    N = property(lambda self: self._bounds[0])
    _key_product = staticmethod(_merge)
    # kept in FockElement's own __dict__: perfbench/tracing.py wraps it there
    __eq__ = Truncated.__eq__

    @staticmethod
    def _within(mu, bounds):
        return sum(mu) <= bounds[0]

    @staticmethod
    def p(k, N):
        """The generator p_k with coefficient one."""
        return FockElement({(k,): ONE}, N)

    def coefficient(self, mu):
        return _coefficient(self, tuple(mu))

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
    (c_k^{m-1} / (m-1)!) * c_k * (1/m).  The unit at p_() is the first
    exponent to the power 0: a Series unit for Series exponents, else ONE.
    """
    one = next(iter(c.values()), ONE) ** 0
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

class TensorFockElement(Truncated):
    __slots__ = ()
    UNIT = ((), ())
    N = property(lambda self: self._bounds[0])

    @staticmethod
    def _within(key, bounds):
        return sum(key[0]) + sum(key[1]) <= bounds[0]

    @staticmethod
    def _key_product(a, b):
        return _merge(a[0], b[0]), _merge(a[1], b[1])

    def coefficient(self, mu1, mu2):
        return _coefficient(self, (tuple(mu1), tuple(mu2)))

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
