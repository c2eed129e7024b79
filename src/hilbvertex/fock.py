"""Fock space and its tensor square: power-sum polynomials with exact coefficients.

A FockElement is a finite map from p-monomial indices (partitions mu, meaning
p_mu = prod p_{mu_i}) to coefficients, truncated by total degree N; the degree
of p_mu is |mu|, which doubles as the y-grading of all generating functions.
Coefficients are Scalars or z-Series; the two kinds are not mixed inside one
element.  TensorFockElement indexes by pairs (mu1, mu2).  The tensor square
(tensor_exp, jj0_substitute, project_second) is the reference route of the
derivation in the main statement; checks.build_F reaches the same element on
one factor, and tests compare the two.

The slope-0 Heisenberg generators act by -k d/dp_k for k > 0 and by
multiplication by -p_|k| / d_|k| for k < 0 where
d_k = (t1^(k/2) - t1^(-k/2)) (t2^(k/2) - t2^(-k/2)).
"""

from math import comb

from .scalar import Scalar, ZERO, ONE, HBAR
from .series import Series
from .characters import partitions


def heis_denominator(k):
    """d_k for k >= 1, on the half-integer exponent lattice."""
    f1 = Scalar.monomial(t1=k) - Scalar.monomial(t1=-k)
    f2 = Scalar.monomial(t2=k) - Scalar.monomial(t2=-k)
    return f1 * f2


def heis_level(k):
    """n_k = d_k (hbar^(k/2) - hbar^(-k/2)) / k, the structure constant."""
    h = Scalar.monomial(t1=k, t2=k) - Scalar.monomial(t1=-k, t2=-k)
    return heis_denominator(k) * h / k


class HeisenbergIndex:
    """Nonzero generator index with its structure constants."""

    __slots__ = ("k",)

    def __init__(self, k):
        if k == 0:
            raise ValueError("Heisenberg index must be nonzero")
        self.k = k

    @property
    def d(self):
        return heis_denominator(abs(self.k))

    @property
    def n(self):
        return heis_level(abs(self.k))


def _sorted_merge(mu, extra):
    return tuple(sorted(mu + (extra,), reverse=True))


def _remove_part(mu, k):
    out = list(mu)
    out.remove(k)
    return tuple(out)


def _mults(mu):
    d = {}
    for k in mu:
        d[k] = d.get(k, 0) + 1
    return d


class FockElement:
    __slots__ = ("coeffs", "N")
    __hash__ = None

    def __init__(self, coeffs, N):
        self.N = N
        self.coeffs = {mu: c for mu, c in coeffs.items()
                       if sum(mu) <= N and not c.is_zero()}

    @staticmethod
    def zero(N):
        return FockElement({}, N)

    @staticmethod
    def one(N, like=None):
        c = like if like is not None else ONE
        return FockElement({(): c}, N)

    @staticmethod
    def p(k, N):
        """The generator p_k with coefficient one."""
        return FockElement({(k,): ONE}, N)

    def coefficient(self, mu):
        c = self.coeffs.get(tuple(mu))
        if c is not None:
            return c
        sample = next(iter(self.coeffs.values()), None)
        return Series.zero(*sample.bounds()) if isinstance(sample, Series) else ZERO

    def degree_slice(self, n):
        return FockElement({mu: c for mu, c in self.coeffs.items()
                            if sum(mu) == n}, self.N)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            s = out.get(mu)
            out[mu] = c if s is None else s + c
        return FockElement(out, min(self.N, other.N))

    def __neg__(self):
        return FockElement({mu: -c for mu, c in self.coeffs.items()}, self.N)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Series)):
            return FockElement({mu: c * other for mu, c in self.coeffs.items()},
                               self.N)
        N = min(self.N, other.N)
        out = {}
        for mu1, c1 in self.coeffs.items():
            d1 = sum(mu1)
            for mu2, c2 in other.coeffs.items():
                if d1 + sum(mu2) > N:
                    continue
                mu = tuple(sorted(mu1 + mu2, reverse=True))
                s = out.get(mu)
                out[mu] = c1 * c2 if s is None else s + c1 * c2
        return FockElement(out, N)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FockElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        for mu in keys:
            a = self.coeffs.get(mu)
            b = other.coeffs.get(mu)
            if a is None:
                a, b = b, a
            if b is None:
                if not a.is_zero():
                    return False
            elif a != b:
                return False
        return True

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def first_difference(self, other):
        """Smallest (degree, mu) where coefficients differ, or None."""
        keys = sorted(set(self.coeffs) | set(other.coeffs),
                      key=lambda mu: (sum(mu), mu))
        for mu in keys:
            if self.coefficient(mu) != other.coefficient(mu):
                return mu
        return None

    def __repr__(self):
        inner = ", ".join(f"p{list(mu)}: {c.render()}"
                          for mu, c in sorted(self.coeffs.items(),
                                              key=lambda kv: (sum(kv[0]), kv[0])))
        return f"FockElement({inner}; N={self.N})"


def heis(k, f):
    """Slope-0 Heisenberg action on a FockElement."""
    if isinstance(k, HeisenbergIndex):
        k = k.k
    if k == 0:
        raise ValueError("Heisenberg index must be nonzero")
    out = {}
    if k > 0:
        for mu, c in f.coeffs.items():
            m = mu.count(k)
            if not m:
                continue
            nu = _remove_part(mu, k)
            s = out.get(nu)
            term = c * (-k * m)
            out[nu] = term if s is None else s + term
        return FockElement(out, f.N)
    kk = -k
    d = heis_denominator(kk)
    for mu, c in f.coeffs.items():
        if sum(mu) + kk > f.N:
            continue
        nu = _sorted_merge(mu, kk)
        s = out.get(nu)
        term = c * (ONE / d) * (-1)
        out[nu] = term if s is None else s + term
    return FockElement(out, f.N)


def exp_linear(c, N, one=None):
    """exp(sum_k c_k p_k) truncated at total degree N.

    `c` maps part sizes k to coefficients; the p_mu coefficient of the result
    is prod_k c_k^{m_k} / m_k! over the multiplicities of mu.  Each
    c_k^m / m! with m > 1 is built once per call, from the one below it, as
    (c_k^{m-1} / (m-1)!) * c_k * (1/m).
    """
    if one is None:
        sample = next(iter(c.values()), None)
        one = (Series.one(*sample.bounds()) if isinstance(sample, Series)
               else ONE)
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
        for mu in _partitions_cached(n):
            mults = _mults(mu)
            if any(c.get(k) is None for k in mults):
                continue
            val = None
            for k, m in mults.items():
                f = power(k, m)
                val = f if val is None else val * f
            out[mu] = one if val is None else val
    return FockElement(out, N)


def _partitions_cached(n, _cache={}):
    if n not in _cache:
        _cache[n] = partitions(n)
    return _cache[n]


def fock_exp(f):
    """exp of a FockElement with zero constant term, truncated at f.N."""
    c0 = f.coeffs.get(())
    if c0 is not None and not c0.is_zero():
        raise ValueError("exp needs a zero constant term")
    like = next(iter(f.coeffs.values()), None)
    one = (Series.one(*like.bounds()) if isinstance(like, Series) else ONE)
    out = FockElement.one(f.N, one)
    power = out
    fact = 1
    for m in range(1, f.N + 1):
        power = power * f
        if power.is_zero():
            break
        fact *= m
        out = out + power * Scalar.fraction(1, fact)
    return out


def fock_log(f):
    """log of a FockElement with constant term 1."""
    c0 = f.coeffs.get(())
    one = ONE if not isinstance(c0, Series) else Series.one(*c0.bounds())
    if c0 is None or c0 != one:
        raise ValueError("log needs constant term 1")
    g = f - FockElement.one(f.N, one)
    out = FockElement.zero(f.N)
    power = FockElement.one(f.N, one)
    for m in range(1, f.N + 1):
        power = power * g
        if power.is_zero():
            break
        out = out + power * Scalar.fraction((-1) ** (m + 1), m)
    return out


def plethystic_exponents(c1, N):
    """The exponents adams(c1, k) / k, k <= N, of the plethystic exponential."""
    return {k: c1.adams(k) * Scalar.fraction(1, k) for k in range(1, N + 1)}


def pexp(c1, N):
    """Plethystic exponential of c1 * p_1: exp(sum_k adams(c1, k) p_k / k)."""
    if isinstance(c1, (int,)):
        c1 = Scalar.from_int(c1)
    one = Series.one(*c1.bounds()) if isinstance(c1, Series) else None
    return exp_linear(plethystic_exponents(c1, N), N, one=one)


# ---------------------------------------------------------------------------
# tensor square
# ---------------------------------------------------------------------------

class TensorFockElement:
    __slots__ = ("coeffs", "N")
    __hash__ = None

    def __init__(self, coeffs, N):
        self.N = N
        self.coeffs = {k: c for k, c in coeffs.items()
                       if sum(k[0]) + sum(k[1]) <= N and not c.is_zero()}

    @staticmethod
    def zero(N):
        return TensorFockElement({}, N)

    @staticmethod
    def one(N, like=None):
        return TensorFockElement({((), ()): like if like is not None else ONE}, N)

    def coefficient(self, mu1, mu2):
        c = self.coeffs.get((tuple(mu1), tuple(mu2)))
        if c is not None:
            return c
        sample = next(iter(self.coeffs.values()), None)
        return Series.zero(*sample.bounds()) if isinstance(sample, Series) else ZERO

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return TensorFockElement(out, min(self.N, other.N))

    def __neg__(self):
        return TensorFockElement({k: -c for k, c in self.coeffs.items()}, self.N)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar, Series)):
            return TensorFockElement(
                {k: c * other for k, c in self.coeffs.items()}, self.N)
        N = min(self.N, other.N)
        out = {}
        for (a1, a2), c1 in self.coeffs.items():
            d1 = sum(a1) + sum(a2)
            for (b1, b2), c2 in other.coeffs.items():
                if d1 + sum(b1) + sum(b2) > N:
                    continue
                k = (tuple(sorted(a1 + b1, reverse=True)),
                     tuple(sorted(a2 + b2, reverse=True)))
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return TensorFockElement(out, N)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorFockElement):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        for k in keys:
            if self.coefficient(*k) != other.coefficient(*k):
                return False
        return True

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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

    Coefficients must be Series; the correction is exact through the z-bound
    of the coefficients.
    """
    sample = next(iter(T.coeffs.values()), None)
    if sample is None:
        return T
    if not isinstance(sample, Series):
        raise TypeError("jj0_substitute needs Series coefficients")
    ny, nz = sample.bounds()
    gammas = {}
    out = {}
    for (mu1, mu2), c in T.coeffs.items():
        # expand prod over parts k of mu2 of (p2_k + gamma_k p1_k)
        expansions = [((mu1, ()), c)]
        for k, m in _mults(mu2).items():
            g = gammas.get(k)
            if g is None:
                g = jj0_correction(k, ny, nz, reading)
                gammas[k] = g
            new = []
            for (key, val) in expansions:
                b1, b2 = key
                gp = Series.one(ny, nz)
                for j in range(m + 1):
                    # j factors become gamma_k p1_k, m-j stay p2_k
                    term = val * (gp * comb(m, j))
                    nk1 = tuple(sorted(b1 + (k,) * j, reverse=True))
                    nk2 = tuple(sorted(b2 + (k,) * (m - j), reverse=True))
                    new.append(((nk1, nk2), term))
                    if j < m:
                        gp = gp * g
            merged = {}
            for key, val in new:
                s = merged.get(key)
                merged[key] = val if s is None else s + val
            expansions = list(merged.items())
        for key, val in expansions:
            s = out.get(key)
            out[key] = val if s is None else s + val
    return TensorFockElement(out, T.N)


def project_second(T):
    """Keep only terms with trivial second component, as a FockElement."""
    return FockElement({mu1: c for (mu1, mu2), c in T.coeffs.items()
                        if not mu2}, T.N)
