"""Executable verification of the generating-function identities.

Every check returns a VerificationReport (exact arithmetic, tolerance zero).
For the series identities a pass means the re-expanded difference is
identically zero through the stated orders.  The capped vertex tables behind
the rationality check are exact rational functions of z, with no
truncation, over the candidate denominator prod_{k<=n} (1 - (z hbar/q)^k)
by construction; the check is that each table, written in the shifted
variable z hbar / q, does not depend on q, in every degree 1..n.  A mismatch
always carries a concrete witness.  The resolved-convention record travels
with every report so runs are auditable: tangent orientation (it enters
only the Euler factor; the localization checks share one basis), Euler
convention, the structure-sheaf sign transport, the validated limit
normalization, and the argument shift/reading that reconciles the derived
and closed generating functions.  The derived side is computed on one Fock
factor; the tensor-square route of fock.py is its reference.

The fusion identities (check_main, check_ook) and the degenerate slice
(check_degenerate_slice) compare exponentials exp(sum_k c_k p_k) of forms
linear in the p_k.  They are decided on the exponents: two such
exponentials truncated at degree N are equal exactly when c_k agree for
every k <= N, since the p_(k) coefficient is c_k itself and every other
coefficient is a polynomial in the c_j.  The first differing c_k is also the
coefficient where the expanded sides first differ, so the witness is the one
the expansions would give.
"""

import json
import time
from collections import namedtuple
from functools import reduce

from .scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR,
                     LimitError, VARIABLES, key_exp, pmul)
from .series import Series
from .characters import (partitions, boxes, size, fixed_points_rank2,
                         chern_eigen, o_line_eigen, delta_11)
from .fock import (exp_linear, plethystic_exponents, jj0_correction,
                   JJ0_READINGS)
from .macdonald import MAX_DEGREE, default_basis, star_weight

_Q_INDEX = VARIABLES.index("q")

DEFAULT_Y_ORDER = 4
DEFAULT_Z_ORDER = 6
HARD_Y_BOUND = MAX_DEGREE
HARD_Z_BOUND = 12
# largest degree of a capped vertex table (vertex --n, verify rationality --n)
VERTEX_N_MAX = 6

# frozen by cmd_calibrate; every entry is re-derivable from the checks below
DEFAULT_CONVENTIONS = {
    "tangent_orientation": "arms_t1",
    "euler_weights": "squared_tangent_koszul",
    "mellit_descendent": "prod (1 - u t1^(2c) t2^(2r)) over boxes",
    "osum_eigenvalue": "(-1)^n, i.e. p_k -> (-1)^k p_k transport",
    "prop1_variant": "proof",
    "prop1_a_power": "n",
    # the substitution rule validates with hbar^k read as hbar^(-k); with it
    # the closed form matches the derivation under z -> +z q/hbar, not under
    # the displayed -z hbar q
    "main_reading": "printed_inverse",
    "main_shift": {"sigma": 1, "e_hbar": -1, "e_q": 1},
    "main_matches_printed_claim": False,
}


class VerificationReport:
    """Structured outcome of one identity check."""

    def __init__(self, name, orders, outcome, details=None, conventions=None,
                 seconds=0.0):
        self.name = name
        self.orders = orders
        self.outcome = outcome
        self.details = details or {}
        self.conventions = conventions or {}
        self.seconds = seconds

    @property
    def passed(self):
        return self.outcome == "exact-match"

    def to_dict(self):
        return {
            "check": self.name,
            "orders": self.orders,
            "outcome": self.outcome,
            "details": self.details,
            "conventions": self.conventions,
            "seconds": round(self.seconds, 3),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def __repr__(self):
        return f"VerificationReport({self.name}: {self.outcome})"


def _timed(name, orders, fn, conventions=None):
    t0 = time.perf_counter()
    outcome, details = fn()
    return VerificationReport(name, orders, outcome, details,
                              conventions or {}, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# exponential sides of the Fock-space identities
# ---------------------------------------------------------------------------

def _hbar2k(k):
    """hbar^(2k) as a monomial."""
    return Scalar.monomial(t1=4 * k, t2=4 * k)


def _coeff_den(k):
    return Scalar.from_int(k) * (ONE - T1 ** (2 * k)) * (ONE - T2 ** (2 * k))


def kernel_exponents(N):
    """c_k = hbar^(2k) / (k (1-t1^(2k))(1-t2^(2k))), k <= N."""
    return {k: _hbar2k(k) / _coeff_den(k) for k in range(1, N + 1)}


def mellit_exponents(N):
    """c_k = hbar^(2k) (1-u^k) / (k (1-t1^(2k))(1-t2^(2k))), k <= N."""
    return {k: _hbar2k(k) * (ONE - U ** k) / _coeff_den(k)
            for k in range(1, N + 1)}


def osum_exponents(N):
    """c_k = (-1)^k hbar^(2k) / (k (1-t1^(2k))(1-t2^(2k))), k <= N."""
    return {k: _hbar2k(k) * ((-1) ** k) / _coeff_den(k)
            for k in range(1, N + 1)}


def kernel_exponential(N):
    """exp( sum_k y^k hbar^(2k) p_k / (k (1-t1^(2k))(1-t2^(2k))) )."""
    return exp_linear(kernel_exponents(N), N)


def mellit_exponential(N):
    return exp_linear(mellit_exponents(N), N)


def osum_exponential(N):
    return exp_linear(osum_exponents(N), N)


def mellit_eigenvalue(lam):
    """Dual exterior-descendent eigenvalue at the fixed point, squared weights."""
    e = ONE
    for (r, c) in boxes(lam):
        e = e * (ONE - U * Scalar.monomial(t1=4 * c, t2=4 * r))
    return e


def osum_eigenvalue(lam):
    return Scalar.from_int((-1) ** size(lam))


# ---------------------------------------------------------------------------
# localization-vs-exponential checks
# ---------------------------------------------------------------------------

def _compare_by_degree(basis, eig, c, N, orientation):
    """Check sum_lam eig(lam) H_lam / Euler(lam) == exp(sum_k c_k p_k) in
    each degree n <= N.

    The identity holds in degree n exactly when, at every fixed point lam,
    the H_lam coefficients agree: <exp, H_lam>_* / w_lam == eig(lam) /
    Euler(lam).  basis.exp_pairings certifies the basis and pairs the
    exponential through its exponents c_k, so the exponential is never
    expanded.  The equality is tested as p * (Euler(lam) / w_lam) ==
    eig(lam), with the ratio held reduced on the basis.  Only the Euler
    factor depends on the tangent orientation.
    """
    for n in range(N + 1):
        for lam, p in basis.exp_pairings(c, n).items():
            if p * basis.ratio(lam, orientation) != eig(lam):
                return "mismatch", {
                    "degree": n,
                    "fixed_point": list(lam),
                    "localization_side": (
                        eig(lam) / basis.euler(lam, orientation)).render(),
                    "exponential_side": (p / basis.norm(lam)).render(),
                }
    return "exact-match", {"degrees_checked": N}


def _localization_check(name, eig, c, N, orientation, basis, conv):
    """A localization check, on the shared basis unless one is given."""
    basis = basis or default_basis()
    return _timed(name, {"y": N},
                  lambda: _compare_by_degree(basis, eig, c, N, orientation),
                  dict(conv, tangent_orientation=orientation))


def check_kernel_identity(N=5, orientation="arms_t1", basis=None):
    return _localization_check(
        "kernel_identity", lambda lam: ONE, kernel_exponents(N), N,
        orientation, basis,
        {"euler_weights": DEFAULT_CONVENTIONS["euler_weights"]})


def check_mellit(N=4, orientation="arms_t1", basis=None):
    return _localization_check(
        "mellit_generating_function", mellit_eigenvalue, mellit_exponents(N),
        N, orientation, basis,
        {"mellit_descendent": DEFAULT_CONVENTIONS["mellit_descendent"]})


def check_osum(N=5, orientation="arms_t1", basis=None):
    return _localization_check(
        "structure_sheaf_series", osum_eigenvalue, osum_exponents(N), N,
        orientation, basis,
        {"osum_eigenvalue": DEFAULT_CONVENTIONS["osum_eigenvalue"],
         "sign_transport": "the (-1)^k exponential equals the kernel "
                           "exponential under p_k -> (-1)^k p_k (y -> -y)"})


# ---------------------------------------------------------------------------
# the two generating functions of the main statement
# ---------------------------------------------------------------------------

def closed_exponents(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER):
    """The exponents c_k(z), k <= Ny, of the closed form F = exp(sum_k c_k p_k),
    built exactly as displayed:

    c_k = ( (1-u^k) hbar^2k
            + z^k hbar^2k q^-k (hbar^k - hbar^-k)/(1-(z hbar/q)^k) )
          / (k(1-t1^2k)(1-t2^2k))
    """
    return {k: _closed_exponent(k, Nz) for k in range(1, Ny + 1)}


def _closed_exponent(k, Nz):
    """c_k(z) through z^Nz, from its parts A_k and B_k."""
    const, zfac = _closed_exponent_parts(k)
    inner = Series.term((HBAR / Q) ** k, 0, k, 0, Nz)
    return (Series.const(const, 0, Nz)
            + Series.term(zfac, 0, k, 0, Nz) * inner.geom())


def _closed_exponent_parts(k):
    """(A_k, B_k) with c_k = A_k + B_k z^k / (1 - (z hbar/q)^k), exactly."""
    den = _coeff_den(k)
    return (_hbar2k(k) * (ONE - U ** k) / den,
            _hbar2k(k) * Q ** (-k) * (HBAR ** k - HBAR ** (-k)) / den)


def closed_F(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER):
    """The closed exponential form exp(sum_k c_k p_k), as displayed."""
    return exp_linear(closed_exponents(Ny, Nz), Ny, one=Series.one(0, Nz))


def _fusion_exponents(Ny, Nz):
    """c_k and d_k of the descendent and structure-sheaf exponents,
    exp(sum_k c_k p^(1)_k + sum_k d_k p^(2)_k) on the tensor square."""
    return tuple({k: Series.const(v, 0, Nz) for k, v in e(Ny).items()}
                 for e in (mellit_exponents, osum_exponents))


def derived_exponents(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER,
                      reading="printed"):
    """The exponents c_k + gamma_k d_k, k <= Ny, of the derivation.

    Substituting p^(2)_k -> p^(2)_k + gamma_k p^(1)_k in the tensor
    exponential and projecting to the first factor is the degree-preserving
    ring map p^(1)_k -> p_k, p^(2)_k -> gamma_k p_k, which commutes with exp
    and truncation; it sends the exponent sum_k (c_k p^(1)_k + d_k p^(2)_k)
    to sum_k (c_k + gamma_k d_k) p_k.
    """
    c, d = _fusion_exponents(Ny, Nz)
    return {k: c[k] + jj0_correction(k, 0, Nz, reading) * d[k] for k in c}


def build_F(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER, reading="printed"):
    """The derivation F = exp(sum_k (c_k + gamma_k d_k) p_k), equal to the
    tensor-square route of fock.py."""
    return exp_linear(derived_exponents(Ny, Nz, reading), Ny,
                      one=Series.one(0, Nz))


def ook_argument(Nz):
    """The p_1-linear argument of the plethystic-exponential form: c_1."""
    return _closed_exponent(1, Nz)


def _exponent_mismatch(a, b):
    """Witness that exp_linear(a, N) != exp_linear(b, N), or None when equal.

    `a` and `b` map k = 1..N to exponents.  The two exponentials are equal
    exactly when a_k == b_k for every k, because the p_(k) coefficient is the
    exponent itself and every other coefficient is a polynomial in them.  At
    the first k with a_k != b_k every p_mu of degree below k, and every p_mu
    of degree k but (k,), has parts below k only and agrees; so the witness
    is the p_(k) coefficient, where FockElement.first_difference lands.
    """
    for k in sorted(a):
        if a[k] != b[k]:
            return {"p_monomial": [k],
                    "lhs": a[k].render(),
                    "rhs": b[k].render()}
    return None


def check_ook(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER):
    """pexp(ook_argument) == closed_F through y^Ny, z^Nz, decided on the
    exponents: adams(ook_argument, k) / k against c_k for every k <= Ny."""
    def run():
        wit = _exponent_mismatch(plethystic_exponents(ook_argument(Nz), Ny),
                                 closed_exponents(Ny, Nz))
        if wit is None:
            return "exact-match", {}
        return "mismatch", wit
    return _timed("plethystic_form", {"y": Ny, "z": Nz}, run)


SHIFT_FAMILY = tuple((sigma, e1, e2)
                     for sigma in (1, -1)
                     for e1 in (-1, 0, 1)
                     for e2 in (-1, 0, 1))


def _shift_scalar(shift):
    sigma, e1, e2 = shift
    return Scalar.monomial(sigma, t1=2 * e1, t2=2 * e1, q=2 * e2)


def _shift_text(shift):
    sigma, e1, e2 = shift
    parts = ["-z" if sigma < 0 else "+z"]
    if e1:
        parts.append(f"hbar^{e1}")
    if e2:
        parts.append(f"q^{e2}")
    return "*".join(parts)


def check_main(Ny=DEFAULT_Y_ORDER, Nz=DEFAULT_Z_ORDER):
    """Search the documented shift family (and the documented readings of the
    substitution rule) for closed_F(sigma z hbar^e1 q^e2) == build_F(z).

    Both sides are exponentials of forms linear in the p_k, and z -> factor z
    is a ring map, so the identity holds exactly when the shifted closed
    exponents c_k(factor z) equal the derived exponents c_k + gamma_k d_k for
    every k <= Ny; it is decided on the exponents, with the witness the full
    expansions would give (see _exponent_mismatch).

    The printed claim corresponds to the shift -z hbar q with the printed
    substitution rule; the report records whether that combination, and
    which combination if any, validates.
    """
    def run():
        closed = closed_exponents(Ny, Nz)
        shifted = {s: {k: c.scale_z(_shift_scalar(s))
                       for k, c in closed.items()}
                   for s in SHIFT_FAMILY}
        derived = {r: derived_exponents(Ny, Nz, reading=r)
                   for r in JJ0_READINGS}
        matches = [(r, s) for r in JJ0_READINGS for s in SHIFT_FAMILY
                   if shifted[s] == derived[r]]
        printed_result = [s for r, s in matches if r == "printed"]
        claimed = (-1, 1, 1)
        details = {
            "matches": [{"reading": r, "shift": _shift_text(s)}
                        for r, s in matches],
            "printed_rule_shifts": [_shift_text(s) for s in printed_result],
            "claimed_shift": _shift_text(claimed),
        }
        if not matches:
            details["witness"] = _exponent_mismatch(shifted[claimed],
                                                    derived["printed"])
            return "no-shift-found", details
        if len(matches) > 1:
            return "mismatch", dict(details, reason="shift is not unique")
        reading, shift = matches[0]
        details.update({
            "winning_reading": reading,
            "winning_shift": _shift_text(shift),
            "matches_printed_claim": (shift == claimed
                                      and reading == "printed"),
        })
        if printed_result == [] and reading != "printed":
            details["printed_rule_witness"] = _exponent_mismatch(
                shifted[claimed], derived["printed"])
        return "exact-match", details
    conv = {k: DEFAULT_CONVENTIONS[k]
            for k in ("main_reading", "main_shift",
                      "main_matches_printed_claim")}
    return _timed("main_generating_function", {"y": Ny, "z": Nz}, run, conv)


# ---------------------------------------------------------------------------
# capped vertex tables and rationality
# ---------------------------------------------------------------------------

class CappedVertexTable:
    """Per-fixed-point rational functions in z for one Fock degree.

    Every entry is exact: num / den with den = candidate_denominator(n), no
    truncation in z, and num and den of degree at most B = n(n+1)/2.
    certified_order = 2B + 2 is the z-order through which the bench oracle
    and the tests re-expand the table against the closed form: enough
    coefficients to fix a ratio of two polynomials of degree B.
    """

    def __init__(self, n, entries, q_free):
        self.n = n
        self.entries = entries  # lam -> (num {deg: Scalar}, den {deg: Scalar})
        self.certified_order = n * (n + 1) + 2
        self.q_free = q_free

    def to_dict(self):
        rows = []
        for lam in partitions(self.n):
            num, den = self.entries[lam]
            rows.append({
                "partition": list(lam),
                "num": {str(d): c.render() for d, c in sorted(num.items())},
                "den": {str(d): c.render() for d, c in sorted(den.items())},
            })
        return {"n": self.n, "certified_order": self.certified_order,
                "q_free_after_shift": self.q_free, "entries": rows}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv_rows(self):
        out = [("partition", "z_degree", "part", "value")]
        for lam in partitions(self.n):
            num, den = self.entries[lam]
            for d, c in sorted(num.items()):
                out.append((",".join(map(str, lam)), d, "num", c.render()))
            for d, c in sorted(den.items()):
                out.append((",".join(map(str, lam)), d, "den", c.render()))
        return out


def _w_product(n):
    """D_n(w) = prod_{k<=n} (1 - w^k) as integer coefficients in w."""
    p = [1]
    for k in range(1, n + 1):
        p = p + [0] * k
        for j in range(len(p) - 1, k - 1, -1):
            p[j] -= p[j - k]
    return p


def _cofactor(n, rho):
    """D_n(w) / prod_{k in rho} (1 - w^k) as integer coefficients in w.

    Raises ArithmeticError when a factor 1 - w^k leaves a remainder.
    """
    p = _w_product(n)
    for k in rho:
        # the power series p / (1 - w^k) has q[j] = p[j] + q[j - k], and it
        # is a polynomial exactly when its last k coefficients vanish
        q = list(p)
        for j in range(k, len(q)):
            q[j] += q[j - k]
        if any(q[-k:]):
            raise ArithmeticError(f"1 - w^{k} leaves a remainder in D_{n} "
                                  f"/ prod over {rho}")
        p = q[:-k]
    return p


def _in_z(poly):
    """An integer polynomial in w = z hbar / q as a z-polynomial."""
    return {j: Scalar.monomial(c, t1=2 * j, t2=2 * j, q=-2 * j)
            for j, c in enumerate(poly) if c}


def _zmul(f, g):
    """Product of two z-polynomials {deg: Scalar}."""
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = d1 + d2
            out[d] = c1 * c2 + out[d] if d in out else c1 * c2
    return {d: c for d, c in out.items() if c}


def candidate_denominator(n):
    """prod_{k<=n} (1 - (z hbar/q)^k) as a z-polynomial {deg: Scalar}."""
    return _in_z(_w_product(n))


def _zpoly_sub_w(poly):
    """Rewrite a z-polynomial in the shifted variable w = z hbar / q."""
    fac = Q / HBAR
    return {d: c * fac ** d for d, c in poly.items()}


def _q_euler(poly):
    """q d/dq on a polynomial, up to the factor 1/2 of the doubled exponents."""
    out = {}
    for k, c in poly.items():
        e = key_exp(k, _Q_INDEX)
        if e:
            out[k] = c * e
    return out


def is_q_free(x):
    """Exact: x does not depend on q, i.e. (q d/dq num) den == num (q d/dq den)."""
    return (pmul(_q_euler(x.num), x.den)
            == pmul(x.num, _q_euler(x.den)))


def capped_vertex_table(n, basis=None):
    """The degree-n fixed-point restrictions of the closed form, exactly in z.

    The restriction at lam is the pairing <F_n, H_lam>_* of the y^n slice of
    closed_F times basis.ratio(lam), a monomial.  By the Cauchy identity (see
    MacdonaldBasis.exp_pairings) the pairing is sum_rho H_lam,rho g_rho, with
    g_rho = prod_{k in rho} g_k and g_k = star_weight((k,)) c_k.  Each c_k is
    A_k + B_k z^k / (1 - w^k), w = z hbar / q, so g_k = N_k / (1 - w^k) with
    the two-term z-polynomial N_k = a_k + (b_k - a_k (hbar/q)^k) z^k, where
    a_k and b_k are star_weight((k,)) A_k and B_k, reduced.  Every
    prod_{k in rho} (1 - w^k) divides D_n = candidate_denominator(n), so the
    entry is

        ratio(lam) sum_rho H_lam,rho N_rho cof_rho / D_n,
        cof_rho = D_n / prod_{k in rho} (1 - w^k),

    with no truncation in z; the numerator has degree at most B = n(n+1)/2,
    the degree of D_n.  The q-independence of the shifted-variable form is
    checked exactly.
    """
    if n > VERTEX_N_MAX:
        raise ValueError(f"vertex tables are configured for "
                         f"n <= {VERTEX_N_MAX}")
    basis = basis or default_basis()
    basis.certify(n)
    N = {}
    for k in range(1, n + 1):
        weight = star_weight((k,))
        a, b = ((weight * x).reduced() for x in _closed_exponent_parts(k))
        N[k] = {0: a, k: b - a * (HBAR / Q) ** k}
    terms = {rho: reduce(_zmul, (N[k] for k in rho), _in_z(_cofactor(n, rho)))
             for rho in partitions(n)}
    den = candidate_denominator(n)
    entries = {}
    q_free = True
    for lam in partitions(n):
        num = {}
        for rho, h in basis.H(lam).coeffs.items():
            for d, c in terms[rho].items():
                num[d] = c * h + num[d] if d in num else c * h
        ratio = basis.ratio(lam)
        num = {d: c * ratio for d, c in num.items() if c}
        entries[lam] = (num, den)
        q_free = q_free and all(is_q_free(c) for part in (num, den)
                                for c in _zpoly_sub_w(part).values())
    return CappedVertexTable(n, entries, q_free)


def check_rationality(n=3):
    """Rationality of the capped vertex functions in every degree 1..n: the
    shifted form of each table is q-free.  Its den is candidate_denominator
    by construction; reduced entries would need _divides_zpoly here again."""
    degrees = list(range(1, n + 1))

    def run():
        for m in degrees:
            if not capped_vertex_table(m).q_free:
                return "mismatch", {"n": m,
                                    "reason": "shifted form depends on q"}
        return "exact-match", {"degrees": degrees}
    return _timed("rationality", {"n": n}, run)


def _divides_zpoly(den, whole):
    """Does den divide `whole` in z over the scalar field?"""
    rem = {d: c for d, c in whole.items() if not c.is_zero()}
    dmax = max(den)
    lead = den[dmax]
    while rem:
        top = max(rem)
        if top < dmax:
            return False
        q = rem[top] / lead
        for d, c in den.items():
            nd = top - dmax + d
            s = rem.get(nd, ZERO) - q * c
            if s.is_zero():
                rem.pop(nd, None)
            else:
                rem[nd] = s
    return True


# ---------------------------------------------------------------------------
# degenerate slices
# ---------------------------------------------------------------------------

def check_degenerate_slice(N=5):
    """The u=0, z=0 slice of the closed form is the kernel exponential.

    At z = 0 the closed exponent c_k is A_k (see _closed_exponent_parts),
    and u -> 0 is a ring map on both sides, so it is decided on the
    exponents A_k|_{u=0} and kernel c_k|_{u=0} (see _exponent_mismatch).
    """
    def run():
        kernel = kernel_exponents(N)
        wit = _exponent_mismatch(
            {k: _closed_exponent_parts(k)[0].limit_at_zero("u")
             for k in kernel},
            {k: c.limit_at_zero("u") for k, c in kernel.items()})
        if wit is None:
            return "exact-match", {"y": N}
        return "mismatch", wit
    return _timed("degenerate_slice", {"y": N}, run)


# ---------------------------------------------------------------------------
# a -> 0 limit statements on the rank-2 fixed points
# ---------------------------------------------------------------------------

PROP1_VARIANTS = ("proof", "four_term")
PROP1_POWERS = ("n", "2n")


def check_prop1(n=3):
    """For each fixed point, polarization variant and a-power, compare

        lim_{a->0} delta^{-1} O(-1) a^p   with   hbar^n hbar^{n2} (O(-1)x1).

    The report lists which (variant, power) pairs validate at every fixed
    point, resolving the statement-vs-proof discrepancy in the power of a.
    """
    def run():
        pairs = {}
        witnesses = {}
        for variant in PROP1_VARIANTS:
            for pname in PROP1_POWERS:
                p = n if pname == "n" else 2 * n
                ok = True
                for (l1, l2) in fixed_points_rank2(n):
                    rhs = (HBAR ** (n + size(l2))
                           * o_line_eigen(l1, l2, "first"))
                    try:
                        d = delta_11(l1, l2, variant)
                        val = (d.inverse() * o_line_eigen(l1, l2) * A ** p)
                        lim = val.a_limit()
                    except LimitError as e:
                        ok = False
                        witnesses[(variant, pname)] = {
                            "fixed_point": [list(l1), list(l2)],
                            "outcome": "limit-nonexistent",
                            "a_valuation": str(e.valuation)}
                        break
                    if lim != rhs:
                        ok = False
                        witnesses[(variant, pname)] = {
                            "fixed_point": [list(l1), list(l2)],
                            "limit": lim.render(), "expected": rhs.render()}
                        break
                pairs[(variant, pname)] = ok
        validated = [{"variant": v, "a_power": p}
                     for (v, p), ok in pairs.items() if ok]
        details = {
            "validated": validated,
            "failures": {f"{v},{p}": w for (v, p), w in witnesses.items()},
            "a_power_resolution": ("the limit exists with a^n as in the "
                                   "proof, not a^(2n) as stated"
                                   if any(d["a_power"] == "n"
                                          for d in validated) else
                                   "no a^n validation"),
        }
        if validated:
            return "exact-match", details
        return "mismatch", details
    conv = {"prop1_variant": DEFAULT_CONVENTIONS["prop1_variant"],
            "prop1_a_power": DEFAULT_CONVENTIONS["prop1_a_power"]}
    return _timed("line_bundle_limit", {"n": n}, run, conv)


def check_prop4(n, k):
    """lim_{a->0} c_k eigenvalue on M(n,2) equals the first-component value."""
    def run():
        points = fixed_points_rank2(n)
        for (l1, l2) in points:
            val = chern_eigen((l1, l2), (ONE, A), k).a_limit()
            want = chern_eigen((l1,), (ONE,), k) if k <= size(l1) else ZERO
            if val != want:
                return "mismatch", {"fixed_point": [list(l1), list(l2)],
                                    "k": k, "limit": val.render(),
                                    "expected": want.render()}
        return "exact-match", {"n": n, "k": k,
                               "fixed_points": len(points)}
    return _timed("chern_limit", {"n": n, "k": k}, run)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# the orders at which calibrate re-derives the conventions
CALIBRATE_KERNEL_Y = 2
CALIBRATE_MAIN_ORDERS = (3, 4)
CALIBRATE_PROP1_N = 2


def calibrate():
    """Re-derive every frozen convention from scratch at small orders.

    Returns (conventions, evidence).  Deterministic and idempotent: rerunning
    produces an identical record.  Both orientations run on the shared
    basis, which only their Euler factors tell apart.
    """
    evidence = {}
    orientations = []
    for orientation in ("arms_t1", "arms_t2"):
        rep = check_kernel_identity(CALIBRATE_KERNEL_Y, orientation)
        evidence[f"kernel_{orientation}"] = rep
        if rep.passed:
            orientations.append(orientation)
    if len(orientations) != 1:
        raise RuntimeError(f"calibration found {len(orientations)} "
                           "consistent orientations")
    orientation = orientations[0]

    rep = check_prop1(CALIBRATE_PROP1_N)
    evidence["prop1"] = rep
    validated = rep.details["validated"]
    if not validated:
        raise RuntimeError("no limit normalization validates")

    repm = check_main(*CALIBRATE_MAIN_ORDERS)
    evidence["main"] = repm
    if not repm.passed:
        raise RuntimeError("no shift/reading reconciles the two forms")
    shift = repm.details["winning_shift"]

    conventions = dict(DEFAULT_CONVENTIONS)
    conventions.update({
        "tangent_orientation": orientation,
        "prop1_variant": validated[0]["variant"],
        "prop1_a_power": validated[0]["a_power"],
        "main_reading": repm.details["winning_reading"],
        "main_shift_text": shift,
        "main_matches_printed_claim": repm.details["matches_printed_claim"],
    })
    # wall-clock time is left out, so that the record is the same every run
    return conventions, {key: dict(rep.to_dict(), seconds=None)
                         for key, rep in evidence.items()}


def write_conventions(path, conventions, evidence=None):
    payload = {"conventions": conventions}
    if evidence:
        payload["evidence"] = evidence
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verify targets for the command line
# ---------------------------------------------------------------------------

def check_prop4_through(n=3):
    """check_prop4 for every k <= n, timed as one report: the first failing
    k's report, or the last one with the k checked."""
    t0 = time.perf_counter()
    for k in range(n + 1):
        rep = check_prop4(n, k)
        if not rep.passed:
            break
    else:
        rep.details["k_checked"] = list(range(n + 1))
    rep.seconds = time.perf_counter() - t0
    return rep


Target = namedtuple("Target", "check oriented orders")

# Each target's check, whether it takes the tangent orientation, and for each
# order it reads (keyed as in a report's `orders`: y, z, n) the check's
# parameter and the lowest value at which it compares anything.  Below y^1
# the localization checks cover no degree and the exponential sides have no
# exponent to compare; below z^2 several (reading, shift) pairs satisfy
# `main`, so it cannot name one shift ((1, 1) matches 4 pairs, (y, 0) all
# 90); rationality below n = 1 covers no degree, and prop4 below n = 0 no k.
# An order left unset runs at the check's own default.
VERIFY_TARGETS = {
    "kernel": Target(check_kernel_identity, True, {"y": ("N", 1)}),
    "mellit": Target(check_mellit, True, {"y": ("N", 1)}),
    "osum": Target(check_osum, True, {"y": ("N", 1)}),
    "ook": Target(check_ook, False, {"y": ("Ny", 1), "z": ("Nz", 0)}),
    "main": Target(check_main, False, {"y": ("Ny", 1), "z": ("Nz", 2)}),
    "slice": Target(check_degenerate_slice, False, {"y": ("N", 1)}),
    "rationality": Target(check_rationality, False, {"n": ("n", 1)}),
    "prop1": Target(check_prop1, False, {"n": ("n", 0)}),
    "prop4": Target(check_prop4_through, False, {"n": ("n", 0)}),
}


def run_check(name, y_order=None, z_order=None, n=None,
              orientation="arms_t1"):
    """Run one verify target at the given orders."""
    if name not in VERIFY_TARGETS:
        raise ValueError(f"unknown check {name!r}")
    target = VERIFY_TARGETS[name]
    given = {"y": y_order, "z": z_order, "n": n}
    kwargs = {param: given[key] for key, (param, _) in target.orders.items()
              if given[key] is not None}
    if target.oriented:
        kwargs["orientation"] = orientation
    return target.check(**kwargs)
