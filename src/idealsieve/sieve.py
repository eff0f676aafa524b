"""Truncated von Mangoldt sieve weights and the bump-function constant.

The smoothing is a compactly supported bump phi on (-1, 1); the sieve
weight on an integral ideal n is

    Lambda_{K,R}(n) = sum_{d | n} mu(d) phi(log N d / log R),

and the correlation constant is the one-dimensional integral

    c_phi = 4 pi^2 int_0^infty phi'(t)^2 dt.

It equals the Fourier double integral

    int int (1+iy)(1+iy') phihat(y) phihat(y') / (2+iy+iy') dy dy'

with phihat(y) = int e^t phi(t) e^{iyt} dt, which carries no 1/(2 pi)
factor; the test suite evaluates that double integral as the oracle for
c_phi.  The pair sum over d, d' of mu(d) mu(d') phi(log N d / log R)
phi(log N d' / log R) / N lcm has the constant c_phi / (4 pi^2) =
int_0^infty phi'(t)^2 dt in front of W^n / (phi_K(W) log R Res zeta_K).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, partial

from .arith import primerange
from .errors import ENUMERATION_BUDGET, NU_POINT_BUDGET, check_budget
from .ideals import (FractionalIdeal, euler_phi, prime_divisors, primes_above,
                     primes_dividing, residue_rows, zeta_residue)
from .lattice import (admissible_modulus, fundamental_domain_reduce,
                      in_scaled_domain, parallelotope_rows)
from .numberfield import minkowski_norm


class BumpFunction:
    """Smooth bump supported on (-1, 1); default exp(1 - 1/(1 - t^2)).

    A custom bump gives f and its derivative df together: c_phi is read
    off df alone, so one without the other would mix two bumps.  f must
    return 0.0 for |t| >= support[1]: the sieve weights drop every
    divisor with log N d / log R >= support[1] unevaluated.
    """

    def __init__(self, f=None, df=None, support=(-1.0, 1.0)):
        if (f is None) != (df is None):
            raise ValueError("give a custom bump's f and df together")
        self._f = f
        self._df = df
        self.support = support

    def __call__(self, t):
        if self._f is not None:
            return self._f(t)
        if abs(t) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - t * t))

    def derivative(self, t):
        if self._df is not None:
            return self._df(t)
        if abs(t) >= 1.0:
            return 0.0
        u = 1.0 - t * t
        return math.exp(1.0 - 1.0 / u) * (-2.0 * t / (u * u))


DEFAULT_BUMP = BumpFunction()
_DEFAULT_C_PHI = float.fromhex("0x1.ddeb7090d8d47p+5")  # see c_phi


# The tanh-sinh rule (Takahasi and Mori 1974) maps [0, b] onto the real
# line by t = b (1 + tanh(pi/2 sinh x)) / 2 and sums with step h in x.  The
# weights fall off double exponentially: at |x| = 4 they are below 1e-35
# of the largest, so the sum stops there.  Halving h from 1 nearly doubles
# the digits per level; the limit on levels (h = 2^-10) is where a
# derivative that is not smooth on (0, b) is given up on.
_TANH_SINH_REACH = 4
_TANH_SINH_LEVELS = 10
_TANH_SINH_REL_TOL = 1e-15


def _tanh_sinh(f, b: float) -> float:
    """int_0^b f(t) dt, to double precision for f smooth on (0, b).

    Each level halves the step and adds only the new odd nodes; the sum
    stops once two levels agree to _TANH_SINH_REL_TOL relative.
    """
    def pair(x):
        # the nodes d and b - d for +x and -x share the weight
        e = math.exp(-math.pi * math.sinh(x))
        d = b * e / (1.0 + e)
        w = b * math.pi * math.cosh(x) * e / (1.0 + e) ** 2
        return w * (f(d) + f(b - d))

    h = 1.0
    parts = [0.5 * pair(0.0)]
    parts.extend(pair(float(k)) for k in range(1, _TANH_SINH_REACH + 1))
    prev = math.fsum(parts)
    for _ in range(_TANH_SINH_LEVELS):
        h /= 2
        parts.extend(pair(k * h)
                     for k in range(1, int(_TANH_SINH_REACH / h) + 1, 2))
        cur = h * math.fsum(parts)
        if abs(cur - prev) <= _TANH_SINH_REL_TOL * abs(cur):
            return cur
        prev = cur
    raise ArithmeticError(
        f"tanh-sinh quadrature did not converge by step {h}: the "
        "integrand is not smooth on the interval")


def c_phi(phi: BumpFunction = DEFAULT_BUMP) -> float:
    """The correlation constant c_phi = 4 pi^2 int_0^infty phi'(t)^2 dt.

    phi' vanishes beyond the support, so the integral stops at its right
    end; it is taken by the tanh-sinh rule, which raises ArithmeticError
    when phi'^2 is not smooth enough on (0, support[1]) to converge.  This
    equals the Fourier double integral of the module docstring.  The
    default bump's value is that rule's float, kept as the literal
    _DEFAULT_C_PHI so that no host's libm can move it.
    """
    if phi is DEFAULT_BUMP:
        return _DEFAULT_C_PHI
    val = _tanh_sinh(lambda t: phi.derivative(t) ** 2, phi.support[1])
    return 4.0 * math.pi ** 2 * val


# ---------------------------------------------------------------------
# The truncated sieve weight
#
# phi(t) is exactly 0.0 for t >= phi.support[1], and log N d >= log N P
# for every divisor d that P divides, so every subset that holds a prime P
# with log N P / log R >= support[1] adds exactly +-0.0 to the sum.
# Lambda_R therefore runs over the subsets of the small primes alone, kept
# in factor_ideal's order (ascending p, then primes_above's order), so the
# sums of logs and the fsum are those of the full subset sum and the value
# is the same float.

def _log_level(R) -> float:
    """log R for a sieve level R; ValueError unless 1 < R < inf."""
    if not 1 < R < math.inf:
        raise ValueError(f"R must be finite and > 1, got {R}")
    return math.log(R)


def _is_small(norm, logR, phi) -> bool:
    """Whether a prime of this norm can carry a nonzero subset term."""
    return math.log(norm) / logR < phi.support[1]


@lru_cache(maxsize=2 ** 16)
def _lambda_cached(norms, logR, phi):
    terms = []
    for mask in itertools.product((0, 1), repeat=len(norms)):
        logNd = sum(m * math.log(q) for m, q in zip(mask, norms))
        terms.append((-1) ** sum(mask) * phi(logNd / logR))
    return math.fsum(terms)


def lambda_of_norms(norms, R: float, phi: BumpFunction = DEFAULT_BUMP):
    """Lambda_{K,R} of an integral ideal of K whose distinct primes, in
    factor_ideal's order, have these norms; only those below
    R^phi.support[1] enter the subset sum."""
    logR = _log_level(R)
    small = tuple(q for q in norms if _is_small(q, logR, phi))
    return _lambda_cached(small, logR, phi)


def lambda_R(n, R: float, phi: BumpFunction = DEFAULT_BUMP) -> float:
    """Lambda_{K,R}(n) = sum over squarefree divisors d of mu(d) phi(log N d / log R).

    Only the distinct primes of n of norm below R^phi.support[1] matter;
    the sum runs over their subsets.  ValueError unless 1 < R < inf.
    """
    return lambda_of_norms((P.norm() for P in prime_divisors(n)), R, phi)


class SieveConfig:
    """Parameters of the truncated-divisor-sum measure: alpha is the anchor
    residue (default 1), ambient the fractional ideal b (default O_K), and
    raw drops the density prefactor.  logR defaults to log N / (8 s z
    2^{sz}), z the field degree times the number of forms per point."""

    def __init__(self, K, N, s=1, k=1.5, w=3, alpha=None, epsilon=0.05,
                 logR=None, phi=DEFAULT_BUMP, raw=False, ambient=None):
        self.K, self.N, self.s, self.k, self.w = K, N, s, k, w
        self.epsilon, self.phi, self.raw = epsilon, phi, raw
        self.ambient = (FractionalIdeal.unit_ideal(K) if ambient is None
                        else ambient)
        self.W = admissible_modulus(w)
        self.alpha = K.one if alpha is None else alpha
        if logR is None:
            sz = s * K.degree
            logR = math.log(N) / (8 * sz * 2 ** sz)
        self.logR, self.R = logR, math.exp(logR)
        self.phi_W = euler_phi(K, self.W)
        self._prefactor = None

    def prefactor(self) -> float:
        """phi_K(W) log R Res zeta_K / (c_phi W^n), the density scale of nu."""
        if self._prefactor is None:
            n = self.K.degree
            self._prefactor = (self.phi_W * self.logR * zeta_residue(self.K)
                               / (c_phi(self.phi) * self.W ** n))
        return self._prefactor

    def params_echo(self) -> dict:
        return {"field": self.K.name, "N": self.N, "s": self.s, "k": self.k,
                "w": self.w,
                "W": self.W, "alpha": [str(c) for c in self.alpha.coords],
                "epsilon": self.epsilon, "A": 10.0, "logR": self.logR,
                "raw": self.raw}


def nu_weight(cfg: SieveConfig, x) -> float:
    """nu(x) = prefactor * Lambda_{K,R}((W x + alpha) b^{-1})^2.

    x ranges over the ambient ideal b; the argument of the sieve weight is
    the integral ideal (W x + alpha) b^{-1}, whose primes primes_dividing
    finds; only those of norm below R^phi.support[1] enter Lambda.
    With cfg.raw the density prefactor phi_K(W) logR Res / (c_phi W^n) is
    dropped.  ValueError unless 1 < cfg.R < inf, or if W x + alpha is not
    in b.
    """
    logR = _log_level(cfg.R)
    y = x * cfg.W + cfg.alpha
    if not y:
        return 0.0
    if not cfg.ambient.contains(y):
        raise ValueError("W x + alpha does not lie in the ambient ideal")
    # for R^support[1] <= 2 no prime is small: then no arithmetic at all
    primes = (primes_dividing(cfg.ambient, y)
              if _is_small(2, logR, cfg.phi) else ())
    lam = lambda_of_norms([P.norm() for P in primes], cfg.R, cfg.phi)
    v = lam * lam
    if not cfg.raw:
        v *= cfg.prefactor()
    return v


# ---------------------------------------------------------------------
# nu over a region: a divisor sieve along the rows of its points, each row
# cut into segments of at most _SEGMENT points, so no list grows with the
# region

_SEGMENT = 2 ** 12


def region_nu_rows(cfg: SieveConfig, shifts, region):
    """prod_i nu(x + shifts_i) over the points x of the ambient b in the
    region, one list per row segment, in coordinate order; each term
    multiplies nu_weight's floats in the order of the shifts.

    The errors are those of a loop of nu_weight over the points, in its
    order: the region's, "empty region", the level R, then a shift with
    alpha' = W shifts_i + alpha outside b (W x + alpha' is in b iff alpha'
    is, so that is tested once).  In b-coordinates W x + alpha' is W c + a,
    a those of alpha'; it is 0 at one point at most, where nu is 0 although
    0 lies in every P b.  A small P (N P < R^support[1]) divides (W x +
    alpha') b^-1 iff W c + a passes _sieve_rule's test, which along a row
    holds on one residue class mod p of the last coefficient, on all of
    the row or on none of it.  The primes are walked in factor_ideal's
    order, so each point collects the norms nu_weight reads, in its order,
    and Lambda is the same float.  The walk costs one step per row, shift
    and small prime, so it pays while R^support[1] is small next to the
    rows' length.
    """
    K, b, W = cfg.K, cfg.ambient, cfg.W
    rows = parallelotope_rows(b, region, NU_POINT_BUDGET)
    first = next(rows, None)
    if first is None:
        raise ValueError("empty region")
    logR = _log_level(cfg.R)
    alphas = [y * W + cfg.alpha for y in shifts]
    coeffs = [b.coefficients(a) for a in alphas]
    if None in coeffs:
        raise ValueError("W x + alpha does not lie in the ambient ideal")
    zeros = [tuple(-x // W for x in a) if all(x % W == 0 for x in a)
             else None for a in coeffs]
    small = partial(_is_small, logR=logR, phi=cfg.phi)
    rules = []
    for p in primerange(2, _walk_bound(cfg, region, alphas, logR) + 1):
        if not small(p):
            break
        rules += [_sieve_rule(P, b, W, coeffs) for P in primes_above(K, p)
                  if small(P.norm())]

    @lru_cache(maxsize=None)
    def nu(norms):
        lam = _lambda_cached(norms, logR, cfg.phi)
        return lam * lam if cfg.raw else lam * lam * cfg.prefactor()

    def segment(c, lo, hi):
        L = hi - lo + 1
        marks = [[()] * L for _ in coeffs]  # per shift, each point's norms
        for q, p, pre, along, aLs in rules:
            r = [sum(map(operator.mul, c, col)) for col in pre]
            for m, aL in zip(marks, aLs):
                v = [(x + y) % p for x, y in zip(r, aL)]
                t = -v.pop(0) if along else 0  # v_0 + t = 0 mod p
                if any(v):
                    continue
                step = p if along else 1
                for k in range((t - lo) % step, L, step):
                    m[k] += (q,)
        terms = [1.0] * L
        for m, z in zip(marks, zeros):
            col = list(map(nu, m))
            if z is not None and z[:-1] == c and lo <= z[-1] <= hi:
                col[z[-1] - lo] = 0.0
            terms = list(map(operator.mul, terms, col))
        return terms

    for c, lo, hi in itertools.chain([first], rows):
        for start in range(lo, hi + 1, _SEGMENT):
            yield segment(c, start, min(hi, start + _SEGMENT - 1))


def _walk_bound(cfg, region, alphas, logR):
    """The largest p the region sieve walks, checked against
    ENUMERATION_BUDGET: past R^support[1] no prime is small, and past the
    largest quotient norm of the region none divides.  That norm is
    bounded by AM-GM, |N y| <= (|y|^2 / n)^(n/2) for the Minkowski norm,
    which is convex and so largest at a corner."""
    n = cfg.K.degree
    top = max(minkowski_norm(x * cfg.W + a)
              for x in region.corners() for a in alphas)
    # the slack covers the rounding of the float bound
    bound = int((top * top / n) ** (n / 2) / cfg.ambient.norm()
                * (1 + 1e-9)) + 1
    level = logR * cfg.phi.support[1]
    if level < 700:  # math.exp overflows past 709
        bound = min(bound, int(math.exp(level)) + 2)
    check_budget("region sieve prime bound", bound, ENUMERATION_BUDGET)
    return bound


def _sieve_rule(P, b, W, coeffs):
    """The test of P in the region sieve, (N P, p, pre, along, aLs).

    c in b-coordinates lies in P b iff g(c) = 0 mod p for the rows g of
    residue_rows(P, b), of which only g_0 can involve the last coordinate,
    with coefficient 1 when along.  With W invertible mod p, W c + a is in
    P b iff g(prefix) + g_last t + g(a) / W = 0 for every g: pre holds the
    prefix coefficients of each g, and aLs, per shift, each g(a) / W.  When
    P | W, W c is in P b and the test is g(a) = 0 at every point (pre is 0).
    """
    p, n = P.p, b.K.degree
    basis = residue_rows(P, b)
    winv = pow(W, -1, p) if W % p else 0
    pre = [g[:-1] if winv else [0] * (n - 1) for g in basis]
    along = bool(winv and basis and basis[0][-1])
    aLs = [[(winv or 1) * sum(map(operator.mul, a, g)) % p for g in basis]
           for a in coeffs]
    return P.norm(), p, pre, along, aLs


def lift_nu(cfg: SieveConfig, residue) -> float:
    """Lift a residue of b / (N b) to the sieve weight.

    Reduce into the scaled fundamental domain N * G; if the reduced point
    x lies in the centered box with coordinates in (-eps N / 2, eps N / 2]
    return nu(x), else 1.
    """
    xhat, _ = fundamental_domain_reduce(cfg.ambient, residue, cfg.N)
    if in_scaled_domain(cfg.ambient, xhat, cfg.epsilon * cfg.N):
        return nu_weight(cfg, xhat)
    return 1.0
