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
from functools import lru_cache, partial

from .ideals import (FractionalIdeal, euler_phi, prime_divisors,
                     primes_dividing, zeta_residue)
from .lattice import (admissible_modulus, fundamental_domain_reduce,
                      in_scaled_domain)


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
    equals the Fourier double integral of the module docstring.
    """
    val = _tanh_sinh(lambda t: phi.derivative(t) ** 2, phi.support[1])
    return 4.0 * math.pi ** 2 * val


# ---------------------------------------------------------------------
# The truncated sieve weight
#
# phi(t) is exactly 0.0 for t >= phi.support[1], and log N d >= log N P
# for every divisor d that P divides, so every subset that holds a prime P
# with log N P / log R >= support[1] adds exactly +-0.0 to the sum.
# Lambda_R therefore runs over the subsets of the small primes alone, kept
# in factor_ideal's order (ascending p, then factor_rational_prime's
# order), so the sums of logs and the fsum are those of the full subset
# sum and the value is the same float.

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
                 A=10.0, logR=None, phi=DEFAULT_BUMP, raw=False,
                 ambient=None):
        self.K, self.N, self.s, self.k, self.w = K, N, s, k, w
        self.epsilon, self.A, self.phi, self.raw = epsilon, A, phi, raw
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
                "epsilon": self.epsilon, "A": self.A, "logR": self.logR,
                "raw": self.raw}


def nu_weight(cfg: SieveConfig, x) -> float:
    """nu(x) = prefactor * Lambda_{K,R}((W x + alpha) b^{-1})^2.

    x ranges over the ambient ideal b; the argument of the sieve weight is
    the integral ideal (W x + alpha) b^{-1}, and only its primes of norm
    below R^phi.support[1] are found, by primes_dividing.
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
    small = partial(_is_small, logR=logR, phi=cfg.phi)
    # for R^support[1] <= 2 no prime is small: then no arithmetic at all
    primes = primes_dividing(cfg.ambient, y, small) if small(2) else ()
    lam = _lambda_cached(tuple(P.norm() for P in primes), logR, cfg.phi)
    v = lam * lam
    if not cfg.raw:
        v *= cfg.prefactor()
    return v


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
