"""Truncated von Mangoldt sieve weights and the bump-function constant.

The smoothing is a compactly supported bump phi on (-1, 1); the sieve
weight on an integral ideal n is

    Lambda_{K,R}(n) = sum_{d | n} mu(d) phi(log N d / log R),

and the correlation constant is the double integral

    c_phi = int int (1+iy)(1+iy') phihat(y) phihat(y') / (2+iy+iy') dy dy'

with phihat(y) = int e^t phi(t) e^{iyt} dt.  phihat carries no 1/(2 pi)
factor, so c_phi = 4 pi^2 int_0^infty phi'(t)^2 dt.  The pair sum over
d, d' of mu(d) mu(d') phi(log N d / log R) phi(log N d' / log R) / N lcm
has the constant c_phi / (4 pi^2) = int_0^infty phi'(t)^2 dt in front of
W^n / (phi_K(W) log R Res zeta_K).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .ideals import factor_ideal
from .lattice import admissible_modulus


class BumpFunction:
    """Smooth bump supported on (-1, 1); default exp(1 - 1/(1 - t^2))."""

    def __init__(self, f=None, df=None, support=(-1.0, 1.0)):
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


def bump_hat(phi: BumpFunction, y: float) -> complex:
    """int_{-1}^{1} e^t phi(t) e^{iyt} dt.

    Integrating the even/odd split in |y| keeps the conjugate symmetry
    phihat(-y) = conj(phihat(y)) exact in floating point.
    """
    a, b = phi.support
    ya = abs(y)
    re = quad(lambda t: math.exp(t) * phi(t) * math.cos(ya * t), a, b,
              limit=200)[0]
    im = quad(lambda t: math.exp(t) * phi(t) * math.sin(ya * t), a, b,
              limit=200)[0]
    if y < 0:
        im = -im
    return complex(re, im)


# rows of the c_phi tensor (and frequencies of phihat) formed at a time
_CPHI_BLOCK = 32


def _bump_hat_grid(phi: BumpFunction, t_nodes: int = 400):
    """phihat by fixed Gauss-Legendre in t: returns ys -> phihat(ys).

    The nodes, weights and e^t phi(t) are computed once; the frequencies
    are taken _CPHI_BLOCK at a time, so memory is O(t_nodes * block).
    """
    a, b = phi.support
    tn, tw = np.polynomial.legendre.leggauss(t_nodes)
    t = 0.5 * (b - a) * tn + 0.5 * (b + a)
    w = 0.5 * (b - a) * tw
    wg = w * np.array([math.exp(ti) * phi(ti) for ti in t])

    def phihat(ys):
        ys = np.asarray(ys, dtype=float)
        return np.concatenate([
            wg @ np.exp(1j * np.outer(t, ys[i:i + _CPHI_BLOCK]))
            for i in range(0, len(ys), _CPHI_BLOCK)])
    return phihat


def c_phi(phi: BumpFunction = DEFAULT_BUMP, rel_tol: float = 1e-8,
          tail_eps: float = 1e-12) -> float:
    """The correlation constant

        c_phi = int int (1+iy)(1+iy') phihat(y) phihat(y') / (2+iy+iy') dy dy'

    by tensor Gauss-Legendre quadrature.  The integrand decays
    super-polynomially; the domain is cut at +-Y where |phihat| < tail_eps,
    and the node count is doubled until two successive values agree to
    rel_tol.  The imaginary residue must stay below 1e-9.

    The n x n tensor is never formed.  It is reduced in fixed-order blocks
    of _CPHI_BLOCK rows, each block summed by numpy and the block sums by
    math.fsum, so every temporary is O(_CPHI_BLOCK * n): memory is O(n),
    not O(n^2), and the value is the same on every run.
    """
    phihat = _bump_hat_grid(phi)
    Y = 8.0
    while abs(phihat([Y])[0]) > tail_eps:
        Y *= 1.5
        if Y > 1e4:
            break
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(24)
    panels = 32
    prev = None
    while True:
        edges = np.linspace(-Y, Y, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        ys = (mid[:, None] + half * gl_nodes[None, :]).ravel()
        ws = np.tile(half * gl_weights, panels)
        wh = ws * (phihat(ys) * (1.0 + 1j * ys))
        den = np.empty((_CPHI_BLOCK, len(ys)), dtype=complex)
        den.real = 2.0
        parts = []
        for i in range(0, len(ys), _CPHI_BLOCK):
            y, h = ys[i:i + _CPHI_BLOCK], wh[i:i + _CPHI_BLOCK]
            d = den[:len(y)]
            np.add.outer(y, ys, out=d.imag)
            block = np.multiply.outer(h, wh)
            block /= d
            parts.append(block.sum())
        total = complex(math.fsum(z.real for z in parts),
                        math.fsum(z.imag for z in parts))
        if abs(total.imag) > 1e-9:
            raise ArithmeticError(f"imaginary residue {total.imag:g} too large")
        val = total.real
        if val <= 0:
            raise ArithmeticError("c_phi quadrature gave a non-positive value")
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)):
            return val
        prev = val
        panels *= 2
        if panels > 512:
            raise ArithmeticError("c_phi quadrature did not converge")


def c_phi_derivative_route(phi: BumpFunction = DEFAULT_BUMP) -> float:
    """4 pi^2 int_0^infty phi'(t)^2 dt  (independent route to c_phi)."""
    a, b = phi.support
    val = quad(lambda t: phi.derivative(t) ** 2, 0.0, b, limit=200)[0]
    return 4.0 * math.pi ** 2 * val


# ---------------------------------------------------------------------
# The truncated sieve weight

@lru_cache(maxsize=None)
def _lambda_cached(ideal_key, K, primes, logR, phi_id):
    phi = _PHI_REGISTRY[phi_id]
    total = 0.0
    terms = []
    for mask in itertools.product((0, 1), repeat=len(primes)):
        logNd = sum(m * math.log(P.norm()) for m, P in zip(mask, primes))
        sgn = (-1) ** sum(mask)
        terms.append(sgn * phi(logNd / logR))
    return math.fsum(terms)


_PHI_REGISTRY = {0: DEFAULT_BUMP}


def _phi_id(phi):
    for k, v in _PHI_REGISTRY.items():
        if v is phi:
            return k
    k = max(_PHI_REGISTRY) + 1
    _PHI_REGISTRY[k] = phi
    return k


def lambda_R(n, R: float, phi: BumpFunction = DEFAULT_BUMP) -> float:
    """Lambda_{K,R}(n) = sum over squarefree divisors d of mu(d) phi(log N d / log R).

    Only the distinct primes of n matter; the sum runs over subsets.
    """
    if R <= 1:
        raise ValueError("R must exceed 1")
    fac = factor_ideal(n)
    primes = tuple(P for P, _ in fac.factors)
    return _lambda_cached(n.key(), n.K, primes, math.log(R), _phi_id(phi))


@dataclass
class SieveConfig:
    """Parameters of the truncated-divisor-sum measure.

    logR defaults to log N / (8 s z 2^{sz}) with z the degree of the field
    times the number of forms per point; override via logR_factor or logR.
    """
    K: object
    N: int
    s: int = 1
    k: float = 1.5
    w: int = 3
    alpha: object = None           # anchor residue, a FieldElement
    epsilon: float = 0.05
    A: float = 10.0
    logR: float = None
    logR_factor: float = None      # logR = factor * log N when given
    phi: BumpFunction = DEFAULT_BUMP
    raw: bool = False              # drop the density prefactor, keep Lambda^2
    ambient: object = None         # fractional ideal b; defaults to O_K

    def __post_init__(self):
        from .ideals import FractionalIdeal, euler_phi

        if self.ambient is None:
            self.ambient = FractionalIdeal.unit_ideal(self.K)
        self.W = admissible_modulus(self.w)
        if self.alpha is None:
            self.alpha = self.K.one
        if self.logR is None:
            if self.logR_factor is not None:
                self.logR = self.logR_factor * math.log(self.N)
            else:
                sz = self.s * self.K.degree
                self.logR = math.log(self.N) / (8 * sz * 2 ** sz)
        self.R = math.exp(self.logR)
        self.phi_W = euler_phi(self.K, self.W)
        self._prefactor = None

    def prefactor(self) -> float:
        """phi_K(W) log R Res zeta_K / (c_phi W^n), the density scale of nu."""
        if self._prefactor is None:
            from .ideals import zeta_residue

            n = self.K.degree
            self._prefactor = (self.phi_W * self.logR * zeta_residue(self.K)
                               / (_c_phi_cached(self.phi) * self.W ** n))
        return self._prefactor

    def params_echo(self) -> dict:
        return {"field": self.K.name, "N": self.N, "s": self.s, "k": self.k,
                "w": self.w,
                "W": self.W, "alpha": [str(c) for c in self.alpha.coords],
                "epsilon": self.epsilon, "A": self.A, "logR": self.logR,
                "raw": self.raw}


@lru_cache(maxsize=None)
def _c_phi_cached_by_id(phi_id):
    return c_phi(_PHI_REGISTRY[phi_id])


def _c_phi_cached(phi):
    return _c_phi_cached_by_id(_phi_id(phi))


def nu_weight(cfg: SieveConfig, x) -> float:
    """nu(x) = prefactor * Lambda_{K,R}((W x + alpha) b^{-1})^2.

    x ranges over the ambient ideal b; the argument of the sieve weight is
    the integral ideal (W x + alpha) b^{-1}.  With cfg.raw the density
    prefactor phi_K(W) logR Res / (c_phi W^n) is dropped.
    """
    from .ideals import FractionalIdeal

    K = cfg.K
    y = K.element(cfg.W) * x + cfg.alpha
    if not y:
        return 0.0
    c = FractionalIdeal.principal(K, y) * cfg.ambient.inverse()
    if not c.is_integral():
        raise ValueError("W x + alpha does not lie in the ambient ideal")
    lam = lambda_R(c, cfg.R, cfg.phi)
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
    from .lattice import LatticeBasis, fundamental_domain_reduce

    K = cfg.K
    xhat, _ = fundamental_domain_reduce(K, cfg.ambient, residue, cfg.N)
    L = LatticeBasis(cfg.ambient)
    c = L.coords_of(xhat)
    half = Fraction(cfg.epsilon * cfg.N / 2)
    if all(-half < ci <= half for ci in c):
        return nu_weight(cfg, xhat)
    return 1.0
