"""Monogenic number fields, their elements, and the Minkowski metric.

A field is defined by a monic irreducible integer polynomial f with
O_K = Z[theta].  Only a vetted list of such fields is accepted (degree <= 4,
index 1), which keeps Dedekind splitting and all HNF ideal arithmetic exact.
Elements are coordinate vectors on the power basis 1, theta, ..., theta^(n-1)
with arbitrary-precision rational coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ReduciblePolynomialError, UnsupportedFieldError
from .linalg import det_int

# Vetted monogenic fields (coefficients constant-first, monic).
SUPPORTED_POLYS = {
    (0, 1): "Q",
    (1, 0, 1): "Q(i)",
    (-2, 0, 1): "Q(sqrt2)",
    (2, 0, 1): "Q(sqrt-2)",
    (1, -1, 1): "Q(sqrt-3)",
    (-1, -1, 1): "Q(sqrt5)",
    (5, 0, 1): "Q(sqrt-5)",
    (1, 1, 1, 1, 1): "Q(zeta5)",
}

_FIELD_CACHE = {}


def _discriminant(poly) -> int:
    """Discriminant of a monic integer polynomial (constant-first): the
    determinant of its trace form Tr(theta^(i+j)), i, j < n, with the power
    sums Tr(theta^k) from Newton's identities."""
    n = len(poly) - 1
    a = poly[:-1]  # f = x^n + a[n-1] x^(n-1) + ... + a[0]
    s = [n]
    for k in range(1, 2 * n - 1):
        # s_k = -(k a[n-k] [k <= n] + sum of a[n-k+j] s_j over
        # max(1, k-n) <= j < k)
        acc = k * a[n - k] if k <= n else 0
        for j in range(max(1, k - n), k):
            acc += a[n - k + j] * s[j]
        s.append(-acc)
    return det_int([[s[i + j] for j in range(n)] for i in range(n)])


class NumberField:
    """Monogenic field Q[x]/(f) with archimedean embedding data."""

    def __init__(self, poly):
        poly = tuple(int(c) for c in poly)
        if poly[-1] != 1:
            raise UnsupportedFieldError("defining polynomial must be monic")
        if poly not in SUPPORTED_POLYS:
            # the only use of sympy: say why a polynomial is rejected
            import sympy

            x = sympy.Symbol("x")
            if not sympy.Poly(sum(c * x**i for i, c in enumerate(poly)),
                              x).is_irreducible:
                raise ReduciblePolynomialError(f"{poly} is reducible over Q")
            raise UnsupportedFieldError(
                f"{poly} is not in the vetted monogenic field list")
        self.poly = poly
        self.name = SUPPORTED_POLYS[poly]
        self.degree = len(poly) - 1
        n = self.degree
        # equals d_K on the vetted list (every field is monogenic)
        self.discriminant = _discriminant(poly)
        self._init_embeddings()
        # theta^m for m = n .. 2n-2 on the power basis (integer rows).
        red = []
        cur = [-c for c in poly[:-1]]  # theta^n
        red.append(tuple(cur))
        for _ in range(n - 2):
            shifted = [0] + cur[:-1]
            top = cur[-1]
            cur = [s + top * t for s, t in zip(shifted, red[0])]
            red.append(tuple(cur))
        self._theta_pow = red

    def _init_embeddings(self):
        n = self.degree
        if n == 1:
            self._roots_mp = [mpmath.mpf(0)]
        else:
            coeffs = [mpmath.mpf(1)] + [mpmath.mpf(c) for c in self.poly[-2::-1]]
            with mpmath.workdps(40):
                self._roots_mp = mpmath.polyroots(coeffs, maxsteps=200)
        reals, complexes = [], []
        for r in self._roots_mp:
            if abs(mpmath.im(r)) < 1e-20:
                reals.append(float(mpmath.re(r)))
            elif mpmath.im(r) > 0:
                complexes.append(complex(r))
        reals.sort()
        complexes.sort(key=lambda z: (z.real, z.imag))
        self.r1 = len(reals)
        self.r2 = len(complexes)
        assert self.r1 + 2 * self.r2 == n
        self.signature = (self.r1, self.r2)
        # one root per place, real places first
        self.places = [complex(r) for r in reals] + complexes
        # all n embeddings (conjugate pairs expanded), for norms/products
        self.roots = ([complex(r) for r in reals] + complexes
                      + [z.conjugate() for z in complexes])

    def element(self, coords):
        if isinstance(coords, (int, Fraction)):
            coords = [coords] + [0] * (self.degree - 1)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
        return FieldElement(self, coords)

    @property
    def zero(self):
        return self.element(0)

    @property
    def one(self):
        return self.element(1)

    @property
    def theta(self):
        if self.degree == 1:
            return self.zero
        return self.element([0, 1] + [0] * (self.degree - 2))

    def __repr__(self):
        return f"NumberField({self.name})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)


class FieldElement:
    """Element of a NumberField on the power basis."""

    __slots__ = ("K", "coords")

    def __init__(self, K, coords):
        self.K = K
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.K != self.K:
                raise ValueError("mixed fields")
            return other
        return self.K.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.K, tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.K, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __neg__(self):
        return FieldElement(self.K, tuple(-a for a in self.coords))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.K, tuple(Fraction(other) * a for a in self.coords))
        o = self._coerce(other)
        n = self.K.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:n])
        for m in range(n, 2 * n - 1):
            c = conv[m]
            if c:
                row = self.K._theta_pow[m - n]
                for i, t in enumerate(row):
                    if t:
                        out[i] += c * t
        return FieldElement(self.K, tuple(out))

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.K == other.K
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.K.poly, self.coords))

    def __bool__(self):
        return any(self.coords)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def norm(self):
        """Field norm N_{K/Q}, exact: with d the common denominator of the
        coordinates, det(multiplication-by-dx matrix) / d^n, the
        determinant taken over the integers."""
        d = math.lcm(*(c.denominator for c in self.coords))
        row = [c.numerator * (d // c.denominator) for c in self.coords]
        rows = [row]
        for _ in range(self.K.degree - 1):  # row j + 1 = theta * row j
            top = row[-1]
            row = [s + top * t
                   for s, t in zip([0] + row[:-1], self.K._theta_pow[0])]
            rows.append(row)
        return Fraction(det_int(rows), d ** len(rows))

    def embed(self, root):
        """Evaluate at an embedding root (Horner)."""
        acc = 0j
        for c in reversed(self.coords):
            acc = acc * root + complex(c)
        return acc

    def embeddings(self):
        return [self.embed(r) for r in self.K.roots]

    def minkowski_norm(self):
        return minkowski_norm(self.K, self)

    def __repr__(self):
        return f"<{self.K.name}: {tuple(str(c) for c in self.coords)}>"


def _theta_power(K, j):
    coords = [Fraction(0)] * K.degree
    if j < K.degree:
        coords[j] = Fraction(1)
        return FieldElement(K, tuple(coords))
    return FieldElement(K, tuple(Fraction(c) for c in K._theta_pow[j - K.degree]))


NumberField.theta_power = _theta_power


def make_field(poly) -> NumberField:
    """Construct (and cache) a supported monogenic number field.

    Accepts either a constant-first coefficient tuple or a field name."""
    if isinstance(poly, str):
        return field_by_name(poly)
    poly = tuple(int(c) for c in poly)
    if poly not in _FIELD_CACHE:
        _FIELD_CACHE[poly] = NumberField(poly)
    return _FIELD_CACHE[poly]


def field_by_name(name: str) -> NumberField:
    for poly, nm in SUPPORTED_POLYS.items():
        if nm == name:
            return make_field(poly)
    raise UnsupportedFieldError(f"unknown field name {name!r}")


def minkowski_norm(K: NumberField, x: FieldElement) -> float:
    """sqrt(sum over infinite places of [K_s:R] * |s(x)|^2).

    Equals the Euclidean norm over all n embeddings since each complex
    place contributes twice.
    """
    s = 0.0
    for r in K.roots:
        v = x.embed(r)
        s += v.real * v.real + v.imag * v.imag
    return math.sqrt(s)


def minkowski_norm_precise(K: NumberField, x: FieldElement):
    """High-precision Minkowski norm for boundary rechecks.

    mpmath.polyroots returns all n roots (both members of each conjugate
    pair), so an unweighted sum over them matches the metric.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(0)
        for r in K._roots_mp:
            acc = mpmath.mpc(0)
            for c in reversed(x.coords):
                acc = acc * r + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            s += abs(acc) ** 2
        return mpmath.sqrt(s)


def embedding_coords(K: NumberField, x: FieldElement) -> np.ndarray:
    """Coordinates of x in K_inf = R^r1 x C^r2 flattened to R^n:
    real-place values first, then (Re, Im) per complex place."""
    out = []
    for i, r in enumerate(K.places):
        v = x.embed(r)
        if i < K.r1:
            out.append(v.real)
        else:
            out.extend((v.real, v.imag))
    return np.array(out)
