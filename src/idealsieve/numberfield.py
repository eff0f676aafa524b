"""Monogenic number fields, their elements, and the Minkowski metric.

A field is defined by a monic irreducible integer polynomial f with
O_K = Z[theta].  Only a vetted list of such fields is accepted (degree <= 4,
index 1), which keeps Dedekind splitting and all HNF ideal arithmetic exact.
An element is a vector of integer numerators over one positive common
denominator on the power basis 1, theta, ..., theta^(n-1), kept in lowest
terms; its rational coordinates are read off as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ReduciblePolynomialError, UnsupportedFieldError
from .linalg import det_int

# FIELDS[name] = (f, G, m, splitting, residue), one record per vetted
# monogenic field:
# - f, its defining polynomial (coefficients constant-first, monic);
# - G, the Minkowski metric on the power basis: G[i][j] = Tr(theta^i
#   conj(theta^j)), so that |x|^2 = sum over the n embeddings s of |s(x)|^2
#   = Tr(x conj(x)) = a^T G a for x = sum a_i theta^i.  Every vetted field
#   is totally real or CM, so complex conjugation is a field automorphism
#   and G is an integer matrix;
# - m and splitting, the conductor and the residue degrees above p by p mod
#   m: every vetted field is abelian.  A class not prime to m holds one
#   p | m;
# - residue, Res_{z=1} zeta_K by the class number formula (h = 1).
FIELDS = {
    "Q": ((0, 1), ((1,),), 1, {0: [1]}, 1.0),
    "Q(i)": ((1, 0, 1), ((2, 0), (0, 2)), 4, {1: [1, 1], 2: [1], 3: [2]},
             math.pi / 4),
    "Q(sqrt2)": ((-2, 0, 1), ((2, 0), (0, 4)), 8,
                 {1: [1, 1], 2: [1], 3: [2], 5: [2], 7: [1, 1]},
                 math.log(1 + math.sqrt(2)) / math.sqrt(2)),
    "Q(sqrt-2)": ((2, 0, 1), ((2, 0), (0, 4)), 8,
                  {1: [1, 1], 2: [1], 3: [1, 1], 5: [2], 7: [2]},
                  math.pi / (2 * math.sqrt(2))),
    "Q(sqrt-3)": ((1, -1, 1), ((2, 1), (1, 2)), 3,
                  {0: [1], 1: [1, 1], 2: [2]}, math.pi / (3 * math.sqrt(3))),
    "Q(sqrt5)": ((-1, -1, 1), ((2, 1), (1, 3)), 5,
                 {0: [1], 1: [1, 1], 2: [2], 3: [2], 4: [1, 1]},
                 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
    "Q(sqrt-5)": ((5, 0, 1), ((2, 0), (0, 10)), 20,
                  {1: [1, 1], 2: [1], 3: [1, 1], 5: [1], 7: [1, 1],
                   9: [1, 1], 11: [2], 13: [2], 17: [2], 19: [2]},
                  math.pi / math.sqrt(5)),
    # w = 10, Reg = 0.96242365...
    "Q(zeta5)": ((1, 1, 1, 1, 1), ((4, -1, -1, -1), (-1, 4, -1, -1),
                                   (-1, -1, 4, -1), (-1, -1, -1, 4)), 5,
                 {0: [1], 1: [1, 1, 1, 1], 2: [4], 3: [4], 4: [2, 2]},
                 (2 * math.pi) ** 2 * 0.9624236501192069
                 / (10 * math.sqrt(125))),
}

SUPPORTED_POLYS = {rec[0]: name for name, rec in FIELDS.items()}

_FIELD_CACHE = {}


def _trace_form(poly):
    """Trace form Tr(theta^(i+j)), i, j < n, of a monic integer polynomial
    (constant-first), with the power sums Tr(theta^k) from Newton's
    identities."""
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
    return tuple(tuple(s[i + j] for j in range(n)) for i in range(n))


def _discriminant(poly) -> int:
    """Discriminant of a monic integer polynomial: the determinant of its
    trace form."""
    return det_int(_trace_form(poly))


class NumberField:
    """Monogenic field Q[x]/(f) with the Gram matrix of its Minkowski
    metric."""

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
        (_, self.gram, self.conductor, self.splitting,
         self.residue) = FIELDS[self.name]
        # totally real iff the metric is the trace form Tr(x y); otherwise
        # CM, with no real place
        if self.gram == _trace_form(poly):
            self.r1, self.r2 = n, 0
        else:
            self.r1, self.r2 = 0, n // 2
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
        # built once: a FieldElement is never changed after it is made
        self.zero = FieldElement(self, (0,) * n, 1)
        self.one = FieldElement(self, (1,) + (0,) * (n - 1), 1)

    def mul(self, a, b):
        """Product of two coordinate vectors on the power basis, ints or
        Fractions: their convolution, with theta^m for m >= n replaced by
        its reduction modulo f."""
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = conv[:n]
        for m in range(n, 2 * n - 1):
            c = conv[m]
            if c:
                for i, t in enumerate(self._theta_pow[m - n]):
                    if t:
                        out[i] += c * t
        return out

    def mul_rows(self, a):
        """The matrix of multiplication by a: row r is row r - 1 times theta."""
        rows = [list(a)]
        for _ in range(self.degree - 1):
            rows.append([s + rows[-1][-1] * t for s, t in
                         zip([0] + rows[-1][:-1], self._theta_pow[0])])
        return rows

    def theta_power(self, j):
        if j < self.degree:
            return self.element([int(i == j) for i in range(self.degree)])
        return self.element(self._theta_pow[j - self.degree])

    def element(self, coords):
        """The element with these rational coordinates, or the rational
        number coords, or coords itself if it is an element of K: the one
        place where coordinates become numerators over a denominator."""
        if isinstance(coords, FieldElement):
            if coords.K is not self and coords.K != self:
                raise ValueError("mixed fields")
            return coords
        if isinstance(coords, int):  # its numerators need no Fraction
            return FieldElement(self, (int(coords),) + self.zero.num[1:], 1)
        if isinstance(coords, Fraction):
            coords = [coords] + [0] * (self.degree - 1)
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
        d = math.lcm(*(c.denominator for c in coords))
        return FieldElement(self, tuple(c.numerator * (d // c.denominator)
                                        for c in coords), d)

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
    """Element num / den of a NumberField on the power basis: num a tuple
    of ints, den >= 1, in lowest terms (gcd(den, *num) = 1, so 0 is
    (0, ..., 0) / 1).  Equal elements have equal num and den."""

    __slots__ = ("K", "num", "den")

    def __init__(self, K, num, den):
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        self.K = K
        self.num = num
        self.den = den

    @property
    def coords(self):
        """The rational coordinates on the power basis."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __add__(self, other):
        o = self.K.element(other)
        d, e = self.den, o.den
        return FieldElement(self.K, tuple(a * e + b * d for a, b in
                                          zip(self.num, o.num)), d * e)

    def __sub__(self, other):
        return self + -self.K.element(other)

    def __neg__(self):
        return FieldElement(self.K, tuple(-a for a in self.num), self.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.K, tuple(other.numerator * a
                                              for a in self.num),
                                other.denominator * self.den)
        o = self.K.element(other)
        return FieldElement(self.K, tuple(self.K.mul(self.num, o.num)),
                            self.den * o.den)

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.K == other.K
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.K.poly, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def norm(self):
        """Field norm N_{K/Q}, exact: det(multiplication-by-num matrix) /
        den^n, the determinant taken over the integers."""
        return Fraction(det_int(self.K.mul_rows(self.num)),
                        self.den ** self.K.degree)

    def __repr__(self):
        return f"<{self.K.name}: {tuple(str(c) for c in self.coords)}>"


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
    if name not in FIELDS:
        raise UnsupportedFieldError(f"unknown field name {name!r}")
    return make_field(FIELDS[name][0])


def minkowski_norm(x: FieldElement) -> float:
    """sqrt(sum over the n embeddings s of |s(x)|^2), each complex place
    counted twice through its conjugate pair.

    For x = a / d, the square is the exact rational a^T G a / d^2 (G =
    K.gram), rounded once by the integer division and once by the square
    root.
    """
    a, d = x.num, x.den
    q = sum(ai * sum(g * aj for g, aj in zip(row, a))
            for ai, row in zip(a, x.K.gram))
    return math.sqrt(q / (d * d))
