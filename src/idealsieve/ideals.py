"""Fractional-ideal arithmetic in Hermite normal form.

Ideals are Z-lattices on the power basis: an n x n integer HNF matrix
(rows span an integral ideal) divided by a positive integer denominator.
The representation is canonical, so equality and hashing are structural.
Prime ideals come from Dedekind splitting of the defining polynomial,
which is valid index-free on the vetted field list; as every vetted field
is abelian, the splitting is read off p modulo the conductor, and as it is
Galois, primality of an ideal is read off its norm (is_prime_vector).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import factorint, iroot, isprime, primerange, sqrt_mod
from .errors import BudgetExceededError, UnsupportedFieldError
from .linalg import det_int, hnf, mat_inv_fraction
from .numberfield import FieldElement, NumberField


class FractionalIdeal:
    """numerator/den with numerator an integral-ideal lattice in HNF."""

    __slots__ = ("K", "mat", "den", "_inv", "_basis")

    def __init__(self, K, mat, den):
        # canonical gcd reduction
        g = den
        for row in mat:
            for x in row:
                g = math.gcd(g, x)
        if g > 1:
            mat = tuple(tuple(x // g for x in row) for row in mat)
            den //= g
        self.K = K
        self.mat = mat
        self.den = den
        self._inv = None
        self._basis = None

    # -- constructors -------------------------------------------------

    @classmethod
    def unit_ideal(cls, K):
        n = K.degree
        return cls(K, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def from_generators(cls, K, gens):
        """O_K-module generated by the given field elements: the rows
        d g theta^j over their common denominator d."""
        gens = [K.element(g) for g in gens]
        d = math.lcm(*(g.den for g in gens))
        rows = [r for g in gens
                for r in K.mul_rows([x * (d // g.den) for x in g.num])]
        return cls(K, hnf(rows, K.degree), d)

    @classmethod
    def principal(cls, K, x):
        x = K.element(x)
        if not x:
            raise ValueError("zero element generates the zero ideal")
        return cls.from_generators(K, [x])

    # -- basic structure ----------------------------------------------

    def basis_elements(self):
        """Z-basis of the ideal as field elements (HNF rows / den)."""
        if self._basis is None:
            self._basis = tuple(FieldElement(self.K, row, self.den)
                                for row in self.mat)
        return self._basis

    def norm(self) -> Fraction:
        det = 1
        for i in range(self.K.degree):
            det *= self.mat[i][i]
        return Fraction(abs(det), self.den ** self.K.degree)

    def is_integral(self) -> bool:
        return self.den == 1

    def coords(self, x: FieldElement):
        """Rational coordinates of any x on the Z-basis (HNF rows / den),
        by triangular back-substitution."""
        y = []
        for col, column in enumerate(zip(*self.mat)):
            rem = Fraction(x.num[col] * self.den, x.den) \
                - sum(map(operator.mul, y, column))
            y.append(rem / column[col])
        return y

    def numerators(self, x: FieldElement):
        """The integer vector den x, or None if it is not integral (then x
        is not in the ideal); x is in lowest terms, so that is iff x.den
        divides den."""
        q, r = divmod(self.den, x.den)
        return None if r else tuple(a * q for a in x.num)

    def _coefficients(self, v):
        """The integer coordinates on the Z-basis of v / den, v an integer
        vector, by HNF back-substitution with divmod; None if v / den is
        not in the ideal."""
        y = []
        for col, column in enumerate(zip(*self.mat)):
            q, r = divmod(v[col] - sum(map(operator.mul, y, column)),
                          column[col])
            if r:
                return None
            y.append(q)
        return y

    def contains(self, x: FieldElement) -> bool:
        """Exact lattice membership: x is in the ideal iff den x is
        integral and its coordinates on the HNF rows are integers."""
        v = self.numerators(x)
        return v is not None and self._coefficients(v) is not None

    def element_at(self, coeffs) -> FieldElement:
        """sum coeffs_i * (basis element i), from the integer HNF rows."""
        return FieldElement(self.K, tuple(
            sum(map(operator.mul, coeffs, column))
            for column in zip(*self.mat)), self.den)

    def contains_ideal(self, other) -> bool:
        return all(self.contains(b) for b in other.basis_elements())

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        """The products of the HNF rows span the product lattice."""
        if not isinstance(other, FractionalIdeal):
            raise TypeError
        K = self.K
        rows = [K.mul(h, g) for h in self.mat for g in other.mat]
        return FractionalIdeal(K, hnf(rows, K.degree), self.den * other.den)

    def __add__(self, other):
        """Both lattices over the denominator d d'."""
        rows = [[x * other.den for x in h] for h in self.mat]
        rows += [[x * self.den for x in h] for h in other.mat]
        return FractionalIdeal(self.K, hnf(rows, self.K.degree),
                               self.den * other.den)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = FractionalIdeal.unit_ideal(self.K)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        """{x in K : x * self <= O_K} via the dual of the column lattice of
        the stacked multiplication matrices."""
        if self._inv is not None:
            return self._inv
        K, n, d = self.K, self.K.degree, self.den
        # x is in the inverse iff x h / d is integral for every HNF row h,
        # i.e. x . c / d is an integer for each column c of every
        # multiplication matrix M_h (row r of M_h = h theta^r).  With B the
        # HNF of those columns, the solutions are d times the dual lattice,
        # whose rows are the columns of B^-1 = adj(B) / det(B).
        cols = [c for h in self.mat for c in zip(*K.mul_rows(h))]
        B = hnf(cols, n)
        det = math.prod(B[i][i] for i in range(n))
        adj = [[int(det * x) for x in row] for row in mat_inv_fraction(B)]
        rows = [[d * adj[r][c] for r in range(n)] for c in range(n)]
        inv = FractionalIdeal(K, hnf(rows, n), det)
        self._inv = inv
        inv._inv = self
        return inv

    def key(self):
        return (self.K.poly, self.den, self.mat)

    def __eq__(self, other):
        return isinstance(other, FractionalIdeal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FractionalIdeal({self.K.name}, den={self.den}, mat={self.mat})"

    def to_json(self):
        return {"den": self.den, "hnf": [list(r) for r in self.mat]}

    @classmethod
    def from_json(cls, K, obj):
        """The ideal a certificate names; ValueError unless it is an O_K-ideal
        (closed under theta) given by its canonical n x n HNF and den >= 1."""
        mat = tuple(tuple(operator.index(x) for x in r) for r in obj["hnf"])
        den = operator.index(obj["den"])
        if den < 1 or len(mat) != K.degree \
                or any(len(r) != K.degree for r in mat):
            raise ValueError("not an n x n HNF over a positive denominator")
        ideal = cls(K, mat, den)
        if hnf(mat, K.degree) != mat or not ideal.validate_module_structure():
            raise ValueError("not an O_K-ideal in canonical HNF")
        return ideal

    def validate_module_structure(self) -> bool:
        """Check closure under multiplication by theta."""
        th = self.K.theta
        return all(self.contains(b * th) for b in self.basis_elements())


@dataclass(frozen=True)
class PrimeIdeal:
    """Two-element representation (p, g(theta)) with residue degree f and
    ramification index e."""
    K: NumberField
    p: int
    gpoly: tuple  # constant-first, monic, coefficients in [0, p)
    e: int
    f: int

    def norm(self) -> int:
        return self.p ** self.f

    def generator_element(self) -> FieldElement:
        coords = [0] * self.K.degree
        for i, c in enumerate(self.gpoly):
            if i < self.K.degree:
                coords[i] = c
        # deg g == n means g == f mod p, i.e. g(theta) = (g - f)(theta)
        if len(self.gpoly) - 1 == self.K.degree:
            coords = [c - fc for c, fc in zip(self.gpoly, self.K.poly)][: self.K.degree]
        return self.K.element(coords)

    def ideal(self) -> FractionalIdeal:
        return _prime_ideal_lattice(self)

    def sort_key(self):
        return (self.norm(), self.p, self.gpoly)

    def to_json(self):
        return {"p": self.p, "g": list(self.gpoly), "e": self.e, "f": self.f}

    def __repr__(self):
        return f"PrimeIdeal({self.K.name}, p={self.p}, g={self.gpoly}, e={self.e}, f={self.f})"


@lru_cache(maxsize=2**16)
def _prime_ideal_lattice(P: PrimeIdeal) -> FractionalIdeal:
    return FractionalIdeal.from_generators(
        P.K, [P.K.element(P.p), P.generator_element()])


@dataclass(frozen=True)
class IdealFactorization:
    factors: tuple  # ((PrimeIdeal, exponent), ...)

    def product(self, K) -> FractionalIdeal:
        out = FractionalIdeal.unit_ideal(K)
        for P, e in self.factors:
            out = out * P.ideal() ** e
        return out


# ---------------------------------------------------------------------
# Dedekind splitting

def _kronecker(a: int, p: int) -> int:
    """Kronecker symbol (a|p) for prime p."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@lru_cache(maxsize=2**16)
def factor_rational_prime(K: NumberField, p: int):
    """Dedekind splitting of (p): the primes (p, g(theta)) for the monic
    irreducible factors g of f mod p.  Every vetted field is abelian, so
    the splitting is read off p modulo the conductor (1, 4, 8, 8, 3, 5,
    20, 5 for Q, Q(i), Q(sqrt2), Q(sqrt-2), Q(sqrt-3), Q(sqrt5), Q(sqrt-5),
    Q(zeta5)) and no polynomial is factored."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    n = K.degree
    if n == 1:
        primes = [PrimeIdeal(K, p, (0, 1), 1, 1)]
    elif n == 2:
        primes = _factor_prime_quadratic(K, p)
    else:  # Q(zeta5), the one vetted quartic
        primes = _factor_prime_zeta5(K, p)
    assert sum(P.e * P.f for P in primes) == n
    return tuple(sorted(primes, key=lambda P: P.sort_key()))


def _factor_prime_quadratic(K, p):
    """chi = (disc|p) is the splitting type: inert at -1, else the roots
    of f mod p, with e = 2 - |chi| (sqrt_mod(0) = 0 gives the double root
    of the ramified case)."""
    c0, c1, _ = K.poly  # x^2 + c1 x + c0
    disc = c1 * c1 - 4 * c0
    chi = _kronecker(disc, p)
    if chi == -1:
        return [PrimeIdeal(K, p, (c0 % p, c1 % p, 1), 1, 2)]
    if p == 2:
        roots = {x for x in (0, 1) if (x * x + c1 * x + c0) % 2 == 0}
    else:
        r, inv2 = sqrt_mod(disc, p), (p + 1) // 2
        roots = {(-c1 + r) * inv2 % p, (-c1 - r) * inv2 % p}
    return [PrimeIdeal(K, p, (-x % p, 1), 2 - abs(chi), 1) for x in roots]


def _factor_prime_zeta5(K, p):
    """f = x^4 + x^3 + x^2 + x + 1: (x - 1)^4 at p = 5, else the residue
    degree is the order of p mod 5."""
    if p == 5:
        return [PrimeIdeal(K, p, (4, 1), 4, 1)]
    if p % 5 == 1:
        # the roots are r, r^2, r^3, r^4 for any primitive 5th root r
        a = 2
        while (r := pow(a, (p - 1) // 5, p)) == 1:
            a += 1
        return [PrimeIdeal(K, p, (-pow(r, k, p) % p, 1), 1, 1)
                for k in range(1, 5)]
    if p % 5 == 4:
        # x^2 - s x + 1 with s = r + 1/r, a root of s^2 + s - 1
        t, inv2 = sqrt_mod(5, p), (p + 1) // 2
        return [PrimeIdeal(K, p, (1, (1 + u) * inv2 % p, 1), 1, 2)
                for u in (t, -t)]
    return [PrimeIdeal(K, p, K.poly, 1, 4)]


def residue_degrees(K: NumberField, p: int):
    """Residue degrees of the primes above p (one entry per prime ideal),
    read off p modulo the conductor as in factor_rational_prime; the
    quadratic fields take the Kronecker symbol alone."""
    n = K.degree
    if n == 1:
        return [1]
    if n == 2:
        chi = _kronecker(K.discriminant, p)
        return [1, 1] if chi == 1 else ([2] if chi == -1 else [1])
    return [P.f for P in factor_rational_prime(K, p)]


# ---------------------------------------------------------------------
# Norm, factorization, Moebius

_FACTOR_CACHE = {}  # ideal key -> factorization, oldest entry dropped first
_FACTOR_CACHE_SIZE = 2**16


def valuation(a: FractionalIdeal, P: PrimeIdeal) -> int:
    """P-adic valuation of a nonzero integral ideal (nonnegative)."""
    v = 0
    Pinv = P.ideal().inverse()
    cur = a
    while True:
        nxt = cur * Pinv
        if not nxt.is_integral():
            return v
        v += 1
        cur = nxt


def factor_ideal(a: FractionalIdeal, budget: int = 10**15) -> IdealFactorization:
    """Factor a nonzero integral ideal into prime ideals (memoized)."""
    key = a.key()
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]
    if not a.is_integral():
        raise ValueError("factor_ideal requires an integral ideal")
    N = int(a.norm())
    if N > budget:
        raise BudgetExceededError(f"ideal norm {N} exceeds factorization budget")
    factors = []
    if N > 1:
        for p in factorint(N):
            for P in factor_rational_prime(a.K, p):
                v = valuation(a, P)
                if v:
                    factors.append((P, v))
    fac = IdealFactorization(tuple(factors))
    # reconstruction check is an invariant of the representation
    if fac.product(a.K) != a:
        raise AssertionError("factorization does not reconstruct the ideal")
    if len(_FACTOR_CACHE) >= _FACTOR_CACHE_SIZE:
        del _FACTOR_CACHE[next(iter(_FACTOR_CACHE))]
    _FACTOR_CACHE[key] = fac
    return fac


def mobius(a: FractionalIdeal) -> int:
    fac = factor_ideal(a)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return (-1) ** len(fac.factors)


def euler_phi(K: NumberField, W: int) -> int:
    """|(O_K/(W))^x| via the local product over primes dividing W."""
    if W < 1:
        raise ValueError("W must be >= 1")
    if W == 1:
        return 1
    phi = 1
    for p, a in factorint(W).items():
        for P in factor_rational_prime(K, p):
            q = P.norm()
            v = P.e * a  # valuation of (W) at P
            phi *= q ** v - q ** (v - 1)
    return phi


def enumerate_prime_ideals(K: NumberField, X, budget: int = 10**7):
    """All prime ideals of norm <= X, sorted by (norm, p, generator)."""
    X = int(X)
    if X > budget:
        raise BudgetExceededError("norm bound exceeds enumeration budget")
    out = []
    for p in primerange(2, X + 1):
        for P in factor_rational_prime(K, p):
            if P.norm() <= X:
                out.append(P)
    return sorted(out, key=lambda P: P.sort_key())


def count_ideals(K: NumberField, x, budget: int = 4 * 10**6) -> int:
    """#{integral ideals of norm <= x} by multiplicative convolution."""
    import numpy as np

    X = int(math.floor(x))
    if X < 1:
        return 0
    if X > budget:
        raise BudgetExceededError("count_ideals bound exceeds budget")
    A = np.zeros(X + 1, dtype=np.int64)
    A[1] = 1
    for p in primerange(2, X + 1):
        fs = residue_degrees(K, p)
        emax = int(math.log(X) / math.log(p)) + 1
        # ways to write e as a sum over primes above p of a_i * f_i
        c = [1] + [0] * emax
        for f in fs:
            nc = c[:]
            for e in range(f, emax + 1):
                add = 0
                for a in range(1, e // f + 1):
                    add += c[e - a * f]
                nc[e] += add
            c = nc
        for e in range(1, emax + 1):
            pe = p ** e
            if pe > X or c[e] == 0:
                continue
            limit = X // pe
            idx = np.arange(1, limit + 1)
            if p <= limit:
                idx = idx[idx % p != 0]
            A[idx * pe] += c[e] * A[idx]
    return int(A[1:].sum())


_ZETA_RESIDUES = {
    "Q": lambda: 1.0,
    "Q(i)": lambda: math.pi / 4,
    "Q(sqrt-3)": lambda: math.pi / (3 * math.sqrt(3)),
    "Q(sqrt-2)": lambda: math.pi / (2 * math.sqrt(2)),
    "Q(sqrt-5)": lambda: math.pi / math.sqrt(5),
    "Q(sqrt2)": lambda: math.log(1 + math.sqrt(2)) / math.sqrt(2),
    "Q(sqrt5)": lambda: 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5),
    # class number formula with h=1, w=10, Reg = 0.96242365...
    "Q(zeta5)": lambda: (2 * math.pi) ** 2 * 0.9624236501192069
    / (10 * math.sqrt(125)),
}


def zeta_residue(K: NumberField) -> float:
    """Residue of zeta_K at z = 1, from the class number formula table."""
    if K.name not in _ZETA_RESIDUES:
        raise UnsupportedFieldError(f"no residue table entry for {K.name}")
    return _ZETA_RESIDUES[K.name]()


# ---------------------------------------------------------------------
# Ideal classes, primality of elements, truncated classes

def has_finite_unit_group(K: NumberField) -> bool:
    return K.r1 + K.r2 - 1 == 0


def _generators(c: FractionalIdeal):
    """Every generator of c in coordinate order, or [] if c is not
    principal.

    The unit group must be finite: on the vetted list that is Q and the
    imaginary quadratic fields, of degree n <= 2, where every embedding
    has the same absolute value and |x|^2 = n |N(x)|^(2/n).  A nonzero x
    in c has |N(x)| >= N(c), with equality iff (x) = c, so the generators
    are exactly the vectors of c meeting the least possible norm: for the
    numerators w = den x and G = K.gram, w G w^T = n det(H)^(2/n), H the
    HNF of c.  The minimal vectors of a lattice are +-H_0 in degree 1 and,
    after Lagrange-Gauss reduction of the rows of H to (u, v) with
    |2 B(u, v)| <= B(u, u) <= B(v, v), among +-u, +-v and +-(u +- v) in
    degree 2 (Cohen, GTM 138, Ch. 5); c is principal iff one of them meets
    the bound.
    """
    K = c.K
    if not has_finite_unit_group(K):
        raise UnsupportedFieldError(
            f"principal generators require a finite unit group; {K.name} "
            f"has unit rank {K.r1 + K.r2 - 1}")

    def B(x, y):
        return sum(a * g * b for a, row in zip(x, K.gram)
                   for g, b in zip(row, y))

    n = K.degree
    candidates = list(c.mat)
    if n == 2:
        u, v = candidates
        while True:
            a = B(u, u)
            q = (2 * B(u, v) + a) // (2 * a)  # the integer nearest B(u, v)/a
            v = [y - q * x for x, y in zip(u, v)]
            if B(v, v) >= a:
                break
            u, v = v, u
        candidates = [u, v, [x + y for x, y in zip(u, v)],
                      [x - y for x, y in zip(u, v)]]
    least = n * math.prod(row[i] for i, row in enumerate(c.mat)) ** (2 // n)
    gens = sorted(tuple(s * x for x in w) for w in candidates
                  if B(w, w) == least for s in (1, -1))
    return [FieldElement(K, w, c.den) for w in gens]


def principal_generator(c: FractionalIdeal):
    """The canonical generator of a principal fractional ideal, the first
    of _generators(c) in coordinate order, or None if c is not
    principal."""
    gens = _generators(c)
    return gens[0] if gens else None


def class_equivalent(a: FractionalIdeal, b: FractionalIdeal,
                     m: FractionalIdeal):
    """Is b = (xi) a for some nonzero xi in 1 + m a^{-1}?  Returns
    (bool, witness), the witness the first generator of c = b a^{-1} in
    coordinate order that meets the congruence."""
    cong = m * a.inverse()
    for xi in _generators(b * a.inverse()):
        if cong.contains(xi - a.K.one):
            return True, xi
    return False, None


def is_prime_element(K: NumberField, b: FractionalIdeal, xi: FieldElement) -> bool:
    """True iff the integral ideal (xi) b^{-1} is prime (is_prime_vector on
    the numerators of xi over b.den); ValueError if xi is not in b."""
    v = b.numerators(xi)
    prime = None if v is None else is_prime_vector(K, b, v)
    if prime is None:
        raise ValueError("xi is not an element of the ambient ideal")
    return prime


def is_prime_vector(K: NumberField, b: FractionalIdeal, v):
    """For x = v / b.den, v an integer vector: None if x is not in b, else
    whether the integral ideal (x) b^{-1} is prime.

    Membership is b's integer back-substitution.  Primality is read off
    the norm N = N((x) b^{-1}) = |det(multiplication-by-v matrix)| / det(H),
    H the HNF of b: every vetted field is Galois, so the primes above p
    share one residue degree f, which divides n, and an ideal of norm p^a
    is prime iff a = f.  Nothing is factored: for each f | n, N = r^f is
    tested with r the integer f-th root.  b must be an O_K-ideal in
    canonical HNF (see from_json)."""
    if b._coefficients(v) is None:
        return None
    if not any(v):
        return False
    N, r = divmod(abs(det_int(K.mul_rows(v))),
                  math.prod(row[i] for i, row in enumerate(b.mat)))
    if r:
        raise ValueError("(x) b^{-1} is not integral; malformed ambient ideal")
    n = K.degree
    for f in range(1, n + 1):
        if n % f == 0:
            r = iroot(N, f)
            if r ** f == N and isprime(r) and residue_degrees(K, r)[0] == f:
                return True
    return False


@dataclass(frozen=True)
class TruncatedClass:
    """{xi in ambient : xi = anchor (mod modulus), |xi - anchor|_Min < radius}"""
    ambient: FractionalIdeal
    modulus: FractionalIdeal
    anchor: FieldElement
    radius: float
    members: tuple

    @classmethod
    def build(cls, ambient, modulus, anchor, radius, budget: int = 10**6):
        from .lattice import ball_elements

        if not ambient.contains_ideal(modulus):
            raise ValueError("modulus must be contained in the ambient ideal")
        if not ambient.contains(anchor):
            raise ValueError("anchor must lie in the ambient ideal")
        members = tuple(anchor + mu
                        for mu in ball_elements(ambient.K, modulus, radius,
                                                budget=budget))
        return cls(ambient, modulus, anchor, radius, members)

    def verify(self) -> bool:
        from .numberfield import minkowski_norm

        for xi in self.members:
            if not self.ambient.contains(xi):
                return False
            if not self.modulus.contains(xi - self.anchor):
                return False
            if minkowski_norm(self.ambient.K, xi - self.anchor) >= self.radius:
                return False
        return True
