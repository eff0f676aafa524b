"""Fractional-ideal arithmetic in Hermite normal form.

Ideals are Z-lattices on the power basis: an n x n integer HNF matrix
(rows span an integral ideal) divided by a positive integer denominator.
The representation is canonical, so equality and hashing are structural.
Prime ideals come from Dedekind splitting of the defining polynomial,
which is valid index-free on the vetted field list; as every vetted field
is abelian, the splitting is read off p modulo the conductor, and as it is
Galois, primality of an ideal is read off its norm (is_prime_norm).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce

from .arith import (factorint, iroot, isprime, prime_flags, primerange,
                    sqrt_mod)
from .errors import (COUNT_BUDGET, ENUMERATION_BUDGET, FACTOR_BUDGET,
                     UnsupportedFieldError, check_budget)
from .lattice import iter_ball_elements
from .linalg import adjugate, det_int, echelon_mod_p, hnf
from .numberfield import FieldElement, NumberField, minkowski_norm


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
        det = math.prod(self.mat[i][i] for i in range(self.K.degree))
        return Fraction(abs(det), self.den ** self.K.degree)

    def is_integral(self) -> bool:
        return self.den == 1

    def coords(self, x: FieldElement):
        """Rational coordinates of any x on the Z-basis (HNF rows / den).
        With D = x.den det(H), D x lies in the ideal, so they are the
        integer coordinates of D x (from _coefficients) over D."""
        det = math.prod(self.mat[i][i] for i in range(self.K.degree))
        v = [a * self.den * det for a in x.num]
        return [Fraction(c, x.den * det) for c in self._coefficients(v)]

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

    def coefficients(self, x: FieldElement):
        """The integer coordinates of x on the Z-basis, or None if x is not
        in the ideal: den x must be integral and back-substitute."""
        v = self.numerators(x)
        return None if v is None else self._coefficients(v)

    def contains(self, x: FieldElement) -> bool:
        """Exact lattice membership: x is in the ideal iff den x is
        integral and its coordinates on the HNF rows are integers."""
        return self.coefficients(x) is not None

    def numerators_at(self, coeffs):
        """den sum coeffs_i * (basis element i): the integer vector coeffs H
        (a shorter coeffs covers the first rows)."""
        return [sum(map(operator.mul, coeffs, column))
                for column in zip(*self.mat)]

    def element_at(self, coeffs) -> FieldElement:
        """sum coeffs_i * (basis element i), from the integer HNF rows."""
        return FieldElement(self.K, tuple(self.numerators_at(coeffs)),
                            self.den)

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
        rows = [[d * a for a in col] for col in zip(*adjugate(B))]
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


class PrimeIdeal(namedtuple("PrimeIdeal", "K p gpoly e f")):
    """Two-element representation (p, g(theta)) with residue degree f and
    ramification index e; gpoly is constant-first, monic, with
    coefficients in [0, p)."""
    __slots__ = ()

    def norm(self) -> int:
        return self.p ** self.f

    def generator_element(self) -> FieldElement:
        coords = (list(self.gpoly) + [0] * self.K.degree)[:self.K.degree]
        # deg g == n means g == f mod p, i.e. g(theta) = (g - f)(theta)
        if len(self.gpoly) - 1 == self.K.degree:
            coords = [c - fc for c, fc in zip(self.gpoly, self.K.poly)][: self.K.degree]
        return FieldElement(self.K, tuple(coords), 1)

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


class IdealFactorization(namedtuple("IdealFactorization", "factors")):
    """factors: ((PrimeIdeal, exponent), ...)."""
    __slots__ = ()

    def product(self, K) -> FractionalIdeal:
        """The product of the factors, one prime ideal at a time (the unit
        ideal for no factors)."""
        primes = [P.ideal() for P, e in self.factors for _ in range(e)]
        return reduce(operator.mul, primes) if primes \
            else FractionalIdeal.unit_ideal(K)


# ---------------------------------------------------------------------
# Dedekind splitting

def factor_rational_prime(K: NumberField, p: int):
    """The prime ideals above p (primes_above), after checking that p is
    prime: ValueError if it is not."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    return primes_above(K, p)


@lru_cache(maxsize=2**16)
def primes_above(K: NumberField, p: int):
    """Dedekind splitting of (p) for a prime p, which is not checked (the
    callers take p from primerange or factorint): the primes (p, g(theta))
    for the monic irreducible factors g of f mod p.  Their residue degrees
    come from residue_degrees, with e = n / (sum of them); g is f mod p if
    p is inert (x over Q), x^2 - s x + 1 with s = (-1 -+ sqrt 5) / 2 if
    p = 4 mod 5 in Q(zeta5), else x - r for each root r of _roots_mod."""
    n = K.degree
    degrees = residue_degrees(K, p)
    if degrees == [n]:
        primes = [PrimeIdeal(K, p, tuple(c % p for c in K.poly), 1, n)]
    elif degrees == [2, 2]:
        t, inv2 = sqrt_mod(5, p), (p + 1) // 2
        primes = [PrimeIdeal(K, p, (1, (1 + u) * inv2 % p, 1), 1, 2)
                  for u in (t, -t)]
    else:
        primes = [PrimeIdeal(K, p, (-r % p, 1), n // sum(degrees), 1)
                  for r in _roots_mod(K, p)]
    assert sum(P.e * P.f for P in primes) == n
    return tuple(sorted(primes, key=lambda P: P.sort_key()))


# bench/micro.py clears the splitting cache under the checked name; the
# alias stays until the next benchmark revision (ROADMAP item 6).
factor_rational_prime.cache_clear = primes_above.cache_clear


def _roots_mod(K, p):
    """The distinct roots of f mod p when they are all its factors: by the
    quadratic formula (0 and 1 tried at p = 2), or in Q(zeta5) 1 at p = 5
    and r^k, k = 1..4, for r a primitive fifth root of unity mod p."""
    if K.degree == 2:
        c0, c1, _ = K.poly  # x^2 + c1 x + c0
        if p == 2:
            return {x for x in (0, 1) if (x * x + c1 * x + c0) % 2 == 0}
        r, inv2 = sqrt_mod(c1 * c1 - 4 * c0, p), (p + 1) // 2
        return {(-c1 + r) * inv2 % p, (-c1 - r) * inv2 % p}
    if p == 5:
        return {1}
    a = 2
    while (r := pow(a, (p - 1) // 5, p)) == 1:
        a += 1
    return {pow(r, k, p) for k in range(1, 5)}


def residue_degrees(K: NumberField, p: int):
    """The residue degrees of the primes above the prime p, the one
    splitting rule: the entry of p modulo the conductor in K.splitting
    (its record in numberfield.FIELDS), a list shared by every p of the
    class."""
    return K.splitting[p % K.conductor]


# ---------------------------------------------------------------------
# Norm, factorization, Moebius

_FACTOR_CACHE = {}  # ideal key -> factorization, oldest entry dropped first
FACTOR_CACHE_SIZE = 2**16


def prime_divisors(a: FractionalIdeal):
    """The distinct primes P containing a nonzero integral ideal a, in
    factor_ideal's order: those above the primes of N(a), ascending, with
    each HNF row of a in P by residue_rows(P, O_K).  N(a) is factored only
    up to FACTOR_BUDGET."""
    if not a.is_integral():
        raise ValueError("factoring requires an integral ideal")
    N = int(a.norm())
    check_budget("factored ideal norm", N, FACTOR_BUDGET)
    O = FractionalIdeal.unit_ideal(a.K)
    return tuple(P for p in factorint(N) for P in primes_above(a.K, p)
                 if not any(sum(map(operator.mul, g, h)) % p
                            for g in residue_rows(P, O) for h in a.mat))


def factor_ideal(a: FractionalIdeal) -> IdealFactorization:
    """Factor a nonzero integral ideal into prime ideals (memoized): each P
    of prime_divisors(a) to the largest j with a in P^j, P^(j+1) built only
    while N(P) divides N(a) over the norm of the factorization so far."""
    key = a.key()
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]
    primes = prime_divisors(a)
    rest = int(a.norm()) // math.prod(P.norm() for P in primes)
    factors = []
    for P in primes:
        j, power = 1, P.ideal()
        while rest % P.norm() == 0:
            power = power * P.ideal()
            if not power.contains_ideal(a):
                break
            j, rest = j + 1, rest // P.norm()
        factors.append((P, j))
    fac = IdealFactorization(tuple(factors))
    # reconstruction check is an invariant of the representation
    if fac.product(a.K) != a:
        raise AssertionError("factorization does not reconstruct the ideal")
    if len(_FACTOR_CACHE) >= FACTOR_CACHE_SIZE:
        del _FACTOR_CACHE[next(iter(_FACTOR_CACHE))]
    _FACTOR_CACHE[key] = fac
    return fac


def mobius(a: FractionalIdeal) -> int:
    """(-1)^r if the norms of the r primes of a multiply to N(a), else 0:
    a lies in their product, with equality iff a is squarefree."""
    primes = prime_divisors(a)
    if math.prod(P.norm() for P in primes) != a.norm():
        return 0
    return (-1) ** len(primes)


_NEGATE = bytes.maketrans(b"\1\377", b"\377\1")  # on mu as signed bytes


def mobius_sieve(K: NumberField, n):
    """mu((k)) over K for 0 <= k <= n (index 0 unused), by a sieve over
    the primes p <= n: (k) is squarefree iff k is and every p | k is
    unramified (its residue degrees sum to the degree), and then mu((k))
    is the product over p | k of (-1)^(primes above p).  It sieves mu as
    signed bytes, one slice operation per p; p > n / 2 has no other
    multiple up to n."""
    mu = bytearray([1]) * (n + 1)
    for p in itertools.compress(range(n + 1), prime_flags(max(n, 0))):
        degrees = residue_degrees(K, p)
        sign = (-1) ** len(degrees) if sum(degrees) == K.degree else 0
        if 2 * p > n:
            mu[p] = sign & 255
            continue
        if sign < 0:
            mu[p::p] = mu[p::p].translate(_NEGATE)
        elif not sign:
            mu[p::p] = bytes(n // p)
        mu[p * p::p * p] = bytes(n // (p * p))
    return memoryview(mu).cast("b").tolist()


def prime_norm_flags(K: NumberField, X: int):
    """A bytearray, 1 at the norms q <= X of prime ideals: every vetted
    field is Galois, so they are the p^f, f read off p mod the conductor
    m.  The classes with f = 1 are slices of the prime sieve, copied before
    the p^f (p <= X^(1/f)) of the others, which a slice would clear."""
    m, sieve, flags = K.conductor, prime_flags(X), bytearray(X + 1)
    for a, (f, *_) in sorted(K.splitting.items(), key=lambda e: e[1]):
        if f == 1:
            flags[a::m] = sieve[a::m]
        else:
            top = iroot(X, f) + 1
            for p in itertools.compress(range(a, top, m), sieve[a:top:m]):
                flags[p ** f] = 1
    return flags


def euler_phi(K: NumberField, W: int) -> int:
    """|(O_K/(W))^x| via the local product over primes dividing W."""
    if W < 1:
        raise ValueError("W must be >= 1")
    phi = 1
    for p, a in factorint(W).items():
        for P in primes_above(K, p):
            q = P.norm()
            v = P.e * a  # valuation of (W) at P
            phi *= q ** v - q ** (v - 1)
    return phi


def enumerate_prime_ideals(K: NumberField, X):
    """All prime ideals of norm <= X, sorted by (norm, p, generator)."""
    X = int(X)
    check_budget("norm bound", X, ENUMERATION_BUDGET)
    return sorted((P for p in primerange(2, X + 1) for P in primes_above(K, p)
                   if P.norm() <= X), key=PrimeIdeal.sort_key)


def count_ideals(K: NumberField, x) -> int:
    """#{integral ideals of norm <= x}: the coefficients A[m] of the Euler
    product zeta_K = prod_P (1 - N P^-s)^-1 up to x, summed.  Each factor
    with q = N P updates A[m] += A[m / q] in ascending m, which adds
    A[m / q^j] for every j."""
    X = int(math.floor(x))
    if X < 1:
        return 0
    check_budget("count_ideals bound", X, COUNT_BUDGET)
    A = [0] * (X + 1)
    A[1] = 1
    for p in primerange(2, X + 1):
        for f in residue_degrees(K, p):
            q = p ** f
            for m in range(q, X + 1, q):
                A[m] += A[m // q]
    return sum(A)


def zeta_residue(K: NumberField) -> float:
    """Residue of zeta_K at z = 1, from the class number formula: its
    record in numberfield.FIELDS."""
    return K.residue


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


def is_prime_element(b: FractionalIdeal, xi: FieldElement) -> bool:
    """True iff the integral ideal (xi) b^{-1} is prime, read off its norm;
    ValueError if xi is not in b, an O_K-ideal in canonical HNF."""
    v = b.numerators(xi)
    if v is None or b._coefficients(v) is None:
        raise ValueError("xi is not an element of the ambient ideal")
    return is_prime_norm(b.K, _quotient_norm(b, v))


def is_prime_norm(K: NumberField, N: int) -> bool:
    """Whether an integral ideal of norm N (0 for the zero ideal) is prime:
    every vetted field is Galois, so the primes above p share one residue
    degree f | n, and an ideal of norm p^a is prime iff a = f; nothing is
    factored, as N = r^f is tested with r the integer f-th root."""
    n = K.degree
    for f in range(1, n + 1):
        if n % f == 0:
            r = iroot(N, f)
            if r ** f == N and isprime(r) and residue_degrees(K, r)[0] == f:
                return True
    return False


def _quotient_norm(b: FractionalIdeal, v) -> int:
    """N((x) b^{-1}) = |det(multiplication-by-v matrix)| / det(H) for x =
    v / b.den in b and H the HNF of b, in integers (0 for x = 0)."""
    N, r = divmod(abs(det_int(b.K.mul_rows(v))),
                  math.prod(row[i] for i, row in enumerate(b.mat)))
    if r:
        raise ValueError("(x) b^{-1} is not integral; malformed ambient ideal")
    return N


def quotient_norms(b: FractionalIdeal, v, h, count: int):
    """_quotient_norm at (v + t h) / b.den in b for t = 0, ..., count - 1:
    the determinant is an integer polynomial of degree n in t, taken at
    min(count, n + 1) points and summed up from its forward differences."""
    L = min(count, b.K.degree + 1)
    d = [det_int(b.K.mul_rows([x + t * y for x, y in zip(v, h)]))
         for t in range(L)]
    for k in range(1, L):  # d[k:] becomes the k-th differences
        d[k:] = [y - x for x, y in zip(d[k - 1:], d[k:])]
    # the last difference is constant if L = n + 1, else read only once
    seq = itertools.repeat(d[-1], count - L + 1) if d else ()
    for x in reversed(d[:-1]):
        seq = itertools.accumulate(seq, initial=x)
    det = math.prod(row[i] for i, row in enumerate(b.mat))
    return map(det.__rfloordiv__, map(abs, seq))


@lru_cache(maxsize=2**12)
def residue_rows(P: PrimeIdeal, b: FractionalIdeal):
    """The F_p functionals of b / P b: reduced rows g with y in P b iff
    g . c = 0 mod p for every g, c the integer coordinates of y in b.  From
    P = (p, g(theta)), P b = p b + g(theta) b, whose image in b / p b =
    F_p^n the coordinates S of g(theta) e span, e the basis of b; the rows
    are the annihilator of S, one per coordinate j off the pivots of S's
    echelon form: 1 at j, 0 at the other such coordinates, and solved for
    the pivots from the last up (a pivot j solves to 0).  So the last
    coordinate is taken first and only the first row can involve it."""
    K, p, n = b.K, P.p, b.K.degree
    g = P.generator_element().num
    S = echelon_mod_p([b._coefficients(K.mul(g, h)) for h in b.mat], p,
                      range(n))[::-1]
    rows = []
    for j in reversed(range(n)):
        v = [int(i == j) for i in range(n)]
        for c, r in S:  # r . v = 0, r[c] = 1
            v[c] = -sum(map(operator.mul, r[c + 1:], v[c + 1:])) % p
        if v[j]:
            rows.append(tuple(v))
    return tuple(rows)


def primes_at(b: FractionalIdeal, c, N: int):
    """The distinct primes P of (y) b^{-1}, of norm N, y nonzero in b with
    coordinates c, in factor_ideal's order: over the primes p of N, the P
    above p with y in P b, by residue_rows (a lone P must divide)."""
    out = []
    for p in factorint(N):
        above = primes_above(b.K, p)
        out += [P for P in above
                if len(above) == 1
                or not any(sum(map(operator.mul, g, c)) % p
                           for g in residue_rows(P, b))]
    return tuple(out)


def primes_dividing(b: FractionalIdeal, y: FieldElement):
    """primes_at for y, a nonzero element of b; ValueError if y is not in
    b, as (y) b^{-1} is then not integral."""
    c = b.coefficients(y)
    if c is None:
        raise ValueError("factoring requires an integral ideal")
    return primes_at(b, c, _quotient_norm(b, b.numerators(y)))


class TruncatedClass(namedtuple("TruncatedClass",
                                "ambient modulus anchor radius members")):
    """{xi in ambient : xi = anchor (mod modulus), |xi - anchor|_Min < radius}"""
    __slots__ = ()

    @classmethod
    def build(cls, ambient, modulus, anchor, radius):
        if not ambient.contains_ideal(modulus):
            raise ValueError("modulus must be contained in the ambient ideal")
        if not ambient.contains(anchor):
            raise ValueError("anchor must lie in the ambient ideal")
        members = tuple(anchor + mu
                        for mu in iter_ball_elements(modulus, radius))
        return cls(ambient, modulus, anchor, radius, members)

    def verify(self) -> bool:
        for xi in self.members:
            if not self.ambient.contains(xi):
                return False
            if not self.modulus.contains(xi - self.anchor):
                return False
            if minkowski_norm(xi - self.anchor) >= self.radius:
                return False
        return True
