"""Fractional-ideal arithmetic in Hermite normal form.

Ideals are Z-lattices on the power basis: an n x n integer HNF matrix
(rows span an integral ideal) divided by a positive integer denominator.
The representation is canonical, so equality and hashing are structural.
Prime ideals come from Dedekind splitting of the defining polynomial,
which is valid index-free on the vetted field list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import BudgetExceededError, UnsupportedFieldError
from .linalg import common_denominator, hnf, mat_inv_fraction
from .numberfield import FieldElement, NumberField

_X = sympy.Symbol("x")


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
    def from_rows(cls, K, rows):
        """Lattice spanned by rows of rational power-basis coordinates.
        The caller is responsible for the lattice being an ideal."""
        d = common_denominator(rows)
        int_rows = [[int(Fraction(x) * d) for x in row] for row in rows]
        return cls(K, hnf(int_rows, K.degree), d)

    @classmethod
    def unit_ideal(cls, K):
        n = K.degree
        return cls(K, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def from_generators(cls, K, gens):
        """O_K-module generated by the given field elements."""
        gens = [g if isinstance(g, FieldElement) else K.element(g) for g in gens]
        rows = []
        for g in gens:
            for j in range(K.degree):
                rows.append((g * K.theta_power(j)).coords)
        return cls.from_rows(K, rows)

    @classmethod
    def principal(cls, K, x):
        x = x if isinstance(x, FieldElement) else K.element(x)
        if not x:
            raise ValueError("zero element generates the zero ideal")
        return cls.from_generators(K, [x])

    # -- basic structure ----------------------------------------------

    def basis_elements(self):
        """Z-basis of the ideal as field elements (HNF rows / den)."""
        if self._basis is None:
            d = self.den
            self._basis = tuple(
                self.K.element([Fraction(x, d) for x in row]) for row in self.mat)
        return self._basis

    def norm(self) -> Fraction:
        det = 1
        for i in range(self.K.degree):
            det *= self.mat[i][i]
        return Fraction(abs(det), self.den ** self.K.degree)

    def is_integral(self) -> bool:
        return self.den == 1

    def contains(self, x: FieldElement) -> bool:
        """Exact lattice membership by triangular back-substitution."""
        n = self.K.degree
        t = [Fraction(c) * self.den for c in x.coords]
        y = [Fraction(0)] * n
        for col in range(n):
            acc = sum(y[r] * self.mat[r][col] for r in range(col))
            rem = t[col] - acc
            q = rem / self.mat[col][col]
            if q.denominator != 1:
                return False
            y[col] = q
        return True

    def contains_ideal(self, other) -> bool:
        return all(self.contains(b) for b in other.basis_elements())

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, FractionalIdeal):
            raise TypeError
        rows = []
        for a in self.basis_elements():
            for b in other.basis_elements():
                rows.append((a * b).coords)
        return FractionalIdeal.from_rows(self.K, rows)

    def __add__(self, other):
        rows = [b.coords for b in self.basis_elements()]
        rows += [b.coords for b in other.basis_elements()]
        return FractionalIdeal.from_rows(self.K, rows)

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
        K = self.K
        n = K.degree
        basis = self.basis_elements()
        # x is in the inverse iff x * b_i is integral for every basis
        # element, i.e. x . col is an integer for each column of every
        # multiplication matrix M_{b_i} (row r of M = coords of theta^r b).
        cols = []
        for b in basis:
            M = [(b * K.theta_power(r)).coords for r in range(n)]
            for j in range(n):
                cols.append([Fraction(M[r][j]) for r in range(n)])
        D = common_denominator(cols)
        int_cols = [[int(c * D) for c in col] for col in cols]
        B = hnf(int_cols, n)  # row basis of the column lattice
        Binv = mat_inv_fraction(B)
        # dual rows = columns of B^{-1}; solution lattice = D * dual
        rows = [[D * Binv[r][c] for r in range(n)] for c in range(n)]
        inv = FractionalIdeal.from_rows(K, rows)
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
        return cls(K, tuple(tuple(int(x) for x in r) for r in obj["hnf"]),
                   int(obj["den"]))

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


@lru_cache(maxsize=None)
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

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


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


@lru_cache(maxsize=None)
def factor_rational_prime(K: NumberField, p: int):
    """Dedekind splitting of (p): factor f mod p into monic irreducibles."""
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    n = K.degree
    if n == 1:
        return (PrimeIdeal(K, p, (0, 1), 1, 1),)
    if n == 2 and p > 2:
        primes = _factor_prime_quadratic(K, p)
    else:
        primes = _factor_prime_generic(K, p)
    assert sum(P.e * P.f for P in primes) == n
    return tuple(sorted(primes, key=lambda P: P.sort_key()))


def _factor_prime_quadratic(K, p):
    c0, c1, _ = K.poly  # x^2 + c1 x + c0
    disc = c1 * c1 - 4 * c0
    chi = _kronecker(disc, p)
    if chi == 1:
        r = int(sympy.ntheory.sqrt_mod(disc % p, p))
        inv2 = pow(2, p - 2, p)
        roots = sorted({((-c1 + r) * inv2) % p, ((-c1 - r) * inv2) % p})
        return [PrimeIdeal(K, p, ((-r0) % p, 1), 1, 1) for r0 in roots]
    if chi == -1:
        return [PrimeIdeal(K, p, (c0 % p, c1 % p, 1), 1, 2)]
    # ramified: double root -c1/2 mod p
    r0 = (-c1 * pow(2, p - 2, p)) % p
    return [PrimeIdeal(K, p, ((-r0) % p, 1), 2, 1)]


def _factor_prime_generic(K, p):
    expr = sum(c * _X**i for i, c in enumerate(K.poly))
    _, facs = sympy.Poly(expr, _X, modulus=p).factor_list()
    primes = []
    for g, e in facs:
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        primes.append(PrimeIdeal(K, p, tuple(coeffs), int(e), g.degree()))
    return primes


def residue_degrees(K: NumberField, p: int):
    """Residue degrees of the primes above p (one entry per prime ideal);
    fast path for quadratic fields via the Kronecker symbol."""
    n = K.degree
    if n == 1:
        return [1]
    if n == 2:
        chi = _kronecker(K.discriminant, p)
        return [1, 1] if chi == 1 else ([2] if chi == -1 else [1])
    return [P.f for P in factor_rational_prime(K, p)]


# ---------------------------------------------------------------------
# Norm, factorization, Moebius

_FACTOR_CACHE = {}


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
        for p in sorted(sympy.factorint(N)):
            for P in factor_rational_prime(a.K, p):
                v = valuation(a, P)
                if v:
                    factors.append((P, v))
    fac = IdealFactorization(tuple(factors))
    # reconstruction check is an invariant of the representation
    if fac.product(a.K) != a:
        raise AssertionError("factorization does not reconstruct the ideal")
    _FACTOR_CACHE[key] = fac
    return fac


def mobius(a: FractionalIdeal) -> int:
    fac = factor_ideal(a)
    if not fac.is_squarefree():
        return 0
    return (-1) ** len(fac.factors)


def euler_phi(K: NumberField, W: int) -> int:
    """|(O_K/(W))^x| via the local product over primes dividing W."""
    if W < 1:
        raise ValueError("W must be >= 1")
    if W == 1:
        return 1
    phi = 1
    for p, a in sympy.factorint(W).items():
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
    for p in sympy.primerange(2, X + 1):
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
    for p in sympy.primerange(2, X + 1):
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

# Minkowski-style generator bound constants |sigma(xi)| <= c_K N(xi)^(1/n),
# valid for fields with finite unit group; exhaustively validated in tests.
GENERATOR_BOUNDS = {
    "Q": 1.0,
    "Q(i)": math.sqrt(2.0),
    "Q(sqrt-2)": 1.0 + 1e-9,
    "Q(sqrt-3)": 1.0 + 1e-9,
    "Q(sqrt-5)": 1.0 + 1e-9,
}


def has_finite_unit_group(K: NumberField) -> bool:
    return K.r1 + K.r2 - 1 == 0


def _generator_radius(c: FractionalIdeal, margin: float = 1e-6) -> float:
    """sqrt(n) * c_K * N(c)^(1/n), widened by margin: the Minkowski radius
    within which a principal ideal c has a generator."""
    n = c.K.degree
    t = float(c.norm()) ** (1.0 / n)
    return math.sqrt(n) * GENERATOR_BOUNDS[c.K.name] * t * (1 + margin) + 1e-9


def principal_generator(c: FractionalIdeal, margin: float = 1e-6):
    """A canonical generator of a principal fractional ideal, or None.

    Searches the Minkowski ball of radius sqrt(n) * c_K * N(c)^(1/n); the
    bounded-generator constant makes the search complete for fields with a
    finite unit group.  Canonical choice: lexicographically smallest
    coordinate tuple among valid generators.
    """
    K = c.K
    if K.name not in GENERATOR_BOUNDS:
        raise UnsupportedFieldError(
            f"bounded generator search unsupported for {K.name}")
    from .lattice import ball_elements  # local import to avoid a cycle

    Nc = c.norm()
    best = None
    for xi in ball_elements(K, c, _generator_radius(c, margin)):
        if not xi:
            continue
        if abs(xi.norm()) != Nc:
            continue
        if FractionalIdeal.principal(K, xi) == c:
            key = tuple(xi.coords)
            if best is None or key < best[0]:
                best = (key, xi)
    return None if best is None else best[1]


def class_equivalent(a: FractionalIdeal, b: FractionalIdeal,
                     m: FractionalIdeal):
    """Is b = (xi) a for some nonzero xi in 1 + m a^{-1}?  Returns
    (bool, witness)."""
    K = a.K
    if not has_finite_unit_group(K):
        raise UnsupportedFieldError(
            f"class equivalence requires a finite unit group; {K.name} has rank "
            f"{K.r1 + K.r2 - 1}")
    c = b * a.inverse()
    cong = m * a.inverse()
    Nc = c.norm()
    from .lattice import ball_elements

    for xi in ball_elements(K, c, _generator_radius(c)):
        if not xi:
            continue
        if abs(xi.norm()) != Nc:
            continue
        if FractionalIdeal.principal(K, xi) != c:
            continue
        if cong.contains(xi - K.one):
            return True, xi
    return False, None


def is_prime_element(K: NumberField, b: FractionalIdeal, xi: FieldElement) -> bool:
    """True iff the integral ideal (xi) b^{-1} is prime."""
    if not b.contains(xi):
        raise ValueError("xi is not an element of the ambient ideal")
    if not xi:
        return False
    c = FractionalIdeal.principal(K, xi) * b.inverse()
    if not c.is_integral():
        raise ValueError("(xi) b^{-1} is not integral; malformed ambient ideal")
    N = int(c.norm())
    if N <= 1:
        return False
    # N must be a prime power p^f with c equal to a single Dedekind prime
    p = None
    for q in (sympy.primefactors(N) if N < 2**40 else sorted(sympy.factorint(N))):
        p = q
        break
    f = 0
    M = N
    while M % p == 0:
        M //= p
        f += 1
    if M != 1:
        return False
    for P in factor_rational_prime(K, p):
        if P.f == f and P.ideal() == c:
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
