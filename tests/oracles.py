"""Fraction routes that the integer element and ideal arithmetic
replaced, kept as test oracles.

- `coords_add`, `coords_neg`, `coords_scale`, `coords_mul`, `coords_norm`,
  `coords_minkowski_norm`: element arithmetic on tuples of Fraction
  coordinates, the product reduced modulo f by polynomial long division
  and the norm a Fraction determinant (`det_fraction`); FieldElement now
  keeps integer numerators over one denominator.
- `gauss_jordan_coords`: coordinates on an ideal's Z-basis through the
  Gauss-Jordan inverse of its basis matrix.
- `from_rows`: the ideal spanned by rational rows, over their common
  denominator.
- `mul_oracle`, `add_oracle`, `inverse_oracle`: product, sum and inverse
  from the basis elements, multiplied as field elements and rebuilt by
  `from_rows`.
- `principal_generator_oracle`, `class_equivalent_oracle`: the bounded
  generator search that the reduced binary form replaced, a Minkowski
  ball of radius sqrt(n) c_K N(c)^(1/n) searched for points of norm N(c).
- `lambda_oracle`, `nu_weight_oracle`, `alpha_scan_oracle`: the sieve
  weight by the full subset sum over every prime that factor_ideal finds,
  with nu's argument built as the ideal (W x + alpha) b^{-1}; the sieve
  now reads the primes below R off the norm instead.
- `singular_series_euler`: the direct tuple sum of the singular series
  with Euler weights N d^{-(1+i t_j)/log R}, whose truncated Euler
  product F_euler must reproduce.
"""

import itertools
import math
from fractions import Fraction

from idealsieve.correlation import omega_tuple, squarefree_ideals
from idealsieve.ideals import (FractionalIdeal, enumerate_prime_ideals,
                               factor_ideal, principal_generator)
from idealsieve.lattice import ball_elements, fundamental_domain_reduce
from idealsieve.linalg import hnf, mat_inv_fraction


def coords_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def coords_neg(a):
    return tuple(-x for x in a)


def coords_scale(q, a):
    return tuple(Fraction(q) * x for x in a)


def coords_mul(K, a, b):
    """The polynomial product of a and b, reduced modulo the monic f by
    theta^m = -sum_{i < n} f_i theta^(m - n + i), highest m first."""
    n = K.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for m in range(2 * n - 2, n - 1, -1):
        c, prod[m] = prod[m], Fraction(0)
        for i, f in enumerate(K.poly[:-1]):
            prod[m - n + i] -= c * f
    return tuple(prod[:n])


def det_fraction(mat):
    """Determinant of a square matrix of Fractions/ints by Gaussian
    elimination over Q."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def coords_norm(K, a):
    """N(a): the determinant of the rows a theta^j."""
    n = K.degree
    return det_fraction([coords_mul(K, a, [int(i == j) for i in range(n)])
                         for j in range(n)])


def coords_minkowski_norm(K, a):
    """sqrt(a^T G a), the exact rational rounded once to a float."""
    q = sum(x * g * y for x, row in zip(a, K.gram) for g, y in zip(row, a))
    return math.sqrt(Fraction(q))


def gauss_jordan_coords(ideal, x):
    rows = [[Fraction(h, ideal.den) for h in row] for row in ideal.mat]
    inv = mat_inv_fraction(rows)
    n = ideal.K.degree
    return [sum(x.coords[c] * inv[c][r] for c in range(n)) for r in range(n)]


def _common_denominator(rows):
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))


def from_rows(K, rows):
    d = _common_denominator(rows)
    int_rows = [[int(Fraction(x) * d) for x in row] for row in rows]
    return FractionalIdeal(K, hnf(int_rows, K.degree), d)


def mul_oracle(a, b):
    return from_rows(a.K, [(x * y).coords for x in a.basis_elements()
                           for y in b.basis_elements()])


def add_oracle(a, b):
    return from_rows(a.K, [x.coords for x in a.basis_elements()
                           + b.basis_elements()])


def inverse_oracle(a):
    """x is in the inverse iff x . col is an integer for each column of
    every multiplication matrix M_b (row r of M_b = coords of theta^r b)."""
    K = a.K
    n = K.degree
    cols = []
    for b in a.basis_elements():
        M = [(b * K.theta_power(r)).coords for r in range(n)]
        cols += [[M[r][j] for r in range(n)] for j in range(n)]
    D = _common_denominator(cols)
    B = hnf([[int(c * D) for c in col] for col in cols], n)
    Binv = mat_inv_fraction(B)
    # dual rows = columns of B^-1; solution lattice = D * dual
    return from_rows(K, [[D * Binv[r][c] for r in range(n)]
                         for c in range(n)])


# Minkowski-style generator bound constants |sigma(xi)| <= c_K N(xi)^(1/n)
# for the fields with a finite unit group.
GENERATOR_BOUNDS = {
    "Q": 1.0,
    "Q(i)": math.sqrt(2.0),
    "Q(sqrt-2)": 1.0 + 1e-9,
    "Q(sqrt-3)": 1.0 + 1e-9,
    "Q(sqrt-5)": 1.0 + 1e-9,
}


def _ball_generators(c):
    """The points xi of c with |N(xi)| = N(c) in the ball of radius
    sqrt(n) c_K N(c)^(1/n), widened by a relative 1e-6, in coordinate
    order."""
    K = c.K
    n = K.degree
    t = float(c.norm()) ** (1.0 / n)
    radius = math.sqrt(n) * GENERATOR_BOUNDS[K.name] * t * (1 + 1e-6) + 1e-9
    Nc = c.norm()
    return [xi for xi in ball_elements(K, c, radius) if abs(xi.norm()) == Nc]


def principal_generator_oracle(c):
    """The lexicographically smallest coordinate tuple among the
    generators in the ball, or None."""
    gens = _ball_generators(c)
    return min(gens, key=lambda xi: xi.coords) if gens else None


def class_equivalent_oracle(a, b, m):
    """The first generator of b a^{-1} in ball order with xi - 1 in
    m a^{-1}."""
    cong = m * a.inverse()
    for xi in _ball_generators(b * a.inverse()):
        if cong.contains(xi - a.K.one):
            return True, xi
    return False, None


def lambda_oracle(n, R, phi):
    """sum over every subset S of the distinct primes of n of
    (-1)^|S| phi(log N(prod S) / log R), large primes included."""
    if R <= 1:
        raise ValueError("R must exceed 1")
    primes = [P for P, _ in factor_ideal(n).factors]
    logR = math.log(R)
    terms = []
    for mask in itertools.product((0, 1), repeat=len(primes)):
        logNd = sum(m * math.log(P.norm()) for m, P in zip(mask, primes))
        terms.append((-1) ** sum(mask) * phi(logNd / logR))
    return math.fsum(terms)


def nu_weight_oracle(cfg, x):
    """prefactor * lambda_oracle((W x + alpha) b^{-1})^2."""
    K = cfg.K
    y = K.element(cfg.W) * x + cfg.alpha
    if not y:
        return 0.0
    c = FractionalIdeal.principal(K, y) * cfg.ambient.inverse()
    if not c.is_integral():
        raise ValueError("W x + alpha does not lie in the ambient ideal")
    lam = lambda_oracle(c, cfg.R, cfg.phi)
    v = lam * lam
    if not cfg.raw:
        v *= cfg.prefactor()
    return v


def alpha_scan_oracle(cfg, window):
    """alpha_scan's masses and total, each prime's Lambda from
    lambda_oracle(P)."""
    K = cfg.K
    lo, hi = window
    masses, total = {}, Fraction(0)
    for P in enumerate_prime_ideals(K, hi):
        if P.norm() < lo or math.gcd(P.norm(), cfg.W) != 1:
            continue
        xi = principal_generator(P.ideal() * cfg.ambient)
        if xi is None:
            continue
        alpha, _ = fundamental_domain_reduce(K, cfg.ambient, xi, cfg.W)
        mass = Fraction(lambda_oracle(P.ideal(), cfg.R, cfg.phi)) ** 2
        key = tuple(str(c) for c in alpha.coords)
        masses[key] = masses.get(key, Fraction(0)) + mass
        total += mass
    return masses, total


def singular_series_euler(forms, R, W, prime_support, t, tprime,
                          budget=10**8):
    """The double sum over squarefree ideal s-tuples d, d' built from
    prime_support of omega((d_j cap d'_j)_j) prod_j mu(d_j) mu(d'_j)
    N d_j^{-(1+i t_j)/log R} N d'_j^{-(1+i t'_j)/log R}, at alpha = 1."""
    K, s = forms.K, forms.s
    logR = math.log(R)
    pairs = squarefree_ideals(K, R, W, prime_support=prime_support,
                              budget=budget)
    total = []
    for dd in itertools.product(pairs, repeat=s):
        for dp in itertools.product(pairs, repeat=s):
            term = 1.0 + 0.0j
            union = {}
            for j, ((Sd, nd), (Sp, np_)) in enumerate(zip(dd, dp)):
                term *= (-1) ** (len(Sd) + len(Sp)) \
                    * nd ** complex(-1 / logR, -t[j] / logR) \
                    * np_ ** complex(-1 / logR, -tprime[j] / logR)
                for P in Sd | Sp:
                    union.setdefault(P, [False] * s)[j] = True
            om = omega_tuple(forms, sorted(union.items(),
                                           key=lambda kv: kv[0].sort_key()),
                             W, K.one)
            total.append(term * float(om))
    return complex(math.fsum(x.real for x in total),
                   math.fsum(x.imag for x in total))
