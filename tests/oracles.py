"""Fraction routes that the integer element and ideal arithmetic
replaced, kept as test oracles.

- `coords_add`, `coords_neg`, `coords_scale`, `coords_mul`, `coords_norm`,
  `coords_minkowski_norm`: element arithmetic on tuples of Fraction
  coordinates, the product reduced modulo f by polynomial long division
  and the norm a Fraction determinant (`det_fraction`); FieldElement now
  keeps integer numerators over one denominator.
- `mat_inv_fraction`: the Gauss-Jordan inverse in Fractions; the
  library uses the integer adjugate and determinant instead.
- `gauss_jordan_coords`: coordinates on an ideal's Z-basis through the
  Gauss-Jordan inverse of its basis matrix.
- `parallelotope_oracle`: points_in_parallelotope with every candidate
  built as a field element and tested against the Fraction inverse of
  the edge matrix, then sorted by coordinates.
- `from_rows`: the ideal spanned by rational rows, over their common
  denominator.
- `mul_oracle`, `add_oracle`, `inverse_oracle`: product, sum and inverse
  from the basis elements, multiplied as field elements and rebuilt by
  `from_rows`.
- `principal_generator_oracle`, `class_equivalent_oracle`: the bounded
  generator search that the reduced binary form replaced, a Minkowski
  ball of radius sqrt(n) c_K N(c)^(1/n) searched for points of norm N(c).
- `lambda_oracle`, `nu_weight_oracle`: the sieve weight by the full
  subset sum over every prime that factor_ideal finds, with nu's argument
  built as the ideal (W x + alpha) b^{-1}; the sieve now reads the primes
  below R off the norm instead.
- `auto_correlation_oracle`: auto_correlation_check as a loop over the
  points of points_in_parallelotope, each term a product of nu_weight
  calls; auto_correlation_check now sieves nu along the rows of the
  region (sieve.region_nu_rows) and factors no point.
- `alpha_scan_oracle`: the alpha-scan as a loop over the prime ideals of
  the window, each P b built in HNF, its generator found by
  principal_generator and reduced by fundamental_domain_reduce, and
  Lambda from lambda_oracle, the masses summed as Fractions; alpha_scan
  now reads the generators off one ball of b, the points whose quotient
  norm is set in one prime_norm_flags, least in their unit orbit, and
  sums the masses as integers over one power of two.
- `_pair_sum_ideals`: the degree >= 2 pair sum over the list of
  squarefree ideals, one list of terms per divisor e, each summed by
  math.fsum; _pair_sum_norms now sums over norms, by slice passes in
  exact integers.
- `squarefree_ideals_oracle`: the squarefree ideal list built by letting
  each prime extend every ideal listed so far; squarefree_ideals extends
  each listed ideal only by the later primes in norm order, up to the
  first that takes its norm to R.
- `count_ideals_oracle`: the ideal count by a numpy convolution of the
  per-p table of the ways to write e as a sum of a_i f_i over the primes
  above p; count_ideals now runs the Euler product in plain ints.
- `factor_ideal_oracle`: each exponent found by multiplying by P^-1
  until the quotient is not integral (the valuation loop); factor_ideal
  now tests a in P^j and inverts nothing.
- `search_oracle`: search_constellation as a loop over every (step,
  anchor) pair, each candidate a + xi j tested by is_prime_element once
  per search (memoized); the search now reads a prime table of the whole
  ball through bitset shifts.
- `certificate_oracle`: a hit's certificate built from field elements,
  with Fraction coordinate strings, its ambient JSON and radius derived
  for that hit, and each witness found by membership in the lattice P b;
  make_certificate writes the strings from integer coordinates and reads
  each witness off residue_rows, and the search derives the head once per
  search, the radius once per step, and each distinct point's strings and
  witness once per search.
- `verify_certificate_oracle`: verify_certificate on the Fraction route:
  each coordinate string a Fraction through K.element, each pattern point
  a FieldElement product a + xi j, the congruence tested in the principal
  ideal (xi) built in HNF, and two quotient norms per point, one for its
  primality and one for its witness; verify_certificate now reads the
  strings into integer numerators, takes xi j from xi's multiplication
  rows, tests the congruence with their adjugate and reads primality and
  witness off one quotient norm.
- `singular_series_euler`: the direct tuple sum of the singular series
  with Euler weights N d^{-(1+i t_j)/log R}, whose truncated Euler
  product F_euler must reproduce.
- `residue_degrees_oracle`: the splitting rule that the per-field class
  table replaced: the Kronecker symbol of the discriminant in the
  quadratic fields, the order of p mod 5 in Q(zeta5).
- `prime_norm_flags_oracle`: the prime-norm sieve one prime at a time,
  p^f set for each p <= X; prime_norm_flags now copies the sieve by one
  slice per class mod the conductor with f = 1.
- `residue_rows_oracle`: the F_p functionals of b / P b through the
  lattice P b: P's HNF ideal times b, the coordinates there of p e for
  each basis element e of b, whose columns are reduced mod p, the last
  coordinate pivoted first; residue_rows now reads them off the
  two-element form P = (p, g(theta)) and builds no ideal.
- `minor_norm_oracle`: LinearFormSystem.minor_norm as the norm of the
  ideal generated by every s x s minor, each a Laplace expansion over K
  (`det_elements`); minor_norm now reads the product of the HNF pivots
  of the forms' image lattice in Z^(s n).
- `full_rank_off_oracle`: the singular series' fast-path rule as omega of
  s marks compared with N P^-s at every P above each prime of the minor
  norm off W; the rule now reads the minor norm alone, as that
  comparison fails at every such prime.
"""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from idealsieve.arith import factorint, jacobi, prime_flags, primerange
from idealsieve.constellation import _COORD, Certificate
from idealsieve.correlation import (CorrelationReport, local_factor_omega,
                                    omega_tuple, squarefree_ideals,
                                    tau_factor)
from idealsieve.ideals import (FractionalIdeal, enumerate_prime_ideals,
                               factor_ideal, factor_rational_prime,
                               is_prime_element, primes_above,
                               primes_dividing, principal_generator,
                               residue_degrees)
from idealsieve.errors import NU_POINT_BUDGET, BudgetExceededError
from idealsieve.lattice import (ball_elements, fundamental_domain_reduce,
                                iter_ball_elements, points_in_parallelotope)
from idealsieve.linalg import echelon_mod_p, hnf
from idealsieve.numberfield import FieldElement, field_by_name, minkowski_norm
from idealsieve.sieve import nu_weight


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


def mat_inv_fraction(mat):
    """Inverse of a square matrix of Fractions/ints via Gauss-Jordan."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def parallelotope_oracle(ideal, box, budget=10**7):
    K = ideal.K
    n = K.degree
    E = [u.coords for u in box.edges]
    Einv = mat_inv_fraction(E)
    o = box.origin.coords
    corners = []
    for mask in itertools.product((0, 1), repeat=n):
        pt = [o[j] + sum(mask[i] * E[i][j] for i in range(n))
              for j in range(n)]
        corners.append(gauss_jordan_coords(ideal, K.element(pt)))
    los = [min(math.floor(c[i]) for c in corners) for i in range(n)]
    his = [max(math.ceil(c[i]) for c in corners) for i in range(n)]
    total = 1
    for lo, hi in zip(los, his):
        total *= hi - lo + 1
        if total > budget:
            raise BudgetExceededError(
                f"parallelotope box has {total}+ candidates (budget {budget})")
    out = []
    for coeffs in itertools.product(*(range(lo, hi + 1)
                                      for lo, hi in zip(los, his))):
        x = ideal.element_at(coeffs)
        d = [c - oj for c, oj in zip(x.coords, o)]
        t = [sum(d[c] * Einv[c][r] for c in range(n)) for r in range(n)]
        if all(0 <= ti < 1 for ti in t):
            out.append(x)
    out.sort(key=lambda x: x.coords)
    return out


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


def auto_correlation_oracle(y, region, cfg):
    """auto_correlation_check as a loop over points_in_parallelotope, each
    term a product of nu_weight calls."""
    y = list(y)
    s = len(y)
    for i in range(s):
        for j in range(i + 1, s):
            if not (y[i] - y[j]):
                raise ValueError("coincident coordinates in y")
    pts = points_in_parallelotope(cfg.ambient, region.scaled(cfg.N),
                                  NU_POINT_BUDGET)
    if not pts:
        raise ValueError("empty region")

    def term(x):
        prod = 1.0
        for yi in y:
            prod *= nu_weight(cfg, x + yi)
        return prod

    emp = math.fsum(map(term, pts)) / len(pts)
    bound = 2.0 ** cfg.s
    for i in range(s):
        for j in range(i + 1, s):
            bound *= tau_factor(cfg, y[i] - y[j])
    return CorrelationReport("auto_correlation", emp, bound, len(pts),
                             dict(cfg.params_echo(), s_tuple=s))


def residue_degrees_oracle(K, p):
    """The residue degrees of the primes above the prime p: over a
    quadratic field by the Kronecker symbol (d_K|p), the Jacobi symbol for
    odd p; in Q(zeta5) by p mod 5."""
    n = K.degree
    if n == 1:
        return [1]
    if n == 2:
        d = K.discriminant
        k = {1: 1, 3: -1, 5: -1, 7: 1}.get(d % 8, 0) if p == 2 \
            else jacobi(d, p)
        return {1: [1, 1], -1: [2]}.get(k, [1])
    return {0: [1], 1: [1, 1, 1, 1], 4: [2, 2]}.get(p % 5, [4])


def prime_norm_flags_oracle(K, X):
    """prime_norm_flags prime by prime: q = p^f set for every p <= X with
    q <= X, f from residue_degrees_oracle."""
    flags = bytearray(X + 1)
    for p in itertools.compress(range(X + 1), prime_flags(X)):
        q = p ** residue_degrees_oracle(K, p)[0]
        if q <= X:
            flags[q] = 1
    return flags


def alpha_scan_oracle(cfg, window):
    """alpha_scan's masses, total and count, prime by prime: P b built as
    an ideal, its canonical generator from principal_generator, reduced by
    fundamental_domain_reduce, and Lambda from lambda_oracle(P)."""
    K = cfg.K
    lo, hi = window
    masses, total, count = {}, Fraction(0), 0
    for P in enumerate_prime_ideals(K, hi):
        if P.norm() < lo or math.gcd(P.norm(), cfg.W) != 1:
            continue
        xi = principal_generator(P.ideal() * cfg.ambient)
        if xi is None:
            continue
        alpha, _ = fundamental_domain_reduce(cfg.ambient, xi, cfg.W)
        mass = Fraction(lambda_oracle(P.ideal(), cfg.R, cfg.phi)) ** 2
        key = tuple(str(c) for c in alpha.coords)
        masses[key] = masses.get(key, Fraction(0)) + mass
        total += mass
        count += 1
    return masses, total, count


def singular_series_euler(forms, R, W, prime_support, t, tprime):
    """The double sum over squarefree ideal s-tuples d, d' built from
    prime_support of omega((d_j cap d'_j)_j) prod_j mu(d_j) mu(d'_j)
    N d_j^{-(1+i t_j)/log R} N d'_j^{-(1+i t'_j)/log R}, at alpha = 1."""
    K, s = forms.K, forms.s
    logR = math.log(R)
    pairs = squarefree_ideals(K, R, W, prime_support=prime_support)
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


def _pair_sum_ideals(pairs, logR, phi):
    """The pair sum of _pair_sum_norms over the squarefree ideals d in
    pairs, by the same diagonalisation with N d in place of d and phi_K(e)
    = prod_{P | e} (N P - 1) in place of phi(e): every subset e of every d
    in pairs gathers c_d in its own list (each such e is in pairs too)."""
    inner = {}
    for S, n in pairs:
        c = (-1) ** len(S) * phi(math.log(n) / logR) / n
        for r in range(len(S) + 1):
            for e in itertools.combinations(S, r):
                inner.setdefault(frozenset(e), []).append(c)
    return math.fsum(math.prod(P.norm() - 1 for P in e) * math.fsum(cs) ** 2
                     for e, cs in inner.items())


def squarefree_ideals_oracle(K, R, W, prime_support=None, budget=10**6):
    """squarefree_ideals by rescanning: each prime, in the given order,
    extends every ideal listed so far."""
    if prime_support is None:
        primes = [P for P in enumerate_prime_ideals(K, int(math.ceil(R)))
                  if W % P.p != 0 and P.norm() < R]
    else:
        primes = [P for P in prime_support if W % P.p != 0 and P.norm() < R]
    out = [(frozenset(), 1)]
    for P in primes:
        q = P.norm()
        new = []
        for S, n in out:
            if n * q < R:
                new.append((S | {P}, n * q))
        out.extend(new)
        if len(out) > budget:
            raise BudgetExceededError("squarefree ideal list exceeds budget")
    out.sort(key=lambda t: (t[1], tuple(sorted(P.sort_key() for P in t[0]))))
    return out


def count_ideals_oracle(K, x):
    """#{integral ideals of norm <= x}: the number c[e] of ideals of norm
    p^e composed over the primes above p, then A[m p^e] += c[e] A[m] for
    the m prime to p, as int64 numpy arrays."""
    X = int(math.floor(x))
    if X < 1:
        return 0
    A = np.zeros(X + 1, dtype=np.int64)
    A[1] = 1
    for p in primerange(2, X + 1):
        emax = int(math.log(X) / math.log(p)) + 1
        # ways to write e as a sum over primes above p of a_i * f_i
        c = [1] + [0] * emax
        for f in residue_degrees(K, p):
            nc = c[:]
            for e in range(f, emax + 1):
                nc[e] += sum(c[e - a * f] for a in range(1, e // f + 1))
            c = nc
        for e in range(1, emax + 1):
            pe = p ** e
            if pe > X or c[e] == 0:
                continue
            idx = np.arange(1, X // pe + 1)
            if p <= X // pe:
                idx = idx[idx % p != 0]
            A[idx * pe] += c[e] * A[idx]
    return int(A[1:].sum())


def factor_ideal_oracle(a):
    """The factors ((P, v), ...) of a nonzero integral ideal, over the
    rational primes of its norm in factor_rational_prime's order, with
    v = v_P(a) counted by dividing by P until the quotient is not
    integral."""
    factors = []
    N = int(a.norm())
    for p in factorint(N):
        for P in factor_rational_prime(a.K, p):
            v, cur, Pinv = 0, a, P.ideal().inverse()
            while (cur := cur * Pinv).is_integral():
                v += 1
            if v:
                factors.append((P, v))
    return tuple(factors)


def residue_rows_oracle(P, b):
    """residue_rows(P, b) from the lattice P b: with M_e the coordinates of
    p e in P b, y is in P b iff sum_e c_e M_e / p is integral, so the rows
    are the columns of M reduced mod p."""
    Pb = P.ideal() * b
    M = [Pb.coefficients(e * P.p) for e in b.basis_elements()]
    return tuple(tuple(g) for _, g in echelon_mod_p(
        zip(*M), P.p, reversed(range(b.K.degree))))


def certificate_oracle(spec, a, xi, pattern):
    """make_certificate's certificate of one hit by field elements: the
    points a + xi j, each coordinate written as str of its Fraction, the
    radius derived for that hit alone, and each witness the P above a prime
    of the point's quotient norm with the point in the lattice P b (the
    route that residue_rows replaced)."""
    b = spec.ambient
    pts = [a + xi * j for j in pattern]
    radius = max(minkowski_norm(xi * j) for j in pattern) + 1e-9

    def coords(x):
        return [str(c) for c in x.coords]

    def witness(y):
        N = int(abs(y.norm()) / b.norm())
        return next(P for p in factorint(N)
                    for P in factor_rational_prime(b.K, p)
                    if (P.ideal() * b).contains(y)).to_json()

    return Certificate(spec.K.name, b.to_json(), spec.k, coords(a),
                       coords(xi), [coords(p) for p in pts], radius,
                       [witness(p) for p in pts])


def search_oracle(spec):
    """search_constellation by the pair loop: for each step in norm order
    and each anchor in norm order, the hit if every a + xi j is prime."""
    K, b = spec.K, spec.ambient
    pattern = spec.pattern()
    steps = [x for x in ball_elements(K, b, spec.step_bound * (1 + 1e-12))
             if x]
    anchors = ball_elements(K, b, spec.anchor_bound * (1 + 1e-12))
    # stable sorts of lists in coordinate order: ties keep that order
    steps.sort(key=minkowski_norm)
    anchors.sort(key=minkowski_norm)
    anchor_nums = [b.numerators(a) for a in anchors]
    pattern_nums = [j.num for j in pattern]  # O_K: den 1
    hits = []
    prime = {}  # candidate numerators -> is_prime_element

    def is_prime(v):
        if v not in prime:
            prime[v] = is_prime_element(b, FieldElement(K, v, b.den))
        return prime[v]

    for xi in steps:
        xi_num = b.numerators(xi)
        offsets = [K.mul(xi_num, j) for j in pattern_nums]
        for a, a_num in zip(anchors, anchor_nums):
            if all(is_prime(tuple(map(operator.add, a_num, off)))
                   for off in offsets):
                hits.append(certificate_oracle(spec, a, xi, pattern))
                if spec.max_hits and len(hits) >= spec.max_hits:
                    return hits
    return hits


def _coords_in_oracle(K, coords):
    """A list of coordinate strings of the form _coords_out writes, as a
    field element through Fractions; ValueError for anything else."""
    if not (isinstance(coords, list)
            and all(isinstance(c, str) and _COORD.fullmatch(c)
                    for c in coords)):
        raise ValueError("coordinates are integer or fraction strings")
    return K.element(coords)


def verify_certificate_oracle(cert):
    """verify_certificate on field elements: the same (ok, diagnoses)."""
    diagnoses = []
    try:
        K = field_by_name(cert.field)
    except Exception:
        return False, ["field"]
    try:
        ambient = FractionalIdeal.from_json(K, cert.ambient)
        a = _coords_in_oracle(K, cert.anchor)
        xi = _coords_in_oracle(K, cert.step)
        given = [_coords_in_oracle(K, p) for p in cert.points]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (cert.k, cert.radius)):
            raise TypeError("k and radius are numbers")
        if not (0 < cert.k < math.inf and -math.inf < cert.radius < math.inf):
            raise ValueError("k is finite and > 0, radius finite")
        if not xi:
            raise ValueError("a zero step generates the zero ideal")
    except (TypeError, ValueError, KeyError, OverflowError,
            ZeroDivisionError):
        return False, ["schema"]
    # the pattern up to one point more than the certificate lists
    try:
        pattern = list(itertools.islice(
            iter_ball_elements(FractionalIdeal.unit_ideal(K), cert.k),
            len(given) + 1))
    except BudgetExceededError:  # taken as one point longer than the list
        pattern = [K.zero] * (len(given) + 1)
    expected = [a + xi * j for j in pattern]
    if sorted(p.coords for p in expected) != sorted(p.coords for p in given):
        diagnoses.append("pattern")
    if len(pattern) <= len(given):
        try:  # the largest |xi j|, widened by 1e-9
            radius = max(minkowski_norm(xi * j) for j in pattern) + 1e-9
        except OverflowError:  # |xi j|^2 beyond the float range
            radius = math.inf
        if cert.radius != radius:
            diagnoses.append("metric")
    derived = []
    step_ideal = FractionalIdeal.principal(K, xi)
    for pt in given:
        if not ambient.contains(pt):
            diagnoses.append("membership")
            continue
        if not step_ideal.contains(pt - a):
            diagnoses.append("congruence")
        if not is_prime_element(ambient, pt):
            diagnoses.append("primality")
        else:
            derived.append(primes_dividing(ambient, pt)[0].to_json())
    if len(derived) == len(given) and derived != cert.witnesses:
        diagnoses.append("witness")
    return (not diagnoses), diagnoses


def det_elements(K, rows):
    """Laplace expansion along the first row, skipping its zero entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = K.zero
    for c in range(n):
        if not rows[0][c]:
            continue
        sub = [[rows[r][cc] for cc in range(n) if cc != c]
               for r in range(1, n)]
        term = rows[0][c] * det_elements(K, sub)
        det = det + term if c % 2 == 0 else det - term
    return det


def minor_norm_oracle(forms):
    """The norm of the ideal of all s x s minors of the coefficient
    matrix, 0 when they all vanish (rank < s over K)."""
    if forms.s > forms.m:
        return 0
    minors = [det_elements(forms.K, [[row[c] for c in cols]
                                     for row in forms.coeffs])
              for cols in itertools.combinations(range(forms.m), forms.s)]
    minors = [d for d in minors if d]
    if not minors:
        return 0
    return int(FractionalIdeal.from_generators(forms.K, minors).norm())


def full_rank_off_oracle(forms, W):
    """correlation._full_rank_off by omega: full row rank s over K, and
    omega of s marks equal to N P^-s at every P above each p | G off W."""
    G, marks = forms.minor_norm(), (True,) * forms.s
    return G != 0 and all(
        local_factor_omega(forms, P, marks, W, forms.K.one)
        == Fraction(1, P.norm() ** forms.s)
        for p in factorint(G) if W % p for P in primes_above(forms.K, p))
