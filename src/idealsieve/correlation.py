"""Correlation sums, singular series, local densities, and the
hypergraph pseudo-randomness conditions.

A local density omega is an exact rational p^-rank read off one linear
system over F_p; the singular series is evaluated either by a factored
fast path (when the form system has full row rank at every prime) or by
direct enumeration of squarefree ideal tuples.  Floating sums are taken
by math.fsum, which rounds the exact sum once, so a report does not
depend on the summation order and is byte-identical from run to run.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .arith import factorint, iroot, prime_flags, primerange
from .errors import (ENUMERATION_BUDGET, FACTOR_BUDGET, TUPLE_BUDGET,
                     BudgetExceededError, check_budget)
from .ideals import (FractionalIdeal, PrimeIdeal, enumerate_prime_ideals,
                     euler_phi, mobius_sieve, primes_dividing,
                     residue_degrees, residue_rows, zeta_residue)
from .lattice import (Parallelotope, iter_ball_elements,
                      parallelotope_rows, row_elements)
from .linalg import echelon_mod_p, hnf
from .numberfield import FieldElement
from .sieve import DEFAULT_BUMP, SieveConfig, c_phi, region_nu_rows

# ---------------------------------------------------------------------
# Linear form systems

class LinearFormSystem:
    """s linear forms in m variables, coefficients in O_K, shifts in b."""

    def __init__(self, K, coeffs, shifts=None, ambient=None):
        self.K = K
        self.coeffs = [[K.element(c) for c in row] for row in coeffs]
        self.s = len(self.coeffs)
        self.m = len(self.coeffs[0]) if self.coeffs else 0
        if any(len(row) != self.m for row in self.coeffs):
            raise ValueError("ragged coefficient matrix")
        self.ambient = ambient if ambient is not None \
            else FractionalIdeal.unit_ideal(K)
        if shifts is None:
            shifts = [K.zero] * self.s
        self.shifts = [K.element(b) for b in shifts]
        self._validate()

    def _validate(self):
        # O_K = Z[theta] in every vetted field
        if any(c.den != 1 for row in self.coeffs for c in row):
            raise ValueError("coefficients must lie in O_K")
        groups = {}  # by zero pattern: proportional forms share theirs
        for i, row in enumerate(self.coeffs):
            groups.setdefault(tuple(map(bool, row)), []).append(i)
        if (False,) * self.m in groups:
            raise ValueError("zero form")
        pairs = [(i, j) for g in groups.values()
                 for i, j in itertools.combinations(g, 2)
                 if self._proportional(self.coeffs[i], self.coeffs[j])]
        if pairs:  # the first in combinations order
            raise ValueError("forms %d and %d are proportional" % min(pairs))

    @staticmethod
    def _proportional(u, v):
        # equal zero patterns and v[a] u = u[a] v at the first nonzero index a
        if [bool(x) for x in u] != [bool(y) for y in v]:
            return False
        a = next(i for i, x in enumerate(u) if x)
        return not any(v[a] * x - u[a] * y for x, y in zip(u, v))

    def apply(self, j: int, x) -> FieldElement:
        acc = self.K.zero
        for c, xi in zip(self.coeffs[j], x):
            if c:
                acc = acc + c * xi
        return acc

    def minor_norm(self) -> int:
        """Norm of the ideal generated by all s x s minors of the
        coefficient matrix (0 when rank < s over K).  That ideal is the 0th
        Fitting ideal of O_K^s / psi(O_K^m), so its norm is the index of the
        lattice spanned by the psi(theta^r e_k) in Z^(s n), the product of
        its HNF pivots.  Primes away from this norm see the system at full
        row rank."""
        n = self.K.degree
        blocks = [[self.K.mul_rows(c.num) if c else [[0] * n] * n
                   for c in row] for row in self.coeffs]
        rows = [[x for block in blocks for x in block[k][r]]
                for k in range(self.m) for r in range(n)]
        try:
            H = hnf(rows, self.s * n)
        except ValueError:  # rank < s n
            return 0
        return math.prod(H[i][i] for i in range(self.s * n))


def report_line(op, empirical, predicted, params, **extra) -> str:
    """One JSON report line with sorted keys, so equal reports are equal
    bytes; extra adds keys such as sample_size."""
    ratio = empirical / predicted if predicted else math.inf
    return json.dumps(dict(extra, op=op, empirical=empirical,
                           predicted=predicted, ratio=ratio, params=params),
                      sort_keys=True)


class CorrelationReport(namedtuple(
        "CorrelationReport", "op empirical predicted sample_size parameters")):
    __slots__ = ()

    @property
    def ratio(self):
        return self.empirical / self.predicted if self.predicted else math.inf

    def to_json(self) -> str:
        return report_line(self.op, self.empirical, self.predicted,
                           self.parameters, sample_size=self.sample_size)


# ---------------------------------------------------------------------
# Cross-correlation

def cross_correlation_sum(forms: LinearFormSystem, region: Parallelotope,
                          lam, weight) -> CorrelationReport:
    """(1/|b cap lam I|^m) sum over x in (b cap lam I)^m of
    prod_j weight(psi_j(x) + b_j).  At most iroot(B, m) + 1 points are
    enumerated, B = ENUMERATION_BUDGET: that many make more than B tuples."""
    cap = iroot(ENUMERATION_BUDGET, forms.m) + 1
    rows = parallelotope_rows(forms.ambient, region.scaled(lam),
                              ENUMERATION_BUDGET)
    pts = list(itertools.islice(row_elements(forms.ambient, rows), cap))
    if not pts:
        raise ValueError("empty region")
    if len(pts) == cap:
        raise BudgetExceededError(
            f"{cap}+ region points: {cap}^{forms.m}+ sample tuples exceed "
            f"budget {ENUMERATION_BUDGET}")
    count = len(pts) ** forms.m

    def term(x):
        prod = 1.0
        for j in range(forms.s):
            prod *= weight(forms.apply(j, x) + forms.shifts[j])
        return prod

    total = math.fsum(map(term, itertools.product(pts, repeat=forms.m)))
    emp = total / count
    return CorrelationReport("cross_correlation", emp, 1.0, count,
                             {"s": forms.s, "m": forms.m, "lambda": float(lam),
                              "field": forms.K.name})


# ---------------------------------------------------------------------
# Local factors omega

def local_factor_omega(forms: LinearFormSystem, P: PrimeIdeal, marks,
                       W: int, alpha) -> Fraction:
    """Exact density of x in (b / P b)^m with P b | W psi_i(x) + b'_i for
    every marked i, where b'_i = W b_i + alpha.  v in b lies in P b iff the
    rows of residue_rows(P, b) vanish on its b-coordinates mod p, so each
    marked form gives f linear conditions over F_p on x in (b / p b)^m;
    omega is p^-rank if they are consistent and 0 if not (or if b'_i is
    not in b)."""
    marks = tuple(bool(t) for t in marks)
    if len(marks) != forms.s:
        raise ValueError("one mark per form required")
    if not any(marks):
        return Fraction(1)
    if W % P.p == 0:
        return Fraction(0)
    alpha = forms.K.element(alpha)
    return _omega_cached_key(tuple(map(tuple, forms.coeffs)),
                             tuple(forms.shifts), forms.ambient, P, marks,
                             W, alpha)


@lru_cache(maxsize=2 ** 16)
def _omega_cached_key(coeffs, shifts, ambient, P, marks, W, alpha):
    """local_factor_omega keyed on the content of the form system."""
    G = residue_rows(P, ambient)

    def conditions(v):  # v in b: the g(v), all 0 iff v in P b
        c = ambient.coefficients(v)
        return [sum(map(operator.mul, g, c)) for g in G]

    rows = []
    for i in (i for i, t in enumerate(marks) if t):
        bp = shifts[i] * W + alpha
        if not ambient.contains(bp):
            return Fraction(0)
        cols = [conditions(c * beta * W) for c in coeffs[i]
                for beta in ambient.basis_elements()]
        rows += zip(*cols, conditions(bp))
    ncols = len(coeffs[0]) * ambient.K.degree
    pivots = [col for col, _ in echelon_mod_p(rows, P.p, range(ncols + 1))]
    if ncols in pivots:  # the shifts are not in the span: no solution
        return Fraction(0)
    return Fraction(1, P.p ** len(pivots))


# Read only by bench/micro.py, which clears it; it stays until the next
# benchmark revision (ROADMAP item 6) and nothing in src/ uses it.
_FORMS_REGISTRY = {}


def omega_tuple(forms, primes_marks, W, alpha):
    """omega of a squarefree pattern: CRT product over its primes."""
    out = Fraction(1)
    for P, marks in primes_marks:
        out *= local_factor_omega(forms, P, marks, W, alpha)
        if not out:
            break
    return out


# ---------------------------------------------------------------------
# Squarefree ideal enumeration (as frozensets of prime ideals)

def squarefree_ideals(K, R, W, prime_support=None):
    """Squarefree integral ideals of norm < R whose primes avoid W,
    represented as (frozenset of primes, norm) pairs, including (|, 1).
    Each listed ideal is extended by the later primes in norm order, up to
    the first that takes its norm to R; at most TUPLE_BUDGET are listed."""
    if prime_support is None:
        prime_support = enumerate_prime_ideals(K, int(math.ceil(R)))
    primes = sorted((P for P in prime_support
                     if W % P.p != 0 and P.norm() < R),
                    key=lambda P: P.sort_key())
    walk = [(1, ())]  # (norm, ascending indices into primes)
    for n, ix in walk:  # the list grows as it is read
        for i in range(ix[-1] + 1 if ix else 0, len(primes)):
            if n * primes[i].norm() >= R:
                break
            walk.append((n * primes[i].norm(), ix + (i,)))
            check_budget("squarefree ideal list length", len(walk),
                         TUPLE_BUDGET)
    # indices ascend as the primes' sort keys do
    return [(frozenset(primes[i] for i in ix), n) for n, ix in sorted(walk)]


# ---------------------------------------------------------------------
# Singular series

def singular_series_direct(forms: LinearFormSystem, R: float, W: int,
                           alpha=1, prime_support=None, phi=None):
    """The double sum over squarefree ideal s-tuples d, d' of

        omega((d_j cap d'_j)_j) prod_j mu(d_j) mu(d'_j) g(d_j) g(d'_j)

    with g the bump weight phi(log N d / log R).

    Fast path: when the coefficient matrix has full row rank over K and
    at every prime off W (_full_rank_off), omega factors across forms and
    the sum collapses to a product of s identical pair sums, computed once
    by Selberg's diagonalisation (_pair_sum_rational over Q,
    _pair_sum_norms otherwise).  prime_support forces the direct tuple
    sum over the squarefree ideals built from those primes.
    """
    K = forms.K
    phi = phi or DEFAULT_BUMP
    logR = math.log(R)
    alpha = K.element(alpha)

    def g(n):
        return phi(math.log(n) / logR) if n < R else 0.0

    if prime_support is None and _full_rank_off(forms, W):
        if K.degree == 1:
            pair = _pair_sum_rational(K, R, W, logR, phi)
        else:
            pair = _pair_sum_norms(K, R, W, logR, phi)
        val = 1.0
        for _ in range(forms.s):
            val *= pair
        return val

    # direct tuple enumeration
    pairs = squarefree_ideals(K, R, W, prime_support=prime_support)
    D = len(pairs)
    _check_power(D, 2 * forms.s, "tuples")
    total = []
    for dd in itertools.product(range(D), repeat=forms.s):
        for dp in itertools.product(range(D), repeat=forms.s):
            term = 1.0
            union = {}
            for j in range(forms.s):
                Sd, nd = pairs[dd[j]]
                Sp, np_ = pairs[dp[j]]
                sgn = (-1) ** (len(Sd) + len(Sp))
                term *= sgn * g(nd) * g(np_)
                for P in Sd | Sp:
                    union.setdefault(P, [False] * forms.s)[j] = True
            if not term:
                continue
            om = omega_tuple(forms, sorted(union.items(),
                                           key=lambda kv: kv[0].sort_key()),
                             W, alpha)
            if om:
                total.append(term * float(om))
    return math.fsum(total)


def _full_rank_off(forms, W):
    """Whether the coefficient matrix has full row rank s over K and at
    every prime off W, where omega of s marks is then N P^-s: the minor
    norm G is nonzero and each prime of G divides W.  A prime p | G lies
    under a P that holds every s x s minor, where the forms drop rank."""
    G = forms.minor_norm()
    return G != 0 and all(W % p == 0 for p in factorint(G))


def check_level(K, R):
    """The pair sums' budget at level R, checked before any list."""
    X = int(math.ceil(R))
    check_budget(*(("norm bound", X) if K.degree > 1 else (
        f"the integers below R = {R}:", X - 1)), ENUMERATION_BUDGET)


def _pair_sum_rational(K, R, W, logR, phi):
    """Over the degree-1 field K, the sum over squarefree d, d' < R
    coprime to W of
    mu(d) mu(d') phi(log d / log R) phi(log d' / log R) / lcm(d, d').

    Selberg's diagonalisation: 1/lcm(d, d') = sum_{e | gcd(d, d')} phi(e)
    / (d d'), so with c_d = mu(d) phi(log d / log R) the sum is

        sum_e phi(e) (sum_{e | d} c_d / d)^2

    over squarefree e < R coprime to W; every sum is a fixed-order
    math.fsum, and no D x D matrix is formed.  mu and phi are sieved by
    slices, and an e past Ri // q, q the least prime off W, divides no
    other d, so its inner sum is its own term.  The integers below R are
    checked against the enumeration budget before any list is built.
    """
    Ri = int(math.ceil(R)) - 1
    check_level(K, R)
    mob = mobius_sieve(K, Ri)
    mob[0] = 0
    tot = [1] * (Ri + 1)  # Euler's phi, right at every squarefree e
    cut = 0  # Ri // q, q the least prime off W; 0 if there is none below R
    for p in itertools.compress(range(Ri + 1), prime_flags(Ri)):
        if not W % p:
            mob[p::p] = [0] * (Ri // p)
            continue
        cut = cut or Ri // p
        if 2 * p > Ri:
            tot[p] = p - 1
        else:
            tot[p::p] = [t * (p - 1) for t in tot[p::p]]
    ds = list(itertools.compress(range(Ri + 1), mob))
    tot = [tot[e] for e in ds]  # frees the entries that no e reads
    v = [0.0] * (Ri + 1)
    for x in ds:
        v[x] = mob[x] * phi(math.log(x) / logR) / x
    return math.fsum(t * (math.fsum(v[e::e]) if e <= cut else v[e]) ** 2
                     for e, t in zip(ds, tot))


_ONE = 1 << 1074  # every finite float is an integer over 2^1074


def _scaled(xs):
    """The floats xs times 2^1074, as integers."""
    return [a * (_ONE // d) for a, d in map(float.as_integer_ratio, xs)]


def _pair_sum_norms(K, R, W, logR, phi):
    """_pair_sum_rational's sum over the squarefree ideals d of norm < R
    prime to W, with N d for d and phi_K(e) = prod_{P | e} (N P - 1) for
    phi(e), taken over norms.  K is Galois, so the g_p primes above p share
    one norm q_p: the e of norm m = prod q_p^k_p number prod C(g_p, k_p),
    and a d of norm n = prod q_p^j_p, with c(n) = (-1)^(sum j_p)
    phi(log n / log R) / n, contains one in prod C(g_p - k_p, j_p - k_p)
    ways.  The inner sums are that transform of c, in g_p slice passes per
    p.  Every sum is exact, in integers over 2^1074, and rounded once by a
    true division, as math.fsum rounds it."""
    X = int(math.ceil(R))
    check_level(K, R)
    Ri, split = X - 1, []  # (q_p, g_p) for p off W with q_p < R
    for p in primerange(2, X):
        degrees = residue_degrees(K, p)
        if W % p and p ** degrees[0] <= Ri:
            split.append((p ** degrees[0], len(degrees)))
    split.sort()
    # the norms m < R: (m, sign, prod C(g_p, k_p), phi_K, next index)
    walk = [(1, 1, 1, 1, 0)]
    for m, sign, count, tot, start in walk:  # the list grows as it is read
        for i in range(start, len(split)):
            q, g = split[i]
            if m * q > Ri:
                break
            n, s, c, t = m, sign, count, tot
            for j in range(1, g + 1):
                n, s, c, t = n * q, -s, c * (g - j + 1) // j, t * (q - 1)
                if n > Ri:
                    break
                walk.append((n, s, c, t, i + 1))
    A = [0] * X
    for (n, *_), a in zip(walk, _scaled(
            [s * phi(math.log(n) / logR) / n for n, s, *_ in walk])):
        A[n] = a
    for q, g in split:  # the g - k passes with e > k leave at an x with
        # k_p(x) = k the sum over i of C(g - k, i) c(x q^i)
        for e in range(g, 0, -1):  # the multiples of q^e keep their value
            keep, L = A[q ** e::q ** e], Ri // q
            A[1:L + 1] = map(operator.add, A[1:L + 1], A[q::q])
            A[q ** e::q ** e] = keep
    terms = _scaled([t * (A[n] / _ONE) ** 2 for n, _, _, t, _ in walk])
    return sum(map(operator.mul, (w[2] for w in walk), terms)) / _ONE


def singular_series_main_term(forms, R, W):
    """(c_phi W^n / (phi_K(W) log R Res zeta_K))^s.

    c_phi includes the factor 4 pi^2 (see sieve.py), so
    singular_series_direct tends to main / (4 pi^2)^s, with relative
    corrections of order 1 / log R.  For s = 2 over Q with W = 6 the
    rescaled ratio direct * (4 pi^2)^s / main is 0.30 at R = 10^2 and
    0.55 at R = 10^4.
    """
    K = forms.K
    n = K.degree
    base = (c_phi() * W ** n
            / (euler_phi(K, W) * math.log(R) * zeta_residue(K)))
    return base ** forms.s


# ---------------------------------------------------------------------
# Euler product route

def F_euler(forms: LinearFormSystem, t, tprime, P_cutoff: float, R: float,
            W: int, alpha=1):
    """Truncated Euler product of the local mark sums, with the predicted
    main term and a multiplicative tail bound.

    Returns (value, main_term, tail_factor_bound)."""
    K = forms.K
    s = forms.s
    logR = math.log(R)
    t = list(t)
    tprime = list(tprime)
    alpha = K.element(alpha)
    value = complex(1.0)
    for P in enumerate_prime_ideals(K, int(P_cutoff)):
        if W % P.p == 0:
            continue
        q = P.norm()
        local = complex(0.0)
        for dd in itertools.product((0, 1), repeat=s):
            for dp in itertools.product((0, 1), repeat=s):
                marks = tuple(bool(a or b) for a, b in zip(dd, dp))
                om = local_factor_omega(forms, P, marks, W, alpha)
                if not om:
                    continue
                term = complex(float(om))
                for j in range(s):
                    if dd[j]:
                        term *= -q ** complex(-(1) / logR, -t[j] / logR)
                    if dp[j]:
                        term *= -q ** complex(-(1) / logR, -tprime[j] / logR)
                local += term
        value *= local
    n = K.degree
    main = (W ** n / (euler_phi(K, W) * logR * zeta_residue(K))) ** s
    for j in range(s):
        main *= ((1 + 1j * t[j]) * (1 + 1j * tprime[j])
                 / (2 + 1j * (t[j] + tprime[j])))
    # tail: remaining local factors are 1 + O_s(1/Np^2)
    tail_log = 3.0 * s * s * sum(
        1.0 / p ** 2 * K.degree
        for p in primerange(int(P_cutoff) + 1, 10 * int(P_cutoff)))
    tail = math.exp(tail_log)
    return value, main, tail


# ---------------------------------------------------------------------
# Auto-correlation and tau

def tau_factor(cfg: SieveConfig, y: FieldElement) -> float:
    """prod over primes of (y) b^{-1} off W with norm <= R^2 of
    (1 + c_tau / Np), with c_tau = s^2, the primes read off y by
    primes_dividing (ValueError if y is not in b) once N((y) b^{-1}) is
    found within FACTOR_BUDGET."""
    if not y:
        raise ValueError("tau_factor requires y != 0")
    b = cfg.ambient
    if b.contains(y):
        check_budget("factored ideal norm", int(abs(y.norm()) / b.norm()),
                     FACTOR_BUDGET)
    c_tau = float(cfg.s ** 2)
    out = 1.0
    for P in primes_dividing(b, y):
        if cfg.W % P.p == 0:
            continue
        if P.norm() <= cfg.R ** 2:
            out *= 1.0 + c_tau / P.norm()
    return out


def tau_weight(cfg: SieveConfig, y: FieldElement) -> float:
    """C_s * tau_factor with C_s = 2^s."""
    return (2.0 ** cfg.s) * tau_factor(cfg, y)


def auto_correlation_check(y, region: Parallelotope,
                           cfg: SieveConfig) -> CorrelationReport:
    """Empirical mean of prod_i nu_N(x + y_i) over x in (N I) cap b versus
    the bound C_s prod_{i<j} tau_factor(y_i - y_j).  The products come a
    row segment at a time from region_nu_rows and go to one math.fsum."""
    y = list(y)
    s = len(y)
    for i in range(s):
        for j in range(i + 1, s):
            if not (y[i] - y[j]):
                raise ValueError("coincident coordinates in y")
    count = 0

    def terms():
        nonlocal count
        for segment in region_nu_rows(cfg, y, region.scaled(cfg.N)):
            count += len(segment)
            yield from segment

    emp = math.fsum(terms()) / count
    bound = 2.0 ** cfg.s
    for i in range(s):
        for j in range(i + 1, s):
            bound *= tau_factor(cfg, y[i] - y[j])
    return CorrelationReport("auto_correlation", emp, bound, count,
                             dict(cfg.params_echo(), s_tuple=s))


# ---------------------------------------------------------------------
# Hypergraph conditions

def hypergraph_conditions_report(cfg: SieveConfig, nu_table,
                                 Omegas=None) -> dict:
    """Exact evaluation of the three pseudo-randomness conditions for the
    measure system nu~_{N,j} built from nu_table.

    A residue of O_K / N O_K is its integer coordinate vector mod N, and
    nu_table is indexed by residues: an array of shape (N,) * n (a length-N
    list over Q).  Pattern J = O_K cap B_k, hyperedges e_j = J \\ {j}.
    Omegas maps j to a list of 0/1 vectors over e_j; default is the
    all-ones vector for each j.  Only the variables that actually occur in
    some term are enumerated; unused coordinates factor out of the
    normalized average exactly.  Condition 3 takes M = 2.
    """
    import numpy as np

    K, N, n = cfg.K, cfg.N, cfg.K.degree
    T = np.asarray(nu_table, dtype=float)
    if T.shape != (N,) * n:
        raise ValueError(f"nu_table has shape {T.shape}, expected {(N,) * n}")
    # every term has |J| - 1 variables, so N^(n (|J| - 1)) states, and the
    # edges hold |J| (|J| - 1) entries: the pattern is enumerated one point
    # past the largest size both admit, before anything quadratic is built
    limit = min((1 + math.isqrt(1 + 4 * TUPLE_BUDGET)) // 2,
                1 + _max_exponent(N ** n, TUPLE_BUDGET))
    J = list(itertools.islice(
        iter_ball_elements(FractionalIdeal.unit_ideal(K), cfg.k), limit + 1))
    if len(J) > limit:
        raise BudgetExceededError(
            f"pattern O_K cap B_k at k = {cfg.k} is larger than {limit}, "
            f"the most points that budget {TUPLE_BUDGET} admits at N = {N}")
    edges = {pos: [q for q in range(len(J)) if q != pos]
             for pos in range(len(J))}
    if Omegas is None:
        Omegas = {pos: [tuple(1 for _ in edges[pos])] for pos in edges}
    mats = {(i, j): _mult_matrix(K, J[i] - J[j], N)
            for j in Omegas for i in edges[j]}
    # a term is the lookup T[sum over (variable, matrix) pairs]; a variable
    # is (i_pos, delta), the delta-copy of x_i
    terms = [[((i, om[a]), mats[i, j]) for a, i in enumerate(edges[j])]
             for j, omegas in Omegas.items() for om in omegas]
    used = sorted({v for deps in terms for v, _ in deps})
    _check_power(N, len(used) * n, "states")
    cond2 = _grid_mean(T, terms, used)

    # condition 3: j = first key of Omegas, i = first of e_j
    j = next(iter(Omegas))
    if edges[j]:
        i = edges[j][0]
        terms3 = [[((ip, om[a]), mats[ip, j]) for a, ip in enumerate(edges[j])]
                  for om in Omegas[j]]
        used3 = {v for deps in terms3 for v, _ in deps}
        outer = sorted(v for v in used3 if v[0] != i)
        inner = sorted(v for v in used3 if v[0] == i)
        _check_power(N, len(used3) * n, "states")
        cond3 = _grid_mean(T, terms3, outer + inner, inner=len(inner), M=2)
    else:
        cond3 = 1.0

    # condition 1: sup over 8 sampled x^(0); Omega entries equal to the
    # all-ones vector make the average x^(0)-independent
    used1 = [v for v in used if v[1] == 1]
    used0 = [v for v in used if v[1] == 0]
    _check_power(N, len(used1) * n, "states")
    rng = random.Random(0)
    samples = [[_residue(N, n, rng.randrange(N ** n)) for _ in used0]
               for _ in range(8)] if used0 else [[]]
    cond1 = max([0.0] + [_grid_mean(T, terms, used1, dict(zip(used0, x0)))
                         for x0 in samples])
    return {"condition1_sup": cond1, "condition2": cond2,
            "condition3": cond3, "pattern_size": len(J), "N": N, "M": 2}


def _max_exponent(base, budget):
    """The largest e with base^e <= budget (budget >= 1); math.inf for
    base <= 1."""
    if base <= 1:
        return math.inf
    e, power = 0, base
    while power <= budget:
        e, power = e + 1, power * base
    return e


def _check_power(base, e, what):
    """BudgetExceededError unless base^e <= TUPLE_BUDGET.  The power is
    neither formed nor printed: it may have more digits than int-to-string
    conversion allows, so the message names it as base^e."""
    if e > _max_exponent(base, TUPLE_BUDGET):
        raise BudgetExceededError(
            f"{base}^{e} {what} exceed budget {TUPLE_BUDGET}")


def _mult_matrix(K, c, N):
    """Multiplication by the integral element c on O_K / N O_K as an
    integer matrix mod N: column l holds the coordinates of c theta^l."""
    return [[x % N for x in row] for row in zip(*K.mul_rows(c.num))]


def _residue(N, n, r):
    """The r-th residue of (Z/N)^n in itertools.product order."""
    out = []
    for _ in range(n):
        r, c = divmod(r, N)
        out.append(c)
    return out[::-1]


def _grid_mean(T, terms, free, fixed=None, inner=0, M=1):
    """Mean over the free variables, each ranging over O_K / N O_K, of
    the product over terms of T[sum_v A_v x_v mod N]; fixed maps the other
    variables to residues.  The last `inner` free variables are averaged
    first and that average is raised to the power M.

    The free variables span a sparse grid of coordinate axes.  One residue
    of the leading outer variable is evaluated at a time, and the slab
    sums are added in fixed order by math.fsum.
    """
    import numpy as np

    N, n = T.shape[0], T.ndim
    x = dict(fixed or {})
    lead = free[0] if len(free) > inner else None
    rest = free[1:] if lead is not None else free
    # no arange unless a variable is free: a one-point pattern has none,
    # and N may then be past any array size
    axes = np.meshgrid(*[np.arange(N)] * (n * len(rest)), indexing="ij",
                       sparse=True) if rest else []
    for a, v in enumerate(rest):
        x[v] = axes[a * n:(a + 1) * n]
    inner_size = N ** (n * inner)
    sums = []
    for r in range(N ** n if lead is not None else 1):
        if lead is not None:
            x[lead] = _residue(N, n, r)
        prod = 1.0
        for deps in terms:
            idx = [0] * n
            for v, A in deps:
                for row in range(n):
                    for col in range(n):
                        idx[row] = (idx[row] + A[row][col] * x[v][col]) % N
            prod = prod * T[tuple(idx)]
        prod = np.broadcast_to(prod, (N,) * (n * len(rest)))
        avg = prod.reshape(-1, inner_size).sum(axis=1) / inner_size
        sums.append(float(np.sum(avg ** M)))
    return math.fsum(sums) / N ** (n * (len(free) - inner))


# ---------------------------------------------------------------------
# Relative density

def relative_density(subset, ambient, weight) -> float:
    """Weighted density of subset inside ambient."""
    denom = math.fsum(weight(x) for x in ambient)
    if denom == 0:
        raise ZeroDivisionError("zero total weight over the ambient set")
    num = math.fsum(weight(x) for x in subset)
    return num / denom
