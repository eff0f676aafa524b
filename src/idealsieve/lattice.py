"""Lattice geometry under the Minkowski embedding.

An ideal is a full-rank Z-lattice in K; this module enumerates lattice
points in balls and parallelotopes and reduces elements into the scaled
fundamental domain of the power basis.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import primerange
from .errors import BudgetExceededError
from .linalg import mat_inv_fraction
from .numberfield import FieldElement, NumberField


def ball_elements(K: NumberField, ideal, radius: float, budget: int = 10**7):
    """All lattice points of the ideal with Minkowski norm < radius, sorted
    by coordinates (the list of iter_ball_elements)."""
    return list(iter_ball_elements(K, ideal, radius, budget))


def iter_ball_elements(K: NumberField, ideal, radius: float,
                       budget: int = 10**7):
    """The lattice points of the ideal with Minkowski norm < radius, in
    coordinate order, generated one at a time.

    Exact.  With H the ideal's integer HNF rows and den its denominator,
    the point c H / den has squared norm c Q c^T / den^2 for the integer
    form Q = H G H^T (G = K.gram), so it lies in the ball iff c Q c^T <=
    B = ceil(radius^2 den^2) - 1, the radius taken as an exact Fraction.
    The coefficient box |c_i| <= radius den sqrt((Q^-1)_ii) is checked
    against the budget before anything is enumerated.  The points are
    then enumerated by Fincke-Pohst in integers: the rational
    decomposition Q(c) = sum_i d_i (c_i + sum_{j<i} mu_ij c_j)^2 is
    scaled to W Q(c) = sum_i e_i y_i^2 with y_i = M_i c_i + sum_{j<i}
    A_ij c_j, so every coordinate's range is an exact integer square
    root.  The loops run c_0 outermost and each c_i upwards; H is upper
    triangular with positive pivots, so that is the order of the
    coordinates.
    """
    if radius <= 0:
        return
    H, den, n = ideal.mat, ideal.den, K.degree
    HG = [[sum(h * g for h, g in zip(row, col)) for col in zip(*K.gram)]
          for row in H]
    Q = [[sum(a * b for a, b in zip(row, h)) for h in H] for row in HG]
    R2 = Fraction(radius) ** 2 * den * den
    total = 1
    for i, row in enumerate(mat_inv_fraction(Q)):
        total *= 2 * math.isqrt(math.floor(R2 * row[i])) + 1
        if total > budget:
            raise BudgetExceededError(
                f"ball enumeration box has {total}+ candidates (budget {budget})")
    d, mu = [None] * n, [None] * n
    for i in reversed(range(n)):
        row = [Fraction(Q[i][j])
               - sum(d[k] * mu[k][i] * mu[k][j] for k in range(i + 1, n))
               for j in range(n)]
        d[i] = row[i]
        mu[i] = [x / row[i] for x in row]
    M = [math.lcm(*(x.denominator for x in mu[i][:i])) for i in range(n)]
    A = [[int(x * M[i]) for x in mu[i][:i]] for i in range(n)]
    w = [d[i] / M[i] ** 2 for i in range(n)]
    W = math.lcm(*(x.denominator for x in w))
    e = [int(x * W) for x in w]
    c = [0] * n

    def descend(i, T):
        # c_0, ..., c_{i-1} are fixed and sum_{k >= i} e_k y_k^2 <= T
        S = sum(a * x for a, x in zip(A[i], c))
        root = math.isqrt(T // e[i])  # |y_i| <= root
        lo, hi = -((root + S) // M[i]), (root - S) // M[i]
        if i < n - 1:
            for c[i] in range(lo, hi + 1):
                y = M[i] * c[i] + S
                yield from descend(i + 1, T - e[i] * y * y)
            return
        # the point is c H / den, H's last row scaled by the innermost c_i
        base = [sum(a * row[j] for a, row in zip(c[:i], H)) for j in range(n)]
        for ci in range(lo, hi + 1):
            yield FieldElement(K, tuple(Fraction(b + ci * h, den)
                                        for b, h in zip(base, H[i])))

    yield from descend(0, (math.ceil(R2) - 1) * W)


class Parallelotope:
    """{origin + sum t_i u_i : t_i in [0, 1)} for field-element edges u_i."""

    def __init__(self, K, origin, edges):
        self.K = K
        self.origin = origin
        self.edges = list(edges)

    def scaled(self, factor):
        f = Fraction(factor)
        return Parallelotope(self.K, self.origin * self.K.element(f),
                             [u * self.K.element(f) for u in self.edges])


def points_in_parallelotope(ideal, box: Parallelotope, budget: int = 10**7):
    """Lattice points of the ideal inside the half-open parallelotope.

    Exact rational arithmetic: a point x qualifies iff the coordinates t of
    x - origin in the edge basis satisfy 0 <= t_i < 1.
    """
    K = ideal.K
    n = K.degree
    E = [[Fraction(c) for c in u.coords] for u in box.edges]
    Einv = mat_inv_fraction(E)
    # box of candidates: corners of the parallelotope in lattice coordinates
    corners = []
    for mask in itertools.product((0, 1), repeat=n):
        pt = [Fraction(box.origin.coords[j])
              + sum(mask[i] * E[i][j] for i in range(n)) for j in range(n)]
        corners.append(ideal.coords(FieldElement(K, tuple(pt))))
    los = [min(math.floor(c[i]) for c in corners) for i in range(n)]
    his = [max(math.ceil(c[i]) for c in corners) for i in range(n)]
    total = 1
    for lo, hi in zip(los, his):
        total *= hi - lo + 1
        if total > budget:
            raise BudgetExceededError(
                f"parallelotope box has {total}+ candidates (budget {budget})")
    out = []
    o = [Fraction(c) for c in box.origin.coords]
    for coeffs in itertools.product(*(range(lo, hi + 1)
                                      for lo, hi in zip(los, his))):
        x = ideal.element_at(coeffs)
        d = [Fraction(x.coords[j]) - o[j] for j in range(n)]
        t = [sum(d[c] * Einv[c][r] for c in range(n)) for r in range(n)]
        if all(0 <= ti < 1 for ti in t):
            out.append(x)
    out.sort(key=lambda x: tuple(x.coords))
    return out


def fundamental_domain_reduce(K: NumberField, ideal, x: FieldElement, N: int):
    """Reduce x modulo N * ideal into the scaled fundamental domain
    N * G, where G = sum (-1/2, 1/2] eta_i over the ideal basis.

    Exact: with c the basis coordinates of x, the shift is m_i =
    ceil(c_i / N - 1/2), giving coordinates in (-N/2, N/2].  Returns
    (reduced, shift) with x = reduced + shift and shift in N * ideal.
    """
    m = [_ceil_frac(ci / N - Fraction(1, 2)) for ci in ideal.coords(x)]
    shift = ideal.element_at([mi * N for mi in m])
    return x - shift, shift


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def in_scaled_domain(K: NumberField, ideal, x: FieldElement, N: int) -> bool:
    """Is x in N * G for the ideal's fundamental domain G?"""
    half = Fraction(N, 2)
    return all(-half < ci <= half for ci in ideal.coords(x))


def admissible_modulus(w: int) -> int:
    """W = prod_{p <= w} p (the primorial cut at w)."""
    prod = 1
    for p in primerange(2, w + 1):
        prod *= p
    return prod
