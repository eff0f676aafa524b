"""Lattice geometry under the Minkowski embedding.

An ideal is a full-rank Z-lattice in K; this module enumerates lattice
points in balls and parallelotopes and reduces elements into the scaled
fundamental domain of the power basis.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .arith import primerange
from .errors import ENUMERATION_BUDGET, BudgetExceededError
from .linalg import adjugate, det_int
from .numberfield import FieldElement, NumberField


def ball_elements(K: NumberField, ideal, radius: float):
    """All lattice points of the ideal with Minkowski norm < radius, sorted
    by coordinates (the list of iter_ball_elements; K is the ideal's)."""
    return list(iter_ball_elements(ideal, radius))


def iter_ball_elements(ideal, radius: float):
    """The lattice points of the ideal with Minkowski norm < radius, in
    coordinate order, one at a time from ball_rows under ENUMERATION_BUDGET."""
    yield from row_elements(
        ideal, ball_rows(ideal, radius, ENUMERATION_BUDGET)[2])


def row_elements(ideal, rows):
    """The points c H / den of the ideal along rows (c_0..c_{n-2}, lo, hi),
    the last coefficient running over lo..hi, as field elements."""
    K, H, den = ideal.K, ideal.mat, ideal.den
    for c, lo, hi in rows:
        base = ideal.numerators_at(c)
        for ci in range(lo, hi + 1):
            yield FieldElement(
                K, tuple(b + ci * h for b, h in zip(base, H[-1])), den)


@lru_cache(maxsize=2 ** 12)
def _ball_form(ideal):
    """ball_rows' radius-free part, shared by every call on the ideal:
    Q, adj(Q)'s diagonal, det Q and the Fincke-Pohst scaling M, A, e, W."""
    H, n = ideal.mat, ideal.K.degree
    HG = [[sum(map(operator.mul, row, col)) for col in zip(*ideal.K.gram)]
          for row in H]
    Q = [[sum(map(operator.mul, row, h)) for h in H] for row in HG]
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
    adj = [row[i] for i, row in enumerate(adjugate(Q))]
    return Q, adj, det_int(Q), M, A, [int(x * W) for x in w], W


def ball_rows(ideal, radius: float, budget):
    """(Q, box, rows) for the points c H / den of the ideal with Minkowski
    norm < radius: |c_i| <= box[i], and rows generates one (c_0..c_{n-2},
    lo, hi) per prefix, its last coefficient running over lo..hi, lo <= hi.

    Exact.  The point has squared norm c Q c^T / den^2 for the integer
    form Q = H G H^T (G = K.gram), so it lies in the ball iff c Q c^T <=
    B = ceil(radius^2 den^2) - 1, the radius taken as an exact Fraction.
    The coefficient box |c_i| <= radius den sqrt(adj(Q)_ii / det Q) is
    checked against the budget on the call, before anything is
    enumerated.  The rows are then enumerated by Fincke-Pohst in integers:
    the rational decomposition Q(c) = sum_i d_i (c_i + sum_{j<i} mu_ij
    c_j)^2 is scaled to W Q(c) = sum_i e_i y_i^2 with y_i = M_i c_i +
    sum_{j<i} A_ij c_j, so every coordinate's range is an exact integer
    square root.  The loops run c_0 outermost and each c_i upwards; H is
    upper triangular with positive pivots, so that is the order of the
    coordinates.
    """
    Q, adj, detQ, M, A, e, W = _ball_form(ideal)
    n = len(Q)
    if radius <= 0:
        return Q, [0] * n, iter(())
    R2 = Fraction(radius) ** 2 * ideal.den ** 2
    box, total = [], 1
    for i, a in enumerate(adj):
        box.append(math.isqrt(R2 * a // detQ))
        total *= 2 * box[i] + 1
        if total > budget:
            raise BudgetExceededError(
                f"ball enumeration box has {total}+ candidates (budget {budget})")
    c = [0] * n

    def descend(i, T):
        # c_0, ..., c_{i-1} are fixed and sum_{k >= i} e_k y_k^2 <= T
        S = sum(a * x for a, x in zip(A[i], c))
        root = math.isqrt(T // e[i])  # |y_i| <= root
        lo, hi = -((root + S) // M[i]), (root - S) // M[i]
        if i == n - 1:
            if lo <= hi:
                yield tuple(c[:i]), lo, hi
            return
        for c[i] in range(lo, hi + 1):
            y = M[i] * c[i] + S
            yield from descend(i + 1, T - e[i] * y * y)

    return Q, box, descend(0, (math.ceil(R2) - 1) * W)


class Parallelotope:
    """{origin + sum t_i u_i : t_i in [0, 1)} for field-element edges u_i."""

    def __init__(self, K, origin, edges):
        self.K = K
        self.origin = origin
        self.edges = list(edges)

    def scaled(self, factor):
        f = Fraction(factor)
        return Parallelotope(self.K, self.origin * f,
                             [u * f for u in self.edges])

    def corners(self):
        """The 2^n vertices origin + sum of a subset of the edges."""
        return [sum((u for m, u in zip(mask, self.edges) if m), self.origin)
                for mask in itertools.product((0, 1), repeat=len(self.edges))]


def points_in_parallelotope(ideal, box: Parallelotope,
                            budget: int = ENUMERATION_BUDGET):
    """Lattice points of the ideal inside the half-open parallelotope, in
    coordinate order (the list of iter_points_in_parallelotope)."""
    return list(iter_points_in_parallelotope(ideal, box, budget))


def iter_points_in_parallelotope(ideal, box: Parallelotope,
                                 budget: int = ENUMERATION_BUDGET):
    """The lattice points of the ideal inside the half-open parallelotope,
    in coordinate order, generated one at a time from parallelotope_rows."""
    yield from row_elements(ideal, parallelotope_rows(ideal, box, budget))


def parallelotope_rows(ideal, box: Parallelotope, budget):
    """The rows (c_0..c_{n-2}, lo, hi) of the points c H / den of the ideal
    inside the half-open parallelotope, the last coefficient running over
    lo..hi, in coordinate order and none empty.

    x qualifies iff the coordinates t of x - origin in the edge basis
    satisfy 0 <= t_i < 1.  In integers: with the edges A / e over one
    denominator and x - origin = w / L, t = e w adj(A) / (L det A), so x
    qualifies iff 0 <= e (w adj A)_i sgn(det A) < L |det A| for every i,
    that is 0 <= (c G - g)_i < bound.  The prefixes run over the box of
    the corners' coordinates, whose size is checked against the budget on
    the call, before anything is enumerated.  Each constraint is linear
    in the last coefficient, so a row's range costs one ceiling and one
    floor per constraint, not one test per candidate.
    """
    n = ideal.K.degree
    e = math.lcm(*(u.den for u in box.edges))
    A = [[a * (e // u.den) for a in u.num] for u in box.edges]
    det = det_int(A) if len(A) == n else 0
    if det == 0:
        raise ValueError("singular matrix")
    adj = adjugate(A)
    o = box.origin
    # box of candidates: corners of the parallelotope in lattice coordinates
    corners = [ideal.coords(x) for x in box.corners()]
    los = [min(math.floor(c[i]) for c in corners) for i in range(n)]
    his = [max(math.ceil(c[i]) for c in corners) for i in range(n)]
    total = 1
    for lo, hi in zip(los, his):
        total *= hi - lo + 1
        if total > budget:
            raise BudgetExceededError(
                f"parallelotope box has {total}+ candidates (budget {budget})")
    # x - origin = w / L with w = o.den c H - den o.num and L = den o.den,
    # so the test vector e sgn(det A) w adj(A) is c G - g
    s = e if det > 0 else -e
    G = [[s * o.den * sum(map(operator.mul, h, col)) for col in zip(*adj)]
         for h in ideal.mat]
    g = [s * ideal.den * sum(map(operator.mul, o.num, col))
         for col in zip(*adj)]
    bound = ideal.den * o.den * abs(det)
    cols = [col[:-1] for col in zip(*G)]  # the prefix's rows of G

    def rows():
        for c in itertools.product(*map(range, los[:-1],
                                        [hi + 1 for hi in his[:-1]])):
            lo, hi = los[-1], his[-1]
            for col, gi, a in zip(cols, g, G[-1]):
                # 0 <= r + a t < bound, i.e. -r <= a t <= top, in the last
                # coefficient t
                r = sum(map(operator.mul, c, col)) - gi
                top = bound - 1 - r
                if a > 0:
                    lo, hi = max(lo, -(r // a)), min(hi, top // a)
                elif a < 0:
                    lo, hi = max(lo, -(top // -a)), min(hi, r // -a)
                elif not 0 <= r < bound:
                    break
            else:
                if lo <= hi:
                    yield c, lo, hi

    return rows()


def fundamental_domain_reduce(ideal, x: FieldElement, N: int):
    """Reduce x modulo N * ideal into the scaled fundamental domain
    N * G, where G = sum (-1/2, 1/2] eta_i over the ideal basis.

    Exact: with c the basis coordinates of x, the shift is m_i =
    ceil(c_i / N - 1/2), giving coordinates in (-N/2, N/2].  Returns
    (reduced, shift) with x = reduced + shift and shift in N * ideal.
    """
    m = [math.ceil(ci / N - Fraction(1, 2)) for ci in ideal.coords(x)]
    shift = ideal.element_at([mi * N for mi in m])
    return x - shift, shift


def in_scaled_domain(ideal, x: FieldElement, N: int) -> bool:
    """Is x in N * G for the ideal's fundamental domain G?  N is an int or
    a float, taken exactly."""
    half = Fraction(N) / 2
    return all(-half < ci <= half for ci in ideal.coords(x))


def admissible_modulus(w: int) -> int:
    """W = prod_{p <= w} p (the primorial cut at w)."""
    return math.prod(primerange(2, w + 1))
