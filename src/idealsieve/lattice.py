"""Lattice geometry under the Minkowski embedding.

An ideal is a full-rank Z-lattice in K; this module enumerates lattice
points in balls and parallelotopes and reduces elements into the scaled
fundamental domain of the power basis.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .linalg import mat_inv_fraction
from .numberfield import (FieldElement, NumberField, embedding_coords,
                          minkowski_norm_precise)


class LatticeBasis:
    """Z-basis of a fractional ideal with cached float embedding data."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.K = ideal.K
        n = self.K.degree
        self.rows = [[Fraction(x, ideal.den) for x in row] for row in ideal.mat]
        self.rows_inv = mat_inv_fraction(self.rows)
        self.elements = ideal.basis_elements()
        # embedding matrix: row i = real embedding coords of basis element i
        self.B = np.array([embedding_coords(self.K, b) for b in self.elements],
                          dtype=float)
        w = np.array(_mink_weights(self.K), dtype=float)
        self.gram = (self.B * w) @ self.B.T

    def coords_of(self, x: FieldElement):
        """Exact coordinates of x in this basis (Fractions)."""
        n = self.K.degree
        return [sum(Fraction(x.coords[c]) * self.rows_inv[c][r]
                    for c in range(n)) for r in range(n)]

    def element_at(self, coeffs) -> FieldElement:
        acc = self.K.zero
        for c, b in zip(coeffs, self.elements):
            if c:
                acc = acc + b * self.K.element(c)
        return acc


def _mink_weights(K):
    return [1] * K.r1 + [2] * (2 * K.r2)


def ball_elements(K: NumberField, ideal, radius: float, budget: int = 10**7):
    """All lattice points of the ideal with Minkowski norm < radius.

    Box bound from the inverse embedding matrix, float norm filter with a
    1e-9 relative margin, and an exact-precision recheck for points within
    the margin of the boundary.
    """
    if radius <= 0:
        return []
    L = LatticeBasis(ideal)
    n = K.degree
    w = np.sqrt(np.array(_mink_weights(K), dtype=float))
    M = L.B * w  # rows: weighted embedding of basis vectors
    Minv = np.linalg.inv(M)
    # a = v M^{-1} for a row vector v, so |a_i| <= ||column i of M^{-1}|| * radius
    bounds = np.linalg.norm(Minv, axis=0) * radius * (1 + 1e-9)
    total = 1
    for b in bounds:
        total *= 2 * int(math.floor(b)) + 1
        if total > budget:
            raise BudgetExceededError(
                f"ball enumeration box has {total}+ candidates (budget {budget})")
    out = []
    ranges = [range(-int(math.floor(b)), int(math.floor(b)) + 1) for b in bounds]
    r2 = radius * radius
    for coeffs in itertools.product(*ranges):
        v = np.asarray(coeffs, dtype=float) @ M
        q = float(v @ v)
        if q < r2 * (1 - 1e-9):
            out.append(L.element_at(coeffs))
        elif q < r2 * (1 + 1e-9):
            x = L.element_at(coeffs)
            if minkowski_norm_precise(K, x) < radius:
                out.append(x)
    out.sort(key=lambda x: tuple(x.coords))
    return out


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


def points_in_parallelotope(ideal, box: Parallelotope, budget: int = 10**7,
                            tol: Fraction = Fraction(0)):
    """Lattice points of the ideal inside the half-open parallelotope.

    Exact rational arithmetic: a point x qualifies iff the coordinates t of
    x - origin in the edge basis satisfy -tol <= t_i < 1 - tol.
    """
    K = ideal.K
    n = K.degree
    L = LatticeBasis(ideal)
    E = [[Fraction(c) for c in u.coords] for u in box.edges]
    Einv = mat_inv_fraction(E)
    # box of candidates: corners of the parallelotope in lattice coordinates
    corners = []
    for mask in itertools.product((0, 1), repeat=n):
        pt = [Fraction(box.origin.coords[j])
              + sum(mask[i] * E[i][j] for i in range(n)) for j in range(n)]
        corners.append([sum(pt[c] * L.rows_inv[c][r] for c in range(n))
                        for r in range(n)])
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
        x = L.element_at(coeffs)
        d = [Fraction(x.coords[j]) - o[j] for j in range(n)]
        t = [sum(d[c] * Einv[c][r] for c in range(n)) for r in range(n)]
        if all(-tol <= ti < 1 - tol for ti in t):
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
    L = LatticeBasis(ideal)
    c = L.coords_of(x)
    m = [_ceil_frac(ci / N - Fraction(1, 2)) for ci in c]
    shift = L.element_at([mi * N for mi in m])
    return x - shift, shift


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def in_scaled_domain(K: NumberField, ideal, x: FieldElement, N: int) -> bool:
    """Is x in N * G for the ideal's fundamental domain G?"""
    L = LatticeBasis(ideal)
    c = L.coords_of(x)
    half = Fraction(N, 2)
    return all(-half < ci <= half for ci in c)


def admissible_modulus(w: int) -> int:
    """W = prod_{p <= w} p (the primorial cut at w)."""
    import sympy

    prod = 1
    for p in sympy.primerange(2, w + 1):
        prod *= p
    return prod
