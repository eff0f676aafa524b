"""Exact integer/rational linear algebra helpers (tiny dimensions).

Everything here works on plain lists/tuples of ints or Fractions; matrices
are row-major.  Dimensions never exceed the field degree (<= 4) or small
multiples of it, so the simple algorithms below are plenty.
"""

from __future__ import annotations

import math
from fractions import Fraction


def hnf(rows, n):
    """Canonical row-style Hermite normal form of the lattice spanned by
    integer `rows` in Z^n: upper triangular, positive pivots, entries above
    each pivot reduced into [0, pivot).  Raises ValueError if the rows do
    not span a rank-n lattice."""
    mat = [list(map(int, r)) for r in rows if any(r)]
    basis = []
    for col in range(n):
        live = [r for r in mat if r[col] != 0]
        rest = [r for r in mat if r[col] == 0]
        if not live:
            raise ValueError("rows do not span a full-rank lattice")
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            nxt = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    nxt.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = nxt
        pivot = live[0]
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        basis.append(pivot)
        mat = rest
    # reduce entries above each pivot; ascending order so damage to the
    # right of the current column is repaired by later passes
    for i in range(n):
        for j in range(i):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return tuple(tuple(r) for r in basis)


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


def det_fraction(mat):
    """Determinant of a square matrix of Fractions/ints."""
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


def common_denominator(rows):
    d = 1
    for row in rows:
        for x in row:
            f = Fraction(x)
            d = d * f.denominator // math.gcd(d, f.denominator)
    return d
