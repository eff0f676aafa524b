"""Fraction routes that the integer ideal arithmetic replaced, kept as
test oracles.

- `gauss_jordan_coords`: coordinates on an ideal's Z-basis through the
  Gauss-Jordan inverse of its basis matrix.
- `from_rows`: the ideal spanned by rational rows, over their common
  denominator.
- `mul_oracle`, `add_oracle`, `inverse_oracle`: product, sum and inverse
  from the basis elements, multiplied as field elements and rebuilt by
  `from_rows`.
"""

import math
from fractions import Fraction

from idealsieve.ideals import FractionalIdeal
from idealsieve.linalg import hnf, mat_inv_fraction


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
