"""Exact integer linear algebra helpers (tiny dimensions).

Everything here works on plain lists/tuples of ints; matrices are
row-major.  Dimensions never exceed the field degree (<= 4) or small
multiples of it, so the simple algorithms below are plenty.  An inverse
is never formed: callers use the adjugate and the determinant, A^-1 =
adj(A) / det(A).
"""

from __future__ import annotations


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


def echelon_mod_p(rows, p, order):
    """Row echelon form over F_p of the integer rows, taking the pivot
    columns in the given order: a list of (column, row) pairs, each row 1
    at its column and every later row 0 there."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    for col in order:
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[col], -1, p)
        piv = [x * inv % p for x in piv]
        for r in rows:
            f = r[col]
            if f:
                r[:] = [(x - f * y) % p for x, y in zip(r, piv)]
        out.append((col, piv))
    return out


def det_int(mat):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    if len(mat) == 2:  # the quadratic fields' norms, without elimination
        (a, b), (c, d) = mat
        return a * d - b * c
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(mat):
    """The integer adjugate of a square integer matrix by cofactors,
    adj(A)_ij = (-1)^(i+j) det(A without row j and column i), so that
    adj(A) A = det(A) I."""
    n = len(mat)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * det_int([row[:i] + row[i + 1:]
                                        for k, row in enumerate(mat) if k != j])
             for j in range(n)] for i in range(n)]
