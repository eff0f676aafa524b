"""Exact integer primitives: primes, factorisation and square roots mod p.

Only what the package calls lives here.  Every routine is deterministic,
so the same input always takes the same path and returns the same value.
"""

from __future__ import annotations

import itertools
import math


def prime_flags(n):
    """A bytearray of length n + 1 >= 1, 1 at the primes (Eratosthenes)."""
    sieve = bytearray(min(n + 1, 2)) + bytearray([1]) * (n - 1)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(n // i - i + 1)
    return sieve


def primerange(a, b):
    """The primes p with a <= p < b, ascending."""
    lo, sieve = max(a, 2), prime_flags(max(b - 1, 0))
    return list(itertools.compress(range(lo, b), memoryview(sieve)[lo:]))


_SMALL_PRIMES = primerange(2, 1000)
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster, Math. Comp. 2017); below it those bases decide primality
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test for odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D|n) = -1,
    P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q^k mod n by binary doubling from k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n):
    """Primality of an integer: trial division below 1000 up to sqrt(n),
    then Miller-Rabin on the bases 2..41 (deterministic below _MR_LIMIT), and
    the Baillie-PSW test (strong base 2 plus strong Lucas) above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < 1000 * 1000:
        return True
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas(n)


def iroot(n, k):
    """floor(n^(1/k)) for integers n >= 0, k >= 1."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent(n):
    """A proper factor of an odd composite n (Pollard-Brent rho, the maps
    y -> y^2 + c for c = 1, 2, ... in turn)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n):
    """Prime factorisation {p: e} of an integer n >= 1, ascending in p:
    trial division below 1000 up to sqrt(n), then a perfect-power check,
    then Pollard-Brent rho on what is left (if it is not 1 or prime)."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    todo = [(n, 1)] if n > 1 else []
    while todo:
        m, k = todo.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + k
            continue
        # m has no prime factor below 1000, so m = r^j needs 1000^j <= m
        for j in primerange(2, m.bit_length() // 9 + 1):
            r = iroot(m, j)
            if r ** j == m:
                todo.append((r, k * j))
                break
        else:
            d = _brent(m)
            todo += [(d, k), (m // d, k)]
    return dict(sorted(out.items()))


def sqrt_mod(a, p):
    """The square root r <= p // 2 of a modulo a prime p (Tonelli-Shanks);
    ValueError if a is not a square mod p."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)
