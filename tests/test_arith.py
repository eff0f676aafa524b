"""The exact integer primitives against sympy, which is the oracle here
and is not imported by the package."""

import random
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from idealsieve import arith

# composites that fool weaker tests: strong pseudoprimes to base 2 (the
# last three to every prime base up to 23, 37 and 41), Carmichael numbers
# and strong Lucas pseudoprimes
SPSP2 = [2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747,
         3474749660383, 341550071728321, 3825123056546413051,
         318665857834031151167461, 3317044064679887385961981]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161]
SLPSP = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
         58519, 75077, 97439]
MR_LIMIT = 3317044064679887385961981


def _special():
    rng = random.Random(0)
    big = [sympy.nextprime(MR_LIMIT + rng.getrandbits(40)) for _ in range(3)]
    return (SPSP2 + CARMICHAEL + SLPSP + big
            + [p * q for p in big for q in big]
            + [p ** 2 for p in big] + [7 ** 30, 1009 ** 9, MR_LIMIT - 1,
                                       MR_LIMIT + 1])


integers = st.one_of(st.integers(-10, 10**6), st.integers(0, 2**64),
                     st.integers(MR_LIMIT - 10**6, 2**200),
                     st.sampled_from(_special()))


@settings(max_examples=600, deadline=None)
@given(n=integers)
def test_isprime_matches_sympy(n):
    assert arith.isprime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", SPSP2 + CARMICHAEL + SLPSP)
def test_pseudoprimes_are_composite(n):
    assert not arith.isprime(n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**6).map(lambda k: 2 * k + 1))
@example(n=max(SLPSP))
def test_strong_lucas_matches_sympy(n):
    assert arith._strong_lucas(n) == is_strong_lucas_prp(n)


@pytest.mark.parametrize("n", SLPSP)
def test_strong_lucas_pseudoprimes_pass(n):
    assert arith._strong_lucas(n)


# products of a few primes of mixed sizes, with repeats and high powers
factored = st.lists(
    st.tuples(st.one_of(st.integers(2, 10**4), st.integers(2, 2**40))
              .map(sympy.nextprime), st.integers(1, 4)),
    min_size=0, max_size=3)


@settings(max_examples=150, deadline=None)
@given(parts=factored)
@example(parts=[(sympy.nextprime(2**45), 2)])
@example(parts=[(sympy.nextprime(2**45), 3)])
@example(parts=[(1009, 2), (sympy.nextprime(2**30), 6)])
def test_factorint_matches_sympy(parts):
    n = 1
    for p, e in parts:
        n *= p ** e
    got = arith.factorint(n)
    assert got == sympy.factorint(n)
    assert list(got) == sorted(got)


def test_factorint_prime_power_fast():
    # rho alone needs about 2^23 steps on the square of a 46-bit prime;
    # the perfect-power check finds it at once
    p = 2**45 + 59
    t = time.perf_counter()
    assert arith.factorint(p ** 2) == {p: 2}
    assert arith.factorint(1009 * p ** 3) == {1009: 1, p: 3}
    assert time.perf_counter() - t < 0.1


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**12))
def test_factorint_small_matches_sympy(n):
    assert arith.factorint(n) == sympy.factorint(n)


def _around_breaks():
    """For each prime p < 1000, where trial division stops (p^2 > n):
    p^2 and its neighbours, p q, p q r and p^2 q with q, r the primes after
    p, and the same with q, r the first primes past 1000."""
    small = list(sympy.primerange(2, 1000))
    big = list(sympy.primerange(1000, 1100))
    out = set()
    for i, p in enumerate(small):
        q, r = (small + big)[i + 1:i + 3]
        out |= {p * p - 1, p * p, p * p + 1, p * q, p * q - 2, p * q + 2,
                p * q * r, p * p * q, p * big[0], p * big[0] * big[1]}
    return sorted(out)


def test_trial_division_breaks_match_sympy():
    for n in _around_breaks():
        assert arith.isprime(n) == sympy.isprime(n), n
        assert arith.factorint(n) == sympy.factorint(n), n


def test_factorint_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            arith.factorint(n)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-5, 3000), b=st.integers(-5, 3000))
def test_primerange_matches_sympy(a, b):
    assert arith.primerange(a, b) == list(sympy.primerange(a, b))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 25, 26, 997, 1000])
def test_prime_flags_match_sympy(n):
    flags = arith.prime_flags(n)
    assert len(flags) == n + 1
    assert [k for k in range(n + 1) if flags[k]] \
        == list(sympy.primerange(0, n + 1))


def test_primerange_large():
    assert arith.primerange(10**6 - 1000, 10**6 + 1000) \
        == list(sympy.primerange(10**6 - 1000, 10**6 + 1000))
    assert len(arith.primerange(2, 10**6)) == 78498


primes = st.one_of(st.sampled_from(list(sympy.primerange(2, 200))),
                   st.integers(200, 2**80).map(sympy.nextprime))


@settings(max_examples=300, deadline=None)
@given(p=primes, a=st.integers(0, 2**80))
def test_sqrt_mod_matches_sympy(p, a):
    ref = sympy.sqrt_mod(a, p)
    if ref is None:
        with pytest.raises(ValueError):
            arith.sqrt_mod(a, p)
    else:
        assert arith.sqrt_mod(a, p) == ref


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 2**300), k=st.integers(1, 7))
def test_iroot_is_floor_root(n, k):
    r = arith.iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
