"""Microbenchmarks of the primitives under the CLI workloads.

    python3 bench/micro.py --src SRC --result OUT.json [--cphi]

Each primitive runs on fixed inputs (random.Random(1)).  Every repetition
starts from cleared module caches and fresh objects, built outside the
timed region, so no cache hit is timed; timeit times one pass over the
batch and the median over repetitions is reported per call.  With --cphi
the process only times c_phi and reports its own peak RSS, so that the
RSS is c_phi's alone on top of the import.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import timeit

REPEAT = 5


def per_call(make_batch, op, repeat=REPEAT):
    """Median seconds per element of op over fresh batches."""
    samples = []
    for _ in range(repeat):
        batch = make_batch()
        t = timeit.Timer(lambda: op(batch)).timeit(number=1)
        samples.append(t / len(batch))
    return statistics.median(samples)


def primitives():
    from idealsieve import correlation, ideals, lattice, linalg, sieve
    from idealsieve.cli import _square_region
    from idealsieve.correlation import LinearFormSystem
    from idealsieve.ideals import FractionalIdeal
    from idealsieve.numberfield import field_by_name

    rng = random.Random(1)
    Q, Qi = field_by_name("Q"), field_by_name("Q(i)")

    def clear_caches():
        ideals._FACTOR_CACHE.clear()
        ideals.factor_rational_prime.cache_clear()
        ideals._prime_ideal_lattice.cache_clear()
        sieve._lambda_cached.cache_clear()
        correlation._omega_cached_key.cache_clear()
        correlation._FORMS_REGISTRY.clear()

    def element(lo=-30, hi=30):
        while True:
            x = Qi.element([rng.randint(lo, hi), rng.randint(lo, hi)])
            if x:
                return x

    def fresh(ideal_list):
        # New objects: FractionalIdeal caches its basis and inverse.
        clear_caches()
        return [FractionalIdeal(I.K, I.mat, I.den) for I in ideal_list]

    def full_rank(rows):
        return any(rows[a][0] * rows[b][1] != rows[a][1] * rows[b][0]
                   for a in range(4) for b in range(a + 1, 4))

    pairs = [(element(-50, 50), element(-50, 50)) for _ in range(2000)]
    mats = [m for m in ([[rng.randint(-1000, 1000) for _ in range(2)]
                         for _ in range(4)] for _ in range(600))
            if full_rank(m)][:500]
    principal = [FractionalIdeal.principal(Qi, element()) for _ in range(400)]
    members = [(principal[i % 50], element(-200, 200)) for i in range(2000)]
    forms = LinearFormSystem(Qi, [[1, 1], [1, -1]], shifts=[0, 1])
    omega_args = [(P, marks)
                  for p in (5, 13, 17)
                  for P in ideals.factor_rational_prime(Qi, p)
                  for marks in ((True, True), (True, False))]
    series_forms = LinearFormSystem(Q, [[1, 0], [0, 1]])
    region = _square_region(Qi).scaled(20)
    unit = FractionalIdeal.unit_ideal(Qi)

    def cleared(batch):
        clear_caches()
        return batch

    def factored(ideal_list):
        batch = fresh(ideal_list)
        for I in batch:
            ideals.factor_ideal(I)
        sieve._lambda_cached.cache_clear()
        return batch

    us, ms = 1e6, 1e3
    return {
        "numberfield.mul.micro_us": (us, lambda: pairs,
                                     lambda b: [x * y for x, y in b]),
        "linalg.hnf.micro_us": (us, lambda: mats,
                                lambda b: [linalg.hnf(m, 2) for m in b]),
        "ideals.ideal_mul.micro_us": (
            us, lambda: list(zip(fresh(principal[:200]),
                                 fresh(principal[200:]))),
            lambda b: [I * J for I, J in b]),
        "ideals.inverse.micro_us": (
            us, lambda: fresh(principal[:200]),
            lambda b: [I.inverse() for I in b]),
        "ideals.contains.micro_us": (
            us, lambda: members, lambda b: [I.contains(x) for I, x in b]),
        "ideals.factor_ideal.micro_us": (
            us, lambda: fresh(principal[:100]),
            lambda b: [ideals.factor_ideal(I) for I in b]),
        "lattice.ball_elements.micro_ms": (
            ms, lambda: [15.0],
            lambda b: [lattice.ball_elements(Qi, unit, r) for r in b]),
        "lattice.points_in_parallelotope.micro_ms": (
            ms, lambda: [region],
            lambda b: [lattice.points_in_parallelotope(unit, r) for r in b]),
        "sieve.lambda_R.micro_us": (
            us, lambda: factored(principal[:300]),
            lambda b: [sieve.lambda_R(I, 1e4) for I in b]),
        "correlation.local_factor_omega.micro_ms": (
            ms, lambda: cleared(omega_args),
            lambda b: [correlation.local_factor_omega(forms, P, mk, 6, 1)
                       for P, mk in b]),
        "correlation.singular_series_direct.micro_ms": (
            ms, lambda: cleared([1000.0]),
            lambda b: [correlation.singular_series_direct(series_forms, R, 6)
                       for R in b]),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--cphi", action="store_true")
    opts = ap.parse_args()
    sys.path.insert(0, os.path.abspath(opts.src))

    out = {}
    if opts.cphi:
        from idealsieve import sieve
        out["sieve.c_phi.micro_s"] = per_call(lambda: [None],
                                              lambda b: sieve.c_phi(),
                                              repeat=3)
        out["sieve.c_phi.rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        for name, (scale, make_batch, op) in primitives().items():
            out[name] = per_call(make_batch, op) * scale
    with open(opts.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
