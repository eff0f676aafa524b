"""Prime constellation search: truncated residue classes of an ideal all
of whose points generate prime ideals, certificate verification, and the
pigeonhole alpha-scan over a prime-norm window.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, fields
from fractions import Fraction

from .correlation import pattern_points
from .errors import BudgetExceededError
from .ideals import (FractionalIdeal, enumerate_prime_ideals, factor_ideal,
                     is_prime_vector, principal_generator)
from .lattice import (ball_elements, fundamental_domain_reduce,
                      iter_ball_elements)
from .numberfield import FieldElement, NumberField, make_field, minkowski_norm
from .sieve import SieveConfig, lambda_of_primes


@dataclass
class ConstellationSpec:
    K: NumberField
    ambient: FractionalIdeal
    k: float                    # pattern = O_K cap B_k
    anchor_bound: float         # search |a|_Min <= anchor_bound
    step_bound: float           # search 0 < |xi|_Min <= step_bound
    max_hits: int = None

    def pattern(self):
        pts = pattern_points(self.K, self.k)
        if not pts:
            raise ValueError("empty pattern")
        return pts


@dataclass
class Certificate:
    field: str
    ambient: dict
    k: float
    anchor: list        # coordinate strings
    step: list
    points: list        # list of coordinate-string lists
    radius: float
    witnesses: list     # per-point prime data {p, g, e, f}

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls(**json.loads(text))


def _coords_out(x: FieldElement):
    return [str(c) for c in x.coords]


# the form _coords_out writes: an integer, or a fraction with a positive
# denominator
_COORD = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _coords_in(K, coords):
    """A list of coordinate strings of the form _coords_out writes;
    ValueError for anything else (exponents, decimal points, whitespace,
    non-strings), so a coordinate costs no more than its digits, which
    Python's int-string limit bounds."""
    if not (isinstance(coords, list)
            and all(isinstance(c, str) and _COORD.fullmatch(c)
                    for c in coords)):
        raise ValueError("coordinates are integer or fraction strings")
    return K.element(coords)


def _witness(K, ambient, pt):
    """Prime data {p, g, e, f} of the prime ideal (pt) b^{-1}."""
    (P, _), = factor_ideal(FractionalIdeal.principal(K, pt)
                           * ambient.inverse()).factors
    return P.to_json()


def make_certificate(K, ambient, k, a, xi, pattern) -> Certificate:
    pts = [a + xi * j for j in pattern]
    witnesses = [_witness(K, ambient, pt) for pt in pts]
    return Certificate(K.name, ambient.to_json(), k, _coords_out(a),
                       _coords_out(xi), [_coords_out(p) for p in pts],
                       _radius(K, xi, pattern), witnesses)


def _radius(K, xi, pattern):
    """The certified radius: the largest |xi j|, widened by 1e-9."""
    return max(minkowski_norm(K, xi * j) for j in pattern) + 1e-9


def search_constellation(spec: ConstellationSpec, budget: int = 10**7):
    """All (a, xi) hits in deterministic order: increasing step Minkowski
    norm, then increasing anchor norm (ties by coordinates).

    The candidates a + xi j are integer numerator vectors over the
    ambient's denominator: each step's offsets xi j are multiplied once,
    each candidate is one vector sum, and each distinct one gets one
    is_prime_vector test.  Only hits become field elements again."""
    K, b = spec.K, spec.ambient
    pattern = spec.pattern()
    steps = [x for x in ball_elements(K, b, spec.step_bound * (1 + 1e-12),
                                      budget=budget) if x]
    steps.sort(key=lambda x: (minkowski_norm(K, x), x.coords))
    anchors = ball_elements(K, b, spec.anchor_bound * (1 + 1e-12),
                            budget=budget)
    anchors.sort(key=lambda x: (minkowski_norm(K, x), x.coords))
    anchor_nums = [b.numerators(a) for a in anchors]
    pattern_nums = [j.num for j in pattern]  # O_K: den 1
    hits = []
    prime = {}  # candidate numerators -> is_prime_vector, for this call only

    def is_prime(v):
        if v not in prime:
            prime[v] = is_prime_vector(K, b, v)
        return prime[v]

    for xi in steps:
        xi_num = b.numerators(xi)
        offsets = [K.mul(xi_num, j) for j in pattern_nums]
        for a, a_num in zip(anchors, anchor_nums):
            if all(is_prime(tuple(map(operator.add, a_num, off)))
                   for off in offsets):
                hits.append(make_certificate(K, b, spec.k, a, xi, pattern))
                if spec.max_hits and len(hits) >= spec.max_hits:
                    return hits
    return hits


def verify_certificate(cert: Certificate):
    """Re-derive every claim from scratch.  Returns (ok, diagnoses); a
    value that does not decode to its field object, a k that is not a
    finite number > 0, a radius that is not finite, or a zero step, is
    diagnosed as "schema"."""
    diagnoses = []
    try:
        K = make_field(cert.field)
    except Exception:
        return False, ["field"]
    try:
        ambient = FractionalIdeal.from_json(K, cert.ambient)
        a = _coords_in(K, cert.anchor)
        xi = _coords_in(K, cert.step)
        given = [_coords_in(K, p) for p in cert.points]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (cert.k, cert.radius)):
            raise TypeError("k and radius are numbers")
        if not (0 < cert.k < math.inf and -math.inf < cert.radius < math.inf):
            raise ValueError("k is finite and > 0, radius finite")
        if not xi:
            raise ValueError("a zero step generates the zero ideal")
    except (TypeError, ValueError, KeyError, OverflowError,
            ZeroDivisionError):
        return False, ["schema"]
    # the pattern is enumerated up to one point more than the certificate
    # lists: a longer one fails "pattern" whatever it holds, and its radius
    # is not re-derived
    pattern = list(itertools.islice(
        iter_ball_elements(K, FractionalIdeal.unit_ideal(K), cert.k),
        len(given) + 1))
    expected = [a + xi * j for j in pattern]
    if sorted(p.coords for p in expected) != sorted(p.coords for p in given):
        diagnoses.append("pattern")
    if len(pattern) <= len(given):
        # the points are a + xi j (else "pattern"), so each |pt - a| is
        # below the radius once it is the one make_certificate derives
        try:
            radius = _radius(K, xi, pattern)
        except OverflowError:  # |xi j|^2 beyond the float range
            radius = math.inf
        if cert.radius != radius:
            diagnoses.append("metric")
    derived = []
    step_ideal = FractionalIdeal.principal(K, xi) * ambient
    for pt in given:
        # one membership test: is_prime_vector's, None for a non-member
        v = ambient.numerators(pt)
        prime = None if v is None else is_prime_vector(K, ambient, v)
        if prime is None:
            diagnoses.append("membership")
            continue
        if not step_ideal.contains(pt - a):
            diagnoses.append("congruence")
        if not prime:
            diagnoses.append("primality")
        else:
            derived.append(_witness(K, ambient, pt))
    # the witnesses are compared when every point passed the prime check
    if len(derived) == len(given) and derived != cert.witnesses:
        diagnoses.append("witness")
    return (not diagnoses), diagnoses


def verify_line(text: str):
    """verify_certificate on one JSON certificate line; a line that is not
    JSON (or holds a number beyond Python's int-string limit), whose keys
    are not exactly the certificate fields, or whose values have the wrong
    type, is diagnosed as "schema"."""
    try:
        obj = json.loads(text)
    except ValueError:  # json.JSONDecodeError is a ValueError
        return False, ["schema"]
    if not isinstance(obj, dict) \
            or set(obj) != {f.name for f in fields(Certificate)}:
        return False, ["schema"]
    return verify_certificate(Certificate(**obj))


@dataclass
class AlphaScanResult:
    masses: dict          # alpha key -> Fraction mass (exact sums of floats)
    total: Fraction
    maximizer: tuple
    window: tuple
    W: int
    count: int

    def partition_exact(self) -> bool:
        return sum(self.masses.values(), Fraction(0)) == self.total


def alpha_scan(cfg: SieveConfig, window, budget: int = 10**6) -> AlphaScanResult:
    """Bin Lambda_{K,R}^2 masses of prime ideals in the class of the
    inverse ambient ideal by the residue alpha in (W G) cap b of the
    canonical generator (principal_generator) of the principal ideal P b.

    Masses are accumulated as exact rationals (each float Lambda^2 value
    converts exactly), so the partition identity is zero-tolerance.
    """
    K = cfg.K
    lo, hi = window
    if hi > budget * 10:
        raise BudgetExceededError("window exceeds enumeration budget")
    masses = {}
    total = Fraction(0)
    count = 0
    for P in enumerate_prime_ideals(K, hi):
        if P.norm() < lo:
            continue
        if math.gcd(P.norm(), cfg.W) != 1:
            continue
        pb = P.ideal() * cfg.ambient
        xi = principal_generator(pb)
        if xi is None:
            continue  # prime not in the class of the inverse ambient ideal
        alpha, _ = fundamental_domain_reduce(K, cfg.ambient, xi, cfg.W)
        lam = lambda_of_primes(K, (P,), cfg.R, cfg.phi)
        mass = Fraction(lam) ** 2
        key = tuple(str(c) for c in alpha.coords)
        masses[key] = masses.get(key, Fraction(0)) + mass
        total += mass
        count += 1
    if not masses:
        raise ValueError("no primes of the required class in the window")
    maximizer = max(sorted(masses), key=lambda k: masses[k])
    return AlphaScanResult(masses, total, maximizer, (lo, hi), cfg.W, count)
