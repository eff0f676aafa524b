"""Prime constellation search: truncated residue classes of an ideal all
of whose points generate prime ideals, certificate verification, and the
pigeonhole alpha-scan over a prime-norm window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import BudgetExceededError
from .ideals import (FractionalIdeal, enumerate_prime_ideals, factor_ideal,
                     is_prime_element, principal_generator)
from .lattice import ball_elements, fundamental_domain_reduce
from .numberfield import FieldElement, NumberField, make_field, minkowski_norm
from .sieve import SieveConfig, lambda_R


@dataclass
class ConstellationSpec:
    K: NumberField
    ambient: FractionalIdeal
    k: float                    # pattern = O_K cap B_k
    anchor_bound: float         # search |a|_Min <= anchor_bound
    step_bound: float           # search 0 < |xi|_Min <= step_bound
    modulus: FractionalIdeal = None
    max_hits: int = None

    def pattern(self):
        pts = ball_elements(self.K, FractionalIdeal.unit_ideal(self.K),
                            self.k)
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


def _coords_in(K, coords):
    return K.element([Fraction(c) for c in coords])


def _witness(K, ambient, pt):
    """Prime data {p, g, e, f} of the prime ideal (pt) b^{-1}."""
    (P, _), = factor_ideal(FractionalIdeal.principal(K, pt)
                           * ambient.inverse()).factors
    return P.to_json()


def make_certificate(K, ambient, k, a, xi, pattern) -> Certificate:
    pts = [a + xi * j for j in pattern]
    witnesses = [_witness(K, ambient, pt) for pt in pts]
    radius = max(minkowski_norm(K, xi * j) for j in pattern) + 1e-9
    return Certificate(K.name, ambient.to_json(), k, _coords_out(a),
                       _coords_out(xi), [_coords_out(p) for p in pts],
                       radius, witnesses)


def search_constellation(spec: ConstellationSpec, budget: int = 10**7):
    """All (a, xi) hits in deterministic order: increasing step Minkowski
    norm, then increasing anchor norm (ties by coordinates)."""
    K = spec.K
    pattern = spec.pattern()
    steps = [x for x in ball_elements(K, spec.ambient,
                                      spec.step_bound * (1 + 1e-12),
                                      budget=budget) if x]
    steps.sort(key=lambda x: (minkowski_norm(K, x), tuple(x.coords)))
    anchors = ball_elements(K, spec.ambient,
                            spec.anchor_bound * (1 + 1e-12), budget=budget)
    anchors.sort(key=lambda x: (minkowski_norm(K, x), tuple(x.coords)))
    hits = []
    for xi in steps:
        for a in anchors:
            ok = True
            for j in pattern:
                pt = a + xi * j
                if not pt or not is_prime_element(K, spec.ambient, pt):
                    ok = False
                    break
            if ok:
                hits.append(make_certificate(K, spec.ambient, spec.k, a, xi,
                                             pattern))
                if spec.max_hits and len(hits) >= spec.max_hits:
                    return hits
    return hits


def verify_certificate(cert: Certificate):
    """Re-derive every claim from scratch.  Returns (ok, diagnoses)."""
    diagnoses = []
    try:
        K = make_field(cert.field)
    except Exception:
        return False, ["field"]
    ambient = FractionalIdeal.from_json(K, cert.ambient)
    a = _coords_in(K, cert.anchor)
    xi = _coords_in(K, cert.step)
    pattern = ball_elements(K, FractionalIdeal.unit_ideal(K), cert.k)
    expected = [a + xi * j for j in pattern]
    given = [_coords_in(K, p) for p in cert.points]
    if sorted(tuple(p.coords) for p in expected) != \
            sorted(tuple(p.coords) for p in given):
        diagnoses.append("pattern")
    derived = []
    for pt in given:
        if not ambient.contains(pt):
            diagnoses.append("membership")
            continue
        if not (FractionalIdeal.principal(K, xi) * ambient).contains(pt - a) \
                and tuple(pt.coords) != tuple(a.coords):
            diagnoses.append("congruence")
        if minkowski_norm(K, pt - a) > cert.radius:
            diagnoses.append("metric")
        if not pt or not is_prime_element(K, ambient, pt):
            diagnoses.append("primality")
        else:
            derived.append(_witness(K, ambient, pt))
    # the witnesses are compared when every point passed the prime check
    if len(derived) == len(given) and derived != cert.witnesses:
        diagnoses.append("witness")
    return (not diagnoses), diagnoses


def verify_line(text: str):
    """verify_certificate on one JSON certificate line; a line whose keys
    are not exactly the certificate fields is diagnosed as "schema"."""
    obj = json.loads(text)
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
    inverse ambient ideal by the residue alpha in (W G) cap b of a bounded
    generator of the corresponding principal ideal.

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
        if P.norm() < lo or P.p == 0:
            continue
        if math.gcd(P.norm(), cfg.W) != 1:
            continue
        pb = P.ideal() * cfg.ambient
        xi = principal_generator(pb)
        if xi is None:
            continue  # prime not in the class of the inverse ambient ideal
        alpha, _ = fundamental_domain_reduce(K, cfg.ambient, xi, cfg.W)
        lam = lambda_R(P.ideal(), cfg.R, cfg.phi)
        mass = Fraction(lam) ** 2
        key = tuple(str(c) for c in alpha.coords)
        masses[key] = masses.get(key, Fraction(0)) + mass
        total += mass
        count += 1
    if not masses:
        raise ValueError("no primes of the required class in the window")
    maximizer = max(sorted(masses), key=lambda k: masses[k])
    return AlphaScanResult(masses, total, maximizer, (lo, hi), cfg.W, count)
