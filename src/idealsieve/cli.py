"""Batch command-line front end.

Flat key=value config files (# comments) feed experiment parameters: each
line becomes the flag --key with the value's whitespace-split tokens, ahead
of the command line's own flags, so CLI flags override file values.
Reports are JSON lines, optionally mirrored to CSV with columns x,
empirical, predicted, ratio.  Exit codes: 0 ok, 1 a well-formed
certificate failed verification, 2 usage error or only malformed
("schema") certificate lines, 3 budget exhausted, 4 internal error (an
unexpected exception; its traceback goes to stderr).  Runs are
single-threaded; --workers is accepted and leaves every report unchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import traceback
from fractions import Fraction

from .constellation import (ConstellationSpec, alpha_scan,
                            search_constellation, verify_line)
from .correlation import (LinearFormSystem, auto_correlation_check,
                          cross_correlation_sum, hypergraph_conditions_report,
                          report_line, singular_series_direct,
                          singular_series_main_term)
from .errors import BudgetExceededError, IdealSieveError
from .ideals import FractionalIdeal, enumerate_prime_ideals, mobius
from .lattice import Parallelotope, fundamental_domain_reduce
from .numberfield import field_by_name
from .sieve import SieveConfig, c_phi, lambda_R

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def sieve_level(text):
    """A --R value: a finite float R > 1, so that log R > 0."""
    R = float(text)
    if not 1 < R < math.inf:
        raise argparse.ArgumentTypeError(
            f"R must be finite and > 1, got {text}")
    return R


def positive_int(text):
    """An integer >= 1."""
    N = int(text)
    if N < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return N


def non_negative_int(text):
    """An integer >= 0."""
    N = int(text)
    if N < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return N


def positive_float(text):
    """A finite float > 0: a radius, a bound or a scale."""
    x = float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}")
    return x


def read_config(path):
    """Flat key = value file with # comments."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, rows):
    if not getattr(args, "csv", None):
        return
    with open(args.csv, "w") as fh:
        fh.write("x,empirical,predicted,ratio\n")
        for x, emp, pred in rows:
            ratio = emp / pred if pred else math.inf
            fh.write(f"{x},{emp!r},{pred!r},{ratio!r}\n")


def _field(args):
    return field_by_name(args.field)


def cmd_primes(args):
    K = _field(args)
    lines = [json.dumps({"op": "prime", "p": P.p, "g": list(P.gpoly),
                         "e": P.e, "f": P.f, "norm": P.norm(),
                         "params": {"field": K.name, "bound": args.bound}},
                        sort_keys=True)
             for P in enumerate_prime_ideals(K, args.bound)]
    _emit(args, lines)
    return EXIT_OK


def cmd_mobius(args):
    K = _field(args)
    lines = []
    for m in range(1, args.bound + 1):
        a = FractionalIdeal.principal(K, K.element(m))
        lines.append(json.dumps({"op": "mobius", "m": m, "mu": mobius(a),
                                 "params": {"field": K.name}},
                                sort_keys=True))
    _emit(args, lines)
    return EXIT_OK


def cmd_lambda(args):
    K = _field(args)
    lines = []
    rows = []
    for P in enumerate_prime_ideals(K, args.bound):
        val = lambda_R(P.ideal(), args.R)
        lines.append(report_line("lambda", val, 1.0,
                                 {"field": K.name, "R": args.R,
                                  "norm": P.norm(), "p": P.p,
                                  "g": list(P.gpoly)}))
        rows.append((P.norm(), val, 1.0))
    _emit(args, lines)
    _emit_csv(args, rows)
    return EXIT_OK


def cmd_cphi(args):
    c = c_phi()
    _emit(args, [report_line("cphi", c, c, {})])
    return EXIT_OK


def _square_region(K):
    edges = [K.theta_power(j) for j in range(K.degree)]
    origin = K.zero
    for e in edges:
        origin = origin - e * Fraction(1, 2)
    return Parallelotope(K, origin, edges)


def _random_forms(K, rng, s, m):
    while True:
        coeffs = [[K.element([rng.randint(-2, 2) for _ in range(K.degree)])
                   for _ in range(m)] for _ in range(s)]
        try:
            return LinearFormSystem(K, coeffs,
                                    shifts=[K.element(rng.randint(-3, 3))
                                            for _ in range(s)])
        except ValueError:
            continue


def cmd_correlate(args):
    K = _field(args)
    if args.s > 1 and args.m < 2:
        raise ValueError(
            "pairwise non-proportional forms need m >= 2 once s >= 2")
    rng = random.Random(args.seed)
    forms = _random_forms(K, rng, args.s, args.m)
    region = _square_region(K)
    rep = cross_correlation_sum(forms, region, args.lam, lambda x: 1.0)
    _emit(args, [rep.to_json()])
    _emit_csv(args, [(args.lam, rep.empirical, rep.predicted)])
    return EXIT_OK


def cmd_singular_series(args):
    K = _field(args)
    forms = LinearFormSystem(
        K, [[int(i == j) for j in range(args.s)] for i in range(args.s)])
    lines, rows = [], []
    for R in args.R:
        S = singular_series_direct(forms, R, args.W)
        main = singular_series_main_term(forms, R, args.W)
        lines.append(report_line("singular_series", S, main,
                                 {"field": K.name, "R": R, "W": args.W,
                                  "s": args.s}))
        rows.append((R, S, main))
    _emit(args, lines)
    _emit_csv(args, rows)
    return EXIT_OK


def cmd_autocorr(args):
    K = _field(args)
    cfg = SieveConfig(K, N=args.N, s=args.s, w=args.w)
    y = [K.element(v) for v in args.y]
    rep = auto_correlation_check(y, _square_region(K), cfg)
    _emit(args, [rep.to_json()])
    return EXIT_OK


def cmd_hypergraph(args):
    import numpy as np

    K = _field(args)
    cfg = SieveConfig(K, N=args.N, k=args.k, w=args.w)
    # a read-only view of one 1.0: no memory before the state budget check
    ones = np.broadcast_to(1.0, (args.N,) * K.degree)
    rep = hypergraph_conditions_report(cfg, ones)
    _emit(args, [json.dumps(dict(rep, op="hypergraph"), sort_keys=True)])
    return EXIT_OK


def cmd_search(args):
    K = _field(args)
    spec = ConstellationSpec(K, FractionalIdeal.unit_ideal(K), args.k,
                             anchor_bound=args.anchor_bound,
                             step_bound=args.step_bound,
                             max_hits=args.max_hits)
    hits = search_constellation(spec)
    _emit(args, [h.to_json() for h in hits])
    return EXIT_OK


def cmd_verify(args):
    ok_all = schema_only = True
    lines = []
    with open(args.certificate) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            ok, diag = verify_line(line)
            ok_all &= ok
            schema_only &= ok or diag == ["schema"]
            lines.append(json.dumps({"op": "verify", "ok": ok,
                                     "diagnoses": diag}, sort_keys=True))
    _emit(args, lines)
    return EXIT_OK if ok_all else EXIT_USAGE if schema_only else EXIT_VERIFY


def cmd_alpha_scan(args):
    K = _field(args)
    cfg = SieveConfig(K, N=args.window[1], w=args.w, logR=math.log(args.R))
    res = alpha_scan(cfg, tuple(args.window))
    masses = {",".join(k): float(v) for k, v in sorted(res.masses.items())}
    _emit(args, [json.dumps({"op": "alpha_scan", "masses": masses,
                             "total": float(res.total),
                             "maximizer": list(res.maximizer),
                             "count": res.count,
                             "partition_exact": res.partition_exact(),
                             "params": {"field": K.name, "W": cfg.W,
                                        "window": list(args.window)}},
                            sort_keys=True)])
    return EXIT_OK


def cmd_residue(args):
    K = _field(args)
    x = K.element(args.x)
    ideal = FractionalIdeal.unit_ideal(K)
    red, shift = fundamental_domain_reduce(K, ideal, x, args.N)
    _emit(args, [json.dumps({"op": "residue",
                             "x": [str(c) for c in x.coords],
                             "reduced": [str(c) for c in red.coords],
                             "shift": [str(c) for c in shift.coords],
                             "N": args.N}, sort_keys=True)])
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(prog="idealsieve")
    top.add_argument("--config", help="flat key=value config file")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--workers", type=int, default=1,
                     help="accepted and ignored: runs are single-threaded")
    top.add_argument("--output", help="report file (default stdout)")
    top.add_argument("--csv", help="CSV mirror of the report")
    sub = top.add_subparsers(dest="command")
    top.commands = sub.choices

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--field", default="Q")
        return p

    p = add("primes", cmd_primes)
    p.add_argument("--bound", type=int, default=100)
    p = add("mobius", cmd_mobius)
    p.add_argument("--bound", type=int, default=50)
    p = add("lambda", cmd_lambda)
    p.add_argument("--bound", type=int, default=200)
    p.add_argument("--R", type=sieve_level, default=50.0)
    add("cphi", cmd_cphi)
    p = add("correlate", cmd_correlate)
    p.add_argument("--s", type=positive_int, default=2)
    p.add_argument("--m", type=positive_int, default=2)
    p.add_argument("--lam", type=positive_float, default=12.0)
    p = add("singular-series", cmd_singular_series)
    p.add_argument("--s", type=positive_int, default=2)
    p.add_argument("--W", type=int, default=6)
    p.add_argument("--R", type=sieve_level, nargs="+", default=[100.0])
    p = add("autocorr", cmd_autocorr)
    p.add_argument("--N", type=positive_int, default=500)
    p.add_argument("--s", type=positive_int, default=2)
    p.add_argument("--w", type=int, default=3)
    p.add_argument("--y", type=int, nargs="+", default=[0, 2])
    p = add("hypergraph", cmd_hypergraph)
    p.add_argument("--N", type=positive_int, default=101)
    p.add_argument("--k", type=positive_float, default=1.5)
    p.add_argument("--w", type=int, default=3)
    p = add("search", cmd_search)
    p.add_argument("--k", type=positive_float, default=1.5,
                   help="the pattern is O_K cap B_k; for k <= |1| = "
                   "sqrt(degree) (1 in Q, 1.41 in the quadratic fields, 2 "
                   "in Q(zeta5)) it is the one point 0, so the default 1.5 "
                   "certifies single prime elements in Q(zeta5)")
    p.add_argument("--anchor-bound", type=positive_float, default=100.0)
    p.add_argument("--step-bound", type=positive_float, default=12.0)
    p.add_argument("--max-hits", type=non_negative_int, default=10,
                   help="stop after this many hits; 0 means no limit")
    p = add("verify", cmd_verify)
    p.add_argument("certificate")
    p = add("alpha-scan", cmd_alpha_scan)
    p.add_argument("--w", type=int, default=3)
    p.add_argument("--R", type=sieve_level, default=50.0)
    p.add_argument("--window", type=int, nargs=2, default=[100, 10000])
    p = add("residue", cmd_residue)
    p.add_argument("--x", type=int, default=17)
    p.add_argument("--N", type=positive_int, default=10)
    return top


def _config_argv(parser, argv, command, cfg):
    """argv with each config line `key = value` spliced in as --key plus the
    value's tokens: top-level flags first, the subcommand's flags right
    after its name, so the command line's own flags come later and win.
    Keys that name no flag of either parser are ignored."""
    head, tail = [], []
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag in parser._option_string_actions:
            head += [flag] + val.split()
        elif flag in parser.commands[command]._option_string_actions:
            tail += [flag] + val.split()
    # every top-level option takes one value, so the subcommand is the
    # first token that is neither an option nor an option's value
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return head + argv[:i + 1] + tail + argv[i + 1:]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:  # argparse exits 2 on a rejected value and 0 after --help
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) and args.config:
            cfg = read_config(args.config)
            args = parser.parse_args(
                _config_argv(parser, argv, args.command, cfg))
    except SystemExit as exc:
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IdealSieveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
