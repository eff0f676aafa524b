"""Batch command-line front end: idealsieve [flags] command [its flags].

Flat key=value config files (# comments) feed experiment parameters: each
line becomes the flag --key with the value's whitespace-split tokens, ahead
of the command line's flags of the same parser, so CLI flags override file
values; a key that names no flag of either parser is ignored.
Reports are JSON lines, optionally mirrored to CSV with columns x,
empirical, predicted, ratio.  Each line is written as it is made, but
verify holds its lines until the last verdict, which the exit code needs,
and singular-series until every --R is checked, so that a budget error
leaves no report.  Exit codes: 0 ok, 1 a well-formed certificate failed
verification, 2 usage error or only malformed ("schema") certificate
lines, 3 budget exhausted (no report), 4 internal error (an unexpected
exception, its traceback on stderr; the report may be partial).  Runs are
single-threaded; --workers is accepted and leaves every report unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from .constellation import (Certificate, ConstellationSpec, alpha_scan,
                            iter_constellation, verify_line)
from .correlation import (LinearFormSystem, auto_correlation_check,
                          check_level, cross_correlation_sum,
                          hypergraph_conditions_report, report_line,
                          singular_series_direct, singular_series_main_term)
from .errors import (ENUMERATION_BUDGET, FACTOR_BUDGET, BudgetExceededError,
                     IdealSieveError, check_budget)
from .ideals import FractionalIdeal, enumerate_prime_ideals, mobius_sieve
from .lattice import Parallelotope, fundamental_domain_reduce
from .numberfield import field_by_name
from .sieve import SieveConfig, c_phi, lambda_of_norms

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _at_least(cast, least, strict=False):
    """An argparse type: cast(text), finite and >= least (> least if
    strict); NaN and +-inf are rejected with the bound named."""
    def check(text):
        x = cast(text)
        if not ((least < x if strict else least <= x) and x < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {'finite and ' if cast is float else ''}"
                f"{'>' if strict else '>='} {least}, got {text}")
        return x

    check.__name__ = cast.__name__  # argparse: "invalid int value: ..."
    return check


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


def _one_file(a, b):
    with contextlib.suppress(OSError):  # either may not exist yet
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _emit(args, lines, x=None):
    """Write the report lines, from any iterable, as they arrive (an empty
    report is one newline), and with --csv mirror each line's params[x],
    empirical, predicted and ratio, read back off its JSON.  --output, then
    --csv, opens first: a crash leaves a partial report.  Neither may name
    the other, the --config file or the certificate file."""
    named = [("--output", args.output), ("--csv", x and args.csv),
             ("--config", args.config),
             ("the certificate", getattr(args, "certificate", None))]
    for i, (flag, path) in enumerate(named[:2]):
        for other, used in named[i + 1:]:
            if path and used and _one_file(path, used):
                raise ValueError(f"{flag} and {other} name one file: {used}")
    with contextlib.ExitStack() as files:
        out = (files.enter_context(open(args.output, "w")) if args.output
               else sys.stdout)
        csv = x and args.csv and files.enter_context(open(args.csv, "w"))
        if csv:
            csv.write("x,empirical,predicted,ratio\n")
        sep = ""  # "\n".join(lines) + "\n", a line at a time
        for line in lines:
            out.write(sep + line)
            sep = "\n"
            if csv:
                r = json.loads(line)
                csv.write(f"{r['params'][x]},{r['empirical']!r},"
                          f"{r['predicted']!r},{r['ratio']!r}\n")
        out.write("\n")
    return EXIT_OK


def _template(sample):
    """json.dumps(sample, sort_keys=True) as a %-format, from one dumps in
    which each value given as ... is the string NUL + key: that value is
    the field %(key)s, to be filled with its JSON text (an int's str)."""
    slots = []

    def mark(obj):
        return {k: mark(v) if isinstance(v, dict) else v if v is not ...
                else slots.append(k) or "\0" + k for k, v in obj.items()}
    text = json.dumps(mark(sample), sort_keys=True).replace("%", "%%")
    for k in slots:
        text = text.replace('"\\u0000%s"' % k, "%%(%s)s" % k)
    return text


def _float(x):
    """json's text of the float x: float.__repr__, or its spellings."""
    return (float.__repr__(x) if math.isfinite(x) else "NaN" if x != x
            else "Infinity" if x > 0 else "-Infinity")


def _ints(v):
    return "[%s]" % ", ".join(map(str, v))


def _strings(v):
    """json's text of a list of strings that need no escaping."""
    return '["%s"]' % '", "'.join(v) if v else "[]"


def cmd_primes(args):
    K = field_by_name(args.field)
    line = _template({"op": "prime", "p": ..., "g": ..., "e": ..., "f": ...,
                      "norm": ..., "params": {"field": K.name,
                                              "bound": args.bound}})
    return _emit(args, (line % {"p": P.p, "g": _ints(P.gpoly), "e": P.e,
                                "f": P.f, "norm": P.norm()}
                        for P in enumerate_prime_ideals(K, args.bound)))


def cmd_mobius(args):
    K = field_by_name(args.field)
    check_budget("the bound", args.bound, ENUMERATION_BUDGET)
    check_budget(f"N(({args.bound})) =", max(args.bound, 0) ** K.degree,
                 FACTOR_BUDGET)
    mu = mobius_sieve(K, args.bound)
    line = _template({"op": "mobius", "m": ..., "mu": ...,
                      "params": {"field": K.name}})
    return _emit(args, (line % {"m": m, "mu": mu[m]}
                        for m in range(1, args.bound + 1)))


def cmd_lambda(args):
    K = field_by_name(args.field)
    # report_line("lambda", Lambda, 1.0, params): its ratio is Lambda
    line = _template({"op": "lambda", "empirical": ..., "predicted": 1.0,
                      "ratio": ..., "params": {"field": K.name, "R": args.R,
                                               "norm": ..., "p": ...,
                                               "g": ...}})
    lams = ((P, _float(lambda_of_norms((P.norm(),), args.R)))
            for P in enumerate_prime_ideals(K, args.bound))
    return _emit(args, (line % {"empirical": x, "ratio": x, "norm": P.norm(),
                                "p": P.p, "g": _ints(P.gpoly)}
                        for P, x in lams), "norm")


def cmd_cphi(args):
    c = c_phi()
    return _emit(args, [report_line("cphi", c, c, {})])


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
    K = field_by_name(args.field)
    if args.s > 1 and args.m < 2:
        raise ValueError(
            "pairwise non-proportional forms need m >= 2 once s >= 2")
    rng = random.Random(args.seed)
    forms = _random_forms(K, rng, args.s, args.m)
    region = _square_region(K)
    rep = cross_correlation_sum(forms, region, args.lam, lambda x: 1.0)
    return _emit(args, [rep.to_json()], "lambda")


def cmd_singular_series(args):
    K = field_by_name(args.field)
    shape = argparse.Namespace(K=K, s=args.s)  # all the main term reads

    def main_term(R):
        check_level(K, R)  # R's budget (exit 3) before its main term (exit 2)
        try:
            return singular_series_main_term(shape, R, args.W)
        except OverflowError:
            raise ValueError(f"the main term at --s {args.s} --W {args.W} "
                             f"--R {R} is past the float range") from None

    mains = list(map(main_term, args.R))  # before any form is built
    forms = LinearFormSystem(K, [[K.one if i == j else K.zero
                                  for j in range(args.s)]
                                 for i in range(args.s)])
    # a list: an error at a later --R leaves no report behind
    lines = [report_line("singular_series",
                         singular_series_direct(forms, R, args.W), main,
                         {"field": K.name, "R": R, "W": args.W, "s": args.s})
             for R, main in zip(args.R, mains)]
    return _emit(args, lines, "R")


def cmd_autocorr(args):
    K = field_by_name(args.field)
    cfg = SieveConfig(K, N=args.N, s=args.s, w=args.w)
    y = [K.element(v) for v in args.y]
    rep = auto_correlation_check(y, _square_region(K), cfg)
    return _emit(args, [rep.to_json()])


def cmd_hypergraph(args):
    import numpy as np

    K = field_by_name(args.field)
    cfg = SieveConfig(K, N=args.N, k=args.k, w=args.w)
    # a read-only view of one 1.0: no memory before the state budget check,
    # but numpy refuses an array of more than intp's maximum bytes
    limit = np.iinfo(np.intp).max // 8
    if args.N ** K.degree > limit:
        raise BudgetExceededError(f"{args.N}^{K.degree} residues exceed "
                                  f"numpy's array size limit {limit}")
    ones = np.broadcast_to(1.0, (args.N,) * K.degree)
    rep = hypergraph_conditions_report(cfg, ones)
    return _emit(args, [json.dumps(dict(rep, op="hypergraph"),
                                   sort_keys=True)])


def _certificate_lines(spec, hits):
    """Each hit's to_json(): field, ambient and k are the spec's, encoded
    once; the coordinates are _coords_out's strings, which need no
    escaping; and each witness prime's text is written once."""
    line = _template(dict(dict.fromkeys(Certificate.__slots__, ...),
                          field=spec.K.name, ambient=spec.ambient.to_json(),
                          k=spec.k))
    witness, primes = _template(dict.fromkeys("pgef", ...)), {}
    for h in hits:
        texts = []
        for w in h.witnesses:
            key = (w["p"], w["e"], w["f"], *w["g"])
            if key not in primes:
                primes[key] = witness % dict(w, g=_ints(w["g"]))
            texts.append(primes[key])
        yield line % {"anchor": _strings(h.anchor), "step": _strings(h.step),
                      "points": '[["%s"]]' % '"], ["'.join(
                          map('", "'.join, h.points)),
                      "radius": _float(h.radius),
                      "witnesses": "[%s]" % ", ".join(texts)}


def cmd_search(args):
    K = field_by_name(args.field)
    spec = ConstellationSpec(K, FractionalIdeal.unit_ideal(K), args.k,
                             anchor_bound=args.anchor_bound,
                             step_bound=args.step_bound)
    hits = itertools.islice(iter_constellation(spec), args.max_hits or None)
    return _emit(args, _certificate_lines(spec, hits))


def cmd_verify(args):
    ok_all = schema_only = True
    lines = []  # the exit code needs every verdict before the report
    verdict = {ok: _template({"op": "verify", "ok": ok, "diagnoses": ...})
               for ok in (True, False)}
    with open(args.certificate) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            ok, diag = verify_line(line)
            ok_all &= ok
            schema_only &= ok or diag == ["schema"]
            lines.append(verdict[ok] % {"diagnoses": _strings(diag)})
    _emit(args, lines)
    return EXIT_OK if ok_all else EXIT_USAGE if schema_only else EXIT_VERIFY


def cmd_alpha_scan(args):
    K = field_by_name(args.field)
    cfg = SieveConfig(K, N=args.window[1], w=args.w, logR=math.log(args.R))
    res = alpha_scan(cfg, tuple(args.window))
    masses = {",".join(k): float(v) for k, v in sorted(res.masses.items())}
    line = json.dumps({"op": "alpha_scan", "masses": masses,
                       "total": float(res.total),
                       "maximizer": list(res.maximizer),
                       "count": res.count,
                       "partition_exact": res.partition_exact(),
                       "params": {"field": K.name, "W": cfg.W,
                                  "window": list(args.window)}},
                      sort_keys=True)
    return _emit(args, [line])


def cmd_residue(args):
    K = field_by_name(args.field)
    x = K.element(args.x)
    ideal = FractionalIdeal.unit_ideal(K)
    red, shift = fundamental_domain_reduce(ideal, x, args.N)
    line = json.dumps({"op": "residue", "x": [str(c) for c in x.coords],
                       "reduced": [str(c) for c in red.coords],
                       "shift": [str(c) for c in shift.coords],
                       "N": args.N}, sort_keys=True)
    return _emit(args, [line])


def _arg(cast, default, **kw):
    """The add_argument keywords of a flag of type cast."""
    return dict(kw, type=cast, default=default)


# --R > 1 and autocorr's --N >= 2 keep the sieve level's log R > 0
_LEVEL = _at_least(float, 1, strict=True)
_POSITIVE, _COUNT = _at_least(float, 0, strict=True), _at_least(int, 1)

# the flags given before the command's name
TOP_FLAGS = {
    "--config": dict(help="flat key=value config file"),
    "--seed": _arg(int, 0),
    "--workers": _arg(int, 1, help="accepted and ignored: runs are "
                      "single-threaded"),
    "--output": dict(help="report file (default stdout)"),
    "--csv": dict(help="CSV mirror of the report, written only by lambda, "
                  "singular-series and correlate"),
}

# Each command: its function, the dests of its size flags (named by the
# budget error) and its arguments' add_argument keywords, besides --field.
COMMANDS = {
    "primes": (cmd_primes, ("bound",), {"--bound": _arg(int, 100)}),
    "mobius": (cmd_mobius, ("bound",), {"--bound": _arg(int, 50)}),
    "lambda": (cmd_lambda, ("bound",), {"--bound": _arg(int, 200),
                                        "--R": _arg(_LEVEL, 50.0)}),
    "cphi": (cmd_cphi, (), {}),
    "correlate": (cmd_correlate, ("m", "lam"), {
        "--s": _arg(_COUNT, 2), "--m": _arg(_COUNT, 2),
        "--lam": _arg(_POSITIVE, 12.0)}),
    "singular-series": (cmd_singular_series, ("s", "R"), {
        "--s": _arg(_COUNT, 2), "--W": _arg(int, 6),
        "--R": _arg(_LEVEL, (100.0,), nargs="+")}),
    "autocorr": (cmd_autocorr, ("N", "y"), {
        "--N": _arg(_at_least(int, 2), 500), "--s": _arg(_COUNT, 2),
        "--w": _arg(int, 3), "--y": _arg(int, (0, 2), nargs="+")}),
    "hypergraph": (cmd_hypergraph, ("N", "k"), {
        "--N": _arg(_COUNT, 101), "--k": _arg(_POSITIVE, 1.5),
        "--w": _arg(int, 3)}),
    "search": (cmd_search, ("anchor_bound", "step_bound", "k"), {
        "--k": _arg(_POSITIVE, 1.5, help="the pattern is O_K cap B_k; for k "
                    "<= |1| = sqrt(degree) (1 in Q, 1.41 in the quadratic "
                    "fields, 2 in Q(zeta5)) it is the one point 0, so the "
                    "default 1.5 certifies single prime elements in Q(zeta5)"),
        "--anchor-bound": _arg(_POSITIVE, 100.0),
        "--step-bound": _arg(_POSITIVE, 12.0),
        "--max-hits": _arg(_at_least(int, 0), 10, help="stop after this "
                           "many hits; 0 means no limit")}),
    "verify": (cmd_verify, (), {"certificate": {}}),
    "alpha-scan": (cmd_alpha_scan, ("window",), {
        "--w": _arg(int, 3), "--R": _arg(_LEVEL, 50.0),
        "--window": _arg(int, (100, 10000), nargs=2)}),
    "residue": (cmd_residue, (), {"--x": _arg(int, 17),
                                  "--N": _arg(_COUNT, 10)}),
}
_FIELD = {"--field": dict(default="Q")}  # every command's, after its name


def _table_args(argv):
    """_parse_args's result read straight off the tables, or None for
    argparse: --help, --config, a positional, an inexact flag, or a value
    that starts with "-", is missing or fails its type."""
    args, flags, rest = {}, TOP_FLAGS, list(argv)
    while rest:
        flag = rest.pop(0)
        if flags is TOP_FLAGS and flag in COMMANDS:
            command, flags = [flag, *rest], {**_FIELD, **COMMANDS[flag][2]}
            continue
        kw = flags.get(flag)
        if kw is None or flag == "--config":
            return None
        run = next((j for j, tok in enumerate(rest) if tok[:1] == "-"),
                   len(rest))
        count = run if kw.get("nargs") == "+" else kw.get("nargs", 1)
        if not 0 < count <= run:
            return None
        try:
            values = [kw.get("type", str)(tok) for tok in rest[:count]]
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        args[flag] = values if "nargs" in kw else values[0]
        del rest[:count]
    if flags is TOP_FLAGS or not all(f[:2] == "--" for f in flags):
        return None  # no command, or verify's positional certificate
    return COMMANDS[command[0]], argparse.Namespace(command=command, **{
        f[2:].replace("-", "_"): args.get(f, kw.get("default"))
        for f, kw in {**TOP_FLAGS, **flags}.items()})


def _parse_args(argv):
    """(the command's table entry, the namespace): the top-level flags and
    the command's name, then the command's own arguments, each parser's
    config lines ahead of its command-line flags."""
    top = argparse.ArgumentParser(prog="idealsieve")
    for flag, kw in TOP_FLAGS.items():
        top.add_argument(flag, **kw)
    # the name and every token after it, as a subparsers action takes them
    top.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS)
    args = top.parse_args(argv)
    name = args.command[0]
    sub = argparse.ArgumentParser(prog=f"idealsieve {name}")
    arguments = {**_FIELD, **COMMANDS[name][2]}
    for flag, kw in arguments.items():
        sub.add_argument(flag, **kw)
    sub.parse_args(args.command[1:], args)  # --help needs no config file
    if args.config:
        cfg = [["--" + key.replace("_", "-"), *val.split()]
               for key, val in read_config(args.config).items()]
        head, tail = ([token for line in cfg if line[0] in flags
                       for token in line] for flags in (TOP_FLAGS, arguments))
        args = top.parse_args(head + argv)
        sub.parse_args(tail + args.command[1:], args)
    return COMMANDS[name], args


def _flag_text(args, name):
    """--name and its value as typed, a list's items space-separated."""
    value = getattr(args, name)
    items = value if isinstance(value, (list, tuple)) else [value]
    return " ".join(["--" + name.replace("_", "-"), *map(str, items)])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:  # argparse exits 2 on a rejected value and 0 after --help
        (fn, sizes, _), args = _table_args(argv) or _parse_args(argv)
    except SystemExit as exc:
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return fn(args)
    except BudgetExceededError as exc:
        sizes = ", ".join(_flag_text(args, name) for name in sizes)
        # a size past 30 digits prints as its first digits and power of ten
        text = re.sub(r"\d{31,}", lambda d: f"{d[0][0]}.{d[0][1:4]}e"
                      f"{len(d[0]) - 1}", str(exc))
        print(f"budget exceeded: {sizes + ': ' if sizes else ''}{text}",
              file=sys.stderr)
        return EXIT_BUDGET
    except (IdealSieveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only a crash needs it: off the start-up path
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
