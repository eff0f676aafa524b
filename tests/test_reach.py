"""Reachability: which definitions in src/idealsieve/ a run of the CLI
reaches, and why each one it does not reach is kept.

One fresh interpreter turns sys.setprofile on before `import
idealsieve.cli` (the COMMANDS table and its argparse types are built
while cli is imported), runs _GRID through cli.main and prints every code
object whose frame ran.  A code object is matched to its `def` by file
and first line: the def's line, or its first decorator's, which is what
co_firstlineno holds, so methods and nested functions are told apart
without co_qualname.

Every definition the grid does not reach is in UNREACHED with one reason,
the first of these that applies:

- "criterion": an acceptance test reaches it, and tests/test_acceptance.py
  names it;
- "bench": a bench script calls or wraps it, and a file under bench/
  names it;
- "api": the importable API reaches it: its module-level def or class is
  re-exported by the package, or named in the source of one that the
  re-exports reach (ROADMAP item 13 decides on that surface);
- "oracle": only tests reach it, and a test names it.

The name looked for is the def's own, or for a function nested in
another, that function's.  The test fails on an unreached definition with
no entry, on an entry that the grid now reaches or that no longer exists,
and on a reason whose condition does not hold.  To add an entry, run the
test: its message lists each missing name.
"""

import ast
import json
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "idealsieve"
TESTS = SRC.parent.parent / "tests"
BENCH = SRC.parent.parent / "bench"

# a one-point Q(zeta5) pattern (k = 1.5 <= |1| = 2) at theta + 1360005,
# whose norm is a prime past arith._MR_LIMIT, so that isprime runs the
# strong Lucas test
_BIG_PRIME_CERTIFICATE = (
    '{"ambient": {"den": 1, "hnf": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, '
    '0], [0, 0, 0, 1]]}, "anchor": ["1360005", "1", "0", "0"], "field": '
    '"Q(zeta5)", "k": 1.5, "points": [["1360005", "1", "0", "0"]], '
    '"radius": 1e-09, "step": ["1", "0", "0", "0"], "witnesses": [{"e": 1, '
    '"f": 1, "g": [1360005, 1], "p": 3421067953915546190240521}]}\n')


def _per_field(field, tag):
    """(exit code, argv) of every command over one field, at sizes that
    run in a fraction of a second; verify reads the search's report."""
    return [(code, ["--output", f"{command}-{tag}.jsonl", command,
                    "--field", field, *rest])
            for code, command, rest in (
                (0, "primes", ["--bound", "60"]),
                (0, "mobius", ["--bound", "40"]),
                (0, "lambda", ["--bound", "60", "--R", "10"]),
                (0, "cphi", []),
                (0, "correlate", ["--lam", "2"]),
                (0, "singular-series", ["--R", "30"]),
                (0, "autocorr", ["--N", "5"]),
                (0, "hypergraph", ["--N", "3"]),
                (0, "search", ["--anchor-bound", "6", "--step-bound", "3"]),
                (0, "verify", [f"search-{tag}.jsonl"]),
                # alpha-scan needs a finite unit group: Q(zeta5) exits 2
                (2 if tag == "qzeta5" else 0, "alpha-scan",
                 ["--R", "10", "--window", "2", "300"]),
                (0, "residue", ["--x", "17"]))]


# (exit code, argv), run in order in one working directory
_GRID = _per_field("Q", "q") + _per_field("Q(i)", "qi") \
    + _per_field("Q(zeta5)", "qzeta5") + [
        (0, ["--help"]),
        (0, ["--config", "probe.cfg", "primes"]),
        (0, ["--output", "lambda.jsonl", "--csv", "lambda.csv", "lambda"]),
        (2, ["primes", "--bound", "many"]),
        (3, ["mobius", "--bound", "100000000"]),
        # the sieve is active only at a small W and s
        (0, ["--output", "sieve.jsonl", "autocorr", "--field", "Q", "--w",
             "1", "--s", "1", "--N", "100000"]),
        # tau_factor factors 1022117 = 1009 * 1013 by Pollard-Brent
        (0, ["--output", "brent.jsonl", "autocorr", "--y", "0", "1022117"]),
        (0, ["--output", "big.jsonl", "verify", "big-prime.jsonl"]),
    ]

_FILES = {"probe.cfg": "bound = 20  # primes of norm <= 20\n",
          "big-prime.jsonl": _BIG_PRIME_CERTIFICATE}

# The subprocess: the profiler records the code object of every frame
# that starts (a generator's on each resume), before cli is imported.
_PROBE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
ran = set()
def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)
sys.setprofile(hook)
import idealsieve.cli as cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "commands": sorted(cli.COMMANDS),
                  "ran": sorted({(c.co_filename, c.co_firstlineno)
                                 for c in ran
                                 if c.co_filename.startswith(sys.argv[1])})}))
"""


def _definitions():
    """{(path, first line): (qualname, name)} for every def under SRC,
    methods and nested functions included: qualname is
    "module.Class.method" or "module.function.inner", and name is the one
    a reason's condition looks for (see the module docstring)."""
    out = {}

    def walk(node, prefix, name, in_def):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", name, False)
            elif isinstance(child, ast.FunctionDef):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                own = name if in_def else child.name
                out[str(path), first] = (f"{prefix}.{child.name}", own)
                walk(child, f"{prefix}.{child.name}", own, True)
            else:
                walk(child, prefix, name, in_def)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, None, False)
    return out


def _words(paths):
    return {w for p in paths for w in re.findall(r"\w+", p.read_text())}


def _api_names():
    """The module-level names of src/ that the package's re-exports reach:
    the exported names, then every module-level def or class that the
    source of one already reached names."""
    init = SRC / "__init__.py"
    bodies = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name] = set(re.findall(
                    r"\w+", ast.get_source_segment(text, node)))
    todo = [alias.name for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]
    reached = set()
    while todo:
        name = todo.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            todo += bodies[name]
    return reached


def _probe(tmp_path):
    """The grid's exit codes, cli.COMMANDS and the (file, first line) of
    every code object that ran, from one fresh interpreter."""
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC.parent),
         json.dumps([argv for _, argv in _GRID])],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["codes"], out["commands"], set(map(tuple, out["ran"]))


# Every definition that no run of _GRID reaches, with its reason (see the
# module docstring); the names are _definitions' qualnames.
UNREACHED = {
    "__init__.cache_info": "oracle",
    "__init__.clear_caches": "oracle",
    "constellation.Certificate.__eq__": "api",
    "constellation.Certificate._items": "api",
    "constellation.Certificate.from_json": "api",
    "constellation.Certificate.to_json": "api",
    "constellation.ConstellationSpec.pattern": "api",
    "constellation.search_constellation": "criterion",
    "correlation.CorrelationReport.ratio": "api",
    "correlation.F_euler": "api",
    "correlation._omega_cached_key": "bench",
    "correlation._omega_cached_key.conditions": "bench",
    "correlation.local_factor_omega": "criterion",
    "correlation.omega_tuple": "api",
    "correlation.relative_density": "api",
    "correlation.singular_series_direct.g": "api",
    "correlation.squarefree_ideals": "api",
    "correlation.tau_weight": "api",
    "ideals.FractionalIdeal.__add__": "api",
    "ideals.FractionalIdeal.__mul__": "bench",
    "ideals.FractionalIdeal.__pow__": "api",
    "ideals.FractionalIdeal.__repr__": "api",
    "ideals.FractionalIdeal.contains_ideal": "api",
    "ideals.FractionalIdeal.from_generators": "api",
    "ideals.FractionalIdeal.inverse": "bench",
    "ideals.FractionalIdeal.is_integral": "api",
    "ideals.FractionalIdeal.principal": "bench",
    "ideals.IdealFactorization.product": "api",
    "ideals.PrimeIdeal.__repr__": "api",
    "ideals.PrimeIdeal.ideal": "criterion",
    "ideals.TruncatedClass.build": "api",
    "ideals.TruncatedClass.verify": "api",
    "ideals._prime_ideal_lattice": "bench",
    "ideals.class_equivalent": "api",
    "ideals.count_ideals": "criterion",
    "ideals.factor_ideal": "bench",
    "ideals.factor_rational_prime": "criterion",
    "ideals.is_prime_element": "bench",
    "ideals.mobius": "api",
    "ideals.prime_divisors": "api",
    "ideals.principal_generator": "bench",
    "lattice.ball_elements": "bench",
    "lattice.in_scaled_domain": "api",
    "lattice.points_in_parallelotope": "bench",
    "numberfield.FieldElement.__radd__": "api",
    "numberfield.FieldElement.__repr__": "api",
    "numberfield.FieldElement.__rmul__": "api",
    "numberfield.FieldElement.__rsub__": "api",
    "numberfield.NumberField.__repr__": "api",
    "sieve.BumpFunction.derivative": "api",
    "sieve._tanh_sinh": "api",
    "sieve._tanh_sinh.pair": "api",
    "sieve.lambda_R": "criterion",
    "sieve.lift_nu": "api",
    "sieve.nu_weight": "bench",
}


def test_every_unreached_definition_is_listed(tmp_path):
    codes, commands, ran = _probe(tmp_path)
    assert codes == [code for code, _ in _GRID]
    # every command runs over Q, Q(i) and Q(zeta5)
    for field in ("Q", "Q(i)", "Q(zeta5)"):
        assert {argv[i - 1] for _, argv in _GRID
                for i, flag in enumerate(argv)
                if flag == "--field" and argv[i + 1] == field} \
            == set(commands), field
    unreached = {qualname for key, (qualname, _) in _definitions().items()
                 if key not in ran}
    assert sorted(unreached - UNREACHED.keys()) == [], "unlisted"
    assert sorted(UNREACHED.keys() - unreached) == [], "reached or gone"


def test_every_listed_reason_holds():
    # criterion: the acceptance tests name it; bench: a bench script names
    # it; api: the package's re-exports reach it by name; oracle: a test
    # names it.  An unknown reason holds for nothing.
    names = {qualname: (name, qualname.split(".")[1])
             for qualname, name in _definitions().values()}
    holds = {
        "criterion": _words([TESTS / "test_acceptance.py"]),
        "bench": _words(BENCH.glob("*.py")),
        "oracle": _words(p for p in TESTS.glob("*.py")
                         if p.name != "test_reach.py")}
    api = _api_names()
    wrong = [(qualname, reason) for qualname, reason in UNREACHED.items()
             if qualname in names and not (
                 names[qualname][1] in api if reason == "api"
                 else names[qualname][0] in holds.get(reason, ()))]
    assert wrong == []
