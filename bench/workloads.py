"""The benchmark's CLI workloads: inputs from a seed, and output checks.

Seed 0 runs the pinned inputs, whose reports are committed under
reference/.  Other seeds change only an input whose cost does not depend
on it (alpha-scan's sieve --R, a second small singular-series R, the
second autocorr shift); search-qi has no such input and ignores the seed.
Parts of a report that do not depend on the seed are compared with the
reference on every seed; the rest is checked by self-checks (certificate
verifier, partition identity, worker determinism, main-term scaling).

A reference file is the seed-0 report written by
``python3 bench/child.py --src src --result /dev/null -- --output
bench/reference/NAME.jsonl ARGV``; rewrite one only for a change that is
meant to alter that report.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")

# Exact values (strings, ints, bools, keys) must match byte for byte;
# floats may move in the last digits (summation order, quadrature
# blocking), so they are compared to this relative tolerance.
REL_TOL = 1e-9


def compare(ref, got, where="report"):
    """Differences between two parsed JSON values, as readable strings."""
    if isinstance(ref, float) or isinstance(got, float):
        if (isinstance(ref, (int, float)) and isinstance(got, (int, float))
                and not isinstance(ref, bool) and not isinstance(got, bool)
                and math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0)):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in compare(r, g, f"{where}[{i}]")]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def parse(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def reference(name):
    with open(os.path.join(REFERENCE, f"{name}.jsonl")) as fh:
        return parse(fh.read())


class Workload:
    name = ""
    why = ""
    workers = 1

    def __init__(self, seed):
        self.seed = seed

    def argv(self):
        """CLI argv after the global flags."""
        raise NotImplementedError

    def cli_argv(self, workers=None):
        w = self.workers if workers is None else workers
        return (["--workers", str(w)] if w > 1 else []) + self.argv()

    def side_argv(self, report_path):
        """Extra CLI runs, outside the timed region, whose reports the
        check needs: name -> argv.  They run once, on the first report."""
        return {}

    def check(self, text, extra):
        """Problems with one report.  extra maps each side run's name to
        (the report it ran on, its own report)."""
        raise NotImplementedError


class SearchQi(Workload):
    name = "search-qi"
    why = ("constellation search over Q(i): ideal primality tests, "
           "FieldElement mul and hnf; writes the certificates")

    def argv(self):
        return ["search", "--field", "Q(i)", "--anchor-bound", "25",
                "--step-bound", "2.5", "--max-hits", "20"]

    def side_argv(self, report_path):
        return {"verify": ["verify", report_path]}

    def check(self, text, extra):
        lines = parse(text)
        problems = compare(reference(self.name), lines)
        verified, verdicts = extra.get("verify", (None, ""))
        verdicts = parse(verdicts)
        if verified != text:
            problems.append("verify: not run on this report")
        elif len(verdicts) != len(lines) or not all(v.get("ok") is True
                                                    for v in verdicts):
            problems.append(f"verify: {verdicts!r}")
        return problems


class AlphaScanQi(Workload):
    name = "alpha-scan-qi"
    why = ("alpha-scan pigeonhole partition over Q(i): bounded generator "
           "search through ball_elements, plus lambda_R")

    def sieve_R(self):
        return 50 if self.seed == 0 else 100 + (self.seed * 7919) % 1100

    def argv(self):
        return ["alpha-scan", "--field", "Q(i)", "--w", "2",
                "--window", "100", "1200", "--R", str(self.sieve_R())]

    def check(self, text, extra):
        ref, = reference(self.name)
        lines = parse(text)
        if len(lines) != 1:
            return [f"expected one line, got {len(lines)}"]
        got, = lines
        if self.seed == 0:
            return compare(ref, got)
        problems = []
        for key in ("count", "params", "op"):
            problems += compare(ref[key], got[key], key)
        problems += compare(sorted(ref["masses"]), sorted(got["masses"]),
                            "masses keys")
        if got["partition_exact"] is not True:
            problems.append("partition_exact is not true")
        if ",".join(got["maximizer"]) not in got["masses"]:
            problems.append("maximizer is not a key")
        if not math.isclose(math.fsum(got["masses"].values()), got["total"],
                            rel_tol=REL_TOL):
            problems.append("masses do not sum to total")
        return problems


class SingularSeriesQ(Workload):
    name = "singular-series-q"
    why = ("degree-1 singular series at R=5000: sympy mobius, the DxD lcm "
           "matrix and c_phi; touches no ideal or lattice code")

    def second_R(self):
        return 100 + (self.seed * 7919) % 900

    def argv(self):
        Rs = ["5000"] + ([] if self.seed == 0 else [str(self.second_R())])
        return ["singular-series", "--s", "2", "--R"] + Rs

    def check(self, text, extra):
        ref = reference(self.name)
        lines = parse(text)
        if len(lines) != (1 if self.seed == 0 else 2):
            return [f"unexpected line count {len(lines)}"]
        problems = compare(ref[0], lines[0], "line 0")
        if self.seed != 0:
            # The main term scales as (1 / log R)^s with s = 2.
            R2 = self.second_R()
            got = lines[1]
            want = ref[0]["predicted"] * (math.log(5000) / math.log(R2)) ** 2
            if not math.isclose(got["predicted"], want, rel_tol=REL_TOL):
                problems.append(f"main term at R={R2}: {got['predicted']!r}")
            if not (math.isfinite(got["empirical"]) and got["empirical"]):
                problems.append(f"singular series at R={R2}: "
                                f"{got['empirical']!r}")
            problems += compare(float(R2), got["params"]["R"], "line 1 R")
        return problems


class AutocorrQW2(Workload):
    name = "autocorr-q-w2"
    why = ("tau-weighted auto-correlation over Q with --workers 2 on 2 "
           "cores: points_in_parallelotope, nu_weight, c_phi per thread")
    workers = 2

    def shift(self):
        return 2 if self.seed == 0 else 1 + self.seed % 9

    def argv(self):
        return ["autocorr", "--N", "1000", "--s", "2",
                "--y", "0", str(self.shift())]

    def side_argv(self, report_path):
        return {"single_worker": self.cli_argv(workers=1)}

    def check(self, text, extra):
        ref, = reference(self.name)
        lines = parse(text)
        if len(lines) != 1:
            return [f"expected one line, got {len(lines)}"]
        got, = lines
        problems = []
        if extra.get("single_worker", (None, None))[1] != text:
            problems.append("--workers 2 report differs from --workers 1")
        if self.seed == 0:
            return problems + compare(ref, got)
        for key in ("op", "params", "sample_size"):
            problems += compare(ref[key], got[key], key)
        if not (got["empirical"] > 0 and got["predicted"] >= 4.0):
            problems.append(f"implausible report {got!r}")
        return problems


WORKLOADS = {w.name: w for w in (SearchQi, AlphaScanQi, SingularSeriesQ,
                                 AutocorrQW2)}
