"""Repeat the benchmark over seeds and record medians, quartiles, spreads.

    python3 bench/baseline.py [--workloads a,b] [--seeds 10] [--first-seed 1]
        [--seconds S] [--trace] [--out BENCH.json]

Runs bench/run.py once per (workload, seed) from the current directory,
with BENCHMARK.json's run_seconds unless --seconds is given.  For every
end-to-end metric it prints the median of the per-run values, their
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to a third of the metric's bound.  --trace adds one traced run per
workload on seed 0 for the per-layer numbers.  --out writes everything,
with the report sha256 values and the machine context, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_out", workload, "summary.json")) as fh:
        summary = json.load(fh)
    summary["elapsed_s"] = time.monotonic() - t0
    return result, summary


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def context():
    import numpy
    import scipy
    import sympy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sympy": sympy.__version__, "machine": platform.machine(),
            "git_sha": sha}


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    opts = ap.parse_args()

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seeds = list(range(opts.first_seed, opts.first_seed + opts.seeds))
    record = {"context": context(), "run_seconds": opts.seconds,
              "seeds": seeds, "workloads": {}}
    ok = True
    for name in opts.workloads.split(","):
        runs = [bench(name, seed, opts.seconds, False) for seed in seeds]
        entry = {"argv": runs[0][1]["argv"],
                 "attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs),
                 "all_correct": all(r["correct"] for r, _ in runs),
                 "report_sha256": {str(s["seed"]): s["report_sha256"]
                                   for _, s in runs},
                 "samples": {str(s["seed"]): s["samples"] for _, s in runs},
                 "raw_medians": {str(s["seed"]): s["raw"] for _, s in runs},
                 "elapsed_s": [s["elapsed_s"] for _, s in runs],
                 "end_to_end": {}}
        if "--workers" in entry["argv"]:
            workers = entry["argv"][entry["argv"].index("--workers") + 1]
            entry["note"] = (f"ran with --workers {workers} on "
                             f"{os.cpu_count()} cores")
        ok &= entry["all_correct"]
        print(f"{name}: {' '.join(entry['argv'])}")
        print(f"  {'failed_frac':<12} {entry['failed'] / entry['attempted']:.4f}"
              f"        {entry['failed']} of {entry['attempted']} runs; "
              f"{max(entry['elapsed_s']):.0f} s longest benchmark run")
        for metric, m in e2e.items():
            vals = [r["metrics"][metric]["value"] for r, _ in runs]
            units = {r["metrics"][metric]["unit"] for r, _ in runs}
            ok &= units == {m["unit"]}
            st = entry["end_to_end"][metric] = stats(vals)
            print(f"  {metric:<12} median {st['median']:.4f} {m['unit']:<3} "
                  f"q1 {st['q1']:.4f} q3 {st['q3']:.4f} spread "
                  f"{st['spread']:.4f} (bound/3 {m['bound'] / 3:.4f})")
        if opts.trace:
            result, summary = bench(name, 0, opts.seconds, True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != layer_units:
                ok = False
                print(f"  per-layer metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(layer_units))}")
            entry["per_layer_seed0"] = {k: v["value"] for k, v in
                                        result["metrics"].items()}
            entry["report_sha256"]["0"] = summary["report_sha256"]
            entry["traced_correct"] = result["correct"]
            ok &= result["correct"]
        record["workloads"][name] = entry
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
