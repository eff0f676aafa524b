"""idealsieve benchmark: CLI workloads in fresh processes.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree; the program is imported from its
src/ directory (the package need not be installed).  One workload at a
time: a warm-up import (untimed, it fills the bytecode and file caches),
then fresh-process CLI runs until S seconds have passed (at least two),
then import-only processes until there are five set-up samples, then the
side runs the output checks need (certificate verifier, --workers 1).

End-to-end metrics (--trace 0), medians over the runs of this process:
  wall_s       interpreter start to exit of one CLI run
  setup_s      `import idealsieve.cli` inside that process
  run_s        time inside cli.main(argv)
  peak_rss_mb  the child's ru_maxrss
failed_frac (runs with a non-zero exit or a failed output check, over
runs attempted) is printed with them; the result line carries its parts
as "failed" and "attempted".

The times are calibrated: each child also times a fixed kernel
(calib.py) after its import and at its end, and its times are scaled by
CAL_REF_S over that kernel's mean time, i.e. reported in seconds at the
CPU speed where the kernel takes CAL_REF_S.  On a host whose cores are
shared with other machines the CPU speed drifts by tens of percent over
minutes; the kernel's time drifts with it, so the scaled times do not.
The unscaled medians are printed next to them.

With --trace 1 the same untimed runs are followed by one traced run (spans
from spans.py), whose report must equal the untraced one, and by the
primitive microbenchmarks of micro.py; the per-layer metrics are printed.
Per-layer and microbenchmark times are not calibrated.

Everything the runs write goes to .bench_out/<workload>/ in the tree.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 2
MIN_SETUP_SAMPLES = 5
BUDGET_S = 170            # every child is killed by then
CAL_REF_S = 0.25          # calib.calibrate() on the reference machine
UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class Unrunnable(Exception):
    """The program cannot be imported, so nothing can be measured."""


class Runner:
    def __init__(self, src, out_dir, deadline):
        self.src = src
        self.out = out_dir
        self.deadline = deadline

    def remaining(self):
        return self.deadline - time.monotonic()

    def child(self, tag, cli_argv=(), spans=False):
        """Run child.py in a fresh process; its result dict plus wall_s."""
        result = os.path.join(self.out, f"{tag}.result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--src", self.src, "--result", result]
        if spans:
            cmd += ["--spans", os.path.join(self.out, f"{tag}.spans.npz")]
        cmd += ["--", *cli_argv]
        timeout = self.remaining()
        if timeout <= 0:
            return {"rc": None, "error": "no time left"}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": "timed out"}
        wall = time.perf_counter() - t0
        try:
            with open(result) as fh:
                out = json.load(fh)
        except (OSError, ValueError):
            out = {"rc": proc.returncode}
        out["wall_s"] = wall
        if proc.returncode != 0:
            out["error"] = proc.stderr.decode(errors="replace")[-2000:]
        return out


def read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def speed_factor(res):
    """Reference over measured calibration time for one child process."""
    return CAL_REF_S / statistics.mean(res["cal_s"])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def spread(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run(wl, seconds, trace, runner):
    warm = runner.child("warmup")
    if warm.get("rc") != 0:
        raise Unrunnable(warm.get("error", "import failed"))

    runs = []
    t0 = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - t0 < seconds:
        if runner.remaining() <= 0:
            break
        i = len(runs)
        path = os.path.join(runner.out, f"run{i}.jsonl")
        res = runner.child(f"run{i}", ["--output", path, *wl.cli_argv()])
        res["report"] = read(path) if res.get("rc") == 0 else None
        runs.append(res)
    setup = [r for r in runs if "setup_s" in r]
    while len(setup) < MIN_SETUP_SAMPLES and runner.remaining() > 0:
        res = runner.child(f"import{len(setup)}")
        if res.get("rc") != 0:
            break
        setup.append(res)

    first = next((i for i, r in enumerate(runs) if r["report"] is not None),
                 None)
    extra, side = {}, {}
    if first is not None:
        first_path = os.path.join(runner.out, f"run{first}.jsonl")
        for name, argv in wl.side_argv(first_path).items():
            out = os.path.join(runner.out, f"{name}.jsonl")
            side[name] = runner.child(name, ["--output", out, *argv])
            extra[name] = (runs[first]["report"], read(out))

    failed = 0
    problems = []
    for i, r in enumerate(runs):
        if r["report"] is None:
            why = [f"exit {r.get('rc')}: {r.get('error', '').strip()}"]
        else:
            try:
                why = wl.check(r["report"], extra)
            except (ValueError, KeyError, TypeError) as exc:
                why = [f"unreadable report: {exc!r}"]
        if why:
            failed += 1
            problems += [f"run {i}: {w}" for w in why]
    ok_runs = [r for r in runs if "run_s" in r]
    samples = {"wall_s": [r["wall_s"] - sum(r["cal_s"]) for r in ok_runs],
               "setup_s": [r["setup_s"] for r in setup],
               "run_s": [r["run_s"] for r in ok_runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in ok_runs]}
    speed = {"setup_s": [speed_factor(r) for r in setup]}
    speed["wall_s"] = speed["run_s"] = [speed_factor(r) for r in ok_runs]
    speed["peak_rss_mb"] = [1.0] * len(ok_runs)
    norm = {k: [v * f for v, f in zip(xs, speed[k])]
            for k, xs in samples.items()}
    summary = {"workload": wl.name, "seed": wl.seed, "argv": wl.cli_argv(),
               "samples": samples, "speed_factor": speed, "norm": norm,
               "raw": {k: median(v) for k, v in samples.items()},
               "e2e": {k: median(v) for k, v in norm.items()},
               "report_sha256": sorted({hashlib.sha256(
                   r["report"].encode()).hexdigest()
                   for r in runs if r["report"] is not None}),
               "attempted": len(runs), "failed": failed,
               "problems": problems, "layers": None}
    if trace:
        layers, trace_problems = traced(wl, runner, runs, first, side,
                                        summary["e2e"]["run_s"])
        summary["layers"] = layers
        summary["attempted"] += 1
        if trace_problems:
            summary["failed"] += 1
            problems += trace_problems
    return summary


def traced(wl, runner, runs, first, side, untraced_run_s):
    path = os.path.join(runner.out, "traced.jsonl")
    res = runner.child("traced", ["--output", path, *wl.cli_argv()],
                       spans=True)
    problems = []
    if res.get("rc") != 0 or "layers" not in res:
        problems.append(f"traced run: exit {res.get('rc')}: "
                        f"{res.get('error', '').strip()}")
        layers = {}
    else:
        layers = dict(res["layers"])
        if first is None or read(path) != runs[first]["report"]:
            problems.append("traced report differs from the untraced one")
        layers["trace.overhead_s"] = (res["run_s"] * speed_factor(res)
                                      - untraced_run_s)
    # The plain single-threaded baseline; 0 for workloads run at 1 worker.
    w1 = side.get("single_worker", {})
    layers["correlation.single_worker.run_s"] = (
        w1["run_s"] * speed_factor(w1) if "run_s" in w1 else 0.0)
    for tag, flags in (("micro", []), ("micro-cphi", ["--cphi"])):
        out = os.path.join(runner.out, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "micro.py"),
               "--src", runner.src, "--result", out, *flags]
        try:
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True,
                           timeout=max(1.0, runner.remaining()))
            with open(out) as fh:
                layers.update(json.load(fh))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            problems.append(f"{tag}: {exc!r}")
    return layers, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    # Exit through SystemExit on SIGTERM so subprocess.run kills and reaps
    # the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "idealsieve", "cli.py")):
        print(f"no idealsieve sources under {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[opts.workload](opts.seed)
    out_dir = os.path.join(root, ".bench_out", wl.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(src, out_dir, deadline)
    try:
        summary = run(wl, opts.seconds, opts.trace, runner)
    except Unrunnable as exc:
        print(f"cannot run idealsieve: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name} seed {wl.seed}: idealsieve "
          f"{' '.join(summary['argv'])}")
    for name, value in summary["e2e"].items():
        xs = summary["norm"][name]
        lo, hi = spread(xs)
        print(f"  {name:<12} {value:12.4f} {UNITS[name]:<3} "
              f"median of {len(xs)} (quartiles {lo:.4f} .. {hi:.4f}; "
              f"uncalibrated {summary['raw'][name]:.4f})")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f}     "
          f"{failed} of {attempted} runs")
    for sha in summary["report_sha256"]:
        print(f"  report sha256 {sha}")
    for p in summary["problems"]:
        print(f"  FAILED {p}")
    if opts.trace:
        layers = summary["layers"]
        for name in sorted(layers):
            print(f"  {name:<44} {layers[name]:.6g}")
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in summary["e2e"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric):
    last = metric.rsplit(".", 1)[-1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_s", "s"), ("_ratio", "ratio")):
        if last.endswith(suffix) or last == suffix[1:]:
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
