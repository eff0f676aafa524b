"""One fresh-process CLI run, timed from the inside.

    python3 bench/child.py --src SRC --result OUT.json [--spans SPANS.npz] \
        [-- CLI-ARGV...]

Times ``import idealsieve.cli`` (setup) and ``cli.main(argv)`` (run)
separately and writes them, the exit code, this process's peak RSS and
two timings of the calibration kernel (calib.py, run after the import and
at the end) to OUT.json.  With no CLI argv it only imports.  With --spans the layers are
traced (see spans.py) and their per-layer numbers are added to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.cli_argv[1:] if opts.cli_argv[:1] == ["--"] else opts.cli_argv

    sys.path.insert(0, os.path.abspath(opts.src))
    t0 = time.perf_counter()
    import idealsieve.cli as cli
    setup_s = time.perf_counter() - t0
    import calib   # after the package, which imports numpy first

    out = {"setup_s": setup_s, "rc": 0, "cal_s": [calib.calibrate()]}
    if argv:
        tracer = None
        if opts.spans:
            import spans
            from idealsieve import ideals, sieve

            lam0 = sieve._lambda_cached.cache_info()
            factor0 = len(ideals._FACTOR_CACHE)
            tracer = spans.Tracer().install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = 1
        out["run_s"] = time.perf_counter() - t0
        out["rc"] = rc
        if tracer is not None:
            lam1 = sieve._lambda_cached.cache_info()
            caches = {"lambda_hits": lam1.hits - lam0.hits,
                      "lambda_misses": lam1.misses - lam0.misses,
                      "factor_cache_growth":
                          len(ideals._FACTOR_CACHE) - factor0}
            out["layers"] = spans.layer_metrics(tracer.finish(opts.spans),
                                                caches)
    out["cal_s"].append(calib.calibrate())
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    with open(opts.result, "w") as fh:
        json.dump(out, fh)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
