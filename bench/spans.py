"""Span tracing of idealsieve's layers, installed from outside the package.

`install()` wraps every public function of the eight layer modules plus a
few hot methods, so each call records a span: name, start, end, parent,
whether it raised, and a small per-function value (hits, points).  The
package's own code is not modified; the wrappers are rebound onto every
``idealsieve.*`` module attribute that is the original function, which
covers ``from .linalg import hnf`` style copies and, because local imports
read the module attribute at call time, function-local imports as well.

Spans live in per-thread buffers until `Tracer.finish` merges them, writes
them to an ``.npz`` file and folds them into per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("numberfield", "linalg", "ideals", "lattice", "sieve",
          "correlation", "constellation", "cli")

# Methods called through operators or on instances, wrapped on the class.
METHODS = {
    "numberfield": {"FieldElement": ("__mul__",)},
    "ideals": {"FractionalIdeal": ("__mul__", "inverse", "contains")},
}

# Per-span integer recorded from the return value, summed per function.
VALUES = {
    "ideals.is_prime_element": lambda r: int(bool(r)),
    "ideals.principal_generator": lambda r: int(r is not None),
    "lattice.ball_elements": len,
}


def _is_public_function(mod, name, obj):
    if name.startswith("_"):
        return False
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


class _Buffer:
    """Spans finished on one thread, as parallel typed arrays."""

    __slots__ = ("sid", "name", "start", "end", "parent", "ok", "value")

    def __init__(self):
        self.sid = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ok = array("b")
        self.value = array("q")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack = None

    # -- recording -----------------------------------------------------

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.buf
        except AttributeError:
            loc.stack, loc.buf = [], _Buffer()
            with self._lock:
                self._buffers.append(loc.buf)
            if threading.current_thread() is self._main:
                self._main_stack = loc.stack
            return loc.stack, loc.buf

    def _root_parent(self):
        # A worker thread's outermost span belongs to the span the main
        # thread is in while it waits on the pool.
        if threading.current_thread() is self._main:
            return -1
        main = self._main_stack
        return main[-1] if main else -1

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        value_of = VALUES.get(name)
        ids = self._ids
        state = self._state
        root_parent = self._root_parent
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = state()
            sid = next(ids)
            parent = stack[-1] if stack else root_parent()
            stack.append(sid)
            ok, value = 0, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
            finally:
                t1 = clock()
                stack.pop()
                if ok and value_of is not None:
                    value = value_of(result)
                buf.sid.append(sid)
                buf.name.append(nid)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)
                buf.ok.append(ok)
                buf.value.append(value)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the layers of an imported idealsieve package."""
        self._state()
        mods = {m: sys.modules[f"idealsieve.{m}"] for m in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if _is_public_function(mod, attr, obj):
                    replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                                 cls.__dict__[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "idealsieve"
                                   or mod_name.startswith("idealsieve.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    # -- analysis ------------------------------------------------------

    def spans(self):
        """All finished spans as numpy arrays, ordered by span id."""
        cols = {}
        for field in _Buffer.__slots__:
            parts = [np.frombuffer(getattr(b, field),
                                   dtype=getattr(b, field).typecode)
                     for b in self._buffers]
            cols[field] = (np.concatenate(parts) if parts
                           else np.zeros(0, dtype=np.int64)).astype(np.int64)
        order = np.argsort(cols["sid"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def finish(self, path):
        """Save the recorded spans to path; return per-name totals."""
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **sp)
        return summarize(sp, self.names)


def self_times(sp):
    """Span duration minus the union of its child spans' intervals (ns).

    Children on one thread never overlap; children on two worker threads
    can, so the covered time is a union, not a sum.
    """
    n = len(sp["sid"])
    dur = sp["end"] - sp["start"]
    if n == 0:
        return dur
    index = np.full(int(sp["sid"].max()) + 1, -1, dtype=np.int64)
    index[sp["sid"]] = np.arange(n)
    has_parent = sp["parent"] >= 0
    pidx = np.where(has_parent,
                    index[np.where(has_parent, sp["parent"], 0)], -1)
    kids = np.flatnonzero(pidx >= 0)
    if len(kids) == 0:
        return dur
    order = kids[np.lexsort((sp["start"][kids], pidx[kids]))]
    p = pidx[order]
    group = np.concatenate([[0], np.cumsum(p[1:] != p[:-1])])
    # Offset each parent's children so a running maximum never carries
    # from one parent's group into the next.
    t0 = int(sp["start"].min())
    width = int(sp["end"].max()) - t0 + 1
    s = sp["start"][order] - t0 + group * width
    e = sp["end"][order] - t0 + group * width
    reach = np.maximum.accumulate(e)
    prev = np.concatenate([[-1], reach[:-1]])
    covered = np.maximum(0, e - np.maximum(s, prev))
    cover = np.bincount(p, weights=covered, minlength=n).astype(np.int64)
    return dur - cover


def summarize(sp, names):
    """calls, inclusive ns, self ns, errors and value sum per span name."""
    k = len(names)
    name = sp["name"]
    dur = sp["end"] - sp["start"]
    selfns = self_times(sp)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=selfns, minlength=k)
    errors = np.bincount(name, weights=1 - sp["ok"], minlength=k)
    value = np.bincount(name, weights=sp["value"], minlength=k)
    return {nm: {"calls": int(calls[i]), "s": incl[i] / 1e9,
                 "self_s": own[i] / 1e9, "errors": int(errors[i]),
                 "value": int(value[i])}
            for i, nm in enumerate(names)}


# Per-layer metric -> (span name, field).  "s" is inclusive time summed
# over calls (over both threads under --workers 2).
COUNTERS = {
    "numberfield.mul.calls": ("numberfield.FieldElement.__mul__", "calls"),
    "linalg.hnf.calls": ("linalg.hnf", "calls"),
    "ideals.is_prime_element.calls": ("ideals.is_prime_element", "calls"),
    "ideals.is_prime_element.s": ("ideals.is_prime_element", "s"),
    "ideals.ideal_mul.calls": ("ideals.FractionalIdeal.__mul__", "calls"),
    "ideals.inverse.calls": ("ideals.FractionalIdeal.inverse", "calls"),
    "ideals.contains.calls": ("ideals.FractionalIdeal.contains", "calls"),
    "ideals.factor_ideal.calls": ("ideals.factor_ideal", "calls"),
    "ideals.principal_generator.calls": ("ideals.principal_generator", "calls"),
    "lattice.ball_elements.calls": ("lattice.ball_elements", "calls"),
    "lattice.ball_elements.s": ("lattice.ball_elements", "s"),
    "lattice.ball_elements.points": ("lattice.ball_elements", "value"),
    "lattice.fundamental_domain_reduce.calls":
        ("lattice.fundamental_domain_reduce", "calls"),
    "lattice.points_in_parallelotope.s": ("lattice.points_in_parallelotope", "s"),
    "sieve.c_phi.calls": ("sieve.c_phi", "calls"),
    "sieve.c_phi.s": ("sieve.c_phi", "s"),
    "sieve.lambda_R.calls": ("sieve.lambda_R", "calls"),
    "sieve.nu_weight.calls": ("sieve.nu_weight", "calls"),
    "correlation.singular_series_direct.s":
        ("correlation.singular_series_direct", "s"),
    "correlation.singular_series_main_term.s":
        ("correlation.singular_series_main_term", "s"),
    "correlation.auto_correlation_check.s":
        ("correlation.auto_correlation_check", "s"),
    "constellation.make_certificate.calls":
        ("constellation.make_certificate", "calls"),
}

# Ratio -> (span name whose value counts successes, over its calls).
RATIOS = {
    "ideals.is_prime_element.true_ratio": "ideals.is_prime_element",
    "ideals.principal_generator.found_ratio": "ideals.principal_generator",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, caches):
    """Per-layer metrics from `summarize` output and cache counters.

    caches: lambda_hits, lambda_misses (the lambda cache's cache_info
    growth) and factor_cache_growth (new entries in the factor cache).
    """
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0, "value": 0}
    out = {}
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        out[f"{layer}.errors"] = sum(r["errors"] for r in rows)
    for metric, (name, field) in COUNTERS.items():
        out[metric] = summary.get(name, empty)[field]
    for metric, name in RATIOS.items():
        row = summary.get(name, empty)
        out[metric] = _ratio(row["value"], row["calls"])
    out["sieve.lambda_cache.hit_ratio"] = _ratio(
        caches["lambda_hits"], caches["lambda_hits"] + caches["lambda_misses"])
    calls = summary.get("ideals.factor_ideal", empty)["calls"]
    out["ideals.factor_cache.hit_ratio"] = _ratio(
        calls - caches["factor_cache_growth"], calls)
    return out
