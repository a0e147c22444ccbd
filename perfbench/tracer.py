"""Spans around spheregd's layers, recorded from outside the package.

Each hook replaces one name where its caller looks it up (for example
``spheregd.descent.exp_map``, which ``riemannian_gd`` reads as a module
global) with a wrapper that records a span: name, start, end, parent span and
run id.  Spans live in flat arrays in memory; self time is a span's duration
minus the durations of its direct children.  Hooks are installed only around
a traced round and removed afterwards, so untraced rounds run the package
untouched.  A hook whose target no longer exists is skipped, and the metrics
that need it are reported as absent (``None``).
"""

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts = defaultdict(float)
        self.absent = set()
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, on_return=None):
        """Return fn wrapped in a span called name.

        on_return(args, kwargs, result) runs after the span closes, to count
        work done by the call.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, starts, ends = self._stack, self.start, self.end
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if on_return is not None:
                try:
                    on_return(args, kwargs, out)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    self.absent.add(name)  # the layer's interface changed
            return out

        return wrapper

    def patch(self, module, attr, name, on_return=None, make=None):
        """Replace module.attr by a traced wrapper; make(tracer, orig) may
        build the replacement instead.  A missing target marks name absent."""
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.absent.add(name)
            return
        new = make(self, orig) if make else self.wrap(name, orig, on_return)
        setattr(mod, attr, new)
        self._patched.append((mod, attr, orig))

    def count(self, key, value=1):
        """Add to a counter kept beside the spans."""
        self.counts[key] += value

    def unpatch(self):
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def stats(self):
        """{name: (calls, busy seconds, self seconds)} over every span."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        par = np.frombuffer(self.parent, dtype=np.int32)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(busy[i]), float(own[i])) for i, n in enumerate(self.names)}


# ---------------------------------------------------------------------------
# hooks: where each layer is looked up, and what its calls count


def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _on_descent(tracer):
    def count(args, kwargs, trace):
        tracer.count("descent.iterations", int(trace.iters[-1]))
        tracer.count("descent.ball_entered", trace.status == "ball_entered")

    return count


def _oracle_factory(span, per_call_bytes=None):
    """The oracle is a closure built per run: wrap each closure the factory
    returns.  per_call_bytes(args) gives the bytes one call reads, if any."""

    def make(tracer, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            oracle = factory(*args, **kwargs)
            if per_call_bytes is None:
                return tracer.wrap(span, oracle)
            nbytes = per_call_bytes(args, kwargs)

            def count(a, k, out):
                tracer.count(span + ".bytes_computed", nbytes)

            return tracer.wrap(span, oracle, count)

        return build

    return make


def _dl_oracle_bytes(args, kwargs):
    n, p = np.shape(args[0] if args else kwargs["Y"])
    return 2 * n * p * 8  # Y^T q and Y tanh(.) each read the n x p data once


def install(tracer):
    """Install every hook on the spheregd package."""
    t = tracer

    def on_bg(args, kwargs, out):
        n, p = np.shape(out)
        t.count("datagen.gen_bg_matrix.bytes_computed", n * p * 8)  # the returned matrix
        t.count("mc.draws", p)  # data columns

    def samples(key, fn):
        def count(args, kwargs, out):
            m = _arg(fn, "num_samples", args, kwargs)
            t.count(key, m)
            t.count("mc.draws", m)  # population samples

        return count

    landscape = sys.modules.get("spheregd.landscape")  # imported by spheregd.cli
    t.patch("spheregd.cli", "parse_config", "cli.parse_config")
    t.patch("spheregd.cli", "run_batch", "cli.run_batch")
    t.patch("spheregd.cli", "write_summary", "cli.write_summary")
    t.patch(
        "spheregd.cli", "write_trace_csv", "cli.write_trace_csv",
        on_return=lambda a, k, out: t.count("cli.write_trace_csv.bytes", os.path.getsize(a[0])),
    )
    t.patch("spheregd.cli", "riemannian_gd", "descent.riemannian_gd", on_return=_on_descent(t))
    t.patch("spheregd.cli", "gen_instance", "datagen.gen_instance")
    t.patch(
        "spheregd.cli", "sample_uniform_sphere", "sphere.sample_uniform_sphere",
        on_return=lambda a, k, out: t.count("mc.draws", 1),
    )
    t.patch("spheregd.cli", "sep_objective", "objectives.sep_oracle",
            make=_oracle_factory("objectives.sep_oracle"))
    t.patch("spheregd.cli", "dl_objective", "objectives.dl_oracle",
            make=_oracle_factory("objectives.dl_oracle", _dl_oracle_bytes))
    t.patch("spheregd.descent", "exp_map", "sphere.exp_map")
    t.patch("spheregd.objectives", "log_cosh", "objectives.log_cosh")
    for module in ("spheregd.datagen", "spheregd.landscape"):
        t.patch(module, "gen_bg_matrix", "datagen.gen_bg_matrix", on_return=on_bg)
    t.patch("spheregd.landscape", "volume_estimate", "landscape.volume_estimate",
            on_return=samples("landscape.volume_estimate.samples",
                              getattr(landscape, "volume_estimate", None)))
    t.patch("spheregd.landscape", "fluctuation_probe", "landscape.fluctuation_probe")
    t.patch("spheregd.landscape", "dl_pop_projected_grad_estimate",
            "objectives.dl_pop_projected_grad_estimate",
            on_return=samples("objectives.dl_pop_projected_grad_estimate.samples",
                              getattr(landscape, "dl_pop_projected_grad_estimate", None)))
    t.patch("spheregd.landscape", "dl_projected_grad", "objectives.dl_projected_grad")

    def on_experiment(args, kwargs, exp):
        t.count("phase_retrieval.accepted", len(exp.runs))
        t.count("phase_retrieval.draws", exp.total_draws)

    def on_pr_descend(args, kwargs, run):
        t.count("phase_retrieval.pr_descend.iterations", run.iterations)

    pr = "spheregd.phase_retrieval"
    t.patch(pr, "pr_experiment", "phase_retrieval.pr_experiment", on_return=on_experiment)
    t.patch(pr, "pr_descend", "phase_retrieval.pr_descend", on_return=on_pr_descend)
    t.patch(pr, "pr_decompose", "phase_retrieval.pr_decompose")
    t.patch(pr, "sample_ball", "phase_retrieval.sample_ball",
            on_return=lambda a, k, out: t.count("mc.draws", 1))


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(a, b, scale=1.0):
    return scale * a / b if b else 0.0


def layer_metrics(tracer):
    """{metric: (value, unit)} from one traced round; None marks a metric
    whose hook target is absent.  Ratios over zero calls read 0."""
    st = tracer.stats()
    c = tracer.counts
    out = {}

    def span(name, *fields):
        calls, busy, own = st.get(name, (0, 0.0, 0.0))
        ok = name not in tracer.absent
        table = {
            "calls": (calls, "count"),
            "busy_s": (busy, "s"),
            "self_s": (own, "s"),
            "us_per_call": (_ratio(busy, calls, 1e6), "us"),
        }
        for f in fields:
            v, unit = table[f]
            out[f"{name}.{f}"] = (v if ok else None, unit)
        return calls, busy

    def derived(metric, value, unit, *needs):
        out[metric] = (None if any(n in tracer.absent for n in needs) else value, unit)

    gd = "descent.riemannian_gd"
    calls, busy = span(gd, "calls", "busy_s", "self_s")
    it = c["descent.iterations"]
    derived("descent.iterations", int(it), "count", gd)
    derived("descent.us_per_iter", _ratio(busy, it, 1e6), "us", gd)
    derived("descent.success_ratio", _ratio(c["descent.ball_entered"], calls), "ratio", gd)
    span("sphere.exp_map", "calls", "busy_s", "us_per_call")
    span("objectives.sep_oracle", "calls", "busy_s", "us_per_call")
    name = "objectives.dl_oracle"
    span(name, "calls", "busy_s", "us_per_call")
    derived(name + ".bytes_computed", int(c[name + ".bytes_computed"]), "B", name)
    span("objectives.log_cosh", "calls", "busy_s")
    name = "objectives.dl_pop_projected_grad_estimate"
    _, busy = span(name, "busy_s")
    derived(name + ".samples_per_s", _ratio(c[name + ".samples"], busy), "1/s", name)
    span("objectives.dl_projected_grad", "calls", "busy_s")
    span("datagen.gen_instance", "calls", "busy_s")
    name = "datagen.gen_bg_matrix"
    span(name, "calls", "busy_s")
    derived(name + ".bytes_computed", int(c[name + ".bytes_computed"]), "B", name)
    name = "landscape.volume_estimate"
    _, busy = span(name, "busy_s")
    derived(name + ".samples_per_s", _ratio(c[name + ".samples"], busy), "1/s", name)
    span("landscape.fluctuation_probe", "busy_s", "self_s")
    span("phase_retrieval.pr_experiment", "busy_s")
    name = "phase_retrieval.pr_descend"
    _, busy = span(name, "calls", "busy_s")
    pit = c[name + ".iterations"]
    derived(name + ".iterations", int(pit), "count", name)
    derived(name + ".us_per_iter", _ratio(busy, pit, 1e6), "us", name)
    span("phase_retrieval.pr_decompose", "calls", "busy_s")
    derived("phase_retrieval.accept_ratio",
            _ratio(c["phase_retrieval.accepted"], c["phase_retrieval.draws"]), "ratio",
            "phase_retrieval.pr_experiment")
    span("cli.parse_config", "busy_s")
    span("cli.run_batch", "busy_s", "self_s")
    span("cli.write_summary", "busy_s")
    name = "cli.write_trace_csv"
    span(name, "calls", "busy_s")
    derived(name + ".bytes", int(c[name + ".bytes"]), "B", name)
    derived("mc.draws", int(c["mc.draws"]), "count")
    return out
