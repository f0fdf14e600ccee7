"""Benchmark-side tracing: spans around the public functions of each module.

Nothing in `rvqgen` knows about this file. `Tracer.installed()` swaps the
traced functions for timing wrappers (module attributes and class methods
are looked up at call time, so every caller sees the wrapper) and puts the
originals back on exit. Autodiff ops additionally wrap the backward closure
of the node they return, so backward time lands on the op kind that
recorded it.

A span has a name, start, end, parent and op: `parent` indexes the
enclosing span (-1 at the top) and `op` is the id of the benchmark
operation it ran under (-1 during set-up). Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter

# autodiff op kinds reported as numerics.<kind>.{calls,fwd_ms,bwd_ms}
NUMERICS_KINDS = {
    "matmul": ("matmul",),
    "layer_norm": ("layer_norm",),
    "softmax": ("softmax",),
    "logsumexp": ("logsumexp",),
    "gelu": ("gelu",),
    "gather": ("gather",),
    "lowrank_sqdist": ("lowrank_sqdist",),
    "elementwise": ("add", "sub", "mul", "neg", "exp", "log", "tanh"),
    "shape": ("reshape", "transpose", "concat"),
    "reduce": ("sum_", "mean_"),
}


class Recorder:
    """Append-only span store with an explicit open-span stack (one thread).

    Spans are kept column-wise in flat arrays, which the garbage collector
    never has to walk, so a long traced run does not slow itself down.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = [-1]
        self.op = -1
        self.counters = defaultdict(float)   # counts made during traced ops

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(_clock())
        return idx

    def end(self, idx):
        self.ends[idx] = _clock()
        self.stack.pop()

    def count(self, name, value):
        if self.op >= 0:
            self.counters[name] += value

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Root span for a benchmark operation (op id given) or set-up."""
        prev = self.op
        if op is not None:
            self.op = op
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)
            self.op = prev


def _timed(rec, name, fn, on_result=None, bwd_name=None):
    """`fn` inside a span; with `bwd_name`, the backward closure of the
    returned autodiff node gets a span of its own."""
    begin, end = rec.begin, rec.end

    def timed_bwd(bwd):
        def run(g):
            idx = begin(bwd_name)
            try:
                return bwd(g)
            finally:
                end(idx)
        return run

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            end(idx)
        if on_result is not None:
            on_result(rec, args, out)
        if bwd_name is not None and out._bwd is not None:
            out._bwd = timed_bwd(out._bwd)
        return out
    return wrapper


def _count_rows(rec, args, out):
    rec.count("rvq.quantize.rows", len(args[0]))


def _count_kept(rec, args, out):
    rec.count("mog.nucleus.kept", len(out[0]) / len(args[0]))


def _count_positions(rec, args, out):
    rec.count("trainer.positions", out["positions"])


def targets():
    """(owner, attribute, span name, counter hook) for every traced function."""
    from rvqgen import (backbone, checkpoint, data, evaluate, masking, mog,
                        rvq, sampler, trainer)
    B, T = backbone.Backbone, trainer.Trainer
    return [
        (B, "forward", "backbone.forward", None),
        (B, "embed_input", "backbone.embed_input", None),
        (B, "predict", "backbone.predict", None),
        (mog, "surrogate_loss", "mog.surrogate_loss", None),
        (mog, "exact_nll", "mog.exact_nll", None),
        (mog, "sample", "mog.sample", None),
        (mog, "nucleus", "mog.nucleus", _count_kept),
        (mog, "cfg_combine", "mog.cfg_combine", None),
        (masking, "sample_counts_batch", "masking.sample_counts_batch", None),
        (masking, "binary_unmask", "masking.binary_unmask", None),
        (masking, "apply_mask", "masking.apply_mask", None),
        (rvq, "quantize", "rvq.quantize", _count_rows),
        (rvq, "fit_codebook", "rvq.fit_codebook", None),
        (rvq, "dequantize", "rvq.dequantize", None),
        (rvq, "reconstruction_mse_by_depth", "rvq.reconstruction_mse_by_depth", None),
        (rvq, "save_codebook", "rvq.codebook_io", None),
        (rvq, "load_codebook", "rvq.codebook_io", None),
        (trainer, "masked_loss", "trainer.masked_loss", None),
        (T, "step", "trainer.step", _count_positions),
        (sampler, "generate", "sampler.generate", None),
        (sampler, "confidence_scores", "sampler.confidence_scores", None),
        (sampler, "select_unmask", "sampler.select_unmask", None),
        (evaluate, "frechet_distance", "evaluate.frechet_distance", None),
        (evaluate, "self_distance", "evaluate.self_distance", None),
        (evaluate, "codebook_usage_entropy", "evaluate.codebook_usage_entropy", None),
        (data, "load_dataset", "data.load_dataset", None),
        (data, "save_dataset", "data.save_dataset", None),
        (checkpoint, "save_checkpoint", "checkpoint.save", None),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
    ]


class Tracer:
    def __init__(self):
        from rvqgen import numerics
        rec = self.rec = Recorder()
        self.patches = [(numerics, "backward",
                         _timed(rec, "numerics.backward", numerics.backward))]
        for kind, names in NUMERICS_KINDS.items():
            self.patches += [(numerics, n, _timed(
                rec, f"numerics.{kind}.fwd", getattr(numerics, n),
                bwd_name=f"numerics.{kind}.bwd")) for n in names]
        for owner, attr, name, hook in targets():
            self.patches.append((owner, attr,
                                 _timed(rec, name, owner.__dict__[attr], hook)))
        self.originals = [(owner, attr, owner.__dict__[attr])
                          for owner, attr, _ in self.patches]

    @contextlib.contextmanager
    def installed(self):
        try:
            for owner, attr, fn in self.patches:
                setattr(owner, attr, fn)
            yield self.rec
        finally:
            for owner, attr, fn in self.originals:
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(starts, ends, parents):
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    kids = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i, (t0, t1) in enumerate(zip(starts, ends)):
        covered, lo, hi = 0.0, None, None
        for c in sorted(kids[i], key=starts.__getitem__):
            a, b = max(starts[c], t0), min(ends[c], t1)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((t1 - t0) - covered)
    return out


def totals(rec):
    """{(in an operation, span name): (calls, total s, self s)}."""
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for name, t0, t1, op, own in zip(rec.names, rec.starts, rec.ends, rec.ops, selfs):
        a = acc[op >= 0, name]
        a[0] += 1
        a[1] += t1 - t0
        a[2] += own
    return {k: tuple(v) for k, v in acc.items()}


# (metric, unit, span name, field): per-operation sums of a span's call
# count, total duration or self time
LAYER_METRICS = [
    *[m for kind in NUMERICS_KINDS for m in (
        (f"numerics.{kind}.calls", "count", f"numerics.{kind}.fwd", "calls"),
        (f"numerics.{kind}.fwd_ms", "ms", f"numerics.{kind}.fwd", "ms"),
        (f"numerics.{kind}.bwd_ms", "ms", f"numerics.{kind}.bwd", "ms"))],
    ("numerics.backward.self_ms", "ms", "numerics.backward", "self_ms"),
    ("backbone.embed_input.ms", "ms", "backbone.embed_input", "ms"),
    ("backbone.predict.self_ms", "ms", "backbone.predict", "self_ms"),
    ("backbone.forward.calls", "count", "backbone.forward", "calls"),
    ("mog.surrogate_loss.ms", "ms", "mog.surrogate_loss", "ms"),
    ("mog.exact_nll.ms", "ms", "mog.exact_nll", "ms"),
    ("mog.sample.self_ms", "ms", "mog.sample", "self_ms"),
    ("mog.nucleus.calls", "count", "mog.nucleus", "calls"),
    ("mog.nucleus.ms", "ms", "mog.nucleus", "ms"),
    ("mog.cfg_combine.ms", "ms", "mog.cfg_combine", "ms"),
    ("masking.sample_counts_batch.ms", "ms", "masking.sample_counts_batch", "ms"),
    ("masking.binary_unmask.ms", "ms", "masking.binary_unmask", "ms"),
    ("masking.apply_mask.ms", "ms", "masking.apply_mask", "ms"),
    ("rvq.quantize.ms", "ms", "rvq.quantize", "ms"),
    ("rvq.fit_codebook.ms", "ms", "rvq.fit_codebook", "ms"),
    ("rvq.dequantize.ms", "ms", "rvq.dequantize", "ms"),
    ("rvq.reconstruction_mse_by_depth.ms", "ms", "rvq.reconstruction_mse_by_depth", "ms"),
    ("rvq.codebook_io.ms", "ms", "rvq.codebook_io", "ms"),
    ("trainer.masked_loss.self_ms", "ms", "trainer.masked_loss", "self_ms"),
    ("trainer.step.self_ms", "ms", "trainer.step", "self_ms"),
    ("sampler.generate.self_ms", "ms", "sampler.generate", "self_ms"),
    ("sampler.confidence_scores.ms", "ms", "sampler.confidence_scores", "ms"),
    ("sampler.select_unmask.self_ms", "ms", "sampler.select_unmask", "self_ms"),
    ("evaluate.frechet_distance.ms", "ms", "evaluate.frechet_distance", "ms"),
    ("evaluate.self_distance.ms", "ms", "evaluate.self_distance", "ms"),
    ("evaluate.codebook_usage_entropy.ms", "ms", "evaluate.codebook_usage_entropy", "ms"),
    ("data.load_dataset.ms", "ms", "data.load_dataset", "ms"),
    ("data.save_dataset.ms", "ms", "data.save_dataset", "ms"),
    ("checkpoint.save.ms", "ms", "checkpoint.save", "ms"),
    ("checkpoint.load.ms", "ms", "checkpoint.load", "ms"),
]

# counts taken by the wrappers' hooks, per operation
COUNTER_METRICS = [
    ("rvq.quantize.rows", "count"),
    ("trainer.positions", "count"),
]

# layers that work during set-up; reported per set-up, not per operation
SETUP_METRICS = ["rvq.fit_codebook", "rvq.quantize", "data.save_dataset",
                 "trainer.step", "checkpoint.load"]


def layer_metrics(rec, ops):
    """Per-operation layer metrics over the spans of `ops` traced
    operations (each under a root span named "op"), plus per-set-up totals
    of the set-up layers (under root spans named "setup")."""
    per = totals(rec)
    n = max(ops, 1)
    field = {"calls": 0, "ms": 1, "self_ms": 2}
    out = {}
    for metric, unit, span, kind in LAYER_METRICS:
        v = per.get((True, span), (0, 0.0, 0.0))[field[kind]]
        out[metric] = (v / n if kind == "calls" else 1e3 * v / n, unit)
    for metric, unit in COUNTER_METRICS:
        out[metric] = (rec.counters.get(metric, 0.0) / n, unit)
    calls = per.get((True, "mog.nucleus"), (0,))[0]
    kept = rec.counters.get("mog.nucleus.kept", 0.0)
    out["mog.nucleus.kept_frac"] = (kept / calls if calls else 0.0, "ratio")
    _, op_total, op_self = per.get((True, "op"), (0, 0.0, 0.0))
    out["trace.unattributed_frac"] = (op_self / op_total if op_total else 0.0, "ratio")
    setups = max(per.get((False, "setup"), (0,))[0], 1)
    for span in SETUP_METRICS:
        out[f"setup.{span}.ms"] = (1e3 * per.get((False, span), (0, 0.0))[1] / setups, "ms")
    return out


def write_spans(rec, path):
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for row in zip(rec.names, rec.starts, rec.ends, rec.parents, rec.ops):
            fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % row)
