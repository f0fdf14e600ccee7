"""rvqgen benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Run from the repository root. `--trace 0` sets the workload up several
times (reporting the median set-up time), then runs operations back to back
for `--seconds` and reports the end-to-end metrics. `--trace 1` sets up once
under tracing, then alternates blocks of untraced and traced operations on
identical inputs: it reports per-layer metrics per traced operation, the
tracing overhead, and fails the run unless both give bit-identical outputs.
`--smoke` shrinks every input so a run takes seconds.

The last stdout line is the result JSON; the lines before it give the
provenance and the figures under the names the workload's docs use. The
full report and the traced run's spans go to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

clock = time.perf_counter

# set-ups in an untraced run; setup_s is their median
SETUPS = 3
# seconds between host-speed probe readings
PROBE_EVERY = 0.25


def median_ms(seconds):
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def tail_ms(seconds, name="op_ms"):
    """The highest percentile on the ladder with at least ten samples
    beyond it (the median below 20 samples), its rank and the count."""
    import numpy as np
    n = len(seconds)
    pct = next((p for p in (99.9, 99.5, 99, 98, 95, 90, 75)
                if n * (1 - p / 100) >= 10), 50.0)
    value = 1e3 * float(np.percentile(seconds, pct)) if n else 0.0
    return {f"{name}.tail": (value, "ms"), f"{name}.tail.pct": (pct, "%"),
            f"{name}.tail.samples": (n, "count")}


# ---------------------------------------------------------------------------
# the two kinds of run


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = {}          # operation -> reason
        self.results = {}         # operation -> result (untraced)
        self.times = []           # timed-call seconds of passing untraced ops
        self.traced_times = []
        self.wall = 0.0           # wall seconds of untraced operations
        self.probe = []           # host-speed probe readings, ms

    def fail(self, key, reason):
        self.failed.setdefault(key, reason)
        print(f"failed operation {key}: {reason}", file=sys.stderr)


def _run_op(w, i, out, traced=False):
    """One operation with its checks; returns (result, timed s) or None."""
    out.attempted += 1
    t0 = clock()
    try:
        res, t = w.op(i)
    except Exception:   # a failing operation is counted, not fatal
        out.fail((i, traced), traceback.format_exc(limit=3).strip())
        return None
    finally:
        if not traced:
            out.wall += clock() - t0
    reason = w.check(i, res)
    if reason:
        out.fail((i, traced), reason)
        return None
    return res, t


def _blas_probe(np, x):
    acc = 0.0
    for i in range(40):
        acc += float(np.tanh((x @ x) * 0.01)[i, i])
    return acc


def _churn_probe(np, x):
    nodes, a, acc = [], x[:8], 0.0
    for _ in range(120):
        b = a * 0.5 + 0.1
        c = np.exp(-b * b)
        nodes.append((c.T, lambda g, c=c: g.T * c))
        a = b
    for d, f in reversed(nodes):
        acc += float(f(d)[0, 0])
    return acc


def _nearest_probe(np, x):
    # 40,960 rows in chunks, so the probe's temporaries stay far below the
    # peak memory of the workloads that use it
    rows, acc = np.tile(x, (64, 1))[:, :8], 0.0          # (4096, 8)
    for _ in range(10):
        d2 = ((rows[:, None, :] - x[None, :32, :8]) ** 2).sum(axis=2)
        acc += float(d2.argmin(axis=1).sum())
    return acc


PROBES = {"blas": _blas_probe, "churn": _churn_probe, "nearest": _nearest_probe}


def probe_ms(kinds, reps=3):
    """Host-speed probe, in ms: the median of `reps` timed passes over
    fixed work like the workload's own. `blas` is BLAS and vector math on
    a 64x64 array; `churn` is autodiff-like churn of tiny arrays and
    closures; `nearest` is a broadcast nearest-row search over 40,960 rows.

    The host's speed drifts by tens of percent over minutes while nothing
    in the run changes, and different kinds of work drift differently. Gated
    times are divided by the probe's median over the same run, which
    cancels most of that drift. The probe is benchmark code, so no change
    to the program moves it."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    times = []
    for _ in range(reps):
        t0 = clock()
        for kind in kinds:
            PROBES[kind](np, x)
        times.append(clock() - t0)
    return 1e3 * statistics.median(times)


def measure(w, seconds):
    out = Outcome()
    end, i = clock() + seconds, 0
    last = clock() - PROBE_EVERY
    while clock() < end:
        if clock() - last >= PROBE_EVERY:
            out.probe.append(probe_ms(w.probe))
            last = clock()
        got = _run_op(w, i, out)
        if got:
            out.results[i] = got[0]
            out.times.append(got[1])
        i += 1
    return out


def measure_traced(w, seconds, tracer):
    out = Outcome()
    rec = tracer.rec
    end, i, ops = clock() + seconds, 0, 0
    while clock() < end:
        block = range(i, i + w.block)
        snap = w.snapshot()
        plain = {j: _run_op(w, j, out) for j in block}
        before = w.fingerprint()
        w.restore(snap)
        traced = {}
        with tracer.installed():
            for j in block:
                with rec.span("op", op=j):
                    traced[j] = _run_op(w, j, out, traced=True)
        ops += len(block)
        if w.fingerprint() != before:
            out.fail((i, True), "traced block left other state than untraced")
        for j in block:
            if plain[j] and traced[j]:
                out.results[j] = plain[j][0]
                out.times.append(plain[j][1])
                out.traced_times.append(traced[j][1])
                if not w.same(plain[j][0], traced[j][0]):
                    out.fail((j, True), "traced output differs from untraced")
        i += w.block
    return out, ops


# ---------------------------------------------------------------------------
# provenance


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    """(version string, thread count) of the BLAS numpy loaded."""
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    return version, threads


def _src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def provenance(workload, seed, trace, smoke):
    import numpy as np
    blas, threads = _blas()
    return {"commit": _commit(), "workload": workload, "seed": seed,
            "trace": trace, "smoke": smoke, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "src_lines": _src_lines()}


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import workloads as wl
        import spans as tr
    except ImportError as e:
        print(f"error: cannot import the program from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    cfg = wl.configs(args.smoke)[args.workload]
    cls = wl.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.trace:
            metrics, report, out = _traced(cls, cfg, args, work, tr)
        else:
            metrics, report, out = _untraced(cls, cfg, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not out.failed
    report["error_rate"] = (len(out.failed) / max(out.attempted, 1), "ratio")
    prov = provenance(args.workload, args.seed, args.trace, args.smoke)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"provenance": prov, "correct": correct,
                   "attempted": out.attempted,
                   "failures": {str(k): v for k, v in out.failed.items()},
                   "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for k, (v, u) in sorted(report.items()):
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": len(out.failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def _untraced(cls, cfg, args, work):
    setups = []
    for _ in range(1 if args.smoke else SETUPS):
        w = None      # drop the previous set-up before building the next
        t0 = clock()
        w = cls(cfg, args.seed, work)
        w.setup()
        setups.append(clock() - t0)
    out = measure(w, args.seconds)
    for i, reason in w.post_checks(out.results).items():
        out.fail((i, False), reason)
    probe = statistics.median(out.probe)
    done = len(out.times)
    op_ms, per_op_ms = median_ms(out.times), 1e3 * out.wall / max(done, 1)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_rel.p50": (op_ms / probe, "x"),
        # ru_maxrss is KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # throughput is reported, not gated: with host hiccups in the mean its
    # run-to-run spread came too close to the largest allowed bound
    report = {**metrics, "probe_ms": (probe, "ms"), "op_ms.p50": (op_ms, "ms"),
              "ops_per_s": (1e3 / per_op_ms, "1/s"),
              "op_rel.mean": (per_op_ms / probe, "x")}
    report.update(tail_ms(out.times))
    if cls.alias:
        rate, lat = cls.alias
        report[rate] = report["ops_per_s"]
        report[lat + ".p50"] = report["op_ms.p50"]
        report.update(tail_ms(out.times, lat))
    report.update(w.report(out.results))
    return metrics, report, out


def _traced(cls, cfg, args, work, tr):
    tracer = tr.Tracer()
    w = cls(cfg, args.seed, work)
    with tracer.installed(), tracer.rec.span("setup"):
        w.setup()
    out, ops = measure_traced(w, args.seconds, tracer)
    for i, reason in w.post_checks(out.results).items():
        out.fail((i, False), reason)
    tr.write_spans(tracer.rec,
                   os.path.join(OUT_DIR, f"spans-{args.workload}.tsv"))
    metrics = tr.layer_metrics(tracer.rec, ops)
    calls = metrics["backbone.forward.calls"][0]
    if out.traced_times and calls != w.forward_calls:
        out.fail("trace", f"{calls} backbone forward calls per operation, "
                          f"want {w.forward_calls}")
    traced, plain = median_ms(out.traced_times), median_ms(out.times)
    metrics["trace.overhead_frac"] = (traced / plain - 1 if plain else 0.0, "ratio")
    metrics.update(tail_ms(out.times))
    diag = {"trainer.loss_tail": (0.0, "nats"), "sampler.fd_ratio": (0.0, "ratio"),
            "rvq.recon_mse": (0.0, "mse")}
    if out.results:
        diag.update(w.diagnostics(out.results))
    metrics.update(diag)
    report = dict(diag)
    if cls.alias:
        report.update(tail_ms(out.times, cls.alias[1]))
    for k in ("trace.overhead_frac", "trace.unattributed_frac"):
        report[k] = metrics[k]
    return metrics, report, out


if __name__ == "__main__":
    sys.exit(main())
