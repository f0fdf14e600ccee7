"""Alternating A/B runs of the benchmark on two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload sample-random \\
        --pairs 10 --seed 101 [--seconds 12]

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each checkout, each run in its own process with the
checkout as working directory, the parent first in even pairs and the
change first in odd ones. Every run's end-to-end metrics are printed as
they arrive, and beside them its raw `op_ms.p50` and the host-speed probe
`probe_ms` that `op_rel.p50` divides it by, read off the report lines the
run prints before its result; a gain in `op_rel.p50` can then be read
against raw time and against a moving divisor. The summary gives, for
each of these and side, the median and the quartiles, the pairs the
change won and lost (ties count for neither), the relative gap between
the medians, and whether the pairs meet the gain rule: the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's own interquartile range. Beside it, each metric with a `bound`
gets the no-regression verdict, with the bound a share of the parent's
median: "regressed" when the change's median is worse than the parent's
by more than the bound; "unresolved" when the parent's interquartile
range is wider than the bound and not every change run beats every parent
run; "within bound" otherwise.

The summary's first line also gives each side's `cpu_affinity` (the CPUs
the run may use) and `blas_threads`, read off each run's `provenance`
line, and a warning goes to stderr when the two sides differ in them or
when a run had fewer than 2 CPUs: a gain from a second thread cannot
show there, and times from unlike hosts do not compare.

The metric names and their better direction come from the change's
`BENCHMARK.json`. Standard library only; the benchmark itself is not
changed or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better="lower", bound=None):
    """Summary of paired readings of one metric; parent[i] and change[i]
    come from pair i. Returns a dict of both sides' quartiles, the change's
    wins/losses/ties, the relative gap of the medians (change vs parent),
    `gain`, whether the pairs meet the gain rule, and, given the metric's
    `bound`, `verdict`: "regressed", "unresolved" or "within bound"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of readings per side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    out = {"parent": pq, "change": cq, "wins": wins, "losses": losses,
           "ties": len(parent) - wins - losses,
           "rel": (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan"),
           "gain": wins >= 0.9 * len(parent) and gap > pq[2] - pq[0]}
    if bound is not None:
        allowed = bound * abs(pq[1])
        beats_all = (max(change) < min(parent) if better == "lower"
                     else min(change) > max(parent))
        if -gap > allowed:
            out["verdict"] = "regressed"
        elif pq[2] - pq[0] > allowed and not beats_all:
            out["verdict"] = "unresolved"
        else:
            out["verdict"] = "within bound"
    return out


def parse_result(stdout):
    """The result JSON of a benchmark run: its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    return json.loads(lines[-1])


# report lines shown beside the gated metrics: raw op time and its divisor
REPORTED = ("op_ms.p50", "probe_ms")


def parse_report(stdout):
    """{name: value} of a run's `name = value unit` lines named in REPORTED."""
    found = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and name in REPORTED:
            found[name] = float(rest.split()[0])
    missing = [name for name in REPORTED if name not in found]
    if missing:
        raise ValueError(f"benchmark printed no {', '.join(missing)} line")
    return found


# provenance fields of each run shown in the summary
HOST = ("cpu_affinity", "blas_threads")


def parse_provenance(stdout):
    """{name: value} of the HOST fields on a run's `provenance {json}` line;
    a field the line lacks is None."""
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            return {name: prov.get(name) for name in HOST}
    raise ValueError("benchmark printed no provenance line")


def hosts(runs):
    """({side: "name=value ..."}, warnings) of each side's HOST fields; a
    field that varied across a side's runs shows every value, '/'-joined."""
    seen = {side: {name: sorted({r.get(name) for r in rs}, key=str) for name in HOST}
            for side, rs in runs.items()}
    shown = {side: " ".join(f"{name}={'/'.join(map(str, values[name]))}"
                            for name in HOST)
             for side, values in seen.items()}
    warnings = []
    if shown["parent"] != shown["change"]:
        warnings.append("the two sides ran with different " + " and ".join(HOST)
                        + "; their times do not compare")
    if any(c is not None and c < 2 for values in seen.values()
           for c in values["cpu_affinity"]):
        warnings.append("a run had fewer than 2 CPUs; a gain from a second "
                        "thread cannot show")
    return shown, warnings


def run_order(pairs):
    """The side that runs first in each pair: parent, change, parent, ..."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def end_to_end(checkout):
    """(name, better, bound) of each end-to-end metric; bound is None when
    the metric has none."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m.get("better", "lower"), m.get("bound"))
            for m in spec["end_to_end"]]


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = parse_result(proc.stdout)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: seed {seed}: {result['failed']} failed "
                           "operations")
    return {**{k: v["value"] for k, v in result["metrics"].items()},
            **parse_report(proc.stdout), **parse_provenance(proc.stdout)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=12.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    metrics = end_to_end(dirs["change"])
    shown = metrics + [(name, "lower", None) for name in REPORTED]
    runs = {"parent": [], "change": []}
    for i, order in enumerate(run_order(args.pairs)):
        seed = args.seed + i
        for side in order:
            got = run_once(dirs[side], args.workload, seed, args.seconds)
            runs[side].append(got)
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{name}={got[name]:.6g}" for name, _, _ in shown), flush=True)
    shown_hosts, warnings = hosts(runs)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}, {args.seconds:g} s runs; "
          + ", ".join(f"{side} {shown_hosts[side]}" for side in runs))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for name, better, bound in shown:
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], better, bound)
        fmt = "median {1:.6g} [q1 {0:.6g}, q3 {2:.6g}]"
        kind = "reported" if name in REPORTED else f"{better} is better"
        print(f"{name} ({kind}): parent " + fmt.format(*s["parent"])
              + ", change " + fmt.format(*s["change"])
              + f", change {s['rel']:+.1%}, won {s['wins']}/{args.pairs}"
              f" (lost {s['losses']}), gain rule {'met' if s['gain'] else 'not met'}"
              + (f", bound {bound:g}: {s['verdict']}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
