"""Self-tests of the benchmark: `python3 -m pytest perfbench`."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402


def test_self_time_subtracts_union_of_children():
    rec = spans.Recorder()
    # root [0, 10]; children [1, 4] and [3, 6] overlap, [9, 12] overruns
    # the root; [2, 3] is a grandchild under [1, 4]
    for name, t0, t1, parent in (("root", 0, 10, -1), ("a", 1, 4, 0),
                                 ("b", 3, 6, 0), ("a1", 2, 3, 1),
                                 ("c", 9, 12, 0)):
        rec.names.append(name)
        rec.starts.append(t0)
        rec.ends.append(t1)
        rec.parents.append(parent)
        rec.ops.append(0)
    own = spans.self_times(rec.starts, rec.ends, rec.parents)
    assert own == [10 - (5 + 1), 3 - 1, 3, 1, 3]
    assert spans.totals(rec)[True, "root"] == (1, 10.0, 4.0)


def test_self_time_of_recorded_spans_nests():
    rec = spans.Recorder()
    with rec.span("op", op=0):
        with rec.span("inner"):
            pass
    assert list(rec.parents) == [-1, 0] and list(rec.ops) == [0, 0]
    own = spans.self_times(rec.starts, rec.ends, rec.parents)
    assert own[0] == pytest.approx((rec.ends[0] - rec.starts[0])
                                   - (rec.ends[1] - rec.starts[1]))


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# end-to-end figures under their workload names, per workload
REPORT = {
    "train": {"train.steps_per_s": "1/s", "train.step_ms.p50": "ms"},
    "sample-random": {"sample.grids_per_s": "1/s", "sample.grid_ms.p50": "ms"},
    "sample-guided": {"sample.grids_per_s": "1/s", "sample.grid_ms.p50": "ms"},
    "fit": {"fit.fit_rvq_s": "s", "fit.eval_s": "s"},
}
TRACED = {"trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
          "trainer.loss_tail": "nats", "sampler.fd_ratio": "ratio",
          "rvq.recon_mse": "mse"}
TAIL = {"train": "train.step_ms.tail", "sample-random": "sample.grid_ms.tail",
        "sample-guided": "sample.grid_ms.tail"}
# backbone forward calls per operation at smoke size (T=4)
FORWARD_CALLS = {"train": 1, "sample-random": 4, "sample-guided": 8, "fit": 0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["backbone.forward.calls"]["value"] == \
            FORWARD_CALLS[workload]

    path = os.path.join(ROOT, ".perfbench-out", f"{workload}-seed3-trace{trace}.json")
    with open(path) as fh:
        report = json.load(fh)["report"]
    want = {"error_rate": "ratio"}
    if trace:
        want.update(TRACED)
        if workload in TAIL:
            want[TAIL[workload]] = "ms"
            want[TAIL[workload] + ".samples"] = "count"
    else:
        want.update(REPORT[workload], setup_s="s", peak_rss_mb="MB")
    for name, unit in want.items():
        assert report[name]["unit"] == unit, name


def test_missing_program_fails_without_result(tmp_path):
    os.symlink(HERE, tmp_path / "perfbench")
    out = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                          "--workload", "train", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
