"""scripts/ab_pairs.py: the summary of paired benchmark readings, on fixed
numbers. No test here launches the benchmark."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_interpolate_between_order_statistics():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent = [30.0, 31.0, 29.0, 32.0, 30.5, 29.5, 31.5, 30.0, 30.2, 29.8]
    change = [26.0, 27.0, 26.5, 27.5, 26.0, 30.0, 27.0, 26.8, 26.2, 26.4]
    s = ab.summarize(parent, change)
    assert (s["wins"], s["losses"], s["ties"]) == (9, 1, 0)   # pair 5 lost
    assert s["parent"] == pytest.approx((29.85, 30.1, 30.875))
    assert s["change"] == pytest.approx((26.25, 26.65, 27.0))
    assert s["rel"] == pytest.approx(26.65 / 30.1 - 1)
    assert s["gain"]


def test_summary_refuses_a_gain_without_nine_tenths_of_the_pairs():
    parent = [30.0] * 10
    change = [25.0] * 8 + [31.0, 30.0]          # 8 wins, 1 loss, 1 tie
    s = ab.summarize(parent, change)
    assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1)
    assert not s["gain"]


def test_summary_refuses_a_gain_inside_the_parents_spread():
    parent = [20.0, 40.0, 25.0, 35.0, 30.0, 22.0, 38.0, 28.0, 32.0, 30.0]
    change = [p - 1.0 for p in parent]          # wins every pair by a hair
    s = ab.summarize(parent, change)
    assert s["wins"] == 10 and not s["gain"]


def test_summary_honours_higher_is_better():
    s = ab.summarize([1.0, 1.0, 1.0], [2.0, 2.0, 0.5], better="higher")
    assert (s["wins"], s["losses"]) == (2, 1)
    assert s["rel"] == pytest.approx(1.0)


def test_summary_needs_paired_readings():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.summarize([], [])


def test_result_is_the_last_stdout_line_and_sides_alternate():
    out = 'provenance {"x": 1}\nop_ms.p50 = 3 ms\n{"correct": true, "failed": 0}\n'
    assert ab.parse_result(out) == {"correct": True, "failed": 0}
    with pytest.raises(ValueError):
        ab.parse_result("")
    assert ab.run_order(3) == [("parent", "change"), ("change", "parent"),
                               ("parent", "change")]


RUN_STDOUT = """provenance {"workload": "fit"}
error_rate = 0 ratio
op_ms.p50 = 469.25 ms
op_ms.tail = 512 ms
op_rel.p50 = 4.34 x
probe_ms = 108.1 ms
{"correct": true, "failed": 0, "metrics": {}}
"""


def test_report_lines_give_raw_time_and_the_divisor():
    assert ab.parse_report(RUN_STDOUT) == {"op_ms.p50": 469.25, "probe_ms": 108.1}
    with pytest.raises(ValueError, match="no probe_ms line"):
        ab.parse_report(RUN_STDOUT.replace("probe_ms", "probe"))


def test_raw_time_and_probe_are_shown_and_summarized(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "op_rel.p50", "better": "lower"}]}))

    def fake_run(checkout, workload, seed, seconds):
        # the change's raw time is 10% lower and its probe 5% higher
        change = checkout.endswith("change")
        op, probe = 100.0 + seed - (10.0 if change else 0.0), 20.0 * (1.05 if change else 1.0)
        return {"op_rel.p50": op / probe, "op_ms.p50": op, "probe_ms": probe}

    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "fit", "--pairs", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 0 seed 0 parent: op_rel.p50=5 op_ms.p50=100 probe_ms=20"
    assert out[1] == "pair 0 seed 0 change: op_rel.p50=4.28571 op_ms.p50=90 probe_ms=21"
    assert out[2].startswith("pair 1 seed 1 change: ")
    summary = {line.split(" (")[0]: line for line in out[5:]}
    assert list(summary) == ["op_rel.p50", "op_ms.p50", "probe_ms"]
    assert summary["op_rel.p50"].startswith("op_rel.p50 (lower is better): parent median 5.025")
    assert "(reported): parent median 100.5" in summary["op_ms.p50"]
    assert "change -10.0%, won 2/2 (lost 0)" in summary["op_ms.p50"]
    assert "change +5.0%, won 0/2 (lost 2)" in summary["probe_ms"]
