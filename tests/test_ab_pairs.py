"""scripts/ab_pairs.py: the summary of paired benchmark readings, on fixed
numbers. No test here launches the benchmark."""

import importlib.util
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
