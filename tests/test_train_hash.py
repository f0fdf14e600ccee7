"""scripts/train_hash.py: the seeded digests (training, sampling in three
modes, fitting, audit and VLB diagnostics) are the same in two processes on one checkout, a
difference between checkouts exits 1, and a checkout that cannot run exits 2."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(ROOT, "scripts", "train_hash.py")
_spec = importlib.util.spec_from_file_location("train_hash", _PATH)
th = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(th)


def test_two_runs_on_one_checkout_hash_alike():
    proc = subprocess.run([sys.executable, _PATH, ROOT, ROOT, "--steps", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")[:2]
    digests = [line.split()[0] for line in lines]
    assert digests[0] == digests[1]
    assert re.fullmatch("[0-9a-f]{64}", digests[0])
    # training, random-mode and paper-28 sampling, fit-rvq + eval, audit + VLB,
    # confidence-mode sampling
    runs = [line.split()[:-1] for line in lines]
    assert runs[0] == runs[1] and len(runs[0]) == 6 and len(set(runs[0])) == 6
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in runs[0])


def test_differing_hashes_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(th, "hash_checkout", lambda checkout, steps: checkout)
    assert th.main(["parent", "change", "--steps", "1"]) == 1
    assert "differ" in capsys.readouterr().err
    assert th.main(["same", "same", "--steps", "1"]) == 0
    # any one digest differing fails
    runs = {"parent": "t s1 s2 f", "change": "t s1 s3 f"}
    monkeypatch.setattr(th, "hash_checkout", lambda checkout, steps: runs[os.path.basename(checkout)])
    assert th.main(["parent", "change", "--steps", "1"]) == 1
    assert th.main(["parent", "parent", "--steps", "1"]) == 0


def test_differing_digests_are_named(monkeypatch, capsys):
    runs = {"parent": "t0 r0 p0 f0 d0 c0", "train": "t1 r0 p0 f0 d0 c0",
            "samples": "t1 r1 p1 f0 d0 c1", "confidence": "t0 r0 p0 f0 d0 c1",
            "all": "t1 r1 p1 f1 d1 c1"}
    monkeypatch.setattr(th, "hash_checkout",
                        lambda checkout, steps: runs[os.path.basename(checkout)])
    for change, moved in (("train", "training"),
                          ("samples", "training, sample-random, sample-paper-28, "
                                      "sample-confidence"),
                          ("confidence", "sample-confidence"),
                          ("all", "training, sample-random, sample-paper-28, fit, "
                                  "diagnostics, sample-confidence")):
        assert th.main(["parent", change, "--steps", "7"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"train_hash: 7-step digests differ: {moved}"]
    assert th.main(["parent", "parent"]) == 0
    assert capsys.readouterr().err == ""


def test_a_checkout_that_cannot_run_exits_two_without_a_traceback(tmp_path):
    missing = tmp_path / "no-src"
    missing.mkdir()
    broken = tmp_path / "broken"
    (broken / "src" / "rvqgen").mkdir(parents=True)
    (broken / "src" / "rvqgen" / "__init__.py").write_text("raise ImportError('broken on import')\n")
    for checkout, reason in ((missing, "no src/rvqgen package"),
                             (broken, "worker exit 1: ImportError: broken on import")):
        # the failing checkout comes first, so the good one is never hashed
        proc = subprocess.run([sys.executable, _PATH, str(checkout), ROOT, "--steps", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"train_hash: {checkout}: {reason}"]
