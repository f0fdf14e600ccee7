"""End-to-end CLI tests: every subcommand, reproducibility, config-file
precedence, and the binary-format error contracts."""

import argparse
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rvqgen import checkpoint as ckpt_mod
from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import evaluate as ev
from rvqgen import numerics as nm
from rvqgen import rvq
from rvqgen.trainer import TrainConfig


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    """A small synthetic dataset + fitted codebook to drive commands."""
    ds_path = tmp_path / "data.rgds"
    book_path = tmp_path / "book.rvqc"
    assert run("synth", "--out", ds_path, "--count", 96, "--seq-len", 3,
               "--dim", 3, "--modes", 4, "--seed", 7) == 0
    assert run("fit-rvq", "--dataset", ds_path, "--depth", 2, "--vocab", 4,
               "--out", book_path, "--seed", 7) == 0
    return tmp_path, ds_path, book_path


def test_synth_deterministic_and_meta(tmp_path):
    a, b = tmp_path / "a.rgds", tmp_path / "b.rgds"
    run("synth", "--out", a, "--count", 50, "--seq-len", 2, "--dim", 4,
        "--modes", 9, "--seed", 3)
    run("synth", "--out", b, "--count", 50, "--seq-len", 2, "--dim", 4,
        "--modes", 9, "--seed", 3)
    assert a.read_bytes() == b.read_bytes()
    meta = data_mod.load_meta(a)
    assert meta["modes"] == 9 and len(meta["centers"]) == 9


def test_synth_rejects_empty(tmp_path):
    assert run("synth", "--out", tmp_path / "x.rgds", "--count", 0) == 1


def test_synth_mode_occupancy(tmp_path):
    path = tmp_path / "grid.rgds"
    run("synth", "--out", path, "--count", 2000, "--seq-len", 4, "--dim", 4,
        "--modes", 9, "--seed", 5)
    ds = data_mod.load_dataset(path)
    occ = ev.mode_occupancy(ds.vectors, data_mod.load_meta(path)["centers"])
    # multinomial concentration: |p - 1/9| within ~4 sigma
    sigma = np.sqrt((1 / 9) * (8 / 9) / (2000 * 4))
    assert np.all(np.abs(occ - 1 / 9) < 4 * sigma)


def test_fit_rvq_roundtrips(workspace):
    _, ds_path, book_path = workspace
    book = rvq.load_codebook(book_path)
    blob1 = rvq.codebook_to_bytes(book)
    assert blob1 == book_path.read_bytes()


def test_train_sample_eval_inspect_cycle(workspace, capsys):
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "model.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path,
               "--out", ckpt, "--steps", 12, "--batch-size", 4,
               "--width", 16, "--layers", 1, "--heads", 2, "--mixtures", 2,
               "--mean-rank", 2, "--seed", 1) == 0
    log = (tmp / "model.ckpt.log").read_text().splitlines()
    assert len(log) == 12
    assert all("gap=" in ln for ln in log)
    gaps = [float(ln.split("gap=")[1].split()[0]) for ln in log]
    assert all(g >= -1e-9 for g in gaps)

    gen = tmp / "gen.rgds"
    assert run("sample", "--checkpoint", ckpt, "--out", gen, "--count", 12,
               "--steps", 3, "--selection", "random", "--seed", 2) == 0
    out = capsys.readouterr().out
    assert "forward_passes=36" in out.replace(" ", "").replace(",", " ") or \
        "forward_passes=36" in out

    report = tmp / "report.txt"
    assert run("eval", "--generated", gen, "--reference", ds_path,
               "--codebook", book_path, "--tokens", str(gen) + ".tokens.txt",
               "--out", report) == 0
    text = report.read_text()
    assert text.startswith("fd=")
    assert "fd_baseline=" in text
    assert "forward_pass_count=36" in text
    assert "wall" not in text

    assert run("inspect", ds_path) == 0
    assert run("inspect", book_path) == 0
    assert run("inspect", ckpt) == 0
    shown = capsys.readouterr().out
    assert "kind=dataset" in shown and "kind=codebook" in shown \
        and "kind=checkpoint" in shown


def test_sample_determinism_and_token_dump(workspace):
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "m.ckpt"
    run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
        "--steps", 5, "--batch-size", 4, "--width", 16, "--layers", 1,
        "--heads", 2, "--mixtures", 2, "--mean-rank", 2, "--seed", 3)
    a, b = tmp / "a.rgds", tmp / "b.rgds"
    for out in (a, b):
        assert run("sample", "--checkpoint", ckpt, "--out", out, "--count", 6,
                   "--steps", 4, "--seed", 11) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp / "a.rgds.tokens.txt").read_bytes() == \
        (tmp / "b.rgds.tokens.txt").read_bytes()


def test_sample_preset_paper_64(workspace, capsys):
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "p.ckpt"
    run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
        "--steps", 3, "--batch-size", 4, "--width", 16, "--layers", 1,
        "--heads", 2, "--mixtures", 2, "--mean-rank", 2, "--seed", 6)
    gen = tmp / "p.rgds"
    # paper-64: steps=64, cfg 0.02 -> 2.2, top-p 0.98, tau 28 => 2T passes
    assert run("sample", "--checkpoint", ckpt, "--out", gen, "--count", 2,
               "--preset", "paper-64", "--seed", 1) == 0
    out = capsys.readouterr().out
    assert "forward_passes=256" in out
    # flags override preset fields
    assert run("sample", "--checkpoint", ckpt, "--out", gen, "--count", 1,
               "--preset", "paper-64", "--steps", 4, "--seed", 1) == 0
    assert "forward_passes=8" in capsys.readouterr().out


def test_train_zero_steps_equals_init(workspace):
    tmp, ds_path, book_path = workspace
    out = tmp / "init.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path,
               "--out", out, "--steps", 0, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2, "--seed", 4) == 0
    from rvqgen import checkpoint as ck
    from rvqgen.backbone import Backbone
    loaded = ck.load_checkpoint(out)
    fresh = Backbone(loaded.backbone_config, seed=4)
    ref = fresh.parameter_arrays()
    assert loaded.step == 0
    assert all(np.array_equal(ref[k], loaded.params[k]) for k in ref)


def test_resume_bit_identical(workspace):
    tmp, ds_path, book_path = workspace
    straight = tmp / "straight.ckpt"
    run("train", "--dataset", ds_path, "--codebook", book_path,
        "--out", straight, "--steps", 10, "--batch-size", 4, "--width", 16,
        "--layers", 1, "--heads", 2, "--mixtures", 2, "--mean-rank", 2,
        "--seed", 5)
    # the trainer continues to its checkpointed config.steps, so resume
    # trains to the checkpointed total; save a 10-step run mid-flight via
    # checkpoint-every and resume from its step-4 snapshot
    full = tmp / "full.ckpt"
    run("train", "--dataset", ds_path, "--codebook", book_path, "--out", full,
        "--steps", 10, "--batch-size", 4, "--width", 16, "--layers", 1,
        "--heads", 2, "--mixtures", 2, "--mean-rank", 2, "--seed", 5,
        "--checkpoint-every", 4)
    resumed = tmp / "resumed.ckpt"
    run("train", "--dataset", ds_path, "--resume", str(full) + ".step4",
        "--out", resumed)
    # parameters, optimizer state, EMA and RNG all continue bit-identically;
    # the file bytes differ only in the config snapshot (checkpoint_every)
    from rvqgen import checkpoint as ck
    a = ck.load_checkpoint(straight)
    for other in (resumed, full):
        b = ck.load_checkpoint(other)
        assert b.step == a.step == 10
        assert b.rng_state == a.rng_state
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert all(np.array_equal(a.ema[k], b.ema[k]) for k in a.ema)
        assert all(np.array_equal(a.opt_m[k], b.opt_m[k]) for k in a.opt_m)


def test_eval_identical_sets_near_zero(workspace, capsys):
    _, ds_path, book_path = workspace
    assert run("eval", "--generated", ds_path, "--reference", ds_path) == 0
    out = capsys.readouterr().out
    fd = float(out.splitlines()[0].split("=")[1])
    assert fd < 1e-6


def test_eval_dim_mismatch_rejected(workspace, tmp_path, capsys):
    _, ds_path, _ = workspace
    other = tmp_path / "other.rgds"
    run("synth", "--out", other, "--count", 30, "--seq-len", 3, "--dim", 5,
        "--modes", 4, "--seed", 0)
    capsys.readouterr()
    assert run("eval", "--generated", other, "--reference", ds_path) == 1
    assert _one_error(capsys) == "error: dimension mismatch: generated 5 vs reference 3"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("count=40\nseq-len=2\ndim=3\nmodes=4\nseed=9\n")
    out1 = tmp_path / "c1.rgds"
    assert run("synth", "--config", cfg, "--out", out1) == 0
    ds = data_mod.load_dataset(out1)
    assert ds.count == 40 and ds.seq_len == 2
    out2 = tmp_path / "c2.rgds"
    assert run("synth", "--config", cfg, "--out", out2, "--count", 15) == 0
    assert data_mod.load_dataset(out2).count == 15  # flag beats file


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "123")
    a = tmp_path / "a.rgds"
    b = tmp_path / "b.rgds"
    run("synth", "--out", a, "--count", 20, "--seq-len", 2, "--dim", 2,
        "--modes", 4)
    run("synth", "--out", b, "--count", 20, "--seq-len", 2, "--dim", 2,
        "--modes", 4, "--seed", 123)
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_reports_path(tmp_path, capsys):
    assert run("inspect", tmp_path / "nope.bin") == 1
    err = capsys.readouterr().err
    assert "nope.bin" in err


def test_truncated_or_padded_codebook_reports_path(workspace, capsys):
    tmp, ds_path, book_path = workspace
    blob = book_path.read_bytes()
    bad = tmp / "bad.rvqc"
    commands = (("eval", "--generated", ds_path, "--reference", ds_path,
                 "--codebook", bad),
                ("train", "--dataset", ds_path, "--codebook", bad,
                 "--out", tmp / "m.ckpt", "--steps", 0),
                ("inspect", bad))
    for payload in [blob[:n] for n in range(len(blob))] + [blob + b"\0"]:
        bad.write_bytes(payload)
        # inspect dispatches on the magic, so it needs the first 4 bytes
        for argv in commands if len(payload) >= 4 else commands[:2]:
            assert run(*argv) == 1, (argv[0], len(payload))
            out = capsys.readouterr()
            assert out.out == ""
            err = out.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not (tmp / "m.ckpt").exists()


def test_truncated_or_padded_dataset_reports_path(workspace, capsys):
    tmp, ds_path, book_path = workspace
    small = tmp / "small.rgds"
    assert run("synth", "--out", small, "--count", 3, "--seq-len", 2,
               "--dim", 2, "--modes", 4, "--seed", 1) == 0
    capsys.readouterr()
    blob = small.read_bytes()
    bad = tmp / "bad.rgds"
    commands = (("fit-rvq", "--dataset", bad, "--depth", 1, "--vocab", 2,
                 "--out", tmp / "never.rvqc"),
                ("eval", "--generated", bad, "--reference", ds_path),
                ("inspect", bad))
    for payload in [blob[:n] for n in range(len(blob))] + [blob + b"\0"]:
        bad.write_bytes(payload)
        # inspect dispatches on the magic, so it needs the first 4 bytes
        for argv in commands if len(payload) >= 4 else commands[:2]:
            assert run(*argv) == 1, (argv[0], len(payload))
            out = capsys.readouterr()
            assert out.out == ""
            err = out.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
    assert not (tmp / "never.rvqc").exists()


def test_label_past_num_classes_reports_path(workspace, capsys):
    # with num_classes 0 the label check was once skipped: fit-rvq took
    # the file and train failed later with no path
    tmp, ds_path, book_path = workspace
    blob = bytearray(ds_path.read_bytes())
    at = data_mod._HEADER.size          # the first record's u32 label
    blob[at:at + 4] = struct.pack("<I", 1)
    bad = tmp / "bad.rgds"
    bad.write_bytes(bytes(blob))
    for argv in (("train", "--dataset", bad, "--codebook", book_path,
                  "--out", tmp / "never.ckpt", *TRAIN_SMALL),
                 ("fit-rvq", "--dataset", bad, "--depth", 1, "--vocab", 2,
                  "--out", tmp / "never.rvqc")):
        assert run(*argv) == 1
        assert _one_error(capsys) == f"error: {bad}: label exceeds num_classes"
    assert not (tmp / "never.ckpt").exists() and not (tmp / "never.rvqc").exists()


def test_truncated_or_padded_checkpoint_reports_path(workspace, capsys):
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "good.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 2, "--batch-size", 2, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2) == 0
    capsys.readouterr()
    blob = ckpt.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    bad = tmp / "bad.ckpt"
    commands = (("inspect", bad),
                ("sample", "--checkpoint", bad, "--out", tmp / "never.rgds",
                 "--count", 1, "--steps", 2),
                ("train", "--dataset", ds_path, "--resume", bad,
                 "--out", tmp / "never.ckpt"))
    # the fixed header, mid-JSON, mid-codebook, mid-body, 9 bytes short, padded
    for payload in (blob[:10], blob[:16 + hlen // 2], blob[:16 + hlen + 30],
                    blob[:len(blob) // 2], blob[:-9], blob + b"\0"):
        bad.write_bytes(payload)
        for argv in commands:
            assert run(*argv) == 1, (argv[0], len(payload))
            out = capsys.readouterr()
            assert out.out == ""
            err = out.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: checkpoint "), err
    assert not (tmp / "never.rgds").exists() and not (tmp / "never.ckpt").exists()


def _drop(group, name):
    def edit(c):
        del getattr(c, group)[name]
    return edit


def _reshape(group, name):
    def edit(c):
        getattr(c, group)[name] = getattr(c, group)[name].reshape(-1)[:-1]
    return edit


def _set(field, value):
    return lambda c: setattr(c, field, value)


def _set_config(config, field, value):
    return lambda c: setattr(getattr(c, config), field, value)


@pytest.mark.parametrize("edit,reason", [
    (_drop("params", "basis.M"), r"params\.basis\.M: missing"),
    (_drop("ema", "head.shift.b"), r"ema\.head\.shift\.b: missing"),
    (_reshape("opt_v", "embed.w"), r"opt_v\.embed\.w: shape \(63,\), the parameter has \(4, 16\)"),
    (lambda c: c.opt_m.update(extra=np.zeros(2)), r"opt_m\.extra: not a backbone parameter"),
    (_set("rng_state", "x"), "rng_state is not a PCG64 state"),
    (_set("rng_state", {"bit_generator": "MT19937", "state": {"key": [0] * 624, "pos": 624}}),
     "rng_state is not a PCG64 state"),
    (_set("step", -1), "step must be >= 0"),
    (_set("step", 2.7), r"step must be an integer, got 2\.7"),
    (_set("step", True), "step must be an integer, got True"),
    # these once passed `inspect`; width ended `sample` and `train
    # --resume` in a TypeError, steps and batch_size ended `train --resume`
    (_set_config("backbone_config", "width", 16.0),
     r"JSON header malformed: .*width: 16\.0 is not an integer"),
    (_set_config("backbone_config", "num_classes", False),
     "JSON header malformed: .*num_classes: False is not an integer"),
    (_set_config("train_config", "steps", 4.5),
     r"JSON header malformed: .*steps: 4\.5 is not an integer"),
    (_set_config("train_config", "batch_size", 2.0),
     r"JSON header malformed: .*batch_size: 2\.0 is not an integer"),
    (_set_config("train_config", "audit_steps", (0, 1.5)),
     r"JSON header malformed: .*audit_steps: 1\.5 is not an integer"),
], ids=["no-param", "no-ema", "bad-shape", "extra-array", "rng-not-a-dict",
        "rng-foreign", "negative-step", "float-step", "bool-step", "float-width",
        "bool-num-classes", "float-steps", "float-batch-size", "float-audit-step"])
def test_tampered_checkpoint_contents_report_path(workspace, capsys, edit, reason):
    # each once ended in a traceback (KeyError, TypeError) or an unnamed
    # error, or resumed at a negative step
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "good.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 2, "--batch-size", 2, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2) == 0
    capsys.readouterr()
    tampered = ckpt_mod.load_checkpoint(ckpt)
    edit(tampered)
    bad = tmp / "bad.ckpt"
    bad.write_bytes(tampered.to_bytes())
    for argv in (("inspect", bad),
                 ("sample", "--checkpoint", bad, "--out", tmp / "never.rgds",
                  "--count", 1, "--steps", 2),
                 ("train", "--dataset", ds_path, "--resume", bad,
                  "--out", tmp / "never.ckpt")):
        assert run(*argv) == 1, argv[0]
        out = capsys.readouterr()
        err = out.err.splitlines()
        assert out.out == "" and len(err) == 1, (argv[0], out)
        assert err[0].startswith(f"error: {bad}: checkpoint "), err
        assert re.search(reason, err[0]), err
    assert not (tmp / "never.rgds").exists() and not (tmp / "never.ckpt").exists()


@pytest.mark.parametrize("field, value, book_value", [
    ("depth", 1, 2), ("depth", 3, 2), ("vocab", 99, 4), ("latent_dim", 4, 3)])
def test_checkpoint_geometry_must_match_its_codebook(workspace, capsys, field, value,
                                                     book_value):
    # depth once passed `inspect` and failed later without the path; vocab
    # 99 beside a 4-word codebook passed every command
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "good.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 2, "--batch-size", 2, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2) == 0
    capsys.readouterr()
    tampered = ckpt_mod.load_checkpoint(ckpt)
    setattr(tampered.backbone_config, field, value)
    bad = tmp / "bad.ckpt"
    bad.write_bytes(tampered.to_bytes())
    for argv in (("inspect", bad),
                 ("sample", "--checkpoint", bad, "--out", tmp / "never.rgds",
                  "--count", 1, "--steps", 2),
                 ("train", "--dataset", ds_path, "--resume", bad,
                  "--out", tmp / "never.ckpt")):
        assert run(*argv) == 1, argv[0]
        out = capsys.readouterr()
        assert out.out == "" and out.err.splitlines() == [
            f"error: {bad}: checkpoint codebook has {field} {book_value}, "
            f"backbone_config {value}"], (argv[0], out)
    assert not (tmp / "never.rgds").exists() and not (tmp / "never.ckpt").exists()


def _edit_header(blob, edit):
    """An RGCK blob with its JSON header passed through `edit`."""
    hlen = int.from_bytes(blob[8:16], "little")
    head = json.loads(blob[16:16 + hlen])
    edit(head)
    text = json.dumps(head).encode()
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[16 + hlen:]


@pytest.mark.parametrize("edit", [
    lambda h: h["arrays"][0]["shape"].__setitem__(0, float(h["arrays"][0]["shape"][0])),
    lambda h: h["arrays"][3]["shape"].__setitem__(0, True),
    lambda h: h.__setitem__("codebook_bytes", float(h["codebook_bytes"])),
], ids=["float-dimension", "bool-dimension", "float-codebook-bytes"])
def test_checkpoint_header_counts_must_be_json_integers(workspace, capsys, edit):
    # a float or bool equal to the count once loaded as that count
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "good.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 2, "--batch-size", 2, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2) == 0
    capsys.readouterr()
    bad = tmp / "bad.ckpt"
    bad.write_bytes(_edit_header(ckpt.read_bytes(), edit))
    for argv in (("inspect", bad),
                 ("sample", "--checkpoint", bad, "--out", tmp / "never.rgds",
                  "--count", 1, "--steps", 2)):
        assert run(*argv) == 1, argv[0]
        out = capsys.readouterr()
        err = out.err.splitlines()
        assert out.out == "" and len(err) == 1, (argv[0], out)
        assert err[0].startswith(f"error: {bad}: checkpoint JSON header malformed: "), err
        assert "must be an integer >= 0" in err[0], err
    assert not (tmp / "never.rgds").exists()


def test_diverging_training_run_is_one_error_line(workspace, capsys):
    # the trainer's non-finite-loss error once left main as a traceback,
    # after numpy's overflow warnings
    tmp, ds_path, book_path = workspace
    out = tmp / "never.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", out,
                   "--steps", 20, "--batch-size", 4, "--width", 16, "--layers", 1,
                   "--heads", 2, "--mixtures", 2, "--mean-rank", 2,
                   "--lr", 1e200, "--warmup", 0) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss at step "), err
    assert not out.exists()


@pytest.mark.parametrize("dump,reason", [
    ("1 2 3 4 1 2\n", "no '#' header"),
    ("", "no '#' header"),
    ("# forward_passes=3 depth=2\n1 2 3 4 1 2\n", "positive seq_len and depth"),
    ("# forward_passes=3 seq_len=3\n1 2 3 4 1 2\n", "positive seq_len and depth"),
    ("# seq_len=3 depth=two\n1 2 3 4 1 2\n", "not key=integer"),
    ("# seq_len=3.5 depth=2\n1 2 3 4 1 2\n", "not key=integer"),
    ("# seq_len=3 depth=3\n1 2 3 4 1 2 3 4 1\n", "disagrees with the codebook"),
    ("# seq_len=3 depth=2\n1 2 x 4 1 2\n", "line 2: non-integer token"),
    ("# seq_len=3 depth=2\n1 2 3 4 1 2\n1 2 3 4 1\n", "line 3: 5 tokens"),
    ("# seq_len=3 depth=2\n1 2 3 4 1 2 3\n", "line 2: 7 tokens"),
    ("# seq_len=3 depth=2\n0 2 3 4 1 2\n", r"token outside \[1, 4\]"),
    ("# seq_len=3 depth=2\n1 2 3 5 1 2\n", r"token outside \[1, 4\]"),
    ("# seq_len=3 depth=2\n\n", "no grids"),
])
def test_malformed_token_dump_reports_path(workspace, capsys, dump, reason):
    tmp, ds_path, book_path = workspace
    capsys.readouterr()
    path = tmp / "dump.tokens.txt"
    argv = ("eval", "--generated", ds_path, "--reference", ds_path,
            "--codebook", book_path, "--tokens", path)
    path.write_text("# forward_passes=3 seq_len=3 depth=2\n1 2 3 4 1 2\n4 4 4 4 4 4\n")
    assert run(*argv) == 0
    capsys.readouterr()
    path.write_text(dump)
    assert run(*argv) == 1
    out = capsys.readouterr()
    err = out.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert re.search(reason, err[0]), err


def test_eval_tokens_without_codebook_is_an_error(workspace, capsys):
    # token dumps are read against a codebook; without one the dump would
    # go unread and the report would claim forward_pass_count=0
    tmp, ds_path, book_path = workspace
    dump = tmp / "dump.tokens.txt"
    dump.write_text("# forward_passes=3 seq_len=3 depth=2\n1 2 3 4 1 2\n")
    base = ("eval", "--generated", ds_path, "--reference", ds_path)
    assert run(*base, "--codebook", book_path, "--tokens", dump) == 0
    capsys.readouterr()
    for path in (dump, tmp / "missing.tokens.txt"):
        assert run(*base, "--tokens", path) == 1
        out = capsys.readouterr()
        assert out.out == ""
        err = out.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
        assert "--codebook" in err[0]


def test_sample_zero_count_is_an_error(workspace, capsys):
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "z.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 1, "--batch-size", 2, "--width", 16, "--layers", 1,
               "--heads", 2, "--mixtures", 2, "--mean-rank", 2) == 0
    capsys.readouterr()
    assert run("sample", "--checkpoint", ckpt, "--out", tmp / "z.rgds",
               "--count", 0, "--steps", 2) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: count must be >= 1, got 0"]
    assert not (tmp / "z.rgds").exists()


def test_inspect_rejects_unknown_magic(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    assert run("inspect", path) == 1
    assert _one_error(capsys) == f"error: {path}: unknown magic b'JUNK'"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200], ids=["inf", "nan", "overflow"])
def test_inspect_names_a_codebook_sigma_that_is_not_finite(tmp_path, capsys, bad):
    # the RVQC file ends with its sigmas; the last one is overwritten
    blob = rvq.codebook_to_bytes(rvq.Codebook(np.ones((2, 3, 2)), np.ones(2)))
    path = tmp_path / "bad.rvqc"
    path.write_bytes(blob[:-8] + struct.pack("<d", bad))
    assert run("inspect", path) == 1
    assert _one_error(capsys) == (f"error: {path}: codebook sigma must be finite, "
                                  f"with 2 sigma^2 finite, got {bad}")


def test_no_partial_output_on_failure(tmp_path, monkeypatch):
    # force a failure mid-synthesis by requesting an invalid family
    out = tmp_path / "never.rgds"
    assert run("synth", "--out", out, "--family", "spiral", "--count", 5) == 1
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_file_system_errors_name_the_users_path(tmp_path, capsys):
    # each once ended in an OSError traceback, or named the temp file
    folder = tmp_path / "folder"
    folder.mkdir()
    small = ("--count", 2, "--seq-len", 1, "--dim", 2)
    for argv, path, reason in (
            (("--config", folder, "--out", tmp_path / "x.rgds"), folder, "Is a directory"),
            (("--out", folder), folder, "Is a directory"),
            (("--out", tmp_path / "missing" / "x.rgds"), tmp_path / "missing" / "x.rgds",
             "No such file or directory")):
        assert run("synth", *argv, *small) == 1
        assert _one_error(capsys) == f"error: {path}: {reason}"
    assert sorted(os.listdir(tmp_path)) == ["folder"]
    assert os.listdir(folder) == []


def test_header_overflow_is_one_named_error(tmp_path, capsys):
    out = tmp_path / "x.rgds"
    assert run("synth", "--family", "classes", "--num-classes", 2**32, "--count", 2,
               "--seq-len", 1, "--dim", 2, "--modes", 1, "--out", out) == 1
    assert _one_error(capsys) == ("error: num_classes must lie in [0, 4294967295] "
                                  "(a u32 field of the dataset header), got 4294967296")
    assert os.listdir(tmp_path) == []


TRAIN_SMALL = ("--width", 16, "--layers", 1, "--heads", 2, "--mixtures", 2,
               "--mean-rank", 2)


def _one_error(capsys):
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_negative_checkpoint_every_fails_fast(workspace):
    # a negative chunk once made `train` loop forever rewriting <out>.step0;
    # a child process bounds the run should the guard ever go missing
    tmp, ds_path, book_path = workspace
    out = tmp / "neg.ckpt"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "rvqgen.cli", "train", "--dataset", str(ds_path),
         "--codebook", str(book_path), "--out", str(out), "--steps", "3",
         "--checkpoint-every", "-1", *map(str, TRAIN_SMALL)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: checkpoint_every must be non-negative (0: only at the end)"]
    assert sorted(p.name for p in tmp.iterdir() if p.name.startswith("neg")) == []


def test_bad_training_options_are_errors(workspace, capsys):
    # --checkpoint-every -1 runs only in the bounded child process above:
    # in this process a missing guard would hang the test run
    tmp, ds_path, book_path = workspace
    out = tmp / "bad.ckpt"
    for flags, reason in ((("--batch-size", 0), "batch_size must be at least 1, got 0"),
                          (("--batch-size", -3), "batch_size must be at least 1, got -3"),
                          (("--lr-decay", "bogus"), "unknown lr_decay 'bogus'"),
                          (("--warmup", -5), "warmup must be non-negative, got -5"),
                          (("--ema-decay", 1.5), "ema_decay must lie in [0, 1], got 1.5"),
                          (("--ema-decay", -0.1), "ema_decay must lie in [0, 1], got -0.1"),
                          (("--min-lr-frac", -1), "min_lr_frac must lie in [0, 1], got -1.0"),
                          (("--min-lr-frac", 1.5), "min_lr_frac must lie in [0, 1], got 1.5")):
        assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", out,
                   "--steps", 3, *TRAIN_SMALL, *flags) == 1, flags
        assert _one_error(capsys).startswith(f"error: {reason}")
    assert sorted(p.name for p in tmp.iterdir() if p.name.startswith("bad")) == []
    # the accepted edge values still train
    for ok in (("--lr-decay", "none"), ("--checkpoint-every", 0), ("--batch-size", 1),
               ("--warmup", 0), ("--ema-decay", 0), ("--ema-decay", 1),
               ("--min-lr-frac", 0), ("--min-lr-frac", 1)):
        assert run("train", "--dataset", ds_path, "--codebook", book_path,
                   "--out", tmp / "ok.ckpt", "--steps", 1, *TRAIN_SMALL, *ok) == 0


def test_non_finite_training_options_are_errors(workspace, capsys):
    # nan passes every range check: lr/weight_decay nan once ended in a
    # non-finite-loss traceback, a nan clip_norm or label_dropout silently
    # switched its feature off
    tmp, ds_path, book_path = workspace
    out = tmp / "nf.ckpt"
    for flag, value in (("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"),
                        ("--clip-norm", "nan"), ("--label-dropout", "nan"),
                        ("--clip-norm", "inf")):
        name = flag[2:].replace("-", "_")
        assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", out,
                   "--steps", 2, *TRAIN_SMALL, flag, value) == 1, flag
        assert _one_error(capsys) == f"error: {name} must be finite, got {float(value)}"
    assert sorted(p.name for p in tmp.iterdir() if p.name.startswith("nf")) == []
    # eps has no flag; the config refuses it alike
    with pytest.raises(ValueError, match="eps must be finite"):
        TrainConfig(eps=float("nan"))
    # 0 still trains wherever it is allowed
    for flag in ("--lr", "--weight-decay", "--clip-norm", "--label-dropout"):
        assert run("train", "--dataset", ds_path, "--codebook", book_path,
                   "--out", tmp / "zero.ckpt", "--steps", 1, *TRAIN_SMALL,
                   flag, 0) == 0, flag


def test_non_finite_sampler_options_are_errors(workspace, capsys):
    # once reported as a masked-count or head-output fault deep in the run
    tmp, ds_path, book_path = workspace
    ckpt = tmp / "s.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", ckpt,
               "--steps", 1, *TRAIN_SMALL) == 0
    capsys.readouterr()
    out = tmp / "s.rgds"
    for flags, name, value in ((("--temperature", "nan"), "temperature", "nan"),
                               (("--temperature", "inf"), "temperature", "inf"),
                               (("--cfg-start", "nan", "--use-cfg", "true"),
                                "cfg_start", "nan"),
                               (("--cfg-end", "inf", "--use-cfg", "true"),
                                "cfg_end", "inf")):
        assert run("sample", "--checkpoint", ckpt, "--out", out, "--count", 1,
                   "--steps", 2, *flags) == 1, flags
        assert _one_error(capsys) == f"error: {name} must be finite, got {float(value)}"
        assert not out.exists()


def test_depth_zero_codebook_is_an_error(workspace, capsys):
    tmp, ds_path, book_path = workspace
    never = tmp / "d0.rvqc"
    assert run("fit-rvq", "--dataset", ds_path, "--depth", 0, "--vocab", 4,
               "--out", never) == 1
    assert _one_error(capsys) == "error: depth must be at least 1"
    assert not never.exists()
    # a depth-0 file written by hand: valid header and an empty body
    for D, V, H in ((0, 4, 3), (2, 0, 3), (2, 4, 0)):
        bad = tmp / f"empty{D}{V}{H}.rvqc"
        bad.write_bytes(struct.pack("<4sIIII", b"RVQC", 1, D, V, H)
                        + bytes(8 * (D * V * H + D)))
        for argv in (("inspect", bad),
                     ("eval", "--generated", ds_path, "--reference", ds_path,
                      "--codebook", bad),
                     ("train", "--dataset", ds_path, "--codebook", bad,
                      "--out", tmp / "never.ckpt", "--steps", 0)):
            assert run(*argv) == 1, argv
            assert _one_error(capsys).startswith(
                f"error: {bad}: codebook needs depth, vocab and dim >= 1"), argv
    assert not (tmp / "never.ckpt").exists()


def test_bad_config_value_names_file_and_key(workspace, capsys):
    tmp, ds_path, book_path = workspace
    cfg = tmp / "train.cfg"
    for text, message in (
            ("steps=abc\n", "steps: invalid literal for int() with base 10: 'abc'"),
            ("steps=1\nbatch_size=2\ndifferentiate_q=maybe\n",
             "differentiate_q: cannot parse boolean from 'maybe'"),
            ("lr=fast\n", "lr: could not convert string to float: 'fast'")):
        cfg.write_text(text)
        assert run("train", "--config", cfg, "--dataset", ds_path, "--codebook",
                   book_path, "--out", tmp / "m.ckpt", *TRAIN_SMALL) == 1
        assert _one_error(capsys) == f"error: {cfg}: {message}"
    assert not (tmp / "m.ckpt").exists()
    cfg.write_text("count=12x\n")
    assert run("synth", "--config", cfg, "--out", tmp / "x.rgds") == 1
    assert _one_error(capsys) == (
        f"error: {cfg}: count: invalid literal for int() with base 10: '12x'")
    # a non-UTF-8 file once failed with the codec's words and no path
    cfg.write_bytes(b"\xff\xfecount=12\n")
    assert run("synth", "--config", cfg, "--out", tmp / "x.rgds") == 1
    assert _one_error(capsys) == f"error: {cfg}: config file is not UTF-8 text"
    assert not (tmp / "x.rgds").exists()
    # a key the command does not take once trained silently on the defaults
    for text, command in (("bogus=1\n", "train"), ("steps=1\nbeta1=0.5\n", "train"),
                          ("out=elsewhere\n", "synth")):
        cfg.write_text(text)
        argv = (["train", "--dataset", ds_path, "--codebook", book_path,
                 "--out", tmp / "m.ckpt", *TRAIN_SMALL] if command == "train"
                else ["synth", "--out", tmp / "x.rgds"])
        assert run(*argv, "--config", cfg) == 1
        key = text.splitlines()[-1].partition("=")[0]
        assert _one_error(capsys) == f"error: {cfg}: {key}: not an option of {command}"
    assert not (tmp / "m.ckpt").exists() and not (tmp / "x.rgds").exists()


# each once failed with a traceback, numpy's words, a warning, or not at all
FINDINGS = [
    (("synth", "--dim", 0), "dim must be >= 1, got 0"),
    (("synth", "--seq-len", 0), "seq_len must be >= 1, got 0"),
    (("synth", "--modes", 0), "modes must be >= 1, got 0"),
    (("synth", "--modes", 0, "--family", "ring"), "modes must be >= 1, got 0"),
    (("fit-rvq", "--epochs", -1), "epochs must be >= 0, got -1"),
    (("fit-rvq", "--sigma-assign", "nan"), "sigma_assign must be finite and > 0, got nan"),
    (("fit-rvq", "--update", "probabilistic", "--sigma-assign", 0),
     "sigma_assign must be finite and > 0, got 0.0"),
    (("train", "--audit-steps", "x"),
     "audit_steps: invalid literal for int() with base 10: 'x'"),
    (("train", "--width", 0), "width must be >= 1, got 0"),
    (("train", "--schedule", "exp:nan"),
     "schedule 'exp:nan': exponential schedule needs a finite lam > 0, got nan"),
    (("sample", "--count", -1), "count must be >= 1, got -1"),
    (("sample", "--schedule", "exp:abc"),
     "schedule 'exp:abc': could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("argv, reason", FINDINGS)
def test_bad_options_fail_with_one_named_error(workspace, capsys, argv, reason):
    tmp, ds_path, book_path = workspace
    command, *flags = argv
    inputs = {"synth": [], "fit-rvq": ["--dataset", ds_path],
              "train": ["--dataset", ds_path, "--codebook", book_path,
                        "--steps", 1, *TRAIN_SMALL],
              "sample": ["--checkpoint", tmp / "m.ckpt", "--steps", 2, "--count", 1]}
    if command == "sample":
        assert run("train", *inputs["train"], "--out", tmp / "m.ckpt") == 0
    out_dir = tmp / "out"
    out_dir.mkdir()
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, *inputs[command], "--out", out_dir / "x", *flags) == 1
    assert _one_error(capsys) == f"error: {reason}"
    assert [str(w.message) for w in caught] == []
    assert list(out_dir.iterdir()) == []


def test_seed_env_garbage_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "x")
    assert run("synth", "--out", tmp_path / "x.rgds", "--count", 2) == 1
    assert _one_error(capsys) == (
        f"error: {cli.SEED_ENV}: invalid literal for int() with base 10: 'x'")
    assert run("synth", "--out", tmp_path / "x.rgds", "--count", 2, "--seed", 1) == 0


REQUIRED = "required"

# every subcommand's flags and what each resolves to when neither a flag
# nor a config line sets it, as they were before the options were derived
# from the library; sample's sampler fields are those of SamplerConfig()
SURFACE = {
    "synth": dict(config=None, family="grid", count=10000, seq_len=8, dim=8, modes=9,
                  noise=0.1, spread=2.0, num_classes=0, class_shift=1.0, seed=0,
                  out=REQUIRED),
    "fit-rvq": dict(config=None, depth=4, vocab=32, update="nearest", epochs=10,
                    sigma_assign=1.0, seed=0, dataset=REQUIRED, out=REQUIRED),
    "train": dict(config=None, steps=1000, batch_size=16, lr=3e-4, schedule="circle",
                  label_dropout=0.1, warmup=100, lr_decay="cosine", min_lr_frac=0.1,
                  clip_norm=1.0, weight_decay=0.0, ema_decay=0.999, checkpoint_every=0,
                  differentiate_q=False, audit_steps=(), seed=0, width=64, layers=2,
                  heads=4, mixtures=32, mean_rank=8, dataset=REQUIRED, codebook=None,
                  resume=None, log=None, out=REQUIRED),
    "sample": dict(config=None, count=64, label=0, weights="ema", preset="", steps=63,
                   schedule="circle", selection="confidence", temperature=1.0, top_p=1.0,
                   cfg_start=0.0, cfg_end=0.0, use_cfg=False, seed=0,
                   checkpoint=REQUIRED, out=REQUIRED),
    "eval": dict(generated=REQUIRED, reference=REQUIRED, codebook=None, tokens=None,
                 out=None),
    "inspect": dict(path=REQUIRED),
}


def test_option_surface_is_pinned(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(SURFACE)
    for command, expected in SURFACE.items():
        actions = [a for a in commands[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        flags = {a.dest: a.option_strings for a in actions}
        assert flags == {name: ["--" + name.replace("_", "-")] if name != "path" else []
                         for name in expected}, command
        required = [a.dest for a in actions if a.required]
        assert required == [k for k, v in expected.items() if v == REQUIRED], command
        argv = [command] + [x for a in actions if a.required
                            for x in (a.option_strings[:1] + ["p"])]
        args = parser.parse_args(argv)
        resolved = dict(vars(args))
        if command in ("synth", "fit-rvq", "train", "sample"):
            resolved.update(cli.resolve(args))
        if command == "sample":
            resolved.update(dataclasses.asdict(cli.sampler_config(resolved)))
        got = {k: REQUIRED if k in required else resolved[k] for k in expected}
        assert got == expected, command
        assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]


def test_train_and_sample_keep_the_mask_first_bits(tmp_path, monkeypatch):
    """`train` then `sample` through `cli.main`, once as shipped and once
    with the mask-first transitions, the per-depth codeword loop and the
    hand-written mixture softmax patched in: the checkpoint, the training
    log, the generated vectors and the token dumps are the same bytes."""
    from test_masking import mask_first_transitions
    from test_rvq import subset_sum_loop

    from rvqgen import masking as mk
    from rvqgen import mog
    from rvqgen import sampler as smp

    ds, book = tmp_path / "data.rgds", tmp_path / "book.rvqc"
    assert run("synth", "--out", ds, "--family", "classes", "--num-classes", 3,
               "--count", 64, "--seq-len", 4, "--dim", 3, "--modes", 4, "--seed", 5) == 0
    assert run("fit-rvq", "--dataset", ds, "--depth", 3, "--vocab", 6, "--out", book,
               "--seed", 5) == 0

    def artifacts(tag):
        model = tmp_path / f"{tag}.ckpt"
        assert run("train", "--dataset", ds, "--codebook", book, "--out", model,
                   "--steps", 30, "--batch-size", 4, "--audit-steps", "0,20",
                   "--seed", 6, *TRAIN_SMALL) == 0
        outs = [model, tmp_path / f"{tag}.ckpt.log"]
        for name, flags in (("guided", ("--preset", "paper-28", "--label", 2)),
                            ("random", ("--selection", "random"))):
            gen = tmp_path / f"{tag}-{name}.rgds"
            assert run("sample", "--checkpoint", model, "--out", gen, "--count", 4,
                       "--steps", 5, "--weights", "raw", "--seed", 7, *flags) == 0
            outs += [gen, tmp_path / f"{tag}-{name}.rgds.tokens.txt"]
        return [p.read_bytes() for p in outs]

    shipped = artifacts("shipped")

    def loop_dequantize(tokens, book, keep=None):
        tokens = np.asarray(tokens)
        keep = np.ones(tokens.shape, dtype=bool) if keep is None else np.asarray(keep)
        return subset_sum_loop(tokens, book, keep)

    def softmax(logits):
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    called = set()

    def recorded(name, transition):
        def run(*args):
            called.add(name)
            return transition(*args)
        return run

    for module, name, transition in zip((mk, mk, mk, smp),
                                        ("binary_mask", "mask_more", "binary_unmask",
                                         "select_unmask"),
                                        mask_first_transitions(3)):
        monkeypatch.setattr(module, name, recorded(name, transition))
    monkeypatch.setattr(rvq, "dequantize", loop_dequantize)
    monkeypatch.setattr(mog, "mixture_weights", softmax)
    assert artifacts("reference") == shipped
    # the audit draws its mask, and both selection modes reveal
    assert called == {"binary_mask", "binary_unmask", "select_unmask"}


def test_nonfinite_gradient_is_one_error_line(workspace, capsys, monkeypatch):
    real = nm.grads

    def poisoned(loss, params):
        g = dict(real(loss, params))
        g["head.shift.b"] = np.full_like(g["head.shift.b"], np.inf)
        return g

    monkeypatch.setattr(nm, "grads", poisoned)
    tmp, ds_path, book_path = workspace
    out = tmp / "never.ckpt"
    assert run("train", "--dataset", ds_path, "--codebook", book_path, "--out", out,
               "--steps", 5, "--batch-size", 4, *TRAIN_SMALL) == 1
    assert _one_error(capsys).startswith("error: non-finite gradient at step 0: ")
    assert not out.exists()
