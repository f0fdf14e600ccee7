"""End-to-end CLI tests: every subcommand, reproducibility, config-file
precedence, and the binary-format error contracts."""

import os

import numpy as np
import pytest

from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import rvq


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
    occ = data_mod.mode_occupancy(ds.vectors, data_mod.load_meta(path)["centers"])
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


def test_eval_dim_mismatch_rejected(workspace, tmp_path):
    _, ds_path, _ = workspace
    other = tmp_path / "other.rgds"
    run("synth", "--out", other, "--count", 30, "--seq-len", 3, "--dim", 5,
        "--modes", 4, "--seed", 0)
    with pytest.raises(SystemExit, match="mismatch"):
        run("eval", "--generated", other, "--reference", ds_path)


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


def test_inspect_rejects_unknown_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(SystemExit, match="magic"):
        run("inspect", path)


def test_no_partial_output_on_failure(tmp_path, monkeypatch):
    # force a failure mid-synthesis by requesting an invalid family
    out = tmp_path / "never.rgds"
    assert run("synth", "--out", out, "--family", "spiral", "--count", 5) == 1
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []
