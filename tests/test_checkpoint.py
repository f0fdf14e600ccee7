"""Checkpoint container tests: bit-exact round trips, version rejection,
resume-equals-straight-run determinism, and truncated or padded files."""

import json
import tracemalloc

import numpy as np
import pytest

from rvqgen import checkpoint as ck
from rvqgen import rvq
from rvqgen.backbone import Backbone, BackboneConfig
from rvqgen.trainer import TrainConfig, Trainer


def small_trainer(seed=0, steps_cfg=30):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(48, 3, 3))
    book = rvq.fit_codebook(vectors.reshape(-1, 3), depth=2, vocab=4, seed=seed)
    grids = np.stack([rvq.quantize(v, book) for v in vectors])
    model = Backbone(BackboneConfig(seq_len=3, depth=2, vocab=4, latent_dim=3,
                                    width=16, layers=1, heads=2, mixtures=2,
                                    mean_rank=2), seed=seed)
    cfg = TrainConfig(steps=steps_cfg, batch_size=4, seed=seed, audit_steps=())
    return Trainer(model, book, grids, np.zeros(48, dtype=np.int64), cfg), grids


def test_roundtrip_bit_exact(tmp_path):
    tr, _ = small_trainer()
    for _ in range(5):
        tr.step()
    ckpt = ck.from_trainer(tr)
    path = tmp_path / "model.ckpt"
    ck.save_checkpoint(ckpt, path)
    loaded = ck.load_checkpoint(path)
    assert loaded.step == ckpt.step
    assert loaded.rng_state == ckpt.rng_state
    assert all(np.array_equal(ckpt.params[k], loaded.params[k]) for k in ckpt.params)
    assert all(np.array_equal(ckpt.opt_v[k], loaded.opt_v[k]) for k in ckpt.opt_v)
    assert np.array_equal(ckpt.codebook.embeddings, loaded.codebook.embeddings)
    # serialize(load(serialize(x))) is byte-identical
    assert loaded.to_bytes() == ckpt.to_bytes()


def test_version_and_magic_rejected(tmp_path):
    tr, _ = small_trainer()
    blob = ck.from_trainer(tr).to_bytes()
    with pytest.raises(ValueError, match="magic"):
        ck.Checkpoint.from_bytes(b"YYYY" + blob[4:])
    bad = blob[:4] + (77).to_bytes(4, "little") + blob[8:]
    with pytest.raises(ValueError, match="version"):
        ck.Checkpoint.from_bytes(bad)


def test_resume_matches_straight_run():
    straight, _ = small_trainer(seed=3)
    for _ in range(20):
        straight.step()

    resumed, grids = small_trainer(seed=3)
    for _ in range(8):
        resumed.step()
    ckpt = ck.from_trainer(resumed)
    blob = ckpt.to_bytes()  # through bytes, as the CLI would
    tr2 = ck.restore_trainer(ck.Checkpoint.from_bytes(blob), grids,
                             np.zeros(len(grids), dtype=np.int64))
    for _ in range(12):
        tr2.step()

    a = straight.model.parameter_arrays()
    b = tr2.model.parameter_arrays()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert all(np.array_equal(straight.ema[k], tr2.ema[k]) for k in straight.ema)
    assert straight.rng.bit_generator.state == tr2.rng.bit_generator.state


def test_model_from_checkpoint_weights_choice():
    tr, _ = small_trainer()
    for _ in range(10):
        tr.step()
    ckpt = ck.from_trainer(tr)
    raw = ck.model_from_checkpoint(ckpt, weights="raw")
    ema = ck.model_from_checkpoint(ckpt, weights="ema")
    assert np.array_equal(raw.params["embed.w"].data, ckpt.params["embed.w"])
    assert np.array_equal(ema.params["embed.w"].data, ckpt.ema["embed.w"])
    assert not np.array_equal(raw.params["embed.w"].data,
                              ema.params["embed.w"].data)
    with pytest.raises(ValueError):
        ck.model_from_checkpoint(ckpt, weights="latest")


# ---------------------------------------------------------------------------
# truncated and padded files


def _sections(blob):
    """(fixed header end, JSON end, codebook end) offsets of an RGCK blob."""
    hlen = int.from_bytes(blob[8:16], "little")
    head = json.loads(blob[16:16 + hlen])
    return 16, 16 + hlen, 16 + hlen + head["codebook_bytes"]


def test_truncated_or_padded_checkpoint_names_path(tmp_path):
    tr, _ = small_trainer()
    tr.step()
    blob = ck.from_trainer(tr).to_bytes()
    fixed, json_end, book_end = _sections(blob)
    cuts = sorted(set(range(book_end))                         # header, JSON, codebook
                  | set(range(book_end, len(blob), 97))         # every 97th body byte
                  | set(range(len(blob) - 16, len(blob))))      # the last 16 bytes
    bad = tmp_path / "bad.ckpt"
    for payload in [blob[:n] for n in cuts] + [blob + b"\0"]:
        bad.write_bytes(payload)
        with pytest.raises(ValueError) as info:
            ck.load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: checkpoint "), len(payload)
    bad.write_bytes(blob)
    assert ck.load_checkpoint(bad).to_bytes() == blob


def test_checkpoint_errors_name_the_section(tmp_path):
    tr, _ = small_trainer()
    blob = ck.from_trainer(tr).to_bytes()
    fixed, json_end, book_end = _sections(blob)
    bad = tmp_path / "bad.ckpt"
    for payload, reason in ((blob[:10], "header truncated"),
                            (blob[:json_end - 1], "JSON header truncated"),
                            (blob[:book_end - 1], "codebook truncated"),
                            (blob[:-9], "length mismatch"),
                            (blob + b"\0", "length mismatch")):
        with pytest.raises(ValueError, match=reason):
            ck.Checkpoint.from_bytes(payload)
        # the file reader, which never holds the whole file, says the same
        bad.write_bytes(payload)
        with pytest.raises(ValueError) as info:
            ck.load_checkpoint(bad)
        assert str(info.value).startswith(f"{bad}: checkpoint {reason}")
    # a JSON header that parses but lacks a field
    head = json.loads(blob[fixed:json_end])
    del head["arrays"]
    text = json.dumps(head).encode()
    broken = blob[:8] + len(text).to_bytes(8, "little") + text + blob[json_end:]
    with pytest.raises(ValueError, match="JSON header malformed"):
        ck.Checkpoint.from_bytes(broken)


# ---------------------------------------------------------------------------
# memory: a save streams the file's parts, a load reads the file once


def criterion_9_checkpoint():
    """A checkpoint of criterion 9's model (L=8, D=4, V=32, H=8, width 64,
    2 layers, 4 heads, 32 components, rank 8) after one training step."""
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(64, 8, 8))
    book = rvq.fit_codebook(vectors.reshape(-1, 8), depth=4, vocab=32, epochs=1, seed=0)
    grids = rvq.quantize(vectors.reshape(-1, 8), book).reshape(-1, 8, 4)
    model = Backbone(BackboneConfig(seq_len=8, depth=4, vocab=32, latent_dim=8), seed=0)
    tr = Trainer(model, book, grids, np.zeros(64, dtype=np.int64),
                 TrainConfig(steps=10, batch_size=16, seed=0, audit_steps=()))
    tr.step()
    return ck.from_trainer(tr)


def test_save_streams_the_file_and_load_reads_it_once(tmp_path):
    # the save once built the file three more times in memory (a bytearray
    # of the arrays, its bytes copy, the concatenation) and the load held
    # the file's bytes beside a copy of every array
    ckpt = criterion_9_checkpoint()
    blob = ckpt.to_bytes()
    size = len(blob)
    path = tmp_path / "c9.ckpt"
    tracemalloc.start()
    try:
        ck.save_checkpoint(ckpt, path)
        before, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded = ck.load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert save_peak < 0.5 * size, (save_peak, size)
    assert load_peak < 1.5 * size, (load_peak, size)
    assert path.read_bytes() == blob
    assert loaded.to_bytes() == blob
    assert all(a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
               for group in (loaded.params, loaded.ema, loaded.opt_m, loaded.opt_v)
               for a in group.values())
