"""Dataset container, binary-file reader and synthetic family tests."""

import re
import struct

import numpy as np
import pytest

from rvqgen import data as data_mod
from rvqgen import evaluate as ev


def test_roundtrip_bit_exact(tmp_path):
    ds, meta = data_mod.synthesize("grid", count=30, seq_len=3, dim=4,
                                   modes=4, seed=1)
    path = tmp_path / "d.rgds"
    data_mod.save_dataset(ds, path, meta=meta)
    loaded = data_mod.load_dataset(path)
    assert np.array_equal(ds.vectors, loaded.vectors)
    assert np.array_equal(ds.labels, loaded.labels)
    assert data_mod.load_meta(path)["modes"] == 4


def test_truncated_file_rejected():
    ds, _ = data_mod.synthesize("grid", count=5, seq_len=2, dim=2, modes=4,
                                seed=0)
    blob = data_mod.dataset_to_bytes(ds)
    with pytest.raises(ValueError, match="length"):
        data_mod.dataset_from_bytes(blob[:-8])


def test_bytes_match_per_record_struct_layout():
    ds, _ = data_mod.synthesize("classes", count=7, seq_len=3, dim=2, modes=4,
                                num_classes=3, seed=4)
    blob = data_mod.dataset_to_bytes(ds)
    expect = struct.pack("<4sIIIII", b"RGDS", 1, 7, 3, 2, 3)
    for i in range(7):
        expect += struct.pack("<I", int(ds.labels[i])) + ds.vectors[i].astype("<f8").tobytes()
    assert blob == expect
    back = data_mod.dataset_from_bytes(blob)
    assert np.array_equal(back.labels, ds.labels)
    assert back.vectors.tobytes() == ds.vectors.tobytes()


def test_short_header_rejected():
    with pytest.raises(ValueError, match="header truncated"):
        data_mod.dataset_from_bytes(b"RGDS\x01\x00\x00\x00\x00\x00")


def test_wrong_magic_and_version_rejected():
    ds, _ = data_mod.synthesize("grid", count=2, seq_len=2, dim=2, modes=4,
                                seed=0)
    blob = data_mod.dataset_to_bytes(ds)
    with pytest.raises(ValueError, match="magic"):
        data_mod.dataset_from_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        data_mod.dataset_from_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])


def test_header_fields_are_bounded_by_their_u32():
    # a num_classes past 2**32 - 1 once ended in a struct.error traceback
    ds = data_mod.Dataset(np.zeros((2, 1, 2)), np.array([1, 2], dtype=np.uint32), 2)
    for bad in (2**32, 2**40, -1):
        ds.num_classes = bad
        with pytest.raises(ValueError, match=re.escape(
                f"num_classes must lie in [0, 4294967295] (a u32 field of the "
                f"dataset header), got {bad}")):
            data_mod.dataset_to_bytes(ds)
    ds.num_classes = 2**32 - 1          # the largest value the field holds
    assert data_mod.dataset_from_bytes(data_mod.dataset_to_bytes(ds)).num_classes == 2**32 - 1
    header = struct.Struct("<4sIII")
    assert data_mod.pack_header(header, b"ABCD", 1, "test", (("a", 0), ("b", 2**32 - 1))) \
        == header.pack(b"ABCD", 1, 0, 2**32 - 1)
    with pytest.raises(ValueError, match=r"^b must lie in .* of the test header\), got 4294967296$"):
        data_mod.pack_header(header, b"ABCD", 1, "test", (("a", 0), ("b", 2**32)))


def _format_blobs():
    """(kind, fixed header, magic, valid file, parser) for the three formats."""
    from rvqgen import checkpoint as ck
    from rvqgen import rvq
    from rvqgen.backbone import Backbone, BackboneConfig
    from rvqgen.trainer import TrainConfig, Trainer

    ds, _ = data_mod.synthesize("grid", count=3, seq_len=2, dim=2, modes=4, seed=0)
    book = rvq.fit_codebook(ds.vectors.reshape(-1, 2), depth=2, vocab=2, seed=0)
    model = Backbone(BackboneConfig(seq_len=2, depth=2, vocab=2, latent_dim=2, width=8,
                                    layers=1, heads=2, mixtures=2, mean_rank=1))
    grids = rvq.quantize(ds.vectors.reshape(-1, 2), book).reshape(3, 2, 2)
    tr = Trainer(model, book, grids, np.zeros(3, dtype=np.int64),
                 TrainConfig(steps=0, audit_steps=()))
    return [
        ("dataset", data_mod._HEADER, b"RGDS", data_mod.dataset_to_bytes(ds),
         data_mod.dataset_from_bytes),
        ("codebook", rvq._HEADER, b"RVQC", rvq.codebook_to_bytes(book),
         rvq.codebook_from_bytes),
        ("checkpoint", ck._HEADER, b"RGCK", ck.from_trainer(tr).to_bytes(),
         ck.Checkpoint.from_bytes),
    ]


def test_one_reader_gives_every_format_the_same_messages(tmp_path):
    for kind, header, magic, blob, parse in _format_blobs():
        fields = data_mod.read_header(blob, header, magic, 1, kind)
        assert list(fields) == list(header.unpack_from(blob)[2:])
        data_mod.check_length(len(blob), len(blob), kind)
        bad = {
            f"^{kind} header truncated: need {header.size} bytes, file has 5$":
                blob[:5],
            f"^bad {kind} magic: expected {magic!r}, found b'ABCD'$":
                b"ABCD" + blob[4:],
            f"^unsupported {kind} version: expected 1, found 7$":
                blob[:4] + (7).to_bytes(4, "little") + blob[8:],
            f"^{kind} length mismatch: header says {len(blob)} bytes, "
            f"file has {len(blob) + 1}$": blob + b"\0",
        }
        for message, payload in bad.items():
            with pytest.raises(ValueError, match=message):
                parse(payload)
            path = tmp_path / f"bad.{kind}"
            path.write_bytes(payload)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message[1:]}"):
                data_mod.load_file(path, parse)
        with pytest.raises(ValueError, match=f"^{kind} length mismatch: header says "
                                             f"{len(blob)} bytes, file has {len(blob) - 1}$"):
            data_mod.check_length(len(blob) - 1, len(blob), kind)
        with pytest.raises(FileNotFoundError):
            data_mod.load_file(tmp_path / "missing", parse)


def test_ring_family_centers_on_circle():
    ds, meta = data_mod.synthesize("ring", count=200, seq_len=2, dim=3,
                                   modes=6, noise=0.05, spread=2.0, seed=2)
    centers = np.array(meta["centers"])
    radii = np.linalg.norm(centers[:, :2], axis=1)
    assert np.allclose(radii, 2.0)
    assert np.all(centers[:, 2] == 0)
    occ = ev.mode_occupancy(ds.vectors, centers)
    assert occ.min() > 0.05


def test_classes_family_labels_and_shift():
    ds, meta = data_mod.synthesize("classes", count=400, seq_len=2, dim=3,
                                   modes=4, num_classes=3, class_shift=2.0,
                                   seed=3)
    assert set(np.unique(ds.labels)) == {1, 2, 3}
    assert ds.num_classes == 3
    # class shift moves the last dimension monotonically with the label
    means = [ds.vectors[ds.labels == c, :, -1].mean() for c in (1, 2, 3)]
    assert means[0] < means[1] < means[2]


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        data_mod.synthesize("spiral", count=10, seq_len=2, dim=2)


def test_grid_requires_square_mode_count():
    with pytest.raises(ValueError, match="square"):
        data_mod.synthesize("grid", count=10, seq_len=2, dim=2, modes=5)


def test_one_dim_grid_keeps_the_first_axis():
    # the second lattice axis was once stored into a 1-dim center: IndexError
    for family in ("grid", "ring", "classes"):
        ds, meta = data_mod.synthesize(family, count=4, seq_len=2, dim=1, num_classes=2)
        centers = np.array(meta["centers"])
        assert ds.dim == 1 and centers.shape == (9, 1), family
    assert sorted(set(np.array(data_mod.grid_centers(9, 1))[:, 0])) == [-2.0, 0.0, 2.0]


def test_label_bounds_enforced():
    # num_classes 0 (unconditional) once skipped the check
    for labels, num_classes in (([1, 4], 3), ([0, 1], 0)):
        with pytest.raises(ValueError, match="label exceeds num_classes"):
            data_mod.Dataset(np.zeros((2, 1, 1)), np.array(labels, dtype=np.uint32),
                             num_classes=num_classes)


def test_nonfinite_vectors_rejected():
    bad = np.zeros((1, 1, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        data_mod.Dataset(bad, np.zeros(1, dtype=np.uint32))


def test_mode_occupancy_matches_broadcast_oracle():
    for family, extra in (("grid", {}), ("ring", {}), ("classes", {"num_classes": 3})):
        ds, meta = data_mod.synthesize(family, count=400, seq_len=4, dim=3,
                                       modes=9, noise=1.0, seed=2, **extra)
        centers = np.array(meta["centers"])
        flat = ds.vectors.reshape(-1, 3)
        d2 = ((flat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        want = np.bincount(d2.argmin(axis=1), minlength=9) / len(flat)
        got = ev.mode_occupancy(ds.vectors, meta["centers"])
        assert np.array_equal(got, want), family
