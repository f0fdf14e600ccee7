"""Dataset container and synthetic family tests."""

import numpy as np
import pytest

from rvqgen import data as data_mod


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


def test_wrong_magic_and_version_rejected():
    ds, _ = data_mod.synthesize("grid", count=2, seq_len=2, dim=2, modes=4,
                                seed=0)
    blob = data_mod.dataset_to_bytes(ds)
    with pytest.raises(ValueError, match="magic"):
        data_mod.dataset_from_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(ValueError, match="version"):
        data_mod.dataset_from_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])


def test_ring_family_centers_on_circle():
    ds, meta = data_mod.synthesize("ring", count=200, seq_len=2, dim=3,
                                   modes=6, noise=0.05, spread=2.0, seed=2)
    centers = np.array(meta["centers"])
    radii = np.linalg.norm(centers[:, :2], axis=1)
    assert np.allclose(radii, 2.0)
    assert np.all(centers[:, 2] == 0)
    occ = data_mod.mode_occupancy(ds.vectors, centers)
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


def test_label_bounds_enforced():
    with pytest.raises(ValueError, match="label"):
        data_mod.Dataset(np.zeros((2, 1, 1)), np.array([1, 4], dtype=np.uint32),
                         num_classes=3)


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
        got = data_mod.mode_occupancy(ds.vectors, meta["centers"])
        assert np.array_equal(got, want), family
