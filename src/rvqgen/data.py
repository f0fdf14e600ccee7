"""Dataset file format, atomic file IO, and synthetic data generators.

The dataset container is deliberately dumb: N records of (label, L x H
float64 vectors), little-endian, with a fixed header. Synthetic families
keep their ground-truth parameters in a JSON sidecar so evaluation can
score generated samples against the true distribution.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import rvq

DATASET_MAGIC = b"RGDS"
DATASET_VERSION = 1


def atomic_write(path, payload: bytes):
    """Write via a temp file + rename so failures never leave partial output."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class Dataset:
    vectors: np.ndarray  # (N, L, H) float64
    labels: np.ndarray   # (N,) uint32; 0 means unconditional
    num_classes: int = 0

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint32)
        if self.vectors.ndim != 3:
            raise ValueError(f"vectors must be (N, L, H), got {self.vectors.shape}")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError("one label per record required")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("dataset vectors must be finite")
        if self.num_classes and np.any(self.labels > self.num_classes):
            raise ValueError("label exceeds num_classes")

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def seq_len(self):
        return self.vectors.shape[1]

    @property
    def dim(self):
        return self.vectors.shape[2]


_HEADER = struct.Struct("<4sIIIII")


def _record_dtype(L, H):
    """One RGDS record: a u32 label then L*H f64, packed."""
    return np.dtype([("label", "<u4"), ("vec", "<f8", (L, H))])


def dataset_to_bytes(ds: Dataset) -> bytes:
    n, L, H = ds.vectors.shape
    records = np.empty(n, dtype=_record_dtype(L, H))
    records["label"] = ds.labels
    records["vec"] = ds.vectors
    return _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, n, L, H,
                        ds.num_classes) + records.tobytes()


def dataset_from_bytes(blob: bytes) -> Dataset:
    if len(blob) < _HEADER.size:
        raise ValueError(f"dataset header truncated: need {_HEADER.size} bytes, "
                         f"file has {len(blob)}")
    magic, version, n, L, H, num_classes = _HEADER.unpack_from(blob, 0)
    if magic != DATASET_MAGIC:
        raise ValueError(f"bad dataset magic: expected {DATASET_MAGIC!r}, found {magic!r}")
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version: expected {DATASET_VERSION}, found {version}")
    size = _HEADER.size + n * (4 + L * H * 8)
    if len(blob) != size:
        raise ValueError(f"dataset length mismatch: header says {size} bytes, file has {len(blob)}")
    records = np.frombuffer(blob, dtype=_record_dtype(L, H), count=n,
                            offset=_HEADER.size)
    return Dataset(records["vec"], records["label"], num_classes)


def save_dataset(ds: Dataset, path, meta=None):
    atomic_write(path, dataset_to_bytes(ds))
    if meta is not None:
        atomic_write(str(path) + ".meta.json",
                     json.dumps(meta, indent=2, sort_keys=True).encode())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return dataset_from_bytes(blob)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_meta(path):
    with open(str(path) + ".meta.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# synthetic families


def grid_centers(modes, dim, spread=2.0):
    """Mode centers on a sqrt(modes) x sqrt(modes) lattice in the first two dims."""
    side = int(round(np.sqrt(modes)))
    if side * side != modes:
        raise ValueError(f"grid family needs a square mode count, got {modes}")
    axis = np.linspace(-spread, spread, side) if side > 1 else np.zeros(1)
    centers = np.zeros((modes, dim))
    for m in range(modes):
        centers[m, 0] = axis[m % side]
        centers[m, 1] = axis[m // side] if dim > 1 else 0.0
    return centers


def ring_centers(modes, dim, radius=2.0):
    angles = 2 * np.pi * np.arange(modes) / modes
    centers = np.zeros((modes, dim))
    centers[:, 0] = radius * np.cos(angles)
    if dim > 1:
        centers[:, 1] = radius * np.sin(angles)
    return centers


def synthesize(family, count, seq_len, dim, modes=9, noise=0.1, spread=2.0,
               num_classes=0, class_shift=1.0, seed=0):
    """Draw a dataset whose positions are iid mixture samples.

    Families: "grid" (lattice of Gaussians), "ring" (circle of Gaussians),
    "classes" (grid mixture shifted per class label along the last dim).
    Returns (Dataset, meta) where meta records the ground-truth parameters.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    if family == "grid":
        centers = grid_centers(modes, dim, spread)
    elif family == "ring":
        centers = ring_centers(modes, dim, spread)
    elif family == "classes":
        if num_classes < 1:
            raise ValueError("classes family needs num_classes >= 1")
        centers = grid_centers(modes, dim, spread)
    else:
        raise ValueError(f"unknown synthetic family {family!r}")

    if family == "classes":
        labels = rng.integers(1, num_classes + 1, size=count).astype(np.uint32)
    else:
        labels = np.zeros(count, dtype=np.uint32)
        num_classes = 0

    comp = rng.integers(0, modes, size=(count, seq_len))
    vectors = centers[comp] + noise * rng.standard_normal((count, seq_len, dim))
    if family == "classes":
        shift = (labels.astype(np.float64) - (num_classes + 1) / 2.0) * class_shift
        vectors[:, :, -1] += shift[:, None]

    meta = {
        "family": family,
        "centers": centers.tolist(),
        "noise": noise,
        "spread": spread,
        "modes": modes,
        "num_classes": num_classes,
        "class_shift": class_shift if family == "classes" else 0.0,
        "seed": seed,
    }
    return Dataset(vectors, labels, num_classes), meta


def mode_occupancy(vectors, centers):
    """Fraction of (flattened) vectors nearest to each ground-truth center."""
    flat = np.asarray(vectors, dtype=np.float64).reshape(-1, np.shape(centers)[1])
    centers = np.asarray(centers, dtype=np.float64)
    nearest = rvq._nearest(flat, centers)
    return np.bincount(nearest, minlength=centers.shape[0]) / flat.shape[0]
