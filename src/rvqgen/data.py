"""Dataset file format, atomic file IO, the binary-file reader, and
synthetic data generators.

The dataset container is deliberately dumb: N records of (label, L x H
float64 vectors), little-endian, with a fixed header. Synthetic families
keep their ground-truth parameters in a JSON sidecar so evaluation can
score generated samples against the true distribution. All three binary
formats (RGDS here, RVQC, RGCK) check their fixed header with
`read_header` and their exact size with `check_length`, and name their
path in a load error through `open_named` (RGDS and RVQC, which parse
the whole file as one blob, through `load_file`); RGDS and RVQC pack
their headers with `pack_header`, which bounds each field by its u32.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

DATASET_MAGIC = b"RGDS"
DATASET_VERSION = 1


def atomic_write(path, *parts):
    """Write the bytes-like `parts` (bytes, C-contiguous arrays) in order
    via a temp file + rename, so failures never leave partial output and
    the parts are never joined in memory. An OSError names `path`, not the
    temp file."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
        try:
            with os.fdopen(fd, "wb") as fh:
                for part in parts:
                    fh.write(part)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


U32_MAX = 2**32 - 1


def pack_header(header: struct.Struct, magic, version, kind, fields):
    """A binary file's fixed header from ((name, value), ...) in header
    order. The fields are u32, the bound of every size they record: a value
    outside [0, U32_MAX] raises ValueError naming the field."""
    for name, value in fields:
        if not 0 <= value <= U32_MAX:
            raise ValueError(f"{name} must lie in [0, {U32_MAX}] (a u32 field of "
                             f"the {kind} header), got {value}")
    return header.pack(magic, version, *(value for _, value in fields))


def read_header(blob, header: struct.Struct, magic, version, kind):
    """Fields after magic and version of a binary file's fixed header;
    a short header, another magic or another version raise ValueError."""
    if len(blob) < header.size:
        raise ValueError(f"{kind} header truncated: need {header.size} bytes, "
                         f"file has {len(blob)}")
    found, found_version, *fields = header.unpack_from(blob, 0)
    if found != magic:
        raise ValueError(f"bad {kind} magic: expected {magic!r}, found {found!r}")
    if found_version != version:
        raise ValueError(f"unsupported {kind} version: expected {version}, "
                         f"found {found_version}")
    return fields


def check_length(found, size, kind):
    """A file of `found` bytes, cut short or with trailing bytes against the
    `size` its header gives, raises ValueError."""
    if found != size:
        raise ValueError(f"{kind} length mismatch: header says {size} bytes, "
                         f"file has {found}")


@contextlib.contextmanager
def open_named(path):
    """The binary file at `path`, open for reading; a ValueError raised
    while it is open gets the path as its prefix."""
    with open(path, "rb") as fh:
        try:
            yield fh
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def load_file(path, from_bytes):
    """Parse a whole binary file; errors name the path."""
    with open_named(path) as fh:
        return from_bytes(fh.read())


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
        if np.any(self.labels > self.num_classes):
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


def _dataset_parts(ds: Dataset):
    """The RGDS file as bytes-like parts in file order: the fixed header,
    then the records as one packed array. `dataset_to_bytes` joins them
    and `save_dataset` streams them, so the layout lives here only and a
    save holds the records once."""
    n, L, H = ds.vectors.shape
    header = pack_header(_HEADER, DATASET_MAGIC, DATASET_VERSION, "dataset",
                         (("count", n), ("seq_len", L), ("dim", H),
                          ("num_classes", ds.num_classes)))
    records = np.empty(n, dtype=_record_dtype(L, H))
    records["label"] = ds.labels
    records["vec"] = ds.vectors
    return [header, records]


def dataset_to_bytes(ds: Dataset) -> bytes:
    return b"".join(_dataset_parts(ds))


def dataset_from_bytes(blob: bytes) -> Dataset:
    n, L, H, num_classes = read_header(blob, _HEADER, DATASET_MAGIC,
                                       DATASET_VERSION, "dataset")
    check_length(len(blob), _HEADER.size + n * (4 + L * H * 8), "dataset")
    records = np.frombuffer(blob, dtype=_record_dtype(L, H), count=n,
                            offset=_HEADER.size)
    return Dataset(records["vec"], records["label"], num_classes)


def save_dataset(ds: Dataset, path, meta=None):
    atomic_write(path, *_dataset_parts(ds))
    if meta is not None:
        atomic_write(str(path) + ".meta.json",
                     json.dumps(meta, indent=2, sort_keys=True).encode())


def load_dataset(path) -> Dataset:
    return load_file(path, dataset_from_bytes)


def load_meta(path):
    with open(str(path) + ".meta.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# synthetic families


def grid_centers(modes, dim, spread=2.0):
    """Mode centers on a sqrt(modes) x sqrt(modes) lattice in the first two dims."""
    side = int(round(np.sqrt(modes)))
    if side * side != modes:
        raise ValueError(f"modes must be a square for the grid family, got {modes}")
    axis = np.linspace(-spread, spread, side) if side > 1 else np.zeros(1)
    centers = np.zeros((modes, dim))
    for m in range(modes):
        centers[m, 0] = axis[m % side]
        if dim > 1:
            centers[m, 1] = axis[m // side]
    return centers


def ring_centers(modes, dim, radius=2.0):
    angles = 2 * np.pi * np.arange(modes) / modes
    centers = np.zeros((modes, dim))
    centers[:, 0] = radius * np.cos(angles)
    if dim > 1:
        centers[:, 1] = radius * np.sin(angles)
    return centers


def synthesize(family="grid", count=10000, seq_len=8, dim=8, modes=9, noise=0.1,
               spread=2.0, num_classes=0, class_shift=1.0, seed=0):
    """Draw a dataset whose positions are iid mixture samples.

    Families: "grid" (lattice of Gaussians), "ring" (circle of Gaussians),
    "classes" (grid mixture shifted per class label along the last dim).
    Returns (Dataset, meta) where meta records the ground-truth parameters.
    These keyword defaults are `rvqgen synth`'s; every argument is checked
    here, before any draw, and an error names the argument.
    """
    for name, value, low in (("count", count, 1), ("seq_len", seq_len, 1),
                             ("dim", dim, 1), ("modes", modes, 1),
                             ("num_classes", num_classes, 0), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    # nan or inf reach the vectors, which the Dataset then refuses unnamed
    for name, value in (("noise", noise), ("spread", spread),
                        ("class_shift", class_shift)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
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
