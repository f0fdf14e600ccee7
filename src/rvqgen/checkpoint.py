"""Checkpoint container: model + optimizer + EMA + RNG state + configs in
one self-describing binary file, bit-exact across save/load cycles.

Layout: magic "RGCK", version u32, u64 header length, JSON header, inline
codebook blob, then the raw float64 little-endian arrays in header order.
`Checkpoint.parts` is the one writer of that layout. A save streams the
parts into the file one by one and a load reads the file once, each array
straight into its own ndarray, so neither holds the file a second time in
memory.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rvq
from .backbone import Backbone, BackboneConfig, parameter_specs
from .data import atomic_write, check_length, open_named, read_header
from .trainer import TrainConfig, Trainer

CHECKPOINT_MAGIC = b"RGCK"
CHECKPOINT_VERSION = 1

_GROUPS = ("params", "ema", "opt_m", "opt_v")
_HEADER = struct.Struct("<4sIQ")


@dataclass
class Checkpoint:
    backbone_config: BackboneConfig
    train_config: TrainConfig
    step: int
    rng_state: dict
    codebook: rvq.Codebook
    params: dict
    ema: dict
    opt_m: dict
    opt_v: dict

    def parts(self):
        """The RGCK file as bytes-like parts in file order: the fixed
        header, the JSON header, the codebook blob, then each array as a
        C-contiguous `<f8` ndarray. `to_bytes` joins them and
        `save_checkpoint` streams them, so the layout lives here only."""
        groups = {"params": self.params, "ema": self.ema,
                  "opt_m": self.opt_m, "opt_v": self.opt_v}
        manifest, arrays = [], []
        for group in _GROUPS:
            for name in sorted(groups[group]):
                arr = np.ascontiguousarray(groups[group][name], dtype="<f8")
                manifest.append({"group": group, "name": name,
                                 "shape": list(arr.shape)})
                arrays.append(arr)
        book_blob = rvq.codebook_to_bytes(self.codebook)
        header = json.dumps({
            "backbone_config": self.backbone_config.to_dict(),
            "train_config": self.train_config.to_dict(),
            "step": self.step,
            "rng_state": self.rng_state,
            "codebook_bytes": len(book_blob),
            "arrays": manifest,
        }, sort_keys=True).encode()
        return [_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header)),
                header, book_blob, *arrays]

    def to_bytes(self) -> bytes:
        return b"".join(self.parts())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        return cls.read(io.BytesIO(blob))

    @classmethod
    def read(cls, fh) -> "Checkpoint":
        """Parse the RGCK file open in binary `fh` from its start. Each
        section's size is checked against the file's before it is read,
        and each array is read straight into its own new ndarray."""
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        (hlen,) = read_header(fh.read(_HEADER.size), _HEADER, CHECKPOINT_MAGIC,
                              CHECKPOINT_VERSION, "checkpoint")
        off = _HEADER.size
        if size < off + hlen:
            raise ValueError(f"checkpoint JSON header truncated: header says {hlen} "
                             f"bytes, file has {size - off} after the fixed header")
        try:
            head = json.loads(fh.read(hlen))
            book_len = _count(head["codebook_bytes"], "codebook_bytes")
            manifest = [(item["group"], item["name"],
                         [_count(d, "array dimension") for d in item["shape"]])
                        for item in head["arrays"]]
            if any(group not in _GROUPS for group, _, _ in manifest):
                raise ValueError("bad array group")
            fields = dict(
                backbone_config=BackboneConfig.from_dict(head["backbone_config"]),
                train_config=TrainConfig.from_dict(head["train_config"]),
                step=head["step"], rng_state=head["rng_state"])
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"checkpoint JSON header malformed: {e!r}") from None
        if type(fields["step"]) is not int:
            raise ValueError(f"checkpoint step must be an integer, got {fields['step']!r}")
        if fields["step"] < 0:
            raise ValueError(f"checkpoint step must be >= 0, got {fields['step']}")
        try:
            np.random.PCG64(0).state = fields["rng_state"]
        except (ValueError, KeyError, TypeError, OverflowError) as e:
            raise ValueError(f"checkpoint rng_state is not a PCG64 state: {e!r}") from None
        off += hlen
        if size < off + book_len:
            raise ValueError(f"checkpoint codebook truncated: header says {book_len} "
                             f"bytes, file has {max(size - off, 0)}")
        book = rvq.codebook_from_bytes(fh.read(book_len))
        bc = fields["backbone_config"]
        for name, have in (("depth", book.depth), ("vocab", book.vocab), ("latent_dim", book.dim)):
            if have != getattr(bc, name):
                raise ValueError(f"checkpoint codebook has {name} {have}, "
                                 f"backbone_config {getattr(bc, name)}")
        off += book_len
        sizes = [math.prod(shape) for _, _, shape in manifest]
        check_length(size, off + 8 * sum(sizes), "checkpoint")
        groups = {g: {} for g in _GROUPS}
        for (group, name, shape), n in zip(manifest, sizes):
            arr = groups[group][name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != 8 * n:
                raise ValueError(f"checkpoint {group}.{name}: file ended while reading")
        # each group holds exactly the backbone's parameters, in their shapes
        shapes = {name: shape for name, shape, _ in
                  parameter_specs(fields["backbone_config"])}
        for group in _GROUPS:
            for name in sorted(shapes.keys() | groups[group].keys()):
                found = groups[group].get(name)
                if found is None:
                    raise ValueError(f"checkpoint {group}.{name}: missing")
                if name not in shapes:
                    raise ValueError(f"checkpoint {group}.{name}: not a backbone parameter")
                if found.shape != shapes[name]:
                    raise ValueError(f"checkpoint {group}.{name}: shape {found.shape}, "
                                     f"the parameter has {shapes[name]}")
        return cls(codebook=book, params=groups["params"], ema=groups["ema"],
                   opt_m=groups["opt_m"], opt_v=groups["opt_v"], **fields)


def _count(value, what):
    """A JSON integer >= 0; a float, a bool or a negative raises ValueError."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")
    return value


def from_trainer(trainer: Trainer) -> Checkpoint:
    return Checkpoint(
        backbone_config=trainer.model.config,
        train_config=trainer.config,
        step=trainer.step_count,
        rng_state=trainer.rng.bit_generator.state,
        codebook=trainer.book,
        params=trainer.model.parameter_arrays(),
        ema={k: v.copy() for k, v in trainer.ema.items()},
        opt_m={k: v.copy() for k, v in trainer.opt_m.items()},
        opt_v={k: v.copy() for k, v in trainer.opt_v.items()},
    )


def restore_trainer(ckpt: Checkpoint, grids, labels) -> Trainer:
    """Rebuild a Trainer mid-run; continuation is bit-identical to a
    straight run because the RNG state travels with the checkpoint."""
    model = Backbone(ckpt.backbone_config, seed=0)
    model.load_arrays(ckpt.params)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = ckpt.rng_state
    tr = Trainer(model, ckpt.codebook, grids, labels, ckpt.train_config, rng=rng)
    tr.step_count = ckpt.step
    tr.ema, tr.opt_m, tr.opt_v = ckpt.ema, ckpt.opt_m, ckpt.opt_v   # copied in
    return tr


def model_from_checkpoint(ckpt: Checkpoint, weights="ema") -> Backbone:
    if weights not in ("ema", "raw"):
        raise ValueError(f"weights must be 'ema' or 'raw', got {weights!r}")
    model = Backbone(ckpt.backbone_config, seed=0)
    model.load_arrays(ckpt.ema if weights == "ema" else ckpt.params)
    return model


def save_checkpoint(ckpt: Checkpoint, path):
    atomic_write(path, *ckpt.parts())


def load_checkpoint(path) -> Checkpoint:
    with open_named(path) as fh:
        return Checkpoint.read(fh)
