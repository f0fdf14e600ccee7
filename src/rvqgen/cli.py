"""Command-line surface: synth | fit-rvq | train | sample | eval | inspect.

Options resolve in three layers: built-in defaults, then a key=value config
file (--config), then explicit command-line flags. Every command that takes
--seed is end-to-end reproducible; binary outputs are written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import checkpoint as ckpt_mod
from . import data as data_mod
from . import evaluate as ev
from . import rvq
from .backbone import Backbone, BackboneConfig
from .sampler import SamplerConfig, preset
from .trainer import TrainConfig, Trainer

SEED_ENV = "RVQGEN_SEED"


def env_seed():
    return int(os.environ.get(SEED_ENV, "0"))


def parse_config_file(path):
    """Flat key=value lines; blank lines and #-comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _coerce(value, kind):
    if kind is bool:
        if isinstance(value, bool):
            return value
        low = str(value).lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {value!r}")
    return kind(value)


class Opts:
    """Default < config-file < CLI flag resolution."""

    def __init__(self, args, table):
        self.table = table
        self.cli = vars(args)
        self.path = getattr(args, "config", None)
        self.file = parse_config_file(self.path) if self.path else {}

    def __getattr__(self, name):
        if name not in self.table:
            raise AttributeError(name)
        kind, default = self.table[name]
        if self.cli.get(name) is not None:
            return self.cli[name]
        if name in self.file:
            try:
                return _coerce(self.file[name], kind)
            except ValueError as e:
                raise ValueError(f"{self.path}: {name}: {e}") from None
        if callable(default):
            return default()
        return default


def add_opts(parser, table):
    parser.add_argument("--config", help="key=value config file")
    for name, (kind, default) in table.items():
        flag = "--" + name.replace("_", "-")
        shown = default() if callable(default) else default
        if kind is bool:
            parser.add_argument(flag, default=None, type=lambda v: _coerce(v, bool),
                                metavar="BOOL", help=f"(default {shown})")
        else:
            parser.add_argument(flag, default=None, type=kind,
                                help=f"(default {shown})")


# ---------------------------------------------------------------------------
# synth

SYNTH_OPTS = {
    "family": (str, "grid"),
    "count": (int, 10000),
    "seq_len": (int, 8),
    "dim": (int, 8),
    "modes": (int, 9),
    "noise": (float, 0.1),
    "spread": (float, 2.0),
    "num_classes": (int, 0),
    "class_shift": (float, 1.0),
    "seed": (int, env_seed),
}


def cmd_synth(args):
    o = Opts(args, SYNTH_OPTS)
    ds, meta = data_mod.synthesize(
        o.family, o.count, o.seq_len, o.dim, modes=o.modes, noise=o.noise,
        spread=o.spread, num_classes=o.num_classes, class_shift=o.class_shift,
        seed=o.seed)
    data_mod.save_dataset(ds, args.out, meta=meta)
    print(f"wrote {args.out}: {ds.count} records of {ds.seq_len}x{ds.dim}, "
          f"num_classes={ds.num_classes}")
    return 0


# ---------------------------------------------------------------------------
# fit-rvq

FIT_OPTS = {
    "depth": (int, 4),
    "vocab": (int, 32),
    "update": (str, "nearest"),
    "epochs": (int, 10),
    "sigma_assign": (float, 1.0),
    "seed": (int, env_seed),
}


def cmd_fit_rvq(args):
    o = Opts(args, FIT_OPTS)
    ds = data_mod.load_dataset(args.dataset)
    flat = ds.vectors.reshape(-1, ds.dim)
    book = rvq.fit_codebook(flat, depth=o.depth, vocab=o.vocab, update=o.update,
                            epochs=o.epochs, sigma_assign=o.sigma_assign,
                            seed=o.seed)
    rvq.save_codebook(book, args.out)
    tokens = rvq.quantize(flat, book)
    mse = rvq.reconstruction_mse_by_depth(flat, book, tokens)
    entropy = ev.codebook_usage_entropy(tokens, book.vocab)
    print(f"wrote {args.out}: depth={book.depth} vocab={book.vocab} dim={book.dim}")
    for j in range(book.depth):
        print(f"depth={j + 1} mse={mse[j]:.6g} sigma={book.sigma[j]:.6g} "
              f"usage_entropy={entropy[j]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# train

TRAIN_OPTS = {
    "steps": (int, 1000),
    "batch_size": (int, 16),
    "lr": (float, 3e-4),
    "schedule": (str, "circle"),
    "label_dropout": (float, 0.1),
    "warmup": (int, 100),
    "lr_decay": (str, "cosine"),
    "min_lr_frac": (float, 0.1),
    "clip_norm": (float, 1.0),
    "weight_decay": (float, 0.0),
    "ema_decay": (float, 0.999),
    "checkpoint_every": (int, 0),
    "differentiate_q": (bool, False),
    "audit_steps": (str, ""),
    "seed": (int, env_seed),
    "width": (int, 64),
    "layers": (int, 2),
    "heads": (int, 4),
    "mixtures": (int, 32),
    "mean_rank": (int, 8),
}


def _tokenize(ds, book):
    """(N, L, D) token grids of a dataset, quantized in one call."""
    flat = ds.vectors.reshape(-1, ds.dim)
    return rvq.quantize(flat, book).reshape(ds.count, ds.seq_len, book.depth)


def cmd_train(args):
    o = Opts(args, TRAIN_OPTS)
    ds = data_mod.load_dataset(args.dataset)

    if not args.resume and not args.codebook:
        raise SystemExit("error: train needs --codebook (or --resume)")
    if args.resume:
        ckpt = ckpt_mod.load_checkpoint(args.resume)
        book = ckpt.codebook
        if book.dim != ds.dim or ckpt.backbone_config.seq_len != ds.seq_len:
            raise SystemExit("error: resume checkpoint disagrees with dataset shapes")
        grids = _tokenize(ds, book)
        trainer = ckpt_mod.restore_trainer(ckpt, grids, ds.labels.astype(np.int64))
        print(f"resumed at step {trainer.step_count}")
    else:
        book = rvq.load_codebook(args.codebook)
        if book.dim != ds.dim:
            raise SystemExit(
                f"error: codebook dim {book.dim} != dataset dim {ds.dim}")
        audit = tuple(int(s) for s in o.audit_steps.split(",") if s != "")
        tc = TrainConfig(
            steps=o.steps, batch_size=o.batch_size, lr=o.lr, schedule=o.schedule,
            label_dropout=o.label_dropout, warmup=o.warmup, lr_decay=o.lr_decay,
            min_lr_frac=o.min_lr_frac, clip_norm=o.clip_norm,
            weight_decay=o.weight_decay, ema_decay=o.ema_decay, seed=o.seed,
            checkpoint_every=o.checkpoint_every,
            differentiate_q=o.differentiate_q, audit_steps=audit)
        bc = BackboneConfig(
            seq_len=ds.seq_len, depth=book.depth, vocab=book.vocab,
            latent_dim=book.dim, width=o.width, layers=o.layers, heads=o.heads,
            mixtures=o.mixtures, mean_rank=o.mean_rank,
            num_classes=ds.num_classes)
        grids = _tokenize(ds, book)
        model = Backbone(bc, seed=o.seed)
        trainer = Trainer(model, book, grids, ds.labels.astype(np.int64), tc)

    log_path = args.log or str(args.out) + ".log"
    log_lines = []
    total = trainer.config.steps
    every = trainer.config.checkpoint_every
    while trainer.step_count < total:
        chunk = total - trainer.step_count if every == 0 \
            else min(every, total - trainer.step_count)
        trainer.run(chunk, log_fn=log_lines.append)
        if trainer.step_count < total:
            ckpt_mod.save_checkpoint(ckpt_mod.from_trainer(trainer),
                                     f"{args.out}.step{trainer.step_count}")
    ckpt_mod.save_checkpoint(ckpt_mod.from_trainer(trainer), args.out)
    data_mod.atomic_write(log_path, ("\n".join(log_lines) + "\n").encode()
                          if log_lines else b"")
    print(f"wrote {args.out} at step {trainer.step_count}; log at {log_path}")
    return 0


# ---------------------------------------------------------------------------
# sample

SAMPLE_OPTS = {
    "count": (int, 64),
    "label": (int, 0),
    "weights": (str, "ema"),
    "preset": (str, ""),
    "steps": (int, None),
    "schedule": (str, None),
    "selection": (str, None),
    "temperature": (float, None),
    "top_p": (float, None),
    "cfg_start": (float, None),
    "cfg_end": (float, None),
    "use_cfg": (bool, None),
    "seed": (int, env_seed),
}


def cmd_sample(args):
    o = Opts(args, SAMPLE_OPTS)
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    model = ckpt_mod.model_from_checkpoint(ckpt, weights=o.weights)
    book = ckpt.codebook

    base = preset(o.preset) if o.preset else SamplerConfig()
    fields = {}
    for name in ("steps", "schedule", "selection", "temperature", "top_p",
                 "cfg_start", "cfg_end", "use_cfg"):
        value = getattr(o, name)
        if value is not None:
            fields[name] = value
    fields["seed"] = o.seed
    config = SamplerConfig(**{**base.__dict__, **fields})

    if not 0 <= o.label <= model.config.num_classes:
        raise SystemExit(f"error: label {o.label} outside "
                         f"[0, {model.config.num_classes}]")

    labels = np.full(o.count, o.label, dtype=np.uint32)
    t0 = time.perf_counter()
    flat, grids, passes = ev.generate_vectors(
        model, book, config, o.count, labels, np.random.default_rng(config.seed))
    wall = time.perf_counter() - t0
    vectors = flat.reshape(o.count, model.config.seq_len, book.dim)
    data_mod.save_dataset(data_mod.Dataset(vectors, labels,
                                           num_classes=model.config.num_classes),
                          args.out)

    dump = [f"# forward_passes={passes} steps={config.steps} grids={o.count} "
            f"seq_len={model.config.seq_len} depth={model.config.depth}"]
    for g in grids:
        dump.append(" ".join(str(int(v)) for v in g.T.reshape(-1)))
    data_mod.atomic_write(str(args.out) + ".tokens.txt",
                          ("\n".join(dump) + "\n").encode())
    print(f"wrote {args.out} (+.tokens.txt): {o.count} grids, "
          f"forward_passes={passes}, wall_time={wall:.3f}s")
    return 0


# ---------------------------------------------------------------------------
# eval

def _load_token_dump(path, book):
    """Header fields and (N, L, D) token grids of a `sample` token dump;
    malformed dumps raise ValueError naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode().splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: token dump is not UTF-8 text") from None
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: token dump has no '#' header line")
    header = {}
    for part in lines[0][1:].split():
        k, _, v = part.partition("=")
        try:
            header[k] = int(v)
        except ValueError:
            raise ValueError(f"{path}: header field {part!r} is not key=integer") from None
    L, D = header.get("seq_len", 0), header.get("depth", 0)
    if L < 1 or D < 1:
        raise ValueError(f"{path}: header needs positive seq_len and depth")
    if D != book.depth:
        raise ValueError(f"{path}: depth {D} disagrees with the codebook's {book.depth}")
    grids = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        try:
            vals = np.array([int(v) for v in line.split()], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-integer token") from None
        if vals.size != L * D:
            raise ValueError(f"{path}: line {lineno}: {vals.size} tokens, "
                             f"seq_len*depth is {L * D}")
        if vals.min() < 1 or vals.max() > book.vocab:
            raise ValueError(f"{path}: line {lineno}: token outside [1, {book.vocab}]")
        grids.append(vals.reshape(D, L).T)  # dump is depth-major
    if not grids:
        raise ValueError(f"{path}: token dump has no grids")
    return header, np.stack(grids)


def cmd_eval(args):
    t0 = time.perf_counter()
    if args.tokens and not args.codebook:
        raise ValueError(f"{args.tokens}: --tokens needs --codebook "
                         "(token dumps are read against a codebook)")
    gen = data_mod.load_dataset(args.generated)
    ref = data_mod.load_dataset(args.reference)
    if gen.dim != ref.dim:
        raise SystemExit(f"error: dimension mismatch: generated {gen.dim} "
                         f"vs reference {ref.dim}")
    gen_flat = gen.vectors.reshape(-1, gen.dim)
    ref_flat = ref.vectors.reshape(-1, ref.dim)
    fd = ev.frechet_distance(gen_flat, ref_flat)
    baseline = ev.self_distance(ref_flat, rng=np.random.default_rng(0))

    recon_curve = []
    entropy = []
    passes = 0
    book = None
    if args.codebook:
        book = rvq.load_codebook(args.codebook)
        if book.dim != gen.dim:
            raise SystemExit(f"error: codebook dim {book.dim} != data dim {gen.dim}")
        recon_curve = rvq.reconstruction_mse_by_depth(ref_flat, book).tolist()
        if args.tokens:
            header, grids = _load_token_dump(args.tokens, book)
            passes = header.get("forward_passes", 0)
            tokens = grids.reshape(-1, grids.shape[-1])
        else:
            tokens = rvq.quantize(gen_flat, book)
        entropy = ev.codebook_usage_entropy(tokens, book.vocab)

    report = ev.EvalReport(fd=fd, recon_mse_by_depth=recon_curve,
                           forward_pass_count=passes,
                           codebook_usage_entropy=entropy,
                           wall_time=time.perf_counter() - t0)
    lines = report.lines() + [f"fd_baseline={baseline:.12g}"]
    for line in lines:
        print(line)
    print(f"wall_time={report.wall_time:.3f}s")
    if args.out:
        data_mod.atomic_write(args.out, ("\n".join(lines) + "\n").encode())

    failures = []
    if not np.isfinite(fd) or fd < 0:
        failures.append("fd out of range")
    if recon_curve and np.any(np.diff(recon_curve) > 1e-12):
        failures.append("reconstruction MSE not non-increasing in depth")
    if entropy and book is not None:
        cap = np.log(book.vocab) + 1e-9
        if any(e < 0 or e > cap for e in entropy):
            failures.append("usage entropy outside [0, log V]")
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 2
    return 0


# ---------------------------------------------------------------------------
# inspect

def cmd_inspect(args):
    with open(args.path, "rb") as fh:
        magic = fh.read(4)
    if magic == data_mod.DATASET_MAGIC:
        ds = data_mod.load_dataset(args.path)
        print(f"kind=dataset version={data_mod.DATASET_VERSION} count={ds.count} "
              f"seq_len={ds.seq_len} dim={ds.dim} num_classes={ds.num_classes}")
    elif magic == rvq.CODEBOOK_MAGIC:
        book = rvq.load_codebook(args.path)
        print(f"kind=codebook version={rvq.CODEBOOK_VERSION} depth={book.depth} "
              f"vocab={book.vocab} dim={book.dim}")
        print("sigma=" + ",".join(f"{s:.6g}" for s in book.sigma))
    elif magic == ckpt_mod.CHECKPOINT_MAGIC:
        ck = ckpt_mod.load_checkpoint(args.path)
        bc = ck.backbone_config
        print(f"kind=checkpoint version={ckpt_mod.CHECKPOINT_VERSION} "
              f"step={ck.step}")
        print(f"backbone: seq_len={bc.seq_len} depth={bc.depth} vocab={bc.vocab} "
              f"dim={bc.latent_dim} width={bc.width} layers={bc.layers} "
              f"mixtures={bc.mixtures}")
        print(f"train: steps={ck.train_config.steps} lr={ck.train_config.lr} "
              f"schedule={ck.train_config.schedule} seed={ck.train_config.seed}")
        print(f"arrays={len(ck.params)} ema={len(ck.ema)}")
    else:
        raise SystemExit(f"error: {args.path}: unknown magic {magic!r}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="rvqgen",
                                description="RVQ masked-diffusion toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    add_opts(sp, SYNTH_OPTS)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("fit-rvq", help="fit a residual codebook")
    add_opts(sp, FIT_OPTS)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit_rvq)

    sp = sub.add_parser("train", help="train the masked-prediction model")
    add_opts(sp, TRAIN_OPTS)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--codebook")
    sp.add_argument("--resume")
    sp.add_argument("--log")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sample", help="generate token grids from a checkpoint")
    add_opts(sp, SAMPLE_OPTS)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("eval", help="score generated data against a reference")
    sp.add_argument("--generated", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--codebook")
    sp.add_argument("--tokens")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("inspect", help="describe any artifact file")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_inspect)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e.filename}: not found", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
