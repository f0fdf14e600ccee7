"""Command-line surface: synth | fit-rvq | train | sample | eval | inspect.

Options are read off the library code that consumes them (the keywords of
`data.synthesize` and `rvq.fit_and_quantize`, the fields of `TrainConfig`,
`BackboneConfig` and `SamplerConfig`), which owns their defaults and checks.
Values resolve in three layers: those defaults, then a key=value config
file (--config), then explicit command-line flags. Every command that takes
--seed is end-to-end reproducible; binary outputs are written atomically.
An error a command raises (a bad input, a file it cannot read or write, a
diverging training run) leaves `main` as one `error: ...` line and exit
code 1; argparse's usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
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
from .trainer import TrainConfig, Trainer, TrainingError

SEED_ENV = "RVQGEN_SEED"


def env_seed():
    """The default of every `seed` option: $RVQGEN_SEED, else 0."""
    try:
        return int(os.environ.get(SEED_ENV, "0"))
    except ValueError as e:
        raise ValueError(f"{SEED_ENV}: {e}") from None


def parse_config_file(path):
    """Flat key=value lines of UTF-8 text; blank lines and #-comments
    ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: config file is not UTF-8 text") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _bool(value):
    low = str(value).lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {value!r}")


def _convert(value, kind):
    """A flag's or config line's value as `kind`; flags arrive converted,
    except tuples (of integers, comma-separated), which argparse keeps as
    text so that a bad one is reported with its field."""
    if isinstance(value, kind):
        return value
    if kind is bool:
        return _bool(value)
    if kind is tuple:
        return tuple(int(s) for s in value.split(",") if s.strip())
    return kind(value)


def _keywords(fn, skip=()):
    """{keyword: (type, default)} of a library function's (or config
    dataclass's) keywords that have a default, less `skip`."""
    return {name: (type(p.default), p.default)
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty and name not in skip}


def _pick(opts, cls):
    return {k: v for k, v in opts.items() if k in cls.__dataclass_fields__}


def add_opts(parser, table):
    parser.add_argument("--config", help="key=value config file")
    for name, (kind, default) in table.items():
        shown = f"${SEED_ENV}, else 0" if name == "seed" else default
        parser.add_argument("--" + name.replace("_", "-"), default=None,
                            type={bool: _bool, tuple: str}.get(kind, kind),
                            metavar="BOOL" if kind is bool else None,
                            help=f"(default {shown})")
    parser.set_defaults(opts=table)


def resolve(args):
    """{option: value} of a parsed command: each option's flag, else its
    config-file line, else its default (`seed`'s is `env_seed()`). A value
    that does not convert names its field (and file); so does a file key
    that the command does not take."""
    path = args.config
    lines = parse_config_file(path) if path else {}
    for key in lines:
        if key not in args.opts:
            raise ValueError(f"{path}: {key}: not an option of {args.command}")
    out = {}
    for name, (kind, default) in args.opts.items():
        value, where = getattr(args, name), name
        if value is None and name in lines:
            value, where = lines[name], f"{path}: {name}"
        if value is None:
            out[name] = env_seed() if name == "seed" else default
            continue
        try:
            out[name] = _convert(value, kind)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    return out


# ---------------------------------------------------------------------------
# synth

SYNTH_OPTS = _keywords(data_mod.synthesize)


def cmd_synth(args):
    ds, meta = data_mod.synthesize(**resolve(args))
    data_mod.save_dataset(ds, args.out, meta=meta)
    print(f"wrote {args.out}: {ds.count} records of {ds.seq_len}x{ds.dim}, "
          f"num_classes={ds.num_classes}")
    return 0


# ---------------------------------------------------------------------------
# fit-rvq

FIT_OPTS = _keywords(rvq.fit_and_quantize)


def cmd_fit_rvq(args):
    o = resolve(args)
    ds = data_mod.load_dataset(args.dataset)
    flat = ds.vectors.reshape(-1, ds.dim)
    # the fit's own encode of the data: the tokens of rvq.quantize(flat, book)
    book, tokens = rvq.fit_and_quantize(flat, **o)
    rvq.save_codebook(book, args.out)
    mse = rvq.reconstruction_mse_by_depth(flat, book, tokens)
    entropy = ev.codebook_usage_entropy(tokens, book.vocab)
    print(f"wrote {args.out}: depth={book.depth} vocab={book.vocab} dim={book.dim}")
    for j in range(book.depth):
        print(f"depth={j + 1} mse={mse[j]:.6g} sigma={book.sigma[j]:.6g} "
              f"usage_entropy={entropy[j]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# train

# AdamW's betas and eps are set in code; the grid and codebook shapes
# (no defaults) and the class count come from the data, and the positional
# encoding is always on
TRAIN_OPTS = {**_keywords(TrainConfig, skip=("beta1", "beta2", "eps")),
              **_keywords(BackboneConfig, skip=("num_classes", "positional_encoding"))}


def _tokenize(ds, book):
    """(N, L, D) token grids of a dataset, quantized in one call."""
    flat = ds.vectors.reshape(-1, ds.dim)
    return rvq.quantize(flat, book).reshape(ds.count, ds.seq_len, book.depth)


def cmd_train(args):
    o = resolve(args)
    if not args.resume and not args.codebook:
        raise ValueError("train needs --codebook (or --resume)")
    # checked before any work, also with --resume, which keeps the checkpoint's
    tc = TrainConfig(**_pick(o, TrainConfig))
    ds = data_mod.load_dataset(args.dataset)
    if args.resume:
        ckpt = ckpt_mod.load_checkpoint(args.resume)
        book = ckpt.codebook
        if book.dim != ds.dim or ckpt.backbone_config.seq_len != ds.seq_len:
            raise ValueError("resume checkpoint disagrees with dataset shapes")
        grids = _tokenize(ds, book)
        trainer = ckpt_mod.restore_trainer(ckpt, grids, ds.labels.astype(np.int64))
        print(f"resumed at step {trainer.step_count}")
    else:
        book = rvq.load_codebook(args.codebook)
        if book.dim != ds.dim:
            raise ValueError(f"codebook dim {book.dim} != dataset dim {ds.dim}")
        bc = BackboneConfig(seq_len=ds.seq_len, depth=book.depth, vocab=book.vocab,
                            latent_dim=book.dim, num_classes=ds.num_classes,
                            **_pick(o, BackboneConfig))
        grids = _tokenize(ds, book)
        model = Backbone(bc, seed=tc.seed)
        trainer = Trainer(model, book, grids, ds.labels.astype(np.int64), tc)

    log_path = args.log or str(args.out) + ".log"
    log_lines = []
    total = trainer.config.steps
    every = trainer.config.checkpoint_every
    while trainer.step_count < total:
        chunk = total - trainer.step_count if every == 0 \
            else min(every, total - trainer.step_count)
        # a diverging run is reported by the trainer's non-finite-loss
        # error, not by numpy's overflow warnings on the way there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

# the sampler fields default to the preset's (SamplerConfig's without one)
SAMPLE_OPTS = {"count": (int, 64), "label": (int, 0),
               **_keywords(ckpt_mod.model_from_checkpoint), "preset": (str, ""),
               **{name: (kind, None) for name, (kind, _) in _keywords(SamplerConfig).items()}}


def sampler_config(o):
    """The SamplerConfig of resolved `sample` options: the preset's fields
    overlaid with the options given (and the seed)."""
    base = preset(o["preset"]) if o["preset"] else SamplerConfig()
    return dataclasses.replace(base, **{k: v for k, v in _pick(o, SamplerConfig).items()
                                        if v is not None})


def cmd_sample(args):
    o = resolve(args)
    config = sampler_config(o)
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    model = ckpt_mod.model_from_checkpoint(ckpt, weights=o["weights"])
    book = ckpt.codebook
    count, L = o["count"], model.config.seq_len

    t0 = time.perf_counter()
    flat, grids, passes = ev.generate_vectors(
        model, book, config, count, o["label"], np.random.default_rng(config.seed))
    wall = time.perf_counter() - t0
    labels = np.full(count, o["label"], dtype=np.uint32)
    data_mod.save_dataset(data_mod.Dataset(flat.reshape(count, L, book.dim), labels,
                                           num_classes=model.config.num_classes),
                          args.out)

    data_mod.atomic_write(str(args.out) + ".tokens.txt",
                          token_dump_bytes(grids, passes, config.steps))
    print(f"wrote {args.out} (+.tokens.txt): {count} grids, "
          f"forward_passes={passes}, wall_time={wall:.3f}s")
    return 0


# ---------------------------------------------------------------------------
# eval

def token_dump_bytes(grids, forward_passes, steps):
    """A `sample` token dump of (N, L, D) grids: one '#' header line, then
    one line per grid, its tokens depth-major."""
    count, L, D = grids.shape
    dump = [f"# forward_passes={forward_passes} steps={steps} grids={count} "
            f"seq_len={L} depth={D}"]
    for g in grids:
        dump.append(" ".join(str(int(v)) for v in g.T.reshape(-1)))
    return ("\n".join(dump) + "\n").encode()


def _load_token_dump(path, book=None):
    """Header fields and (N, L, D) token grids of a `sample` token dump,
    checked against `book`'s depth and vocabulary when one is given;
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
    if book is not None and D != book.depth:
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
        if vals.min() < 1 or book is not None and vals.max() > book.vocab:
            top = "V" if book is None else book.vocab
            raise ValueError(f"{path}: line {lineno}: token outside [1, {top}]")
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
        raise ValueError(f"dimension mismatch: generated {gen.dim} "
                         f"vs reference {ref.dim}")
    gen_flat = gen.vectors.reshape(-1, gen.dim)
    ref_flat = ref.vectors.reshape(-1, ref.dim)
    try:  # a set too small for its moments, or the reference for its halves
        fd = ev.frechet_distance(gen_flat, ref_flat)
        baseline = ev.self_distance(ref_flat, rng=np.random.default_rng(0))
    except ValueError as e:
        raise ValueError(f"{args.generated} vs {args.reference}: {e}") from None

    recon_curve = []
    entropy = []
    passes = 0
    book = None
    if args.codebook:
        book = rvq.load_codebook(args.codebook)
        if book.dim != gen.dim:
            raise ValueError(f"codebook dim {book.dim} != data dim {gen.dim}")
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
    elif magic[:1] == b"#":
        header, grids = _load_token_dump(args.path)
        _, L, D = grids.shape
        print(f"kind=tokens grids={len(grids)} seq_len={L} depth={D}")
        print("header: " + " ".join(f"{k}={v}" for k, v in header.items()))
    else:
        raise ValueError(f"{args.path}: unknown magic {magic!r}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="rvqgen",
                                description="RVQ masked-diffusion toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # each command's options, then its files ("!": required)
    for name, text, func, table, files in (
            ("synth", "generate a synthetic dataset", cmd_synth, SYNTH_OPTS, "out!"),
            ("fit-rvq", "fit a residual codebook", cmd_fit_rvq, FIT_OPTS, "dataset! out!"),
            ("train", "train the masked-prediction model", cmd_train, TRAIN_OPTS,
             "dataset! codebook resume log out!"),
            ("sample", "generate token grids from a checkpoint", cmd_sample, SAMPLE_OPTS,
             "checkpoint! out!"),
            ("eval", "score generated data against a reference", cmd_eval, None,
             "generated! reference! codebook tokens out")):
        sp = sub.add_parser(name, help=text)
        if table is not None:
            add_opts(sp, table)
        for f in files.split():
            sp.add_argument("--" + f.rstrip("!"), required=f.endswith("!"))
        sp.set_defaults(func=func)

    sp = sub.add_parser("inspect", help="describe any artifact file")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_inspect)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        # a missing file, a directory, a permission: the path the user gave
        where = "" if e.filename is None else f"{e.filename}: "
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 1
    except (ValueError, TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
