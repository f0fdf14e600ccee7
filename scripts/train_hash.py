"""SHA-256 digests of seeded runs, to check that a change keeps its bits.

    python3 scripts/train_hash.py [CHECKOUT [CHECKOUT]] [--steps 200]

Six digests, in this order on each output line:
- training: criterion 9's training geometry (L=8, D=4, V=32, H=8, width
  64, 2 layers, 4 heads, 32 components, rank 8, batch 16, circle
  schedule) on 1,024 synthetic grid records, for N `Trainer.step`s
  (default 200). It covers every step's loss and Jensen gap, then the
  parameters, AdamW moments and EMA in sorted-name order, then the
  checkpoint file that `checkpoint.save_checkpoint` writes at the end, as
  read back from a scratch directory.
- random-mode, `paper-28` and confidence-mode sampling:
  `evaluate.generate_vectors` of 4 grids from that run's EMA weights,
  seeded as `rvqgen sample` seeds it (T=32 random reveals; the preset's
  28 guided steps; T=32 confidence reveals without guidance, the CLI's
  default selection); it covers the vectors, the token grids and the
  model-call count.
- fitting: `rvqgen synth`, `fit-rvq` and `eval` through `cli.main` in a
  scratch directory; it covers every file they write and their stdout,
  less eval's wall-time line.
- diagnostics: one `Trainer.audit()` value of the trained model, then the
  terms of `trainer.vlb_diagnostic` (T=4, 64 model samples per term) on
  an L=4, D=3, V=2 grid of the same data, under a seeded model with
  random weights.

Each checkout runs in its own process with that checkout's `src/` first
on the import path. With no checkout the script hashes its own; with one
it prints that checkout's digests; with two (PARENT CHANGE) it prints both
and, when any digest differs, names on stderr the ones that do (training,
sample-random, sample-paper-28, fit, diagnostics, sample-confidence) and
exits 1. A checkout that fails to run (no `src/rvqgen`, or a worker that
exits nonzero) gets one `train_hash: <checkout>: <reason>` line on stderr
and exit 2, so a broken run is not taken for a moved digest. Standard
library, numpy and the checkout's `rvqgen` only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the six digests' names, in output order
DIGESTS = ("training", "sample-random", "sample-paper-28", "fit", "diagnostics",
           "sample-confidence")


def run_hash(steps):
    """The six digests with the `rvqgen` on the import path."""
    import numpy as np
    from rvqgen import checkpoint, data, evaluate, rvq, sampler, trainer
    from rvqgen.backbone import Backbone, BackboneConfig

    L, H, D, V = 8, 8, 4, 32
    ds, _ = data.synthesize("grid", count=1024, seq_len=L, dim=H, modes=9,
                            noise=0.1, seed=11)
    book = rvq.fit_codebook(ds.vectors.reshape(-1, H), depth=D, vocab=V,
                            epochs=5, seed=1)
    grids = rvq.quantize(ds.vectors.reshape(-1, H), book).reshape(-1, L, D)
    config = BackboneConfig(seq_len=L, depth=D, vocab=V, latent_dim=H, width=64,
                            layers=2, heads=4, mixtures=32, mean_rank=8)
    model = Backbone(config, seed=0)
    tc = trainer.TrainConfig(steps=20_000, batch_size=16, seed=0, audit_steps=())
    tr = trainer.Trainer(model, book, grids, ds.labels, tc)
    h = hashlib.sha256()
    for _ in range(steps):
        rec = tr.step()
        h.update(f"{rec['loss'].hex()} {rec['gap'].hex()}\n".encode())
    for group in ({k: p.data for k, p in model.params.items()},
                  tr.opt_m, tr.opt_v, tr.ema):
        for name in sorted(group):
            h.update(name.encode() + group[name].tobytes())
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "train.ckpt")
        checkpoint.save_checkpoint(checkpoint.from_trainer(tr), path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    digests = [h.hexdigest()]

    ema = Backbone(config, seed=0)
    ema.load_arrays(tr.ema)

    def sample_hash(sc):
        flat, tokens, passes = evaluate.generate_vectors(
            ema, book, sc, 4, 0, np.random.default_rng(sc.seed))
        return hashlib.sha256(flat.tobytes() + tokens.tobytes()
                              + str(passes).encode()).hexdigest()

    digests += [sample_hash(sampler.SamplerConfig(steps=32, selection="random")),
                sample_hash(sampler.preset("paper-28")),
                fit_eval_hash(),
                diagnostics_hash(tr, ds.vectors.reshape(-1, H)),
                sample_hash(sampler.SamplerConfig(steps=32))]
    return digests


def diagnostics_hash(tr, vectors):
    """Digest of `tr.audit()` and of the variational-bound terms of a small
    grid, whose (D + 1)**L mask states the diagnostic enumerates."""
    import numpy as np
    from rvqgen import masking, rvq, trainer
    from rvqgen.backbone import Backbone, BackboneConfig

    L, D, V, H = 4, 3, 2, vectors.shape[1]
    book = rvq.fit_codebook(vectors, depth=D, vocab=V, epochs=3, seed=2)
    model = Backbone(BackboneConfig(seq_len=L, depth=D, vocab=V, latent_dim=H, width=16,
                                    layers=1, heads=2, mixtures=4, mean_rank=2), seed=3)
    rng = np.random.default_rng(5)
    # random heads too, so the model's output depends on its input
    model.load_arrays({k: 0.3 * rng.normal(size=p.shape)
                       for k, p in sorted(model.params.items())})
    terms = trainer.vlb_diagnostic(rvq.quantize(vectors[:L], book), model, book, 4,
                                   masking.parse_schedule("circle"), rng, model_samples=64)
    values = [tr.audit(), terms["L_T"], *terms["L_t"], terms["L_0"]]
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def fit_eval_hash():
    """Digest of synth, fit-rvq and eval through `cli.main` in a scratch
    directory: the files written, then stdout less eval's wall time."""
    from rvqgen import cli

    h = hashlib.sha256()
    out = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)   # relative paths keep stdout free of the directory
        try:
            with contextlib.redirect_stdout(out):
                for argv in (
                        "synth --out ref.rgds --count 512 --seed 11",
                        "synth --out gen.rgds --count 512 --seed 12",
                        "fit-rvq --dataset ref.rgds --out book.rvqc --seed 1",
                        "eval --generated gen.rgds --reference ref.rgds "
                        "--codebook book.rvqc --out report.txt"):
                    if cli.main(argv.split()) != 0:
                        raise RuntimeError(f"rvqgen {argv}: nonzero exit")
            for name in sorted(os.listdir()):
                with open(name, "rb") as fh:
                    h.update(name.encode() + fh.read())
        finally:
            os.chdir(home)
    h.update("".join(line for line in out.getvalue().splitlines(True)
                     if not line.startswith("wall_time=")).encode())
    return h.hexdigest()


def hash_checkout(checkout, steps):
    """Run `run_hash` in a fresh process on `checkout`'s `src/`; its
    digests as one space-separated string. A checkout that cannot run
    raises RuntimeError naming it and the reason."""
    src = os.path.join(checkout, "src")
    if not os.path.isdir(os.path.join(src, "rvqgen")):
        raise RuntimeError(f"{checkout}: no src/rvqgen package")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--steps", str(steps)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{checkout}: worker exit {proc.returncode}: {last}")
    *digests, module = proc.stdout.split()
    # the worker must have imported the checkout's package, not another one
    if os.path.commonpath([os.path.realpath(module), os.path.realpath(src)]) \
            != os.path.realpath(src):
        raise RuntimeError(f"{checkout}: imported rvqgen from {module}")
    return " ".join(digests)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", help="zero, one or two checkouts")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.steps < 0:
        p.error("--steps must be >= 0")
    if args.worker:
        import rvqgen
        print(*run_hash(args.steps), rvqgen.__file__)
        return 0
    if len(args.checkouts) > 2:
        p.error("give at most two checkouts")
    dirs = [os.path.abspath(c) for c in args.checkouts] or [HERE]
    try:
        digests = [hash_checkout(d, args.steps) for d in dirs]
    except RuntimeError as e:
        print(f"train_hash: {e}", file=sys.stderr)
        return 2
    for d, digest in zip(dirs, digests):
        print(f"{digest}  {d}")
    if len(set(digests)) > 1:
        moved = [name for name, a, b in zip(DIGESTS, *(d.split() for d in digests))
                 if a != b]
        print(f"train_hash: {args.steps}-step digests differ: {', '.join(moved)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
