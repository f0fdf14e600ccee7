"""The four benchmark workloads: set-up, one operation, and output checks.

Each workload is a closed loop driven by `run.py`: one caller, each
operation starting when the previous one ends. Inputs come only from the
workload seed. Every library call goes through a module attribute
(`sampler.generate`, `rvq.quantize`, ...) so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import os
import re
import time

import numpy as np

from rvqgen import checkpoint, cli, data, evaluate, rvq, sampler, trainer
from rvqgen.backbone import Backbone, BackboneConfig

clock = time.perf_counter

# criterion-9 / README geometry shared by every workload
SEQ_LEN, DIM, MODES, NOISE, DEPTH, VOCAB = 8, 8, 9, 0.1, 4, 32
MODEL = dict(width=64, layers=2, heads=4, mixtures=32, mean_rank=8)
SMOKE_MODEL = dict(width=16, layers=1, heads=2, mixtures=4, mean_rank=2)

# sampling warm-up uses a seed index no measured operation reaches
WARMUP = 1 << 31


def _model_config(model, num_classes):
    return BackboneConfig(seq_len=SEQ_LEN, depth=DEPTH, vocab=VOCAB,
                          latent_dim=DIM, num_classes=num_classes, **model)


def _tokenize(vectors, book):
    # per-record loop, as `rvqgen train` tokenizes its dataset
    return np.stack([rvq.quantize(v, book) for v in vectors])


class Workload:
    """Hooks `run.py` drives; one instance holds the state of one set-up."""

    block = 1                 # operations per traced/untraced comparison
    forward_calls = 0         # backbone forward calls per operation
    alias = None              # workload names of (ops_per_s, op_ms)
    probe = ("blas", "churn")  # host-speed probe kinds like this work

    def __init__(self, cfg, seed, work):
        self.cfg, self.seed, self.work = cfg, seed, work

    def setup(self):
        raise NotImplementedError

    def op(self, i):
        """Run operation i; return (result, seconds of the timed call)."""
        raise NotImplementedError

    def check(self, i, result):
        """None when the output is right, else the reason it is not."""
        return None

    def same(self, a, b):
        """Whether two results of one operation are bit-identical."""
        raise NotImplementedError

    def snapshot(self):
        return None

    def restore(self, snap):
        pass

    def fingerprint(self):
        return None

    def post_checks(self, results):
        """Checks run outside the timed loop: {operation: reason}."""
        return {}

    def report(self, results):
        """Workload-named figures of an untraced run beside the generic ones."""
        return {}

    def diagnostics(self, results):
        """Ungated quality figures of a traced run."""
        return {}


class Train(Workload):
    """Criterion-9 training: one operation is one `Trainer.step`, plus a
    checkpoint save whenever the step count reaches the cadence."""

    block = 20
    forward_calls = 1
    alias = ("train.steps_per_s", "train.step_ms")

    def setup(self):
        c = self.cfg
        ds, _ = data.synthesize("grid", c["records"], SEQ_LEN, DIM, modes=MODES,
                                noise=NOISE, seed=self.seed)
        book = rvq.fit_codebook(ds.vectors.reshape(-1, DIM), DEPTH, VOCAB,
                                epochs=c["fit_epochs"], seed=self.seed)
        grids = _tokenize(ds.vectors, book)
        model = Backbone(_model_config(c["model"], 0), seed=self.seed)
        tc = trainer.TrainConfig(steps=20_000, batch_size=16, schedule="circle",
                                 seed=self.seed, audit_steps=(),
                                 checkpoint_every=c["checkpoint_every"])
        self.trainer = trainer.Trainer(model, book, grids,
                                       np.zeros(len(grids), dtype=np.int64), tc)
        self.path = os.path.join(self.work, "train.ckpt")
        for _ in range(c["warmup_ops"]):
            self.trainer.step()

    def op(self, i):
        tr = self.trainer
        calls = tr.model.forward_calls
        t0 = clock()
        rec = tr.step()
        t = clock() - t0
        rec["forward_calls"] = tr.model.forward_calls - calls
        if tr.step_count % tr.config.checkpoint_every == 0:
            checkpoint.save_checkpoint(checkpoint.from_trainer(tr), self.path)
        return rec, t

    def check(self, i, rec):
        if not math.isfinite(rec["loss"]):
            return f"non-finite loss {rec['loss']}"
        if rec["gap"] < -1e-9:       # the trainer's own tolerance
            return f"negative Jensen gap {rec['gap']}"
        if rec["forward_calls"] != 1:
            return f"{rec['forward_calls']} forward calls in one step"
        return None

    def same(self, a, b):
        return a == b

    def snapshot(self):
        tr = self.trainer
        return (tr.step_count, tr.model.forward_calls,
                copy.deepcopy(tr.rng.bit_generator.state),
                {k: p.data.copy() for k, p in tr.model.params.items()},
                *({k: v.copy() for k, v in d.items()}
                  for d in (tr.opt_m, tr.opt_v, tr.ema)))

    def restore(self, snap):
        tr = self.trainer
        tr.step_count, tr.model.forward_calls, state, params, m, v, ema = snap
        tr.rng.bit_generator.state = state
        for k, p in tr.model.params.items():
            p.data = params[k]
        tr.opt_m, tr.opt_v, tr.ema = m, v, ema

    def fingerprint(self):
        tr = self.trainer
        return b"".join(d[k].tobytes() for d in (
            {k: p.data for k, p in tr.model.params.items()},
            tr.opt_m, tr.opt_v, tr.ema) for k in sorted(d))

    def diagnostics(self, results):
        losses = [results[i]["loss"] for i in sorted(results)][-50:]
        return {"trainer.loss_tail": (float(np.mean(losses)) if losses else 0.0,
                                      "nats")}


class Sample(Workload):
    """One operation generates one grid with `sampler.generate` and
    dequantizes it, as `rvqgen sample` does per grid."""

    alias = ("sample.grids_per_s", "sample.grid_ms")
    probe = ("churn",)        # batch-1 calls: interpreter-bound

    def setup(self):
        c = self.cfg
        n, classes = c["records"], c["classes"]
        ds, _ = data.synthesize("classes" if classes else "grid", n + c["held_out"],
                                SEQ_LEN, DIM, modes=MODES, noise=NOISE,
                                num_classes=classes, seed=self.seed)
        self.held = ds.vectors[n:].reshape(-1, DIM)
        book = rvq.fit_codebook(ds.vectors[:n].reshape(-1, DIM), DEPTH, VOCAB,
                                epochs=c["fit_epochs"], seed=self.seed)
        model = Backbone(_model_config(c["model"], classes), seed=self.seed)
        # a raised learning rate gets a usable sampler from a short run
        tc = trainer.TrainConfig(steps=c["train_steps"], warmup=c["train_steps"] // 10,
                                 lr=3e-3, seed=self.seed, audit_steps=())
        tr = trainer.Trainer(model, book, _tokenize(ds.vectors[:n], book),
                             ds.labels[:n].astype(np.int64), tc)
        tr.run(tc.steps)
        path = os.path.join(self.work, "model.ckpt")
        checkpoint.save_checkpoint(checkpoint.from_trainer(tr), path)
        ckpt = checkpoint.load_checkpoint(path)
        # raw weights: the EMA of so short a run is still close to the
        # zero-initialized heads, whose uniform mixture is degenerate
        self.model = checkpoint.model_from_checkpoint(ckpt, weights="raw")
        self.book = ckpt.codebook
        self.config = c["sampler"]
        self.forward_calls = self.config.steps * (2 if self.config.use_cfg else 1)
        self.op(WARMUP)

    def label(self, i):
        classes = self.cfg["classes"]
        return 1 + i % classes if classes else 0

    def _generate(self, i, validate=False):
        return sampler.generate(self.model, self.book, self.label(i), self.config,
                                rng=np.random.default_rng([self.seed, i]),
                                validate=validate)

    def op(self, i):
        t0 = clock()
        tokens, stats = self._generate(i)
        t = clock() - t0
        vectors = rvq.dequantize(tokens, self.book)
        return {"tokens": tokens, "passes": stats["forward_passes"],
                "vectors": vectors}, t

    def check(self, i, res):
        if res["passes"] != self.forward_calls:
            return f"{res['passes']} forward passes, want {self.forward_calls}"
        t = res["tokens"]
        if t.shape != (SEQ_LEN, DEPTH) or t.min() < 1 or t.max() > VOCAB:
            return "tokens outside [1, V]: grid not fully revealed"
        if not np.all(np.isfinite(res["vectors"])):
            return "non-finite dequantized vectors"
        return None

    def same(self, a, b):
        return (a["passes"] == b["passes"]
                and np.array_equal(a["tokens"], b["tokens"])
                and a["vectors"].tobytes() == b["vectors"].tobytes())

    def post_checks(self, results):
        bad = {}
        for i in sorted(results)[::self.cfg["validate_every"]]:
            try:
                tokens, _ = self._generate(i, validate=True)
            except (AssertionError, ValueError) as e:
                bad[i] = f"validate=True: {e}"
                continue
            if not np.array_equal(tokens, results[i]["tokens"]):
                bad[i] = "validate=True re-run gave other tokens"
        return bad

    def diagnostics(self, results):
        flat = np.concatenate([r["vectors"] for r in results.values()])
        fd = evaluate.frechet_distance(flat, self.held)
        base = evaluate.self_distance(self.held, rng=np.random.default_rng(0))
        return {"sampler.fd_ratio": (fd / base, "ratio")}


_MSE_LINE = re.compile(r"^depth=\d+ mse=(\S+)", re.M)


class Fit(Workload):
    """One operation is one `fit-rvq` stage then one `eval` stage of the
    README walkthrough, each through `cli.main` in-process."""

    probe = ("nearest",)      # the k-means inner loop's kind of work

    def setup(self):
        c = self.cfg
        self.ref = os.path.join(self.work, "data.rgds")
        self.gen = os.path.join(self.work, "gen.rgds")
        for path, count, seed in ((self.ref, c["records"], self.seed),
                                  (self.gen, c["generated"], self.seed + 1)):
            ds, meta = data.synthesize("grid", count, SEQ_LEN, DIM, modes=MODES,
                                       noise=NOISE, seed=seed)
            data.save_dataset(ds, path, meta=meta)
        # warm-up: both stages once, with a one-epoch fit
        self.op(WARMUP, epochs=1)

    def op(self, i, epochs=None):
        book = os.path.join(self.work, "book.rvqc")
        report = os.path.join(self.work, "report.txt")
        fit = ["fit-rvq", "--dataset", self.ref, "--depth", str(DEPTH),
               "--vocab", str(VOCAB), "--update", "nearest",
               "--epochs", str(epochs or self.cfg["fit_epochs"]),
               "--seed", str(self.seed * 100_003 + i), "--out", book]
        ev = ["eval", "--generated", self.gen, "--reference", self.ref,
              "--codebook", book, "--out", report]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = clock()
            rc_fit = cli.main(fit)
            t1 = clock()
            rc_eval = cli.main(ev) if rc_fit == 0 else None
            t2 = clock()
        with open(book, "rb") as fh:
            blob = fh.read()
        with open(report, "rb") as fh:
            text = fh.read()
        return {"rc": (rc_fit, rc_eval), "stdout": out.getvalue(), "book": blob,
                "report": text, "fit_s": t1 - t0, "eval_s": t2 - t1}, t2 - t0

    def check(self, i, res):
        if res["rc"] != (0, 0):
            return f"exit codes {res['rc']}"
        mse = [float(m) for m in _MSE_LINE.findall(res["stdout"])]
        if len(mse) != DEPTH or any(b > a for a, b in zip(mse, mse[1:])):
            return f"MSE curve not non-increasing in depth: {mse}"
        if rvq.codebook_to_bytes(rvq.codebook_from_bytes(res["book"])) != res["book"]:
            return "RVQC save/load round-trip is not bit-exact"
        return None

    def same(self, a, b):
        return a["book"] == b["book"] and a["report"] == b["report"]

    def report(self, results):
        ok = list(results.values())
        return {"fit.fit_rvq_s": (float(np.median([r["fit_s"] for r in ok])), "s"),
                "fit.eval_s": (float(np.median([r["eval_s"] for r in ok])), "s")}

    def diagnostics(self, results):
        last = results[max(results)]["report"].decode()
        curve = re.search(r"^recon_mse_by_depth=(\S+)", last, re.M).group(1)
        return {"rvq.recon_mse": (float(curve.split(",")[-1]), "mse")}


WORKLOADS = {"train": Train, "sample-random": Sample, "sample-guided": Sample,
             "fit": Fit}


def configs(smoke=False):
    """Per-workload sizes; `smoke` shrinks every one to run in seconds."""
    model = SMOKE_MODEL if smoke else MODEL
    samp = {"records": 128 if smoke else 1024, "held_out": 64 if smoke else 512,
            "fit_epochs": 2 if smoke else 10, "train_steps": 5 if smoke else 150,
            "validate_every": 2 if smoke else 25, "model": model}
    steps = {"steps": 4} if smoke else {}
    return {
        "train": {"records": 128 if smoke else 4096, "fit_epochs": 2 if smoke else 10,
                  "checkpoint_every": 5 if smoke else 100, "warmup_ops": 3,
                  "model": model},
        "sample-random": {**samp, "classes": 0, "sampler": sampler.SamplerConfig(
            **{"steps": 32, **steps}, selection="random", top_p=1.0)},
        "sample-guided": {**samp, "classes": 4,
                          "sampler": sampler.preset("paper-28", **steps)},
        "fit": {"records": 256 if smoke else 5120, "generated": 64 if smoke else 512,
                "fit_epochs": 2 if smoke else 10},
    }
