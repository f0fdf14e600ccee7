"""Desk-scale evaluation: Gaussian Fréchet distance on raw vectors,
reconstruction-vs-depth curves, schedule cross-grids, and sampler sweeps.

The Fréchet distance stands in for feature-space FID: the synthetic data
distributions are known, so raw-vector moments are a meaningful
discrepancy. Generation-quality numbers are reported, not asserted:
training stochasticity makes exact values non-contractual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rvq
from .backbone import Backbone, BackboneConfig
from .sampler import SamplerConfig, generate
from .trainer import TrainConfig, Trainer


@dataclass
class EvalReport:
    fd: float
    recon_mse_by_depth: list
    forward_pass_count: int
    codebook_usage_entropy: list
    wall_time: float = 0.0

    def lines(self):
        """Canonical key=value serialization; wall time deliberately
        excluded so identical seeds yield identical reports."""
        out = [f"fd={self.fd:.12g}"]
        out.append("recon_mse_by_depth=" +
                   ",".join(f"{v:.12g}" for v in self.recon_mse_by_depth))
        out.append(f"forward_pass_count={self.forward_pass_count}")
        out.append("codebook_usage_entropy=" +
                   ",".join(f"{v:.12g}" for v in self.codebook_usage_entropy))
        return out


def gaussian_moments(X):
    X = np.asarray(X, dtype=np.float64)
    return X.mean(axis=0), np.cov(X, rowvar=False)


def _psd_sqrt(S, tol=1e-8):
    w, Q = np.linalg.eigh(S)
    if w.min() < -tol:
        cond = abs(w.max() / w.min()) if w.min() != 0 else np.inf
        raise ValueError(
            f"covariance not PSD within tolerance: min eigenvalue {w.min():.3e}, "
            f"condition number {cond:.3e}")
    w = np.clip(w, 0.0, None)
    return (Q * np.sqrt(w)) @ Q.T


def frechet_distance(A, B, tol=1e-8):
    """||mu_A - mu_B||^2 + tr(S_A + S_B - 2 (S_A S_B)^{1/2}).

    The cross square root comes from the eigendecomposition of the
    symmetrized product sqrt(S_A) S_B sqrt(S_A); eigenvalues below -tol
    are an error, small negatives clamp to zero.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    dim = A.shape[1]
    if A.shape[0] < dim + 1 or B.shape[0] < dim + 1:
        raise ValueError(f"need at least dim+1={dim + 1} samples per set")
    if B.shape[1] != dim:
        raise ValueError("sets must share dimensionality")
    mu_a, S_a = gaussian_moments(A)
    mu_b, S_b = gaussian_moments(B)
    root_a = _psd_sqrt(S_a, tol)
    cross = root_a @ S_b @ root_a
    w = np.linalg.eigvalsh((cross + cross.T) / 2.0)
    if w.min() < -tol:
        cond = abs(w.max() / w.min()) if w.min() != 0 else np.inf
        raise ValueError(
            f"cross-covariance product not PSD within tolerance: "
            f"min eigenvalue {w.min():.3e}, condition number {cond:.3e}")
    trace_sqrt = np.sqrt(np.clip(w, 0.0, None)).sum()
    diff = mu_a - mu_b
    fd = float(diff @ diff + np.trace(S_a) + np.trace(S_b) - 2.0 * trace_sqrt)
    if fd < -tol:
        raise ValueError(f"Fréchet distance computed as {fd:.3e} < 0")
    return max(fd, 0.0)


def self_distance(X, rng=None):
    """FD between shuffled halves of one set: the finite-sample floor used
    as an acceptance denominator."""
    X = np.asarray(X)
    idx = np.arange(X.shape[0]) if rng is None else rng.permutation(X.shape[0])
    half = X.shape[0] // 2
    return frechet_distance(X[idx[:half]], X[idx[half:2 * half]])


def codebook_usage_entropy(tokens, vocab):
    """Per-depth entropy (nats) of the codeword histogram; in [0, log V]."""
    tokens = np.asarray(tokens).reshape(-1, np.asarray(tokens).shape[-1])
    out = []
    for j in range(tokens.shape[1]):
        counts = np.bincount(tokens[:, j] - 1, minlength=vocab)
        p = counts / counts.sum()
        nz = p[p > 0]
        out.append(float(-(nz * np.log(nz)).sum()))
    return out


# ---------------------------------------------------------------------------
# generation-driven sweeps


def generate_vectors(model, book, config: SamplerConfig, count, labels, rng):
    """Generate `count` grids and return (stacked position vectors, grids,
    total forward passes)."""
    grids = []
    passes = 0
    for i in range(count):
        tokens, stats = generate(model, book, int(labels[i]), config, rng=rng)
        grids.append(tokens)
        passes += stats["forward_passes"]
    grids = np.stack(grids)
    flat = np.concatenate([rvq.dequantize(g, book) for g in grids], axis=0)
    return flat, grids, passes


def train_small(vectors, labels, book, backbone_cfg: BackboneConfig,
                train_cfg: TrainConfig):
    """Tokenize, train, and return (trainer, EMA-weight model)."""
    N, L, H = np.shape(vectors)
    grids = rvq.quantize(np.reshape(vectors, (N * L, H)), book).reshape(N, L, book.depth)
    model = Backbone(backbone_cfg, seed=train_cfg.seed)
    trainer = Trainer(model, book, grids, labels, train_cfg)
    trainer.run(train_cfg.steps)
    ema_model = Backbone(backbone_cfg, seed=0)
    ema_model.load_arrays(trainer.ema)
    return trainer, ema_model


def depth_sweep(vectors, depths, vocab, fit_seed=0, pipeline=None):
    """Reconstruction (and optionally generation) quality per RVQ depth.

    `pipeline`, when given, is a dict with backbone/train/sampler configs
    and evaluation sizes; without it only the deterministic reconstruction
    curve is reported.
    """
    if len(depths) < 2:
        raise ValueError("need at least two depth values to sweep")
    vectors = np.asarray(vectors, dtype=np.float64)
    rows = []
    for D in depths:
        book = rvq.fit_codebook(vectors.reshape(-1, vectors.shape[-1]),
                                depth=D, vocab=vocab, seed=fit_seed)
        mse = rvq.reconstruction_mse_by_depth(
            vectors.reshape(-1, vectors.shape[-1]), book)
        row = {"D": D, "recon_mse": float(mse[-1]),
               "recon_mse_by_depth": mse.tolist()}
        if pipeline is not None:
            bb = replace(pipeline["backbone"], depth=D)
            _, model = train_small(pipeline["vectors"], pipeline["labels"],
                                   book, bb, pipeline["train"])
            rng = np.random.default_rng(pipeline.get("eval_seed", 0))
            labels = pipeline["eval_labels"]
            flat, _, _ = generate_vectors(model, book, pipeline["sampler"],
                                          len(labels), labels, rng)
            row["fd"] = frechet_distance(flat, pipeline["reference"])
        rows.append(row)
    return rows


def schedule_grid(vectors, labels, book, backbone_cfg, train_cfg,
                  sampler_cfg, reference, eval_labels,
                  train_schedules=("circle", "cosine", "exp"),
                  sample_schedules=("circle", "cosine", "exp"),
                  cfg_weights=(0.0, 1.5), eval_seed=0):
    """Train one model per training schedule, evaluate under every sampling
    schedule with guidance off and on (EMA weights). Returns matrix rows."""
    rows = []
    for tr_s in train_schedules:
        cfg_t = replace(train_cfg, schedule=tr_s)
        _, model = train_small(vectors, labels, book, backbone_cfg, cfg_t)
        for sm_s in sample_schedules:
            for w in cfg_weights:
                sc = replace(sampler_cfg, schedule=sm_s, use_cfg=w > 0,
                             cfg_start=0.02 if w > 0 else 0.0, cfg_end=w)
                rng = np.random.default_rng(eval_seed)
                flat, _, _ = generate_vectors(model, book, sc,
                                              len(eval_labels), eval_labels, rng)
                rows.append({"train": tr_s, "sample": sm_s,
                             "cfg": w > 0,
                             "fd": frechet_distance(flat, reference)})
    return rows


def sampler_stats(model, book, base: SamplerConfig, reference, eval_labels,
                  steps_list=(8, 16, 32, 63), topp_list=(0.8, 0.9, 1.0),
                  tau_list=(0.0, 1.0, 28.0), eval_seed=0):
    """Independent sweeps over steps, top-p, and choice temperature."""
    rows = []
    sweeps = (
        [("steps", {"steps": v}) for v in steps_list]
        + [("top_p", {"top_p": v}) for v in topp_list]
        + [("tau", {"temperature": v}) for v in tau_list]
    )
    for kind, over in sweeps:
        sc = replace(base, **over)
        rng = np.random.default_rng(eval_seed)
        flat, _, passes = generate_vectors(model, book, sc, len(eval_labels),
                                           eval_labels, rng)
        rows.append({"sweep": kind, **over,
                     "fd": frechet_distance(flat, reference),
                     "forward_passes": passes})
    return rows


def rows_to_csv(rows):
    """Comma-separated table with a union-of-keys header."""
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


def _csv_cell(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, list):
        return ";".join(f"{x:.10g}" for x in v)
    return str(v)
