"""Desk-scale evaluation: Gaussian Fréchet distance on raw vectors, mode
occupancy against a synthetic family's centers, the `eval` report
(reconstruction-vs-depth curve, codebook usage entropy), and many-grid
generation for `sample`.

The Fréchet distance stands in for feature-space FID: the synthetic data
distributions are known, so raw-vector moments are a meaningful
discrepancy. Generation-quality numbers are reported, not asserted:
training stochasticity makes exact values non-contractual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rvq
from .backbone import check_integer
from .sampler import SamplerConfig, generate


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


def mode_occupancy(vectors, centers):
    """Fraction of (flattened) vectors nearest to each ground-truth center."""
    centers = np.asarray(centers, dtype=np.float64)
    flat = np.asarray(vectors, dtype=np.float64).reshape(-1, centers.shape[1])
    nearest = rvq.nearest(flat, centers)
    return np.bincount(nearest, minlength=centers.shape[0]) / flat.shape[0]


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
# generation-driven evaluation


def generate_vectors(model, book, config: SamplerConfig, count, labels, rng):
    """Generate `count` grids and return (stacked position vectors, grids,
    total forward passes). `labels` is one class label per grid, or one
    for all; each must be an integer in [0, num_classes], checked before
    any work."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        for value in labels.ravel().tolist():
            check_integer("label", value)
    labels = np.broadcast_to(labels, (count,))
    bad = (labels < 0) | (labels > model.config.num_classes)
    if bad.any():
        raise ValueError(f"label {labels[bad][0]} outside "
                         f"[0, {model.config.num_classes}]")
    grids = []
    passes = 0
    for i in range(count):
        tokens, stats = generate(model, book, int(labels[i]), config, rng=rng)
        grids.append(tokens)
        passes += stats["forward_passes"]
    grids = np.stack(grids)
    return rvq.dequantize(grids, book).reshape(-1, book.dim), grids, passes
