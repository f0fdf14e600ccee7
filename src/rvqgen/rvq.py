"""Residual vector quantization: per-depth codebooks, encode/decode, fitting.

A codebook holds D tables of V codewords of dimension H. Quantization walks
the depths, at each depth picking the nearest codeword to the running
residual and subtracting it; dequantization sums the chosen codewords.
Fitting runs depth by depth on the residuals left over from the previous
depth, so the first d depths of a depth-D fit are exactly a depth-d fit.

Every nearest-codeword search (quantization, the k-means passes, and
`data.mode_occupancy`) goes through one kernel, `_scores`: the expanded
squared distance ||r||^2 - 2 r.e + ||e||^2 without its ||r||^2 term, so
one (N, H) x (H, V) matrix product replaces an (N, V, H) difference array.
Dropping ||r||^2 shifts each row by a constant, which changes neither the
row's argmin nor a max-subtracted softmax over it. Ties go to the lowest
codeword index, as `np.argmin` takes the first minimum.

Tokens are 1-based codeword indices; 0 is reserved as the MASK sentinel
and never appears in quantizer output. Codebooks are immutable once
fitted, and quantize/dequantize are pure, so concurrent readers are safe.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

MASK = 0  # sentinel token value; codewords occupy 1..V

CODEBOOK_MAGIC = b"RVQC"
CODEBOOK_VERSION = 1

SIGMA_FLOOR = 1e-6


@dataclass
class Codebook:
    """Per-depth embedding tables (D, V, H) and residual scales sigma (D,)."""

    embeddings: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.embeddings = np.ascontiguousarray(self.embeddings, dtype=np.float64)
        self.sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        if self.embeddings.ndim != 3:
            raise ValueError(f"embeddings must be (D, V, H), got {self.embeddings.shape}")
        if self.sigma.shape != (self.embeddings.shape[0],):
            raise ValueError("sigma must hold one scale per depth")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("codebook embeddings must be finite")

    @property
    def depth(self):
        return self.embeddings.shape[0]

    @property
    def vocab(self):
        return self.embeddings.shape[1]

    @property
    def dim(self):
        return self.embeddings.shape[2]

    def table(self, j):
        """Embedding table at 1-based depth j, shape (V, H)."""
        return self.embeddings[j - 1]


def _scores(rows, table):
    """Squared distance less the row's own ||r||^2. (N,H)x(V,H)->(N,V)

    ||e||^2 - 2 r.e ranks codewords as ||r - e||^2 does. Its rounding
    error scales with ||e||^2 + ||r||*||e||, not with the distance, so
    codewords closer together than that may rank either way.
    """
    scores = rows @ (-2.0 * table).T  # scaling by -2 is exact
    scores += np.einsum("vh,vh->v", table, table)
    return scores


def _nearest(rows, table):
    """Lowest-index nearest codeword per row. (N,H)x(V,H)->(N,)"""
    return _scores(rows, table).argmin(axis=1)  # first minimum: lowest index


def quantize(latents, book: Codebook, start_depth=None, out=None):
    """Residual-quantize each latent vector into tokens at depths
    (start_depth, D]; shallower depths are left untouched.

    `latents` (L, H) is the starting residual for depth start_depth+1 at
    each position (for a fresh encode that is the raw vector and
    start_depth is 0). Returns an (L, D) int64 token grid; rows of `out`
    are copied through where provided, otherwise untouched depths are MASK.
    """
    latents = np.asarray(latents, dtype=np.float64)
    L = latents.shape[0]
    D, H = book.depth, book.dim
    if latents.ndim != 2 or latents.shape[1] != H:
        raise ValueError(f"latents must be (L, {H}), got {latents.shape}")
    if start_depth is None:
        start_depth = np.zeros(L, dtype=np.int64)
    start_depth = np.asarray(start_depth, dtype=np.int64)
    if np.any((start_depth < 0) | (start_depth > D)):
        raise ValueError("start_depth entries must lie in [0, D]")

    tokens = np.full((L, D), MASK, dtype=np.int64) if out is None \
        else np.array(out, dtype=np.int64)
    residual = latents.copy()
    for j in range(1, D + 1):
        active = start_depth < j
        if not np.any(active):
            continue
        idx = _nearest(residual[active], book.table(j))
        tokens[active, j - 1] = idx + 1
        residual[active] -= book.table(j)[idx]
    return tokens


def dequantize(tokens, book: Codebook, up_to_depth=None):
    """Sum codeword embeddings over depths 1..up_to_depth[i] per position.

    up_to_depth of 0 yields the zero vector. A MASK token inside the
    requested range is an error: masked entries carry no embedding.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    L, D = tokens.shape
    if D != book.depth:
        raise ValueError(f"token grid depth {D} != codebook depth {book.depth}")
    if up_to_depth is None:
        up_to_depth = np.full(L, D, dtype=np.int64)
    up_to_depth = np.asarray(up_to_depth, dtype=np.int64)

    z = np.zeros((L, book.dim), dtype=np.float64)
    for j in range(1, D + 1):
        sel = up_to_depth >= j
        if not np.any(sel):
            continue
        tok = tokens[sel, j - 1]
        if np.any(tok == MASK):
            raise ValueError(f"MASK token at depth {j} inside requested range")
        z[sel] += book.table(j)[tok - 1]
    return z


def reconstruction_mse_by_depth(vectors, book: Codebook, tokens=None):
    """Mean squared reconstruction error using depth prefixes 1..D.

    `tokens` may pass in `quantize(vectors, book)` when the caller already
    holds it.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if tokens is None:
        tokens = quantize(vectors, book)
    mse = np.empty(book.depth)
    z = np.zeros_like(vectors)
    for j in range(1, book.depth + 1):
        z += book.table(j)[tokens[:, j - 1] - 1]
        mse[j - 1] = ((vectors - z) ** 2).sum(axis=1).mean()
    return mse


def _cluster_sums(assign, residuals, V):
    """Per-cluster sums of residual rows, (V, H). bincount adds each column
    in input order, as np.add.at does, so the sums are the same bits."""
    return np.stack([np.bincount(assign, weights=col, minlength=V)
                     for col in residuals.T], axis=1)


def _kmeans_depth(residuals, V, update, epochs, sigma_assign, rng):
    """Fit one depth's table on the residuals entering it."""
    N = residuals.shape[0]
    distinct = np.unique(residuals, axis=0)
    if V > distinct.shape[0]:
        warnings.warn(
            f"requested {V} codewords but only {distinct.shape[0]} distinct "
            "residuals; duplicates allowed", stacklevel=3)
        table = residuals[rng.choice(N, size=V, replace=True)].copy()
    else:
        # init from distinct rows so separable data converges immediately
        table = distinct[rng.choice(distinct.shape[0], size=V, replace=False)].copy()

    for _ in range(epochs):
        scores = _scores(residuals, table)
        if update == "nearest":
            assign = scores.argmin(axis=1)
            counts = np.bincount(assign, minlength=V).astype(np.float64)
            sums = _cluster_sums(assign, residuals, V)
        else:  # probabilistic: soft assignment by Gaussian affinity
            logits = -scores / (2.0 * sigma_assign**2)
            logits -= logits.max(axis=1, keepdims=True)
            w = np.exp(logits)
            w /= w.sum(axis=1, keepdims=True)
            counts = w.sum(axis=0)
            sums = w.T @ residuals
        dead = counts < 1e-12
        live = ~dead
        table[live] = sums[live] / counts[live, None]
        if np.any(dead):
            table[dead] = residuals[rng.choice(N, size=int(dead.sum()))]
    return table


def fit_codebook(vectors, depth, vocab, update="nearest", epochs=10,
                 sigma_assign=1.0, seed=0):
    """Fit a residual codebook depth by depth.

    `vectors` is (N, H): every position of every training sequence,
    flattened. sigma[j] is the per-dimension RMS magnitude of the residuals
    entering depth j (the scale the confidence scores divide by), floored
    at SIGMA_FLOOR so downstream Gaussian densities stay defined.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("vectors must be a non-empty (N, H) array")
    if vocab < 2:
        raise ValueError("vocab must be at least 2")
    if update not in ("nearest", "probabilistic"):
        raise ValueError(f"unknown update mode {update!r}")

    H = vectors.shape[1]
    seeds = np.random.SeedSequence(seed).spawn(depth)
    tables = np.empty((depth, vocab, H))
    sigma = np.empty(depth)
    residual = vectors.copy()
    for j in range(depth):
        sigma[j] = max(np.sqrt((residual**2).mean()), SIGMA_FLOOR)
        tables[j] = _kmeans_depth(residual, vocab, update, epochs,
                                  sigma_assign, np.random.default_rng(seeds[j]))
        idx = _nearest(residual, tables[j])
        residual -= tables[j][idx]
    return Codebook(tables, sigma)


# ---------------------------------------------------------------------------
# serialization: magic "RVQC", version, D/V/H as u32 LE, embeddings, sigmas


def save_codebook(book: Codebook, path):
    from .data import atomic_write
    atomic_write(path, codebook_to_bytes(book))


def load_codebook(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return codebook_from_bytes(blob)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def codebook_to_bytes(book: Codebook):
    return (struct.pack("<4sIIII", CODEBOOK_MAGIC, CODEBOOK_VERSION,
                        book.depth, book.vocab, book.dim)
            + np.ascontiguousarray(book.embeddings, dtype="<f8").tobytes()
            + np.ascontiguousarray(book.sigma, dtype="<f8").tobytes())


def codebook_from_bytes(blob):
    off = struct.calcsize("<4sIIII")
    if len(blob) < off:
        raise ValueError(f"codebook truncated: {len(blob)} bytes, header needs {off}")
    magic, version, D, V, H = struct.unpack_from("<4sIIII", blob, 0)
    if magic != CODEBOOK_MAGIC:
        raise ValueError(f"bad codebook magic: expected {CODEBOOK_MAGIC!r}, found {magic!r}")
    if version != CODEBOOK_VERSION:
        raise ValueError(f"unsupported codebook version: expected {CODEBOOK_VERSION}, found {version}")
    size = off + D * V * H * 8 + D * 8
    if len(blob) != size:
        raise ValueError(f"codebook length mismatch: header says {size} bytes, "
                         f"file has {len(blob)}")
    emb = np.frombuffer(blob, dtype="<f8", count=D * V * H, offset=off).reshape(D, V, H)
    off += D * V * H * 8
    sigma = np.frombuffer(blob, dtype="<f8", count=D, offset=off)
    return Codebook(emb.copy(), sigma.copy())
