"""Residual vector quantization: per-depth codebooks, encode/decode, fitting.

A codebook holds D tables of V codewords of dimension H. Quantization walks
the depths, at each depth picking the nearest codeword to the running
residual and subtracting it; dequantization sums the chosen codewords.
Fitting runs depth by depth on the residuals left over from the previous
depth, so the first d depths of a depth-D fit are exactly a depth-d fit.
Each depth's k-means starts from V distinct residual rows; `_distinct_rows`
finds them with one argsort of column 0 and falls back to np.unique's
record sort only when that column has ties or a NaN. `quantize` scores
every row at each depth and keeps the results of the rows whose start
depth is shallower than it. After each depth's k-means, the fit subtracts
every residual's nearest final codeword, which is quantize's pass at that
depth, so `fit_and_quantize` returns the fitted data's tokens without
encoding it again. Row lookups of dataset size are `ndarray.take` copies,
about a third of the cost of fancy indexing for the same bits.

Every score goes through one kernel, `_scores`: the expanded squared
distance ||r||^2 - 2 r.e + ||e||^2 without its ||r||^2 term, so one
(N, H) x (H, V) matrix product replaces an (N, V, H) difference array.
Dropping ||r||^2 shifts each row by a constant, which changes neither the
row's argmin nor a max-subtracted softmax over it. The kernel takes a
table's codeword-only terms, `score_pair(table)` = (-2 * table, ||e||^2):
a `Codebook` builds them once per depth, at construction, and k-means
once per epoch, since its table changes every epoch.

Every nearest-codeword search (each quantization depth, each epoch of the
"nearest" k-means update, the fit's per-depth residual pass, and the
public `nearest`, which `evaluate.mode_occupancy` calls) goes through
`_nearest_rows`, which scores BLOCK rows at a time into a reused
(BLOCK + 1, V) buffer and takes each block's argmin while it is still in
cache, in place of an (N, V) matrix that falls out of cache between the
product, the `+= norms` and the argmin. Ties go to the lowest codeword
index, as `np.argmin` takes the first minimum. No product is one row:
numpy hands a one-row product to gemv, which may round otherwise than
gemm, so a lone last row joins the block before it and a one-row search
scores its row twice, and the picks are those of one whole `_scores`
call whatever the row count. Up to BLOCK + 1 rows (the sampler's
per-step calls) take that one call.

A search of more rows splits its block list into two contiguous halves:
the caller scores the first while one worker thread scores the second,
each half into its own buffer and its own slice of the picks. k-means'
per-cluster sums split their per-column bincounts the same way. The
blocks and columns are the ones a serial pass would take, each with the
same calls (`_scores` and argmin, bincount adding in input order), so the
bits do not depend on the split. The worker is one persistent thread of
the module, started by the first large search, never at import; a child
process forgets it at fork and starts its own. Concurrent callers queue
their second halves on that one thread. The search stays serial when the
process may run on fewer than 2 CPUs, and calls of up to BLOCK + 1 rows
never reach the worker. Only numpy's product, argmin and bincount run
there. The second thread costs about 1 MB of peak RSS, mostly the BLAS
library's buffers for a second calling thread.

`quantize` can leave the residual chain it walks, (L, D, H): each
depth's residual after its codeword. The sampler's confidence scores
read that chain, so quantization is the one residual walk of a step.

Tokens are 1-based codeword indices; 0 is reserved as the MASK sentinel
and never appears in quantizer output. `codewords` is the one token ->
codeword lookup, one `take` from the codebook's tables stacked with a
zero row at token 0, and `dequantize` the one sum of a token subset's
codewords: the backbone's input (the revealed depths) and the trainer's
target (the hidden depths) are both `dequantize` with a `keep` mask.
Codebooks are immutable once built (the derived scoring constants would
go stale otherwise), and quantize/dequantize are pure, so concurrent
readers are safe. Every token lookup refuses tokens outside [0, V]; the
entries that `dequantize` drops are never looked up.
"""

from __future__ import annotations

import os
import struct
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import data
from . import numerics as nm

MASK = 0  # sentinel token value; codewords occupy 1..V

CODEBOOK_MAGIC = b"RVQC"
CODEBOOK_VERSION = 1

SIGMA_FLOOR = 1e-6

# rows per score block of the nearest-codeword search: a (BLOCK, V) float64
# block stays in cache between its product, its += norms and its argmin
BLOCK = 1024


@dataclass(frozen=True)
class Codebook:
    """Per-depth embedding tables (D, V, H) and residual scales sigma (D,).

    Frozen: assigning a field raises, and the arrays are read-only copies,
    so the derived terms below cannot go stale. Construction also derives
    what the per-call paths would otherwise rebuild: `score_pairs`, each
    depth's `score_pair` for `quantize`; `padded`, the tables stacked as
    (D * (V + 1), H) rows with a zero row in front of each depth's, so
    that row `row_base[j] + t` (`row_base` (D,) = j * (V + 1)) is token t's
    codeword at 0-based depth j and token 0 reads +0.0, for `codewords`;
    and the confidence scores' sigma-only terms `two_var` = 2 sigma^2 and
    `log_norm` = -H/2 log(2 pi sigma^2), both (D,). A sigma that is not
    finite, or whose 2 sigma^2 is not, raises ValueError.
    """

    embeddings: np.ndarray
    sigma: np.ndarray
    score_pairs: tuple = field(init=False, repr=False, compare=False)
    padded: np.ndarray = field(init=False, repr=False, compare=False)
    row_base: np.ndarray = field(init=False, repr=False, compare=False)
    two_var: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def put(name, value, dtype=np.float64):
            value = np.array(value, dtype=dtype, order="C")
            value.flags.writeable = False
            object.__setattr__(self, name, value)

        put("embeddings", self.embeddings)
        put("sigma", self.sigma)
        if self.embeddings.ndim != 3:
            raise ValueError(f"embeddings must be (D, V, H), got {self.embeddings.shape}")
        if self.sigma.shape != (self.embeddings.shape[0],):
            raise ValueError("sigma must hold one scale per depth")
        if 0 in self.embeddings.shape:
            raise ValueError(f"codebook needs depth, vocab and dim >= 1, got "
                             f"{self.embeddings.shape}")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("codebook embeddings must be finite")
        object.__setattr__(self, "score_pairs",
                           tuple(score_pair(t) for t in self.embeddings))
        D, V, H = self.embeddings.shape
        padded = np.zeros((D, V + 1, H))
        padded[:, 1:] = self.embeddings
        put("padded", padded.reshape(D * (V + 1), H))
        put("row_base", np.arange(D) * (V + 1), np.int64)
        with np.errstate(over="ignore"):
            s2 = self.sigma ** 2
            put("two_var", 2 * s2)
        # nan and inf sigma too; a sigma <= 0 is refused where scores are taken
        if not np.isfinite(self.two_var).all():
            raise ValueError(f"codebook sigma must be finite, with 2 sigma^2 finite, "
                             f"got {self.sigma[~np.isfinite(self.two_var)][0]}")
        with np.errstate(divide="ignore", invalid="ignore"):
            put("log_norm", -0.5 * self.dim * np.log(2 * np.pi * s2))

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


def score_pair(table):
    """The codeword-only terms of `_scores` for a (V, H) table:
    (-2 * table (V, H), ||e||^2 (V,))."""
    return -2.0 * table, np.einsum("vh,vh->v", table, table)  # -2x is exact


def _scores(rows, pair, out=None):
    """Squared distance less the row's own ||r||^2, from a table's
    `score_pair`, into `out` when given. (N,H)x(V,H)->(N,V)
    The pair's (V,) norms may also come repeated down N rows as (N, V).

    ||e||^2 - 2 r.e ranks codewords as ||r - e||^2 does. Its rounding
    error scales with ||e||^2 + ||r||*||e||, not with the distance, so
    codewords closer together than that may rank either way.
    """
    neg2, norms = pair
    scores = np.matmul(rows, neg2.T, out=out)
    scores += norms
    return scores


# the one worker thread of the split searches: a one-thread pool, made by
# the first large search and forgotten by a forked child
_worker = None
_worker_lock = threading.Lock()


def _forget_worker():
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):     # no fork, nothing to forget
    os.register_at_fork(after_in_child=_forget_worker)


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _halves(first, second):
    """Run first() here while the worker thread runs second(), and return
    once both are done. first()'s exception wins; else second()'s is
    raised here. Serial when this process may use fewer than 2 CPUs."""
    global _worker
    if _cpus() < 2:
        first()
        second()
        return
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="rvq-search")
        done = _worker.submit(second)
    try:
        first()
    finally:
        # wait even when first() failed: second() writes the caller's arrays
        exc = done.exception()
    if exc is not None:
        raise exc


def _nearest_rows(rows, pair):
    """Lowest-index nearest codeword per row, from a table's `score_pair`,
    scored BLOCK rows at a time. (N,H)x(V,H)->(N,)

    A block's scores are the bits of those rows of one whole `_scores`
    call, so the picks are too. No product is one row, since numpy hands a
    one-row product to gemv, which may round otherwise than gemm: a lone
    last row joins the block before it, and a one-row search scores its row
    twice and keeps the first pick, so a row's token does not depend on how
    many rows share its call. Past BLOCK + 1 rows the block list splits in
    two halves for `_halves`, each with its own reused buffer.
    """
    N = rows.shape[0]
    if N == 1:
        # the row twice, so the product goes to gemm as every other search's
        return _scores(rows.take([0, 0], axis=0), pair)[:1].argmin(axis=1)
    if N <= BLOCK + 1:
        # first minimum: lowest index
        return _scores(rows, pair).argmin(axis=1)
    edges = list(range(0, N, BLOCK)) + [N]
    if N - edges[-2] == 1:
        del edges[-2]
    picks = np.empty(N, dtype=np.intp)
    neg2, norms = pair
    V = norms.shape[0]
    # the norms repeated down a block: adding a same-shape block is one flat
    # loop, where broadcasting the (V,) row pays numpy's per-row overhead;
    # the sums are the same
    block_norms = np.tile(norms, (BLOCK + 1, 1))

    def blocks(edges):
        buf = np.empty((BLOCK + 1, V))
        for lo, hi in zip(edges[:-1], edges[1:]):
            _scores(rows[lo:hi], (neg2, block_norms[:hi - lo]),
                    out=buf[:hi - lo]).argmin(axis=1, out=picks[lo:hi])

    mid = len(edges) // 2
    _halves(lambda: blocks(edges[:mid + 1]), lambda: blocks(edges[mid:]))
    return picks


def nearest(rows, table):
    """Lowest-index nearest codeword per row. (N,H)x(V,H)->(N,)"""
    return _nearest_rows(rows, score_pair(table))


def quantize(latents, book: Codebook, start_depth=None, out=None,
             residuals=None):
    """Residual-quantize each latent vector into tokens at depths
    (start_depth, D]; shallower depths are left untouched.

    `latents` (L, H) is the starting residual for depth start_depth+1 at
    each position (for a fresh encode that is the raw vector and
    start_depth is 0); start_depth is (L,). Returns an (L, D) int64 token
    grid; rows of an (L, D) `out` are copied through where provided,
    otherwise untouched depths are MASK. An (L, D, H) `residuals` array,
    when given, receives the chain of residuals: entry (i, j) is row i's
    residual after depth j + 1, which at an untouched depth is the residual
    as it came in, since nothing was subtracted there.
    """
    latents = np.asarray(latents, dtype=np.float64)
    L = latents.shape[0]
    D, H = book.depth, book.dim
    if latents.ndim != 2 or latents.shape[1] != H:
        raise ValueError(f"latents must be (L, {H}), got {latents.shape}")
    if start_depth is None:
        start_depth = np.zeros(L, dtype=np.int64)
    start_depth = np.asarray(start_depth, dtype=np.int64)
    tokens = np.full((L, D), MASK, dtype=np.int64) if out is None \
        else np.array(out, dtype=np.int64)
    if start_depth.shape != (L,) or tokens.shape != (L, D):
        raise ValueError(f"start_depth must be ({L},) and out ({L}, {D}), got "
                         f"{start_depth.shape} and {tokens.shape}")
    if residuals is not None and np.shape(residuals) != (L, D, H):
        raise ValueError(f"residuals must be ({L}, {D}, {H}), got {np.shape(residuals)}")
    first = int(np.minimum.reduce(start_depth, initial=D))
    last = int(np.maximum.reduce(start_depth, initial=0))
    if first < 0 or last > D:
        raise ValueError("start_depth entries must lie in [0, D]")

    residual = latents.copy()
    if residuals is not None:
        # depths above every row's start: nothing subtracted yet
        residuals[:, :first] = latents[:, None]
    # score every row at each depth and keep the active ones: a masked
    # store costs less than gathering and scattering the active rows;
    # past the deepest start depth every row is active and needs no mask
    active = start_depth[:, None] < np.arange(1, D + 1)       # (L, D)
    picks = np.zeros((L, D), dtype=np.int64)
    for j in range(first + 1, D + 1):
        table = book.embeddings[j - 1]
        idx = _nearest_rows(residual, book.score_pairs[j - 1])
        picks[:, j - 1] = idx
        if j > last:
            residual -= table.take(idx, axis=0)
        else:
            np.subtract(residual, table.take(idx, axis=0), out=residual,
                        where=active[:, j - 1:j])
        if residuals is not None:
            residuals[:, j - 1] = residual
    picks += 1
    np.copyto(tokens, picks, where=active)
    return tokens


def codewords(tokens, book: Codebook, keep=None):
    """Codeword embeddings of token grids (..., D) -> (..., D, H): token t
    at depth j reads row t - 1 of table j, as one `take` from the
    codebook's `padded` rows.

    With a boolean `keep` (broadcast to tokens' shape), only the kept
    entries are read and checked, and the others read the zero row, +0.0,
    so any value there is fine. A MASK token at a kept entry raises
    ValueError (masked entries carry no embedding), and so does a token
    outside [0, V], instead of wrapping around or escaping the table.
    """
    tokens = np.asarray(tokens)
    D, V = book.depth, book.vocab
    if tokens.shape[-1] != D:
        raise ValueError(f"token grid depth {tokens.shape[-1]} != codebook depth {D}")
    if keep is None:
        kept, n_kept = tokens, tokens.size
    else:
        if np.shape(keep) != tokens.shape:
            keep = np.broadcast_to(keep, tokens.shape)   # a ValueError if it cannot
        kept, n_kept = np.where(keep, tokens, MASK), np.count_nonzero(keep)
    # every unkept entry of `kept` is MASK, so a kept MASK is a missing nonzero
    if kept.size and not (MASK <= np.minimum.reduce(kept, axis=None)
                          and np.maximum.reduce(kept, axis=None) <= V
                          and np.count_nonzero(kept) == n_kept):
        # a kept MASK is named before any other bad token
        if np.count_nonzero(kept) != n_kept:
            raise ValueError("MASK token at a kept entry: masked entries carry no embedding")
        _checked(kept, MASK, V)          # raises: a token outside [0, V]
    return book.padded.take(kept + book.row_base, axis=0)


def _checked(tokens, low, vocab):
    """`tokens` as an array; an entry outside [low, vocab] raises ValueError."""
    tokens = np.asarray(tokens)
    if tokens.size and (np.minimum.reduce(tokens, axis=None) < low
                        or np.maximum.reduce(tokens, axis=None) > vocab):
        raise ValueError(f"tokens must lie in [{low}, {vocab}] (0 is MASK)")
    return tokens


def dequantize(tokens, book: Codebook, keep=None):
    """Sum the `codewords` of token grids (..., D) over depth, in depth
    order -> (..., H). With `keep`, the dropped entries add +0.0, which
    leaves every partial sum's bits unchanged.
    """
    words = codewords(np.asarray(tokens, dtype=np.int64), book, keep)
    z = np.zeros(words.shape[:-2] + (book.dim,))
    for j in range(book.depth):
        z += words[..., j, :]
    return z


def reconstruction_mse_by_depth(vectors, book: Codebook, tokens=None):
    """Mean squared reconstruction error using depth prefixes 1..D.

    `tokens` may pass in `quantize(vectors, book)` when the caller already
    holds it; tokens not shaped (len(vectors), D) or outside [1, V] (MASK
    included) raise ValueError.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if tokens is None:
        tokens = quantize(vectors, book)
    else:
        tokens = _checked(tokens, MASK + 1, book.vocab)
        if tokens.shape != (len(vectors), book.depth):
            raise ValueError(f"tokens must be (len(vectors), D) = "
                             f"{(len(vectors), book.depth)}, got {tokens.shape}")
    mse = np.empty(book.depth)
    z = np.zeros_like(vectors)
    for j in range(1, book.depth + 1):
        z += book.table(j).take(tokens[:, j - 1] - 1, axis=0)
        mse[j - 1] = ((vectors - z) ** 2).sum(axis=1).mean()
    return mse


def _cluster_sums(assign, columns, V):
    """Per-cluster sums of residual rows, (V, H), from the residuals'
    contiguous (H, N) transpose (bincount copies a strided column first).
    bincount adds each column in input order, as np.add.at does, so the
    sums are the same bits. Past BLOCK + 1 rows the columns split in two
    halves for `_halves`."""
    H = columns.shape[0]
    sums = np.empty((V, H))

    def sum_columns(lo, hi):
        for h in range(lo, hi):
            sums[:, h] = np.bincount(assign, weights=columns[h], minlength=V)

    mid = (H + 1) // 2
    if H < 2 or assign.shape[0] <= BLOCK + 1:
        sum_columns(0, H)
    else:
        _halves(lambda: sum_columns(0, mid), lambda: sum_columns(mid, H))
    return sums


def _distinct_rows(rows):
    """The distinct rows of (N, H) `rows`, equal to np.unique(rows, axis=0).

    np.unique sorts the rows as records, comparing field by field. When
    column 0 alone is strictly increasing after sorting on it, every row
    differs from every other in that column, so the rows in that order are
    np.unique's output, same order and same count. A tie-free column has
    one sorting permutation, so the sort kind does not matter. Ties in
    column 0 (integer data, repeated rows, a -0.0/0.0 pair) or a NaN break
    the strict increase, and then the record sort is the only correct path.
    """
    order = np.argsort(rows[:, 0])
    col = rows[:, 0].take(order)
    if np.all(col[1:] > col[:-1]):
        return rows.take(order, axis=0)
    return np.unique(rows, axis=0)


def _kmeans_depth(residuals, V, update, epochs, sigma_assign, rng):
    """Fit one depth's table on the residuals entering it."""
    N = residuals.shape[0]
    distinct = _distinct_rows(residuals)
    if V > distinct.shape[0]:
        warnings.warn(
            f"requested {V} codewords but only {distinct.shape[0]} distinct "
            "residuals; duplicates allowed", stacklevel=3)
        table = residuals[rng.choice(N, size=V, replace=True)].copy()
    else:
        # init from distinct rows so separable data converges immediately
        table = distinct[rng.choice(distinct.shape[0], size=V, replace=False)].copy()
    del distinct        # an (N, H) copy that the epochs do not read

    if update == "nearest":
        columns = np.ascontiguousarray(residuals.T)
    for _ in range(epochs):
        if update == "nearest":
            assign = _nearest_rows(residuals, score_pair(table))
            counts = np.bincount(assign, minlength=V).astype(np.float64)
            sums = _cluster_sums(assign, columns, V)
        else:  # probabilistic: soft assignment by Gaussian affinity
            scores = _scores(residuals, score_pair(table))
            w = nm.plain.softmax(-scores / (2.0 * sigma_assign**2))
            counts = w.sum(axis=0)
            sums = w.T @ residuals
        dead = counts < 1e-12
        live = ~dead
        table[live] = sums[live] / counts[live, None]
        if np.any(dead):
            table[dead] = residuals[rng.choice(N, size=int(dead.sum()))]
    return table


def fit_codebook(vectors, *args, **kwargs):
    """The codebook of `fit_and_quantize`, on its arguments."""
    return fit_and_quantize(vectors, *args, **kwargs)[0]


def fit_and_quantize(vectors, depth=4, vocab=32, update="nearest", epochs=10,
                     sigma_assign=1.0, seed=0):
    """Fit a residual codebook depth by depth; returns it and the (N, D)
    tokens of `vectors` under it, equal bit for bit to
    `quantize(vectors, book)`.

    `vectors` is (N, H): every position of every training sequence,
    flattened. sigma[j] is the per-dimension RMS magnitude of the residuals
    entering depth j (the scale the confidence scores divide by), floored
    at SIGMA_FLOOR so downstream Gaussian densities stay defined. These
    keyword defaults are the only ones: `rvqgen fit-rvq` reads its flags
    off them. Every argument is checked before any fitting, and an error
    names the argument.

    After each depth's k-means, the pass that subtracts every residual's
    nearest final codeword is quantize's pass at that depth: the same
    residuals, the same `score_pair` bits and the same subtraction order.
    Its picks are that depth's tokens, so the fit's data is encoded once.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or 0 in vectors.shape:
        raise ValueError("vectors must be a non-empty (N, H) array")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if vocab < 2:
        raise ValueError("vocab must be at least 2")
    if update not in ("nearest", "probabilistic"):
        raise ValueError(f"unknown update mode {update!r}")
    for name, value in (("epochs", epochs), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    # checked for either update: a nan was once accepted by "nearest", and
    # 0 made "probabilistic" divide by zero and then blame the embeddings
    if not (np.isfinite(sigma_assign) and sigma_assign > 0):
        raise ValueError(f"sigma_assign must be finite and > 0, got {sigma_assign}")

    N, H = vectors.shape
    seeds = np.random.SeedSequence(seed).spawn(depth)
    tables = np.empty((depth, vocab, H))
    sigma = np.empty(depth)
    # each depth's picks, held compactly until the last k-means is done
    picks = np.empty((depth, N), dtype=np.min_scalar_type(vocab - 1))
    residual = vectors.copy()
    for j in range(depth):
        sigma[j] = max(np.sqrt((residual**2).mean()), SIGMA_FLOOR)
        tables[j] = _kmeans_depth(residual, vocab, update, epochs,
                                  sigma_assign, np.random.default_rng(seeds[j]))
        idx = nearest(residual, tables[j])
        picks[j] = idx
        if j < depth - 1:  # the last depth's residual has no reader
            residual -= tables[j].take(idx, axis=0)
        del idx             # not held through the next depth's k-means
    tokens = np.empty((N, depth), dtype=np.int64)
    # int64 before the + 1: a uint8 pick of 255 would wrap to 0
    np.add(picks.T, MASK + 1, out=tokens, dtype=np.int64)
    return Codebook(tables, sigma), tokens


# ---------------------------------------------------------------------------
# serialization: magic "RVQC", version, D/V/H as u32 LE, embeddings, sigmas


_HEADER = struct.Struct("<4sIIII")


def save_codebook(book: Codebook, path):
    data.atomic_write(path, codebook_to_bytes(book))


def load_codebook(path):
    return data.load_file(path, codebook_from_bytes)


def codebook_to_bytes(book: Codebook):
    return (data.pack_header(_HEADER, CODEBOOK_MAGIC, CODEBOOK_VERSION, "codebook",
                             (("depth", book.depth), ("vocab", book.vocab),
                              ("dim", book.dim)))
            + np.ascontiguousarray(book.embeddings, dtype="<f8").tobytes()
            + np.ascontiguousarray(book.sigma, dtype="<f8").tobytes())


def codebook_from_bytes(blob):
    D, V, H = data.read_header(blob, _HEADER, CODEBOOK_MAGIC, CODEBOOK_VERSION,
                               "codebook")
    off = _HEADER.size
    data.check_length(len(blob), off + D * V * H * 8 + D * 8, "codebook")
    emb = np.frombuffer(blob, dtype="<f8", count=D * V * H, offset=off).reshape(D, V, H)
    off += D * V * H * 8
    sigma = np.frombuffer(blob, dtype="<f8", count=D, offset=off)
    return Codebook(emb.copy(), sigma.copy())
