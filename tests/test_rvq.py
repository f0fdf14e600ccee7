"""Residual quantizer tests: hand-traced recurrences, telescoping, fitting
fixed points, sigma estimation, the nearest-codeword kernel against its
broadcast oracle, the blocked search against one whole-array call, its
two-thread split against the serial pass and the split's worker thread,
the whole-grid quantize and the distinct-row init against
their reference forms, the fit's own tokens against `quantize` and the
searches `fit-rvq` makes, and the binary codebook format."""

import dataclasses
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rvqgen import data as data_mod
from rvqgen import rvq


def book_2d():
    """H=2, D=2 toy book: depth-1 axis vectors, depth-2 +/- e_y."""
    emb = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [0.0, -1.0]],
    ])
    return rvq.Codebook(emb, np.array([1.0, 1.0]))


def test_exact_codeword_single_depth():
    book = rvq.Codebook(np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.array([1.0]))
    tokens = rvq.quantize(np.array([[1.0, 0.0]]), book)
    assert tokens.tolist() == [[1]]
    recon = rvq.dequantize(tokens, book)
    assert np.array_equal(recon, [[1.0, 0.0]])


def test_two_depth_hand_trace():
    # input (1,1): depth 1 picks (1,0) [ties impossible: d2 to (1,0) is 1,
    # to (0,1) is 1 -- equidistant! lowest index wins], residual (0,1);
    # depth 2 picks (0,1), final residual (0,0)
    book = book_2d()
    tokens = rvq.quantize(np.array([[1.0, 1.0]]), book)
    assert tokens.tolist() == [[1, 1]]
    assert np.allclose(rvq.dequantize(tokens, book), [[1.0, 1.0]])


def test_tie_breaks_to_lowest_index():
    book = rvq.Codebook(np.array([[[1.0, 0.0], [-1.0, 0.0]]]), np.array([1.0]))
    tokens = rvq.quantize(np.array([[0.0, 5.0]]), book)  # equidistant
    assert tokens.tolist() == [[1]]


def test_dequantize_zero_depth_is_zero():
    book = book_2d()
    tokens = rvq.quantize(np.array([[1.0, 1.0], [0.5, 0.5]]), book)
    z = rvq.dequantize(tokens, book, keep=np.zeros((2, 2), dtype=bool))
    assert np.array_equal(z, np.zeros((2, 2)))


def test_codewords_read_and_check_only_kept_entries():
    book = book_2d()
    tokens = np.array([[2, rvq.MASK], [1, 2]])
    keep = np.array([[True, False], [False, True]])
    words = rvq.codewords(tokens, book, keep=keep)
    assert np.array_equal(words[0, 0], book.table(1)[1])
    assert np.array_equal(words[1, 1], book.table(2)[1])
    # dropped entries are +0.0, whatever token they hold
    for i, j in ((0, 1), (1, 0)):
        assert np.array_equal(words[i, j], [0.0, 0.0])
        assert not np.signbit(words[i, j]).any()
    bad = np.array([[2, 99], [-7, 2]])
    assert np.array_equal(rvq.codewords(bad, book, keep=keep), words)
    # a kept MASK or a kept token outside [0, V] is refused by name
    with pytest.raises(ValueError, match="MASK token at a kept entry"):
        rvq.codewords(tokens, book)
    with pytest.raises(ValueError, match=r"tokens must lie in \[0, 2\]"):
        rvq.codewords(bad, book, keep=~keep)
    assert rvq.codewords(tokens, book, keep=np.zeros((2, 2), bool)).shape == (2, 2, 2)
    # keep broadcasts to the tokens' shape, or is refused
    assert np.array_equal(rvq.codewords(tokens, book, keep=[True, False])[1, 0],
                          book.table(1)[0])
    with pytest.raises(ValueError):
        rvq.codewords(tokens, book, keep=[True, False, True])


def test_dequantize_rejects_mask_in_range():
    book = book_2d()
    tokens = np.array([[1, rvq.MASK]])
    with pytest.raises(ValueError, match="MASK"):
        rvq.dequantize(tokens, book, keep=[[True, True]])
    # but excluding the masked depth is fine
    rvq.dequantize(tokens, book, keep=[[True, False]])


def test_tokens_outside_the_vocabulary_are_refused():
    rng = np.random.default_rng(5)
    book = rvq.Codebook(rng.normal(size=(2, 4, 3)), np.ones(2))
    # a negative token once wrapped around: [-1, 1] read the codewords of
    # [3, 1]; a token above V raised a bare IndexError
    for bad in ([[-1, 1]], [[5, 1]], [[2, 4], [1, 9]], [[[1, -3]]]):
        with pytest.raises(ValueError, match=r"tokens must lie in \[0, 4\]"):
            rvq.codewords(bad, book)
        with pytest.raises(ValueError, match=r"tokens must lie in \[0, 4\]"):
            rvq.dequantize(bad, book, keep=np.asarray(bad) != rvq.MASK)
    # the edges of [0, V] stay readable; MASK only where it is not kept
    assert np.array_equal(rvq.codewords([[4, 1]], book)[0],
                          np.stack([book.table(1)[3], book.table(2)[0]]))
    assert np.array_equal(rvq.dequantize([[4, 0]], book, keep=[[True, False]]),
                          book.table(1)[3][None] + 0.0)


def test_reconstruction_curve_refuses_tokens_outside_the_vocabulary():
    # a MASK token once read codeword V silently (the curve came out not
    # monotone) and a token above V raised a bare IndexError
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(40, 3))
    book = rvq.fit_codebook(vectors, depth=3, vocab=4, seed=0)
    tokens = rvq.quantize(vectors, book)
    want = rvq.reconstruction_mse_by_depth(vectors, book)
    assert np.array_equal(rvq.reconstruction_mse_by_depth(vectors, book, tokens), want)
    for j, bad in ((1, rvq.MASK), (2, 5), (0, -1), (2, 99)):
        t = tokens.copy()
        t[7, j] = bad
        with pytest.raises(ValueError, match=r"tokens must lie in \[1, 4\]"):
            rvq.reconstruction_mse_by_depth(vectors, book, t)
    edges = tokens.copy()
    edges[0], edges[1] = 1, 4
    rvq.reconstruction_mse_by_depth(vectors, book, edges)


def test_reconstruction_curve_refuses_tokens_of_another_shape():
    # (N, D-1) tokens once raised a bare IndexError, and tokens for fewer
    # vectors a broadcast error that named no argument
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(50, 3))
    book = rvq.fit_codebook(vectors, depth=3, vocab=4, seed=0)
    tokens = rvq.quantize(vectors, book)
    for bad in (tokens[:, :2], tokens[:40], tokens[None], tokens[:, 0]):
        with pytest.raises(ValueError, match=r"^tokens must be \(len\(vectors\), D\) "
                                             r"= \(50, 3\), got "):
            rvq.reconstruction_mse_by_depth(vectors, book, bad)


def test_codebook_scoring_constants_are_the_per_call_terms():
    rng = np.random.default_rng(8)
    book = rvq.Codebook(rng.normal(size=(3, 5, 4)), np.array([0.5, 0.2, 1e-3]))
    for j in range(1, 4):
        neg2, norms = book.score_pairs[j - 1]
        table = book.table(j)
        assert np.array_equal(neg2, -2.0 * table)
        assert np.array_equal(norms, np.einsum("vh,vh->v", table, table))
    s2 = book.sigma ** 2
    assert np.array_equal(book.two_var, 2 * s2)
    assert np.array_equal(book.log_norm, -0.5 * 4 * np.log(2 * np.pi * s2))
    # each depth's rows behind a +0.0 row for token 0, at row_base[j]
    padded = book.padded.reshape(3, 6, 4)
    assert padded[:, 1:].tobytes() == book.embeddings.tobytes()
    assert padded[:, 0].tobytes() == np.zeros((3, 4)).tobytes()
    assert book.row_base.dtype == np.int64
    assert np.array_equal(book.row_base, [0, 6, 12])


def test_codebook_fields_cannot_be_reassigned():
    # the scoring constants above are derived once; a new sigma or table
    # assigned afterwards would leave them describing the old values
    book = rvq.Codebook(np.ones((2, 3, 2)), np.array([0.5, 0.25]))
    for name, value in (("sigma", np.array([1.0, 1.0])),
                        ("embeddings", np.zeros((2, 3, 2))),
                        ("two_var", np.ones(2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(book, name, value)
    # nor written in place, and the caller's arrays are not the book's
    sigma = np.array([0.5, 0.25])
    book = rvq.Codebook(np.ones((2, 3, 2)), sigma)
    for arr in (book.sigma, book.embeddings, book.two_var, book.log_norm,
                book.padded, book.row_base):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    sigma[0] = 7.0
    assert np.array_equal(book.sigma, [0.5, 0.25])
    assert np.array_equal(book.two_var, 2 * np.array([0.5, 0.25]) ** 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200], ids=["inf", "nan", "overflow"])
def test_a_sigma_whose_variance_is_not_finite_is_refused(bad):
    # 1e200 once loaded with an overflow warning, two_var = inf and every
    # confidence score -inf
    with pytest.raises(ValueError, match=r"^codebook sigma must be finite, with 2 sigma\^2 "
                                         rf"finite, got {re.escape(str(bad))}$"):
        rvq.Codebook(np.ones((2, 3, 2)), np.array([0.5, bad]))
    # zero, negative and large finite sigma load; the scores refuse sigma <= 0
    for fine in (0.0, -1.0, 1e150):
        assert np.isfinite(rvq.Codebook(np.ones((2, 3, 2)), [0.5, fine]).two_var).all()


def prefix_sum_loop(tokens, book, up_to_depth):
    """The earlier `dequantize(..., up_to_depth)`: depths 1..up_to_depth[i]
    of each position, added depth by depth into the selected rows."""
    z = np.zeros((tokens.shape[0], book.dim))
    for j in range(1, book.depth + 1):
        sel = up_to_depth >= j
        if np.any(sel):
            z[sel] += book.table(j)[tokens[sel, j - 1] - 1]
    return z


def subset_sum_loop(tokens, book, keep):
    """The trainer's earlier target loop: per depth, a boolean gather of
    the kept entries added into their positions."""
    z = np.zeros(tokens.shape[:-1] + (book.dim,))
    for j in range(book.depth):
        sel = keep[..., j]
        if sel.any():
            z[sel] += book.table(j + 1)[tokens[..., j][sel] - 1]
    return z


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_dequantize_keep_bit_equals_the_per_depth_loops(B, L, D, V, H, seed):
    rng = np.random.default_rng(seed)
    # codewords over many magnitudes, so any change in summation order shows
    emb = rng.normal(size=(D, V, H)) * 10.0 ** rng.integers(-8, 9, size=(D, V, 1))
    book = rvq.Codebook(emb, np.ones(D))
    tokens = rng.integers(1, V + 1, size=(B, L, D))
    keep = rng.random((B, L, D)) < 0.5
    got = rvq.dequantize(tokens, book, keep=keep)
    assert got.shape == (B, L, H)
    assert got.tobytes() == subset_sum_loop(tokens, book, keep).tobytes()
    upto = rng.integers(0, D + 1, size=L)
    assert rvq.dequantize(tokens[0], book, keep=np.arange(D) < upto[:, None]).tobytes() \
        == prefix_sum_loop(tokens[0], book, upto).tobytes()
    assert rvq.dequantize(tokens, book).tobytes() == \
        subset_sum_loop(tokens, book, np.ones_like(keep)).tobytes()
    # MASK is ignored where dropped and raises where kept
    hidden = np.where(keep, tokens, rvq.MASK)
    assert rvq.dequantize(hidden, book, keep=keep).tobytes() == got.tobytes()
    if not keep.all():
        with pytest.raises(ValueError, match="MASK token at a kept entry"):
            rvq.dequantize(hidden, book)


def test_quantize_start_depth_keeps_shallow_tokens():
    book = book_2d()
    base = np.array([[2, rvq.MASK]])
    out = rvq.quantize(np.array([[0.0, -1.0]]), book, start_depth=[1], out=base)
    assert out[0, 0] == 2           # untouched
    assert out[0, 1] == 2           # nearest to (0,-1) at depth 2
    assert base[0, 1] == rvq.MASK   # input grid not mutated


def test_quantize_rejects_bad_dims():
    with pytest.raises(ValueError):
        rvq.quantize(np.zeros((3, 5)), book_2d())
    with pytest.raises(ValueError):
        rvq.quantize(np.zeros((3, 2)), book_2d(), start_depth=[0, 1, 5])
    # a start_depth or out grid that does not fit the (L, D) grid is named,
    # not broadcast or passed through with its own shape
    for start, out, got in (([0, 1], None, "(2,) and (3, 2)"),
                            ([0, 1, 2, 0], None, "(4,) and (3, 2)"),
                            ([[0], [1], [2]], None, "(3, 1) and (3, 2)"),
                            (0, None, "() and (3, 2)"),
                            (None, np.ones((3, 3)), "(3,) and (3, 3)"),
                            (None, np.ones((2, 2)), "(3,) and (2, 2)"),
                            (None, np.ones(2), "(3,) and (2,)")):
        with pytest.raises(ValueError, match=re.escape(
                f"start_depth must be (3,) and out (3, 2), got {got}")):
            rvq.quantize(np.zeros((3, 2)), book_2d(), start_depth=start, out=out)


# ---------------------------------------------------------------------------
# fitting

def test_fit_recovers_separable_modes():
    rng = np.random.default_rng(0)
    modes = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]])
    vectors = modes[rng.integers(0, 4, size=500)]
    book = rvq.fit_codebook(vectors, depth=1, vocab=4, seed=1)
    recon = rvq.dequantize(rvq.quantize(vectors, book), book)
    assert np.allclose(recon, vectors, atol=1e-12)
    # recovered codewords are the modes up to permutation
    got = sorted(map(tuple, np.round(book.table(1), 9)))
    want = sorted(map(tuple, modes))
    assert got == want


def test_deeper_fit_is_a_prefix_and_no_worse():
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(800, 6))
    b4 = rvq.fit_codebook(vectors, depth=4, vocab=8, seed=3)
    b8 = rvq.fit_codebook(vectors, depth=8, vocab=8, seed=3)
    # depth-by-depth fitting makes the shallow tables an exact prefix
    assert np.array_equal(b4.embeddings, b8.embeddings[:4])
    mse4 = rvq.reconstruction_mse_by_depth(vectors, b4)[-1]
    mse8 = rvq.reconstruction_mse_by_depth(vectors, b8)[-1]
    assert mse8 <= mse4


def test_single_vector_dataset_sigma_floor():
    vectors = np.tile(np.array([[3.0, 4.0]]), (50, 1))
    with pytest.warns(UserWarning, match="distinct"):
        book = rvq.fit_codebook(vectors, depth=3, vocab=4, seed=0)
    assert book.sigma[0] == pytest.approx(np.sqrt(12.5))  # rms of (3,4)
    assert np.all(book.sigma[1:] == rvq.SIGMA_FLOOR)


def test_sigma_always_positive():
    rng = np.random.default_rng(4)
    book = rvq.fit_codebook(rng.normal(size=(300, 4)), depth=5, vocab=8, seed=5)
    assert np.all(book.sigma > 0)


def test_probabilistic_cold_limit_matches_nearest():
    rng = np.random.default_rng(6)
    modes = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
    vectors = modes[rng.integers(0, 3, size=300)] + 0.05 * rng.normal(size=(300, 2))
    near = rvq.fit_codebook(vectors, depth=1, vocab=3, update="nearest", seed=7)
    cold = rvq.fit_codebook(vectors, depth=1, vocab=3, update="probabilistic",
                            sigma_assign=1e-6, seed=7)
    # same assignments => identical support
    a = rvq.quantize(vectors, near)
    b = rvq.quantize(vectors, cold)
    assert np.array_equal(a, b)
    assert np.allclose(near.embeddings, cold.embeddings, atol=1e-9)


def test_fit_rejects_bad_args():
    for empty in (np.zeros((0, 3)), np.zeros((10, 0))):
        with pytest.raises(ValueError, match="non-empty"):
            rvq.fit_codebook(empty, depth=2, vocab=4)
    with pytest.raises(ValueError):
        rvq.fit_codebook(np.zeros((10, 3)), depth=2, vocab=1)
    with pytest.raises(ValueError):
        rvq.fit_codebook(np.zeros((10, 3)), depth=2, vocab=4, update="annealed")
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            rvq.fit_codebook(np.zeros((10, 3)), depth=depth, vocab=4)


@pytest.mark.parametrize("shape", [(0, 4, 3), (2, 0, 3), (2, 4, 0), (0, 0, 0)])
def test_codebook_rejects_empty_tables(shape):
    with pytest.raises(ValueError, match="codebook needs depth, vocab and dim >= 1"):
        rvq.Codebook(np.zeros(shape), np.ones(shape[0]))
    blob = struct.pack("<4sIIII", b"RVQC", 1, *shape) + bytes(8 * (np.prod(shape) + shape[0]))
    with pytest.raises(ValueError, match="codebook needs depth, vocab and dim >= 1"):
        rvq.codebook_from_bytes(blob)


# ---------------------------------------------------------------------------
# invariants

def test_residual_telescoping():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(60, 5))
    book = rvq.fit_codebook(vectors, depth=6, vocab=10, seed=9)
    tokens = rvq.quantize(vectors, book)
    # recompute the residual chain and check x = partial_recon + residual
    residual = vectors.copy()
    for d in range(1, book.depth + 1):
        residual = residual - book.table(d)[tokens[:, d - 1] - 1]
        partial = rvq.dequantize(tokens, book, keep=np.arange(book.depth) < d)
        assert np.max(np.abs(vectors - (partial + residual))) < 1e-10


def test_per_position_error_non_increasing():
    rng = np.random.default_rng(10)
    vectors = rng.normal(size=(400, 4))
    book = rvq.fit_codebook(vectors, depth=6, vocab=12, seed=11)
    mse = rvq.reconstruction_mse_by_depth(vectors, book)
    assert np.all(np.diff(mse) <= 1e-12)


def test_quantize_dequantize_roundtrip_unique_assignments():
    # The roundtrip only has to hold when re-encoding each partial
    # reconstruction re-selects the original words uniquely; that is the
    # regime of hierarchically decaying residual scales, so build data that
    # way: coarse modes at scale 4, fine offsets at scale 0.4.
    rng = np.random.default_rng(12)
    coarse = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]])
    fine = np.array([[0.4, 0.0], [0.0, 0.4], [-0.4, 0.0], [0.0, -0.4]])
    vectors = (coarse[rng.integers(0, 4, size=300)]
               + fine[rng.integers(0, 4, size=300)]
               + 0.02 * rng.normal(size=(300, 2)))
    book = rvq.fit_codebook(vectors, depth=2, vocab=4, seed=13)
    tokens = rvq.quantize(vectors, book)
    again = rvq.quantize(rvq.dequantize(tokens, book), book)
    assert np.array_equal(tokens, again)


# ---------------------------------------------------------------------------
# nearest-codeword kernel against the exact-distance broadcast oracle

def oracle_d2(rows, table):
    """Exact squared distances through an (N, V, H) difference array."""
    return ((rows[:, None, :] - table[None, :, :]) ** 2).sum(axis=2)


def oracle_kmeans_depth(residuals, V, update, epochs, sigma_assign, rng):
    """`rvq._kmeans_depth` written with the broadcast distances and
    np.add.at sums: the reference the kernel must reproduce."""
    N = residuals.shape[0]
    distinct = np.unique(residuals, axis=0)
    if V > distinct.shape[0]:
        table = residuals[rng.choice(N, size=V, replace=True)].copy()
    else:
        table = distinct[rng.choice(distinct.shape[0], size=V, replace=False)].copy()
    for _ in range(epochs):
        d2 = oracle_d2(residuals, table)
        if update == "nearest":
            assign = d2.argmin(axis=1)
            counts = np.bincount(assign, minlength=V).astype(np.float64)
            sums = np.zeros_like(table)
            np.add.at(sums, assign, residuals)
        else:
            logits = -d2 / (2.0 * sigma_assign**2)
            logits -= logits.max(axis=1, keepdims=True)
            w = np.exp(logits)
            w /= w.sum(axis=1, keepdims=True)
            counts = w.sum(axis=0)
            sums = w.T @ residuals
        live = counts >= 1e-12
        table[live] = sums[live] / counts[live, None]
        if not np.all(live):
            table[~live] = residuals[rng.choice(N, size=int((~live).sum()))]
    return table


def test_duplicate_codewords_resolve_to_lowest_index():
    rng = np.random.default_rng(20)
    for V in (2, 5, 33):
        base = rng.standard_normal((V, 8))
        for lo, hi in [(0, hi) for hi in range(1, V)] + [(hi - 1, hi) for hi in range(2, V)]:
            table = base.copy()
            table[hi] = table[lo]
            rows = table[lo] + 1e-3 * rng.standard_normal((64, 8))
            assert np.all(rvq.nearest(rows, table) == lo), (V, lo, hi)
            book = rvq.Codebook(table[None], np.ones(1))
            assert np.all(rvq.quantize(rows, book) == lo + 1)


def test_small_integer_grid_ties_match_oracle():
    # products and sums of small integers and halves are exact, so both
    # forms see the same exact ties and must break them the same way
    rng = np.random.default_rng(22)
    axis = np.arange(-2.0, 3.0)
    grid = np.array([[x, y] for x in axis for y in axis])
    half = np.arange(-3.0, 3.5, 0.5)
    rows = np.array([[x, y] for x in half for y in half])
    for _ in range(5):
        table = np.concatenate([grid, grid])[rng.permutation(50)]
        got = rvq.nearest(rows, table)
        assert np.array_equal(got, oracle_d2(rows, table).argmin(axis=1))


FINITE = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nearest_matches_broadcast_oracle(data):
    H = data.draw(st.integers(1, 6))
    rows = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 16)), H),
                                elements=FINITE))
    table = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 12)), H),
                                 elements=FINITE))
    d2 = oracle_d2(rows, table)
    got = rvq.nearest(rows, table)
    # the kernel's rounding error scales with ||r||^2 + ||e||^2; below
    # 1e-300 squares underflow and lose their precision altogether
    scale = (rows**2).sum(axis=1) + (table**2).sum(axis=1).max()
    tol = 1e-9 * scale + 1e-300
    ranked = np.sort(d2, axis=1)
    best = ranked[:, 0]
    gap = ranked[:, 1] - best if table.shape[0] > 1 else np.full(len(rows), np.inf)
    decided = gap > tol
    assert np.array_equal(got[decided], d2.argmin(axis=1)[decided])
    # where the oracle's best two nearly tie, either is a right answer
    assert np.all(d2[np.arange(len(rows)), got] - best <= tol)


def test_cluster_sums_match_add_at_bit_for_bit(monkeypatch):
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)    # split past BLOCK + 1 rows
    rng = np.random.default_rng(21)
    for N, V, H in ((1, 3, 2), (257, 8, 5), (5000, 32, 8), (5000, 32, 1),
                    (3 * rvq.BLOCK + 5, 32, 3)):
        residuals = rng.standard_normal((N, H)) * 10.0 ** rng.integers(-8, 9, size=(N, 1))
        assign = rng.integers(0, V - 1, size=N)  # cluster V-1 stays empty
        want = np.zeros((V, H))
        np.add.at(want, assign, residuals)
        columns = np.ascontiguousarray(residuals.T)   # k-means' (H, N) layout
        assert rvq._cluster_sums(assign, columns, V).tobytes() == want.tobytes()


B = rvq.BLOCK


def unblocked_nearest(rows, pair):
    """The nearest-codeword search as one whole-array `_scores` call and
    argmin: the reference the blocked kernel must reproduce."""
    return rvq._scores(rows, pair).argmin(axis=1)


@pytest.mark.parametrize("N", [1, 2, B - 1, B, B + 1, B + 2, 2 * B - 1, 2 * B,
                               2 * B + 1, 3 * B + 1])
def test_blocked_nearest_is_the_whole_array_argmin(N, monkeypatch):
    rng = np.random.default_rng(N)
    V, H = 32, 8
    pair = rvq.score_pair(rng.standard_normal((V, H)))
    sizes = []
    real = rvq._scores

    def spy(rows, pair, out=None):
        sizes.append(rows.shape[0])
        return real(rows, pair, out=out)

    monkeypatch.setattr(rvq, "_scores", spy)
    for rows in (rng.standard_normal((N, H)),
                 # small integers: exact scores with exact ties everywhere
                 rng.integers(-2, 3, size=(N, H)).astype(np.float64)):
        for p in (pair, rvq.score_pair(rng.integers(-2, 3, size=(V, H)) / 1.0)):
            want = unblocked_nearest(rows, p)
            sizes.clear()
            got = rvq._nearest_rows(rows, p)
            assert got.dtype == np.intp and np.array_equal(got, want)
            if N == 1:
                # a lone row is scored twice, as a two-row product
                assert sizes == [2]
            elif N <= B + 1:
                assert sizes == [N]
            else:
                assert sum(sizes) == N
                # blocks of BLOCK rows and one of 2 to BLOCK + 1, never 1; as
                # a multiset, since two threads append them
                other = [s for s in sizes if s != B]
                assert len(other) <= 1 and all(2 <= s <= B + 1 for s in other)


def test_a_one_row_quantize_is_that_row_of_a_whole_call():
    # numpy hands a one-row product to gemv, which may round otherwise than
    # gemm: a lone row is scored as two, so its tokens are the ones it gets
    # among other rows, at near-ties too
    rng = np.random.default_rng(23)
    D, V, H = 3, 16, 8
    book = rvq.Codebook(rng.standard_normal((D, V, H)), np.ones(D))
    a = rng.integers(0, V, size=300)
    b = (a + rng.integers(1, V, size=300)) % V
    # midpoints of two depth-1 codewords, nudged by a few ulps: their two
    # scores come within rounding of each other
    ties = (book.table(1)[a] + book.table(1)[b]) / 2
    ties += rng.standard_normal(ties.shape) * 1e-15
    x = np.concatenate([ties, rng.standard_normal((300, H)) * 2])
    whole = rvq.quantize(x, book)
    for i in range(len(x)):
        assert np.array_equal(rvq.quantize(x[i:i + 1], book), whole[i:i + 1]), i
    assert np.array_equal(rvq.nearest(x[:1], book.table(1)),
                          rvq.nearest(x, book.table(1))[:1])


@pytest.mark.parametrize("starts", ["fresh", "mixed", "shallow", "none"])
def test_quantize_leaves_the_residual_chain(starts):
    """`residuals` gets each depth's residual after its codeword, with the
    bits of a per-row subtraction loop; an untouched depth holds the
    residual as it came in, and the tokens are those of a call without it."""
    rng = np.random.default_rng(29)
    L, D, V, H = 7, 4, 6, 3
    book = rvq.Codebook(rng.standard_normal((D, V, H)), np.ones(D))
    start = {"fresh": np.zeros(L, dtype=np.int64), "mixed": np.array([0, 1, 2, 3, 4, 2, 4]),
             "shallow": np.full(L, 2), "none": np.full(L, D)}[starts]
    z = rng.standard_normal((L, H)) * 2
    out = rng.integers(1, V + 1, size=(L, D))
    chain = np.full((L, D, H), np.nan)      # every entry must be written
    tokens = rvq.quantize(z, book, start_depth=start, out=out, residuals=chain)
    assert np.array_equal(tokens, rvq.quantize(z, book, start_depth=start, out=out))
    for i in range(L):
        res = z[i].copy()
        for j in range(D):
            if j >= start[i]:
                res = res - book.table(j + 1)[tokens[i, j] - 1]
            assert chain[i, j].tobytes() == res.tobytes(), (i, j)
    for bad in ((L, D, H + 1), (L, D), (L + 1, D, H)):
        with pytest.raises(ValueError, match=r"^residuals must be \(7, 4, 3\), got "):
            rvq.quantize(z, book, residuals=np.empty(bad))


def serial_halves(first, second):
    first()
    second()


def spy_threads(monkeypatch):
    """The thread idents that run `_scores`, one per call."""
    idents = []
    real = rvq._scores

    def spy(rows, pair, out=None):
        idents.append(threading.get_ident())
        return real(rows, pair, out=out)

    monkeypatch.setattr(rvq, "_scores", spy)
    return idents


@pytest.mark.parametrize("N", [2 * B, 2 * B + 1, 3 * B + 1, 4 * B + 3, 40_960])
def test_split_nearest_is_the_serial_and_the_whole_array_argmin(N, monkeypatch):
    rng = np.random.default_rng(N)
    V, H = 32, 8
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)     # split on any host
    idents = spy_threads(monkeypatch)
    cases = [(rng.standard_normal((N, H)), rvq.score_pair(rng.standard_normal((V, H))))]
    # small integers: exact ties everywhere, the lowest index must win
    grid = rng.integers(-2, 3, size=(N, H)).astype(np.float64)
    cases.append((grid, rvq.score_pair(rng.integers(-2, 3, size=(V, H)) / 1.0)))
    # NaN rows score NaN everywhere; argmin takes the first NaN, index 0
    nan_rows = grid.copy()
    nan_rows[rng.choice(N, size=N // 7, replace=False), rng.integers(0, H)] = np.nan
    cases.append((nan_rows, cases[1][1]))
    for rows, pair in cases:
        want = unblocked_nearest(rows, pair)
        idents.clear()
        split = rvq._nearest_rows(rows, pair)
        assert len(set(idents)) == 2        # the worker took its half
        with monkeypatch.context() as m:
            m.setattr(rvq, "_halves", serial_halves)
            serial = rvq._nearest_rows(rows, pair)
        assert split.dtype == serial.dtype == np.intp
        assert np.array_equal(split, want) and np.array_equal(serial, want)
    assert np.all(want[np.isnan(nan_rows).any(axis=1)] == 0)


def test_an_error_in_the_workers_half_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)
    caller = threading.get_ident()
    err = FloatingPointError("raised on the worker")
    real = rvq._scores

    def scores(rows, pair, out=None):
        if threading.get_ident() != caller:
            raise err
        return real(rows, pair, out=out)

    rng = np.random.default_rng(4)
    rows, pair = rng.standard_normal((4 * B, 8)), rvq.score_pair(rng.standard_normal((32, 8)))
    monkeypatch.setattr(rvq, "_scores", scores)
    with pytest.raises(FloatingPointError) as info:
        rvq._nearest_rows(rows, pair)
    assert info.value is err
    # the caller's own error wins, once the worker's half is done
    mine, ran = KeyError("caller"), []

    def first():
        raise mine

    with pytest.raises(KeyError) as info:
        rvq._halves(first, lambda: ran.append(1))
    assert info.value is mine and ran == [1]
    # and the worker stays usable
    monkeypatch.setattr(rvq, "_scores", real)
    assert np.array_equal(rvq._nearest_rows(rows, pair), unblocked_nearest(rows, pair))


# ---------------------------------------------------------------------------
# the worker thread: started lazily, one per process, skipped on one CPU


def test_importing_the_package_starts_no_thread():
    src = os.path.dirname(os.path.dirname(rvq.__file__))
    code = ("import threading, pkgutil, importlib, rvqgen\n"
            "for m in pkgutil.iter_modules(rvqgen.__path__):\n"
            "    importlib.import_module('rvqgen.' + m.name)\n"
            "print(threading.active_count())")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "1"


def test_repeated_fits_start_at_most_one_thread(monkeypatch):
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)
    before = threading.active_count()
    vectors = np.random.default_rng(8).standard_normal((3 * B, 4))
    for seed in range(4):
        rvq.fit_codebook(vectors, depth=2, vocab=8, epochs=2, seed=seed)
        assert threading.active_count() <= before + 1


def test_one_cpu_keeps_the_search_serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert rvq._cpus() == 1
    rng = np.random.default_rng(9)
    rows, pair = rng.standard_normal((5 * B, 8)), rvq.score_pair(rng.standard_normal((32, 8)))
    want = unblocked_nearest(rows, pair)
    idents = spy_threads(monkeypatch)
    assert np.array_equal(rvq._nearest_rows(rows, pair), want)
    assert idents == [threading.get_ident()] * 5


def test_concurrent_callers_queue_on_one_worker(monkeypatch):
    # more callers than cores, switching often, and the first searches
    # racing to start the worker: every pick right, one thread added
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)
    monkeypatch.setattr(rvq, "_worker", None)
    rng = np.random.default_rng(12)
    cases = [(rng.standard_normal((3 * B + k, 8)), rvq.score_pair(rng.standard_normal((32, 8))))
             for k in range(6)]
    wants = [unblocked_nearest(rows, pair) for rows, pair in cases]
    wrong, before = [], threading.active_count()

    def search(i):
        for _ in range(5):
            if not np.array_equal(rvq._nearest_rows(*cases[i]), wants[i]):
                wrong.append(i)

    callers = [threading.Thread(target=search, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        worker = rvq._worker
    assert not any(t.is_alive() for t in callers) and wrong == []
    assert threading.active_count() == before + 1
    worker.shutdown(wait=True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    monkeypatch.setattr(rvq, "_cpus", lambda: 2)
    rng = np.random.default_rng(10)
    rows, table = rng.standard_normal((4 * B, 8)), rng.standard_normal((32, 8))
    want = unblocked_nearest(rows, rvq.score_pair(table))
    assert np.array_equal(rvq.nearest(rows, table), want)   # the worker exists
    assert rvq._worker is not None
    pid = os.fork()
    if pid == 0:                        # child: never return into pytest
        code = 1
        try:
            code = 0 if np.array_equal(rvq.nearest(rows, table), want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's search did not finish within 30 s")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4 * rvq.BLOCK + 3), st.integers(1, 40), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_blocked_nearest_matches_at_random_sizes(N, V, H, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((N, H)) * 10.0 ** rng.integers(-3, 4)
    pair = rvq.score_pair(rng.standard_normal((V, H)))
    assert np.array_equal(rvq._nearest_rows(rows, pair), unblocked_nearest(rows, pair))


@pytest.mark.parametrize("seed", [3, 11])
def test_kmeans_matches_broadcast_oracle(seed):
    ds, _ = data_mod.synthesize("grid", 256, 8, 8, modes=9, noise=0.1, seed=seed)
    residuals = ds.vectors.reshape(-1, 8)
    ss = np.random.SeedSequence(seed)
    got = rvq._kmeans_depth(residuals, 32, "nearest", 10, 1.0,
                            np.random.default_rng(ss))
    want = oracle_kmeans_depth(residuals, 32, "nearest", 10, 1.0,
                               np.random.default_rng(ss))
    assert got.tobytes() == want.tobytes()
    # the soft update sums its exponentials in another order: float64
    # agreement to a few ulps of the residual scale, not bit equality
    got = rvq._kmeans_depth(residuals, 32, "probabilistic", 10, 1.0,
                            np.random.default_rng(ss))
    want = oracle_kmeans_depth(residuals, 32, "probabilistic", 10, 1.0,
                               np.random.default_rng(ss))
    assert np.allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# whole-grid quantize and the distinct-row init against their reference forms

def oracle_quantize(latents, book, start_depth=None, out=None):
    """`rvq.quantize` as a boolean-gather loop: each depth scores only the
    active rows and scatters their tokens and residuals back. The
    reference the whole-grid form must reproduce token for token."""
    latents = np.asarray(latents, dtype=np.float64)
    L, D = latents.shape[0], book.depth
    start_depth = (np.zeros(L, dtype=np.int64) if start_depth is None
                   else np.asarray(start_depth, dtype=np.int64))
    tokens = (np.full((L, D), rvq.MASK, dtype=np.int64) if out is None
              else np.array(out, dtype=np.int64))
    residual = latents.copy()
    for j in range(1, D + 1):
        active = start_depth < j
        if not np.any(active):
            continue
        idx = unblocked_nearest(residual[active], rvq.score_pair(book.table(j)))
        tokens[active, j - 1] = idx + 1
        residual[active] -= book.table(j)[idx]
    return tokens


def _draw_values(data, shape):
    """Halves in [-2, 2], whose scores and residuals are exact in any
    summation order, or continuous normals. The oracle scores a lone
    active row as a matrix-vector product, which may round otherwise than
    a row of a matrix product, and `_scores` lets codewords within
    rounding of each other rank either way; exact values tie exactly,
    continuous ones come that close with probability zero."""
    if data.draw(st.booleans(), label="exact"):
        return 0.5 * data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-4, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return rng.standard_normal(shape) * 10.0 ** data.draw(st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quantize_matches_boolean_gather_oracle(data):
    L, D, H, V = (data.draw(st.integers(lo, hi), label=name) for name, lo, hi in
                  (("L", 1, 12), ("D", 1, 5), ("H", 1, 6), ("V", 1, 8)))
    book = rvq.Codebook(_draw_values(data, (D, V, H)), np.ones(D))
    latents = _draw_values(data, (L, H))
    start = data.draw(st.one_of(
        st.none(), st.just(np.zeros(L, dtype=np.int64)), st.just(np.full(L, D)),
        hnp.arrays(np.int64, L, elements=st.integers(0, D))), label="start_depth")
    out = data.draw(st.one_of(
        st.none(), hnp.arrays(np.int64, (L, D), elements=st.integers(0, V))), label="out")
    got = rvq.quantize(latents, book, start_depth=start, out=out)
    want = oracle_quantize(latents, book, start_depth=start, out=out)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _rows_case(data):
    N = data.draw(st.integers(1, 40), label="N")
    H = data.draw(st.integers(1, 5), label="H")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(
        ["continuous", "small-int", "signed-zero", "duplicated", "drawn"]), label="kind")
    if kind == "small-int":  # ties in column 0 and repeated rows
        return rng.integers(-2, 3, size=(N, H)).astype(np.float64)
    rows = rng.standard_normal((N, H))
    if kind == "signed-zero":  # -0.0 and 0.0 compare equal but differ in bits
        rows[:, 0] = np.where(rng.random(N) < 0.5, -0.0, 0.0)
    elif kind == "duplicated":
        rows = rows[rng.integers(0, max(1, N // 3), size=N)]
    elif kind == "drawn":
        rows = data.draw(hnp.arrays(np.float64, (N, H), elements=st.floats()))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distinct_rows_match_np_unique(data):
    rows = _rows_case(data)
    got = rvq._distinct_rows(rows)
    want = np.unique(rows, axis=0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_distinct_rows_edge_cases():
    for rows in (np.array([[1.5, -2.0]]), np.array([[np.nan, 0.0]]),
                 np.array([[0.0, 1.0], [-0.0, 1.0]]), np.array([[-0.0, 1.0], [0.0, 2.0]]),
                 np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]),
                 np.array([[np.inf, 0.0], [-np.inf, 0.0], [2.0, 1.0]])):
        assert rvq._distinct_rows(rows).tobytes() == np.unique(rows, axis=0).tobytes()


def test_tie_free_fit_skips_the_record_sort(monkeypatch):
    calls = []

    def counting_unique(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return real_unique(*args, **kwargs)

    real_unique = np.unique
    rng = np.random.default_rng(30)
    vectors = rng.standard_normal((2000, 8))
    monkeypatch.setattr(np, "unique", counting_unique)
    rvq.fit_codebook(vectors, depth=4, vocab=32, seed=31)
    assert calls == []
    # column-0 ties take the record sort at each depth that has them
    rvq.fit_codebook(np.round(vectors), depth=1, vocab=4, seed=31)
    assert calls == [0]


def test_fit_rvq_and_eval_keep_the_reference_bits(tmp_path, monkeypatch, capsys):
    """`fit-rvq` then `eval` through `cli.main`, once as shipped and once
    with the np.unique init, the boolean-gather quantize and the unblocked
    nearest-codeword search patched in: the codebook, the report and
    stdout (less wall time) are the same. The reference set has 2·BLOCK + 1
    vectors, so the blocked search runs two blocks, the second with the
    lone last row joined to it."""
    from rvqgen import cli

    ref, gen = tmp_path / "ref.rgds", tmp_path / "gen.rgds"
    for path, count, seq_len, seed in ((ref, 2 * rvq.BLOCK + 1, 1, 41), (gen, 64, 8, 42)):
        assert cli.main(["synth", "--out", str(path), "--family", "grid", "--count",
                         str(count), "--seq-len", str(seq_len), "--dim", "8", "--modes",
                         "9", "--noise", "0.1", "--seed", str(seed)]) == 0
    capsys.readouterr()

    def run(tag):
        book, report = tmp_path / f"{tag}.rvqc", tmp_path / f"{tag}.txt"
        assert cli.main(["fit-rvq", "--dataset", str(ref), "--depth", "4",
                         "--vocab", "32", "--epochs", "10", "--seed", "43",
                         "--out", str(book)]) == 0
        assert cli.main(["eval", "--generated", str(gen), "--reference", str(ref),
                         "--codebook", str(book), "--out", str(report)]) == 0
        out = capsys.readouterr().out.replace(str(book), "BOOK")
        kept = [line for line in out.splitlines() if not line.startswith("wall_time=")]
        return book.read_bytes(), report.read_bytes(), kept

    shipped = run("shipped")
    monkeypatch.setattr(rvq, "_distinct_rows", lambda rows: np.unique(rows, axis=0))
    monkeypatch.setattr(rvq, "quantize", oracle_quantize)
    monkeypatch.setattr(rvq, "_nearest_rows", unblocked_nearest)
    reference = run("reference")
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2] and len(shipped[2]) > 8


# ---------------------------------------------------------------------------
# the fit's single encode: its tokens are quantize's


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "split"])
@pytest.mark.parametrize("N", [B + 1, B + 2, 2 * B + 1])
@pytest.mark.parametrize("epochs", [0, 3])
@pytest.mark.parametrize("update", ["nearest", "probabilistic"])
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_fit_tokens_are_quantize_bit_for_bit(depth, update, epochs, N, cpus,
                                             monkeypatch):
    monkeypatch.setattr(rvq, "_cpus", lambda: cpus)
    rng = np.random.default_rng(depth * 1000 + N + epochs)
    vectors = rng.standard_normal((N, 4)) * 10.0 ** rng.integers(-2, 3, size=(N, 1))
    book, tokens = rvq.fit_and_quantize(vectors, depth=depth, vocab=8, update=update,
                                        epochs=epochs, seed=depth + epochs)
    want = rvq.quantize(vectors, book)
    assert tokens.dtype == want.dtype and tokens.shape == want.shape
    assert np.array_equal(tokens, want)
    assert rvq.codebook_to_bytes(book) == rvq.codebook_to_bytes(
        rvq.fit_codebook(vectors, depth, 8, update, epochs, seed=depth + epochs))


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "split"])
@pytest.mark.parametrize("N", [B + 1, 2 * B + 1])
@pytest.mark.parametrize("update", ["nearest", "probabilistic"])
def test_fit_tokens_are_quantize_with_duplicate_codewords(update, N, cpus, monkeypatch):
    # 2 columns of {0, 1}: 4 distinct rows for 8 codewords, so the table
    # repeats rows and ties resolve to the lowest index
    monkeypatch.setattr(rvq, "_cpus", lambda: cpus)
    vectors = np.random.default_rng(N).integers(0, 2, size=(N, 2)).astype(np.float64)
    with pytest.warns(UserWarning, match="distinct residuals"):
        book, tokens = rvq.fit_and_quantize(vectors, depth=3, vocab=8, update=update,
                                            epochs=3, seed=5)
    assert np.array_equal(tokens, rvq.quantize(vectors, book))


def test_fit_tokens_past_255_keep_their_value():
    # 256 codewords: the fit holds its picks 0..255 as uint8. epochs=0 keeps
    # the table as drawn from distinct data rows, so the row drawn as
    # codeword 256 is its own nearest: its token must not wrap to 0
    vectors = np.random.default_rng(3).standard_normal((B + 1, 3))
    book, tokens = rvq.fit_and_quantize(vectors, depth=2, vocab=256, epochs=0, seed=2)
    assert tokens[:, 0].max() == 256
    assert np.array_equal(tokens, rvq.quantize(vectors, book))


def test_fit_and_quantize_takes_fit_codebooks_arguments():
    # fit_codebook has no defaults of its own: positional and keyword calls
    # (the benchmark's `fit_codebook(vectors, DEPTH, VOCAB, epochs=, seed=)`)
    # reach fit_and_quantize's parameters, and bad ones are refused there
    vectors = np.random.default_rng(4).standard_normal((300, 3))
    want = rvq.fit_and_quantize(vectors, 2, 8, epochs=2, seed=3)[0]
    for book in (rvq.fit_codebook(vectors, 2, 8, epochs=2, seed=3),
                 rvq.fit_codebook(vectors, depth=2, vocab=8, epochs=2, seed=3),
                 rvq.fit_codebook(vectors, 2, 8, "nearest", 2, 1.0, 3)):
        assert book.embeddings.tobytes() == want.embeddings.tobytes()
        assert book.sigma.tobytes() == want.sigma.tobytes()
    default = rvq.fit_codebook(vectors, epochs=1)
    assert default.embeddings.tobytes() == \
        rvq.fit_and_quantize(vectors, epochs=1)[0].embeddings.tobytes()
    with pytest.raises(TypeError, match="depths"):
        rvq.fit_codebook(vectors, depths=2)


def _fit_rvq_data(tmp_path, count):
    from rvqgen import cli
    path = tmp_path / "ref.rgds"
    assert cli.main(["synth", "--out", str(path), "--family", "grid", "--count",
                     str(count), "--seq-len", "1", "--dim", "8", "--modes", "9",
                     "--noise", "0.1", "--seed", "44"]) == 0
    return path, data_mod.load_dataset(path).vectors.reshape(-1, 8)


def test_fit_rvq_prints_what_fit_quantize_and_mse_give(tmp_path, capsys):
    """`fit-rvq` writes the codebook `fit_codebook` fits and prints the MSE
    and usage of `quantize`'s tokens under it, as it did before the fit
    returned its own tokens."""
    from rvqgen import cli
    from rvqgen import evaluate as ev
    ref, flat = _fit_rvq_data(tmp_path, 2 * B + 1)
    out = tmp_path / "book.rvqc"
    capsys.readouterr()
    assert cli.main(["fit-rvq", "--dataset", str(ref), "--depth", "3", "--vocab", "16",
                     "--epochs", "4", "--seed", "45", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    book = rvq.fit_codebook(flat, depth=3, vocab=16, epochs=4, seed=45)
    tokens = rvq.quantize(flat, book)
    mse = rvq.reconstruction_mse_by_depth(flat, book, tokens)
    entropy = ev.codebook_usage_entropy(tokens, book.vocab)
    want = [f"wrote {out}: depth=3 vocab=16 dim=8"] + [
        f"depth={j + 1} mse={mse[j]:.6g} sigma={book.sigma[j]:.6g} "
        f"usage_entropy={entropy[j]:.4f}" for j in range(3)]
    assert out.read_bytes() == rvq.codebook_to_bytes(book)
    assert printed.splitlines() == want


@pytest.mark.parametrize("depth,epochs", [(4, 10), (2, 0), (1, 3)])
def test_fit_rvq_searches_its_data_once_per_epoch_and_depth(depth, epochs, tmp_path,
                                                             monkeypatch):
    """D·E k-means searches, one residual pass per depth, and no second
    encode: 44 searches at the benchmark's D = 4, E = 10 (47 when `fit-rvq`
    re-quantized its data)."""
    from rvqgen import cli
    ref, flat = _fit_rvq_data(tmp_path, 2 * B + 1)
    sizes = []
    real = rvq._nearest_rows

    def counting(rows, pair):
        sizes.append(rows.shape[0])
        return real(rows, pair)

    def refused(*args, **kwargs):
        raise AssertionError("fit-rvq quantized its data a second time")

    monkeypatch.setattr(rvq, "_nearest_rows", counting)
    monkeypatch.setattr(rvq, "quantize", refused)
    assert cli.main(["fit-rvq", "--dataset", str(ref), "--depth", str(depth),
                     "--vocab", "8", "--epochs", str(epochs), "--seed", "46",
                     "--out", str(tmp_path / "book.rvqc")]) == 0
    assert sizes == [len(flat)] * (depth * epochs + depth)


# ---------------------------------------------------------------------------
# serialization

def test_codebook_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    book = rvq.fit_codebook(rng.normal(size=(200, 3)), depth=4, vocab=5, seed=15)
    path = tmp_path / "book.rvqc"
    rvq.save_codebook(book, path)
    loaded = rvq.load_codebook(path)
    assert np.array_equal(book.embeddings, loaded.embeddings)
    assert np.array_equal(book.sigma, loaded.sigma)
    # and the byte stream itself is stable
    assert rvq.codebook_to_bytes(book) == rvq.codebook_to_bytes(loaded)


def test_codebook_rejects_wrong_magic_and_version():
    blob = rvq.codebook_to_bytes(book_2d())
    with pytest.raises(ValueError, match="magic"):
        rvq.codebook_from_bytes(b"XXXX" + blob[4:])
    bad_version = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
    with pytest.raises(ValueError, match="version"):
        rvq.codebook_from_bytes(bad_version)


def test_codebook_rejects_short_header_truncation_and_trailing_bytes():
    blob = rvq.codebook_to_bytes(book_2d())
    with pytest.raises(ValueError, match="truncated"):
        rvq.codebook_from_bytes(blob[:19])
    with pytest.raises(ValueError, match="length mismatch"):
        rvq.codebook_from_bytes(blob[:-1])
    with pytest.raises(ValueError, match="length mismatch"):
        rvq.codebook_from_bytes(blob + b"\0")


def test_codebook_header_fields_are_bounded_by_their_u32():
    # a table too large to build: the writer checks the header before the body
    for name in ("depth", "vocab", "dim"):
        sizes = {"depth": 1, "vocab": 2, "dim": 1, name: 2**32}
        book = types.SimpleNamespace(embeddings=None, sigma=None, **sizes)
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must lie in [0, 4294967295] (a u32 field of the codebook "
                f"header), got {2**32}")):
            rvq.codebook_to_bytes(book)


def test_load_codebook_names_the_path(tmp_path):
    path = tmp_path / "short.rvqc"
    path.write_bytes(rvq.codebook_to_bytes(book_2d())[:30])
    with pytest.raises(ValueError, match=f"^{path}: codebook length mismatch"):
        rvq.load_codebook(path)
