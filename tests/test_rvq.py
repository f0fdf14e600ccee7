"""Residual quantizer tests: hand-traced recurrences, telescoping, fitting
fixed points, sigma estimation, the nearest-codeword kernel against its
broadcast oracle, the blocked search against one whole-array call,
the whole-grid quantize and the distinct-row init against
their reference forms, and the binary codebook format."""

import dataclasses
import re
import struct
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
    for arr in (book.sigma, book.embeddings, book.two_var, book.log_norm):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    sigma[0] = 7.0
    assert np.array_equal(book.sigma, [0.5, 0.25])
    assert np.array_equal(book.two_var, 2 * np.array([0.5, 0.25]) ** 2)


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


def test_cluster_sums_match_add_at_bit_for_bit():
    rng = np.random.default_rng(21)
    for N, V, H in ((1, 3, 2), (257, 8, 5), (5000, 32, 8)):
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
            assert sum(sizes) == N
            if N <= B + 1:
                assert sizes == [N]
            else:  # blocks of BLOCK rows, then one of 2 to BLOCK + 1, never 1
                assert sizes[:-1] == [B] * (len(sizes) - 1) and 2 <= sizes[-1] <= B + 1


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
