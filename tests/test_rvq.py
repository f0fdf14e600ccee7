"""Residual quantizer tests: hand-traced recurrences, telescoping, fitting
fixed points, sigma estimation, the nearest-codeword kernel against its
broadcast oracle, and the binary codebook format."""

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
    z = rvq.dequantize(tokens, book, up_to_depth=[0, 0])
    assert np.array_equal(z, np.zeros((2, 2)))


def test_dequantize_rejects_mask_in_range():
    book = book_2d()
    tokens = np.array([[1, rvq.MASK]])
    with pytest.raises(ValueError, match="MASK"):
        rvq.dequantize(tokens, book, up_to_depth=[2])
    # but excluding the masked depth is fine
    rvq.dequantize(tokens, book, up_to_depth=[1])


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
    with pytest.raises(ValueError):
        rvq.fit_codebook(np.zeros((0, 3)), depth=2, vocab=4)
    with pytest.raises(ValueError):
        rvq.fit_codebook(np.zeros((10, 3)), depth=2, vocab=1)
    with pytest.raises(ValueError):
        rvq.fit_codebook(np.zeros((10, 3)), depth=2, vocab=4, update="annealed")


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
        partial = rvq.dequantize(tokens, book, up_to_depth=np.full(60, d))
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
            assert np.all(rvq._nearest(rows, table) == lo), (V, lo, hi)
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
        got = rvq._nearest(rows, table)
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
    got = rvq._nearest(rows, table)
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
        assert rvq._cluster_sums(assign, residuals, V).tobytes() == want.tobytes()


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


def test_load_codebook_names_the_path(tmp_path):
    path = tmp_path / "short.rvqc"
    path.write_bytes(rvq.codebook_to_bytes(book_2d())[:30])
    with pytest.raises(ValueError, match=f"^{path}: codebook length mismatch"):
        rvq.load_codebook(path)
