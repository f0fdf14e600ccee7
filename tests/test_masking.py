"""Masking process tests: schedules, hypergeometric draws against an exact
enumeration oracle, closed-form log-probabilities, and the depth-suffix
invariant."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqgen import masking as mk


# ---------------------------------------------------------------------------
# enumeration oracle: exact pmf of the multivariate hypergeometric

def enumerate_pmf(capacities, n):
    """Exact pmf over count vectors, as Fractions."""
    caps = list(capacities)
    total = sum(caps)
    denom = math.comb(total, n)
    pmf = {}
    for k in itertools.product(*(range(c + 1) for c in caps)):
        if sum(k) == n:
            num = 1
            for ki, ci in zip(k, caps):
                num *= math.comb(ci, ki)
            pmf[k] = Fraction(num, denom)
    return pmf


def assert_depth_suffix(mask):
    """Every row of an (L, D) mask holds only 0/1 and hides a depth suffix:
    its revealed entries (1) come before its hidden ones (0)."""
    m = np.asarray(mask)
    assert np.isin(m, (0, 1)).all() and (np.diff(m, axis=1) <= 0).all(), m


def empirical_tv(draws, pmf):
    """Total variation between empirical draw frequencies and an exact pmf."""
    counts = {}
    for row in map(tuple, draws):
        counts[row] = counts.get(row, 0) + 1
    n = len(draws)
    keys = set(counts) | set(pmf)
    return 0.5 * sum(abs(counts.get(k, 0) / n - float(pmf.get(k, 0))) for k in keys)


# ---------------------------------------------------------------------------
# schedules

def test_circle_boundaries():
    s = mk.Schedule("circle")
    assert mk.gamma(s, 0.0) == 1.0
    assert mk.gamma(s, 1.0) == 0.0


def test_circle_midpoint():
    assert mk.gamma(mk.Schedule("circle"), 0.5) == pytest.approx(0.8660254, abs=1e-7)


def test_cosine_midpoint():
    assert mk.gamma(mk.Schedule("cosine"), 0.5) == pytest.approx(0.7071068, abs=1e-7)


def test_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        mk.gamma(mk.Schedule("circle"), 1.5)
    with pytest.raises(ValueError):
        mk.gamma(mk.Schedule("cosine"), -0.1)


@pytest.mark.parametrize("spec", ["circle", "cosine", "exp:6", "exp:2.5"])
def test_schedule_shape_properties(spec):
    s = mk.parse_schedule(spec)
    r = np.arange(0, 1.0 + 1e-9, 1e-3)
    g = mk.gamma(s, r)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert g[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(g) <= 1e-12)


def test_parse_schedule_exp_default():
    s = mk.parse_schedule("exp")
    assert s.kind == "exp" and s.lam == 6.0


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        mk.Schedule("linear")


@pytest.mark.parametrize("spec, reason", [
    ("exp:nan", "exponential schedule needs a finite lam > 0, got nan"),
    ("exp:inf", "exponential schedule needs a finite lam > 0, got inf"),
    ("exp:-1", "exponential schedule needs a finite lam > 0, got -1.0"),
    ("exp:abc", "could not convert string to float: 'abc'"),
    ("exp:", "could not convert string to float: ''"),
    ("circle:2", "only exp takes a rate"),
    ("expo", "unknown schedule kind 'expo'")])
def test_malformed_schedule_spec_names_the_spec(spec, reason):
    # exp:nan once passed lam <= 0, warned in mask_count and was then
    # blamed on the draw counts (train) or the masked counts (sample);
    # "expo" was once read as exp
    with pytest.raises(ValueError) as err:
        mk.parse_schedule(spec)
    assert str(err.value) == f"schedule {spec!r}: {reason}"


def test_mask_count_examples():
    s = mk.Schedule("circle")
    assert mk.mask_count(s, 0.0, 8, 16) == 128
    assert mk.mask_count(s, 0.5, 8, 16) == 111  # ceil(0.8660 * 128)
    assert mk.mask_count(s, 1.0, 8, 16) == 0


@pytest.mark.parametrize("spec", ["circle", "cosine", "exp", "exp:2.5"])
def test_batched_mask_count_and_masks_match_the_trainer_reference(spec):
    # reference: the trainer's inline counts and masks; the helpers must
    # match them and the scalar mask_count
    s = mk.parse_schedule(spec)
    L, D = 5, 4
    rng = np.random.default_rng(17)
    edge = [0.0, 1e-12, 0.5, np.nextafter(1.0, 0.0), 1.0 - 1e-9, 1.0 - 1e-15]
    ratios = np.concatenate([edge, rng.random(394)])
    ref = np.clip(np.ceil(mk.gamma(s, ratios) * L * D).astype(np.int64), 0, L * D)
    n = mk.mask_count(s, ratios, L, D)
    assert n.dtype == np.int64 and np.array_equal(n, ref)
    scalar = [mk.mask_count(s, float(r), L, D) for r in ratios]
    assert scalar == n.tolist() and all(type(v) is int for v in scalar)
    assert n[0] == L * D and mk.mask_count(s, np.array([1.0]), L, D).tolist() == [0]
    k = mk.sample_counts_batch(np.full((len(ratios), L), D), n, rng)
    ref_masks = (np.arange(D)[None, None, :] < (D - k)[:, :, None]).astype(np.int8)
    masks = mk.suffix_masks(k, D)
    assert masks.dtype == np.int8 and np.array_equal(masks, ref_masks)
    assert np.array_equal(masks[0], mk.suffix_masks(k[0], D))
    assert np.array_equal(mk.suffix_masks(k[0, 0], D), ref_masks[0, 0])
    assert mk.suffix_masks(k.reshape(4, -1, L), D).shape == (4, len(ratios) // 4, L, D)


@pytest.mark.parametrize("spec", ["circle", "cosine", "exp", "exp:2.5", "exp:0.3"])
def test_schedule_in_one_call_matches_the_per_step_calls(spec):
    # the sampler takes all T reveal targets from one array call
    s = mk.parse_schedule(spec)
    for L, D in ((1, 1), (8, 4), (5, 3), (16, 16)):
        for T in range(1, 201):
            steps = [mk.mask_count(s, t / T, L, D) for t in range(1, T + 1)]
            assert mk.mask_count(s, np.arange(1, T + 1) / T, L, D).tolist() == steps


# ---------------------------------------------------------------------------
# draws

def numpy_int_counts(capacities, n, rng):
    """The multivariate-hypergeometric chain with numpy-int bookkeeping: one
    `rng.hypergeometric(c_i, rest, remaining)` draw per position but the
    last, skipped once nothing remains to draw. `mk.sample_counts`
    must match draw for draw."""
    caps = np.asarray(capacities, dtype=np.int64)
    k = np.zeros(caps.shape[0], dtype=np.int64)
    rem_n, rem_total = int(n), int(caps.sum())
    for i in range(caps.shape[0] - 1):
        rem_total -= int(caps[i])
        if rem_n > 0:
            k[i] = rng.hypergeometric(caps[i], rem_total, rem_n)
            rem_n -= int(k[i])
    k[-1] = rem_n
    return k


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.data())
def test_sample_counts_matches_the_numpy_int_loop(caps, data):
    # zero-capacity positions are drawn from like any other
    caps = np.array(caps)
    n = data.draw(st.integers(0, int(caps.sum())))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got, want = mk.sample_counts(caps, n, rng), numpy_int_counts(caps, n, ref)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.data())
def test_one_row_batch_matches_sample_counts(caps, data):
    # a draw of 0 items takes no random numbers, so one rule serves both
    # functions, zero capacities included
    caps = np.array(caps)
    n = data.draw(st.integers(0, int(caps.sum())))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got, want = mk.sample_counts_batch(caps[None], n, rng), mk.sample_counts(caps, n, ref)
        assert np.array_equal(got, want[None])
        assert rng.bit_generator.state == ref.bit_generator.state


def live_masked_counts_batch(caps, n, rng):
    """The batch draw that skipped rows with nothing left to draw or no
    capacity at a position: what the trainer's stream was made with."""
    rows, L = caps.shape
    k = np.zeros((rows, L), dtype=np.int64)
    rem_n = np.broadcast_to(np.asarray(n, dtype=np.int64), (rows,)).copy()
    rem_total = caps.sum(axis=1)
    for i in range(L - 1):
        rem_total -= caps[:, i]
        live = (rem_n > 0) & (caps[:, i] > 0)
        if live.any():
            k[live, i] = rng.hypergeometric(caps[live, i], rem_total[live], rem_n[live])
            rem_n -= k[:, i]
    k[:, -1] = rem_n
    return k


@pytest.mark.parametrize("L, D", [(8, 4), (1, 3), (5, 1), (12, 2)])
def test_batch_draw_keeps_the_trainer_stream(L, D):
    # the trainer's capacities are never 0: drawing every row gives the
    # stream of the draw that skipped the rows with nothing left to draw
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        caps = np.full((16, L), D)
        n = mk.mask_count(mk.Schedule("circle"), rng.random(16), L, D)
        ref.random(16)
        got, want = mk.sample_counts_batch(caps, n, rng), live_masked_counts_batch(caps, n, ref)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_binary_mask_full_and_empty():
    rng = np.random.default_rng(0)
    full = mk.binary_mask(6, 3, 2, rng)
    assert full.dtype == np.int64 and full.tolist() == [2, 2, 2]
    empty = mk.binary_mask(0, 3, 2, rng)
    assert empty.dtype == np.int64 and empty.tolist() == [0, 0, 0]


def test_binary_mask_2x2_distribution():
    pmf = enumerate_pmf([2, 2], 2)
    assert pmf[(1, 1)] == Fraction(2, 3)
    assert pmf[(2, 0)] == pmf[(0, 2)] == Fraction(1, 6)
    rng = np.random.default_rng(42)
    draws = mk.sample_counts_batch(np.broadcast_to([2, 2], (100_000, 2)), 2, rng)
    assert empirical_tv(draws, pmf) < 0.01


def test_single_draw_matches_batch_distribution():
    rng = np.random.default_rng(7)
    pmf = enumerate_pmf([3, 3, 3], 4)
    draws = [mk.sample_counts(np.array([3, 3, 3]), 4, rng) for _ in range(20_000)]
    assert empirical_tv(np.array(draws), pmf) < 0.02


def test_binary_unmask_trivials():
    rng = np.random.default_rng(1)
    q = mk.binary_mask(4, 2, 2, rng)
    same = mk.binary_unmask(q, 4, rng)
    assert np.array_equal(same, q)
    done = mk.binary_unmask(q, 0, rng)
    assert done.tolist() == [0, 0]


def test_binary_unmask_reveal_distribution():
    # q=(2,2), reveal 2: P(reveal (1,1)) = 2/3 by the same enumeration
    rng = np.random.default_rng(3)
    hits = 0
    trials = 30_000
    for _ in range(trials):
        out = mk.binary_unmask(np.array([2, 2]), 2, rng)
        if tuple(out) == (1, 1):
            hits += 1
    assert abs(hits / trials - 2 / 3) < 0.01


def test_binary_unmask_rejects_increase():
    with pytest.raises(ValueError, match="n_target=3 exceeds masked count 2"):
        mk.binary_unmask(np.array([1, 1]), 3, np.random.default_rng(0))


def test_unmask_terminates_on_schedule():
    s = mk.Schedule("circle")
    L, D, T = 4, 3, 7
    rng = np.random.default_rng(11)
    q = mk.binary_mask(L * D, L, D, rng)
    for t in range(1, T + 1):
        n = mk.mask_count(s, t / T, L, D)
        q = mk.binary_unmask(q, n, rng)
        mk.checked_counts(q, (L,), D)
        assert q.sum() == n and (n == 0) == (t == T)


# ---------------------------------------------------------------------------
# closed forms

def test_forward_step_examples():
    fresh = np.zeros(2, dtype=np.int64)
    assert mk.forward_step_logprob([1, 1], fresh, 2) == pytest.approx(math.log(2 / 3), abs=1e-12)
    assert mk.forward_step_logprob([3, 0], fresh, 2) == mk.IMPOSSIBLE
    assert mk.forward_step_logprob([0, 0], fresh, 2) == 0.0


def test_marginal_examples():
    assert mk.marginal_logprob([0, 0], 0, 2, 2) == 0.0
    assert mk.marginal_logprob([1, 1], 2, 2, 2) == pytest.approx(math.log(2 / 3), abs=1e-12)


def test_posterior_examples():
    assert mk.posterior_logprob([1, 1], [1, 1], 2, 0) == 0.0
    # L=2, counts_t1=(1,1), one new mask: either position equally likely
    assert mk.posterior_logprob([0, 1], [1, 1], 2, 1) == pytest.approx(math.log(0.5), abs=1e-12)
    assert mk.posterior_logprob([2, 1], [1, 1], 2, 1) == mk.IMPOSSIBLE


def _log_comb_ratio_oracle(tops, bottoms, total, n):
    # reference arithmetic: stop at the first zero coefficient, else sum
    # the terms in order and subtract the denominator
    num = 0.0
    for a, b in zip(tops, bottoms):
        term = mk.log_comb(a, b)
        if term == mk.IMPOSSIBLE:
            return mk.IMPOSSIBLE
        num += term
    den = mk.log_comb(total, n)
    return mk.IMPOSSIBLE if den == mk.IMPOSSIBLE else num - den


def test_closed_forms_keep_their_bits():
    L, D = 3, 3
    for c in itertools.product(range(D + 1), repeat=L):
        u = D - np.array(c)
        for k in itertools.product(range(D + 2), repeat=L):
            assert mk.forward_step_logprob(k, c, D) == _log_comb_ratio_oracle(
                u, k, u.sum(), sum(k))
            new_c = np.array(c) + np.array(k)
            assert mk.posterior_logprob(c, new_c, new_c.sum(), sum(k)) == \
                _log_comb_ratio_oracle(new_c, k, new_c.sum(), sum(k))
        assert mk.marginal_logprob(c, sum(c), L, D) == _log_comb_ratio_oracle(
            [D] * L, c, L * D, sum(c))


def test_composed_steps_match_marginal():
    # mask 2 then 3 more on a 3x3 grid; cumulative counts should follow the
    # one-shot marginal q(x_2 | x_0)
    L, D, n1, n2 = 3, 3, 2, 3
    rng = np.random.default_rng(5)
    trials = 100_000
    first = mk.sample_counts_batch(np.full((trials, L), D), n1, rng)
    second = mk.sample_counts_batch(D - first, n2, rng)
    pmf = enumerate_pmf([D] * L, n1 + n2)
    assert empirical_tv(first + second, pmf) < 0.02


def bayes_gap(L, D):
    """Max |log LHS - log RHS| of the chain identity
    q(x_t|x_0) q(k|x_t) = q(x_{t+1}|x_0) q(x_t|x_{t+1}, x_0)."""
    worst = 0.0
    for c in itertools.product(range(D + 1), repeat=L):
        for k in itertools.product(*(range(D - ci + 1) for ci in c)):
            c1 = tuple(ci + ki for ci, ki in zip(c, k))
            lhs = (mk.marginal_logprob(c, sum(c), L, D)
                   + mk.forward_step_logprob(k, c, D))
            rhs = (mk.marginal_logprob(c1, sum(c1), L, D)
                   + mk.posterior_logprob(c, c1, sum(c1), sum(k)))
            if lhs == mk.IMPOSSIBLE and rhs == mk.IMPOSSIBLE:
                continue
            worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("L,D", [(2, 2), (3, 2), (2, 3)])
def test_bayes_consistency_small(L, D):
    assert bayes_gap(L, D) < 1e-10


# ---------------------------------------------------------------------------
# state mechanics

def test_depth_suffix_enforced():
    # the state is its masked counts, so its mask is a depth suffix by
    # construction; counts that name no suffix are refused where they enter
    for q in ([3, 0], [-1, 1], [[0, 1], [1, 1]]):
        with pytest.raises(ValueError, match=r"masked counts must be \(2,\) integers in \[0, 2\]"):
            mk.checked_counts(np.array(q), (2,), 2)
    mask = mk.suffix_masks([2, 0, 1], 2)
    assert_depth_suffix(mask)
    assert mask.dtype == np.int8 and mask.tolist() == [[0, 0], [1, 1], [1, 0]]


def test_masked_counts_bookkeeping():
    # every transition returns int64 (L,) counts holding the masked total
    # it was asked for
    from rvqgen import sampler as smp

    rng = np.random.default_rng(4)
    q0 = mk.binary_mask(3, 3, 2, rng)
    q1 = mk.mask_more(q0, 2, 2, rng)
    q2 = mk.binary_unmask(q1, 1, rng)
    q3 = smp.select_unmask(q2, 0, np.zeros((3, 2)), mk.suffix_masks(q2, 2) == 0)
    for q, n in zip((q0, q1, q2, q3), (3, 5, 1, 0)):
        assert q.dtype == np.int64 and q.shape == (3,) and q.sum() == n
        mk.checked_counts(q, (3,), 2)
    with pytest.raises(ValueError, match="cannot mask 3 more; only 2 revealed"):
        mk.mask_more(np.array([1, 2, 1]), 2, 3, rng)


def test_apply_mask_hides_suffix():
    tokens = np.array([[3, 1], [2, 2]])
    mask = mk.suffix_masks([1, 0], 2)
    masked = mk.apply_mask(tokens, mask)
    assert np.array_equal(masked, [[3, mk.MASK], [2, 2]])
    # the tokens left visible are exactly the mask's depth prefix
    assert np.array_equal(masked != mk.MASK, mask == 1)


def test_checked_counts_names_the_masked_counts():
    # the one check of the counts that reach the model and the loss
    q = mk.checked_counts([[0, 2], [1, 0]], (2, 2), 2)
    assert isinstance(q, np.ndarray) and q.tolist() == [[0, 2], [1, 0]]
    assert mk.checked_counts(np.zeros((0, 3), dtype=np.uint8), (0, 3), 2).shape == (0, 3)
    for bad, shape in (([0, 3], (2,)), ([-1, 0], (2,)), ([0, 1], (1, 2)),
                       ([[0, 1]], (2,)), ([0.0, 1.0], (2,)), ([True, False], (2,))):
        with pytest.raises(ValueError, match=r"masked counts must be \(.*\) integers in \[0, 2\]"):
            mk.checked_counts(np.array(bad), shape, 2)


def test_mask_draw_distribution_matches_forward_logprob():
    # empirical pmf of draws from a partially masked state agrees with
    # forward_step_logprob
    rng = np.random.default_rng(9)
    q = np.array([1, 0, 2])
    caps = 3 - q
    draws = mk.sample_counts_batch(np.broadcast_to(caps, (50_000, 3)), 3, rng)
    pmf = enumerate_pmf(list(caps), 3)
    for k, p in pmf.items():
        assert math.exp(mk.forward_step_logprob(k, q, 3)) == pytest.approx(float(p), rel=1e-10)
    assert empirical_tv(draws, pmf) < 0.015


# ---------------------------------------------------------------------------
# count transitions against the mask-first state they replaced

class MaskFirst:
    """The earlier state, kept as the oracle: the (L, D) mask is stored and
    checked at construction, and every count is summed from it on read."""

    def __init__(self, masked_counts, depth):
        q = np.asarray(masked_counts, dtype=np.int64)
        if np.any((q < 0) | (q > depth)):
            raise ValueError("masked counts must lie in [0, D]")
        self.mask = mk.suffix_masks(q, depth)
        assert_depth_suffix(self.mask)

    masked_counts = property(
        lambda self: self.mask.shape[1] - self.mask.sum(axis=1, dtype=np.int64))
    unmasked_counts = property(lambda self: self.mask.sum(axis=1, dtype=np.int64))
    n_total = property(lambda self: int(self.masked_counts.sum()))


def mask_first_transitions(D):
    """binary_mask, mask_more, binary_unmask and the confidence selection
    as the mask-first code wrote them, with the shipped signatures on
    counts: each builds the mask-first state at depth D from its input and
    returns its successor's masked counts."""
    def binary_mask(n, L, D, rng):
        return MaskFirst(mk.sample_counts(np.full(L, D, dtype=np.int64), n, rng),
                         D).masked_counts

    def mask_more(q, D, n_new, rng):
        s = MaskFirst(q, D)
        return MaskFirst(s.masked_counts + mk.sample_counts(s.unmasked_counts, n_new, rng),
                         D).masked_counts

    def binary_unmask(q, n_target, rng):
        s = MaskFirst(q, D)
        q = s.masked_counts
        return MaskFirst(q - mk.sample_counts(q, s.n_total - n_target, rng), D).masked_counts

    def select_unmask(q, n_target, scores, shared):
        s = MaskFirst(q, D)
        masked = s.mask == 0
        assert np.array_equal(shared, masked)   # the step's mask is q's
        eff = np.minimum.accumulate(np.where(masked, scores, np.inf), axis=1)
        eff = np.where(masked, eff, np.nan)
        picks = np.argsort(-eff.ravel(), kind="stable")[:s.n_total - n_target]
        return MaskFirst(s.masked_counts - np.bincount(picks // D, minlength=len(q)),
                         D).masked_counts

    return binary_mask, mask_more, binary_unmask, select_unmask


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_transitions_match_the_mask_first_state(L, D, seed, data):
    from rvqgen import sampler as smp

    n0 = data.draw(st.integers(0, L * D))
    n1 = data.draw(st.integers(0, L * D - n0))
    n2 = data.draw(st.integers(0, n0 + n1))
    n3 = data.draw(st.integers(0, n2))
    scores = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=L * D,
                                         max_size=L * D)), dtype=float).reshape(L, D)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    runs = []
    for (mask, more, unmask, select), r in (
            ((mk.binary_mask, mk.mask_more, mk.binary_unmask, smp.select_unmask), rng),
            (mask_first_transitions(D), ref_rng)):
        q0 = mask(n0, L, D, r)
        q1 = more(q0, D, n1, r)
        q2 = unmask(q1, n2, r)
        runs.append((q0, q1, q2, select(q2, n3, scores, mk.suffix_masks(q2, D) == 0)))
    for got, ref, n in zip(*runs, (n0, n0 + n1, n2, n3)):
        assert got.dtype == ref.dtype == np.int64 and got.shape == (L,)
        assert np.array_equal(got, ref) and got.sum() == n
    # the same draws in the same order: both streams end in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state
