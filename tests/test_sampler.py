"""Sampler tests: step-count independence, invariant preservation, the
tau=0 greedy limit, guidance scheduling, determinism, and the graph-free
model calls against the autodiff forward as oracle."""

import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqgen import masking as mk
from rvqgen import mog
from rvqgen import numerics as nm
from rvqgen import rvq
from rvqgen import sampler as smp
from rvqgen.backbone import Backbone, BackboneConfig

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_masking import numpy_int_counts  # noqa: E402
from test_rvq import oracle_quantize  # noqa: E402


def build(L=4, D=2, V=4, H=3, seed=0, **over):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(300, H))
    book = rvq.fit_codebook(vectors, depth=D, vocab=V, seed=seed)
    cfg = dict(seq_len=L, depth=D, vocab=V, latent_dim=H, width=16, layers=1,
               heads=2, mixtures=3, mean_rank=2, num_classes=2)
    cfg.update(over)
    model = Backbone(BackboneConfig(**cfg), seed=seed)
    return model, book


def test_config_validation():
    with pytest.raises(ValueError):
        smp.SamplerConfig(steps=0)
    with pytest.raises(ValueError):
        smp.SamplerConfig(temperature=-1.0)
    with pytest.raises(ValueError):
        smp.SamplerConfig(top_p=0.0)
    with pytest.raises(ValueError):
        smp.SamplerConfig(selection="greedy")
    # steps=2.5 once failed in `generate` with a schedule error, seed=1.5
    # in SeedSequence's TypeError, and steps=True ran one step
    for name, bad in (("steps", 2.5), ("steps", True), ("seed", 1.5), ("seed", False)):
        with pytest.raises(ValueError, match=rf"^{name}: {bad!r} is not an integer$"):
            smp.SamplerConfig(**{name: bad})


def test_presets_match_reference_table():
    p64 = smp.preset("paper-64")
    assert (p64.steps, p64.cfg_start, p64.cfg_end, p64.top_p, p64.temperature) \
        == (64, 0.02, 2.2, 0.98, 28.0)
    p28 = smp.preset("paper-28")
    assert (p28.steps, p28.cfg_end, p28.top_p) == (28, 2.4, 0.94)
    p48 = smp.preset("paper-48")
    assert (p48.steps, p48.cfg_end, p48.top_p) == (48, 2.4, 0.96)
    assert smp.SamplerConfig().steps == 63
    with pytest.raises(ValueError, match="preset"):
        smp.preset("paper-99")


def test_preset_overrides():
    p = smp.preset("paper-64", steps=8)
    assert p.steps == 8 and p.top_p == 0.98


def test_single_step_fills_grid():
    model, book = build()
    tokens, stats = smp.generate(model, book, 0, smp.SamplerConfig(steps=1),
                                 rng=np.random.default_rng(0))
    assert stats["forward_passes"] == 1
    assert np.all(tokens >= 1)


@pytest.mark.parametrize("D", [2, 4, 8])
def test_forward_passes_equal_steps(D):
    model, book = build(D=D, L=4)
    cfg = smp.SamplerConfig(steps=7, selection="random")
    _, stats = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(1))
    assert stats["forward_passes"] == 7


def test_forward_passes_double_with_cfg():
    model, book = build()
    cfg = smp.SamplerConfig(steps=5, use_cfg=True, cfg_start=0.02, cfg_end=2.0)
    _, stats = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(2))
    assert stats["forward_passes"] == 10


def test_cfg_weight_schedule_exact():
    cfg = smp.SamplerConfig(steps=5, cfg_start=0.02, cfg_end=2.2)
    ws = [smp.cfg_weight(cfg, t) for t in range(1, 6)]
    assert ws[0] == 0.02
    assert ws[-1] == 2.2
    expect = [0.02 + (t - 1) / 4 * (2.2 - 0.02) for t in range(1, 6)]
    assert np.allclose(ws, expect, atol=1e-15)
    one = smp.SamplerConfig(steps=1, cfg_start=0.5, cfg_end=9.9)
    assert smp.cfg_weight(one, 1) == 0.5


def test_generation_deterministic_by_seed():
    model, book = build()
    cfg = smp.SamplerConfig(steps=4, selection="confidence", temperature=2.0,
                            top_p=0.9)
    a, _ = smp.generate(model, book, 2, cfg, rng=np.random.default_rng(42))
    b, _ = smp.generate(model, book, 2, cfg, rng=np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_invariants_hold_with_validation():
    model, book = build(L=5, D=3)
    for sel in ("random", "confidence"):
        cfg = smp.SamplerConfig(steps=6, selection=sel, temperature=1.0)
        tokens, _ = smp.generate(model, book, 0, cfg,
                                 rng=np.random.default_rng(3), validate=True)
        assert np.all((tokens >= 1) & (tokens <= book.vocab))


def test_reference_scale_grid_in_63_steps():
    # an 8x8 spatial grid of 16-deep tokens fills in the default 63 steps
    model, book = build(L=64, D=16, V=8, H=4, width=16, num_classes=0)
    cfg = smp.SamplerConfig(selection="random", seed=1)
    assert cfg.steps == 63
    tokens, stats = smp.generate(model, book, 0, cfg,
                                 rng=np.random.default_rng(1))
    assert stats["forward_passes"] == 63
    assert tokens.shape == (64, 16)
    assert np.all((tokens >= 1) & (tokens <= 8))


def test_label_out_of_range_rejected():
    model, book = build()
    with pytest.raises(ValueError, match="label"):
        smp.generate(model, book, 9, smp.SamplerConfig(steps=2))


@pytest.mark.parametrize("bad", [1.5, 0.7, True, np.float64(1.0)])
def test_a_label_that_is_not_an_integer_is_named(bad):
    # 1.5 once ran as class 1, and 0.7 as the null label
    model, book = build()
    with pytest.raises(ValueError, match=rf"^label: {re.escape(repr(bad))} is not an integer$"):
        smp.generate(model, book, bad, smp.SamplerConfig(steps=2))
    assert model.forward_calls == 0


def test_geometry_mismatch_rejected():
    model, book = build(D=2)
    other = rvq.Codebook(np.zeros((3, 4, 3)), np.ones(3))
    with pytest.raises(ValueError, match="geometry"):
        smp.generate(model, other, 0, smp.SamplerConfig(steps=2))


# ---------------------------------------------------------------------------
# confidence scores and selection

def codeword_confidence(z, tokens, q, book, tau, rng):
    """The confidence scores from the token grid, as the sampler took them
    before it read `quantize`'s residual chain: every masked entry's
    codeword read back and subtracted from z again in one accumulate pass
    (a revealed entry subtracts +0.0). The oracle of the chain's scores."""
    z = np.asarray(z, dtype=np.float64)
    L, D = np.shape(tokens)
    masked = mk.suffix_masks(q, D) == 0
    gumbel = rng.gumbel(size=(L, D))
    rows = book.embeddings[np.arange(D), np.where(masked, tokens, 1) - 1]
    words = np.where(masked[..., None], rows, 0.0)                 # (L, D, H)
    res = np.subtract.accumulate(np.concatenate([z[:, None], words], axis=1),
                                 axis=1)[:, 1:]
    log_n = book.log_norm - np.add.reduce(res * res, axis=-1) / book.two_var
    cum = np.cumsum(np.where(masked, log_n, 0.0), axis=1)
    return np.where(masked, cum + tau * gumbel, -np.inf)


def own_mask_select_unmask(q, n_target, scores):
    """`select_unmask` as it was before the step shared one mask: the mask
    derived from q inside the call."""
    n_total = int(q.sum())
    L, D = np.shape(scores)
    masked = mk.suffix_masks(q, D) == 0
    eff = np.minimum.accumulate(np.where(masked, scores, np.inf), axis=1)
    eff = np.where(masked, eff, np.nan)
    picks = np.argsort(-eff.ravel(), kind="stable")[:n_total - n_target]
    return q - np.bincount(picks // D, minlength=L)


def scored_step(z, out, q, book, tau, rng):
    """A step's quantization and confidence scores as `generate` takes
    them: the chain from `quantize`, scored under the step's one mask.
    Returns (tokens, mask, scores, chain)."""
    L, D = np.shape(out)
    chain = np.full((L, D, book.dim), np.nan)    # every entry must be written
    tokens = rvq.quantize(z, book, start_depth=D - q, out=out, residuals=chain)
    masked = mk.suffix_masks(q, D) == 0
    scores = smp.confidence_scores(chain, masked, book, tau, rng.gumbel(size=(L, D)))
    return tokens, masked, scores, chain


def test_confidence_exact_hit_gets_max_density():
    # zero residual at depth j contributes the Gaussian mode density
    book = rvq.Codebook(np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.array([0.5]))
    z = np.array([[1.0, 0.0]])  # exactly codeword 1
    tokens, _, scores, _ = scored_step(z, np.array([[rvq.MASK]]), np.array([1]), book,
                                       0.0, np.random.default_rng(0))
    H, s2 = 2, 0.25
    assert tokens.tolist() == [[1]]
    assert scores[0, 0] == pytest.approx(-0.5 * H * np.log(2 * np.pi * s2), abs=1e-12)


def test_confidence_requires_sigma():
    # the codebook takes sigma = 0; the confidence scores refuse it
    book = rvq.Codebook(np.zeros((1, 2, 2)), np.array([0.0]))
    with pytest.raises(ValueError, match="sigma"):
        smp.confidence_scores(np.zeros((1, 1, 2)), np.ones((1, 1), dtype=bool),
                              book, 0.0, np.zeros((1, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_confidence_refuses_a_sigma_whose_variance_underflows():
    # 1e-200 is positive, but its 2 sigma^2 underflows to 0, which the
    # scores would divide by
    book = rvq.Codebook(np.zeros((1, 2, 2)), np.array([1e-200]))
    assert book.two_var[0] == 0.0
    with pytest.raises(ValueError, match="codebook sigma required for confidence"):
        smp.confidence_scores(np.zeros((1, 1, 2)), np.ones((1, 1), dtype=bool),
                              book, 0.0, np.zeros((1, 1)))


def test_tau_zero_selection_matches_greedy_oracle():
    model, book = build(L=6, D=3, V=5)
    rng = np.random.default_rng(7)
    q0 = np.array([3, 2, 3, 1, 3, 0])
    z = rng.normal(size=(6, book.dim))
    _, masked, scores, _ = scored_step(z, rng.integers(1, 6, size=(6, 3)), q0, book,
                                       0.0, rng)

    # oracle: repeatedly reveal the best-scoring frontier token
    u = 3 - q0
    q = q0.copy()
    order = []
    for _ in range(int(q.sum()) - 4):
        best, pos = -np.inf, -1
        for i in range(6):
            if q[i] > 0 and scores[i, u[i]] > best:
                best, pos = scores[i, u[i]], i
        order.append((pos, u[pos]))
        u[pos] += 1
        q[pos] -= 1
    oracle_counts = q

    got = smp.select_unmask(q0, 4, scores, masked)
    assert np.array_equal(got, oracle_counts)


def confidence_loop_oracle(z, tokens, q, book, tau, rng, dot=True):
    """Per-position, per-depth loop at masked counts q; dot=False squares
    the residual the way the vectorized pass does, so its scores must match
    bit for bit."""
    L, D = tokens.shape
    H = book.dim
    u = D - np.asarray(q)
    scores = np.full((L, D), -np.inf)
    gumbel = rng.gumbel(size=(L, D))
    for i in range(L):
        res = z[i].copy()
        cum = 0.0
        for j in range(int(u[i]) + 1, D + 1):
            res -= book.table(j)[tokens[i, j - 1] - 1]
            s2 = float(book.sigma[j - 1]) ** 2
            sq = res @ res if dot else (res * res).sum()
            cum += -0.5 * H * np.log(2 * np.pi * s2) - sq / (2 * s2)
            scores[i, j - 1] = cum + tau * gumbel[i, j - 1]
    return scores


def greedy_select_oracle(q, n_target, scores):
    """The greedy frontier loop from masked counts q: reveal the best
    shallowest-masked token, lowest position first among ties, one token at
    a time."""
    D = scores.shape[1]
    u = D - q
    q = q.copy()
    for _ in range(int(q.sum()) - n_target):
        frontier = np.where(q > 0, scores[np.arange(len(u)), np.minimum(u, D - 1)],
                            -np.inf)
        pos = int(np.argmax(frontier))
        u[pos] += 1
        q[pos] -= 1
    return q


@pytest.mark.parametrize("tau", [0.0, 28.0])
def test_confidence_scores_match_loop_oracle(tau):
    model, book = build(L=7, D=4, V=5, H=3)
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = rng.integers(0, 5, size=7)
        z = rng.normal(size=(7, 3)) * 2.0
        seed = int(rng.integers(1 << 30))
        tokens, masked, got, _ = scored_step(z, rng.integers(1, 6, size=(7, 4)), q, book,
                                             tau, np.random.default_rng(seed))
        same_sq = confidence_loop_oracle(z, tokens, q, book, tau,
                                         np.random.default_rng(seed), dot=False)
        assert np.array_equal(got, same_sq)      # residuals round identically
        dot = confidence_loop_oracle(z, tokens, q, book, tau,
                                     np.random.default_rng(seed))
        assert np.all(got[~masked] == -np.inf)
        np.testing.assert_allclose(got[masked], dot[masked], rtol=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
       st.sampled_from([0.0, 28.0]), st.integers(0, 2**32 - 1), st.data())
def test_chain_scores_equal_the_codeword_oracle(L, D, V, H, tau, seed, data):
    """Scores from `quantize`'s chain equal, bit for bit, the scores that
    read the codewords back from the tokens, over fully masked, partly
    revealed and fully revealed positions; and selection under the step's
    shared mask equals selection that derives its own."""
    q = np.array(data.draw(st.lists(st.integers(0, D), min_size=L, max_size=L)),
                 dtype=np.int64)
    rng = np.random.default_rng(seed)
    book = rvq.Codebook(rng.normal(size=(D, V, H)), rng.uniform(0.1, 2.0, size=D))
    z = rng.normal(size=(L, H)) * 10.0 ** rng.integers(-2, 3)
    out = rng.integers(1, V + 1, size=(L, D))       # the revealed tokens
    tokens, masked, scores, chain = scored_step(z, out, q, book, tau,
                                                np.random.default_rng(seed))
    want = codeword_confidence(z, tokens, q, book, tau, np.random.default_rng(seed))
    assert scores.tobytes() == want.tobytes()
    assert np.array_equal(tokens[~masked], out[~masked])
    # a revealed depth subtracted nothing: its chain entry is the draw
    assert chain[~masked].tobytes() == np.broadcast_to(z[:, None], chain.shape)[~masked].tobytes()
    n_target = data.draw(st.integers(0, int(q.sum())))
    got = smp.select_unmask(q, n_target, scores, masked)
    assert np.array_equal(got, own_mask_select_unmask(q, n_target, scores))
    assert got.sum() == n_target


@st.composite
def selection_cases(draw):
    L = draw(st.integers(1, 7))
    D = draw(st.integers(1, 4))
    q = np.array(draw(st.lists(st.integers(0, D), min_size=L, max_size=L)),
                 dtype=np.int64)
    # small integers make ties common
    scores = np.array(draw(st.lists(st.integers(-2, 2), min_size=L * D,
                                    max_size=L * D)), dtype=float).reshape(L, D)
    n_target = draw(st.integers(0, int(q.sum())))
    return q, n_target, scores


@settings(max_examples=400, deadline=None)
@given(selection_cases())
def test_vectorized_selection_equals_greedy_loop(case):
    q, n_target, scores = case
    got = smp.select_unmask(q, n_target, scores, mk.suffix_masks(q, scores.shape[1]) == 0)
    assert np.array_equal(got, greedy_select_oracle(q, n_target, scores))
    assert got.sum() == n_target


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 8),
       st.sampled_from(["random", "confidence"]), st.booleans(),
       st.sampled_from(["circle", "cosine", "exp"]), st.integers(0, 2**16))
def test_masked_total_follows_the_schedule(L, D, T, selection, use_cfg, schedule, seed):
    """After step t the masked total is min(mask_count(t/T), total before
    the step), with one reveal transition per step that lowers it and none
    on a step that leaves it, the grid ends fully revealed, and the model
    is called T times (2T with guidance)."""
    model, book = build(L=L, D=D, seed=seed % 7)
    cfg = smp.SamplerConfig(steps=T, schedule=schedule, selection=selection,
                            use_cfg=use_cfg, cfg_start=0.5, cfg_end=1.5)
    totals = []

    def recorded(transition):
        def run(q, n_target, *args):
            new = transition(q, n_target, *args)
            totals.append((int(q.sum()), int(new.sum())))
            return new
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mk, "binary_unmask", recorded(mk.binary_unmask))
        mp.setattr(smp, "select_unmask", recorded(smp.select_unmask))
        tokens, stats = smp.generate(model, book, 1, cfg,
                                     rng=np.random.default_rng(seed), validate=True)
    sched = mk.parse_schedule(schedule)
    prev, want = L * D, []
    for t in range(1, T + 1):
        after = min(mk.mask_count(sched, t / T, L, D), prev)
        if after < prev:
            want.append((prev, after))
        prev = after
    assert totals == want
    assert prev == 0 and np.all((tokens >= 1) & (tokens <= book.vocab))
    assert stats["forward_passes"] == T * (2 if use_cfg else 1)


def test_dominant_position_reveals_first():
    # one position scores strictly higher at every depth
    model, book = build(L=2, D=2)
    scores = np.array([[10.0, 9.0], [1.0, 0.5]])
    q = np.array([2, 2])
    out = smp.select_unmask(q, 2, scores, mk.suffix_masks(q, 2) == 0)
    assert np.array_equal(out, [0, 2])


def test_select_noop_and_reject():
    model, book = build()
    q = np.array([2, 1, 0, 2])
    masked = mk.suffix_masks(q, 2) == 0
    same = smp.select_unmask(q, 5, np.zeros((4, 2)), masked)
    assert np.array_equal(same, q)
    with pytest.raises(ValueError, match="n_target=9 exceeds masked count 5"):
        smp.select_unmask(q, 9, np.zeros((4, 2)), masked)


def test_revealed_tokens_never_change_over_run():
    model, book = build(L=5, D=3)
    trace = []
    cfg = smp.SamplerConfig(steps=5, selection="confidence", temperature=28.0,
                            top_p=0.94)
    tokens, _ = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(9),
                             validate=True)  # validate raises on revision
    trace.append(tokens)
    assert np.all(tokens >= 1)


# ---------------------------------------------------------------------------
# graph-free model calls: the autodiff forward stays as the oracle

def trained_like(L=5, D=3, seed=0, **over):
    """A model whose heads carry signal (random offsets on every
    parameter, small on the scale head so draws stay finite)."""
    model, book = build(L=L, D=D, seed=seed, **over)
    rng = np.random.default_rng(seed + 100)
    for name, p in model.params.items():
        scale = 0.05 if name.startswith("head.scale") else 0.3
        p.data = p.data + scale * rng.normal(size=p.data.shape)
    return model, book


def autodiff_forward(monkeypatch):
    """Route every sampler model call through the autodiff ops: the weights
    the sampler binds are the autodiff pair, its conditioning rows are the
    autodiff rows' arrays, and each call's head outputs come back as
    arrays. Returns the `grad` each `weights` call asked for."""
    weights, condition, forward = Backbone.weights, Backbone.condition, Backbone.forward
    seen = []

    def graph_weights(self, grad):
        seen.append(grad)
        return weights(self, True)

    def graph_condition(self, *args):
        return condition(self, *args).data

    def graph_forward(self, *args):
        out = forward(self, *args)
        return mog.MoGParams(**{k: v.data for k, v in vars(out).items()})

    monkeypatch.setattr(Backbone, "weights", graph_weights)
    monkeypatch.setattr(Backbone, "condition", graph_condition)
    monkeypatch.setattr(Backbone, "forward", graph_forward)
    return seen


@pytest.mark.parametrize("cfg", [
    smp.SamplerConfig(steps=6, selection="random"),
    smp.SamplerConfig(steps=6, selection="confidence", temperature=2.0),
    smp.SamplerConfig(steps=6, selection="confidence", temperature=28.0,
                      top_p=0.9, use_cfg=True, cfg_start=0.02, cfg_end=2.4),
], ids=["random", "confidence", "cfg-top_p"])
def test_generate_matches_autodiff_forward_oracle(monkeypatch, cfg):
    model, book = trained_like()
    runs = []
    for seed in range(4):
        runs.append(smp.generate(model, book, 1 + seed % 2, cfg,
                                 rng=np.random.default_rng(seed))[0])
    seen = autodiff_forward(monkeypatch)
    for seed in range(4):
        oracle, stats = smp.generate(model, book, 1 + seed % 2, cfg,
                                     rng=np.random.default_rng(seed))
        assert np.array_equal(runs[seed], oracle), seed
        assert stats["forward_passes"] == cfg.steps * (2 if cfg.use_cfg else 1)
    # the sampler asked for the graph-free path, once per grid: every
    # embedding and model call ran on those weights
    assert len(seen) == 4 and not any(seen)


def test_generate_builds_no_autodiff_tensors(monkeypatch):
    model, book = trained_like()
    made = []
    init = nm.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
    for cfg in (smp.SamplerConfig(steps=4, selection="random"),
                smp.preset("paper-28", steps=4)):
        smp.generate(model, book, 1, cfg, rng=np.random.default_rng(0),
                     validate=True)
    assert made == []
    # the guard is live: an autodiff forward does construct Tensors
    q = mk.binary_mask(2, 5, 3, np.random.default_rng(0))
    w = model.weights(True)
    model.forward(model.embed_input(np.ones((5, 3), dtype=np.int64), q, book, w),
                  model.condition([1], [0.5], w), w)
    assert made


# ---------------------------------------------------------------------------
# the lean step against a reference step built the slow way

def reference_generate(model, book, label, config, rng):
    """`generate` as per-step pieces: a scalar `mask_count` call per step,
    z built and quantized on every step (with the boolean-gather
    `oracle_quantize`), confidence scores from the
    per-depth loop (sigma terms computed afresh), and random reveals from
    the numpy-int hypergeometric loop. Each model call binds the weights,
    embeds the grid and builds its one-step conditioning rows afresh.
    Returns the final token grid."""
    c = model.config
    L, D, T = c.seq_len, c.depth, config.steps
    schedule = mk.parse_schedule(config.schedule)
    tokens = np.full((L, D), rvq.MASK, dtype=np.int64)
    q = np.full(L, D, dtype=np.int64)
    for t in range(1, T + 1):
        # MASK at the hidden entries, which the model must not read anyway
        visible = mk.apply_mask(tokens, mk.suffix_masks(q, D))
        w = model.weights(False)
        params = model.forward(model.embed_input(visible, q, book, w),
                               model.condition([label], [(t - 1) / T], w), w)
        if config.use_cfg:
            w = model.weights(False)
            uncond = model.forward(model.embed_input(visible, q, book, w),
                                   model.condition([0], [(t - 1) / T], w), w)
            params = mog.cfg_combine(params, uncond, smp.cfg_weight(config, t))
        # z built and quantized on every step, revealing or not
        z = mog.sample(params, *mog.draw(params, rng), top_p=config.top_p)
        tokens = oracle_quantize(z, book, start_depth=D - q,
                                 out=tokens)
        n_target = min(mk.mask_count(schedule, t / T, L, D), int(q.sum()))
        if config.selection == "confidence":
            scores = confidence_loop_oracle(z, tokens, q, book,
                                            config.temperature, rng, dot=False)
            q = own_mask_select_unmask(q, n_target, scores)
        else:
            q = q - numpy_int_counts(q, int(q.sum()) - n_target, rng)
    assert q.sum() == 0
    return tokens


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(2, 6),
       st.sampled_from(["random", "confidence"]), st.booleans(),
       st.sampled_from(["circle", "cosine", "exp", "exp:2.5"]),
       st.sampled_from([0.9, 1.0]), st.integers(0, 2**16), st.data())
def test_generate_matches_the_reference_step(L, D, V, selection, use_cfg,
                                             schedule, top_p, seed, data):
    # up to 2 L D steps, so runs with many steps that reveal nothing occur
    T = data.draw(st.integers(1, 2 * L * D), label="T")
    model, book = trained_like(L=L, D=D, V=V, seed=seed % 5)
    cfg = smp.SamplerConfig(steps=T, schedule=schedule, selection=selection,
                            temperature=2.0, top_p=top_p, use_cfg=use_cfg,
                            cfg_start=0.5, cfg_end=1.5)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tokens, stats = smp.generate(model, book, 1, cfg, rng=rng, validate=True)
    assert stats["forward_passes"] == T * (2 if use_cfg else 1)
    want = reference_generate(model, book, 1, cfg, ref_rng)
    assert np.array_equal(tokens, want)
    # the same draws, in the same order, left the stream where it was
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def revealing_steps(config, L, D):
    """The 1-based steps of a T-step run whose schedule target lowers the
    masked total."""
    targets = mk.mask_count(mk.parse_schedule(config.schedule),
                            np.arange(1, config.steps + 1) / config.steps, L, D)
    prev, steps = L * D, []
    for t, n in enumerate(targets.tolist(), start=1):
        if n < prev:
            steps.append(t)
        prev = min(n, prev)
    return steps


@pytest.mark.parametrize("cfg, forwards", [
    (smp.SamplerConfig(steps=6, selection="random"), 6),
    (smp.preset("paper-28", steps=6), 12),
], ids=["random", "paper-28"])
def test_a_step_embeds_its_grid_once(monkeypatch, cfg, forwards):
    model, book = trained_like()
    calls, embedded = [], []

    def counted(name):
        method = getattr(Backbone, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            if name == "embed_input":
                embedded.append(np.array(args[1]))
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("weights", "condition", "embed_input", "forward"):
        monkeypatch.setattr(Backbone, name, counted(name))
    rng = np.random.default_rng(5)
    tokens, stats = smp.generate(model, book, 1, cfg, rng=rng)
    # once per grid: the weights, then every step's conditioning rows for
    # the label and, with guidance, for the null label; each step: its one
    # or two model calls, after one embedding when the masked counts
    # differ from the last step's (the first step, and each one after a
    # step that revealed)
    revealing = revealing_steps(cfg, *tokens.shape)
    assert 0 < len(revealing) < cfg.steps      # both kinds of step occur
    model_calls = ["forward"] * (forwards // cfg.steps)
    per_grid = ["weights"] + ["condition"] * (forwards // cfg.steps)
    steps = [["embed_input"] * (t == 1 or t - 1 in revealing) + model_calls
             for t in range(1, cfg.steps + 1)]
    assert calls == per_grid + sum(steps, [])
    # one embedding per distinct masked state
    assert len({q.tobytes() for q in embedded}) == len(embedded)
    assert stats["forward_passes"] == forwards
    # a model call that embeds afresh reads the same bits
    monkeypatch.undo()
    ref_rng = np.random.default_rng(5)
    assert np.array_equal(tokens, reference_generate(model, book, 1, cfg, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("cfg", [smp.SamplerConfig(steps=32, selection="random"),
                                 smp.SamplerConfig(steps=32, temperature=28.0),
                                 smp.preset("paper-28")],
                         ids=["random", "confidence", "paper-28"])
def test_a_step_that_reveals_nothing_stops_after_its_draws(monkeypatch, cfg):
    """At L = 8, D = 4 the circle schedule leaves nothing to reveal on 14 of
    32 steps (11 of 28): such a step makes its model calls and its draws,
    and neither builds z, quantizes, scores nor calls a reveal transition."""
    model, book = trained_like(L=8, D=4)
    events = []

    def spied(module, name):
        fn = getattr(module, name)

        def run(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    spied(mog, "draw")
    spied(mog, "sample")
    spied(rvq, "quantize")
    spied(smp, "confidence_scores")
    spied(smp, "select_unmask")
    spied(mk, "binary_unmask")
    rng = np.random.default_rng(11)
    tokens, stats = smp.generate(model, book, 1, cfg, rng=rng, validate=True)
    revealing = revealing_steps(cfg, 8, 4)
    assert cfg.steps - len(revealing) == {32: 14, 28: 11}[cfg.steps]
    reveal = (["sample", "quantize", "confidence_scores", "select_unmask"]
              if cfg.selection == "confidence" else ["sample", "quantize", "binary_unmask"])
    want = sum((["draw"] + reveal * (t in revealing)
                for t in range(1, cfg.steps + 1)), [])
    assert events == want
    assert stats["forward_passes"] == cfg.steps * (2 if cfg.use_cfg else 1)
    monkeypatch.undo()
    ref_rng = np.random.default_rng(11)
    assert np.array_equal(tokens, reference_generate(model, book, 1, cfg, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("use_cfg", [False, True], ids=["plain", "guided"])
def test_a_non_finite_head_output_on_a_step_that_reveals_nothing_raises(monkeypatch,
                                                                       use_cfg):
    model, book = trained_like(L=8, D=4)
    cfg = smp.SamplerConfig(steps=32, use_cfg=use_cfg, cfg_start=0.5, cfg_end=1.5)
    assert 1 not in revealing_steps(cfg, 8, 4)
    forward = Backbone.forward

    def poisoned(self, *args):
        out = forward(self, *args)
        return mog.MoGParams(**{**vars(out), "shift": np.full_like(out.shift, np.nan)})

    monkeypatch.setattr(Backbone, "forward", poisoned)
    before = model.forward_calls
    with pytest.raises(ValueError, match="mog.sample: non-finite head outputs"):
        smp.generate(model, book, 1, cfg, rng=np.random.default_rng(0))
    assert model.forward_calls - before == (2 if use_cfg else 1)


def test_a_codebook_without_sigma_fails_before_the_first_model_call():
    model, book = build(L=8, D=4)
    flat = rvq.Codebook(book.embeddings, np.zeros(4))
    with pytest.raises(ValueError, match="codebook sigma required for confidence"):
        smp.generate(model, flat, 1, smp.SamplerConfig(steps=32))
    assert model.forward_calls == 0
    # random reveals read no sigma
    cfg = smp.SamplerConfig(steps=32, selection="random")
    assert smp.generate(model, flat, 1, cfg)[1]["forward_passes"] == 32


@pytest.mark.parametrize("cfg", [smp.SamplerConfig(steps=6, selection="random"),
                                 smp.preset("paper-28", steps=6)],
                         ids=["random", "paper-28"])
def test_a_grid_reads_the_parameters_as_they_are_when_it_starts(cfg):
    # the weights are bound once per grid, not once per model: a parameter
    # changed between two grids shows in the second, rebound or in place
    model, book = trained_like()
    first = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(3))[0]
    assert np.array_equal(first, smp.generate(model, book, 1, cfg,
                                              rng=np.random.default_rng(3))[0])
    shift = model.params["head.shift.b"]
    shift.data = shift.data + 3.0
    rebound = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(3))[0]
    assert not np.array_equal(first, rebound)
    shift.data -= 6.0
    in_place = smp.generate(model, book, 1, cfg, rng=np.random.default_rng(3))[0]
    assert not np.array_equal(rebound, in_place)
    assert np.array_equal(in_place, reference_generate(model, book, 1, cfg,
                                                       np.random.default_rng(3)))


@pytest.mark.parametrize("spec", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["temperature", "cfg_start", "cfg_end"])
def test_config_rejects_non_finite_values(field, spec):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        smp.SamplerConfig(**{field: float(spec)})
