"""Training-loop tests: target construction, the flat AdamW/EMA state
against a per-tensor oracle, null updates, convergence on a degenerate
dataset, gradient hygiene, and the VLB diagnostics."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from rvqgen import data
from rvqgen import masking as mk
from rvqgen import mog
from rvqgen import numerics as nm
from rvqgen import rvq
from rvqgen import trainer as tnr
from rvqgen.backbone import Backbone, BackboneConfig


def toy_setup(seed=0, n=64, L=4, D=2, V=4, H=3, **model_over):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, L, H))
    book = rvq.fit_codebook(vectors.reshape(-1, H), depth=D, vocab=V, seed=seed)
    grids = np.stack([rvq.quantize(v, book) for v in vectors])
    cfg = dict(seq_len=L, depth=D, vocab=V, latent_dim=H, width=16, layers=1,
               heads=2, mixtures=3, mean_rank=2)
    cfg.update(model_over)
    model = Backbone(BackboneConfig(**cfg), seed=seed)
    return model, book, grids


# ---------------------------------------------------------------------------
# masked_targets (the batched targets masked_loss uses)

def test_empty_mask_gives_no_targets():
    model, book, grids = toy_setup()
    q = np.zeros(grids.shape[1], dtype=np.int64)
    z, included = tnr.masked_targets(grids[:1], q[None], book)
    assert not included.any()
    sur, nll, n_sel, _ = tnr.masked_loss(model, book, grids[:1], q[None], [0], [1.0])
    assert n_sel == 0 and float(sur.data) == 0.0


def test_fully_masked_target_is_reconstruction():
    model, book, grids = toy_setup()
    q = np.full(grids.shape[1], grids.shape[2])
    z, included = tnr.masked_targets(grids[:1], q[None], book)
    assert included.all()
    assert np.allclose(z[0], rvq.dequantize(grids[0], book), atol=1e-12)


def test_target_partitions_full_reconstruction():
    model, book, grids = toy_setup()
    L, D = grids[0].shape
    q = mk.binary_mask(5, L, D, np.random.default_rng(3))
    z_masked = tnr.masked_targets(grids[:1], q[None], book)[0][0]
    z_visible = rvq.dequantize(grids[0], book, keep=mk.suffix_masks(q, D) == 1)
    full = rvq.dequantize(grids[0], book)
    assert np.max(np.abs(z_visible + z_masked - full)) < 1e-12


@pytest.mark.parametrize("bad", ["mask", "too few positions", "below 0", "above D"])
def test_bad_masked_counts_are_named_by_the_loss(bad):
    # a (B, L, D) mask once ended in an unnamed numpy broadcast error here
    model, book, grids = toy_setup()
    B, L, D = 2, grids.shape[1], grids.shape[2]
    q = {"mask": np.ones((B, L, D), dtype=np.int8),
         "too few positions": np.zeros((B, L - 1), dtype=np.int64),
         "below 0": np.full((B, L), -1), "above D": np.full((B, L), D + 1)}[bad]
    for call in (lambda: tnr.masked_targets(grids[:B], q, book),
                 lambda: tnr.masked_loss(model, book, grids[:B], q, [0] * B, [0.5] * B)):
        with pytest.raises(ValueError, match=rf"masked counts must be .* in \[0, {D}\]"):
            call()
    assert model.forward_calls == 0


def test_config_counts_must_be_integers():
    # steps 4.5 or batch_size 2.0 once ended in a TypeError mid-run
    for name in ("steps", "batch_size", "warmup", "seed", "checkpoint_every"):
        for bad in (2.0, 4.5, True):
            with pytest.raises(ValueError, match=rf"^{name}: {bad!r} is not an integer$"):
                tnr.TrainConfig(**{name: bad})
    for bad in ((1, 2.0), (False,)):
        with pytest.raises(ValueError, match=r"^audit_steps: .* is not an integer$"):
            tnr.TrainConfig(audit_steps=bad)
    assert tnr.TrainConfig(steps=np.int64(3), audit_steps=[0, 2]).steps == 3


def test_config_rejects_adamw_betas_outside_unit_interval():
    # beta = 1 zeroes the bias correction 1 - beta**t that the update divides by
    for name in ("beta1", "beta2"):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\), got {bad}"):
                tnr.TrainConfig(**{name: bad})
        tnr.TrainConfig(**{name: 0.0})
    with pytest.raises(ValueError, match="min_lr_frac"):
        tnr.TrainConfig(min_lr_frac=-1)


# ---------------------------------------------------------------------------
# flat optimizer state against a per-tensor oracle


class PerTensorOracle:
    """Clip, AdamW and EMA one tensor at a time on {name: array} state: the
    loop that `Trainer`'s flat buffers replace. It draws batches and
    losses through the trainer it is given, so both see the same data."""

    def __init__(self, tr):
        self.tr = tr
        params = sorted(tr.model.params.items())
        self.m = {k: np.zeros_like(p.data) for k, p in params}
        self.v = {k: np.zeros_like(p.data) for k, p in params}
        self.ema = {k: p.data.copy() for k, p in params}

    def step(self):
        tr, c = self.tr, self.tr.config
        idx, ratios, q, labels = tr._draw_batch()
        sur, nll, n_sel, _ = tnr.masked_loss(tr.model, tr.book, tr.grids[idx], q,
                                             labels, ratios, c.differentiate_q)
        if n_sel > 0:
            g = nm.grads(sur, tr.model.params)
            if c.clip_norm > 0:
                # one dot product over the gradients in sorted-name order
                flat = np.concatenate([g[k].reshape(-1) for k in sorted(g)])
                total = np.sqrt(flat @ flat)
                if total > c.clip_norm:
                    scale = c.clip_norm / total
                    g = {k: gk * scale for k, gk in g.items()}
            t = tr.step_count + 1
            lr = tr._learning_rate(t)
            bc1, bc2 = 1.0 - c.beta1**t, 1.0 - c.beta2**t
            for k in sorted(tr.model.params):
                p, m, v = tr.model.params[k], self.m[k], self.v[k]
                m *= c.beta1
                m += (1 - c.beta1) * g[k]
                v *= c.beta2
                v += (1 - c.beta2) * (g[k] * g[k])
                if lr == 0.0:
                    continue
                upd = m / bc1
                upd /= np.sqrt(v / bc2) + c.eps
                if c.weight_decay:
                    upd += c.weight_decay * p.data
                p.data = p.data - lr * upd
        tr.step_count += 1
        for k, p in tr.model.params.items():
            self.ema[k] = c.ema_decay * self.ema[k] + (1.0 - c.ema_decay) * p.data
        return float(sur.data), float(sur.data - nll.data)


def _same(a, b):
    return sorted(a) == sorted(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


def oracle_trainer(**over):
    model, book, grids = toy_setup(seed=21)
    cfg = tnr.TrainConfig(steps=30, batch_size=4, warmup=5, seed=21,
                          audit_steps=(), **over)
    return tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)


@pytest.mark.parametrize("over", [
    dict(weight_decay=0.01, clip_norm=0.05, lr=3e-3),   # clipping every step
    dict(weight_decay=0.01, clip_norm=3.0, lr=3e-3),    # clipping now and then
    dict(lr=0.0),
    dict(clip_norm=0.0, lr=1e-2, differentiate_q=True),
    dict(beta1=0.1, lr=3e-3)])           # 1 - beta1**t rounds to 1.0 from step 17
def test_flat_state_matches_per_tensor_oracle(over):
    tr, ref_tr = oracle_trainer(**over), oracle_trainer(**over)
    ref = PerTensorOracle(ref_tr)
    init = tr.model.parameter_arrays()
    noise = np.random.default_rng(22)
    for i in range(30):
        if i == 10:   # outside writers assign the optimizer dicts ...
            for name in ("opt_m", "opt_v", "ema"):
                state = {k: a * 1.25 for k, a in getattr(tr, name).items()}
                setattr(tr, name, state)
                setattr(ref, {"opt_m": "m", "opt_v": "v", "ema": "ema"}[name],
                        {k: a.copy() for k, a in state.items()})
        if i == 20:   # ... and rebind p.data
            for k in sorted(tr.model.params):
                new = tr.model.params[k].data + 1e-3 * noise.normal(
                    size=tr.model.params[k].shape)
                tr.model.params[k].data = new
                ref_tr.model.params[k].data = new.copy()
        rec = tr.step()
        loss, gap = ref.step()
        assert (rec["loss"], rec["gap"]) == (loss, gap), i
        assert _same(tr.model.parameter_arrays(), ref_tr.model.parameter_arrays()), i
        assert _same(tr.opt_m, ref.m) and _same(tr.opt_v, ref.v), i
        assert _same(tr.ema, ref.ema), i
        if over.get("lr") == 0.0 and i < 20:   # bitwise null update
            assert _same(tr.model.parameter_arrays(), init), i
    assert tr.rng.bit_generator.state == ref_tr.rng.bit_generator.state


def test_parameters_stay_views_of_the_flat_buffer_across_steps():
    tr = oracle_trainer(weight_decay=0.01, lr=3e-3)
    held = {k: p.data for k, p in tr.model.params.items()}
    snap = tr.model.parameter_arrays()
    for _ in range(5):
        tr.step()
        # updated in place: no parameter is re-pointed by a step
        assert all(tr.model.params[k].data is held[k] for k in held)
    assert all(np.shares_memory(a, tr._p) for a in held.values())
    # a reference held across the steps sees the update; a snapshot does not
    assert not _same(held, snap)
    assert _same(held, tr.model.parameter_arrays())


@pytest.mark.parametrize("rebind", ["load_arrays", "non_contiguous"])
def test_rebound_parameters_are_copied_in_and_match_the_oracle(rebind):
    over = dict(weight_decay=0.01, clip_norm=0.05, lr=3e-3)
    tr, ref_tr = oracle_trainer(**over), oracle_trainer(**over)
    ref = PerTensorOracle(ref_tr)
    noise = np.random.default_rng(23)
    for i in range(12):
        if i in (4, 9):
            new = {k: p.data + 1e-3 * noise.normal(size=p.shape)
                   for k, p in sorted(tr.model.params.items())}
            if rebind == "load_arrays":
                tr.model.load_arrays(new)
            else:
                for k, p in tr.model.params.items():
                    wide = np.zeros(p.shape + (2,))
                    wide[..., 0] = new[k]
                    p.data = wide[..., 0]        # strided view of the values
                assert not tr.model.params["embed.w"].data.flags.c_contiguous
            ref_tr.model.load_arrays(new)
        rec = tr.step()
        loss, gap = ref.step()
        assert (rec["loss"], rec["gap"]) == (loss, gap), i
        assert _same(tr.model.parameter_arrays(), ref_tr.model.parameter_arrays()), i
        assert _same(tr.opt_m, ref.m) and _same(tr.opt_v, ref.v), i
        assert _same(tr.ema, ref.ema), i
        # the step pointed every parameter back at its view
        assert all(np.shares_memory(p.data, tr._p) for p in tr.model.params.values())


def test_rebinding_to_a_wrong_shape_is_refused():
    tr = oracle_trainer()
    tr.step()
    tr.model.params["embed.b"].data = np.zeros(3)
    with pytest.raises(ValueError, match="embed.b: shape"):
        tr.step()


def test_optimizer_state_rejects_wrong_shapes():
    model, book, grids = toy_setup()
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64),
                     tnr.TrainConfig(steps=1, audit_steps=()))
    bad = {k: np.zeros(a.size + 1) for k, a in tr.opt_m.items()}
    with pytest.raises(ValueError, match="shape"):
        tr.opt_m = bad


# ---------------------------------------------------------------------------
# stepping

def test_zero_learning_rate_is_bitwise_noop():
    model, book, grids = toy_setup()
    cfg = tnr.TrainConfig(steps=3, batch_size=4, lr=0.0, seed=1, audit_steps=())
    before = model.parameter_arrays()
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    for _ in range(3):
        tr.step()
    after = model.parameter_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_single_sample_converges_to_gaussian_floor():
    # one record, V=1, D=1: the head can put its single mean exactly on the
    # single target, so the loss approaches (H/2) log(2*pi)
    H = 2
    target = np.array([[0.8, -0.4], [0.1, 0.9]])   # L=2 positions
    book = rvq.Codebook(target.mean(axis=0)[None, None, :].repeat(1, axis=1),
                        np.array([1.0]))
    grids = np.ones((1, 2, 1), dtype=np.int64)
    model = Backbone(BackboneConfig(seq_len=2, depth=1, vocab=1, latent_dim=H, width=16, layers=1,
                                    heads=2, mixtures=1, mean_rank=2), seed=0)
    cfg = tnr.TrainConfig(steps=500, batch_size=4, lr=3e-3, warmup=20, seed=0,
                          audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(1, dtype=np.int64), cfg)
    losses = [tr.step()["loss"] for _ in range(500)]
    floor = (H / 2) * np.log(2 * np.pi)
    # the fixed-scale closed-form optimum is reached inside the budget;
    # training then keeps shrinking the learnable scale (the point-target
    # NLL is unbounded below), so only the upper bound is contractual
    assert min(losses) < floor + 0.15
    assert np.mean(losses[-50:]) < floor + 0.15


def test_loss_decreases_on_average():
    model, book, grids = toy_setup(n=128)
    cfg = tnr.TrainConfig(steps=400, batch_size=8, lr=1e-3, warmup=20, seed=2,
                          audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    losses = [tr.step()["loss"] for _ in range(400)]
    assert np.mean(losses[-100:]) < np.mean(losses[:100])


def test_training_is_reproducible():
    def run():
        model, book, grids = toy_setup(seed=4)
        cfg = tnr.TrainConfig(steps=20, batch_size=4, seed=4, audit_steps=())
        tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
        for _ in range(20):
            tr.step()
        return model.parameter_arrays(), tr.ema

    (pa, ea), (pb, eb) = run(), run()
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    assert all(np.array_equal(ea[k], eb[k]) for k in ea)


def test_gap_is_logged_and_nonnegative():
    model, book, grids = toy_setup()
    cfg = tnr.TrainConfig(steps=10, batch_size=4, seed=5, audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    for _ in range(10):
        rec = tr.step()
        assert rec["gap"] >= -1e-9
    line = tnr.format_record(rec)
    assert "step=" in line and "gap=" in line and "loss=" in line


def test_no_gradient_leak_to_excluded_positions():
    model, book, grids = toy_setup()
    # perturb the zero-initialized heads: at exact zero init q == pi and the
    # logits gradient vanishes identically, hiding a would-be leak
    rng = np.random.default_rng(99)
    for name in ("head.logits.w", "head.means.w", "head.scale.w", "head.shift.w"):
        p = model.params[name]
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    L, D = grids[0].shape
    # mask only position 0; positions 1..L-1 contribute nothing
    counts = np.array([D] + [0] * (L - 1))
    sur, _, n_sel, out = tnr.masked_loss(model, book, grids[:1], counts[None], [0], [0.5])
    assert n_sel == 1
    nm.backward(sur)
    assert out.logits.grad is not None
    assert np.all(out.logits.grad[1:] == 0.0)      # head rows of grid 0
    assert np.any(out.logits.grad[0] != 0.0)
    assert np.all(out.means.grad[1:] == 0.0)


def test_audit_passes_at_init():
    model, book, grids = toy_setup()
    cfg = tnr.TrainConfig(steps=1, batch_size=2, seed=6, audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    assert tr.audit(entries_per_tensor=2) < 1e-4


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_loss_aborts_with_diagnostic():
    model, book, grids = toy_setup()
    model.params["head.scale.b"].data = np.array([1e308])
    cfg = tnr.TrainConfig(steps=1, batch_size=2, seed=7, audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    with pytest.raises(RuntimeError, match="non-finite"):
        tr.step()


# ---------------------------------------------------------------------------
# simplified loss

def test_simple_loss_zero_when_mask_empty():
    model, book, grids = toy_setup()
    q = np.zeros(grids.shape[1], dtype=np.int64)
    sur, nll, n_sel, _ = tnr.masked_loss(model, book, grids[:1], q[None], [0],
                                         [1.0 - 1 / 8])
    assert float(sur.data) == 0.0 and float(nll.data) == 0.0 and n_sel == 0


def test_simple_loss_monotone_in_corruption_after_training():
    model, book, grids = toy_setup(n=128)
    cfg = tnr.TrainConfig(steps=300, batch_size=8, lr=1e-3, warmup=20, seed=9,
                          audit_steps=())
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    for _ in range(300):
        tr.step()
    schedule = mk.parse_schedule("circle")
    rng = np.random.default_rng(10)
    T = 8
    heavy, light = [], []
    for i in range(60):
        g = grids[i % len(grids)]
        # the per-step loss at t: a schedule-drawn mask at ratio 1 - t/T
        for t, losses in ((T - 1, heavy), (1, light)):
            n = mk.mask_count(schedule, 1.0 - t / T, *g.shape)
            q = mk.binary_mask(n, *g.shape, rng)
            sur, _, _, _ = tnr.masked_loss(model, book, g[None], q[None], [0],
                                           [1.0 - t / T])
            losses.append(float(sur.data))
    assert np.mean(heavy) > np.mean(light) - 0.05


# ---------------------------------------------------------------------------
# VLB diagnostics

def test_vlb_prior_term_exactly_zero():
    model, book, grids = toy_setup()
    terms = tnr.vlb_diagnostic(grids[0], model, book, T=4,
                               schedule=mk.parse_schedule("circle"),
                               rng=np.random.default_rng(11))
    assert terms["L_T"] == 0.0


def test_vlb_terms_nonnegative():
    model, book, grids = toy_setup()
    terms = tnr.vlb_diagnostic(grids[0], model, book, T=4,
                               schedule=mk.parse_schedule("circle"),
                               rng=np.random.default_rng(12), model_samples=6)
    assert all(v >= 0 for v in terms["L_t"])
    assert terms["L_0"] >= 0


def test_vlb_perfect_model_reconstruction_term_zero():
    # V=1 codebook: every candidate reconstruction is the data grid, so the
    # reverse model is exact and every term collapses to zero
    H = 2
    book = rvq.Codebook(np.array([[[0.3, -0.2]]]), np.array([1.0]))
    grid = np.ones((3, 1), dtype=np.int64)
    model = Backbone(BackboneConfig(seq_len=3, depth=1, vocab=1, latent_dim=H, width=8, layers=1,
                                    heads=2, mixtures=1, mean_rank=1), seed=0)
    terms = tnr.vlb_diagnostic(grid, model, book, T=3,
                               schedule=mk.parse_schedule("circle"),
                               rng=np.random.default_rng(13), model_samples=4)
    assert terms["L_0"] == 0.0
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in terms["L_t"])


def autodiff_reconstructions(model, book, tokens, q, label, ratio, rng, samples):
    """`_model_reconstructions` on the autodiff forward, flattening the head
    outputs through `gather_params` as the loss path does."""
    w = model.weights(True)
    out = model.forward(model.embed_input(tokens, q, book, w),
                        model.condition([label], [ratio], w), w)
    flat = tnr.gather_params(out, np.arange(tokens.shape[0]))
    params = mog.MoGParams(flat.logits.data, flat.means.data,
                           flat.log_scale.data.reshape(-1), flat.shift.data,
                           flat.M.data, flat.s.data)
    start = book.depth - q
    return np.stack([rvq.quantize(mog.sample(params, *mog.draw(params, rng)), book,
                                  start_depth=start, out=tokens) for _ in range(samples)])


def test_vlb_terms_match_autodiff_forward_oracle(monkeypatch):
    # the reconstructions use the graph-free forward; the autodiff oracle
    # must not move a single term
    model, book, grids = toy_setup()
    rng = np.random.default_rng(21)
    for p in model.params.values():
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    schedule = mk.parse_schedule("circle")

    def terms_at(seed):
        return tnr.vlb_diagnostic(grids[0], model, book, T=4, schedule=schedule,
                                  rng=np.random.default_rng(seed), model_samples=32)

    plain = [terms_at(seed) for seed in (11, 12)]
    assert all(np.isfinite(t["L_t"]).all() for t in plain)
    monkeypatch.setattr(tnr, "_model_reconstructions", autodiff_reconstructions)
    assert [terms_at(seed) for seed in (11, 12)] == plain


def vlb_loop_oracle(tokens, model, book, T, schedule, rng, label=0, model_samples=8):
    """`vlb_diagnostic` with per-step mask totals and a candidate-by-
    candidate, entry-by-entry match of every count vector k."""
    L, D = tokens.shape
    totals = [mk.mask_count(schedule, (T - t) / T, L, D) for t in range(T + 1)]
    qs = [np.zeros(L, dtype=np.int64)]
    for t in range(1, T + 1):
        qs.append(mk.mask_more(qs[t - 1], D, totals[t] - totals[t - 1], rng))
    terms = {"L_T": 0.0, "L_t": [], "L_0": None}
    for t in range(1, T):
        c1 = qs[t + 1]
        n_step = totals[t + 1] - totals[t]
        cands = tnr._model_reconstructions(model, book, tokens, c1, label,
                                           (T - (t + 1)) / T, rng, model_samples)
        kl = 0.0
        for k in itertools.product(*(range(min(ci, n_step) + 1) for ci in c1)):
            logq = mk.posterior_logprob(c1 - np.array(k), c1, int(c1.sum()), n_step)
            if sum(k) != n_step or logq == mk.IMPOSSIBLE:
                continue
            p_hat = 0.0
            for cand in cands:
                if all(cand[i, j] == tokens[i, j]
                       for i in range(L) for j in range(D - c1[i], D - c1[i] + k[i])):
                    p_hat += np.exp(logq)
            p_hat /= len(cands)
            q = np.exp(logq)
            kl += q * (logq - np.log(p_hat)) if p_hat > 0 else np.inf
        terms["L_t"].append(kl)
    cands = tnr._model_reconstructions(model, book, tokens, qs[1], label,
                                       (T - 1) / T, rng, model_samples)
    hits = sum(1 for cand in cands if np.array_equal(cand, tokens))
    terms["L_0"] = -np.log(hits / len(cands)) if hits else np.inf
    return terms


@pytest.mark.parametrize("spec", ["circle", "cosine", "exp"])
def test_vlb_terms_match_the_candidate_loop_oracle(spec):
    # one comparison per candidate (its run of correct tokens from each
    # position's shallowest masked depth) against the entry-by-entry match
    model, book, grids = toy_setup()
    rng = np.random.default_rng(22)
    for p in model.params.values():
        p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    schedule = mk.parse_schedule(spec)
    for seed in range(6):
        for T in (3, 4, 6):
            args = (grids[seed], model, book, T, schedule)
            got = tnr.vlb_diagnostic(*args, np.random.default_rng(seed), model_samples=32)
            want = vlb_loop_oracle(*args, np.random.default_rng(seed), model_samples=32)
            assert got["L_T"] == want["L_T"] and got["L_0"] == want["L_0"]
            assert np.allclose(got["L_t"], want["L_t"], rtol=0, atol=1e-12)
            assert np.isinf(got["L_t"]).tolist() == np.isinf(want["L_t"]).tolist()


def test_vlb_rejects_huge_grids():
    model, book, grids = toy_setup(L=8, D=4)
    with pytest.raises(ValueError, match="enumeration"):
        tnr.vlb_diagnostic(grids[0], model, book, T=4,
                           schedule=mk.parse_schedule("circle"),
                           rng=np.random.default_rng(0), max_states=10)


# ---------------------------------------------------------------------------
# the freeing gradient walk, and non-finite gradients

def _criterion9_trainer():
    ds, _ = data.synthesize("grid", count=256, seq_len=8, dim=8, modes=9, noise=0.1, seed=11)
    book = rvq.fit_codebook(ds.vectors.reshape(-1, 8), depth=4, vocab=32, epochs=2, seed=1)
    grids = rvq.quantize(ds.vectors.reshape(-1, 8), book).reshape(-1, 8, 4)
    cfg = BackboneConfig(seq_len=8, depth=4, vocab=32, latent_dim=8, width=64, layers=2,
                         heads=4, mixtures=32, mean_rank=8)
    return tnr.Trainer(Backbone(cfg, seed=0), book, grids, ds.labels,
                       tnr.TrainConfig(steps=100, batch_size=16, seed=0))


def test_a_training_step_holds_at_most_7mb_of_transients():
    # the walk frees each node's arrays once it has passed its gradient on,
    # so the forward graph shrinks while the gradients grow; a walk that
    # kept the whole graph to the end peaked near 9 MB here
    tr = _criterion9_trainer()
    tr.step()
    tracemalloc.start()
    try:
        tr.step()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rec = tr.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["positions"] > 0
    assert (peak - start) / 2**20 <= 7.0, f"{(peak - start) / 2**20:.2f} MB"


def test_a_step_leaves_no_parameter_gradient_and_chunk_scratch_keeps_the_bits():
    # the flat buffer is the step's one copy of the gradients, and the
    # update's scratch is one chunk: the bits are those of a trainer whose
    # scratch spans every parameter
    tr, wide = _criterion9_trainer(), _criterion9_trainer()
    assert tr._p.size % tnr._CHUNK != 0         # a short last chunk is covered
    assert tr._a.shape == tr._b.shape == (tnr._CHUNK,)
    wide._a, wide._b = np.empty_like(wide._p), np.empty_like(wide._p)
    for i in range(3):
        if i == 1:      # an audit's gradients do not outlive the next step
            tr.audit()
            wide.audit()
            assert all(p.grad is not None for p in tr.model.params.values())
        rec, ref = tr.step(), wide.step()
        assert rec["positions"] > 0 and rec == ref
        assert all(p.grad is None for p in tr.model.params.values())
    assert _same(tr.model.parameter_arrays(), wide.model.parameter_arrays())
    for name in ("opt_m", "opt_v", "ema"):
        assert _same(getattr(tr, name), getattr(wide, name))
    assert tr._g.tobytes() == wide._g.tobytes()


def test_no_interior_array_outlives_grads():
    model, book, grids = toy_setup()
    q = mk.binary_mask(5, grids.shape[1], grids.shape[2], np.random.default_rng(1))
    sur, nll, n_sel, out = tnr.masked_loss(model, book, grids[:2],
                                           np.stack([q] * 2), [0, 0],
                                           [0.5, 0.5])
    del nll, out
    assert n_sel > 0
    held = {id(p.data) for p in model.params.values()}
    refs = []
    for node in nm.topo_order(sur):
        if node._bwd is None or node is sur:
            continue
        saved = [node.data] + [c.cell_contents for c in node._bwd.__closure__ or ()]
        for a in saved:
            a = a.data if isinstance(a, nm.Tensor) else a
            if isinstance(a, np.ndarray) and id(a) not in held:
                refs.append(weakref.ref(a))
    del node, saved, a
    assert len(refs) > 50
    gc.disable()        # freed by the walk itself, not by a collection
    try:
        g = nm.grads(sur, model.params)
        alive = sum(r() is not None for r in refs)
    finally:
        gc.enable()
    assert alive == 0, f"{alive} of {len(refs)} saved arrays outlived the walk"
    assert sorted(g) == sorted(model.params)


@pytest.mark.parametrize("clip", [1.0, 0.0])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_gradient_raises_before_any_state_changes(monkeypatch, bad, clip):
    # a NaN norm passed the clip test, an inf one scaled the step by 0 * inf,
    # and clip_norm = 0 took no norm: each wrote NaN into the state
    model, book, grids = toy_setup()
    cfg = tnr.TrainConfig(steps=5, batch_size=4, seed=3, clip_norm=clip, warmup=0)
    tr = tnr.Trainer(model, book, grids, np.zeros(len(grids), dtype=np.int64), cfg)
    tr.step()
    real = nm.grads

    def poisoned(loss, params):
        g = dict(real(loss, params))
        g["embed.w"] = g["embed.w"].copy()
        g["embed.w"].flat[3] = bad
        return g

    monkeypatch.setattr(nm, "grads", poisoned)
    before = [model.parameter_arrays(), tr._m.copy(), tr._v.copy(), tr._ema.copy()]
    with pytest.raises(tnr.TrainingError, match=r"^non-finite gradient at step 1: "):
        tr.step()
    after = [model.parameter_arrays(), tr._m, tr._v, tr._ema]
    assert all(a[k].tobytes() == b[k].tobytes() for a, b in zip(before[:1], after[:1])
               for k in a)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before[1:], after[1:]))
    assert tr.step_count == 1
