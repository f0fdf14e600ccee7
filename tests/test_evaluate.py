"""Evaluation tests: Fréchet distance against closed forms, entropy bounds,
and the sweep plumbing (criterion 12's harness from the acceptance suite)
at miniature scale."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from rvqgen import rvq
from rvqgen import evaluate as ev
from rvqgen.backbone import Backbone, BackboneConfig
from rvqgen.sampler import SamplerConfig
from rvqgen.trainer import TrainConfig

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_acceptance import schedule_grid, train_small  # noqa: E402


def test_identical_sets_give_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 4))
    assert ev.frechet_distance(X, X) < 1e-8


def test_equal_covariance_closed_form():
    # N(0, I) vs N(mu, I): FD = ||mu||^2
    rng = np.random.default_rng(1)
    mu = np.array([1.0, -2.0, 0.5])
    A = rng.standard_normal((50_000, 3))
    B = rng.standard_normal((50_000, 3)) + mu
    fd = ev.frechet_distance(A, B)
    assert fd == pytest.approx(float(mu @ mu), rel=0.05)


def test_diagonal_covariance_closed_form():
    # diag(a) vs diag(b): FD = sum (sqrt(a)-sqrt(b))^2 + ||mu_a - mu_b||^2
    rng = np.random.default_rng(2)
    a = np.array([1.0, 4.0, 0.25])
    b = np.array([2.25, 1.0, 1.0])
    A = rng.standard_normal((80_000, 3)) * np.sqrt(a)
    B = rng.standard_normal((80_000, 3)) * np.sqrt(b) + 1.0
    expect = ((np.sqrt(a) - np.sqrt(b)) ** 2).sum() + 3.0
    assert ev.frechet_distance(A, B) == pytest.approx(expect, rel=0.05)


def test_symmetry():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(400, 5))
    B = rng.normal(size=(400, 5)) @ np.diag([1.0, 2.0, 0.5, 1.5, 1.0]) + 0.3
    ab = ev.frechet_distance(A, B)
    ba = ev.frechet_distance(B, A)
    assert abs(ab - ba) < 1e-10


def test_sample_size_precondition():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="samples"):
        ev.frechet_distance(rng.normal(size=(4, 5)), rng.normal(size=(100, 5)))


def test_degenerate_covariance_rejected():
    # colinear data: the covariance has large negative eigen-noise after
    # squaring only in pathological cases; force one by corrupting directly
    S = np.diag([1.0, 1.0])
    bad = S.copy()
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="condition"):
        ev._psd_sqrt(bad)


def test_self_distance_small_for_iid_halves():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4000, 4))
    sd = ev.self_distance(X, rng=np.random.default_rng(0))
    assert 0 <= sd < 0.1


def test_usage_entropy_bounds():
    rng = np.random.default_rng(6)
    V = 8
    tokens = rng.integers(1, V + 1, size=(500, 3))
    ent = ev.codebook_usage_entropy(tokens, V)
    assert len(ent) == 3
    assert all(0 <= e <= np.log(V) + 1e-12 for e in ent)
    constant = np.ones((500, 2), dtype=int)
    assert ev.codebook_usage_entropy(constant, V) == [0.0, 0.0]


def test_eval_report_lines_deterministic():
    rep = ev.EvalReport(fd=0.125, recon_mse_by_depth=[0.5, 0.25],
                        forward_pass_count=64,
                        codebook_usage_entropy=[1.0, 2.0], wall_time=9.9)
    lines = rep.lines()
    assert lines == ev.EvalReport(fd=0.125, recon_mse_by_depth=[0.5, 0.25],
                                  forward_pass_count=64,
                                  codebook_usage_entropy=[1.0, 2.0],
                                  wall_time=1.1).lines()
    assert not any("wall" in ln for ln in lines)


# ---------------------------------------------------------------------------
# sweeps at miniature scale

def _mini_dataset(seed=0, n=160, L=3, H=3):
    rng = np.random.default_rng(seed)
    centers = np.array([[2.0, 0, 0], [-2.0, 0, 0]])
    comp = rng.integers(0, 2, size=(n, L))
    return centers[comp] + 0.15 * rng.standard_normal((n, L, H))


def test_depth_sweep_recon_monotone():
    # reconstruction error per RVQ depth, each depth fitted on its own
    flat = _mini_dataset().reshape(-1, 3)
    final = []
    for D in (2, 4):
        book = rvq.fit_codebook(flat, depth=D, vocab=4, seed=0)
        curve = rvq.reconstruction_mse_by_depth(flat, book)
        assert curve.shape == (D,)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
        final.append(curve[-1])
    assert final[1] <= final[0]


def test_schedule_grid_completes_and_covers_cells():
    vectors = _mini_dataset(n=120)
    labels = np.zeros(len(vectors), dtype=np.int64)
    flat = vectors.reshape(-1, 3)
    book = rvq.fit_codebook(flat, depth=2, vocab=4, seed=0)
    bb = BackboneConfig(seq_len=3, depth=2, vocab=4, latent_dim=3, width=16, layers=1, heads=2,
                        mixtures=2, mean_rank=2)
    tc = TrainConfig(steps=30, batch_size=4, seed=0, audit_steps=())
    sc = SamplerConfig(steps=3, selection="random")
    eval_labels = np.zeros(12, dtype=np.int64)
    rows = schedule_grid(vectors, labels, book, bb, tc, sc,
                         reference=flat, eval_labels=eval_labels,
                         train_schedules=("circle", "cosine"),
                         sample_schedules=("circle", "exp"),
                         cfg_weights=(0.0, 1.0))
    assert len(rows) == 2 * 2 * 2
    cells = {(r["train"], r["sample"], r["cfg"]) for r in rows}
    assert len(cells) == 8
    assert all(np.isfinite(r["fd"]) for r in rows)


def test_sampler_stats_sweeps_three_axes():
    # steps, top-p and choice temperature each varied alone: generation
    # costs T model calls per grid whatever the other two are
    vectors = _mini_dataset(n=100)
    flat = vectors.reshape(-1, 3)
    book = rvq.fit_codebook(flat, depth=2, vocab=4, seed=0)
    bb = BackboneConfig(seq_len=3, depth=2, vocab=4, latent_dim=3, width=16, layers=1, heads=2,
                        mixtures=2, mean_rank=2)
    tc = TrainConfig(steps=20, batch_size=4, seed=0, audit_steps=())
    _, model = train_small(vectors, np.zeros(len(vectors), dtype=np.int64),
                           book, bb, tc)
    labels = np.zeros(10, dtype=np.int64)
    for over in ({"steps": 2}, {"steps": 4}, {"top_p": 0.8}, {"temperature": 0.0}):
        sc = replace(SamplerConfig(steps=4), **over)
        gen, grids, passes = ev.generate_vectors(model, book, sc, len(labels), labels,
                                                 np.random.default_rng(0))
        assert passes == sc.steps * len(labels)
        assert grids.shape == (10, 3, 2) and grids.min() >= 1 and grids.max() <= 4
        assert gen.shape == (30, 3) and np.isfinite(ev.frechet_distance(gen, flat))



def tiny_model():
    return Backbone(BackboneConfig(seq_len=3, depth=2, vocab=4, latent_dim=3, width=4,
                                   layers=1, heads=1, mixtures=2, mean_rank=1,
                                   num_classes=3), seed=0)


@pytest.mark.parametrize("labels, named", [
    (1.5, "1.5"), (True, "True"), ([1.7, 2.2], "1.7"), ("a", "'a'"), ([1, "b"], "'b'"),
    (np.array([1.0, 2.0]), "1.0"),
], ids=["float", "bool", "floats", "string", "mixed", "float-array"])
def test_a_label_that_is_not_an_integer_is_named(labels, named):
    # checked before any grid is drawn: the model is never called
    model = tiny_model()
    with pytest.raises(ValueError, match=f"^label: {named} is not an integer$"):
        ev.generate_vectors(model, rvq.Codebook(np.ones((2, 4, 3)), np.ones(2)),
                            SamplerConfig(steps=2), 2, labels, np.random.default_rng(0))
    assert model.forward_calls == 0


@pytest.mark.parametrize("labels", [[1, True], (np.int64(1), np.True_)],
                         ids=["list", "tuple"])
def test_a_bool_among_integer_labels_is_named(labels):
    # np.asarray([1, True]) is an int64 array, which once sampled the bool as 1
    model = tiny_model()
    with pytest.raises(ValueError, match="^label: True is not an integer$"):
        ev.generate_vectors(model, rvq.Codebook(np.ones((2, 4, 3)), np.ones(2)),
                            SamplerConfig(steps=2), 2, labels, np.random.default_rng(0))
    assert model.forward_calls == 0


def test_integer_labels_of_any_integer_type_sample():
    model = tiny_model()
    book = rvq.Codebook(np.arange(24, dtype=float).reshape(2, 4, 3), np.ones(2))
    runs = [ev.generate_vectors(model, book, SamplerConfig(steps=2), 2, labels,
                                np.random.default_rng(0))[1]
            for labels in ([1, 3], np.array([1, 3], dtype=np.uint8), (np.int64(1), 3))]
    assert all(np.array_equal(runs[0], grids) for grids in runs[1:])
    with pytest.raises(ValueError, match="label 4 outside"):
        ev.generate_vectors(model, book, SamplerConfig(steps=2), 2, [1, 4],
                            np.random.default_rng(0))
