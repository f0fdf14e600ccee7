"""Mixture-of-Gaussians head tests: exact NLL values, the Jensen bound,
the low-rank distance identity, sampling behavior, and guidance."""

import numpy as np
import pytest

from rvqgen import mog
from rvqgen import numerics as nm


def identity_basis(K, H):
    """M and s of the full-rank means mu = mu~."""
    return {"M": np.tile(np.eye(H)[None], (K, 1, 1)), "s": np.zeros((K, H))}


def random_instance(rng, K, H=4, h=2, L=1):
    params = mog.MoGParams(
        logits=rng.normal(size=(L, K)),
        means=rng.normal(size=(L, K, h)),
        log_scale=rng.normal(size=(L,)) * 0.3,
        shift=rng.normal(size=(L, H)),
        M=rng.normal(size=(K, H, h)),
        s=rng.normal(size=(K, H)),
    )
    z = rng.normal(size=(L, H))
    return params, z


# ---------------------------------------------------------------------------
# exact NLL

def test_nll_at_mean_is_gaussian_constant():
    H = 2
    z = np.array([[0.3, -0.7]])
    params = mog.MoGParams(np.zeros((1, 1)), z.reshape(1, 1, H),
                           np.zeros(1), np.zeros((1, H)), **identity_basis(1, H))
    out = mog.exact_nll(params, z)
    assert out.data[0] == pytest.approx(np.log(2 * np.pi), abs=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(0)
    params, z = random_instance(rng, K=3)
    base = mog.exact_nll(params, z).data[0]
    c = 2.5
    H = z.shape[-1]
    scaled = mog.MoGParams(params.logits, params.means, params.log_scale + np.log(c),
                           c * params.shift, params.M, params.s)
    shifted = mog.exact_nll(scaled, c * z).data[0]
    assert shifted == pytest.approx(base + H * np.log(c), rel=1e-12)


def test_duplicated_component_collapses():
    H = 3
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(1, 1, H))
    z = rng.normal(size=(1, H))
    single = mog.MoGParams(np.zeros((1, 1)), mu, np.zeros(1), np.zeros((1, H)),
                           **identity_basis(1, H))
    double = mog.MoGParams(np.zeros((1, 2)), np.repeat(mu, 2, axis=1),
                           np.zeros(1), np.zeros((1, H)), **identity_basis(2, H))
    a = mog.exact_nll(single, z).data[0]
    b = mog.exact_nll(double, z).data[0]
    assert b == pytest.approx(a, abs=1e-12)


def test_zero_scale_rejected():
    params = mog.MoGParams(np.zeros((1, 1)), np.zeros((1, 1, 2)),
                           np.array([-np.inf]), np.zeros((1, 2)), **identity_basis(1, 2))
    with pytest.raises(ValueError, match="positive"):
        mog.exact_nll(params, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Jensen decomposition

def test_k1_surrogate_equals_exact():
    # one component: q = pi = 1, so the classification term is 0 and the
    # regression term is the whole negative log-density
    rng = np.random.default_rng(2)
    for _ in range(50):
        params, z = random_instance(rng, K=1)
        exact = mog.exact_nll(params, z).data[0]
        sur = mog.surrogate_loss(params, z).data[0]
        assert abs(sur - exact) < 1e-12


@pytest.mark.parametrize("K", [2, 8, 64])
def test_jensen_bound(K):
    rng = np.random.default_rng(K)
    for _ in range(300):
        params, z = random_instance(rng, K=K)
        exact = mog.exact_nll(params, z).data[0]
        sur = mog.surrogate_loss(params, z).data[0]
        assert sur - exact >= -1e-9


def test_equality_under_equal_densities_and_uniform_pi():
    # all components identical and pi uniform: q is uniform, KL(q||pi)=0,
    # and the Jensen step is tight
    H, K = 3, 4
    rng = np.random.default_rng(5)
    mu = np.repeat(rng.normal(size=(1, 1, 2)), K, axis=1)
    M = np.repeat(rng.normal(size=(1, H, 2)), K, axis=0)
    params = mog.MoGParams(np.full((1, K), 0.7), mu, np.zeros(1), np.zeros((1, H)),
                           M, np.zeros((K, H)))
    z = rng.normal(size=(1, H))
    exact = mog.exact_nll(params, z).data[0]
    sur = mog.surrogate_loss(params, z).data[0]
    assert sur == pytest.approx(exact, abs=1e-12)


def component_log_density_oracle(params, z):
    """log N(z~; M mu~ + s, I) (L, K) from the full means, in plain numpy."""
    zt = (z - params.shift) * np.exp(-params.log_scale)[:, None]
    mu = np.einsum("khr,lkr->lkh", params.M, params.means) + params.s
    H = z.shape[-1]
    return -0.5 * ((zt[:, None] - mu) ** 2).sum(axis=-1) - 0.5 * H * np.log(2 * np.pi)


def test_classification_zero_when_pi_matches_q():
    # pick logits equal to log q so KL(q||pi) vanishes: the surrogate is
    # then H*log a plus the regression term -sum_k q_k log N_k alone
    rng = np.random.default_rng(6)
    params, z = random_instance(rng, K=5)
    log_n = component_log_density_oracle(params, z)
    log_q = log_n - np.log(np.exp(log_n).sum(axis=-1, keepdims=True))
    params = mog.MoGParams(log_q, params.means, params.log_scale, params.shift,
                           params.M, params.s)
    regression = -(np.exp(log_q) * log_n).sum(axis=-1)
    H = z.shape[-1]
    sur = mog.surrogate_loss(params, z).data
    assert sur == pytest.approx(H * params.log_scale + regression, abs=1e-12)


# ---------------------------------------------------------------------------
# low-rank distance identity

def lowrank_sqdist_oracle(zt, mu_t, M, s):
    """Expanded ||z~ - (M mu~ + s)||^2 for one component in plain numpy:
    z~ (H,), mu~ (h,), M (H, h), s (H,)."""
    MtM = M.T @ M
    Mts = M.T @ s
    return float(zt @ zt + mu_t @ MtM @ mu_t + s @ s
                 - 2.0 * (M.T @ zt) @ mu_t - 2.0 * zt @ s + 2.0 * mu_t @ Mts)


def kernel_sqdist(zt, mu_t, M, s):
    """The autodiff kernel at one position and one component."""
    return float(nm.lowrank_sqdist(zt[None], mu_t[None, None], M[None], s[None]).data[0, 0])


def test_lowrank_identity_fullrank_case():
    rng = np.random.default_rng(7)
    zt, mu = rng.normal(size=4), rng.normal(size=4)
    got = kernel_sqdist(zt, mu, np.eye(4), np.zeros(4))
    assert got == pytest.approx(((zt - mu) ** 2).sum(), rel=1e-12)


def test_lowrank_identity_offset_only():
    rng = np.random.default_rng(8)
    zt, s = rng.normal(size=5), rng.normal(size=5)
    got = kernel_sqdist(zt, np.zeros(2), np.zeros((5, 2)), s)
    assert got == pytest.approx(((zt - s) ** 2).sum(), rel=1e-12)


def test_lowrank_identity_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        M = rng.normal(size=(16, 4))
        s = rng.normal(size=16)
        zt = rng.normal(size=16)
        mu = rng.normal(size=4)
        direct = ((zt - (M @ mu + s)) ** 2).sum()
        for got in (kernel_sqdist(zt, mu, M, s), lowrank_sqdist_oracle(zt, mu, M, s)):
            assert abs(got - direct) / max(direct, 1e-300) < 1e-10


def test_lowrank_kernel_matches_oracle_per_component():
    rng = np.random.default_rng(12)
    N, K, H, h = 5, 3, 6, 2
    z, mu = rng.normal(size=(N, H)), rng.normal(size=(N, K, h))
    M, s = rng.normal(size=(K, H, h)), rng.normal(size=(K, H))
    got = nm.lowrank_sqdist(z, mu, M, s).data
    for n in range(N):
        for k in range(K):
            assert got[n, k] == pytest.approx(
                lowrank_sqdist_oracle(z[n], mu[n, k], M[k], s[k]), rel=1e-12)


# ---------------------------------------------------------------------------
# one component log-density for both losses

def _tensor_instance(rng, K=5, H=4, h=2, L=3):
    raw = {"logits": rng.normal(size=(L, K)), "means": rng.normal(size=(L, K, h)),
           "log_scale": 0.3 * rng.normal(size=(L,)), "shift": rng.normal(size=(L, H)),
           "M": rng.normal(size=(K, H, h)), "s": rng.normal(size=(K, H))}
    params = {k: nm.parameter(v, name=k) for k, v in raw.items()}
    return params, mog.MoGParams(**params), rng.normal(size=(L, H))


@pytest.mark.parametrize("differentiate_q", [False, True])
def test_shared_loss_path_is_bit_equal_to_separate_calls(differentiate_q):
    # `surrogate_loss` and `exact_nll` are views of the one loss builder
    rng = np.random.default_rng(13)
    params, head, z = _tensor_instance(rng)
    sur, nll = mog.surrogate_and_nll(head, z, differentiate_q)
    sur_alone = mog.surrogate_loss(head, z, differentiate_q)
    nll_alone = mog.exact_nll(head, z)
    assert sur.data.tobytes() == sur_alone.data.tobytes()
    assert nll.data.tobytes() == nll_alone.data.tobytes()
    # and so are their gradients, each taken through its own graph (a
    # `grads` walk frees the graph, so each walk gets a fresh one)
    for pick, alone in ((0, mog.surrogate_loss), (1, mog.exact_nll)):
        shared = mog.surrogate_and_nll(head, z, differentiate_q)[pick]
        extra = (differentiate_q,) if pick == 0 else ()
        g_shared = nm.grads(nm.mean_(shared), params)
        g_alone = nm.grads(nm.mean_(alone(head, z, *extra)), params)
        assert all(g_shared[k].tobytes() == g_alone[k].tobytes() for k in params)


def test_shared_loss_path_builds_one_component_density(monkeypatch):
    rng = np.random.default_rng(14)
    _, head, z = _tensor_instance(rng)
    calls = []
    kernel = nm.lowrank_sqdist
    monkeypatch.setattr(nm, "lowrank_sqdist",
                        lambda *a: calls.append(1) or kernel(*a))
    mog.surrogate_and_nll(head, z)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# gradients

def test_exact_nll_gradients_match_fd():
    rng = np.random.default_rng(10)
    raw = {
        "logits": rng.normal(size=(2, 3)),
        "means": rng.normal(size=(2, 3, 2)),
        "log_scale": 0.2 * rng.normal(size=(2,)),
        "shift": rng.normal(size=(2, 4)),
        "M": rng.normal(size=(3, 4, 2)),
        "s": rng.normal(size=(3, 4)),
    }
    params = {k: nm.parameter(v, name=k) for k, v in raw.items()}
    z = rng.normal(size=(2, 4))

    def loss():
        return nm.mean_(mog.exact_nll(mog.MoGParams(**params), z))

    assert nm.finite_difference_check(loss, params, h=1e-5) < 1e-4


def test_surrogate_with_differentiable_q_matches_fd():
    rng = np.random.default_rng(11)
    raw = {
        "logits": rng.normal(size=(1, 4)),
        "means": rng.normal(size=(1, 4, 2)),
        "log_scale": 0.1 * rng.normal(size=(1,)),
        "shift": rng.normal(size=(1, 3)),
        "M": rng.normal(size=(4, 3, 2)),
        "s": rng.normal(size=(4, 3)),
    }
    params = {k: nm.parameter(v, name=k) for k, v in raw.items()}
    z = rng.normal(size=(1, 3))

    def loss():
        return nm.mean_(mog.surrogate_loss(mog.MoGParams(**params), z,
                                           differentiate_q=True))

    assert nm.finite_difference_check(loss, params, h=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# sampling

def nucleus_oracle(weights, top_p):
    """Members of one row's nucleus, by descending weight: the smallest
    prefix with cumulative mass >= top_p (one searchsorted per row)."""
    order = np.argsort(-weights, kind="stable")
    csum = np.cumsum(weights[order])
    return order[:int(np.searchsorted(csum, top_p * csum[-1] - 1e-15) + 1)]


def kept(cdf):
    """Nucleus size per row: the ranks an inverse-CDF draw with u < 1 reaches."""
    return (cdf < 1.0).sum(axis=-1) + 1


class NoiseFree:
    """A generator whose standard normals are all zero, so a draw is its
    component's mean; the uniforms come from a seeded default_rng."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        return self.rng.random(size)

    def standard_normal(self, size):
        return np.zeros(size)


def test_sample_topp_one_uses_full_mixture():
    w = np.array([[0.5, 0.3, 0.2]])
    order, cdf = mog.nucleus(w, 1.0)
    assert sorted(order[0].tolist()) == [0, 1, 2]
    assert kept(cdf).tolist() == [3] and cdf[0, -1] == 1.0


def test_sample_topp_tiny_is_argmax():
    w = np.array([[0.2, 0.5, 0.3]])
    order, cdf = mog.nucleus(w, 1e-9)
    assert order[0, 0] == 1 and cdf[0, 0] == 1.0 and kept(cdf).tolist() == [1]


def test_nucleus_monotone_in_topp():
    rng = np.random.default_rng(12)
    w = rng.dirichlet(np.ones(8))[None]
    sizes = [int(kept(mog.nucleus(w, p)[1])[0]) for p in np.linspace(0.05, 1.0, 30)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_nucleus_rejects_bad_topp():
    with pytest.raises(ValueError):
        mog.nucleus(np.array([[1.0]]), 0.0)


@pytest.mark.parametrize("top_p", [0.3, 0.7, 0.94, 1.0])
def test_nucleus_rows_match_per_row_oracle(top_p):
    rng = np.random.default_rng(21)
    w = rng.dirichlet(np.full(6, 0.5), size=200)
    w[:20, 1] = w[:20, 3]                       # ties keep index order
    w /= w.sum(axis=1, keepdims=True)
    order, cdf = mog.nucleus(w, top_p)
    sizes = kept(cdf)
    for i in range(len(w)):
        assert order[i, :sizes[i]].tolist() == nucleus_oracle(w[i], top_p).tolist()
    assert np.all(cdf[np.arange(len(w)), sizes - 1] == 1.0)


def test_sample_draws_nucleus_members_at_renormalized_rates():
    # component k has the 1-D mean k, so a noise-free draw names its component
    K, L, top_p = 6, 20000, 0.7
    logits = np.log(np.array([0.05, 0.3, 0.02, 0.25, 0.18, 0.2]))
    params = mog.MoGParams(np.tile(logits, (L, 1)),
                           np.tile(np.arange(K, dtype=float)[None, :, None], (L, 1, 1)),
                           np.zeros(L), np.zeros((L, 1)), np.ones((K, 1, 1)),
                           np.zeros((K, 1)))
    z = mog.sample(params, *mog.draw(params, NoiseFree(5)), top_p=top_p)
    comp = z[:, 0].astype(int)
    assert np.array_equal(z[:, 0], comp)
    members = nucleus_oracle(mog.mixture_weights(logits), top_p)
    assert sorted(members.tolist()) == [1, 3, 5]
    assert set(comp.tolist()) == set(members.tolist())
    w = mog.mixture_weights(logits)[members]
    expect = L * w / w.sum()
    observed = np.bincount(comp, minlength=K)[members]
    chi2 = float(((observed - expect) ** 2 / expect).sum())
    assert chi2 < 13.82                          # chi-square, 2 dof, p = 0.001


def test_sample_rejects_non_finite_outputs_and_draws():
    rng = np.random.default_rng(17)
    params, _ = random_instance(rng, K=3, L=2)
    for field, value in (("logits", np.nan), ("means", np.inf),
                         ("log_scale", np.nan), ("shift", -np.inf)):
        bad = mog.MoGParams(**{**params.__dict__})
        arr = getattr(bad, field).copy()
        arr.flat[0] = value
        setattr(bad, field, arr)
        with pytest.raises(ValueError, match="mog.sample: non-finite head outputs"):
            mog.draw(bad, np.random.default_rng(0))
    huge = mog.MoGParams(params.logits, params.means, np.full(2, 800.0), params.shift,
                         params.M, params.s)
    with pytest.raises(ValueError, match="non-finite draw"):
        mog.sample(huge, *mog.draw(huge, np.random.default_rng(0)))


def test_sample_deterministic_degenerate_draw():
    H = 3
    mu = np.array([[[0.5, -1.0, 2.0]]])
    params = mog.MoGParams(np.zeros((1, 1)), mu, np.log(np.array([2.0])),
                           np.array([[1.0, 1.0, 1.0]]), **identity_basis(1, H))
    z = mog.sample(params, *mog.draw(params, NoiseFree(0)))
    assert np.allclose(z, 2.0 * mu[0] + 1.0)


def test_sample_reproducible():
    rng = np.random.default_rng(13)
    params, _ = random_instance(rng, K=4, L=3)
    a = mog.sample(params, *mog.draw(params, np.random.default_rng(99)), top_p=0.9)
    b = mog.sample(params, *mog.draw(params, np.random.default_rng(99)), top_p=0.9)
    assert np.array_equal(a, b)


def test_draw_takes_every_uniform_then_every_normal():
    rng = np.random.default_rng(16)
    params, _ = random_instance(rng, K=4, H=3, L=5)
    u, eps = mog.draw(params, np.random.default_rng(7))
    ref = np.random.default_rng(7)
    assert np.array_equal(u, ref.random(5))
    assert np.array_equal(eps, ref.standard_normal((5, 3)))


# ---------------------------------------------------------------------------
# guidance

def test_cfg_zero_weight_is_identity():
    rng = np.random.default_rng(14)
    cond, _ = random_instance(rng, K=3)
    uncond, _ = random_instance(rng, K=3)
    out = mog.cfg_combine(cond, uncond, 0.0)
    assert np.array_equal(out.logits, cond.logits)
    assert np.array_equal(out.means, cond.means)


def test_cfg_equal_inputs_fixed_point():
    rng = np.random.default_rng(15)
    cond, _ = random_instance(rng, K=3)
    out = mog.cfg_combine(cond, cond, 1.7)
    assert np.array_equal(out.logits, cond.logits)
    assert np.array_equal(out.means, cond.means)


def test_cfg_extrapolation_k1():
    c = mog.MoGParams(np.zeros((1, 1)), np.array([[[1.0, 2.0]]]),
                      np.zeros(1), np.zeros((1, 2)), **identity_basis(1, 2))
    u = mog.MoGParams(np.zeros((1, 1)), np.array([[[0.5, -1.0]]]),
                      np.zeros(1), np.zeros((1, 2)), **identity_basis(1, 2))
    out = mog.cfg_combine(c, u, 1.0)
    assert np.allclose(out.means, 2 * c.means - u.means)
    assert out.M is c.M and out.s is c.s


def test_cfg_shape_mismatch_rejected():
    rng = np.random.default_rng(16)
    a, _ = random_instance(rng, K=3)
    b, _ = random_instance(rng, K=4)
    with pytest.raises(ValueError, match="mismatch"):
        mog.cfg_combine(a, b, 1.0)
