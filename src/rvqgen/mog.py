"""Mixture-of-Gaussians output head.

The head models a target vector z through an affine map z = a*z~ + b and a
K-component mixture over z~ with identity covariances and low-rank means
mu = M mu~ + s. The exact negative log-likelihood and its Jensen-decomposed
regression+classification surrogate are built on the autodiff engine; the
sampling-side helpers (component draws, nucleus truncation, guidance
combination) are plain numpy. Every function takes head rows, one per grid
position, as `Backbone.predict` emits them: the loss gathers the rows it
scores, and the sampler draws one vector per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MoGParams:
    """Head rows, one per grid position. Fields are Tensors from the
    autodiff forward (training) and ndarrays from the graph-free forward
    (sampling, VLB diagnostics); the losses take either.

    logits (N, K); means (N, K, h) low-rank; log_scale (N,) with a=exp(.);
    shift (N, H). A forward over B grids of L positions emits N = B*L rows.
    """

    logits: object
    means: object
    log_scale: object
    shift: object


@dataclass
class LowRankBasis:
    """Per-component projection M (K, H, h) and offset s (K, H)."""

    M: object
    s: object


def _data(x):
    return x.data if isinstance(x, nm.Tensor) else np.asarray(x, dtype=np.float64)


# softmax of the mixture logits over the last axis (numpy)
mixture_weights = nm.plain.softmax


# ---------------------------------------------------------------------------
# likelihoods (autodiff path)


def _log_terms(params, basis, z):
    """The nodes both loss flavors share, built once: the Jacobian term
    H*log a, log pi (L, K) and log N(z~; mu_k, I) (L, K), where
    z~ = (z - b) / a with a = exp(log_scale)."""
    logits = nm.constant(params.logits)
    log_scale = nm.constant(params.log_scale)
    if np.any(log_scale.data == -np.inf):
        raise ValueError("scale a must be positive")
    inv_a = nm.exp(nm.neg(log_scale))                      # (L,)
    zt = nm.mul(nm.sub(z, params.shift), nm.reshape(inv_a, (-1, 1)))
    log_pi = nm.sub(logits, nm.logsumexp(logits, keepdims=True))
    log_n = component_log_density(zt, params.means, basis)
    return nm.mul(log_scale, float(zt.shape[-1])), log_pi, log_n


def component_log_density(zt, means, basis):
    """log N(z~; M mu~ + s, I) per component -> (L, K) Tensor."""
    d2 = nm.lowrank_sqdist(zt, means, basis.M, basis.s)
    H = zt.shape[-1]
    return nm.add(nm.mul(d2, -0.5), nm.constant(-0.5 * H * LOG_2PI))


def _nll(jac, log_pi, log_n):
    return nm.sub(jac, nm.logsumexp(nm.add(log_pi, log_n)))


def _decomposed(log_pi, log_n, differentiate_q):
    if differentiate_q:
        log_q = nm.sub(log_n, nm.logsumexp(log_n, keepdims=True))
        q = nm.softmax(log_n)
    else:
        lq = log_n.data - nm.logsumexp(log_n.data, keepdims=True).data
        log_q = nm.constant(lq)
        q = nm.constant(np.exp(lq))
    regression = nm.neg(nm.sum_(nm.mul(q, log_n), axis=-1))
    classification = nm.sum_(nm.mul(q, nm.sub(log_q, log_pi)), axis=-1)
    return regression, classification


def _surrogate(jac, log_pi, log_n, differentiate_q):
    reg, cls = _decomposed(log_pi, log_n, differentiate_q)
    return nm.add(jac, nm.add(reg, cls))


def surrogate_and_nll(params, basis, z, differentiate_q=False):
    """(surrogate, exact NLL) per position, two (L,) Tensors taken from one
    whitening and one component log-density; see `surrogate_loss` and
    `exact_nll`."""
    terms = _log_terms(params, basis, z)
    return _surrogate(*terms, differentiate_q), _nll(*terms)


def exact_nll(params, basis, z):
    """Exact mixture negative log-likelihood per position -> (L,) Tensor.

    -log p(z) = H*log a - logsumexp_k(log pi_k + log N(z~; mu_k, I)); the
    H*log a term is the Jacobian of the affine map (scalar a scales every
    one of the H dimensions).
    """
    return _nll(*_log_terms(params, basis, z))


def decomposed_loss(params, basis, z, differentiate_q=False):
    """Jensen surrogate split into (regression, classification) per position.

    q(k | z~, mu) ∝ N(z~; mu_k, I). regression = -sum_k q_k log N_k;
    classification = KL(q || pi). By default q is treated as a constant
    target (EM-style); set differentiate_q to also backprop through it.
    The total surrogate is H*log a + regression + classification and upper
    bounds exact_nll.
    """
    _, log_pi, log_n = _log_terms(params, basis, z)
    return _decomposed(log_pi, log_n, differentiate_q)


def surrogate_loss(params, basis, z, differentiate_q=False):
    """H*log a + regression + classification, per position -> (L,) Tensor."""
    return _surrogate(*_log_terms(params, basis, z), differentiate_q)


# ---------------------------------------------------------------------------
# sampling (numpy path)


def nucleus(weights, top_p):
    """Row-wise nucleus truncation of (L, K) mixture weights.

    Each row keeps the smallest prefix (by descending weight, ties in index
    order) whose cumulative mass reaches top_p. Returns (order, cdf), both
    (L, K): order[i] ranks the components of row i, and cdf[i] is their
    cumulative mass divided by the kept mass. cdf reaches 1 at the last
    kept rank and is >= 1 after it, so an inverse-CDF draw with u in [0, 1)
    lands only on kept ranks, with the renormalized kept weights.
    """
    if not 0 < top_p <= 1:
        raise ValueError("top_p must lie in (0, 1]")
    order = np.argsort(-weights, axis=-1, kind="stable")
    rows = np.arange(len(weights))
    csum = np.cumsum(weights[rows[:, None], order], axis=-1)
    # add.reduce is what ndarray.sum calls, without its Python wrapper
    keep = np.add.reduce(csum < top_p * csum[:, -1:] - 1e-15, axis=-1)
    return order, csum / csum[rows, keep][:, None]


def sample(params, basis, rng, top_p=1.0):
    """Draw z per position: nucleus-restricted component choice, then
    z = a * (mu + eps) + b with eps standard normal.

    All positions are drawn at once: rng.random(L) picks the components by
    inverse CDF, then rng.standard_normal((L, H)) gives eps. A seeded run
    thus draws every uniform before any normal; versions that drew position
    by position consumed the stream in another order, so the same seed
    gives other (equally distributed) draws. Only the chosen component's
    full mean is built. Non-finite head outputs or draws raise ValueError
    instead of quantizing to an arbitrary token.
    """
    logits, means, log_scale, b = (_data(params.logits), _data(params.means),
                                   _data(params.log_scale), _data(params.shift))
    if not (np.isfinite(logits).all() and np.isfinite(means).all()
            and np.isfinite(log_scale).all() and np.isfinite(b).all()):
        raise ValueError("mog.sample: non-finite head outputs")
    L, H = b.shape
    order, cdf = nucleus(mixture_weights(logits), top_p)
    rank = np.add.reduce(cdf < rng.random(L)[:, None], axis=-1)
    rows = np.arange(L)
    comp = order[rows, rank]
    M = _data(basis.M)[comp]                                   # (L, H, h)
    mu = (M @ means[rows, comp][:, :, None])[:, :, 0] + _data(basis.s)[comp]
    eps = rng.standard_normal((L, H))
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        z = np.exp(log_scale).reshape(L, 1) * (mu + eps) + b
    if not np.isfinite(z).all():
        raise ValueError("mog.sample: non-finite draw")
    return z


def cfg_combine(cond: MoGParams, uncond: MoGParams, w: float) -> MoGParams:
    """Classifier-free guidance on distribution parameters: extrapolate the
    mixture logits and low-rank means from the unconditional toward the
    conditional prediction; scale and shift come from the conditional.

    Written as cond + w*(cond - uncond) so w=0 and cond==uncond are exact.
    Both take the graph-free forward's ndarrays.
    """
    if cond.logits.shape != uncond.logits.shape or cond.means.shape != uncond.means.shape:
        raise ValueError(f"cfg_combine: shape mismatch {cond.logits.shape} "
                         f"vs {uncond.logits.shape}")
    if w == 0.0:
        return cond
    return MoGParams(cond.logits + w * (cond.logits - uncond.logits),
                     cond.means + w * (cond.means - uncond.means),
                     cond.log_scale, cond.shift)
