"""Mixture-of-Gaussians output head.

The head models a target vector z through an affine map z = a*z~ + b and a
K-component mixture over z~ with identity covariances and low-rank means
mu = M mu~ + s. The exact negative log-likelihood and its Jensen-decomposed
regression+classification surrogate are built on the autodiff engine; the
sampling-side helpers (component draws, nucleus truncation, guidance
combination) are plain numpy. Every function takes a head output as
`Backbone.predict` emits it: head rows, one per grid position, with the
low-rank basis M, s beside them. The loss gathers the rows it scores.
The sampler takes every row's random draws on every step (`draw`) and
builds one vector per row from them (`sample`) only on a step whose
tokens it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MoGParams:
    """One head output: rows, one per grid position, and the low-rank
    basis they share. Fields are Tensors from the autodiff forward
    (training; M and s are the parameter Tensors) and ndarrays from the
    graph-free forward (sampling, VLB diagnostics; M and s are the
    parameters' current arrays). The losses take either, the sampling
    helpers the ndarrays.

    logits (N, K); means (N, K, h) low-rank; log_scale (N,) with a=exp(.);
    shift (N, H). A forward over B grids of L positions emits N = B*L rows.
    M (K, H, h) and s (K, H) map a low-rank mean to mu = M mu~ + s.
    """

    logits: object
    means: object
    log_scale: object
    shift: object
    M: object
    s: object


# softmax of the mixture logits over the last axis (numpy)
mixture_weights = nm.plain.softmax


# ---------------------------------------------------------------------------
# likelihoods (autodiff path)


def surrogate_and_nll(params, z, differentiate_q=False):
    """(surrogate, exact NLL) per position, two (L,) Tensors taken from one
    whitening z~ = (z - b) / a (a = exp(log_scale)) and one component
    log-density log N(z~; M mu~ + s, I) (L, K).

    exact NLL: -log p(z) = H*log a - logsumexp_k(log pi_k + log N_k); the
    H*log a term is the Jacobian of the affine map (scalar a scales every
    one of the H dimensions).

    surrogate: H*log a + regression + classification, with
    q(k | z~, mu) ∝ N(z~; mu_k, I), regression = -sum_k q_k log N_k and
    classification = KL(q || pi). It upper bounds the exact NLL. By default
    q is treated as a constant target (EM-style); set differentiate_q to
    also backprop through it.
    """
    logits = nm.constant(params.logits)
    log_scale = nm.constant(params.log_scale)
    if np.any(log_scale.data == -np.inf):
        raise ValueError("scale a must be positive")
    inv_a = nm.exp(nm.neg(log_scale))                      # (L,)
    zt = nm.mul(nm.sub(z, params.shift), nm.reshape(inv_a, (-1, 1)))
    log_pi = nm.sub(logits, nm.logsumexp(logits, keepdims=True))
    H = zt.shape[-1]
    d2 = nm.lowrank_sqdist(zt, params.means, params.M, params.s)
    log_n = nm.add(nm.mul(d2, -0.5), nm.constant(-0.5 * H * LOG_2PI))
    jac = nm.mul(log_scale, float(H))

    if differentiate_q:
        log_q = nm.sub(log_n, nm.logsumexp(log_n, keepdims=True))
        q = nm.softmax(log_n)
    else:
        lq = log_n.data - nm.logsumexp(log_n.data, keepdims=True).data
        log_q = nm.constant(lq)
        q = nm.constant(np.exp(lq))
    regression = nm.neg(nm.sum_(nm.mul(q, log_n), axis=-1))
    classification = nm.sum_(nm.mul(q, nm.sub(log_q, log_pi)), axis=-1)
    surrogate = nm.add(jac, nm.add(regression, classification))
    return surrogate, nm.sub(jac, nm.logsumexp(nm.add(log_pi, log_n)))


def exact_nll(params, z):
    """The exact NLL of `surrogate_and_nll` alone -> (L,) Tensor."""
    return surrogate_and_nll(params, z)[1]


def surrogate_loss(params, z, differentiate_q=False):
    """The surrogate of `surrogate_and_nll` alone -> (L,) Tensor."""
    return surrogate_and_nll(params, z, differentiate_q)[0]


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


def draw(params, rng):
    """A step's random draws for every row: (u (L,), eps (L, H)).

    All rows at once: rng.random(L) gives the uniforms that pick the
    components by inverse CDF, then rng.standard_normal((L, H)) gives eps.
    A seeded run thus draws every uniform before any normal; versions that
    drew position by position consumed the stream in another order, so
    the same seed gives other (equally distributed) draws, whether or not
    `sample` builds z from them afterwards. Non-finite head outputs raise
    ValueError first.
    """
    if not (np.isfinite(params.logits).all() and np.isfinite(params.means).all()
            and np.isfinite(params.log_scale).all() and np.isfinite(params.shift).all()):
        raise ValueError("mog.sample: non-finite head outputs")
    L, H = params.shift.shape
    return rng.random(L), rng.standard_normal((L, H))


def sample(params, u, eps, top_p=1.0):
    """z per row from `draw`'s (u, eps): nucleus-restricted component
    choice by inverse CDF at u, then z = a * (mu + eps) + b. Only the
    chosen component's full mean is built. A non-finite z raises
    ValueError instead of quantizing to an arbitrary token.
    """
    logits, means, log_scale, b = (params.logits, params.means, params.log_scale,
                                   params.shift)
    L = len(b)
    order, cdf = nucleus(mixture_weights(logits), top_p)
    rank = np.add.reduce(cdf < u[:, None], axis=-1)
    rows = np.arange(L)
    comp = order[rows, rank]
    M = params.M.take(comp, axis=0)                            # (L, H, h)
    mu = (M @ means[rows, comp][:, :, None])[:, :, 0] + params.s.take(comp, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        z = np.exp(log_scale).reshape(L, 1) * (mu + eps) + b
    if not np.isfinite(z).all():
        raise ValueError("mog.sample: non-finite draw")
    return z


def cfg_combine(cond: MoGParams, uncond: MoGParams, w: float) -> MoGParams:
    """Classifier-free guidance on distribution parameters: extrapolate the
    mixture logits and low-rank means from the unconditional toward the
    conditional prediction; scale, shift and the basis come from the
    conditional.

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
                     cond.log_scale, cond.shift, cond.M, cond.s)
