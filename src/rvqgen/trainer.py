"""Training loop: draw a mask ratio and depth-suffix masked counts, regress
the masked cumulative embeddings under the MoG surrogate, step AdamW.

`masked_loss` is the paper's simplified per-step loss for any batch of grids
and masked counts, from one model call `forward(embed_input(...),
condition(...), w)`, w = `weights(True)`; the trainer, the finite-difference
audit and the acceptance checks all evaluate it. Also houses the
variational-bound diagnostics (KL terms against the implied reverse kernel).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import masking as mk
from . import mog
from . import numerics as nm
from . import rvq
from .backbone import Backbone, check_integers


@dataclass
class TrainConfig:
    steps: int = 1000
    batch_size: int = 16
    lr: float = 3e-4
    schedule: str = "circle"
    label_dropout: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup: int = 100
    lr_decay: str = "cosine"   # "cosine" | "none"; cosine anneals to min_lr_frac
    min_lr_frac: float = 0.1
    clip_norm: float = 1.0     # global gradient-norm clip; 0 disables
    ema_decay: float = 0.999
    seed: int = 0
    checkpoint_every: int = 0      # 0: only at the end
    differentiate_q: bool = False  # backprop through q in the KL term
    audit_steps: tuple = ()

    def __post_init__(self):
        check_integers(self)
        # nan passes every range check below and inf overflows the update;
        # a nan clip_norm or label_dropout would switch its feature off
        for name in ("lr", "eps", "weight_decay", "clip_norm", "label_dropout"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # the CLI contract allows --steps 0 (checkpoint == init) and lr 0
        # (bitwise null update), so only negatives are rejected; a negative
        # warmup makes the warmup ramp, hence the step, negative
        for name in ("steps", "lr", "warmup", "weight_decay", "clip_norm", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if any(s < 0 for s in self.audit_steps):
            raise ValueError(f"audit_steps must be non-negative, got {self.audit_steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative (0: only at the end)")
        if self.lr_decay not in ("cosine", "none"):
            raise ValueError(f"unknown lr_decay {self.lr_decay!r}; use cosine or none")
        mk.parse_schedule(self.schedule)  # refuses a bad spec before any work
        # a negative floor (min_lr_frac) makes the cosine tail's rate negative
        for name in ("label_dropout", "ema_decay", "min_lr_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        # beta = 1 zeroes the AdamW bias correction 1 - beta**t
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

    def to_dict(self):
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["audit_steps"] = list(d["audit_steps"])
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["audit_steps"] = tuple(d.get("audit_steps", ()))
        return cls(**d)


class TrainingError(RuntimeError):
    """A step that cannot go on: a non-finite loss or gradient (a diverging
    run) or a negative Jensen gap."""


def masked_targets(tokens, masked_counts, book: rvq.Codebook):
    """Masked-embedding regression targets of (B, L, D) token grids.

    z[b, i] = sum of the codeword embeddings at the deepest q[b, i] depths
    of position i, q the (B, L) masked counts, shape (B, L, H); `included`
    (B, L) flags positions with a masked depth; only those enter the loss.
    """
    q = mk.checked_counts(masked_counts, np.shape(tokens)[:-1], book.depth)
    z = rvq.dequantize(tokens, book, keep=mk.suffix_masks(q, book.depth) == 0)
    return z, q > 0


def gather_params(params: mog.MoGParams, rows):
    """The head rows that enter the loss; M and s pass through."""
    idx = np.asarray(rows, dtype=np.int64)
    return mog.MoGParams(*(nm.gather(f, idx) for f in (
        params.logits, params.means, params.log_scale, params.shift)),
        params.M, params.s)


def masked_loss(model: Backbone, book, tokens, masked_counts, labels, ratios,
                differentiate_q=False):
    """Shared loss path for training and auditing.

    Returns (surrogate mean Tensor, exact-NLL mean Tensor, n positions,
    head params) for (B, L, D) token grids and (B, L) masked counts;
    surrogate/NLL are zero Tensors when no position has a masked depth.
    """
    targets, included = masked_targets(tokens, masked_counts, book)
    rows = np.flatnonzero(included.reshape(-1))
    w = model.weights(True)
    out = model.forward(model.embed_input(tokens, masked_counts, book, w),
                        model.condition(labels, ratios, w), w)
    if rows.size == 0:
        zero = nm.constant(0.0)
        return zero, zero, 0, out

    sel = gather_params(out, rows)
    z = targets.reshape(-1, book.dim)[rows]
    sur, nll = mog.surrogate_and_nll(sel, z, differentiate_q)
    return nm.mean_(sur), nm.mean_(nll), rows.size, out


# elements per chunk of the optimizer update: the seven 128 KB slices it
# touches stay in cache between its ops
_CHUNK = 1 << 14


class Trainer:
    """Owns optimizer/EMA state and the training RNG stream.

    Every random decision (batch indices, mask ratios, masks, label
    dropout) flows from the single `rng`, so checkpointing its state makes
    resumed runs bit-identical to straight runs.

    The parameters, the AdamW moments and the EMA each live in one flat
    float64 buffer laid out in sorted parameter-name order. At construction
    every `p.data` becomes a view of its slice of the parameter buffer, and
    a step updates that buffer in place with elementwise ops over the flat
    buffers (the arithmetic of a per-tensor loop, hence its bits). So a
    `p.data` reference held across a step sees the update; take
    `model.parameter_arrays()` for a snapshot. The gradients are copied
    into a flat buffer of their own, and no parameter keeps its `.grad`
    past the step. The update's scratch is one chunk, not one buffer.

    Outside writers: `opt_m`, `opt_v` and `ema` read as {name: view into the
    buffer}, so later steps show through them (copy to keep a snapshot),
    and accept {name: array} assignments, which are copied in. Rebinding is
    still honoured: a step first copies in every parameter whose `p.data`
    is no longer its view (checkpoint restore, `Backbone.load_arrays`,
    tests) and points it back at the view.
    """

    def __init__(self, model: Backbone, book: rvq.Codebook, grids, labels,
                 config: TrainConfig, rng=None):
        self.model = model
        self.book = book
        self.grids = np.asarray(grids, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config
        self.schedule = mk.parse_schedule(config.schedule)
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.step_count = 0
        self._layout, end = [], 0      # (name, start, end, shape) by name
        for name, p in sorted(model.params.items()):
            self._layout.append((name, end, end + p.data.size, p.shape))
            end += p.data.size
        self._p = np.empty(end)
        self._views = self._split(self._p)
        self._bind_params()
        self._g = np.empty_like(self._p)
        self._gviews = self._split(self._g)
        self._ema = self._p.copy()
        self._m = np.zeros_like(self._p)
        self._v = np.zeros_like(self._p)
        # one chunk of scratch for the update's ops: fresh temporaries cost
        # more than the arithmetic
        self._a = np.empty(min(_CHUNK, end))
        self._b = np.empty_like(self._a)

    # -- flat state ----------------------------------------------------------

    def _join(self, arrays):
        """{name: array} -> one flat float64 vector in layout order."""
        parts = []
        for name, _, _, shape in self._layout:
            a = np.asarray(arrays[name], dtype=np.float64)
            if a.shape != shape:
                raise ValueError(f"{name}: shape {a.shape}, parameter has {shape}")
            parts.append(a.reshape(-1))
        return np.concatenate(parts)

    def _split(self, flat):
        """Flat vector -> {name: view of its slice}."""
        return {name: flat[a:b].reshape(shape) for name, a, b, shape in self._layout}

    def _bind_params(self):
        """Copy in every parameter rebound since the last step and point it
        back at its view of the parameter buffer."""
        params = self.model.params
        for name, view in self._views.items():
            p = params[name]
            if p.data is not view:
                if p.data.shape != view.shape:
                    raise ValueError(f"{name}: shape {p.data.shape}, "
                                     f"parameter has {view.shape}")
                view[...] = p.data
                p.data = view

    opt_m = property(lambda self: self._split(self._m),
                     lambda self, arrays: setattr(self, "_m", self._join(arrays)))
    opt_v = property(lambda self: self._split(self._v),
                     lambda self, arrays: setattr(self, "_v", self._join(arrays)))
    ema = property(lambda self: self._split(self._ema),
                   lambda self, arrays: setattr(self, "_ema", self._join(arrays)))

    # -- one step ----------------------------------------------------------

    def _draw_batch(self):
        c = self.config
        N, L, D = self.grids.shape
        idx = self.rng.integers(0, N, size=c.batch_size)
        ratios = self.rng.random(c.batch_size)
        q = mk.sample_counts_batch(np.full((c.batch_size, L), D, dtype=np.int64),
                                   mk.mask_count(self.schedule, ratios, L, D), self.rng)
        labels = self.labels[idx].copy()
        drops = self.rng.random(c.batch_size)
        labels[(labels != 0) & (drops < c.label_dropout)] = 0
        return idx, ratios, q, labels

    def step(self):
        c = self.config
        self._bind_params()
        idx, ratios, q, labels = self._draw_batch()
        sur, nll, n_sel, _ = masked_loss(
            self.model, self.book, self.grids[idx], q, labels, ratios,
            differentiate_q=c.differentiate_q)
        loss = float(sur.data)
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {self.step_count}: loss={loss}, "
                f"batch indices {idx.tolist()}, ratios {np.round(ratios, 4).tolist()}")
        gap = float(sur.data - nll.data)
        if gap < -1e-9:
            raise TrainingError(f"Jensen gap violated at step {self.step_count}: {gap}")

        scale = None                    # None: no gradient step
        if n_sel > 0:
            for name, g in nm.grads(sur, self.model.params).items():
                self._gviews[name][...] = g
        # the flat buffer is the step's only copy of the gradients: no leaf
        # keeps a `.grad` (this step's, or an audit's) into the next forward
        for p in self.model.params.values():
            p.grad = None
        if n_sel > 0:
            # the global norm, one dot product over the flat gradient buffer,
            # is taken on every step, clipping or not: a NaN norm would pass
            # the clip test and an inf one would scale the step by 0 * inf
            total = math.sqrt(self._g @ self._g)
            if not math.isfinite(total):
                raise TrainingError(f"non-finite gradient at step {self.step_count}: "
                                    f"global norm {total}")
            scale = c.clip_norm / total if 0 < c.clip_norm < total else 1.0
        self._update(scale)
        self.step_count += 1
        return {"step": self.step_count, "loss": loss, "gap": gap,
                "positions": n_sel}

    def _learning_rate(self, t):
        c = self.config
        lr = c.lr * min(1.0, t / c.warmup) if c.warmup else c.lr
        if c.lr_decay == "cosine" and c.steps > c.warmup and t > c.warmup:
            frac = min(1.0, (t - c.warmup) / (c.steps - c.warmup))
            lo = c.lr * c.min_lr_frac
            lr = lo + 0.5 * (c.lr - lo) * (1.0 + np.cos(np.pi * frac))
        return lr

    def _update(self, scale):
        """Clip by `scale` and apply AdamW (unless `scale` is None, a step
        without gradient), then the EMA, over the flat buffers in chunks
        small enough to stay in cache. Every element sees the op sequence of
        the per-tensor form, so every op rounds as there:
        g = scale*g, m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        upd = (m/bc1) / (sqrt(v/bc2) + eps) + wd*p, p = p - lr*upd,
        ema = d*ema + (1-d)*p."""
        c = self.config
        t = self.step_count + 1
        lr = self._learning_rate(t)
        bc1 = 1.0 - c.beta1**t
        bc2 = 1.0 - c.beta2**t
        for lo in range(0, self._p.size, _CHUNK):
            p, g, m, v, ema = (x[lo:lo + _CHUNK] for x in (
                self._p, self._g, self._m, self._v, self._ema))
            a, b = self._a[:p.size], self._b[:p.size]
            if scale is not None:
                if scale != 1.0:
                    g *= scale
                m *= c.beta1
                m += np.multiply(g, 1 - c.beta1, out=a)
                v *= c.beta2
                np.multiply(g, g, out=a)
                a *= 1 - c.beta2
                v += a
                # lr = 0: a bitwise null update; the moments still advance
                if lr != 0.0:
                    den = np.sqrt(np.divide(v, bc2, out=b), out=b)
                    den += c.eps
                    # once beta1**t is below half an ulp of 1, bc1 is 1.0
                    # and m / bc1 is m itself
                    upd = np.divide(m if bc1 == 1.0 else np.divide(m, bc1, out=a),
                                    den, out=a)
                    if c.weight_decay:
                        upd += np.multiply(p, c.weight_decay, out=b)
                    p -= np.multiply(upd, lr, out=a)
            ema *= c.ema_decay
            ema += np.multiply(p, 1.0 - c.ema_decay, out=a)

    def run(self, steps, log_fn=None):
        for _ in range(steps):
            audit_val = self.audit() if self.step_count in self.config.audit_steps \
                else None
            record = self.step()
            if audit_val is not None:
                record["grad_audit"] = audit_val
            if log_fn:
                log_fn(format_record(record))
        return self.step_count

    # -- finite-difference audit -------------------------------------------

    def audit(self, entries_per_tensor=2, h=1e-5):
        """FD audit of the exact-NLL loss path on a frozen micro-batch.

        The surrogate stop-gradients q, so its finite differences do not
        equal its autodiff gradient by construction; the exact NLL path
        exercises the identical parameter set end to end.
        """
        arng = np.random.default_rng(self.config.seed + 7919)
        L, D = self.grids.shape[1], self.grids.shape[2]
        take = min(2, self.grids.shape[0])
        tokens = self.grids[:take]
        q = np.stack([
            mk.binary_mask(mk.mask_count(self.schedule, 0.4, L, D), L, D, arng)
            for _ in range(take)])
        labels = self.labels[:take]
        ratios = np.full(take, 0.4)

        def loss():
            _, nll, _, _ = masked_loss(self.model, self.book, tokens, q,
                                       labels, ratios)
            return nll

        picks = {k: arng.choice(p.data.size, size=min(entries_per_tensor, p.data.size),
                                replace=False)
                 for k, p in sorted(self.model.params.items())}
        return nm.finite_difference_check(loss, self.model.params, h, picks)


def format_record(record):
    parts = [f"step={record['step']}", f"loss={record['loss']:.6f}",
             f"gap={record['gap']:.6e}", f"positions={record['positions']}"]
    if "grad_audit" in record:
        parts.append(f"grad_audit={record['grad_audit']:.3e}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# variational-bound diagnostics


def _model_reconstructions(model, book, tokens, q, label, ratio, rng, samples):
    """Draw full-grid candidates x0_hat ~ p(x0 | x_t), (samples, L, D), at
    masked counts q: sample z at masked positions, quantize the masked
    depths, keep revealed tokens."""
    w = model.weights(False)
    params = model.forward(model.embed_input(tokens, q, book, w),
                           model.condition([label], [ratio], w), w)
    return np.stack([rvq.quantize(mog.sample(params, *mog.draw(params, rng)), book,
                                  start_depth=book.depth - q, out=tokens)
                     for _ in range(samples)])


def vlb_diagnostic(tokens, model, book, T, schedule, rng, label=0,
                   model_samples=8, max_states=20000):
    """Monte-Carlo estimates of the variational bound terms.

    L_T is exactly zero (the terminal state is fully masked with
    probability one). Each L_t is the KL between the true posterior over
    the previous mask pattern and the model's implied reverse kernel,
    computed by enumerating count vectors; L_0 is the negative log of the
    model's probability of reconstructing the clean grid in one step.
    Only meant for small grids (the enumeration guard trips otherwise).
    """
    tokens = np.asarray(tokens)
    L, D = tokens.shape
    if (D + 1) ** L > max_states:
        raise ValueError("grid too large for exhaustive VLB enumeration")
    # masked totals N_t of the forward chain aligned with the reverse
    # schedule: N_0 = 0 (clean), N_T = L*D (fully masked)
    totals = mk.mask_count(schedule, (T - np.arange(T + 1)) / T, L, D).tolist()

    # forward-simulate the masking chain's masked counts
    qs = [np.zeros(L, dtype=np.int64)]
    for t in range(1, T + 1):
        qs.append(mk.mask_more(qs[t - 1], D, totals[t] - totals[t - 1], rng))

    terms = {"L_T": 0.0, "L_t": [], "L_0": None}
    for t in range(1, T):
        c1 = qs[t + 1]
        n_step = totals[t + 1] - totals[t]
        cands = _model_reconstructions(model, book, tokens, c1, label,
                                       (T - (t + 1)) / T, rng, model_samples)
        # x_t reveals, relative to x_{t+1}, the shallowest k_i masked depths
        # with the TRUE tokens; a candidate x0_hat supports k iff its run of
        # correct tokens from each position's shallowest masked depth is
        # at least k_i long
        lo = D - c1
        wrong = (cands != tokens) & (np.arange(D) >= lo[:, None])
        runs = np.where(wrong.any(axis=2), wrong.argmax(axis=2), D) - lo
        kl = 0.0
        for k in itertools.product(*(range(min(ci, n_step) + 1) for ci in c1)):
            if sum(k) != n_step:
                continue
            logq = mk.posterior_logprob(c1 - np.array(k), c1, int(c1.sum()), n_step)
            if logq == mk.IMPOSSIBLE:
                continue
            q = np.exp(logq)
            p_hat = (runs >= k).all(axis=1).sum() * q / len(cands)
            kl += q * (logq - np.log(p_hat)) if p_hat > 0 else np.inf
        terms["L_t"].append(kl)

    # reconstruction term from x_1
    cands = _model_reconstructions(model, book, tokens, qs[1], label,
                                   (T - 1) / T, rng, model_samples)
    hits = (cands == tokens).all(axis=(1, 2)).sum()
    terms["L_0"] = -np.log(hits / len(cands)) if hits else np.inf
    return terms
