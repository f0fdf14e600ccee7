"""Backbone: partially masked token grid -> per-position MoG parameters.

A small pre-norm transformer. The masking state enters as masked counts q.
Position i embeds the sum of its revealed codeword embeddings (a learned null
vector when all is hidden) concatenated with q_i / D, projected to the width.
Class label and mask-ratio conditioning enter as a bias added to every
normalized activation (bias-modulated normalization); the mask ratio is a
scalar scaling a learned direction. Output heads are zero-initialized so an
untrained model predicts the uniform mixture with zero means. The blocks
carry the residual stream as one row per grid position, (B*L, width), so
each projection is one 2D product, and the heads emit those rows,
(B*L, ...), the layout the loss gathers from and the sampler draws from.

A model call is `forward(embed_input(tokens, q, book, w), condition(labels,
r, w), w)`. `w = weights(grad)` binds the op set and the parameter mapping;
`embed_input` computes the label-free prefix (the residual-stream rows with
the positional encoding added, and block 0's first layer norm of them);
`condition` builds the label and ratio rows; `forward` runs the blocks and
heads on both and counts the call. A sampled grid binds `w` and builds all
its steps' rows once, and a guided step embeds its grid once for two calls.

`weights(True)` (training) gives the autodiff ops of `numerics` over the
parameter Tensors; `weights(False)` (sampling, VLB diagnostics) gives the
graph-free kernels `numerics.plain` over the parameters' arrays as they are
then, and the calls return ndarrays. The autodiff ops call those kernels,
so the two modes agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from . import rvq
from .masking import checked_counts, suffix_masks
from .mog import MoGParams


def check_integer(name, value):
    """A float or a bool raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: {value!r} is not an integer")


def check_integers(config):
    """Every `int` field of a config dataclass, and every entry of a `tuple`
    one, must be an integer (`check_integer`)."""
    for name, f in config.__dataclass_fields__.items():
        field = getattr(config, name)
        for value in field if f.type == "tuple" else (field,) if f.type == "int" else ():
            check_integer(name, value)


@dataclass
class BackboneConfig:
    seq_len: int          # grid positions
    depth: int            # quantization stages per position
    vocab: int            # codewords per stage
    latent_dim: int       # vector dimension the codebook lives in
    width: int = 64       # the five model sizes: `rvqgen train`'s defaults
    layers: int = 2
    heads: int = 4
    mixtures: int = 32    # MoG components
    mean_rank: int = 8    # low-rank mean dimension
    num_classes: int = 0  # 0 = unconditional; label 0 is the null label
    positional_encoding: bool = True

    def __post_init__(self):
        check_integers(self)
        for name in ("seq_len", "depth", "vocab", "latent_dim", "width",
                     "layers", "heads", "mixtures", "mean_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def sinusoidal_encoding(L, width):
    pos = np.arange(L)[:, None]
    half = np.arange(width // 2 + width % 2)
    freq = 1.0 / (10000.0 ** (2 * half / width))
    pe = np.zeros((L, width))
    ang = pos * freq[None, :]
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)[:, : width // 2]
    return pe


def parameter_specs(c: BackboneConfig):
    """(name, shape, init) of every parameter, in creation order, without
    building an array. init is "lin" (standard normal / sqrt(fan_in), the
    fan-in being shape[0]), "zeros", "ones", or a float s (s * standard
    normal)."""
    W, H, K, h = c.width, c.latent_dim, c.mixtures, c.mean_rank
    specs = [("embed.w", (H + 1, W), "lin"), ("embed.b", (W,), "zeros"),
             ("embed.null", (H,), 0.02), ("cond.classes", (c.num_classes + 1, W), 0.02),
             ("cond.ratio", (W,), 0.02)]
    for i in range(c.layers):
        p = f"block{i}."
        specs += [(p + "ln1.g", (W,), "ones"), (p + "ln1.b", (W,), "zeros")]
        for proj in ("q", "k", "v"):
            specs.append((p + f"attn.{proj}w", (W, W), "lin"))
            if proj != "k":
                # a key bias shifts every attention row uniformly and
                # cancels in the softmax; it would be a dead direction
                specs.append((p + f"attn.{proj}b", (W,), "zeros"))
        specs += [(p + "attn.ow", (W, W), "lin"), (p + "attn.ob", (W,), "zeros"),
                  (p + "ln2.g", (W,), "ones"), (p + "ln2.b", (W,), "zeros"),
                  (p + "mlp.w1", (W, 4 * W), "lin"), (p + "mlp.b1", (4 * W,), "zeros"),
                  (p + "mlp.w2", (4 * W, W), "lin"), (p + "mlp.b2", (W,), "zeros")]
    specs += [("final.g", (W,), "ones"), ("final.b", (W,), "zeros")]
    # zero-init heads: untrained model emits uniform pi, zero means
    for head, n in (("logits", K), ("means", K * h), ("scale", 1), ("shift", H)):
        specs += [(f"head.{head}.w", (W, n), "zeros"), (f"head.{head}.b", (n,), "zeros")]
    return specs + [("basis.M", (K, H, h), 0.1), ("basis.s", (K, H), "zeros")]


_BLOCK_NAMES = ("attn.qw", "attn.qb", "attn.kw", "attn.vw", "attn.vb", "attn.ow",
                "attn.ob", "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


class Backbone:
    """Owns the parameter store; autodiff forward passes build fresh
    graphs, graph-free ones (`weights(False)`) build none."""

    def __init__(self, config: BackboneConfig, seed=0):
        self.config = config
        self.params: dict[str, nm.Tensor] = {}
        self.forward_calls = 0
        self._pe = sinusoidal_encoding(config.seq_len, config.width)
        self._scale = 1.0 / np.sqrt(config.width // config.heads)
        # per block: its names as `predict` reads them, then the next norm's
        opens = [f"block{i}.ln1." for i in range(1, config.layers)] + ["final."]
        self._blocks = tuple(tuple(f"block{i}.{n}" for n in _BLOCK_NAMES)
                             + (opens[i] + "g", opens[i] + "b") for i in range(config.layers))
        self._init_params(np.random.default_rng(seed))

    # -- parameters -------------------------------------------------------

    def _init_params(self, rng):
        for name, shape, init in parameter_specs(self.config):
            if init == "lin":
                value = rng.normal(size=shape) / np.sqrt(shape[0])
            elif init in ("zeros", "ones"):
                value = np.zeros(shape) if init == "zeros" else np.ones(shape)
            else:
                value = init * rng.normal(size=shape)
            self.params[name] = nm.parameter(value, name=name)

    def parameter_arrays(self):
        return {k: v.data.copy() for k, v in sorted(self.params.items())}

    def load_arrays(self, arrays):
        for k, p in self.params.items():
            p.data = np.array(arrays[k], dtype=np.float64)

    # -- forward ----------------------------------------------------------

    def weights(self, grad):
        """(op set, parameter mapping) that `embed_input`, `condition` and
        `forward` take: the autodiff ops over the parameter Tensors, or the
        graph-free kernels over the parameters' arrays as they are now."""
        if grad:
            return nm, self.params
        return nm.plain, {k: p.data for k, p in self.params.items()}

    def embed_input(self, tokens, masked_counts, book: rvq.Codebook, weights):
        """(B, L, D) tokens + (B, L) masked counts q, or (L, D) + (L,) -> the
        label-free prefix of a model call: (x, normed), the residual-stream
        rows (B*L, width) with the positional encoding added, and block 0's
        first layer norm of them. Tensors, or ndarrays under `weights(False)`.

        Position i hides its deepest q_i depths. Its features: the sum of
        its revealed codeword embeddings (hidden tokens are never read; a
        learned null vector when fully hidden) concatenated with q_i / D.
        A MASK token at a revealed entry raises ValueError.
        """
        c = self.config
        ops, P = weights
        tokens, q = np.asarray(tokens), np.asarray(masked_counts)
        if tokens.ndim == 2:
            tokens, q = tokens[None], q[None]
        if tokens.shape[1:] != (c.seq_len, c.depth):
            raise ValueError(f"token grid must be (B, {c.seq_len}, {c.depth}), got {tokens.shape}")
        q = checked_counts(q, tokens.shape[:2], c.depth)

        e_sum = rvq.dequantize(tokens, book, keep=suffix_masks(q, c.depth) == 1)
        hidden = (q == c.depth)[:, :, None].astype(np.float64)   # fully masked flag

        feat = ops.add(e_sum, ops.mul(hidden, P["embed.null"]))
        x = ops.concat([feat, (q / c.depth)[:, :, None]], axis=-1)
        x = ops.linear(x, P["embed.w"], P["embed.b"])
        if c.positional_encoding:
            x = ops.add(x, self._pe[None])
        x = ops.reshape(x, (tokens.shape[0] * c.seq_len, c.width))
        return x, ops.layer_norm(x, P["block0.ln1.g"], P["block0.ln1.b"])

    def condition(self, labels, r, weights):
        """Labels (B,) + mask ratios r (B,) -> conditioning rows (B*L, width):
        label b's class row plus r_b times the ratio direction, at each of
        grid b's positions, bit for bit as in B one-grid calls. A label that
        is not an integer in [0, num_classes], a ratio outside [0, 1] (or
        not finite) and unequal lengths each raise ValueError naming it."""
        c = self.config
        ops, P = weights
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu":
            for value in labels.ravel().tolist():
                check_integer("labels", value)
        labels, r = np.atleast_1d(labels).astype(np.int64), np.atleast_1d(r).astype(np.float64)
        if labels.ndim != 1 or r.shape != labels.shape:
            raise ValueError(f"labels and mask ratios must be (B,) each, got {labels.shape} "
                             f"and {r.shape}")
        if (np.minimum.reduce(labels, initial=0) < 0
                or np.maximum.reduce(labels, initial=0) > c.num_classes):
            raise ValueError(f"labels must lie in [0, {c.num_classes}]")
        inside = (r >= 0) & (r <= 1)             # false for nan
        if not inside.all():
            raise ValueError(f"mask ratios must be finite and lie in [0, 1], got {r[~inside][0]}")
        return ops.add(ops.gather(P["cond.classes"], np.repeat(labels, c.seq_len)),
                       ops.mul(np.repeat(r, c.seq_len)[:, None], P["cond.ratio"]))

    def predict(self, embedded, cond, weights):
        """`embed_input`'s (x, normed) + `condition`'s rows (of x's shape, or
        ValueError) -> MoGParams of Tensors, or of ndarrays under
        `weights(False)`. Blocks and heads run on (B*L, width) rows, one per
        grid position, and emit such rows: logits (B*L, K), means (B*L, K, h),
        log_scale (B*L,) and shift (B*L, H), grid b at rows b*L .. b*L + L - 1.
        M and s are the basis parameters `basis.M` and `basis.s`, so the loss
        and the sampler need nothing else."""
        c = self.config
        ops, P = weights
        x, normed = embedded
        if cond.shape != x.shape:
            raise ValueError(f"conditioning rows must be {x.shape}, got {cond.shape}")
        L, nh, hd = c.seq_len, c.heads, c.width // c.heads
        B = x.shape[0] // L
        split = (B, L, nh, hd)
        # `normed` is the layer norm that opens each stage: block i's first,
        # then the final one
        for names in self._blocks:
            qw, qb, kw, vw, vb, ow, ob, g2, b2, w1, b1, w2, b3, g, b = map(P.__getitem__, names)
            h = ops.add(normed, cond)
            # rows -> (B*heads, L, hd); a key bias would cancel in the softmax
            q, k, v = (ops.reshape(ops.transpose(ops.reshape(ops.linear(h, w, bias), split),
                                                 (0, 2, 1, 3)), (B * nh, L, hd))
                       for w, bias in ((qw, qb), (kw, None), (vw, vb)))
            scores = ops.mul(ops.matmul(q, ops.transpose(k, (0, 2, 1))), self._scale)
            att = ops.reshape(ops.matmul(ops.softmax(scores), v), (B, nh, L, hd))
            att = ops.reshape(ops.transpose(att, (0, 2, 1, 3)), (B * L, c.width))
            x = ops.add(x, ops.linear(att, ow, ob))
            h2 = ops.add(ops.layer_norm(x, g2, b2), cond)
            mlp = ops.gelu(ops.linear(h2, w1, b1))
            x = ops.add(x, ops.linear(mlp, w2, b3))
            normed = ops.layer_norm(x, g, b)
        y = ops.add(normed, cond)

        logits = ops.linear(y, P["head.logits.w"], P["head.logits.b"])
        means = ops.reshape(ops.linear(y, P["head.means.w"], P["head.means.b"]),
                            (B * L, c.mixtures, c.mean_rank))
        log_scale = ops.reshape(ops.linear(y, P["head.scale.w"], P["head.scale.b"]), (B * L,))
        shift = ops.linear(y, P["head.shift.w"], P["head.shift.b"])
        return MoGParams(logits, means, log_scale, shift, P["basis.M"], P["basis.s"])

    def forward(self, embedded, cond, weights):
        """One model call, on `embed_input`'s output and `condition`'s rows:
        `predict`, counted in `forward_calls`. Under `weights(False)` its
        ndarray heads have the bits of the autodiff graph's `.data`."""
        out = self.predict(embedded, cond, weights)
        self.forward_calls += 1
        return out
