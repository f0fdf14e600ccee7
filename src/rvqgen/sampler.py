"""Iterative unmasking sampler.

Generation starts from a fully masked grid. Each of the T steps predicts
the cumulative masked embedding per position, samples a vector from the
(optionally guidance-combined) mixture, quantizes it into candidate tokens
for the masked depths, then reveals enough tokens to match the schedule.
Revealed tokens are frozen: later steps only re-predict what is still
hidden, so the model is invoked exactly T times (2T with guidance) no
matter how long or deep the grid is.

The masking state is the int64 masked counts q (L,) and their total;
the mask and the unmasked counts D - q are derived where a step reads
them. A grid binds the graph-free weights once (`w = model.weights(False)`)
and builds all T steps' conditioning rows in one `model.condition` call
(one more for the null label with guidance). The grid is embedded once
per masked state (`model.embed_input(tokens, q, book, w)`), and each
model call is the graph-free `model.forward(embedded, cond, w)` on it:
one call per step, or two with guidance, which differ only in the label.
Neither records a graph, and both give the bits of the autodiff path, so
tokens do not depend on it.

The reveal schedule is taken before the first step, from one array call
to `masking.mask_count` over the ratios t/T, equal bit for bit to T
scalar calls. After its model call(s) every step takes the same random
draws in a fixed order: the component uniforms of every position, then
every position's normals (`mog.draw`, which first checks the head
outputs), then the Gumbel noise in confidence mode, or a random reveal's
hypergeometric counts. Seeded runs are deterministic, but tokens differ
from versions that drew per position at the same seed.

A step whose schedule target equals the masked total reveals nothing.
It makes its model call(s), the guidance combination and the draws
(with `mog.draw`'s head-output check), and ends there: no z, no
quantization, scores or selection, and the next step reuses its
embedding, which reads only the revealed tokens and q, neither of which
changed. Its z would have reached only masked tokens and the chain,
which the next revealing step writes anew, so the tokens and the
generator state are those of a step that does all the work; only a draw
that overflows on such a step goes unreported, as it reaches no token.
At L = 8, D = 4 the circle schedule reveals nothing on 14 of T = 32
steps, 11 of 28 and 39 of 63 (1 of 28 at L = 256); `forward_passes`
stays T, or 2T with guidance.

A revealing step builds z at every position (`mog.sample`) and
quantizes them all, against the codebook's precomputed scoring pairs.
In confidence mode it then scores the residual chain that the
quantization leaves (L, D, H) with the codebook's sigma-only terms and
picks the reveals with one sort; the codewords are not read back. One
depth-suffix mask per step serves the scores, the selection and the
`validate` check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import masking as mk
from . import mog
from . import rvq
from .backbone import Backbone, check_integer, check_integers


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 63
    schedule: str = "circle"
    selection: str = "confidence"   # "confidence" | "random"
    temperature: float = 1.0        # Gumbel choice temperature tau
    top_p: float = 1.0
    cfg_start: float = 0.0
    cfg_end: float = 0.0
    use_cfg: bool = False
    seed: int = 0

    def __post_init__(self):
        check_integers(self)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # nan passes the range checks and reaches the draws as nan scores
        for name in ("temperature", "cfg_start", "cfg_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must lie in (0, 1]")
        if self.selection not in ("confidence", "random"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        mk.parse_schedule(self.schedule)  # refuses a bad spec before any work


# Named presets: step count, guidance ramp, nucleus threshold, and choice
# temperature combinations exposed for convenience.
PRESETS = {
    "paper-28": SamplerConfig(steps=28, cfg_start=0.02, cfg_end=2.4,
                              top_p=0.94, temperature=28.0, use_cfg=True),
    "paper-48": SamplerConfig(steps=48, cfg_start=0.02, cfg_end=2.4,
                              top_p=0.96, temperature=28.0, use_cfg=True),
    "paper-64": SamplerConfig(steps=64, cfg_start=0.02, cfg_end=2.2,
                              top_p=0.98, temperature=28.0, use_cfg=True),
}


def preset(name, **overrides):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides) if overrides else PRESETS[name]


def cfg_weight(config: SamplerConfig, t):
    """Guidance weight at step t (1-based), linear from start to end."""
    if config.steps == 1:
        return config.cfg_start
    frac = (t - 1) / (config.steps - 1)
    return config.cfg_start + frac * (config.cfg_end - config.cfg_start)


def check_sigma(book: rvq.Codebook):
    """ValueError unless the codebook has a positive sigma at every depth
    whose 2 sigma^2 is positive too (not underflowed to 0), which the
    confidence scores divide by."""
    if not ((book.sigma > 0).all() and (book.two_var > 0).all()):
        raise ValueError("codebook sigma required for confidence scores")


def confidence_scores(residuals, masked, book: rvq.Codebook, tau, gumbel):
    """Per-masked-token confidence: Gaussian log-density of each depth's
    residual under its chosen codeword (variance sigma_j^2), cumulatively
    summed across depths, plus tau-scaled Gumbel noise. Revealed entries
    get -inf.

    `residuals` (L, D, H) is the chain that `rvq.quantize` leaves for the
    step's draw: each depth's residual after its codeword, where a revealed
    depth subtracted nothing. `masked` (L, D) marks the masked entries and
    `gumbel` (L, D) is the step's standard Gumbel noise.
    """
    check_sigma(book)
    # the codebook holds the sigma-only terms -H/2 log(2 pi s2) and 2 s2
    log_n = book.log_norm - np.add.reduce(residuals * residuals, axis=-1) / book.two_var
    cum = np.cumsum(np.where(masked, log_n, 0.0), axis=1)
    return np.where(masked, cum + tau * gumbel, -np.inf)


def select_unmask(q, n_target, scores, masked):
    """Masked counts q after revealing down to n_target tokens by
    confidence: greedily reveal the highest-scoring token among each
    position's shallowest masked depth, which preserves the depth-suffix
    invariant by construction. `masked` (L, D) is q's mask, True at the
    masked entries. A token can be revealed only after every shallower
    masked token of its position, so the greedy order ranks tokens by their
    running minimum score along depth; the first n of a stable sort of
    those minima (ties to the lower position, then the shallower depth) are
    the greedy reveals.
    """
    n_total = int(q.sum())
    if n_target > n_total:
        raise ValueError(f"n_target={n_target} exceeds masked count {n_total}")
    L, D = np.shape(scores)
    eff = np.minimum.accumulate(np.where(masked, scores, np.inf), axis=1)
    # revealed entries sort after every masked one, -inf scores included
    eff = np.where(masked, eff, np.nan)
    picks = np.argsort(-eff.ravel(), kind="stable")[:n_total - n_target]
    return q - np.bincount(picks // D, minlength=L)


def generate(model: Backbone, book: rvq.Codebook, label, config: SamplerConfig,
             rng=None, validate=False):
    """Run the T-step unmasking loop for an integer class label (0 is the
    null label); returns (tokens, stats).

    stats: forward_passes (exactly T, or 2T with guidance), steps, and
    wall_time seconds.
    """
    c = model.config
    if book.depth != c.depth or book.dim != c.latent_dim:
        raise ValueError("model and codebook disagree on grid geometry")
    check_integer("label", label)
    if not 0 <= label <= c.num_classes:
        raise ValueError(f"label {label} outside [0, {c.num_classes}]")
    confident = config.selection == "confidence"
    if confident:
        check_sigma(book)   # before the leading steps, which score nothing
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    T = config.steps
    # the whole reveal schedule in one call: step t leaves targets[t - 1]
    # tokens masked, and the model sees the mask ratio (t - 1) / T
    targets = mk.mask_count(mk.parse_schedule(config.schedule),
                            np.arange(1, T + 1) / T, c.seq_len, c.depth).tolist()

    t0 = time.perf_counter()
    calls_before = model.forward_calls
    # the grid's weights; all steps' rows (T, L, width), label then null label
    w, ratios = model.weights(False), np.arange(T) / T
    conds = [model.condition(np.full(T, y), ratios, w).reshape(T, c.seq_len, -1)
             for y in ((label, 0) if config.use_cfg else (label,))]
    tokens = np.full((c.seq_len, c.depth), rvq.MASK, dtype=np.int64)
    q = np.full(c.seq_len, c.depth, dtype=np.int64)
    n_masked = c.seq_len * c.depth
    frozen = tokens.copy()      # the revealed tokens, for `validate`
    # the step's residual chain, which `quantize` fills for the scores
    chain = np.empty((c.seq_len, c.depth, c.latent_dim)) if confident else None
    depths = np.arange(c.depth)
    embedded = None             # the grid's embedding, kept until q changes

    for t in range(1, T + 1):
        if embedded is None:
            embedded = model.embed_input(tokens, q, book, w)
        params = model.forward(embedded, conds[0][t - 1], w)
        if config.use_cfg:
            uncond = model.forward(embedded, conds[1][t - 1], w)
            params = mog.cfg_combine(params, uncond, cfg_weight(config, t))

        u, eps = mog.draw(params, rng)
        # the step's last draw: every step takes it, revealing or not
        gumbel = rng.gumbel(size=tokens.shape) if confident else None
        n_target = min(targets[t - 1], n_masked)
        if n_target == n_masked:
            # nothing to reveal: the revealed tokens and q stand, and the
            # next revealing step rewrites every masked token and the chain
            continue

        start = c.depth - q
        tokens = rvq.quantize(mog.sample(params, u, eps, config.top_p), book,
                              start_depth=start, out=tokens, residuals=chain)
        if confident or validate:
            # the step's one mask: position i hides its depths past start_i
            masked = depths >= start[:, None]
        if confident:
            scores = confidence_scores(chain, masked, book, config.temperature, gumbel)
            new_q = select_unmask(q, n_target, scores, masked)
        else:
            new_q = mk.binary_unmask(q, n_target, rng)

        if validate:
            if not np.array_equal(tokens[~masked], frozen[~masked]):
                raise AssertionError("revealed token changed after reveal")
            frozen = tokens.copy()
        q, n_masked, embedded = new_q, n_target, None

    if q.any():
        raise AssertionError("grid not fully revealed after the final step")
    stats = {
        "forward_passes": model.forward_calls - calls_before,
        "steps": config.steps,
        "wall_time": time.perf_counter() - t0,
    }
    return tokens, stats
