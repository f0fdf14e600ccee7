"""Forward masking process over token grids.

Tokens live on an L x D grid. Masking always eats depth suffixes: at every
position the masked entries are exactly the deepest q_i depths, so finer
detail disappears before coarser structure. How many entries to mask comes
from a schedule gamma(r); how the masked count splits across positions is a
multivariate hypergeometric draw (n items without replacement from L*D
slots grouped D per position). The marginal, per-step, and posterior count
distributions all have closed forms in terms of binomial coefficients,
implemented here in log space.

The state is therefore the int64 array of masked counts q, and each
transition maps counts to counts. The mask (`suffix_masks(q, D)`), the
unmasked counts D - q and the masked total q.sum() are derived where they
are read. The counts are also the model's and the loss's only masking
input; `checked_counts` checks them where they enter from outside.

Every split is one rule, conditional hypergeometric draws position by
position: `sample_counts` on one row, `sample_counts_batch` on many at
once, equal draw for draw on one row. The closed forms are the reference
the tests hold the draws to.

Everything is pure given an explicit numpy Generator; callers own their
RNG streams, so parallel use with independent streams is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rvq import MASK


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class Schedule:
    kind: str            # "circle" | "cosine" | "exp"
    lam: float = 6.0     # exponential decay rate, used by "exp" only

    def __post_init__(self):
        if self.kind not in ("circle", "cosine", "exp"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # a nan rate passes lam <= 0 and turns every mask count into nan
        if self.kind == "exp" and not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"exponential schedule needs a finite lam > 0, got {self.lam}")


def parse_schedule(spec: str) -> Schedule:
    """Parse "circle" | "cosine" | "exp" | "exp:<lam>"; a malformed spec
    raises ValueError naming the schedule."""
    kind, colon, rate = spec.partition(":")
    try:
        if colon and kind != "exp":
            raise ValueError("only exp takes a rate")
        return Schedule(kind, float(rate)) if colon else Schedule(kind)
    except ValueError as e:
        raise ValueError(f"schedule {spec!r}: {e}") from None


def gamma(schedule: Schedule, r):
    """Masked fraction at normalized time r in [0, 1]; 1 at r=0, 0 at r=1."""
    r = np.asarray(r, dtype=np.float64)
    if np.any((r < 0) | (r > 1)):
        raise ValueError("r must lie in [0, 1]")
    if schedule.kind == "circle":
        out = np.sqrt(1.0 - r * r)
    elif schedule.kind == "cosine":
        out = np.cos(np.pi * r / 2.0)
    else:
        lam = schedule.lam
        out = (np.exp(-lam * r) - np.exp(-lam)) / (1.0 - np.exp(-lam))
    return float(out) if out.ndim == 0 else out


def mask_count(schedule: Schedule, r, L, D):
    """n = ceil(gamma(r) * L * D), clamped to [0, L*D]; an int for a scalar
    r, an int64 array for an array of ratios.

    gamma(1) is 0 by contract, but cos(pi/2) evaluates to ~6e-17 and ceil
    would turn that into one stuck masked token; snap the boundary.
    """
    n = np.ceil(gamma(schedule, r) * L * D).clip(0, L * D) * (np.asarray(r) != 1)
    return int(n) if np.ndim(n) == 0 else n.astype(np.int64)


# ---------------------------------------------------------------------------
# masked counts

def checked_counts(q, shape, D):
    """Masked counts q as an array; ValueError unless `shape` ints in [0, D]."""
    q = np.asarray(q)
    if q.shape != shape or q.dtype.kind not in "iu" or q.size and not (
            np.minimum.reduce(q, axis=None) >= 0 and np.maximum.reduce(q, axis=None) <= D):
        raise ValueError(f"masked counts must be {shape} integers in [0, {D}], "
                         f"got {q.dtype} {q.shape}")
    return q


def suffix_masks(q, D):
    """Depth-suffix masks (..., D) int8 from masked counts q (...): at every
    position the deepest q depths are hidden (0), the rest revealed (1)."""
    return (np.arange(D) < (D - np.asarray(q))[..., None]).astype(np.int8)


def apply_mask(tokens, mask):
    """Masked-out view of a token grid: hidden entries become MASK."""
    tokens = np.asarray(tokens)
    out = tokens.copy()
    out[np.asarray(mask) == 0] = MASK
    return out


# ---------------------------------------------------------------------------
# hypergeometric draws

def sample_counts(capacities, n, rng):
    """Draw a multivariate-hypergeometric count vector: n items without
    replacement from groups of the given capacities.

    Sequential conditional draws: k_1 ~ HG(c_1, sum(c)-c_1, n), then recurse
    on the remainder. This is the exact chain-rule factorization of the
    joint pmf, no shuffling needed.
    """
    caps = np.asarray(capacities, dtype=np.int64).tolist()
    total = sum(caps)
    if not 0 <= n <= total:
        raise ValueError(f"cannot draw {n} from capacity {total}")
    # plain ints and one bound method: at L=8 the loop's numpy-scalar
    # bookkeeping cost more than the draws
    draw = rng.hypergeometric
    k = []
    rem_n = int(n)
    rem_total = total
    for c in caps[:-1]:
        rem_total -= c
        # numpy's sampler respects the support bounds
        # max(0, rem_n - rem_total) <= k_i <= min(c, rem_n)
        k_i = draw(c, rem_total, rem_n) if rem_n > 0 else 0
        k.append(k_i)
        rem_n -= k_i
    k.append(rem_n)
    return np.array(k, dtype=np.int64)


def sample_counts_batch(capacities, n, rng):
    """Vectorized `sample_counts` drawing one vector per row of (rows, L)
    `capacities`; `n` may be a scalar or per-row array.

    Position by position, one array draw covers every row. A draw of 0
    items consumes no random numbers, so a one-row batch equals
    `sample_counts` draw for draw, zero capacities included. Both
    functions stay for speed. At one row (L=8, D=4) this draw's array
    bookkeeping costs about 240 us against 11-22 us for the scalar loop,
    which the sampler and the forward chain run once per step (32 times
    per T=32 grid). At many rows the scalar loop is the slow one: row by
    row, criterion 1's 100,000 draws on its L=12 grid alone take about
    4 s of its 30 s budget, against 0.2 s here.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    rows, L = caps.shape
    totals = caps.sum(axis=1)
    n = np.broadcast_to(np.asarray(n, dtype=np.int64), (rows,))
    if np.any((n < 0) | (n > totals)):
        raise ValueError("draw count outside [0, capacity] for some row")
    k = np.empty((rows, L), dtype=np.int64)
    rem_n = n.copy()
    rem_total = totals.copy()
    for i in range(L - 1):
        rem_total -= caps[:, i]
        k[:, i] = rng.hypergeometric(caps[:, i], rem_total, rem_n)
        rem_n -= k[:, i]
    k[:, -1] = rem_n
    return k


def binary_mask(n, L, D, rng):
    """Masked counts (L,) of a fresh mask with n entries hidden, split
    across positions by a multivariate hypergeometric draw; the deepest
    k_i depths hide at each position."""
    if not 0 <= n <= L * D:
        raise ValueError(f"n={n} outside [0, {L * D}]")
    return sample_counts(np.full(L, D, dtype=np.int64), n, rng)


def mask_more(q, D, n_new, rng):
    """One forward step on masked counts q: hide n_new additional entries
    drawn without replacement from the currently revealed slots."""
    u = D - q
    if not 0 <= n_new <= u.sum():
        raise ValueError(f"cannot mask {n_new} more; only {u.sum()} revealed")
    return q + sample_counts(u, n_new, rng)


def binary_unmask(q, n_target, rng):
    """Masked counts after revealing tokens until n_target of q's remain
    masked. How many reveals land on each position is hypergeometric with
    capacities q_i; reveals take the shallowest masked depths, keeping the
    suffix invariant."""
    n_total = int(q.sum())
    if n_target > n_total:
        raise ValueError(f"n_target={n_target} exceeds masked count {n_total}")
    return q - sample_counts(q, n_total - n_target, rng)


# ---------------------------------------------------------------------------
# closed-form log probabilities

IMPOSSIBLE = float("-inf")


def log_comb(a, b):
    """log C(a, b); -inf when the coefficient is zero."""
    a, b = int(a), int(b)
    if b < 0 or b > a:
        return IMPOSSIBLE
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _log_comb_ratio(tops, bottoms, total, n):
    """log(prod_i C(tops_i, bottoms_i) / C(total, n)), the log pmf of a
    multivariate hypergeometric draw; -inf when either side is zero (a
    zero factor makes the sum -inf)."""
    num = 0.0
    for a, b in zip(tops, bottoms):
        num += log_comb(a, b)
    den = log_comb(total, n)
    return IMPOSSIBLE if den == IMPOSSIBLE else num - den


def forward_step_logprob(k_next, q, D):
    """log q(k | x_t): probability of newly masking k_i tokens per position
    given masked counts q, so unmasked capacities D - q. Infeasible k ->
    -inf."""
    k = np.asarray(k_next, dtype=np.int64)
    u = D - np.asarray(q, dtype=np.int64)
    return _log_comb_ratio(u, k, int(u.sum()), int(k.sum()))


def marginal_logprob(counts_t, n_cum, L, D):
    """log q(x_t | x_0): cumulative masked counts after any number of steps."""
    c = np.asarray(counts_t, dtype=np.int64)
    if c.shape[0] != L or int(c.sum()) != int(n_cum):
        return IMPOSSIBLE
    return _log_comb_ratio([D] * L, c, L * D, int(n_cum))


def posterior_logprob(counts_t, counts_t1, n_cum_t1, n_step):
    """log q(x_t | x_{t+1}, x_0): which k of the cumulative masked counts
    were added by the final step."""
    ct = np.asarray(counts_t, dtype=np.int64)
    ct1 = np.asarray(counts_t1, dtype=np.int64)
    k = ct1 - ct
    if np.any(k < 0) or int(k.sum()) != int(n_step) or int(ct1.sum()) != int(n_cum_t1):
        return IMPOSSIBLE
    return _log_comb_ratio(ct1, k, int(n_cum_t1), int(n_step))
