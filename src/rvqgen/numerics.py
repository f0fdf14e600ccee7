"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64. Ops execute eagerly on numpy arrays and record a
backward closure, so the computation graph is the implicit DAG of Tensor
nodes built during the forward pass. `backward(loss)` topologically sorts
that DAG and visits each node exactly once, accumulating gradients into
`Tensor.grad`; it keeps the graph, so every reachable tensor ends with its
gradient. `grads(loss, params)`, the training path, frees the graph as it
walks: once a node has passed its gradient to its parents, its gradient,
closure and parent links go, so the arrays only it held are freed before
the walk ends. Leaves keep their gradients; the spent graph cannot be
walked again.

Products: a 3D@2D product (B, L, m) @ (m, p) is one (B*L, m) @ (m, p)
GEMM, and so is its input gradient, for every B (numpy's own 3D@2D runs
one product per slice). At B = 1 this is numpy's product, bit for bit.

The op set is deliberately small: exactly what the backbone and the
mixture-of-Gaussians head need. Ops are called as functions (`add(a, b)`,
`matmul(a, b)`); `Tensor` has no operator overloads. No GPU, no fusion,
no fancy broadcasting beyond what numpy does (gradients are un-broadcast
by summing over the expanded axes).

Graph-free inference: every op the backbone uses (add, mul, matmul,
linear, layer_norm, gelu, softmax, gather, reshape, transpose, concat)
has a plain-array forward kernel, collected in `plain` under the op's
name with the op's signature. The autodiff op calls that kernel and then
records its backward, so both paths compute the same bits by
construction, and the kernels make the same shape and index checks. A
forward run through `plain` takes and returns ndarrays and records
nothing.

In-place arithmetic: the kernels and backward closures (gelu, layer norm,
softmax, log-sum-exp, linear's bias add, the squared-distance kernel)
compute into buffers they allocate themselves (`out=`, `*=`), keeping the
operand order of the closed-form expression, so the bits are those of the
expression. Two invariants make that safe. A kernel never writes into an
input: a parameter's array or another node's data. A backward closure
never writes into its upstream gradient `g` nor into an array it returned
earlier, because `backward` adopts a first gradient contribution as-is.
A closure may return None for a parent that does not require gradients.

Distinct graphs are independent and may run on distinct threads; a single
graph is single-threaded during a forward or backward pass. The `plain`
kernels hold no state, so graph-free forwards are as safe across threads
as distinct graphs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives operands with incompatible shapes."""


class Tensor:
    """A node in the computation graph.

    `data` is always a float64 ndarray. Leaf tensors created with
    `requires_grad=True` (parameters) receive gradients; constants do not.
    Interior nodes carry a backward closure mapping the upstream gradient
    to per-parent gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bwd = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def parameter(data, name=None):
    """Named leaf tensor that participates in gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def constant(data):
    return data if isinstance(data, Tensor) else Tensor(data)


def _node(data, parents, bwd):
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._bwd = bwd
            break
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = constant(a), constant(b)
    ga, gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if ga else None,
                _unbroadcast(g, b.shape) if gb else None)

    return _node(np.add(a.data, b.data), (a, b), bwd)


def sub(a, b):
    a, b = constant(a), constant(b)
    ga, gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if ga else None,
                _unbroadcast(-g, b.shape) if gb else None)

    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = constant(a), constant(b)
    ad, bd = a.data, b.data
    ga, gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g * bd, a.shape) if ga else None,
                _unbroadcast(g * ad, b.shape) if gb else None)

    return _node(np.multiply(ad, bd), (a, b), bwd)


def neg(a):
    a = constant(a)

    def bwd(g):
        return (-g,)

    return _node(-a.data, (a,), bwd)


def exp(a):
    a = constant(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _node(out, (a,), bwd)


def log(a):
    a = constant(a)
    ad = a.data

    def bwd(g):
        return (g / ad,)

    return _node(np.log(ad), (a,), bwd)


def tanh(a):
    a = constant(a)
    out = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), bwd)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_parts(x):
    """Forward kernel of `gelu`: (out, tanh term); the backward reuses the
    tanh term. 0.5*x*(1 + tanh(C*(x + 0.044715*x^3))), each op rounding as
    in that expression, in the buffers made here."""
    tmp = x * x
    t = tmp * x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=tmp)
    out = np.multiply(x, 0.5)
    out *= tmp
    return out, t


def gelu(a):
    """Tanh-approximation GELU; derivative is exact for this approximation."""
    a = constant(a)
    x = a.data
    out, t = _gelu_parts(x)

    def bwd(g):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t^2) * C*(1 + 3*0.044715*x^2))
        d = x * x
        d *= 3 * 0.044715
        d += 1.0
        d *= _GELU_C
        u = np.multiply(t, t)
        np.subtract(1.0, u, out=u)
        v = np.multiply(x, 0.5)
        v *= u
        v *= d
        np.add(t, 1.0, out=u)
        u *= 0.5
        v += u
        v *= g
        return (v,)

    return _node(out, (a,), bwd)


# ---------------------------------------------------------------------------
# matmul


def _matmul(ad, bd):
    """Forward kernel of `matmul`."""
    # checks build their message only on failure: matmul runs hundreds of
    # times per forward pass
    if ad.ndim not in (2, 3) or bd.ndim not in (2, 3):
        raise ShapeError(f"matmul: operands must be 2D or 3D, "
                         f"got {ad.ndim}D and {bd.ndim}D")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree: {ad.shape} @ {bd.shape}")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul: batch dims disagree: {ad.shape} @ {bd.shape}")
    if ad.ndim == 3 and bd.ndim == 2:
        # one GEMM over all B*L rows; numpy's 3D@2D runs one per slice
        B, L, m = ad.shape
        return (ad.reshape(B * L, m) @ bd).reshape(B, L, bd.shape[1])
    return ad @ bd


def _matmul_grads(ad, bd, g):
    """Gradients of `ad @ bd` for upstream `g`: (grad of ad, grad of bd)."""
    if ad.ndim == 2 and bd.ndim == 2:
        return g @ bd.T, ad.T @ g
    if ad.ndim == 3 and bd.ndim == 3:
        return g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g
    if ad.ndim == 3 and bd.ndim == 2:
        m, p = bd.shape
        g2 = g.reshape(-1, p)
        return (g2 @ bd.T).reshape(ad.shape), ad.reshape(-1, m).T @ g2
    # 2D @ 3D
    ga = (g @ bd.transpose(0, 2, 1)).sum(axis=0)
    return ga, ad.T @ g


def matmul(a, b):
    """2D@2D, 3D@3D (batched), or 3D@2D (linear map on the last axis)."""
    a, b = constant(a), constant(b)
    ad, bd = a.data, b.data
    out = _matmul(ad, bd)

    def bwd(g):
        return _matmul_grads(ad, bd, g)

    return _node(out, (a, b), bwd)


def _linear(xd, wd, bd=None):
    """Forward kernel of `linear`: `_matmul`'s checked product, with the
    bias added into that fresh product (the bits of np.add). The bias may
    broadcast as in `add`, so long as the sum keeps the product's shape."""
    out = _matmul(xd, wd)
    if bd is not None:
        try:
            np.add(out, bd, out=out)
        except ValueError:
            raise ShapeError(f"linear: bias {bd.shape} does not broadcast to the "
                             f"product {out.shape}") from None
    return out


def linear(x, w, b=None):
    """`add(matmul(x, w), b)` as one node, so the graph holds one array of
    the product's size instead of two. The backward returns what that
    pair's backwards return: matmul's gradients for x and w, and add's
    un-broadcast gradient for the bias."""
    x, w = constant(x), constant(w)
    xd, wd = x.data, w.data
    if b is None:
        parents, bd = (x, w), None
    else:
        b = constant(b)
        parents, bd = (x, w, b), b.data
    out = _linear(xd, wd, bd)

    def bwd(g):
        gx, gw = _matmul_grads(xd, wd, g)
        if b is None:
            return gx, gw
        return gx, gw, _unbroadcast(g, bd.shape) if b.requires_grad else None

    return _node(out, parents, bwd)


# ---------------------------------------------------------------------------
# normalization / softmax family


def _softmax(x):
    """Forward kernel of `softmax`."""
    # the ufunc reductions ndarray.max / .sum call, without their wrappers
    e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax(a):
    """Softmax over the last axis, max-subtracted for stability."""
    a = constant(a)
    out = _softmax(a.data)

    def bwd(g):
        # out * (g - sum(g * out))
        t = g * out
        dot = np.add.reduce(t, axis=-1, keepdims=True)
        np.subtract(g, dot, out=t)
        t *= out
        return (t,)

    return _node(out, (a,), bwd)


def logsumexp(a, keepdims=False):
    """log-sum-exp over the last axis with max subtraction."""
    a = constant(a)
    m = np.maximum.reduce(a.data, axis=-1, keepdims=True)
    soft = a.data - m
    np.exp(soft, out=soft)
    s = np.add.reduce(soft, axis=-1, keepdims=True)
    out = m + np.log(s)
    soft /= s

    def bwd(g):
        gk = g if keepdims else np.expand_dims(g, -1)
        return (gk * soft,)

    return _node(out if keepdims else out.squeeze(-1), (a,), bwd)


def _layer_norm_parts(x, gain, bias, eps):
    """Forward kernel of `layer_norm`: (out, xhat, 1/sd); the backward
    reuses the last two."""
    w = x.shape[-1]
    if gain.shape != (w,) or bias.shape != (w,):
        raise ShapeError(f"layer_norm: gain/bias must be ({w},), "
                         f"got {gain.shape} and {bias.shape}")
    # add.reduce / w gives the bits of np.mean without its Python wrappers
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= w
    xhat = x - mu
    out = xhat * xhat
    inv = np.add.reduce(out, axis=-1, keepdims=True)
    inv /= w
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv


def layer_norm(a, gain, bias, eps=1e-6):
    """Affine normalization over the last axis: gain * (x - mu)/sd + bias."""
    a, gain, bias = constant(a), constant(gain), constant(bias)
    w = a.shape[-1]
    out, xhat, inv = _layer_norm_parts(a.data, gain.data, bias.data, eps)

    def bwd(g):
        # gx = inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)),
        # gx_hat = g * gain, with the means taken over the last axis
        gx = g * xhat
        ggain = np.add.reduce(gx.reshape(-1, w), axis=0)
        gbias = np.add.reduce(g.reshape(-1, w), axis=0)
        np.multiply(g, gain.data, out=gx)
        s1 = np.add.reduce(gx, axis=-1, keepdims=True)
        s1 /= w
        tmp = gx * xhat
        s2 = np.add.reduce(tmp, axis=-1, keepdims=True)
        s2 /= w
        np.multiply(xhat, s2, out=tmp)
        gx -= s1
        gx -= tmp
        gx *= inv
        return gx, ggain, gbias

    return _node(out, (a, gain, bias), bwd)


# ---------------------------------------------------------------------------
# indexing / shaping


def _gather(table, idx):
    """Forward kernel of `gather`."""
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":              # signed or unsigned integers
        raise ShapeError("gather: indices must be integers")
    if idx.size and (np.minimum.reduce(idx, axis=None) < 0
                     or np.maximum.reduce(idx, axis=None) >= table.shape[0]):
        raise ShapeError(f"gather: index out of range for table with "
                         f"{table.shape[0]} rows")
    return table[idx]


def gather(table, idx):
    """Select rows of `table` (first axis) by an integer index array."""
    table = constant(table)
    idx = np.asarray(idx)
    out = _gather(table.data, idx)
    rows, width = table.shape[0], math.prod(table.shape[1:])

    def bwd(g):
        # one bincount over (row, column) cells adds each cell's terms in
        # input order from +0.0, the bits of np.add.at, duplicates included
        cells = (idx.reshape(-1, 1).astype(np.intp) * width + np.arange(width)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=rows * width)
        return (gt.reshape(table.shape),)

    return _node(out, (table,), bwd)


def reshape(a, shape):
    a = constant(a)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _node(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes):
    a = constant(a)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def bwd(g):
        return (g.transpose(inv),)

    return _node(a.data.transpose(axes), (a,), bwd)


def concat(parts, axis=-1):
    parts = [constant(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([p.data for p in parts], axis), tuple(parts), bwd)


def sum_(a, axis=None, keepdims=False):
    a = constant(a)
    shp = a.shape

    def bwd(g):
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, shp).copy(),)

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mean_(a, axis=None, keepdims=False):
    a = constant(a)
    shp = a.shape
    count = a.data.size if axis is None else shp[axis]

    def bwd(g):
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk / count, shp).copy(),)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


# ---------------------------------------------------------------------------
# graph-free forward kernels


def _plain_layer_norm(x, gain, bias, eps=1e-6):
    return _layer_norm_parts(x, gain, bias, eps)[0]


def _plain_gelu(x):
    return _gelu_parts(x)[0]


# The forward kernels of the backbone's ops, under the ops' names and
# signatures, over ndarrays. Each autodiff op above calls its kernel, so a
# forward through `plain` gives the bits of the autodiff forward's `.data`.
plain = SimpleNamespace(
    add=np.add,
    mul=np.multiply,
    matmul=_matmul,
    linear=_linear,
    layer_norm=_plain_layer_norm,
    gelu=_plain_gelu,
    softmax=_softmax,
    gather=_gather,
    reshape=np.ndarray.reshape,
    transpose=np.ndarray.transpose,
    concat=np.concatenate,
)


# ---------------------------------------------------------------------------
# squared-distance kernel


def lowrank_sqdist(z, mu, M, s):
    """Squared distances ||z_n - (M_k mu_{n,k} + s_k)||^2 -> (N, K).

    Forward uses the expanded identity with cached M^T M and M^T s so the
    cost stays O(N K h + K H h) instead of materializing the full means;
    its three dot products over the mean rank h are `einsum` reductions.
    Backward recomputes the residual directly, in component-major layout,
    and sums it over the K components with `einsum` too. The expanded form is kept on purpose: the
    low-rank identity check compares it with the direct distance.

    Shapes: z (N, H), mu (N, K, h), M (K, H, h), s (K, H).
    """
    z, mu, M, s = constant(z), constant(mu), constant(M), constant(s)
    N, H = z.shape
    if mu.ndim != 3 or mu.shape[0] != N:
        raise ShapeError(f"lowrank_sqdist: mu must be (N, K, h) with N={N}, "
                         f"got {mu.shape}")
    K, h = mu.shape[1], mu.shape[2]
    if M.shape != (K, H, h):
        raise ShapeError(f"lowrank_sqdist: M must be ({K}, {H}, {h}), got {M.shape}")
    if s.shape != (K, H):
        raise ShapeError(f"lowrank_sqdist: s must be ({K}, {H}), got {s.shape}")

    zd, mud, Md, sd = z.data, mu.data, M.data, s.data
    Mt = Md.transpose(0, 2, 1)                         # (K, h, H)
    MtM = Mt @ Md                                      # (K, h, h)
    Mts = (Mt @ sd[:, :, None]).squeeze(-1)            # (K, h)
    Mtz = (zd @ Md.transpose(1, 0, 2).reshape(H, K * h)).reshape(N, K, h)
    zz = (zd * zd).sum(axis=1)                         # (N,)
    ss = (sd * sd).sum(axis=1)                         # (K,)
    muMtM = (mud.transpose(1, 0, 2) @ MtM).transpose(1, 0, 2)
    # zz + quad + ss - 2 mu.Mtz - 2 z.s + 2 mu.Mts, left to right, in the
    # buffers made here
    out = np.einsum("nkh,nkh->nk", muMtM, mud)         # quad
    out += zz[:, None]
    out += ss[None, :]
    t = np.einsum("nkh,nkh->nk", Mtz, mud)
    t *= 2.0
    out -= t
    out -= 2.0 * zd @ sd.T
    t = np.einsum("nkh,kh->nk", mud, Mts)
    t *= 2.0
    out += t

    def bwd(g):
        # component-major (K, N, ...) layout: every product is a plain
        # batched GEMM over contiguous operands
        muk = mud.transpose(1, 0, 2)                   # (K, N, h)
        gd = muk @ Mt                                  # full means (K, N, H)
        gd += sd[:, None, :]
        np.subtract(zd, gd, out=gd)                    # residuals z - mean
        gd *= g.T[:, :, None]
        gz = np.einsum("knh->nh", gd)
        gz *= 2.0
        gmu = gd @ Md
        gmu *= -2.0
        gM = gd.transpose(0, 2, 1) @ muk
        gM *= -2.0
        gs = np.einsum("knh->kh", gd)
        gs *= -2.0
        return gz, gmu.transpose(1, 0, 2), gM, gs

    return _node(out, (z, mu, M, s), bwd)


# ---------------------------------------------------------------------------
# backward pass


def topo_order(root):
    """The nodes `root` reaches through parents that require gradients,
    each once and after its parents: an iterative post-order DFS that
    explores a node's parents last-first. `backward` walks it in reverse,
    so it also fixes the order, hence the rounding, in which a node's
    gradient contributions are summed. Constants are skipped and leaves
    are placed without a second visit; neither moves another node. A
    None on the stack marks that the node under it is finished."""
    order, visited, stack = [], set(), [root]
    push, pop, seen, append = stack.append, stack.pop, visited.add, order.append
    while stack:
        node = pop()
        if node is None:
            append(pop())
            continue
        if node in visited:
            continue
        seen(node)
        if not node._parents:
            append(node)
            continue
        push(node)
        push(None)
        for p in node._parents:
            if p.requires_grad and p not in visited:
                push(p)
    return order


def _spent(g):
    raise RuntimeError("backward: this node's graph was freed by an earlier "
                       "`grads` walk; build the graph again")


def backward(loss, free=False):
    """Accumulate gradients of a scalar `loss` into every reachable tensor.

    With `free`, each interior node is dropped from the walk once it has
    passed its gradient to its parents: its gradient, backward closure and
    parent links go, so the arrays only it held are freed as the walk goes
    and the graph is spent (a later walk through it raises). Leaves keep
    their gradients either way."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    pop = order.pop
    while order:
        node = pop()
        bwd = node._bwd
        if bwd is None:
            continue
        if node.grad is not None:
            for parent, g in zip(node._parents, bwd(node.grad)):
                if not parent.requires_grad:
                    continue            # g may be None: the closure skipped it
                # first contribution is adopted as-is (backward closures never
                # mutate what they return), later ones allocate a fresh sum
                parent.grad = g if parent.grad is None else parent.grad + g
        if free:
            node.grad, node._bwd, node._parents = None, _spent, ()


def grads(loss, params):
    """Gradients of `loss` as {name: grad}, exact zeros for unused leaves.
    The walk frees the graph as it goes (`backward` with `free`), so the
    graph of `loss` cannot be walked again."""
    backward(loss, free=True)
    out = {}
    for name, p in params.items():
        out[name] = np.zeros_like(p.data) if p.grad is None else p.grad
    return out


def finite_difference_check(f, params, h=1e-5, entries=None):
    """Max relative error between analytic gradients of `f()` and central
    finite differences.

    `entries` maps parameter names to the flat indices to probe, in order;
    by default every entry of every parameter in `params` is probed. `f`
    must rebuild its graph from the current parameter data on each call.
    """
    if h <= 0:
        raise ValueError("finite_difference_check: h must be positive")
    analytic = grads(f(), params)
    if entries is None:
        entries = {name: range(p.data.size) for name, p in params.items()}
    worst = 0.0
    for name, picks in entries.items():
        flat = params[name].data.reshape(-1)
        gflat = analytic[name].reshape(-1)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + h
            up = float(f().data)
            flat[i] = keep - h
            dn = float(f().data)
            flat[i] = keep
            numeric = (up - dn) / (2.0 * h)
            denom = max(abs(gflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
