"""Tests for the tensor engine: per-op gradient checks against central
finite differences, determinism, and the error contracts."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rvqgen import numerics as nm


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at ndarray x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        dn = f()
        flat[i] = keep
        gf[i] = (up - dn) / (2 * h)
    return g


def check_op(build, arrays, rtol=1e-4, h=1e-6):
    """Compare analytic grads of a weighted sum of build(params) against
    finite differences. The random weighting keeps the loss non-degenerate
    (e.g. sum(softmax(x)) is constant and would hide gradient bugs)."""
    params = {f"p{i}": nm.parameter(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)}
    out_shape = build(*params.values()).shape
    w = nm.constant(np.random.default_rng(99).normal(size=out_shape))

    def loss_tensor():
        return nm.sum_(nm.mul(build(*params.values()), w))

    analytic = nm.grads(loss_tensor(), params)
    for name, p in params.items():
        numeric = fd_grad(lambda: float(loss_tensor().data), p.data, h=h)
        # floor at 1e-5: entries whose true gradient is ~0 otherwise compare
        # pure finite-difference cancellation noise against the 1e-8 floor
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-5)
        rel = np.abs(analytic[name] - numeric) / denom
        assert rel.max() < rtol, f"{name}: max rel err {rel.max():.3g}"


# ---------------------------------------------------------------------------
# spec'd examples

def test_identity_graph():
    x = nm.constant([1.0, 2.0])
    assert np.array_equal(x.data, [1.0, 2.0])


def test_matmul_identity():
    out = nm.matmul(nm.constant(np.eye(2)), nm.constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_softmax_symmetry():
    out = nm.softmax(nm.constant([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_sum_gradient_is_ones():
    x = nm.parameter([1.0, 2.0, 3.0])
    nm.backward(nm.sum_(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_square_gradient():
    x = nm.parameter(3.0)
    nm.backward(nm.mul(x, x))
    assert np.allclose(x.grad, 6.0, rtol=1e-12)


def test_two_layer_net_matches_fd():
    rng = np.random.default_rng(0)
    params = {
        "w1": nm.parameter(rng.normal(size=(3, 5)), name="w1"),
        "b1": nm.parameter(rng.normal(size=(5,)), name="b1"),
        "w2": nm.parameter(rng.normal(size=(5, 2)), name="w2"),
    }
    x = nm.constant(rng.normal(size=(4, 3)))

    def loss():
        hid = nm.tanh(nm.add(nm.matmul(x, params["w1"]), params["b1"]))
        return nm.mean_(nm.matmul(hid, params["w2"]))

    err = nm.finite_difference_check(loss, params, h=1e-5)
    assert err < 1e-4


def test_linear_model_fd_is_tight():
    rng = np.random.default_rng(1)
    params = {"w": nm.parameter(rng.normal(size=(4, 1)), name="w")}
    x = nm.constant(rng.normal(size=(6, 4)))

    def loss():
        return nm.sum_(nm.matmul(x, params["w"]))

    assert nm.finite_difference_check(loss, params, h=1e-5) < 1e-7


def test_dead_parameter_gets_exact_zero():
    used = nm.parameter([2.0], name="used")
    dead = nm.parameter([5.0], name="dead")
    g = nm.grads(nm.sum_(nm.mul(used, used)), {"used": used, "dead": dead})
    assert np.array_equal(g["dead"], [0.0])
    assert np.allclose(g["used"], [4.0])


def test_fd_check_probes_only_the_given_entries():
    rng = np.random.default_rng(2)
    params = {"w": nm.parameter(rng.normal(size=(3, 2)), name="w"),
              "b": nm.parameter(rng.normal(size=(2,)), name="b")}
    x = nm.constant(rng.normal(size=(4, 3)))
    calls = []

    def loss():
        calls.append(1)
        return nm.sum_(nm.gelu(nm.add(nm.matmul(x, params["w"]), params["b"])))

    before = {k: p.data.copy() for k, p in params.items()}
    picked = nm.finite_difference_check(loss, params, h=1e-5,
                                        entries={"w": [4, 1], "b": [0]})
    assert len(calls) == 1 + 2 * 3
    assert all(np.array_equal(before[k], p.data) for k, p in params.items())
    calls.clear()
    full = nm.finite_difference_check(loss, params, h=1e-5)
    assert len(calls) == 1 + 2 * 8
    assert picked <= full < 1e-6

    # the helper's error is the worst over the probed entries, computed as a
    # hand-written central difference would
    analytic = nm.grads(loss(), params)
    worst = 0.0
    for name, i in (("w", 4), ("w", 1), ("b", 0)):
        flat = params[name].data.reshape(-1)
        keep = flat[i]
        flat[i] = keep + 1e-5
        up = float(loss().data)
        flat[i] = keep - 1e-5
        dn = float(loss().data)
        flat[i] = keep
        numeric = (up - dn) / 2e-5
        a = analytic[name].reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    assert picked == worst


def test_fd_check_rejects_bad_step():
    p = {"x": nm.parameter([1.0])}
    with pytest.raises(ValueError):
        nm.finite_difference_check(lambda: nm.sum_(p["x"]), p, h=0.0)


# ---------------------------------------------------------------------------
# per-op gradient sweep: 100 random instances each

def _r(rng, *shape):
    return rng.normal(size=shape)


OP_CASES = {
    "add": lambda rng: (lambda a, b: nm.add(a, b), [_r(rng, 3, 4), _r(rng, 3, 4)]),
    "add_broadcast": lambda rng: (lambda a, b: nm.add(a, b), [_r(rng, 3, 4), _r(rng, 4)]),
    "sub": lambda rng: (lambda a, b: nm.sub(a, b), [_r(rng, 2, 3), _r(rng, 2, 3)]),
    "mul": lambda rng: (lambda a, b: nm.mul(a, b), [_r(rng, 3, 4), _r(rng, 3, 4)]),
    "mul_broadcast": lambda rng: (lambda a, b: nm.mul(a, b), [_r(rng, 3, 4), _r(rng, 3, 1)]),
    "neg": lambda rng: (nm.neg, [_r(rng, 5)]),
    "exp": lambda rng: (nm.exp, [_r(rng, 4)]),
    "log": lambda rng: (lambda a: nm.log(a), [np.abs(_r(rng, 4)) + 0.5]),
    "tanh": lambda rng: (nm.tanh, [_r(rng, 6)]),
    "gelu": lambda rng: (nm.gelu, [_r(rng, 6)]),
    "matmul22": lambda rng: (nm.matmul, [_r(rng, 3, 4), _r(rng, 4, 2)]),
    "matmul33": lambda rng: (nm.matmul, [_r(rng, 2, 3, 4), _r(rng, 2, 4, 2)]),
    "matmul32": lambda rng: (nm.matmul, [_r(rng, 2, 3, 4), _r(rng, 4, 2)]),
    "matmul23": lambda rng: (nm.matmul, [_r(rng, 3, 4), _r(rng, 2, 4, 2)]),
    "linear2": lambda rng: (nm.linear, [_r(rng, 3, 4), _r(rng, 4, 2)]),
    "linear2_bias": lambda rng: (nm.linear, [_r(rng, 3, 4), _r(rng, 4, 2), _r(rng, 2)]),
    "linear3": lambda rng: (nm.linear, [_r(rng, 2, 3, 4), _r(rng, 4, 2)]),
    "linear3_bias": lambda rng: (nm.linear, [_r(rng, 2, 3, 4), _r(rng, 4, 2), _r(rng, 2)]),
    "linear3_bias_rows": lambda rng: (
        nm.linear, [_r(rng, 2, 3, 4), _r(rng, 4, 2), _r(rng, 3, 2)]),
    "softmax": lambda rng: (nm.softmax, [_r(rng, 3, 5)]),
    "logsumexp": lambda rng: (nm.logsumexp, [_r(rng, 3, 5)]),
    "logsumexp_keep": lambda rng: (lambda a: nm.logsumexp(a, keepdims=True), [_r(rng, 3, 5)]),
    "layer_norm": lambda rng: (nm.layer_norm, [_r(rng, 4, 6), _r(rng, 6), _r(rng, 6)]),
    "gather": lambda rng: (
        lambda t: nm.gather(t, np.array([2, 0, 2, 1])), [_r(rng, 3, 4)]),
    "reshape": lambda rng: (lambda a: nm.reshape(a, (6, 2)), [_r(rng, 3, 4)]),
    "transpose": lambda rng: (lambda a: nm.transpose(a, (1, 0, 2)), [_r(rng, 2, 3, 4)]),
    "concat": lambda rng: (
        lambda a, b: nm.concat([a, b], axis=-1), [_r(rng, 3, 2), _r(rng, 3, 4)]),
    "sum_axis": lambda rng: (lambda a: nm.sum_(a, axis=1), [_r(rng, 3, 4)]),
    "mean_axis": lambda rng: (lambda a: nm.mean_(a, axis=0), [_r(rng, 3, 4)]),
    "mean_all": lambda rng: (nm.mean_, [_r(rng, 3, 4)]),
    "lowrank_sqdist": lambda rng: (
        nm.lowrank_sqdist, [_r(rng, 3, 5), _r(rng, 3, 2, 4), _r(rng, 2, 5, 4), _r(rng, 2, 5)]),
}


@pytest.mark.parametrize("opname", sorted(OP_CASES))
def test_op_gradients_match_fd(opname):
    rng = np.random.default_rng(zlib.crc32(opname.encode()))
    for _ in range(100):
        build, arrays = OP_CASES[opname](rng)
        check_op(build, arrays)


# ---------------------------------------------------------------------------
# structural contracts

def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        w = nm.parameter(rng.normal(size=(4, 4)), name="w")
        x = nm.constant(rng.normal(size=(2, 4)))
        h = nm.gelu(nm.matmul(x, w))
        loss = nm.sum_(nm.mul(h, h))
        nm.backward(loss)
        return w.grad.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_backward_rejects_nonscalar_loss():
    x = nm.parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        nm.backward(nm.mul(x, x))


def test_shape_mismatch_names_op():
    with pytest.raises(nm.ShapeError, match="matmul"):
        nm.matmul(nm.constant(np.ones((2, 3))), nm.constant(np.ones((2, 3))))
    with pytest.raises(nm.ShapeError, match="layer_norm"):
        nm.layer_norm(nm.constant(np.ones((2, 3))), nm.constant(np.ones(4)),
                      nm.constant(np.ones(3)))


def _ones(*shape):
    return nm.constant(np.ones(shape))


@pytest.mark.parametrize("call, message", [
    (lambda: nm.matmul(_ones(3), _ones(3, 2)),
     "matmul: operands must be 2D or 3D, got 1D and 2D"),
    (lambda: nm.matmul(_ones(2, 3), _ones(2, 3)),
     "matmul: inner dims disagree: (2, 3) @ (2, 3)"),
    (lambda: nm.matmul(_ones(2, 3, 4), _ones(3, 4, 5)),
     "matmul: batch dims disagree: (2, 3, 4) @ (3, 4, 5)"),
    (lambda: nm.linear(_ones(3), _ones(3, 2), _ones(2)),
     "matmul: operands must be 2D or 3D, got 1D and 2D"),
    (lambda: nm.linear(_ones(2, 3), _ones(2, 3)),
     "matmul: inner dims disagree: (2, 3) @ (2, 3)"),
    (lambda: nm.linear(_ones(2, 3, 4), _ones(3, 4, 5), _ones(5)),
     "matmul: batch dims disagree: (2, 3, 4) @ (3, 4, 5)"),
    (lambda: nm.linear(_ones(2, 3), _ones(3, 4), _ones(5)),
     "linear: bias (5,) does not broadcast to the product (2, 4)"),
    (lambda: nm.linear(_ones(2, 3), _ones(3, 4), _ones(3, 2, 4)),
     "linear: bias (3, 2, 4) does not broadcast to the product (2, 4)"),
    (lambda: nm.layer_norm(_ones(2, 3), _ones(4), _ones(3)),
     "layer_norm: gain/bias must be (3,), got (4,) and (3,)"),
    (lambda: nm.gather(_ones(3, 2), np.array([0.0, 1.0])),
     "gather: indices must be integers"),
    (lambda: nm.gather(_ones(3, 2), np.array([0, 3])),
     "gather: index out of range for table with 3 rows"),
    (lambda: nm.lowrank_sqdist(_ones(2, 3), _ones(4, 5, 2), _ones(5, 3, 2), _ones(5, 3)),
     "lowrank_sqdist: mu must be (N, K, h) with N=2, got (4, 5, 2)"),
    (lambda: nm.lowrank_sqdist(_ones(2, 3), _ones(2, 5, 2), _ones(5, 2, 2), _ones(5, 3)),
     "lowrank_sqdist: M must be (5, 3, 2), got (5, 2, 2)"),
    (lambda: nm.lowrank_sqdist(_ones(2, 3), _ones(2, 5, 2), _ones(5, 3, 2), _ones(4, 3)),
     "lowrank_sqdist: s must be (5, 3), got (4, 3)"),
])
def test_every_shape_check_raises_its_message(call, message):
    with pytest.raises(nm.ShapeError) as info:
        call()
    assert str(info.value) == message


def test_layer_norm_statistics_bit_equal_to_mean_oracle():
    rng = np.random.default_rng(41)
    x = nm.parameter(rng.normal(size=(3, 5, 48)) * 3.0 + 1.0)
    gain = nm.parameter(rng.normal(size=48))
    bias = nm.parameter(rng.normal(size=48))
    g = rng.normal(size=(3, 5, 48))   # width not a power of two: /w rounds
    out = nm.layer_norm(x, gain, bias)
    nm.backward(nm.sum_(nm.mul(out, nm.constant(g))))

    xd = x.data
    mu = np.mean(xd, axis=-1, keepdims=True)
    xc = xd - mu
    inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + 1e-6)
    xhat = xc * inv
    assert np.array_equal(out.data, xhat * gain.data + bias.data)
    gx_hat = g * gain.data
    gx = inv * (gx_hat - np.mean(gx_hat, axis=-1, keepdims=True)
                - xhat * np.mean(gx_hat * xhat, axis=-1, keepdims=True))
    assert np.array_equal(x.grad, gx)


def test_diamond_graph_visited_once():
    # y = (x + x) * (x + x); a revisit bug would inflate the gradient
    x = nm.parameter(1.5)
    a = nm.add(x, x)
    nm.backward(nm.mul(a, a))
    assert np.allclose(x.grad, 4 * 2 * 1.5)  # d/dx (2x)^2 = 8x


def test_required_op_set_is_closed():
    # everything the backbone and MoG head need exists under these names
    required = ("matmul", "linear", "add", "mul", "layer_norm", "softmax", "logsumexp",
                "gelu", "tanh", "gather", "sum_", "mean_", "lowrank_sqdist")
    for name in required:
        assert callable(getattr(nm, name)), name


def test_forward_values_stay_finite():
    rng = np.random.default_rng(3)
    x = nm.constant(rng.normal(size=(4, 6)) * 100)
    for out in (nm.softmax(x), nm.logsumexp(x), nm.gelu(x), nm.tanh(x)):
        assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# gather backward: bit-equal to np.add.at


def _gather_grad(table, idx, g):
    t = nm.parameter(table, name="t")
    out = nm.gather(t, idx)
    nm.backward(nm.sum_(nm.mul(out, nm.constant(g))))
    return t.grad


def _add_at_oracle(table, idx, g):
    gt = np.zeros_like(table)
    np.add.at(gt, idx.reshape(-1), g.reshape(-1, *table.shape[1:]))
    return gt


@pytest.mark.parametrize("table_shape,idx_shape", [
    ((5,), (12,)), ((5, 3), (12,)), ((5, 3), (3, 4)), ((4, 3, 2), (9,)),
    ((4, 3, 2), (2, 5)), ((1, 4), (7,))])
def test_gather_backward_matches_add_at(table_shape, idx_shape):
    rng = np.random.default_rng(sum(table_shape) * 31 + sum(idx_shape))
    table = rng.normal(size=table_shape)
    # few rows, many indices: every row repeats; magnitudes spread over 30
    # decades so a changed summation order changes the bits
    idx = rng.integers(0, table_shape[0], size=idx_shape)
    g = rng.normal(size=idx_shape + table_shape[1:]) * 10.0 ** rng.integers(
        -15, 15, size=idx_shape + table_shape[1:])
    got = _gather_grad(table, idx, g)
    assert got.shape == table.shape
    assert got.tobytes() == _add_at_oracle(table, idx, g).tobytes()


def test_gather_backward_unused_rows_and_empty_index():
    table = np.ones((4, 2))
    got = _gather_grad(table, np.array([1, 1]), np.array([[1.0, -0.0], [2.0, -0.0]]))
    assert got.tobytes() == _add_at_oracle(
        table, np.array([1, 1]), np.array([[1.0, -0.0], [2.0, -0.0]])).tobytes()
    empty = np.zeros(0, dtype=np.int64)
    assert _gather_grad(table, empty, np.zeros((0, 2))).tobytes() == \
        np.zeros((4, 2)).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gather_backward_matches_add_at_property(data):
    rows = data.draw(st.integers(1, 6))
    tail = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    idx = data.draw(hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                          min_side=0, max_side=6),
                               elements=st.integers(0, rows - 1)))
    g = data.draw(hnp.arrays(np.float64, idx.shape + tail,
                             elements=st.floats(-1e12, 1e12, allow_subnormal=False)))
    table = np.zeros((rows,) + tail)
    assert _gather_grad(table, idx, g).tobytes() == _add_at_oracle(table, idx, g).tobytes()


# ---------------------------------------------------------------------------
# graph-free forward kernels (`nm.plain`)

PLAIN_OPS = ("add", "mul", "matmul", "linear", "layer_norm", "gelu", "softmax",
             "gather", "reshape", "transpose", "concat")


def _plain_cases(rng):
    """(op name, positional args) over ndarrays; shapes as the backbone
    uses them, including broadcasting and scalar operands."""
    x = rng.normal(size=(3, 5, 48)) * 3.0 + 1.0
    return [
        ("add", (x, rng.normal(size=48))),
        ("add", (x, rng.normal(size=(3, 1, 48)))),
        ("mul", (x, 1.0 / np.sqrt(12))),
        ("mul", (rng.normal(size=(3, 5, 1)), rng.normal(size=48))),
        ("matmul", (rng.normal(size=(4, 7)), rng.normal(size=(7, 3)))),
        ("matmul", (x, rng.normal(size=(48, 20)))),
        ("matmul", (rng.normal(size=(6, 5, 8)), rng.normal(size=(6, 8, 5)))),
        ("matmul", (rng.normal(size=(5, 4)), rng.normal(size=(3, 4, 2)))),
        ("layer_norm", (x, rng.normal(size=48), rng.normal(size=48))),
        ("layer_norm", (x, rng.normal(size=48), rng.normal(size=48), 1e-3)),
        ("gelu", (x * 4.0,)),
        ("softmax", (rng.normal(size=(6, 5, 5)) * 30.0,)),
        ("gather", (rng.normal(size=(5, 3)), np.array([4, 0, 0, 2]))),
        ("gather", (rng.normal(size=(5, 3, 2)), np.array([[1, 3], [3, 1]]))),
        ("reshape", (x, (3, 5, 4, 12))),
        ("transpose", (rng.normal(size=(2, 3, 4, 5)), (0, 2, 1, 3))),
        ("concat", ([x, rng.normal(size=(3, 5, 1))], -1)),
        ("concat", ([rng.normal(size=(2, 3)), rng.normal(size=(4, 3))], 0)),
        ("linear", (rng.normal(size=(4, 7)), rng.normal(size=(7, 3)))),
        ("linear", (rng.normal(size=(4, 7)), rng.normal(size=(7, 3)), rng.normal(size=3))),
        ("linear", (x, rng.normal(size=(48, 20)))),
        ("linear", (x, rng.normal(size=(48, 20)), rng.normal(size=20))),
        ("linear", (x, rng.normal(size=(48, 20)), rng.normal(size=(5, 20)))),
    ]


def test_plain_namespace_holds_the_backbone_op_set():
    assert sorted(vars(nm.plain)) == sorted(PLAIN_OPS)


PLAIN_CASES = _plain_cases(np.random.default_rng(17))


@pytest.mark.parametrize("name, args", PLAIN_CASES,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(PLAIN_CASES)])
def test_plain_kernel_bit_equal_to_autodiff_op(name, args):
    got = getattr(nm.plain, name)(*args)
    # the autodiff op still takes raw ndarrays and returns a Tensor
    ref = getattr(nm, name)(*args)
    assert isinstance(got, np.ndarray) and isinstance(ref, nm.Tensor)
    assert got.dtype == np.float64 and got.shape == ref.data.shape
    assert got.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((5, 8, 48), (48, 20))],
                         ids=["2D", "3D"])
def test_linear_is_the_matmul_add_pair_bit_for_bit(shapes):
    # one node in place of two: the same output and the same gradients
    rng = np.random.default_rng(shapes[0][-1])
    xs, ws = shapes
    x, w = nm.parameter(rng.normal(size=xs)), nm.parameter(rng.normal(size=ws))
    b = nm.parameter(rng.normal(size=ws[-1]))
    g = rng.normal(size=xs[:-1] + ws[-1:])
    prod = nm.matmul(x, w)
    pair = nm.add(prod, b)
    gp, gb = pair._bwd(g)
    gx, gw = prod._bwd(gp)
    for bias, want in ((b, (gx, gw, gb)), (None, (gx, gw))):
        node = nm.linear(x, w, bias)
        ref = pair.data if bias is not None else prod.data
        assert node.data.tobytes() == ref.tobytes()
        got = node._bwd(g)
        assert len(got) == len(want) == len(node._parents)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(got, want))
    # a constant bias gets no gradient
    assert nm.linear(x, w, b.data)._bwd(g)[2] is None


@pytest.mark.parametrize("name, args, message", [
    ("matmul", (np.ones(3), np.ones((3, 2))),
     "matmul: operands must be 2D or 3D, got 1D and 2D"),
    ("matmul", (np.ones((2, 3)), np.ones((2, 3))),
     "matmul: inner dims disagree: (2, 3) @ (2, 3)"),
    ("matmul", (np.ones((2, 3, 4)), np.ones((3, 4, 5))),
     "matmul: batch dims disagree: (2, 3, 4) @ (3, 4, 5)"),
    ("layer_norm", (np.ones((2, 3)), np.ones(4), np.ones(3)),
     "layer_norm: gain/bias must be (3,), got (4,) and (3,)"),
    ("gather", (np.ones((3, 2)), np.array([0.0, 1.0])),
     "gather: indices must be integers"),
    ("gather", (np.ones((3, 2)), np.array([0, 3])),
     "gather: index out of range for table with 3 rows"),
    ("gather", (np.ones((3, 2)), np.array([-1])),
     "gather: index out of range for table with 3 rows"),
    ("linear", (np.ones(3), np.ones((3, 2)), np.ones(2)),
     "matmul: operands must be 2D or 3D, got 1D and 2D"),
    ("linear", (np.ones((2, 3)), np.ones((2, 3))),
     "matmul: inner dims disagree: (2, 3) @ (2, 3)"),
    ("linear", (np.ones((2, 3, 4)), np.ones((3, 4, 5)), np.ones(5)),
     "matmul: batch dims disagree: (2, 3, 4) @ (3, 4, 5)"),
    ("linear", (np.ones((2, 3)), np.ones((3, 4)), np.ones(5)),
     "linear: bias (5,) does not broadcast to the product (2, 4)"),
    ("linear", (np.ones((2, 3)), np.ones((3, 4)), np.ones((3, 2, 4))),
     "linear: bias (3, 2, 4) does not broadcast to the product (2, 4)"),
])
def test_plain_kernel_checks_like_its_op(name, args, message):
    for fn in (getattr(nm.plain, name), getattr(nm, name)):
        with pytest.raises(nm.ShapeError) as info:
            fn(*args)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# in-place kernels: the bits of the closed-form expressions, and no writes
# into inputs, the upstream gradient or arrays returned earlier

_GELU_C = float(np.sqrt(2.0 / np.pi))
W = 64


@pytest.mark.parametrize("shape", [(16, 8, W), (16, 8, 4 * W)], ids=["W", "4W"])
def test_gelu_kernels_bit_equal_to_closed_form(shape):
    rng = np.random.default_rng(shape[-1])
    for scale in (0.1, 1.0, 4.0, 30.0):
        x = scale * rng.normal(size=shape)
        g = rng.normal(size=shape)
        x2 = x * x
        t = np.tanh(_GELU_C * (x + 0.044715 * (x2 * x)))
        out, got_t = nm._gelu_parts(x)
        assert out.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
        assert got_t.tobytes() == t.tobytes()
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        (gx,) = nm.gelu(nm.parameter(x))._bwd(g)
        assert gx.tobytes() == (g * dx).tobytes()


@pytest.mark.parametrize("shape", [(16, 8, W), (16, 8, 4 * W)], ids=["W", "4W"])
def test_layer_norm_kernels_bit_equal_to_closed_form(shape):
    rng = np.random.default_rng(shape[-1] + 1)
    w = shape[-1]
    for scale, eps in ((1.0, 1e-6), (50.0, 1e-6), (1e-3, 1e-3)):
        x = scale * rng.normal(size=shape) + 0.5
        gain, bias = rng.normal(size=w), rng.normal(size=w)
        g = rng.normal(size=shape)
        mu = np.add.reduce(x, axis=-1, keepdims=True) / w
        xc = x - mu
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / w
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        out, got_xhat, got_inv = nm._layer_norm_parts(x, gain, bias, eps)
        assert out.tobytes() == (xhat * gain + bias).tobytes()
        assert got_xhat.tobytes() == xhat.tobytes() and got_inv.tobytes() == inv.tobytes()
        node = nm.layer_norm(nm.parameter(x), nm.parameter(gain), nm.parameter(bias), eps)
        gx, ggain, gbias = node._bwd(g)
        gx_hat = g * gain
        ref = inv * (gx_hat - gx_hat.sum(axis=-1, keepdims=True) / w
                     - xhat * ((gx_hat * xhat).sum(axis=-1, keepdims=True) / w))
        assert gx.tobytes() == ref.tobytes()
        assert ggain.tobytes() == (g * xhat).reshape(-1, w).sum(axis=0).tobytes()
        assert gbias.tobytes() == g.reshape(-1, w).sum(axis=0).tobytes()


INPLACE_CASES = {
    **OP_CASES,
    "gelu_W": lambda rng: (nm.gelu, [3.0 * _r(rng, 16, 8, W)]),
    "gelu_4W": lambda rng: (nm.gelu, [3.0 * _r(rng, 16, 8, 4 * W)]),
    "layer_norm_W": lambda rng: (nm.layer_norm, [_r(rng, 16, 8, W), _r(rng, W), _r(rng, W)]),
    "softmax_scores": lambda rng: (nm.softmax, [10.0 * _r(rng, 8, 8, 8)]),
    "lowrank_sqdist_head": lambda rng: (
        nm.lowrank_sqdist, [_r(rng, 40, 8), _r(rng, 40, 6, 4), _r(rng, 6, 8, 4), _r(rng, 6, 8)]),
}


@pytest.mark.parametrize("opname", sorted(INPLACE_CASES))
def test_ops_write_into_no_input_gradient_or_earlier_result(opname):
    # `backward` adopts a first gradient contribution as-is, so a closure
    # that wrote into g or into an array it returned before would corrupt
    # another node's gradient
    rng = np.random.default_rng(zlib.crc32(opname.encode()) + 5)
    build, arrays = INPLACE_CASES[opname](rng)
    params = [nm.parameter(a) for a in arrays]
    out = build(*params)
    data = out.data.copy()
    g = rng.normal(size=out.shape)
    g_before = g.copy()
    first = out._bwd(g)
    first_copy = [a.copy() for a in first]
    second = out._bwd(g)
    for a, b, c in zip(first, first_copy, second):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    assert g.tobytes() == g_before.tobytes()
    assert out.data.tobytes() == data.tobytes()
    for p, a in zip(params, arrays):
        assert p.data.tobytes() == a.tobytes()


@pytest.mark.parametrize("name, args", PLAIN_CASES,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(PLAIN_CASES)])
def test_plain_kernels_write_into_no_input(name, args):
    copies = [[a.copy() for a in x] if isinstance(x, list) else
              (x.copy() if isinstance(x, np.ndarray) else x) for x in args]
    getattr(nm.plain, name)(*args)
    for x, c in zip(args, copies):
        if isinstance(x, list):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(x, c))
        elif isinstance(x, np.ndarray):
            assert x.tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# the 3D@2D product as one GEMM over all B*L rows

GEMM_SHAPES = [(B, L, p) for B in (1, 2, 16) for L in (1, 8) for p in (1, 2, 64)]


@pytest.mark.parametrize("B, L, p", GEMM_SHAPES, ids=[f"B{b}-L{l}-p{p}" for b, l, p in GEMM_SHAPES])
@pytest.mark.parametrize("op", ["matmul", "linear"])
def test_3d_at_2d_gradients_match_fd(op, B, L, p):
    # B, L and p cross the sizes where numpy switches between gemv and gemm;
    # the loss is linear in each operand, so a wide step has no truncation
    # error and keeps the cancellation error of the 16*8-term sum small
    rng = np.random.default_rng(zlib.crc32(f"{op}{B}{L}{p}".encode()))
    arrays = [_r(rng, B, L, 5), _r(rng, 5, p)] + ([_r(rng, p)] if op == "linear" else [])
    check_op(getattr(nm, op), arrays, h=1e-3)


@pytest.mark.parametrize("B, L, p", GEMM_SHAPES, ids=[f"B{b}-L{l}-p{p}" for b, l, p in GEMM_SHAPES])
def test_3d_at_2d_product_is_one_gemm_bit_for_bit(B, L, p):
    rng = np.random.default_rng(B * 100 + L * 10 + p)
    m = 48
    x, w, g = _r(rng, B, L, m), _r(rng, m, p), _r(rng, B, L, p)
    out = nm._matmul(x, w)
    assert out.shape == (B, L, p)
    assert out.tobytes() == (x.reshape(B * L, m) @ w).tobytes()
    ga, gw = nm._matmul_grads(x, w, g)
    assert ga.shape == x.shape
    assert ga.tobytes() == (g.reshape(B * L, p) @ w.T).tobytes()
    assert gw.tobytes() == (x.reshape(B * L, m).T @ g.reshape(B * L, p)).tobytes()
    # a strided operand gives the bits of its contiguous copy
    xt = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert nm._matmul(xt, w).tobytes() == out.tobytes()


@pytest.mark.parametrize("m, p", [(9, 64), (64, 64), (64, 256), (256, 64), (64, 32),
                                  (64, 1), (64, 8)])
def test_batch_one_product_keeps_numpys_bits(m, p):
    # the sampler's batch-1 forward: the backbone's projections and heads,
    # the 1-wide scale head included, give numpy's own 3D@2D bits
    rng = np.random.default_rng(m * 1000 + p)
    x, w = _r(rng, 1, 8, m), _r(rng, m, p)
    assert nm._matmul(x, w).tobytes() == np.matmul(x, w).tobytes()


# ---------------------------------------------------------------------------
# lowrank_sqdist at the trainer's head shapes

@pytest.mark.parametrize("N, K, H, h", [(124, 32, 8, 8), (40, 6, 8, 3), (30, 5, 3, 6)],
                         ids=["criterion9", "h<H", "h>H"])
def test_lowrank_sqdist_gradients_match_fd(N, K, H, h):
    rng = np.random.default_rng(N + K + H + h)
    arrays = {"z": _r(rng, N, H), "mu": _r(rng, N, K, h), "M": 0.3 * _r(rng, K, H, h),
              "s": 0.3 * _r(rng, K, H)}
    params = {k: nm.parameter(a, name=k) for k, a in arrays.items()}
    w = nm.constant(rng.normal(size=(N, K)))

    def loss():
        return nm.sum_(nm.mul(nm.lowrank_sqdist(*params.values()), w))

    # the distance is quadratic in each entry, so a central difference of
    # wide step is exact but for rounding
    picks = {k: rng.choice(a.size, size=min(a.size, 60), replace=False)
             for k, a in arrays.items()}
    assert nm.finite_difference_check(loss, params, h=1e-3, entries=picks) < 1e-6


def test_lowrank_sqdist_matches_the_direct_distance():
    # the expanded identity against ||z - (M mu + s)||^2 at criterion-9 shapes
    rng = np.random.default_rng(21)
    N, K, H, h = 124, 32, 8, 8
    z, mu = _r(rng, N, H), _r(rng, N, K, h)
    M, s = 0.3 * _r(rng, K, H, h), 0.3 * _r(rng, K, H)
    full = np.einsum("khr,nkr->nkh", M, mu) + s[None]
    direct = ((z[:, None, :] - full) ** 2).sum(axis=-1)
    got = nm.lowrank_sqdist(z, mu, M, s).data
    assert np.max(np.abs(got - direct) / np.maximum(direct, 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# the gradient walk: `backward` keeps the graph, `grads` frees it

def _small_graph(rng):
    w = nm.parameter(rng.normal(size=(5, 4)), name="w")
    b = nm.parameter(rng.normal(size=4), name="b")
    dead = nm.parameter(rng.normal(size=3), name="dead")
    x = nm.constant(rng.normal(size=(2, 3, 5)))
    h = nm.gelu(nm.linear(x, w, b))
    y = nm.softmax(nm.mul(h, h))
    loss = nm.sum_(nm.mul(nm.add(y, h), nm.constant(rng.normal(size=(2, 3, 4)))))
    return loss, {"w": w, "b": b, "dead": dead}


def test_backward_sets_grad_on_every_reachable_tensor_and_keeps_the_graph():
    loss, params = _small_graph(np.random.default_rng(4))
    nodes = nm.topo_order(loss)
    nm.backward(loss)
    assert len(nodes) > 8
    for node in nodes:
        assert node.grad is not None and node.grad.shape == node.shape, node
    first = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    # the graph survives: a second walk gives the same bits
    nm.backward(loss)
    assert all(params[k].grad.tobytes() == g.tobytes() for k, g in first.items())
    assert params["dead"].grad is None


def test_grads_gives_backwards_bits_then_spends_the_graph():
    loss, params = _small_graph(np.random.default_rng(5))
    nm.backward(loss)
    want = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    loss, params = _small_graph(np.random.default_rng(5))
    nodes = nm.topo_order(loss)
    got = nm.grads(loss, params)
    assert all(got[k].tobytes() == g.tobytes() for k, g in want.items())
    assert np.array_equal(got["dead"], np.zeros(3))
    # leaves keep their gradients; interior nodes drop gradient and links
    leaves = [params["w"], params["b"]]
    interior = [n for n in nodes if not any(n is p for p in leaves)]
    assert len(interior) == len(nodes) - 2
    for node in interior:
        assert node.grad is None and node._parents == () and node._bwd is nm._spent
    assert all(params[k].grad is got[k] for k in want)
    with pytest.raises(RuntimeError, match="freed by an earlier `grads` walk"):
        nm.grads(loss, params)
