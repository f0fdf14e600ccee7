"""Backbone contracts: initialization, equivariance, conditioning, shapes,
the embedding's consistency with RVQ dequantization, and the graph-free
forward's bit equality with the autodiff forward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqgen import masking as mk
from rvqgen import numerics as nm
from rvqgen import rvq
from rvqgen.backbone import Backbone, BackboneConfig, sinusoidal_encoding
from rvqgen.mog import mixture_weights


def tiny_config(**over):
    base = dict(seq_len=4, depth=2, vocab=4, latent_dim=3, width=16, layers=2, heads=2, mixtures=3, mean_rank=2,
                num_classes=2)
    base.update(over)
    return BackboneConfig(**base)


def tiny_book(config, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(200, config.latent_dim))
    return rvq.fit_codebook(vectors, config.depth, config.vocab, seed=seed)


def random_grid(config, book, seed=1):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(config.seq_len, config.latent_dim))
    return rvq.quantize(vectors, book)


def call(model, tokens, q, book, labels, r, grad=True):
    """One model call on a token grid: bind the weights, embed the grid,
    build its conditioning rows, then run the forward."""
    w = model.weights(grad)
    return model.forward(model.embed_input(tokens, q, book, w),
                         model.condition(labels, r, w), w)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(width=10, heads=4)
    with pytest.raises(ValueError):
        tiny_config(layers=0)


@pytest.mark.parametrize("name", ["seq_len", "depth", "vocab", "latent_dim", "width",
                                  "layers", "heads", "mixtures", "mean_rank", "num_classes"])
def test_config_sizes_must_be_integers(name):
    # a float width once passed `inspect` and ended later in a TypeError
    good = tiny_config()
    for bad in (float(getattr(good, name)), True):
        with pytest.raises(ValueError, match=rf"^{name}: {bad!r} is not an integer$"):
            tiny_config(**{name: bad})
    assert getattr(tiny_config(**{name: np.int64(2)}), name) == 2


def test_zero_init_heads_give_uniform_pi_and_zero_means():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st = mk.binary_mask(3, cfg.seq_len, cfg.depth, np.random.default_rng(2))
    out = call(model, tokens, st, book, labels=[1], r=[0.5])
    pi = mixture_weights(out.logits.data)
    assert np.allclose(pi, 1.0 / cfg.mixtures, atol=1e-12)
    assert np.all(out.means.data == 0.0)
    assert np.all(out.log_scale.data == 0.0)
    assert np.all(out.shift.data == 0.0)


def test_output_shapes():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = np.stack([random_grid(cfg, book, s) for s in (1, 2)])
    q = np.stack([mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(s))
                  for s in (3, 4)])
    out = call(model, tokens, q, book, labels=[0, 2], r=[0.1, 0.9])
    # one head row per grid position, grid by grid
    rows = 2 * cfg.seq_len
    assert out.logits.shape == (rows, cfg.mixtures)
    assert out.means.shape == (rows, cfg.mixtures, cfg.mean_rank)
    assert out.log_scale.shape == (rows,)
    assert out.shift.shape == (rows, cfg.latent_dim)
    L = cfg.seq_len
    for b in (0, 1):
        one = call(model, tokens[b], q[b], book, labels=[2 * b], r=[0.1 + 0.8 * b])
        for name in HEADS:
            np.testing.assert_allclose(getattr(out, name).data[b * L:(b + 1) * L],
                                       getattr(one, name).data, rtol=0, atol=1e-12)


def test_fully_masked_positions_share_null_embedding():
    cfg = tiny_config(positional_encoding=False)
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = np.full((cfg.seq_len, cfg.depth), rvq.MASK, dtype=np.int64)
    q = np.full(cfg.seq_len, cfg.depth)
    for part in model.embed_input(tokens, q, book, model.weights(True)):
        assert np.all(part.data == part.data[0])


def test_embedding_matches_dequantize_prefix():
    cfg = tiny_config()
    model = perturb(Backbone(cfg, seed=0), seed=2)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    # position 0 reveals only depth 1; others fully revealed
    q = np.array([cfg.depth - 1] + [0] * (cfg.seq_len - 1))
    P = {k: p.data for k, p in model.params.items()}
    pe = sinusoidal_encoding(cfg.seq_len, cfg.width)
    for grad in (True, False):
        x, normed = (nm.constant(part).data
                     for part in model.embed_input(tokens, q, book, model.weights(grad)))
        assert x.shape == normed.shape == (cfg.seq_len, cfg.width)
        for i in range(cfg.seq_len):
            upto = cfg.depth - q[i]
            z = np.zeros(cfg.latent_dim)        # the revealed prefix, depth by depth
            for j in range(upto):
                z = z + book.table(j + 1)[tokens[i, j] - 1]
            feat = np.concatenate([z, [q[i] / cfg.depth]])
            assert np.allclose(x[i], feat @ P["embed.w"] + P["embed.b"] + pe[i],
                               atol=1e-12)
        # block 0's first layer norm of the rows, before any label enters
        mu, var = x.mean(-1, keepdims=True), x.var(-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + 1e-6) * P["block0.ln1.g"] + P["block0.ln1.b"]
        assert np.allclose(normed, want, atol=1e-9)


def test_permutation_equivariance_without_pe():
    cfg = tiny_config(positional_encoding=False)
    model = Backbone(cfg, seed=3)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st = np.array([0, 1, 2, 1])
    out = call(model, tokens, st, book, labels=[1], r=[0.4])
    perm = np.array([2, 0, 3, 1])
    out_p = call(model, tokens[perm], st[perm], book, labels=[1], r=[0.4])
    assert np.allclose(out.logits.data[perm], out_p.logits.data, atol=1e-10)
    assert np.allclose(out.shift.data[perm], out_p.shift.data, atol=1e-10)


def test_determinism_bit_identical():
    cfg = tiny_config()
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st = mk.binary_mask(4, cfg.seq_len, cfg.depth, np.random.default_rng(5))

    def run():
        model = Backbone(cfg, seed=7)
        return call(model, tokens, st, book, labels=[2], r=[0.3])

    a, b = run(), run()
    assert np.array_equal(a.logits.data, b.logits.data)
    assert np.array_equal(a.means.data, b.means.data)


def test_null_label_output_is_label_free():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    st = mk.binary_mask(5, cfg.seq_len, cfg.depth, np.random.default_rng(8))
    # grids drawn from two different "classes": with the null label the
    # prediction for the same visible tokens must be identical
    tokens = random_grid(cfg, book, seed=9)
    a = call(model, tokens, st, book, labels=[0], r=[0.2])
    b = call(model, tokens, st, book, labels=[0], r=[0.2])
    assert np.array_equal(a.logits.data, b.logits.data)


def test_rejects_bad_label_and_bad_mask():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    with pytest.raises(ValueError, match="labels"):
        call(model, tokens, st, book, labels=[5], r=[0.5])
    bad = np.full(cfg.seq_len, cfg.depth + 1)  # more hidden depths than there are
    with pytest.raises(ValueError, match="masked counts"):
        call(model, tokens, bad, book, labels=[1], r=[0.5])


@pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (0.7, "0.7"), (True, "True"),
                                        (np.float64(1.0), "1.0")])
def test_a_label_that_is_not_an_integer_is_named(bad, shown):
    # np.asarray(labels, dtype=np.int64) once ran 0.7 as the null label
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    q = np.array([0, 1, 2, 1])
    for grad in (True, False):
        w = model.weights(grad)
        for labels in ([bad], np.array([bad]), bad):
            with pytest.raises(ValueError, match=rf"^labels: {shown} is not an integer$"):
                model.condition(labels, [0.5], w)
    assert model.forward_calls == 0
    # integer labels of any integer type pass
    w = model.weights(False)
    for labels in ([1], np.array([1], dtype=np.uint8), np.int32(1), [np.int64(2)]):
        model.forward(model.embed_input(tokens, q, book, w),
                      model.condition(labels, [0.5], w), w)
    assert model.forward_calls == 4


def test_forward_counter_increments():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    assert model.forward_calls == 0
    call(model, tokens, st, book, labels=[1], r=[0.5])
    call(model, tokens, st, book, labels=[1], r=[0.5])
    assert model.forward_calls == 2


# ---------------------------------------------------------------------------
# graph-free forward (grad=False) against the autodiff forward

HEADS = ("logits", "means", "log_scale", "shift")


def perturb(model, seed, scale=0.3):
    """Random offsets on every parameter, so the zero-initialized heads
    and unit gains carry signal."""
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = p.data + scale * rng.normal(size=p.data.shape)
    return model


def assert_modes_bit_equal(model, book, tokens, q, labels, r):
    ref = call(model, tokens, q, book, labels, r)
    got = call(model, tokens, q, book, labels, r, grad=False)
    for name in HEADS:
        a, b = getattr(got, name), getattr(ref, name)
        assert isinstance(a, np.ndarray) and isinstance(b, nm.Tensor), name
        assert a.shape == b.data.shape, name
        assert a.tobytes() == b.data.tobytes(), name
    # the output carries the low-rank basis: the parameter Tensors, or
    # their current arrays
    for name in ("M", "s"):
        p = model.params[f"basis.{name}"]
        assert getattr(ref, name) is p and getattr(got, name) is p.data, name
    return got


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("num_classes", [0, 2])
@pytest.mark.parametrize("pe", [True, False])
def test_plain_forward_bit_equal_to_autodiff(B, num_classes, pe):
    cfg = tiny_config(num_classes=num_classes, positional_encoding=pe)
    model = perturb(Backbone(cfg, seed=4), seed=B + 10 * num_classes)
    book = tiny_book(cfg)
    rng = np.random.default_rng(B)
    tokens = np.stack([random_grid(cfg, book, seed=s) for s in range(B)])
    # in every grid position 0 is fully masked, position 1 fully revealed
    q = rng.integers(0, cfg.depth + 1, size=(B, cfg.seq_len))
    q[:, 0], q[:, 1] = cfg.depth, 0
    masks = np.stack([mk.suffix_masks(qb, cfg.depth) for qb in q])
    visible = np.stack([mk.apply_mask(t, m) for t, m in zip(tokens, masks)])
    labels = rng.integers(0, num_classes + 1, size=B)
    out = assert_modes_bit_equal(model, book, visible, q, labels, rng.random(B))
    assert out.logits.shape == (B * cfg.seq_len, cfg.mixtures)


def test_plain_forward_reads_parameters_afresh():
    cfg = tiny_config()
    model = perturb(Backbone(cfg, seed=0), seed=1)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st_ = mk.binary_mask(3, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    before = call(model, tokens, st_, book, [1], [0.5], grad=False)
    # rebinding and in-place edits both show in a call on fresh
    # `weights(False)`
    model.params["head.logits.b"].data = model.params["head.logits.b"].data + 1.0
    model.params["head.shift.w"].data[0, 0] += 0.25
    model.params["basis.M"].data = model.params["basis.M"].data + 0.5
    after = assert_modes_bit_equal(model, book, tokens, st_, [1], [0.5])
    assert not np.array_equal(before.logits, after.logits)
    assert not np.array_equal(before.shift, after.shift)


@st.composite
def forward_cases(draw):
    heads = draw(st.integers(1, 2))
    cfg = BackboneConfig(
        seq_len=draw(st.integers(1, 5)), depth=draw(st.integers(1, 3)),
        vocab=draw(st.integers(1, 4)), latent_dim=draw(st.integers(1, 3)),
        width=heads * draw(st.integers(1, 4)), layers=draw(st.integers(1, 2)),
        heads=heads, mixtures=draw(st.integers(1, 3)),
        mean_rank=draw(st.integers(1, 2)), num_classes=draw(st.integers(0, 2)),
        positional_encoding=draw(st.booleans()))
    B = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    return cfg, B, seed


@settings(max_examples=60, deadline=None)
@given(forward_cases())
def test_plain_forward_bit_equal_property(case):
    cfg, B, seed = case
    rng = np.random.default_rng(seed)
    model = perturb(Backbone(cfg, seed=seed), seed=seed + 1)
    book = rvq.Codebook(rng.normal(size=(cfg.depth, cfg.vocab, cfg.latent_dim)),
                        np.ones(cfg.depth))
    tokens = rng.integers(1, cfg.vocab + 1, size=(B, cfg.seq_len, cfg.depth))
    q = rng.integers(0, cfg.depth + 1, size=(B, cfg.seq_len))
    masks = np.stack([mk.suffix_masks(qb, cfg.depth) for qb in q])
    visible = np.stack([mk.apply_mask(t, m) for t, m in zip(tokens, masks)])
    labels = rng.integers(0, cfg.num_classes + 1, size=B)
    assert_modes_bit_equal(model, book, visible, q, labels, rng.random(B))


# ---------------------------------------------------------------------------
# conditioning rows, built once per grid


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**16),
       st.booleans())
def test_conditioning_rows_of_t_steps_equal_t_one_step_calls(T, num_classes, B, seed, grad):
    # the sampler builds all T steps' rows in one call and slices them
    cfg = tiny_config(num_classes=num_classes)
    model = perturb(Backbone(cfg, seed=seed % 7), seed=seed)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes + 1, size=(T, B))
    ratios = np.concatenate([np.arange(T) / T, rng.random(T * B - T)]).reshape(T, B)
    w = model.weights(grad)
    whole = nm.constant(model.condition(labels.ravel(), ratios.ravel(), w)).data
    rows = B * cfg.seq_len
    assert whole.shape == (T * rows, cfg.width)
    for t in range(T):
        one = nm.constant(model.condition(labels[t], ratios[t], w)).data
        assert one.tobytes() == whole[t * rows:(t + 1) * rows].tobytes(), t
    assert model.forward_calls == 0


LENGTHS = r"labels and mask ratios must be \(B,\) each, got "
RATIO = r"mask ratios must be finite and lie in \[0, 1\], got "


@pytest.mark.parametrize("labels, r, reason", [
    ([1, 2], [0.5], LENGTHS + r"\(2,\) and \(1,\)$"),
    ([1], [0.5, 0.2], LENGTHS + r"\(1,\) and \(2,\)$"),
    ([[1]], [[0.5]], LENGTHS + r"\(1, 1\) and \(1, 1\)$"),
    ([1], [float("nan")], RATIO + "nan$"),
    ([1], [float("inf")], RATIO + "inf$"),
    ([1, 1], [0.5, 7.0], RATIO + "7.0$"),
    ([1], [-0.25], RATIO + "-0.25$"),
], ids=["labels-longer", "ratios-longer", "two-dims", "nan", "inf", "above-1", "below-0"])
@pytest.mark.parametrize("grad", [True, False])
def test_bad_conditioning_inputs_are_named(labels, r, reason, grad):
    # these once raised numpy's reshape or broadcast errors, or ran with
    # non-finite heads
    model = Backbone(tiny_config(), seed=0)
    with pytest.raises(ValueError, match=reason):
        model.condition(labels, r, model.weights(grad))
    # the ends of [0, 1] pass
    model.condition([1, 2], [0.0, 1.0], model.weights(grad))


@pytest.mark.parametrize("rows, width", [(1, 16), (3, 16), (2, 15), (2, 17)])
@pytest.mark.parametrize("grad", [True, False])
def test_conditioning_rows_of_another_shape_are_refused(rows, width, grad):
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = np.stack([random_grid(cfg, book)] * 2)
    q = np.full((2, cfg.seq_len), 1)
    w = model.weights(grad)
    emb = model.embed_input(tokens, q, book, w)
    cond = model.condition(np.ones(rows, dtype=np.int64), np.full(rows, 0.5), w)
    cond = cond if width == cfg.width else np.zeros((rows * cfg.seq_len, width))
    with pytest.raises(ValueError, match=r"conditioning rows must be \(8, 16\), got "):
        model.forward(emb, cond, w)
    assert model.forward_calls == 0


@pytest.mark.parametrize("bad, reason", [
    (lambda t, q: (t[:, :1], q, [1]), "token grid must be"),
    (lambda t, q: (t[:-1], q[:-1], [1]), "token grid must be"),
    (lambda t, q: (t, np.stack([q, q]), [1]), "masked counts"),
    (lambda t, q: (t, q - 1, [1]), "masked counts"),       # a count below 0
    (lambda t, q: (t, q + 2, [1]), "masked counts"),       # a count above D = 2
    (lambda t, q: (t, q, [3]), "labels"),
    (lambda t, q: (t, q, [-1]), "labels"),
    (lambda t, q: (np.where(mk.suffix_masks(q, 2) == 1, rvq.MASK, t), q, [1]),
     "MASK token at a kept entry"),
])
def test_both_modes_reject_malformed_inputs_alike(bad, reason):
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    good = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    tokens, q, labels = bad(random_grid(cfg, book), good)
    messages = []
    for grad in (True, False):
        with pytest.raises(ValueError, match=reason) as info:
            call(model, tokens, q, book, labels, [0.5], grad=grad)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert model.forward_calls == 0


@settings(max_examples=40, deadline=None)
@given(forward_cases())
def test_tokens_at_hidden_entries_are_never_read(case):
    # the masked counts alone say what is hidden: any tokens there, in
    # range or not (-1 and V + 1 once raised), give the bits of MASK, in
    # both modes
    cfg, B, seed = case
    rng = np.random.default_rng(seed)
    model = perturb(Backbone(cfg, seed=seed), seed=seed + 1)
    book = rvq.Codebook(rng.normal(size=(cfg.depth, cfg.vocab, cfg.latent_dim)),
                        np.ones(cfg.depth))
    tokens = rng.integers(1, cfg.vocab + 1, size=(B, cfg.seq_len, cfg.depth))
    q = rng.integers(0, cfg.depth + 1, size=(B, cfg.seq_len))
    hidden = mk.suffix_masks(q, cfg.depth) == 0
    masked = np.where(hidden, rvq.MASK, tokens)
    in_range = np.where(hidden, rng.integers(0, cfg.vocab + 1, size=tokens.shape), tokens)
    outside = np.where(hidden, rng.choice([-1, cfg.vocab + 1, -2**62, 2**62],
                                          size=tokens.shape), tokens)
    labels = rng.integers(0, cfg.num_classes + 1, size=B)
    r = rng.random(B)
    for grad in (True, False):
        ref = call(model, masked, q, book, labels, r, grad=grad)
        for noise in (in_range, outside):
            got = call(model, noise, q, book, labels, r, grad=grad)
            for name in HEADS:
                a, b = (nm.constant(getattr(o, name)).data for o in (ref, got))
                assert a.tobytes() == b.tobytes(), (grad, name)


@pytest.mark.parametrize("bad", [-1, 5, 2**62])
def test_a_kept_token_outside_the_vocabulary_still_raises(bad):
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    q = np.array([0, 1, 2, 1])
    tokens[1, 0] = bad            # position 1 keeps depth 1 and hides depth 2
    for grad in (True, False):
        with pytest.raises(ValueError, match=r"tokens must lie in \[0, 4\]"):
            model.embed_input(tokens, q, book, model.weights(grad))
    tokens[1, 0], tokens[1, 1] = 1, bad
    model.embed_input(tokens, q, book, model.weights(True))   # the hidden entry is not read


@pytest.mark.parametrize("q, why", [
    (np.zeros((4, 2), dtype=np.int64), "a (L, D) mask's shape"),
    (np.zeros(3, dtype=np.int64), "too few positions"),
    (np.array([0, -1, 0, 0]), "below 0"),
    (np.array([0, 3, 0, 0]), "above D"),
    (np.zeros(4), "not integers"),
])
def test_bad_masked_counts_are_named(q, why):
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    graph, plain = model.weights(True), model.weights(False)
    for attempt in (lambda: model.embed_input(tokens, q, book, graph),
                    lambda: model.embed_input(tokens, q, book, plain),
                    lambda: model.embed_input(tokens[None], q[None], book, graph),
                    lambda: model.embed_input(tokens[None], q[None], book, plain)):
        with pytest.raises(ValueError, match="masked counts must be") as info:
            attempt()
        assert "[0, 2]" in str(info.value), why
    assert model.forward_calls == 0


def test_forward_counter_counts_both_modes():
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st_ = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    call(model, tokens, st_, book, labels=[1], r=[0.5], grad=False)
    assert model.forward_calls == 1
    call(model, tokens, st_, book, labels=[1], r=[0.5])
    call(model, tokens, st_, book, labels=[1], r=[0.5], grad=False)
    assert model.forward_calls == 3


def test_each_projection_is_one_graph_node():
    # x @ w + b as one `linear` node keeps one product-sized array in the
    # graph per projection, where a matmul node and an add node kept two
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st_ = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    out = call(model, tokens, st_, book, [1], [0.5])
    loss = nm.add(nm.add(nm.sum_(out.logits), nm.sum_(out.means)),
                  nm.add(nm.sum_(out.log_scale), nm.sum_(out.shift)))
    consumers = {}
    for node in nm.topo_order(loss):
        for parent in node._parents:
            consumers.setdefault(id(parent), []).append(node)
    P = model.params
    weights = [n for n in P if n.endswith(("w", "w1", "w2"))]
    # embed; q, k, v, out and the two MLP layers per block; four heads
    assert len(weights) == 1 + 6 * cfg.layers + 4
    for name in weights:
        i = name.rindex("w")
        bias = P.get(name[:i] + "b" + name[i + 1:])   # attn.kw has none
        (node,) = consumers[id(P[name])]
        assert node._parents[1] is P[name], name
        assert node._parents[2:] == (() if bias is None else (bias,)), name


def test_forward_reads_the_parameter_mapping_once(monkeypatch):
    cfg = tiny_config()
    model = Backbone(cfg, seed=0)
    book = tiny_book(cfg)
    tokens = random_grid(cfg, book)
    st_ = mk.binary_mask(2, cfg.seq_len, cfg.depth, np.random.default_rng(0))
    ref = call(model, tokens, st_, book, [1], [0.5], grad=False)
    built = []
    weights = Backbone.weights
    monkeypatch.setattr(Backbone, "weights", lambda self, grad: built.append(grad)
                        or weights(self, grad))
    for grad in (False, True):
        w = model.weights(grad)
        assert built == [grad]
        emb = model.embed_input(tokens, st_, book, w)
        out = model.forward(emb, model.condition([1], [0.5], w), w)
        assert built == [grad]
        built.clear()
        assert mixture_weights(nm.constant(out.logits).data).tobytes() == \
            mixture_weights(ref.logits).tobytes()
    # calls on a shared embedding and bound weights build no mapping
    w = model.weights(False)
    emb = model.embed_input(tokens, st_, book, w)
    for _ in range(2):
        model.forward(emb, model.condition([1], [0.5], w), w)
    assert built == [False]
