import copy
import re
import struct

import numpy as np
import pytest
import scipy.special

from dsfnet.nn import (LOG_FLOOR, AvgPool, Dense, Dropout, Flatten, LogFloor,
                       ParamStore, ShallowNet, ShallowNetConfig, Sigmoid,
                       SpatialConv, Square, TemporalConv, TrainConfig,
                       adamw_step, cosine_lr, he_uniform_init, softmax,
                       softmax_xent)

from dsfnet.harness import DeepModel
from dsfnet.seeding import rng_for

from conftest import finite_diff_input_max_rel_error, finite_diff_max_rel_error


def quad_loss(layer, store, x, cost):
    """Scalar loss sum(cost * y) through a layer; returns a loss_fn for the
    finite-difference checkers."""

    def loss_fn(no_grad=False):
        y = layer.forward(x, store)
        loss = float((cost * y).sum())
        if not no_grad:
            layer.backward(cost, store)
        return loss

    return loss_fn


# ---------------------------------------------------------------------------
# Parameter store


def test_param_store_basics(rng):
    store = ParamStore()
    store.add("a", rng.normal(size=(2, 3)))
    store.add("b", np.zeros(4))
    assert store.n_parameters() == 10
    assert "a" in store and "c" not in store
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))


def test_param_store_save_load_round_trip(tmp_path, rng):
    store = ParamStore()
    store.add("layer.W", rng.normal(size=(3, 4)))
    store.add("layer.b", rng.normal(size=4))
    store.add("scalarish", rng.normal(size=(1,)))
    path = str(tmp_path / "params.bin")
    store.save(path)
    loaded = ParamStore.load(path)
    assert sorted(loaded.names()) == sorted(store.names())
    for name in store.names():
        assert np.array_equal(loaded[name].value, store[name].value)


@pytest.fixture
def param_bytes(tmp_path, rng):
    store = ParamStore()
    store.add("layer.W", rng.normal(size=(3, 4)))
    store.add("layer.b", rng.normal(size=4))
    path = str(tmp_path / "params.bin")
    store.save(path)
    return open(path, "rb").read()


def test_param_store_load_rejects_truncated_header(tmp_path, param_bytes):
    path = tmp_path / "short.bin"
    path.write_bytes(param_bytes[:10])  # magic, version, half the count
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: truncated at byte offset 8"):
        ParamStore.load(str(path))


def test_param_store_load_rejects_truncated_payload(tmp_path, param_bytes):
    path = tmp_path / "short.bin"
    path.write_bytes(param_bytes[:-3])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: truncated at byte offset"):
        ParamStore.load(str(path))


def test_param_store_load_rejects_huge_length_field(tmp_path, param_bytes):
    # The rank of the first entry sits after magic, version, count, the
    # name length and the 7-byte name "layer.W".
    at = 4 + 4 + 4 + 4 + 7
    path = tmp_path / "corrupt.bin"
    path.write_bytes(param_bytes[:at] + struct.pack("<Q", 2**62)
                     + param_bytes[at + 8:])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"{where}: truncated at byte offset"):
        ParamStore.load(str(path))


def test_param_store_load_rejects_trailing_bytes(tmp_path, param_bytes):
    path = tmp_path / "long.bin"
    path.write_bytes(param_bytes + b"\x00\x00")
    offset = len(param_bytes)
    where = re.escape(str(path))
    with pytest.raises(ValueError,
                       match=f"{where}: .*trailing bytes at byte offset {offset}"):
        ParamStore.load(str(path))


def test_param_store_load_rejects_name_that_is_not_utf8(tmp_path,
                                                       param_bytes):
    # The first name, "layer.W", starts after magic, version, count and
    # its length.
    path = tmp_path / "badname.bin"
    path.write_bytes(param_bytes[:16] + b"\xff" + param_bytes[17:])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"^{where}: bad parameter name: "):
        ParamStore.load(str(path))


def test_param_store_load_rejects_repeated_name(tmp_path, param_bytes):
    # Rename the second entry, "layer.b", to the first, "layer.W".
    at = param_bytes.index(b"layer.b")
    path = tmp_path / "dupname.bin"
    path.write_bytes(param_bytes[:at] + b"layer.W" + param_bytes[at + 7:])
    where = re.escape(str(path))
    with pytest.raises(ValueError, match=f"^{where}: bad parameter name: "
                                         f"duplicate parameter name"):
        ParamStore.load(str(path))


def test_param_store_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        ParamStore.load(str(path))


def test_he_uniform_bounds(rng):
    w = he_uniform_init((2000,), fan_in=24, rng=rng)
    bound = np.sqrt(6.0 / 24)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.9 * bound  # actually fills the range
    with pytest.raises(ValueError):
        he_uniform_init((2,), 0, rng)


# ---------------------------------------------------------------------------
# Layer forward oracles


def test_dense_forward_oracle(rng):
    store = ParamStore()
    layer = Dense("fc", 3, 2, store, rng)
    x = rng.normal(size=(5, 3))
    expected = x @ store["fc.W"].value + store["fc.b"].value
    np.testing.assert_allclose(layer.forward(x, store), expected,
                               rtol=1e-14, atol=0)


def test_temporal_conv_forward_matches_naive_loop(rng):
    store = ParamStore()
    layer = TemporalConv("tc", n_filters=3, kernel=4, store=store, rng=rng)
    B, C, T = 2, 3, 10
    x = rng.normal(size=(B, C, T))
    out = layer.forward(x, store)
    W = store["tc.W"].value
    b = store["tc.b"].value
    Tp = T - 4 + 1
    assert out.shape == (B, C * 3, Tp)
    for bi in range(B):
        for c in range(C):
            for f in range(3):
                for t in range(Tp):
                    ref = x[bi, c, t:t + 4] @ W[f] + b[f]
                    assert out[bi, c * 3 + f, t] == pytest.approx(ref, abs=1e-12)


def test_temporal_conv_rejects_short_window(rng):
    store = ParamStore()
    layer = TemporalConv("tc", 2, 8, store, rng)
    with pytest.raises(ValueError, match="shorter than"):
        layer.forward(np.zeros((1, 2, 5)), store)


def test_spatial_conv_forward_oracle(rng):
    store = ParamStore()
    layer = SpatialConv("sc", 4, 2, store, rng)
    x = rng.normal(size=(3, 4, 7))
    out = layer.forward(x, store)
    W = store["sc.W"].value
    b = store["sc.b"].value
    for bi in range(3):
        ref = W.T @ x[bi] + b[:, None]
        np.testing.assert_allclose(out[bi], ref, rtol=1e-13, atol=1e-13)


def test_avg_pool_matches_naive(rng):
    layer = AvgPool(4, 2)
    x = rng.normal(size=(2, 3, 11))
    out = layer.forward(x, None)
    n_pool = (11 - 4) // 2 + 1
    assert out.shape == (2, 3, n_pool)
    for p in range(n_pool):
        np.testing.assert_allclose(out[..., p],
                                   x[..., 2 * p:2 * p + 4].mean(axis=-1),
                                   rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 1, 3)), None)


def test_log_floor_values_and_dead_region(rng):
    layer = LogFloor()
    x = np.array([[2.0, LOG_FLOOR / 10, -1.0]])
    out = layer.forward(x, None)
    np.testing.assert_allclose(out[0, 0], np.log(2.0))
    assert out[0, 1] == out[0, 2] == np.log(LOG_FLOOR)
    dx = layer.backward(np.ones_like(x), None)
    assert dx[0, 0] == pytest.approx(0.5)
    assert dx[0, 1] == dx[0, 2] == 0.0


def test_dropout_eval_is_identity(rng):
    layer = Dropout(0.5)
    x = rng.normal(size=(4, 5))
    assert layer.forward(x, None, train=False) is x
    np.testing.assert_array_equal(layer.backward(x, None), x)


def test_dropout_train_scaling_preserves_expectation(rng):
    layer = Dropout(0.3)
    x = np.ones((200, 500))
    out = layer.forward(x, None, train=True, rng=rng)
    kept = out > 0
    assert np.mean(kept) == pytest.approx(0.7, abs=0.01)
    np.testing.assert_allclose(out[kept], 1.0 / 0.7, rtol=1e-12)
    assert out.mean() == pytest.approx(1.0, abs=0.01)


def test_dropout_needs_rng_in_train_mode():
    with pytest.raises(ValueError, match="rng"):
        Dropout(0.5).forward(np.zeros((2, 2)), None, train=True)
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_dropout_backward_reuses_mask(rng):
    layer = Dropout(0.5)
    x = rng.normal(size=(10, 10))
    out = layer.forward(x, None, train=True, rng=rng)
    dx = layer.backward(np.ones_like(x), None)
    np.testing.assert_array_equal(dx == 0.0, out == 0.0)


def test_sigmoid_and_flatten(rng):
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(Sigmoid().forward(x, None),
                               scipy.special.expit(x), rtol=1e-12)
    flat = Flatten()
    x3 = rng.normal(size=(2, 3, 4))
    out = flat.forward(x3, None)
    assert out.shape == (2, 12)
    np.testing.assert_array_equal(flat.backward(out, None), x3)


# ---------------------------------------------------------------------------
# Gradients (a couple of seeds here; the acceptance test sweeps 20)


@pytest.mark.parametrize("seed", [0, 1])
def test_layer_gradients_finite_difference(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    cases = [
        (Dense("fc", 3, 2, store, rng), (4, 3)),
        (TemporalConv("tc", 2, 3, store, rng), (2, 2, 8)),
        (SpatialConv("sc", 3, 2, store, rng), (2, 3, 5)),
        (Square(), (2, 3, 4)),
        (AvgPool(3, 2), (2, 2, 7)),
        (Sigmoid(), (3, 4)),
        (Flatten(), (2, 3, 4)),
    ]
    for layer, shape in cases:
        x = rng.normal(size=shape)
        cost = rng.normal(size=np.shape(
            layer.forward(x, store)))
        err = finite_diff_max_rel_error(store, quad_loss(layer, store, x, cost))
        assert err < 1e-4, f"{type(layer).__name__} params: {err}"
        store.zero_grads()
        layer.forward(x, store)
        dx = layer.backward(cost, store)
        err = finite_diff_input_max_rel_error(
            x, lambda xv: float((cost * layer.forward(xv, store)).sum()), dx)
        assert err < 1e-4, f"{type(layer).__name__} input: {err}"


def test_shallow_net_gradients_finite_difference():
    rng = np.random.default_rng(7)
    store = ParamStore()
    cfg = ShallowNetConfig(n_temporal_filters=2, temporal_kernel=3,
                           n_spatial_filters=2, pool_width=4, pool_stride=2,
                           dropout_rate=0.0)
    net = ShallowNet(2, 12, cfg, store, rng)
    x = rng.normal(size=(3, 2, 12))
    y = np.array([0, 1, 0])
    w = np.ones(2)

    def loss_fn(no_grad=False):
        logits = net.forward(x, store)
        loss, dlogits = softmax_xent(logits, y, w)
        if not no_grad:
            net.backward(dlogits, store)
        return loss

    assert finite_diff_max_rel_error(store, loss_fn) < 1e-4


def fused_conv(store, rng, C, F=3, k=5, S=5):
    """A TemporalConv with a SpatialConv from C * F to S maps folded in,
    and random biases so the bias fold is exercised."""
    layer = TemporalConv("tc", F, k, store, rng)
    layer.spatial = SpatialConv("sc", C * F, S, store, rng)
    store["tc.b"].value[...] = rng.normal(size=F)
    store["sc.b"].value[...] = rng.normal(size=S)
    return layer


@pytest.mark.parametrize("B,T", [
    pytest.param(3, 21, id="odd-T"),
    pytest.param(3, 600, id="even-T"),  # the reference T: a Nyquist bin
    pytest.param(1, 21, id="B1"),
])
def test_fused_temporal_conv_equals_temporal_then_spatial(rng, B, T):
    C = 4
    store = ParamStore()
    fused = fused_conv(store, rng, C)
    temporal = copy.copy(fused)  # same parameters, no spatial layer
    temporal.spatial = None
    spatial = fused.spatial
    x = rng.normal(size=(B, C, T))

    def run(forward, backward):
        store.zero_grads()
        y = forward(x)
        dout = np.random.default_rng(1).normal(size=y.shape)
        dx = backward(dout)
        return y, dx, {n: store[n].grad.copy() for n in store.names()}

    want = run(lambda v: spatial.forward(temporal.forward(v, store), store),
               lambda d: temporal.backward(spatial.backward(d, store), store))
    got = run(lambda v: fused.forward(v, store),
              lambda d: fused.backward(d, store))
    def assert_close(actual, desired, err_msg=""):
        # Entries near 0 carry the rounding of a length-T transform, so
        # the bound also allows 1e-12 of the largest entry.
        np.testing.assert_allclose(actual, desired, rtol=1e-12,
                                   atol=1e-12 * np.abs(desired).max(),
                                   err_msg=err_msg)

    assert got[0].shape == (B, 5, T - 5 + 1)  # S maps, kernel 5
    assert_close(got[0], want[0])
    assert_close(got[1], want[1])
    assert sorted(got[2]) == ["sc.W", "sc.b", "tc.W", "tc.b"]
    for name in got[2]:
        assert_close(got[2][name], want[2][name], err_msg=name)


def test_fused_temporal_conv_gradients_finite_difference(rng):
    store = ParamStore()
    layer = fused_conv(store, rng, C=3)
    x = rng.normal(size=(2, 3, 12))
    cost = rng.normal(size=layer.forward(x, store).shape)
    err = finite_diff_max_rel_error(store, quad_loss(layer, store, x, cost))
    assert err < 1e-4, f"params: {err}"
    store.zero_grads()
    layer.forward(x, store)
    dx = layer.backward(cost, store)
    err = finite_diff_input_max_rel_error(
        x, lambda xv: float((cost * layer.forward(xv, store)).sum()), dx)
    assert err < 1e-4, f"input: {err}"


def test_fresh_vanilla_model_keeps_parameter_names_shapes_and_draws(tmp_path):
    """The spatial convolution runs inside the temporal one, but the model
    still owns the four convolution parameters, created in the same order
    from the same generator."""
    C, T, seed = 5, 300, 11
    cfg = ShallowNetConfig()
    model = DeepModel("vanilla", C, T, cfg, seed)
    F, k, S = cfg.n_temporal_filters, cfg.temporal_kernel, cfg.n_spatial_filters
    n_pool = (T - k + 1 - cfg.pool_width) // cfg.pool_stride + 1
    rng = rng_for(seed, 0xD5F)
    want = ParamStore()
    want.add("net.tconv.W", he_uniform_init((F, k), k, rng))
    want.add("net.tconv.b", np.zeros(F))
    want.add("net.sconv.W", he_uniform_init((C * F, S), C * F, rng))
    want.add("net.sconv.b", np.zeros(S))
    want.add("net.out.W", he_uniform_init((S * n_pool, model.n_classes),
                                          S * n_pool, rng))
    want.add("net.out.b", np.zeros(model.n_classes))
    assert model.store.names() == want.names()
    model.store.save(str(tmp_path / "got.bin"))
    want.save(str(tmp_path / "want.bin"))
    assert ((tmp_path / "got.bin").read_bytes()
            == (tmp_path / "want.bin").read_bytes())


def test_shallow_net_rejects_too_short_input(rng):
    store = ParamStore()
    with pytest.raises(ValueError, match="pool width"):
        ShallowNet(2, 30, ShallowNetConfig(), store, rng)


def test_shallow_net_output_shape(rng):
    store = ParamStore()
    net = ShallowNet(6, 600, ShallowNetConfig(), store, rng)
    out = net.forward(rng.normal(size=(4, 6, 600)), store)
    assert out.shape == (4, 2)


# ---------------------------------------------------------------------------
# Loss


def test_softmax_xent_matches_scipy(rng):
    logits = rng.normal(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    w = np.array([1.0, 2.0, 0.5])
    loss, _ = softmax_xent(logits, labels, w)
    log_probs = scipy.special.log_softmax(logits, axis=1)
    ref = -np.mean(w[labels] * log_probs[np.arange(10), labels])
    assert loss == pytest.approx(ref, rel=1e-12)


def test_softmax_matches_scipy_and_is_stable(rng):
    logits = rng.normal(size=(10, 3))
    np.testing.assert_allclose(softmax(logits),
                               scipy.special.softmax(logits, axis=1),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(softmax(logits + 1000.0), softmax(logits),
                               rtol=1e-12, atol=0)


def test_softmax_xent_gradient_finite_difference(rng):
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    w = np.array([1.0, 0.5, 2.0])
    _, grad = softmax_xent(logits, labels, w)
    h = 1e-6
    for i in range(5):
        for j in range(3):
            lp = logits.copy()
            lp[i, j] += h
            lm = logits.copy()
            lm[i, j] -= h
            fd = (softmax_xent(lp, labels, w)[0]
                  - softmax_xent(lm, labels, w)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, abs=1e-7)


def test_softmax_xent_is_shift_invariant_and_stable(rng):
    logits = rng.normal(size=(4, 2))
    labels = np.array([0, 1, 0, 1])
    w = np.ones(2)
    l1, _ = softmax_xent(logits, labels, w)
    l2, _ = softmax_xent(logits + 1000.0, labels, w)
    assert l1 == pytest.approx(l2, rel=1e-12)
    with pytest.raises(ValueError, match="non-finite"):
        softmax_xent(np.array([[np.nan, 0.0]]), np.array([0]), w)


# ---------------------------------------------------------------------------
# Optimizer


def test_adamw_single_step_oracle():
    store = ParamStore()
    p = store.add("w", np.array([1.0, -2.0]))
    p.grad[...] = np.array([0.5, -0.25])
    cfg = TrainConfig(weight_decay=0.1)
    adamw_step(store, lr=0.01, config=cfg, t=1)
    # At t=1 with zero state, m_hat = grad and v_hat = grad^2, so the Adam
    # direction is sign(grad) up to eps.
    g = np.array([0.5, -0.25])
    expected = (np.array([1.0, -2.0])
                - 0.01 * (g / (np.abs(g) + cfg.eps) + 0.1 * np.array([1.0, -2.0])))
    np.testing.assert_allclose(p.value, expected, rtol=1e-12)


def test_adamw_weight_decay_is_decoupled():
    # Zero gradient: the only movement is the decay shrinkage.
    store = ParamStore()
    p = store.add("w", np.array([4.0]))
    cfg = TrainConfig(weight_decay=0.5)
    adamw_step(store, lr=0.1, config=cfg, t=1)
    assert p.value[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5))


def test_cosine_lr_schedule():
    assert cosine_lr(0, 40, 1e-3) == pytest.approx(1e-3)
    assert cosine_lr(20, 40, 1e-3) == pytest.approx(5e-4)
    assert cosine_lr(40, 40, 1e-3) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ValueError):
        cosine_lr(1, 0, 1e-3)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    for field, bad in [("lr0", np.nan), ("lr0", np.inf), ("beta1", 1.0),
                       ("beta1", -1.0), ("beta2", 1.0), ("eps", 0.0),
                       ("eps", np.nan), ("weight_decay", np.inf),
                       ("weight_decay", -0.01)]:
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got "):
            TrainConfig(**{field: bad})
    with pytest.raises(ValueError):
        TrainConfig(patience=50, max_epochs=40)
