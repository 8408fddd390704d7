import numpy as np
import pytest

from dsfnet.harness import DeepModel, train_deep_model
from dsfnet.interp import INTERP_KINDS, InterpModule, dynamic_omega
from dsfnet.nn import ParamStore, ShallowNetConfig, TrainConfig
from dsfnet.seeding import rng_for
from dsfnet.synth import SynthConfig, generate_dataset, split_dataset

from conftest import finite_diff_max_rel_error


def make_module(kind, C=3, seed=0):
    store = ParamStore()
    module = InterpModule(kind, C, store, rng_for(seed, 0))
    return store, module


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_module("nope")


def test_dynamic_omega_equivalence(rng):
    # Omega X must equal diag(alpha) X + (I - diag(alpha)) W X elementwise.
    for _ in range(20):
        C = int(rng.integers(2, 8))
        alpha = rng.random(C)
        W = rng.normal(size=(C, C))
        np.fill_diagonal(W, 0.0)
        X = rng.normal(size=(C, 50))
        direct = np.diag(alpha) @ X + (np.eye(C) - np.diag(alpha)) @ (W @ X)
        assert np.max(np.abs(dynamic_omega(alpha, W) @ X - direct)) < 1e-12


def test_dynamic_omega_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="zero diagonal"):
        dynamic_omega(np.array([0.5, 0.5]), np.eye(2))


@pytest.mark.parametrize("alpha_width", [1, 4])
def test_stacked_dynamic_omega_equals_per_matrix_calls(alpha_width, rng):
    alpha = rng.random((2, 3, alpha_width))
    W = rng.normal(size=(2, 3, 4, 4)) * (1.0 - np.eye(4))
    omega = dynamic_omega(alpha, W)
    assert omega.shape == (2, 3, 4, 4)
    for i in np.ndindex(2, 3):
        a = np.broadcast_to(alpha[i], (4,))  # a width-1 alpha is shared
        np.testing.assert_array_equal(omega[i], dynamic_omega(a, W[i]))
    W[1, 2, 3, 3] = 1e-300
    with pytest.raises(ValueError, match="zero diagonal"):
        dynamic_omega(alpha, W)


def test_static_init_averages_other_channels(rng):
    store, module = make_module("interp_only", C=4)
    X = rng.normal(size=(2, 4, 30))
    Y = module.forward(X, store)
    for i in range(4):
        others = [j for j in range(4) if j != i]
        np.testing.assert_allclose(Y[:, i], X[:, others].mean(axis=1),
                                   rtol=1e-12, atol=1e-12)


def test_static_w_diagonal_is_masked(rng):
    store, module = make_module("scalar", C=3)
    store[module.w_name].value[...] = rng.normal(size=(3, 3))
    W = module.static_w(store)
    assert np.all(np.diag(W) == 0.0)
    # The masked diagonal gets no gradient, so training leaves it at 0.
    cfg = SynthConfig(n_channels=3, n_times=128, n_recordings=8,
                      windows_per_recording=3)
    ds = split_dataset(generate_dataset(cfg, 0), (0.5, 0.25, 0.25), 0)
    net = ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                           n_spatial_filters=2, pool_width=20, pool_stride=10)
    train = TrainConfig(max_epochs=2, patience=2, t_max=2, batch_size=8)
    for kind in ("interp_only", "scalar", "vector"):
        model = DeepModel(kind, 3, 128, net, seed=1)
        W0 = model.store["interp.W"].value.copy()
        train_deep_model(model, ds, train, "augmentation", seed=1)
        W = model.store["interp.W"].value
        assert np.all(np.diag(W) == 0.0) and not np.array_equal(W, W0)


def test_scalar_and_vector_forward_oracle(rng):
    for kind in ("scalar", "vector"):
        store, module = make_module(kind, C=3, seed=4)
        X = rng.normal(size=(2, 3, 80))
        Y = module.forward(X, store)
        alpha = module._alpha
        assert alpha.shape == ((2, 1) if kind == "scalar" else (2, 3))
        assert np.all((alpha > 0) & (alpha < 1))
        W = module.static_w(store)
        for b in range(2):
            a = alpha[b][:, None]
            ref = a * X[b] + (1.0 - a) * (W @ X[b])
            np.testing.assert_allclose(Y[b], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", INTERP_KINDS)
def test_forward_matches_omega_product(kind, rng):
    store, module = make_module(kind, C=3, seed=4)
    X = rng.normal(size=(2, 3, 80))
    Y = module.forward(X, store)
    W_X = np.broadcast_to(module._W_X, (2, 3, 3))
    for b in range(2):
        omega = dynamic_omega(module._alpha[b], W_X[b])
        np.testing.assert_allclose(Y[b], omega @ X[b], rtol=1e-12, atol=1e-12)


def test_alpha_one_recovers_input():
    # With the attention saturated at 1 the module passes X through.
    store, module = make_module("vector", C=3, seed=0)
    store["interp.fc2.W"].value[...] = 0.0
    store["interp.fc2.b"].value[...] = 50.0  # sigmoid(50) ~ 1
    X = np.random.default_rng(1).normal(size=(2, 3, 40))
    np.testing.assert_allclose(module.forward(X, store), X, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", INTERP_KINDS)
def test_gradients_finite_difference(kind):
    rng = np.random.default_rng(11)
    store, module = make_module(kind, C=3, seed=11)
    X = rng.normal(size=(2, 3, 60))
    cost = rng.normal(size=(2, 3, 60))

    def loss_fn(no_grad=False):
        Y = module.forward(X, store)
        loss = float((cost * Y).sum())
        if not no_grad:
            module.backward(cost, store)
        return loss

    assert finite_diff_max_rel_error(store, loss_fn) < 1e-4


@pytest.mark.parametrize("kind", ["interp_only", "scalar", "vector"])
def test_static_w_gradient_skips_diagonal(kind, rng):
    store, module = make_module(kind, C=3, seed=2)
    X = rng.normal(size=(2, 3, 50))
    Y = module.forward(X, store)
    module.backward(np.ones_like(Y), store)
    assert np.all(np.diag(store[module.w_name].grad) == 0.0)


def test_input_gradient_finite_difference():
    rng = np.random.default_rng(5)
    store, module = make_module("interp_only", C=3, seed=5)
    X = rng.normal(size=(1, 3, 20))
    cost = rng.normal(size=(1, 3, 20))
    module.forward(X, store)
    dX = module.backward(cost, store)
    h = 1e-6
    for c in range(3):
        for t in range(0, 20, 7):
            Xp = X.copy()
            Xp[0, c, t] += h
            Xm = X.copy()
            Xm[0, c, t] -= h
            fd = ((cost * module.forward(Xp, store)).sum()
                  - (cost * module.forward(Xm, store)).sum()) / (2 * h)
            assert dX[0, c, t] == pytest.approx(fd, abs=1e-6)
