import numpy as np
import pytest

from dsfnet.attention import (DsfConfig, DsfModule, channel_contribution,
                              dsf_param_count, soft_threshold,
                              soft_threshold_subgradient)
from dsfnet.nn import ParamStore, softmax_xent
from dsfnet.seeding import rng_for

from conftest import finite_diff_max_rel_error


def make_module(variant="dsfm", C=3, C_prime=3, seed=0, tau=0.1):
    cfg = DsfConfig(variant=variant, n_channels=C, n_virtual=C_prime, tau=tau)
    store = ParamStore()
    module = DsfModule(cfg, store, rng_for(seed, 0))
    return cfg, store, module


def test_config_validation_and_defaults():
    cfg = DsfConfig(variant="dsfd", n_channels=4, n_virtual=4)
    assert cfg.summary_kind == "log_variance"
    assert cfg.hidden_size == 16
    assert cfg.summary_length == 4
    assert not cfg.thresholded
    cfg = DsfConfig(variant="dsfm_st", n_channels=6, n_virtual=2)
    assert cfg.summary_kind == "logm_covariance"
    assert cfg.summary_length == 21
    assert cfg.thresholded
    with pytest.raises(ValueError):
        DsfConfig(variant="nope")
    with pytest.raises(ValueError):
        DsfConfig(n_virtual=0)
    with pytest.raises(ValueError):
        DsfConfig(tau=-0.1)
    for field in ("n_channels", "n_virtual", "tau"):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            DsfConfig(**{field: float("nan")})
    with pytest.raises(ValueError, match="^tau must be >= 0"):
        soft_threshold(np.ones((2, 2)), float("nan"))


def test_param_count_formula():
    # Hand-expanded: fc1 has (d+1)h weights+biases, fc2 (h+1)*C'(C+1).
    cfg = DsfConfig(variant="dsfd", n_channels=4, n_virtual=4)
    _, store, _ = make_module("dsfd", C=4, C_prime=4)
    assert dsf_param_count(cfg) == store.n_parameters()
    cfg6 = DsfConfig(variant="dsfm", n_channels=6, n_virtual=6)
    _, store6, _ = make_module("dsfm", C=6, C_prime=6)
    assert dsf_param_count(cfg6) == store6.n_parameters()


def test_soft_threshold_values():
    W = np.array([-0.5, -0.1, 0.0, 0.05, 0.3])
    out = soft_threshold(W, 0.1)
    np.testing.assert_allclose(out, [-0.4, 0.0, 0.0, 0.0, 0.2],
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(soft_threshold(W, 0.0), W)
    with pytest.raises(ValueError):
        soft_threshold(W, -1.0)


def test_soft_threshold_subgradient():
    W = np.array([-0.5, -0.1, 0.0, 0.05, 0.3])
    np.testing.assert_array_equal(soft_threshold_subgradient(W, 0.1),
                                  [1.0, 0.0, 0.0, 0.0, 1.0])


def test_channel_contribution_oracle():
    W = np.array([[3.0, 0.0], [4.0, 1.0]])
    np.testing.assert_allclose(channel_contribution(W), [5.0, 1.0])
    # A zeroed column means the channel feeds nothing.
    W[:, 0] = 0.0
    assert channel_contribution(W)[0] == 0.0


def test_channel_contribution_stack_equals_per_matrix(rng):
    W = rng.normal(size=(5, 3, 4))
    phi = channel_contribution(W)
    assert phi.shape == (5, 4)
    assert np.array_equal(phi, np.stack([channel_contribution(w) for w in W]))


def test_forward_applies_returned_filters(rng):
    _, store, module = make_module("dsfm_st", C=4, C_prime=3)
    X = rng.normal(size=(2, 4, 200))
    Y = module.forward(X, store)
    W, b = module._W, module._b
    assert W.shape == (2, 3, 4) and b.shape == (2, 3)
    for i in range(2):
        np.testing.assert_allclose(Y[i], W[i] @ X[i] + b[i][:, None],
                                   rtol=1e-12, atol=1e-12)


def test_thresholded_variant_with_zero_tau_matches_plain(rng):
    X = rng.normal(size=(2, 3, 150))
    _, store_st, module_st = make_module("dsfm_st", tau=0.0, seed=5)
    _, store_m, module_m = make_module("dsfm", seed=5)
    np.testing.assert_allclose(module_st.forward(X, store_st),
                               module_m.forward(X, store_m),
                               rtol=0, atol=1e-14)


def test_thresholding_sparsifies_filters(rng):
    X = rng.normal(size=(5, 6, 200))
    _, store, module = make_module("dsfm_st", C=6, C_prime=6, tau=10.0)
    module.forward(X, store)
    # A huge threshold zeroes every filter weight.
    assert np.all(module._W == 0.0)


def test_batch_forward_matches_per_window(rng):
    _, store, module = make_module("dsfd", C=4, C_prime=4)
    X = rng.normal(size=(3, 4, 120))
    Y = module.forward(X, store)
    for i in range(3):
        np.testing.assert_allclose(Y[i], module.forward(X[i:i + 1], store)[0],
                                   rtol=1e-12, atol=1e-12)


def test_filters_depend_on_window_statistics(rng):
    # Scaling one channel changes the summary and therefore the filters.
    _, store, module = make_module("dsfm", C=3, C_prime=3)
    X = rng.normal(size=(1, 3, 300))
    module.forward(X, store)
    W1 = module._W.copy()
    X2 = X.copy()
    X2[0, 0] *= 10.0
    module.forward(X2, store)
    assert np.max(np.abs(W1 - module._W)) > 1e-6


def test_no_gradient_through_summary(rng):
    # dX must equal W^T dY exactly: the summary path is detached.
    _, store, module = make_module("dsfm", C=3, C_prime=2)
    X = rng.normal(size=(2, 3, 100))
    module.forward(X, store)
    dY = rng.normal(size=(2, 2, 100))
    dX = module.backward(dY, store)
    expected = np.einsum("bvc,bvt->bct", module._W, dY)
    np.testing.assert_allclose(dX, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ["dsfd", "dsfm", "dsfm_st"])
def test_end_to_end_gradients(variant):
    rng = np.random.default_rng(3)
    _, store, module = make_module(variant, C=3, C_prime=2, seed=3)
    X = rng.normal(size=(2, 3, 60))
    cost = rng.normal(size=(2, 2, 60))

    def loss_fn(no_grad=False):
        Y = module.forward(X, store)
        loss = float((cost * Y).sum())
        if not no_grad:
            module.backward(cost, store)
        return loss

    assert finite_diff_max_rel_error(store, loss_fn) < 1e-4


def test_gradients_through_classifier_loss():
    # DSF under a real cross-entropy head rather than a synthetic cost.
    rng = np.random.default_rng(9)
    _, store, module = make_module("dsfm_st", C=3, C_prime=3, seed=9)
    from dsfnet.nn import Dense, Flatten
    flat = Flatten()
    head = Dense("head", 3 * 40, 2, store, rng)
    X = rng.normal(size=(4, 3, 40))
    y = np.array([0, 1, 1, 0])
    w = np.ones(2)

    def loss_fn(no_grad=False):
        out = head.forward(flat.forward(module.forward(X, store), store), store)
        loss, dlogits = softmax_xent(out, y, w)
        if not no_grad:
            module.backward(flat.backward(head.backward(dlogits, store), store),
                            store)
        return loss

    assert finite_diff_max_rel_error(store, loss_fn) < 1e-4

