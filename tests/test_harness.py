import copy
import csv
import multiprocessing as mp
import pickle
import platform
import resource
import tracemalloc
import types
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dsfnet import harness
from dsfnet.attention import channel_contribution
from dsfnet.corruption import CorruptionSpec
from dsfnet.harness import (DEEP_MODELS, RANDOM_MASK, RESULT_HEADER,
                            DeepModel, ExperimentConfig, FeatureModel, Unit,
                            _cell_spec, accuracy, balanced_accuracy, cell_seed,
                            class_weight_vector, compute_metric,
                            corrupt_test_recordings, evaluate_cell,
                            inspect_filters, keep_freed_memory, run_sweep,
                            sweep_units, train_deep_model, train_model_unit)
from dsfnet.nn import Layer, ShallowNetConfig, TrainConfig
from dsfnet.seeding import derive_seed, rng_for
from dsfnet.synth import Dataset, SynthConfig, generate_dataset, split_dataset

TINY_NET = ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                            n_spatial_filters=2, pool_width=20, pool_stride=10)
TINY_TRAIN = TrainConfig(max_epochs=2, patience=2, t_max=2, batch_size=16)
CLEAN = CorruptionSpec(eta_range=(0.0, 0.0))  # an eta-0 cell's spec


def tiny_dataset(seed=0, n_recordings=12):
    cfg = SynthConfig(n_channels=3, n_times=128, n_recordings=n_recordings,
                      windows_per_recording=3)
    return split_dataset(generate_dataset(cfg, seed), (0.5, 0.25, 0.25), seed)


# ---------------------------------------------------------------------------
# Metrics


def brute_force_balanced_accuracy(preds, labels):
    classes = sorted(set(labels.tolist()))
    recalls = []
    for cls in classes:
        tp = sum(1 for p, l in zip(preds, labels) if l == cls and p == cls)
        n = sum(1 for l in labels if l == cls)
        recalls.append(tp / n)
    return sum(recalls) / len(recalls)


def test_balanced_accuracy_against_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        assert balanced_accuracy(preds, labels) == pytest.approx(
            brute_force_balanced_accuracy(preds, labels), rel=1e-12)


def test_balanced_accuracy_known_case():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 0, 1, 0])  # recalls 1.0 and 0.5
    assert balanced_accuracy(preds, labels) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        balanced_accuracy(np.array([]), np.array([]))


def test_accuracy_and_dispatch():
    preds = np.array([0, 1, 1])
    labels = np.array([0, 1, 0])
    assert accuracy(preds, labels) == pytest.approx(2 / 3)
    assert compute_metric("accuracy", preds, labels) == accuracy(preds, labels)
    assert compute_metric("balanced_accuracy", preds, labels) == \
        balanced_accuracy(preds, labels)
    with pytest.raises(ValueError):
        compute_metric("nope", preds, labels)
    with pytest.raises(ValueError, match="^no examples to score$"):
        accuracy(np.array([]), np.array([]))


@pytest.mark.parametrize("metric", [accuracy, balanced_accuracy])
@pytest.mark.parametrize("preds,labels", [
    ([1], [0, 1, 1]),  # accuracy broadcast the one prediction: 0.667
    ([0, 1], [0, 1, 1]),  # accuracy raised numpy's broadcast error
    ([0, 1, 1], [0, 1]),  # balanced_accuracy raised an IndexError
])
def test_metrics_reject_mismatched_lengths(metric, preds, labels):
    with pytest.raises(ValueError, match=f"^{len(preds)} predictions for "
                       f"{len(labels)} labels$"):
        metric(np.array(preds), np.array(labels))


def test_class_weight_vector():
    y = np.array([0, 0, 0, 1])
    w = class_weight_vector(y, 2)
    # Inverse frequency: minority class weighted up, per-sample mean 1.
    assert w[y].mean() == pytest.approx(1.0)
    assert w[1] / w[0] == pytest.approx(3.0)
    w3 = class_weight_vector(np.array([0, 0, 2]), 3)
    assert w3[1] == 0.0  # absent class


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(models=[("nope", "none")])
    with pytest.raises(ValueError):
        ExperimentConfig(models=[("vanilla", "sometimes")])
    with pytest.raises(ValueError):
        ExperimentConfig(models=[("vanilla", "none")], eta_grid=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(models=[("vanilla", "none")], metric="f1")
    for field, repeated in [("models", [("dsfd", "none")] * 2),
                            ("eta_grid", (0.5, 1.0, 0.5)),
                            ("count_grid", (1, 1)),
                            ("c_prime_grid", (2, 2))]:
        with pytest.raises(ValueError, match=f"^{field} repeats an entry"):
            ExperimentConfig(**{"models": [("dsfd", "none")],
                                field: repeated})


@pytest.mark.parametrize("field,value", [
    ("n_seeds", float("nan")), ("count_grid", (float("nan"),)),
    ("c_prime_grid", (float("nan"),)),
])
def test_experiment_config_rejects_nan_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        ExperimentConfig(**{field: value})


# ---------------------------------------------------------------------------
# Deep models


@pytest.mark.parametrize("name,c_prime", [("vanilla", None), ("dsfd", None),
                                          ("dsfm_st", 2), ("vector", None)])
def test_deep_model_forward_shapes(name, c_prime):
    model = DeepModel(name, 3, 128, TINY_NET, seed=0, c_prime=c_prime)
    X = np.random.default_rng(0).normal(size=(4, 3, 128))
    out = model.forward(X)
    assert out.shape == (4, 2)
    probs = model.predict_proba(X)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
    if name == "dsfm_st":
        assert model.c_prime == 2
    elif name == "vanilla":
        assert model.c_prime == 0


def test_deep_model_rejects_zero_virtual_channels():
    # c_prime=0 used to build C' = C silently.
    with pytest.raises(ValueError, match="^n_virtual must be >= 1, got 0$"):
        DeepModel("dsfm_st", 3, 128, TINY_NET, seed=0, c_prime=0)


def test_deep_model_rejects_feature_names():
    with pytest.raises(ValueError):
        DeepModel("riemann", 3, 128, TINY_NET, seed=0)


def test_predict_recording_rejects_non_finite_logits():
    model = DeepModel("dsfd", 3, 128, TINY_NET, seed=0)
    model.forward = lambda X: np.full((len(X), 2), np.inf)
    with pytest.raises(ValueError, match="^dsfd: logits contain non-finite"):
        model.predict_recording(np.zeros((3, 3, 128)))


def test_predict_recording_tie_goes_to_lowest_class():
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=0)
    model.predict_proba = lambda X: np.full((len(X), 2), 0.5)
    assert model.predict_recording(np.zeros((3, 3, 128))) == 0
    with pytest.raises(ValueError):
        model.predict_recording(np.zeros((0, 3, 128)))


@pytest.mark.parametrize("name", ["vanilla", "dsfm_st", "interp_only",
                                  "scalar", "vector", "dynamic"])
def test_pickled_model_carries_no_forward_caches(name):
    ds = tiny_dataset()
    model = DeepModel(name, 3, 128, TINY_NET, seed=0)
    train_deep_model(model, ds, TINY_TRAIN, "none", seed=0)
    X, _ = ds.windows_and_labels("test")
    probs = model.predict_proba(X)  # releases this batch's activations
    blob = pickle.dumps(model)
    assert len(blob) <= len(pickle.dumps(model.store)) + 64 * 1024
    np.testing.assert_array_equal(pickle.loads(blob).predict_proba(X), probs)


def layers_of(layer):
    """The layer and every layer it holds, through lists and mlps alike."""
    yield layer
    for value in vars(layer).values():
        for child in value if isinstance(value, list) else (value,):
            if isinstance(child, Layer):
                yield from layers_of(child)


def cached_arrays(model):
    return [f"{type(layer).__name__}.{name}"
            for layer in layers_of(model.chain)
            for name, value in vars(layer).items()
            if name.startswith("_") and isinstance(value, np.ndarray)]


@pytest.mark.parametrize("name", ["vanilla", "dsfm_st", "vector", "dynamic"])
def test_no_layer_keeps_activations_past_a_pass(name):
    cfg = ExperimentConfig(models=[(name, "none")], train=TINY_TRAIN,
                           net=TINY_NET)
    ds = tiny_dataset()
    model, _ = train_model_unit(cfg, ds, name, "none", seed=0)
    assert cached_arrays(model) == []
    X, _ = ds.windows_and_labels("test")
    model.predict_proba(X)
    assert cached_arrays(model) == []
    evaluate_cell(model, ds.split("test"), _cell_spec(cfg, 1.0, RANDOM_MASK),
                  0, "balanced_accuracy")
    assert cached_arrays(model) == []
    # A bare eval-mode forward still keeps what a backward reads, and that
    # backward releases each layer once it has read it.
    model.forward(X)
    assert "TemporalConv._xf" in cached_arrays(model)
    model.backward(np.ones((len(X), 2)))
    assert cached_arrays(model) == []


@pytest.mark.parametrize("name", ["vanilla", "dsfm_st", "dynamic",
                                  "interp_only"])
def test_backward_skips_only_the_unread_input_gradient(name):
    model = DeepModel(name, 3, 128, TINY_NET, seed=0)
    X = np.random.default_rng(0).normal(size=(4, 3, 128))
    dlogits = np.random.default_rng(1).normal(size=(4, 2))
    full = copy.deepcopy(model)
    (full.front or full.net.layers[0]).input_grad = True

    model.forward(X)
    model.backward(dlogits)
    # The chain with every input gradient computed, the first layer's too.
    full.forward(X)
    dX = full.net.backward(dlogits, full.store)
    if full.front is not None:
        dX = full.front.backward(dX, full.store)
    assert dX.shape == X.shape
    for n in model.store.names():
        assert np.any(model.store[n].grad != 0.0), n
        np.testing.assert_allclose(model.store[n].grad, full.store[n].grad,
                                   rtol=1e-12, err_msg=n)


def model_as_built_or_reloaded(name, reload):
    model = DeepModel(name, 3, 128, TINY_NET, seed=0)
    return pickle.loads(pickle.dumps(model)) if reload else model


@pytest.mark.parametrize("reload", [False, True], ids=["built", "pickled"])
def test_vanilla_backward_makes_one_inverse_fft(monkeypatch, reload):
    model = model_as_built_or_reloaded("vanilla", reload)
    model.forward(np.random.default_rng(0).normal(size=(4, 3, 128)))
    irfft, calls = np.fft.irfft, []

    def counting_irfft(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)
    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    model.backward(np.ones((4, 2)))
    assert len(calls) == 1  # the kernel gradient dK; no input gradient


@pytest.mark.parametrize("reload", [False, True], ids=["built", "pickled"])
@pytest.mark.parametrize("name", ["dsfm_st", "dynamic", "interp_only"])
def test_front_end_returns_no_input_gradient(name, reload):
    model = model_as_built_or_reloaded(name, reload)
    Y = model.front.forward(np.random.default_rng(0).normal(size=(4, 3, 128)),
                            model.store)
    assert model.front.backward(np.ones_like(Y), model.store) is None


def test_training_is_deterministic_and_patience_zero_stops_after_one_epoch():
    ds = tiny_dataset()
    cfg = TrainConfig(max_epochs=5, patience=0, t_max=5, batch_size=16)
    model_a = DeepModel("vanilla", 3, 128, TINY_NET, seed=1)
    log_a = train_deep_model(model_a, ds, cfg, "none", seed=1)
    assert len(log_a.train_losses) == 1  # stopped immediately
    model_b = DeepModel("vanilla", 3, 128, TINY_NET, seed=1)
    log_b = train_deep_model(model_b, ds, cfg, "none", seed=1)
    assert log_a.train_losses == log_b.train_losses
    for name in model_a.store.names():
        np.testing.assert_array_equal(model_a.store[name].value,
                                      model_b.store[name].value)


def test_training_with_augmentation_differs_from_without():
    ds = tiny_dataset()
    a = DeepModel("vanilla", 3, 128, TINY_NET, seed=2)
    train_deep_model(a, ds, TINY_TRAIN, "none", seed=2)
    b = DeepModel("vanilla", 3, 128, TINY_NET, seed=2)
    train_deep_model(b, ds, TINY_TRAIN, "augmentation", seed=2)
    diffs = [np.max(np.abs(a.store[n].value - b.store[n].value))
             for n in a.store.names()]
    assert max(diffs) > 0


def test_interp_model_keeps_zero_diagonal_after_training():
    ds = tiny_dataset()
    model = DeepModel("scalar", 3, 128, TINY_NET, seed=3)
    train_deep_model(model, ds, TINY_TRAIN, "none", seed=3)
    W = model.store["interp.W"].value
    assert np.all(np.diag(W) == 0.0)


def test_early_stopping_restores_best_parameters():
    ds = tiny_dataset()
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=4)
    log = train_deep_model(model, ds,
                           TrainConfig(max_epochs=4, patience=4, t_max=4,
                                       batch_size=16),
                           "none", seed=4)
    assert log.best_epoch == int(np.argmin(log.valid_losses))


def test_early_stopping_restores_the_best_epochs_values_exactly():
    # At seed 6 the first epoch has the lowest validation loss, so four
    # epochs must end on the parameters that one epoch leaves.
    ds = tiny_dataset()
    params = []
    for max_epochs in (4, 1):
        model = DeepModel("vanilla", 3, 128, TINY_NET, seed=6)
        log = train_deep_model(model, ds,
                               TrainConfig(max_epochs=max_epochs, patience=1,
                                           t_max=4, batch_size=16),
                               "none", seed=6)
        assert log.best_epoch == 0
        params.append([model.store[n].value for n in model.store.names()])
    assert len(log.valid_losses) == 1
    for got, want in zip(*params):
        np.testing.assert_array_equal(got, want)


def test_training_never_copies_a_split(monkeypatch):
    def copy_of_split(self, tag):
        raise AssertionError(f"copied the {tag!r} split")
    monkeypatch.setattr(Dataset, "windows_and_labels", copy_of_split)
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=1)
    log = train_deep_model(model, tiny_dataset(), TINY_TRAIN, "none", seed=1)
    assert len(log.train_losses) == TINY_TRAIN.max_epochs


def test_training_without_a_validation_split_names_it():
    ds = tiny_dataset()
    ds = Dataset(config=ds.config, recordings=ds.recordings,
                 splits={i: t for i, t in ds.splits.items() if t != "valid"})
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=1)
    with pytest.raises(ValueError, match="split 'valid' is empty"):
        train_deep_model(model, ds, TINY_TRAIN, "none", seed=1)


def test_training_batches_are_the_split_rows_in_batch_order():
    # 18 train windows at batch size 16: a full and a partial batch.
    ds = tiny_dataset()
    X_train, _ = ds.windows_and_labels("train")
    X_valid, _ = ds.windows_and_labels("valid")
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=5)
    forward = model.forward
    seen = []

    def spy(X, train=False, rng=None):
        seen.append((train, X.shape, X.tobytes()))
        return forward(X, train=train, rng=rng)
    model.forward = spy
    log = train_deep_model(model, ds, TINY_TRAIN, "none", seed=5)
    bs = TINY_TRAIN.batch_size
    want = []
    for epoch in range(len(log.train_losses)):
        order = rng_for(5, 1, epoch).permutation(len(X_train))
        for rows in (order[s:s + bs] for s in range(0, len(X_train), bs)):
            want.append((True, X_train[rows].shape, X_train[rows].tobytes()))
        for s in range(0, len(X_valid), bs):
            rows = X_valid[s:s + bs]
            want.append((False, rows.shape, rows.tobytes()))
    assert seen == want


def test_training_peak_memory_stays_below_the_train_split():
    cfg = SynthConfig(n_channels=3, n_times=128, n_recordings=40,
                      windows_per_recording=10)
    ds = split_dataset(generate_dataset(cfg, 0), (0.6, 0.2, 0.2), 0)
    X_train, _ = ds.windows_and_labels("train")
    assert len(X_train) == 240
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=1)
    tracemalloc.start()
    try:
        train_deep_model(model, ds, TrainConfig(max_epochs=1, patience=1,
                                                t_max=1, batch_size=4),
                         "none", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X_train.nbytes


# ---------------------------------------------------------------------------
# Feature models, cells and the sweep


def test_feature_model_fit_predict():
    ds = tiny_dataset()
    model = FeatureModel("handcrafted", 100.0, 2, seed=0)
    model.fit(ds, "none")
    preds = [model.predict_recording(rec.windows) for rec in ds.split("test")]
    assert all(p in (0, 1) for p in preds)
    with pytest.raises(ValueError):
        FeatureModel("vanilla", 100.0, 2, seed=0)


@pytest.mark.parametrize("name", ["riemann", "handcrafted", "vanilla"])
def test_predict_recording_rejects_zero_windows(name):
    if name == "vanilla":
        model = DeepModel(name, 3, 128, TINY_NET, seed=0)
    else:
        model = FeatureModel(name, 100.0, 2, seed=0).fit(tiny_dataset(),
                                                         "none")
    with pytest.raises(ValueError, match="recording has no windows"):
        model.predict_recording(np.zeros((0, 3, 128)))


def test_cell_spec():
    cfg = ExperimentConfig(models=[("vanilla", "none")], mask_p=0.4)
    spec = _cell_spec(cfg, 0.5, RANDOM_MASK)
    assert spec.eta_range == (0.5, 0.5)
    assert spec.scope == "per_recording"
    assert spec.forced_count is None
    assert spec.p == 0.4
    spec = _cell_spec(cfg, 1.0, 2)
    assert spec.forced_count == 2


def test_corrupt_test_recordings_deterministic():
    ds = tiny_dataset()
    spec = CorruptionSpec(eta_range=(1.0, 1.0), scope="per_recording")
    a = corrupt_test_recordings(ds.split("test"), spec, cell_seed=9)
    b = corrupt_test_recordings(ds.split("test"), spec, cell_seed=9)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.windows, rb.windows)


def test_evaluate_cell_eta_zero_skips_corruption():
    ds = tiny_dataset()
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=5)
    spec = CorruptionSpec(eta_range=(0.0, 0.0), scope="per_recording")
    v1 = evaluate_cell(model, ds.split("test"), spec, 1, "balanced_accuracy")
    v2 = evaluate_cell(model, ds.split("test"), spec, 2, "balanced_accuracy")
    assert v1 == v2  # no randomness at eta=0
    assert 0.0 <= v1 <= 1.0


def sweep_config(models, n_seeds=1, eta_grid=(0.0, 1.0),
                 count_grid=(RANDOM_MASK,)):
    return ExperimentConfig(models=models, train=TINY_TRAIN, net=TINY_NET,
                            eta_grid=eta_grid, count_grid=count_grid,
                            n_seeds=n_seeds, master_seed=7)


def test_run_sweep_row_count_and_header(tmp_path):
    ds = tiny_dataset()
    cfg = sweep_config([("vanilla", "none"), ("handcrafted", "none")],
                       n_seeds=2, eta_grid=(0.0, 0.5, 1.0), count_grid=(1, 3))
    out = str(tmp_path / "results.csv")
    rows = run_sweep(cfg, ds, out)
    assert len(rows) == 2 * 2 * 3 * 2  # models x seeds x etas x counts
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join(RESULT_HEADER)
    assert len(lines) == len(rows) + 1


def test_run_sweep_c_prime_grid_expands_dsf_models_only(tmp_path):
    ds = tiny_dataset()
    cfg = sweep_config([("dsfd", "none"), ("vanilla", "none")],
                       eta_grid=(0.0,))
    cfg.c_prime_grid = (2, 3)
    rows = run_sweep(cfg, ds, str(tmp_path / "r.csv"))
    assert len(rows) == 3  # dsfd twice (C'=2,3), vanilla once
    assert sorted(r.c_prime for r in rows if r.model == "dsfd") == [2, 3]


def test_run_sweep_rows_follow_sweep_units(tmp_path):
    # Unit order: model, then C', then replicate k seeded
    # derive_seed(master, 100 + k); every cell of a unit is scored on the
    # test recordings corrupted from cell_seed(unit seed).
    ds = tiny_dataset()
    cfg = sweep_config([("dsfd", "none"), ("handcrafted", "none")], n_seeds=2,
                       eta_grid=(0.5, 1.0), count_grid=(RANDOM_MASK, 1))
    cfg.c_prime_grid = (2, 3)
    seeds = [derive_seed(cfg.master_seed, 100 + k) for k in range(2)]
    units = sweep_units(cfg, ds.config.n_channels)
    assert units == [Unit("dsfd", "none", seeds[0], 2),
                     Unit("dsfd", "none", seeds[1], 2),
                     Unit("dsfd", "none", seeds[0], 3),
                     Unit("dsfd", "none", seeds[1], 3),
                     Unit("handcrafted", "none", seeds[0], 0),
                     Unit("handcrafted", "none", seeds[1], 0)]
    rows = run_sweep(cfg, ds, str(tmp_path / "r.csv"))
    expected = {}
    for unit in units:
        model, _ = train_model_unit(cfg, ds, *unit)
        for eta in cfg.eta_grid:
            for count in cfg.count_grid:
                expected[unit.name, unit.seed, unit.c_prime, eta, count] = \
                    evaluate_cell(model, ds.split("test"),
                                  _cell_spec(cfg, eta, count),
                                  cell_seed(unit.seed), cfg.metric)
    assert {(r.model, r.seed, r.c_prime, r.eta, r.n_corrupted): r.value
            for r in rows} == expected


@pytest.mark.parametrize("name,grid,c_primes", [
    ("dsfd", (), [3]), ("dsfd", (2, 3), [2, 3]), ("vanilla", (2, 3), [0]),
    ("dynamic", (2, 3), [0]), ("riemann", (2, 3), [0])])
def test_unit_c_prime_is_the_csv_c_prime(tmp_path, monkeypatch, name, grid,
                                         c_primes):
    # C' = C is the channel count and no virtual channels is 0, in the
    # unit, in the CSV and on a deep model alike.
    ds = tiny_dataset()
    cfg = sweep_config([(name, "none")], n_seeds=2, eta_grid=(0.0,))
    cfg.c_prime_grid = grid
    units = sweep_units(cfg, ds.config.n_channels)
    assert [unit.c_prime for unit in units] == [c for c in c_primes
                                                for _ in range(2)]
    models = {}

    def spy(cfg, dataset, *unit):
        models[unit] = train_model_unit(cfg, dataset, *unit)[0]
        return models[unit], None
    monkeypatch.setattr(harness, "train_model_unit", spy)
    out = tmp_path / "r.csv"
    run_sweep(cfg, ds, str(out))
    with open(out) as f:
        column = [(int(r["seed"]), int(r["c_prime"]))
                  for r in csv.DictReader(f)]
    assert sorted(column) == sorted((u.seed, u.c_prime) for u in units)
    assert list(models) == units
    if name in DEEP_MODELS:
        assert [m.c_prime for m in models.values()] == [
            u.c_prime for u in units]


def spy_scored_windows(monkeypatch):
    """Record (model, spec, bytes of the test windows it is scored on) for
    every evaluate_cell call the sweep makes."""
    calls = []

    def spy(model, recordings, spec, cell_seed, metric):
        scored = corrupt_test_recordings(recordings, spec, cell_seed)
        calls.append((model, spec,
                      b"".join(rec.windows.tobytes() for rec in scored)))
        return evaluate_cell(model, recordings, spec, cell_seed, metric)

    monkeypatch.setattr(harness, "evaluate_cell", spy)
    return calls


def test_run_sweep_row_depends_only_on_its_own_key(tmp_path, monkeypatch):
    ds = tiny_dataset()
    calls = spy_scored_windows(monkeypatch)
    alone = run_sweep(sweep_config([("riemann", "none")], n_seeds=2),
                      ds, str(tmp_path / "a.csv"))
    n_alone = len(calls)
    # Another unit listed first, and more etas and counts in the grids.
    more = run_sweep(sweep_config([("handcrafted", "none"),
                                   ("riemann", "none")], n_seeds=2,
                                  eta_grid=(0.5, 0.0, 1.0),
                                  count_grid=(1, RANDOM_MASK)),
                     ds, str(tmp_path / "b.csv"))
    by_key = {(r.model, r.seed, r.eta, r.n_corrupted): r for r in more}
    assert [by_key[r.model, r.seed, r.eta, r.n_corrupted]
            for r in alone] == alone
    scored = {(m.kind, m.seed, spec): windows
              for m, spec, windows in calls[n_alone:]}
    for model, spec, windows in calls[:n_alone]:
        assert scored[model.kind, model.seed, spec] == windows


def test_run_sweep_scores_a_replicates_units_on_the_same_recordings(
        tmp_path, monkeypatch):
    ds = tiny_dataset()
    calls = spy_scored_windows(monkeypatch)
    cfg = sweep_config([("vanilla", "none"), ("riemann", "none"),
                        ("handcrafted", "augmentation")],
                       eta_grid=(0.5, 1.0), count_grid=(RANDOM_MASK, 1))
    run_sweep(cfg, ds, str(tmp_path / "r.csv"))
    per_cell = {}
    for _, spec, windows in calls:
        per_cell.setdefault(spec, set()).add(windows)
    assert len(calls) == 3 * 4 and len(per_cell) == 4
    assert all(len(windows) == 1 for windows in per_cell.values())


def test_run_sweep_serial_parallel_identical(tmp_path):
    ds = tiny_dataset()
    cfg = sweep_config([("vanilla", "none")], eta_grid=(0.0, 1.0))
    p1 = str(tmp_path / "serial.csv")
    p2 = str(tmp_path / "parallel.csv")
    run_sweep(cfg, ds, p1, jobs=1)
    run_sweep(cfg, ds, p2, jobs=2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_run_sweep_pool_has_at_most_one_worker_per_unit(tmp_path,
                                                        monkeypatch):
    sizes = []

    class SpyPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SpyPool)
    cfg = sweep_config([("vanilla", "none"), ("riemann", "none")])
    run_sweep(cfg, tiny_dataset(), str(tmp_path / "r.csv"), jobs=8)
    assert sizes == [2]


def _second_round_faults() -> int:
    """Minor page faults of the second of two rounds that each fill and
    free 40 arrays of 2 MiB, 80 MiB in all."""
    def fill_and_free():
        arrays = [np.ones(1 << 18) for _ in range(40)]
        del arrays
    fill_and_free()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fill_and_free()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc parameters")
def test_keep_freed_memory_lets_a_worker_reuse_its_pages():
    # Without the policy glibc trims the 80 MiB it got back (its trim
    # threshold never exceeds 64 MiB), and the second round faults all
    # 20480 pages in again.
    with ProcessPoolExecutor(1, mp_context=mp.get_context("fork"),
                             initializer=keep_freed_memory) as pool:
        faults = pool.submit(_second_round_faults).result(timeout=120)
    assert faults < 1000


def _no_library_by_a_none_name(name):
    raise TypeError("Windows' ctypes needs a library name")


@pytest.mark.parametrize("libc", [lambda name: types.SimpleNamespace(),
                                  _no_library_by_a_none_name])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, libc):
    # A C library with no mallopt (macOS), or no C library to open.
    monkeypatch.setattr(harness.ctypes, "CDLL", libc)
    assert keep_freed_memory() is None


def test_run_sweep_parent_never_pickles_a_model(tmp_path, monkeypatch):
    ds = tiny_dataset()
    cfg = sweep_config([("vanilla", "none"), ("riemann", "none")])
    serial = tmp_path / "serial.csv"
    run_sweep(cfg, ds, str(serial), jobs=1)

    def no_pickling(self):
        raise AssertionError(f"pickled a {type(self).__name__}")
    monkeypatch.setattr(DeepModel, "__getstate__", no_pickling, raising=False)
    monkeypatch.setattr(FeatureModel, "__getstate__", no_pickling,
                        raising=False)
    parallel = tmp_path / "parallel.csv"
    run_sweep(cfg, ds, str(parallel), jobs=2)
    assert parallel.read_bytes() == serial.read_bytes()


def test_run_sweep_worker_error_reaches_caller(tmp_path, monkeypatch):
    def non_finite(*args, **kwargs):
        raise ValueError("logits contain non-finite values")
    monkeypatch.setattr(harness, "softmax_xent", non_finite)
    cfg = sweep_config([("vanilla", "none"), ("riemann", "none")])
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=r"^vanilla \(seed \d+\) epoch 0, "
                       r"training batch 0: logits contain non-finite"):
        run_sweep(cfg, tiny_dataset(), str(out), jobs=2)
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_hands_every_unit_its_inputs_then_clears_them(
        tmp_path, monkeypatch, jobs):
    ds = tiny_dataset()
    cfg = sweep_config([("riemann", "none"), ("handcrafted", "none")])
    run_sweep(cfg, ds, str(tmp_path / "r.csv"), jobs=jobs)
    assert harness._sweep is None

    def report_inputs(*args, **kwargs):
        sweep_cfg, dataset, recordings = harness._sweep
        raise ValueError(f"{len(recordings)} test recordings, "
                         f"{len(sweep_cfg.models)} models")
    monkeypatch.setattr(harness, "train_model_unit", report_inputs)
    with pytest.raises(ValueError, match=f"^{len(ds.split('test'))} test "
                       "recordings, 2 models$"):
        run_sweep(cfg, ds, str(tmp_path / "r.csv"), jobs=jobs)
    assert harness._sweep is None


def test_run_sweep_rejects_count_above_channels_before_training(
        tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a unit")
    monkeypatch.setattr(harness, "train_model_unit", no_training)
    cfg = sweep_config([("vanilla", "none")], count_grid=(RANDOM_MASK, 4))
    with pytest.raises(ValueError, match=r"^count_grid must be in \[-1, 3\] "
                       r"\(the dataset has 3 channels\), got 4$"):
        run_sweep(cfg, tiny_dataset(), str(tmp_path / "r.csv"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_sweep_holds_riemann_to_nyquist_before_training(
        tmp_path, monkeypatch, jobs):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a unit")
    monkeypatch.setattr(harness, "train_model_unit", no_training)

    def dataset(sfreq):
        return split_dataset(generate_dataset(SynthConfig(
            n_channels=3, n_times=128, n_recordings=8,
            windows_per_recording=2, sfreq=sfreq), 0), (0.5, 0.25, 0.25), 0)
    cfg = sweep_config([("vanilla", "none"), ("riemann", "none")])
    with pytest.raises(ValueError, match=r"^sfreq must be >= 98 \(the "
                       r"riemann bands reach 49 Hz\), got 90.0$"):
        run_sweep(cfg, dataset(90.0), str(tmp_path / "r.csv"), jobs=jobs)
    # At twice the top band edge, or without a riemann unit, the sweep
    # reaches training.
    for models, sfreq in (([("riemann", "none")], 98.0),
                          ([("handcrafted", "none")], 90.0)):
        with pytest.raises(AssertionError, match="trained a unit"):
            run_sweep(sweep_config(models), dataset(sfreq),
                      str(tmp_path / "r.csv"))


def test_non_finite_loss_names_model_seed_epoch_and_batch():
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=0)
    model.store["net.out.b"].value[...] = np.nan
    with pytest.raises(ValueError, match=r"^vanilla \(seed 3\) epoch 0, "
                       r"training batch 0: logits contain non-finite") as e:
        train_deep_model(model, tiny_dataset(), TINY_TRAIN, "none", seed=3)
    assert "non-finite" in str(e.value.__cause__)


def test_run_sweep_requires_test_split(tmp_path):
    ds = generate_dataset(SynthConfig(n_channels=3, n_times=128,
                                      n_recordings=4,
                                      windows_per_recording=2), 0)
    cfg = sweep_config([("vanilla", "none")])
    with pytest.raises(ValueError, match="test split"):
        run_sweep(cfg, ds, str(tmp_path / "r.csv"))


def test_train_model_unit_dispatch():
    ds = tiny_dataset()
    cfg = sweep_config([("vanilla", "none")])
    model, log = train_model_unit(cfg, ds, "vanilla", "none", seed=1)
    assert isinstance(model, DeepModel) and log is not None
    model, log = train_model_unit(cfg, ds, "handcrafted", "none", seed=1)
    assert isinstance(model, FeatureModel) and log is None


@pytest.mark.parametrize("name", ["vanilla", "riemann"])
def test_train_model_unit_sets_the_malloc_policy_once(monkeypatch, name):
    calls = []
    monkeypatch.setattr(harness, "keep_freed_memory",
                        lambda: calls.append(name))
    train_model_unit(sweep_config([(name, "none")]), tiny_dataset(), name,
                     "none", seed=1)
    assert calls == [name]


# ---------------------------------------------------------------------------
# Filter inspection


def test_inspect_filters(tmp_path):
    ds = tiny_dataset()
    model = DeepModel("dsfm_st", 3, 128, TINY_NET, seed=6)
    dump = str(tmp_path / "filters.csv")
    (W, b, phi), summary = inspect_filters(model, ds.split("test"), CLEAN,
                                           cell_seed(0), dump_path=dump)
    n_windows = sum(len(r.windows) for r in ds.split("test"))
    assert W.shape == (n_windows, 3, 3) and b.shape == (n_windows, 3)
    np.testing.assert_allclose(phi, np.linalg.norm(W, axis=1), rtol=1e-12)
    assert set(summary) == {0, 1, 2}
    for q25, med, q75 in summary.values():
        assert q25 <= med <= q75
    lines = open(dump).read().splitlines()
    assert [int(line.split(",")[0]) for line in lines] == list(range(n_windows))
    values = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines])
    assert np.array_equal(values, np.concatenate(
        [W.reshape(n_windows, -1), b, phi], axis=1))


def test_inspect_filters_rows_equal_per_recording_filters():
    ds = tiny_dataset()
    model = DeepModel("dsfm_st", 3, 128, TINY_NET, seed=6)
    recs = ds.split("test")
    (W, b, phi), _ = inspect_filters(model, recs, CLEAN, cell_seed(0))
    module = model.front
    per_rec = [module.filters_from_summary(module.summaries(r.windows),
                                           model.store) for r in recs]
    W_rec = np.concatenate([w for w, _ in per_rec])
    assert np.array_equal(W, W_rec)
    assert np.array_equal(b, np.concatenate([bias for _, bias in per_rec]))
    assert np.array_equal(phi, channel_contribution(W_rec))


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("count", [RANDOM_MASK, 1])
def test_inspect_filters_sees_the_windows_evaluate_cell_scores(monkeypatch,
                                                               eta, count):
    ds = tiny_dataset()
    model = DeepModel("dsfm_st", 3, 128, TINY_NET, seed=6)
    spec = _cell_spec(ExperimentConfig(models=[]), eta, count)
    scored = []
    monkeypatch.setattr(model, "predict_recording",
                        lambda windows: scored.append(windows) or 0)
    evaluate_cell(model, ds.split("test"), spec, 7, "accuracy")
    (W, b, _), _ = inspect_filters(model, ds.split("test"), spec, 7)
    module = model.front
    W_scored, b_scored = module.filters_from_summary(
        module.summaries(np.concatenate(scored)), model.store)
    assert np.array_equal(W, W_scored) and np.array_equal(b, b_scored)


def test_inspect_filters_rejects_non_dsf():
    model = DeepModel("vanilla", 3, 128, TINY_NET, seed=0)
    with pytest.raises(ValueError, match="DSF"):
        inspect_filters(model, [], CLEAN, cell_seed(0))
