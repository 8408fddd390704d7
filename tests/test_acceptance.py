"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS` line with the measured numbers
(visible with `pytest -s` or on failure). The expensive robustness-trend
fixture trains two model units over three seeds once and is shared by
criteria 7 and 8.
"""

import time

import numpy as np
import pytest

from dsfnet.attention import DsfConfig, DsfModule, dsf_param_count
from dsfnet.corruption import (CorruptionSpec, corrupt_window,
                               corruption_fraction)
from dsfnet.harness import (DeepModel, ExperimentConfig, _cell_spec,
                            balanced_accuracy, cell_seed, evaluate_cell,
                            inspect_filters, train_deep_model)
from dsfnet.interp import INTERP_KINDS, InterpModule, dynamic_omega
from dsfnet.linalg import matrix_exp_eig, matrix_log_eig
from dsfnet.nn import (AvgPool, Dense, Flatten, ParamStore, ShallowNetConfig,
                       Sigmoid, SpatialConv, Square, TemporalConv,
                       TrainConfig)
from dsfnet.seeding import derive_seed, rng_for
from dsfnet.synth import SynthConfig, generate_dataset, split_dataset

from conftest import finite_diff_max_rel_error


# ---------------------------------------------------------------------------
# Criterion 1: gradient integrity


def _layer_cases(store, rng):
    return [
        (Dense("fc", 3, 2, store, rng), (3, 3)),
        (TemporalConv("tc", 2, 3, store, rng), (2, 2, 8)),
        (SpatialConv("sc", 3, 2, store, rng), (2, 3, 5)),
        (Square(), (2, 3, 4)),
        (AvgPool(3, 2), (2, 2, 7)),
        (Sigmoid(), (3, 4)),
        (Flatten(), (2, 3, 4)),
    ]


def _check_store(store, forward, backward):
    def loss_fn(no_grad=False):
        y, cost = forward()
        loss = float((cost * y).sum())
        if not no_grad:
            backward(cost)
        return loss

    return finite_diff_max_rel_error(store, loss_fn)


def test_criterion_01_gradient_integrity():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # Every layer type.
        store = ParamStore()
        for layer, shape in _layer_cases(store, rng):
            x = rng.normal(size=shape)
            cost = rng.normal(size=layer.forward(x, store).shape)
            worst = max(worst, _check_store(
                store, lambda: (layer.forward(x, store), cost),
                lambda c: layer.backward(c, store)))
        # DSF generator end-to-end, all variants.
        for variant in ("dsfd", "dsfm", "dsfm_st"):
            store = ParamStore()
            cfg = DsfConfig(variant=variant, n_channels=3, n_virtual=2)
            module = DsfModule(cfg, store, rng_for(seed, 1))
            X = rng.normal(size=(2, 3, 40))
            cost = rng.normal(size=(2, 2, 40))
            worst = max(worst, _check_store(
                store, lambda: (module.forward(X, store), cost),
                lambda c: module.backward(c, store)))
        # Interpolation ladder.
        for kind in INTERP_KINDS:
            store = ParamStore()
            module = InterpModule(kind, 3, store, rng_for(seed, 2))
            X = rng.normal(size=(2, 3, 40))
            cost = rng.normal(size=(2, 3, 40))
            worst = max(worst, _check_store(
                store, lambda: (module.forward(X, store), cost),
                lambda c: module.backward(c, store)))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"max relative gradient error {worst:.3g}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS max rel error {worst:.3g} over 20 seeds "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: matrix-log correctness


def test_criterion_02_matrix_log_round_trip():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        S = rng.normal(size=(6, 6))
        S = (S + S.T) / 2.0
        back = matrix_log_eig(matrix_exp_eig(S))
        worst = max(worst, np.linalg.norm(back - S, "fro")
                    / np.linalg.norm(S, "fro"))
    identity_err = float(np.max(np.abs(matrix_log_eig(np.eye(6)))))
    assert worst < 1e-8, f"round-trip relative error {worst:.3g}"
    assert identity_err <= 1e-12
    print(f"\n[criterion 2] PASS round-trip rel error {worst:.3g}, "
          f"logm(I) max {identity_err:.3g}")


# ---------------------------------------------------------------------------
# Criterion 3: truncated-series matrix-log error curve


def test_criterion_03_taylor_log_study():
    from dsfnet.cli import taylor_error_curve
    start = time.monotonic()
    cfg = SynthConfig(n_recordings=50, windows_per_recording=20)
    ds = generate_dataset(cfg, seed=0)
    windows = list(np.concatenate([r.windows for r in ds.recordings]))
    assert len(windows) == 1000
    curve = taylor_error_curve(windows, [5, 10, 20, 50])
    elapsed = time.monotonic() - start
    medians = [med for _, med, _, _ in curve]
    assert min(medians) < 0.10, f"best median error {min(medians):.3f}"
    assert all(a >= b for a, b in zip(medians, medians[1:])), \
        f"medians not non-increasing: {medians}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    pretty = ", ".join(f"n={n}: {m:.4f}" for (n, m, _, _) in
                       [(c[0], c[1], c[2], c[3]) for c in curve])
    print(f"\n[criterion 3] PASS medians {pretty} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: parameter-count oracle


def test_criterion_04_param_count_oracle():
    small = dsf_param_count(DsfConfig(variant="dsfd", n_channels=4,
                                      n_virtual=4))
    assert small == 420
    big = dsf_param_count(DsfConfig(variant="dsfm", n_channels=6,
                                    n_virtual=6))
    assert 420 <= big <= 2864
    print(f"\n[criterion 4] PASS counts: C=4 DSFd {small}, C=6 DSFm {big}")


# ---------------------------------------------------------------------------
# Criterion 5: augmentation endpoints


def test_criterion_05_augmentation_endpoints():
    rng = np.random.default_rng(1)
    X = rng.normal(0.0, 15.0, size=(4, 3000))
    # eta = 0: bit-identical.
    out = corrupt_window(X, np.ones(4), 0.0, 30.0, rng_for(0, 0))
    assert np.array_equal(out, X)
    # nu = 0: bit-identical.
    out = corrupt_window(X, np.zeros(4), 1.0, 30.0, rng_for(0, 0))
    assert np.array_equal(out, X)
    # nu = 1, eta = 1: independent of X, std within 5% of sigma.
    noise_a = corrupt_window(X, np.ones(4), 1.0, 40.0, rng_for(0, 1))
    noise_b = corrupt_window(np.zeros_like(X), np.ones(4), 1.0, 40.0,
                             rng_for(0, 1))
    assert np.array_equal(noise_a, noise_b)
    stds = noise_a.std(axis=1)
    worst = float(np.max(np.abs(stds - 40.0) / 40.0))
    assert worst < 0.05, f"row std deviates {worst:.3f} from sigma"
    print(f"\n[criterion 5] PASS endpoints exact, full-noise std within "
          f"{worst * 100:.2f}% of sigma")


# ---------------------------------------------------------------------------
# Criterion 6: dynamic-interpolation single-product equivalence


def test_criterion_06_dynamic_interpolation_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        C = int(rng.integers(2, 9))
        alpha = rng.random(C)
        W = rng.normal(size=(C, C))
        np.fill_diagonal(W, 0.0)
        X = rng.normal(size=(C, 64))
        direct = (np.diag(alpha) @ X
                  + (np.eye(C) - np.diag(alpha)) @ (W @ X))
        worst = max(worst, float(np.max(np.abs(
            dynamic_omega(alpha, W) @ X - direct))))
    # And against the trainable dynamic module itself.
    store = ParamStore()
    module = InterpModule("dynamic", 4, store, rng_for(0, 3))
    X = rng.normal(size=(3, 4, 100))
    Y = module.forward(X, store)
    for b in range(3):
        omega = dynamic_omega(module._alpha[b], module._W_X[b])
        worst = max(worst, float(np.max(np.abs(omega @ X[b] - Y[b]))))
    assert worst < 1e-12, f"max deviation {worst:.3g}"
    print(f"\n[criterion 6] PASS max |Omega X - m(X)| = {worst:.3g}")


# ---------------------------------------------------------------------------
# Criteria 7 and 8: robustness trend and channel down-weighting
# (shared trained models)

SEEDS = (11, 21, 31)
TRAIN_CFG = TrainConfig(max_epochs=25, patience=7, t_max=25)
SWEEP_CFG = ExperimentConfig(models=[("vanilla", "none"),
                                     ("dsfm_st", "augmentation")],
                             train=TRAIN_CFG)


@pytest.fixture(scope="module")
def trained_models():
    """{(model, denoise, seed): (DeepModel, dataset, wall seconds)}."""
    cfg = SynthConfig()
    ds = split_dataset(generate_dataset(cfg, seed=0), (0.6, 0.2, 0.2), seed=0)
    out = {}
    start = time.monotonic()
    for name, denoise in SWEEP_CFG.models:
        for seed in SEEDS:
            model = DeepModel(name, cfg.n_channels, cfg.n_times,
                              ShallowNetConfig(), seed)
            train_deep_model(model, ds, TRAIN_CFG, denoise, seed,
                             CorruptionSpec())
            out[(name, denoise, seed)] = model
    return ds, out, time.monotonic() - start


def _cell_score(model, ds, eta, seed):
    spec = _cell_spec(SWEEP_CFG, eta, -1)
    return evaluate_cell(model, ds.split("test"), spec,
                         derive_seed(seed, 9), "balanced_accuracy")


def test_criterion_07_robustness_trend(trained_models):
    ds, models, train_seconds = trained_models
    start = time.monotonic()
    clean_v, clean_d, noisy_v, noisy_d = [], [], [], []
    for seed in SEEDS:
        vanilla = models[("vanilla", "none", seed)]
        dsf = models[("dsfm_st", "augmentation", seed)]
        clean_v.append(_cell_score(vanilla, ds, 0.0, seed))
        clean_d.append(_cell_score(dsf, ds, 0.0, seed))
        noisy_v.append(_cell_score(vanilla, ds, 1.0, seed))
        noisy_d.append(_cell_score(dsf, ds, 1.0, seed))
    elapsed = train_seconds + (time.monotonic() - start)
    clean_gap = np.mean(clean_d) - np.mean(clean_v)
    noisy_gap = np.mean(noisy_d) - np.mean(noisy_v)
    assert clean_gap >= -0.05, \
        f"clean balanced accuracy {np.mean(clean_d):.3f} more than 5 points " \
        f"below vanilla {np.mean(clean_v):.3f}"
    assert noisy_gap >= 0.10, \
        f"eta=1 gap {noisy_gap:.3f} below 10 points " \
        f"(dsf {noisy_d}, vanilla {noisy_v})"
    assert elapsed < 900.0, f"trend run took {elapsed:.0f}s"
    print(f"\n[criterion 7] PASS clean vanilla {np.mean(clean_v):.3f} vs "
          f"dsf {np.mean(clean_d):.3f}; eta=1 vanilla {np.mean(noisy_v):.3f} "
          f"vs dsf {np.mean(noisy_d):.3f} (gap {noisy_gap:.3f}) "
          f"in {elapsed:.0f}s")


def test_criterion_08_corrupted_channel_downweighted(trained_models):
    ds, models, _ = trained_models
    target = 2  # channel forced to full noise
    mask = np.zeros(ds.config.n_channels)
    mask[target] = 1.0
    spec = CorruptionSpec(eta_range=(1.0, 1.0), scope="per_recording",
                          forced_mask=mask)
    hits = 0
    medians = []
    for seed in SEEDS:
        model = models[("dsfm_st", "augmentation", seed)]
        _, clean = inspect_filters(model, ds.split("test"),
                                   CorruptionSpec(eta_range=(0.0, 0.0)),
                                   cell_seed(seed))
        _, noised = inspect_filters(model, ds.split("test"), spec,
                                    cell_seed(seed))
        medians.append((clean[target][1], noised[target][1]))
        if noised[target][1] < clean[target][1]:
            hits += 1
    assert hits >= 2, f"down-weighted in only {hits}/3 seeds: {medians}"
    print(f"\n[criterion 8] PASS corrupted channel {target} median phi "
          f"dropped in {hits}/3 seeds: "
          + ", ".join(f"{c:.3f}->{n:.3f}" for c, n in medians))


# ---------------------------------------------------------------------------
# Criterion 9: corruption detector


def test_criterion_09_corruption_detector():
    cfg = SynthConfig(n_recordings=1, windows_per_recording=10)
    windows = generate_dataset(cfg, seed=3).recordings[0].windows
    rng = np.random.default_rng(4)
    errors = {}
    for k in (0, 1, 3, 6):
        noised = []
        for X in windows:
            Y = X.copy()
            Y[:k] = rng.normal(0.0, 40.0, size=(k, cfg.n_times))
            noised.append(Y)
        frac = corruption_fraction(noised, cfg.sfreq)
        errors[k] = abs(frac - k / cfg.n_channels)
        assert errors[k] <= 0.05, \
            f"k={k}: estimated {frac:.3f}, true {k / cfg.n_channels:.3f}"
    print("\n[criterion 9] PASS detector errors "
          + ", ".join(f"k={k}: {e:.3f}" for k, e in errors.items()))


# ---------------------------------------------------------------------------
# Criterion 10: metric oracle


def test_criterion_10_balanced_accuracy_oracle():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        recalls = []
        for cls in np.unique(labels):
            sel = labels == cls
            recalls.append(np.sum(preds[sel] == cls) / np.sum(sel))
        assert balanced_accuracy(preds, labels) == np.mean(recalls)
    case = balanced_accuracy(np.array([0, 0, 1, 0]), np.array([0, 0, 1, 1]))
    assert case == 0.75
    print("\n[criterion 10] PASS 1000 random sets exact; "
          "(1.0, 0.5) recalls -> 0.75")


# ---------------------------------------------------------------------------
# Criterion 11: serial/parallel sweep determinism


CFG_TEXT = """
[data]
n_channels = 3
n_times = 128
n_recordings = 12
windows_per_recording = 3

[train]
max_epochs = 2
patience = 2
t_max = 2
batch_size = 16

[net]
n_temporal_filters = 2
temporal_kernel = 9
n_spatial_filters = 2
pool_width = 20
pool_stride = 10

[sweep]
models = vanilla:none, dsfm_st:augmentation
eta_grid = 0.0, 1.0
n_seeds = 2
"""


def test_criterion_11_sweep_determinism(tmp_path):
    from dsfnet.cli import main
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CFG_TEXT)
    data_path = str(tmp_path / "data.bin")
    assert main(["gen", "--config", str(cfg_path), "--seed", "7",
                 "--out", data_path]) == 0
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    assert main(["sweep", "--config", str(cfg_path), "--seed", "7",
                 "--dataset", data_path, "--out", serial, "--jobs", "1"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--seed", "7",
                 "--dataset", data_path, "--out", parallel,
                 "--jobs", "8"]) == 0
    with open(serial, "rb") as f:
        serial_bytes = f.read()
    with open(parallel, "rb") as f:
        parallel_bytes = f.read()
    assert serial_bytes == parallel_bytes
    assert len(serial_bytes.splitlines()) == 2 * 2 * 2 + 1
    print("\n[criterion 11] PASS --jobs 1 and --jobs 8 CSVs byte-identical")
