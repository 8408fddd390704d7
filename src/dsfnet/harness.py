"""Training loop, corruption-sweep evaluation and result persistence.

A "model unit" is a (model, denoise, seed, C') tuple (`sweep_units`). Deep
models are a ShallowNet classifier optionally fronted by a DSF or
interpolation module; feature models aggregate recording-level features
into a logistic regression. The sweep corrupts test recordings cell by cell
on an (eta, corrupted-count) grid with per-recording masks and writes one
CSV row per cell and model unit.
"""

import ctypes
import itertools
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .attention import VARIANTS, DsfConfig, DsfModule, channel_contribution
from .baselines import (LogisticRegression, aggregate_recording,
                        band_cov_stack, handcrafted_features, impute_apply,
                        impute_fit, riemann_vectorize, zscore_apply,
                        zscore_fit)
from .binio import write_csv
from .corruption import CorruptionSpec, augment_batch, corrupt_recording
from .interp import INTERP_KINDS, InterpModule
from .nn import (ParamStore, Sequential, ShallowNet, ShallowNetConfig,
                 TrainConfig, adamw_step, bounded, check_bounds, cosine_lr,
                 softmax, softmax_xent)
from .seeding import STREAMS, derive_seed, rng_for
from .synth import Dataset, Recording, SynthConfig

DEEP_MODELS = ("vanilla",) + tuple(VARIANTS) + INTERP_KINDS
FEATURE_MODELS = ("riemann", "handcrafted")
MODEL_NAMES = DEEP_MODELS + FEATURE_MODELS

RANDOM_MASK = -1  # count-grid sentinel: Bernoulli(p) mask instead of a
                  # forced corrupted-channel count


@dataclass(frozen=True)
class ResultRow:
    seed: int
    split_id: int
    model: str
    denoise: str
    eta: float
    n_corrupted: int
    c_prime: int
    metric: str
    value: float


RESULT_HEADER = tuple(f.name for f in fields(ResultRow))


@dataclass
class ExperimentConfig:
    models: list[tuple[str, str]] = field(  # (model name, denoise strategy)
        default_factory=lambda: [("vanilla", "none")])
    train: TrainConfig = field(default_factory=TrainConfig)
    net: ShallowNetConfig = field(default_factory=ShallowNetConfig)
    eta_grid: tuple[float, ...] = bounded((0.0, 0.25, 0.5, 0.75, 1.0),
                                          "[0, 1]")
    count_grid: tuple[int, ...] = bounded((RANDOM_MASK,),
                                          f"[{RANDOM_MASK}, inf)")
    c_prime_grid: tuple[int, ...] = bounded((), "[1, inf)")  # empty: C' = C
    mask_p: float = bounded(CorruptionSpec.p, "[0, 1]")
    sigma_range_uv: tuple[float, float] = CorruptionSpec.sigma_range_uv
    n_seeds: int = bounded(1, "[1, inf)")
    master_seed: int = 0
    metric: str = "balanced_accuracy"
    dsf_tau: float = bounded(DsfConfig.tau, "[0, inf)")

    def __post_init__(self) -> None:
        if not self.eta_grid or not self.count_grid:
            raise ValueError("eta and count grids must be non-empty")
        for name, denoise in self.models:
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown model: {name!r}")
            if denoise not in ("none", "augmentation"):
                raise ValueError(f"unknown denoise strategy: {denoise!r}")
        for name in ("models", "eta_grid", "count_grid", "c_prime_grid"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} repeats an entry")
        check_bounds(self)
        CorruptionSpec(sigma_range_uv=self.sigma_range_uv)  # checks it
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric: {self.metric!r}")


# ---------------------------------------------------------------------------
# Metrics


def balanced_accuracy(preds: NDArray, labels: NDArray) -> float:
    """Mean per-class recall over the classes present in the labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("no examples to score")
    recalls = []
    for cls in np.unique(labels):
        sel = labels == cls
        recalls.append(float(np.mean(preds[sel] == cls)))
    return float(np.mean(recalls))


def accuracy(preds: NDArray, labels: NDArray) -> float:
    return float(np.mean(np.asarray(preds) == np.asarray(labels)))


METRICS = {"accuracy": accuracy, "balanced_accuracy": balanced_accuracy}


def compute_metric(name: str, preds: NDArray, labels: NDArray) -> float:
    if name not in METRICS:
        raise ValueError(f"unknown metric: {name!r}")
    return METRICS[name](preds, labels)


# ---------------------------------------------------------------------------
# Deep models


class DeepModel:
    """ShallowNet with an optional attention/interpolation front end."""

    def __init__(self, name: str, n_channels: int, n_times: int,
                 net_cfg: ShallowNetConfig, seed: int,
                 c_prime: int | None = None, tau: float = DsfConfig.tau,
                 n_classes: int = SynthConfig.n_classes):
        if name not in DEEP_MODELS:
            raise ValueError(f"not a deep model: {name!r}")
        self.name = name
        self.n_classes = n_classes
        self.store = ParamStore()
        rng = rng_for(seed, STREAMS["model_init"])
        self.front: DsfModule | InterpModule | None = None
        self.c_prime = 0  # virtual channel count; 0 without a DSF front end
        if name in VARIANTS:
            self.c_prime = c_prime or n_channels
            self.front = DsfModule(
                DsfConfig(variant=name, n_channels=n_channels,
                          n_virtual=self.c_prime, tau=tau), self.store, rng)
        elif name in INTERP_KINDS:
            self.front = InterpModule(name, n_channels, self.store, rng)
        self.net = ShallowNet(self.c_prime or n_channels, n_times, net_cfg,
                              self.store, rng, n_classes)
        self.chain = Sequential([self.front, *self.net.layers] if self.front
                                else self.net.layers)
        # Nothing reads the gradient with respect to the input batch.
        self.chain.layers[0].input_grad = False

    def forward(self, X: NDArray, train: bool = False,
                rng: np.random.Generator | None = None) -> NDArray:
        return self.chain.forward(X, self.store, train=train, rng=rng)

    def backward(self, dlogits: NDArray) -> None:
        self.chain.backward(dlogits, self.store)

    def logits(self, X: NDArray) -> NDArray:
        """Eval-mode logits of a forward that no backward follows, so the
        chain releases its activations at once. Overflow runs silent: every
        caller checks the logits for finiteness."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return self.forward(X)
        finally:
            self.chain.release()

    def predict_proba(self, X: NDArray) -> NDArray:
        logits = self.logits(X)
        if not np.isfinite(logits).all():
            raise ValueError(f"{self.name}: logits contain non-finite values")
        return softmax(logits)

    def predict_recording(self, windows: NDArray) -> int:
        """Argmax of the mean window probabilities; ties go to the lowest
        class index."""
        if len(windows) == 0:
            raise ValueError("recording has no windows")
        return int(np.argmax(self.predict_proba(np.asarray(windows))
                             .mean(axis=0)))


@dataclass
class TrainLog:
    train_losses: list[float]
    valid_losses: list[float]
    best_epoch: int


def class_weight_vector(labels: NDArray, n_classes: int) -> NDArray:
    """Inverse-frequency weights normalized to mean 1."""
    counts = np.bincount(np.asarray(labels, dtype=np.intp),
                         minlength=n_classes).astype(np.float64)
    present = counts > 0
    w = np.zeros(n_classes)
    w[present] = labels.shape[0] / (present.sum() * counts[present])
    return w


def train_deep_model(model: DeepModel, dataset: Dataset, cfg: TrainConfig,
                     denoise: str, seed: int,
                     aug_spec: CorruptionSpec = CorruptionSpec()) -> TrainLog:
    """Train with AdamW + cosine annealing and early stopping on the
    validation loss; restores the best-validation-loss parameters.

    Each batch is stacked from views into the recordings, so the splits are
    never copied whole."""
    X_train, y_train = dataset.window_views("train")
    X_valid, y_valid = dataset.window_views("valid")
    weights = class_weight_vector(y_train, model.n_classes)

    n = len(X_train)
    best_loss = np.inf
    best_params: dict[str, NDArray] | None = None
    best_epoch = -1
    train_losses: list[float] = []
    valid_losses: list[float] = []
    step = 0

    @contextmanager
    def named_batch(phase, batch):
        """Prefix an error of the batch's forward or loss with its place."""
        try:
            yield
        except ValueError as e:
            raise ValueError(f"{model.name} (seed {seed}) epoch {epoch}, "
                             f"{phase} batch {batch}: {e}") from e

    for epoch in range(cfg.max_epochs):
        order = rng_for(seed, STREAMS["batch_order"], epoch).permutation(n)
        drop_rng = rng_for(seed, STREAMS["dropout"], epoch)
        aug_seed = derive_seed(seed, STREAMS["augmentation"], epoch)
        lr = cosine_lr(epoch, cfg.t_max, cfg.lr0)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = np.stack([X_train[i] for i in idx])
            if denoise == "augmentation":
                batch = augment_batch(batch, aug_spec, aug_seed,
                                      index_offset=start)
            model.store.zero_grads()
            with named_batch("training", start // cfg.batch_size):
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = model.forward(batch, train=True, rng=drop_rng)
                loss, dlogits = softmax_xent(logits, y_train[idx], weights)
            model.backward(dlogits)
            step += 1
            adamw_step(model.store, lr, cfg, step)
            epoch_loss += loss * len(idx)
        train_losses.append(epoch_loss / n)

        valid_loss = 0.0
        for start in range(0, len(X_valid), cfg.batch_size):
            sl = slice(start, start + cfg.batch_size)
            with named_batch("validation", start // cfg.batch_size):
                logits = model.logits(np.stack(X_valid[sl]))
                loss, _ = softmax_xent(logits, y_valid[sl], weights)
            valid_loss += loss * len(logits)
        valid_loss /= len(X_valid)
        valid_losses.append(valid_loss)

        if valid_loss < best_loss:
            best_loss = valid_loss
            best_params = {name: model.store[name].value.copy()
                           for name in model.store.names()}
            best_epoch = epoch
        if epoch - best_epoch >= cfg.patience:
            break

    if best_params is not None:
        for name, value in best_params.items():
            model.store[name].value[...] = value

    return TrainLog(train_losses=train_losses, valid_losses=valid_losses,
                    best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# Feature models


class FeatureModel:
    """Recording-level feature pipeline + logistic regression."""

    N_AUG_COPIES = 5  # augmented replicas per training recording
    c_prime = 0  # no virtual channels

    def __init__(self, kind: str, sfreq: float, n_classes: int, seed: int):
        if kind not in FEATURE_MODELS:
            raise ValueError(f"not a feature model: {kind!r}")
        self.kind = kind
        self.sfreq = sfreq
        self.n_classes = n_classes
        self.seed = seed

    def _recording_features(self, windows: NDArray) -> NDArray:
        if len(windows) == 0:
            raise ValueError("recording has no windows")
        if self.kind == "riemann":
            covs = band_cov_stack(windows, self.sfreq)  # (n_win, bands, C, C)
            return riemann_vectorize(covs).mean(axis=0)
        return aggregate_recording(handcrafted_features(windows, self.sfreq))

    def fit(self, dataset: Dataset, denoise: str,
            aug_spec: CorruptionSpec = CorruptionSpec()) -> "FeatureModel":
        rows = []
        labels = []
        recs = dataset.split("train") + dataset.split("valid")
        for rec in recs:
            rows.append(self._recording_features(rec.windows))
            labels.append(rec.label)
            if denoise == "augmentation":
                for copy in range(self.N_AUG_COPIES):
                    aug = augment_batch(
                        rec.windows, aug_spec,
                        derive_seed(self.seed, STREAMS["feature_augmentation"],
                                    rec.id, copy))
                    rows.append(self._recording_features(aug))
                    labels.append(rec.label)
        features = np.stack(rows)
        y = np.asarray(labels)
        self.impute_means = impute_fit(features)
        features = impute_apply(features, self.impute_means)
        self.norm_mean, self.norm_std = zscore_fit(features)
        features = zscore_apply(features, self.norm_mean, self.norm_std)
        weights = class_weight_vector(y, self.n_classes)
        self.clf = LogisticRegression(features.shape[1], self.n_classes,
                                      seed=self.seed)
        self.clf.fit(features, y, weights)
        return self

    def predict_recording(self, windows) -> int:
        feats = self._recording_features(np.asarray(windows))[None]
        feats = impute_apply(feats, self.impute_means)
        feats = zscore_apply(feats, self.norm_mean, self.norm_std)
        return int(self.clf.predict(feats)[0])


# ---------------------------------------------------------------------------
# Sweep


def _cell_spec(cfg: ExperimentConfig, eta: float,
               n_corrupted: int) -> CorruptionSpec:
    forced = None if n_corrupted == RANDOM_MASK else n_corrupted
    return CorruptionSpec(p=cfg.mask_p, eta_range=(eta, eta),
                          sigma_range_uv=cfg.sigma_range_uv,
                          scope="per_recording", forced_count=forced)


def sweep_units(cfg: ExperimentConfig) -> list[tuple]:
    """Every (name, denoise, seed, c_prime) unit, in sweep order; replicate
    k is seeded derive_seed(master_seed, STREAMS["replicate"] + k), and
    c_prime None is C."""
    return [(name, denoise,
             derive_seed(cfg.master_seed, STREAMS["replicate"] + k), c_prime)
            for name, denoise in cfg.models
            for c_prime in (name in VARIANTS and cfg.c_prime_grid or (None,))
            for k in range(cfg.n_seeds)]


def cell_seed(unit_seed: int) -> int:
    """Seed of a unit's test corruption in every cell, from its seed alone."""
    return derive_seed(unit_seed, STREAMS["cell"])


def corrupt_test_recordings(recordings: list[Recording],
                            spec: CorruptionSpec,
                            cell_seed: int) -> list[Recording]:
    """The windows a cell scores; at eta 0, the recordings unchanged."""
    if spec.eta_range == (0.0, 0.0):
        return recordings
    return [Recording(id=rec.id, label=rec.label,
                      windows=corrupt_recording(rec.windows, spec,
                                                rng_for(cell_seed, rec.id)))
            for rec in recordings]


def evaluate_cell(model, recordings: list[Recording],
                  spec: CorruptionSpec, cell_seed: int,
                  metric: str) -> float:
    scored = corrupt_test_recordings(recordings, spec, cell_seed)
    preds = [model.predict_recording(rec.windows) for rec in scored]
    return compute_metric(metric, np.asarray(preds),
                          np.asarray([rec.label for rec in scored]))


def train_model_unit(cfg: ExperimentConfig, dataset: Dataset, name: str,
                     denoise: str, seed: int, c_prime: int | None = None):
    """Train one (model, denoise) unit for one seed, under the allocator
    policy of keep_freed_memory in whatever process calls it."""
    keep_freed_memory()
    ds_cfg = dataset.config
    aug = CorruptionSpec(sigma_range_uv=cfg.sigma_range_uv)
    if name in FEATURE_MODELS:
        model = FeatureModel(name, ds_cfg.sfreq, ds_cfg.n_classes, seed)
        model.fit(dataset, denoise, aug)
        return model, None
    model = DeepModel(name, ds_cfg.n_channels, ds_cfg.n_times, cfg.net,
                      seed, c_prime=c_prime, tau=cfg.dsf_tau,
                      n_classes=ds_cfg.n_classes)
    log = train_deep_model(model, dataset, cfg.train, denoise, seed, aug)
    return model, log


def keep_freed_memory() -> None:
    """Make glibc keep the memory this process frees, for reuse.

    By default glibc unmaps each freed large array and returns the free
    top of its heap to the kernel, so every training step faults its arrays
    in again page by page. train_model_unit calls this, so the policy holds
    in every process that trains: sweep workers, the command line and
    library callers alike. A no-op where the C library has no mallopt
    (macOS, Windows).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap blocks up to 32 MiB
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: trim only past 1 GiB free


# (cfg, dataset, test recordings) of the running sweep, which forked workers
# inherit; run_sweep sets it for every _sweep_unit call, so is not reentrant.
_sweep = None


def _sweep_unit(unit) -> list[ResultRow]:
    """Train a unit, then score it on every (eta, count) cell in order."""
    cfg, dataset, recordings = _sweep
    name, denoise, seed, _ = unit
    model, _ = train_model_unit(cfg, dataset, *unit)
    return [ResultRow(seed=seed, split_id=0, model=name, denoise=denoise,
                      eta=eta, n_corrupted=count, c_prime=model.c_prime,
                      metric=cfg.metric,
                      value=evaluate_cell(
                          model, recordings, _cell_spec(cfg, eta, count),
                          cell_seed(seed), cfg.metric))
            for eta, count in itertools.product(cfg.eta_grid, cfg.count_grid)]


def run_sweep(cfg: ExperimentConfig, dataset: Dataset, out_path: str,
              jobs: int = 1) -> list[ResultRow]:
    """Train every model unit per seed, evaluate every grid cell and write
    the rows as CSV. One task trains and evaluates each unit, in up to
    `jobs` forked workers that return only rows; a row depends only on
    its unit and cell, so every jobs value gives the same CSV."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    test_recs = dataset.split("test")
    if not test_recs:
        raise ValueError("dataset has no test split")
    n_channels = dataset.config.n_channels
    if max(cfg.count_grid) > n_channels:
        raise ValueError(f"count grid entry {max(cfg.count_grid)} exceeds "
                         f"the dataset's {n_channels} channels")

    global _sweep
    units = sweep_units(cfg)
    workers = min(jobs, len(units))
    _sweep = (cfg, dataset, test_recs)
    try:
        if workers > 1:
            fork = mp.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                per_unit = list(pool.map(_sweep_unit, units))
        else:
            per_unit = list(map(_sweep_unit, units))
    finally:
        _sweep = None
    rows = sorted(itertools.chain.from_iterable(per_unit),
                  key=lambda r: (r.model, r.denoise, r.seed, r.eta,
                                 r.n_corrupted, r.c_prime))
    # csv writes floats with repr, so every value reloads bit-exact.
    write_csv(out_path, [RESULT_HEADER, *map(astuple, rows)])
    return rows


# ---------------------------------------------------------------------------
# Filter inspection


def inspect_filters(model: DeepModel, recordings: list[Recording],
                    spec: CorruptionSpec, cell_seed: int,
                    dump_path: str | None = None):
    """Per-window filters and per-channel contribution summary.

    Returns ((W, b, phi), summary): the filters W (n, C', C) and biases
    b (n, C') applied to each of the n test windows, in recording order,
    their channel contributions phi (n, C), and a map from each channel to
    (q25, median, q75) of phi. The windows are those evaluate_cell scores
    with the same spec and cell seed. The dump has one CSV row per
    window: its index, then W, b and phi flattened.
    """
    if model.name not in VARIANTS:
        raise ValueError(f"{model.name!r} is not a DSF-family model")
    recordings = corrupt_test_recordings(recordings, spec, cell_seed)
    module = model.front
    X = np.concatenate([rec.windows for rec in recordings])
    W, b = module.filters_from_summary(module.summaries(X), model.store)
    module.release()
    phi = channel_contribution(W)
    quartiles = np.quantile(phi, (0.25, 0.5, 0.75), axis=0)
    summary = {ch: tuple(float(q) for q in quartiles[:, ch])
               for ch in range(phi.shape[1])}
    if dump_path is not None:
        write_csv(dump_path, (
            [i, *row] for i, row in enumerate(np.concatenate(
                [W.reshape(len(W), -1), b, phi], axis=1).tolist())))
    return (W, b, phi), summary
