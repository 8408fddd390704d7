#!/usr/bin/env python3
"""Benchmark of the dsfnet package: training, evaluation grid and sweep.

    python3 perfbench/run.py --workload train_vanilla --seed 0 --seconds 10 --trace 0

Run it from the root of a dsfnet source tree; the package is imported
from ./src. Every input is generated with dsfnet.synth from --seed. A
single caller issues the workload's operations in a closed loop (the next
call starts when the previous one returns) for --seconds seconds, checks
every output, and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("train_vanilla", "train_dsf_aug", "eval_grid", "sweep_jobs2")

# What one operation is: a training step (train_*), one evaluate_cell call
# (eval_grid), one run_sweep call (sweep_jobs2). Throughput counts train
# windows (train_*) or result cells (eval_grid, sweep_jobs2) per second.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SPLIT = (0.6, 0.2, 0.2)
EPOCHS = 1  # per train_model_unit call on train_* and eval_grid
EVAL_UNITS = (("vanilla", "none"), ("dsfm_st", "none"), ("dynamic", "none"),
              ("riemann", "none"), ("handcrafted", "none"))
# Units held to the clean-accuracy floor. After the single epoch set-up
# can afford, the ShallowNet-based units are often still at chance level
# on clean data (seed-dependent), so the floor binds the feature units;
# the deep models' numerics are checked against perfbench/reference.py.
FLOORED = ("riemann", "handcrafted")
# Windows of the validation split on which the reference check runs.
REFERENCE_BATCH = 8
# (eta, corrupted-channel count); count -1 draws a random mask.
EVAL_SPECS = ((0.0, -1), (0.25, -1), (0.5, -1), (0.75, -1), (1.0, -1),
              (1.0, 2))
SWEEP_UNITS = (("vanilla", "none"), ("dsfm_st", "augmentation"),
               ("dynamic", "none"), ("riemann", "none"))
SWEEP_ETAS = (0.0, 0.5, 1.0)
SWEEP_JOBS = 2
# Epochs per unit in one sweep: enough that training, which run_sweep does
# serially in the parent, is most of a sweep, as in a real sweep.
SWEEP_EPOCHS = 3
CSV_HEADER = ("seed", "split_id", "model", "denoise", "eta", "n_corrupted",
              "c_prime", "metric", "value")
STATE_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Size:
    data: dict  # SynthConfig overrides for train_* and eval_grid
    sweep_data: dict  # SynthConfig overrides for sweep_jobs2
    setup_reps: int  # set-ups per run: at least this many ...
    setup_min_s: float  # ... and until this much time has been spent
    clean_floor: float


SIZES = {
    # The reference shape: SynthConfig() defaults, 720 train windows.
    # The sweep trains on 216 windows (4 steps per epoch) and tests on 72.
    "full": Size(data={}, sweep_data=dict(n_recordings=30,
                                          windows_per_recording=12),
                 setup_reps=3, setup_min_s=3.0,
                 clean_floor=0.75),
    # For the smoke test only: every code path in about a second.
    "tiny": Size(data=dict(n_recordings=10, windows_per_recording=24,
                           n_times=128),
                 sweep_data=dict(n_recordings=10, windows_per_recording=4,
                                 n_times=128),
                 setup_reps=1, setup_min_s=0.0,
                 clean_floor=0.0),
}


def load_dsfnet() -> SimpleNamespace:
    """Import dsfnet from ./src of the tree this benchmark sits in."""
    src = ROOT / "src"
    if not (src / "dsfnet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dsfnet package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dsfnet
    from dsfnet import (attention, baselines, corruption, harness, interp,
                        nn, seeding, spatial, synth)
    if Path(dsfnet.__file__).resolve().parent != src / "dsfnet":
        raise ImportError(f"dsfnet imported from {dsfnet.__file__}, "
                          f"not from {src}")
    import numpy
    return SimpleNamespace(np=numpy, attention=attention, baselines=baselines,
                           corruption=corruption, harness=harness,
                           interp=interp, nn=nn, seeding=seeding,
                           spatial=spatial, synth=synth)


# ---------------------------------------------------------------------------
# Operations and checks


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation."""
    attempted: int = 0
    failed: int = 0

    def attempt(self, what: str, op) -> None:
        self.attempted += 1
        try:
            ok = op()
        except Exception:  # noqa: BLE001 - an operation that raises fails
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _dataset_digest(ds) -> str:
    tags = repr(sorted(ds.splits.items())).encode()
    return hashlib.sha256(
        tags + _digest_arrays(r.windows for r in ds.recordings).encode()
    ).hexdigest()


def _params_digest(model) -> str:
    store = model.clf.store if hasattr(model, "clf") else model.store
    return _digest_arrays(store[n].value for n in store.names())


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class StepClock:
    """Times training steps from the outside.

    Records a timestamp when each AdamW update returns, by rebinding the
    name the training loop calls (dsfnet.harness.adamw_step) to a function
    that calls the original and reads the clock. Nothing else is wrapped.
    A step is the interval between two consecutive updates of one epoch:
    augment, forward, loss, backward, AdamW and post-step. Left out are the
    first step of each epoch, which also follows the previous epoch's
    validation pass, and the step on the last, partial batch.
    """

    def __init__(self, harness, n_train: int, batch_size: int):
        self.harness = harness
        self.steps_per_epoch = math.ceil(n_train / batch_size)
        self.full_steps = n_train // batch_size
        self.calls: list[list[float]] = []

    def new_call(self) -> None:
        self.calls.append([])

    def __enter__(self):
        self.original = original = self.harness.adamw_step
        calls = self.calls

        def adamw_step(*args, **kwargs):
            original(*args, **kwargs)
            calls[-1].append(time.perf_counter())
        self.harness.adamw_step = adamw_step
        return self

    def __exit__(self, *exc):
        self.harness.adamw_step = self.original
        return False

    def step_times(self) -> list[float]:
        out = []
        for stamps in self.calls:
            for i in range(1, len(stamps)):
                if 1 <= i % self.steps_per_epoch < self.full_steps:
                    out.append(stamps[i] - stamps[i - 1])
        return out


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One set of inputs. setup() builds them; round() issues the next
    operation (or group of operations) and checks its outputs; finish()
    makes the checks that span the run."""

    rounds_per_pass = 1  # rounds that cover the workload once
    deep_models: tuple[str, ...] = ()  # deep models the workload trains

    def __init__(self, d, size_name: str, seed: int, tally: Tally,
                 workdir: Path):
        self.d = d
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        # patience = max_epochs: no early stop, a fixed number of steps.
        self.train_cfg = d.nn.TrainConfig(max_epochs=EPOCHS, patience=EPOCHS,
                                          t_max=EPOCHS)
        self.latencies: list[float] = []  # seconds per operation
        self.rates: list[float] = []  # items per second, one per round
        self._setup_digest: str | None = None
        self.setup_count = 0

    def make_dataset(self, overrides: dict):
        synth = self.d.synth
        ds = synth.generate_dataset(synth.SynthConfig(**overrides), self.seed)
        return synth.split_dataset(ds, SPLIT, self.seed)

    def check_setup(self, state) -> None:
        def op():
            digest = self.setup_digest(state)
            if self._setup_digest is None:
                self._setup_digest = digest
            return self.setup_ok(state) and digest == self._setup_digest
        self.tally.attempt("set-up is deterministic", op)

    def setup_ok(self, state) -> bool:
        return True

    def warm_up(self, state) -> None:
        """One untimed round, so that first-call costs stay out of the
        numbers."""
        self.round(state)
        self.latencies.clear()
        self.rates.clear()

    def timing_context(self, state):
        return nullcontext()

    def dataset(self, state):
        return state

    def finish(self, state) -> None:
        self.check_numerics(self.dataset(state))

    def check_numerics(self, ds) -> None:
        """Check the forward and backward pass of every deep model the
        workload trains, the loss and AdamW against perfbench/reference.py,
        one operation each. The models are built at the run's seed and
        checked on validation windows; nothing here is timed."""
        d = self.d
        cfg = d.harness.ExperimentConfig(models=[])
        n_channels, n_times = ds.config.n_channels, ds.config.n_times
        X = ds.windows_and_labels("valid")[0][:REFERENCE_BATCH]
        rng = d.np.random.default_rng(self.seed)

        def check(what, find_problems):
            def op():
                problems = find_problems()
                for problem in problems:
                    print(f"perfbench: reference check: {problem}",
                          file=sys.stderr)
                return not problems
            self.tally.attempt(f"reference check: {what}", op)

        check("softmax_xent, adamw_step",
              lambda: reference.check_loss_and_optimizer(d.nn, rng))
        for name in self.deep_models:
            check(name, lambda name=name: reference.check_deep_model(
                d.harness.DeepModel(name, n_channels, n_times, cfg.net,
                                    self.seed, tau=cfg.dsf_tau),
                X, cfg.dsf_tau, rng))

    def op_times(self) -> list[float]:
        return self.latencies



class TrainWorkload(Workload):
    def __init__(self, name: str, denoise: str, *args):
        super().__init__(*args)
        self.name = name
        self.denoise = denoise
        self.deep_models = (name,)
        self.clock = None
        self.first_result: str | None = None
        self.valid_loss = math.nan

    def setup(self):
        return self.make_dataset(self.size.data)

    def setup_digest(self, ds) -> str:
        return _dataset_digest(ds)

    def _n_train(self, ds) -> int:
        return sum(len(r.windows) for r in ds.split("train"))

    def timing_context(self, ds):
        self.clock = StepClock(self.d.harness, self._n_train(ds),
                               self.train_cfg.batch_size)
        return self.clock

    def round(self, ds) -> None:
        harness = self.d.harness
        cfg = harness.ExperimentConfig(models=[(self.name, self.denoise)],
                                       train=self.train_cfg)

        def op():
            if self.clock is not None:
                self.clock.new_call()
            t0 = time.perf_counter()
            model, log = harness.train_model_unit(cfg, ds, self.name,
                                                  self.denoise, self.seed)
            dt = time.perf_counter() - t0
            self.rates.append(EPOCHS * self._n_train(ds) / dt)
            losses = log.train_losses + log.valid_losses
            self.valid_loss = log.valid_losses[-1]
            result = _params_digest(model) + repr(losses)
            if self.first_result is None:
                self.first_result = result
            return (_all_finite(losses)
                    and len(log.train_losses) == EPOCHS
                    and result == self.first_result)
        self.tally.attempt(f"train_model_unit {self.name}:{self.denoise}", op)

    def op_times(self) -> list[float]:
        return self.clock.step_times()

    def summary(self, m) -> list[str]:
        n = len(self.op_times())
        return [
            f"train_windows_per_s = {m['throughput_per_s']:.6g} 1/s "
            f"(median of {len(self.rates)} train_model_unit calls)",
            f"step_ms_p50 = {m['op_ms_p50']:.6g} ms",
            f"step_ms_p90 = {m['op_ms_p90']:.6g} ms (n = {n} steps)",
            f"valid_loss = {self.valid_loss!r} "
            f"(after {EPOCHS} epoch)",
        ]


class EvalGridWorkload(Workload):
    rounds_per_pass = len(EVAL_SPECS)
    deep_models = ("vanilla", "dsfm_st", "dynamic")

    def __init__(self, *args):
        super().__init__(*args)
        self.next_spec = 0
        self.unit_latencies: dict[str, list[float]] = {
            name: [] for name, _ in EVAL_UNITS}
        self.seen: dict[tuple[str, int], float] = {}
        self.clean: dict[str, float] = {}

    def setup(self):
        harness = self.d.harness
        ds = self.make_dataset(self.size.data)
        cfg = harness.ExperimentConfig(models=list(EVAL_UNITS),
                                       train=self.train_cfg)
        units = []
        for name, denoise in EVAL_UNITS:
            model, log = harness.train_model_unit(cfg, ds, name, denoise,
                                                  self.seed)
            units.append((name, model, log))
        return SimpleNamespace(ds=ds, test=ds.split("test"), units=units)

    def dataset(self, state):
        return state.ds

    def setup_digest(self, state) -> str:
        return _dataset_digest(state.ds) + "".join(
            _params_digest(model) for _, model, _ in state.units)

    def setup_ok(self, state) -> bool:
        return all(_all_finite(log.train_losses + log.valid_losses)
                   for _, _, log in state.units if log is not None)

    def round(self, state) -> None:
        d = self.d
        index = self.next_spec
        self.next_spec = (index + 1) % len(EVAL_SPECS)
        eta, count = EVAL_SPECS[index]
        spec = d.corruption.CorruptionSpec(
            p=0.5, eta_range=(eta, eta), sigma_range_uv=(20.0, 50.0),
            scope="per_recording", forced_count=None if count < 0 else count)
        cell_seed = d.seeding.derive_seed(self.seed, 7000 + index)
        times = []
        for name, model, _ in state.units:
            def op():
                t0 = time.perf_counter()
                value = d.harness.evaluate_cell(model, state.test, spec,
                                                cell_seed, "balanced_accuracy")
                dt = time.perf_counter() - t0
                times.append(dt)
                self.unit_latencies[name].append(dt)
                ok = math.isfinite(value) and 0.0 <= value <= 1.0
                ok = ok and self.seen.setdefault((name, index), value) == value
                if eta == 0.0:
                    self.clean[name] = value
                    if name in FLOORED:
                        ok = ok and value >= self.size.clean_floor
                return ok
            self.tally.attempt(f"evaluate_cell {name} eta={eta} "
                               f"count={count}", op)
        self.latencies += times
        if times:
            self.rates.append(len(times) / sum(times))

    def warm_up(self, state) -> None:
        super().warm_up(state)
        for values in self.unit_latencies.values():
            values.clear()

    def summary(self, m) -> list[str]:
        clean = ", ".join(f"{k} {v:.3f}" for k, v in self.clean.items())
        by_unit = ", ".join(f"{k} {_percentile(v, 50) * 1e3:.1f}"
                            for k, v in self.unit_latencies.items())
        return [
            f"eval_cells_per_s = {m['throughput_per_s']:.6g} 1/s",
            f"cell_ms_p50 = {m['op_ms_p50']:.6g} ms",
            f"cell_ms_p90 = {m['op_ms_p90']:.6g} ms "
            f"(n = {len(self.latencies)} cells)",
            f"cell_ms_p50 by unit: {by_unit}",
            f"clean balanced accuracy: {clean} "
            f"(floor {self.size.clean_floor} for {', '.join(FLOORED)})",
        ]


class SweepWorkload(Workload):
    deep_models = ("vanilla", "dsfm_st", "dynamic")

    def __init__(self, *args):
        super().__init__(*args)
        self.sha256: str | None = None
        self.sweep_train_cfg = self.d.nn.TrainConfig(
            max_epochs=SWEEP_EPOCHS, patience=SWEEP_EPOCHS, t_max=SWEEP_EPOCHS)

    def setup(self):
        return self.make_dataset(self.size.sweep_data)

    def setup_digest(self, ds) -> str:
        return _dataset_digest(ds)

    def round(self, ds) -> None:
        harness = self.d.harness
        cfg = harness.ExperimentConfig(
            models=list(SWEEP_UNITS), train=self.sweep_train_cfg,
            eta_grid=SWEEP_ETAS, count_grid=(-1,), n_seeds=1,
            master_seed=self.seed)
        n_rows = len(SWEEP_UNITS) * len(SWEEP_ETAS)
        out = self.workdir / "sweep.csv"

        def op():
            t0 = time.perf_counter()
            rows = harness.run_sweep(cfg, ds, str(out), jobs=SWEEP_JOBS)
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            self.rates.append(len(rows) / dt)
            data = out.read_bytes()
            out.unlink()
            sha = hashlib.sha256(data).hexdigest()
            if self.sha256 is None:
                self.sha256 = sha
            lines = data.decode().splitlines()
            values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
            return (lines[0] == ",".join(CSV_HEADER)
                    and len(lines) == n_rows + 1 and len(rows) == n_rows
                    and all(0.0 <= v <= 1.0 for v in values)
                    and sha == self.sha256)
        self.tally.attempt("run_sweep", op)

    def finish(self, ds) -> None:
        super().finish(ds)
        # Earlier runs of the same seed on the same source must have written
        # the same CSV bytes.
        if self.sha256 is None:
            return
        key = f"{self.size_name}-seed{self.seed}-{_source_digest()[:16]}"
        record = STATE_DIR / "sweep_sha256" / key

        def op():
            if record.exists():
                return record.read_text().strip() == self.sha256
            record.parent.mkdir(parents=True, exist_ok=True)
            tmp = record.with_suffix(".tmp")
            tmp.write_text(self.sha256 + "\n")
            os.replace(tmp, record)
            return True
        self.tally.attempt("sweep CSV sha256 matches earlier runs", op)

    def summary(self, m) -> list[str]:
        return [
            f"sweep_s = {m['op_ms_p50'] / 1e3:.6g} s "
            f"(median of {len(self.latencies)} sweeps, jobs={SWEEP_JOBS}, "
            f"{SWEEP_EPOCHS} epochs per unit)",
            f"sweep CSV sha256 = {self.sha256}",
        ]


def make_workload(name, *args) -> Workload:
    if name == "train_vanilla":
        return TrainWorkload("vanilla", "none", *args)
    if name == "train_dsf_aug":
        return TrainWorkload("dsfm_st", "augmentation", *args)
    if name == "eval_grid":
        return EvalGridWorkload(*args)
    return SweepWorkload(*args)


# ---------------------------------------------------------------------------
# Runs


def untraced_run(wl: Workload, seconds: float) -> dict[str, float]:
    setup_times = []
    state = None
    while (len(setup_times) < wl.size.setup_reps
           or sum(setup_times) < wl.size.setup_min_s):
        t0 = time.perf_counter()
        rep = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        wl.check_setup(rep)
        if state is None:
            state = rep
        del rep
    wl.setup_count = len(setup_times)
    wl.warm_up(state)
    with wl.timing_context(state):
        start = time.perf_counter()
        while True:
            wl.round(state)
            if time.perf_counter() - start >= seconds:
                break
    wl.finish(state)
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": _percentile(wl.op_times(), 50) * 1e3,
        "op_ms_p90": _percentile(wl.op_times(), 90) * 1e3,
        "throughput_per_s": statistics.median(wl.rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(wl: Workload, d) -> dict[str, float]:
    """Fixed work: one traced set-up, one untimed warm-up round, one
    untraced pass over the workload, then the same pass traced. The
    wall-time difference of the two passes is the tracing overhead."""
    tracer = layertrace.Tracer(d)
    with tracer:
        state = wl.setup()
    wl.check_setup(state)
    wl.warm_up(state)
    t0 = time.perf_counter()
    for _ in range(wl.rounds_per_pass):
        wl.round(state)
    untraced = time.perf_counter() - t0
    with tracer:
        t0 = time.perf_counter()
        for _ in range(wl.rounds_per_pass):
            wl.round(state)
        traced = time.perf_counter() - t0
    wl.finish(state)
    metrics = tracer.metrics()
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.traced_pass_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def peak_rss_parts_mb() -> tuple[float, float]:
    """Peak resident set of this process and that of its largest child
    (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    A forked child's resident set includes the pages it shares with this
    process, so those pages count twice: a pool that forks a large parent
    reads about twice the parent's size. Compare the two parts, printed on
    their own lines, before reading a drop here as a saving."""
    return sum(peak_rss_parts_mb())


# ---------------------------------------------------------------------------
# Environment


def _source_digest() -> str:
    """Digest of the package source and of this benchmark."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "dsfnet").glob("*.py"))
    for path in paths + [HERE / "run.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 \
            and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def _blas(np) -> tuple[str, int | None]:
    """BLAS name and its current thread count, read without changing it."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg['name']} {cfg['version']}"
    except (KeyError, TypeError):
        name = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(np) -> dict:
    blas, threads = _blas(np)
    nproc = len(os.sched_getaffinity(0))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest()[:16],
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    if threads:
        env["note"] = (f"sweep jobs={SWEEP_JOBS} runs up to "
                       f"{SWEEP_JOBS * threads} BLAS threads on {nproc} cores")
    return env


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="input size; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        d = load_dsfnet()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load dsfnet: {exc}", file=sys.stderr)
        return 2
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE_DIR))
    tally = Tally()
    try:
        wl = make_workload(args.workload, d, args.size, args.seed, tally,
                           workdir)
        if args.trace:
            metrics = traced_run(wl, d)
            units = layertrace.metric_units()
            lines = []
        else:
            metrics = untraced_run(wl, args.seconds)
            units = END_TO_END
            lines = [f"setup_s = {metrics['setup_s']:.6g} s (median of "
                     f"{wl.setup_count} set-ups)"]
            lines += wl.summary(metrics)
            own, child = peak_rss_parts_mb()
            lines += [f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB "
                      "(this process + its largest child)",
                      f"peak_rss_self_mb = {own:.6g} MB",
                      f"peak_rss_child_mb = {child:.6g} MB (shares the "
                      "pages it forked with this process)"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env " + json.dumps(environment(d.np), sort_keys=True))
    for line in lines:
        print(f"# {line}")
    print(f"# error_rate = {tally.failed / max(tally.attempted, 1):g} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
