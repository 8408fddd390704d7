"""Per-layer tracing for the dsfnet benchmark.

The tracer rebinds public callables of the dsfnet modules under the name
their caller looks them up by (``dsfnet.harness.augment_batch`` is the
name the training loop calls), and the ``forward``/``backward`` methods of
the layer classes. Each timed wrapper records one span duration; a span's
self time is its duration minus the time of the traced spans it encloses.
Functions called once per window are counted, not timed. Everything stays
in memory and becomes metrics when the run ends. Leaving the ``with``
block restores every original.

Spans recorded in worker processes (``run_sweep`` with ``jobs > 1``) stay
in those processes and are not reported.
"""

import statistics
import sys
import time
from collections import Counter, defaultdict

# (name, unit) of every timed span, in report order. "_ms" metrics are
# per-call medians in milliseconds, "_s" ones in seconds; each also gets a
# "_calls" count.
TIMED = (
    ("nn.TemporalConv.forward", "ms"),
    ("nn.TemporalConv.backward", "ms"),
    ("nn.SpatialConv.forward", "ms"),
    ("nn.SpatialConv.backward", "ms"),
    ("nn.AvgPool.forward", "ms"),
    ("nn.AvgPool.backward", "ms"),
    ("nn.pointwise", "ms"),
    ("nn.softmax_xent", "ms"),
    ("nn.adamw_step", "ms"),
    ("attention.summaries", "ms"),
    ("attention.filters_from_summary", "ms"),
    ("attention.apply", "ms"),
    ("attention.backward", "ms"),
    ("interp.forward", "ms"),
    ("interp.backward", "ms"),
    ("corruption.augment_batch", "ms"),
    ("corruption.corrupt_recording", "ms"),
    ("baselines.band_cov_stack", "ms"),
    ("baselines.handcrafted_features", "ms"),
    ("baselines.aggregate_recording", "ms"),
    ("baselines.logreg_fit", "ms"),
    ("harness.train_model_unit", "s"),
    ("harness.valid_pass", "ms"),
    ("harness.evaluate_cell", "ms"),
    ("harness.sweep_train", "s"),
    ("harness.sweep_fanout", "s"),
    ("synth.generate_dataset", "s"),
    ("synth.split_dataset", "s"),
)

COUNTED = (
    "spatial.compute_summary",
    "linalg.oas_shrink",
    "linalg.matrix_log_eig",
    "corruption.corrupt_window",
)

SCALE = {"ms": 1e3, "s": 1.0}

GFLOPS_METRIC = "nn.TemporalConv.forward_gflops"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {}
    for name, unit in TIMED:
        units[f"{name}_{unit}"] = unit
        units[f"{name}_calls"] = "count"
    for name in COUNTED:
        units[f"{name}_calls"] = "count"
    units[GFLOPS_METRIC] = "GFLOP/s"
    units["trace.untraced_pass_s"] = "s"
    units["trace.traced_pass_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    May be entered more than once; records accumulate.
    """

    def __init__(self, dsfnet_modules):
        self.m = dsfnet_modules
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.gflops: list[float] = []
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self._training = 0  # depth of train_deep_model calls
        self._valid_start: float | None = None
        self._valid_end = 0.0
        self._sweep_train: list[float] = []  # one accumulator per open sweep

    # -- wrappers ------------------------------------------------------

    def _timed(self, key, fn, self_time=False, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            if before is not None:
                before(args, kwargs, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dt
                if key is not None:
                    tracer.durations[key].append(dt - child if self_time
                                                 else dt)
                if after is not None:
                    after(args, kwargs, t0, dt)
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks for derived spans ---------------------------------------

    def _tconv_flops(self, args, kwargs, t0, dt):
        layer, x = args[0], args[1]
        B, C, T = x.shape
        t_out = T - layer.kernel + 1
        flops = 2.0 * B * C * layer.n_filters * layer.kernel * t_out
        if dt > 0:
            self.gflops.append(flops / dt / 1e9)

    def _enter_training(self, args, kwargs, t0):
        self._training += 1

    def _leave_training(self, args, kwargs, t0, dt):
        self._close_valid()
        self._training -= 1

    def _deep_forward(self, args, kwargs, t0):
        # The validation pass of train_deep_model is the run of eval-mode
        # forward calls, each followed by softmax_xent, after an epoch's
        # last training step.
        if not self._training:
            return
        train = kwargs.get("train", args[2] if len(args) > 2 else False)
        if train:
            self._close_valid()
        elif self._valid_start is None:
            self._valid_start = t0
            self._valid_end = t0

    def _loss_done(self, args, kwargs, t0, dt):
        if self._valid_start is not None:
            self._valid_end = t0 + dt

    def _close_valid(self):
        if self._valid_start is not None:
            self.durations["harness.valid_pass"].append(
                self._valid_end - self._valid_start)
            self._valid_start = None

    def _unit_done(self, args, kwargs, t0, dt):
        if self._sweep_train:
            self._sweep_train[-1] += dt

    def _enter_sweep(self, args, kwargs, t0):
        self._sweep_train.append(0.0)

    def _leave_sweep(self, args, kwargs, t0, dt):
        train = self._sweep_train.pop()
        self.durations["harness.sweep_train"].append(train)
        self.durations["harness.sweep_fanout"].append(dt - train)

    # -- install / restore ---------------------------------------------

    def _targets(self):
        m = self.m
        nn, harness = m.nn, m.harness
        t = self._timed
        timed = [
            (nn.TemporalConv, "forward",
             dict(key="nn.TemporalConv.forward", after=self._tconv_flops)),
            (nn.TemporalConv, "backward", dict(key="nn.TemporalConv.backward")),
            (nn.SpatialConv, "forward", dict(key="nn.SpatialConv.forward")),
            (nn.SpatialConv, "backward", dict(key="nn.SpatialConv.backward")),
            (nn.AvgPool, "forward", dict(key="nn.AvgPool.forward")),
            (nn.AvgPool, "backward", dict(key="nn.AvgPool.backward")),
        ]
        for cls in (nn.Square, nn.LogFloor, nn.Dropout):
            for meth in ("forward", "backward"):
                timed.append((cls, meth, dict(key="nn.pointwise")))
        timed += [
            (harness, "softmax_xent",
             dict(key="nn.softmax_xent", after=self._loss_done)),
            (harness, "adamw_step", dict(key="nn.adamw_step")),
            (m.attention.DsfModule, "summaries",
             dict(key="attention.summaries")),
            (m.attention.DsfModule, "filters_from_summary",
             dict(key="attention.filters_from_summary")),
            # Self time of forward: applying Y = W X + b.
            (m.attention.DsfModule, "forward",
             dict(key="attention.apply", self_time=True)),
            (m.attention.DsfModule, "backward",
             dict(key="attention.backward")),
            (m.interp.InterpModule, "forward", dict(key="interp.forward")),
            (m.interp.InterpModule, "backward", dict(key="interp.backward")),
            (harness, "augment_batch", dict(key="corruption.augment_batch")),
            (harness, "corrupt_recording",
             dict(key="corruption.corrupt_recording")),
            (harness, "band_cov_stack", dict(key="baselines.band_cov_stack")),
            (harness, "handcrafted_features",
             dict(key="baselines.handcrafted_features")),
            (harness, "aggregate_recording",
             dict(key="baselines.aggregate_recording")),
            (m.baselines.LogisticRegression, "fit",
             dict(key="baselines.logreg_fit")),
            (harness, "train_model_unit",
             dict(key="harness.train_model_unit", after=self._unit_done)),
            (harness, "train_deep_model",
             dict(key=None, before=self._enter_training,
                  after=self._leave_training)),
            (harness.DeepModel, "forward",
             dict(key=None, before=self._deep_forward)),
            (harness, "evaluate_cell", dict(key="harness.evaluate_cell")),
            (harness, "run_sweep",
             dict(key=None, before=self._enter_sweep, after=self._leave_sweep)),
            (m.synth, "generate_dataset", dict(key="synth.generate_dataset")),
            (m.synth, "split_dataset", dict(key="synth.split_dataset")),
        ]
        counted = [
            (m.attention, "compute_summary", "spatial.compute_summary"),
            (m.interp, "compute_summary", "spatial.compute_summary"),
            (m.spatial, "oas_shrink", "linalg.oas_shrink"),
            (m.baselines, "oas_shrink", "linalg.oas_shrink"),
            (m.spatial, "matrix_log_eig", "linalg.matrix_log_eig"),
            (m.baselines, "matrix_log_eig", "linalg.matrix_log_eig"),
            (m.corruption, "corrupt_window", "corruption.corrupt_window"),
        ]
        for owner, attr, kw in timed:
            yield owner, attr, lambda fn, kw=kw: t(fn=fn, **kw)
        for owner, attr, key in counted:
            yield owner, attr, lambda fn, key=key: self._counted(key, fn)

    def __enter__(self):
        for owner, attr, make in self._targets():
            original = vars(owner).get(attr)
            if original is None:
                # A refactor moved this name; its metric reads 0 calls.
                print(f"trace: {getattr(owner, '__name__', owner)}.{attr} "
                      "not found, not traced", file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- report --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, unit in TIMED:
            values = self.durations.get(name, [])
            out[f"{name}_{unit}"] = _median(values) * SCALE[unit]
            out[f"{name}_calls"] = len(values)
        for name in COUNTED:
            out[f"{name}_calls"] = self.counts[name]
        out[GFLOPS_METRIC] = _median(self.gflops)
        return out
