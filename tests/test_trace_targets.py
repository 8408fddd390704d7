"""Every name the benchmark's layer trace wraps is defined where it looks.

perfbench/layertrace.py finds each traced function or method with
vars(owner).get(attr) and, when the name is missing (moved into a base
class or out of the module), only prints that it is not traced, so its
per-layer metric reads 0. This test fails instead.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_every_traced_name_is_defined_on_its_owner():
    tracer = run.layertrace.Tracer(run.load_dsfnet())
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer._targets()
               if attr not in vars(owner)]
    assert missing == []


# The benchmark's two hooks that the layer trace does not cover: StepClock
# times a step by rebinding dsfnet.harness.adamw_step, and the numerics
# check slices the array that Dataset.windows_and_labels returns.

def _tiny_dataset(d):
    cfg = d.synth.SynthConfig(n_channels=3, n_times=128, n_recordings=12,
                              windows_per_recording=3)
    return d.synth.split_dataset(d.synth.generate_dataset(cfg, 0),
                                 (0.5, 0.25, 0.25), 0)


def test_a_rebound_adamw_step_is_called_once_per_training_step(monkeypatch):
    d = run.load_dsfnet()
    calls = []
    original = d.harness.adamw_step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(d.harness, "adamw_step", counting)
    train = d.nn.TrainConfig(max_epochs=2, patience=2, t_max=2, batch_size=4)
    net = d.nn.ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                                n_spatial_filters=2, pool_width=20,
                                pool_stride=10)
    cfg = d.harness.ExperimentConfig(models=[("vanilla", "none")],
                                     train=train, net=net)
    ds = _tiny_dataset(d)
    _, log = d.harness.train_model_unit(cfg, ds, "vanilla", "none", 1)
    n_train = sum(len(r.windows) for r in ds.split("train"))
    assert len(calls) == len(log.train_losses) * -(-n_train // 4)


def test_windows_and_labels_returns_one_c_contiguous_array():
    d = run.load_dsfnet()
    ds = _tiny_dataset(d)
    X, y = ds.windows_and_labels("valid")
    recs = ds.split("valid")
    assert type(X) is d.np.ndarray and X.flags.c_contiguous
    assert X.shape == (len(y), 3, 128) and X.dtype == d.np.float64
    assert X.tobytes() == b"".join(r.windows.tobytes() for r in recs)
