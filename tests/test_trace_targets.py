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



def test_traced_names_sit_on_the_forward_call_path():
    # A table that captured a traced function at import would call the
    # original, not the wrapper, and its count would read 0.
    d = run.load_dsfnet()
    X = d.np.random.default_rng(0).normal(size=(2, 4, 128))
    net = d.nn.ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                                n_spatial_filters=2, pool_width=20,
                                pool_stride=10)
    with run.layertrace.Tracer(d) as tracer:
        for name in ("dsfd", "dsfm_st", "dynamic"):
            d.harness.DeepModel(name, 4, 128, net, 0).forward(X)
    metrics = tracer.metrics()
    assert {key: metrics[key] for key in (
        "spatial.compute_summary_calls", "linalg.oas_shrink_calls",
        "linalg.matrix_log_eig_calls", "attention.summaries_calls")} == {
        "spatial.compute_summary_calls": 3, "linalg.oas_shrink_calls": 2,
        "linalg.matrix_log_eig_calls": 2, "attention.summaries_calls": 2}


def test_a_traced_training_reads_one_validation_pass_per_epoch():
    # The trace finds the validation pass by its eval-mode DeepModel.forward
    # calls, each followed by harness.softmax_xent.
    d = run.load_dsfnet()
    ds = _tiny_dataset(d)
    with run.layertrace.Tracer(d) as tracer:
        d.harness.train_model_unit(_tiny_config(d, 3), ds, "vanilla", "none",
                                   1)
    assert tracer.metrics()["harness.valid_pass_calls"] == 3


# The benchmark's two hooks that the layer trace does not cover: StepClock
# times a step by rebinding dsfnet.harness.adamw_step, and the numerics
# check slices the array that Dataset.windows_and_labels returns.

def _tiny_config(d, epochs):
    """A vanilla unit trained for exactly `epochs` epochs of batch 4."""
    train = d.nn.TrainConfig(max_epochs=epochs, patience=epochs,
                             t_max=epochs, batch_size=4)
    net = d.nn.ShallowNetConfig(n_temporal_filters=2, temporal_kernel=9,
                                n_spatial_filters=2, pool_width=20,
                                pool_stride=10)
    return d.harness.ExperimentConfig(models=[("vanilla", "none")],
                                      train=train, net=net)


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
    ds = _tiny_dataset(d)
    _, log = d.harness.train_model_unit(_tiny_config(d, 2), ds, "vanilla",
                                        "none", 1)
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
