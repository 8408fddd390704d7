"""Smoke test of the benchmark itself.

Runs every workload at the tiny size, untraced and traced, and checks that
the result line carries every metric BENCHMARK.json names, with its unit,
and that the summary lines name the workload's own metrics.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SUMMARY_NAMES = {
    "train_vanilla": ("train_windows_per_s", "step_ms_p50", "step_ms_p90",
                      "valid_loss"),
    "train_dsf_aug": ("train_windows_per_s", "step_ms_p50", "step_ms_p90",
                      "valid_loss"),
    "eval_grid": ("eval_cells_per_s", "cell_ms_p50", "cell_ms_p90"),
    "sweep_jobs2": ("sweep_s",),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == run.layertrace.metric_units())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in expected]
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))

    summary = "\n".join(lines[:-1])
    assert "# env {" in summary and "error_rate = " in summary
    if not trace:
        for name in ("setup_s", "peak_rss_mb") + SUMMARY_NAMES[workload]:
            assert f"# {name} = " in summary, name


def test_wrong_kernel_fails_the_run(monkeypatch, capsys):
    """A TemporalConv backward that skips its weight gradient is fast and
    trains to finite losses; the reference check must fail the run."""
    nn = run.load_dsfnet().nn
    backward = nn.TemporalConv.backward

    def backward_without_weight_grad(layer, dout, store):
        grad = store[layer.w_name].grad.copy()
        dx = backward(layer, dout, store)
        store[layer.w_name].grad[...] = grad
        return dx
    monkeypatch.setattr(nn.TemporalConv, "backward",
                        backward_without_weight_grad)
    code = run.main(["--workload", "train_vanilla", "--seed", "3",
                     "--seconds", "0", "--trace", "0", "--size", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
