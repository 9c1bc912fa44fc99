"""Self-test of the benchmark at a desk scale.

Every workload runs at ``ModelConfig.micro``, one optimizer step and two
requests, traced and untraced, through the same ``main`` the benchmark
command runs.  Run with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package path set above)
from medlitenet import model  # noqa: E402
from medlitenet.autodiff import Tensor  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def micro(monkeypatch):
    for name, plan in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, workloads.quick(plan))


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["report"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_every_metric(micro, capsys, workload, trace):
    code, result, report = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0.0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["trace.request_coverage_pct"] >= 90.0
    assert values["autodiff.conv_1x1.calls"] > 0
    assert values["model.head.fwd_ms"] > 0
    if workload.startswith("train"):
        assert values["trace.fit_coverage_pct"] >= 90.0
        assert values["autodiff.tape_mib"] > 0
        assert values["autodiff.conv_dw.bwd_ms"] > 0
        assert values["model.stage1.tape_mib"] > 0
        assert values["training.adamw_ms"] > 0
    else:
        assert values["autodiff.tape_nodes"] == 0
        assert values["checkpoint.load_ms"] > 0


@pytest.mark.parametrize("workload", ["train-default64", "infer-default256"])
def test_nan_output_counts_as_failure(micro, capsys, monkeypatch, workload):
    def nan_forward(net, x):
        n, _, h, w = x.shape
        return Tensor(np.full((n, 1, h, w), np.nan, dtype=np.float32))

    monkeypatch.setattr(model.MedLiteNet, "__call__", nan_forward)
    code, result, report = bench(capsys, workload, 0)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert report["error_rate"] > 0
    assert report["failures"]


def test_tracer_restores_every_callable():
    from medlitenet import blocks, training

    before = (training.fit, training.backward, blocks.conv2d,
              blocks.Conv2d.__call__, model.MedLiteNet.__call__)
    with workloads.Tracer():
        assert blocks.conv2d is not before[2]
    after = (training.fit, training.backward, blocks.conv2d,
             blocks.Conv2d.__call__, model.MedLiteNet.__call__)
    assert after == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                          "infer-default256"], cwd=tmp_path, timeout=120,
                         capture_output=True, text=True)
    assert out.returncode != 0
    assert out.stdout == ""
