"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402

# T=3 on the linear schedule switches layers 3, 2 and 1, so the trace
# covers conv, switched attention and fresh attention (layer 4 starts as SA).
TINY_DESK = ["train", "--preset", "desk", "--set", "data.dataset=synthetic",
             "--set", "schedule.total_epochs=3", "--set", "data.seed=7"]


def _final_loss(out_dir) -> float:
    with open(os.path.join(out_dir, "metrics.jsonl")) as fh:
        return [json.loads(line) for line in fh][-1]["train_loss"]


def _convattn_namespace() -> dict:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "convattn" or name.startswith("convattn.")
            for attr, value in vars(mod).items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    plain = child.train_op(TINY_DESK + ["--out", str(out / "plain")])
    before = _convattn_namespace()
    traced = child.train_op(TINY_DESK + ["--out", str(out / "traced")], trace=True)
    return {"plain": plain, "traced": traced, "dir": out, "restored": _convattn_namespace() == before}


def test_traced_run_gives_bitwise_the_same_final_loss(runs):
    assert runs["plain"]["exit_code"] == 0 and runs["traced"]["exit_code"] == 0
    assert _final_loss(runs["dir"] / "traced") == _final_loss(runs["dir"] / "plain")


def test_tracer_puts_every_original_back(runs):
    assert runs["restored"]


def test_spans_close_and_self_times_sum_to_wall(runs):
    traced = runs["traced"]
    assert traced["open_spans"] == 0
    assert traced["trace_self_total_s"] == pytest.approx(traced["trace_wall_s"], rel=1e-9)


def test_backward_time_lands_on_the_recording_layer(runs):
    lay = runs["traced"]["layers"]
    assert lay["reparam.switch_block.calls"] == 3
    assert lay["tensor.backward.calls"] == lay["optim.adamw_step.calls"] == 6  # 200 images, batch 128
    for name in ("blocks.attention_mix", "blocks.mhsa", "blocks.conv_mixer", "blocks.mlp", "train.loss"):
        assert lay[f"{name}.bwd_s"] > 0, name
    assert lay["kernels.attn_softmax_backward.calls"] > 0
    assert 0 < lay["kernels.attn_probs.subnormal_frac"] < 1


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_match_benchmark_json(trace, section):
    out = _run_bench(ROOT, "--workload", "analyze", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _bench_json()[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    units = layers.layer_units() if trace == "1" else layers.E2E_UNITS
    assert units == declared


def test_benchmark_json_lists_every_workload():
    import run

    assert [w["name"] for w in _bench_json()["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = _run_bench(tmp_path, "--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
