"""Tests of the benchmark itself (not of dflow): ``python -m pytest bench``.

They use 8x8 frames and 2-channel models so they run in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402
from dflow import network, tensor, training  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402

TINY = dict(flow_a_space="rgb", flow_b_space="yuv", channels=2, k=workloads.K)
TINY_BLOCK = dict(TINY, use_block=True)
SEED = 5


@pytest.fixture(scope="module")
def windows(tmp_path_factory):
    return workloads.make_windows(tmp_path_factory.mktemp("tiny"), SEED, (3, 1, 1), size=8)


def _model(kwargs):
    return network.build_dflow(network.DFlowConfig(**kwargs), seed=SEED)


def _drive(model, windows, train_kwargs, steps, interval, tracer=None):
    """Stepwise training as the workloads drive it, optionally traced."""
    run = workloads.start_run(model, SEED, train_kwargs)
    rec = workloads.Recorder(tracer)
    for _ in range(steps):
        assert workloads._train_step(rec, run, {"train": windows["train"]})
        if run.step % interval == 0 or run.step == steps:
            with rec.section("training.val_pass", model):
                workloads.validate(run, windows["val"])
    return run, rec


def _curve(run):
    return [(r.step, r.train_loss, r.val_loss, r.val_dice) for r in run.curve]


def _same_state(a, b):
    pa, pb = a.model.parameters(), b.model.parameters()
    assert pa.keys() == pb.keys()
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data), name
        assert np.array_equal(a.adam_m[name], b.adam_m[name]), name
        assert np.array_equal(a.adam_v[name], b.adam_v[name]), name


@pytest.mark.parametrize("model_kwargs, train_kwargs", [
    (TINY, workloads.DESK_TRAIN),
    (TINY_BLOCK, workloads.BASE_BLOCK_TRAIN),
])
def test_stepwise_driving_reproduces_train(windows, model_kwargs, train_kwargs):
    steps, interval = 7, 3
    kwargs = dict(train_kwargs, eval_interval=interval)
    data = {"train": windows["train"], "val": windows["val"]}
    whole = training.train(_model(model_kwargs), data,
                           training.TrainConfig(seed=SEED, steps=steps, **kwargs))
    stepped, _ = _drive(_model(model_kwargs), windows, kwargs, steps, interval)
    assert _curve(stepped) == _curve(whole)
    assert stepped.step == whole.step
    _same_state(stepped, whole)


@pytest.mark.parametrize("model_kwargs", [TINY, TINY_BLOCK])
def test_traced_run_is_bit_identical(windows, model_kwargs):
    kwargs = dict(workloads.DESK_TRAIN, eval_interval=2)
    plain, _ = _drive(_model(model_kwargs), windows, kwargs, 4, 2)
    tracer = Tracer()
    traced, rec = _drive(_model(model_kwargs), windows, kwargs, 4, 2, tracer)
    assert _curve(traced) == _curve(plain)
    _same_state(traced, plain)
    assert rec.traced_scaled_ms and rec.op_ms  # steps alternated traced / untraced

    for seq in windows["test"]:
        expect = plain.model.predict(seq.frames)
        with tracer.op("infer.window", traced.model):
            got = traced.model.predict(seq.frames)
            scores = workloads.score_window(got, seq)
        assert np.array_equal(got, expect)
        assert scores[:2] == workloads.score_window(expect, seq)[:2]

    names = {span[0] for span in tracer.spans}
    assert {"training.step", "training.val_pass", "network.forward", "tensor.conv2d",
            "tensor.backward", "recurrent.flow_b.layer2", "losses.bce",
            "losses.silhouette", "baselines.dtransform"} <= names
    if model_kwargs.get("use_block"):
        assert {"tensor.conv3d", "recurrent.flow_a.block"} <= names


def test_uninstall_restores_every_binding(windows):
    model = _model(TINY_BLOCK)
    from dflow import recurrent
    before = (tensor.conv2d_same, recurrent.conv2d_same, training.backward, vars(model).copy())
    tracer = Tracer()
    tracer.install(model)
    assert recurrent.conv2d_same is not before[1]
    assert "forward_window" in vars(model)
    tracer.uninstall()
    assert (tensor.conv2d_same, recurrent.conv2d_same, training.backward) == before[:3]
    assert vars(model) == before[3]
    assert "step" not in vars(model.flow_a.layer1)


def test_layer_metrics_count_per_window(windows):
    model = _model(TINY)
    tracer = Tracer()
    run, rec = _drive(model, windows, dict(workloads.DESK_TRAIN, eval_interval=2), 4, 2, tracer)
    rec.scalars["batch_size"] = 1
    values = runner.layer_metrics(tracer.spans, tracer.counters, rec)
    assert values.keys() == runner.LAYER_METRICS.keys()
    # 2 flows x 2 layers x 5 frames x 4 convs, plus the decoder
    assert values["tensor.conv2d_calls"] == 81
    assert values["tensor.tape_records"] == workloads.tape_records_per_window(
        model, windows["train"][0], run.config)
    assert values["tensor.conv3d_fwd_ms"] == 0 and values["recurrent.shortcut_ms"] == 0
    assert values["network.forward_ms"] > values["recurrent.flow_a.layer1_ms"] > 0
    assert values["tensor.backward_ms"] > 0 and values["training.val_pass_ms"] > 0


def test_self_time_on_hand_built_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],        # overlaps a: the union counts once
        ["c", 8.0, 12.0, 0],       # runs past its parent: clipped to 10
        ["a.child", 2.0, 3.0, 1],
        ["other", 20.0, 21.5, -1],
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0, 1.5]
    rows = summarize(spans)
    assert rows["root"] == {"count": 1, "total_s": 10.0, "self_s": 3.0}
    assert rows["a"]["self_s"] == 2.0


def test_workload_seed_changes_inputs(tmp_path):
    def digest(seed, sub):
        return workloads.windows_digest(
            workloads.make_windows(tmp_path / sub, seed, (1, 1, 0), size=8))

    assert digest(1, "a") == digest(1, "b")
    assert digest(1, "c") != digest(2, "d")


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(runner.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == runner.LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(parent, faster, "lower", 0.1) == (1.0, "improved")
    assert compare.verdict(parent, slower, "lower", 0.1)[1] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1) == (0.0, "within bound")
    assert compare.verdict(parent, noisy, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1)[1] == "improved"
    assert compare.verdict(parent, slower, "lower", None)[1] == "no bound"
    mostly = [v * (0.97 if i < 8 else 1.05) for i, v in enumerate(parent)]
    assert compare.verdict(parent, mostly, "lower", 0.1) == (0.8, "within bound")


def test_compare_reads_run_output():
    def output(workload, op_ms, failed=0):
        detail = {"workload": workload, "figures": {
            "op_wall_ms": {"median": op_ms * 1.1, "better": "lower"}}}
        final = {"correct": not failed, "attempted": 10, "failed": failed,
                 "metrics": {"op_ms": {"value": op_ms, "unit": "ms"}}}
        return f"table line\n{json.dumps({'bench_detail': detail})}\n{json.dumps(final)}\n"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = "".join(output("desk-train", 100.0 + i) for i in range(10))
    change = "".join(output("desk-train", 70.0 + i, failed=i == 0) for i in range(10))
    rows = compare.compare(parent, change, spec)
    assert any(r.split()[:2] == ["desk-train", "op_ms"] and r.endswith("improved") for r in rows)
    assert any("op_wall_ms" in r and r.endswith("improved") for r in rows)
    failed = next(r for r in rows if "failed ops" in r).split()
    assert failed[3:5] == ["0", "1"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    runner exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "desk-train", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
