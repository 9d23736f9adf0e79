"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 5 trains two desk-scale models and takes
about a minute (it carries the ``slow`` marker); everything else finishes in
seconds.
"""

import functools
import json
import time
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from dflow.baselines import ThresholdParams, adaptive_threshold_mean
from dflow.color import ColorImage, rgb_to_yuv, yuv_to_rgb
from dflow.data import (
    SynthSceneParams,
    load_manifest,
    load_split_windows,
    synth_generate,
)
from dflow.losses import bce_loss, dice_coefficient, focal_loss, silhouette_score
from dflow.network import DFlowConfig, PRESET_CHANNELS, build_dflow
from dflow.recurrent import ConvMguBlock, ConvMguCell, ConvMguStack2
from dflow.tensor import Tensor, Zero, conv2d_same, conv3d_same
from dflow.training import (
    TrainConfig,
    TrainRun,
    gradcheck,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
)

from oracles import (
    block_naive,
    cell_weight_arrays,
    conv2d_naive,
    conv3d_naive,
    convmgu_step_naive,
    stack2_naive,
)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE CRITERION {number} FAIL - {title}")
                raise
            print(f"ACCEPTANCE CRITERION {number} PASS - {title}")
        return wrapper
    return deco


@criterion(1, "parameter-count reproduction (reference 40-map setting, <1s)")
def test_criterion_1_parameter_counts(capsys):
    from dflow.cli import main

    start = time.perf_counter()
    assert main(["params"]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula"]["convlstm2"] == 124160
    assert doc["formula"]["mgu_block"] == 34320
    assert doc["formula"]["mgu_stack2"] == 31040
    reduction = doc["formula"]["block_vs_convlstm2_reduction"]
    assert abs(reduction - (1.0 - 34320 / 124160)) < 1e-12
    assert abs(reduction - 0.7236) < 1e-4
    assert elapsed < 1.0, f"params took {elapsed:.2f}s"


@criterion(2, "gradcheck on a 2-channel k=2 6x6 model with BCE at 1e-4 (<2min)")
def test_criterion_2_gradient_correctness():
    from dflow.data import FrameSequence

    start = time.perf_counter()
    model = build_dflow(DFlowConfig(channels=2, k=2), seed=0)
    rng = np.random.default_rng(0)
    frames = [ColorImage(rng.uniform(0, 1, size=(3, 6, 6))) for _ in range(3)]
    label = (rng.uniform(size=(1, 6, 6)) > 0.5).astype(np.float64)
    sample = FrameSequence(frames=frames, label=label)
    report = gradcheck(model, sample, loss="bce", tolerance=1e-4)
    elapsed = time.perf_counter() - start
    assert report.passed, str(report)
    assert elapsed < 120.0, f"gradcheck took {elapsed:.1f}s"


@criterion(3, "forward ops match naive/compositional oracles within 1e-12 on 20+ instances")
def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cin, cout = rng.integers(1, 4, size=2)
        m = int(rng.choice([1, 3]))
        h, w = rng.integers(2, 7, size=2)
        x = rng.uniform(-1, 1, size=(cin, h, w))
        k = rng.uniform(-1, 1, size=(cout, cin, m, m))
        b = rng.uniform(-1, 1, size=cout)
        got = conv2d_same(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.abs(got - conv2d_naive(x, k, b)).max() < 1e-12

    for _ in range(20):
        cin, cout = rng.integers(1, 3, size=2)
        t, h, w = rng.integers(1, 5, size=3)
        x = rng.uniform(-1, 1, size=(cin, t, h, w))
        k = rng.uniform(-1, 1, size=(cout, cin, 3, 3, 3))
        b = rng.uniform(-1, 1, size=cout)
        got = conv3d_same(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.abs(got - conv3d_naive(x, k, b)).max() < 1e-12

    for i in range(20):
        cell = ConvMguCell(3, 2, 3, np.random.default_rng(100 + i))
        x = rng.uniform(-1, 1, size=(3, 4, 4))
        h_prev = rng.uniform(-1, 1, size=(2, 4, 4))
        got = cell.step(Tensor(x), Tensor(h_prev)).data
        expected, _ = convmgu_step_naive(cell_weight_arrays(cell), x, h_prev)
        assert np.abs(got - expected).max() < 1e-12

    for i in range(20):
        stack = ConvMguStack2(3, 2, 3, np.random.default_rng(200 + i))
        frames = [rng.uniform(-1, 1, size=(3, 4, 4)) for _ in range(3)]
        got = stack.forward_all([Tensor(f) for f in frames])
        expected = stack2_naive(cell_weight_arrays(stack.layer1),
                                cell_weight_arrays(stack.layer2), frames)
        assert len(got) == len(expected)
        for state, want in zip(got, expected):
            assert np.abs(state.data - want).max() < 1e-12

    for i in range(20):
        block = ConvMguBlock(3, 2, 3, 3, np.random.default_rng(300 + i))
        frames = [rng.uniform(-1, 1, size=(3, 4, 4)) for _ in range(3)]
        got = block.forward([Tensor(f) for f in frames]).data
        expected = block_naive(
            cell_weight_arrays(block.layer1), cell_weight_arrays(block.layer2),
            block.shortcut_w.data, block.shortcut_b.data, frames)[-1]
        assert np.abs(got - expected).max() < 1e-12


@criterion(4, "metric oracles: dice exact, silhouette 1e-9, focal==0.5*BCE at 1e-12")
def test_criterion_4_metric_oracles():
    # dice by enumeration
    a = np.zeros((1, 4, 4))
    b = np.zeros((1, 4, 4))
    a[0, 0, :4] = 1.0
    b[0, 0, 2:4] = 1.0
    b[0, 1, 0:2] = 1.0
    assert dice_coefficient(a, b) == 0.5
    assert dice_coefficient(a, a) == 1.0
    assert dice_coefficient(np.zeros((1, 2, 2)), np.zeros((1, 2, 2))) == 1.0

    # silhouette by hand over four scalar-feature points
    v = np.array([[0.0, 0.1, 0.9, 1.0]])
    img = np.stack([v, v, v])
    pred = np.array([[[1.0, 1.0, 0.0, 0.0]]])
    expected = (0.85 / 0.95 + 0.75 / 0.85 + 0.75 / 0.85 + 0.85 / 0.95) / 4.0
    assert abs(silhouette_score(pred[0], img, seed=0) - expected) < 1e-9

    # focal reduction on 100 random mask pairs
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = Tensor(rng.uniform(0.02, 0.98, size=(1, 5, 5)))
        y = (rng.uniform(size=(1, 5, 5)) > 0.5).astype(np.float64)
        f = focal_loss(p, y, alpha=0.5, gamma=0.0).item()
        half_bce = 0.5 * bce_loss(p, y).item()
        assert abs(f - half_bce) < 1e-12


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    params = SynthSceneParams(width=32, height=32, seed=7)
    synth_generate(params, 24, 8, root, splits=["train"] * 20 + ["val"] * 4)
    return load_split_windows(load_manifest(root), k=4)


@pytest.mark.slow
@criterion(5, "desk-scale training: val dice >= 0.90, double-flow >= yuv single-flow (<15min)")
def test_criterion_5_desk_scale_training(desk_dataset):
    start = time.perf_counter()
    seed = 7
    steps = 600
    assert steps <= 2000
    config = TrainConfig(loss="bce", optimizer="adam", lr=1e-3, steps=steps,
                         eval_interval=50, seed=seed)
    small = PRESET_CHANNELS["small"]

    double = build_dflow(DFlowConfig("rgb", "yuv", channels=small, k=4), seed=seed)
    run_double = train(double, desk_dataset, config)
    single = build_dflow(DFlowConfig("yuv", None, channels=small, k=4), seed=seed)
    run_single = train(single, desk_dataset, config)
    elapsed = time.perf_counter() - start

    dice_double = run_double.curve[-1].val_dice
    dice_single = run_single.curve[-1].val_dice
    assert dice_double is not None and dice_single is not None
    assert dice_double >= 0.90, f"double-flow val dice {dice_double:.4f}"
    assert dice_double >= dice_single, (
        f"double {dice_double:.4f} < single-yuv {dice_single:.4f}")

    # train loss decreases: mean over the last 10% of steps beats the first 10%
    losses = [r.train_loss for r in run_double.curve]
    tenth = max(1, len(losses) // 10)
    assert np.mean(losses[-tenth:]) < np.mean(losses[:tenth])
    assert elapsed < 15 * 60, f"training took {elapsed / 60:.1f} min"


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    params = SynthSceneParams(width=8, height=8, seed=1)
    synth_generate(params, 4, 5, root, splits=["train"] * 3 + ["val"])
    return load_split_windows(load_manifest(root), k=2)


@criterion(6, "invariants: bounds over 1000 steps, shift invariance, round trip, "
              "checkpoint/resume and curve bit-exactness")
def test_criterion_6_invariant_suites(micro_dataset, tmp_path):
    # gate in (0,1), hidden state in [-1,1] across 1000 random steps
    rng = np.random.default_rng(2)
    steps_done = 0
    while steps_done < 1000:
        cell = ConvMguCell(2, 3, 3, rng)
        h = Zero((3, 5, 5))
        for _ in range(10):
            x = Tensor(rng.uniform(-1, 1, size=(2, 5, 5)))
            h, f = cell.step_with_gate(x, h)
            assert np.all(f.data > 0.0) and np.all(f.data < 1.0)
            assert np.all(np.abs(h.data) <= 1.0)
            steps_done += 1

    # mean-adaptive threshold is brightness-shift invariant on 50 random images
    p = ThresholdParams(window=5, c=0.02)
    for _ in range(50):
        g = rng.uniform(0.0, 0.5, size=(12, 12))
        shift = rng.uniform(0.0, 0.5)
        npt.assert_array_equal(adaptive_threshold_mean(g, p),
                               adaptive_threshold_mean(g + shift, p))

    # colour round trip
    img = ColorImage(rng.uniform(0, 1, size=(3, 32, 32)))
    assert np.abs(yuv_to_rgb(rgb_to_yuv(img)) - img.pixels).max() < 1e-6

    # fixed-seed training curves are bit-identical across two runs
    config = TrainConfig(steps=8, eval_interval=4, lr=1e-3, seed=3)
    curves = []
    for _ in range(2):
        model = build_dflow(DFlowConfig(channels=2, k=2), seed=3)
        run = train(model, micro_dataset, config)
        curves.append([(r.step, r.train_loss, r.val_loss, r.val_dice)
                       for r in run.curve])
    assert curves[0] == curves[1]

    # checkpoint save/load/save byte-identity and bit-exact resume
    full = TrainConfig(steps=10, eval_interval=5, lr=1e-3, seed=4)
    straight = train(build_dflow(DFlowConfig(channels=2, k=2), seed=4),
                     micro_dataset, full)
    half_cfg = TrainConfig(**{**asdict(full), "steps": 5})
    half = train(build_dflow(DFlowConfig(channels=2, k=2), seed=4),
                 micro_dataset, half_cfg)
    half = TrainRun(model=half.model, config=full,
                    adam_m=half.adam_m, adam_v=half.adam_v, curve=half.curve)
    p1, p2 = tmp_path / "a.dflw", tmp_path / "b.dflw"
    save_checkpoint(half, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    resumed = resume(load_checkpoint(p1), micro_dataset)
    for name, t in straight.model.parameters().items():
        npt.assert_array_equal(resumed.model.parameters()[name].data, t.data)


@criterion(7, "shape/boundedness regression: output is 1xHxW and strictly in (0,1)")
def test_criterion_7_shape_regression():
    rng = np.random.default_rng(5)
    for h, w in ((4, 4), (6, 10), (9, 5)):
        for k in (1, 3):
            for channels in (2, 5):
                model = build_dflow(
                    DFlowConfig("rgb", "yuv", channels=channels, k=k), seed=6)
                frames = [ColorImage(rng.uniform(0, 1, size=(3, h, w)))
                          for _ in range(k + 1)]
                probs = model.forward_window(frames).data
                assert probs.shape == (1, h, w)
                assert np.all(probs > 0.0) and np.all(probs < 1.0)
                binary = (probs > 0.5)
                assert binary.size == h * w  # threshold classifies every pixel
