import copy
import json
import math
import struct
from dataclasses import asdict, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dflow.tensor as tensor_mod
import dflow.training as training_mod
from dflow.color import ColorImage
from dflow.data import FrameSequence, SynthSceneParams, load_manifest, \
    load_split_windows, synth_generate
from dflow.network import DFlowConfig, build_dflow
from dflow.tensor import Tensor, backward, sigmoid
from dflow.training import (
    CheckpointError,
    DivergenceError,
    TrainConfig,
    evaluate,
    gradcheck,
    load_checkpoint,
    resume,
    save_checkpoint,
    train,
    TrainRun,
    write_curve_csv,
)

from fixtures import v1_checkpoint
from fuzz import damaged, fuzz_settings
from oracles import BLOCK_WINDOW_RECORDS, DESK_WINDOW_RECORDS, hadamard, resume_one_tape

V1_BLOB = v1_checkpoint.CHECKPOINT.read_bytes()
V1_HEADER_END = 16 + struct.unpack_from("<Q", V1_BLOB, 8)[0]
V1_HEADER = json.loads(V1_BLOB[16:V1_HEADER_END])
# every config field and curve slot of the v1 header, as a path into it
V1_SLOTS = [(key, name) for key in ("model_config", "train_config") for name in V1_HEADER[key]]
V1_SLOTS += [("curve", i, j) for i in range(len(V1_HEADER["curve"])) for j in range(4)]
OWN_VALUE = "the field's own value"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyset")
    params = SynthSceneParams(width=8, height=8, seed=0)
    synth_generate(params, 4, 5, root, splits=["train", "train", "train", "val"])
    return load_split_windows(load_manifest(root), k=2)


def tiny_model(seed=0, channels=2, k=2):
    return build_dflow(DFlowConfig(channels=channels, k=k), seed=seed)


def tiny_config(**overrides):
    base = dict(steps=5, eval_interval=2, lr=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def snapshot(model):
    return {name: t.data.copy() for name, t in model.parameters().items()}


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self, tiny_dataset):
        model = tiny_model()
        before = snapshot(model)
        train(model, tiny_dataset, tiny_config(lr=0.0))
        for name, arr in snapshot(model).items():
            npt.assert_array_equal(arr, before[name])

    def test_fixed_seed_runs_are_bit_identical(self, tiny_dataset):
        runs = [train(tiny_model(seed=1), tiny_dataset, tiny_config(steps=6))
                for _ in range(2)]
        a, b = (r.curve for r in runs)
        assert [(r.step, r.train_loss, r.val_loss, r.val_dice) for r in a] == \
               [(r.step, r.train_loss, r.val_loss, r.val_dice) for r in b]
        for name, arr in snapshot(runs[0].model).items():
            npt.assert_array_equal(arr, snapshot(runs[1].model)[name])

    def test_empty_train_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            train(tiny_model(), {"train": [], "val": []}, tiny_config())

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("beta1", float("nan")),
        ("adam_eps", float("-inf")), ("focal_gamma", float("inf")),
    ])
    def test_non_finite_config_number_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("beta1", -0.1, "in [0, 1)"), ("beta1", 1.0, "in [0, 1)"),
        ("beta2", 2.0, "in [0, 1)"), ("adam_eps", 0.0, "> 0"),
        ("focal_alpha", 0.0, "in (0, 1]"), ("focal_alpha", 1.5, "in (0, 1]"),
        ("focal_gamma", -1.0, ">= 0"),
    ])
    def test_out_of_range_optimiser_or_loss_number_is_rejected(self, field, value, rule):
        # Adam's sqrt of a negative second moment (beta2 > 1) or focal_loss
        # would fail only at the first step; the config names the field first
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == f"{field} must be {rule}, got {value}"

    @pytest.mark.parametrize("field, value", [("loss", "dice"), ("optimizer", "sgd")])
    def test_unknown_loss_or_optimizer_is_rejected(self, field, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == f"unknown {field} {value!r}"

    @pytest.mark.parametrize("field, value, message", [
        ("lr", -1e-3, "lr must be >= 0"),
        ("steps", 0, "steps, batch_size and eval_interval must be >= 1"),
        ("batch_size", 0, "steps, batch_size and eval_interval must be >= 1"),
        ("eval_interval", 0, "steps, batch_size and eval_interval must be >= 1"),
    ])
    def test_negative_lr_or_count_below_one_is_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message

    def test_divergence_aborts_with_diagnostic(self, tiny_dataset):
        model = tiny_model()
        model.decoder_b.data[...] = np.nan
        with pytest.raises(DivergenceError, match="step 1"):
            train(model, tiny_dataset, tiny_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_non_finite_validation_loss_is_a_divergence(self, tiny_dataset):
        # the first step's training loss is finite; its update overflows the model
        with pytest.raises(DivergenceError) as info:
            train(tiny_model(), tiny_dataset, tiny_config(steps=1, lr=1e308))
        assert str(info.value) == "non-finite validation loss nan at step 1 (seed 0, lr 1e+308)"

    def test_loss_decreases_on_tiny_problem(self, tiny_dataset):
        run = train(tiny_model(seed=2), tiny_dataset, tiny_config(steps=60))
        losses = [r.train_loss for r in run.curve]
        assert np.mean(losses[-6:]) < np.mean(losses[:6])

    def test_batched_steps_consume_batch_windows(self, tiny_dataset):
        run = train(tiny_model(seed=3), tiny_dataset,
                    tiny_config(steps=4, batch_size=2))
        assert run.step == 4 and len(run.curve) == 4

    def test_eval_records_on_interval_and_final_step(self, tiny_dataset):
        run = train(tiny_model(seed=4), tiny_dataset,
                    tiny_config(steps=5, eval_interval=2))
        with_val = [r.step for r in run.curve if r.val_loss is not None]
        assert with_val == [2, 4, 5]


def fixture_model(use_block, seed=5):
    return build_dflow(DFlowConfig(flow_a_space="rgb", flow_b_space="yuv", channels=2,
                                   k=2, use_block=use_block), seed=seed)


def curve_array(run):
    return np.array([[r.step, r.train_loss, r.val_loss, r.val_dice] for r in run.curve],
                    dtype=np.float64)  # None reads as NaN


class TestOneWindowAtATime:
    """A step records and replays one window's tape at a time, last window
    first; ``oracles.resume_one_tape`` replays the whole batch from one tape."""

    DATA = {"train": [v1_checkpoint.fixture_window(seed=s) for s in (11, 12, 13)],
            "val": [v1_checkpoint.fixture_window(seed=14)]}

    @pytest.mark.parametrize("use_block", [False, True], ids=["stack", "block"])
    @pytest.mark.parametrize("loss", ["bce", "focal"])
    @pytest.mark.parametrize("optimizer", ["adam"])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
    def test_matches_the_one_tape_step_bit_for_bit(self, batch_size, optimizer, loss,
                                                   use_block):
        config = TrainConfig(loss=loss, optimizer=optimizer, batch_size=batch_size,
                             steps=3, lr=1e-2, seed=1, eval_interval=2)
        got, want = (step_fn(TrainRun(model=fixture_model(use_block), config=config),
                             self.DATA)
                     for step_fn in (resume, resume_one_tape))
        npt.assert_array_equal(curve_array(got), curve_array(want))
        params = got.model.parameters()
        for name, p in want.model.parameters().items():
            npt.assert_array_equal(params[name].data, p.data)
            npt.assert_array_equal(params[name].grad, p.grad)
            npt.assert_array_equal(np.signbit(params[name].grad), np.signbit(p.grad))
        assert got.adam_m.keys() == want.adam_m.keys() == got.adam_v.keys()
        for name in want.adam_m:
            npt.assert_array_equal(got.adam_m[name], want.adam_m[name])
            npt.assert_array_equal(got.adam_v[name], want.adam_v[name])

    @pytest.mark.parametrize("use_block, loss, records", [
        (False, "bce", DESK_WINDOW_RECORDS),
        (True, "focal", BLOCK_WINDOW_RECORDS),
    ], ids=["stack_bce", "block_focal"])
    @pytest.mark.parametrize("batch_size", [2, 3])
    def test_a_batched_window_records_what_one_window_alone_does(
            self, monkeypatch, batch_size, use_block, loss, records):
        lengths = []

        def spy(tape, *args, **kwargs):
            lengths.append(len(tape))
            return backward(tape, *args, **kwargs)

        monkeypatch.setattr(training_mod, "backward", spy)
        model = build_dflow(DFlowConfig(channels=2, k=4, use_block=use_block), seed=5)
        data = {"train": [v1_checkpoint.fixture_window(seed=s, k=4) for s in (11, 12, 13)]}
        resume(TrainRun(model=model, config=TrainConfig(loss=loss, batch_size=batch_size,
                                                        steps=1)), data)
        assert lengths == [records] * batch_size

    def test_step_peak_does_not_grow_with_the_batch(self, traced_memory):
        data = {"train": [v1_checkpoint.fixture_window(seed=s, side=16) for s in range(4)]}

        def step_peak(batch_size):
            run = TrainRun(model=fixture_model(use_block=False),
                           config=TrainConfig(steps=1, batch_size=batch_size))
            return traced_memory(resume, run, data)[1]

        step_peak(1)  # lazy set-up outside the measured steps
        one, four = step_peak(1), step_peak(4)
        assert four <= 1.25 * one, (four, one)

    @pytest.mark.parametrize("seed", [0, 3], ids=["bad_last", "bad_first"])
    def test_non_finite_window_aborts_before_any_update(self, seed):
        good = [v1_checkpoint.fixture_window(seed=s) for s in (11, 12)]
        bad = v1_checkpoint.fixture_window(seed=13)
        bad.frames[0] = ColorImage(np.full_like(bad.frames[0].pixels, np.nan))
        config = TrainConfig(loss="focal", steps=1, batch_size=2, seed=seed)
        runs = [TrainRun(model=fixture_model(use_block=True), config=config)
                for _ in range(2)]
        for run, step_fn in zip(runs, (resume, resume_one_tape)):
            step_fn(run, {"train": good})
            run.config = replace(config, steps=2)
        run = runs[0]
        before = (snapshot(run.model), copy.deepcopy(run.adam_m), copy.deepcopy(run.adam_v))
        # step 2 takes both windows of the two-window split, in either order
        with pytest.raises(DivergenceError, match="at step 2") as info:
            resume(run, {"train": [good[0], bad]})
        with pytest.raises(DivergenceError) as expected:
            resume_one_tape(runs[1], {"train": [good[0], bad]})
        assert str(info.value) == str(expected.value)
        assert run.step == 1 and len(run.curve) == 1
        for saved, now in zip(before, (snapshot(run.model), run.adam_m, run.adam_v)):
            assert saved.keys() == now.keys()
            for name, arr in saved.items():
                npt.assert_array_equal(now[name], arr)


class SinglePixelModel:
    """p = sigmoid(w * x) on a one-pixel frame; the smallest trainable model."""

    def __init__(self, w0=0.2):
        self.w = Tensor(np.full((1, 1, 1), w0), requires_grad=True)

    def parameters(self):
        return {"w": self.w}

    def forward_window(self, frames):
        x = Tensor(frames[-1].pixels[1:2])  # green channel of the only pixel
        return sigmoid(hadamard(self.w, x))


class TestAdam:
    def test_single_scalar_step_matches_hand_computation(self):
        seq_px = np.zeros((3, 1, 1))
        seq_px[1] = 1.0
        seq = FrameSequence(frames=[ColorImage(seq_px)],
                            label=np.array([[[1.0]]]))
        model = SinglePixelModel(w0=0.0)
        config = TrainConfig(optimizer="adam", lr=0.1, steps=1, seed=0)
        train(model, {"train": [seq]}, config)
        g = 0.5 - 1.0   # sigmoid(0) - y, times x = 1
        m_hat = g       # bias correction cancels the (1 - beta1) factor
        v_hat = g * g
        expected = 0.0 - 0.1 * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        npt.assert_allclose(model.w.data, expected, atol=1e-15)

    def test_trajectory_matches_hand_iterated_recurrence(self):
        x = 0.7
        y = 1.0
        px = np.zeros((3, 1, 1))
        px[1] = x
        seq = FrameSequence(frames=[ColorImage(px)],
                            label=np.array([[[y]]]))
        model = SinglePixelModel(w0=0.2)
        config = TrainConfig(lr=0.05, steps=20, seed=0)
        run = train(model, {"train": [seq]}, config)
        # hand recurrence: dL/dw = (sigmoid(w x) - y) x on the single pixel,
        # then Adam's moments and their bias corrections
        b1, b2 = config.beta1, config.beta2
        w, m, v = 0.2, 0.0, 0.0
        for t in range(1, 21):
            g = (1.0 / (1.0 + np.exp(-w * x)) - y) * x
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            w -= config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
        npt.assert_allclose(run.model.w.data, w, atol=1e-12)
        npt.assert_allclose(run.adam_m["w"], m, atol=1e-12)
        npt.assert_allclose(run.adam_v["w"], v, atol=1e-12)


class TestGradcheck:
    def make_sample(self, rng, side=6, k=2):
        frames = [ColorImage(rng.uniform(0, 1, size=(3, side, side)))
                  for _ in range(k + 1)]
        label = (rng.uniform(size=(1, side, side)) > 0.5).astype(np.float64)
        return FrameSequence(frames=frames, label=label)

    def test_small_dflow_passes(self):
        rng = np.random.default_rng(0)
        model = tiny_model(seed=5)
        report = gradcheck(model, self.make_sample(rng), loss="bce", tolerance=1e-4)
        assert report.passed, str(report)

    def test_linear_decoder_only_model_is_nearly_exact(self):
        from dflow.tensor import conv2d_same

        class DecoderOnly:
            def __init__(self):
                rng = np.random.default_rng(1)
                self.w = Tensor(rng.uniform(-1, 1, size=(1, 3, 3, 3)),
                                requires_grad=True)
                self.b = Tensor(np.zeros((1,)), requires_grad=True)

            def parameters(self):
                return {"w": self.w, "b": self.b}

            def forward_window(self, frames):
                return sigmoid(conv2d_same(Tensor(frames[-1].pixels), self.w, self.b))

        rng = np.random.default_rng(2)
        sample = self.make_sample(rng, side=5, k=0)
        # worst relative error 4.6e-9 (w) under the SkylakeX kernel
        report = gradcheck(DecoderOnly(), sample, loss="bce", tolerance=1e-8)
        assert report.passed, str(report)

    def test_unknown_loss_name_is_rejected(self):
        model = tiny_model(seed=5)
        sample = self.make_sample(np.random.default_rng(0))
        for name in ("dice", "BCE", ""):
            with pytest.raises(ValueError, match="unknown loss"):
                gradcheck(model, sample, loss=name)

    def test_corrupted_gate_backward_fails(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=6)
        monkeypatch.setattr(tensor_mod, "_d_sigmoid", lambda y: -(y * (1.0 - y)))
        report = gradcheck(model, self.make_sample(rng), loss="bce")
        assert not report.passed

    def test_non_finite_analytic_gradient_is_a_divergence(self):
        model = tiny_model(seed=5)
        model.decoder_b.data[...] = np.nan
        with pytest.raises(DivergenceError, match="non-finite analytic gradient for "):
            gradcheck(model, self.make_sample(np.random.default_rng(0)))

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0.0, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        sample = self.make_sample(np.random.default_rng(0))
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            gradcheck(tiny_model(seed=5), sample, tolerance=tolerance)

    def test_oversized_model_rejected(self):
        rng = np.random.default_rng(4)
        model = build_dflow(DFlowConfig(channels=16, k=2), seed=7)
        with pytest.raises(ValueError):
            gradcheck(model, self.make_sample(rng))


class TestEvaluate:
    def test_zero_decoder_on_nonempty_labels_scores_dice_zero(self, tiny_dataset):
        model = tiny_model(seed=8)
        model.decoder_w.data[...] = 0.0
        model.decoder_b.data[...] = 0.0
        report = evaluate(model, tiny_dataset, "val")
        assert report.mean_dice == 0.0

    def test_perfect_oracle_masks_score_dice_one(self, tiny_dataset):
        windows = tiny_dataset["val"]
        labels = {id(w): w.label for w in windows}

        class Oracle:
            def predict(self, frames):
                for w in windows:
                    if w.frames is frames:
                        return labels[id(w)]
                raise AssertionError("unknown window")

        report = evaluate(Oracle(), tiny_dataset, "val")
        assert report.mean_dice == 1.0

    def test_mean_is_hand_average_of_per_window_dice(self, tiny_dataset):
        model = tiny_model(seed=9)
        report = evaluate(model, tiny_dataset, "val")
        npt.assert_allclose(report.mean_dice,
                            np.mean([row[2] for row in report.rows]), atol=0)
        assert report.n_windows == len(report.rows) == len(tiny_dataset["val"])

    def test_rows_carry_each_windows_last_frame_index(self, tiny_dataset):
        report = evaluate(tiny_model(seed=9), tiny_dataset, "val")
        # the val source has 5 frames, so its 3-frame windows end at 2, 3 and 4
        assert [row[:2] for row in report.rows] == [("seq_003", 2), ("seq_003", 3),
                                                    ("seq_003", 4)]

    def test_side_effect_free(self, tiny_dataset):
        model = tiny_model(seed=10)
        before = snapshot(model)
        evaluate(model, tiny_dataset, "val")
        for name, arr in snapshot(model).items():
            npt.assert_array_equal(arr, before[name])

    def test_empty_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            evaluate(tiny_model(), {"test": []}, "test")

    def test_non_finite_probabilities_are_a_divergence_naming_the_window(self, tiny_dataset):
        model = tiny_model()
        model.decoder_b.data[...] = np.nan
        seq = tiny_dataset["val"][0]
        with pytest.raises(DivergenceError) as info:
            evaluate(model, tiny_dataset, "val")
        assert str(info.value) == (f"non-finite probabilities for source {seq.source_id!r} "
                                   f"frame {seq.frame_indices[-1]}")


class TestCheckpoints:
    def test_save_load_save_is_byte_identical(self, tiny_dataset, tmp_path):
        run = train(tiny_model(seed=11), tiny_dataset, tiny_config(steps=3))
        p1, p2 = tmp_path / "a.dflw", tmp_path / "b.dflw"
        save_checkpoint(run, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_values_bit_exactly(self, tiny_dataset, tmp_path):
        run = train(tiny_model(seed=12), tiny_dataset, tiny_config(steps=4))
        path = tmp_path / "run.dflw"
        save_checkpoint(run, path)
        loaded = load_checkpoint(path)
        assert loaded.step == run.step
        for name, t in run.model.parameters().items():
            npt.assert_array_equal(loaded.model.parameters()[name].data, t.data)
        for name, arr in run.adam_m.items():
            npt.assert_array_equal(loaded.adam_m[name], arr)
        assert [(r.step, r.train_loss) for r in loaded.curve] == \
               [(r.step, r.train_loss) for r in run.curve]

    def test_version1_fixture_loads_bit_exactly(self, tmp_path):
        run = load_checkpoint(v1_checkpoint.CHECKPOINT)
        assert (run.model.config.flow_a_space, run.model.config.flow_b_space) == ("rgb", "yuv")
        assert {name.split(".")[0] for name in run.model.parameters()} == \
               {"flow_a", "flow_b", "decoder"}
        window = v1_checkpoint.fixture_window()
        npt.assert_array_equal(run.model.predict(window.frames),
                               np.load(v1_checkpoint.PREDICTION))
        path = tmp_path / "again.dflw"
        save_checkpoint(run, path)
        assert path.read_bytes() == v1_checkpoint.CHECKPOINT.read_bytes()

    def test_block_fixture_is_reproduced_bit_exactly(self, tmp_path):
        path = tmp_path / "block.dflw"
        save_checkpoint(v1_checkpoint.train_block(), path)
        assert path.read_bytes() == v1_checkpoint.BLOCK_CHECKPOINT.read_bytes()

        run = load_checkpoint(v1_checkpoint.BLOCK_CHECKPOINT)
        assert run.model.config.use_block and run.config.batch_size == 2
        npt.assert_array_equal(run.model.predict(v1_checkpoint.fixture_window().frames),
                               np.load(v1_checkpoint.BLOCK_PREDICTION))
        resumed = v1_checkpoint.resume_block(run)
        with np.load(v1_checkpoint.BLOCK_RESUMED) as expected:
            assert sorted(expected.files) == sorted(resumed)
            for name, values in resumed.items():
                npt.assert_array_equal(values, expected[name])

    def test_failed_write_keeps_the_previous_checkpoint(self, tiny_dataset, tmp_path,
                                                       monkeypatch):
        run = train(tiny_model(seed=16), tiny_dataset, tiny_config(steps=2))
        path = tmp_path / "run.dflw"
        save_checkpoint(run, path)
        before = path.read_bytes()
        run.step += 1

        class PayloadWriteFails:
            """A file whose writes fail once the 16-byte prefix and header are out."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > 4:
                    raise OSError("no space left on device")
                return self.fh.write(chunk)

        real_open = open
        monkeypatch.setattr(training_mod, "open",
                            lambda file, mode: PayloadWriteFails(real_open(file, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(run, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.dflw"]

    def test_corrupted_magic_is_rejected(self, tiny_dataset, tmp_path):
        run = train(tiny_model(seed=13), tiny_dataset, tiny_config(steps=2))
        path = tmp_path / "run.dflw"
        save_checkpoint(run, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect, named", [
        ("missing_tensor", "param.decoder.w"),
        ("missing_step", "step"),
        ("unknown_config_key", "colour"),
        ("entry_without_offset", "offset"),
        ("list_header", "not a JSON object"),
        ("nan_payload", "adam.m.decoder.b"),
        ("short_file", "truncated"),
        ("curve_not_list", "curve"),
        ("tensors_not_list", "tensors"),
        ("three_item_curve_record", "curve"),
        ("string_step", "step"),
        ("string_shape", "param.decoder.w"),
        ("float_offset", "offset 8.0"),
        ("negative_offset", "param.decoder.b"),
        ("float_channels", "channels must be an integer, got 2.0"),
        ("bool_k", "k must be an integer, got true"),
        ("float_batch_size", "batch_size must be an integer, got 1.0"),
        ("fractional_seed", "seed must be an integer, got 0.5"),
        ("string_focal_alpha", 'focal_alpha must be a number, got "x"'),
        ("bool_eval_interval", "eval_interval must be an integer, got true"),
        ("bool_lr", "lr must be a number, got true"),
        ("beta2_above_one", r"train_config is invalid: beta2 must be in \[0, 1\), got 2.0"),
        ("sgd_optimizer", "train_config is invalid: unknown optimizer 'sgd'"),
        ("string_curve_loss", 'curve is invalid: train_loss must be a number, got "x"'),
        ("fractional_curve_step", "curve is invalid: step must be an integer, got 1.5"),
        ("missing_adam_moment", "writes adam.m.decoder.b"),
        ("duplicate_entry", "writes no entry"),
        ("reordered_entries", "is param.decoder.w"),
        ("extra_header_key", "outside the tensor directory"),
        ("trailing_bytes", "oversized"),
        ("future_version", "unsupported checkpoint version 2"),
    ])
    def test_incomplete_or_corrupt_file_is_rejected(self, tmp_path, defect, named):
        path = v1_checkpoint.corrupt_copy(tmp_path / "bad.dflw", defect)
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(path)

    def test_truncated_file_is_rejected(self, tiny_dataset, tmp_path):
        run = train(tiny_model(seed=14), tiny_dataset, tiny_config(steps=2))
        path = tmp_path / "run.dflw"
        save_checkpoint(run, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @settings(fuzz_settings, max_examples=300)
    @given(damaged(V1_BLOB, index=st.one_of(st.integers(0, V1_HEADER_END - 1),
                                            st.integers(0, len(V1_BLOB) - 1))))
    def test_truncated_or_flipped_file_loads_or_is_a_checkpoint_error(self, tmp_path,
                                                                      blob):
        path = tmp_path / "fuzzed.dflw"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    @fuzz_settings
    @given(st.sampled_from(V1_SLOTS),
           st.sampled_from([True, False, 0.5, 2.0, "x", None, [], {}, math.nan, OWN_VALUE]))
    def test_edited_header_value_resumes_or_is_a_checkpoint_error(self, tmp_path, slot, value):
        header = copy.deepcopy(V1_HEADER)
        *path, last = slot
        target = header
        for key in path:
            target = target[key]
        if value is not OWN_VALUE:
            target[last] = value
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        edited = tmp_path / "edited.dflw"
        edited.write_bytes(V1_BLOB[:8] + struct.pack("<Q", len(text)) + text
                           + V1_BLOB[V1_HEADER_END:])
        try:
            run = load_checkpoint(edited)
        except CheckpointError:
            return
        run.config = replace(run.config, steps=run.step + 1)
        resume(run, {"train": [v1_checkpoint.fixture_window()]})
        write_curve_csv(run.curve, tmp_path / "curve.csv")
        rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
        assert len(rows) == run.step
        for row in rows:
            step, *values = row.split(",")
            assert str(int(step)) == step
            assert all(v == "" or math.isfinite(float(v)) for v in values), row

    def test_resume_equals_uninterrupted_run(self, tiny_dataset, tmp_path):
        config = tiny_config(steps=8)
        straight = train(tiny_model(seed=15), tiny_dataset, config)

        half = TrainConfig(**{**asdict(config), "steps": 4})
        run = train(tiny_model(seed=15), tiny_dataset, half)
        path = tmp_path / "half.dflw"
        # re-tag the interrupted run with the full step budget before saving
        run = TrainRun(model=run.model, config=config, step=run.step,
                       adam_m=run.adam_m, adam_v=run.adam_v, curve=run.curve)
        save_checkpoint(run, path)
        resumed = resume(load_checkpoint(path), tiny_dataset)
        assert resumed.step == straight.step
        for name, t in straight.model.parameters().items():
            npt.assert_array_equal(resumed.model.parameters()[name].data, t.data)
        assert [(r.step, r.train_loss) for r in resumed.curve] == \
               [(r.step, r.train_loss) for r in straight.curve]


class TestCurveCsv:
    def test_format(self, tiny_dataset, tmp_path):
        run = train(tiny_model(seed=16), tiny_dataset,
                    tiny_config(steps=3, eval_interval=2))
        path = tmp_path / "curve.csv"
        write_curve_csv(run.curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,train_loss,val_loss,val_dice"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "" and first[3] == ""
        evaled = lines[2].split(",")
        assert evaled[0] == "2" and evaled[2] != "" and evaled[3] != ""
