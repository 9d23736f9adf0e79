import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given

from dflow import cli, data, network, recurrent, training
from dflow.baselines import ThresholdParams
from dflow.cli import main
from dflow.data import SynthSceneParams, read_pgm
from dflow.training import load_checkpoint

from fixtures import v1_checkpoint
from fuzz import damaged, fuzz_settings

PARAMS_CONFIG = json.dumps({"m": 3, "gamma": 3, "kappa": 4, "n": 4, "f": 3}).encode()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    rc = main(["synth", "--out", str(root), "--seed", "3", "--train", "2",
               "--val", "1", "--frames", "5", "--width", "8", "--height", "8"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
               "--seed", "3", "--k", "2", "--channels", "2", "--steps", "5"])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_dataset_and_config_echo(self, dataset_dir):
        assert (dataset_dir / "manifest.json").exists()
        assert (dataset_dir / "resolved_config.json").exists()
        assert (dataset_dir / "seq_000" / "frame_00000.ppm").exists()
        cfg = json.loads((dataset_dir / "resolved_config.json").read_text())
        assert cfg["seed"] == 3 and cfg["train"] == 2

    def test_is_deterministic_across_invocations(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--out", str(out), "--seed", "9",
                         "--train", "1", "--val", "0", "--frames", "3",
                         "--width", "8", "--height", "8"]) == 0
            outs.append(out)
        for rel in sorted(p.relative_to(outs[0])
                          for p in outs[0].rglob("*") if p.is_file()):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_negative_sequence_count_names_the_flag(self, tmp_path, capsys, split):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({split: -3}))
        for flags in ([f"--{split}", "-3"], ["--config", str(cfg_file)]):
            assert main(["synth", "--out", str(tmp_path / "x"), *flags]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --{split} must not be negative, got -3\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--width", "0", "image size must be positive"),
        ("--height", "-2", "image size must be positive"),
        ("--noise", "-1", "noise_level must lie in [0, 1], got -1.0"),
        ("--flicker", "5", "flicker_rate must lie in [0, 1], got 5.0"),
        ("--drift", "2", "brightness_drift must lie in [0, 1], got 2.0"),
        ("--distractors", "-1", "distractor_count must be non-negative, got -1"),
    ])
    def test_out_of_range_scene_value_is_rejected_before_writing(self, tmp_path, capsys,
                                                                 flag, value, named):
        assert main(["synth", "--out", str(tmp_path / "x"), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 40), (40, 1)])
    def test_distractors_on_a_one_pixel_side_are_rejected_before_writing(
            self, tmp_path, capsys, width, height):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--width", str(width), "--height",
                     str(height), "--train", "1", "--val", "0"]) == 1
        assert capsys.readouterr().err == (
            f"error: distractor_count must be 0 when width or height is below 2, "
            f"got distractor_count=2, width={width}, height={height}\n")
        assert not out.exists()

    def test_one_pixel_scene_without_distractors_is_generated(self, tmp_path):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--width", "1", "--height", "1",
                     "--train", "1", "--val", "0", "--frames", "2",
                     "--distractors", "0"]) == 0
        assert read_pgm(out / "seq_000" / "label_00001.pgm").shape == (1, 1, 1)


class TestTrain:
    def test_writes_checkpoint_and_curve(self, trained_dir):
        assert (trained_dir / "checkpoint.dflw").exists()
        curve = (trained_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "step,train_loss,val_loss,val_dice"
        assert len(curve) == 6

    def test_config_file_overlay_and_flag_override(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 2, "channels": 2, "k": 2}))
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--config", str(cfg_file), "--steps", "3"])
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["steps"] == 3         # flag beats config file
        assert resolved["channels"] == 2      # config file beats default

    def test_unknown_config_keys_rejected(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"stepz": 2}))
        rc = main(["train", "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
        assert rc == 1

    def test_colour_parts_choose_the_flow_count(self, dataset_dir, tmp_path):
        for colors, spaces in (("yuv", ("yuv", None)), ("rgb+hsv", ("rgb", "hsv"))):
            out = tmp_path / colors
            rc = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                       "--k", "2", "--channels", "2", "--steps", "1",
                       "--colors", colors])
            assert rc == 0
            config = load_checkpoint(out / "checkpoint.dflw").model.config
            assert (config.flow_a_space, config.flow_b_space) == spaces

    def test_resume_runs_to_the_new_step_budget(self, dataset_dir, tmp_path):
        def train(out, *flags):
            assert main(["train", "--dataset", str(dataset_dir), "--out",
                         str(tmp_path / out), "--channels", "2", *flags]) == 0
            return tmp_path / out

        straight = load_checkpoint(train("straight", "--k", "2", "--steps", "4")
                                   / "checkpoint.dflw")
        half = train("half", "--k", "2", "--steps", "2") / "checkpoint.dflw"
        cfg_file = tmp_path / "steps.json"
        cfg_file.write_text(json.dumps({"steps": 4}))
        # no --k: the windows must use the checkpoint's k = 2, not the default 4
        for flags in (("--steps", "4"), ("--config", str(cfg_file))):
            out = train("resumed", "--checkpoint", str(half), *flags)
            assert len((out / "curve.csv").read_text().splitlines()) == 1 + 4
            resumed = load_checkpoint(out / "checkpoint.dflw")
            assert resumed.step == 4 and resumed.config.steps == 4
            for name, t in straight.model.parameters().items():
                npt.assert_array_equal(resumed.model.parameters()[name].data, t.data)
            for moments in ("adam_m", "adam_v"):
                expected, actual = getattr(straight, moments), getattr(resumed, moments)
                assert sorted(actual) == sorted(expected)
                for name, values in expected.items():
                    npt.assert_array_equal(actual[name], values)

    def test_resume_echoes_the_settings_it_keeps(self, dataset_dir, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(first),
                     "--k", "2", "--channels", "2", "--lr", "0.01", "--seed", "7",
                     "--colors", "yuv", "--use-block", "--loss", "focal", "--steps", "2"]) == 0
        out = tmp_path / "resumed"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     "--checkpoint", str(first / "checkpoint.dflw"), "--steps", "3"]) == 0
        echoed = json.loads((out / "resolved_config.json").read_text())
        kept = {"k": 2, "channels": 2, "lr": 0.01, "seed": 7, "colors": "yuv",
                "use_block": True, "loss": "focal", "steps": 3}
        assert {key: echoed[key] for key in kept} == kept

    def test_fresh_run_echoes_the_use_block_it_builds(self, trained_dir):
        echoed = json.loads((trained_dir / "resolved_config.json").read_text())
        run = load_checkpoint(trained_dir / "checkpoint.dflw")
        assert echoed["use_block"] is run.model.config.use_block

    def test_resume_budget_defaults_to_the_checkpoint_and_cannot_shrink(
            self, dataset_dir, trained_dir, tmp_path, capsys):
        checkpoint = str(trained_dir / "checkpoint.dflw")
        out = tmp_path / "again"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     "--checkpoint", checkpoint]) == 0
        assert len((out / "curve.csv").read_text().splitlines()) == 1 + 5
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--checkpoint", checkpoint, "--steps", "3"]) == 1
        assert "below the checkpoint's step 5" in capsys.readouterr().err

    def test_out_of_range_checkpoint_config_is_a_one_line_runtime_error(
            self, dataset_dir, tmp_path, capsys):
        # beta2 = 2.0 would turn every parameter into NaN at the first Adam step
        bad = v1_checkpoint.corrupt_copy(tmp_path / "bad.dflw", "beta2_above_one")
        rc = main(["train", "--checkpoint", str(bad), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out"), "--steps", "4"])
        assert rc == 2
        assert capsys.readouterr().err == ("runtime error: checkpoint train_config is "
                                           "invalid: beta2 must be in [0, 1), got 2.0\n")

    def test_source_without_id_is_a_one_line_runtime_error(self, dataset_dir, tmp_path,
                                                           capsys):
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        del doc["sources"][0]["id"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "out"),
                   "--k", "2", "--channels", "2", "--steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "source 0 lacks key 'id'" in err

    @pytest.mark.parametrize("key, value, named", [
        ("frames", [3], "source 0: 'frames' entry 0 is not a string"),
        ("id", ["x"], "source 0: 'id' is not a string"),
    ], ids=["frame_int", "id_list"])
    def test_manifest_element_of_the_wrong_type_is_a_one_line_runtime_error(
            self, dataset_dir, tmp_path, capsys, key, value, named):
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        doc["sources"][0][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        rc = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "out"),
                   "--k", "2", "--channels", "2", "--steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert named in err

    def test_non_binary_label_is_a_one_line_runtime_error_naming_it(self, dataset_dir,
                                                                   tmp_path, capsys):
        data_dir = tmp_path / "ds"
        shutil.copytree(dataset_dir, data_dir)
        label = data_dir / "seq_000" / "label_00003.pgm"
        blob = bytearray(label.read_bytes())
        blob[-1] = 128  # one gray sample among the 0/255 ones
        label.write_bytes(bytes(blob))
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(data_dir), "--out", str(out),
                   "--k", "2", "--channels", "2", "--steps", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (f"runtime error: {label}: "
                                           "label samples must be 0 or maxval\n")
        assert not (out / "checkpoint.dflw").exists() and not (out / "curve.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_diverged_validation_is_a_runtime_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                   "--channels", "2", "--steps", "1", "--lr", "1e308"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "runtime error: non-finite validation loss nan at step 1 (seed 0, lr 1e+308)")
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_diverged_model_without_a_val_split_saves_nothing(self, tmp_path, capsys):
        # no val split, so only the check of the trained model can catch that one
        # step at a huge rate leaves weights whose sums overflow to inf - inf
        data_dir, out = tmp_path / "ds", tmp_path / "out"
        assert main(["synth", "--out", str(data_dir), "--train", "2", "--val", "0",
                     "--frames", "5", "--width", "8", "--height", "8"]) == 0
        capsys.readouterr()
        rc = main(["train", "--dataset", str(data_dir), "--out", str(out),
                   "--channels", "2", "--steps", "1", "--lr", "1e308"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "runtime error: non-finite probabilities for source 'seq_000' frame 4")
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_reads_only_the_train_and_val_splits(self, tmp_path, monkeypatch, command):
        root = tmp_path / "ds"
        assert main(["synth", "--out", str(root), "--seed", "3", "--train", "1", "--val", "1",
                     "--test", "1", "--frames", "3", "--width", "8", "--height", "8"]) == 0
        read, real = [], data._read_netpbm
        monkeypatch.setattr(data, "_read_netpbm",
                            lambda path, *rest: read.append(path) or real(path, *rest))
        assert main([command, "--dataset", str(root), "--out", str(tmp_path / "out"),
                     "--k", "2", "--channels", "2", "--steps", "1"]) == 0
        manifest = data.load_manifest(root)
        files = {split: {manifest.root / rel for src in manifest.sources if src.split == split
                         for rel in (*src.frames, *src.labels)} for split in data.SPLITS}
        assert files["test"] and not files["test"] & set(read)
        assert set(read) == files["train"] | files["val"]

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        rc = main(["train", "--dataset", str(tmp_path / "nothing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


class TestInferEval:
    def test_infer_writes_16bit_probs_and_masks(self, dataset_dir, trained_dir,
                                                tmp_path):
        out = tmp_path / "infer"
        rc = main(["infer", "--checkpoint", str(trained_dir / "checkpoint.dflw"),
                   "--dataset", str(dataset_dir), "--out", str(out),
                   "--split", "val"])
        assert rc == 0
        probs = sorted(out.glob("prob_*.pgm"))
        masks = sorted(out.glob("mask_*.pgm"))
        assert len(probs) == len(masks) == 3  # 5 frames, k=2 -> 3 windows
        blob = probs[0].read_bytes()
        assert blob.startswith(b"P5") and b"65535" in blob
        mask = read_pgm(masks[0])
        assert set(np.unique(mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize("defect", ["missing_tensor", "missing_step", "unknown_config_key",
                                        "entry_without_offset", "list_header",
                                        "nan_payload", "short_file", "curve_not_list",
                                        "tensors_not_list", "three_item_curve_record",
                                        "string_step", "string_shape", "float_offset",
                                        "negative_offset", "float_channels", "bool_k",
                                        "float_batch_size", "fractional_seed",
                                        "string_focal_alpha", "bool_eval_interval",
                                        "bool_lr", "sgd_optimizer", "string_curve_loss",
                                        "fractional_curve_step", "step_ahead_of_curve",
                                        "reordered_curve_steps", "missing_adam_moment",
                                        "duplicate_entry", "reordered_entries",
                                        "extra_header_key", "trailing_bytes"])
    def test_bad_checkpoint_is_a_one_line_runtime_error(self, dataset_dir, tmp_path,
                                                        capsys, defect):
        bad = v1_checkpoint.corrupt_copy(tmp_path / "bad.dflw", defect)
        rc = main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1

    def test_frame_without_whitespace_after_maxval_is_a_one_line_runtime_error(
            self, dataset_dir, trained_dir, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        shutil.copytree(dataset_dir, data_dir)
        frame = data_dir / "seq_002" / "frame_00004.ppm"  # the val source's last frame
        frame.write_bytes(b"P6\n8 8\n255X" + bytes(8 * 8 * 3))
        rc = main(["infer", "--checkpoint", str(trained_dir / "checkpoint.dflw"),
                   "--dataset", str(data_dir), "--out", str(tmp_path / "out"),
                   "--split", "val"])
        assert rc == 2
        assert capsys.readouterr().err == (f"runtime error: {frame}: "
                                           "no whitespace after maxval\n")

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_empty_split_is_a_runtime_error(self, dataset_dir, trained_dir, tmp_path,
                                            capsys, command):
        # the split is known only once the checkpoint and dataset are read, so
        # after the echo; like a missing input it is a runtime error
        rc = main([command, "--checkpoint", str(trained_dir / "checkpoint.dflw"),
                   "--dataset", str(dataset_dir), "--out", str(tmp_path / "out"),
                   "--split", "test"])
        assert rc == 2
        assert capsys.readouterr().err == "runtime error: split 'test' is empty\n"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["resolved_config.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_non_finite_probabilities_are_a_runtime_error_that_writes_nothing(
            self, tmp_path, capsys, command):
        # one step at a huge rate leaves a model whose sums overflow to inf - inf;
        # `dflow train` would refuse to save it, so the library saves it
        data_dir, out = tmp_path / "ds", tmp_path / "out"
        assert main(["synth", "--out", str(data_dir), "--train", "2", "--val", "0",
                     "--frames", "5", "--width", "8", "--height", "8"]) == 0
        capsys.readouterr()
        model = network.build_dflow(network.DFlowConfig(channels=2), seed=0)
        windows = data.load_split_windows(data.load_manifest(data_dir), model.config.k)
        run = training.train(model, windows, training.TrainConfig(steps=1, lr=1e308))
        training.save_checkpoint(run, tmp_path / "checkpoint.dflw")
        rc = main([command, "--checkpoint", str(tmp_path / "checkpoint.dflw"),
                   "--dataset", str(data_dir), "--out", str(out), "--split", "train"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "runtime error: non-finite probabilities for source 'seq_000' frame 4")
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    def test_eval_reads_only_the_frames_of_its_split(self, dataset_dir, trained_dir,
                                                     tmp_path, monkeypatch):
        read, real = [], data._read_netpbm
        monkeypatch.setattr(data, "_read_netpbm",
                            lambda path, *rest: read.append(path) or real(path, *rest))
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.dflw"),
                     "--dataset", str(dataset_dir), "--out", str(tmp_path / "eval"),
                     "--split", "val"]) == 0
        manifest = data.load_manifest(dataset_dir)
        files = {split: {manifest.root / rel for src in manifest.sources if src.split == split
                         for rel in (*src.frames, *src.labels)} for split in data.SPLITS}
        assert files["train"] and not files["train"] & set(read)
        assert set(read) == files["val"]

    def test_eval_emits_metrics_json(self, dataset_dir, trained_dir, tmp_path,
                                     capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.dflw"),
                   "--dataset", str(dataset_dir), "--out", str(out),
                   "--split", "val"])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc) == {"dice", "silhouette", "n_windows"}
        assert 0.0 <= doc["dice"] <= 1.0
        assert doc["n_windows"] == 3
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc


class TestBaseline:
    @pytest.mark.parametrize("method", ["mean", "gaussian", "dtransform"])
    def test_writes_one_mask_per_frame(self, dataset_dir, tmp_path, method):
        out = tmp_path / method
        rc = main(["baseline", method, "--dataset", str(dataset_dir),
                   "--out", str(out), "--window", "5"])
        assert rc == 0
        # infer's name rule: the source id, then the frame's position in its source
        assert sorted(p.name for p in out.glob(f"{method}_*.pgm")) == [
            f"{method}_seq_{s:03d}_{i:05d}.pgm" for s in range(3) for i in range(5)]

    @pytest.mark.parametrize("sigma", ["1e-200", "5e-324"])
    def test_tiny_sigma_keeps_every_pixel_without_warning(self, dataset_dir, tmp_path,
                                                           capsys, sigma):
        out = tmp_path / "gaussian"
        assert main(["baseline", "gaussian", "--dataset", str(dataset_dir),
                     "--out", str(out), "--sigma", sigma]) == 0
        assert "warning:" not in capsys.readouterr().err
        masks = sorted(out.glob("gaussian_*.pgm"))
        assert len(masks) == 15
        for mask in masks:
            npt.assert_array_equal(read_pgm(mask), 1.0)


    def test_frame_sample_above_maxval_is_a_one_line_runtime_error(self, dataset_dir,
                                                                   tmp_path, capsys):
        data_dir = tmp_path / "ds"
        shutil.copytree(dataset_dir, data_dir)
        frame = data_dir / "seq_001" / "frame_00002.ppm"
        frame.write_bytes(b"P6\n8 8\n100\n" + bytes([200] * 3 * 64))  # the 8x8 synth size
        out = tmp_path / "mean"
        assert main(["baseline", "mean", "--dataset", str(data_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"runtime error: {frame}: "
                                           "sample 200 exceeds maxval 100\n")
        # every frame is read before the first mask is written
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    def test_frames_that_share_a_file_stem_get_a_mask_each(self, dataset_dir, tmp_path,
                                                           capsys):
        data_dir = tmp_path / "ds"
        for index, cam in enumerate(("camA", "camB")):
            (data_dir / cam).mkdir(parents=True)
            shutil.copy(dataset_dir / f"seq_000/frame_{index:05d}.ppm", data_dir / cam / "f.ppm")
            shutil.copy(dataset_dir / f"seq_000/label_{index:05d}.pgm", data_dir / cam / "l.pgm")
        (data_dir / "manifest.json").write_text(json.dumps({"version": 1, "sources": [
            {"id": "cam", "frames": ["camA/f.ppm", "camB/f.ppm"],
             "labels": ["camA/l.pgm", "camB/l.pgm"], "split": "train"}]}))
        out, whole = tmp_path / "mean", tmp_path / "whole"
        assert main(["baseline", "mean", "--dataset", str(data_dir), "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"wrote 2 masks to {out}\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "mean_cam_00000.pgm", "mean_cam_00001.pgm", "resolved_config.json"]
        assert main(["baseline", "mean", "--dataset", str(dataset_dir), "--out", str(whole)]) == 0
        for index in range(2):
            assert ((out / f"mean_cam_{index:05d}.pgm").read_bytes()
                    == (whole / f"mean_seq_000_{index:05d}.pgm").read_bytes())

    @pytest.mark.parametrize("source_id", ["../../escaped", "te\0st"], ids=["slash", "nul"])
    def test_source_id_that_is_not_a_file_name_writes_no_mask(self, dataset_dir, tmp_path,
                                                              capsys, source_id):
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        doc["sources"][-1]["id"] = source_id  # the masks of earlier sources come first
        data_dir = tmp_path / "ds"
        shutil.copytree(dataset_dir, data_dir)
        (data_dir / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "mean"
        assert main(["baseline", "mean", "--dataset", str(data_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"runtime error: manifest source 2: id "
                                           f"{source_id!r} holds '/' or NUL\n")
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]


class TestParams:
    def test_reference_values_on_stdout(self, capsys):
        assert main(["params"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"]["convlstm2"] == 124160
        assert doc["formula"]["mgu_block"] == 34320
        assert doc["formula"]["mgu_stack2"] == 31040
        assert abs(doc["formula"]["block_vs_convlstm2_reduction"] - 0.7236) < 1e-4
        assert doc["constructed"]["cell"] == 31040
        assert doc["constructed"]["stack2"] == 88720

    def test_custom_hyperparams(self, capsys):
        assert main(["params", "--m", "1", "--gamma", "1", "--kappa", "1",
                     "--n", "1", "--f", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"]["mgu_stack2"] == 2 * (1 * 2 + 1)

    def test_config_file_out_is_honoured(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": str(tmp_path / "p"), "n": 2}))
        assert main(["params", "--config", str(cfg_file)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads((tmp_path / "p" / "params.json").read_text()) == printed
        echoed = json.loads((tmp_path / "p" / "resolved_config.json").read_text())
        assert echoed["n"] == 2 and "out" not in echoed


class TestGradcheckCommand:
    def test_default_check_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_has_no_output_directory(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "x")]) == 1
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": str(tmp_path / "x")}))
        assert main(["gradcheck", "--config", str(cfg_file)]) == 1
        assert "unknown config keys: ['out']" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("tolerance", ["0", "-1e-4"])
    def test_tolerance_must_be_positive(self, capsys, tolerance):
        assert main(["gradcheck", f"--tolerance={tolerance}"]) == 1
        assert capsys.readouterr().err == (
            f"error: tolerance must be finite and > 0, got {float(tolerance)}\n")

    def test_model_over_the_parameter_cap_is_a_validation_error(self, capsys):
        assert main(["gradcheck", "--channels", "16"]) == 1
        assert capsys.readouterr().err == (
            "error: model has 29649 parameters; gradcheck is capped at 5000\n")

    def test_non_finite_config_tolerance_is_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"tolerance": Infinity}')
        assert main(["gradcheck", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'tolerance' must be a number, got Infinity\n")


class TestValidationErrors:
    @fuzz_settings
    @given(damaged(PARAMS_CONFIG))
    def test_truncated_or_flipped_config_runs_or_is_one_line(self, tmp_path, capsys,
                                                             blob):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(blob)
        rc = main(["params", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert (rc, err) == (0, "") or (rc == 1 and err.startswith("error: ")
                                        and err.count("\n") == 1), (rc, err)

    def test_config_file_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b"P6\n2 2\n255\n\xb6\xff\x00\x81")
        assert main(["params", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file does not parse: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--k", "0"], ["train", "--channels", "0"], ["train", "--colors", "rgb+xyz"],
        ["baseline", "mean", "--window", "4"], ["baseline", "dtransform", "--dt-fraction", "1"],
        ["synth", "--frames", "0"], ["synth", "--train", "0", "--val", "0"],
        ["params", "--m", "2"], ["gradcheck", "--k", "0"], ["ablate", "--k", "0"],
        ["train", "--seed", "-1"], ["ablate", "--seed", "-1"], ["synth", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"], ["gradcheck", "--size", "0"], ["gradcheck", "--size", "-1"],
    ], ids=" ".join)
    def test_value_a_config_type_rejects_writes_nothing(self, dataset_dir, tmp_path, capsys,
                                                        argv):
        if argv[0] in ("train", "baseline", "ablate"):
            argv = [*argv, "--dataset", str(dataset_dir)]
        if argv[0] != "gradcheck":
            argv = [*argv, "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "synth", "gradcheck"])
    def test_negative_seed_from_a_config_is_named(self, dataset_dir, tmp_path, capsys,
                                                  command):
        cfg_file = tmp_path / "seed.json"
        cfg_file.write_text(json.dumps({"seed": -1}))
        argv = [command, "--config", str(cfg_file)]
        if command in ("train", "ablate"):
            argv += ["--dataset", str(dataset_dir)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_a_validation_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "absent.json"
        assert main(["params", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == f"error: config file not found: {cfg_file}\n"

    def test_config_file_that_is_a_directory_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (f"error: config file {tmp_path} cannot be read: "
                                           "Is a directory\n")
        assert not out.exists()

    def test_unknown_flag(self, capsys):
        assert main(["params", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_seed_is_rejected_where_nothing_is_drawn(self, tmp_path, capsys):
        run_args = ["--checkpoint", "c.dflw", "--dataset", "d", "--out", str(tmp_path)]
        for argv in (["infer", *run_args], ["eval", *run_args],
                     ["baseline", "mean", "--dataset", "d", "--out", str(tmp_path)],
                     ["params"]):
            assert main([*argv, "--seed", "1"]) == 1
            assert "unrecognized arguments: --seed" in capsys.readouterr().err
        cfg_file = tmp_path / "seeded.json"
        cfg_file.write_text(json.dumps({"seed": 1}))
        assert main(["eval", *run_args, "--config", str(cfg_file)]) == 1
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("overlay, named", [
        ({"steps": "ten"}, "'steps' must be an integer"),
        ({"k": "4"}, "'k' must be an integer"),
        ({"k": True}, "'k' must be an integer"),
        ({"lr": None}, "'lr' must be a number"),
        ({"colors": 5}, "'colors' must be a string"),
        ({"preset": "huge"}, "unknown config keys: ['preset']"),
        ({"use_block": "yes"}, "'use_block' must be true or false"),
        ({"loss": "dice"}, "'loss' must be one of ['bce', 'focal']"),
        ([["steps", 3]], "is not a JSON object"),
        ({"lr": float("nan")}, "'lr' must be a number, got NaN"),
        ({"lr": float("-inf")}, "'lr' must be a number, got -Infinity"),
    ], ids=["steps_str", "k_str", "k_bool", "lr_null", "colors_int", "preset_unknown",
            "use_block_str", "loss_unknown", "not_an_object", "lr_nan", "lr_minus_inf"])
    def test_config_value_of_the_wrong_type_is_named(self, dataset_dir, tmp_path, capsys,
                                                     overlay, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overlay))
        rc = main(["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"),
                   "--config", str(cfg_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--noise", "nan"],
        ["synth", "--drift", "inf"],
        ["synth", "--flicker", "1e400"],
        ["train", "--dataset", "d", "--steps", "1", "--lr", "nan"],
        ["baseline", "mean", "--dataset", "d", "--offset-c", "nan"],
        ["baseline", "gaussian", "--dataset", "d", "--sigma", "inf"],
        ["baseline", "dtransform", "--dataset", "d", "--dt-fraction", "nan"],
        ["ablate", "--dataset", "d", "--lr", "1e999"],
        ["gradcheck", "--tolerance", "1e-4x"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_non_finite_number_flag_is_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: argument {argv[-2]}: expected a finite number, got {argv[-1]!r}\n")
        assert not (tmp_path / "x").exists()
        assert main(["gradcheck", "--tolerance", argv[-1]]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_help_shows_each_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--lr LR Adam learning rate (default: 0.001)" in out
        assert "one colour space per flow, e.g. rgb+yuv or yuv (default: rgb+yuv)" in out

    def test_config_accepts_an_int_where_a_float_is_parsed(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"sigma": 1, "offset_c": 0, "window": 3}))
        rc = main(["baseline", "mean", "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "x"), "--config", str(cfg_file)])
        assert rc == 0
        echoed = json.loads((tmp_path / "x" / "resolved_config.json").read_text())
        assert (echoed["sigma"], echoed["offset_c"], echoed["window"]) == (1, 0, 3)

    def test_unknown_subcommand(self):
        assert main(["florp"]) == 1

    def test_bad_flow_colour_combination(self, dataset_dir, tmp_path, capsys):
        for colors in ("rgb+yuv+hsv", "rgb+xyz"):
            rc = main(["train", "--dataset", str(dataset_dir),
                       "--out", str(tmp_path / "x"), "--colors", colors])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")
        # the number of --colors parts is the number of flows; there is no --flows
        rc = main(["train", "--dataset", str(dataset_dir),
                   "--out", str(tmp_path / "x"), "--flows", "single",
                   "--colors", "yuv"])
        assert rc == 1


class TestOneLineStderr:
    """Whatever goes wrong, stderr holds one line per message and no traceback."""

    @pytest.fixture
    def no_memory(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 65.5 TiB for an array")
        monkeypatch.setattr(recurrent.ConvMguCell, "__init__", refuse)

    def test_memory_error_in_params_is_a_runtime_error(self, no_memory, capsys):
        assert main(["params", "--kappa", "100000", "--n", "100000"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: Unable to allocate 65.5 TiB for an array\n")

    def test_memory_error_in_train_writes_nothing(self, no_memory, dataset_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(out),
                     "--channels", "1000000"]) == 2
        assert capsys.readouterr().err == (
            "runtime error: Unable to allocate 65.5 TiB for an array\n")
        assert not out.exists()

    # every source of dataset_dir has 5 frames, so k = 5 skips each with a warning
    SKIPPED_EVERY_SOURCE = [
        *(f"warning: source seq_{i:03d} has 5 frames, fewer than the k+1=6 a window "
          f"needs; skipped" for i in range(3)),
        "runtime error: training requires a non-empty train split",
    ]

    def test_warnings_are_one_line_each(self, dataset_dir, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             *filter(None, [env.get("PYTHONPATH")])])
        result = subprocess.run(
            [sys.executable, "-m", "dflow.cli", "train", "--dataset", str(dataset_dir),
             "--out", str(tmp_path / "out"), "--k", "5", "--channels", "2"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 2
        assert result.stderr.splitlines() == self.SKIPPED_EVERY_SOURCE

    def test_warning_made_an_error_is_one_runtime_error_line(self, dataset_dir, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             *filter(None, [env.get("PYTHONPATH")])])
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dflow.cli", "train", "--dataset",
             str(dataset_dir), "--out", str(tmp_path / "out"), "--k", "5", "--channels", "2"],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "runtime error: " + self.SKIPPED_EVERY_SOURCE[0].removeprefix("warning: ")]

    def test_warning_settings_of_the_caller_are_kept(self, dataset_dir, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            before = (warnings.showwarning, list(warnings.filters))
            assert main(["train", "--dataset", str(dataset_dir), "--out",
                         str(tmp_path / "out"), "--k", "5", "--channels", "2"]) == 2
            assert (warnings.showwarning, list(warnings.filters)) == before
        assert capsys.readouterr().err.splitlines() == self.SKIPPED_EVERY_SOURCE


class TestAblate:
    def test_writes_seven_named_curves(self, dataset_dir, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["ablate", "--dataset", str(dataset_dir), "--out", str(out),
                   "--k", "2", "--channels", "2", "--steps", "2"])
        assert rc == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == sorted([
            "rgb.csv", "hsv.csv", "yuv.csv", "rgb+yuv.csv", "rgb+hsv.csv",
            "hsv+yuv.csv", "rgb+y.csv",
        ])


class TestResolvedConfig:
    """Each subcommand echoes every flag at its default. The echo is written
    before any input is read, so a missing dataset or checkpoint still leaves
    it (and exits 2)."""

    @pytest.mark.parametrize("argv, rc, expected", [
        (["synth"], 0, {
            "seed": 0, "train": 20, "val": 4, "test": 0, "frames": 8, "width": 32,
            "height": 32, "noise": 0.02, "drift": 0.1, "distractors": 2, "flicker": 0.5}),
        (["train", "--dataset", "missing"], 2, {
            "seed": 0, "dataset": "missing", "k": 4, "channels": 40, "colors": "rgb+yuv",
            "loss": "bce", "steps": 500, "lr": 0.001, "use_block": False,
            "checkpoint": None}),
        (["infer", "--checkpoint", "missing.dflw", "--dataset", "missing"], 2, {
            "checkpoint": "missing.dflw", "dataset": "missing", "split": "val"}),
        (["eval", "--checkpoint", "missing.dflw", "--dataset", "missing"], 2, {
            "checkpoint": "missing.dflw", "dataset": "missing", "split": "val"}),
        (["baseline", "mean", "--dataset", "missing"], 2, {
            "dataset": "missing", "window": 11, "offset_c": 2.0 / 255.0, "sigma": None,
            "dt_fraction": 0.5}),
        (["params"], 0, {"m": 3, "gamma": 3, "kappa": 40, "n": 40, "f": 3}),
        (["ablate", "--dataset", "missing"], 2, {
            "seed": 0, "dataset": "missing", "k": 4, "channels": 16, "loss": "bce",
            "steps": 200, "lr": 0.001}),
    ], ids=["synth", "train", "infer", "eval", "baseline", "params", "ablate"])
    def test_defaults_are_echoed(self, tmp_path, monkeypatch, capsys, argv, rc, expected):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "o"]) == rc
        assert Path("o/resolved_config.json").read_text() == (
            json.dumps(expected, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize("argv, cls", [
        (["synth", "--train", "1", "--val", "0", "--frames", "1", "--width", "2",
          "--height", "2"], SynthSceneParams),
        (["baseline", "mean", "--dataset", "missing"], ThresholdParams),
        (["params"], recurrent.UnitHyperparams),
    ], ids=["synth", "baseline", "params"])
    def test_every_field_of_a_built_config_has_a_flag(self, tmp_path, monkeypatch, argv, cls):
        # DFlowConfig and TrainConfig are left out: their fields are the keys
        # of the checkpoint header, and the benchmark and tests set them
        passed, valid = {}, cli._valid

        def spy(config_cls, **values):
            passed[config_cls] = set(values)
            return valid(config_cls, **values)

        monkeypatch.setattr(cli, "_valid", spy)
        monkeypatch.chdir(tmp_path)
        main([*argv, "--out", "o"])
        assert passed[cls] == {f.name for f in dataclasses.fields(cls)}
