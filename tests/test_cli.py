import json

import numpy as np
import pytest

from dflow.cli import main
from dflow.data import read_pgm
from dflow.training import load_checkpoint


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
        assert len(list(out.glob(f"{method}_*.pgm"))) == 15  # 3 sources x 5


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


class TestGradcheckCommand:
    def test_default_check_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestValidationErrors:
    def test_unknown_flag(self, capsys):
        assert main(["params", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

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
