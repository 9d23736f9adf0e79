"""The example experiment scripts run end to end through ``dflow.cli.main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(name, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), str(workdir), "--steps", "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.slow
def test_desk_experiment_writes_metrics(tmp_path):
    run_script("run_desk_experiment.py", tmp_path)
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert set(metrics) == {"dice", "silhouette", "n_windows"}
    assert metrics["n_windows"] > 0


@pytest.mark.slow
def test_color_ablation_writes_seven_curves(tmp_path):
    run_script("run_color_ablation.py", tmp_path)
    names = sorted(p.name for p in (tmp_path / "curves").glob("*.csv"))
    assert names == sorted(["rgb.csv", "hsv.csv", "yuv.csv", "rgb+yuv.csv",
                            "rgb+hsv.csv", "hsv+yuv.csv", "rgb+y.csv"])
