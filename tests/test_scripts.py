"""Smoke tests: both experiment scripts run end to end on a tiny dataset."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_synthetic_experiment(tmp_path):
    out = tmp_path / "report.json"
    proc = run_script("run_synthetic_experiment.py", "--subjects", 4,
                      "--vgg-epochs", 1, "--vae-epochs", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"fractions", "n_cycles", "vgg3", "bcvae", "scale_mode",
                           "scheme", "ablation", "elapsed_s"}
    assert set(report["ablation"]) == {"unscaled_auc", "auc_gap"}
    assert "threshold" in report["bcvae"] and "auc" in report["vgg3"]


def test_beta_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    proc = run_script("run_beta_sweep.py", "--subjects", 4, "--epochs", 1,
                      "--betas", 0.5, "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert [set(r) for r in rows] == [{"beta", "auc", "accuracy", "threshold"}]
    assert rows[0]["beta"] == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["run_synthetic_experiment.py", "run_beta_sweep.py"])
@pytest.mark.parametrize("args,message", [
    (["--seed", -1], "argument --seed: must be a nonnegative integer, got '-1'"),
    (["--subjects", 2], "error: need at least 3 subjects, got 2"),
], ids=["negative-seed", "two-subjects"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, name, args, message):
    out = tmp_path / "out.json"
    proc = run_script(name, *args, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not out.exists()
