"""Smoke tests: the experiment runner end to end on a tiny dataset."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvsqi.evaluation import METRICS

ROOT = Path(__file__).resolve().parents[1]


def run_experiment(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_experiment.py"),
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_report_table(tmp_path):
    out = tmp_path / "report.json"
    proc = run_experiment("--subjects", 4, "--epochs", 1, "--models", "vgg3", "bcvae",
                          "--betas", 0.5, 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"header", "rows"}
    assert set(report["header"]) == {"seed", "subjects", "scheme", "n_cycles",
                                     "fractions", "elapsed_s"}
    assert [(r["model"], r["scale_mode"], r["beta"]) for r in report["rows"]] == [
        ("vgg3", "subject", None), ("bcvae", "subject", 0.5), ("bcvae", "subject", 1.0),
        ("vgg3", "none", None)]
    keys = {"model", "scale_mode", "beta", *METRICS, "undefined"}
    for row in report["rows"]:
        manifold_keys = {"threshold", "youden_j_trainval"} if row["model"] == "bcvae" else set()
        assert set(row) == keys | manifold_keys
    assert "ablation: vgg3 AUC" in proc.stdout


@pytest.mark.parametrize("args,message", [
    (["--seed", -1], "argument --seed: must be a nonnegative integer, got '-1'"),
    (["--subjects", 2], "error: need at least 3 subjects, got 2"),
    (["--betas"], "argument --betas: expected at least one argument"),
    (["--models"], "argument --models: expected at least one argument"),
    (["--epochs", 0], "argument --epochs: must be a positive integer, got '0'"),
], ids=["negative-seed", "two-subjects", "no-betas", "no-models", "zero-epochs"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, args, message):
    out = tmp_path / "out.json"
    proc = run_experiment(*args, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not out.exists()


def test_out_in_missing_directory_exits_3(tmp_path):
    # before the dataset is generated: nothing is printed
    out = tmp_path / "missing" / "out.json"
    proc = run_experiment("--subjects", 4, "--epochs", 1, "--models", "lr",
                          "--skip-ablation", "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []
