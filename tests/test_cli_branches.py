"""CLI paths beside the error paths: assess printing its verdicts,
train-manifold with a --val file, threshold refusing a classifier, and
evaluate naming its undefined metrics."""
import json

import numpy as np
import pytest

from cvsqi import cli, dataio, discriminative, experiment, manifold, model_io, preprocess
from cvsqi.forward import synthesize_stream
from cvsqi.labels import QualityLabel
from cvsqi.nn import DEFAULT_LR


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Cycles of three subjects with their calibration windows, the normal
    cycles alone, the others alone, and an untrained lr model file."""
    root = tmp_path_factory.mktemp("branches")
    paths = {name: root / f"{name}.csv" for name in ("cycles", "calib", "pos", "neg")}
    assert run(["gen", "--seed", 2, "--subjects", 3, "--duration-ms", 40_000,
                "--out-cycles", paths["cycles"], "--out-calib", paths["calib"]]) == 0
    cycles = dataio.read_cycles(str(paths["cycles"]))
    normal = [c.label is QualityLabel.NORMAL for c in cycles]
    assert any(normal) and not all(normal)
    dataio.write_cycles([c for c, n in zip(cycles, normal) if n], str(paths["pos"]))
    dataio.write_cycles([c for c, n in zip(cycles, normal) if not n], str(paths["neg"]))
    paths["lr"] = root / "lr.json"
    model_io.save_model(discriminative.build("lr", seed=0), str(paths["lr"]),
                        norm_scheme="interp", scale_mode="subject")
    return paths


def test_assess_prints_the_lines_its_out_file_holds(data, tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    dataio.write_stream(synthesize_stream(
        experiment.default_subject_scenario(5, 0, duration_ms=30_000)), str(stream))
    out = tmp_path / "verdicts.csv"
    assert run(["assess", "--model", data["lr"], "--stream", stream, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    assert run(["assess", "--model", data["lr"], "--stream", stream]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8") and printed.count("\n") > 10


@pytest.mark.parametrize("val", ["cycles", "neg"], ids=["mixed", "no-normal-cycle"])
def test_train_manifold_vae_with_val(data, tmp_path, monkeypatch, val):
    # the --val file's normal cycles are the validation set; a file without
    # one trains without validation
    seen, train_kind = [], manifold.train_kind

    def spy(*args, **kwargs):
        seen.append(kwargs["x_val_pos"])
        return train_kind(*args, **kwargs)
    monkeypatch.setattr(manifold, "train_kind", spy)
    out = tmp_path / "vae.json"
    assert run(["train-manifold", "--kind", "vae", "--epochs", 2, "--pos-train", data["pos"],
                "--val", data[val], "--calib", data["calib"], "--out", out]) == 0
    calib = dataio.read_calibrations(str(data["calib"]))
    x_pos, _, y_pos = preprocess.normalize_dataset(
        dataio.read_cycles(str(data["pos"])), "interp", "subject", calib)
    normal = [c for c in dataio.read_cycles(str(data[val])) if c.label is QualityLabel.NORMAL]
    assert bool(normal) == (val == "cycles")
    x_val = (preprocess.normalize_dataset(normal, "interp", "subject", calib)[0]
             if normal else None)
    [passed] = seen
    assert passed is None if x_val is None else passed.tobytes() == x_val.tobytes()
    model, _ = train_kind("vae", x_pos, y_pos, epochs=2, lr=DEFAULT_LR, seed=0,
                          x_val_pos=x_val)
    stored = model_io.load_model(str(out))[0]
    assert stored.training_meta == model.training_meta
    assert list(stored.params.values) == list(model.params.values)
    for name, value in model.params.values.items():
        assert stored.params.values[name].tobytes() == value.tobytes(), name


def test_threshold_refuses_a_classifier(data, capsys):
    before = data["lr"].read_bytes()
    assert run(["threshold", "--model", data["lr"], "--scored", data["cycles"],
                "--calib", data["calib"]]) == 2
    assert capsys.readouterr().err == \
        "error: threshold selection applies to manifold models only\n"
    assert data["lr"].read_bytes() == before


def test_evaluate_names_its_undefined_metrics(data, tmp_path, capsys):
    # zero weights score every cycle 0.5, which accepts it: with no cycle
    # rejected, npv = TN / (TN + FN) has a zero denominator
    model = discriminative.build("lr", seed=0)
    model.params.values["layer0.W"][:] = 0.0
    model.params.values["layer0.b"][:] = 0.0
    path, out = tmp_path / "lr.json", tmp_path / "report.json"
    model_io.save_model(model, str(path), norm_scheme="interp", scale_mode="subject")
    assert run(["evaluate", "--model", path, "--test", data["cycles"],
                "--calib", data["calib"], "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "undefined metrics (zero denominator): npv"
    assert lines[1].split()[3] == "n/a"     # model, accuracy, ppv, npv, ...
    record = json.loads(out.read_text())
    assert record["undefined"] == ["npv"] and record["metrics"]["npv"] is None
