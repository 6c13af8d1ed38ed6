import filecmp
import json
import math

import numpy as np
import pytest

from cvsqi import (bench, cli, dataio, discriminative, experiment, manifold,
                   model_io, nn, preprocess)
from cvsqi.evaluation import evaluate_scores
from cvsqi.forward import MAX_DURATION_MS
from cvsqi.labels import QualityLabel
from cvsqi.model_io import to_json
from cvsqi.preprocess import (CvsStream, calibration_from_stream,
                              cycles_from_stream, normalize_cycle,
                              subject_scale_factor)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small generated dataset plus a trained PCA model, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    cycles = root / "cycles.csv"
    calib = root / "calib.csv"
    assert run(["gen", "--seed", 0, "--subjects", 4, "--duration-ms", 60000,
                "--out-cycles", cycles, "--out-calib", calib]) == 0
    pos = root / "pos.csv"
    all_cycles = dataio.read_cycles(str(cycles))
    dataio.write_cycles([c for c in all_cycles
                         if c.label is QualityLabel.NORMAL], str(pos))
    model = root / "pca.json"
    assert run(["train-manifold", "--kind", "pca", "--pos-train", pos,
                "--calib", calib, "--out", model]) == 0
    assert run(["threshold", "--model", model, "--scored", cycles,
                "--calib", calib]) == 0
    return {"root": root, "cycles": cycles, "calib": calib, "model": model}


class TestGen:
    def test_same_seed_identical_files(self, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            assert run(["gen", "--seed", 7, "--subjects", 3,
                        "--duration-ms", 40000,
                        "--out-cycles", tmp_path / d / "c.csv",
                        "--out-calib", tmp_path / d / "k.csv"]) == 0
        assert filecmp.cmp(tmp_path / "a" / "c.csv", tmp_path / "b" / "c.csv",
                           shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "k.csv", tmp_path / "b" / "k.csv",
                           shallow=False)

    def test_zero_duration_scenario_exits_2(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"subject_seed": 1, "duration_ms": 0,
                                    "rr_intervals_ms": [800]}))
        assert run(["gen", "--scenario", scen,
                    "--out-cycles", tmp_path / "c.csv"]) == 2

    SCENARIO = {"subject_seed": 1, "duration_ms": 30000, "rr_intervals_ms": [800]}

    @pytest.mark.parametrize("doc,message", [
        ({**SCENARIO, "motion_events": [5]},
         "scenario.motion_events[0] must be an object, got 5"),
        ([SCENARIO], "scenario must be an object, got [{"),
        ({**SCENARIO, "motion_events": [{"start_ms": 100, "amplitude": 1.0}]},
         "scenario.motion_events[0].duration_ms is required"),
        ({**SCENARIO, "motion_events": [{"start_ms": 100, "duration_ms": 500,
                                          "amplitude": "big"}]},
         "scenario.motion_events[0].amplitude must be a number, got 'big'"),
        ({**SCENARIO, "duration_ms": 1e12}, "scenario.duration_ms must be an integer"),
        ({**SCENARIO, "noise_std": float("nan")}, "scenario.noise_std must be a finite number"),
        ({**SCENARIO, "ambiguous_band": [1.0]}, "scenario.ambiguous_band must be a list of 2"),
        ({**SCENARIO, "subject_seed": -1}, "scenario.subject_seed must be nonnegative"),
        ({**SCENARIO, "subject_id": "a,b"}, "scenario.subject_id 'a,b' must be letters"),
        ({**SCENARIO, "motion_events": [{"start_ms": 29_900, "duration_ms": 500,
                                          "amplitude": 1.0}]},
         "scenario.motion_events[0] lies outside [0, duration_ms]"),
        # format change: fields that synthesis never read are no longer accepted
        ({**SCENARIO, "respiration_period_ms": 4000.0},
         "scenario.respiration_period_ms is not a field of SynthScenario"),
        ({**SCENARIO, "baseline_g": 50.0}, "scenario.baseline_g is not a field of SynthScenario"),
        ({**SCENARIO, "current_ma": 1.0}, "scenario.current_ma is not a field of SynthScenario"),
        ({**SCENARIO, "motion_events": [{"start_ms": 100, "duration_ms": 500,
                                          "amplitude": 1.0, "shape": "wobble"}]},
         "scenario.motion_events[0].shape must be one of ('step', 'ramp', 'burst', 'sway')\n"),
        ({**SCENARIO, "motion_events": [{"start_ms": 100, "duration_ms": 0,
                                          "amplitude": 1.0}]},
         "scenario.motion_events[0].duration_ms must be positive\n"),
        ({**SCENARIO, "rr_intervals_ms": []},
         "scenario.rr_intervals_ms needs at least one RR interval\n"),
        ({**SCENARIO, "rr_intervals_ms": [800, 290]},
         "scenario.rr_intervals_ms: 290 ms outside [300, 2000] or off the 10 ms grid\n"),
        ({**SCENARIO, "rr_intervals_ms": [2010]},
         "scenario.rr_intervals_ms: 2010 ms outside [300, 2000] or off the 10 ms grid\n"),
        ({**SCENARIO, "rr_intervals_ms": [805]},
         "scenario.rr_intervals_ms: 805 ms outside [300, 2000] or off the 10 ms grid\n"),
    ], ids=["event-not-object", "top-level-array", "event-without-duration",
            "amplitude-string", "duration-float", "noise-nan", "band-length",
            "negative-seed", "comma-id", "event-past-end", "respiration_period_ms",
            "baseline_g", "current_ma", "event-shape", "event-zero-duration", "no-rr",
            "rr-below-range", "rr-above-range", "rr-off-grid"])
    def test_malformed_scenario_exits_2_naming_the_field(self, tmp_path, capsys, doc,
                                                          message):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        assert run(["gen", "--scenario", scen, "--out-cycles", tmp_path / "c.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scen}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "c.csv").exists()

    def test_scenario_file_not_json_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text('{"subject_seed": 1,')
        assert run(["gen", "--scenario", scen, "--out-cycles", tmp_path / "c.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scen}: invalid scenario JSON: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [scen]

    def test_missing_scenario_file_exits_3(self, tmp_path, capsys):
        scen = tmp_path / "missing.json"
        assert run(["gen", "--scenario", scen, "--out-cycles", tmp_path / "c.csv"]) == 3
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: '{scen}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_duration_over_the_cap_exits_2_before_synthesis(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_synthesis(scenario):
            raise AssertionError("synthesized a scenario over the cap")
        monkeypatch.setattr(cli, "synthesize_stream", no_synthesis)
        monkeypatch.setattr(experiment, "synthesize_stream", no_synthesis)
        scen = tmp_path / "scen.json"
        for duration in (MAX_DURATION_MS + 10, 10 ** 12):
            scen.write_text(json.dumps({**self.SCENARIO, "duration_ms": duration}))
            assert run(["gen", "--scenario", scen, "--out-cycles", tmp_path / "c.csv"]) == 2
            assert (f"duration_ms must be a positive multiple of 10 ms up to "
                    f"{MAX_DURATION_MS} (one hour), got {duration}") in capsys.readouterr().err
        # the RR list of a default subject is drawn only after the same check
        assert run(["gen", "--duration-ms", MAX_DURATION_MS + 10,
                    "--out-cycles", tmp_path / "c.csv"]) == 2
        assert "(one hour)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scen]

    def test_kept_streams_are_scalar_recordings(self):
        ds = experiment.generate_dataset(0, n_subjects=2, duration_ms=25_000,
                                         keep_streams=True)
        assert sorted(ds.streams) == ["s00", "s01"]
        for stream in ds.streams.values():
            assert isinstance(stream, CvsStream)
            arrays = [f for f in stream if isinstance(f, np.ndarray)]
            assert len(arrays) == 3 and all(a.ndim == 1 for a in arrays)

    def test_stream_files_read_back_as_the_kept_streams(self, tmp_path):
        assert run(["gen", "--seed", 0, "--subjects", 3, "--duration-ms", 30000,
                    "--out-cycles", tmp_path / "c.csv",
                    "--out-stream", tmp_path / "s.csv"]) == 0
        kept = experiment.generate_dataset(0, n_subjects=3, duration_ms=30_000,
                                           keep_streams=True).streams
        assert len(kept) == 3
        for sid, stream in kept.items():
            back = dataio.read_stream(str(tmp_path / f"s.csv.{sid}"))
            for got, want in zip(back[:3], stream[:3]):
                assert np.array_equal(got, want)
            assert back.cycle_labels == stream.cycle_labels

    def test_class_mix_near_configured_imbalance(self, workspace):
        cycles = dataio.read_cycles(str(workspace["cycles"]))
        fractions = {lab: sum(c.label is lab for c in cycles) / len(cycles)
                     for lab in QualityLabel}
        assert abs(fractions[QualityLabel.NORMAL] - 0.80) < 0.08
        assert abs(fractions[QualityLabel.AMBIGUOUS] - 0.10) < 0.06
        assert abs(fractions[QualityLabel.MOTION] - 0.10) < 0.06


class TestExitCodes:
    def test_missing_input_file_exits_3(self, tmp_path):
        assert run(["split", "--cycles", tmp_path / "absent.csv",
                    "--out-train", tmp_path / "a", "--out-val", tmp_path / "b",
                    "--out-test", tmp_path / "c"]) == 3

    def test_validation_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("s0,0,1,2,1.0\n")   # declares 2 samples, holds 1
        assert run(["split", "--cycles", bad, "--out-train", tmp_path / "a",
                    "--out-val", tmp_path / "b", "--out-test", tmp_path / "c"]) == 2

    def test_unknown_label_code_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("s0,0,1,2,1.0,2.0\ns0,800,7,2,1.0,2.0\n")
        assert run(["split", "--cycles", bad, "--out-train", tmp_path / "a",
                    "--out-val", tmp_path / "b", "--out-test", tmp_path / "c"]) == 2
        assert f"{bad}:2: unknown label code 7" in capsys.readouterr().err

    def test_duplicate_calibration_subject_exits_2(self, workspace, tmp_path, capsys):
        with open(workspace["calib"], encoding="utf-8") as f:
            first = f.readline()
        calib = tmp_path / "calib.csv"
        calib.write_text(workspace["calib"].read_text() + first)
        n_rows = calib.read_text().count("\n")
        assert run(["evaluate", "--model", workspace["model"], "--test", workspace["cycles"],
                    "--calib", calib, "--out", tmp_path / "report.json"]) == 2
        assert f"{calib}:{n_rows}: subject {first.split(',')[0]!r} already has a " \
               f"calibration row at {calib}:1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("assess", "--model"), ("assess", "--stream"),
                                              ("evaluate", "--test"), ("evaluate", "--calib")])
    def test_directory_for_a_file_exits_3(self, workspace, assess_stream, tmp_path, capsys,
                                          command, flag):
        # opening a directory raises IsADirectoryError, an OSError like a
        # missing file's
        paths = {"assess": {"--model": workspace["model"], "--stream": assess_stream["path"]},
                 "evaluate": {"--model": workspace["model"], "--test": workspace["cycles"],
                              "--calib": workspace["calib"]}}[command]
        folder, out = tmp_path / "folder", tmp_path / "out"
        folder.mkdir()
        paths[flag] = folder
        assert run([command, *(a for pair in paths.items() for a in pair), "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert err.endswith("\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["missing-directory", "a-directory"])
    @pytest.mark.parametrize("command,flag", [("gen", "--out-cycles"), ("gen", "--out-stream"),
                                              ("assess", "--out"), ("evaluate", "--out")])
    def test_unwritable_output_is_named_by_its_path(self, workspace, assess_stream, tmp_path,
                                                     capsys, command, flag, fault):
        # the temp file written beside the path is neither named nor left
        target = tmp_path / "missing" / "out.csv"
        if fault == "a-directory":
            target = tmp_path / "out.csv"
            target.mkdir()
        argv = {"gen": ["--subjects", 1, "--duration-ms", 30000],
                "assess": ["--model", workspace["model"], "--stream", assess_stream["path"]],
                "evaluate": ["--model", workspace["model"], "--test", workspace["cycles"],
                             "--calib", workspace["calib"]]}[command]
        if flag == "--out-stream":
            argv += ["--out-cycles", tmp_path / "c.csv"]
        before = sorted(tmp_path.rglob("*"))
        assert run([command, *argv, flag, target]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err and ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["gen", "split", "train", "train-manifold", "bench"])
    def test_negative_seed_exits_2(self, workspace, tmp_path, capsys, command):
        # numpy's generators take no negative seed; pca ignored it and exited 0
        out = tmp_path / "out"
        inputs = {"gen": ["--subjects", 1, "--duration-ms", 30000, "--out-cycles", out],
                  "split": ["--cycles", workspace["cycles"], "--out-train", out,
                            "--out-val", tmp_path / "val", "--out-test", tmp_path / "test"],
                  "train": ["--arch", "lr", "--train", workspace["cycles"],
                            "--val", workspace["cycles"], "--calib", workspace["calib"],
                            "--epochs", 1, "--out", out],
                  "train-manifold": ["--kind", "pca", "--pos-train",
                                     workspace["root"] / "pos.csv",
                                     "--calib", workspace["calib"], "--out", out],
                  "bench": []}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *inputs, "--seed", -1])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith("error: argument --seed: must be a nonnegative integer, "
                            "got '-1'\n")
        assert not out.exists()


class TestSplitAndTrain:
    def test_split_disjoint(self, workspace, tmp_path):
        out = [tmp_path / n for n in ("tr.csv", "va.csv", "te.csv")]
        assert run(["split", "--cycles", workspace["cycles"], "--seed", 1,
                    "--out-train", out[0], "--out-val", out[1],
                    "--out-test", out[2]]) == 0
        sets = [{c.subject_id for c in dataio.read_cycles(str(p))} for p in out]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2])
        assert not (sets[1] & sets[2])

    def test_unwritable_out_test_writes_no_split_file(self, workspace, tmp_path):
        assert run(["split", "--cycles", workspace["cycles"],
                    "--out-train", tmp_path / "tr.csv", "--out-val", tmp_path / "va.csv",
                    "--out-test", tmp_path / "missing" / "te.csv"]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_train_writes_loadable_model(self, workspace, tmp_path):
        out = [tmp_path / n for n in ("tr.csv", "va.csv", "te.csv")]
        run(["split", "--cycles", workspace["cycles"], "--seed", 1,
             "--out-train", out[0], "--out-val", out[1], "--out-test", out[2]])
        model_path = tmp_path / "lr.json"
        assert run(["train", "--arch", "lr", "--train", out[0], "--val", out[1],
                    "--calib", workspace["calib"], "--epochs", 2,
                    "--out", model_path]) == 0
        model, prep = model_io.load_model(str(model_path))
        assert model.architecture == "lr"
        assert prep == {"norm_scheme": "interp", "scale_mode": "subject"}
        assert run(["evaluate", "--model", model_path, "--test", out[2],
                    "--calib", workspace["calib"],
                    "--out", tmp_path / "report.json"]) == 0
        with open(tmp_path / "report.json") as f:
            report = json.load(f)
        assert set(report["metrics"]) == {"accuracy", "ppv", "npv",
                                          "sensitivity", "specificity", "auc"}


class TestTrainManifold:
    @pytest.mark.parametrize("kind", manifold.MANIFOLD_KINDS)
    def test_negatives_in_pos_train_exit_2(self, workspace, tmp_path, capsys, kind):
        cycles = dataio.read_cycles(str(workspace["cycles"]))
        n_neg = sum(c.label is not QualityLabel.NORMAL for c in cycles)
        assert n_neg > 0
        out = tmp_path / "m.json"
        assert run(["train-manifold", "--kind", kind, "--epochs", 1,
                    "--pos-train", workspace["cycles"], "--calib", workspace["calib"],
                    "--out", out]) == 2
        assert f"{n_neg} non-positive samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["pca", "bcvae"])
    def test_purity_error_before_val_read(self, workspace, tmp_path, capsys, kind):
        out = tmp_path / "m.json"
        assert run(["train-manifold", "--kind", kind, "--epochs", 1,
                    "--pos-train", workspace["cycles"], "--val", tmp_path / "missing.csv",
                    "--calib", workspace["calib"], "--out", out]) == 2
        assert "non-positive samples" in capsys.readouterr().err
        assert not out.exists()

    def test_pca_never_reads_val(self, workspace, tmp_path):
        out = tmp_path / "pca.json"
        assert run(["train-manifold", "--kind", "pca", "--pos-train",
                    workspace["root"] / "pos.csv", "--val", tmp_path / "missing.csv",
                    "--calib", workspace["calib"], "--out", out]) == 0
        assert model_io.load_model(str(out))[0].kind == "pca"

    def test_threshold_matches_library(self, workspace):
        # train-manifold then threshold store the d of train_kind + set_threshold
        calib = dataio.read_calibrations(str(workspace["calib"]))
        x_pos, _, y_pos = preprocess.normalize_dataset(
            dataio.read_cycles(str(workspace["root"] / "pos.csv")), "interp",
            "subject", calib)
        x, _, y = preprocess.normalize_dataset(
            dataio.read_cycles(str(workspace["cycles"])), "interp", "subject", calib)
        model, _ = manifold.train_kind("pca", x_pos, y_pos)
        d, _ = manifold.set_threshold(model, x, y)
        stored = model_io.load_model(str(workspace["model"]))[0]
        assert stored.threshold_d == d == model.threshold_d
        assert stored.training_meta == model.training_meta

    @pytest.mark.parametrize("command", ["train", "train-manifold"])
    def test_zero_epochs_exit_2_and_write_nothing(self, workspace, tmp_path, capsys,
                                                  command):
        out = tmp_path / "m.json"
        if command == "train":
            argv = ["train", "--arch", "lr", "--train", workspace["cycles"],
                    "--val", workspace["cycles"]]
        else:
            argv = ["train-manifold", "--kind", "bcvae",
                    "--pos-train", workspace["root"] / "pos.csv"]
        assert run([*argv, "--epochs", 0, "--calib", workspace["calib"],
                    "--out", out]) == 2
        assert "epochs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["train", "train-manifold"])
    def test_learning_rate_not_positive_and_finite_exits_2(self, workspace, tmp_path,
                                                           capsys, command, lr):
        # a NaN rate would train a NaN model, and a negative one ascend the loss
        out = tmp_path / "m.json"
        if command == "train":
            argv = ["train", "--arch", "lr", "--train", workspace["cycles"],
                    "--val", workspace["cycles"]]
        else:
            argv = ["train-manifold", "--kind", "bcvae",
                    "--pos-train", workspace["root"] / "pos.csv"]
        assert run([*argv, "--epochs", 1, f"--lr={lr}", "--calib", workspace["calib"],
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: learning rate must be a positive finite number, " \
                      f"got {float(lr)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["-5", "nan"])
    def test_beta_not_positive_and_finite_exits_2(self, workspace, tmp_path, capsys,
                                                 beta):
        out = tmp_path / "m.json"
        assert run(["train-manifold", "--kind", "bvae", f"--beta={beta}", "--epochs", 1,
                    "--pos-train", workspace["root"] / "pos.csv",
                    "--calib", workspace["calib"], "--out", out]) == 2
        assert capsys.readouterr().err == \
            f"error: beta must be a positive finite number, got {float(beta)}\n"
        assert not out.exists()

    def test_pca_ignores_epochs(self, workspace, tmp_path):
        out = tmp_path / "pca.json"
        assert run(["train-manifold", "--kind", "pca", "--epochs", 0,
                    "--pos-train", workspace["root"] / "pos.csv",
                    "--calib", workspace["calib"], "--out", out]) == 0
        assert model_io.load_model(str(out))[0].kind == "pca"


class TestSharedScoring:
    @pytest.mark.parametrize("arch", ["pca", "lr"])
    def test_evaluate_report_matches_library_scoring(self, workspace, tmp_path, arch):
        model_path = workspace["model"]
        if arch == "lr":
            model_path = tmp_path / "lr.json"
            assert run(["train", "--arch", "lr", "--epochs", 2,
                        "--train", workspace["cycles"], "--val", workspace["cycles"],
                        "--calib", workspace["calib"], "--out", model_path]) == 0
        out = tmp_path / "report.json"
        assert run(["evaluate", "--model", model_path, "--test", workspace["cycles"],
                    "--calib", workspace["calib"], "--out", out]) == 0
        report = json.loads(out.read_text())

        model, prep = model_io.load_model(str(model_path))
        x, _, y_eval = preprocess.normalize_dataset(
            dataio.read_cycles(str(workspace["cycles"])), prep["norm_scheme"],
            prep["scale_mode"], dataio.read_calibrations(str(workspace["calib"])))
        expected = evaluate_scores(*model.score(x), y_eval)
        assert report["metrics"] == {k: expected[k] for k in report["metrics"]}
        assert report["undefined"] == expected["undefined"]

    def test_unknown_scale_mode_exits_2_in_evaluate_and_assess(self, workspace,
                                                               assess_stream,
                                                               tmp_path):
        model, prep = model_io.load_model(str(workspace["model"]))
        bogus = tmp_path / "bogus.json"
        model_io.save_model(model, str(bogus), norm_scheme=prep["norm_scheme"],
                            scale_mode="bogus")   # checksum recomputed
        assert run(["evaluate", "--model", bogus, "--test", workspace["cycles"],
                    "--calib", workspace["calib"]]) == 2
        assert run(["assess", "--model", bogus,
                    "--stream", assess_stream["path"]]) == 2


@pytest.fixture(scope="module")
def vae_doc(tmp_path_factory):
    """The parsed file of a thresholded bcvae: it has every payload field."""
    model = manifold.build_vae("bcvae", seed=0)
    model.threshold_d = 1.0
    path = tmp_path_factory.mktemp("vae") / "bcvae.json"
    model_io.save_model(model, str(path), norm_scheme="interp", scale_mode="subject")
    return json.loads(path.read_text())


def encoded_zeros(*shape):
    return to_json(np.zeros(shape))


def with_first_value(tensor, value):
    """An encoded tensor of tensor's shape: zeros, the first value set to value."""
    a = np.zeros(tensor["shape"])
    a.flat[0] = value
    return to_json(a)


# payload edit -> the start of the one error line, after "error: <path>: "
MALFORMED_PAYLOADS = {
    "no preprocessing": (lambda p: p.pop("preprocessing"),
                         "payload.preprocessing is required"),
    "no norm_scheme": (lambda p: p["preprocessing"].pop("norm_scheme"),
                       "payload.preprocessing.norm_scheme is required"),
    "no scale_mode": (lambda p: p["preprocessing"].pop("scale_mode"),
                      "payload.preprocessing.scale_mode is required"),
    "unknown norm_scheme": (lambda p: p["preprocessing"].update(norm_scheme="resample"),
                            "payload.preprocessing.norm_scheme must be one of "),
    "unknown scale_mode": (lambda p: p["preprocessing"].update(scale_mode="bogus"),
                           "payload.preprocessing.scale_mode must be one of "),
    "no family": (lambda p: p.pop("family"), "payload.family is required"),
    "unknown field": (lambda p: p.update(extra=1), "payload.extra is not a field of VaeModel"),
    "no kind": (lambda p: p.pop("kind"), "payload.kind is required"),
    "unknown kind": (lambda p: p.update(kind="gan"),
                     "payload.kind must be one of ('pca', 'vae', 'bvae', 'cvae', 'bcvae'), "
                     "got 'gan'"),
    "no tensor": (lambda p: p["params"].pop("dec.layer8.b"),
                  "payload.params.dec.layer8.b is required"),
    "tensor not an object": (lambda p: p["params"].update({"enc.layer0.b": [0.0] * 8}),
                             "payload.params.enc.layer0.b must be a tensor object, got [0.0, "),
    "tensor without data": (lambda p: p["params"]["enc.layer0.b"].pop("data"),
                            "payload.params.enc.layer0.b must be a tensor object, got "
                            "{'shape': [8]}"),
    "tensor of another size": (lambda p: p["params"]["enc.layer0.b"].update(shape=[9]),
                               "payload.params.enc.layer0.b does not hold [9] float64 values"),
    "encoder conv cin": (lambda p: p["encoder"][1].update(cin=9),
                         "payload.encoder layer 1 (conv): cin is 9, receives [75, 8]"),
    "deconv out_len": (lambda p: p["decoder"][2].update(out_len=21),
                       "payload.decoder layer 2 (deconv): out_len 21 at stride 2 does not "
                       "come from input length 10"),
    "decoder output": (lambda p: p["decoder"][-1].update(out=149),
                       "payload.decoder maps [10] to [149], expected [150]"),
    "tensor of another layer's shape": (
        lambda p: p["params"].update({"dec.layer4.W": encoded_zeros(3, 16, 9)}),
        "payload.params.dec.layer4.W has shape [3, 16, 9], expected [3, 16, 8]"),
    "nan tensor": (lambda p: p["params"].update(
        {"enc.layer0.W": with_first_value(p["params"]["enc.layer0.W"], math.nan)}),
        "payload.params.enc.layer0.W holds NaN or inf"),
    "inf tensor": (lambda p: p["params"].update(
        {"dec.layer8.b": with_first_value(p["params"]["dec.layer8.b"], -math.inf)}),
        "payload.params.dec.layer8.b holds NaN or inf"),
    "negative beta": (lambda p: p.update(beta=-1),
                      "payload.beta must be a positive finite number, got -1"),
    "string threshold": (lambda p: p.update(threshold="x"),
                         "payload.threshold must be null or a finite number, got 'x'"),
    "bool threshold": (lambda p: p.update(threshold=True),
                       "payload.threshold must be null or a finite number, got True"),
    "nan threshold": (lambda p: p.update(threshold=math.nan),
                      "payload.threshold must be null or a finite number, got nan"),
    "inf threshold": (lambda p: p.update(threshold=math.inf),
                      "payload.threshold must be null or a finite number, got inf"),
}


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    """The parsed files of a vgg3 classifier and of a thresholded PCA."""
    root = tmp_path_factory.mktemp("docs")
    pca = manifold.pca_fit(np.random.default_rng(0).normal(size=(30, 150)))
    pca.threshold_d = 1.0
    docs = {}
    for name, model in (("vgg3", discriminative.build("vgg3", seed=0)), ("pca", pca)):
        model_io.save_model(model, str(root / name), norm_scheme="interp",
                            scale_mode="subject")
        docs[name] = json.loads((root / name).read_text())
    return docs


# model -> payload edit -> the start of the one error line.  vgg3 is
# conv-conv-pool blocks of 4, 8 and 16 channels (layers 0-8), a flatten,
# then dense 288 -> 288 -> 1
MALFORMED_SHAPES = {
    "5-element bias": ("vgg3", lambda p: p["params"].update({"layer0.b": encoded_zeros(5)}),
                       "payload.params.layer0.b has shape [5], expected [4]"),
    "conv without k": ("vgg3", lambda p: p["descriptor"][0].pop("k"),
                       "payload.descriptor layer 0 (conv): k must be a positive integer, "
                       "got None"),
    "string stride": ("vgg3", lambda p: p["descriptor"][3].update(stride="2"),
                      "payload.descriptor layer 3 (conv): stride must be a positive "
                      "integer, got '2'"),
    "conv cin": ("vgg3", lambda p: p["descriptor"][1].update(cin=3),
                 "payload.descriptor layer 1 (conv): cin is 3, receives [150, 4]"),
    "dense in": ("vgg3", lambda p: p["descriptor"][10].update({"in": 100}),
                 "payload.descriptor layer 10 (dense): in is 100, receives [288]"),
    "unknown layer type": ("vgg3", lambda p: p["descriptor"][2].update(type="avgpool"),
                           "payload.descriptor layer 2: unknown layer type 'avgpool'"),
    "unknown activation": ("vgg3", lambda p: p["descriptor"][0].update(act="tanh"),
                           "payload.descriptor layer 0 (conv): unknown activation 'tanh'"),
    "two outputs": ("vgg3", lambda p: p["descriptor"][11].update(out=2),
                    "payload.descriptor maps [150] to [2], expected [1]"),
    "pca mean": ("pca", lambda p: p.update(mean=encoded_zeros(149)),
                 "payload.mean has shape [149], expected [150]"),
    "pca components": ("pca", lambda p: p.update(components=encoded_zeros(150)),
                       "payload.components has shape [150], expected [n, 150]"),
    "nan pca mean": ("pca", lambda p: p.update(mean=with_first_value(p["mean"], math.nan)),
                     "payload.mean holds NaN or inf"),
}


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", MALFORMED_PAYLOADS)
    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_one_error_line_naming_the_field(self, workspace, assess_stream, vae_doc,
                                             tmp_path, capsys, case, command):
        self.check(workspace, assess_stream, vae_doc, tmp_path, capsys,
                   *MALFORMED_PAYLOADS[case], command)

    @pytest.mark.parametrize("case", MALFORMED_SHAPES)
    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_tensor_or_layer_that_does_not_fit(self, workspace, assess_stream, model_docs,
                                               tmp_path, capsys, case, command):
        name, edit, message = MALFORMED_SHAPES[case]
        self.check(workspace, assess_stream, model_docs[name], tmp_path, capsys,
                   edit, message, command)

    @staticmethod
    def check(workspace, assess_stream, model_doc, tmp_path, capsys, edit, message, command):
        doc = json.loads(json.dumps(model_doc))
        edit(doc["payload"])
        doc["checksum"] = model_io._checksum(doc["payload"])   # only the field is wrong
        path, out = tmp_path / "m.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        if command == "evaluate":
            argv = ["evaluate", "--test", workspace["cycles"], "--calib", workspace["calib"]]
        else:
            argv = ["assess", "--stream", assess_stream["path"]]
        assert run([*argv, "--model", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.endswith("\n") and err.count("\n") == 1
        assert not out.exists()


def stream_file(root, duration_ms):
    scenario = experiment.default_subject_scenario(3, 0, duration_ms=duration_ms)
    stream_path = root / "stream.csv"
    from cvsqi.forward import synthesize_stream
    stream = synthesize_stream(scenario)
    dataio.write_stream(stream, str(stream_path))
    return {"root": root, "path": stream_path, "stream": stream}


@pytest.fixture(scope="module")
def assess_stream(tmp_path_factory):
    return stream_file(tmp_path_factory.mktemp("assess"), 50_000)


@pytest.fixture(scope="module")
def long_assess_stream(tmp_path_factory):
    """A recording of more than two BATCH_ROWS chunks of cycles."""
    return stream_file(tmp_path_factory.mktemp("assess-long"), 200_000)


class TestAssess:
    def test_verdict_cardinality(self, workspace, assess_stream):
        out = assess_stream["root"] / "verdicts.csv"
        assert run(["assess", "--model", workspace["model"],
                    "--stream", assess_stream["path"], "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == len(assess_stream["stream"].r_peaks) - 1

    def test_deterministic(self, workspace, assess_stream):
        outs = []
        for name in ("v1.csv", "v2.csv"):
            out = assess_stream["root"] / name
            run(["assess", "--model", workspace["model"],
                 "--stream", assess_stream["path"], "--out", out])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_short_stream_missing_calibration(self, workspace, tmp_path, capsys):
        scenario = experiment.default_subject_scenario(3, 0, duration_ms=19_000)
        from cvsqi.forward import synthesize_stream
        stream = synthesize_stream(scenario)
        path = tmp_path / "short.csv"
        dataio.write_stream(stream, str(path))
        assert run(["assess", "--model", workspace["model"],
                    "--stream", path]) == 2
        assert ("stream holds 19.0 s; subject scaling needs the first 20 s"
                in capsys.readouterr().err)

    def test_nan_in_calibration_seconds_exits_2(self, workspace, assess_stream,
                                                tmp_path, capsys):
        lines = assess_stream["path"].read_text().split("\n")
        fields = lines[50].split(",")
        fields[1] = "nan"
        lines[50] = ",".join(fields)
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines))
        assert run(["assess", "--model", workspace["model"], "--stream", path]) == 2
        assert ("subject 'stream' holds a non-finite sample (nan) at index 50"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bias,p,verdict", [(0.0, 0.5, 1),
                                                (2.3e-16, np.nextafter(0.5, 1), 1),
                                                (-2.3e-16, np.nextafter(0.5, 0), 0)])
    def test_accept_probability_boundary(self, assess_stream, tmp_path, bias, p, verdict):
        # an lr model with zero weights scores every cycle sigmoid(bias): 0.5
        # exactly, and one ulp above and below it
        model = discriminative.build("lr", seed=0)
        model.params.values["layer0.W"][:] = 0.0
        model.params.values["layer0.b"][:] = bias
        scores, verdicts = model.score(np.zeros((3, 150)))
        assert scores.tolist() == [p] * 3 and verdicts.tolist() == [verdict] * 3
        path, out = tmp_path / "lr.json", tmp_path / "verdicts.csv"
        model_io.save_model(model, str(path), norm_scheme="interp", scale_mode="subject")
        assert run(["assess", "--model", path, "--stream", assess_stream["path"],
                    "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) > 0
        assert {(v, float(s)) for _, v, s in rows} == {(str(verdict), p)}

    def test_motion_free_stream_mostly_accepted(self, workspace, tmp_path):
        from cvsqi.forward import SynthScenario, synthesize_stream
        scenario = SynthScenario(subject_seed=21, duration_ms=60_000,
                                 rr_intervals_ms=(800, 790, 810),
                                 subject_id="clean")
        stream = synthesize_stream(scenario)
        path = tmp_path / "clean.csv"
        dataio.write_stream(stream, str(path))
        out = tmp_path / "verdicts.csv"
        assert run(["assess", "--model", workspace["model"], "--stream", path,
                    "--out", out]) == 0
        verdicts = [int(l.split(",")[1]) for l in out.read_text().strip().split("\n")]
        assert np.mean(verdicts) >= 0.95

    def test_preprocessing_parity_with_training_pipeline(self, workspace,
                                                         assess_stream):
        # library route: normalize with the calibration window from the stream
        stream = assess_stream["stream"]
        model, prep = model_io.load_model(str(workspace["model"]))
        cycles = cycles_from_stream(stream, "stream", skip_calibration=False)
        cal = calibration_from_stream(stream, "stream")
        s = subject_scale_factor(cal)
        vectors = [normalize_cycle(c, prep["norm_scheme"], s).values
                   for c in cycles]
        # the batch pipeline route produces byte-identical 150-vectors
        from cvsqi.preprocess import normalize_dataset
        batch, _, _ = normalize_dataset(cycles, prep["norm_scheme"], "subject",
                                        {"stream": cal})
        import hashlib
        h1 = [hashlib.sha256(v.tobytes()).hexdigest() for v in vectors]
        h2 = [hashlib.sha256(row.tobytes()).hexdigest() for row in batch]
        assert h1 == h2

        expected = manifold.residuals(model, np.stack(vectors))
        out = assess_stream["root"] / "parity.csv"
        run(["assess", "--model", workspace["model"],
             "--stream", assess_stream["path"], "--out", out])
        got = np.array([-float(l.split(",")[2])
                        for l in out.read_text().strip().split("\n")])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("arch", discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS)
    def test_file_rows_match_per_cycle_scores(self, assess_stream, tmp_path, arch):
        self.file_rows_match_per_cycle_scores(assess_stream, tmp_path, arch)

    @pytest.mark.parametrize("arch", discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS)
    def test_chunked_file_rows_match_per_cycle_scores(self, long_assess_stream, tmp_path,
                                                      arch):
        # several chunks, on a thread pool where the process has a CPU that
        # none of its threads holds (nn.by_rows)
        n = self.file_rows_match_per_cycle_scores(long_assess_stream, tmp_path, arch)
        assert n > 2 * nn.BATCH_ROWS

    @staticmethod
    def file_rows_match_per_cycle_scores(assess_stream, tmp_path, arch) -> int:
        """The file is scored as one batch; each cycle scored alone must
        agree.  Returns the number of cycles."""
        stream = assess_stream["stream"]
        cycles = cycles_from_stream(stream, "stream", skip_calibration=False)
        s = subject_scale_factor(calibration_from_stream(stream, "stream"))
        vectors = np.stack([normalize_cycle(c, "interp", s).values for c in cycles])
        if arch in manifold.MANIFOLD_KINDS:
            model = (manifold.pca_fit(vectors) if arch == "pca"
                     else manifold.build_vae(arch, seed=0))
            r = np.sort(manifold.residuals(model, vectors))
            model.threshold_d = float(r[len(r) // 2 - 1: len(r) // 2 + 1].mean())
        else:
            model = discriminative.build(arch, seed=0)
        path = tmp_path / "model.json"
        model_io.save_model(model, str(path), norm_scheme="interp", scale_mode="subject")
        out = tmp_path / "verdicts.csv"
        assert run(["assess", "--model", path, "--stream", assess_stream["path"],
                    "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", ndmin=2)
        model = model_io.load_model(str(path))[0]
        alone = [model.score(v[None]) for v in vectors]
        assert np.array_equal(rows[:, 0], [c.t_start_ms for c in cycles])
        assert np.array_equal(rows[:, 1], [int(v[0]) for _, v in alone])
        assert np.allclose(rows[:, 2], [float(sc[0]) for sc, _ in alone],
                           rtol=1e-12, atol=0)
        return len(cycles)


class TestNonFiniteCycle:
    """A NaN or inf sample ends every command that normalizes its cycle with
    exit 2 and one error line naming the subject and t_start_ms."""

    @staticmethod
    def poisoned(workspace, tmp_path, bad="nan"):
        cycles = dataio.read_cycles(str(workspace["cycles"]))
        cycles[7].samples[5] = float(bad)
        path = tmp_path / "bad.csv"
        dataio.write_cycles(cycles, str(path))
        return path, (f"error: cycle of subject {cycles[7].subject_id!r} at t_start_ms "
                      f"{cycles[7].t_start_ms} holds a non-finite sample\n")

    @pytest.mark.parametrize("scale", ["subject", "none", "naive"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_train_exits_2(self, workspace, tmp_path, capsys, scale, bad):
        path, message = self.poisoned(workspace, tmp_path, bad)
        out = tmp_path / "lr.json"
        assert run(["train", "--arch", "lr", "--train", path, "--val", workspace["cycles"],
                    "--calib", workspace["calib"], "--scale", scale, "--epochs", 1,
                    "--out", out]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("cmd,flag", [("threshold", "--scored"), ("evaluate", "--test")])
    def test_threshold_and_evaluate_exit_2(self, workspace, tmp_path, capsys, cmd, flag):
        path, message = self.poisoned(workspace, tmp_path)
        before = workspace["model"].read_bytes()
        assert run([cmd, "--model", workspace["model"], flag, path,
                    "--calib", workspace["calib"]]) == 2
        assert capsys.readouterr().err == message
        assert workspace["model"].read_bytes() == before

    def test_assess_exits_2_naming_the_cycle(self, workspace, assess_stream, tmp_path,
                                              capsys):
        # behaviour change: this row used to be scored as "t,0,nan" with exit 0
        lines = assess_stream["path"].read_text().split("\n")
        row = 3000                                   # 30 s, past the calibration window
        fields = lines[row].split(",")
        fields[1] = "nan"
        lines[row] = ",".join(fields)
        path, out = tmp_path / "nan.csv", tmp_path / "verdicts.csv"
        path.write_text("\n".join(lines))
        t = int(fields[0])
        start = max(p for p in assess_stream["stream"].r_peaks.tolist() if p < t)
        assert run(["assess", "--model", workspace["model"], "--stream", path,
                    "--out", out]) == 2
        assert capsys.readouterr().err == (f"error: cycle of subject 'stream' at "
                                           f"t_start_ms {start} holds a non-finite sample\n")
        assert not out.exists()


class TestBench:
    @pytest.mark.parametrize("norm_scheme,scale_mode", [("pad", "subject"),
                                                        ("interp", "none"),
                                                        ("interp", "naive")])
    def test_other_preprocessing_exits_2_before_timing(self, tmp_path, capsys,
                                                       monkeypatch, norm_scheme,
                                                       scale_mode):
        def untimed(*args):
            raise AssertionError("bench went on to time")
        monkeypatch.setattr(bench, "_bench_cycles", untimed)
        monkeypatch.setattr(bench, "bench_models", untimed)
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        model = discriminative.build("lr", seed=0)
        model_io.save_model(model, str(good), norm_scheme="interp", scale_mode="subject")
        model_io.save_model(model, str(bad), norm_scheme=norm_scheme, scale_mode=scale_mode)
        assert run(["bench", "--models", good, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: records ") and err.count("\n") == 1
        assert repr(norm_scheme) in err and repr(scale_mode) in err

    def test_models_without_a_file_exits_2(self, capsys, monkeypatch):
        # an empty list is no request for the ten untrained built-in models
        def untimed(*args):
            raise AssertionError("bench went on to time")
        monkeypatch.setattr(bench, "_bench_cycles", untimed)
        monkeypatch.setattr(bench, "bench_models", untimed)
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--models"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.endswith("error: argument --models: expected at least one argument\n")

    def test_models_named_from_their_files(self, tmp_path, capsys, monkeypatch):
        timed = []
        monkeypatch.setattr(bench, "_bench_cycles", lambda n, seed: ["cycles", n, seed])
        monkeypatch.setattr(bench, "bench_models",
                            lambda named, cycles: timed.append((named, cycles)) or [])
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        models = [discriminative.build("mlp1", seed=0), manifold.build_vae("cvae", seed=0)]
        models[1].threshold_d = 1.0
        for model, path in zip(models, paths):
            model_io.save_model(model, str(path), **bench.BENCH_PREPROCESSING)
        assert run(["bench", "--models", *paths, "--n-cycles", 1234]) == 0
        [(named, cycles)] = timed
        assert [name for name, _ in named] == ["mlp1", "cvae"]
        assert cycles == ["cycles", 1234, 0]

    def test_model_without_threshold_exits_2_before_timing(self, tmp_path, capsys,
                                                           monkeypatch):
        # the file that cannot score comes second: the first is not timed either
        def untimed(*args):
            raise AssertionError("bench went on to time")
        monkeypatch.setattr(bench, "_bench_cycles", untimed)
        monkeypatch.setattr(bench, "bench_models", untimed)
        good, bad = tmp_path / "vgg5.json", tmp_path / "bcvae.json"
        out = tmp_path / "BENCH_x.json"
        model_io.save_model(discriminative.build("vgg5", seed=0), str(good),
                            **bench.BENCH_PREPROCESSING)
        model_io.save_model(manifold.build_vae("bcvae", seed=0), str(bad),
                            **bench.BENCH_PREPROCESSING)
        assert run(["bench", "--models", good, bad, "--out", out]) == 2
        assert capsys.readouterr().err == (f"error: {bad}: manifold model has no "
                                           f"threshold; run `threshold` first\n")
        assert not out.exists()


class TestStrayConfigEnv:
    @pytest.mark.parametrize("text", ['{"seed": 5}', "not json"])
    def test_config_variable_changes_nothing(self, workspace, tmp_path, monkeypatch, text):
        # flags are a command's only settings: a CVSQI_CONFIG left in the
        # environment, naming JSON or not, changes no exit code and no byte
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        runs = []
        for name in ("plain", "stray"):
            if name == "stray":
                monkeypatch.setenv("CVSQI_CONFIG", str(cfg))
            else:
                monkeypatch.delenv("CVSQI_CONFIG", raising=False)
            d = tmp_path / name
            d.mkdir()
            codes = [run(["gen", "--subjects", 1, "--duration-ms", 30000,
                          "--out-cycles", d / "c.csv"]),
                     run(["train", "--arch", "lr", "--epochs", 1, "--train", workspace["cycles"],
                          "--val", workspace["cycles"], "--calib", workspace["calib"],
                          "--out", d / "model.json"])]
            runs.append((codes, {f: (d / f).read_bytes() for f in ("c.csv", "model.json")}))
        assert runs[0][0] == [0, 0]
        assert runs[1] == runs[0]
