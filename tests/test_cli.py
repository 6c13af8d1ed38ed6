import filecmp
import json

import numpy as np
import pytest

from cvsqi import (cli, dataio, discriminative, experiment, manifold,
                   model_io, preprocess)
from cvsqi.labels import QualityLabel
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
        expected = experiment.evaluate_scores(*experiment.score(model, x), y_eval)
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
def assess_stream(tmp_path_factory):
    root = tmp_path_factory.mktemp("assess")
    scenario = experiment.default_subject_scenario(3, 0, duration_ms=50_000)
    stream_path = root / "stream.csv"
    from cvsqi.forward import synthesize_stream
    stream = synthesize_stream(scenario)
    dataio.write_stream(stream, str(stream_path))
    return {"root": root, "path": stream_path, "stream": stream}


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

    def test_scheme_mismatch_rejected(self, workspace, assess_stream):
        assert run(["assess", "--model", workspace["model"],
                    "--stream", assess_stream["path"], "--norm", "pad"]) == 2

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
        # the file is scored as one batch; each cycle scored alone must agree
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
        alone = [experiment.score(model, v[None]) for v in vectors]
        assert np.array_equal(rows[:, 0], [c.t_start_ms for c in cycles])
        assert np.array_equal(rows[:, 1], [int(v[0]) for _, v in alone])
        assert np.allclose(rows[:, 2], [float(sc[0]) for sc, _ in alone],
                           rtol=1e-12, atol=0)


class TestConfigEnv:
    def test_config_file_overrides_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "norm": "pad"}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        parser = cli.build_parser(cli._load_config())
        args = parser.parse_args(["gen", "--out-cycles", "x.csv"])
        assert args.seed == 5
        args = parser.parse_args(["train", "--train", "t", "--val", "v",
                                  "--out", "o"])
        assert args.norm == "pad"

    def test_each_config_file_gets_its_own_defaults(self, tmp_path, monkeypatch):
        # main() reuses one parser per config, so a second config must not see
        # the first one's defaults, nor a repeated config a stale parser
        def gen(name, *flags):
            out = tmp_path / f"{name}.csv"
            assert run(["gen", "--subjects", 1, "--duration-ms", 30000,
                        "--out-cycles", out, *flags]) == 0
            return out

        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        for seed in (5, 6):
            cfg = tmp_path / f"cfg{seed}.json"
            cfg.write_text(json.dumps({"seed": seed}))
        explicit = {seed: gen(f"explicit{seed}", "--seed", seed) for seed in (5, 6)}
        assert not filecmp.cmp(explicit[5], explicit[6], shallow=False)
        for i, seed in enumerate((5, 6, 5)):
            monkeypatch.setenv(cli.CONFIG_ENV, str(tmp_path / f"cfg{seed}.json"))
            assert filecmp.cmp(gen(f"config{i}"), explicit[seed], shallow=False)

    def test_bad_config_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        assert run(["gen", "--out-cycles", tmp_path / "c.csv"]) == 2
