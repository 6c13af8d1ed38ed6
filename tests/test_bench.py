"""`cvsqi bench --out BENCH_<label>.json`: the record's schema, at a tiny size.

CI also runs this file under OPENBLAS_NUM_THREADS=1.
"""
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from cvsqi import bench, cli, discriminative, model_io

ENV_KEYS = {"nproc": int, "python": str, "numpy": str, "blas": str, "seed": int,
            "n_cycles": int, "inference_workers": int}
LATENCY_KEYS = {"model": str, "n_samples": int, "mean_us": float, "median_us": float,
                "p99_us": float, "batch_us_per_cycle": float}
MODEL_IO_KEYS = {"model": str, "bytes": int, "save_ms": float, "load_ms": float}


@pytest.fixture
def tiny(monkeypatch):
    """bench at a tiny size: 20 cycles, one one-step call per training model,
    two saves and loads of each model file."""
    monkeypatch.setattr(bench, "BENCH_MIN_CYCLES", 20)
    monkeypatch.setattr(bench, "IO_REPEATS", 2)
    monkeypatch.setattr(bench, "CALIBRATION_REPS", 10)
    monkeypatch.setattr(bench, "STEP_BATCHES", 1)
    monkeypatch.setattr(bench, "STEP_REPEATS", 2)


def run(argv):
    return cli.main([str(a) for a in argv])


def source_sha256(package: Path) -> str:
    """SHA-256 of each .py file's name and bytes, in file-name order."""
    digest = hashlib.sha256()
    for name in sorted(p.name for p in package.iterdir() if p.suffix == ".py"):
        digest.update(name.encode("utf-8"))
        digest.update((package / name).read_bytes())
    return digest.hexdigest()


def test_out_record_schema(tmp_path, tiny, capsys):
    model = tmp_path / "lr.json"
    model_io.save_model(discriminative.build("lr", seed=0), str(model),
                        **bench.BENCH_PREPROCESSING)
    out = tmp_path / "BENCH_tiny.json"
    assert run(["bench", "--models", model, "--n-cycles", 20, "--seed", 3,
                "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "train step bcvae (float32, batch 64): " in printed
    record = json.loads(out.read_text(encoding="utf-8"))
    assert list(record) == ["env", "per_cycle", "train_step", "model_io"]

    env = record["env"]
    assert set(env) == {*ENV_KEYS, "blas_threads", "git_describe", "source_sha256",
                        "calibration_s"}
    for key, kind in ENV_KEYS.items():
        assert isinstance(env[key], kind), key
    assert env["seed"] == 3 and env["n_cycles"] == 20
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    assert env["git_describe"] is None or isinstance(env["git_describe"], str)
    assert env["source_sha256"] == source_sha256(Path(bench.__file__).parent)
    assert list(env["calibration_s"]) == ["before", "after"]
    assert all(t > 0 for t in env["calibration_s"].values())

    [row] = record["per_cycle"]
    assert set(row) == set(LATENCY_KEYS) and row["model"] == "lr"
    for key, kind in LATENCY_KEYS.items():
        assert isinstance(row[key], kind), key
    assert row["n_samples"] == 20
    assert row["batch_us_per_cycle"] > 0
    assert env["inference_workers"] == 1                    # 20 rows: one chunk

    steps = record["train_step"]
    assert steps == {"dtype": "float32", "batch": 64, "steps_per_call": 1,
                     "models": steps["models"]}
    assert list(steps["models"]) == list(bench.STEP_MODELS) == ["bcvae", "vgg3"]
    for step in steps["models"].values():
        assert set(step) == {"median_ms", "ms"} and len(step["ms"]) == 2
        assert step["median_ms"] > 0

    files = record["model_io"]
    assert list(files) == ["repeats", "models"] and files["repeats"] == 2
    [row] = files["models"]
    assert list(row) == list(MODEL_IO_KEYS) and row["model"] == "lr"
    for key, kind in MODEL_IO_KEYS.items():
        assert isinstance(row[key], kind), key
    assert row["bytes"] == model.stat().st_size      # the same file, saved again
    assert row["save_ms"] > 0 and row["load_ms"] > 0
    assert f"model file lr ({row['bytes']} B): save " in printed


def test_without_out_writes_nothing_and_times_no_training(tmp_path, tiny, monkeypatch,
                                                          capsys):
    def untimed(*args):
        raise AssertionError("bench timed training or model files without --out")
    monkeypatch.setattr(bench, "train_steps", untimed)
    monkeypatch.setattr(bench, "model_io_ms", untimed)
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "lr.json"
    model_io.save_model(discriminative.build("lr", seed=0), str(model),
                        **bench.BENCH_PREPROCESSING)
    assert run(["bench", "--models", model, "--n-cycles", 20]) == 0
    assert list(tmp_path.iterdir()) == [model]


def test_unwritable_out_exits_3_before_timing(tmp_path, monkeypatch, capsys):
    def untimed(*args):
        raise AssertionError("bench went on to time")
    monkeypatch.setattr(bench, "bench_models", untimed)
    out = tmp_path / "missing" / "BENCH_x.json"
    assert run(["bench", "--out", out]) == 3
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


@pytest.mark.parametrize("value", ["0", "-5", "2.5"])
def test_n_cycles_not_a_positive_integer_exits_2_naming_the_flag(monkeypatch, capsys, value):
    # argparse rejects it, as gen --subjects 0, before any cycle is made
    def untimed(*args):
        raise AssertionError("bench went on to make cycles")
    monkeypatch.setattr(bench, "_bench_cycles", untimed)
    with pytest.raises(SystemExit) as exc:
        run(["bench", f"--n-cycles={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.endswith(f"error: argument --n-cycles: must be a positive integer, "
                        f"got {value!r}\n")


def test_source_sha256_names_the_bytes_of_the_source(tmp_path, monkeypatch):
    # a copy of the package hashes alike; one changed byte in any file, or a
    # renamed file, changes the hash
    tree = tmp_path / "cvsqi"
    shutil.copytree(Path(bench.__file__).parent, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    here = bench.environment(0)["source_sha256"]
    monkeypatch.setattr(bench, "__file__", str(tree / "bench.py"))
    assert bench.environment(0)["source_sha256"] == source_sha256(tree) == here
    text = bytearray((tree / "preprocess.py").read_bytes())
    text[-2] ^= 1
    (tree / "preprocess.py").write_bytes(bytes(text))
    changed = bench.environment(0)["source_sha256"]
    assert changed == source_sha256(tree) != here
    (tree / "preprocess.py").rename(tree / "preprocess2.py")
    assert bench.environment(0)["source_sha256"] not in (here, changed)


@pytest.mark.parametrize("env,threads", [({}, None), ({"OMP_NUM_THREADS": "2"}, 2),
                                         ({"OPENBLAS_NUM_THREADS": "1",
                                           "OMP_NUM_THREADS": "4"}, 1),
                                         ({"OPENBLAS_NUM_THREADS": "x"}, None)])
def test_blas_threads_from_the_environment(monkeypatch, env, threads):
    for var in bench.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert bench.environment(0)["blas_threads"] == threads
