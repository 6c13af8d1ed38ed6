import json

import numpy as np
import pytest

from cvsqi import discriminative, experiment, manifold, model_io
from cvsqi.errors import IoError
from cvsqi.preprocess import normalize_dataset


@pytest.fixture
def probe():
    return np.random.default_rng(9).normal(size=(16, 150))


class TestDiscriminativeRoundTrip:
    def test_bitwise_identical_params_and_verdicts(self, tmp_path, probe, seed):
        model = discriminative.build("mlp2", seed=seed)
        path = str(tmp_path / "m.json")
        model_io.save_model(model, path, norm_scheme="interp", scale_mode="subject")
        loaded, prep = model_io.load_model(path)
        assert prep == {"norm_scheme": "interp", "scale_mode": "subject"}
        for k, v in model.params.values.items():
            assert np.array_equal(loaded.params.values[k], v)
        assert np.array_equal(discriminative.forward(model, probe),
                              discriminative.forward(loaded, probe))


class TestManifoldRoundTrip:
    def test_pca(self, tmp_path, probe, seed):
        rng = np.random.default_rng(seed)
        model = manifold.pca_fit(rng.normal(size=(30, 150)))
        model.threshold_d = 1.25
        path = str(tmp_path / "pca.json")
        model_io.save_model(model, path, norm_scheme="pad", scale_mode="naive")
        loaded, prep = model_io.load_model(path)
        assert prep["norm_scheme"] == "pad"
        assert loaded.threshold_d == 1.25
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(manifold.residuals(loaded, probe),
                              manifold.residuals(model, probe))

    def test_vae(self, tmp_path, probe, seed):
        model = manifold.build_vae("bcvae", seed=seed, beta=0.5)
        model.threshold_d = 2.0
        model.train_audit = {"negatives_in_updates": 0, "updates": 3,
                             "samples_seen": 99}
        path = str(tmp_path / "vae.json")
        model_io.save_model(model, path, norm_scheme="interp", scale_mode="subject")
        loaded, _ = model_io.load_model(path)
        assert loaded.kind == "bcvae"
        assert loaded.beta == 0.5
        assert loaded.threshold_d == 2.0
        assert loaded.train_audit["samples_seen"] == 99
        assert np.array_equal(manifold.residuals(loaded, probe),
                              manifold.residuals(model, probe))
        for x in probe[:3]:
            assert manifold.assess(loaded, x) == manifold.assess(model, x)


class TestCorruption:
    def save_one(self, tmp_path):
        model = discriminative.build("lr", seed=0)
        path = str(tmp_path / "m.json")
        model_io.save_model(model, path, norm_scheme="interp", scale_mode="subject")
        return path

    def test_truncated_file(self, tmp_path):
        path = self.save_one(tmp_path)
        with open(path) as f:
            content = f.read()
        with open(path, "w") as f:
            f.write(content[:len(content) // 2])
        with pytest.raises(IoError, match=r": not a valid model file \("):
            model_io.load_model(path)

    def test_tampered_payload(self, tmp_path):
        path = self.save_one(tmp_path)
        with open(path) as f:
            doc = json.load(f)
        doc["payload"]["seed"] = 999
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(IoError, match=": checksum mismatch$"):
            model_io.load_model(path)

    def test_version_bump_names_both_versions(self, tmp_path):
        path = self.save_one(tmp_path)
        with open(path) as f:
            doc = json.load(f)
        doc["format_version"] = 2
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(IoError, match=": file version 2, supported version ") as err:
            model_io.load_model(path)
        message = str(err.value)
        assert "2" in message and str(model_io.FORMAT_VERSION) in message

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\x00\x01 not json")
        with pytest.raises(IoError, match=r": not a valid model file \("):
            model_io.load_model(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
    def test_json_but_not_an_object(self, tmp_path, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        with pytest.raises(IoError, match=r": not a valid model file \(no JSON object\)$"):
            model_io.load_model(str(path))


def three_models(seed):
    """A classifier, a thresholded PCA and a thresholded, audited bcvae."""
    pca = manifold.pca_fit(np.random.default_rng(seed).normal(size=(30, 150)))
    pca.threshold_d = 1.25
    vae = manifold.build_vae("bcvae", seed=seed, beta=0.5)
    vae.threshold_d = 2.0
    vae.train_audit = {"negatives_in_updates": 0, "updates": 3, "samples_seen": 99}
    return {"mlp2": discriminative.build("mlp2", seed=seed), "pca": pca, "bcvae": vae}


def model_of(name, x):
    """An untrained classifier of architecture name, or a manifold model of
    kind name (PCA fit on x) thresholded at the median of its residuals on x."""
    if name in discriminative.ARCHITECTURES:
        return discriminative.build(name, seed=0)
    model = manifold.pca_fit(x) if name == "pca" else manifold.build_vae(name, seed=0)
    model.threshold_d = float(np.median(manifold.residuals(model, x)))
    return model


@pytest.fixture(scope="module")
def pad_naive_cycles():
    """One subject's cycles and normalize_dataset's rows of them under pad, naive."""
    cycles = experiment.generate_dataset(0, n_subjects=1, duration_ms=40_000).cycles
    return cycles, normalize_dataset(cycles, "pad", "naive")


class TestScorer:
    @pytest.mark.parametrize("name", ["mlp2", "pca", "bcvae"])
    def test_save_load_save_identical_bytes(self, tmp_path, seed, name):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model_io.save_model(three_models(seed)[name], str(first), norm_scheme="pad",
                            scale_mode="naive")
        model, prep = model_io.load_model(str(first))
        model_io.save_model(model, str(second), **prep)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name", discriminative.ARCHITECTURES + manifold.MANIFOLD_KINDS)
    def test_name_normalize_and_score(self, tmp_path, pad_naive_cycles, name):
        cycles, expected = pad_naive_cycles
        model = model_of(name, expected[0])
        path = tmp_path / "m.json"
        model_io.save_model(model, str(path), norm_scheme="pad", scale_mode="naive")
        scorer = model_io.load_model(str(path))
        assert type(scorer.model) is type(model)
        assert scorer.model.name == name
        assert json.loads(path.read_text())["payload"]["family"] == type(model).family
        assert scorer.preprocessing == {"norm_scheme": "pad", "scale_mode": "naive"}
        x, y_train, y_eval = scorer.normalize(cycles)
        for got, want in zip((x, y_train, y_eval), expected):
            assert np.array_equal(got, want)
        scores, verdicts = scorer.model.score(x)
        if type(model).family == "discriminative":
            rule = scores >= discriminative.ACCEPT_PROBABILITY
        else:
            rule = -scores <= model.threshold_d
            assert 0 < verdicts.sum() < len(verdicts)
        assert np.array_equal(verdicts, rule.astype(int))
        for got, want in zip((scores, verdicts), model.score(x)):
            assert np.array_equal(got, want)


class TestPayloadLayout:
    """The file format: each family's payload keys in file order.  The golden
    covers vgg3 and bcvae files only, so this is the one pin of a PCA file."""

    KEYS = {
        "mlp2": ["family", "architecture", "descriptor", "seed", "params", "training",
                 "preprocessing"],
        "pca": ["family", "kind", "mean", "components", "threshold", "training",
                "preprocessing"],
        "bcvae": ["family", "kind", "beta", "encoder", "decoder", "seed", "params",
                  "threshold", "training", "audit", "preprocessing"],
    }

    @pytest.mark.parametrize("name", KEYS)
    def test_payload_keys_in_file_order(self, tmp_path, name):
        path = tmp_path / "m.json"
        model = three_models(0)[name]
        model_io.save_model(model, str(path), norm_scheme="pad", scale_mode="naive")
        doc = json.loads(path.read_text())
        assert list(doc) == ["format_version", "payload", "checksum"]
        payload = doc["payload"]
        assert list(payload) == self.KEYS[name]
        assert list(payload["preprocessing"]) == ["norm_scheme", "scale_mode"]
        tensors = ([payload["mean"], payload["components"]] if name == "pca"
                   else list(payload["params"].values()))
        assert all(list(t) == ["shape", "data"] for t in tensors)
        if name != "pca":
            assert list(payload["params"]) == list(model.params.values)
