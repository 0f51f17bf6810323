import numpy as np
import pytest

from netwarden.detectors import (TrainedModel, calibrate_threshold,
                                 make_detector)
from netwarden.errors import MalformedModel, TooFewScores
from netwarden.features import FeatureMatrix, fit_normalizer, manifest_hash


class TestCalibrateThreshold:
    def test_zero_target_gives_max(self):
        scores = np.arange(1.0, 101.0)
        assert calibrate_threshold(scores, 0.0) == 100.0

    def test_interpolated_quantile(self):
        scores = np.arange(1.0, 101.0)
        theta = calibrate_threshold(scores, 0.05)
        assert 95.0 < theta < 96.0

    def test_reflag_rate_bounded(self):
        rng = np.random.default_rng(0)
        for target in (0.0, 0.02, 0.1):
            scores = rng.normal(size=500)
            theta = calibrate_threshold(scores, target)
            rate = float((scores > theta).mean())
            assert rate <= target + 1.0 / len(scores) + 1e-12

    def test_too_few_scores(self):
        with pytest.raises(TooFewScores):
            calibrate_threshold(np.arange(49.0), 0.05)


class TestDeclaredHyperparameters:
    @pytest.mark.parametrize("kind, params", [
        ("if", {"seed": -1}), ("ae", {"seed": -1}),
        ("ae", {"layer_sizes": [11, 3]}),
        ("ae", {"layer_sizes": [20, 30, 20]}),
        ("ae", {"layer_sizes": [4, 2.0, 4]}),
        ("if", {"n_trees": 2.7}), ("if", {"n_trees": "7"}),
        ("if", {"subsample_size": True}), ("lof", {"k": 5.0}),
        ("osvm", {"gamma": True}), ("osvm", {"gamma": "0.5"}),
        ("ee", {"ridge": "0"}), ("ae", {"learning_rate": False}),
    ])
    def test_refused_by_the_constructor(self, kind, params):
        with pytest.raises(ValueError):
            make_detector(kind, params)

    def test_an_int_for_a_real_setting_is_a_float(self):
        det = make_detector("osvm", {"nu": 1, "gamma": 2, "tol": 1})
        assert [type(det.get_params()[k]) for k in ("nu", "gamma", "tol")] \
            == [float, float, float]
        assert make_detector("osvm").gamma == "scale"


def rehash(d, **manifest):
    """Edit a model dict's manifest and store the edited manifest's hash."""
    m = d["manifest"]
    m.update(manifest)
    m["hash"] = manifest_hash(m["mode"], m["names"])


class TestModelFile:
    def roundtrip(self, tmp_path, kind, X):
        det = make_detector(kind, {"seed": 0} if kind in ("if", "ae") else {})
        det.fit(X)
        scores = det.score(X)
        names = ("a", "b", "c")
        model = TrainedModel(
            kind=kind, detector=det,
            threshold=calibrate_threshold(scores, 0.05), target_fpr=0.05,
            manifest_mode="packet", manifest_names=names,
            norm_stats=fit_normalizer(FeatureMatrix(X, names, "packet")),
            seed=0)
        path = str(tmp_path / ("%s.json" % kind))
        model.save(path)
        return model, TrainedModel.load(path)

    @pytest.mark.parametrize("kind", ["if", "ee", "lof", "osvm", "ae"])
    def test_save_load_scores_bit_identical(self, tmp_path, kind):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(120, 3))
        probes = rng.normal(size=(1000, 3))
        model, back = self.roundtrip(tmp_path, kind, X)
        assert back.kind == kind
        assert back.threshold == model.threshold
        assert np.array_equal(model.score(probes), back.score(probes))
        assert np.array_equal(model.score(probes) > model.threshold,
                              back.score(probes) > back.threshold)

    def test_unknown_fields_tolerated(self, tmp_path):
        import json
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        model, _ = self.roundtrip(tmp_path, "ee", X)
        d = model.to_dict()
        d["future_field"] = {"nested": [1, 2, 3]}
        d["state"]["future_state"] = "ignored"
        path = tmp_path / "fwd.json"
        path.write_text(json.dumps(d))
        back = TrainedModel.load(str(path))
        assert np.array_equal(model.score(X), back.score(X))

    def test_forest_may_leave_last_columns_unread(self, tmp_path):
        X = np.random.default_rng(12).normal(size=(60, 3))
        model, _ = self.roundtrip(tmp_path, "if", X)
        d = model.to_dict()
        d["manifest"]["names"].append("d")
        rehash(d)
        # the normalization keeps every column the manifest names
        norm = d["normalization"]
        norm["kept_names"].append("d")
        norm["mean"].append(0.0)
        norm["std"].append(1.0)
        back = TrainedModel.from_dict(d)
        wide = np.hstack([X, np.zeros((60, 1))])
        assert np.array_equal(back.score(wide), model.score(X))

    @pytest.mark.parametrize("kind, edit", [
        ("ee", lambda d: d["state"].update(
            cov=np.zeros_like(d["state"]["cov"]).tolist())),
        ("ee", lambda d: d["state"].update(cov=d["state"]["cov"][:-1])),
        ("ee", lambda d: d["state"]["mu"].__setitem__(0, float("inf"))),
        ("ee", lambda d: d.update(kind="svm")),
        ("ee", lambda d: d.pop("state")),
        ("osvm", lambda d: d["state"]["sv_alpha"].pop()),
        ("osvm", lambda d: d["state"].update(rho=float("nan"))),
        ("osvm", lambda d: d["state"].update(gamma_value=0.0)),
        ("osvm", lambda d: d["hyperparams"].update(tol=-1.0)),
        ("ae", lambda d: d["state"]["biases"][0].pop()),
        ("ae", lambda d: d["state"]["weights"].pop()),
        ("ae", lambda d: d["state"]["weights"][0][0].__setitem__(
            0, float("nan"))),
        ("if", lambda d: d["hyperparams"].update(n_trees=0)),
        ("if", lambda d: d.update(threshold=float("nan"))),
        ("osvm", lambda d: d["state"].update(
            sv=[row[:2] for row in d["state"]["sv"]])),
        ("lof", lambda d: d["state"].update(
            train=[row[:2] for row in d["state"]["train"]])),
        ("ee", lambda d: d["state"].update(
            mu=d["state"]["mu"][:2],
            cov=[row[:2] for row in d["state"]["cov"][:2]])),
        ("ee", lambda d: rehash(d, names=["a", "b", "c", "d"])),
        ("ae", lambda d: d["state"].update(
            weights=[d["state"]["weights"][0][:2]]
            + d["state"]["weights"][1:-1]
            + [[row[:2] for row in d["state"]["weights"][-1]]],
            biases=d["state"]["biases"][:-1]
            + [d["state"]["biases"][-1][:2]])),
        ("ae", lambda d: d["state"].update(
            weights=d["state"]["weights"][:-1]
            + [[row[:2] for row in d["state"]["weights"][-1]]],
            biases=d["state"]["biases"][:-1]
            + [d["state"]["biases"][-1][:2]])),
        ("if", lambda d: rehash(d, names=["a", "b"])),
        ("if", lambda d: d["hyperparams"].update(n_trees=2.7)),
        ("ee", lambda d: d.update(target_fpr=1.5)),
        ("ee", lambda d: d.update(seed=-1)),
        ("ee", lambda d: d.pop("normalization")),
        ("ee", lambda d: d.update(normalization=None)),
        ("ee", lambda d: d.pop("target_fpr")),
        ("ee", lambda d: d.pop("seed")),
        ("ee", lambda d: d["manifest"].update(hash="abc123")),
        ("ee", lambda d: d["manifest"].update(mode="uni_flow")),
        ("ee", lambda d: rehash(d, names=["a", "b", "z"])),
        ("ee", lambda d: d["normalization"].update(
            mean=d["normalization"]["mean"][:-1])),
        ("ee", lambda d: d["normalization"].update(
            std=d["normalization"]["std"] + [1.0])),
        ("ee", lambda d: d["normalization"].update(
            mean=[d["normalization"]["mean"]])),
        ("ee", lambda d: d["state"]["cov"][0].__setitem__(
            2, d["state"]["cov"][0][2] + 100.0)),
    ], ids=["ee-cov-zero", "ee-cov-not-square", "ee-mu-inf", "kind-svm",
            "no-state", "osvm-alpha-short", "osvm-rho-nan", "osvm-gamma-0",
            "osvm-tol-neg", "ae-bias-short", "ae-layer-missing",
            "ae-weight-nan", "if-trees-0", "threshold-nan",
            "osvm-sv-narrow", "lof-train-narrow", "ee-narrow",
            "ee-manifest-wider", "ae-narrow", "ae-output-narrow",
            "if-splits-past-manifest", "if-trees-fraction", "target-fpr-1.5",
            "seed-negative", "no-normalization", "normalization-null",
            "no-target-fpr", "no-seed", "hash-differs",
            "mode-not-hashed", "name-not-kept", "mean-short", "std-long",
            "mean-2d", "ee-cov-asymmetric"])
    def test_malformed_file_refused(self, tmp_path, kind, edit):
        X = np.random.default_rng(12).normal(size=(60, 3))
        model, _ = self.roundtrip(tmp_path, kind, X)
        d = model.to_dict()
        edit(d)
        with pytest.raises(MalformedModel):
            TrainedModel.from_dict(d)
