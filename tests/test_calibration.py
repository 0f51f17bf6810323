import numpy as np
import pytest

from netwarden.detectors import (
    TrainedModel,
    calibrate_threshold,
    default_search_space,
    make_detector,
    random_search,
)
from netwarden.errors import EmptySpace, TooFewScores


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


class TestRandomSearch:
    def benign(self, n=150, d=4, seed=0):
        return np.random.default_rng(seed).normal(size=(n, d))

    def test_budget_one_returns_that_config(self):
        X = self.benign()
        res = random_search("ee", {"ridge": ("fixed", 1e-5)}, X, budget=1,
                            seed=1)
        assert len(res.trials) == 1
        assert res.best_params == {"ridge": 1e-5}
        assert len(res.trials[0].fold_fpr) == 5

    def test_duplicate_configs_identical_metrics(self):
        X = self.benign()
        res = random_search("ee", {"ridge": ("choice", [1e-6])}, X,
                            budget=3, seed=2)
        first = res.trials[0]
        for trial in res.trials[1:]:
            assert trial.params == first.params
            assert trial.fold_fpr == first.fold_fpr
            assert trial.score_variance == first.score_variance

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            random_search("ee", {}, self.benign(), budget=1)

    def test_degenerate_vs_good_gamma_on_separable_data(self):
        # two tight clusters; a sane gamma generalizes, a huge one
        # memorizes training rows and flags everything else
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(size=(100, 3)) * 0.1,
                       rng.normal(size=(100, 3)) * 0.1 + 3.0])
        space = {"nu": ("fixed", 0.1),
                 "gamma": ("choice", [0.5, 1e6])}
        res = random_search("osvm", space, X, budget=8, seed=4,
                            target_fpr=0.05)
        assert res.best_params["gamma"] == 0.5

    def test_default_spaces_sample(self):
        rng_X = self.benign(n=80)
        for kind in ("if", "ee", "lof", "osvm"):
            space = default_search_space(kind, rng_X.shape[1])
            res = random_search(kind, space, rng_X, budget=2, seed=7,
                                target_fpr=0.05)
            assert len(res.trials) == 2
            det = make_detector(kind, res.best_params)
            det.fit(rng_X)


class TestModelFile:
    def roundtrip(self, tmp_path, kind, X):
        det = make_detector(kind, {"seed": 0} if kind in ("if", "ae") else {})
        det.fit(X)
        scores = det.score(X)
        model = TrainedModel(
            kind=kind, detector=det,
            threshold=calibrate_threshold(scores, 0.05), target_fpr=0.05,
            manifest_mode="packet", manifest_names=("a", "b", "c"),
            manifest_hash="abc123", seed=0)
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
