"""Projection of a raw feature matrix to a model's detector input.

The oracle is the long way round: `apply_normalizer` over every kept
column, then a gather of the model's columns by name.
"""

import hashlib

import numpy as np
import pytest

from netwarden.detectors import KINDS, TrainedModel, make_detector
from netwarden.errors import ManifestMismatch, NonFiniteFeature
from netwarden.features import FeatureMatrix, apply_normalizer
from netwarden.pipeline import project_for_model, score_matrix, train_model

NAMES = tuple("f%d" % i for i in range(6))
MODE = "packet"


def raw_matrix(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(loc=50.0, scale=[1.0, 4.0, 1.0, 9.0, 2.0, 0.5],
                   size=(n, len(NAMES)))
    X[:, 2] = 7.0  # constant: the normalizer drops it
    return X


def oracle_input(model, raw: FeatureMatrix) -> np.ndarray:
    stats = model.norm_stats
    cols = [stats.kept_names.index(n) for n in model.manifest_names]
    return apply_normalizer(raw, stats).values[:, cols]


@pytest.fixture(scope="module")
def models():
    train = FeatureMatrix(raw_matrix(300, 1), NAMES, MODE)
    out = {}
    for kind in KINDS:
        params = {"epochs": 20} if kind == "ae" else None
        out[kind] = train_model(train, kind, params=params, seed=3)
        out[kind + "/selected"] = train_model(
            train, kind, params=params, seed=3,
            selected_names=("f4", "f2", "f0", "f5"))
    return out


@pytest.fixture(scope="module")
def probes():
    X = raw_matrix(40, 2)
    X[::7] += 25.0  # some far rows
    return FeatureMatrix(X, NAMES, MODE)


class TestBitIdentical:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("selected", [False, True])
    def test_batch_and_one_row(self, models, probes, kind, selected):
        model = models[kind + "/selected" if selected else kind]
        assert "f2" not in model.manifest_names  # constant column dropped
        if selected:
            assert model.manifest_names == ("f0", "f4", "f5")
        expected = oracle_input(model, probes)
        got = project_for_model(model, probes)
        assert np.array_equal(got, expected)
        scores, flags = score_matrix(model, probes)
        assert np.array_equal(scores, model.score(expected))
        assert np.array_equal(flags, scores > model.threshold)
        for i in range(probes.n):
            # a new names tuple every call, as streaming callers build it
            row = FeatureMatrix(probes.values[i:i + 1], tuple(NAMES), MODE)
            one = oracle_input(model, row)
            assert np.array_equal(one, expected[i:i + 1])
            s, _ = score_matrix(model, row)
            assert np.array_equal(s, model.score(one))


class TestManifestMismatch:
    @pytest.mark.parametrize("names,mode", [
        (("g0",) + NAMES[1:], MODE),          # a foreign column
        (NAMES[::-1], MODE),                  # same columns, other order
        (NAMES, "uni_flow"),                  # same columns, other mode
    ])
    def test_foreign_columns_after_a_good_call(self, models, probes, names,
                                               mode):
        model = models["ee"]
        good, _ = score_matrix(model, probes)
        with pytest.raises(ManifestMismatch):
            score_matrix(model, FeatureMatrix(probes.values, names, mode))
        with pytest.raises(ManifestMismatch):  # the failure is not memoized
            score_matrix(model, FeatureMatrix(probes.values, names, mode))
        again, _ = score_matrix(model, probes)
        assert np.array_equal(again, good)

    def test_model_columns_alone_are_not_accepted(self, models, probes):
        # a matrix named like the model's own columns is raw input too;
        # only the extraction manifest the normalizer saw is accepted
        model = models["ee"]
        cols = [NAMES.index(n) for n in model.manifest_names]
        with pytest.raises(ManifestMismatch):
            score_matrix(model, FeatureMatrix(probes.values[:, cols],
                                              model.manifest_names, MODE))

    def test_model_without_stats_scores_its_own_columns(self):
        X = np.random.default_rng(4).normal(size=(80, 3))
        det = make_detector("ee").fit(X)
        model = TrainedModel(kind="ee", detector=det, threshold=1.0,
                             target_fpr=0.05, manifest_mode=MODE,
                             manifest_names=("a", "b", "c"),
                             manifest_hash="abc123")
        scores, _ = score_matrix(model, FeatureMatrix(X, ("a", "b", "c"),
                                                      MODE))
        assert np.array_equal(scores, det.score(X))
        with pytest.raises(ManifestMismatch):
            score_matrix(model, FeatureMatrix(X, ("a", "c", "b"), MODE))


class TestRawInputIsNormalized:
    def test_training_rows_flag_at_the_target_rate(self):
        # regression: a raw matrix whose names equal the model's columns
        # (no constant column, no selection) was scored unnormalized,
        # which flagged every row
        rng = np.random.default_rng(0)
        X = FeatureMatrix(rng.normal(100.0, 5.0, size=(500, 4)),
                          ("a", "b", "c", "d"), MODE)
        model = train_model(X, "ee", target_fpr=0.02, seed=0)
        assert model.manifest_names == X.names
        _, flags = score_matrix(model, X)
        assert 0 < flags.mean() <= 0.02 + 1 / 500


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_row(self, models, probes, bad):
        row = probes.values[:1].copy()
        row[0, 3] = bad
        with pytest.raises(NonFiniteFeature, match=r"row 0, column 3 \(f3\)"):
            score_matrix(models["lof"], FeatureMatrix(row, NAMES, MODE))

    def test_batch_names_first_bad_row_and_column(self, models, probes):
        X = probes.values.copy()
        X[9, 5] = np.nan
        X[9, 4] = np.inf
        X[20, 0] = np.nan
        with pytest.raises(NonFiniteFeature,
                           match=r"row 9, column 4 \(f4\)") as err:
            score_matrix(models["if"], FeatureMatrix(X, NAMES, MODE))
        assert err.value.code == "non_finite_feature"

    def test_columns_the_model_does_not_read_are_ignored(self, models,
                                                         probes):
        X = probes.values.copy()
        X[:, 2] = np.nan  # dropped as constant
        X[:, 1] = np.inf  # not selected
        model = models["ae/selected"]
        scores, _ = score_matrix(model, FeatureMatrix(X, NAMES, MODE))
        assert np.array_equal(scores, score_matrix(model, probes)[0])


class TestModelFile:
    @pytest.mark.parametrize("kind", KINDS)
    def test_loaded_model_scores_identically(self, models, probes, kind,
                                             tmp_path):
        model = models[kind + "/selected"]
        path = tmp_path / "model.json"
        model.save(str(path))
        back = TrainedModel.load(str(path))
        assert np.array_equal(score_matrix(back, probes)[0],
                              score_matrix(model, probes)[0])
        back.save(str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind,digest", [
        ("if",
         "80c633e81b0662d4da1f1dfc36deab6991874fc98c85bb67dcf03d34424ee8fa"),
        ("ee",
         "41fd268b336303b11db70aa6cc3c97a8ffdf049fc1e78b7f5b2e4b8002a0555e"),
        ("lof",
         "4bc58ec7d89e3171d438a381f7c98bd3de89febfc40702deb105efe0a44dfb03"),
    ])
    def test_saved_bytes_pinned(self, models, kind, digest, tmp_path):
        # digests of the model file as the format was first written
        path = tmp_path / "model.json"
        models[kind + "/selected"].save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
