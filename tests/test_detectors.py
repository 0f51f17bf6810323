import hashlib
import json

import numpy as np
import pytest

from netwarden.detectors import (
    EllipticEnvelope,
    IsolationForest,
    LocalOutlierFactor,
    anomaly_score_from_mean_path,
    average_path_normalizer,
    harmonic,
)
from netwarden.detectors.distance import sq_dists
from netwarden.errors import EmptyTraining, KTooLarge, SingularCovariance

from oracles import (
    iforest_mean_path_oracle,
    lof_oracle,
    mahalanobis_oracle,
    sq_dist_oracle,
)


def tied_rows(seed, n_train=300, n_query=200, d=11):
    """Training rows drawn with repeats from a few distinct points, and
    queries that are partly training rows, so distances tie exactly."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(40, d))
    X = base[rng.integers(0, 40, size=n_train)]
    Q = base[rng.integers(0, 40, size=n_query)] \
        + rng.normal(size=(n_query, d)) * 0.3
    Q[::4] = X[:(n_query + 3) // 4]
    return X, Q


def blob_with_outliers(n=512, d=8, frac=0.05, seed=0, dist=12.0):
    rng = np.random.default_rng(seed)
    n_out = int(n * frac)
    inliers = rng.normal(size=(n - n_out, d))
    direction = rng.normal(size=(n_out, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    outliers = direction * dist + rng.normal(size=(n_out, d)) * 0.5
    return inliers, outliers


class TestSquaredDistances:
    def test_equals_scalar_column_order_loop(self):
        rng = np.random.default_rng(0)
        # one row against one row: numpy would sum those d terms pairwise
        single = [(1, 1, d) for d in range(8, 40)]
        for n, m, d in [(7, 9, 11), (1, 5, 20), (6, 1, 9), (4, 3, 1)] + single:
            X = rng.normal(size=(m, d))
            X[1::2] = X[0]  # repeated rows
            Q = rng.normal(size=(n, d))
            got = sq_dists(Q, X.T)
            assert np.array_equal(got, sq_dist_oracle(Q, X)), (n, m, d)

    def test_independent_of_batch_and_layout(self):
        X, Q = tied_rows(3)
        full = sq_dists(np.asfortranarray(Q), X.T)
        rows = np.vstack([sq_dists(q[None, :], X.T) for q in Q])
        assert np.array_equal(full, rows)
        assert np.array_equal(full, sq_dist_oracle(Q, X))

    def test_block_boundaries(self, monkeypatch):
        from netwarden.detectors import distance
        X, Q = tied_rows(4, n_train=50, n_query=30)
        whole = sq_dists(Q, X.T)
        monkeypatch.setattr(distance, "BLOCK_BYTES", 8 * 50 * 11 * 7)
        assert np.array_equal(sq_dists(Q, X.T), whole)


class TestHarmonicNormalizer:
    def test_harmonic_exact(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == 1.0 + 0.5 + 1.0 / 3.0
        assert harmonic(0) == 0.0

    def test_c2_exactly_one(self):
        assert average_path_normalizer(2) == 1.0

    def test_c1_zero(self):
        assert average_path_normalizer(1) == 0.0

    def test_c_matches_formula(self):
        n = 256
        expected = 2.0 * sum(1.0 / i for i in range(1, n)) \
            - 2.0 * (n - 1) / n
        assert average_path_normalizer(n) == pytest.approx(expected,
                                                           rel=1e-15)

    def test_score_half_at_normalizer(self):
        for n in (2, 16, 256):
            c = average_path_normalizer(n)
            assert anomaly_score_from_mean_path(c, n) == 0.5


class TestIsolationForest:
    def test_planted_outlier_scores_above_inlier_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(256, 4))
        far = np.full((1, 4), 9.0)
        model = IsolationForest(n_trees=100, subsample_size=128,
                                seed=3).fit(X)
        inlier_scores = model.score(X)
        far_score = model.score(far)[0]
        assert far_score > inlier_scores.mean()
        assert far_score > np.quantile(inlier_scores, 0.99)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(128, 3))
        s = IsolationForest(seed=0).fit(X).score(X)
        assert np.all(s > 0.0) and np.all(s <= 1.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 5))
        Q = rng.normal(size=(50, 5))
        a = IsolationForest(n_trees=20, seed=9).fit(X).score(Q)
        b = IsolationForest(n_trees=20, seed=9).fit(X).score(Q)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 5))
        a = IsolationForest(n_trees=20, seed=1).fit(X).score(X[:5])
        b = IsolationForest(n_trees=20, seed=2).fit(X).score(X[:5])
        assert not np.array_equal(a, b)

    def test_single_vs_batch_scoring_identical(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 4))
        Q = rng.normal(size=(10, 4))
        model = IsolationForest(n_trees=30, seed=0).fit(X)
        batch = model.score(Q)
        singles = np.array([model.score(q[None, :])[0] for q in Q])
        assert np.array_equal(batch, singles)

    def test_mean_path_matches_scalar_walk(self, monkeypatch):
        from netwarden.detectors import iforest
        X, Q = tied_rows(7, d=5)
        model = IsolationForest(n_trees=25, subsample_size=64, seed=1).fit(X)
        expected = iforest_mean_path_oracle(model.state_dict(), Q)
        assert np.array_equal(model.mean_path_length(Q), expected)
        # blocks that split the queries unevenly give the same result
        monkeypatch.setattr(iforest, "WALK_PAIRS", 25 * 7)
        assert np.array_equal(model.mean_path_length(Q), expected)

    def test_saved_model_bytes_pinned(self):
        # digest of the per-tree JSON as the format was first written; the
        # flat node arrays must reproduce it byte for byte
        X = np.random.default_rng(11).normal(size=(300, 5))
        X[::3] = X[0]
        model = IsolationForest(n_trees=12, subsample_size=64, seed=4).fit(X)
        text = json.dumps(model.state_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "911d67c4aef104f34289b80c56040f06de642dbf8d04d175d3d9858c07f5d0d5")
        clone = IsolationForest.from_state(model.get_params(),
                                           json.loads(text))
        assert json.dumps(clone.state_dict()) == text

    def test_empty_training(self):
        with pytest.raises(EmptyTraining):
            IsolationForest().fit(np.empty((0, 3)))

    def test_persistence_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 3))
        Q = rng.normal(size=(40, 3))
        model = IsolationForest(n_trees=15, seed=2).fit(X)
        clone = IsolationForest.from_state(model.get_params(),
                                           model.state_dict())
        assert np.array_equal(model.score(Q), clone.score(Q))


class TestEllipticEnvelope:
    def test_score_zero_at_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        model = EllipticEnvelope(ridge=0.0).fit(X)
        assert model.score(model.mu[None, :])[0] == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_identity_covariance_is_euclidean(self):
        model = EllipticEnvelope(ridge=0.0)
        model.mu = np.zeros(3)
        model.cov = np.eye(3)
        model._precision = np.linalg.inv(model.cov)
        x = np.array([[1.0, 2.0, 2.0]])
        assert model.score(x)[0] == pytest.approx(3.0, abs=1e-12)

    def test_one_dimensional_example(self):
        # mu=0, S=[4], x=2 -> 2/sqrt(4) = 1
        model = EllipticEnvelope(ridge=0.0)
        model.mu = np.zeros(1)
        model.cov = np.array([[4.0]])
        model._precision = np.linalg.inv(model.cov)
        assert model.score(np.array([[2.0]]))[0] == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
        model = EllipticEnvelope(ridge=0.0).fit(X)
        for q in rng.normal(size=(10, 5)):
            expected = mahalanobis_oracle(q, model.mu, model.cov)
            assert model.score(q[None, :])[0] == pytest.approx(expected,
                                                               rel=1e-9)

    def test_affine_invariance_without_ridge(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 3))
        Q = rng.normal(size=(20, 3))
        A = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        b = rng.normal(size=3)
        base = EllipticEnvelope(ridge=0.0).fit(X).score(Q)
        mapped = EllipticEnvelope(ridge=0.0).fit(X @ A + b).score(Q @ A + b)
        assert np.allclose(base, mapped, atol=1e-8)

    def test_singular_covariance_without_ridge(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        with pytest.raises(SingularCovariance):
            EllipticEnvelope(ridge=0.0).fit(X)
        EllipticEnvelope(ridge=1e-6).fit(X)  # ridge rescues it

    def test_persistence_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        Q = rng.normal(size=(30, 4))
        model = EllipticEnvelope().fit(X)
        clone = EllipticEnvelope.from_state(model.get_params(),
                                            model.state_dict())
        assert np.array_equal(model.score(Q), clone.score(Q))


class TestLocalOutlierFactor:
    def test_uniform_grid_interior_near_one(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        X = np.column_stack([xs.ravel(), ys.ravel()])
        model = LocalOutlierFactor(k=4).fit(X)
        interior = X[(X[:, 0] > 1) & (X[:, 0] < 8)
                     & (X[:, 1] > 1) & (X[:, 1] < 8)]
        scores = model.score(interior)
        assert np.all(np.abs(scores - 1.0) < 0.15)

    def test_far_point_above_three(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, size=(60, 2)) + np.array([0.0, 0.0])
        model = LocalOutlierFactor(k=3).fit(X)
        far = np.array([[10.0, 10.0]])
        got = model.score(far)[0]
        oracle = lof_oracle(X.tolist(), far.tolist(), 3)[0]
        assert got > 3.0
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_all_identical_points(self):
        X = np.ones((20, 3))
        model = LocalOutlierFactor(k=5).fit(X)
        assert np.allclose(model.score(X), 1.0)

    def test_matches_oracle_random(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 80))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, 8))
            X = rng.normal(size=(n, d))
            Q = rng.normal(size=(12, d))
            got = LocalOutlierFactor(k=k).fit(X).score(Q)
            exp = lof_oracle(X.tolist(), Q.tolist(), k)
            assert np.allclose(got, exp, atol=1e-9)

    def test_single_vs_batch_scoring_identical_with_ties(self, monkeypatch):
        # the neighbour set counts every training point tied at the
        # k-distance, so one ulp of difference in a distance moves scores
        from netwarden.detectors import lof
        monkeypatch.setattr(lof, "QUERY_BLOCK", 64)
        for seed in range(4):
            X, Q = tied_rows(seed)
            model = LocalOutlierFactor(k=10).fit(X)
            batch = model.score(np.asfortranarray(Q))
            singles = np.array([model.score(q)[0] for q in Q])
            assert np.array_equal(batch, singles), seed

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            LocalOutlierFactor(k=10).fit(np.random.default_rng(0)
                                         .normal(size=(10, 2)))

    def test_persistence_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(90, 3))
        Q = rng.normal(size=(25, 3))
        model = LocalOutlierFactor(k=6).fit(X)
        clone = LocalOutlierFactor.from_state(model.get_params(),
                                              model.state_dict())
        assert np.array_equal(model.score(Q), clone.score(Q))


class TestOrientation:
    """All detector kinds agree: higher score = more anomalous. On the
    blob-plus-far-outliers suite the outlier median must clear the inlier
    99th percentile for every kind."""

    @pytest.mark.parametrize("factory", [
        lambda: IsolationForest(seed=0),
        lambda: EllipticEnvelope(),
        lambda: LocalOutlierFactor(k=10),
    ])
    def test_outliers_above_inliers(self, factory):
        inliers, outliers = blob_with_outliers(n=400, d=6, seed=42)
        model = factory().fit(inliers)
        s_in = model.score(inliers)
        s_out = model.score(outliers)
        assert np.median(s_out) > np.quantile(s_in, 0.99)

    def test_all_five_kinds_on_reference_suite(self):
        from netwarden.detectors import Autoencoder, OneClassSVM
        inliers, outliers = blob_with_outliers(n=512, d=8, seed=7)
        factories = {
            "if": lambda: IsolationForest(seed=1),
            "ee": lambda: EllipticEnvelope(),
            "lof": lambda: LocalOutlierFactor(k=20),
            "osvm": lambda: OneClassSVM(nu=0.05, gamma="scale"),
            "ae": lambda: Autoencoder(epochs=100, seed=1),
        }
        for kind, factory in factories.items():
            model = factory().fit(inliers)
            s_in = model.score(inliers)
            s_out = model.score(outliers)
            assert np.median(s_out) > np.quantile(s_in, 0.99), kind
