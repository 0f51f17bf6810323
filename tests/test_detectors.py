import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwarden.detectors import (
    EllipticEnvelope,
    IsolationForest,
    LocalOutlierFactor,
    anomaly_score_from_mean_path,
    average_path_normalizer,
    harmonic,
)
from netwarden.detectors.distance import sq_dists
from netwarden.errors import (
    EmptyTraining,
    KTooLarge,
    MalformedModel,
    SingularCovariance,
)

from oracles import (
    iforest_mean_path_oracle,
    lof_full_matrix_oracle,
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


def sqrt_tie_rows():
    """Training rows where the training point (6, 0) and the query (0, 0)
    each have their second nearest training points at squared distances
    2 and 2 + 2^-51, which sqrt rounds to one distance."""
    up = 1.0 + 2.0 ** -52
    X = np.array([[-0.3, 0.2], [1.0, 1.0], [1.0, up],
                  [6.0, 0.0], [5.7, 0.2], [7.0, 1.0], [7.0, up],
                  [20.0, 20.0], [20.0, 21.0], [21.0, 20.0]])
    Q = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 3.0], [0.0, 0.0]])
    return X, Q


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


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

    @pytest.mark.parametrize("n, m, d, block_bytes", [
        (5, 9, 4, 8),               # a block is smaller than one row
        (11, 6, 3, 8 * 6 * 3 * 4),  # blocks of 4 rows, the last one of 3
        (1, 40, 7, None),           # one query row
        (9, 1, 5, 8),               # one column, padded to two
        (8, 12, 1, 8 * 12 * 3),     # one feature, blocks of 3 rows
    ])
    def test_reused_block_equals_oracle(self, monkeypatch, n, m, d,
                                        block_bytes):
        from netwarden.detectors import distance
        if block_bytes is not None:
            monkeypatch.setattr(distance, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(100 * n + 10 * m + d)
        X = rng.normal(size=(m, d))
        X[1::2] = X[0]
        Q = rng.normal(size=(n, d))
        np.testing.assert_array_equal(bits(sq_dists(Q, X.T)),
                                      bits(sq_dist_oracle(Q, X)))


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

    @pytest.mark.filterwarnings("error")
    def test_fit_on_one_row(self):
        # psi = 1 gives c(1) = 0: every row scores 1.0, as the scalar form
        model = IsolationForest(n_trees=3, seed=0).fit([[1.0, 2.0]])
        Q = np.array([[1.0, 2.0], [5.0, -6.0], [0.0, 0.0]])
        batch = model.score(Q)
        singles = np.array([model.score(q[None, :])[0] for q in Q])
        assert np.array_equal(batch, singles)
        assert batch.tolist() == [anomaly_score_from_mean_path(0.0, 1)] * 3

    def test_mean_path_matches_scalar_walk(self, monkeypatch):
        from netwarden.detectors import iforest
        X, Q = tied_rows(7, d=5)
        model = IsolationForest(n_trees=25, subsample_size=64, seed=1).fit(X)
        expected = iforest_mean_path_oracle(model.state_dict(), Q)
        assert np.array_equal(model.mean_path_length(Q), expected)
        # blocks that split the queries unevenly give the same result
        monkeypatch.setattr(iforest, "BLOCK_PAIRS", 25 * 7)
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


def one_split_tree() -> dict:
    """A saved tree of depth 1: x[0] < 0.5 goes left."""
    return {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
            "left": [1, -1, -1], "right": [2, -1, -1],
            "leaf_path": [0.0, 1.0, 1.0]}


def forest_state(second_tree: dict, psi: int = 2) -> dict:
    return {"effective_subsample": psi,
            "trees": [one_split_tree(), second_tree]}


class TestIsolationForestLayout:
    """The complete-tree walk against the one-row, one-tree oracle, bit for
    bit, and the checks made when the trees are laid out."""

    @staticmethod
    def assert_matches_oracle(model, Q):
        expected = iforest_mean_path_oracle(model.state_dict(), Q)
        assert np.array_equal(bits(model.mean_path_length(Q)), bits(expected))

    @pytest.mark.parametrize("n_train,subsample", [
        (300, 2), (300, 3), (300, 64), (300, 256), (2, 256), (3, 256),
        (40, 256)])
    def test_tied_rows_match_oracle(self, n_train, subsample):
        X, Q = tied_rows(3, n_train=300, d=5)
        model = IsolationForest(n_trees=20, subsample_size=subsample,
                                seed=5).fit(X[:n_train])
        self.assert_matches_oracle(model, Q)
        self.assert_matches_oracle(model, X[:50])

    def test_early_leaves_at_several_depths(self):
        X, Q = tied_rows(8, n_train=300, d=3)
        model = IsolationForest(n_trees=30, subsample_size=256,
                                seed=2).fit(X)
        depths = set()
        for tree in model.state_dict()["trees"]:
            stack = [(0, 0)]
            while stack:
                node, depth = stack.pop()
                if tree["feature"][node] < 0:
                    depths.add(depth)
                else:
                    stack += [(tree["left"][node], depth + 1),
                              (tree["right"][node], depth + 1)]
        assert {2, 3, 4, 5} <= depths and max(depths) <= 8
        self.assert_matches_oracle(model, Q)

    def test_single_tree(self):
        X, Q = tied_rows(4, d=4)
        model = IsolationForest(n_trees=1, subsample_size=64, seed=3).fit(X)
        self.assert_matches_oracle(model, Q)

    def test_one_row_queries_and_memory_order(self):
        X, Q = tied_rows(5, d=6)
        model = IsolationForest(n_trees=40, subsample_size=128,
                                seed=8).fit(X)
        batch = model.score(np.ascontiguousarray(Q))
        assert np.array_equal(bits(model.score(np.asfortranarray(Q))),
                              bits(batch))
        # a column gather, as the model input projection makes
        gathered = np.column_stack([Q, Q[:, :1]])[:, :Q.shape[1]]
        assert np.array_equal(bits(model.score(gathered)), bits(batch))
        singles = np.concatenate([model.score(q[None, :]) for q in Q])
        assert np.array_equal(bits(singles), bits(batch))
        self.assert_matches_oracle(model, Q[:1])

    def test_nan_and_inf_go_as_the_oracle_sends_them(self):
        X, Q = tied_rows(6, d=4)
        model = IsolationForest(n_trees=25, subsample_size=64, seed=6).fit(X)
        Q = Q[:12].copy()
        Q[0, 0] = np.nan
        Q[1] = np.nan
        Q[2, 1], Q[3, 2] = np.inf, -np.inf
        Q[4] = np.inf
        Q[5] = -np.inf
        Q[6, ::2] = np.nan
        Q[6, 1::2] = -np.inf
        self.assert_matches_oracle(model, Q)
        c = average_path_normalizer(64)
        expected = 2.0 ** (-iforest_mean_path_oracle(model.state_dict(), Q)
                           / c)
        assert np.array_equal(bits(model.score(Q)), bits(expected))

    def test_narrow_rows_rejected(self):
        X, _ = tied_rows(2, d=5)
        model = IsolationForest(n_trees=10, seed=1).fit(X)
        with pytest.raises(ValueError, match="too narrow"):
            model.score(X[:, :2])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_small_forests_on_tied_integers(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        values = st.integers(-2, 2).map(float)
        X = np.array(data.draw(st.lists(st.lists(values, min_size=d,
                                                 max_size=d),
                                        min_size=n, max_size=n)))
        Q = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 2.0, np.nan,
                                      np.inf]), min_size=d, max_size=d),
            min_size=1, max_size=8)))
        model = IsolationForest(
            n_trees=data.draw(st.integers(1, 6), label="n_trees"),
            subsample_size=data.draw(st.integers(1, 48), label="psi"),
            seed=data.draw(st.integers(0, 2**16), label="seed")).fit(X)
        self.assert_matches_oracle(model, np.vstack([X, Q]))
        clone = IsolationForest.from_state(
            model.get_params(), json.loads(json.dumps(model.state_dict())))
        assert json.dumps(clone.state_dict()) == json.dumps(
            model.state_dict())

    def test_child_index_out_of_range(self):
        tree = one_split_tree()
        tree["left"][0] = tree["right"][0] = 10 ** 6
        with pytest.raises(MalformedModel, match="tree 1: node 0 has a child "
                                                 "out of range"):
            IsolationForest.from_state({}, forest_state(tree))

    def test_cycle_raises_instead_of_walking_forever(self):
        tree = one_split_tree()
        tree["left"][0] = tree["right"][0] = 0
        with pytest.raises(MalformedModel,
                           match="tree 1: node 0 is reached twice"):
            IsolationForest.from_state({}, forest_state(tree, psi=256))

    def test_shared_child_is_reached_twice(self):
        tree = one_split_tree()
        tree["right"][0] = 1
        with pytest.raises(MalformedModel,
                           match="tree 1: node 1 is reached twice"):
            IsolationForest.from_state({}, forest_state(tree))

    def test_leaf_below_depth_limit(self):
        # psi = 2 trees end in leaves at depth 1; this one splits there
        deep = {"feature": [0, 1, -1, -1, -1],
                "threshold": [0.5, 0.5, 0.0, 0.0, 0.0],
                "left": [1, 2, -1, -1, -1], "right": [4, 3, -1, -1, -1],
                "leaf_path": [0.0, 0.0, 2.0, 2.0, 1.0]}
        with pytest.raises(MalformedModel,
                           match="tree 1: node 1 splits at depth 1"):
            IsolationForest.from_state({}, forest_state(deep))
        model = IsolationForest.from_state({}, forest_state(deep, psi=4))
        self.assert_matches_oracle(model, np.array([[0.0, 0.0], [0.0, 1.0],
                                                    [1.0, 0.0]]))

    @pytest.mark.parametrize("trees", [[], [{"feature": [], "threshold": [],
                                             "left": [], "right": [],
                                             "leaf_path": []}]])
    def test_empty_forest_or_tree(self, trees):
        with pytest.raises(MalformedModel):
            IsolationForest.from_state({}, {"effective_subsample": 4,
                                            "trees": trees})


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

    def test_one_row_equals_batch_bits(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 11)) @ rng.normal(size=(11, 11))
        Q = rng.normal(size=(300, 11)) * 2.0
        Q[::4] = Q[1]
        model = EllipticEnvelope().fit(X)
        singles = bits([model.score(q)[0] for q in Q])
        for batch in (Q, np.asfortranarray(Q)):
            np.testing.assert_array_equal(bits(model.score(batch)), singles)


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
        monkeypatch.setattr(lof, "QUERY_BLOCK", 7)
        for seed in range(4):
            X, Q = tied_rows(seed)
            Q = np.vstack([Q, Q[:30], Q[7:8], Q[7:8]])  # repeated rows
            model = LocalOutlierFactor(k=10).fit(X)
            batch = model.score(np.asfortranarray(Q))
            singles = [model.score(q)[0] for q in Q]
            np.testing.assert_array_equal(bits(batch), bits(singles))

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


class TestLofQueryBlocks:
    """Fit and score walk blocks of squared distances; the full-matrix
    oracle gives their k-distances, lrd and scores bit for bit."""

    @staticmethod
    def assert_matches_oracle(X, Q, k):
        model = LocalOutlierFactor(k=k).fit(X)
        kdist, lrd, scores = lof_full_matrix_oracle(X, Q, k)
        np.testing.assert_array_equal(bits(model._kdist), bits(kdist))
        np.testing.assert_array_equal(bits(model._lrd), bits(lrd))
        np.testing.assert_array_equal(bits(model.score(Q)), bits(scores))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_tied_rows(self, monkeypatch, block):
        from netwarden.detectors import lof
        monkeypatch.setattr(lof, "QUERY_BLOCK", block)
        for seed in range(3):
            X, Q = tied_rows(seed, n_train=150, n_query=100)
            self.assert_matches_oracle(X, Q, 10)

    def test_repeated_query_rows(self, monkeypatch):
        from netwarden.detectors import lof
        monkeypatch.setattr(lof, "QUERY_BLOCK", 7)
        X, Q = tied_rows(5, n_train=150, n_query=60)
        Q = np.vstack([Q, Q[::5], np.repeat(Q[:3], 4, axis=0)])
        Q = Q[np.random.default_rng(5).permutation(len(Q))]
        self.assert_matches_oracle(X, Q, 10)

    @pytest.mark.parametrize("block", [1, 64])
    def test_sqrt_ties_at_the_k_distance(self, monkeypatch, block):
        from netwarden.detectors import lof
        monkeypatch.setattr(lof, "QUERY_BLOCK", block)
        X, Q = sqrt_tie_rows()
        # the built case: distinct squared distances, one distance
        for origin, pair in ((Q[0], X[1:3]), (X[3], X[5:7])):
            d2 = sq_dists(origin[None, :], pair.T)[0]
            assert d2[0] < d2[1] and np.sqrt(d2[0]) == np.sqrt(d2[1])
        self.assert_matches_oracle(X, Q, 2)

    def test_widened_bound_covers_every_sqrt_tie(self):
        from netwarden.detectors.lof import WIDEN
        rng = np.random.default_rng(8)
        kd2 = np.ldexp(rng.uniform(1.0, 2.0, size=20000),
                       rng.integers(-1074, 1000, size=20000))
        kd2 = kd2[kd2 > 0]
        kd = np.sqrt(kd2)
        x = kd2.copy()
        for _ in range(16):
            x = np.nextafter(x, np.inf)
            tied = np.sqrt(x) == kd
            assert np.all(x[tied] <= kd2[tied] * WIDEN)
        assert not tied.any()  # the walk went past every tie


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
