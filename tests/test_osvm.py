import tracemalloc

import numpy as np
import pytest

from netwarden.detectors import OneClassSVM, make_detector, ocsvm
from netwarden.detectors.distance import rbf
from netwarden.errors import EmptyTraining, NonConvergence
from netwarden.features import FeatureMatrix
from netwarden.pipeline import train_model

from oracles import osvm_dual_oracle


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestKernel:
    def test_unit_diagonal(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        K = rbf(X, X.T, 0.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_known_value(self):
        K = rbf(np.array([[0.0]]), np.array([[2.0]]), 0.5)
        assert K[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-15)


class TestSmoSolver:
    def test_feasibility_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        model = OneClassSVM(nu=0.1, gamma=0.5).fit(X)
        alpha = model.alpha_
        C = 1.0 / (0.1 * 60)
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= C)
        assert abs(alpha.sum() - 1.0) <= 1e-9

    def test_duplicated_single_point(self):
        # a training point duplicated everywhere is trivially normal
        X = np.tile([[1.0, -2.0]], (30, 1))
        model = OneClassSVM(nu=0.2, gamma=1.0).fit(X)
        assert model.decision_value(X[:1])[0] >= 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_tiny_duals_match_projected_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        nu = float(rng.uniform(0.15, 0.9))
        gamma = float(rng.uniform(0.2, 2.0))
        X = rng.normal(size=(n, d))
        model = OneClassSVM(nu=nu, gamma=gamma, tol=1e-10).fit(X)
        K = rbf(X, X.T, gamma)
        _, oracle_obj = osvm_dual_oracle(K, nu)
        smo_obj = 0.5 * model.alpha_ @ K @ model.alpha_
        assert smo_obj == pytest.approx(oracle_obj, abs=1e-6)

    def test_nu_property(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        for nu in (0.05, 0.1, 0.2):
            model = OneClassSVM(nu=nu, gamma=0.3, tol=1e-8).fit(X)
            g = model.decision_value(X)
            outlier_frac = float((g < -1e-8).mean())
            sv_frac = float((model.alpha_ > 0).mean())
            assert outlier_frac <= nu + 1e-12
            assert sv_frac >= nu - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        Q = rng.normal(size=(20, 3))
        a = OneClassSVM(nu=0.1, gamma=0.7).fit(X).score(Q)
        b = OneClassSVM(nu=0.1, gamma=0.7).fit(X).score(Q)
        assert np.array_equal(a, b)

    def test_anomaly_score_orientation(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 4))
        far = np.full((1, 4), 8.0)
        model = OneClassSVM(nu=0.1, gamma=0.5).fit(X)
        assert model.score(far)[0] > np.median(model.score(X))
        # g < 0 <=> anomalous per the sign convention
        assert model.decision_value(far)[0] < 0

    def test_non_convergence_reports_violation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        with pytest.raises(NonConvergence) as exc:
            OneClassSVM(nu=0.5, gamma=1.0, max_iter=2, tol=1e-12).fit(X)
        assert exc.value.kkt_violation is not None

    def test_needs_two_rows(self):
        with pytest.raises(EmptyTraining):
            OneClassSVM().fit(np.ones((1, 2)))

    def test_gamma_scale(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4)) * 2.0
        model = OneClassSVM(nu=0.2, gamma="scale").fit(X)
        assert model._gamma_value == pytest.approx(1.0 / (4 * X.var()))

    def test_row_cache_size_does_not_change_the_fit(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 3))
        Q = rng.normal(size=(15, 3))
        K = rbf(X, X.T, 0.5)
        read = []

        def row_of_rbf(A, BT, gamma):
            r = rbf(A, BT, gamma)
            i = int(np.flatnonzero((X == A[0]).all(axis=1))[0])
            np.testing.assert_array_equal(bits(r[0]), bits(K[i]))
            read.append(i)
            return r
        monkeypatch.setattr(ocsvm, "rbf", row_of_rbf)
        # cache_mb=0 keeps two rows, so rows are evicted and computed again
        tiny = OneClassSVM(nu=0.1, gamma=0.5, cache_mb=0).fit(X)
        recomputed = len(read) - len(set(read))
        read.clear()
        roomy = OneClassSVM(nu=0.1, gamma=0.5).fit(X)
        monkeypatch.undo()
        assert recomputed > 0 and len(read) == len(set(read))
        assert tiny.n_iter_ == roomy.n_iter_
        for a, b in ((tiny.alpha_, roomy.alpha_), (tiny.rho, roomy.rho),
                     (tiny.score(Q), roomy.score(Q))):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_fit_computes_only_the_rows_it_reads(self, monkeypatch):
        X = np.random.default_rng(12).normal(size=(3000, 4))
        computed = []

        def counted(A, BT, gamma):
            computed.append(A.shape[0])
            return rbf(A, BT, gamma)
        monkeypatch.setattr(ocsvm, "rbf", counted)
        OneClassSVM(nu=0.05, gamma=0.5).fit(X)
        assert set(computed) == {1} and len(computed) < X.shape[0]

    def test_fit_never_holds_the_n_by_n_matrix(self):
        X = np.random.default_rng(12).normal(size=(3000, 4))
        tracemalloc.start()
        try:
            OneClassSVM(nu=0.05, gamma=0.5).fit(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] ** 2 * 8 / 2  # 36 MB

    def test_persistence_round_trip(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(70, 3))
        Q = rng.normal(size=(30, 3))
        model = OneClassSVM(nu=0.15, gamma=0.4).fit(X)
        clone = OneClassSVM.from_state(model.get_params(),
                                       model.state_dict())
        assert np.array_equal(model.score(Q), clone.score(Q))

    def test_train_model_fits_the_constructor_defaults(self):
        # regression: train_model applied nu = 0.05 over the constructor's
        # 0.1, so make_detector("osvm") fit another model
        X = FeatureMatrix(np.random.default_rng(10).normal(size=(80, 3)),
                          ("a", "b", "c"), "packet")
        model = train_model(X, kind="osvm")
        assert model.detector.get_params() == \
            make_detector("osvm").get_params()
        assert model.detector.nu == 0.05



def test_one_row_equals_batch_bits():
    # a BLAS product over the kernel rows may split its sums by batch
    # shape; each row's fixed-order sum cannot
    rng = np.random.default_rng(11)
    X = rng.normal(size=(400, 11)) @ rng.normal(size=(11, 11))
    Q = rng.normal(size=(300, 11)) * 2.0
    Q[::4] = Q[1]  # repeated rows
    model = OneClassSVM(nu=0.2, gamma=0.05).fit(X)
    singles = bits([model.score(q)[0] for q in Q])
    strided = np.zeros((Q.shape[0], 2 * Q.shape[1]))[:, ::2]
    strided[:] = Q
    for batch, expected in ((Q, singles), (np.asfortranarray(Q), singles),
                            (strided, singles), (Q[::-1], singles[::-1]),
                            (Q[5:12], singles[5:12])):
        np.testing.assert_array_equal(bits(model.score(batch)), expected)
