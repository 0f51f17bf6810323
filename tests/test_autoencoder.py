import numpy as np
import pytest

from netwarden.detectors import Autoencoder
from netwarden.detectors.autoencoder import default_layer_sizes
from netwarden.errors import DivergedLoss, EmptyTraining
from netwarden.evaluation import auc
from netwarden.pipeline import extract_matrix, project_for_model, train_model

from oracles import autoencoder_fit_oracle, central_difference_gradient


def rank1_manifold(n=300, d=6, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-2.0, 2.0, size=(n, 1))
    direction = rng.normal(size=(1, d))
    direction /= np.linalg.norm(direction)
    return t @ direction + noise * rng.normal(size=(n, d))


class TestArchitecture:
    def test_default_sizes(self):
        assert default_layer_sizes(8) == [8, 4, 2, 4, 8]
        assert default_layer_sizes(5) == [5, 3, 2, 3, 5]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Autoencoder(layer_sizes=[4, 2, 3, 4]).fit(np.zeros((10, 4)))

    def test_no_bottleneck_rejected(self):
        with pytest.raises(ValueError):
            Autoencoder(layer_sizes=[4, 4, 4]).fit(np.zeros((10, 4)))

    def test_wrong_input_width_rejected(self):
        with pytest.raises(ValueError):
            Autoencoder(layer_sizes=[3, 2, 3]).fit(np.ones((10, 4)))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        """3-4-2-4-3 network, h=1e-5, max relative error <= 1e-4."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        model = Autoencoder(layer_sizes=[3, 4, 2, 4, 3], epochs=0, seed=1)
        model.fit(X)  # initializes parameters, runs zero epochs
        flat0 = model.params.copy()

        def loss_at(flat):
            model.params[:] = flat
            return model.loss(X)

        numeric = central_difference_gradient(loss_at, flat0, h=1e-5)
        model.params[:] = flat0
        analytic = model.flat_gradients(X)
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        denom[denom < 1e-8] = 1.0
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() <= 1e-4

    def test_perfect_reconstruction_zero_error(self):
        model = Autoencoder(layer_sizes=[2, 1, 2], epochs=0, seed=0)
        model.fit(np.zeros((5, 2)))
        x = np.array([[0.3, -0.7]])
        xhat = model.reconstruct(x)
        diff = x - xhat
        assert model.score(x)[0] == pytest.approx(float((diff * diff).sum()),
                                                  abs=1e-15)
        # score is exactly 0 when x equals its own reconstruction
        assert model.score(xhat)[0] >= 0.0


class TestTraining:
    def test_loss_non_increasing_full_batch(self):
        X = rank1_manifold()
        model = Autoencoder(epochs=60, learning_rate=1e-3,
                            batch_size=10 ** 9, seed=0)
        model.fit(X)
        diffs = np.diff(model.loss_history)
        assert np.all(diffs <= 1e-12)

    def test_off_manifold_scores_dominate(self):
        X = rank1_manifold(n=400, d=6, seed=1)
        model = Autoencoder(epochs=200, learning_rate=5e-3, batch_size=32,
                            seed=0)
        model.fit(X)
        inlier_median = np.median(model.score(X))
        rng = np.random.default_rng(2)
        probes = rng.normal(size=(40, 6)) * 3.0 + 4.0
        assert np.median(model.score(probes)) >= 5.0 * inlier_median

    def test_deterministic_given_seed(self):
        X = rank1_manifold(n=100, seed=3)
        a = Autoencoder(epochs=10, seed=5).fit(X)
        b = Autoencoder(epochs=10, seed=5).fit(X)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_diverged_loss_raises(self):
        # Adam moves each weight by about the step at most, so only a step
        # that overflows the reconstruction makes the loss non-finite
        X = rank1_manifold(n=50) * 100.0
        with pytest.raises(DivergedLoss):
            Autoencoder(epochs=5, learning_rate=1e200, seed=0).fit(X)

    def test_empty_training(self):
        with pytest.raises(EmptyTraining):
            Autoencoder().fit(np.empty((0, 4)))

    def test_persistence_round_trip(self):
        X = rank1_manifold(n=80, seed=4)
        Q = rank1_manifold(n=30, seed=5)
        model = Autoencoder(epochs=5, seed=1).fit(X)
        clone = Autoencoder.from_state(model.get_params(),
                                       model.state_dict())
        assert np.array_equal(model.score(Q), clone.score(Q))


def as_bits(arrays):
    return [np.asarray(a, dtype=np.float64).view(np.uint64) for a in arrays]


class TestFitOracle:
    """fit gathers each epoch's order once and updates one flat parameter
    vector and one flat vector per Adam moment; the per-batch, per-array
    loop must give the same bits."""

    @pytest.mark.parametrize("n,batch_size,learning_rate,order", [
        (1024, 256, 1.5e-3, "C"),  # the defaults, whole batches
        (1000, 256, 1.5e-3, "C"),  # ragged last batch of 232 rows
        (512, 32, 1e-3, "C"),      # 32-row batches
        (601, 32, 1e-3, "C"),      # ragged last batch of 25 rows
        (100, 256, 8e-3, "C"),     # fewer rows than one batch, large step
        # a projected matrix (values[:, cols]) comes out Fortran-ordered
        (300, 256, 1.5e-3, "F"),
    ])
    def test_matches_per_batch_loop(self, n, batch_size, learning_rate,
                                    order):
        X = np.asarray(rank1_manifold(n=n, d=7, seed=n), order=order)
        model = Autoencoder(epochs=4, learning_rate=learning_rate,
                            batch_size=batch_size, seed=9).fit(X)
        weights, biases, history = autoencoder_fit_oracle(
            X, default_layer_sizes(7), 4, learning_rate, batch_size, 9)
        for got, want in zip(as_bits(model.weights + model.biases),
                             as_bits(weights + biases)):
            assert np.array_equal(got, want)
        assert np.array_equal(*as_bits([model.loss_history, history]))

    def test_layers_are_views_of_the_flat_vector(self):
        model = Autoencoder(layer_sizes=[3, 2, 3], epochs=0).fit(
            np.ones((4, 3)))
        model.params[:] = np.arange(model.params.size, dtype=float)
        assert model.weights[0].tolist() == [[0, 1], [2, 3], [4, 5]]
        assert model.weights[1].tolist() == [[6, 7, 8], [9, 10, 11]]
        assert [b.tolist() for b in model.biases] == [[12, 13],
                                                      [14, 15, 16]]


class TestScoreLayout:
    def test_strided_row_scores_as_its_contiguous_copy(self):
        # the projection's column gather returns a Fortran-ordered matrix,
        # so each of its rows is strided; scored as such, 35 of these 200
        # rows differed from their copies in the last bits
        X = rank1_manifold(n=200, d=10, seed=6)
        model = Autoencoder(epochs=3, seed=2).fit(X)
        F = np.asfortranarray(X)
        for i in range(F.shape[0]):
            want = model.score(F[i:i + 1].copy())
            for row in (F[i:i + 1], F[i]):
                assert not row.flags.c_contiguous
                assert np.array_equal(*as_bits([model.score(row), want]))


# The SGD default (100 epochs, step 8e-3) measured on `corpus_dir`, before
# the optimizer became Adam: AUC 0.9917, benign FPR 0.0148, recall 1.0 on
# C&C, Download, HeartBeat and Scan, 0.915 on DDoS.
SGD_CORPUS_AUC = 0.9917
SGD_CORPUS_RECALL = {"C&C": 1.0, "HeartBeat": 1.0, "Scan": 1.0}


def test_default_quality_on_packet_corpus(corpus_dir):
    """The Adam default keeps the SGD default's detection quality on the
    synthetic corpus: AUC within 0.005, no lower recall on C&C, HeartBeat
    and Scan, and benign FPR at most 0.03."""
    Xtr = extract_matrix(str(corpus_dir / "train.pcap"), mode="packet")
    Xte = extract_matrix(str(corpus_dir / "test.pcap"), mode="packet",
                         labels_path=str(corpus_dir / "test.labels.csv"))
    labels = np.asarray(Xte.labels)
    attack = labels != "Normal"
    model = train_model(Xtr, kind="ae", seed=0)
    scores = model.score(project_for_model(model, Xte))
    flagged = scores > model.threshold
    assert auc(scores, attack.astype(float)) >= SGD_CORPUS_AUC - 0.005
    for label, recall in SGD_CORPUS_RECALL.items():
        assert flagged[labels == label].mean() >= recall, label
    assert flagged[~attack].mean() <= 0.03
