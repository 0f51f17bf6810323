import numpy as np
import pytest

from netwarden import selection as sel
from netwarden.errors import (
    NonPositiveSigma,
    RankListMismatch,
    TooFewSamples,
    ZeroVariance,
)
from netwarden.features import apply_normalizer, fit_normalizer
from netwarden.pipeline import extract_matrix

from oracles import rbf_similarity_gemm_oracle


class TestRbfSimilarity:
    def test_identical_points(self):
        S = sel.rbf_similarity(np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0)
        assert S[0, 1] == 1.0

    def test_derived_value(self):
        # 1-D points 0 and 2 with sigma=1: exp(-4/2)
        S = sel.rbf_similarity(np.array([[0.0], [2.0]]), 1.0)
        assert S[0, 1] == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert S[0, 1] == pytest.approx(0.13534, abs=1e-5)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        S = sel.rbf_similarity(rng.normal(size=(40, 5)), 0.7)
        assert np.array_equal(S, S.T)
        assert np.all(np.diag(S) == 1.0)
        assert np.all(S > 0.0) and np.all(S <= 1.0)

    def test_non_positive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            sel.rbf_similarity(np.zeros((3, 1)), 0.0)


class TestSpectralScore:
    def test_constant_feature_scores_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(25, 3))
        S = sel.rbf_similarity(X, 1.0)
        assert sel.spectral_score(np.full(25, 3.3), S) < 1e-12

    def test_fiedler_vector_gives_second_eigenvalue(self):
        # independent oracle: eigendecompose the 4x4 normalized Laplacian
        S = np.array([
            [1.0, 0.6, 0.1, 0.05],
            [0.6, 1.0, 0.2, 0.1],
            [0.1, 0.2, 1.0, 0.7],
            [0.05, 0.1, 0.7, 1.0],
        ])
        deg = S.sum(axis=1)
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        L = np.eye(4) - (S * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
        evals, evecs = np.linalg.eigh(L)
        lam2 = evals[1]
        u2 = evecs[:, 1]
        f = d_inv_sqrt * u2  # feature whose weighted form is the eigenvector
        assert sel.spectral_score(f, S) == pytest.approx(lam2, abs=1e-9)

    def test_duplicate_columns_same_score(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        S = sel.rbf_similarity(X, 1.0)
        f = X[:, 2]
        assert sel.spectral_score(f, S) == sel.spectral_score(f.copy(), S)


class TestInformationScore:
    def test_half_similarity_pair_counts_two_bits(self):
        # one pair at S_ij = 0.5 contributes 1 bit per ordered pair
        c = np.sqrt(2.0 * np.log(2.0))  # distance giving exp(-c^2/2) = 1/2
        E = sel.information_score(np.array([0.0, c]), 1.0)
        assert E == pytest.approx(2.0, abs=1e-12)

    def test_binary_similarities_zero_entropy(self):
        # huge separation at tiny sigma: S is numerically {0, 1}
        E = sel.information_score(np.array([0.0, 1e6]), 1.0)
        assert E == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            E = sel.information_score(rng.normal(size=20), 1.0)
            assert E >= 0.0

    def test_duplicate_columns_same_score(self):
        f = np.random.default_rng(4).normal(size=15)
        assert sel.information_score(f, 1.0) \
            == sel.information_score(f.copy(), 1.0)


class TestPearsonRedundancy:
    def test_identical_feature_contributes_one(self):
        X = np.column_stack([np.array([1.0, 2.0, 3.0]),
                             np.array([1.0, 2.0, 3.0])])
        assert sel.pearson_redundancy(0, X) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        X = np.column_stack([np.array([1.0, 2.0, 3.0]),
                             np.array([3.0, 2.0, 1.0])])
        assert sel.pearson_redundancy(0, X) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_trend(self):
        # centered [1,-1,-1,1] is orthogonal to the linear trend
        X = np.column_stack([np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([1.0, -1.0, -1.0, 1.0])])
        assert sel.pearson_redundancy(0, X) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_column_value(self):
        # oracle: np.corrcoef of [1,2,3,4] vs [1,-1,1,-1] is -0.4472...
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        expected = abs(np.corrcoef(x, y)[0, 1])
        assert expected == pytest.approx(0.4472135954999579, abs=1e-12)
        X = np.column_stack([x, y])
        assert sel.pearson_redundancy(0, X) == pytest.approx(expected,
                                                             abs=1e-12)

    def test_constant_column_raises(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(ZeroVariance):
            sel.pearson_redundancy(0, X)


class TestIntraClassDistance:
    def test_identical_values(self):
        assert sel.intra_class_distance(np.full(7, 2.5)) == 0.0

    def test_two_points(self):
        assert sel.intra_class_distance(np.array([0.0, 2.0])) == 1.0

    def test_three_points(self):
        got = sel.intra_class_distance(np.array([0.0, 0.0, 3.0]))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-15)


class TestIqr:
    def test_constant(self):
        assert sel.iqr_score(np.full(10, 3.0)) == 0.0

    def test_five_points(self):
        assert sel.iqr_score(np.array([0.0, 1.0, 2.0, 3.0, 4.0])) == 2.0

    def test_four_points_interpolated(self):
        assert sel.iqr_score(np.array([1.0, 2.0, 3.0, 4.0])) == 1.5

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            sel.iqr_score(np.array([1.0, 2.0, 3.0]))


class TestAggregateRanks:
    def names(self, m):
        return tuple("f%d" % i for i in range(m))

    def test_unanimous_first(self):
        ranks = {c: np.array([1, 2, 3]) for c in ("a", "b", "c", "d", "e")}
        for method in sel.AGGREGATIONS:
            _, order = sel.aggregate_ranks(ranks, method, self.names(3))
            assert order[0] == 0

    def test_tie_broken_by_manifest_order(self):
        ranks = {"c1": np.array([1, 2]), "c2": np.array([2, 1])}
        agg, order = sel.aggregate_ranks(ranks, "mean", self.names(2))
        assert agg[0] == agg[1] == 1.5
        assert list(order) == [0, 1]

    def test_mean_of_rank_positions(self):
        # a feature ranked (1,3,2,5,4) across five criteria averages to 3.0
        positions = [1, 3, 2, 5, 4]
        ranks = {}
        for i, r in enumerate(positions):
            full = [r] + [x for x in range(1, 6) if x != r]
            ranks["c%d" % i] = np.array(full)
        agg, _ = sel.aggregate_ranks(ranks, "mean", self.names(5))
        assert agg[0] == 3.0

    def test_borda_descending_points(self):
        ranks = {"c1": np.array([1, 2, 3]), "c2": np.array([1, 3, 2])}
        agg, order = sel.aggregate_ranks(ranks, "borda", self.names(3))
        assert list(order) == [0, 2, 1] or list(order) == [0, 1, 2]
        assert agg[0] == 4  # (3-1) + (3-1)

    def test_majority_median(self):
        ranks = {"c1": np.array([1, 2, 3]), "c2": np.array([3, 2, 1]),
                 "c3": np.array([1, 3, 2])}
        agg, order = sel.aggregate_ranks(ranks, "majority", self.names(3))
        assert agg[0] == 1.0  # median of (1, 3, 1)
        assert order[0] == 0

    def test_length_mismatch(self):
        with pytest.raises(RankListMismatch):
            sel.aggregate_ranks({"c": np.array([1, 2])}, "mean",
                                self.names(3))

    def test_not_permutation(self):
        with pytest.raises(RankListMismatch):
            sel.aggregate_ranks({"c": np.array([1, 1, 3])}, "mean",
                                self.names(3))


def zscore(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


class TestRankFeatures:
    def planted(self, n=160, seed=0):
        """One mostly-constant (tight) feature, one uniform noise."""
        rng = np.random.default_rng(seed)
        tight = np.zeros(n)
        hot = rng.choice(n, size=n // 20, replace=False)
        tight[hot] = rng.uniform(5.0, 10.0, size=hot.size)
        noise = rng.uniform(0.0, 1.0, size=n)
        return zscore(np.column_stack([tight, noise]))

    def test_planted_tight_vs_noise_three_criteria(self):
        X = self.planted()
        tight, noise = X[:, 0], X[:, 1]
        assert sel.intra_class_distance(tight) < sel.intra_class_distance(
            noise)
        assert sel.iqr_score(tight) < sel.iqr_score(noise)
        assert sel.information_score(tight, 1.0) < sel.information_score(
            noise, 1.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        X = zscore(rng.normal(size=(60, 4)))
        names = tuple("f%d" % i for i in range(4))
        cfg = sel.SelectionConfig(keep=4)
        r1 = sel.rank_features(X, names, cfg)
        perm = rng.permutation(60)
        r2 = sel.rank_features(X[perm], names, cfg)
        for c in sel.CRITERIA:
            assert np.allclose(r1.scores[c], r2.scores[c], atol=1e-9)

    def test_duplicate_column_same_spec_and_info(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(50, 3))
        X = zscore(np.column_stack([base, base[:, 0]]))
        names = ("a", "b", "c", "a_copy")
        ranked = sel.rank_features(X, names, sel.SelectionConfig(keep=4))
        assert ranked.scores["spectral"][0] == pytest.approx(
            ranked.scores["spectral"][3], abs=1e-12)
        assert ranked.scores["information"][0] == pytest.approx(
            ranked.scores["information"][3], abs=1e-12)

    def test_keep_all_returns_permutation(self):
        rng = np.random.default_rng(9)
        X = zscore(rng.normal(size=(40, 5)))
        names = tuple("f%d" % i for i in range(5))
        ranked = sel.rank_features(X, names, sel.SelectionConfig(keep=5))
        assert sorted(ranked.selected) == sorted(names)
        for c in sel.CRITERIA:
            assert sorted(ranked.ranks[c]) == [1, 2, 3, 4, 5]

    def test_subsample_cap_applies(self, monkeypatch):
        rng = np.random.default_rng(10)
        X = zscore(rng.normal(size=(2300, 2)))
        names = ("a", "b")
        monkeypatch.setattr(sel, "SUBSAMPLE_CAP", 200)
        cfg = sel.SelectionConfig(keep=2)
        ranked = sel.rank_features(X, names, cfg)  # must not be O(n^2) huge
        assert len(ranked.selected) == 2

    def test_report_rows(self):
        rng = np.random.default_rng(11)
        X = zscore(rng.normal(size=(30, 3)))
        ranked = sel.rank_features(X, ("a", "b", "c"),
                                   sel.SelectionConfig(keep=2))
        rows = list(ranked.csv_rows())
        assert rows[0][0] == "feature"
        assert len(rows) == 4
        assert sum(int(r[-1]) for r in rows[1:]) == 2


SPECTRAL_ABS = 1e-13
INFORMATION_REL = 1e-10


def _order_flips_beyond(tol, got_ranks, exp_ranks, exp_scores, names):
    """The feature pairs that the two rankings order differently although
    their oracle scores differ by more than `tol` (per feature)."""
    a, b = got_ranks, exp_ranks
    i, j = np.nonzero((a[:, None] < a[None, :]) != (b[:, None] < b[None, :]))
    far = np.abs(exp_scores[i] - exp_scores[j]) > np.maximum(tol[i], tol[j])
    return [(names[p], names[q]) for p, q in zip(i[far], j[far])]


@pytest.mark.parametrize("mode,tw", [("packet", None), ("uni_flow", 1.0),
                                     ("bi_flow", 1.0)])
def test_shared_kernel_matches_gemm_oracle(corpus_dir, monkeypatch, mode,
                                           tw):
    """Selection on the fixed-order kernel against the old expanded-form
    (GEMM) similarity: the criteria without a similarity graph are
    bit-identical, the two graph criteria move by float noise, and ranks
    reorder only among features the noise cannot tell apart."""
    X = extract_matrix(str(corpus_dir / "train.pcap"), mode, tw=tw)
    Xn = apply_normalizer(X, fit_normalizer(X))
    got = sel.rank_features(Xn.values, Xn.names)
    monkeypatch.setattr(sel, "rbf_similarity", rbf_similarity_gemm_oracle)
    exp = sel.rank_features(Xn.values, Xn.names)
    for c in ("redundancy", "intra_class", "iqr"):
        assert np.array_equal(got.scores[c].view(np.uint64),
                              exp.scores[c].view(np.uint64)), c
        assert np.array_equal(got.ranks[c], exp.ranks[c]), c
    tols = {
        "spectral": np.full(len(Xn.names), SPECTRAL_ABS),
        "information": INFORMATION_REL * np.abs(exp.scores["information"]),
    }
    for c, tol in tols.items():
        assert np.all(np.abs(got.scores[c] - exp.scores[c]) <= tol), c
        assert _order_flips_beyond(tol, got.ranks[c], exp.ranks[c],
                                   exp.scores[c], Xn.names) == [], c
