"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured values behind them.
"""

import json
import time

import numpy as np
import pytest

from netwarden import pcap, synth
from netwarden.cli import main as cli_main
from netwarden.detectors import (
    Autoencoder,
    EllipticEnvelope,
    IsolationForest,
    LocalOutlierFactor,
    OneClassSVM,
    anomaly_score_from_mean_path,
    average_path_normalizer,
    default_search_space,
    make_detector,
    random_search,
)
from netwarden.detectors.distance import rbf
from netwarden.evaluation import (
    auc,
    binary_metrics,
    delay_benchmark_packets,
    evaluate,
    tw_sweep,
)
from netwarden.flows import MeterConfig, meter
from netwarden.pipeline import extract_matrix, project_for_model, train_model
from netwarden.selection import SelectionConfig, rank_features

from conftest import golden_syn_frame, golden_udp_frame
from oracles import (
    auc_pair_oracle,
    central_difference_gradient,
    lof_oracle,
    osvm_dual_oracle,
)
from test_detectors import blob_with_outliers
from test_flows import random_stream


def passed(cid: str, name: str, detail: str = "") -> None:
    suffix = (" (%s)" % detail) if detail else ""
    print("\n[acceptance] %s %s: PASS%s" % (cid, name, suffix))


def test_c1_lof_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, min(15, n - 1)))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0))
        Q = rng.normal(size=(8, d)) * 2.0
        got = LocalOutlierFactor(k=k).fit(X).score(Q)
        exp = np.asarray(lof_oracle(X.tolist(), Q.tolist(), k))
        worst = max(worst, float(np.max(np.abs(got - exp))))
        assert np.allclose(got, exp, atol=1e-9)
    # repeated rows: distances tie exactly, and N_k counts every point
    # tied at the k-distance
    for _ in range(10):
        n = int(rng.integers(40, 201))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 15))
        base = rng.normal(size=(n // 3, d))
        X = base[rng.integers(0, n // 3, size=n)]
        Q = np.vstack([X[:4], base[:4] + rng.normal(size=(4, d)) * 0.1])
        got = LocalOutlierFactor(k=k).fit(X).score(Q)
        exp = np.asarray(lof_oracle(X.tolist(), Q.tolist(), k))
        worst = max(worst, float(np.max(np.abs(got - exp))))
        assert np.allclose(got, exp, atol=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    passed("C1", "LOF oracle equivalence",
           "50 random and 10 tied datasets, worst |diff|=%.2e, %.1fs"
           % (worst, elapsed))


def test_c2_osvm_oracle_and_nu_property():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 5))
        nu = float(rng.uniform(0.15, 0.95))
        gamma = float(rng.uniform(0.2, 2.0))
        X = rng.normal(size=(n, d))
        model = OneClassSVM(nu=nu, gamma=gamma, tol=1e-10).fit(X)
        alpha = model.alpha_
        C = 1.0 / (nu * n)
        assert np.all(alpha >= 0.0) and np.all(alpha <= C)  # box exact
        assert abs(alpha.sum() - 1.0) <= 1e-9
        K = rbf(X, X.T, gamma)
        _, oracle_obj = osvm_dual_oracle(K, nu)
        diff = abs(0.5 * alpha @ K @ alpha - oracle_obj)
        worst = max(worst, diff)
        assert diff <= 1e-6
    X = np.random.default_rng(2003).normal(size=(200, 4))
    for nu in (0.05, 0.1, 0.2):
        model = OneClassSVM(nu=nu, gamma=0.3, tol=1e-8).fit(X)
        g = model.decision_value(X)
        assert float((g < -1e-8).mean()) <= nu
        assert float((model.alpha_ > 0).mean()) >= nu - 1e-12
    passed("C2", "OSVM oracle equivalence + nu-property",
           "50 duals, worst |obj diff|=%.2e" % worst)


def test_c3_numerical_checks():
    # AE: analytic vs central differences on a 3-4-2-4-3 network
    rng = np.random.default_rng(3003)
    X = rng.normal(size=(10, 3))
    ae = Autoencoder(layer_sizes=[3, 4, 2, 4, 3], epochs=0, seed=4)
    ae.fit(X)
    flat0 = ae.params.copy()

    def loss_at(flat):
        ae.params[:] = flat
        return ae.loss(X)

    numeric = central_difference_gradient(loss_at, flat0, h=1e-5)
    ae.params[:] = flat0
    analytic = ae.flat_gradients(X)
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    denom[denom < 1e-8] = 1.0
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    assert max_rel <= 1e-4

    # EE identities
    Y = rng.normal(size=(150, 5))
    ee = EllipticEnvelope(ridge=0.0).fit(Y)
    assert ee.score(ee.mu[None, :])[0] <= 1e-12
    ee_id = EllipticEnvelope(ridge=0.0)
    ee_id.mu = np.zeros(4)
    ee_id.cov = np.eye(4)
    ee_id._precision = np.eye(4)
    q = np.array([[3.0, 0.0, 4.0, 0.0]])
    assert abs(ee_id.score(q)[0] - 5.0) <= 1e-12

    # IF normalizer identities, exact
    assert average_path_normalizer(2) == 1.0
    for n in (2, 64, 256):
        assert anomaly_score_from_mean_path(average_path_normalizer(n),
                                            n) == 0.5
    passed("C3", "AE gradcheck + EE/IF identities",
           "gradcheck max rel err=%.2e" % max_rel)


def test_c4_planted_outlier_suite():
    t0 = time.time()
    inliers, outliers = blob_with_outliers(n=512, d=8, frac=0.05, seed=11)
    probes = np.vstack([inliers, outliers])
    labels = np.concatenate([np.zeros(len(inliers)), np.ones(len(outliers))])
    results = {}
    for kind in ("if", "ee", "lof", "osvm", "ae"):
        space = default_search_space(kind, inliers.shape[1])
        res = random_search(kind, space, inliers, budget=20, seed=3,
                            target_fpr=0.02)
        params = dict(res.best_params)
        if kind in ("if", "ae"):
            params.setdefault("seed", 0)
        det = make_detector(kind, params)
        det.fit(inliers)
        results[kind] = auc(det.score(probes), labels)
        assert results[kind] >= 0.95, (kind, results[kind])
    elapsed = time.time() - t0
    assert elapsed < 300.0
    passed("C4", "planted-outlier suite",
           "AUCs: %s, %.0fs" % ({k: round(v, 4) for k, v in
                                 results.items()}, elapsed))


def test_c5_feature_selection_sanity():
    rng = np.random.default_rng(21)
    n = 400
    cols, names = [], []
    for i in range(5):
        base = np.full(n, float(i))
        hot = rng.choice(n, size=n // 25, replace=False)
        base[hot] += rng.uniform(3.0, 8.0, size=hot.size)
        cols.append(base)
        names.append("compact_%d" % i)
    for i in range(5):
        cols.append(rng.uniform(0.0, 1.0, size=n))
        names.append("noise_%d" % i)
    X = np.column_stack(cols)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    ranked = rank_features(X, tuple(names),
                           SelectionConfig(keep=5, aggregation="mean"))
    assert all(s.startswith("compact_") for s in ranked.selected), \
        ranked.selected
    passed("C5", "feature-selection sanity",
           "top5=%s" % (ranked.selected,))


def test_c6_pipeline_gate_on_synth_corpus(corpus_dir):
    t0 = time.time()
    train_pcap = str(corpus_dir / "train.pcap")
    test_pcap = str(corpus_dir / "test.pcap")
    test_labels = str(corpus_dir / "test.labels.csv")

    # packet mode, OSVM, target_fpr = 0.02
    Xtr = extract_matrix(train_pcap, mode="packet")
    Xte = extract_matrix(test_pcap, mode="packet", labels_path=test_labels)
    model = train_model(Xtr, kind="osvm", target_fpr=0.02, seed=0)
    scores = model.score(project_for_model(model, Xte))
    flags = scores > model.threshold
    labels = np.asarray(Xte.labels)
    stealth = np.isin(labels, ["Scan", "Download", "C&C"])
    stealth_recall = float(flags[stealth].mean())
    fpr = float(flags[labels == "Normal"].mean())
    assert stealth_recall >= 0.99, stealth_recall
    assert fpr <= 0.03, fpr

    # unidirectional flows at TW = 1 s
    Xtr_f = extract_matrix(train_pcap, mode="uni_flow", tw=1.0)
    Xte_f = extract_matrix(test_pcap, mode="uni_flow", tw=1.0,
                           labels_path=test_labels)
    model_f = train_model(Xtr_f, kind="osvm", target_fpr=0.02, seed=0)
    rep = evaluate(model_f, Xte_f, roc=False)
    assert rep.per_class_recall["C&C"] >= 0.90
    assert rep.per_class_recall["Scan"] == 1.0
    heartbeat = rep.per_class_recall.get("HeartBeat")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    passed("C6", "pipeline gate on synth corpus",
           "packet: stealth recall=%.4f fpr=%.4f; uni TW=1: C&C=%.2f "
           "Scan=%.2f HeartBeat=%s (reported, ungated), %.0fs"
           % (stealth_recall, fpr, rep.per_class_recall["C&C"],
              rep.per_class_recall["Scan"], heartbeat, elapsed))


def test_c7_tw_sweep_shape_and_direction(corpus_dir):
    rows = tw_sweep(str(corpus_dir / "test.pcap"),
                    str(corpus_dir / "test.labels.csv"), kind="osvm",
                    tw_list=("default", 300.0, 100.0, 10.0, 1.0), seed=0)
    assert [tw for tw, _ in rows] == ["default", 300.0, 100.0, 10.0, 1.0]
    assert len(rows) == 5
    for _, rep in rows:
        for metric in rep.METRIC_NAMES:
            assert hasattr(rep, metric)
    by_tw = dict(rows)
    assert by_tw[1.0].fpr <= by_tw[300.0].fpr
    passed("C7", "TW sweep shape + FPR direction",
           "FPR(1s)=%.4f <= FPR(300s)=%.4f"
           % (by_tw[1.0].fpr, by_tw[300.0].fpr))


def test_c8_detection_delay_budget(corpus_dir):
    Xtr = extract_matrix(str(corpus_dir / "train.pcap"), mode="packet")
    p95s = {}
    throughput = {}
    for kind in ("if", "ee", "ae"):
        model = train_model(Xtr, kind=kind, target_fpr=0.02, seed=0)
        rep = delay_benchmark_packets(str(corpus_dir / "test.pcap"), model)
        p95s[kind] = rep.p95_ms
        throughput[kind] = rep.throughput_pps
        assert rep.p95_ms < 5.0, (kind, rep.p95_ms)  # hardware-variance gate
        assert rep.throughput_pps >= 10_000, (kind, rep.throughput_pps)
    passed("C8", "detection-delay budget",
           "p95 ms: %s; throughput pps: %s (target p95 < 1 ms: %s)"
           % ({k: round(v, 3) for k, v in p95s.items()},
              {k: int(v) for k, v in throughput.items()},
              {k: v < 1.0 for k, v in p95s.items()}))


def test_c9_metric_identities_auc_oracle_conservation(tmp_path):
    # identities on random confusion draws
    rng = np.random.default_rng(9009)
    for _ in range(10_000):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 100, size=4))
        if tp + fp + tn + fn == 0:
            continue
        m = binary_metrics(tp, fp, tn, fn)
        if tp + fp:
            assert m["precision"] * (tp + fp) == pytest.approx(tp)
        if tp + fn:
            assert m["recall"] * (tp + fn) == pytest.approx(tp)
        if fp + tn:
            assert m["fpr"] * (fp + tn) == pytest.approx(fp)
        if 2 * tp + fp + fn:
            assert m["f1"] * (2 * tp + fp + fn) == pytest.approx(2 * tp)
        assert m["accuracy"] * (tp + fp + tn + fn) == pytest.approx(tp + tn)

    # AUC equals brute-force pair counting on every n <= 8 draw
    for seed in range(200):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 9))
        scores = r.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        labels = r.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            auc_pair_oracle(scores.tolist(), labels.tolist()), abs=1e-12)

    # conservation on golden PCAPs
    from conftest import build_global_header, build_record
    path = tmp_path / "golden.pcap"
    body = build_record(1, 0, golden_syn_frame()) \
        + build_record(1, 500000, golden_udp_frame()) \
        + build_record(2, 0, golden_syn_frame())
    path.write_bytes(build_global_header() + body)
    decoded = list(pcap.open_capture(str(path)))
    recs = list(meter(iter(decoded), MeterConfig()))
    assert sum(r.pkt_count for r in recs) == len(decoded)

    # conservation on 1,000 fuzzed streams
    for seed in range(1000):
        r = np.random.default_rng(seed)
        ps = random_stream(r, n=int(r.integers(10, 120)))
        mode = "uni" if seed % 2 else "bi"
        tw = [None, 1.0, 3.0][seed % 3]
        recs = list(meter(iter(ps), MeterConfig(direction_mode=mode,
                                                tw_seconds=tw,
                                                idle_timeout=4.0)))
        assert sum(r2.pkt_count for r2 in recs) == len(ps)
    passed("C9", "metric identities + AUC oracle + packet conservation",
           "10k confusion draws, 200 AUC draws, 1000 fuzzed streams")


def test_c10_full_pipeline_determinism(tmp_path):
    scenario = {
        "duration": 90.0, "devices": 4,
        "scan": {"enabled": True, "start": 10.0, "targets": 80},
        "c2": {"enabled": True, "start": 5.0},
    }
    artifacts = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        d.mkdir()
        (d / "scenario.json").write_text(json.dumps(scenario))
        assert cli_main(["synth", "--scenario", str(d / "scenario.json"),
                         "--seed", "77", "--out", str(d / "corpus")]) == 0
        assert cli_main(["extract", "--in", str(d / "corpus.pcap"),
                         "--mode", "uni_flow", "--tw", "1",
                         "--labels", str(d / "corpus.labels.csv"),
                         "--out", str(d / "features.csv")]) == 0
        assert cli_main(["extract", "--in", str(d / "corpus.pcap"),
                         "--mode", "uni_flow", "--tw", "1",
                         "--out", str(d / "benign.csv")]) == 0
        assert cli_main(["train", "--in", str(d / "benign.csv"),
                         "--detector", "if", "--seed", "77",
                         "--out", str(d / "model.json")]) == 0
        assert cli_main(["evaluate", "--model", str(d / "model.json"),
                         "--in", str(d / "features.csv"),
                         "--out", str(d / "report")]) == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(d.iterdir())
                          if p.suffix in (".pcap", ".csv", ".json")})
    assert set(artifacts[0]) == set(artifacts[1])
    for name in artifacts[0]:
        assert artifacts[0][name] == artifacts[1][name], name
    passed("C10", "full-pipeline determinism",
           "byte-identical: %s" % sorted(artifacts[0]))
