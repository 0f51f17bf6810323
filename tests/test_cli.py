import csv
import hashlib
import json

import numpy as np
import pytest

from netwarden import pcap
from netwarden.cli import main
from netwarden.errors import ConfigInvalid
from netwarden.features import FeatureMatrix, read_matrix_csv, \
    write_matrix_csv
from netwarden.pipeline import extract_matrix, train_model

from conftest import build_global_header, build_record, golden_syn_frame


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small corpus and derived artifacts shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    scenario = {
        "duration": 60.0, "devices": 4,
        "scan": {"enabled": True, "start": 5.0, "targets": 60},
        "c2": {"enabled": True, "start": 2.0},
    }
    (d / "scenario.json").write_text(json.dumps(scenario))
    assert run("synth", "--scenario", str(d / "scenario.json"),
               "--seed", "11", "--out", str(d / "corpus")) == 0
    return d


@pytest.fixture(scope="module")
def packet_model(workdir):
    """Path of an EE model trained on the corpus' packet matrix."""
    path = workdir / "packet_model.json"
    X = extract_matrix(str(workdir / "corpus.pcap"), mode="packet")
    train_model(X, kind="ee").save(str(path))
    return str(path)


class TestSynthExtract:
    def test_synth_wrote_files(self, workdir):
        assert (workdir / "corpus.pcap").exists()
        assert (workdir / "corpus.labels.csv").exists()

    def test_extract_flow_csv(self, workdir):
        out = workdir / "flows.csv"
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", "uni_flow", "--tw", "1",
                   "--labels", str(workdir / "corpus.labels.csv"),
                   "--out", str(out)) == 0
        X = read_matrix_csv(str(out))
        assert X.mode == "uni_flow"
        assert X.labels is not None
        assert "Scan" in X.labels

    def test_extract_packet_csv(self, workdir):
        out = workdir / "packets.csv"
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", "packet", "--out", str(out)) == 0
        X = read_matrix_csv(str(out))
        assert X.mode == "packet"
        assert len(X.names) == 20
        assert X.labels is None

    def test_extract_idempotent_byte_identical(self, workdir):
        a = workdir / "again_a.csv"
        b = workdir / "again_b.csv"
        for out in (a, b):
            assert run("extract", "--in", str(workdir / "corpus.pcap"),
                       "--mode", "uni_flow", "--tw", "1",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_raw_flow_dump(self, workdir, tmp_path):
        from netwarden.flows import flow_csv_header
        flows_csv = tmp_path / "raw_flows.csv"
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", "uni_flow", "--tw", "1",
                   "--flows-out", str(flows_csv),
                   "--out", str(tmp_path / "feats.csv")) == 0
        lines = flows_csv.read_text().strip().splitlines()
        assert lines[0] == ",".join(flow_csv_header("uni"))
        from netwarden.features import read_matrix_csv as read_csv
        assert len(lines) - 1 == read_csv(str(tmp_path / "feats.csv")).n

    @pytest.mark.parametrize("mode", ["packet", "uni_flow", "bi_flow"])
    def test_extract_accounts_for_its_input(self, workdir, tmp_path,
                                            capsys, mode):
        flows_csv = tmp_path / "raw_flows.csv"
        capsys.readouterr()
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", mode, "--tw", "1",
                   "--flows-out", str(flows_csv),
                   "--out", str(tmp_path / "feats.csv")) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        cap = line["capture"]
        assert cap["decoded"] > 0
        assert cap["frames_read"] == (
            cap["decoded"] + cap["skipped_non_ip"] + cap["skipped_malformed"]
            + cap["fragment_frames"] + cap["dropped_late"])
        if mode == "packet":
            assert "meter" not in line
            assert line["rows"] == cap["decoded"]
            return
        with open(flows_csv) as fh:
            flows = list(csv.DictReader(fh))
        sides = ("fwd", "bwd") if mode == "bi_flow" else ("fwd",)
        metered = line["meter"]
        assert metered["flows_emitted"] == len(flows) == line["rows"]
        assert metered["packets_metered"] == sum(
            int(f["%s_pkt_count" % s]) for f in flows for s in sides)
        assert metered["packets_metered"] + metered["clock_skew_dropped"] \
            == cap["decoded"]

    # SHA-256 of the raw flow dump on the shared corpus, taken with the
    # code that kept a flow's live state and its emitted record apart
    FLOWS_OUT_SHA256 = {
        ("uni_flow", "1"):
            "169824d1034576e69a0473b590a52886c9df2b73020c19b1cd0bbe6355a639ab",
        ("uni_flow", "default"):
            "e33ff0a8c7dc328a1af4d807a7b393c138054ce02cf32efde73ed05b2570b19f",
        ("bi_flow", "1"):
            "6645b38765934aa9d0c4823c17aabd9377a37cb7ffe9b206de6ea9ade3b679d1",
        ("bi_flow", "default"):
            "5c5d638888b290f069adea871f01926990950b4a8950d5ef11ac155d2cc8c548",
    }

    @pytest.mark.parametrize("mode, tw", sorted(FLOWS_OUT_SHA256))
    def test_flows_out_is_pinned(self, workdir, tmp_path, mode, tw):
        flows_csv = tmp_path / "raw_flows.csv"
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", mode, "--tw", tw,
                   "--flows-out", str(flows_csv),
                   "--out", str(tmp_path / "feats.csv")) == 0
        digest = hashlib.sha256(flows_csv.read_bytes()).hexdigest()
        assert digest == self.FLOWS_OUT_SHA256[mode, tw]


class TestSelect:
    def test_select_51_of_79_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        names = tuple("feat_%02d" % i for i in range(79))
        X = FeatureMatrix(values=rng.normal(size=(120, 79)), names=names,
                          mode="uni_flow")
        src = tmp_path / "x79.csv"
        write_matrix_csv(X, str(src))
        out = tmp_path / "rank.csv"
        assert run("select", "--in", str(src), "--keep", "51",
                   "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "rank.csv.manifest.json")
                              .read_text())
        assert len(manifest["names"]) == 51
        report_lines = out.read_text().strip().splitlines()
        assert len(report_lines) == 80  # header + 79 features

    def test_select_on_extracted_flows(self, workdir):
        out = workdir / "ranking.csv"
        assert run("select", "--in", str(workdir / "flows.csv"),
                   "--keep", "0.5", "--out", str(out)) == 0
        manifest = json.loads((workdir / "ranking.csv.manifest.json")
                              .read_text())
        assert manifest["mode"] == "uni_flow"
        assert 0 < len(manifest["names"])

    def test_select_idempotent(self, workdir, tmp_path):
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert run("select", "--in", str(workdir / "flows.csv"),
                       "--keep", "0.5", "--seed", "4",
                       "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestTrainScoreEvaluate:
    def test_train_score_calibration_bound(self, workdir):
        model_path = workdir / "model.json"
        train_csv = workdir / "benign.csv"
        # benign-only training matrix from the corpus' Normal rows
        X = read_matrix_csv(str(workdir / "flows.csv"))
        keep = [i for i, l in enumerate(X.labels) if l == "Normal"]
        benign = FeatureMatrix(values=X.values[keep], names=X.names,
                               mode=X.mode)
        write_matrix_csv(benign, str(train_csv))
        assert run("train", "--in", str(train_csv), "--detector", "ee",
                   "--target-fpr", "0.02", "--seed", "3",
                   "--out", str(model_path)) == 0
        scores_path = workdir / "scores.csv"
        assert run("score", "--model", str(model_path),
                   "--in", str(train_csv), "--out", str(scores_path)) == 0
        lines = scores_path.read_text().strip().splitlines()[1:]
        flags = [int(line.split(",")[1]) for line in lines]
        assert sum(flags) / len(flags) <= 0.02 + 1.0 / len(flags)

    def test_train_never_reads_labels(self, workdir, tmp_path):
        X = read_matrix_csv(str(workdir / "flows.csv"))
        labeled = tmp_path / "labeled.csv"
        write_matrix_csv(X, str(labeled))
        stripped = tmp_path / "stripped.csv"
        write_matrix_csv(FeatureMatrix(values=X.values, names=X.names,
                                       mode=X.mode), str(stripped))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for src, out in ((labeled, out_a), (stripped, out_b)):
            assert run("train", "--in", str(src), "--detector", "if",
                       "--seed", "5", "--out", str(out)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_train_idempotent(self, workdir, tmp_path):
        out_a = tmp_path / "m1.json"
        out_b = tmp_path / "m2.json"
        for out in (out_a, out_b):
            assert run("train", "--in", str(workdir / "benign.csv"),
                       "--detector", "ae", "--seed", "9",
                       "--out", str(out)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_train_with_reduced_manifest(self, workdir, tmp_path):
        model_path = tmp_path / "reduced.json"
        assert run("train", "--in", str(workdir / "benign.csv"),
                   "--detector", "ee",
                   "--manifest",
                   str(workdir / "ranking.csv.manifest.json"),
                   "--seed", "1", "--out", str(model_path)) == 0
        model = json.loads(model_path.read_text())
        manifest = json.loads((workdir / "ranking.csv.manifest.json")
                              .read_text())
        # trained columns are the selected ones that survived z-scoring
        assert set(model["manifest"]["names"]) <= set(manifest["names"])
        scores = tmp_path / "red_scores.csv"
        assert run("score", "--model", str(model_path),
                   "--in", str(workdir / "benign.csv"),
                   "--out", str(scores)) == 0

    def test_evaluate_on_pcap(self, workdir):
        out = workdir / "report"
        assert run("evaluate", "--model", str(workdir / "model.json"),
                   "--in", str(workdir / "corpus.pcap"),
                   "--tw", "1",
                   "--labels", str(workdir / "corpus.labels.csv"),
                   "--out", str(out)) == 0
        report = json.loads((workdir / "report.json").read_text())
        assert set(report["metrics"]) == {"precision", "accuracy", "recall",
                                          "fpr", "f1", "auc"}
        roc = (workdir / "report.roc.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr"
        assert len(roc) > 2

    def test_evaluate_counts_unmatched_labels(self, workdir, tmp_path):
        # regression: report.json said 0 unmatched whatever the label file
        lines = (workdir / "corpus.labels.csv").read_text().splitlines()
        half = tmp_path / "half.labels.csv"
        half.write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
        unmatched = {}
        for i, labels in enumerate((workdir / "corpus.labels.csv", half)):
            out = tmp_path / ("report%d" % i)
            assert run("evaluate", "--model", str(workdir / "model.json"),
                       "--in", str(workdir / "corpus.pcap"), "--tw", "1",
                       "--labels", str(labels), "--out", str(out)) == 0
            report = json.loads((tmp_path / ("report%d.json" % i))
                                .read_text())
            unmatched[labels.name] = report["unmatched_labels"]
        assert unmatched["half.labels.csv"] > unmatched["corpus.labels.csv"]

    def test_score_pcap_input(self, workdir, tmp_path):
        out = tmp_path / "pscores.csv"
        assert run("score", "--model", str(workdir / "model.json"),
                   "--in", str(workdir / "corpus.pcap"), "--tw", "1",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("score,flag")

    @pytest.mark.parametrize("magic,endian", [
        (pcap.MAGIC_US_BE, ">"), (pcap.MAGIC_US_BE, "<"),
        (pcap.MAGIC_NS_BE, ">"), (pcap.MAGIC_NS_BE, "<"),
    ], ids=["us_be", "us_le", "ns_be", "ns_le"])
    def test_score_sniffs_every_pcap_magic(self, packet_model, tmp_path,
                                           magic, endian):
        """A one-packet capture in each magic variant is read as a
        capture, not as a matrix CSV."""
        capture = tmp_path / "one.pcap"
        capture.write_bytes(build_global_header(magic, endian)
                            + build_record(1, 0, golden_syn_frame(), endian))
        out = tmp_path / "one.csv"
        assert run("score", "--model", packet_model, "--in", str(capture),
                   "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2  # header + 1 row


class TestSweep:
    def test_small_sweep(self, workdir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--in", str(workdir / "corpus.pcap"),
                   "--labels", str(workdir / "corpus.labels.csv"),
                   "--detector", "ee", "--tw", "10,1",
                   "--seed", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tw,precision,accuracy,recall,fpr,f1,auc"
        assert len(lines) == 3


class TestConfigAndErrors:
    def test_config_file_mirrors_flags(self, workdir, tmp_path):
        cfg = {"in": str(workdir / "corpus.pcap"), "mode": "uni_flow",
               "tw": 1, "out": str(tmp_path / "from_config.csv")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("extract", "--config", str(cfg_path)) == 0
        a = read_matrix_csv(str(tmp_path / "from_config.csv"))
        b = read_matrix_csv(str(workdir / "again_a.csv"))
        assert np.array_equal(a.values, b.values)

    def test_flag_overrides_config(self, workdir, tmp_path):
        cfg = {"in": str(workdir / "corpus.pcap"), "mode": "packet",
               "out": str(tmp_path / "override.csv")}
        cfg_path = tmp_path / "cfg2.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("extract", "--config", str(cfg_path),
                   "--mode", "uni_flow", "--tw", "1") == 0
        assert read_matrix_csv(str(tmp_path / "override.csv")).mode \
            == "uni_flow"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run("extract", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "config_invalid" in err

    def test_missing_input_is_machine_readable(self, capsys, tmp_path):
        code = run("extract", "--in", str(tmp_path / "nope.pcap"),
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "io_error" in capsys.readouterr().err

    def test_bad_magic_is_machine_readable(self, capsys, tmp_path):
        bad = tmp_path / "junk.pcap"
        bad.write_bytes(b"\x00" * 64)
        code = run("extract", "--in", str(bad),
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bad_magic" in err

    @pytest.mark.parametrize("argv", [
        ("extract", "--tw", "abc"),
        ("sweep", "--tw", "0"),
        ("sweep", "--tw", "abc"),
        ("select", "--keep", "abc"),
        ("select", "--keep", "500"),
        ("train", "--params", '{"nu": 2}'),
    ], ids=["extract-tw-abc", "sweep-tw-0", "sweep-tw-abc", "select-keep-abc",
            "select-keep-500", "train-nu-2"])
    def test_bad_values_are_config_invalid(self, workdir, tmp_path, capsys,
                                           argv):
        matrix = tmp_path / "m11.csv"  # 11 non-constant columns
        write_matrix_csv(FeatureMatrix(
            np.random.default_rng(0).normal(size=(60, 11)),
            tuple("f%d" % i for i in range(11)), "packet"), str(matrix))
        src = workdir / "corpus.pcap" if argv[0] in ("extract", "sweep") \
            else matrix
        assert run(*argv, "--in", str(src),
                   "--labels", str(workdir / "corpus.labels.csv"),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert json.loads(err[len("error: "):])["code"] == "config_invalid"

    def test_error_lines_are_json(self, capsys, tmp_path):
        err = ConfigInvalid('say "hi" to C:\\tmp\'s \u00e9 end')
        assert json.loads(err.as_machine_line()) == {
            "code": "config_invalid", "message": str(err)}
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"\x00" * 64)
        csv = tmp_path / "m.csv"
        csv.write_text("a,b\n1,2\n3,4\n5,6\n")
        nan_csv = tmp_path / "nan.csv"
        nan_csv.write_text("a,b\n1,2\n3,nan\n5,6\n")
        out = str(tmp_path / "out")
        cases = [
            (("extract", "--in", str(junk), "--out", out), "bad_magic"),
            (("extract", "--in", str(tmp_path / 'no "such" file.pcap'),
              "--out", out), "io_error"),
            (("train", "--in", str(csv), "--params", "{'k': 3}",
              "--out", out), "config_invalid"),
            (("train", "--in", str(nan_csv), "--out", out),
             "non_finite_feature"),
        ]
        for argv, code in cases:
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.endswith("\n")
            line = json.loads(err[len("error: "):])
            assert line["code"] == code, line
            assert isinstance(line["message"], str) and line["message"]
