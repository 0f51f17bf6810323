import csv
import dataclasses
import hashlib
import itertools
import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from netwarden import pcap
from netwarden.cli import main
from netwarden.errors import ConfigInvalid
from netwarden.evaluation import LABEL_FILE_COLUMNS
from netwarden.features import PACKET_MANIFEST, FeatureMatrix, \
    manifest_hash, read_matrix_csv, write_matrix_csv
from netwarden.pipeline import extract_matrix, train_model
from netwarden.cli import _SETTINGS, _scenario_from_dict
from netwarden.detectors import DETECTOR_CLASSES, KIND
from netwarden.settings import settings_of

from conftest import build_global_header, build_record, golden_syn_frame

LABEL_HEADER = ",".join(LABEL_FILE_COLUMNS) + "\n"


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


@pytest.fixture(scope="module")
def refused_inputs(workdir):
    """Paths of inputs the CLI must refuse with one error line: a packet
    matrix CSV, its copy with no manifest line (so of mode "unknown"), a
    model of that mode (built with train_model, since the train command
    refuses such a matrix), a manifest whose names are not a list, and a
    file that is not UTF-8 text."""
    d = workdir / "refused"
    d.mkdir()
    X = extract_matrix(str(workdir / "corpus.pcap"), mode="packet")
    write_matrix_csv(X, str(d / "x.csv"))
    lines = (d / "x.csv").read_text().splitlines(True)
    assert lines[0].startswith("# netwarden manifest=")
    (d / "headerless.csv").write_text("".join(lines[1:]))
    headerless = read_matrix_csv(str(d / "headerless.csv"))
    assert headerless.mode == "unknown"
    train_model(headerless, kind=KIND.default).save(
        str(d / "unknown_model.json"))
    (d / "names5.json").write_text('{"names": 5}')
    (d / "binary").write_bytes(b"\xff\xfe\x80 not UTF-8 \xc3\x28\n")
    return {"{pcap}": str(workdir / "corpus.pcap"), "{csv}": str(d / "x.csv"),
            "{headerless}": str(d / "headerless.csv"),
            "{unknown}": str(d / "unknown_model.json"),
            "{names5}": str(d / "names5.json"), "{binary}": str(d / "binary")}


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
        dump = [] if mode == "packet" else ["--flows-out", str(flows_csv)]
        capsys.readouterr()
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", mode, "--tw", "1", *dump,
                   "--out", str(tmp_path / "feats.csv")) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        cap = line["capture"]
        assert cap["decoded"] > 0
        assert cap["frames_read"] == (
            cap["decoded"] + cap["skipped_non_ip"] + cap["skipped_malformed"]
            + cap["fragment_frames"] + cap["dropped_late"])
        assert "unmatched_labels" not in line  # no --labels
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

    @pytest.mark.parametrize("mode", ["packet", "uni_flow", "bi_flow"])
    def test_extract_reports_unmatched_labels(self, workdir, tmp_path,
                                              capsys, mode):
        # labelled rows = matched + unmatched: the corpus' own label file
        # matches every row; with every other label row dropped, some
        # rows match none and are labelled Normal
        lines = (workdir / "corpus.labels.csv").read_text().splitlines()
        half = tmp_path / "half.labels.csv"
        half.write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
        out = tmp_path / "feats.csv"
        unmatched = []
        for labels in (workdir / "corpus.labels.csv", half):
            capsys.readouterr()
            assert run("extract", "--in", str(workdir / "corpus.pcap"),
                       "--mode", mode, "--tw", "1", "--labels", str(labels),
                       "--out", str(out)) == 0
            line = json.loads(capsys.readouterr().out.strip()
                              .splitlines()[-1])
            X = read_matrix_csv(str(out))
            assert line["unmatched_labels"] <= X.labels.count("Normal")
            unmatched.append(line["unmatched_labels"])
        assert unmatched[0] == 0 < unmatched[1]

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_flows_out_refused_in_packet_mode(self, tmp_path, capsys, via):
        # packet mode meters no flows, so it has no dump to write; --in
        # names no file: reading it first would give io_error
        flows_csv = tmp_path / "raw_flows.csv"
        argv = ["--mode", "packet", "--in", str(tmp_path / "missing.pcap"),
                "--out", str(tmp_path / "feats.csv")]
        if via == "flag":
            argv += ["--flows-out", str(flows_csv)]
        else:
            (tmp_path / "cfg.json").write_text(
                json.dumps({"flows_out": str(flows_csv)}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        capsys.readouterr()
        assert run("extract", *argv) == 2
        err = capsys.readouterr().err
        line = json.loads(err[len("error: "):])
        assert line["code"] == "config_invalid"
        assert "flows_out" in line["message"]
        assert not flows_csv.exists()
        assert not (tmp_path / "feats.csv").exists()

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

    @pytest.mark.parametrize("line", ["10.0.0.1,10.0.0.2,5",
                                      "10.0.0.1,10.0.0.2,x,6,6,0,1,Scan"])
    def test_bad_label_line_is_machine_readable(self, capsys, tmp_path,
                                                workdir, line):
        labels = tmp_path / "bad.labels.csv"
        labels.write_text(",".join(LABEL_FILE_COLUMNS) + "\n" + line + "\n")
        code = run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", "packet", "--labels", str(labels),
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        line = json.loads(err[len("error: "):])
        assert line["code"] == "label_vocabulary_mismatch"
        assert "line 2" in line["message"]

    @pytest.mark.parametrize("argv", [
        ("extract", "--tw", "abc"),
        ("extract", "--tw", "inf"),
        ("extract", "--idle-timeout", "nan"),
        ("sweep", "--tw", "0"),
        ("sweep", "--tw", "abc"),
        ("select", "--keep", "abc"),
        ("select", "--keep", "500"),
        ("train", "--params", '{"nu": 2}'),
        ("train", "--detector", "lof", "--params", '{"k": 0}'),
        ("train", "--detector", "osvm", "--params", '{"gamma": -1}'),
        ("train", "--detector", "osvm", "--params", '{"gamma": 0}'),
        ("train", "--detector", "osvm", "--params", '{"gamma": "nan"}'),
        ("train", "--detector", "osvm", "--params", '{"tol": -1}'),
        ("train", "--detector", "osvm", "--params", '{"max_iter": 0}'),
        ("train", "--detector", "osvm", "--params", '{"cache_mb": -1}'),
        ("train", "--detector", "if", "--params", '{"subsample_size": 0}'),
        ("train", "--detector", "if", "--params", '{"n_trees": 0}'),
        ("train", "--detector", "ae", "--params", '{"batch_size": 0}'),
        ("train", "--detector", "ae", "--params",
         '{"learning_rate": -0.01}'),
        ("train", "--detector", "ae", "--params", '{"epochs": -1}'),
        ("train", "--detector", "ee", "--params", '{"ridge": "nan"}'),
        ("synth", "--seed", "-1"),
        ("sweep", "--seed", "-2"),
        ("train", "--target-fpr", "1.5"),
        ("train", "--target-fpr", "nan"),
        ("sweep", "--mode", "packet"),
        ("extract", "--config", '{"mode": "foo"}'),
        ("select", "--config", '{"aggregate": "foo"}'),
        ("train", "--config", '{"budget": "x"}'),
        ("train", "--config", '{"budget": -1}'),
        ("extract", "--config", '["mode"]'),
        ("extract", "--config", '5'),
        ("sweep", "--params", '{"nu": 2}'),
        ("sweep", "--params", '{"bogus": 1}'),
        ("sweep", "--config", '{"detector": "xyz"}'),
        ("train", "--config", '{"params": {"nu": 0.1}}'),
        ("extract", "--config", '{"tw": [1]}'),
        ("extract", "--config", '{"tw": true}'),
        ("select", "--config", '{"sigma": "x"}'),
        ("select", "--sigma", "nan"),
        ("select", "--sigma", "-1"),
        ("train", "--detector", "if", "--params", '{"seed": -1}'),
        ("train", "--detector", "ae", "--params", '{"seed": -1}'),
        ("train", "--detector", "ae", "--params", '{"layer_sizes": [11, 3]}'),
        ("train", "--detector", "ae", "--params",
         '{"layer_sizes": [20, 30, 20]}'),
        ("train", "--detector", "if", "--params", '{"n_trees": 2.7}'),
        ("train", "--detector", "if", "--params", '{"n_trees": "7"}'),
        ("train", "--detector", "osvm", "--params", '{"gamma": true}'),
        ("train", "--params", '[]'),
    ], ids=["extract-tw-abc", "extract-tw-inf", "extract-idle-nan",
            "sweep-tw-0", "sweep-tw-abc", "select-keep-abc",
            "select-keep-500", "train-nu-2", "train-lof-k-0",
            "train-osvm-gamma-neg", "train-osvm-gamma-0",
            "train-osvm-gamma-nan", "train-osvm-tol-neg",
            "train-osvm-max-iter-0", "train-osvm-cache-neg",
            "train-if-subsample-0", "train-if-trees-0", "train-ae-batch-0",
            "train-ae-lr-neg", "train-ae-epochs-neg", "train-ee-ridge-nan",
            "synth-seed-neg", "sweep-seed-neg", "train-fpr-1.5",
            "train-fpr-nan", "sweep-mode-packet", "config-mode-foo",
            "config-aggregate-foo", "config-budget-str",
            "config-budget-neg", "config-list", "config-number",
            "sweep-nu-2", "sweep-param-unknown", "sweep-detector-xyz",
            "config-params-object", "config-tw-list", "config-tw-bool",
            "config-sigma-str", "select-sigma-nan", "select-sigma-neg",
            "train-if-seed-neg", "train-ae-seed-neg", "train-ae-layers-2",
            "train-ae-layers-wide", "train-if-trees-fraction",
            "train-if-trees-str", "train-osvm-gamma-bool",
            "train-params-list"])
    def test_bad_values_are_config_invalid(self, workdir, tmp_path, capsys,
                                           argv):
        argv = list(argv)
        if "--config" in argv:  # the next item is the file's content
            i = argv.index("--config") + 1
            (tmp_path / "cfg.json").write_text(argv[i])
            argv[i] = str(tmp_path / "cfg.json")
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

    @pytest.mark.parametrize("argv, content, code, problem", [
        (("train", "--in", "{file}"), "f0,f1\n1,2\n3\n",
         "manifest_mismatch", "line 3 has 1 fields"),
        (("train", "--in", "{file}"), "f0,f1\n1,2\n3,4,5\n",
         "manifest_mismatch", "line 3 has 3 fields"),
        (("train", "--in", "{file}"), "f0,f1\n1,2\n3,x\n",
         "non_finite_feature", "line 3, column f1"),
        (("train", "--in", "{file}"), "f0,f1,f2\n" + "1,2\n" * 60,
         "manifest_mismatch", "line 2 has 2 fields"),
        (("score", "--in", "{file}", "--model", "{model}"),
         "# mode=packet\n%s\n%s\n" % (",".join(PACKET_MANIFEST.names),
                                        ",".join("0" * 19)),
         "manifest_mismatch", "line 3 has 19 fields"),
        (("train", "--in", "{file}"), "# mode=packet\nf0,f1\n",
         "empty_training", "zero rows"),
        (("train", "--in", "{file}", "--detector", "osvm"),
         "# mode=packet\nf0,f1\n1,2\n", "empty_training", "at least 2 rows"),
        (("extract", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "010.0.0.1,10.0.0.2,5,6,6,0,1,Scan\n",
         "label_vocabulary_mismatch", "line 2: '010.0.0.1'"),
        (("extract", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "10.0.0.1,10.0.0.300,5,6,6,0,1,Scan\n",
         "label_vocabulary_mismatch", "line 2: '10.0.0.300'"),
        (("extract", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "10.0.0.1,10.0.0.2,70000,6,6,0,1,Scan\n",
         "label_vocabulary_mismatch", "line 2: src_port 70000"),
        (("extract", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "10.0.0.1,10.0.0.2,5,6,300,0,1,Scan\n",
         "label_vocabulary_mismatch", "line 2: protocol 300"),
        (("extract", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "10.0.0.1,10.0.0.2,5,6,6,0,1,scan\n",
         "label_vocabulary_mismatch", "line 2: unknown label 'scan'"),
        (("sweep", "--in", "{pcap}", "--labels", "{file}"),
         LABEL_HEADER + "10.0.0.1,10.0.0.2,5,6,6,0,1,scan\n",
         "label_vocabulary_mismatch", "line 2: unknown label 'scan'"),
        (("train", "--in", "{file}", "--budget", "3"), "f0\n1\n",
         "config_invalid", "unrecognized arguments: --budget 3"),
        (("train", "--config", "{file}"), '{"budget": 1}', "config_invalid",
         "unknown config keys: ['budget']"),
        (("train", "--seed", "x"), "", "config_invalid",
         "argument --seed: invalid int value"),
        (("trian",), "", "config_invalid", "invalid choice: 'trian'"),
    ], ids=["csv-field-missing", "csv-field-extra", "csv-not-a-number",
            "csv-rows-short-train", "csv-rows-short-score",
            "csv-header-only", "csv-one-row-osvm", "labels-leading-zero",
            "labels-octet-300", "labels-port-70000", "labels-protocol-300",
            "labels-unknown-label", "sweep-unknown-label",
            "flag-budget", "config-budget", "flag-ill-typed",
            "unknown-command"])
    def test_error_is_one_json_line(self, workdir, packet_model, tmp_path,
                                    capsys, argv, content, code, problem):
        given = tmp_path / "given"
        given.write_text(content)
        paths = {"{file}": str(given), "{model}": packet_model,
                 "{pcap}": str(workdir / "corpus.pcap")}
        argv = [paths.get(a, a) for a in argv]
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n")
        line = json.loads(err[len("error: "):])
        assert sorted(line) == ["code", "message"] and line["code"] == code
        assert problem in line["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code", [
        (("score", "--in", "{pcap}", "--model", "{unknown}"),
         "manifest_mismatch"),
        (("evaluate", "--in", "{pcap}", "--model", "{unknown}"),
         "manifest_mismatch"),
        (("train", "--in", "{headerless}"), "manifest_mismatch"),
        (("train", "--in", "{csv}", "--manifest", "{names5}"),
         "config_invalid"),
        (("train", "--in", "{binary}"), "io_error"),
        (("score", "--in", "{csv}", "--model", "{binary}"), "io_error"),
        (("extract", "--in", "{pcap}", "--labels", "{binary}"), "io_error"),
        (("extract", "--config", "{binary}"), "io_error"),
        (("train", "--in", "{csv}", "--manifest", "{binary}"), "io_error"),
        (("synth", "--scenario", "{binary}"), "io_error"),
    ], ids=["score-unknown-mode", "evaluate-unknown-mode",
            "train-unknown-mode", "manifest-names-int", "in-not-utf8",
            "model-not-utf8", "labels-not-utf8", "config-not-utf8",
            "manifest-not-utf8", "scenario-not-utf8"])
    def test_refused_input_is_one_json_line(self, refused_inputs, tmp_path,
                                            capsys, argv, code):
        # each of these used to end in a Python traceback
        argv = [refused_inputs.get(a, a) for a in argv]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n")
        line = json.loads(err[len("error: "):])
        assert sorted(line) == ["code", "message"] and line["code"] == code
        if code == "io_error":  # the input that is not UTF-8 is named
            assert refused_inputs["{binary}"] in line["message"]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("mode", ["uni_flow", "bi_flow"])
    def test_unwritable_out_leaves_no_flow_dump(self, workdir, tmp_path,
                                                capsys, mode):
        # the dump is written after the matrix CSV, so a run refused at
        # writing --out leaves no dump behind
        out = tmp_path / "missing" / "x.csv"
        dump = tmp_path / "flows.csv"
        assert run("extract", "--in", str(workdir / "corpus.pcap"),
                   "--mode", mode, "--flows-out", str(dump),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        line = json.loads(err[len("error: "):])
        assert line["code"] == "io_error" and str(out) in line["message"]
        assert not dump.exists()

    @pytest.mark.parametrize("argv", [
        ("--keep", "0"), ("--keep", "-3"), ("--config", '{"keep": -3}'),
        ("--config", '{"keep": 0}')])
    def test_keep_below_one_refused_before_input(self, tmp_path, capsys,
                                                 argv):
        # --in names no file: reading it first would give io_error
        argv = list(argv)
        if argv[0] == "--config":
            (tmp_path / "cfg.json").write_text(argv[1])
            argv[1] = str(tmp_path / "cfg.json")
        assert run("select", *argv, "--in", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "rank.csv")) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["code"] == "config_invalid"
        assert not (tmp_path / "rank.csv").exists()

    @pytest.mark.parametrize("key", ["in", "labels", "out", "model",
                                     "scenario", "manifest", "flows_out"])
    def test_path_keys_must_be_strings(self, workdir, tmp_path, capsys, key):
        # 987 names no open file descriptor: where an int was taken as a
        # path, open() read or wrote that descriptor
        out = tmp_path / "x.csv"
        cfg = {"in": str(workdir / "corpus.pcap"), "out": str(out), key: 987}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run("extract", "--config", str(tmp_path / "cfg.json")) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["code"] == "config_invalid"
        assert not out.exists()

    @pytest.mark.parametrize("manifest", ['{"mode": "packet"}', '[]'])
    def test_manifest_without_names_is_config_invalid(self, tmp_path, capsys,
                                                      manifest):
        X = FeatureMatrix(np.random.default_rng(2).normal(size=(40, 3)),
                          ("a", "b", "c"), "packet")
        write_matrix_csv(X, str(tmp_path / "x.csv"))
        (tmp_path / "m.json").write_text(manifest)
        assert run("train", "--in", str(tmp_path / "x.csv"),
                   "--manifest", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "model.json")) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["code"] == "config_invalid"

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_pcap_where_a_matrix_is_read_is_refused(self, workdir, tmp_path,
                                                    capsys, command):
        assert run(command, "--in", str(workdir / "corpus.pcap"),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert json.loads(err[len("error: "):])["code"] == "config_invalid"
        assert not (tmp_path / "out").exists()

    def test_malformed_model_file(self, packet_model, workdir, tmp_path,
                                  capsys):
        with open(packet_model) as fh:
            d = json.load(fh)
        d["state"]["cov"] = np.zeros_like(d["state"]["cov"]).tolist()
        bad = tmp_path / "zero_cov.json"
        bad.write_text(json.dumps(d))
        assert run("score", "--model", str(bad),
                   "--in", str(workdir / "corpus.pcap"),
                   "--out", str(tmp_path / "scores.csv")) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["code"] == "malformed_model"

    def test_model_narrower_than_its_manifest(self, tmp_path, capsys):
        # regression: support vectors of 2 of the manifest's 4 columns
        # loaded, and scoring raised numpy's broadcast ValueError
        X = FeatureMatrix(np.random.default_rng(1).normal(size=(80, 4)),
                          ("a", "b", "c", "d"), "packet")
        write_matrix_csv(X, str(tmp_path / "x.csv"))
        d = train_model(X, kind="osvm").to_dict()
        d["state"]["sv"] = [row[:2] for row in d["state"]["sv"]]
        (tmp_path / "narrow.json").write_text(json.dumps(d))
        assert run("score", "--model", str(tmp_path / "narrow.json"),
                   "--in", str(tmp_path / "x.csv"),
                   "--out", str(tmp_path / "scores.csv")) == 2
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["code"] == "malformed_model"

    def test_manifest_name_the_normalization_lacks(self, tmp_path, capsys):
        # regression: a manifest naming a column the normalization does not
        # keep (hash re-computed) loaded, and scoring died with a
        # "tuple.index(x): x not in tuple" ValueError traceback
        X = FeatureMatrix(np.random.default_rng(3).normal(size=(80, 3)),
                          ("a", "b", "c"), "packet")
        write_matrix_csv(X, str(tmp_path / "x.csv"))
        d = train_model(X, kind="ee").to_dict()
        d["manifest"]["names"] = ["a", "b", "z"]
        d["manifest"]["hash"] = manifest_hash("packet", ["a", "b", "z"])
        (tmp_path / "renamed.json").write_text(json.dumps(d))
        assert run("score", "--model", str(tmp_path / "renamed.json"),
                   "--in", str(tmp_path / "x.csv"),
                   "--out", str(tmp_path / "scores.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert json.loads(err[len("error: "):])["code"] == "malformed_model"
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("scenario, code", [
        ('{"duration": NaN}', "invalid_spec"),
        ('{"c2": {"enabled": "no"}}', "invalid_spec"),
        ('{"c2": {"start": NaN}}', "invalid_spec"),
        ('{"devices": 2.5}', "invalid_spec"),
        ('{"ddos": {"bots": 6}}', "invalid_spec"),
        ('{"scan": 5}', "config_invalid"),
        ('[]', "config_invalid"),
        ('{"scan": {"rate": 0}}', "config_invalid"),
        ('{"c2": {"interval": 0}}', "config_invalid"),
        ('{"heartbeat": {"bots": 2}}', "config_invalid"),
    ], ids=["duration-nan", "c2-enabled-str", "c2-start-nan",
            "devices-float", "ddos-bots-6", "scan-not-object",
            "not-object", "scan-rate-removed", "c2-interval-removed",
            "heartbeat-bots-removed"])
    def test_bad_scenario_is_one_error_line(self, tmp_path, capsys,
                                            scenario, code):
        # an infinite duration is refused by the same check as NaN; it is
        # tested on validate() alone (test_synth.py), since at the parent
        # it generates forever
        (tmp_path / "s.json").write_text(scenario)
        assert run("synth", "--scenario", str(tmp_path / "s.json"),
                   "--out", str(tmp_path / "c")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert json.loads(err[len("error: "):])["code"] == code
        assert not (tmp_path / "c.pcap").exists()

    def test_readme_scenario_is_accepted(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md") \
            .read_text()
        block = re.search(r"<<'JSON'\n(.*?)\nJSON\n", readme, re.S).group(1)
        spec = _scenario_from_dict(json.loads(block))
        spec.validate()
        assert spec.c2.bots == 2 and spec.ddos.rate == 800.0
        # the scenario, CLI-key and hyperparameter tables list exactly the
        # declared settings, each with its declared default and accepted
        # values
        scenario = {}
        for f in dataclasses.fields(spec):
            stage = getattr(spec, f.name)
            scenario.update(
                {(f.name + "." + name,): s for name, s in
                 settings_of(type(stage)).items()}
                if dataclasses.is_dataclass(stage)
                else {(f.name,): f.metadata["setting"]})
        hyper = {(kind, name): s for kind, cls in DETECTOR_CLASSES.items()
                 for name, s in cls.PARAMS.items()}
        for head, declared, keys, shown in (
                ("| scenario key |", scenario, 1, {("seed",): "`--seed`"}),
                ("| CLI key |", {(k,): s for k, s in _SETTINGS.items()}, 1,
                 {("tw",): "`default`"}),
                ("| kind | hyperparameter |", hyper, 2, {})):
            table = readme.split(head)[1].split("\n\n")[0]
            listed = {}
            for line in table.splitlines()[2:]:
                cells = [c.strip() for c in line.split("|")[1:-1]]
                names = [re.findall(r"`([a-z0-9_.]+)`", c)
                         for c in cells[:keys]]
                for key in itertools.product(*names):
                    listed[key] = cells[keys:]
            assert set(listed) == set(declared)
            for key, (default, accepted) in listed.items():
                s = declared[key]
                assert default == shown.get(key, "`%s`" % s.default
                                            if isinstance(s.default, str)
                                            else json.dumps(s.default))
                assert accepted.startswith(s.describe()) \
                    or accepted.startswith('"default" or ' + s.describe())

    def test_readme_walkthrough_runs(self, tmp_path, monkeypatch, capsys):
        # every line of the walkthrough block, in order, from an empty
        # directory: the heredoc is written as its file, and each
        # netwarden line must exit 0
        readme = (pathlib.Path(__file__).parent.parent / "README.md") \
            .read_text()
        block = readme.split("## CLI walkthrough")[1] \
            .split("```sh\n")[1].split("```")[0]
        heredoc = re.search(r"cat > (\S+) <<'JSON'\n(.*?\n)JSON\n", block,
                            re.S)
        monkeypatch.chdir(tmp_path)
        (tmp_path / heredoc.group(1)).write_text(heredoc.group(2))
        lines = block.replace(heredoc.group(0), "").replace("\\\n", " ")
        commands = [argv for argv in (shlex.split(line, comments=True)
                                      for line in lines.splitlines()) if argv]
        assert len(commands) == 9
        for argv in commands:
            assert argv[0] == "netwarden", argv
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        assert (tmp_path / "sweep.csv").exists()

    def test_error_lines_are_json(self, capsys, tmp_path):
        err = ConfigInvalid('say "hi" to C:\\tmp\'s \u00e9 end')
        assert json.loads(err.as_machine_line()) == {
            "code": "config_invalid", "message": str(err)}
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"\x00" * 64)
        csv = tmp_path / "m.csv"
        csv.write_text("a,b\n1,2\n3,4\n5,6\n")
        nan_csv = tmp_path / "nan.csv"
        nan_csv.write_text("# mode=packet\na,b\n1,2\n3,nan\n5,6\n")
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
