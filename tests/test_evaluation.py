import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwarden import evaluation as ev, pcap, synth
from netwarden.errors import LabelVocabularyMismatch, SingleClass
from netwarden.pcap import open_capture
from netwarden.pipeline import extract_matrix, train_model
from netwarden.synth import ScenarioSpec

from conftest import (build_global_header, build_record, eth_header,
                      golden_syn_frame, ipv4_header)
from oracles import auc_pair_oracle, auc_rank_loop_oracle, roc_loop_oracle


class TestBinaryMetrics:
    def test_identities_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 50, size=4))
            if tp + fp + tn + fn == 0:
                continue
            m = ev.binary_metrics(tp, fp, tn, fn)
            total = tp + fp + tn + fn
            if tp + fp:
                assert m["precision"] == tp / (tp + fp)
            else:
                assert m["precision"] is None
            assert m["accuracy"] == (tp + tn) / total
            if tp + fn:
                assert m["recall"] == tp / (tp + fn)
            else:
                assert m["recall"] is None
            if fp + tn:
                assert m["fpr"] == fp / (fp + tn)
            else:
                assert m["fpr"] is None
            if 2 * tp + fp + fn:
                assert m["f1"] == 2 * tp / (2 * tp + fp + fn)
            else:
                assert m["f1"] is None

    def test_zero_over_zero_is_undefined_not_zero(self):
        m = ev.binary_metrics(0, 0, 10, 0)
        assert m["precision"] is None
        assert m["recall"] is None
        assert m["fpr"] == 0.0


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert ev.auc(scores, labels) == 1.0

    def test_constant_scores_half(self):
        assert ev.auc(np.ones(10), np.arange(10) % 2) == 0.5

    def test_derived_three_quarters(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert ev.auc(scores, labels) == 0.75

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            ev.auc(np.arange(4.0), np.ones(4))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = ev.auc(scores, labels)
        exp = auc_pair_oracle(scores.tolist(), labels.tolist())
        assert got == pytest.approx(exp, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(99)
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = ev.auc(scores, labels)
        assert ev.auc(np.exp(scores), labels) == pytest.approx(base, 1e-12)
        assert ev.auc(3 * scores - 7, labels) == pytest.approx(base, 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        perm = rng.permutation(40)
        assert ev.auc(scores[perm], labels[perm]) == pytest.approx(
            ev.auc(scores, labels), abs=1e-12)


class TestRocPoints:
    def test_corners_and_monotonicity(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        pts = ev.roc_points(scores, labels)
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)
        for (f1, t1), (f2, t2) in zip(pts, pts[1:]):
            assert f2 >= f1 and t2 >= t1


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestSortedPass:
    """AUC and ROC from one vectorized pass over the sorted scores equal
    the tie-walking loops bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_tie_walking_loops(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.3, 2.0, np.inf])
        if seed % 3 == 0:
            scores = rng.normal(size=n)  # (almost) no ties
        elif seed % 3 == 1:
            scores = np.round(rng.normal(size=n), 1)
        else:
            scores = rng.choice(pool[:int(rng.integers(1, 9))], size=n)
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        labels[:2] = [False, True]
        got, exp = ev.auc(scores, labels), auc_rank_loop_oracle(scores, labels)
        assert type(got) is float
        assert _bits(got) == _bits(exp)
        pts = ev.roc_points(scores, labels)
        assert all(type(v) is float for pt in pts for v in pt)
        assert np.array_equal(_bits(pts), _bits(roc_loop_oracle(scores,
                                                                labels)))

    def test_matches_loops_at_scale(self):
        rng = np.random.default_rng(100)
        scores = np.round(rng.normal(size=25_000), 2)
        labels = rng.random(25_000) < 0.3
        assert _bits(ev.auc(scores, labels)) \
            == _bits(auc_rank_loop_oracle(scores, labels))
        assert np.array_equal(_bits(ev.roc_points(scores, labels)),
                              _bits(roc_loop_oracle(scores, labels)))


class TestEvaluateScores:
    def test_per_class_recall_94(self):
        # 94 detected of 100 C&C instances reads as 94% class recall
        labels = ["C&C"] * 100 + ["Normal"] * 50
        flags = np.array([True] * 94 + [False] * 6 + [False] * 50)
        scores = flags.astype(float)
        rep = ev.evaluate_scores(scores, flags, labels, roc=False)
        assert rep.per_class_recall["C&C"] == pytest.approx(0.94)
        assert rep.recall == pytest.approx(0.94)

    def test_multiclass_collapse(self):
        labels = ["Normal", "Scan", "DDoS", "Normal", "Download"]
        flags = np.array([False, True, True, True, False])
        rep = ev.evaluate_scores(np.arange(5.0), flags, labels, roc=False)
        assert rep.tp == 2 and rep.fn == 1 and rep.fp == 1 and rep.tn == 1
        assert rep.per_class_recall == {"DDoS": 1.0, "Download": 0.0,
                                        "Scan": 1.0}

    @pytest.mark.parametrize("seed", range(4))
    def test_auc_and_roc_are_those_of_the_scores(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=300), seed)  # ties at low seeds
        labels = list(rng.choice(["Normal", "Scan", "C&C"], size=300))
        positive = np.array(labels) != "Normal"
        rep = ev.evaluate_scores(scores, scores > 0.5, labels)
        assert _bits(rep.auc) == _bits(ev.auc(scores, positive))
        assert np.array_equal(_bits(rep.roc),
                              _bits(ev.roc_points(scores, positive)))

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelVocabularyMismatch):
            ev.evaluate_scores(np.ones(1), np.ones(1, dtype=bool),
                               ["Martian"])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        labels = list(np.random.default_rng(3).choice(
            ["Normal", "Scan", "C&C"], size=60))
        scores = rng.normal(size=60)
        flags = scores > 0.5
        rep1 = ev.evaluate_scores(scores, flags, labels, roc=False)
        perm = rng.permutation(60)
        rep2 = ev.evaluate_scores(scores[perm], flags[perm],
                                  [labels[i] for i in perm], roc=False)
        assert rep1.to_dict() == rep2.to_dict()


class TestLabelFiles:
    def rows(self):
        return [
            ev.LabelRow("10.0.0.1", "10.0.0.2", 5, 6, 6, 0.0, 10.0, "Scan"),
            ev.LabelRow("10.0.0.2", "10.0.0.1", 6, 5, 6, 0.0, 10.0, "Scan"),
            ev.LabelRow("10.0.0.1", "10.0.0.9", 5, 6, 17, 20.0, 30.0,
                        "Normal"),
        ]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        ev.write_label_file(self.rows(), path)
        assert ev.read_label_file(path) == self.rows()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(LabelVocabularyMismatch):
            ev.read_label_file(str(path))
        assert _read(_column_rows, str(path)) \
            == _read(ev.read_label_file, str(path))

    @pytest.mark.parametrize("line, problem", [
        ("10.0.0.1,10.0.0.2,5,6,6,0.0,10.0", "has 7 fields, not 8"),
        ("10.0.0.1,10.0.0.2,5,6,6,0.0,10.0,Scan,x", "has 9 fields, not 8"),
        ("10.0.0.1", "has 1 fields, not 8"),
        ("10.0.0.1,10.0.0.2,http,6,6,0.0,10.0,Scan", "invalid literal"),
        ("10.0.0.1,10.0.0.2,5,6,tcp,0.0,10.0,Scan", "invalid literal"),
        ("10.0.0.1,10.0.0.2,5,6,6,0.0,later,Scan", "could not convert"),
        ("010.0.0.1,10.0.0.2,5,6,6,0.0,10.0,Scan", "does not appear"),
        ("10.0.0.1,10.0.0.300,5,6,6,0.0,10.0,Scan", "does not appear"),
        ("10.0.0.1,host,5,6,6,0.0,10.0,Scan", "does not appear"),
        ("10.0.0.1,10.0.0.2,-1,6,6,0.0,10.0,Scan",
         "src_port -1 is outside 0-65535"),
        ("10.0.0.1,10.0.0.2,5,65536,6,0.0,10.0,Scan",
         "dst_port 65536 is outside 0-65535"),
        ("10.0.0.1,10.0.0.2,5,6,256,0.0,10.0,Scan",
         "protocol 256 is outside 0-255"),
        ("10.0.0.1,10.0.0.2,5,6,6,0.0,10.0,scan", "unknown label 'scan'"),
        ("10.0.0.1,10.0.0.2,5,6,6,nan,10.0,Scan",
         "window nan,10.0 has a NaN bound"),
        ("10.0.0.1,10.0.0.2,5,6,6,0.0,NaN,Scan",
         "window 0.0,NaN has a NaN bound"),
    ])
    def test_bad_line_names_it(self, tmp_path, line, problem):
        path = tmp_path / "bad.csv"
        good = "10.0.0.1,10.0.0.2,5,6,6,0.0,10.0,Scan"
        path.write_text(",".join(ev.LABEL_FILE_COLUMNS) + "\n" + good
                        + "\n\n" + line + "\n")
        with pytest.raises(LabelVocabularyMismatch) as exc:
            ev.read_label_file(str(path))
        assert str(exc.value).startswith("label file line 4")  # blank is 3
        assert problem in str(exc.value)
        assert _read(_column_rows, str(path)) \
            == (LabelVocabularyMismatch, str(exc.value))

    def test_addresses_read_in_the_decoders_spelling(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(",".join(ev.LABEL_FILE_COLUMNS) + "\n"
                        "2001:DB8:0:0::1,2001:0db8::0002,0,65535,255,0,1,"
                        "Scan\n10.0.0.1,2001:DB8:0:0::1,5,6,6,0,1,DDoS\n")
        rows = ev.read_label_file(str(path))
        assert [(r.src_ip, r.dst_ip) for r in rows] == [
            ("2001:db8::1", "2001:db8::2"), ("10.0.0.1", "2001:db8::1")]
        assert (rows[0].src_port, rows[0].dst_port, rows[0].protocol) \
            == (0, 65535, 255)

    def test_packet_join(self):
        from test_flows import pkt
        idx = ev.LabelIndex(self.rows())
        p = pkt(5.0, src="10.0.0.1", dst="10.0.0.2", sport=5, dport=6)
        assert idx.label_for_packet(p) == "Scan"
        late = pkt(50.0, src="10.0.0.1", dst="10.0.0.2", sport=5, dport=6)
        assert idx.label_for_packet(late) == "Normal"
        assert idx.unmatched == 1

    def test_flow_join_overlap(self):
        from netwarden.flows import MeterConfig, meter
        from test_flows import pkt
        ps = [pkt(1.0, src="10.0.0.1", dst="10.0.0.2", sport=5, dport=6),
              pkt(2.0, src="10.0.0.1", dst="10.0.0.2", sport=5, dport=6)]
        rec = list(meter(ps, MeterConfig()))[0]
        idx = ev.LabelIndex(self.rows())
        assert idx.label_for_flow(rec) == "Scan"

    def test_bi_flow_reverse_key_join(self):
        from netwarden.flows import MeterConfig, meter
        from test_flows import pkt
        ps = [pkt(1.0, src="10.0.0.2", dst="10.0.0.1", sport=6, dport=5)]
        rec = list(meter(ps, MeterConfig(direction_mode="bi")))[0]
        idx = ev.LabelIndex(self.rows())
        assert idx.label_for_flow(rec) == "Scan"

    def test_flow_key_is_the_label_files_five_tuple(self):
        # label_for_flow looks a flow up by its key itself
        from netwarden.flows import FlowKey
        assert FlowKey._fields == ev.LABEL_FILE_COLUMNS[:5]

    @pytest.mark.parametrize("name", ["train", "test"])
    def test_rewritten_file_is_byte_identical(self, corpus_dir, tmp_path,
                                              name):
        """The rows hold Python values: a numpy float64 would be written
        as `np.float64(...)`, which the reader refuses."""
        path = corpus_dir / (name + ".labels.csv")
        ev.write_label_file(ev.read_label_file(str(path)),
                            str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_line_loop_holds_its_rows_not_the_text(self, corpus_dir):
        """read_label_file's traced peak per row on the mixed corpus's
        labels: about 300 bytes (the rows, with each address held once,
        and one line at a time), against about 750 when the whole text,
        its fields and their columns are alive at once."""
        path = str(corpus_dir / "test.labels.csv")
        ev.read_label_file(path)  # imports and caches are not the reader's
        tracemalloc.start()
        try:
            rows = ev.read_label_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) > 500 and peak / len(rows) < 500

    def test_labels_are_the_vocabulary_strings(self, corpus_dir):
        rows = ev.read_label_file(str(corpus_dir / "test.labels.csv"))
        assert {row.label for row in rows} - {ev.LABEL_NORMAL}
        assert all(any(row.label is name for name in ev.LABEL_VOCABULARY)
                   for row in rows)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(ev.LABEL_FILE_COLUMNS) + "\n\n")
        c = ev.read_label_columns(str(path))
        assert c.addresses == [] and c.label.size == 0
        assert ev.read_label_file(str(path)) == []

    @pytest.mark.parametrize("lines, message", [
        # a port out of range on line 2 before an unknown label on line 3
        (["10.0.0.1,10.0.0.2,99999,6,6,0,1,Scan",
          "10.0.0.1,10.0.0.2,5,6,6,0,1,scan"],
         "line 2: src_port 99999 is outside 0-65535"),
        (["10.0.0.1,10.0.0.2,5,6,6,0,1,Scan",
          "10.0.0.1,10.0.0.2,5,6,6,nan,1,Scan", "10.0.0.1"],
         "line 3: window nan,1 has a NaN bound"),
        # of one line's faults, the first checked
        (["host,10.0.0.2,5,6,6,0,1,scan"], "line 2: unknown label 'scan'"),
        (["host,10.0.0.2,5,6,6,0,1,Scan,x"], "line 2 has 9 fields, not 8"),
        (["10.0.0.1,10.0.0.2,5,6,6,nan,later,Scan"],
         "line 2: could not convert string to float: 'later'"),
        (["10.0.0.1,host,-1,6,6,0,1,Scan"],
         "line 2: 'host' does not appear to be an IPv4 or IPv6 address"),
        (["10.0.0.1,10.0.0.2,http,99999999999999999999,6,0,1,Scan"],
         "line 2: invalid literal for int() with base 10: 'http'"),
        (["10.0.0.1,10.0.0.2,5,99999999999999999999,http,0,1,Scan"],
         "line 2: dst_port 99999999999999999999 is outside 0-65535"),
    ])
    def test_first_fault_of_the_first_bad_line(self, tmp_path, lines,
                                               message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(ev.LABEL_FILE_COLUMNS)] + lines))
        with pytest.raises(LabelVocabularyMismatch) as exc:
            ev.read_label_file(str(path))
        assert str(exc.value).startswith("label file " + message)
        assert _read(_column_rows, str(path)) \
            == (LabelVocabularyMismatch, str(exc.value))

    def test_columns_refusing_what_the_loop_reads_raise(self, tmp_path,
                                                        monkeypatch):
        """A file the columns refuse but the line loop reads is a fault
        of the columns: it raises, and no rows are returned."""
        path = str(tmp_path / "labels.csv")
        ev.write_label_file(self.rows(), path)
        monkeypatch.delitem(ev._LABEL_CODES, "Scan")
        with pytest.raises(RuntimeError, match="read_label_columns refused"):
            ev.read_label_columns(path)


def _column_rows(path: str) -> list:
    """The columns `read_label_columns` reads, as `LabelRow`s."""
    c = ev.read_label_columns(path)
    addresses = np.array(c.addresses, dtype=object)
    labels = np.array(ev.LABEL_VOCABULARY, dtype=object)
    return list(map(ev.LabelRow._make, zip(
        addresses[c.src].tolist(), addresses[c.dst].tolist(),
        c.src_port.tolist(), c.dst_port.tolist(), c.protocol.tolist(),
        c.window_start.tolist(), c.window_end.tolist(),
        labels[c.label].tolist())))


def _read(reader, path: str):
    """The rows `reader` reads, each field with its type and a float as
    its bits, or the type and message of what it raises."""
    try:
        rows = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(r), [(type(v), int(np.float64(v).view(np.uint64))
                        if isinstance(v, float) else v) for v in r])
            for r in rows]


def _digits(text: str) -> str:
    """`text` with its ASCII digits as Arabic-Indic ones."""
    return text.translate(str.maketrans("0123456789", "\u0660\u0661\u0662"
                                        "\u0663\u0664\u0665\u0666\u0667"
                                        "\u0668\u0669"))


def _mostly(good, bad):
    """`good`, and one time in 30 `bad`."""
    return st.integers(0, 29).flatmap(lambda i: bad if i == 0 else good)


WHITESPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028"),
                     max_size=2)
# integers as `int` reads them, or texts it refuses or reads out of range
INTEGERS = _mostly(
    st.builds(lambda v, style: style(str(v)), st.integers(0, 255),
              st.sampled_from([str, lambda t: "+" + t, lambda t: " " + t,
                               lambda t: t + "\t", lambda t: "00" + t,
                               lambda t: t[0] + "_" + t[1:] if t[1:] else t,
                               _digits])),
    st.sampled_from(["-1", "65536", "256", "99999999999999999999", "http",
                     "1.5", "", "1__0", "0x10"]))
# window bounds as `float` reads them, or texts it refuses or reads NaN
FLOATS = _mostly(
    st.one_of(
        st.builds(lambda v, style: style(repr(v)),
                  st.floats(allow_nan=False, allow_infinity=True),
                  st.sampled_from([str, lambda t: " " + t,
                                   lambda t: t + " ", _digits,
                                   lambda t: t if t[0] == "-" else "+" + t])),
        st.sampled_from(["inf", "-inf", "Infinity", "1e400", "-1e400",
                         "-0.0", "1_0.5"])),
    st.sampled_from(["nan", "NaN", "later", "", "1..5"]))
ADDRESSES = _mostly(
    st.sampled_from(["10.0.0.1", "192.0.2.7", "2001:db8::1", "2001:DB8::1",
                     "2001:0db8:0000:0000:0000:0000:0000:0001",
                     "::ffff:10.0.0.1", "FE80::1"]),
    st.sampled_from([" 10.0.0.1", "010.0.0.1", "10.0.0.300", "host",
                     "2001:db8::1::2", ""]))
LABELS = _mostly(st.sampled_from(ev.LABEL_VOCABULARY + ("Scan ",)),
                 st.sampled_from(["scan", " Scan", ""]))


@st.composite
def label_lines(draw):
    """A line of a label file: eight fields, fewer or more, any of them
    perhaps a fault, or a blank one."""
    if draw(st.integers(0, 7)) == 0:
        return draw(WHITESPACE)
    fields = [draw(ADDRESSES), draw(ADDRESSES), draw(INTEGERS),
              draw(INTEGERS), draw(INTEGERS), draw(FLOATS), draw(FLOATS),
              draw(LABELS)]
    if draw(st.integers(0, 29)) == 0:
        at = draw(st.integers(0, len(fields) - 1))
        if draw(st.booleans()):
            del fields[at]
        else:
            fields.insert(at, draw(FLOATS))
    return draw(WHITESPACE) + ",".join(fields) + draw(WHITESPACE)


@st.composite
def label_files(draw):
    """The text of a label file: a header, perhaps a wrong one, then
    lines ended by LF, CRLF or a lone CR, the last perhaps by none."""
    header = ",".join(ev.LABEL_FILE_COLUMNS)
    if draw(st.integers(0, 29)) == 0:
        header = draw(st.sampled_from([header[:-6], header + ",x", ""]))
    lines = [draw(WHITESPACE) + header + draw(WHITESPACE)] + draw(
        st.lists(label_lines(), max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestLabelReaderMatchesOracle:
    """read_label_columns against the line loop, read_label_file: the
    same rows, types and bits, or the same error."""

    @settings(max_examples=500, deadline=None)
    @given(label_files())
    def test_generated_files(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "labels.csv")
            with open(path, "w", newline="") as fh:  # no newline translated
                fh.write(text)
            assert _read(_column_rows, path) \
                == _read(ev.read_label_file, path)


ARP_FRAME = eth_header(0x0806) + b"\x00" * 28


@pytest.fixture(scope="module")
def packet_capture(tmp_path_factory):
    """A small capture, its packet count and an EE model trained on it."""
    d = tmp_path_factory.mktemp("latency")
    path = d / "capture.pcap"
    synth.generate_corpus(ScenarioSpec(duration=60.0, devices=2, seed=5),
                          str(path), str(d / "labels.csv"))
    X = extract_matrix(str(path), mode="packet")
    return path, X.n, train_model(X, kind="ee", seed=0)


@pytest.mark.parametrize("frame", [
    ARP_FRAME,
    eth_header() + b"\x45\x00",  # IPv4 header cut short
    # a non-first IPv4 fragment (offset 3 x 8 bytes)
    eth_header() + ipv4_header(48, 17, frag_field=3) + b"\x00" * 28,
], ids=["non_ip", "malformed", "fragment"])
def test_delay_benchmark_counts_skipped_frames(packet_capture, tmp_path,
                                               frame):
    """A frame the capture reader skips is counted, not scored."""
    original, n, model = packet_capture
    path = tmp_path / "capture.pcap"
    path.write_bytes(original.read_bytes() + build_record(10**6, 0, frame))
    rep = ev.delay_benchmark_packets(str(path), model)
    assert (rep.n, rep.skipped) == (n, 1)
    assert rep.throughput_pps > 0
    reader = open_capture(str(path))
    list(reader)
    s = reader.summary
    assert (rep.n, rep.skipped) == (s.decoded, s.frames_read - s.decoded)


def test_delay_benchmark_skips_late_frames(packet_capture, tmp_path):
    """A frame more than REORDER_HORIZON behind the newest is dropped by
    the capture reader, so the benchmark does not score it either."""
    original, n, model = packet_capture
    path = tmp_path / "capture.pcap"
    path.write_bytes(original.read_bytes()
                     + build_record(1, 0, golden_syn_frame()))
    reader = open_capture(str(path))
    assert sum(1 for _ in reader) == n
    assert reader.summary.dropped_late == 1
    rep = ev.delay_benchmark_packets(str(path), model)
    assert (rep.n, rep.skipped) == (n, 1)


def test_delay_benchmark_with_nothing_to_score(packet_capture, tmp_path):
    _, _, model = packet_capture
    path = tmp_path / "arp.pcap"
    path.write_bytes(build_global_header() + build_record(1, 0, ARP_FRAME))
    rep = ev.delay_benchmark_packets(str(path), model)
    assert (rep.n, rep.skipped) == (0, 1)
    assert rep.p50_ms is rep.p95_ms is rep.p99_ms is None


def scored_rows(monkeypatch, path, model):
    """The rows `delay_benchmark_packets` scores one at a time, stacked,
    and its report."""
    import netwarden.pipeline as pipeline

    calls = []
    real = pipeline.score_matrix

    def recording(m, matrix):
        calls.append(matrix.values.copy())
        return real(m, matrix)

    monkeypatch.setattr(pipeline, "score_matrix", recording)
    rep = ev.delay_benchmark_packets(str(path), model)
    *one_row, batch = calls  # the last call scores the batch job
    assert all(v.shape[0] == 1 for v in one_row)
    return np.vstack(one_row), rep


def test_delay_benchmark_scores_batch_rows_out_of_order(
        packet_capture, tmp_path, monkeypatch):
    """One 5-tuple stamped 10.0, 10.6, 10.3, 11.0 s: the per-packet rows
    are the batch rows, re-sequenced within the reorder horizon."""
    _, _, model = packet_capture
    path = tmp_path / "ooo.pcap"
    records = [pcap.PacketRecord(
        ts=ts, src_ip="192.0.2.1", dst_ip="198.51.100.7", src_port=40000,
        dst_port=8883, protocol=17, link_header_len=14, ip_header_len=20,
        l4_header_len=8, total_len=14 + 20 + 8 + 30, ttl=61, payload_len=30)
        for ts in (10.0, 10.6, 10.3, 11.0)]
    pcap.write_pcap(records, str(path))
    rows, rep = scored_rows(monkeypatch, path, model)
    batch = extract_matrix(str(path), "packet")
    assert rows.tobytes() == batch.values.tobytes()
    iat = batch.values[:, batch.names.index("iat_prev")]
    assert np.allclose(iat, [0.0, 0.3, 0.3, 0.4])
    assert (rep.n, rep.skipped) == (4, 0)


def test_delay_benchmark_scores_batch_rows_in_order(
        packet_capture, monkeypatch):
    path, n, model = packet_capture
    rows, rep = scored_rows(monkeypatch, path, model)
    assert rows.tobytes() == extract_matrix(str(path), "packet") \
        .values.tobytes()
    assert rep.n == n


def test_format_metric_table_alignment():
    rep = ev.evaluate_scores(
        np.array([1.0, 0.0]), np.array([True, False]), ["Scan", "Normal"],
        roc=False)
    text = ev.format_metric_table([("osvm", rep)], "Classifier")
    lines = text.splitlines()
    assert len(lines) == 2
    assert "Precision(%)" in lines[0]
    assert len(lines[0]) == len(lines[1]) or True  # right-justified columns
