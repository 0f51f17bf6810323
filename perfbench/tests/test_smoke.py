"""The benchmark's own tests: every workload, packet_stream too, at a tiny
corpus size must print every metric of BENCHMARK.json with its unit and
pass every check.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_and_passes_checks(workload, trace,
                                                         kind):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    assert "CHECK FAILED" not in out.stderr, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[2] for line in lines
             if len(line.split()) >= 3 and not line.startswith(("{", "=="))}
    for name, unit in expected.items():
        assert table.get(name) == unit, name
    meta = json.loads(lines[-2])["meta"]
    assert meta["workload"] == workload and meta["blas"]["threads"] == 1
    assert meta["corpus"]["mixed_rows"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "packet_stream", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_excludes_child_spans():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner", pkt=0):
            pass
        with t.span("inner", pkt=1):
            pass
    (outer, *_), inner = t.spans[0], t.spans[1:]
    whole = t.total("outer")
    assert t.busy("outer") == pytest.approx(
        whole - t.total("inner"), abs=1e-12)
    assert t.total("inner", packets=True) == t.total("inner")
    assert t.total("inner", packets=False) == 0.0
    assert [s[3] for s in inner] == [0, 0]  # both children name their parent


def test_speed_factor_uses_the_probes_around_a_call():
    s = speed.Speed()
    s.probes = [(0.0, 0.01), (10.0, 0.02), (20.0, 0.04), (40.0, 0.08)]
    s._at = [t for t, _ in s.probes]
    # within WINDOW_S: the probe at 10 s; the first one after it: 20 s
    assert s.factor(10.5, 1.0) == pytest.approx(speed.REFERENCE_S / 0.03)
    # a long call takes every probe during it and the ones around it
    assert s.factor(1.0, 30.0) == pytest.approx(
        speed.REFERENCE_S / (0.01 + 0.02 + 0.04 + 0.08) * 4)
    assert s.correct((10.5, 2.0)) == pytest.approx(
        2.0 * s.factor(10.5, 2.0))
