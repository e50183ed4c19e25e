"""Fast checks of the benchmark itself: a tiny round of every workload passes
its own output checks, the tracer puts back every binding it replaced, and
the benchmark refuses to run without the program's sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xoppak import exact, meixner  # noqa: E402
from xoppak.classical import MeixnerParams  # noqa: E402
from xoppak.pairs import PairSpec  # noqa: E402


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.METRICS
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_round_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](seed=3, small=True)
    result = workload.run_round()
    assert result.failed == 0
    assert len(result.op_s) >= 1
    assert workload.check([result]) == []


def _bindings():
    return {
        (id(owner), attr): value
        for owner in tracing.binding_owners()
        for attr, value in vars(owner).items()
    }


def test_tracer_wraps_aliases_and_restores_every_binding():
    before = _bindings()
    poly_det = exact.poly_det
    with tracing.Tracer() as tracer:
        assert meixner.poly_det is not poly_det
        assert exact.Poly.__rmul__ is exact.Poly.__mul__
        3 * exact.Poly.x()  # reaches Poly.__rmul__
        meixner.MeixnerExcFamily(MeixnerParams(exact.rat(1, 2), exact.rat(3)), PairSpec([1], [2]))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert meixner.poly_det is poly_det
    # k = 2: three top-row minors, each one determinant called from meixner
    assert tracer.calls["exact.poly_det"] == 3
    assert tracer.calls["exact.poly_mul"] >= 1
    assert tracer.calls["meixner.build"] == 1


def test_traced_round_reports_every_layer_metric():
    workload = workloads.WORKLOADS["sweep-pairs"](seed=3, small=True)
    with tracing.Tracer() as tracer:
        workload.run_round()
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _, _ in tracing.METRICS} - {"trace.overhead_s"}
    assert metrics["sweep.cell.p50_ms"] > 0
    assert 0 < metrics["classical.basis.hit_ratio"] <= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eigen-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
