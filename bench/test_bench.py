"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

Every workload runs in smoke mode (the tiny preset's size), traced and
untraced, and must report exactly the metrics BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["default-pipeline", "ph-consensus", "homotopy", "fine-mesh"])
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "default-pipeline", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        layer.inner()

    layer = SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    tracer.active = True
    layer.outer()
    tracer.active = False
    tracer.restore()

    assert (layer.inner, layer.outer) == (inner, outer)
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    (_, o0, o1, _, _), (_, i0, i1, _, _) = tracer.spans
    self_s = tracer.self_times()
    assert self_s["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert self_s["inner"] == pytest.approx(i1 - i0)
    assert i1 - i0 >= 0.03 and self_s["outer"] >= 0.02
    assert tracer.counts["outer.calls"] == tracer.counts["inner.calls"] == 1
