"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The tiny runs need the trained proxy; the first test session in a
checkout trains it into ``.cache/`` (minutes), as the other benches do.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402
from repro.llm.data import SyntheticCorpus  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Tiny runs: a few requests per round, one round.
TINY = {"seconds": 0.5, "scale": 0.05}


@pytest.fixture(scope="session", autouse=True)
def zoo():
    workloads.get_trained_model(workloads.MODEL)


@pytest.fixture(scope="session")
def tiny_runs():
    return {
        (name, trace): bench.run(name, seed=5, trace=trace, **TINY)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_spec_names_the_metrics_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, name, trace):
    result = tiny_runs[(name, trace)]
    expected = layers.PER_LAYER if trace else bench.END_TO_END
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_and_unattributed_add_up_to_traced_wall(tiny_runs, name):
    metrics = tiny_runs[(name, True)]["metrics"]
    value = {k: m["value"] for k, m in metrics.items()}
    parts = sum(value[k] for k in layers.SELF_TIME_METRICS)
    assert parts + value["bench.unattributed_s"] == pytest.approx(
        value["bench.traced_wall_s"], rel=1e-9
    )
    assert 0.0 <= value["bench.unattributed_s"] < value["bench.traced_wall_s"]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    class Layer:
        def inner(self):
            return sum(range(20_000))

        def outer(self):
            return self.inner() + self.inner()

    with tracer:
        tracer.span(Layer, "inner", "inner")
        tracer.span(Layer, "outer", "outer")
        Layer().outer()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert tracer.self_s["inner"] == tracer.total_s["inner"]


def _patched_names():
    """Every (owner, name) a traced run patches, read off a live trace."""
    tracer = Tracer()
    with layers.ServeTrace(tracer), layers.trace_setup(tracer):
        return [(owner, attr) for owner, attr, _ in tracer._patches]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_restore_every_patched_name():
    names = _patched_names()
    assert len(names) > 40
    before = {(id(o), a): _current(o, a) for o, a in names}
    with pytest.raises(RuntimeError):
        with layers.ServeTrace(Tracer()), layers.trace_setup(Tracer()):
            assert all(_current(o, a) is not before[(id(o), a)] for o, a in names)
            raise RuntimeError("restore on the error path too")
    assert all(_current(o, a) is before[(id(o), a)] for o, a in names)


def test_tracer_refuses_to_shadow_an_inherited_method():
    from repro.serve.storage import EccoRequestKV

    with pytest.raises(AttributeError):
        Tracer().span(EccoRequestKV, "release", "storage.release")


def test_inputs_depend_only_on_the_seed():
    corpus = SyntheticCorpus()
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        a, b, c = (workload.inputs(s, 0, corpus) for s in (3, 3, 4))
        assert _fingerprint(a) == _fingerprint(b) != _fingerprint(c)


def _fingerprint(inputs):
    return [(x.arrival_s, x.prompt.tobytes(), x.max_new_tokens) for x in inputs]


def test_rounds_depend_only_on_the_run_length():
    rounds = {"decode_batch": 4, "prefix_replay": 5}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        assert workload.rounds(0.5) == 1
        assert workload.rounds(SPEC["run_seconds"]) == rounds[name]


def test_meter_leaves_the_probes_out():
    meter = speed.Meter()
    start, wall = meter(), meter.wall()
    before = clock()
    for _ in range(3):
        meter.probe()
    probes_s = clock() - before
    assert meter() - start < probes_s / 2
    assert meter.wall() - wall < probes_s / 2


def test_meter_runs_at_the_nominal_speed(monkeypatch):
    """On a machine that runs the reference loop at half the nominal
    speed, a meter counts half the wall time."""
    monkeypatch.setattr(
        speed, "reference_loop",
        lambda: time.sleep(2 * speed.REFERENCE_NOMINAL_S),
    )
    meter = speed.Meter()
    meter.probe()
    start = meter()
    time.sleep(0.2)
    assert 0.06 < meter() - start < 0.11
    assert 1.9 < meter.slowness < 3.0


def test_cli_prints_the_result_object_last(monkeypatch, capsys):
    import run

    for var in (*run.THREAD_VARS, "ECCO_CACHE_DIR"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    tiny = bench.run
    monkeypatch.setattr(
        bench, "run",
        lambda *args: tiny(*args, scale=TINY["scale"]),
    )
    assert run.main([
        "--workload", "decode_batch", "--seed", "2", "--seconds", "0.5",
        "--trace", "0",
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == bench.END_TO_END


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert out.returncode != 0
    assert out.stdout == ""
