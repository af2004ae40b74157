"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import fastpath  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, key):
    lines = _tiny(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    rows = [line.split() for line in lines[:-1]]
    printed = {row[0]: row[1:4] for row in rows if row and row[0] in expected}
    assert {name: row[1] for name, row in printed.items()} == expected
    assert all(int(row[2]) >= 1 for row in printed.values())
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert "seed 3" in lines[0] and "messages" in lines[0]


@pytest.fixture(scope="module")
def hub():
    inputs = workloads.build_inputs("hub", 5, "tiny")
    workloads.decompose(inputs)
    trace = inputs.traces[0]
    online = workloads.online_pass(inputs, trace).output[0]
    offline, width = workloads.offline_pass(inputs, trace).output
    return inputs, trace, online, offline, width


def test_same_seed_same_inputs():
    a = workloads.build_inputs("federated", 9, "tiny")
    b = workloads.build_inputs("federated", 9, "tiny")
    assert [t.messages for t in a.traces] == [t.messages for t in b.traces]
    assert a.scripts == b.scripts and a.payload == b.payload


def test_gate_passes_on_true_outputs(hub):
    inputs, trace, online, offline, width = hub
    assert gate.check_online(trace, inputs.decomposition, online) == []
    assert gate.check_offline(trace, online, offline, 5, width) == []


def test_corrupted_online_stamp_trips_the_gate(hub):
    inputs, trace, online, _, _ = hub
    online = dict(online)
    victim = trace.messages[7]
    online[victim] = type(online[victim])(
        [c + 1 for c in online[victim]]
    )
    assert gate.check_online(trace, inputs.decomposition, online)


def test_corrupted_offline_stamp_trips_the_gate(hub):
    _, trace, online, offline, width = hub
    first, last = trace.messages[0], trace.messages[-1]
    offline = dict(offline)
    offline[first], offline[last] = offline[last], offline[first]
    assert gate.check_offline(trace, online, offline, 5, width)
    assert gate.check_offline(trace, online, hub[3], 5, 10**6)


def test_corrupted_committed_stamp_trips_the_gate():
    inputs = workloads.build_inputs("rendezvous", 1, "tiny")
    transport = workloads.runtime_pass(inputs).output
    assert gate.check_runtime(transport, inputs.scheduled, 0) == []
    entry = transport._log[3]
    transport._log[3] = type(entry)(
        entry.order, entry.sender, entry.receiver, entry.payload,
        type(entry.timestamp)([c + 1 for c in entry.timestamp]),
    )
    assert gate.check_runtime(transport, inputs.scheduled, 0)
    assert gate.check_runtime(transport, inputs.scheduled + 1, 0)


def test_corrupted_stamp_fails_the_run(monkeypatch):
    real = fastpath.stamp_batch_wire

    def corrupting(computation, decomposition, *args, **kwargs):
        stamps, stats = real(computation, decomposition, *args, **kwargs)
        if isinstance(stamps, dict):
            victim = next(iter(stamps))
            stamps[victim] = type(stamps[victim])(
                [c + 1 for c in stamps[victim]]
            )
        return stamps, stats

    monkeypatch.setattr(fastpath, "stamp_batch_wire", corrupting)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "hub", "--seed", "2", "--seconds",
                         "0.1", "--size", "tiny"])
    assert code == 1
    assert json.loads(stdout.getvalue().splitlines()[-1])["correct"] is False


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hub",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
