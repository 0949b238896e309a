"""Self-tests of the benchmark itself, at tiny scale.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They check that every workload prints each metric named in
``BENCHMARK.json`` with its unit, that the correctness gate fails when
one decoded score is perturbed, and that the benchmark refuses to run
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    assert any("digest" in line and "sha256=" in line for line in lines)
    if not trace:
        assert any("samples" in line for line in lines)
        for name in ("setup_s", "sweep_s", "decode_p50_ms", "ok_share"):
            assert result["metrics"][name]["value"] > 0


def _tiny_sweep(cls):
    """A tiny workload plan run serially, with seeded gate picks."""
    from repro.experiments.scheduler import SweepExecutor

    work = cls(workloads.Run(cls.__name__, 3, 1, "tiny", None))
    plan = work.build_plan(3)
    raw = [out for _, part in plan.parts
           for out in SweepExecutor(backend="serial").run_outcomes(part)]
    return plan._cells, raw, gate.sample_trials(plan._cells, 3, per_cell=1)


def test_gate_fails_on_perturbed_overlap():
    cells, raw, picks = _tiny_sweep(workloads.FigureSweeps)
    assert gate.check_sweep(cells, raw, picks) == []
    ci, mi, t = next(p for p in picks if p[1] is not None)
    exact, overlap = raw[ci][mi][t]
    raw[ci][mi][t] = (exact, float(np.nextafter(overlap, 2.0)))
    assert len(gate.check_sweep(cells, raw, picks)) == 1


def test_gate_fails_on_perturbed_required_m():
    cells, raw, picks = _tiny_sweep(workloads.FigureSweeps)
    assert gate.check_sweep(cells, raw, picks) == []
    ci, _, t = next(p for p in picks if p[1] is None)
    ok, m = raw[ci][t]
    raw[ci][t] = (ok, (m or 0) + 1)
    assert len(gate.check_sweep(cells, raw, picks)) == 1


def test_gate_fails_on_perturbed_service_score(tmp_path):
    import repro
    from repro.service import ServiceClient
    from repro.service.testing import start_server

    run = workloads.Run("serve_open_loop", 5, 1, "tiny", str(tmp_path))
    work = workloads.ServeOpenLoop(run)
    sessions, blocks = work.make_sessions(5, 1)
    (sid,) = sessions
    truth, _ = sessions[sid]
    server = start_server(tmp_path / "state",
                          env={"PYTHONPATH": os.path.join(ROOT, "src")})
    try:
        with ServiceClient(server.host, server.port) as client:
            client.open_session(sid, work.cfg["n"], truth.sigma.tolist(),
                                channel={"kind": "z", "p": 0.1},
                                gamma=work.cfg["gamma"])
            responses = []
            for block in blocks[sid]:
                client.ingest(sid, block)
                responses.append(("amp", client.decode(sid, return_scores=True)))
            responses.append(("greedy", client.decode(sid, algorithm="greedy")))
    finally:
        server.stop()
    args = (sessions, {sid: responses}, [sid], work.cfg["n"],
            work.cfg["gamma"], repro.ZChannel(0.1))
    assert gate.check_sessions(*args) == []
    scores = responses[0][1]["scores"]
    scores[0] = float(np.nextafter(scores[0], np.inf))
    assert len(gate.check_sessions(*args)) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
