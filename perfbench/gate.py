"""Correctness gate and output digests.

Every timed run is checked outside its timed region. Sweeps re-run a
seeded sample of trials on the serial in-process reference — the same
child seed through standalone sampling and ``run_amp`` /
``greedy_reconstruct`` for fixed-m cells, and a single-seed serial scan
for required-m cells — and require bit-identical outcomes. The service
sample is verified the way ``benchmarks/smoke_service.py`` does it: a
standalone ``run_amp`` and an ``IncrementalDecoder`` on the same query
prefix.
"""

from __future__ import annotations

import hashlib

import numpy as np


def digest(obj) -> str:
    """sha256 of ``repr(obj)``; float64 reprs round-trip exactly."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def sample_trials(cells, seed: int, per_cell: int, limits=None):
    """Seeded ``(cell, m_index, trial)`` picks, ``per_cell`` per cell;
    ``limits`` caps the picks of each cell kind at a seeded subset."""
    rng = np.random.default_rng([seed, 7])
    picks = []
    for ci, cell in enumerate(cells):
        for _ in range(per_cell):
            if cell.kind == "success_curve":
                mi = int(rng.integers(len(cell.m_values)))
                picks.append((ci, mi, int(rng.integers(cell.trials))))
            else:
                picks.append((ci, None, int(rng.integers(cell.trials))))
    for kind, limit in (limits or {}).items():
        mine = [i for i, pick in enumerate(picks) if cells[pick[0]].kind == kind]
        if limit < len(mine):
            drop = set(mine) - set(rng.choice(mine, size=limit, replace=False).tolist())
            picks = [pick for i, pick in enumerate(picks) if i not in drop]
    return picks


def _fixed_m_reference(spec, m, seed):
    from repro.amp import AMPConfig, run_amp
    from repro.core.greedy import greedy_reconstruct
    from repro.core.ground_truth import sample_ground_truth
    from repro.core.measurement import measure
    from repro.core.pooling import sample_pooling_graph

    gen = np.random.default_rng(seed)
    truth = sample_ground_truth(spec["n"], spec["k"], gen)
    graph = sample_pooling_graph(spec["n"], m, spec["gamma"], gen)
    meas = measure(graph, truth, spec["channel"], gen)
    if spec["algorithm"] == "amp":
        result = run_amp(meas, config=AMPConfig(track_history=False))
    else:
        result = greedy_reconstruct(meas)
    return (bool(result.exact), float(result.overlap))


def _required_reference(spec, seed):
    if spec["algorithm"] == "amp":
        from repro.amp.batch_amp import required_queries_amp

        (result,) = required_queries_amp(
            spec["n"], spec["k"], spec["channel"], [seed],
            gamma=spec["gamma"], max_m=spec["max_m"],
            check_every=spec["check_every"],
            verify=spec.get("verify", "full"),
        )
    else:
        from repro.core.batch import BatchTrialRunner

        runner = BatchTrialRunner(
            spec["n"], spec["k"], spec["channel"],
            gamma=spec["gamma"], centering=spec["centering"],
        )
        result = runner.required_queries(
            np.random.default_rng(seed),
            max_m=spec["max_m"], check_every=spec["check_every"],
        )
    return (result.succeeded, result.required_m)


def check_sweep(cells, raw, picks) -> list:
    """Mismatch descriptions for the picked trials (empty: all equal)."""
    bad = []
    for ci, mi, t in picks:
        cell = cells[ci]
        if mi is None:
            got = tuple(raw[ci][t])
            want = _required_reference(cell.spec, cell.seeds[t])
        else:
            got = tuple(raw[ci][mi][t])
            want = _fixed_m_reference(
                cell.spec, cell.m_values[mi], cell.per_m_seeds[mi][t]
            )
        if got != want:
            bad.append(f"cell {ci} m_index {mi} trial {t}: {got!r} != {want!r}")
    return bad


def check_sessions(sessions, responses, picks, n, gamma, channel) -> list:
    """Verify sampled sessions' AMP and greedy responses bit-for-bit.

    ``responses[sid]`` lists ``(kind, response)`` in send order; every
    non-degraded AMP response carries scores.
    """
    import repro
    from repro.amp import AMPConfig, run_amp
    from repro.core.incremental import IncrementalDecoder

    bad = []
    for sid in picks:
        truth, queries = sessions[sid]
        prefixes = {}
        dec = IncrementalDecoder(truth, channel, gamma)
        for agents, counts, result in queries:
            dec.ingest_query(np.asarray(agents), np.asarray(counts), result)
        for kind, resp in responses.get(sid, []):
            if resp is None or resp.get("degraded"):
                continue
            m = int(resp["m"])
            if kind == "greedy":
                if m != len(queries):
                    bad.append(f"{sid}: greedy certificate at m={m}")
                elif (resp["separation"] != float(dec.separation())
                      or resp["separated"] != bool(dec.separation() > 0.0)):
                    bad.append(f"{sid}: greedy certificate differs")
                continue
            if m not in prefixes:
                builder = repro.PoolingGraphBuilder(n, gamma)
                for agents, counts, _ in queries[:m]:
                    builder.add_query(np.asarray(agents), np.asarray(counts))
                meas = repro.Measurements(
                    graph=builder.build(), truth=truth, channel=channel,
                    results=np.asarray([q[2] for q in queries[:m]]),
                )
                prefixes[m] = run_amp(meas, config=AMPConfig(track_history=False))
            ref = prefixes[m]
            if resp["exact"] != bool(ref.exact) or not np.array_equal(
                np.asarray(resp["scores"]), ref.scores
            ):
                bad.append(f"{sid}: AMP scores at m={m} differ from run_amp")
    return bad
