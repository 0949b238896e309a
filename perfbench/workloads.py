"""The two benchmark workloads and their metrics.

Each workload builds its inputs from the seed before timing, sets its
backend up several times (``setup_s`` is the median), runs measured
rounds for its share of ``--seconds``, and is then checked by the
correctness gate outside the timed region. Why each workload exists,
the layers it stresses and the per-layer predictions are recorded in
``workloads.json`` beside this file.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

import numpy as np

import gate
import loadgen

HERE = os.path.dirname(os.path.abspath(__file__))

#: input sizes; ``tiny`` is for the benchmark's self-tests only
SIZES = {
    "full": {
        "setups": 3,
        "fig6": {"n": 1000, "ps": (0.1, 0.3, 0.5),
                 "m_values": tuple(range(25, 601, 25)), "trials": 1},
        "fig2": {"ns": (500, 1000, 2000), "ps": (0.1, 0.3, 0.5),
                 "trials": 8},
        # n=2000 left out: its scans took half the sweep and varied most
        # from draw to draw
        "fig3": {"ns": (500, 1000), "lams": (1.0,), "trials": 3,
                 "check_every": 2},
        "serve": {"n": 1000, "gamma": 500, "rounds": 3, "block": 10,
                  "ingest_rate": 6.0, "cohort": 4, "verify": 8},
        # serial-reference checks per measured sweep, by cell kind
        "gate_per_round": {"success_curve": 3, "required_queries": 2},
    },
    "tiny": {
        "setups": 2,
        "fig6": {"n": 200, "ps": (0.1,), "m_values": (40, 80), "trials": 2},
        "fig2": {"ns": (100, 200), "ps": (0.1,), "trials": 2},
        "fig3": {"ns": (100, 200), "lams": (1.0,), "trials": 2,
                 "check_every": 5},
        "serve": {"n": 200, "gamma": 100, "rounds": 2, "block": 10,
                  "ingest_rate": 8.0, "cohort": 2, "verify": 2},
        "gate_per_round": {"success_curve": 1, "required_queries": 1},
    },
}

#: sublinear exponent of the paper's figures (k = n ** theta)
THETA = 0.25

#: layers whose self time the traced run reports (module names)
LAYERS = (
    "core.batch", "core.noise", "core.incremental", "amp.batch_amp",
    "amp.kernels", "amp.amp", "experiments.runner",
    "experiments.scheduler", "experiments.checkpoint",
    "experiments.storage", "service.session", "service.store",
)

#: layers the sweep driver itself is made of; every other layer's self
#: time is attributed work
DRIVER_LAYERS = ("experiments.scheduler",)


def percentile(values, q):
    """Percentile (``q`` in 0..100) of a non-empty list, interpolated
    between the two nearest ranks."""
    return float(np.percentile(values, q))


def round_seed(seed, index) -> int:
    """Plan seed of measured round ``index`` of a run seeded ``seed``.

    Every round sweeps fresh inputs, so a run's figures average over
    many draws instead of repeating one draw's luck: required-m scans
    in particular vary by a fifth in work from one draw to the next.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _vm_hwm_kib(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid) -> list:
    out = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids = [int(k) for k in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            out.append(kid)
            out.extend(_descendants(kid))
    return out


def peak_rss_mib() -> float:
    """Peak RSS of this process plus every live descendant, in MiB."""
    me = os.getpid()
    return sum(_vm_hwm_kib(p) for p in [me] + _descendants(me)) / 1024.0


class Run:
    """Per-run settings and scratch space inside the checkout."""

    def __init__(self, workload, seed, seconds, size, root):
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.size = SIZES[size]
        self.root = root
        self._dirs = 0

    def fresh_dir(self, label) -> str:
        self._dirs += 1
        path = os.path.join(self.root, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path


# -- sweep workloads ----------------------------------------------------


class SweepPlans:
    """One measured sweep: a plan per backend, run in order. Its cells,
    and a round's outcomes, concatenate in that order."""

    def __init__(self, parts):
        self.parts = parts  # [(backend, SweepPlan)]
        self._cells = [cell for _, plan in parts for cell in plan._cells]


def fig6_plan(cfg, seed, warm=False):
    """Figure 6: success rate vs m, greedy and AMP, Z-channel."""
    from repro.core.ground_truth import sublinear_k
    from repro.core.noise import ZChannel
    from repro.experiments.scheduler import SweepPlan

    n = cfg["n"]
    plan = SweepPlan()
    for algorithm in ("greedy", "amp"):
        for p in cfg["ps"][:1] if warm else cfg["ps"]:
            plan.add_success_curve(
                n, sublinear_k(n, THETA), ZChannel(p),
                (cfg["m_values"][0], cfg["m_values"][-1]) if warm else cfg["m_values"],
                algorithm=algorithm, trials=1 if warm else cfg["trials"], seed=seed,
            )
    return plan


def fig3_plan(cfg, seed, warm=False):
    """Figure 3, AMP only: required m, noiseless and Gaussian noise."""
    from repro.core.ground_truth import sublinear_k
    from repro.core.noise import GaussianQueryNoise, NoiselessChannel
    from repro.experiments.scheduler import SweepPlan

    plan = SweepPlan()
    if warm:
        plan.add_required_queries(
            cfg["ns"][0], 3, NoiselessChannel(), trials=4, seed=seed,
            algorithm="amp", check_every=cfg["check_every"],
        )
        return plan
    channels = [NoiselessChannel()] + [
        GaussianQueryNoise(lam) for lam in cfg["lams"]
    ]
    for channel in channels:
        for n in cfg["ns"]:
            plan.add_required_queries(
                n, sublinear_k(n, THETA), channel, trials=cfg["trials"],
                seed=seed, algorithm="amp", check_every=cfg["check_every"],
            )
    return plan


def fig2_plan(cfg, seed, warm=False):
    """Figure 2: greedy required m over p x n, Z-channel."""
    from repro.core.ground_truth import sublinear_k
    from repro.core.noise import ZChannel
    from repro.experiments.scheduler import SweepPlan

    plan = SweepPlan()
    if warm:
        plan.add_required_queries(cfg["ns"][0], 3, ZChannel(0.1), trials=4,
                                  seed=seed)
        return plan
    for p in cfg["ps"]:
        for n in cfg["ns"]:
            plan.add_required_queries(
                n, sublinear_k(n, THETA), ZChannel(p),
                trials=cfg["trials"], seed=seed,
            )
    return plan


class FigureSweeps:
    """The paper's figure sweeps, each on its own backend, one after
    the other: Figure 6 serial in-process, Figure 3 on the process
    backend with shm, Figure 2 on localhost socket workers with
    per-chunk checkpoints."""

    workers = 2

    def __init__(self, run: Run):
        self.run = run
        self.last_stats = []
        self.hosts = None
        self._stop_workers = None

    def build_plan(self, seed, warm=False):
        size = self.run.size
        return SweepPlans([
            ("serial", fig6_plan(size["fig6"], seed, warm)),
            ("process", fig3_plan(size["fig3"], seed, warm)),
            ("socket", fig2_plan(size["fig2"], seed, warm)),
        ])

    def executor(self, backend):
        from repro.experiments.scheduler import SweepExecutor

        if backend == "serial":
            return SweepExecutor(backend="serial")
        if backend == "process":
            return SweepExecutor(backend="process", workers=self.workers,
                                 shm=True)
        # a fresh checkpoint directory per sweep, so every round writes
        # its chunks instead of resuming the previous round's
        return SweepExecutor(backend="socket", hosts=self.hosts,
                             checkpoint=self.run.fresh_dir("ckpt"))

    # backend lifetime
    def start(self) -> None:
        """Start the socket workers and the process pool, and warm every
        backend with a small sweep (the first set-up also pays the
        imports)."""
        from repro.experiments.worker import start_local_workers

        self.hosts, self._stop_workers = start_local_workers(self.workers)
        for backend, plan in self.build_plan(0, warm=True).parts:
            self.executor(backend).run(plan)

    def stop(self) -> None:
        from repro.experiments import parallel

        if self._stop_workers is not None:
            self._stop_workers()
            self._stop_workers = None
        parallel.shutdown_pool()

    def round(self, plan):
        """One measured sweep: execute every cell, fold each result."""
        from repro.experiments.runner import (
            fold_required_queries,
            fold_success_curve,
        )

        legs = [(self.executor(backend), part) for backend, part in plan.parts]
        raw = []
        t0 = time.perf_counter()
        for executor, part in legs:
            out = executor.run_outcomes(part)
            for cell, cell_out in zip(part._cells, out):
                if cell.kind == "required_queries":
                    fold_required_queries(cell.spec, cell_out)
                else:
                    fold_success_curve(cell.spec, cell.m_values, cell_out,
                                       cell.trials)
            raw += out
        elapsed = time.perf_counter() - t0
        self.last_stats.append(legs[-1][0].last_socket_stats or {})
        return elapsed, raw

    def trials(self, plan) -> int:
        return sum(
            cell.trials * (len(cell.m_values) if cell.m_values else 1)
            for cell in plan._cells
        )


# -- service workload ---------------------------------------------------


class ServeOpenLoop:
    """`repro serve` under an open-loop ingest/decode schedule."""

    def __init__(self, run: Run):
        self.run = run
        self.cfg = run.size["serve"]
        self.server = None
        self.sessions = {}
        self.blocks = {}

    def make_sessions(self, seed, count):
        import repro

        cfg = self.cfg
        n, gamma = cfg["n"], cfg["gamma"]
        k = repro.sublinear_k(n, THETA)
        channel = repro.ZChannel(0.1)
        sessions, blocks = {}, {}
        for i in range(count):
            rng = np.random.default_rng([seed, i])
            truth = repro.sample_ground_truth(n, k, rng)
            sigma = truth.sigma.astype(np.int64)
            queries = []
            for _ in range(cfg["rounds"] * cfg["block"]):
                agents, counts = repro.sample_query(n, gamma, rng)
                total = int(np.dot(counts, sigma[agents]))
                result = float(
                    channel.measure(np.asarray([total]), int(counts.sum()), rng)[0]
                )
                queries.append((agents.tolist(), counts.tolist(), result))
            sid = f"s{seed}-{i}"
            sessions[sid] = (truth, queries)
            b = cfg["block"]
            blocks[sid] = [
                queries[r * b:(r + 1) * b] for r in range(cfg["rounds"])
            ]
        return sessions, blocks

    def session_count(self, seconds) -> int:
        """Sessions whose ingests fill ``seconds`` at the ingest rate,
        leaving time for the trailing decodes and certificates."""
        budget = max(seconds - 2.0, 1.0)
        return max(2, int(budget * self.cfg["ingest_rate"] / self.cfg["rounds"]))

    def start(self, sessions) -> None:
        from repro.service import ServiceClient
        from repro.service.testing import start_server

        cfg = self.cfg
        self.server = start_server(self.run.fresh_dir("state"))
        warm_truth, warm_queries = self.make_sessions(10**6, 1)[0].popitem()[1]
        with ServiceClient(self.server.host, self.server.port) as client:
            # first decode pays the decode thread's imports
            client.open_session("warm", cfg["n"], warm_truth.sigma.tolist(),
                                channel={"kind": "z", "p": 0.1},
                                gamma=cfg["gamma"])
            client.ingest("warm", warm_queries[: cfg["block"]])
            client.decode("warm")
            for sid, (truth, _) in sessions.items():
                client.open_session(sid, cfg["n"], truth.sigma.tolist(),
                                    channel={"kind": "z", "p": 0.1},
                                    gamma=cfg["gamma"])

    def stop(self) -> None:
        if self.server is None:
            return
        proc = self.server.proc
        if proc.poll() is None:
            # SIGINT is the server's clean stop; exit handlers run
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.server = None

    def round(self, sessions, blocks, armed=None):
        cfg = self.cfg
        plan = loadgen.schedule(
            sorted(sessions), cfg["rounds"], cfg["block"], cfg["ingest_rate"],
            time.perf_counter() + 0.2, cfg["cohort"],
        )
        if armed is not None:
            open(armed, "w").close()
        return loadgen.run(
            self.server.host, self.server.port, plan, blocks, retry_budget=5.0,
        )


def serve_metrics(records) -> dict:
    """End-to-end service metrics from one schedule's records."""
    start = min(r["due"] for r in records)
    makespan = max(r["due"] + r["latency"] for r in records) - start
    out = {"samples": {}}
    for kind, label in (("ingest", "ingest"), ("amp", "decode")):
        lat = [
            (r["latency"] if r["error"] is None else makespan) * 1e3
            for r in records if r["kind"] == kind
        ]
        out[f"{label}_p50_ms"] = percentile(lat, 50)
        out[f"{label}_p90_ms"] = percentile(lat, 90)
        out["samples"][label] = len(lat)
    amp = [r for r in records if r["kind"] == "amp"]
    degraded = sum(
        1 for r in amp if r["response"] is not None and r["response"]["degraded"]
    )
    failed = sum(1 for r in records if r["error"] is not None)
    out["sweep_s"] = makespan
    out["amp_share"] = 1.0 - degraded / max(len(amp), 1)
    out["ok_share"] = 1.0 - failed / len(records)
    out["attempted"] = len(records)
    out["failed"] = failed
    out["send_lag_p90_ms"] = percentile([r["lag"] for r in records], 90) * 1e3
    return out


def serve_responses(records) -> dict:
    responses = {}
    for rec in records:
        if rec["kind"] != "ingest":
            responses.setdefault(rec["sid"], []).append(
                (rec["kind"], rec["response"])
            )
    return responses


def serve_digest(records) -> str:
    rows = []
    for rec in records:
        resp = rec["response"]
        if rec["kind"] == "ingest" or resp is None:
            continue
        if rec["kind"] == "amp" and not resp["degraded"]:
            rows.append((rec["sid"], resp["m"], resp["exact"],
                         np.asarray(resp["scores"]).tobytes().hex()))
        else:
            rows.append((rec["sid"], resp["m"], resp["algorithm"],
                         resp.get("separation"), resp["degraded"]))
    return gate.digest(sorted(rows, key=repr))


def save_growth(pairs) -> float:
    """Mean save time of sessions at their largest size over their
    smallest, from ``(m, ms)`` samples.

    The schedule interleaves sessions of every size over the whole run,
    so the run's first and last tenths hold the same mix; the growth
    that matters is per session, as it grows.
    """
    by_m = {}
    for m, ms in pairs:
        by_m.setdefault(int(m), []).append(ms)
    if len(by_m) < 2:
        return 0.0
    return float(np.mean(by_m[max(by_m)]) / np.mean(by_m[min(by_m)]))


WORKLOADS = {
    "figure_sweeps": FigureSweeps,
    "serve_open_loop": ServeOpenLoop,
}


# -- per-layer metrics ----------------------------------------------------


def layer_metrics(agg, rounds, traced_ns, workers, extra) -> dict:
    """Per-layer metrics from merged trace aggregates, per measured round."""
    rounds = max(rounds, 1)
    selfs, incl, cnt = agg["self_ns"], agg["incl_ns"], agg["counters"]
    samples = agg["samples"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0) / 1e9 / rounds
    for name in (
        "core.batch.sample_graph_s", "core.batch.stream_grow_s",
        "core.noise.measure_s", "core.incremental.score_s",
        "amp.kernels.adjoint_posterior_s", "amp.kernels.forward_residual_s",
        "experiments.runner.fold_s", "experiments.storage.save_s",
        "service.session.ingest_s",
    ):
        out[name] = incl.get(name, 0) / 1e9 / rounds
    for name in (
        "core.batch.graphs_sampled", "amp.batch_amp.stack_nnz",
        "amp.kernels.phase_calls", "amp.kernels.bytes_computed",
        "amp.amp.iterations", "experiments.worker.frames",
        "experiments.worker.bytes", "experiments.shm.arena_bytes",
        "experiments.storage.save_bytes", "service.wire.frames",
    ):
        out[name] = cnt.get(name, 0) / rounds
    out["service.wire.bytes"] = (
        cnt.get("service.wire.bytes", 0) + cnt.get("service.wire.bytes_in", 0)
    ) / rounds
    # over all traced rounds: each round draws fresh graphs
    sampled = cnt.get("core.batch.graphs_sampled", 0)
    out["core.batch.graphs_unique_ratio"] = (
        len(agg["sets"].get("graphs", ())) / sampled if sampled else 0.0
    )
    chunks = samples.get("experiments.scheduler.chunk_ms", [])
    out["experiments.scheduler.chunks"] = len(chunks) / rounds
    out["experiments.scheduler.chunk_p50_ms"] = percentile(chunks, 50) if chunks else 0.0
    out["experiments.scheduler.chunk_p90_ms"] = percentile(chunks, 90) if chunks else 0.0
    busy = cnt.get("experiments.scheduler.chunk_ns", 0)
    out["experiments.scheduler.worker_idle_share"] = (
        1.0 - busy / (workers * traced_ns) if traced_ns and chunks else 0.0
    )
    out["experiments.worker.poll_overhead_s"] = (
        cnt.get("experiments.worker.poll_overhead_ns", 0) / 1e9 / rounds
    )
    saves = samples.get("service.store.save_ms", [])
    out["service.store.save_p50_ms"] = percentile(saves, 50) if saves else 0.0
    out["service.store.save_growth"] = save_growth(
        samples.get("service.store.save_by_m", [])
    )
    sizes = samples.get("service.batcher.batch_size", [])
    out["service.batcher.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
    waits = samples.get("service.batcher.queue_wait_ms", [])
    out["service.batcher.queue_wait_p50_ms"] = percentile(waits, 50) if waits else 0.0
    work = sum(v for k, v in selfs.items() if k not in DRIVER_LAYERS)
    out["trace.layer_share"] = work / (workers * traced_ns) if traced_ns else 0.0
    out.update(extra)
    return out

