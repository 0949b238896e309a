"""Bit-identity tests for the sweep execution engine.

The contract under test: a multi-cell :class:`SweepPlan` — mixed
algorithms (greedy / amp), mixed n, required-m and success-curve cells
in one queue — returns results identical to running each cell through
the pre-engine per-cell serial path on the same seeds, for every
backend (``serial`` / ``process`` / ``socket``) and several worker
counts. The per-cell references below deliberately reimplement the
old serial loops (BatchTrialRunner / required_queries /
required_queries_amp / required_queries_amp_linear / run_amp_trials /
the per-trial loop on freshly spawned child seeds) so the engine is
checked against the original code shape, not against itself.
"""

import os

import numpy as np
import pytest

import repro
from repro.amp.batch_amp import (
    required_queries_amp,
    required_queries_amp_linear,
    run_amp_trials,
)
from repro.core.batch import BatchTrialRunner
from repro.core.corruption import CorruptionModel
from repro.core.incremental import required_queries
from repro.experiments import parallel
from repro.experiments.scheduler import (
    BACKENDS,
    SweepExecutor,
    SweepPlan,
    parse_hosts,
    resolve_backend,
)
from repro.utils.rng import spawn_rngs, spawn_seeds


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


@pytest.fixture(scope="module")
def socket_hosts():
    """Two live localhost socket workers (the cross-host round trip)."""
    from repro.experiments.worker import start_local_workers

    hosts, shutdown = start_local_workers(2)
    assert len(hosts) == 2
    yield hosts
    shutdown()


# -- per-cell serial references (the pre-engine code shape) -------------


def reference_required(n, k, channel, *, trials, seed, algorithm="greedy",
                       reference="stacked", check_every=1, max_m=None):
    """The pre-engine serial required-m loop, folded to (values, failures).

    ``reference="stacked"`` replays the scan the sweeps run (the chunked
    greedy simulator / the stacked AMP scan); ``"loop"`` the per-query
    greedy loop or the brute-force linear AMP scan. The greedy per-query
    loop matches the chunked simulator only on channels without
    per-query noise draws.
    """
    if algorithm == "amp":
        scan = (
            required_queries_amp if reference == "stacked"
            else required_queries_amp_linear
        )
        runs = scan(
            n, k, channel, spawn_seeds(seed, trials),
            check_every=check_every, max_m=max_m,
        )
        outcomes = [(r.succeeded, r.required_m) for r in runs]
    elif reference == "stacked":
        runner = BatchTrialRunner(n, k, channel)
        outcomes = [
            (r.succeeded, r.required_m)
            for r in (
                runner.required_queries(
                    gen, max_m=max_m, check_every=check_every
                )
                for gen in spawn_rngs(seed, trials)
            )
        ]
    else:
        outcomes = []
        for gen in spawn_rngs(seed, trials):
            r = required_queries(
                n, k, channel, gen, max_m=max_m, check_every=check_every
            )
            outcomes.append((r.succeeded, r.required_m))
    values = [int(m) for ok, m in outcomes if ok]
    failures = sum(1 for ok, _ in outcomes if not ok)
    return values, failures


def reference_curve(n, k, channel, m_values, *, trials, seed,
                    algorithm="greedy", reference="loop",
                    algorithm_kwargs=None, design="replacement",
                    corruption=None):
    """The pre-engine serial success-curve loop -> (rates, overlaps).

    ``reference="loop"`` (default) is the per-trial loop: sample truth,
    the design's graph and the channel from each trial's child seed,
    corrupt the measurements from the seed's dedicated corruption
    stream, and decode. ``"stacked"`` replays the stacked greedy / AMP
    runners directly (with-replacement, honest cells only).
    """
    from repro.core.corruption import apply_corruption, corruption_rng
    from repro.core.ground_truth import sample_ground_truth
    from repro.core.measurement import measure
    from repro.core.pooling import (
        default_gamma,
        sample_pooling_graph,
        sample_regular_design,
    )
    from repro.experiments.runner import _run_algorithm

    algorithm_kwargs = algorithm_kwargs or {}
    rates, overlaps = [], []
    for m, m_rng in zip(m_values, spawn_rngs(seed, len(m_values))):
        m = int(m)
        outcomes = []
        if reference == "stacked" and algorithm == "greedy":
            runner = BatchTrialRunner(n, k, channel, **algorithm_kwargs)
            for r in runner.run_trials(m, trials, seed=m_rng):
                outcomes.append((bool(r.exact), float(r.overlap)))
        elif reference == "stacked" and algorithm == "amp":
            for r in run_amp_trials(
                n, k, channel, m, spawn_rngs(m_rng, trials),
                **algorithm_kwargs,
            ):
                outcomes.append((bool(r.exact), float(r.overlap)))
        else:
            for seq in spawn_seeds(m_rng, trials):
                gen = np.random.default_rng(seq)
                truth = sample_ground_truth(n, k, gen)
                if design == "regular":
                    degree = min(max(1, round(m * default_gamma(n) / n)), m)
                    graph = sample_regular_design(n, m, degree, gen)
                else:
                    graph = sample_pooling_graph(n, m, None, gen)
                meas = measure(graph, truth, channel, gen)
                if corruption is not None:
                    meas = apply_corruption(
                        meas, corruption, corruption_rng(seq)
                    ).measurements
                result = _run_algorithm(algorithm, meas, **algorithm_kwargs)
                outcomes.append((bool(result.exact), float(result.overlap)))
        rates.append(sum(e for e, _ in outcomes) / trials)
        overlaps.append(sum(o for _, o in outcomes) / trials)
    return rates, overlaps


#: the mixed sweep every backend must reproduce bit-identically:
#: (kind, kwargs) — mixed algorithms, n, cell kinds, and the reference
#: each cell is checked against (``reference`` never reaches the plan)
MIXED_CELLS = [
    ("required", dict(n=150, k=4, channel=repro.ZChannel(0.1),
                      trials=7, seed=11, algorithm="greedy",
                      reference="stacked")),
    ("required", dict(n=100, k=3, channel=repro.NoiselessChannel(),
                      trials=4, seed=5, algorithm="greedy",
                      reference="loop")),
    ("required", dict(n=120, k=3, channel=repro.NoiselessChannel(),
                      trials=3, seed=2, algorithm="amp", reference="stacked",
                      check_every=4, max_m=400)),
    ("required", dict(n=90, k=3, channel=repro.NoiselessChannel(),
                      trials=2, seed=9, algorithm="amp", reference="loop",
                      check_every=8, max_m=300)),
    ("curve", dict(n=150, k=4, channel=repro.ZChannel(0.2),
                   m_values=[30, 90], trials=6, seed=4,
                   algorithm="greedy", reference="stacked")),
    ("curve", dict(n=120, k=3, channel=repro.NoiselessChannel(),
                   m_values=[60], trials=4, seed=5,
                   algorithm="amp", reference="loop")),
]


def build_mixed_plan():
    plan = SweepPlan()
    for kind, kwargs in MIXED_CELLS:
        if kind == "required":
            plan.add_required_queries(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                trials=kwargs["trials"], seed=kwargs["seed"],
                algorithm=kwargs["algorithm"],
                check_every=kwargs.get("check_every", 1),
                max_m=kwargs.get("max_m"),
            )
        else:
            plan.add_success_curve(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                kwargs["m_values"], trials=kwargs["trials"],
                seed=kwargs["seed"], algorithm=kwargs["algorithm"],
            )
    return plan


def assert_matches_references(results):
    assert len(results) == len(MIXED_CELLS)
    for (kind, kwargs), result in zip(MIXED_CELLS, results):
        if kind == "required":
            values, failures = reference_required(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                trials=kwargs["trials"], seed=kwargs["seed"],
                algorithm=kwargs["algorithm"],
                reference=kwargs["reference"],
                check_every=kwargs.get("check_every", 1),
                max_m=kwargs.get("max_m"),
            )
            assert result.values == values, kwargs
            assert result.failures == failures, kwargs
            assert result.algorithm == kwargs["algorithm"]
        else:
            rates, overlaps = reference_curve(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                kwargs["m_values"], trials=kwargs["trials"],
                seed=kwargs["seed"], algorithm=kwargs["algorithm"],
                reference=kwargs["reference"],
            )
            assert result.success_rates == rates, kwargs
            assert result.overlaps == overlaps, kwargs


class TestBitIdentity:
    def test_serial_backend_matches_per_cell_references(self):
        assert_matches_references(build_mixed_plan().run(backend="serial"))

    @pytest.mark.parametrize("shm", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_backend_matches_for_any_worker_count(self, workers, shm):
        results = build_mixed_plan().run(
            backend="process", workers=workers, shm=shm
        )
        assert_matches_references(results)

    def test_socket_backend_round_trip(self, socket_hosts):
        # Localhost cross-host round trip with two worker processes:
        # the full mixed sweep must come back bit-identical.
        results = build_mixed_plan().run(
            backend="socket", hosts=socket_hosts
        )
        assert_matches_references(results)

    def test_plans_are_reusable(self):
        plan = build_mixed_plan()
        first = plan.run(backend="serial")
        second = plan.run(backend="serial")
        assert first == second

    def test_empty_plan(self):
        assert SweepPlan().run(backend="serial") == []

    def test_empty_m_grid_still_folds_one_result_per_cell(self):
        # A cell with an empty m-grid produces zero tasks but must
        # still fold into an (empty) curve — the pre-engine serial
        # loop returned an empty SuccessCurve for m_values=[].
        from repro.experiments.runner import success_rate_curve

        curve = success_rate_curve(
            50, 2, repro.NoiselessChannel(), [], trials=3, seed=0
        )
        assert curve.m_values == []
        assert curve.success_rates == []
        assert curve.overlaps == []
        plan = SweepPlan()
        plan.add_success_curve(50, 2, repro.NoiselessChannel(), [], trials=3)
        plan.add_required_queries(
            100, 3, repro.NoiselessChannel(), trials=2, seed=1
        )
        results = plan.run(backend="process", workers=2)
        assert results[0].m_values == []
        assert results[1].trials == 2


class TestSocketRobustness:
    def test_dead_worker_does_not_lose_chunks(self, socket_hosts):
        # One address refuses connections (a dead host): the surviving
        # worker must pick up every chunk and the merge stays exact.
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        hosts = [socket_hosts[0], f"127.0.0.1:{dead_port}"]
        plan = SweepPlan()
        plan.add_required_queries(
            150, 4, repro.ZChannel(0.1), trials=7, seed=11
        )
        result = plan.run(
            backend="socket", hosts=hosts, connect_retry=0.3
        )[0]
        values, failures = reference_required(
            150, 4, repro.ZChannel(0.1), trials=7, seed=11
        )
        assert result.values == values
        assert result.failures == failures

    def test_all_workers_dead_raises(self):
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        plan = SweepPlan()
        plan.add_required_queries(
            100, 3, repro.NoiselessChannel(), trials=2, seed=0
        )
        # A tiny retry budget keeps the failure fast: the default 30s
        # backoff budget exists for workers that are still booting,
        # not for tests that know the port is dead.
        with pytest.raises((RuntimeError, OSError)):
            plan.run(
                backend="socket",
                hosts=[f"127.0.0.1:{dead_port}"],
                connect_retry=0.3,
            )


class TestBackendResolution:
    def test_default_by_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend(None, 4) == "process"

    def test_explicit_wins(self):
        assert resolve_backend("serial", 8) == "serial"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend(None, 4) == "serial"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("quantum", 1)
        assert set(BACKENDS) == {"serial", "process", "socket"}

    def test_parse_hosts(self, monkeypatch):
        assert parse_hosts(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        monkeypatch.setenv("REPRO_HOSTS", "x:7920, y:7921")
        assert parse_hosts(None) == [("x", 7920), ("y", 7921)]
        monkeypatch.setenv("REPRO_HOSTS", "")
        with pytest.raises(ValueError, match="worker addresses"):
            parse_hosts(None)
        with pytest.raises(ValueError, match="host"):
            parse_hosts(["no-port"])
        # ports must be decimal integers in 1..65535; the error names
        # the offending entry
        for bad in ["h:70000", "h:-1", "h:0", "h:", "h:abc", ("h", 65536)]:
            with pytest.raises(ValueError, match="1..65535") as err:
                parse_hosts(["ok:1", bad])
            assert repr(bad) in str(err.value)
        assert parse_hosts(["h:65535", ("g", "1")]) == [
            ("h", 65535), ("g", 1)
        ]


class TestPlanValidation:
    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            SweepPlan().add_required_queries(
                100, 3, repro.ZChannel(0.1), algorithm="distributed"
            )
        with pytest.raises(ValueError, match="algorithm"):
            SweepPlan().add_success_curve(
                100, 3, repro.ZChannel(0.1), [10], algorithm="warp"
            )

    def test_bad_design_rejected(self):
        with pytest.raises(ValueError, match="design"):
            SweepPlan().add_success_curve(
                100, 3, repro.ZChannel(0.1), [10], design="fancy"
            )

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            SweepPlan().add_required_queries(
                100, 3, repro.ZChannel(0.1), trials=0
            )


#: every way a fixed-m cell's chunk path gets chosen: ``_batch_mode``
#: on the algorithm and its kwargs, then the design and corruption
#: checks. (case id, add_success_curve kwargs, expected spec
#: "batch_mode" — None is the per-trial loop)
PATH_CASES = [
    ("stacked-greedy", dict(algorithm="greedy"), "greedy"),
    ("stacked-amp", dict(algorithm="amp"), "amp"),
    ("greedy-centering-none",
     dict(algorithm="greedy", algorithm_kwargs={"centering": "none"}), None),
    ("design-regular", dict(algorithm="greedy", design="regular"), None),
    ("corrupted",
     dict(algorithm="amp", corruption=CorruptionModel(flip_rate=0.1)), None),
]
PATH_CELL = dict(n=120, k=3, channel=repro.ZChannel(0.1), m_values=[40, 80],
                 trials=4, seed=13)


@pytest.fixture(scope="module")
def path_sweep():
    """One plan holding every PATH_CASES cell, run once on serial."""
    plan = SweepPlan()
    for _, kwargs, _ in PATH_CASES:
        plan.add_success_curve(
            PATH_CELL["n"], PATH_CELL["k"], PATH_CELL["channel"],
            PATH_CELL["m_values"], trials=PATH_CELL["trials"],
            seed=PATH_CELL["seed"], **kwargs,
        )
    return plan, plan.run(backend="serial")


class TestPathSelection:
    @pytest.mark.parametrize(
        "index", range(len(PATH_CASES)), ids=[c[0] for c in PATH_CASES]
    )
    def test_path_and_bit_identity_with_per_trial_loop(self, path_sweep,
                                                       index):
        plan, results = path_sweep
        _, kwargs, expected = PATH_CASES[index]
        assert plan._cells[index].spec["batch_mode"] == expected
        rates, overlaps = reference_curve(
            PATH_CELL["n"], PATH_CELL["k"], PATH_CELL["channel"],
            PATH_CELL["m_values"], trials=PATH_CELL["trials"],
            seed=PATH_CELL["seed"], **kwargs,
        )
        assert results[index].success_rates == rates
        assert results[index].overlaps == overlaps


class TestSearchThroughEngine:
    def test_threshold_backend_invariant(self):
        from repro.experiments.search import success_probability_threshold

        serial = success_probability_threshold(
            200, 4, repro.NoiselessChannel(), trials=8, seed=0
        )
        sharded = success_probability_threshold(
            200, 4, repro.NoiselessChannel(), trials=8, seed=0,
            workers=2, backend="process",
        )
        assert serial.threshold_m == sharded.threshold_m
        assert serial.probes == sharded.probes
