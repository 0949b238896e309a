"""Tests for the online decode service (PR 10).

Three layers:

* unit tests for the error taxonomy, session state machine, durable
  store, and the micro-batching scheduler's robustness ladder
  (shed / degrade / deadline), all in-process;
* end-to-end tests against a real ``repro serve`` subprocess through
  :class:`repro.service.client.ServiceClient`;
* the pinned chaos test: deadline expiry, load shedding, and a
  mid-stream SIGKILL + restart are all injected, and every surviving
  session's decode output must stay **bit-identical** to an
  unperturbed serial decoder, with every shed/degraded/expired request
  reported through the structured taxonomy — never a silent drop or a
  hang.
"""

import asyncio
import os
import threading

import numpy as np
import pytest

import repro
from repro.amp import AMPConfig, run_amp
from repro.experiments.worker import AuthError
from repro.service.batcher import DecodeBatcher
from repro.service.client import ServiceClient
from repro.service.errors import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServiceError,
    SessionConflict,
    UnknownSession,
    error_from_wire,
)
from repro.service.session import Session, SessionParams, channel_to_spec
from repro.service.store import SessionStore
from repro.service.testing import start_server


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def make_session(session_id, n, k, channel_spec, seed, gamma=None):
    params = SessionParams.create(n, gamma, channel_spec, "half_k")
    rng = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, rng)
    return Session(session_id, params, truth.sigma), rng


def measured_queries(session, rng, count):
    """Sample + measure ``count`` queries for a session (client side)."""
    sigma = session.truth.sigma.astype(np.int64)
    queries = []
    for _ in range(count):
        agents, counts = repro.sample_query(
            session.params.n, session.params.gamma, rng
        )
        total = int(np.dot(counts, sigma[agents]))
        result = float(
            session.channel.measure(
                np.asarray([total]), int(counts.sum()), rng
            )[0]
        )
        queries.append((agents.tolist(), counts.tolist(), result))
    return queries


def local_amp_reference(session):
    """Standalone run_amp on a session's accumulated measurements."""
    builder = repro.PoolingGraphBuilder(
        session.params.n, session.params.gamma
    )
    stream = session.stream
    for i in range(stream.m_done):
        lo, hi = int(stream.indptr[i]), int(stream.indptr[i + 1])
        builder.add_query(stream.agents[lo:hi], stream.counts[lo:hi])
    meas = repro.Measurements(
        graph=builder.build(),
        truth=session.truth,
        channel=session.channel,
        results=np.array(stream.results),
    )
    return run_amp(meas, config=AMPConfig(track_history=False))


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_retryable_bits(self):
        assert Overloaded("x").retryable
        assert DeadlineExceeded("x").retryable
        assert not InvalidRequest("x").retryable
        assert not UnknownSession("x").retryable
        assert not SessionConflict("x").retryable

    def test_wire_round_trip(self):
        for exc in (Overloaded("busy"), InvalidRequest("bad")):
            back = error_from_wire(exc.to_wire())
            assert type(back) is type(exc)
            assert back.retryable == exc.retryable
            assert str(exc) in str(back)

    def test_unknown_code_keeps_announced_retryability(self):
        err = error_from_wire(
            {"code": "from_the_future", "message": "?", "retryable": True}
        )
        assert isinstance(err, ServiceError)
        assert err.retryable


# ---------------------------------------------------------------------------
# session state machine
# ---------------------------------------------------------------------------


class TestSessionParams:
    def test_channel_spec_round_trip(self):
        for channel in (
            repro.NoiselessChannel(),
            repro.ZChannel(0.2),
            repro.NoisyChannel(0.1, 0.05),
            repro.GaussianQueryNoise(2.0),
        ):
            spec = channel_to_spec(channel)
            params = SessionParams.create(100, None, spec, "half_k")
            assert channel_to_spec(params.channel) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"gamma": 0},
            {"centering": "nope"},
            {"channel_spec": {"kind": "nope"}},
            {"channel_spec": {"kind": "z", "p": 2.0}},
        ],
    )
    def test_validation(self, kwargs):
        base = {
            "n": 50,
            "gamma": None,
            "channel_spec": {"kind": "noiseless"},
            "centering": "half_k",
        }
        base.update(kwargs)
        with pytest.raises(InvalidRequest):
            SessionParams.create(
                base["n"], base["gamma"], base["channel_spec"],
                base["centering"],
            )


class TestSession:
    def test_ingest_is_idempotent(self):
        session, rng = make_session("s", 60, 3, {"kind": "z", "p": 0.1}, 0)
        queries = measured_queries(session, rng, 5)
        m1 = session.ingest("req-0", queries)
        scores = np.array(session.decoder.scores)
        # A retransmitted frame is acked from the applied map.
        m2 = session.ingest("req-0", queries)
        assert m1 == m2 == 5
        assert session.m == 5
        assert np.array_equal(session.decoder.scores, scores)

    def test_ingest_rejects_malformed_queries(self):
        session, _ = make_session("s", 60, 3, {"kind": "noiseless"}, 0)
        with pytest.raises(InvalidRequest):
            session.ingest("r1", [([0, 1], [1], 3.0)])  # shape mismatch
        with pytest.raises(InvalidRequest):
            session.ingest("r2", [([0], [5], 3.0)])  # sum != gamma
        assert session.m == 0

    def test_record_round_trip_is_bit_identical(self, tmp_path):
        session, rng = make_session(
            "s", 80, 4, {"kind": "gaussian", "lam": 1.0}, 1
        )
        store = SessionStore(tmp_path)
        session.ingest("a", measured_queries(session, rng, 12))
        store.save(session)
        session.ingest("b", measured_queries(session, rng, 7))
        store.save(session)
        restored = SessionStore(tmp_path).load_all()["s"]
        assert restored.m == session.m
        assert restored.applied == session.applied
        assert np.array_equal(restored.stream.indptr, session.stream.indptr)
        assert np.array_equal(restored.stream.agents, session.stream.agents)
        assert np.array_equal(restored.stream.counts, session.stream.counts)
        assert np.array_equal(
            restored.stream.results, session.stream.results
        )
        # Per-query replay reruns the identical float accumulation.
        assert np.array_equal(
            restored.decoder.scores, session.decoder.scores
        )
        assert restored.decoder.separation() == session.decoder.separation()

    def test_restored_session_grows_identically(self, tmp_path):
        # checkpoint -> restore -> grow further == never interrupted
        straight, rng = make_session("s", 70, 3, {"kind": "z", "p": 0.2}, 2)
        queries = measured_queries(straight, rng, 30)
        straight.ingest("all", queries)

        broken, _ = make_session("s", 70, 3, {"kind": "z", "p": 0.2}, 2)
        broken.ingest("first", queries[:18])
        SessionStore(tmp_path).save(broken)
        resumed = SessionStore(tmp_path).load_all()["s"]
        resumed.ingest("rest", queries[18:])
        assert np.array_equal(
            resumed.decoder.scores, straight.decoder.scores
        )
        assert np.array_equal(
            resumed.stream.results, straight.stream.results
        )

    def test_greedy_response_shape(self):
        session, rng = make_session("sid", 60, 3, {"kind": "noiseless"}, 3)
        session.ingest("r", measured_queries(session, rng, 40))
        response = session.greedy_response(degraded=True)
        assert response["session_id"] == "sid"
        assert response["algorithm"] == "greedy"
        assert response["m"] == 40
        assert response["degraded"] is True
        assert response["separated"] == (response["separation"] > 0)


class TestSessionStore:
    def test_save_load_delete(self, tmp_path):
        store = SessionStore(tmp_path)
        session, rng = make_session("alpha", 50, 2, {"kind": "noiseless"}, 4)
        session.ingest("r", measured_queries(session, rng, 6))
        store.save(session)
        other, _ = make_session("beta", 50, 2, {"kind": "noiseless"}, 5)
        store.save(other)

        loaded = SessionStore(tmp_path).load_all()
        assert sorted(loaded) == ["alpha", "beta"]
        assert loaded["alpha"].m == 6
        assert np.array_equal(
            loaded["alpha"].decoder.scores, session.decoder.scores
        )
        store.delete("alpha")
        assert sorted(SessionStore(tmp_path).load_all()) == ["beta"]

    def test_hostile_session_ids_stay_in_root(self, tmp_path):
        store = SessionStore(tmp_path)
        session, _ = make_session(
            "../../escape attempt", 30, 2, {"kind": "noiseless"}, 6
        )
        store.save(session)
        files = list(tmp_path.glob("*.session.log"))
        assert len(files) == 1
        assert files[0].resolve().parent == tmp_path.resolve()
        assert list(SessionStore(tmp_path).load_all()) == [
            "../../escape attempt"
        ]

    def test_ids_that_flatten_alike_keep_their_own_logs(self, tmp_path):
        # "a/b" and "a_b" once shared a file; an id whose hex is too
        # long for a filename gets a digest-named log.
        store = SessionStore(tmp_path)
        saved = {}
        ids = [("a/b", 5), ("a_b", 9), ("x" * 150, 3)]
        for seed, (session_id, m) in enumerate(ids):
            session, rng = make_session(
                session_id, 50, 2, {"kind": "z", "p": 0.1}, 20 + seed
            )
            session.ingest("r", measured_queries(session, rng, m))
            store.save(session)
            saved[session_id] = session
        loaded = SessionStore(tmp_path).load_all()
        assert sorted(loaded) == sorted(saved)
        for session_id, session in saved.items():
            assert loaded[session_id].m == session.m
            assert np.array_equal(
                loaded[session_id].decoder.scores, session.decoder.scores
            )

    @pytest.mark.parametrize("damage", ["cut", "flip"])
    def test_torn_last_frame_is_truncated(self, tmp_path, damage):
        channel = {"kind": "gaussian", "lam": 1.0}
        straight, rng = make_session("s", 80, 4, channel, 7)
        queries = measured_queries(straight, rng, 30)
        straight.ingest("a", queries[:12])
        straight.ingest("b", queries[12:20])
        straight.ingest("c", queries[20:])

        session, _ = make_session("s", 80, 4, channel, 7)
        store = SessionStore(tmp_path)
        session.ingest("a", queries[:12])
        store.save(session)
        (path,) = tmp_path.glob("*.session.log")
        durable_size = path.stat().st_size
        session.ingest("b", queries[12:20])
        store.save(session)  # the frame the crash tears
        data = bytearray(path.read_bytes())
        if damage == "cut":
            data = data[: (durable_size + len(data)) // 2]
        else:
            data[-3] ^= 0x01
        path.write_bytes(bytes(data))

        restored = SessionStore(tmp_path).load_all()["s"]
        assert path.stat().st_size == durable_size
        assert restored.m == 12
        assert restored.applied == {"a": 12}
        # The client re-sends the unacked tail; the session then grows
        # exactly as if nothing had happened.
        store = SessionStore(tmp_path)
        restored = store.load_all()["s"]
        restored.ingest("b", queries[12:20])
        store.save(restored)
        restored.ingest("c", queries[20:])
        store.save(restored)
        final = SessionStore(tmp_path).load_all()["s"]
        assert final.applied == straight.applied
        for consumer in (restored, final):
            assert np.array_equal(
                consumer.decoder.scores, straight.decoder.scores
            )
            assert np.array_equal(
                consumer.stream.agents, straight.stream.agents
            )
            assert np.array_equal(
                consumer.stream.results, straight.stream.results
            )

    def test_failed_append_is_cut_back(self, tmp_path, monkeypatch):
        session, rng = make_session("s", 60, 3, {"kind": "noiseless"}, 8)
        store = SessionStore(tmp_path)
        session.ingest("a", measured_queries(session, rng, 4))
        store.save(session)
        (path,) = tmp_path.glob("*.session.log")
        durable = path.read_bytes()

        real_write = os.write
        writes = []

        def short_then_fail(fd, data):
            # One short write lands, then the device gives up.
            writes.append(len(data))
            if len(writes) == 1:
                return real_write(fd, bytes(data[:16]))
            raise OSError(28, "No space left on device")

        session.ingest("b", measured_queries(session, rng, 4))
        monkeypatch.setattr(os, "write", short_then_fail)
        with pytest.raises(OSError):
            store.save(session)
        monkeypatch.undo()
        assert len(writes) == 2  # the short write was continued
        assert path.read_bytes() == durable
        # The store still owes the log everything since its durable
        # point, so a retried save completes it.
        store.save(session)
        loaded = SessionStore(tmp_path).load_all()["s"]
        assert loaded.m == 8
        assert np.array_equal(loaded.decoder.scores, session.decoder.scores)

    def test_log_without_a_complete_frame_is_removed(self, tmp_path):
        session, _ = make_session("s", 40, 2, {"kind": "noiseless"}, 11)
        SessionStore(tmp_path).save(session)
        (path,) = tmp_path.glob("*.session.log")
        path.write_bytes(path.read_bytes()[:20])  # torn open frame
        assert SessionStore(tmp_path).load_all() == {}
        assert not path.exists()

    def test_json_state_dir_is_rejected(self, tmp_path):
        legacy = tmp_path / "alpha.session.json"
        legacy.write_text('{"version": 1}')
        with pytest.raises(ValueError, match="alpha.session.json"):
            SessionStore(tmp_path).load_all()


class TestPersistFailure:
    """A failed write-ahead append is never acked, not even on retry."""

    @staticmethod
    def _request(service, **request):
        return asyncio.run(service._safe_dispatch(request))

    @staticmethod
    def _fail_once(monkeypatch, store):
        real_save = store.save
        calls = []

        def save(session):
            calls.append(session.m)
            if len(calls) == 1:
                raise OSError(28, "No space left on device")
            return real_save(session)

        monkeypatch.setattr(store, "save", save)

    def _open(self, service, session):
        return self._request(
            service,
            op="open_session",
            session_id=session.session_id,
            n=session.n,
            gamma=session.params.gamma,
            channel=dict(session.params.channel_spec),
            sigma=session.truth.sigma.tolist(),
        )

    def test_failed_ingest_is_retried_not_replayed(self, tmp_path, monkeypatch):
        from repro.service.server import DecodeService

        local, rng = make_session("s", 60, 3, {"kind": "z", "p": 0.1}, 9)
        first = measured_queries(local, rng, 4)
        second = measured_queries(local, rng, 4)
        service = DecodeService(state_dir=tmp_path)
        assert self._open(service, local)["ok"]
        assert self._request(
            service, op="ingest", session_id="s", request_id="r0",
            queries=first,
        )["m"] == 4

        self._fail_once(monkeypatch, service.store)
        failed = self._request(
            service, op="ingest", session_id="s", request_id="r1",
            queries=second,
        )
        assert failed["ok"] is False
        assert failed["error"]["code"] == "internal"
        assert service.sessions["s"].m == 4  # back to the durable state
        retry = self._request(
            service, op="ingest", session_id="s", request_id="r1",
            queries=second,
        )
        assert retry["ok"] and retry["replayed"] is False
        assert retry["m"] == 8

        local.ingest("r0", first)
        local.ingest("r1", second)
        restarted = SessionStore(tmp_path).load_all()["s"]
        assert restarted.m == 8
        assert restarted.applied == {"r0": 4, "r1": 8}
        assert np.array_equal(restarted.decoder.scores, local.decoder.scores)

    def test_failed_open_is_dropped(self, tmp_path, monkeypatch):
        from repro.service.server import DecodeService

        local, _ = make_session("s", 60, 3, {"kind": "noiseless"}, 10)
        service = DecodeService(state_dir=tmp_path)
        self._fail_once(monkeypatch, service.store)
        assert self._open(service, local)["ok"] is False
        assert "s" not in service.sessions
        assert SessionStore(tmp_path).load_all() == {}
        reopened = self._open(service, local)
        assert reopened["ok"] and reopened["resumed"] is False
        assert list(SessionStore(tmp_path).load_all()) == ["s"]


# ---------------------------------------------------------------------------
# micro-batching scheduler: robustness ladder + bit-identity
# ---------------------------------------------------------------------------


class TestDecodeBatcher:
    def _sessions(self, count, m, seed0=10):
        sessions = []
        for i in range(count):
            session, rng = make_session(
                f"b{i}", 90, 4, {"kind": "z", "p": 0.1}, seed0 + i
            )
            session.ingest("fill", measured_queries(session, rng, m))
            sessions.append(session)
        return sessions

    def test_batched_decode_bit_identical_to_run_amp(self):
        sessions = self._sessions(3, 70)

        async def scenario():
            batcher = DecodeBatcher(
                max_queue=16, degrade_depth=16, max_batch=8
            )
            batcher.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(
                    batcher.submit(s, s.m - 5 * i, return_scores=True)
                )
                for i, s in enumerate(sessions)
            ]
            responses = await asyncio.gather(*tasks)
            await batcher.stop()
            return responses, dict(batcher.counters)

        responses, counters = asyncio.run(scenario())
        # All three submissions landed before the scheduler drained, so
        # they stacked into one ragged block-diagonal AMP call.
        assert counters["batches"] == 1
        assert counters["batched_requests"] == 3
        for i, (session, response) in enumerate(zip(sessions, responses)):
            assert response["batch_size"] == 3
            assert response["degraded"] is False
            m = session.m - 5 * i
            # truncate the reference to the requested prefix
            ref_stream = session.snapshot_stream(m)
            builder = repro.PoolingGraphBuilder(
                session.params.n, session.params.gamma
            )
            for j in range(m):
                lo = int(ref_stream.indptr[j])
                hi = int(ref_stream.indptr[j + 1])
                builder.add_query(
                    ref_stream.agents[lo:hi], ref_stream.counts[lo:hi]
                )
            meas = repro.Measurements(
                graph=builder.build(),
                truth=session.truth,
                channel=session.channel,
                results=np.array(ref_stream.results[:m]),
            )
            reference = run_amp(meas, config=AMPConfig(track_history=False))
            assert response["exact"] == bool(reference.exact)
            assert np.array_equal(
                np.asarray(response["scores"]), reference.scores
            )

    def test_degrades_at_depth(self):
        sessions = self._sessions(2, 30)

        async def scenario():
            batcher = DecodeBatcher(max_queue=8, degrade_depth=1)
            batcher.start()
            loop = asyncio.get_running_loop()
            first = loop.create_task(batcher.submit(sessions[0], 30))
            second = loop.create_task(batcher.submit(sessions[1], 30))
            r1, r2 = await asyncio.gather(first, second)
            await batcher.stop()
            return r1, r2, dict(batcher.counters)

        r1, r2, counters = asyncio.run(scenario())
        # Both were admitted; at wave formation the backlog exceeded the
        # degrade depth, so the newer request was answered from the
        # running greedy scores — immediately, flagged, never silently —
        # while the older kept its AMP promise.
        assert r1["algorithm"] == "amp" and r1["degraded"] is False
        assert r2["algorithm"] == "greedy" and r2["degraded"] is True
        assert counters["degraded"] == 1
        assert counters["decoded"] == 1

    def test_sheds_when_queue_full(self):
        sessions = self._sessions(3, 30)

        async def scenario():
            batcher = DecodeBatcher(max_queue=2, degrade_depth=2)
            batcher.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(batcher.submit(s, 30)) for s in sessions
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.stop()
            return outcomes, dict(batcher.counters)

        outcomes, counters = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(shed) == 1 and shed[0].retryable
        assert len(served) == 2
        assert counters["shed"] == 1

    def test_deadline_expired_while_queued(self):
        (session,) = self._sessions(1, 30)

        async def scenario():
            batcher = DecodeBatcher()
            batcher.start()
            loop = asyncio.get_running_loop()
            expired = loop.time() - 1.0
            try:
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit(session, 30, deadline=expired)
            finally:
                await batcher.stop()
            return dict(batcher.counters)

        counters = asyncio.run(scenario())
        assert counters["deadline_expired"] == 1
        assert counters["decoded"] == 0

    def test_stop_fails_pending_requests(self):
        (session,) = self._sessions(1, 10)

        async def scenario():
            batcher = DecodeBatcher()
            batcher.start()
            response = await batcher.submit(session, 10)
            await batcher.stop()
            with pytest.raises(Overloaded):
                await batcher.submit(session, 10)
            return response

        response = asyncio.run(scenario())
        assert response["algorithm"] == "amp"


# ---------------------------------------------------------------------------
# end-to-end against a real server subprocess
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    proc = start_server(tmp_path_factory.mktemp("service-state"))
    yield proc
    proc.stop()


def open_and_fill(client, session_id, n, k, channel, seed, m):
    rng = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, rng)
    sigma = truth.sigma.astype(np.int64)
    client.open_session(session_id, n, truth.sigma, channel=channel)
    gamma = repro.default_gamma(n)
    queries = []
    for _ in range(m):
        agents, counts = repro.sample_query(n, gamma, rng)
        total = int(np.dot(counts, sigma[agents]))
        result = float(
            channel.measure(np.asarray([total]), int(counts.sum()), rng)[0]
        )
        queries.append((agents.tolist(), counts.tolist(), result))
    client.ingest(session_id, queries)
    return truth, queries


def reference_decode(n, truth, channel, queries):
    builder = repro.PoolingGraphBuilder(n)
    results = []
    for agents, counts, result in queries:
        builder.add_query(np.asarray(agents), np.asarray(counts))
        results.append(result)
    meas = repro.Measurements(
        graph=builder.build(),
        truth=truth,
        channel=channel,
        results=np.asarray(results, dtype=np.float64),
    )
    amp = run_amp(meas, config=AMPConfig(track_history=False))
    decoder = repro.IncrementalDecoder(truth, channel)
    for agents, counts, result in queries:
        decoder.ingest_query(
            np.asarray(agents, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            float(result),
        )
    return amp, decoder


class TestEndToEnd:
    def test_probes(self, server):
        with ServiceClient(server.host, server.port) as client:
            assert client.healthz()["status"] == "alive"
            ready = client.readyz()
            assert ready["ready"] is True
            stats = client.stats()
            assert {"decoded", "shed", "degraded", "deadline_expired"} \
                <= set(stats)

    def test_decode_matches_local_run_amp(self, server):
        n, k, m = 80, 4, 70
        channel = repro.ZChannel(0.1)
        with ServiceClient(server.host, server.port) as client:
            truth, queries = open_and_fill(
                client, "e2e-bitident", n, k, channel, 20, m
            )
            amp = client.decode(
                "e2e-bitident", algorithm="amp", return_scores=True
            )
            greedy = client.decode("e2e-bitident", algorithm="greedy")
            status = client.status("e2e-bitident")
        ref_amp, ref_dec = reference_decode(n, truth, channel, queries)
        assert status["m"] == m and status["k"] == k
        assert amp["exact"] == bool(ref_amp.exact)
        assert np.array_equal(np.asarray(amp["scores"]), ref_amp.scores)
        assert greedy["separated"] == ref_dec.is_successful()
        assert greedy["separation"] == float(ref_dec.separation())

    def test_ingest_retransmit_is_acked_not_reapplied(self, server):
        n, k = 60, 3
        channel = repro.NoiselessChannel()
        with ServiceClient(server.host, server.port) as client:
            truth, queries = open_and_fill(
                client, "e2e-idem", n, k, channel, 21, 10
            )
            request_id = client.request_id()
            first = client.ingest(
                "e2e-idem", queries[:5], request_id=request_id
            )
            replay = client.ingest(
                "e2e-idem", queries[:5], request_id=request_id
            )
            assert first["m"] == replay["m"] == 15
            assert not first["replayed"] and replay["replayed"]
            assert client.status("e2e-idem")["m"] == 15

    @pytest.mark.parametrize(
        "kind", ["agent-out-of-range", "non-finite-result"]
    )
    def test_rejected_ingest_leaves_session_unchanged(self, server, kind):
        # A 3-query ingest whose last query is invalid must apply
        # nothing: the session keeps its old m, and its AMP decode is
        # bit-identical to a session that never saw the request.
        n, k, channel = 60, 3, repro.ZChannel(0.1)
        gamma = repro.default_gamma(n)
        bad = {
            "agent-out-of-range": ([0, 99], [1, gamma - 1], 1.0),
            "non-finite-result": ([0], [gamma], float("nan")),
        }[kind]
        sid = f"e2e-atomic-{kind}"
        with ServiceClient(server.host, server.port) as client:
            truth, queries = open_and_fill(client, sid, n, k, channel, 25, 20)
            open_and_fill(client, sid + "-ref", n, k, channel, 25, 20)
            with pytest.raises(InvalidRequest):
                client.ingest(sid, queries[:2] + [bad])
            assert client.status(sid)["m"] == 20
            got = client.decode(sid, return_scores=True)
            ref = client.decode(sid + "-ref", return_scores=True)
            assert np.array_equal(
                np.asarray(got["scores"]), np.asarray(ref["scores"])
            )
            # the next accepted ingest carries only its own queries
            assert client.ingest(sid, queries[:2])["m"] == 22

    @pytest.mark.parametrize(
        "args",
        [{"m": 2.7}, {"m": "abc"}, {"m": True}, {"deadline": "abc"},
         {"deadline": float("nan")}],
        ids=["m-float", "m-str", "m-bool", "deadline-str", "deadline-nan"],
    )
    def test_decode_arguments_are_checked(self, server, args):
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, "e2e-args", 60, 3, repro.NoiselessChannel(), 26, 10
            )
            request = {"op": "decode", "session_id": "e2e-args",
                       "algorithm": "amp", **args}
            with pytest.raises(InvalidRequest):
                client.call(request)

    def test_decode_request_id_is_idempotent(self, server):
        channel = repro.ZChannel(0.05)
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(client, "e2e-didem", 60, 3, channel, 22, 40)
            rid = client.request_id()
            a = client.decode(
                "e2e-didem", return_scores=True, request_id=rid
            )
            b = client.decode(
                "e2e-didem", return_scores=True, request_id=rid
            )
            assert a == b

    def test_session_conflict_and_idempotent_reopen(self, server):
        n, k = 40, 2
        rng = np.random.default_rng(23)
        truth = repro.sample_ground_truth(n, k, rng)
        channel = repro.NoiselessChannel()
        with ServiceClient(server.host, server.port) as client:
            first = client.open_session(
                "e2e-conflict", n, truth.sigma, channel=channel
            )
            again = client.open_session(
                "e2e-conflict", n, truth.sigma, channel=channel
            )
            assert not first["resumed"] and again["resumed"]
            other = repro.sample_ground_truth(n, k + 1, rng)
            with pytest.raises(SessionConflict):
                client.open_session(
                    "e2e-conflict", n, other.sigma, channel=channel
                )

    def test_terminal_errors(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(UnknownSession):
                client.status("never-opened")
            with pytest.raises(InvalidRequest):
                client.call({"op": "no_such_op"})
            rng = np.random.default_rng(24)
            truth = repro.sample_ground_truth(30, 2, rng)
            client.open_session(
                "e2e-empty", 30, truth.sigma,
                channel=repro.NoiselessChannel(),
            )
            with pytest.raises(InvalidRequest):
                client.decode("e2e-empty", algorithm="amp")

    def test_wrong_token_is_rejected(self, server):
        with pytest.raises(AuthError):
            ServiceClient(
                server.host, server.port,
                token="definitely-wrong", retry_budget=2.0,
            ).connect()


# ---------------------------------------------------------------------------
# the pinned chaos test
# ---------------------------------------------------------------------------


class TestChaos:
    N, K, M_TOTAL, BLOCKS, JOBS = 100, 4, 60, 6, 4

    def _client_run(self, host, port, index, barrier, results, failures):
        try:
            session_id = f"chaos-{index}"
            channel = repro.ZChannel(0.1)
            rng = np.random.default_rng(100 + index)
            truth = repro.sample_ground_truth(self.N, self.K, rng)
            sigma = truth.sigma.astype(np.int64)
            gamma = repro.default_gamma(self.N)
            queries = []
            for _ in range(self.M_TOTAL):
                agents, counts = repro.sample_query(self.N, gamma, rng)
                total = int(np.dot(counts, sigma[agents]))
                result = float(
                    channel.measure(
                        np.asarray([total]), int(counts.sum()), rng
                    )[0]
                )
                queries.append((agents.tolist(), counts.tolist(), result))

            with ServiceClient(host, port, retry_budget=60.0) as client:
                client.open_session(
                    session_id, self.N, truth.sigma, channel=channel
                )
                per = self.M_TOTAL // self.BLOCKS
                for b in range(self.BLOCKS):
                    block = queries[b * per:(b + 1) * per]
                    ack = client.ingest(session_id, block)
                    assert ack["m"] == (b + 1) * per, ack
                    if b == 1:
                        # Every client has acked two blocks and is
                        # mid-stream; rendezvous with the killer, then
                        # keep streaming into the crash.
                        barrier.wait(timeout=120)
            results[index] = (truth, channel, queries)
        except BaseException as exc:  # surfaced by the main thread
            failures[index] = exc

    def test_chaos_sigkill_deadlines_shedding_bit_identical(self, tmp_path):
        state = tmp_path / "state"
        env = {
            "REPRO_SERVICE_MAX_QUEUE": "2",
            "REPRO_SERVICE_DEGRADE_DEPTH": "1",
        }
        server = start_server(state, env=env)
        host, port = server.host, server.port
        barrier = threading.Barrier(self.JOBS + 1)
        results, failures = {}, {}
        threads = [
            threading.Thread(
                target=self._client_run,
                args=(host, port, i, barrier, results, failures),
            )
            for i in range(self.JOBS)
        ]
        for t in threads:
            t.start()

        try:
            # -- fault 1: SIGKILL the server mid-stream, then restart it
            # on the same port and state dir. Clients retry through it:
            # transport errors reconnect with backoff, unacked ingests
            # are retransmitted under their original request ids.
            barrier.wait(timeout=120)
            server.kill()
            server = start_server(state, port=port, env=env)
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "client hung — robustness violated"
            assert not failures, failures
            assert len(results) == self.JOBS

            # -- fault 2: deadline expiry, injected deterministically.
            with ServiceClient(host, port, retry_budget=1.0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.decode("chaos-0", deadline=1e-9)

            # -- fault 3: load shedding / degradation under a burst.
            # max_queue=2, degrade_depth=1: concurrent decode bursts
            # must trip the ladder; shed requests are retried by the
            # client, degraded ones come back flagged.
            degraded_seen = shed_seen = 0
            for _ in range(10):
                burst_results = []

                def burst(idx):
                    with ServiceClient(
                        host, port, retry_budget=60.0
                    ) as cli:
                        for _ in range(4):
                            burst_results.append(
                                cli.decode(f"chaos-{idx % self.JOBS}")
                            )

                burst_threads = [
                    threading.Thread(target=burst, args=(i,))
                    for i in range(self.JOBS)
                ]
                for t in burst_threads:
                    t.start()
                for t in burst_threads:
                    t.join(timeout=120)
                    assert not t.is_alive(), "burst client hung"
                with ServiceClient(host, port) as cli:
                    stats = cli.stats()
                degraded_seen = stats["degraded"]
                shed_seen = stats["shed"]
                assert all(
                    r["algorithm"] in ("amp", "greedy")
                    for r in burst_results
                )
                if degraded_seen and shed_seen:
                    break
            assert degraded_seen >= 1, "degradation never engaged"
            assert shed_seen >= 1, "load shedding never engaged"
            assert stats["deadline_expired"] >= 1

            # -- the pinned assertion: after all injected faults, every
            # surviving session decodes bit-identically to an
            # unperturbed serial decoder on the same query sequence.
            with ServiceClient(host, port) as client:
                for i in range(self.JOBS):
                    session_id = f"chaos-{i}"
                    truth, channel, queries = results[i]
                    status = client.status(session_id)
                    assert status["m"] == self.M_TOTAL  # no double-apply
                    amp = client.decode(
                        session_id, algorithm="amp", return_scores=True
                    )
                    greedy = client.decode(session_id, algorithm="greedy")
                    ref_amp, ref_dec = reference_decode(
                        self.N, truth, channel, queries
                    )
                    assert amp["degraded"] is False
                    assert amp["exact"] == bool(ref_amp.exact)
                    assert np.array_equal(
                        np.asarray(amp["scores"]), ref_amp.scores
                    )
                    assert greedy["separation"] == float(
                        ref_dec.separation()
                    )
        finally:
            barrier.abort()  # release any client still at the rendezvous
            server.stop()
