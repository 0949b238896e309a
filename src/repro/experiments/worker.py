"""TCP chunk workers for the sweep engine's ``socket`` backend.

A worker is a plain process that listens on a TCP port, accepts
connections from a :class:`~repro.experiments.scheduler.SweepExecutor`,
and runs ``(cell, chunk)`` work items with the exact same chunk
functions the in-process backends use — so its outputs are
bit-identical to serial execution by construction (every chunk is a
pure function of its pre-spawned child seeds).

Start workers — **one per core** on multi-core hosts, since a worker
serves one chunk at a time per connection (chunk pipelining is a
ROADMAP open item)::

    python -m repro worker serve --host 0.0.0.0 --port 7920
    python -m repro worker serve --host 0.0.0.0 --port 7921  # core 2

then point any sweep at them::

    REPRO_HOSTS=hosta:7920,hosta:7921 python -m repro fig3 --backend socket

Wire protocol (version 1)
-------------------------
Authenticated length-prefixed pickle frames, synchronous per
connection::

    8-byte big-endian payload length | 32-byte HMAC-SHA256 tag | payload

The tag is computed over the payload with a key derived from the
``REPRO_AUTH_TOKEN`` environment variable (or an explicit token on the
executor / ``repro worker serve --auth-token``). With no token set on
either side, a fixed well-known key is used, which still detects frame
corruption but authenticates nothing — set a shared token on every
host for anything beyond localhost. **The tag is verified before the
payload is unpickled** and the length prefix is capped at
:func:`max_frame_bytes` **before the receive buffer is allocated**, so
a peer with the wrong token (or a corrupted/hostile frame) is rejected
without executing any pickle and without unbounded allocation.

Every conversation opens with a versioned handshake — the driver sends
``("hello", PROTOCOL_VERSION)`` and the worker answers ``("welcome",
PROTOCOL_VERSION)`` (or an authenticated ``("reject", reason)`` on a
version mismatch; an unauthenticated peer is simply disconnected).
After the handshake:

``("spec", key, spec)``
    Intern a cell's invariant payload (channel, kwargs, budgets) under
    ``key``. Sent once per cell per connection — per-worker payload
    interning: subsequent chunk frames ship only seeds + indices. No
    reply.
``("chunk", key, kind, m, seeds)``
    Run one chunk against the interned spec. Replies ``("ok", result)``
    or ``("err", traceback_string)``. While the chunk computes, the
    serving thread keeps reading frames so heartbeats are answered
    mid-chunk (below).
``("ping",)``
    Liveness probe; answered with ``("pong",)`` immediately, including
    **while a chunk is computing** — so the driver can tell a long
    chunk (keep waiting / speculate) from a wedged or vanished worker
    (requeue) without any chunk-duration assumptions.
``("close",)``
    End the conversation; the worker keeps serving new connections.

**Trust model:** frame *payloads* are pickles, which execute code when
loaded. The HMAC tag means only peers holding the shared token can get
a frame loaded at all, which closes the drive-by hole of an open
pickle port — but anyone who has the token can still execute code, so
share it like an SSH key, run workers for trusted drivers only, and
keep every host on the same library version.
"""

from __future__ import annotations

import hashlib
import hmac
import multiprocessing
import os
import pickle
import select
import socket
import struct
import threading
import time
import traceback
from typing import Callable, List, Optional, Tuple, Union

from repro.utils import config

#: default worker port (any free port works; tests use ephemeral ports)
DEFAULT_PORT = 7920

#: wire protocol version, exchanged in the handshake; bump on any frame
#: or message-shape change so mismatched library versions fail with a
#: clear rejection instead of an unpickling error mid-sweep
PROTOCOL_VERSION = 1

#: frame header: 8-byte big-endian payload length
_HEADER = struct.Struct(">Q")

#: HMAC-SHA256 tag length (bytes), between the header and the payload
_TAG_SIZE = hashlib.sha256().digest_size

#: environment variable holding the shared cluster auth token
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: fallback HMAC key when no token is configured: frames still carry a
#: verified tag (corruption detection) but any same-version peer can
#: produce it — integrity without authentication
_INTEGRITY_KEY = b"repro-sweep-integrity-v1"

#: environment variable overriding the frame-size cap (bytes)
MAX_FRAME_ENV = "REPRO_MAX_FRAME_BYTES"

#: default frame-size cap: far above any real chunk payload (specs and
#: seed slices are ~hundreds of bytes; result lists are kilobytes) but
#: small enough that a garbage or hostile length prefix can never
#:  trigger a multi-gigabyte allocation
DEFAULT_MAX_FRAME_BYTES = 64 << 20

#: connect timeout for a single executor-side connection attempt
#: (seconds); :func:`connect_with_retry` wraps attempts in bounded
#: exponential backoff
CONNECT_TIMEOUT = 10.0

#: environment variable overriding the total connect-retry budget
CONNECT_RETRY_ENV = "REPRO_CONNECT_RETRY"

#: default total budget (seconds) for connect retries with exponential
#: backoff — covers "the worker host is still booting" without hanging
#: a sweep forever on a host that is simply gone
DEFAULT_CONNECT_RETRY = 30.0

#: a handshake reply must arrive within this many seconds of the hello
#: frame; a silent peer here is indistinguishable from a dead one and
#: turns into a retryable OSError
HANDSHAKE_TIMEOUT = 10.0

#: environment variables overriding the executor's heartbeat cadence
HEARTBEAT_INTERVAL_ENV = "REPRO_HEARTBEAT_INTERVAL"
HEARTBEAT_TIMEOUT_ENV = "REPRO_HEARTBEAT_TIMEOUT"

#: seconds between driver-side ``("ping",)`` probes while a chunk is
#: outstanding
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: seconds of *total* silence (no pong, no result) after which the
#: driver declares the worker dead and requeues the chunk; must be a
#: few multiples of the interval so one dropped probe is not fatal
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: upper bound (seconds) on one executor-side wait for a chunk reply.
#: It only paces heartbeat bookkeeping: an elapsed wait does NOT mean
#: the worker died — a chunk may legitimately compute for many minutes
#: at paper scale — it merely lets the driver thread send a heartbeat
#: probe and re-enter the wait. Replies and the end of the sweep wake
#: the wait at once (the sweep's wake socket is in the same select
#: set), so no latency rides on this value; the worker side has no
#: poll interval at all (:func:`_reply_while_computing`). Waits happen
#: *before* any frame read (never as a mid-frame socket timeout, which
#: would drop partially received bytes and desynchronize the
#: protocol); dead-peer detection is the application-level heartbeat
#: (a worker answers ``ping`` even mid-chunk) with TCP keepalive
#: (tuned in :func:`connect`) as the transport-level backstop.
IO_POLL_TIMEOUT = 1.0


class ProtocolError(RuntimeError):
    """A frame violated the wire protocol (version, shape, or size)."""


class FrameTooLarge(ProtocolError):
    """A length prefix exceeded the frame cap; nothing was allocated."""


class AuthError(ProtocolError):
    """A frame's HMAC tag did not verify; nothing was unpickled."""


# -- framing ------------------------------------------------------------


def resolve_auth_key(token: Union[str, bytes, None] = None) -> bytes:
    """Derive the frame HMAC key from a token (or ``REPRO_AUTH_TOKEN``).

    ``None`` falls back to the environment variable; with neither set,
    a fixed integrity-only key is used (corruption detection, no
    authentication). Both sides of a connection must resolve the same
    key or every frame is rejected before unpickling.
    """
    if token is None:
        token = os.environ.get(AUTH_TOKEN_ENV) or None
    if token is None:
        return _INTEGRITY_KEY
    if isinstance(token, str):
        token = token.encode("utf-8")
    return hashlib.sha256(b"repro-sweep-token:" + token).digest()


def max_frame_bytes() -> int:
    """The receive-side frame cap (``REPRO_MAX_FRAME_BYTES`` or default)."""
    value = config.env_int(MAX_FRAME_ENV, minimum=1)
    return DEFAULT_MAX_FRAME_BYTES if value is None else value


def send_message(
    conn: socket.socket, obj, key: Optional[bytes] = None
) -> None:
    """Send one authenticated length-prefixed pickle frame."""
    if key is None:
        key = resolve_auth_key()
    payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    tag = hmac.new(key, payload, hashlib.sha256).digest()
    conn.sendall(_HEADER.pack(len(payload)) + tag + payload)


def _recv_exact(conn: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        part = conn.recv(min(count, 1 << 20))
        if not part:
            return None
        chunks.append(part)
        count -= len(part)
    return b"".join(chunks)


def wait_readable(conn: socket.socket, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for ``conn`` to become readable.

    The executor's poll primitive: returns ``False`` when the wait
    merely elapsed (worker still computing — re-enter after checking
    for shutdown and heartbeat deadlines) and ``True`` when bytes,
    EOF, or a connection reset are pending (all of which the following
    blocking :func:`recv_message` resolves). Keeping the poll *outside*
    the frame read means a slow link can never lose partially received
    frame bytes to a timeout.
    """
    return bool(select.select([conn], [], [], timeout)[0])


def recv_message(
    conn: socket.socket,
    key: Optional[bytes] = None,
    max_bytes: Optional[int] = None,
):
    """Receive one frame; ``None`` on clean EOF at a frame boundary.

    The length prefix is checked against ``max_bytes`` (default:
    :func:`max_frame_bytes`) **before** the payload buffer is
    allocated, and the HMAC tag is verified **before** the payload is
    unpickled — so neither a hostile length prefix nor a frame from a
    peer without the shared token ever reaches ``pickle.loads`` or an
    unbounded allocation. Applies identically on the driver and the
    worker side (both receive through this function).
    """
    if key is None:
        key = resolve_auth_key()
    if max_bytes is None:
        max_bytes = max_frame_bytes()
    header = _recv_exact(conn, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLarge(
            f"frame announces {length} payload bytes, above the "
            f"{max_bytes}-byte cap ({MAX_FRAME_ENV} raises it); "
            "refusing the allocation"
        )
    tag = _recv_exact(conn, _TAG_SIZE)
    if tag is None:
        raise EOFError("connection closed mid-frame")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise EOFError("connection closed mid-frame")
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise AuthError(
            "frame HMAC verification failed (wrong or missing "
            f"{AUTH_TOKEN_ENV} on one side, or a corrupted frame); "
            "payload discarded unread"
        )
    return pickle.loads(payload)


def connect(address: Tuple[str, int]) -> socket.socket:
    """Open one client connection attempt to a worker (or ``repro serve``).

    Blocking I/O after connect: frame reads must never time out
    mid-frame (partial bytes would be lost and the stream
    desynchronized). The executor waits for readability before
    reading and drives application-level heartbeats; TCP keepalive
    below is the transport-level backstop that turns a host which
    vanished without closing the connection — power loss, network
    partition with no RST — into a hard ``OSError``.

    ``TCP_NODELAY`` is set because the driver writes small frames back
    to back (a cell's ``spec`` then its ``chunk``) before reading:
    under Nagle the second frame would wait for the worker's delayed
    ACK (about 40 ms) once per cell per connection. Every frame goes
    out in one ``sendall``, so no partial frames hit the wire.
    """
    conn = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
    conn.settimeout(None)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    # Aggressive keepalive where the platform exposes the knobs:
    # first probe after 60 s idle (TCP_KEEPIDLE on Linux, spelled
    # TCP_KEEPALIVE on macOS), then every 15 s, declare the peer dead
    # after 4 missed probes.
    for option, value in (
        ("TCP_KEEPIDLE", 60),
        ("TCP_KEEPALIVE", 60),
        ("TCP_KEEPINTVL", 15),
        ("TCP_KEEPCNT", 4),
    ):
        if hasattr(socket, option):
            conn.setsockopt(
                socket.IPPROTO_TCP, getattr(socket, option), value
            )
    return conn


def client_handshake(
    conn: socket.socket, key: Optional[bytes] = None
) -> None:
    """Run the driver side of the versioned handshake on ``conn``.

    Raises :class:`AuthError` when the worker silently drops the
    connection (the worker's response to an unverifiable hello — a
    token mismatch), :class:`ProtocolError` on an authenticated
    rejection (version mismatch), and ``OSError`` when no reply
    arrives within :data:`HANDSHAKE_TIMEOUT` (treated as a transport
    failure, i.e. retryable).
    """
    send_message(conn, ("hello", PROTOCOL_VERSION), key)
    if not wait_readable(conn, HANDSHAKE_TIMEOUT):
        raise OSError(
            f"no handshake reply within {HANDSHAKE_TIMEOUT:.0f}s"
        )
    reply = recv_message(conn, key)
    if reply is None:
        raise AuthError(
            "worker closed the connection during the handshake — "
            f"almost always a {AUTH_TOKEN_ENV} mismatch between "
            "driver and worker"
        )
    if reply[0] == "reject":
        raise ProtocolError(f"worker rejected the handshake: {reply[1]}")
    if reply[0] != "welcome" or reply[1] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unexpected handshake reply {reply!r} "
            f"(driver speaks protocol {PROTOCOL_VERSION})"
        )


def resolve_connect_retry(budget: Optional[float] = None) -> float:
    """Total connect-retry budget in seconds (env fallback + default)."""
    if budget is None:
        budget = config.env_float(CONNECT_RETRY_ENV, minimum=0.0)
    if budget is None:
        budget = DEFAULT_CONNECT_RETRY
    if budget < 0:
        raise ValueError(f"connect retry budget must be >= 0, got {budget}")
    return float(budget)


def connect_with_retry(
    address: Tuple[str, int],
    *,
    key: Optional[bytes] = None,
    budget: Optional[float] = None,
    cancelled: Optional[Callable[[], bool]] = None,
) -> Optional[socket.socket]:
    """Connect and handshake with bounded exponential-backoff retry.

    Transport failures (connection refused — the worker host is not
    accepting connections *yet* — timeouts, resets, a silent
    handshake) are retried with exponential backoff (0.25 s doubling,
    capped at 5 s per sleep) until ``budget`` seconds (default:
    ``REPRO_CONNECT_RETRY`` env, else
    :data:`DEFAULT_CONNECT_RETRY`) have elapsed, then the last error
    is raised. :class:`AuthError` / :class:`ProtocolError` from the
    handshake are **permanent** — a wrong token or version never fixes
    itself — and are raised immediately without retry. ``cancelled``
    (checked between attempts) aborts early with ``None`` — used by
    executor feeder threads when the sweep finishes while they are
    still backing off.
    """
    budget = resolve_connect_retry(budget)
    deadline = time.monotonic() + budget
    delay = 0.25
    attempt = 0
    while True:
        if cancelled is not None and cancelled():
            return None
        attempt += 1
        conn = None
        try:
            conn = connect(address)
            client_handshake(conn, key)
            return conn
        except (AuthError, ProtocolError):
            if conn is not None:
                conn.close()
            raise
        except OSError as exc:
            if conn is not None:
                conn.close()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OSError(
                    f"could not reach worker {address[0]}:{address[1]} "
                    f"after {attempt} attempts over {budget:.1f}s "
                    f"(last error: {exc})"
                ) from exc
            time.sleep(min(delay, max(remaining, 0.0), 5.0))
            delay *= 2


# -- server -------------------------------------------------------------


def _reply_while_computing(conn, key, run) -> Optional[tuple]:
    """Run ``run()`` on a thread, answering pings until it finishes.

    Event-driven, with no poll interval: the loop blocks in one
    ``select`` on the connection together with a ``socketpair`` that
    the compute thread writes when it finishes, so the reply goes out
    the moment the chunk is done and a ``ping`` is answered the moment
    it arrives. Returns the reply to send, or ``None`` when the driver
    went away mid-chunk (EOF / ``close`` / an unverifiable frame) — the
    computation is abandoned to finish on its daemon thread with the
    result discarded, and the caller closes the connection.

    The loop owns (and always closes) the pair's read end; the compute
    thread owns the write end and closes it after its one write, which
    on an abandoned chunk hits a closed peer and is swallowed.
    """
    box: dict = {}
    wake_r, wake_w = socket.socketpair()

    def compute() -> None:
        try:
            box["reply"] = ("ok", run())
        except Exception:
            box["reply"] = ("err", traceback.format_exc())
        try:
            wake_w.send(b"\0")
        except OSError:
            pass  # abandoned: the loop already closed the read end
        finally:
            wake_w.close()

    thread = threading.Thread(target=compute, daemon=True)
    try:
        thread.start()
        while True:
            ready = select.select([conn, wake_r], [], [], None)[0]
            if wake_r in ready:
                break
            try:
                inner = recv_message(conn, key)
            except (OSError, EOFError, ProtocolError):
                return None
            if inner is None or inner[0] == "close":
                return None
            if inner[0] == "ping":
                send_message(conn, ("pong",), key)
            # anything else mid-chunk is a driver bug; ignore rather
            # than desynchronize — the driver never pipelines work
    finally:
        wake_r.close()
        if thread.ident is None:
            wake_w.close()  # the thread never started
    thread.join()
    return box["reply"]


def _serve_connection(conn: socket.socket, key: bytes) -> None:
    """Serve one executor connection until it closes.

    The first frame must be the versioned hello; a frame that fails
    HMAC verification (wrong token, corruption) disconnects the peer
    without ever unpickling it. Frames arrive in order, so a chunk
    frame can rely on its cell's spec frame having been interned
    first.
    """
    from repro.experiments.scheduler import _run_chunk

    specs = {}
    try:
        hello = recv_message(conn, key)
        if hello is None:
            return
        if hello[0] != "hello":
            send_message(
                conn, ("reject", f"expected hello, got {hello[0]!r}"), key
            )
            return
        if hello[1] != PROTOCOL_VERSION:
            send_message(
                conn,
                ("reject",
                 f"worker speaks protocol {PROTOCOL_VERSION}, "
                 f"driver sent {hello[1]!r} — align library versions"),
                key,
            )
            return
        send_message(conn, ("welcome", PROTOCOL_VERSION), key)
        while True:
            message = recv_message(conn, key)
            if message is None or message[0] == "close":
                return
            if message[0] == "ping":
                send_message(conn, ("pong",), key)
            elif message[0] == "spec":
                specs[message[1]] = message[2]
            elif message[0] == "chunk":
                _, spec_key, kind, m, seeds = message
                if spec_key not in specs:
                    send_message(
                        conn,
                        ("err",
                         f"chunk for uninterned cell spec {spec_key!r}"),
                        key,
                    )
                    continue
                reply = _reply_while_computing(
                    conn, key,
                    lambda: _run_chunk(specs[spec_key], kind, m, seeds),
                )
                if reply is None:
                    return  # driver abandoned the chunk mid-compute
                send_message(conn, reply, key)
            else:
                send_message(
                    conn, ("err", f"unknown message kind {message[0]!r}"),
                    key,
                )
    except AuthError:
        return  # unverifiable peer: drop without unpickling anything
    except (OSError, EOFError, ProtocolError):
        return  # executor went away; nothing to clean up
    finally:
        conn.close()


def serve_worker(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    token: Union[str, bytes, None] = None,
    ready: Optional[Callable[[int], None]] = None,
) -> None:
    """Serve chunk requests forever (the ``repro worker serve`` loop).

    ``port=0`` binds an ephemeral port; ``ready`` is called once with
    the actual port before the accept loop starts (used by
    :func:`start_local_workers` and the CLI banner). ``token``
    overrides ``REPRO_AUTH_TOKEN`` for the frame HMAC key. Each
    connection is served on its own thread, so several executors (or
    a reconnecting one) can share a worker.

    Bind/listen failures propagate to the caller as ``OSError`` with
    the address attached — a worker that cannot bind must fail its
    process/thread loudly, never sit as a silently dead daemon.
    """
    key = resolve_auth_key(token)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        try:
            listener.bind((host, port))
            listener.listen()
        except OSError as exc:
            raise OSError(
                f"worker could not bind {host}:{port}: {exc}"
            ) from exc
        if ready is not None:
            ready(listener.getsockname()[1])
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=_serve_connection, args=(conn, key), daemon=True
            ).start()
    finally:
        listener.close()


def _local_worker_main(port_queue) -> None:
    """Spawn-process entry point for localhost test/CI workers.

    Startup failures (a bind error, an import error in the re-imported
    driver module) are reported through the queue so
    :func:`start_local_workers` can raise the real reason instead of a
    bare exit code.
    """
    try:
        serve_worker("127.0.0.1", 0, ready=port_queue.put)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the driver
        port_queue.put(("error", f"{type(exc).__name__}: {exc}"))
        raise


def start_local_workers(
    count: int,
) -> Tuple[List[str], Callable[[], None]]:
    """Spawn ``count`` localhost workers on ephemeral ports.

    Returns ``(hosts, shutdown)``: ``hosts`` is a list of
    ``"127.0.0.1:port"`` strings ready for
    ``SweepExecutor(backend="socket", hosts=hosts)``; call
    ``shutdown()`` to terminate the workers. The spawned workers
    inherit this process's environment, so ``REPRO_AUTH_TOKEN`` set
    here authenticates them. Used by the localhost round-trip tests
    and the CI socket smoke job — and handy for checking a multi-host
    setup before pointing it at real machines.
    """
    import queue as queue_module

    context = multiprocessing.get_context("spawn")
    port_queue = context.Queue()
    processes = [
        context.Process(target=_local_worker_main, args=(port_queue,),
                        daemon=True)
        for _ in range(count)
    ]
    for process in processes:
        process.start()
    hosts = []
    try:
        deadline = time.monotonic() + 60.0
        while len(hosts) < count:
            # Short poll so a worker that dies during startup (e.g. a
            # spawn re-import failure) fails fast with its reported
            # error instead of a bare queue timeout a minute later.
            try:
                item = port_queue.get(timeout=0.2)
            except queue_module.Empty:
                item = None
            if item is not None:
                if isinstance(item, tuple) and item[0] == "error":
                    raise RuntimeError(
                        f"local socket worker failed during startup: "
                        f"{item[1]}"
                    )
                hosts.append(f"127.0.0.1:{item}")
                continue
            dead = [p for p in processes if not p.is_alive()]
            if dead:
                # A dead worker can never serve chunks, whether or not
                # it got as far as reporting a port.
                raise RuntimeError(
                    "local socket worker died during startup "
                    f"(exit codes: {[p.exitcode for p in dead]}); "
                    "note the spawn start method re-imports the driver's "
                    "main module, so drivers fed via stdin cannot spawn "
                    "workers — run them from a file or -c instead"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"local socket workers did not report ports "
                    f"({len(hosts)}/{count} ready after 60s)"
                )
    except Exception:
        for process in processes:
            process.terminate()
        raise

    def shutdown() -> None:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=10)

    return hosts, shutdown


__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "AUTH_TOKEN_ENV",
    "MAX_FRAME_ENV",
    "DEFAULT_MAX_FRAME_BYTES",
    "CONNECT_TIMEOUT",
    "CONNECT_RETRY_ENV",
    "DEFAULT_CONNECT_RETRY",
    "HEARTBEAT_INTERVAL_ENV",
    "HEARTBEAT_TIMEOUT_ENV",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "IO_POLL_TIMEOUT",
    "ProtocolError",
    "FrameTooLarge",
    "AuthError",
    "resolve_auth_key",
    "max_frame_bytes",
    "wait_readable",
    "send_message",
    "recv_message",
    "connect",
    "client_handshake",
    "resolve_connect_retry",
    "connect_with_retry",
    "serve_worker",
    "start_local_workers",
]
