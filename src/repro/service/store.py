"""Durable session storage for the online decode service.

One append-only binary log per session under the server's state
directory. A log is a sequence of frames, each
``<u32 payload length><u32 crc32 of the payload>`` followed by the
payload (little-endian). A payload is ``<u32 header length>``, a small
JSON header naming the frame kind and its array lengths, then raw
arrays of fixed little-endian dtypes — no pickle, because these bytes
come from disk unauthenticated. Two kinds of frame:

* ``open``: the session id and parameters; ``sigma`` as int8.
* ``ingest``: the queries appended since the previous frame — row
  sizes, agents, counts (int64) and results (float64) — plus the new
  entries of the ingest idempotency map.

No frame holds anything an earlier frame holds, so a log is never
larger than the session's data; there is nothing to compact.

Write-ahead discipline: the server calls :meth:`SessionStore.save`
*before* acknowledging the request that changed the session. It
appends every frame since the session's last durable point with
``os.write`` on an ``O_APPEND`` descriptor, and a failed append is cut
back to the log's previous end. Nothing is fsynced: an acked ingest
survives a process SIGKILL, not power loss or a kernel crash.

Recovery: :meth:`SessionStore.load_all` reads each log's frames in
order, stops at the first short or CRC-bad frame and truncates the
file there (a torn tail was never acknowledged), then replays the
queries through :meth:`~repro.service.session.Session.replay` in
arrival order, so a restored session is bit-for-bit the uninterrupted
one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.service.session import Session, SessionParams

#: log file suffix; the stem is derived from the session id (``_path``)
SUFFIX = ".session.log"

_FRAME = struct.Struct("<II")  # payload length, crc32 of the payload
_HEADER = struct.Struct("<I")  # JSON header length

#: frame kind -> dtypes of the raw arrays after its JSON header
_LAYOUT = {"open": ("<i1",), "ingest": ("<i8", "<i8", "<i8", "<f8")}


def _frame(kind: str, header: dict, *arrays) -> bytes:
    arrays = [
        np.ascontiguousarray(a, dtype=dtype)
        for a, dtype in zip(arrays, _LAYOUT[kind])
    ]
    head = json.dumps(
        {"kind": kind, "lengths": [a.size for a in arrays], **header},
        separators=(",", ":"),
    ).encode("utf-8")
    payload = b"".join(
        [_HEADER.pack(len(head)), head, *(a.tobytes() for a in arrays)]
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _unframe(payload: memoryview):
    (size,) = _HEADER.unpack_from(payload)
    header = json.loads(bytes(payload[_HEADER.size:_HEADER.size + size]))
    dtypes = _LAYOUT[header["kind"]]
    lengths = header["lengths"]
    if len(lengths) != len(dtypes):
        raise ValueError(f"{header['kind']} frame with {len(lengths)} arrays")
    offset = _HEADER.size + size
    arrays = []
    for dtype, length in zip(dtypes, lengths):
        array = np.frombuffer(payload, dtype, int(length), offset)
        offset += array.nbytes
        arrays.append(array.copy())  # writable, and not pinning the file
    if offset != len(payload):
        raise ValueError("frame arrays do not fill the payload")
    return header, arrays


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class SessionStore:
    """Directory of append-only session logs."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: session id -> (the session object whose log this store last
        #: wrote or read, its durable m, its durable len(applied))
        self._durable: Dict[str, Tuple[Session, int, int]] = {}

    def _path(self, session_id: str) -> Path:
        # Session ids are client-chosen. The hex of their UTF-8 bytes
        # is injective and holds no path separator, so no two ids
        # share a log and none can escape the state directory; ids too
        # long for a filename use a prefixed digest instead.
        stem = session_id.encode("utf-8", "surrogatepass").hex()
        if len(stem) > 200:
            stem = "sha256-" + hashlib.sha256(stem.encode()).hexdigest()
        return self.root / (stem + SUFFIX)

    def save(self, session: Session) -> None:
        """Make ``session`` durable: append what its log lacks.

        A session object this store has neither written nor loaded (a
        new session, or another object for a logged id) starts its log
        over with an open frame.
        """
        known = self._durable.get(session.session_id)
        if known is not None and known[0] is session:
            data = self._ingest_frame(session, known[1], known[2])
        else:
            params = session.params
            data = _frame(
                "open",
                {
                    "version": 1,
                    "session_id": session.session_id,
                    "n": params.n,
                    "gamma": params.gamma,
                    "channel": dict(params.channel_spec),
                    "centering": params.centering,
                },
                session.truth.sigma,
            ) + self._ingest_frame(session, 0, 0)
        if data:
            flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
            if known is None or known[0] is not session:
                flags |= os.O_TRUNC
            fd = os.open(self._path(session.session_id), flags, 0o644)
            try:
                end = os.fstat(fd).st_size
                try:
                    _write_all(fd, data)
                except BaseException:
                    os.ftruncate(fd, end)  # never leave a torn frame
                    raise
            finally:
                os.close(fd)
        self._durable[session.session_id] = (
            session, session.m, len(session.applied)
        )

    @staticmethod
    def _ingest_frame(session: Session, m: int, applied: int) -> bytes:
        if session.m == m and len(session.applied) == applied:
            return b""
        new_applied = dict(list(session.applied.items())[applied:])
        return _frame(
            "ingest",
            {"applied": new_applied},
            *session.stream.rows_since(m),
        )

    def delete(self, session_id: str) -> None:
        self._durable.pop(session_id, None)
        path = self._path(session_id)
        if path.exists():
            path.unlink()

    def load(self, session_id: str) -> Optional[Session]:
        """Rebuild one session from its log; ``None`` if it has none."""
        path = self._path(session_id)
        return self._read(path) if path.exists() else None

    def load_all(self) -> Dict[str, Session]:
        """Rebuild every logged session (server start / restart).

        A log without one complete frame (its open was never
        acknowledged) is removed. A state directory written in the
        earlier JSON record format is rejected, never silently skipped.
        """
        for path in sorted(self.root.glob("*.session.json")):
            raise ValueError(
                f"{path} is a session record in the JSON format this "
                "service no longer reads; its sessions would be lost. "
                "Serve from a fresh state directory."
            )
        sessions: Dict[str, Session] = {}
        for path in sorted(self.root.glob("*" + SUFFIX)):
            session = self._read(path)
            if session is not None:
                sessions[session.session_id] = session
        return sessions

    def _read(self, path: Path) -> Optional[Session]:
        data = path.read_bytes()
        frames = []
        pos = 0
        while pos + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, pos)
            end = pos + _FRAME.size + length
            payload = memoryview(data)[pos + _FRAME.size:end]
            if end > len(data) or zlib.crc32(payload) != crc:
                break
            frames.append(payload)
            pos = end
        if pos < len(data):
            os.truncate(path, pos)  # a torn tail was never acknowledged
        if not frames:
            path.unlink()
            return None
        try:
            header, (sigma,) = _unframe(frames[0])
            if header["kind"] != "open" or header["version"] != 1:
                raise ValueError("the log does not start with a v1 open frame")
            session = Session(
                str(header["session_id"]),
                SessionParams.create(
                    header["n"],
                    header["gamma"],
                    header["channel"],
                    header["centering"],
                ),
                sigma,
            )
            if self._path(session.session_id) != path:
                raise ValueError(
                    f"the log holds session {session.session_id!r}"
                )
            for payload in frames[1:]:
                header, (sizes, agents, counts, results) = _unframe(payload)
                rows_match = sizes.size == results.size and (
                    (sizes >= 0).all() and sizes.sum() == agents.size
                )
                if header["kind"] != "ingest" or not rows_match:
                    raise ValueError(f"malformed {header['kind']} frame")
                session.replay(
                    sizes, agents, counts, results, header["applied"]
                )
        except Exception as exc:
            # CRC-valid but unreadable: not a torn write, so refuse
            # rather than drop acknowledged data.
            raise ValueError(f"{path}: corrupt session log: {exc}") from exc
        self._durable[session.session_id] = (
            session, session.m, len(session.applied)
        )
        return session


__all__ = ["SessionStore"]
