"""Sweep-scoped shared-memory dispatch arena for the process backend.

Through the pool pipe, the process backend pickles each chunk's whole
payload with every submission: the cell spec, the kind/m tag and —
dominating the message — the chunk's tuple of
``numpy.random.SeedSequence`` objects (~150 bytes each, tens to
hundreds per chunk), so dispatch bytes scale with spec size and chunk
width.

This module is the other payload encoding of the same dispatch loop
(:meth:`~repro.experiments.scheduler.SweepExecutor._execute_process`).
At sweep start the driver writes every cell's pickled spec and every
task's pickled seed tuple into **one** ``multiprocessing.shared_memory``
segment (:class:`SweepArena`); each chunk submission then ships only

    (arena name, spec (offset, length), seeds (offset, length), kind, m)

— a near-constant 62 bytes per chunk regardless of spec size or
chunk width (measured in the ``shm_dispatch_bytes`` benchmark case).
Workers attach the segment once (cached across chunks), slice the
referenced bytes, and unpickle — the same objects the pipe would have
delivered, so results are bit-identical by construction.

Eligible AMP chunks go one step further: the driver samples and
stacks their **graph buffers** once per sweep — block-diagonal CSR
triples for fixed-m cells, fully grown measurement-stream arrays for
required-m cells — and publishes the raw arrays into the same arena
(:func:`shm_graph_chunk` / :func:`read_array`). Workers attach
zero-copy read-only views and decode directly on them: no worker ever
resamples a graph or re-stacks a CSR, and the chunk submission ships
only ``(ref, dtype, shape)`` descriptors. Ownership rule: the driver
publishes, workers attach strictly read-only, and the driver unlinks
in its ``finally`` — exactly the lifecycle below.

Lifecycle
---------
The arena lives exactly as long as one ``SweepExecutor`` run: the
driver creates it, submits the sweep, and unlinks it in a ``finally``
block. Two guards keep segments from leaking:

* every created arena registers in a module-level table that an
  ``atexit`` hook disposes — a driver crash (or an unhandled sweep
  error) still unlinks its segments on interpreter exit;
* workers attach with the resource tracker disarmed (see
  :func:`_attach`): the tracker otherwise assumes attach-implies-own
  and unlinks the segment when the *first* worker exits, corrupting
  the sweep for everyone else (cpython#82300; Python 3.13 grew
  ``track=False`` for exactly this).

Select the arena per call (``shm=``, on :class:`~repro.experiments.
scheduler.SweepPlan` ``.run`` / :class:`~repro.experiments.scheduler.
SweepExecutor`) or via the ``REPRO_SHM`` environment variable. Only
the ``process`` backend consults it: the serial backend has no
dispatch to shrink, and socket workers live on other hosts where a
local shared-memory name means nothing.
"""

from __future__ import annotations

import atexit
import os
import pickle
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils import config

#: environment variable consulted when ``shm`` is not given explicitly
SHM_ENV = "REPRO_SHM"

#: a blob's location inside an arena: ``(offset, length)``
BlobRef = Tuple[int, int]

#: worker-side attach cache size, in segments. A worker only ever
#: needs the arenas of concurrently running sweeps in its driver —
#: normally one — so a handful of slots suffices; eviction closes the
#: mapping (never unlinks), and a re-needed arena simply re-attaches.
_ATTACH_CACHE_LIMIT = 8

#: worker-side decoded-spec cache (see :func:`read_spec`)
_SPEC_CACHE_LIMIT = 1024


def resolve_shm(shm: Optional[bool] = None) -> bool:
    """Resolve an ``shm`` request: explicit flag, else ``REPRO_SHM``.

    The environment route accepts the standard switch spellings
    (``1/true/yes/on`` / ``0/false/no/off``, case-insensitive, via
    :func:`repro.utils.config.env_flag`); unset disables the arena and
    anything unrecognized raises rather than silently disabling.
    """
    if shm is not None:
        return bool(shm)
    return config.env_flag(SHM_ENV)


# -- driver side --------------------------------------------------------

#: arenas created by this process that are still linked; the atexit
#: hook disposes whatever a crashed/errored sweep left behind
_live_arenas: Dict[str, "SweepArena"] = {}


def _blob_view(blob) -> memoryview:
    """Flat byte view of a blob: ``bytes``, ``memoryview`` or ndarray.

    Arrays are viewed (not serialized) — the arena write is one
    memcpy of the raw buffer, and :func:`read_array` rebuilds the
    ndarray on the worker side without any copy at all.
    """
    if isinstance(blob, np.ndarray):
        return memoryview(np.ascontiguousarray(blob)).cast("B")
    return memoryview(blob).cast("B")


class SweepArena:
    """One sweep's dispatch payloads in a single shared-memory segment.

    Built from a list of blobs — ``bytes`` (pickled cell specs and
    seed tuples) or raw ``numpy`` arrays (driver-prepared graph
    buffers, written as one memcpy each); ``refs[i]`` is the
    ``(offset, length)`` of ``blobs[i]``, ready to ship in a chunk
    submission. ``align`` pads blob offsets up to the given boundary
    (the default 1 packs blobs back to back; array-carrying arenas use
    64 so every attached view is cache-line aligned). The arena is
    driver-owned: :meth:`dispose` (or the atexit guard) closes the
    local mapping and unlinks the segment name; workers only ever
    attach and close.
    """

    def __init__(self, blobs: Sequence[object], *, align: int = 1):
        views = [_blob_view(blob) for blob in blobs]
        offsets: List[int] = []
        offset = 0
        for view in views:
            offset = -(-offset // align) * align
            offsets.append(offset)
            offset += len(view)
        total = offset
        # Zero-size segments are invalid; an empty plan still gets a
        # (one-byte) arena so the dispatch path stays uniform.
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, total))
        self.name = self._shm.name
        self.size = total
        self.refs: List[BlobRef] = []
        for view, offset in zip(views, offsets):
            self._shm.buf[offset : offset + len(view)] = view
            self.refs.append((offset, len(view)))
        _live_arenas[self.name] = self

    @classmethod
    def from_payloads(cls, payloads: Sequence[object]) -> "SweepArena":
        """Pickle ``payloads`` and lay them out in one new arena."""
        return cls(
            [pickle.dumps(p, pickle.HIGHEST_PROTOCOL) for p in payloads]
        )

    def dispose(self) -> None:
        """Close the driver's mapping and unlink the segment name.

        Idempotent: the atexit guard may run after a normal disposal.
        Workers that are still attached keep their mappings alive until
        they close them (POSIX unlink semantics); no new attaches can
        happen afterwards.
        """
        if _live_arenas.pop(self.name, None) is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass

    def __enter__(self) -> "SweepArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()


def _dispose_leaked_arenas() -> None:  # pragma: no cover - exit hook
    for arena in list(_live_arenas.values()):
        arena.dispose()


atexit.register(_dispose_leaked_arenas)


# -- worker side --------------------------------------------------------

_attached: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach (or return the cached mapping of) the named segment.

    The resource tracker must not adopt the segment: on Python < 3.13
    every attach registers it for unlink-on-process-exit, so the first
    pool worker to retire would destroy the arena under the rest of
    the sweep. ``track=False`` (3.13+) skips the registration; older
    interpreters get ``register`` suppressed around the attach — not
    ``unregister`` after it, because pool processes share the driver's
    tracker daemon, so a worker-side unregister would strip the
    *driver's* registration (breaking its crash cleanup and making the
    final unlink warn). The driver remains the sole owner of the
    unlink.
    """
    cached = _attached.get(name)
    if cached is not None:
        _attached.move_to_end(name)
        return cached
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    _attached[name] = shm
    _attached.move_to_end(name)
    while len(_attached) > _ATTACH_CACHE_LIMIT:
        _, old = _attached.popitem(last=False)
        old.close()
    return shm


def read_blob(name: str, ref: BlobRef) -> bytes:
    """Copy the referenced bytes out of the named arena."""
    offset, length = ref
    return bytes(_attach(name).buf[offset : offset + length])


#: decoded cell specs, keyed by ``(arena, offset, length)`` — a spec is
#: read by every chunk of its cell, so decode it once per worker
_worker_specs: "OrderedDict[Tuple[str, int, int], Dict[str, object]]" = (
    OrderedDict()
)


def read_spec(name: str, ref: BlobRef) -> Dict[str, object]:
    """Unpickle (with per-worker caching) a cell spec from an arena."""
    key = (name, ref[0], ref[1])
    spec = _worker_specs.get(key)
    if spec is not None:
        _worker_specs.move_to_end(key)
        return spec
    spec = pickle.loads(read_blob(name, ref))
    _worker_specs[key] = spec
    while len(_worker_specs) > _SPEC_CACHE_LIMIT:
        _worker_specs.popitem(last=False)
    return spec


def read_array(
    name: str, ref: BlobRef, dtype: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """Zero-copy read-only ndarray view of an arena blob.

    The returned array aliases the shared segment directly
    (``np.frombuffer`` on the attached mapping — no bytes are copied)
    and is marked non-writable: workers attach graph buffers strictly
    read-only; the driver is the only writer and the only unlinker.
    """
    offset, length = ref
    dt = np.dtype(dtype)
    arr = np.frombuffer(
        _attach(name).buf, dtype=dt, count=length // dt.itemsize,
        offset=offset,
    )
    arr.flags.writeable = False
    return arr.reshape(shape)


def shm_chunk(name: str, spec_ref: BlobRef, seeds_ref: BlobRef, kind: str, m):
    """Pool-worker entry point: resolve arena refs, run the chunk.

    The arena counterpart of a pipe submission of
    :func:`~repro.experiments.scheduler._run_chunk`: spec and seeds
    are read from the arena instead of the pipe, then the same shared
    chunk runner executes them.
    """
    from repro.experiments.scheduler import _run_chunk

    spec = read_spec(name, spec_ref)
    seeds = pickle.loads(read_blob(name, seeds_ref))
    return _run_chunk(spec, kind, m, seeds)


def shm_graph_chunk(
    name: str,
    spec_ref: BlobRef,
    prep: Dict[str, Tuple[BlobRef, str, Tuple[int, ...]]],
    kind: str,
    m,
):
    """Pool-worker entry point for driver-prepared AMP chunks.

    ``prep`` maps array names to ``(ref, dtype, shape)`` descriptors
    of graph buffers the driver published once per sweep (stacked CSR
    triples for fixed-m cells, fully grown measurement-stream arrays
    for required-m cells). Every array attaches as a zero-copy
    read-only view of the arena — the worker never resamples graphs,
    never re-stacks CSR blocks, and the submission carried only refs.
    """
    from repro.experiments import parallel
    from repro.experiments.scheduler import CELL_CURVE, CELL_REQUIRED

    spec = read_spec(name, spec_ref)
    arrays = {
        key: read_array(name, ref, dtype, shape)
        for key, (ref, dtype, shape) in prep.items()
    }
    if kind == CELL_CURVE:
        return parallel._fixed_m_prepared_chunk(spec, int(m), arrays)
    if kind == CELL_REQUIRED:
        return parallel._required_prepared_chunk(spec, arrays)
    raise ValueError(f"unknown cell kind {kind!r}")


__all__ = [
    "SHM_ENV",
    "SweepArena",
    "resolve_shm",
    "read_blob",
    "read_spec",
    "read_array",
    "shm_chunk",
    "shm_graph_chunk",
]
