"""In-memory span recorder and layer hooks for traced benchmark runs.

The benchmark measures each layer of the program from outside it:
:func:`install` wraps the entry points of every layer (public functions
and methods, plus the few private seams that are a layer's only
boundary, such as the chunk runner every sweep backend shares) with
span-recording wrappers. Nothing under ``src/`` is edited.

Each process keeps its spans in memory and writes them once, at exit,
as Chrome trace-event JSON (``trace-<pid>.json``, open it in Perfetto or
chrome://tracing). The file also carries the process's aggregates —
self time per layer, inclusive time per named metric, counters and
samples — which :func:`merge` combines across the benchmark process,
its pool or socket workers, and the decode server.

A layer's self time is its span's duration minus the part covered by
child spans on the same thread. Coroutine hooks record counts only:
their wall time interleaves with other tasks on the loop, so it is not
a layer's busy time.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: environment variable naming the directory child processes write
#: their trace files into; set only for traced runs
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: file whose presence in the trace directory arms child tracers
ARMED_FILE = "armed"

#: cap on Chrome events kept per process (aggregates are never capped)
MAX_EVENTS = 200_000


class Tracer:
    """Spans, counters and samples of one process."""

    def __init__(self, armed_path=None) -> None:
        self.enabled = True
        #: a child process records nothing until this file exists, so
        #: the warm-up before the measured rounds stays out of its totals
        self.armed_path = armed_path
        self._armed = armed_path is None
        self._checked = 0.0
        self.pid = os.getpid()
        self.events: list = []
        self.self_ns = defaultdict(int)  # layer -> self time
        self.incl_ns = defaultdict(int)  # metric -> inclusive time
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.sets = defaultdict(set)
        self.marks: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def on(self) -> bool:
        if not self.enabled:
            return False
        if not self._armed:
            now = time.monotonic()
            if now - self._checked > 0.1:
                self._checked = now
                self._armed = os.path.exists(self.armed_path)
        return self._armed

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> list:
        frame = [layer, time.perf_counter_ns(), 0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list, name: str, metric=None) -> int:
        stop = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        layer, start, child = frame
        dur = stop - start
        with self._lock:
            self.self_ns[layer] += dur - child
            if metric is not None:
                self.incl_ns[metric] += dur
            if len(self.events) < MAX_EVENTS:
                self.events.append(
                    {
                        "name": name,
                        "cat": layer,
                        "ph": "X",
                        "ts": start / 1e3,
                        "dur": dur / 1e3,
                        "pid": self.pid,
                        "tid": threading.get_ident(),
                    }
                )
        if stack:
            stack[-1][2] += dur
        self._local.last_ms = dur / 1e6
        return dur

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].append(value)

    def add(self, name: str, item) -> None:
        with self._lock:
            self.sets[name].add(item)

    def reset(self) -> None:
        """Drop everything recorded so far (e.g. warm-up work)."""
        with self._lock:
            self.events.clear()
            self.self_ns.clear()
            self.incl_ns.clear()
            self.counters.clear()
            self.samples.clear()
            self.sets.clear()
            self.marks.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_ns": dict(self.self_ns),
                "incl_ns": dict(self.incl_ns),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "sets": {k: sorted(v) for k, v in self.sets.items()},
            }

    def dump(self, directory) -> None:
        """Write the Chrome trace plus this process's aggregates."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"trace-{self.pid}.json")
        with self._lock:
            events = list(self.events)
        with open(path + ".tmp", "w") as fh:
            json.dump(
                {"traceEvents": events, "perfbench": self.snapshot()}, fh
            )
        os.replace(path + ".tmp", path)


# -- hook table ---------------------------------------------------------


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays if a is not None)


def _csr_bytes(op) -> int:
    a = getattr(op, "a", None)
    if a is None or not hasattr(a, "indptr"):
        return 0
    return _nbytes(a.data, a.indices, a.indptr)


def _post_graph(tr, args, kwargs, result):
    # Fingerprint from the edge arrays' ends: graphs drawn from different
    # generator states differ there almost surely, and hashing whole
    # arrays would dominate the tracing overhead.
    tr.count("core.batch.graphs_sampled")
    digest = hashlib.blake2b(digest_size=8)
    for attr in ("indptr", "agents", "counts"):
        arr = getattr(result, attr, None)
        if arr is not None:
            raw = memoryview(np.ascontiguousarray(arr)).cast("B")
            digest.update(raw[:4096])
            digest.update(raw[-4096:])
    tr.add("graphs", digest.hexdigest())


def _post_adjoint(tr, args, kwargs, result):
    # adjoint_posterior(op, denoiser, sigma, z, layout, damping): one
    # CSR pass plus z read, sigma read and written (computed, not
    # measured: a CPU run has no bandwidth counter)
    tr.count("amp.kernels.phase_calls")
    tr.count(
        "amp.kernels.bytes_computed",
        _csr_bytes(_arg(args, kwargs, 1, "op"))
        + _nbytes(_arg(args, kwargs, 4, "z"))
        + 2 * _nbytes(_arg(args, kwargs, 3, "sigma")),
    )


def _post_forward(tr, args, kwargs, result):
    # forward_residual(op, y, sigma_new, z, onsager, layout, damping)
    tr.count("amp.kernels.phase_calls")
    tr.count(
        "amp.kernels.bytes_computed",
        _csr_bytes(_arg(args, kwargs, 1, "op"))
        + _nbytes(_arg(args, kwargs, 2, "y"), _arg(args, kwargs, 3, "sigma_new"))
        + 2 * _nbytes(_arg(args, kwargs, 4, "z")),
    )


def _post_operator(tr, args, kwargs, result):
    a = _arg(args, kwargs, 1, "a")
    tr.count("amp.batch_amp.stack_nnz", int(getattr(a, "nnz", 0)))


def _post_iterate(tr, args, kwargs, result):
    tr.count("amp.amp.iterations", int(result[1].sum()))


def _post_arena(tr, args, kwargs, result):
    tr.count("experiments.shm.arena_bytes", int(args[0].size))


def _post_save(tr, args, kwargs, result):
    try:
        tr.count("experiments.storage.save_bytes", os.path.getsize(result))
    except (OSError, TypeError):
        pass


def _post_decode_batch(tr, args, kwargs, result):
    tr.sample("service.batcher.batch_size", len(_arg(args, kwargs, 0, "jobs")))


def _post_store_save(tr, args, kwargs, result):
    # save(session): the session's size tells the growth per session
    tr.sample("service.store.save_ms", tr._local.last_ms)
    tr.sample("service.store.save_by_m",
              [int(_arg(args, kwargs, 1, "session").m), tr._local.last_ms])


def _post_ingest(tr, args, kwargs, result):
    tr.sample("service.session.ingest_ms", tr._local.last_ms)


def _pre_submit(tr, args, kwargs):
    session = args[1]
    tr.marks[session.session_id] = time.perf_counter_ns()


def _post_snapshot(tr, args, kwargs, result):
    start = tr.marks.pop(args[0].session_id, None)
    if start is not None:
        tr.sample("service.batcher.queue_wait_ms",
                  (time.perf_counter_ns() - start) / 1e6)


#: (module, attribute path, layer, inclusive-time metric, post hook).
#: ``kind`` is "span" (timed, nests), "count" (counted, untimed) or
#: "async" (coroutine: counted, untimed).
HOOKS = [
    # core.batch: truth, graph and prefix-stream sampling, trial runner
    ("repro.core.ground_truth", "sample_ground_truth", "core.batch", "core.batch.sample_truth_s", None),
    ("repro.core.batch", "sample_pooling_graph_batch", "core.batch", "core.batch.sample_graph_s", _post_graph),
    ("repro.core.batch", "MeasurementStream.next_block", "core.batch", "core.batch.stream_grow_s", None),
    ("repro.core.batch", "BatchTrialRunner.run_trials_seeded", "core.batch", None, None),
    ("repro.core.batch", "BatchTrialRunner.required_queries", "core.batch", None, None),
    # core.noise: the channel
    ("repro.core.noise", "NoiselessChannel.measure", "core.noise", "core.noise.measure_s", None),
    ("repro.core.noise", "NoisyChannel.measure", "core.noise", "core.noise.measure_s", None),
    ("repro.core.noise", "GaussianQueryNoise.measure", "core.noise", "core.noise.measure_s", None),
    # greedy scoring: the incremental decoder, and the batch engine's
    # stacked top-k decode and certificate-pruned first-success scan
    ("repro.core.incremental", "IncrementalDecoder.ingest_query", "core.incremental", "core.incremental.score_s", None),
    ("repro.core.incremental", "IncrementalDecoder.separation", "core.incremental", "core.incremental.score_s", None),
    ("repro.core.incremental", "IncrementalDecoder.reconstruction", "core.incremental", "core.incremental.score_s", None),
    ("repro.core.scores", "decode_top_k_stacked", "core.incremental", "core.incremental.score_s", None),
    ("repro.core.batch", "_SuccessScanner.scan", "core.incremental", "core.incremental.score_s", None),
    # amp.batch_amp: block stacking and the batched drivers
    ("repro.amp.batch_amp", "run_amp_trials", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "run_amp_prepared", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "required_queries_amp", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "required_queries_amp_replayed", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "sample_amp_cell_chunk", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "sample_required_stream_chunk", "amp.batch_amp", None, None),
    ("repro.amp.batch_amp", "decode_prefix_batch", "amp.batch_amp", None, _post_decode_batch),
    ("repro.amp.kernels", "CSRStackOperator.__init__", "amp.batch_amp", None, _post_operator),
    # amp.kernels: the two fused phases
    ("repro.amp.kernels", "AMPKernel.adjoint_posterior", "amp.kernels", "amp.kernels.adjoint_posterior_s", _post_adjoint),
    ("repro.amp.kernels", "AMPKernel.forward_residual", "amp.kernels", "amp.kernels.forward_residual_s", _post_forward),
    # amp.amp
    ("repro.amp.amp", "iterate_amp", "amp.amp", None, _post_iterate),
    ("repro.amp.amp", "run_amp", "amp.amp", None, None),
    # experiments.runner: fold/merge
    ("repro.experiments.runner", "fold_required_queries", "experiments.runner", "experiments.runner.fold_s", None),
    ("repro.experiments.runner", "fold_success_curve", "experiments.runner", "experiments.runner.fold_s", None),
    # process dispatch: the executor, the shared chunk runner, the arena
    ("repro.experiments.scheduler", "SweepExecutor.run_outcomes", "experiments.scheduler", None, None),
    ("repro.experiments.shm", "SweepArena.__init__", "experiments.scheduler", None, _post_arena),
    # sweep persistence
    ("repro.experiments.checkpoint", "SweepCheckpoint.record_chunk", "experiments.checkpoint", None, None),
    ("repro.experiments.checkpoint", "SweepCheckpoint.record_cell", "experiments.checkpoint", None, None),
    ("repro.experiments.storage", "save_json_atomic", "experiments.storage", "experiments.storage.save_s", _post_save),
    # service layers
    ("repro.service.session", "Session.ingest", "service.session", "service.session.ingest_s", _post_ingest),
    ("repro.service.session", "Session.snapshot_stream", "service.session", None, _post_snapshot),
    ("repro.service.store", "SessionStore.save", "service.store", "service.store.save_s", _post_store_save),
]

#: chunk entry points of every sweep backend; only the outermost one on
#: a thread counts as a chunk
CHUNK_HOOKS = [
    ("repro.experiments.scheduler", "_run_chunk"),
    ("repro.experiments.shm", "shm_chunk"),
    ("repro.experiments.shm", "shm_graph_chunk"),
]

#: modules whose frames go through a module-level ``pickle``; a counting
#: proxy measures frame payload bytes where they are serialized
WIRE_MODULES = [
    ("repro.experiments.worker", "experiments.worker"),
    ("repro.service.wire", "service.wire"),
]


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(orig, wrapped) -> None:
    """Point every loaded ``repro`` module's alias of ``orig`` at ``wrapped``."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _span_wrapper(tr, fn, layer, metric, post):
    label = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on():
            return fn(*args, **kwargs)
        frame = tr.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end(frame, label, metric)
        if post is not None:
            post(tr, args, kwargs, result)
        return result

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _chunk_wrapper(tr, fn):
    label = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local = tr._local
        if not tr.on() or getattr(local, "in_chunk", False):
            return fn(*args, **kwargs)
        local.in_chunk = True
        frame = tr.begin("experiments.scheduler")
        try:
            return fn(*args, **kwargs)
        finally:
            dur = tr.end(frame, label)
            local.in_chunk = False
            tr.sample("experiments.scheduler.chunk_ms", dur / 1e6)
            tr.count("experiments.scheduler.chunk_ns", dur)

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _reply_wrapper(tr, fn):
    """Socket worker poll loop: time beyond the chunk it waits on."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on():
            return fn(*args, **kwargs)
        before = tr.counters.get("experiments.scheduler.chunk_ns", 0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            chunk = tr.counters.get("experiments.scheduler.chunk_ns", 0) - before
            tr.count("experiments.worker.poll_overhead_ns", max(dur - chunk, 0))

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _count_wrapper(tr, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.on():
            tr.count(counter)
        return fn(*args, **kwargs)

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _async_wrapper(tr, fn, counter, pre=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if tr.on():
            tr.count(counter)
            if pre is not None:
                pre(tr, args, kwargs)
        return await fn(*args, **kwargs)

    wrapper.__perfbench_orig__ = fn
    return wrapper


class _CountingPickle:
    """Module proxy for ``pickle`` that counts serialized frame bytes."""

    def __init__(self, tr, prefix):
        self._tr = tr
        self._prefix = prefix

    def dumps(self, obj, *args, **kwargs):
        payload = pickle.dumps(obj, *args, **kwargs)
        if self._tr.on():
            self._tr.count(f"{self._prefix}.bytes", len(payload))
        return payload

    def loads(self, data, *args, **kwargs):
        if self._tr.on():
            self._tr.count(f"{self._prefix}.bytes_in", len(data))
        return pickle.loads(data, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(pickle, name)


def _patch(owner, attr, wrapped, orig, rebind=True):
    setattr(owner, attr, wrapped)
    if rebind:
        _rebind(orig, wrapped)


def install(tr: Tracer) -> None:
    """Wrap every layer entry point of the already importable program."""
    import importlib

    import repro  # noqa: F401 - loads the package and its re-exports

    modules = {
        name: importlib.import_module(name)
        for name in {h[0] for h in HOOKS}
        | {h[0] for h in CHUNK_HOOKS}
        | {m for m, _ in WIRE_MODULES}
        | {"repro.service.batcher", "repro.service.server"}
    }
    for module, path, layer, metric, post in HOOKS:
        owner, attr = _resolve(modules[module], path)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if hasattr(fn, "__perfbench_orig__"):
            continue
        wrapped = _span_wrapper(tr, fn, layer, metric, post)
        _patch(owner, attr, wrapped, fn, rebind=not isinstance(owner, type))
        if isinstance(owner, type):
            # kernel subclasses that override a phase get their own hook
            for sub in owner.__subclasses__():
                own = sub.__dict__.get(attr)
                if own is not None and not hasattr(own, "__perfbench_orig__"):
                    setattr(sub, attr, _span_wrapper(tr, own, layer, metric, post))
    for module, path in CHUNK_HOOKS:
        owner, attr = _resolve(modules[module], path)
        fn = getattr(owner, attr)
        if not hasattr(fn, "__perfbench_orig__"):
            _patch(owner, attr, _chunk_wrapper(tr, fn), fn)
    # every sweep-wire frame is sent once, by the driver or a worker
    worker = modules["repro.experiments.worker"]
    fn = worker.send_message
    if not hasattr(fn, "__perfbench_orig__"):
        _patch(worker, "send_message",
               _count_wrapper(tr, fn, "experiments.worker.frames"), fn)
    fn = worker._reply_while_computing
    if not hasattr(fn, "__perfbench_orig__"):
        _patch(worker, "_reply_while_computing", _reply_wrapper(tr, fn), fn)
    wire = modules["repro.service.wire"]
    for name, counter in (("read_frame", "service.wire.frames"),
                          ("write_frame", "service.wire.frames")):
        fn = getattr(wire, name)
        if not hasattr(fn, "__perfbench_orig__"):
            _patch(wire, name, _async_wrapper(tr, fn, counter), fn)
    batcher = modules["repro.service.batcher"].DecodeBatcher
    fn = batcher.__dict__["submit"]
    if not hasattr(fn, "__perfbench_orig__"):
        batcher.submit = _async_wrapper(
            tr, fn, "service.batcher.submitted", pre=_pre_submit
        )
    for module, prefix in WIRE_MODULES:
        mod = modules[module]
        if not isinstance(mod.pickle, _CountingPickle):
            mod.pickle = _CountingPickle(tr, prefix)


# -- process-wide tracer for child processes ----------------------------

_PROCESS_TRACER = None


def process_tracer(armed_path=None) -> Tracer:
    """The tracer of this process, created and installed on first use."""
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:
        _PROCESS_TRACER = Tracer(armed_path)
        install(_PROCESS_TRACER)
    return _PROCESS_TRACER


def _exit_on_sigterm(signum, frame):
    raise SystemExit(0)


def bootstrap_child(directory) -> None:
    """Trace this (worker or server) process and dump at exit.

    Socket workers are stopped with SIGTERM, which by default ends the
    process without running exit handlers; turning it into SystemExit
    lets the dump run.
    """
    import signal

    tr = process_tracer(os.path.join(directory, ARMED_FILE))
    atexit.register(tr.dump, directory)
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _exit_on_sigterm)


# -- aggregation --------------------------------------------------------


def merge(snapshots) -> dict:
    """Combine per-process aggregates into one."""
    out = {
        "self_ns": defaultdict(int),
        "incl_ns": defaultdict(int),
        "counters": defaultdict(float),
        "samples": defaultdict(list),
        "sets": defaultdict(set),
        "processes": 0,
    }
    for snap in snapshots:
        out["processes"] += 1
        for key in ("self_ns", "incl_ns", "counters"):
            for name, value in snap[key].items():
                out[key][name] += value
        for name, values in snap["samples"].items():
            out["samples"][name].extend(values)
        for name, values in snap["sets"].items():
            out["sets"][name].update(values)
    return out


def load_dir(directory) -> list:
    """Per-process aggregates written by child processes."""
    snaps = []
    if not os.path.isdir(directory):
        return snaps
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("trace-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                snaps.append(json.load(fh)["perfbench"])
    return snaps
