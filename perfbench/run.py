"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload figure_sweeps --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice, untraced then traced, and
reports the per-layer metrics plus the tracing overhead; Chrome traces
of every process are kept under ``.perfbench_run/traces/``. The metric
names and units are those of ``BENCHMARK.json``. The last stdout line
is the result object; the lines before it give sample counts and the
output digest. The exit code is 0 only when the correctness gate
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import gate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-tests")
    return ap.parse_args(argv)


def prepare_environment(root, run_root, traced):
    """Environment every process of this run inherits."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_AUTH_TOKEN"] = "perfbench"
    src = os.path.join(root, "src")
    paths = [src]
    if traced:
        paths.insert(0, os.path.join(HERE, "boot"))
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = os.path.join(run_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    if src not in sys.path:
        sys.path.insert(0, src)


def info(message):
    print(f"perfbench: {message}", flush=True)


# -- sweeps ---------------------------------------------------------------


#: leading rounds the output digest covers; every run measures at least
#: this many, so a faster program prints the same digest
DIGEST_ROUNDS = 2


def sweep_rounds(work, seed, budget, min_rounds):
    """Measured rounds until the next one would overrun ``budget``.

    Round ``i`` sweeps the plan of ``round_seed(seed, i)``, so the
    rounds of a run draw fresh inputs and untraced and traced halves
    sweep the same sequence.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        plan_seed = round_seed(seed, len(rounds))
        plan = work.build_plan(plan_seed)
        elapsed, raw = work.round(plan)
        rounds.append({"elapsed": elapsed, "raw": raw, "plan": plan,
                       "seed": plan_seed})
        spent = time.perf_counter() - start
        mean = spent / len(rounds)
        if len(rounds) >= min_rounds and spent + mean > budget:
            return rounds


def round_seed(seed, index):
    import workloads  # imported once the program is on sys.path

    return workloads.round_seed(seed, index)


def sweep_gate(work, run, rounds):
    """Serial-reference checks on a seeded sample of every round's
    trials, and the digest of the leading rounds' outputs."""
    limits = run.size["gate_per_round"]
    bad, checked = [], 0
    for i, r in enumerate(rounds):
        cells = r["plan"]._cells
        picks = gate.sample_trials(cells, r["seed"], 1, limits)
        bad += [f"round {i}: {line}"
                for line in gate.check_sweep(cells, r["raw"], picks)]
        checked += len(picks)
    digest = gate.digest([r["raw"] for r in rounds[:DIGEST_ROUNDS]])
    return bad, digest, checked


def timed_sweep(wl, run):
    work = wl.WORKLOADS[run.workload](run)
    setups = []
    for i in range(run.size["setups"]):
        t0 = time.perf_counter()
        work.start()
        setups.append(time.perf_counter() - t0)
        if i < run.size["setups"] - 1:
            work.stop()
    try:
        rounds = sweep_rounds(work, run.seed, run.seconds, min_rounds=3)
        rss = wl.peak_rss_mib()
    finally:
        work.stop()
    bad, digest, checked = sweep_gate(work, run, rounds)
    # A sweep is the workload's only request kind: its per-sweep
    # latency is reported under both the ingest and decode names.
    round_ms = [r["elapsed"] * 1e3 for r in rounds]
    trials = sum(work.trials(r["plan"]) for r in rounds)
    info(f"{run.workload} seed={run.seed} rounds={len(rounds)} "
         f"samples sweep={len(round_ms)} trials={trials} "
         f"gate_checked={checked}")
    info(f"digest {run.workload} seed={run.seed} rounds={DIGEST_ROUNDS} "
         f"sha256={digest}")
    metrics = {
        "setup_s": statistics.median(setups),
        # the mean: rounds sweep different draws, and the mean weighs
        # each by its work
        "sweep_s": statistics.fmean([r["elapsed"] for r in rounds]),
        "ingest_p50_ms": wl.percentile(round_ms, 50),
        "ingest_p90_ms": wl.percentile(round_ms, 90),
        "decode_p50_ms": wl.percentile(round_ms, 50),
        "decode_p90_ms": wl.percentile(round_ms, 90),
        "amp_share": 1.0,
        "ok_share": 1.0,
        "peak_rss_mib": rss,
    }
    return bad, trials, 0, metrics


def traced_sweep(wl, run, trace_dir):
    work = wl.WORKLOADS[run.workload](run)
    half = run.seconds / 2
    work.start()
    try:
        plain = sweep_rounds(work, run.seed, half, min_rounds=2)
    finally:
        work.stop()
    tr = enable_tracing(run, trace_dir)
    work.start()
    tr.reset()
    arm(trace_dir)
    try:
        traced = sweep_rounds(work, run.seed, half, min_rounds=2)
    finally:
        work.stop()
    tr.enabled = False
    tr.dump(trace_dir)
    bad, digest, _ = sweep_gate(work, run, plain)
    bad += sweep_gate(work, run, traced)[0]
    info(f"digest {run.workload} seed={run.seed} rounds={DIGEST_ROUNDS} "
         f"sha256={digest}")
    agg = tracer.merge(tracer.load_dir(trace_dir))
    traced_s = [r["elapsed"] for r in traced]
    stats = work.last_stats[-len(traced):]
    plain_s = [r["elapsed"] for r in plain[:len(traced)]]
    extra = {
        "experiments.worker.speculated":
            sum(s.get("speculated", 0) for s in stats) / len(traced),
        "experiments.worker.reconnects":
            sum(s.get("reconnects", 0) for s in stats) / len(traced),
        "loadgen.send_lag_p90_ms": 0.0,
        # both halves sweep the same leading rounds; compare like with like
        "trace.overhead":
            sum(traced_s[:len(plain_s)]) / sum(plain_s),
    }
    metrics = wl.layer_metrics(agg, len(traced), sum(traced_s) * 1e9,
                               work.workers, extra)
    info(f"{run.workload} traced rounds={len(traced)} untraced rounds="
         f"{len(plain)} processes={agg['processes']} traces={trace_dir}")
    return bad, sum(work.trials(r["plan"]) for r in plain + traced), 0, metrics


# -- service --------------------------------------------------------------


def serve_gate(wl, work, run, sessions, records):
    import numpy as np
    import repro

    rng = np.random.default_rng([run.seed, 11])
    ids = sorted(sessions)
    picks = [ids[i] for i in rng.choice(len(ids), size=min(
        run.size["serve"]["verify"], len(ids)), replace=False)]
    bad = gate.check_sessions(
        sessions, wl.serve_responses(records), picks,
        work.cfg["n"], work.cfg["gamma"], repro.ZChannel(0.1),
    )
    if wl.loadgen.backlog(records):
        bad.append("send lag kept rising: growing backlog, latencies invalid")
    return bad, len(picks)


def freeze_inputs():
    """Exempt the generated inputs from garbage collection.

    The pre-generated query lists are millions of objects alive for the
    whole run; without this, collections that scan them stall the load
    generator and show up as server latency.
    """
    import gc

    gc.collect()
    gc.freeze()


def timed_serve(wl, run):
    work = wl.ServeOpenLoop(run)
    sessions, blocks = work.make_sessions(run.seed, work.session_count(run.seconds))
    freeze_inputs()
    setups = []
    for i in range(run.size["setups"]):
        t0 = time.perf_counter()
        work.start(sessions)
        setups.append(time.perf_counter() - t0)
        if i < run.size["setups"] - 1:
            work.stop()
    try:
        records = work.round(sessions, blocks)
        rss = wl.peak_rss_mib()
    finally:
        work.stop()
    m = wl.serve_metrics(records)
    bad, checked = serve_gate(wl, work, run, sessions, records)
    info(f"{run.workload} seed={run.seed} sessions={len(sessions)} "
         f"samples ingest={m['samples']['ingest']} decode={m['samples']['decode']} "
         f"ops={m['attempted']} failed={m['failed']} "
         f"send_lag_p90_ms={m['send_lag_p90_ms']:.2f} gate_checked={checked}")
    info(f"digest {run.workload} seed={run.seed} sha256={wl.serve_digest(records)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_s": m["sweep_s"],
        "ingest_p50_ms": m["ingest_p50_ms"],
        "ingest_p90_ms": m["ingest_p90_ms"],
        "decode_p50_ms": m["decode_p50_ms"],
        "decode_p90_ms": m["decode_p90_ms"],
        "amp_share": m["amp_share"],
        "ok_share": m["ok_share"],
        "peak_rss_mib": rss,
    }
    return bad, m["attempted"], m["failed"], metrics


def traced_serve(wl, run, trace_dir):
    work = wl.ServeOpenLoop(run)
    count = work.session_count(run.seconds / 2)
    sessions, blocks = work.make_sessions(run.seed, count)
    freeze_inputs()
    work.start(sessions)
    try:
        plain = work.round(sessions, blocks)
    finally:
        work.stop()
    tr = enable_tracing(run, trace_dir)
    work.start(sessions)
    tr.reset()
    try:
        traced = work.round(
            sessions, blocks,
            armed=os.path.join(trace_dir, tracer.ARMED_FILE),
        )
    finally:
        work.stop()
    tr.enabled = False
    tr.dump(trace_dir)
    bad, _ = serve_gate(wl, work, run, sessions, traced)
    a, b = wl.serve_metrics(plain), wl.serve_metrics(traced)
    info(f"digest {run.workload} seed={run.seed} sha256={wl.serve_digest(traced)}")
    agg = tracer.merge(tracer.load_dir(trace_dir))
    extra = {
        "experiments.worker.speculated": 0.0,
        "experiments.worker.reconnects": 0.0,
        "loadgen.send_lag_p90_ms": b["send_lag_p90_ms"],
        "trace.overhead": b["decode_p50_ms"] / a["decode_p50_ms"],
    }
    metrics = wl.layer_metrics(agg, 1, b["sweep_s"] * 1e9, 1, extra)
    info(f"{run.workload} traced sessions={count} processes={agg['processes']} "
         f"traces={trace_dir}")
    return bad, a["attempted"] + b["attempted"], a["failed"] + b["failed"], metrics


# -- tracing switch ---------------------------------------------------------


def enable_tracing(run, trace_dir):
    """Trace this process, and every process started from now on."""
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    os.environ[tracer.TRACE_DIR_ENV] = trace_dir
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(HERE, "boot"), os.environ["PYTHONPATH"]]
    )
    return tracer.process_tracer()


def arm(trace_dir):
    """Start recording in child processes (see ``Tracer.on``)."""
    open(os.path.join(trace_dir, tracer.ARMED_FILE), "w").close()
    time.sleep(0.2)  # longer than a child's arming re-check interval


# -- main -----------------------------------------------------------------


def stop_resource_tracker():
    """Stop the helper process that process pools and shared memory start
    implicitly, and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def result_line(spec, correct, attempted, failed, values, section):
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec[section]
    }
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench_run")
    run_root = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_root)
    prepare_environment(root, run_root, traced=False)
    import workloads as wl

    run = wl.Run(args.workload, args.seed, args.seconds, args.size, run_root)
    serve = args.workload == "serve_open_loop"
    try:
        if args.trace:
            trace_dir = os.path.join(base, "traces", f"{args.workload}-seed{args.seed}")
            fn = traced_serve if serve else traced_sweep
            bad, attempted, failed, values = fn(wl, run, trace_dir)
        else:
            fn = timed_serve if serve else timed_sweep
            bad, attempted, failed, values = fn(wl, run)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        stop_resource_tracker()
    for line in bad:
        print(f"perfbench: GATE FAILED: {line}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(result_line(spec, not bad, attempted, failed, values, section), flush=True)
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
