"""Open-loop load generator for the decode service.

Independent users make an open loop: ingests are due at a fixed rate
and are sent at their due time whether or not earlier requests have
been answered. Each user asks for an AMP decode of the prefix it just
ingested as soon as that ingest is acknowledged, and a final greedy
certificate per session closes the schedule. Latency is timed from each
request's due time (for a decode, the acknowledgement of its ingest),
so a stall also counts against the requests queued behind it, and the
generator records how late it sent each request (its send lag).

One load process holds two connections: one carries the ingests, the
other the decodes and certificates. Evenly spaced ingests with decodes
chained to their acknowledgements keep the tail percentiles steady from
run to run; random arrivals on two connections queue in bursts whose
tails swing by a factor of two between seeds.
"""

from __future__ import annotations

import threading
import time

from repro.service import ServiceClient


def schedule(session_ids, rounds: int, block: int, rate: float, start: float,
             cohort: int):
    """Ops ``(due, kind, sid, round, m)`` in send order.

    Sessions go in cohorts of ``cohort``; a cohort's ingests are
    round-major, and the next cohort starts when it is done, so every
    stretch of ``cohort * rounds`` slots carries sessions of every size.
    (All sessions round-major would measure the small ingests at the
    start of the run and the large ones at its end, so each percentile
    would sample only a third of the run's time.) Ingests are due every
    ``1 / rate`` seconds; each is followed by an AMP decode of the new
    prefix ``m`` (due when the ingest is acknowledged, so its planned
    time is the ingest's); one greedy certificate per session follows
    the last ingest at four times the rate.
    """
    period = 1.0 / rate
    ops = []
    j = 0
    for c in range(0, len(session_ids), cohort):
        for r in range(rounds):
            for sid in session_ids[c:c + cohort]:
                due = start + j * period
                ops.append((due, "ingest", sid, r, block * (r + 1)))
                ops.append((due, "amp", sid, r, block * (r + 1)))
                j += 1
    tail = start + j * period
    for i, sid in enumerate(session_ids):
        ops.append((tail + i * period / 4, "greedy", sid, rounds - 1,
                    block * rounds))
    return ops


def run(host, port, plan, blocks, retry_budget: float):
    """Send ``plan`` open-loop; returns one record per op, in plan order.

    ``blocks[sid][r]`` is the query block ingested in round ``r``.
    Record fields: kind, sid, due, lag (s), latency (s, from due),
    response (``None`` when the op failed), error.
    """
    lanes = ([], [])
    for index, op in enumerate(plan):
        lanes[0 if op[1] == "ingest" else 1].append((index, op))
    acked = {(sid, r): threading.Event()
             for _, kind, sid, r, _ in plan if kind == "ingest"}
    ack_time = {}
    records = [None] * len(plan)

    def lane_main(lane):
        with ServiceClient(host, port, retry_budget=retry_budget) as client:
            for index, (due, kind, sid, r, m) in lane:
                if kind != "ingest":
                    acked[(sid, r)].wait(timeout=60)
                    due = max(due, ack_time.get((sid, r), due))
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                response, error = None, None
                try:
                    if kind == "ingest":
                        response = client.ingest(sid, blocks[sid][r])
                    elif kind == "amp":
                        response = client.decode(sid, m=m, return_scores=True)
                    else:
                        response = client.decode(sid, algorithm="greedy")
                except Exception as exc:  # counted as a failed op
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                if kind == "ingest":
                    ack_time[(sid, r)] = done
                    acked[(sid, r)].set()
                records[index] = {
                    "kind": kind, "sid": sid, "due": due,
                    "lag": sent - due, "latency": done - due,
                    "response": response, "error": error,
                }

    threads = [
        threading.Thread(target=lane_main, args=(lane,), name=f"load-{i}")
        for i, lane in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, rec in enumerate(records):
        if rec is None:
            due, kind, sid, _, _ = plan[i]
            records[i] = {"kind": kind, "sid": sid, "due": due, "lag": 0.0,
                          "latency": 0.0, "response": None,
                          "error": "not sent: load thread died"}
    return records


def backlog(records) -> bool:
    """True when send lag kept rising: a growing backlog, not a valid run.

    Compares the median lag of the last fifth of the schedule with the
    first fifth; a generator that keeps up stays within a few tens of
    milliseconds of the schedule throughout.
    """
    lags = [rec["lag"] for rec in sorted(records, key=lambda r: r["due"])]
    fifth = max(1, len(lags) // 5)
    head = sorted(lags[:fifth])[fifth // 2]
    tail = sorted(lags[-fifth:])[fifth // 2]
    return tail > 0.25 and tail - head > 0.2
