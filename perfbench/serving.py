"""Workload ``serve-wire-observe``: the serving stack, writes beside reads.

The paper's six subjects (deepstream, xception, bert, deepspeech, x264,
sqlite; 100 samples each) sit in a two-shard ``ShardedQueryService`` in
its default process mode with the result cache on, behind a
``GatewayServer``.  The load generator is this process: one thread
driving two gateway connections with a selector.  Connection A carries
seeded reads of every subject at ``WIRE_READ_RATE``; connection B carries
a fixed ``drifting_measurement_stream`` of the ``OBSERVED`` subject at
``OBSERVE_RATE``, each batch relearned before it is acknowledged (the
default eager registry).  A second phase turns both connections
closed-loop, for the writer's capacity beside continuing reads.  Every
input (requests, observation batches, wire frames) is built before the
clock starts; the subjects' models are fixed, the seed drives the reads.
After ``quiesce()`` a fixed probe set must answer exactly as a reference
registry that folded the acknowledged batches in the same order.
"""

from __future__ import annotations

import gc
import importlib
import selectors
import socket
import threading
import time
from collections import deque

import numpy as np

from repro.evaluation.store import canonical_json
from repro.service import (
    GatewayClient,
    GatewayServer,
    ShardedQueryService,
    drifting_measurement_stream,
    mixed_workload,
    registry_from_specs,
)
from repro.service.batcher import RequestBatcher
from repro.service.store import measurement_to_dict
from repro.systems.registry import get_system

import harness
import layers
from harness import Outcomes, RunResult

SUBJECTS = ("deepstream", "xception", "bert", "deepspeech", "x264", "sqlite")
SPECS = {name: {"system": name, "n_samples": 100} for name in SUBJECTS}
SHARDS = 2
#: seconds after which an unanswered request counts as timed out.
DEADLINE_S = 10.0
SETUP_REPEATS = 2
#: share of ``--seconds`` given to the fixed-rate phase; the rest sizes
#: the closed-loop phase.
FIXED_SHARE = 0.6

#: Far below the reads connection's serial capacity (about 480/s closed
#: loop): at 125/s, runs during a slow spell of the shared host saturated
#: it and the read p50 rose tenfold, from 3 ms to 20-40 ms.
WIRE_READ_RATE = 60.0
#: At 2 observes/s about 30% of reads queued behind a fold (the gateway
#: answers a connection's requests one at a time), which put the read p50
#: on the knee of the latency curve: it moved 3-8 ms with the host's
#: speed.  At 1/s the folds' queue starts past p80.
OBSERVE_RATE = 1.0
#: the subject whose measurement stream is observed (one system being
#: tuned while every subject is read).
OBSERVED = "sqlite"
OBSERVE_BATCH = 2
WIRE_WARMUP_READS = 300
#: reads prepared for the closed-loop phase, per second of it.
WIRE_READ_SIZING_PER_S = 800.0
#: seed of the observation stream.  The stream is fixed: how much a fold
#: costs depends on whether the batch moves the learned structure, so a
#: drawn stream would set the writer's capacity more than the program.
STREAM_SEED = 0
#: observation batches prepared for the closed-loop writer phase, per s.
WRITER_SIZING_PER_S = 40.0
PROBES_PER_SUBJECT = 6

protocol = importlib.import_module("repro.service.protocol")
#: The gateway's sockets keep Nagle's algorithm on, so a reply that is
#: ready while the previous one is unacknowledged waits for the client's
#: ACK.  With delayed ACKs that ACK rides on the next request, one
#: inter-arrival gap later, and once a fold makes replies queue every
#: later reply is held the same way: read p50 then sat at the gap (8 ms)
#: in some runs and at the read's own 2-3 ms in others.  The generator
#: acknowledges every reply at once instead (Linux), so the read latency
#: measured is the program's, in every run.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


# ------------------------------------------------------------------ inputs
def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _seed(seed: int, *salt: int) -> int:
    return int(_rng(seed, *salt).integers(2**31))


def interleaved_reads(reference, seed: int, n: int, salt: int) -> list:
    """``n`` requests: a seeded subject per slot, each subject's slots
    filled in order from its own ``mixed_workload`` stream."""
    picks = _rng(seed, salt).integers(len(SUBJECTS), size=n)
    streams = []
    for position, subject in enumerate(SUBJECTS):
        count = int((picks == position).sum())
        engine = reference.get(subject).engine
        directions = get_system(subject).objectives
        streams.append(iter(mixed_workload(
            subject, engine, directions, count,
            seed=_seed(seed, salt, position))) if count else iter(()))
    return [next(streams[pick]) for pick in picks]


def reference_answers(reference, requests) -> dict:
    """Canonical one-at-a-time answer of every distinct request."""
    batcher = RequestBatcher()
    answers = {}
    for request in requests:
        key = (request.subject, request.item_key_cached())
        if key not in answers:
            response = batcher.serial_dispatch(reference.get(request.subject),
                                               [request])[0]
            answers[key] = canonical_json(response.canonical_value())
    return answers


def check_answers(answers, requests, expected: dict, outcomes: Outcomes,
                  errors: list[str]) -> None:
    """Demote every answer that differs from the reference to a failure."""
    wrong = 0
    for answer, request in zip(answers, requests):
        if answer is None:
            continue
        if answer != expected[(request.subject, request.item_key_cached())]:
            wrong += 1
    if wrong:
        outcomes.demote("wrong-answer", wrong)
        errors.append(f"{wrong} answers differ from one-at-a-time dispatch")


# --------------------------------------------------------------- per-layer
def _worker_counters(service) -> dict[str, float]:
    totals: dict[str, float] = {}
    for payload in service.worker_stats():
        for key in ("dispatches", "engine_calls", "answered", "cache_hits",
                    "cache_misses", "refreshes", "refreshes_skipped"):
            totals[key] = totals.get(key, 0.0) + float(payload.get(key, 0))
    return totals


def _service_layer_metrics(service, before: dict, probe, window) -> dict:
    """Queue, batcher, cache, registry and sharding metrics of a window.

    Worker counters are differenced over the measured window.  Queue and
    batch waits pair each shard's admitted requests (submit events, in
    order) with the drained batches its worker answered (answer events,
    in order): the k-th batch of ``n`` requests holds the next ``n``.
    """
    after = _worker_counters(service)
    diff = {k: after[k] - before.get(k, 0.0) for k in after}
    stats = service.stats_snapshot()
    per_shard = list(stats.per_shard_answered.values())
    events, dropped = probe.events()
    t_from, t_to = window
    submits: dict[int, list[float]] = {}
    answers: dict[int, list[tuple[float, int]]] = {}
    engine = []
    for kind, shard, start, end, n in events:
        if kind == layers.EVENT_SUBMIT:
            submits.setdefault(int(shard), []).append(start)
        elif kind == layers.EVENT_ANSWER:
            answers.setdefault(int(shard), []).append((start, int(n)))
        elif kind == layers.EVENT_DISPATCH and t_from <= start < t_to:
            engine.append(end - start)
    queue_wait, batch_wait = [], []
    for shard, batches in answers.items():
        queue = sorted(submits.get(shard, []))
        position = 0
        for start, n in sorted(batches):
            members = queue[position:position + n]
            position += n
            if len(members) < n:
                break
            if t_from <= members[-1] < t_to:
                batch_wait.append(start - members[-1])
                queue_wait.extend(start - t for t in members)
    metrics = {
        "sharding.max_shard_frac": (max(per_shard) / sum(per_shard)
                                    if sum(per_shard) else 0.0),
        "sharding.rejected": float(stats.rejected),
        "sharding.requeues": float(stats.requeues),
        "batcher.dispatches": diff["dispatches"],
        "batcher.engine_calls": diff["engine_calls"],
        "batcher.batch_size_mean": (diff["answered"] / diff["dispatches"]
                                    if diff["dispatches"] else 0.0),
        "batcher.coalesce_ratio": (diff["answered"] / diff["engine_calls"]
                                   if diff["engine_calls"] else 0.0),
        "result_cache.hits": diff["cache_hits"],
        "result_cache.misses": diff["cache_misses"],
        "result_cache.hit_frac": (
            diff["cache_hits"] / (diff["cache_hits"] + diff["cache_misses"])
            if diff["cache_hits"] + diff["cache_misses"] else 0.0),
        "registry.refreshes": diff["refreshes"],
        "registry.refreshes_skipped": diff["refreshes_skipped"],
    }
    if queue_wait:
        metrics["queue.wait_p50_ms"] = harness.percentile(queue_wait, 50) * 1e3
        metrics["queue.wait_p99_ms"] = harness.percentile(queue_wait, 99) * 1e3
        metrics["batcher.batch_wait_p50_ms"] = \
            harness.percentile(batch_wait, 50) * 1e3
    if engine:
        metrics["batcher.engine_p50_ms"] = harness.percentile(engine, 50) * 1e3
    if dropped:
        raise RuntimeError(f"event ring overflowed by {dropped} events")
    return metrics


def _start_service(probe):
    """Fork the shard workers (they fit their subjects) and, if traced,
    keep recording off while they do."""
    if probe is not None:
        probe.set_enabled(False)
    return ShardedQueryService(SPECS, shards=SHARDS)


# ------------------------------------------------------- serve-wire-observe
class _Wire:
    """One non-blocking-read gateway connection driven by the selector.

    Replies come back in request order, so each connection keeps a FIFO
    of what it is waiting for.
    """

    def __init__(self, address, selector, name: str) -> None:
        self.sock = socket.create_connection(address, timeout=DEADLINE_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = protocol.FrameDecoder()
        self.waiting: deque = deque()
        self.name = name
        selector.register(self.sock, selectors.EVENT_READ, self)

    def send(self, frame: bytes, tag, counts: dict) -> None:
        self.sock.sendall(frame)
        self.waiting.append(tag)
        counts["frames"] += 1
        counts["bytes_out"] += len(frame)

    def receive(self, counts: dict) -> list[tuple[object, dict]]:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError(f"gateway closed connection {self.name}")
        if QUICKACK is not None:
            # Linux re-enters delayed-ACK mode by itself: re-arm each time.
            self.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
        counts["bytes_in"] += len(chunk)
        self.decoder.feed(chunk)
        replies = []
        while (frame := self.decoder.next_frame()) is not None:
            counts["frames"] += 1
            replies.append((self.waiting.popleft(),
                            protocol.decode_envelope(frame)))
        return replies


def _wire_plan(seconds: float, trace: bool) -> list[tuple[str, float]]:
    """Segments of one run: fixed-rate, then closed-loop, and for the
    traced run closed-loop segments with recording off and on."""
    closed_s = seconds * (1 - FIXED_SHARE)
    plan = [("fixed", seconds * FIXED_SHARE), ("closed", closed_s)]
    if trace:
        # ABBA, so the folds' growing cost does not bias the comparison.
        plan += [(kind, closed_s / 2)
                 for kind in ("untraced", "traced", "traced", "untraced")]
    return plan


def _wire_inputs(reference, seed: int, plan):
    fixed_s = sum(d for kind, d in plan if kind == "fixed")
    closed_s = sum(d for kind, d in plan if kind != "fixed")
    n_reads = (int(WIRE_READ_RATE * fixed_s)
               + int(WIRE_READ_SIZING_PER_S * closed_s))
    n_observes = (int(OBSERVE_RATE * fixed_s)
                  + int(WRITER_SIZING_PER_S * closed_s))
    reads = interleaved_reads(reference, seed, n_reads, salt=3)
    warmup = interleaved_reads(reference, seed, WIRE_WARMUP_READS, salt=4)
    observes = [(OBSERVED, batch) for batch in drifting_measurement_stream(
        get_system(OBSERVED), n_observes, OBSERVE_BATCH, seed=STREAM_SEED)]
    probes = [request for position, subject in enumerate(SUBJECTS)
              for request in mixed_workload(
                  subject, reference.get(subject).engine,
                  get_system(subject).objectives, PROBES_PER_SUBJECT,
                  seed=_seed(seed, 6, position))]
    read_frames = [protocol.encode_envelope(
        {"op": "query", "request": protocol.request_to_wire(r)})
        for r in reads]
    observe_frames = [protocol.encode_envelope(
        {"op": "observe", "subject": subject,
         "measurements": [measurement_to_dict(m) for m in batch]})
        for subject, batch in observes]
    return read_frames, warmup, observes, observe_frames, probes


class _Stream:
    """One connection's sends: due, sent and done times, the segment each
    was sent in, and the status of its reply."""

    def __init__(self, wire: _Wire, frames: list[bytes], rate: float) -> None:
        self.wire = wire
        self.frames = frames
        self.rate = rate
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float | None] = []
        self.segment: list[int] = []
        #: "ok" or the failure reason of each reply; None while waiting.
        self.status: list[str | None] = []

    @property
    def next(self) -> int:
        return len(self.sent)

    def send(self, due: float, segment: int, counts: dict) -> None:
        index = self.next
        self.due.append(due)
        self.sent.append(time.perf_counter())
        self.done.append(None)
        self.segment.append(segment)
        self.status.append(None)
        self.wire.send(self.frames[index], index, counts)

    def receive(self, index: int, reply: dict, done_at: float) -> None:
        if not reply.get("ok"):
            status = f"error-envelope:{reply['error'].get('code')}"
        elif (reply.get("response") or {}).get("error") is not None:
            status = "error-response"
        else:
            status = "ok"
        self.status[index] = status
        self.done[index] = done_at if status == "ok" else None

    def account(self, outcomes: Outcomes) -> None:
        """A missing, error-envelope or error-response reply fails."""
        for status in self.status:
            if status == "ok":
                outcomes.ok()
            else:
                outcomes.fail(status or "timeout")

    def of_segment(self, segment: int) -> list[int]:
        return [i for i, s in enumerate(self.segment) if s == segment]


def _drive_wire(address, read_frames, observe_frames, plan, outcomes,
                probe=None, on_rounds_end=None):
    """Run the plan's segments back to back over two connections.

    In a fixed segment reads and observes are sent on their schedules;
    in the others each connection sends its next request as soon as the
    previous reply is in.  ``on_rounds_end`` runs once when the first
    segment beyond the measured rounds begins; ``probe`` recording is
    switched off for an "untraced" segment and on for a "traced" one.
    """
    counts = {"frames": 0, "bytes_in": 0, "bytes_out": 0}
    selector = selectors.DefaultSelector()
    wires = [_Wire(address, selector, name) for name in ("reads", "writes")]
    reads = _Stream(wires[0], read_frames, WIRE_READ_RATE)
    writes = _Stream(wires[1], observe_frames, OBSERVE_RATE)
    starts = [time.perf_counter() + 0.01]
    for _, duration in plan:
        starts.append(starts[-1] + duration)
    stop = starts[-1]
    try:
        segment = -1
        while True:
            now = time.perf_counter()
            while segment + 1 < len(plan) and now >= starts[segment + 1]:
                segment += 1
                scheduled = {id(reads): 0, id(writes): 0}
                kind = plan[segment][0]
                if kind in ("untraced", "traced"):
                    if on_rounds_end is not None:
                        on_rounds_end(counts)
                        on_rounds_end = None
                    probe.set_enabled(kind == "traced")
            wake = [starts[segment + 1]] if segment + 1 < len(plan) else []
            for stream in (reads, writes):
                if segment < 0 or now >= stop:
                    continue
                if plan[segment][0] == "fixed":
                    while (stream.next < len(stream.frames)
                           and starts[segment] + scheduled[id(stream)]
                           / stream.rate <= now):
                        stream.send(starts[segment] + scheduled[id(stream)]
                                    / stream.rate, segment, counts)
                        scheduled[id(stream)] += 1
                    wake.append(starts[segment] + scheduled[id(stream)]
                                / stream.rate)
                elif (not stream.wire.waiting
                      and stream.next < len(stream.frames)):
                    stream.send(now, segment, counts)
            idle = not reads.wire.waiting and not writes.wire.waiting
            if (now >= stop and idle) or now > stop + DEADLINE_S:
                break
            timeout = (max(min(wake) - time.perf_counter(), 0.0)
                       if wake and now < stop else 0.05)
            if timeout < 0.002:
                # epoll waits whole milliseconds; sleep out the rest.
                time.sleep(timeout)
                timeout = 0.0
            for key, _ in selector.select(timeout):
                done_at = time.perf_counter()
                stream = reads if key.data is wires[0] else writes
                for index, reply in key.data.receive(counts):
                    stream.receive(index, reply, done_at)
    finally:
        for wire in wires:
            selector.unregister(wire.sock)
            wire.sock.close()
        selector.close()
    reads.account(outcomes)
    writes.account(outcomes)
    return reads, writes, counts, starts


def _writer_rate(writes: _Stream, segment: int, start: float) -> float:
    """Observes acknowledged per second within a closed-loop segment."""
    done = [writes.done[i] for i in writes.of_segment(segment)
            if writes.done[i] is not None]
    return len(done) / (max(done) - start) if done else 0.0


def serve_wire_observe(seed: int, seconds: float, trace: bool,
                       out_dir) -> RunResult:
    plan = _wire_plan(seconds, trace)
    built = time.perf_counter()
    reference = registry_from_specs(SPECS)
    read_frames, warmup, observes, observe_frames, probes = _wire_inputs(
        reference, seed, plan)
    build_s = time.perf_counter() - built
    # The inputs and the reference live as long as the run: keep them out
    # of the collector's generations (and share them copy-free with the
    # forked workers), so harness memory does not lengthen the
    # collector's pauses for the gateway threads sharing this process.
    gc.freeze()

    probe = layers.make_probe(ring_capacity=200_000).install() \
        if trace else None
    setups = []
    service = gateway = None
    errors: list[str] = []
    rounds = {}
    try:
        for _ in range(SETUP_REPEATS):
            if gateway is not None:
                gateway.close()
                service.close()
            started = time.perf_counter()
            service = _start_service(probe)
            gateway = GatewayServer(service)
            with GatewayClient(gateway.address) as client:
                client.submit_many(warmup)
            setups.append(time.perf_counter() - started)
        outcomes = Outcomes()
        on_rounds_end = None
        if probe is not None:
            before = _worker_counters(service)
            probe.root_seconds.clear()
            measured_from = time.perf_counter()
            probe.set_enabled(True)

            def on_rounds_end(counts) -> None:
                # Per-layer numbers describe the measured rounds.
                probe.set_enabled(False)
                ended = time.perf_counter()
                rounds.update(
                    totals=probe.totals(),
                    service=_service_layer_metrics(
                        service, before, probe, (measured_from, ended)),
                    wall=ended - measured_from,
                    root=probe.root_seconds.get(threading.get_ident(), 0.0),
                    protocol_errors=gateway.stats.protocol_errors,
                    counts=dict(counts))
        reads, writes, counts, starts = _drive_wire(
            gateway.address, read_frames, observe_frames, plan, outcomes,
            probe, on_rounds_end)
        if probe is not None:
            probe.set_enabled(False)
        service.quiesce()
        with GatewayClient(gateway.address) as client:
            probe_answers = [
                None if response.error is not None
                else canonical_json(response.canonical_value())
                for response in client.submit_many(probes)]
    finally:
        if gateway is not None:
            gateway.close()
        if service is not None:
            service.close()
        if probe is not None:
            probe.uninstall()

    # The reference folds the acknowledged batches in the order sent (one
    # connection, answered in order).
    acked = [i for i, status in enumerate(writes.status) if status == "ok"]
    if len(acked) != len(writes.status):
        errors.append("some observes were not acknowledged; the probe "
                      "check cannot match the service's state")
    for i in acked:
        reference.observe(*observes[i])
    expected = reference_answers(reference, probes)
    probe_outcomes = Outcomes()
    check_answers(probe_answers, probes, expected, probe_outcomes, errors)

    fixed_reads = reads.of_segment(0)
    latency = harness.summarize(harness.due_time_latencies(
        [reads.due[i] for i in fixed_reads],
        [reads.done[i] for i in fixed_reads], DEADLINE_S), rank=99.0)
    late = harness.summarize(harness.lateness(
        [reads.due[i] for i in fixed_reads],
        [reads.sent[i] for i in fixed_reads]), rank=99.0)
    fixed_observes = writes.of_segment(0)
    observe_latency = harness.summarize(harness.due_time_latencies(
        [writes.due[i] for i in fixed_observes],
        [writes.done[i] for i in fixed_observes], DEADLINE_S), rank=90.0)
    writer_rate = _writer_rate(writes, 1, starts[1])
    setup_s = harness.median(setups)
    lines = [
        f"inputs built     {build_s:.3f} s",
        f"setup_s          {setup_s:.3f} s (median of {SETUP_REPEATS}: "
        f"worker fit + gateway + {WIRE_WARMUP_READS}-read warm-up)",
        f"p50_ms, p99_ms   {latency.describe()} (reads at "
        f"{WIRE_READ_RATE:g}/s beside {OBSERVE_RATE:g} observes/s)",
        f"observe_p50_ms   {observe_latency.describe()} (acks at the fixed "
        f"rate)",
        f"writer capacity  {writer_rate:.3f} observes/s closed-loop, "
        f"{len(reads.of_segment(1))} reads closed-loop beside it",
        f"generator late   {late.describe()}",
        f"probe answers    {len(probes) - probe_outcomes.failed} of "
        f"{len(probes)} match the reference after {len(acked)} folds",
        f"failed_frac      {outcomes.failed_frac:.4f} ratio",
    ]
    if probe is None:
        metrics = {"setup_s": setup_s, "p50_ms": latency.p50_ms,
                   "throughput_per_s": writer_rate}
    else:
        service_time = {}
        for kind in ("untraced", "traced"):
            service_time[kind] = harness.median(
                writes.done[i] - writes.sent[i]
                for j, (k, _) in enumerate(plan) if k == kind
                for i in writes.of_segment(j) if writes.done[i] is not None)
        metrics = layers.per_layer(rounds["totals"], {
            **rounds["service"],
            "registry.observes": float(sum(
                plan[writes.segment[i]][0] in ("fixed", "closed")
                for i in acked)),
            "protocol.frames": float(rounds["counts"]["frames"]),
            "protocol.bytes_in": float(rounds["counts"]["bytes_in"]),
            "protocol.bytes_out": float(rounds["counts"]["bytes_out"]),
            "gateway.protocol_errors": float(rounds["protocol_errors"]),
            "loadgen.late_tail_ms": late.tail_ms,
            "trace.overhead_frac":
                service_time["traced"] / service_time["untraced"] - 1.0,
            "trace.unattributed_frac": 1.0 - rounds["root"] / rounds["wall"],
        })
    return RunResult(outcomes=outcomes, metrics=metrics, lines=lines,
                     errors=errors)


