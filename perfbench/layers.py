"""Which public functions of each layer the traced run wraps.

Layers are named by the program's modules (``stats``, ``discovery``,
``scm``, ``inference``, ``core``, ``systems``, ``service``, ``protocol``).
:func:`make_probe` builds a :class:`~probe.Probe` over all of them;
:func:`per_layer` reads the benchmark's per-layer metrics off its totals
plus the workload's own measurements.
"""

from __future__ import annotations

import importlib
import json
import time

from repro.core.debugger import UnicornDebugger
from repro.core.unicorn import Unicorn
from repro.discovery.entropic import EntropicOrienter
from repro.discovery.pipeline import CausalModelLearner
from repro.inference.engine import CausalInferenceEngine
from repro.scm.fused import FusedProgram
from repro.service.batcher import RequestBatcher
from repro.service.registry import ModelRegistry
from repro.service.sharding import ShardedQueryService, shard_of
from repro.service.worker import ShardServer
from repro.stats.independence import CachedCITest, MixedCITest
from repro.systems.base import ConfigurableSystem

from probe import Point, Probe

# Packages re-export functions under their modules' names (``fci``), so
# the modules whose globals get wrapped are looked up by full name.
fci_module = importlib.import_module("repro.discovery.fci")
pipeline_module = importlib.import_module("repro.discovery.pipeline")
engine_module = importlib.import_module("repro.inference.engine")
batched_module = importlib.import_module("repro.scm.batched")
gateway_module = importlib.import_module("repro.service.gateway")
protocol_module = importlib.import_module("repro.service.protocol")

#: event kinds in the probe's ring: (kind, shard, start, end, n).
EVENT_ANSWER = 1.0
EVENT_DISPATCH = 2.0
EVENT_SUBMIT = 3.0

CI_COUNTERS = ("hits", "misses", "stale_reused", "retests")
COUNTERS = ("discovery.fastpath.attempts", "discovery.fastpath.hits",
            *(f"ci_cache.{name}" for name in CI_COUNTERS))

_ENGINE_QUERIES = ("answer", "causal_effect", "causal_effects_batch",
                   "predict", "predict_batch", "interventional_expectation",
                   "interventional_expectations_batch",
                   "satisfaction_probability", "repair_set",
                   "repair_candidates_batch")
_CODEC = ("encode_envelope", "decode_envelope", "request_to_wire",
          "request_from_wire", "response_to_wire", "response_from_wire")


def _batch_size(args, kwargs) -> float:
    return float(len(args[1]))


def _rows(args, kwargs) -> float:
    return float(args[2] if len(args) > 2 else kwargs["n"])


def _ci_snapshot(probe, args, kwargs):
    counters = args[0].ci_cache.counters
    return [getattr(counters, name) for name in CI_COUNTERS]


def _ci_delta(probe, token, args, kwargs, result) -> None:
    counters = args[0].ci_cache.counters
    for name, before in zip(CI_COUNTERS, token):
        probe.count(f"ci_cache.{name}", getattr(counters, name) - before)


def _fastpath(probe, token, args, kwargs, result) -> None:
    _ci_delta(probe, token, args, kwargs, result)
    previous = args[1].decision_trace
    if previous:
        probe.count("discovery.fastpath.attempts")
        if result.decision_trace is previous:
            probe.count("discovery.fastpath.hits")


def _clock(probe, args, kwargs) -> float:
    return time.perf_counter()


def _answer_event(probe, started, args, kwargs, result) -> None:
    probe.event(EVENT_ANSWER, args[0].shard_index, started,
                time.perf_counter(), len(args[1]))


def _dispatch_event(probe, started, args, kwargs, result) -> None:
    probe.event(EVENT_DISPATCH, -1.0, started, time.perf_counter(),
                len(args[2]))


def _submit_event(probe, started, args, kwargs, result) -> None:
    service, request = args[0], args[1]
    probe.event(EVENT_SUBMIT, shard_of(request.subject, service.shards),
                started, started, 1)


def points() -> list[Point]:
    """Every wrapped entry point, grouped by layer."""
    points = [
        # stats: CI decisions requested through the cache, and computed.
        Point(CachedCITest, "test", "stats.ci.requested", "stats",
              record=False),
        Point(CachedCITest, "test_batch", "stats.ci.requested", "stats",
              amount=_batch_size, record=False),
        Point(MixedCITest, "test", "stats.ci", "stats", record=False),
        Point(MixedCITest, "test_batch", "stats.ci", "stats", amount=_batch_size,
              record=False),
        # discovery
        Point(CausalModelLearner, "learn", "discovery.learn", "discovery",
              before=_ci_snapshot, after=_ci_delta),
        Point(CausalModelLearner, "update", "discovery.update", "discovery",
              before=_ci_snapshot, after=_fastpath),
        Point(pipeline_module, "fci", "discovery.fci", "discovery"),
        Point(fci_module, "learn_skeleton", "discovery.skeleton",
              "discovery"),
        Point(fci_module, "possible_d_sep", "discovery.pdsep", "discovery",
              record=False),
        Point(fci_module, "orient_colliders", "discovery.orient",
              "discovery"),
        Point(fci_module, "orient_pag", "discovery.orient", "discovery"),
        Point(EntropicOrienter, "resolve", "discovery.orient", "discovery"),
        # scm
        Point(engine_module, "fit_structural_equations", "scm.fit", "scm"),
        Point(batched_module, "compile_fused_program", "scm.compile", "scm"),
        Point(FusedProgram, "execute", "scm.fused", "scm", amount=_rows,
              record=False),
        # inference
        Point(CausalInferenceEngine, "refresh", "inference.refresh",
              "inference"),
        Point(CausalInferenceEngine, "sampling_probabilities",
              "inference.sampling", "inference"),
        *(Point(CausalInferenceEngine, name, "inference.query", "inference",
                record=False) for name in _ENGINE_QUERIES),
        # core
        Point(UnicornDebugger, "debug_fault", "core.debug", "core"),
        Point(Unicorn, "learn", "core.learn", "core"),
        Point(Unicorn, "propose_exploration", "core.propose", "core"),
        # systems
        Point(ConfigurableSystem, "measure", "systems.measure", "systems",
              record=False),
        # service (worker side rides the fork; parent side is the submit)
        Point(ShardedQueryService, "submit_async", "sharding.submit",
              "service", before=_clock, after=_submit_event, record=False),
        Point(ShardServer, "answer", "worker.answer", "service",
              amount=_batch_size, before=_clock, after=_answer_event,
              record=False),
        Point(RequestBatcher, "dispatch", "batcher.dispatch", "service",
              before=_clock, after=_dispatch_event, record=False),
        Point(ModelRegistry, "observe", "registry.observe", "service"),
    ]
    # protocol: the client's and the gateway's codec calls.
    for module in (protocol_module, gateway_module):
        points.extend(Point(module, name, "protocol.codec", "protocol",
                            record=False) for name in _CODEC
                      if hasattr(module, name))
    return points


def make_probe(ring_capacity: int = 0) -> Probe:
    return Probe(points(), counters=COUNTERS, ring_capacity=ring_capacity,
                 ring_width=5)


#: every per-layer metric, in report order (each workload reports all;
#: a layer the workload leaves idle reads 0).
PER_LAYER = (
    "stats.ci.requested", "stats.ci.computed", "stats.ci.s",
    "stats.ci_cache.hit_frac", "stats.ci_cache.retests",
    "discovery.learn.calls", "discovery.learn.s", "discovery.update.calls",
    "discovery.update.s", "discovery.fci.s", "discovery.skeleton.s",
    "discovery.pdsep.calls", "discovery.pdsep.s", "discovery.orient.s",
    "discovery.fastpath.hits", "discovery.fastpath.attempts",
    "scm.fit.calls", "scm.fit.s", "scm.compile.calls", "scm.compile.s",
    "scm.fused.rows", "scm.fused.s",
    "inference.refresh.s", "inference.query.calls", "inference.query.s",
    "inference.sampling.s",
    "core.learn.s", "core.propose.s",
    "systems.measure.calls", "systems.measure.s",
    "sharding.max_shard_frac", "sharding.rejected", "sharding.requeues",
    "queue.wait_p50_ms", "queue.wait_p99_ms",
    "batcher.dispatches", "batcher.batch_size_mean", "batcher.engine_calls",
    "batcher.coalesce_ratio", "batcher.batch_wait_p50_ms",
    "batcher.engine_p50_ms",
    "result_cache.hits", "result_cache.misses", "result_cache.hit_frac",
    "registry.observes", "registry.refreshes", "registry.refreshes_skipped",
    "protocol.frames", "protocol.bytes_in", "protocol.bytes_out",
    "protocol.codec.s", "gateway.protocol_errors",
    "self_s.core", "self_s.discovery", "self_s.inference", "self_s.protocol",
    "self_s.scm", "self_s.service", "self_s.stats", "self_s.systems",
    "loadgen.late_tail_ms", "trace.overhead_frac", "trace.unattributed_frac",
)


def per_layer(totals: dict, workload: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric: the probe's totals plus the workload's own
    measurements (which win), 0 for a layer the workload left idle."""
    measured = {**engine_layer_metrics(totals), **workload}
    unknown = set(measured) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name in PER_LAYER}


def write_spans(probe: Probe, path) -> None:
    """Write the probe's span records as JSON lines (one span a line)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for span_id, parent, name, start, end, context in probe.spans:
            out.write(json.dumps({"id": span_id, "parent": parent,
                                  "name": name, "start": start, "end": end,
                                  "context": context}) + "\n")


def engine_layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metrics of the learning and query layers, from totals."""
    m = totals["metrics"]
    c = totals["counters"]
    lookups = sum(c[f"ci_cache.{name}"] for name in CI_COUNTERS)
    served = c["ci_cache.hits"] + c["ci_cache.stale_reused"]
    out = {
        "stats.ci.requested": m["stats.ci.requested"]["amount"],
        "stats.ci.computed": m["stats.ci"]["amount"],
        "stats.ci.s": m["stats.ci"]["seconds"],
        "stats.ci_cache.hit_frac": served / lookups if lookups else 0.0,
        "stats.ci_cache.retests": c["ci_cache.retests"],
        "discovery.fastpath.attempts": c["discovery.fastpath.attempts"],
        "discovery.fastpath.hits": c["discovery.fastpath.hits"],
        "scm.fused.rows": m["scm.fused"]["amount"],
    }
    for name in ("discovery.learn", "discovery.update", "discovery.pdsep",
                 "scm.fit", "scm.compile", "scm.fused", "inference.query",
                 "systems.measure"):
        if name != "scm.fused":
            out[f"{name}.calls"] = m[name]["calls"]
        out[f"{name}.s"] = m[name]["seconds"]
    for name in ("discovery.fci", "discovery.skeleton", "discovery.orient",
                 "inference.refresh", "inference.sampling", "core.learn",
                 "core.propose", "protocol.codec"):
        out[f"{name}.s"] = m[name]["seconds"]
    for layer, seconds in totals["layers"].items():
        out[f"self_s.{layer}"] = seconds
    return out
