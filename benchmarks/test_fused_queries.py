"""Benchmark: fused execution plans vs the scalar oracle.

The acceptance gate of the fused-query subsystem: the 256-candidate
repair scan over the SQLite subject (the same pinned scan as
``test_batched_queries.py``) must run at least **10x faster** through the
fused per-level GEMM programs than through the scalar oracle on one CPU,
while reproducing the scalar oracle's repair ranking exactly and every
ICE to 1e-9.  (10x is the product of the 5x batched-vs-scalar and 2x
fused-vs-per-node gates it replaces, so no bound is loosened.)

Timing protocol: both paths are warmed (compiled programs, memoized
candidate grids, scalar-fold memos — the steady serving state), then
timed in **interleaved rounds on CPU time** (``time.process_time``) and
compared by medians; interleaving cancels slow drift of a loaded runner
and CPU-time medians are immune to scheduler preemption, which at
millisecond scan scale otherwise dominates wall-clock.  A second gate
measures the cross-request result cache: a repeated mixed workload must
be served with a hit rate near the repeat fraction, byte-identically to
a cache-off registry.  ``FUSED_BENCH_QUICK=1`` trims rounds for CI; the
gates are unchanged.
"""

from __future__ import annotations

import os
import time

import numpy as np

from test_batched_queries import _build_scan
from repro.inference.query_plan import QueryPlan
from repro.inference.repairs import generate_repair_set
from repro.scm.batched import BatchedFittedModel
from repro.service import ModelRegistry, RequestBatcher, mixed_workload
from repro.service.workload import canonical_answers
from repro.systems.registry import get_system

QUICK = os.environ.get("FUSED_BENCH_QUICK") == "1"
#: interleaved (fused, scalar) timing pairs; medians need enough pairs
#: to shrug off the occasional preempted round even in quick mode.
ROUNDS = 9 if QUICK else 25
REQUIRED_SPEEDUP = 10.0
N_CANDIDATES = 256
REQUIRED_HIT_RATE = 0.40
SEED = 17


def test_fused_repair_scan_speedup_and_identity(results_recorder):
    (engine, paths, constraints, domains, faulty_configuration,
     faulty_measurement, directions) = _build_scan()
    model = engine.fitted_model

    def scan(evaluator, plan):
        return generate_repair_set(
            model, paths, constraints, domains, faulty_configuration,
            faulty_measurement, directions, max_combined_options=5,
            max_repairs=N_CANDIDATES, evaluator=evaluator, plan=plan)

    fused = BatchedFittedModel(model)
    fused_plan = QueryPlan(model.dag)

    # Correctness before speed: the fused path reproduces the scalar
    # oracle's ranking exactly, and every ICE agrees to 1e-9.
    scalar_set = scan(None, None)
    fused_set = scan(fused, fused_plan)
    assert len(fused_set) == N_CANDIDATES
    assert [r.changes for r in fused_set] == \
        [r.changes for r in scalar_set]
    max_ice_diff = float(max(
        abs(f.ice - s.ice) for f, s in zip(fused_set, scalar_set)))
    assert max_ice_diff <= 1e-9

    # Interleaved warm CPU-time rounds (see the module docstring).
    fused_timings, scalar_timings = [], []
    for _ in range(ROUNDS):
        started = time.process_time()
        scan(fused, fused_plan)
        fused_timings.append(time.process_time() - started)
        started = time.process_time()
        scan(None, None)
        scalar_timings.append(time.process_time() - started)
    fused_seconds = float(np.median(fused_timings))
    scalar_seconds = float(np.median(scalar_timings))
    speedup = scalar_seconds / fused_seconds

    payload = {
        "n_candidates": len(fused_set),
        "scalar_ms": scalar_seconds * 1000.0,
        "fused_ms": fused_seconds * 1000.0,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "max_ice_diff_vs_scalar": max_ice_diff,
        "top_repair": dict(fused_set.best().changes),
    }
    results_recorder("fused_queries_repair_scan", payload)
    print(f"\n256-candidate repair scan: scalar "
          f"{payload['scalar_ms']:.2f} ms vs fused "
          f"{payload['fused_ms']:.2f} ms -> {speedup:.2f}x "
          f"(max ICE diff vs scalar {max_ice_diff:.1e})")

    assert speedup >= REQUIRED_SPEEDUP


def test_result_cache_hit_rate_and_identity(results_recorder):
    """Repeated traffic is served from the result cache, byte-identically.

    The same mixed workload is dispatched twice against a cached registry
    (second pass ≈ all hits) and once against a cache-off registry; the
    answers must agree byte for byte and the hit rate must clear the
    tracked floor.
    """
    spec = {"system": "sqlite", "n_samples": 60, "seed": SEED}
    system = get_system("sqlite")
    cached_registry = ModelRegistry(capacity=1, result_cache_size=512)
    plain_registry = ModelRegistry(capacity=1, result_cache_size=0)
    cached_entry = cached_registry.get_or_fit(spec)
    plain_entry = plain_registry.get_or_fit(spec)
    requests = mixed_workload(cached_entry.key, cached_entry.engine,
                              system.objectives, 96, seed=SEED,
                              max_repairs=32)

    batcher = RequestBatcher()
    first = batcher.dispatch(cached_entry, requests)
    started = time.process_time()
    second = batcher.dispatch(cached_entry, requests)
    cached_seconds = time.process_time() - started
    hit_rate = batcher.cache_hits / (batcher.cache_hits +
                                     batcher.cache_misses)

    plain_batcher = RequestBatcher()
    plain_batcher.dispatch(plain_entry, requests)
    started = time.process_time()
    reference = plain_batcher.dispatch(plain_entry, requests)
    plain_seconds = time.process_time() - started

    assert canonical_answers(first) == canonical_answers(reference)
    assert canonical_answers(second) == canonical_answers(reference)
    payload = {
        "n_requests": len(requests),
        "cache_hit_rate": hit_rate,
        "required_hit_rate": REQUIRED_HIT_RATE,
        "repeat_pass_ms": cached_seconds * 1000.0,
        "uncached_pass_ms": plain_seconds * 1000.0,
        "engine_calls_cached": batcher.calls,
        "engine_calls_uncached": plain_batcher.calls,
    }
    results_recorder("fused_queries_result_cache", payload)
    print(f"\nrepeated {len(requests)}-query workload: hit rate "
          f"{hit_rate:.2f}, repeat pass {payload['repeat_pass_ms']:.1f} ms "
          f"vs uncached {payload['uncached_pass_ms']:.1f} ms")
    assert hit_rate >= REQUIRED_HIT_RATE
    # The cached repeat pass issued no engine calls beyond the first pass.
    assert batcher.calls < plain_batcher.calls


def test_context_and_mean_caches_microbench(results_recorder):
    """Per-epoch memoization of contexts and column means pays its way.

    ``_context_matrix`` must hand back the identical matrix object across
    calls of one data epoch, and repeated ACE-style interventional sweeps
    (which hit both caches on every level) are timed as an informational
    microbenchmark.
    """
    (engine, _, _, domains, _, _, directions) = _build_scan()
    model = engine.fitted_model
    evaluator = BatchedFittedModel(model)
    objective = next(iter(directions))
    option = next(iter(domains))
    interventions = [{option: value} for value in domains[option]] * 8

    evaluator.interventional_expectation_batch(objective, interventions)
    assert evaluator._context_matrix(200) is evaluator._context_matrix(200)

    timings = []
    for _ in range(ROUNDS):
        started = time.process_time()
        evaluator.interventional_expectation_batch(objective, interventions)
        timings.append(time.process_time() - started)
    sweep_seconds = float(np.median(timings))
    payload = {
        "n_interventions": len(interventions),
        "sweep_ms": sweep_seconds * 1000.0,
    }
    results_recorder("fused_queries_interventional_sweep", payload)
    print(f"\n{len(interventions)}-intervention warm sweep: "
          f"{payload['sweep_ms']:.2f} ms")
