"""Workload ``debug-table3``: the paper's debug loop at Table-3 scale.

Closed loop, one engineer: each debugging iteration waits for the
previous one.  ``UnicornDebugger`` repairs catalogued ``QueryTime`` faults
of SQLite with 130 options and 80 events, one fault after another.

The work is fixed: the first ``N_FAULTS`` faults of one catalogue, each
debugged with its catalogue index as the debugger's seed.  Which fault a
repair gets, and from which initial sample it starts, changes its cost by
up to half, so a run drawing its own faults would measure its draw more
than the program.  The workload seed orders the repairs, which also
checks that no repair depends on what ran before it in the process:
every run of every seed must repair each fault identically.  The run
repeats the list until ``--seconds`` have passed (at least once).

An iteration is the gap between two successive loop measurements
(relearn + query + proposal), excluding the measurement itself.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np

from repro.core.debugger import UnicornDebugger
from repro.core.unicorn import UnicornConfig
from repro.evaluation.store import canonical_json
from repro.systems.faults import discover_faults
from repro.systems.registry import get_system

import harness
import layers
from harness import Outcomes, RunResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SYSTEM = ("sqlite", "Xavier")
SCALE = {"n_extra_options": 96, "n_extra_events": 61}
OBJECTIVE = "QueryTime"
#: the Table-3 runner's fault catalogue recipe, with a fixed seed.
CATALOGUE = {"n_samples": 150, "percentile": 95.0, "seed": 1}
N_FAULTS = 3
LOOP = {"initial_samples": 15, "budget": 30, "max_condition_size": 1}
SETUP_REPEATS = 3


def build_faults() -> list:
    """One set-up: the system, its fault catalogue, the repaired faults."""
    system = get_system(*SYSTEM, **SCALE)
    catalogue = discover_faults(system, objectives=[OBJECTIVE], **CATALOGUE)
    faults = catalogue.single_objective(OBJECTIVE)[:N_FAULTS]
    if len(faults) < N_FAULTS:
        raise RuntimeError(f"the catalogue holds {len(faults)} "
                           f"{OBJECTIVE} faults, fewer than {N_FAULTS}")
    return faults


class _MeasureClock:
    """Times a system's loop measurements (not the bulk initial sample)."""

    def __init__(self, system) -> None:
        self.calls: list[tuple[float, float]] = []
        self._bulk = 0
        measure, measure_many = system.measure, system.measure_many

        def timed_measure(*args, **kwargs):
            started = time.perf_counter()
            try:
                return measure(*args, **kwargs)
            finally:
                if not self._bulk:
                    self.calls.append((started, time.perf_counter()))

        def bulk_measure(*args, **kwargs):
            self._bulk += 1
            try:
                return measure_many(*args, **kwargs)
            finally:
                self._bulk -= 1

        system.measure = timed_measure
        system.measure_many = bulk_measure

    def gaps(self) -> list[float]:
        return [nxt[0] - prev[1]
                for prev, nxt in zip(self.calls, self.calls[1:])]


def debug_one(fault, index: int) -> tuple[object, float, list[float]]:
    """Repair catalogue fault ``index`` on a fresh system, with ``index``
    as the debugger's seed; returns (result, seconds, iteration gaps)."""
    system = get_system(*SYSTEM, **SCALE)
    clock = _MeasureClock(system)
    debugger = UnicornDebugger(system, UnicornConfig(seed=index, **LOOP))
    started = time.perf_counter()
    result = debugger.debug_fault(fault, objectives=[OBJECTIVE])
    return result, time.perf_counter() - started, clock.gaps()


def digest(result) -> str:
    """Everything a repair decides, without wall-clock fields."""
    return canonical_json({
        "recommended": result.recommended_configuration,
        "measured": result.recommended_measurement,
        "root_causes": result.root_causes,
        "gains": result.gains,
        "iterations": result.iterations,
        "samples_used": result.samples_used,
    })


def run(seed: int, seconds: float, trace: bool, out_dir) -> RunResult:
    """Run the workload; with ``trace`` it is the traced per-layer run."""
    probe = layers.make_probe().install() if trace else None
    try:
        return _run(seed, seconds, probe, out_dir)
    finally:
        if probe is not None:
            probe.uninstall()


def _run(seed: int, seconds: float, probe, out_dir) -> RunResult:
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        faults = build_faults()
        setups.append(time.perf_counter() - started)
    setup_s = harness.median(setups)
    order = [int(i) for i in np.random.default_rng(seed).permutation(N_FAULTS)]

    errors: list[str] = []
    if probe is not None:
        # Overhead reference and in-run repeatability check: the first
        # repair once with recording off; the loop below repeats it traced.
        probe.set_enabled(False)
        result, untraced_first, _ = debug_one(faults[order[0]], order[0])
        first_digest = digest(result)
        probe.set_enabled(True)
        probe.root_seconds.clear()  # attribute the measured loop only

    outcomes = Outcomes()
    fault_seconds: list[float] = []
    gaps: list[float] = []
    per_repair: list[int] = []
    gains: list[float] = []
    samples: list[int] = []
    digests: dict[str, str] = {}
    started = time.perf_counter()
    repairs = 0
    while repairs < N_FAULTS or time.perf_counter() - started < seconds:
        index = order[repairs % N_FAULTS]
        repairs += 1
        if probe is not None:
            probe.context = f"repair-{repairs}-fault-{index}"
        try:
            result, took, fault_gaps = debug_one(faults[index], index)
        except Exception as exc:  # noqa: BLE001 - a failed repair attempt
            outcomes.fail(type(exc).__name__)
            continue
        if result.mean_gain > 0:
            outcomes.ok()
        else:
            outcomes.fail("no-gain")
        fault_seconds.append(took)
        gaps.extend(fault_gaps)
        per_repair.append(len(fault_gaps))
        gains.append(result.mean_gain)
        samples.append(result.samples_used)
        key = f"fault-{index}"
        if digests.setdefault(key, digest(result)) != digest(result):
            errors.append(f"fault {index} repaired differently when repeated")
    wall = time.perf_counter() - started

    if probe is not None and digests.get(f"fault-{order[0]}") != first_digest:
        errors.append(f"fault {order[0]} repaired differently traced")
    iterations = harness.summarize(gaps, rank=75.0)
    lines = [
        f"repairs          {len(fault_seconds)} (faults {order}, "
        f"iterations timed {per_repair})",
        f"setup_s          {setup_s:.3f} s (median of {SETUP_REPEATS})",
        f"fault_s          {harness.median(fault_seconds):.3f} s "
        f"(median, n={len(fault_seconds)})",
        f"iter_p50_ms      {iterations.p50_ms:.3f} ms (n={iterations.n})",
        f"iter_p75_ms      {iterations.tail_ms:.3f} ms (n={iterations.n})",
        f"gain_pct         {sum(gains) / max(len(gains), 1):.3f} %",
        f"samples_used     {sum(samples) / max(len(samples), 1):.3f} count",
        f"failed_frac      {outcomes.failed_frac:.4f} ratio",
    ]
    if probe is None:
        metrics = {
            "setup_s": setup_s,
            "p50_ms": iterations.p50_ms,
            "throughput_per_s": (len(gaps) + len(fault_seconds)) / wall,
        }
    else:
        metrics = layers.per_layer(probe.totals(), {
            "trace.overhead_frac": fault_seconds[0] / untraced_first - 1.0,
            "trace.unattributed_frac":
                1.0 - probe.root_seconds.get(threading.get_ident(), 0.0)
                / wall,
        })
        layers.write_spans(probe, out_dir / f"trace-debug-table3-seed{seed}"
                                            ".jsonl")
        counts = {k: v for k, v in metrics.items()
                  if k.startswith(("stats.ci.requested", "stats.ci.computed",
                                   "discovery.fastpath",
                                   "systems.measure.calls"))}
        digests[f"counters-{len(fault_seconds)}-repairs"] = \
            canonical_json(counts)
    # Every seed repairs the same faults, so one record serves all seeds;
    # each version of the code keeps its own.
    code = harness.code_digest(ROOT / "src", HERE)
    mismatched = harness.check_repeatable(
        out_dir / f"debug-table3-{code}.json", digests)
    if mismatched:
        errors.append(f"differs from an earlier run: {', '.join(mismatched)}")
    return RunResult(outcomes=outcomes, metrics=metrics, lines=lines,
                     errors=errors)
