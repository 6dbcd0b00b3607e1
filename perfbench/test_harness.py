"""Unit tests for the benchmark's statistics and span accounting.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter

import pytest

import harness
from harness import Outcomes
from probe import Point, Probe


# ---------------------------------------------------------- percentile rule
@pytest.mark.parametrize("n, rank", [
    (19, None),      # not even the p75 has ten samples beyond it
    (40, 75.0),      # 10 beyond the p75
    (99, 75.0),      # 9.9 beyond the p90: not enough
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (100_000, 99.0),  # p99 is the highest candidate
])
def test_tail_rank_needs_ten_samples_beyond(n, rank):
    assert harness.tail_rank(n) == rank


def test_summarize_reports_median_and_supported_tail():
    seconds = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    summary = harness.summarize(seconds)
    assert summary.n == 100
    assert summary.p50_ms == pytest.approx(50.5)
    assert summary.tail_rank == 90.0
    assert summary.tail_ms == pytest.approx(90.1)


def test_summarize_never_reports_an_unsupported_tail():
    summary = harness.summarize([0.001] * 50, rank=99.0)
    assert summary.tail_rank == 75.0
    assert harness.summarize([0.001] * 10, rank=75.0).tail_ms is None


def test_percentile_matches_linear_interpolation():
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 50) == pytest.approx(2.5)
    assert harness.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# ---------------------------------------------------------- open-loop timing
def test_latency_is_measured_from_the_due_time():
    due = [0.0, 1.0, 2.0]
    done = [0.5, 3.0, 2.25]  # the second request stalled behind a pause
    assert harness.due_time_latencies(due, done, deadline=10.0) == \
        pytest.approx([0.5, 2.0, 0.25])


def test_a_failed_request_is_a_latency_miss_at_the_deadline():
    latencies = harness.due_time_latencies([0.0, 1.0], [0.1, None],
                                           deadline=10.0)
    assert latencies == pytest.approx([0.1, 10.0])
    with pytest.raises(ValueError):
        harness.due_time_latencies([0.0], [], deadline=1.0)


def test_generator_lateness_counts_only_late_sends():
    assert harness.lateness([1.0, 2.0, 3.0], [1.0, 2.5, 2.9]) == \
        pytest.approx([0.0, 0.5, 0.0])


# ---------------------------------------------------------- failure counting
def test_outcomes_count_every_failure_against_attempts():
    outcomes = Outcomes()
    outcomes.ok(8)
    outcomes.fail("AdmissionError")
    outcomes.fail("timeout")
    assert (outcomes.attempted, outcomes.failed) == (10, 2)
    outcomes.demote("wrong-answer")  # an answered request found wrong
    assert (outcomes.attempted, outcomes.failed) == (10, 3)
    assert outcomes.failed_frac == pytest.approx(0.3)
    assert dict(outcomes.reasons) == {"AdmissionError": 1, "timeout": 1,
                                      "wrong-answer": 1}
    assert Outcomes().failed_frac == 0.0


def test_repeatability_file_records_then_checks(tmp_path):
    path = tmp_path / "seed.json"
    assert harness.check_repeatable(path, {"a": "1"}) == []
    assert harness.check_repeatable(path, {"a": "1", "b": "2"}) == []
    assert harness.check_repeatable(path, {"a": "x", "b": "2"}) == ["a"]


def test_code_digest_changes_with_the_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not code")
    first = harness.code_digest(tmp_path)
    (tmp_path / "notes.txt").write_text("still not code")
    assert harness.code_digest(tmp_path) == first
    (tmp_path / "pkg" / "mod.py").write_text("x = 2\n")
    assert harness.code_digest(tmp_path) != first


def _fake_workload(outcomes, errors=()):
    """A stand-in for a workload module that reports the declared
    end-to-end metrics (``rss_mb`` is added by ``run.py``)."""
    metrics = {"setup_s": 1.0, "p50_ms": 2.0, "throughput_per_s": 3.0}
    return types.SimpleNamespace(run=lambda *args: harness.RunResult(
        outcomes=outcomes, metrics=metrics, errors=list(errors)))


@pytest.mark.parametrize("outcomes, errors, code", [
    (Outcomes(attempted=5), (), 0),
    (Outcomes(attempted=5, failed=1, reasons=Counter(timeout=1)), (), 1),
    (Outcomes(attempted=5), ("probe answers differ",), 1),
])
def test_a_failed_attempt_or_check_fails_the_run(monkeypatch, capsys,
                                                 outcomes, errors, code):
    import run

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "debug_table3",
                        _fake_workload(outcomes, errors))
    assert run.main(["--workload", "debug-table3", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (code == 0)
    assert result["failed"] == outcomes.failed


# ------------------------------------------------------------------ probe
def _fake_layers():
    outer = types.SimpleNamespace()
    inner = types.SimpleNamespace()
    inner.work = lambda n: sum(range(n))
    outer.run = lambda n: inner.work(n) + inner.work(n)
    return outer, inner


def test_probe_counts_calls_amounts_and_self_time():
    outer, inner = _fake_layers()
    probe = Probe([Point(outer, "run", "outer.run", "outer"),
                   Point(inner, "work", "inner.work", "inner",
                         amount=lambda args, kwargs: float(args[0]))])
    probe.install()
    try:
        outer.run(1000)
        probe.set_enabled(False)
        outer.run(1000)  # not recorded
    finally:
        probe.uninstall()
    totals = probe.totals()
    assert totals["metrics"]["outer.run"]["calls"] == 1
    assert totals["metrics"]["inner.work"]["calls"] == 2
    assert totals["metrics"]["inner.work"]["amount"] == 2000
    inner_s = totals["metrics"]["inner.work"]["seconds"]
    outer_s = totals["metrics"]["outer.run"]["seconds"]
    assert totals["layers"]["inner"] == pytest.approx(inner_s)
    assert totals["layers"]["outer"] == pytest.approx(outer_s - inner_s)
    names = [span[2] for span in probe.spans]
    assert names == ["inner.work", "inner.work", "outer.run"]
    root_id = probe.spans[-1][0]
    assert [span[1] for span in probe.spans[:2]] == [root_id, root_id]
    assert outer.run(3) == 6  # uninstalled: the original function again


# ------------------------------------------------------------ declarations
def test_spec_and_layers_declare_what_benchmark_json_declares():
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import layers

    bench = json.loads((here.parent / "BENCHMARK.json").read_text())
    spec = json.loads((here / "spec.json").read_text())
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    assert sorted(spec["per_layer"]) == sorted(per_layer)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    assert sorted(spec["end_to_end"]) == sorted(end_to_end)
    for name, entry in spec["end_to_end"].items():
        assert entry["unit"] == end_to_end[name]["unit"]
        assert entry["bound"] == end_to_end[name]["bound"]
        assert sorted(entry["meaning"]) == sorted(spec["workloads"])
    declared = [name for name, w in spec["workloads"].items()
                if w["declared"]]
    assert sorted(declared) == sorted(w["name"] for w in bench["workloads"])


def test_every_probe_derived_metric_is_declared():
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import layers

    derived = layers.engine_layer_metrics(layers.make_probe().totals())
    assert set(derived) <= set(layers.PER_LAYER)
    assert "protocol.codec.s" in derived
