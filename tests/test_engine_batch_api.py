"""Engine-level tests of the batch query APIs and their scalar fallbacks.

The differential suite (``test_batched_vs_scalar.py``) pins the evaluators
to the scalar semantics on random models; these tests pin the *engine*
surface: ``predict_batch`` / ``interventional_expectations_batch`` /
``repair_candidates_batch`` agree between a ``batched=True`` and a
``batched=False`` engine on a real learned model, and the batched scorer
handles degenerate inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.inference.engine import CausalInferenceEngine
from repro.inference.queries import QoSConstraint
from repro.inference.repairs import (
    Repair,
    RepairSet,
    repair_sort_key,
    score_repair_candidates_batched,
)


@pytest.fixture(scope="module")
def engine_pair(cache_model, cache_system):
    domains = {name: cache_system.space.option(name).values
               for name in cache_system.space.option_names}
    return (CausalInferenceEngine(cache_model, domains, batched=True),
            CausalInferenceEngine(cache_model, domains, batched=False))


def test_predict_batch_agrees_across_modes(engine_pair, cache_system):
    batched, scalar = engine_pair
    objective = cache_system.objective_names[0]
    configurations = [cache_system.space.default_configuration(),
                      {}, cache_system.space.default_configuration()]
    configurations[2] = dict(configurations[2])
    option = cache_system.space.option_names[0]
    configurations[2][option] = float(batched.domains[option][-1])
    from_batched = batched.predict_batch(configurations, [objective])
    from_scalar = scalar.predict_batch(configurations, [objective])
    assert len(from_batched) == len(from_scalar) == 3
    for a, b in zip(from_batched, from_scalar):
        assert a[objective] == pytest.approx(b[objective], rel=1e-9,
                                             abs=1e-9)


def test_interventional_expectations_batch_agrees(engine_pair, cache_system):
    batched, scalar = engine_pair
    objective = cache_system.objective_names[0]
    option = cache_system.space.option_names[0]
    interventions = [{option: value} for value in batched.domains[option]]
    interventions.append({})  # no-op intervention: expectation of the mean
    a = batched.interventional_expectations_batch(objective, interventions)
    b = scalar.interventional_expectations_batch(objective, interventions)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
    # The scalar single-query method agrees with its own batch of one.
    assert scalar.interventional_expectation(objective, interventions[0]) \
        == pytest.approx(a[0], rel=1e-9, abs=1e-9)


def test_repair_candidates_batch_matches_scalar_set(engine_pair,
                                                    cache_system):
    batched, scalar = engine_pair
    objective = cache_system.objective_names[0]
    direction = cache_system.objectives[objective]
    faulty_configuration = cache_system.space.default_configuration()
    faulty_measurement = {
        objective: cache_system.true_objective(faulty_configuration,
                                               objective) * 1.2}
    a = batched.repair_candidates_batch(faulty_configuration,
                                        faulty_measurement,
                                        {objective: direction})
    b = scalar.repair_set(faulty_configuration, faulty_measurement,
                          {objective: direction}, batched=False)
    assert [r.changes for r in a] == [r.changes for r in b]
    assert [r.ice for r in a] == pytest.approx([r.ice for r in b],
                                               rel=1e-9, abs=1e-9)


def test_satisfaction_probability_agrees(engine_pair, cache_system,
                                         cache_data):
    batched, scalar = engine_pair
    objective = cache_system.objective_names[0]
    option = cache_system.space.option_names[0]
    constraint = QoSConstraint(objective, cache_system.objectives[objective],
                               threshold=float(np.median(
                                   cache_data.column(objective))))
    intervention = {option: float(batched.domains[option][0])}
    assert batched.satisfaction_probability(constraint, intervention) == \
        scalar.satisfaction_probability(constraint, intervention)


# ---------------------------------------------------------------------------
# Degenerate inputs
# ---------------------------------------------------------------------------
def test_batched_scoring_handles_empty_inputs(engine_pair):
    batched, _ = engine_pair
    evaluator = batched.batched_evaluator
    assert score_repair_candidates_batched(
        evaluator, [], {"a": 1.0}, {"y": 1.0}, {"y": "minimize"}) == []
    repairs = score_repair_candidates_batched(
        evaluator, [{"a": 2.0}], {"a": 1.0}, {"y": 1.0}, {})
    assert len(repairs) == 1
    assert repairs[0].ice == 0.0 and repairs[0].improvement == 0.0


def test_repair_sort_key_breaks_ties_deterministically():
    tied = [
        Repair(changes=(("b", 2.0),), ice=0.5, improvement=0.1),
        Repair(changes=(("a", 1.0), ("b", 2.0)), ice=0.5, improvement=0.1),
        Repair(changes=(("a", 1.0),), ice=0.5, improvement=0.1),
        Repair(changes=(("a", 2.0),), ice=0.5, improvement=0.1),
        Repair(changes=(("c", 0.0),), ice=0.9, improvement=0.0),
    ]
    ranked = RepairSet.ranked(tied)
    assert [r.changes for r in ranked] == [
        (("c", 0.0),),                 # highest ICE first
        (("a", 1.0),),                 # ties: fewer changes, then lexicographic
        (("a", 2.0),),
        (("b", 2.0),),
        (("a", 1.0), ("b", 2.0)),
    ]
    # The key is a total order: reversing the input changes nothing.
    assert [r.changes for r in RepairSet.ranked(tied[::-1])] == \
        [r.changes for r in ranked]
    assert sorted(tied, key=repair_sort_key)[0].changes == (("c", 0.0),)
