"""Differential tests: fused execution plans vs the scalar oracle.

The fused path (:mod:`repro.scm.fused`) compiles propagation schedules
into per-level packed-coefficient GEMMs and is the only batched
propagation path; the scalar methods of ``FittedPerformanceModel`` remain
the reference semantics.  Hypothesis drives random fitted models (random
DAG shapes, random mechanism mixes, N=0/1 edge cases) through the fused
evaluator and holds every answer to the scalar oracle within a
condition-aware bound (1e-9 for well-conditioned fits, see
``_fused_tol``).  The three-way tests add a third leg to that comparison:
the same query dispatched alone (bitwise equal, the serving layer's
coalescing contract) or through the other counterfactual program (merged
vs per key set).  Targeted tests cover single-node graphs, mixed and
row-by-row fallback levels, multi-chunk batches beyond the fixed GEMM
width, the scalar-fold memo and the stale-program invalidation on
structural rebinds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from test_batched_vs_scalar import (
    _fused_tol,
    fitted_and_interventions,
    fitted_models,
)
from repro.scm.batched import BatchedFittedModel
from repro.scm.fitting import FittedEquation, fit_structural_equations
from repro.scm.fused import (
    _GEMM_WIDTH,
    compile_fused_program,
    equation_feature_ops,
)
from repro.scm.mechanisms import InteractionMechanism, LinearMechanism
from repro.scm.model import StructuralCausalModel
from repro.stats.dataset import Dataset

TOL = dict(rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Property-based three-way differentials
# ---------------------------------------------------------------------------
@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_predict_three_way(case):
    """Batch rows equal the same query alone and match the scalar."""
    scm, model, assignments = case
    fused = BatchedFittedModel(model)
    tol = _fused_tol(model)
    rows = fused.predict_batch(assignments)
    assert len(rows) == len(assignments)
    for assignment, row in zip(assignments, rows):
        assert row == fused.predict_batch([assignment])[0]
        scalar = model.predict(assignment)
        assert set(row) == set(scalar)
        for variable, value in scalar.items():
            assert np.allclose(row[variable], value, **tol)


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_interventional_expectation_three_way(case):
    """Batch entries equal the same intervention alone and the scalar."""
    scm, model, interventions = case
    fused = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    values = fused.interventional_expectation_batch(target, interventions)
    assert values.shape == (len(interventions),)
    for j, intervention in enumerate(interventions):
        alone = fused.interventional_expectation_batch(target,
                                                       [intervention])
        assert values[j] == alone[0]
        scalar = model.interventional_expectation(target, intervention)
        assert np.allclose(values[j], scalar, **tol)


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_counterfactual_targets_three_way(case):
    """The merged program, the per-key-set programs and the scalar agree."""
    scm, model, interventions = case
    fused = BatchedFittedModel(model)
    tol = _fused_tol(model)
    observation = model.data.row(0)
    targets = list(scm.endogenous_variables)
    matrix = fused.counterfactual_targets_batch(observation, interventions,
                                                targets)
    outcomes = fused.counterfactual_batch(observation, interventions)
    assert matrix.shape == (len(interventions), len(targets))
    for i, intervention in enumerate(interventions):
        scalar = model.counterfactual(observation, intervention)
        for t, target in enumerate(targets):
            assert np.allclose(matrix[i, t], outcomes[i][target], **tol)
            assert np.allclose(matrix[i, t], scalar.get(target, 0.0),
                               **tol)


# ---------------------------------------------------------------------------
# Targeted shapes
# ---------------------------------------------------------------------------
def _single_node_model():
    """The smallest fittable graph: one option, one endogenous node."""
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0, 2.0)},
        mechanisms={"v0": LinearMechanism({"o0": 1.5}, intercept=0.25)},
        noise={})
    rows = scm.sample(16, np.random.default_rng(3))
    return scm, fit_structural_equations(scm.dag, Dataset.from_rows(rows))


def test_single_node_graph_three_way():
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    assignments = [{"o0": value} for value in (0.0, 1.0, 2.0)]
    rows = fused.predict_batch(assignments)
    for assignment, row in zip(assignments, rows):
        assert row == fused.predict_batch([assignment])[0]
        scalar = model.predict(assignment)
        for variable, value in scalar.items():
            assert np.allclose(row[variable], value, **TOL)
    # Intervening on the only endogenous node leaves an empty schedule.
    empty = fused.predict_batch([{"o0": 1.0, "v0": 9.0}])
    assert np.allclose(empty[0]["v0"], 9.0, **TOL)


class _OpaqueEquation:
    """A non-polynomial stand-in equation that must take the fallback."""

    def __init__(self, inner: FittedEquation) -> None:
        self._inner = inner
        self.parents = inner.parents

    def predict(self, values):
        return 2.0 * self._inner.predict(values) + 1.0

    def predict_batch(self, columns, n_rows):
        return 2.0 * self._inner.predict_batch(columns, n_rows) + 1.0


class _RowOnlyEquation:
    """A non-polynomial equation with ``predict`` but no ``predict_batch``."""

    def __init__(self, inner: FittedEquation) -> None:
        self._inner = inner
        self.parents = inner.parents

    def predict(self, values):
        return 2.0 * self._inner.predict(values) + 1.0


def _mixed_level_model():
    """Two options feeding v0, v1 (one level) which both feed v2."""
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0), "o1": (1.0, 2.0)},
        mechanisms={
            "v0": LinearMechanism({"o0": 2.0, "o1": -1.0}, intercept=0.5),
            "v1": InteractionMechanism(
                {"o0": 1.0, "o1": 0.5},
                interactions={("o0", "o1"): 0.25}, intercept=-0.5),
            "v2": LinearMechanism({"v0": 1.0, "v1": -0.5}, intercept=1.0),
        },
        noise={})
    rows = scm.sample(24, np.random.default_rng(7))
    return fit_structural_equations(scm.dag, Dataset.from_rows(rows))


def test_mixed_fallback_level_matches_scalar():
    """A level mixing fused nodes and fallback equations stays exact."""
    model = _mixed_level_model()
    # Make v1 opaque: level 0 now holds a fused block (v0) and a fallback
    # (v1) side by side, and level 1 (v2) consumes both their columns.
    model._equations["v1"] = _OpaqueEquation(model._equations["v1"])
    assert equation_feature_ops(model.equation("v1")) is None
    fused = BatchedFittedModel(model)
    assignments = [{"o0": a, "o1": b} for a in (0.0, 1.0) for b in (1.0, 2.0)]
    rows = fused.predict_batch(assignments)
    for assignment, row in zip(assignments, rows):
        scalar = model.predict(assignment)
        for variable in ("v0", "v1", "v2"):
            assert np.allclose(row[variable], scalar[variable], **TOL)


def test_fallback_without_predict_batch_runs_per_row():
    """An equation with only a scalar ``predict`` is evaluated row by row
    inside its fused level, for predictions and counterfactuals alike."""
    model = _mixed_level_model()
    model._equations["v1"] = _RowOnlyEquation(model._equations["v1"])
    assert not hasattr(model.equation("v1"), "predict_batch")
    fused = BatchedFittedModel(model)
    assignments = [{"o0": a, "o1": b} for a in (0.0, 1.0) for b in (1.0, 2.0)]
    rows = fused.predict_batch(assignments)
    for assignment, row in zip(assignments, rows):
        scalar = model.predict(assignment)
        for variable in ("v0", "v1", "v2"):
            assert np.allclose(row[variable], scalar[variable], **TOL)
    observation = model.data.row(0)
    targets = ["v0", "v1", "v2"]
    interventions = [{"o0": 1.0}, {"o1": 2.0}, {"o0": 0.0, "o1": 1.0}]
    matrix = fused.counterfactual_targets_batch(observation, interventions,
                                                targets)
    for i, intervention in enumerate(interventions):
        scalar = model.counterfactual(observation, intervention)
        for t, target in enumerate(targets):
            assert np.allclose(matrix[i, t], scalar[target], **TOL)
    column = fused.counterfactual_rows_batch({"o0": 1.0}, "v2")
    for i, row in enumerate(model.data.rows()):
        scalar = model.counterfactual(row, {"o0": 1.0})
        assert np.allclose(column[i], scalar["v2"], **TOL)


@given(fitted_models())
@settings(max_examples=10, deadline=None)
def test_multi_chunk_batches_beyond_gemm_width(case):
    """Batches wider than the fixed GEMM width chunk without drift: every
    row is bitwise equal to the same query alone and matches the scalar."""
    scm, model, _ = case
    fused = BatchedFittedModel(model)
    tol = _fused_tol(model)
    option = scm.exogenous_variables[0]
    domain = scm.domain(option)
    n = _GEMM_WIDTH + 7
    assignments = [{option: domain[i % len(domain)]} for i in range(n)]
    target = scm.endogenous_variables[-1]
    rows = fused.predict_batch(assignments, targets=[target])
    for assignment, row in zip(assignments, rows):
        alone = fused.predict_batch([assignment], targets=[target])[0]
        assert row[target] == alone[target]
        scalar = model.predict(assignment, targets=[target])
        assert np.allclose(row[target], scalar[target], **tol)


def test_fused_rows_bitwise_stable_across_batch_width():
    """Row ``i`` of a batch is bitwise equal to the same query alone.

    The serving layer's coalescing contract: fused products run in
    zero-padded fixed-width chunks precisely so an answer's bits cannot
    depend on what else was in the batch.
    """
    scm2 = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0, 2.0), "o1": (0.5, 1.5)},
        mechanisms={
            "v0": InteractionMechanism(
                {"o0": 1.0, "o1": -2.0},
                interactions={("o0", "o1"): 0.75}, intercept=0.1),
            "v1": LinearMechanism({"v0": 3.0, "o1": 0.5}, intercept=-1.0),
        },
        noise={})
    rows = scm2.sample(20, np.random.default_rng(11))
    model = fit_structural_equations(scm2.dag, Dataset.from_rows(rows))
    fused = BatchedFittedModel(model)
    assignments = [{"o0": float(i % 3), "o1": 0.5 + (i % 2)}
                   for i in range(_GEMM_WIDTH + 9)]
    batch = fused.predict_batch(assignments)
    for i in (0, 1, 7, _GEMM_WIDTH - 1, _GEMM_WIDTH, _GEMM_WIDTH + 8):
        alone = fused.predict_batch([assignments[i]])[0]
        for variable in ("v0", "v1"):
            assert batch[i][variable] == alone[variable]


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------
def test_equation_feature_ops_orders_and_rejects():
    equation = FittedEquation(
        variable="y", parents=("a", "b"),
        feature_names=("a", "b", "a^2", "b^2", "a*b"),
        coefficients=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        intercept=0.5, residual_std=0.0)
    ops = equation_feature_ops(equation)
    assert ops == [("lin", "a", None), ("lin", "b", None),
                   ("sq", "a", None), ("sq", "b", None),
                   ("pair", "a", "b")]
    assert equation_feature_ops(_OpaqueEquation(equation)) is None
    # A coefficient count that does not match the polynomial layout is
    # also rejected (a custom/truncated fit must take the fallback).
    short = FittedEquation(
        variable="y", parents=("a", "b"), feature_names=("a", "b"),
        coefficients=np.array([1.0, 2.0]), intercept=0.0, residual_std=0.0)
    assert equation_feature_ops(short) is None


def test_scalar_fold_memo_replays_and_invalidates():
    scm, model = _single_node_model()
    program = compile_fused_program(
        model, ["v0"], known=["o0"], missing="skip", vector=["o0"])
    column = np.array([0.0, 1.0, 2.0])
    first = dict(program.execute({"o0": column.copy()}, 3,
                                 scalar_token=("epoch", 1)))
    assert program._scalar_memo is not None
    assert program._scalar_memo[0] == ("epoch", 1)
    # Same token: the fold is replayed, answers unchanged.
    replay = program.execute({"o0": column.copy()}, 3,
                             scalar_token=("epoch", 1))
    assert np.array_equal(first["v0"], replay["v0"])
    # A new token recomputes and re-records.
    program.execute({"o0": column.copy()}, 3, scalar_token=("epoch", 2))
    assert program._scalar_memo[0] == ("epoch", 2)
    # Execution without a token neither uses nor disturbs the memo.
    bare = program.execute({"o0": column.copy()}, 3)
    assert np.array_equal(first["v0"], bare["v0"])
    assert program._scalar_memo[0] == ("epoch", 2)


def test_fused_programs_dropped_on_structural_rebind():
    """Satellite regression: stale plans must not survive a rebind."""
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    fused.predict_batch([{"o0": 1.0}])
    plan = fused.plan
    assert plan.fused_programs(model)  # compiled and cached
    plan.rebind(scm.dag, structure_changed=True)
    assert plan.fused_programs(model) == {}
    # A rebind without structural change keeps the compiled programs.
    fused.predict_batch([{"o0": 1.0}])
    assert plan.fused_programs(model)
    plan.rebind(scm.dag, structure_changed=False)
    assert plan.fused_programs(model)
    # A different owner model can never replay this model's coefficients.
    assert plan.fused_programs(object()) == {}


def test_fused_program_cache_reused_across_calls():
    scm, model = _single_node_model()
    fused = BatchedFittedModel(model)
    fused.predict_batch([{"o0": 0.0}])
    programs = fused.plan.fused_programs(model)
    compiled = dict(programs)
    fused.predict_batch([{"o0": 1.0}, {"o0": 2.0}])
    after = fused.plan.fused_programs(model)
    for key, program in compiled.items():
        assert after[key] is program
