"""Differential tests: the batched evaluator vs. the scalar reference oracle.

The batched query subsystem (``repro.scm.batched``) must be semantically
equivalent to the scalar methods of ``FittedPerformanceModel`` it
vectorizes — the scalar path *is* the specification.  Hypothesis generates
random SCMs (random DAG shapes, random mechanism types, random domains),
fits models to data sampled from them and draws random batches (including
the N=0 and N=1 edge cases); every batched answer is held to its scalar
counterpart within :func:`_fused_tol`.  The batched evaluator runs every
propagation through compiled fused programs, whose reassociated summation
makes that bound condition-aware: exactly 1e-9 on well-conditioned fits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.inference.repairs import individual_causal_effect
from repro.scm.batched import BatchedFittedModel, group_by_keyset
from repro.scm.fitting import fit_structural_equations
from repro.scm.mechanisms import (
    CategoricalTableMechanism,
    ClippedMechanism,
    InteractionMechanism,
    LinearMechanism,
    PolynomialMechanism,
    SaturatingMechanism,
)
from repro.scm.model import StructuralCausalModel
from repro.scm.noise import GaussianNoise, UniformNoise
from repro.stats.dataset import Dataset

TOL = dict(rtol=1e-9, atol=1e-9)


def _fused_tol(model):
    """Condition-aware tolerance for the reassociated fused path.

    Hypothesis-generated fits can be arbitrarily ill-conditioned:
    discrete options make x and x^2 (near-)collinear, so lstsq splits
    coefficient mass between cancelling features whose magnitude is
    unbounded (observed up to ~1e9).  Reassociating the summation — as
    the fused base fold does — then loses ~eps per unit of coefficient
    magnitude, compounding once per level, so the honest bound scales
    with the square of the largest coefficient.  Well-conditioned fits
    (the hand-built models, the pinned benchmark scan) keep the hard
    1e-9 of ``TOL``.
    """
    scale = 1.0
    for equation in model._equations.values():
        coefficients = getattr(equation, "coefficients", None)
        if coefficients is not None and len(coefficients):
            scale = max(scale, float(np.max(np.abs(coefficients))),
                        abs(float(equation.intercept)))
    return dict(rtol=1e-9, atol=max(1e-9, 1e-12 * scale * scale))

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def random_scms(draw) -> StructuralCausalModel:
    """A random SCM mixing every built-in mechanism type."""
    n_options = draw(st.integers(1, 3))
    exogenous = {}
    for i in range(n_options):
        size = draw(st.integers(2, 4))
        values = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                               min_size=size, max_size=size, unique=True))
        exogenous[f"o{i}"] = tuple(values)

    mechanisms = {}
    noise = {}
    available = list(exogenous)
    n_endogenous = draw(st.integers(1, 4))
    for j in range(n_endogenous):
        name = f"v{j}"
        n_parents = draw(st.integers(1, min(3, len(available))))
        parents = draw(st.permutations(available))[:n_parents]
        kind = draw(st.sampled_from(
            ["linear", "poly", "interaction", "saturating", "table",
             "clipped"]))
        if kind == "linear":
            mechanism = LinearMechanism(
                {p: draw(coefficients) for p in parents},
                intercept=draw(coefficients))
        elif kind == "poly":
            mechanism = PolynomialMechanism(
                {p: (draw(coefficients), draw(st.floats(-0.5, 0.5)))
                 for p in parents},
                intercept=draw(coefficients))
        elif kind == "interaction":
            mechanism = InteractionMechanism(
                {p: draw(coefficients) for p in parents},
                interactions={tuple(parents): draw(st.floats(-0.5, 0.5))},
                intercept=draw(coefficients))
        elif kind == "saturating":
            mechanism = SaturatingMechanism(
                driver=parents[0],
                scale=abs(draw(coefficients)) + 0.5,
                half_point=abs(draw(coefficients)) + 0.5,
                baseline=draw(coefficients),
                modifiers={p: draw(coefficients) for p in parents[1:]})
        elif kind == "table":
            levels = draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                                   min_size=1, max_size=4, unique=True))
            mechanism = CategoricalTableMechanism(
                selector=parents[0],
                table={level: draw(coefficients) for level in levels},
                default=draw(coefficients),
                linear={p: draw(coefficients) for p in parents[1:]},
                intercept=draw(coefficients))
        else:
            lower = draw(st.floats(-20.0, 0.0, allow_nan=False))
            mechanism = ClippedMechanism(
                LinearMechanism({p: draw(coefficients) for p in parents},
                                intercept=draw(coefficients)),
                lower=lower,
                upper=lower + abs(draw(st.floats(0.0, 40.0))))
        mechanisms[name] = mechanism
        noise_kind = draw(st.sampled_from(["none", "gauss", "uniform"]))
        if noise_kind == "gauss":
            noise[name] = GaussianNoise(abs(draw(st.floats(0.0, 1.0))))
        elif noise_kind == "uniform":
            noise[name] = UniformNoise(abs(draw(st.floats(0.0, 1.0))))
        available.append(name)
    return StructuralCausalModel(exogenous, mechanisms, noise)


def _tiny_scm() -> StructuralCausalModel:
    """A small deterministic SCM for the non-property edge-case tests."""
    return StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0), "o1": (1.0, 2.0, 4.0)},
        mechanisms={
            "v0": LinearMechanism({"o0": 2.0, "o1": -1.0}, intercept=3.0),
            "v1": SaturatingMechanism(driver="v0", scale=5.0, half_point=2.0,
                                      modifiers={"o1": 0.5}),
        },
        noise={"v0": GaussianNoise(0.3)})


@st.composite
def fitted_models(draw):
    """A fitted model over data sampled from a random SCM."""
    scm = draw(random_scms())
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    rows = scm.sample(draw(st.integers(12, 40)), rng)
    data = Dataset.from_rows(rows)
    return scm, fit_structural_equations(scm.dag, data), seed


@st.composite
def fitted_and_interventions(draw):
    scm, model, seed = draw(fitted_models())
    n = draw(st.integers(0, 8))
    options = scm.exogenous_variables
    interventions = []
    for i in range(n):
        intervention = {}
        for name in options:
            if draw(st.booleans()):
                intervention[name] = draw(st.sampled_from(scm.domain(name)))
        if not intervention:
            intervention[options[i % len(options)]] = \
                scm.domain(options[i % len(options)])[0]
        interventions.append(intervention)
    return scm, model, interventions


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_predict_batch_matches_scalar(case):
    scm, model, assignments = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    results = batched.predict_batch(assignments, targets=[target])
    assert len(results) == len(assignments)
    for assignment, result in zip(assignments, results):
        scalar = model.predict(assignment, targets=[target])
        assert np.allclose(result[target], scalar[target], **tol)


@given(fitted_and_interventions(), st.sampled_from([3, 10, 200]))
@settings(max_examples=25, deadline=None)
def test_interventional_expectation_batch_fitted_matches_scalar(case,
                                                                max_contexts):
    scm, model, interventions = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    target = scm.endogenous_variables[-1]
    values = batched.interventional_expectation_batch(
        target, interventions, max_contexts=max_contexts)
    assert values.shape == (len(interventions),)
    for j, intervention in enumerate(interventions):
        scalar = model.interventional_expectation(target, intervention,
                                                  max_contexts=max_contexts)
        assert np.allclose(values[j], scalar, **tol)


@given(fitted_and_interventions())
@settings(max_examples=25, deadline=None)
def test_counterfactual_batch_fitted_matches_scalar(case):
    scm, model, interventions = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    observation = model.data.row(0)
    outcomes = batched.counterfactual_batch(observation, interventions)
    targets = list(scm.endogenous_variables)
    matrix = batched.counterfactual_targets_batch(observation, interventions,
                                                  targets)
    for i, intervention in enumerate(interventions):
        scalar = model.counterfactual(observation, intervention)
        assert set(outcomes[i]) == set(scalar)
        for variable, value in scalar.items():
            assert np.allclose(outcomes[i][variable], value, **tol)
        for t, target in enumerate(targets):
            assert np.allclose(matrix[i, t], scalar.get(target, 0.0), **tol)


@given(fitted_models())
@settings(max_examples=20, deadline=None)
def test_counterfactual_rows_batch_matches_scalar(case):
    scm, model, _ = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    option = scm.exogenous_variables[0]
    target = scm.endogenous_variables[-1]
    intervention = {option: scm.domain(option)[-1]}
    column = batched.counterfactual_rows_batch(intervention, target)
    rows = model.data.rows()
    assert column.shape == (len(rows),)
    for i, row in enumerate(rows):
        scalar = model.counterfactual(row, intervention)
        assert np.allclose(column[i], scalar.get(target, 0.0), **tol)


@given(fitted_models())
@settings(max_examples=15, deadline=None)
def test_repair_scoring_batched_matches_scalar_ice(case):
    """Batched candidate scoring reproduces individual_causal_effect."""
    scm, model, _ = case
    batched = BatchedFittedModel(model)
    tol = _fused_tol(model)
    option = scm.exogenous_variables[0]
    target = scm.endogenous_variables[-1]
    objectives = {target: "minimize"}
    observation = model.data.row(0)
    faulty_configuration = {name: observation[name]
                            for name in scm.exogenous_variables}
    faulty_measurement = {target: observation[target]}
    scale = max(abs(faulty_measurement[target]), 1e-9)
    candidates = [{option: value} for value in scm.domain(option)]
    for change in candidates:
        ice, improvement, predicted = individual_causal_effect(
            model, faulty_configuration, faulty_measurement, change,
            objectives)
        matrix = batched.counterfactual_targets_batch(
            {**faulty_measurement, **faulty_configuration}, [change],
            [target])
        assert np.allclose(matrix[0, 0], predicted[target], **tol)
        # ICE = tanh(4 * margin) with margin = (faulty - value) / scale is
        # 4/scale-Lipschitz in the counterfactual value, so the value's
        # bound carries over scaled by that constant.
        margin = (faulty_measurement[target] - matrix[0, 0]) / scale
        value_bound = tol["atol"] + tol["rtol"] * abs(predicted[target])
        assert abs(np.tanh(4.0 * margin) - ice) <= \
            4.0 * value_bound / scale + 1e-12


def test_abduction_handles_heterogeneous_observation_keysets():
    """Observations of different variable subsets abduct like the scalar.

    Dropping an observed variable removes its residual (and every residual
    downstream that needs it as a parent); together with an intervention
    on a variable downstream of another intervened one, or on a key the
    observation lacks, that makes the merged counterfactual program refuse
    and the per-key-set programs answer instead.  An extra unknown key must
    be carried through, and an empty intervention changes nothing.
    """
    scm = _tiny_scm()
    rows = scm.sample(20, np.random.default_rng(4))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    batched = BatchedFittedModel(model)
    full = dict(model.data.row(0))
    observations = [full,
                    {k: v for k, v in full.items() if k != "v0"},
                    {k: v for k, v in full.items() if k != "o1"},
                    {**full, "extra": 99.0}]
    batches = [[{"o0": 1.0}, {"o1": 2.0}, {"o0": 0.0, "o1": 4.0}],
               [{"o0": 1.0}, {"v0": 5.0}],
               [{"o1": 2.0}, {"extra": 7.0}],
               [{}, {}]]
    targets = ["v0", "v1"]
    for observation in observations:
        for interventions in batches:
            outcomes = batched.counterfactual_batch(observation,
                                                    interventions)
            matrix = batched.counterfactual_targets_batch(
                observation, interventions, targets)
            for i, intervention in enumerate(interventions):
                scalar = model.counterfactual(observation, intervention)
                assert set(outcomes[i]) == set(scalar)
                for variable, value in scalar.items():
                    assert np.allclose(outcomes[i][variable], value, **TOL)
                for t, target in enumerate(targets):
                    assert np.allclose(matrix[i, t],
                                       scalar.get(target, 0.0), **TOL)


def test_group_by_keyset_covers_all_indices():
    mappings = [{"a": 1.0}, {"b": 2.0}, {"a": 3.0}, {}, {"a": 1.0, "b": 2.0}]
    groups = group_by_keyset(mappings)
    seen = sorted(i for _, idx in groups for i in idx)
    assert seen == list(range(len(mappings)))
    keys = {frozenset(k) for k, _ in groups}
    assert keys == {frozenset({"a"}), frozenset({"b"}), frozenset(),
                    frozenset({"a", "b"})}


def test_fitted_batch_empty_and_singleton():
    scm = _tiny_scm()
    rows = scm.sample(20, np.random.default_rng(0))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    batched = BatchedFittedModel(model)
    target = scm.endogenous_variables[-1]
    option = scm.exogenous_variables[0]
    observation = model.data.row(0)
    assert batched.predict_batch([]) == []
    assert batched.interventional_expectation_batch(target, []).shape == (0,)
    assert batched.counterfactual_batch(observation, []) == []
    assert batched.counterfactual_targets_batch(
        observation, [], [target]).shape == (0, 1)
    intervention = {option: scm.domain(option)[0]}
    single = batched.interventional_expectation_batch(target, [intervention])
    scalar = model.interventional_expectation(target, intervention,
                                              max_contexts=200)
    assert np.allclose(single[0], scalar, **TOL)
    # Intervening on the target itself pins its expectation.
    pinned = batched.interventional_expectation_batch(target,
                                                      [{target: 3.0}])
    assert pinned[0] == model.interventional_expectation(target,
                                                         {target: 3.0})
    [predicted] = batched.predict_batch([intervention])
    for variable, value in model.predict(intervention).items():
        assert np.allclose(predicted[variable], value, **TOL)
    [outcome] = batched.counterfactual_batch(observation, [intervention])
    for variable, value in model.counterfactual(observation,
                                                intervention).items():
        assert np.allclose(outcome[variable], value, **TOL)
