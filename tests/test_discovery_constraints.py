"""Tests for structural constraints."""

import pytest

from repro.discovery.constraints import StructuralConstraints, VariableRole


@pytest.fixture
def constraints() -> StructuralConstraints:
    return StructuralConstraints.from_variable_lists(
        options=["o1", "o2"], events=["e1"], objectives=["y"],
        non_intervenable={"o2"})


def test_role_lookup(constraints):
    assert constraints.role("o1") is VariableRole.OPTION
    assert constraints.role("e1") is VariableRole.EVENT
    assert constraints.role("y") is VariableRole.OBJECTIVE
    assert constraints.options() == ["o1", "o2"]
    assert constraints.events() == ["e1"]
    assert constraints.objectives() == ["y"]


def test_option_option_adjacency_forbidden(constraints):
    allowed = constraints.adjacency_matrix(["o1", "o2", "e1", "y"])
    assert not allowed[0, 1] and not allowed[1, 0]
    assert allowed[0, 2] and allowed[2, 0]
    assert allowed[2, 3]
    assert not allowed.diagonal().any()


def test_option_option_adjacency_can_be_enabled():
    constraints = StructuralConstraints.from_variable_lists(
        options=["a", "b"], events=[], objectives=["y"],
        forbid_option_option_edges=False)
    assert constraints.adjacency_matrix(["a", "b"])[0, 1]


def test_direction_rules(constraints):
    # Options are exogenous: nothing may cause them.
    assert not constraints.direction_allowed("e1", "o1")
    assert constraints.direction_allowed("o1", "e1")
    # Objectives are sinks: they cause nothing.
    assert not constraints.direction_allowed("y", "e1")
    assert constraints.direction_allowed("e1", "y")


def test_forbidden_edges_respected():
    constraints = StructuralConstraints.from_variable_lists(
        options=["o"], events=["e"], objectives=["y"],
        forbidden_edges={("o", "e")})
    assert not constraints.direction_allowed("o", "e")


def test_intervenability(constraints):
    assert constraints.is_intervenable("o1")
    assert not constraints.is_intervenable("o2")   # frozen by the user
    assert not constraints.is_intervenable("e1")   # events are observed only
    assert not constraints.is_intervenable("y")


def test_conditioning_excludes_objectives(constraints):
    assert constraints.conditioning_allowed("o1")
    assert constraints.conditioning_allowed("e1")
    assert not constraints.conditioning_allowed("y")
