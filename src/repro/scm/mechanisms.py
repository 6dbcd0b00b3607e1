"""Structural-equation mechanisms.

A mechanism computes the value of a variable from the values of its causal
parents (plus an additive exogenous noise term handled by the SCM).  The paper
characterises functional nodes with polynomial models "because of their
simplicity and their explainable nature"; the ground-truth system models also
use saturating and categorical-table mechanisms so that the simulated systems
exhibit the non-linear, multi-modal behaviour highlighted in Fig. 3.

Every mechanism implements ``evaluate(parent_values)`` where ``parent_values``
is a ``{parent_name: value}`` mapping, and exposes ``parents`` so the SCM can
build its DAG from the mechanisms alone.  Mechanisms are only ever evaluated
one row at a time: ground-truth SCMs simulate measurements, while the batched
query paths run over the *fitted* structural equations
(:mod:`repro.scm.batched`).
"""

from __future__ import annotations

import math
from typing import Mapping, Protocol, Sequence


class Mechanism(Protocol):
    """Protocol for structural-equation mechanisms."""

    @property
    def parents(self) -> tuple[str, ...]:
        """Names of the causal parents read by :meth:`evaluate`."""
        ...  # pragma: no cover

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """Value of the variable given its parents (noise excluded)."""
        ...  # pragma: no cover


class LinearMechanism:
    """``value = intercept + sum_i coefficient_i * parent_i``."""

    def __init__(self, coefficients: Mapping[str, float],
                 intercept: float = 0.0) -> None:
        self._coefficients = dict(coefficients)
        self._intercept = float(intercept)

    @property
    def parents(self) -> tuple[str, ...]:
        return tuple(self._coefficients)

    @property
    def coefficients(self) -> dict[str, float]:
        return dict(self._coefficients)

    @property
    def intercept(self) -> float:
        return self._intercept

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """The affine combination of the parent values."""
        total = self._intercept
        for parent, coefficient in self._coefficients.items():
            total += coefficient * float(parent_values[parent])
        return total

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*{p}" for p, c in self._coefficients.items())
        return f"LinearMechanism({self._intercept:g} + {terms})"


class InteractionMechanism:
    """Linear terms plus pairwise (or higher-order) multiplicative terms.

    ``interactions`` maps a tuple of parent names to a coefficient, e.g.
    ``{("Bitrate", "BufferSize"): 4.1}`` contributes
    ``4.1 * Bitrate * BufferSize`` — the kind of term shown in Fig. 6.
    """

    def __init__(self, linear: Mapping[str, float],
                 interactions: Mapping[Sequence[str], float] | None = None,
                 intercept: float = 0.0) -> None:
        self._linear = dict(linear)
        self._interactions = {tuple(k): float(v)
                              for k, v in (interactions or {}).items()}
        self._intercept = float(intercept)

    @property
    def parents(self) -> tuple[str, ...]:
        names: list[str] = list(self._linear)
        for group in self._interactions:
            for name in group:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """Linear terms plus the multiplicative interaction terms."""
        total = self._intercept
        for parent, coefficient in self._linear.items():
            total += coefficient * float(parent_values[parent])
        for group, coefficient in self._interactions.items():
            product = coefficient
            for parent in group:
                product *= float(parent_values[parent])
            total += product
        return total

    def __repr__(self) -> str:
        return (f"InteractionMechanism(linear={self._linear}, "
                f"interactions={self._interactions})")


class PolynomialMechanism:
    """Sum of per-parent polynomials: ``sum_i sum_d c[i][d] * parent_i**d``.

    ``terms`` maps parent name to a sequence of coefficients indexed by degree
    starting at 1 (the constant term lives in ``intercept``).
    """

    def __init__(self, terms: Mapping[str, Sequence[float]],
                 intercept: float = 0.0) -> None:
        self._terms = {p: tuple(float(c) for c in cs) for p, cs in terms.items()}
        self._intercept = float(intercept)

    @property
    def parents(self) -> tuple[str, ...]:
        return tuple(self._terms)

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """Sum of the per-parent polynomial contributions."""
        total = self._intercept
        for parent, coefficients in self._terms.items():
            value = float(parent_values[parent])
            for degree, coefficient in enumerate(coefficients, start=1):
                total += coefficient * value ** degree
        return total

    def __repr__(self) -> str:
        return f"PolynomialMechanism(terms={self._terms})"


class SaturatingMechanism:
    """A monotone saturating response ``scale * x / (x + half_point)``.

    Models diminishing returns that are ubiquitous in systems performance
    (e.g. adding CPU frequency beyond the memory-bound point stops helping),
    which produces the non-convex objective landscapes of Fig. 3.
    """

    def __init__(self, driver: str, scale: float, half_point: float,
                 baseline: float = 0.0,
                 modifiers: Mapping[str, float] | None = None) -> None:
        if half_point <= 0:
            raise ValueError("half_point must be positive")
        self._driver = driver
        self._scale = float(scale)
        self._half_point = float(half_point)
        self._baseline = float(baseline)
        self._modifiers = dict(modifiers or {})

    @property
    def parents(self) -> tuple[str, ...]:
        return (self._driver, *self._modifiers)

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """Saturating response in the driver plus linear modifier terms."""
        x = max(float(parent_values[self._driver]), 0.0)
        value = self._baseline + self._scale * x / (x + self._half_point)
        for parent, coefficient in self._modifiers.items():
            value += coefficient * float(parent_values[parent])
        return value

    def __repr__(self) -> str:
        return (f"SaturatingMechanism(driver={self._driver!r}, "
                f"scale={self._scale}, half_point={self._half_point})")


class CategoricalTableMechanism:
    """Table lookup for a categorical parent plus optional linear terms.

    ``table`` maps (rounded integer) values of ``selector`` to a contribution;
    unseen selector values fall back to ``default``.  This is how, for
    example, the scheduler policy or cache policy shifts an event's level —
    exactly the confounding structure of the motivating example (Fig. 1).
    """

    def __init__(self, selector: str, table: Mapping[float, float],
                 default: float = 0.0,
                 linear: Mapping[str, float] | None = None,
                 intercept: float = 0.0) -> None:
        self._selector = selector
        self._table = {float(k): float(v) for k, v in table.items()}
        self._default = float(default)
        self._linear = dict(linear or {})
        self._intercept = float(intercept)

    @property
    def parents(self) -> tuple[str, ...]:
        return (self._selector, *self._linear)

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """Table contribution of the selector plus linear terms."""
        key = float(parent_values[self._selector])
        total = self._intercept + self._table.get(key, self._default)
        for parent, coefficient in self._linear.items():
            total += coefficient * float(parent_values[parent])
        return total

    def __repr__(self) -> str:
        return (f"CategoricalTableMechanism(selector={self._selector!r}, "
                f"levels={len(self._table)})")


class ClippedMechanism:
    """Wrap another mechanism and clip its output to ``[lower, upper]``.

    Performance counters cannot be negative and many objectives have physical
    floors (latency > 0); the ground-truth models use this wrapper to keep the
    simulated measurements physically meaningful.
    """

    def __init__(self, inner: Mechanism, lower: float = -math.inf,
                 upper: float = math.inf) -> None:
        self._inner = inner
        self._lower = float(lower)
        self._upper = float(upper)

    @property
    def parents(self) -> tuple[str, ...]:
        return self._inner.parents

    def evaluate(self, parent_values: Mapping[str, float]) -> float:
        """The inner mechanism's value, clipped to ``[lower, upper]``."""
        return float(min(max(self._inner.evaluate(parent_values),
                             self._lower), self._upper))

    def __repr__(self) -> str:
        return f"ClippedMechanism({self._inner!r}, [{self._lower}, {self._upper}])"
