"""Structural causal models (SCMs).

Two roles in the reproduction:

1. **Ground truth** — each subject system in :mod:`repro.systems` is backed by
   a ground-truth SCM over its options, events and objectives.  Sampling the
   SCM produces the measurement data the paper collected on Jetson hardware;
   intervening on it (``do``) produces the effect of actually deploying a
   configuration; environment shifts reweight mechanisms to model hardware
   and workload changes.
2. **Learned structural equations** — once Unicorn has a causal graph, the
   functional nodes are characterised with polynomial models fitted from the
   observational data (the paper uses ``semopy`` for this; we implement the
   fitting directly).  The fitted model supports prediction, interventional
   expectations and counterfactual queries.
"""

from repro.scm.mechanisms import (
    CategoricalTableMechanism,
    InteractionMechanism,
    LinearMechanism,
    Mechanism,
    PolynomialMechanism,
    SaturatingMechanism,
)
from repro.scm.noise import GaussianNoise, NoNoise, NoiseModel, UniformNoise
from repro.scm.model import StructuralCausalModel
from repro.scm.fitting import FittedPerformanceModel, fit_structural_equations
from repro.scm.batched import BatchedFittedModel, StructuralPlan

__all__ = [
    "BatchedFittedModel",
    "StructuralPlan",
    "Mechanism",
    "LinearMechanism",
    "PolynomialMechanism",
    "InteractionMechanism",
    "SaturatingMechanism",
    "CategoricalTableMechanism",
    "NoiseModel",
    "GaussianNoise",
    "UniformNoise",
    "NoNoise",
    "StructuralCausalModel",
    "FittedPerformanceModel",
    "fit_structural_equations",
]
