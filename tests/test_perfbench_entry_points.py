"""The traced benchmark run's entry points still exist in the program.

``perfbench/layers.py`` names the public functions of every layer that
the traced run wraps, and ``Probe.install`` replaces each one by name —
looked up in the class ``__dict__`` for classes, so an inherited or
renamed method fails the traced run.  This test imports the benchmark's
table and checks every entry against the program, so a rename in
``src/`` fails here instead of silently breaking the traced run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.scm.fitting import fit_structural_equations
from repro.scm.mechanisms import LinearMechanism
from repro.scm.model import StructuralCausalModel
from repro.stats.dataset import Dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers


def test_every_traced_entry_point_exists():
    points = layers.points()
    assert points
    missing = []
    for point in points:
        owner = point.owner
        present = (point.attr in owner.__dict__ if isinstance(owner, type)
                   else hasattr(owner, point.attr))
        if not present:
            missing.append(f"{owner.__name__}.{point.attr}")
    assert not missing, f"entry points gone from the program: {missing}"


def test_fused_compiles_go_through_the_batched_module_global(monkeypatch):
    """The ``scm.compile`` counter wraps ``repro.scm.batched``'s global, so
    the batched evaluator must look the compiler up there on every call."""
    module = layers.batched_module
    original = module.compile_fused_program
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "compile_fused_program", counting)
    scm = StructuralCausalModel(
        exogenous={"o0": (0.0, 1.0)},
        mechanisms={"v0": LinearMechanism({"o0": 2.0}, intercept=1.0)})
    rows = scm.sample(8, np.random.default_rng(0))
    model = fit_structural_equations(scm.dag, Dataset.from_rows(rows))
    module.BatchedFittedModel(model).predict_batch([{"o0": 1.0}])
    assert calls
