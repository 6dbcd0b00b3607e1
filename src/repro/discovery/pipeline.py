"""The Unicorn causal-model-learning pipeline (Stage II / Stage IV).

``CausalModelLearner`` wires together the skeleton search, FCI orientation
and entropic resolution into the three-step procedure of Fig. 9, and exposes
``update`` for the incremental re-learning of Stage IV (Fig. 10).

There is one path: fresh decisions from one kernel, and update = cold learn.
``learn`` binds a statistical session (sufficient statistics, the mixed CI
test, the orienter) to a private copy of the data and runs FCI, whose every
CI decision comes fresh from the test's array kernel
(:meth:`~repro.stats.independence.MixedCITest.decide`).  ``update`` appends
the new samples *in place* to the model's dataset — the sufficient
statistics fold in only the new rows — and then runs exactly that cold FCI
and entropic resolution again, so an updated model is the model a cold
``learn`` over the same rows would produce.

Because the constraint structure and the CI decisions on the old data are
largely stable, the learned graph converges as the active loop acquires
samples (Fig. 11a tracks this via the structural Hamming distance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.discovery.constraints import StructuralConstraints
from repro.discovery.entropic import EntropicOrienter
from repro.discovery.fci import fci
from repro.graph.mixed_graph import MixedGraph
from repro.stats.dataset import Dataset
from repro.stats.independence import CIDecisionCache, MixedCITest
from repro.stats.sufficient import SufficientStats


@dataclass
class LearnedModel:
    """A learned causal performance model plus learning diagnostics."""

    graph: MixedGraph
    pag: MixedGraph
    constraints: StructuralConstraints
    data: Dataset
    ci_tests_performed: int = 0
    discovery_seconds: float = 0.0
    history: list[dict[str, float]] = field(default_factory=list)
    #: True when this model came out of ``CausalModelLearner.update``.
    incremental: bool = False
    #: separating sets of the FCI run behind ``pag`` (not serialised; a
    #: restored model has none until its next update).
    separating_sets: dict[frozenset[str], set[str]] = field(
        default_factory=dict, repr=False)

    @property
    def decision_trace(self) -> None:
        """Always ``None``: models no longer record their CI decisions.

        Kept read-only for readers of the former decision-trace fast path
        (the benchmark's traced run); see ROADMAP.
        """
        return None

    @property
    def n_samples(self) -> int:
        return self.data.n_rows

    def average_degree(self) -> float:
        return self.graph.average_degree()

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe snapshot of the model.

        Graph and PAG (via :meth:`MixedGraph.to_dict`), the dataset
        (bitwise, via its base64 codec) and the learning diagnostics: all an
        :meth:`CausalModelLearner.update` needs, since an update is a cold
        learn over the grown data.  Structural constraints are *not*
        embedded — they are a pure function of the subject spec and the
        loader passes them back to :meth:`from_dict`.
        """
        return {
            "graph": self.graph.to_dict(),
            "pag": self.pag.to_dict(),
            "data": self.data.to_dict(),
            "ci_tests_performed": int(self.ci_tests_performed),
            "history": [dict(h) for h in self.history],
            "incremental": bool(self.incremental),
        }

    @classmethod
    def from_dict(cls, payload: dict,
                  constraints: StructuralConstraints) -> "LearnedModel":
        """Rebuild the model snapshotted by :meth:`to_dict`.

        Payloads written before updates became cold learns also carry
        ``skeleton_state`` and ``decision_trace``; both are ignored.

        Parameters
        ----------
        payload:
            The :meth:`to_dict` document.
        constraints:
            The structural constraints of the owning subject (derived from
            its spec — see :class:`repro.core.unicorn.Unicorn`).
        """
        return cls(
            graph=MixedGraph.from_dict(payload["graph"]),
            pag=MixedGraph.from_dict(payload["pag"]),
            constraints=constraints,
            data=Dataset.from_dict(payload["data"]),
            ci_tests_performed=int(payload.get("ci_tests_performed", 0)),
            history=[dict(h) for h in payload.get("history", [])],
            incremental=bool(payload.get("incremental", False)))


@dataclass
class _LearnerSession:
    """Statistical machinery bound to one model dataset."""

    data: Dataset
    variables: list[str]
    ci_test: MixedCITest
    orienter: EntropicOrienter


class CausalModelLearner:
    """Learn and incrementally update causal performance models.

    Parameters
    ----------
    constraints:
        Structural constraints describing variable roles (options, events,
        objectives) and the performance-modeling assumptions.
    alpha:
        Significance level of the conditional-independence tests.
    max_condition_size:
        Largest conditioning set used during skeleton search / pruning.
    bins:
        Number of bins used when discretizing continuous variables for the
        discrete CI test and the entropic orienter.
    entropy_threshold_factor:
        The ``theta_r`` factor of the LatentSearch confounder criterion
        (0.8 in the paper).
    seed:
        Seed for the stochastic parts of LatentSearch.
    """

    def __init__(self, constraints: StructuralConstraints,
                 alpha: float = 0.05, max_condition_size: int = 2,
                 bins: int = 6, entropy_threshold_factor: float = 0.8,
                 seed: int = 0) -> None:
        self._constraints = constraints
        self._alpha = alpha
        self._max_condition_size = max_condition_size
        self._bins = bins
        self._threshold_factor = entropy_threshold_factor
        self._seed = seed
        self._ci_cache = CIDecisionCache(alpha=alpha)
        self._session: _LearnerSession | None = None

    @property
    def constraints(self) -> StructuralConstraints:
        return self._constraints

    @property
    def ci_cache(self) -> CIDecisionCache:
        """An idle CI-decision cache whose counters stay 0.

        Every decision is made fresh, so nothing is looked up here; the
        attribute stays for readers of the former cache counters (the
        benchmark's traced run) until they are retired (see ROADMAP).
        """
        return self._ci_cache

    # --------------------------------------------------------------- session
    def _bind_session(self, data: Dataset) -> _LearnerSession:
        """(Re)build the statistical session over ``data``.

        One :class:`SufficientStats` feeds the CI test's kernel and the
        entropic orienter; rows appended to ``data`` later are folded into
        it on the next use.
        """
        stats = SufficientStats(data)
        ci_test = MixedCITest(data, alpha=self._alpha, bins=self._bins,
                              stats=stats)
        orienter = EntropicOrienter(
            data, bins=self._bins,
            entropy_threshold_factor=self._threshold_factor,
            seed=self._seed, stats=stats)
        self._session = _LearnerSession(
            data=data,
            variables=[v for v in data.columns
                       if v in self._constraints.roles],
            ci_test=ci_test, orienter=orienter)
        return self._session

    def _discover(self, session: _LearnerSession, started: float,
                  history: list[dict[str, float]],
                  incremental: bool) -> LearnedModel:
        """FCI with fresh decisions, then entropic resolution."""
        result = fci(session.variables, session.ci_test,
                     constraints=self._constraints,
                     max_condition_size=self._max_condition_size)
        resolved = session.orienter.resolve(result.pag, self._constraints)
        elapsed = time.perf_counter() - started
        data = session.data
        return LearnedModel(
            graph=resolved, pag=result.pag, constraints=self._constraints,
            data=data, ci_tests_performed=result.tests_performed,
            discovery_seconds=elapsed,
            history=history + [{
                "n_samples": float(data.n_rows),
                "n_edges": float(resolved.num_edges()),
                "seconds": elapsed,
                "incremental": float(incremental),
            }],
            incremental=incremental,
            separating_sets=result.separating_sets)

    # ------------------------------------------------------------------ learn
    def learn(self, data: Dataset) -> LearnedModel:
        """Learn a causal performance model from scratch.

        The model is bound to a private copy of ``data``: incremental
        updates grow the model's dataset in place, and that must never
        mutate an array the caller still owns.
        """
        started = time.perf_counter()
        session = self._bind_session(data.copy())
        return self._discover(session, started, [], incremental=False)

    # ----------------------------------------------------------------- update
    def update(self, model: LearnedModel,
               new_rows: Sequence[Mapping[str, float]]) -> LearnedModel:
        """Update a model with newly measured configurations.

        The new samples are appended **in place** to the model's dataset
        (``model.data`` is shared with the returned model, so earlier
        :class:`LearnedModel` handles observe the grown data as well) and
        the structure is re-learned exactly as :meth:`learn` would over the
        same rows: a cold FCI on fresh CI decisions and a fresh entropic
        resolution.  What carries over is the statistical session — the
        sufficient statistics fold in only the appended rows — and the
        history, so callers can plot convergence (Fig. 11).  A model this
        learner did not produce last (another learner's, or one restored
        from a snapshot) gets a session bound to its dataset first.
        """
        if not new_rows:
            return model
        started = time.perf_counter()
        session = self._session
        if session is None or session.data is not model.data:
            session = self._bind_session(model.data)
        model.data.append_rows_inplace(new_rows)
        return self._discover(session, started, model.history,
                              incremental=True)
