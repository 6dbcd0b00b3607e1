"""Skeleton recovery (step 1 and 2 of causal model learning in Fig. 9).

Starting from a fully connected graph restricted by the structural
constraints ("no connections between configuration options"), edges are pruned
with conditional-independence tests of increasing conditioning-set size, in
the style of the PC/FCI skeleton phase.  The separating sets found along the
way are recorded because the collider-orientation step of FCI needs them.

Every decision is fresh.  With a test that carries the array kernel
(:meth:`~repro.stats.independence.MixedCITest.decide`) level 0 is one kernel
call over every allowed pair, and the graph is built from its survivors.
Level 1 decides one table — every edge against every neighbour it has at the
start of the level — and walks the edges in the PC order of the per-test
search, reading the table; each higher level asks the kernel once per edge
for the first 50 subsets of its current neighbourhood.  A test without the
kernel runs that per-test search one decision at a time; it is the reference
the kernel path must reproduce edge for edge and separating set for
separating set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.discovery.constraints import StructuralConstraints
from repro.graph.edges import Mark
from repro.graph.mixed_graph import MixedGraph
from repro.stats.independence import CITest


@dataclass
class SkeletonResult:
    """Skeleton plus bookkeeping produced by :func:`learn_skeleton`."""

    graph: MixedGraph
    separating_sets: dict[frozenset[str], set[str]] = field(default_factory=dict)
    tests_performed: int = 0

    def separating_set(self, x: str, y: str) -> set[str] | None:
        return self.separating_sets.get(frozenset((x, y)))


def initial_graph(variables: list[str],
                  constraints: StructuralConstraints | None) -> MixedGraph:
    """Fully connected circle-circle graph respecting adjacency constraints."""
    return _circle_graph(variables, _allowed(variables, constraints))


def _allowed(variables: list[str],
             constraints: StructuralConstraints | None) -> np.ndarray:
    if constraints is None:
        return ~np.eye(len(variables), dtype=bool)
    return constraints.adjacency_matrix(variables)


def _circle_graph(variables: list[str], adjacency: np.ndarray) -> MixedGraph:
    """Circle-circle graph over ``variables`` with the given adjacency."""
    graph = MixedGraph(variables)
    for a, b in zip(*np.nonzero(np.triu(adjacency, 1))):
        graph.add_edge(variables[a], variables[b], Mark.CIRCLE, Mark.CIRCLE)
    return graph


def learn_skeleton(variables: list[str], ci_test: CITest,
                   constraints: StructuralConstraints | None = None,
                   max_condition_size: int = 3,
                   max_subsets_per_edge: int = 50) -> SkeletonResult:
    """PC-style skeleton search.

    For conditioning-set sizes ``0 .. max_condition_size`` every remaining
    edge ``x - y`` is tested against subsets of the current adjacency of
    ``x`` (and of ``y``); if any test declares independence the edge is
    removed and the separating set recorded.

    ``max_condition_size`` bounds the cost; the causal performance models of
    the paper are sparse (average node degree below 4 even for SQLite's 242
    options), so small conditioning sets suffice in practice.
    ``max_subsets_per_edge`` caps the number of conditioning subsets examined
    per edge per level (the first ones, in sorted order), which keeps the
    search tractable while the graph is still dense in the first iterations.

    ``tests_performed`` counts the decisions the search consumed, which is
    the same number on both paths.
    """
    if getattr(ci_test, "decide", None) is None:
        return _per_test_search(variables, ci_test, constraints,
                                max_condition_size, max_subsets_per_edge)
    return _kernel_search(variables, ci_test, constraints, max_condition_size,
                          max_subsets_per_edge)


# ---------------------------------------------------------------------------
# The per-test search (the reference)
# ---------------------------------------------------------------------------
def _per_test_search(variables: list[str], ci_test: CITest,
                     constraints: StructuralConstraints | None,
                     max_condition_size: int,
                     max_subsets_per_edge: int) -> SkeletonResult:
    required = set()
    if constraints is not None:
        required = {frozenset(edge) for edge in constraints.required_edges}
    graph = initial_graph(variables, constraints)
    result = SkeletonResult(graph=graph)
    for level in range(max_condition_size + 1):
        removed_any = False
        for edge in list(graph.edges()):
            x, y = edge.u, edge.v
            if not graph.has_edge(x, y):
                continue
            if frozenset((x, y)) in required:
                continue
            neighbours = ((graph.neighbors(x) - {y})
                          | (graph.neighbors(y) - {x}))
            if constraints is not None:
                neighbours = {n for n in neighbours
                              if constraints.conditioning_allowed(n)}
            if len(neighbours) < level:
                continue
            subsets = itertools.islice(
                itertools.combinations(sorted(neighbours), level),
                max_subsets_per_edge)
            for subset in subsets:
                result.tests_performed += 1
                outcome = ci_test.test(x, y, list(subset))
                if outcome.independent:
                    graph.remove_edge(x, y)
                    result.separating_sets[frozenset((x, y))] = set(subset)
                    removed_any = True
                    break
        # Level 0 always proceeds to level 1 even when nothing was removed
        # (the marginal sweep says nothing about conditional independencies);
        # from level 1 onward an empty level means no larger conditioning set
        # can succeed either, so the search stops.
        if level > 0 and not removed_any:
            break
    return result


# ---------------------------------------------------------------------------
# The kernel search
# ---------------------------------------------------------------------------
def first_independent(kernel, x: int, y: int, members: np.ndarray,
                      level: int, cap: int):
    """Kernel decisions for the first ``cap`` ``level``-subsets of
    ``members`` (column indices, in :func:`itertools.combinations` order),
    given column indices ``x`` and ``y``.

    Returns ``(tests consumed, positions in members of the first independent
    subset, or None)`` — what the per-test loop over the same subsets finds.
    """
    chosen = np.array(list(itertools.islice(
        itertools.combinations(range(len(members)), level), cap)),
        dtype=np.intp).reshape(-1, level)
    hits = np.flatnonzero(kernel.decide(
        np.full(len(chosen), x), np.full(len(chosen), y), members[chosen]))
    if len(hits) == 0:
        return len(chosen), None
    return int(hits[0]) + 1, chosen[hits[0]]


def _bitsets(ranked: np.ndarray) -> list[int]:
    """Each boolean row, indexed by name rank, as a Python-int bitset."""
    packed = np.packbits(ranked, axis=-1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.atleast_2d(packed)]


class _KernelSearch:
    """State of one kernel skeleton search over positions in ``variables``.

    ``rank`` is each node's position in name order (``by_name`` its
    inverse): the order the per-test search enumerates subsets in.
    """

    def __init__(self, variables: list[str], kernel,
                 constraints: StructuralConstraints | None, cap: int) -> None:
        p = len(variables)
        self.variables, self.kernel, self.cap = variables, kernel, cap
        self.columns = kernel.column_indices(variables)
        self.by_name = np.array(sorted(range(p), key=variables.__getitem__),
                                dtype=np.intp)
        self.rank = np.empty(p, dtype=np.intp)
        self.rank[self.by_name] = np.arange(p)
        self.adjacency = _allowed(variables, constraints)
        self.conditionable = np.ones(p, dtype=bool)
        self.required = np.zeros((p, p), dtype=bool)
        if constraints is not None:
            self.conditionable = np.array(
                [constraints.conditioning_allowed(v) for v in variables])
            position = {v: i for i, v in enumerate(variables)}
            for u, v in constraints.required_edges:
                if u in position and v in position:
                    self.required[position[u], position[v]] = True
            self.required |= self.required.T
        self.result = SkeletonResult(graph=MixedGraph())

    def remove(self, a: int, b: int, separator) -> None:
        self.adjacency[a, b] = self.adjacency[b, a] = False
        names = self.variables
        self.result.separating_sets[frozenset((names[a], names[b]))] = {
            names[n] for n in separator}

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Prunable edges in the order of MixedGraph.edges(): by the endpoint
        that comes first in ``variables``, then by the other one's name."""
        x, y = np.nonzero(np.triu(self.adjacency & ~self.required, 1))
        walk = np.lexsort((self.rank[y], x))
        return x[walk], y[walk]

    def level_zero(self) -> None:
        """Every marginal test in one kernel call."""
        x, y = np.nonzero(np.triu(self.adjacency & ~self.required, 1))
        c = self.columns
        independent = self.kernel.decide(c[x], c[y],
                                         np.empty((len(x), 0), np.intp))
        self.result.tests_performed += len(x)
        x, y = x[independent], y[independent]
        self.adjacency[x, y] = self.adjacency[y, x] = False
        names = self.variables
        self.result.separating_sets.update(
            (frozenset((names[a], names[b])), set())
            for a, b in zip(x.tolist(), y.tolist()))

    def level_one(self) -> None:
        """The singleton level, from one decision table.

        The table decides every edge against every neighbour in its
        level-start neighbourhood, in one kernel call.  Removals earlier in
        the level only shrink a neighbourhood, so the neighbours the
        per-test search tries for an edge (the first ``cap`` still present,
        in name order) are all in the table: the first independent one still
        present separates the edge if fewer than ``cap`` present neighbours
        precede it.  Neighbourhoods are Python-int bitsets over name ranks,
        so that count is one operation.
        """
        x, y = self.edges()
        c, by_name, cap = self.columns, self.by_name, self.cap
        start = (self.adjacency[x] | self.adjacency[y]) & self.conditionable
        start[np.arange(len(x)), x] = start[np.arange(len(x)), y] = False
        owner, ranked = np.nonzero(start[:, by_name])
        independent = self.kernel.decide(c[x[owner]], c[y[owner]],
                                         c[by_name[ranked]][:, None])
        owner, ranked = owner[independent], ranked[independent].tolist()
        # Edge e's independent neighbours: ranked[bounds[e]:bounds[e + 1]].
        bounds = np.searchsorted(owner, np.arange(len(x) + 1)).tolist()
        bits = _bitsets(self.adjacency[:, by_name])
        allowed, = _bitsets(self.conditionable[by_name])
        rank = self.rank.tolist()
        for e, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
            current = ((bits[a] | bits[b]) & allowed
                       & ~(1 << rank[a] | 1 << rank[b]))
            tried = min(cap, current.bit_count())
            for r in ranked[bounds[e]:bounds[e + 1]]:
                if current >> r & 1:
                    before = (current & ((1 << r) - 1)).bit_count()
                    if before < cap:
                        tried = before + 1
                        bits[a] &= ~(1 << rank[b])
                        bits[b] &= ~(1 << rank[a])
                        self.remove(a, b, [int(by_name[r])])
                    break
            self.result.tests_performed += tried

    def level_above(self, level: int) -> None:
        """One kernel call per edge over its current neighbourhood."""
        c = self.columns
        for a, b in zip(*(v.tolist() for v in self.edges())):
            around = ((self.adjacency[a] | self.adjacency[b])
                      & self.conditionable)
            around[a] = around[b] = False
            members = self.by_name[np.flatnonzero(around[self.by_name])]
            if len(members) < level:
                continue
            tried, picked = first_independent(
                self.kernel, c[a], c[b], c[members], level, self.cap)
            self.result.tests_performed += tried
            if picked is not None:
                self.remove(a, b, members[picked].tolist())


def _kernel_search(variables: list[str], kernel,
                   constraints: StructuralConstraints | None,
                   max_condition_size: int, cap: int) -> SkeletonResult:
    search = _KernelSearch(variables, kernel, constraints, cap)
    search.level_zero()
    for level in range(1, max_condition_size + 1):
        removed = len(search.result.separating_sets)
        if level == 1:
            search.level_one()
        else:
            search.level_above(level)
        # As in the per-test search, an empty level ends it.
        if len(search.result.separating_sets) == removed:
            break
    search.result.graph = _circle_graph(variables, search.adjacency)
    return search.result
