"""Differential tests of the CI array kernel against the per-test path.

``MixedCITest.decide`` / ``FisherZTest.decide`` must return, triple for
triple, the decision ``test(x, y, Z).independent`` returns (up to p-values
within 1e-12 of alpha, where the two float paths may round apart), and the
skeleton search and FCI must find the same edges, separating sets and test
counts with the kernel as with a kernel-less test, which runs the per-test
PC walk.
"""

import itertools

import numpy as np
import pytest

from repro.discovery.fci import fci
from repro.discovery.skeleton import learn_skeleton
from repro.stats.dataset import Dataset
from repro.stats.independence import FisherZTest, MixedCITest
from repro.systems.cache_example import make_cache_example
from repro.systems.case_study import make_case_study
from repro.systems.registry import get_system

ALPHA = 0.05


class PerTestOnly:
    """A kernel-less CITest: the same decisions, one ``test`` at a time."""

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def alpha(self) -> float:
        return self._inner.alpha

    def test(self, x, y, conditioning=()):
        return self._inner.test(x, y, conditioning)


@pytest.fixture(scope="module")
def mixed_data() -> Dataset:
    """Continuous chains, small discrete columns, and a constant column."""
    rng = np.random.default_rng(3)
    n = 80
    a = rng.normal(size=n)
    b = 1.5 * a + rng.normal(scale=0.7, size=n)
    c = -b + rng.normal(scale=0.9, size=n)
    d = rng.normal(size=n)
    s = rng.integers(0, 2, size=n)
    t = (s + (rng.random(n) < 0.2)) % 2
    u = rng.integers(0, 2, size=n)
    k = np.full(n, 4.0)
    e = a + 2.0 * t + rng.normal(scale=0.5, size=n)
    return Dataset(["a", "b", "c", "d", "s", "t", "u", "k", "e"],
                   np.column_stack([a, b, c, d, s, t, u, k, e]).astype(float),
                   discrete=["s", "t", "u", "k"])


def _triples(columns: list[str], size: int):
    for x, y in itertools.combinations(columns, 2):
        others = [c for c in columns if c not in (x, y)]
        for z in itertools.combinations(others, size):
            yield x, y, list(z)


def _compare(test, data: Dataset, size: int) -> int:
    triples = list(_triples(data.columns, size))
    idx = data.column_index
    x = np.array([idx(t[0]) for t in triples])
    y = np.array([idx(t[1]) for t in triples])
    z = np.array([[idx(c) for c in t[2]] for t in triples],
                 dtype=np.intp).reshape(len(triples), size)
    decided = test.decide(x, y, z)
    compared = 0
    for (tx, ty, tz), independent in zip(triples, decided):
        reference = test.test(tx, ty, tz)
        if abs(reference.p_value - ALPHA) < 1e-12:
            continue
        assert bool(independent) == reference.independent, (tx, ty, tz)
        compared += 1
    return compared


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("kind", [MixedCITest, FisherZTest])
def test_kernel_decisions_equal_scalar_test(mixed_data, kind, size):
    test = kind(mixed_data, alpha=ALPHA)
    assert _compare(test, mixed_data, size) > 0


def test_mixed_fixture_exercises_the_gsquare_dispatch(mixed_data):
    test = MixedCITest(mixed_data, alpha=ALPHA)
    idx = test.column_indices(["s", "t", "u", "a"])
    gsquare = test._gsquare_mask(idx[[0, 3]], idx[[1, 0]],
                                 np.array([[idx[2]], [idx[1]]]))
    assert gsquare.tolist() == [True, False]


def test_near_constant_conditioning_column():
    """A conditioning column with variance below the constant threshold
    (~1e-26, not exactly 0) is left out on both paths alike."""
    rng = np.random.default_rng(5)
    n = 60
    a = rng.normal(size=n)
    b = 0.3 * a + rng.normal(size=n)
    c = 0.2 * b + rng.normal(size=n)
    tiny = 7.0 + 1e-13 * rng.normal(size=n)
    data = Dataset(["a", "b", "c", "tiny"],
                   np.column_stack([a, b, c, tiny]))
    test = FisherZTest(data, alpha=ALPHA)
    variance = test.sufficient_stats.covariance()[3, 3]
    assert 0.0 < variance < 1e-24
    assert _compare(test, data, 1) > 0
    assert _compare(test, data, 2) > 0
    assert test.sufficient_stats.partial_correlation(0, 1, [3]) == (
        test.sufficient_stats.partial_correlation(0, 1))


def test_singular_conditioning_sets_match(mixed_data):
    """A repeated or constant conditioning column makes the Schur block
    singular; the kernel takes the same pseudo-inverse route as test()."""
    test = MixedCITest(mixed_data, alpha=ALPHA)
    idx = mixed_data.column_index
    triples = [("a", "b", ["c", "c"]), ("a", "c", ["k", "b"]),
               ("b", "e", ["k", "k"]), ("a", "d", ["k"])]
    x = np.array([idx(t[0]) for t in triples])
    y = np.array([idx(t[1]) for t in triples])
    z = np.array([[idx(c) for c in t[2]] + [idx(t[2][0])] * (2 - len(t[2]))
                  for t in triples])
    decided = test.decide(x[:3], y[:3], z[:3])
    for (tx, ty, tz), independent in zip(triples[:3], decided):
        assert bool(independent) == test.test(tx, ty, tz).independent
    single = test.decide(x[3:], y[3:], z[3:, :1])
    assert bool(single[0]) == test.test("a", "d", ["k"]).independent


def test_too_few_rows_keep_every_edge():
    """dof <= 0: neither path can decide, and both keep the edge."""
    rng = np.random.default_rng(0)
    data = Dataset(["a", "b", "c", "d"], rng.normal(size=(4, 4)))
    test = FisherZTest(data, alpha=ALPHA)
    decided = test.decide(np.array([0, 1]), np.array([1, 2]),
                          np.array([[2, 3], [0, 3]]))
    assert not decided.any()
    assert not test.test("a", "b", ["c", "d"]).independent
    assert _compare(test, data, 2) > 0


def test_empty_batch(mixed_data):
    test = MixedCITest(mixed_data, alpha=ALPHA)
    empty = np.zeros(0, dtype=np.intp)
    assert test.decide(empty, empty, np.zeros((0, 1), np.intp)).shape == (0,)


# ---------------------------------------------------------------------------
# Skeleton / FCI: kernel path against the per-test walk
# ---------------------------------------------------------------------------
def _sqlite_table3():
    return get_system("sqlite", "Xavier", n_extra_options=96,
                      n_extra_events=61)


def _edge_set(graph):
    return {frozenset((e.u, e.v)) for e in graph.edges()}


@pytest.mark.parametrize("make_system,n,mcs", [
    (make_cache_example, 120, 2),
    (make_case_study, 60, 2),
    (_sqlite_table3, 20, 1),
], ids=["cache_example", "case_study", "sqlite_table3"])
def test_fci_with_kernel_equals_per_test_walk(make_system, n, mcs):
    system = make_system()
    _, data = system.random_dataset(n, np.random.default_rng(9))
    constraints = system.constraints()
    variables = [v for v in data.columns if v in constraints.roles]
    kernel = fci(variables, MixedCITest(data, bins=6),
                 constraints=constraints, max_condition_size=mcs)
    walk = fci(variables, PerTestOnly(MixedCITest(data, bins=6)),
               constraints=constraints, max_condition_size=mcs)
    assert kernel.pag.to_dict() == walk.pag.to_dict()
    assert kernel.separating_sets == walk.separating_sets
    assert kernel.tests_performed == walk.tests_performed


@pytest.mark.parametrize("cap", [1, 3, 50])
@pytest.mark.parametrize("mcs", [1, 2, 3])
def test_skeleton_with_kernel_equals_per_test_walk(cap, mcs):
    """Small subset caps make the cap bind at every level: at level 1 an
    independent neighbour beyond the cap must not separate the edge, and
    levels 2 and 3 run the kernel's per-edge walk."""
    system = make_case_study()
    _, data = system.random_dataset(50, np.random.default_rng(cap + mcs))
    constraints = system.constraints()
    variables = [v for v in data.columns if v in constraints.roles]
    kernel = learn_skeleton(variables, MixedCITest(data), constraints, mcs,
                            cap)
    walk = learn_skeleton(variables, PerTestOnly(MixedCITest(data)),
                          constraints, mcs, cap)
    assert _edge_set(kernel.graph) == _edge_set(walk.graph)
    assert kernel.separating_sets == walk.separating_sets
    assert kernel.tests_performed == walk.tests_performed


@pytest.mark.parametrize("variables", [[], ["a"], ["a", "b"]])
def test_tiny_variable_lists(mixed_data, variables):
    """Empty and one-node searches run (the bitsets have no bytes)."""
    kernel = fci(variables, MixedCITest(mixed_data), max_condition_size=2)
    walk = fci(variables, PerTestOnly(MixedCITest(mixed_data)),
               max_condition_size=2)
    assert kernel.pag.to_dict() == walk.pag.to_dict()
    assert kernel.tests_performed == walk.tests_performed
