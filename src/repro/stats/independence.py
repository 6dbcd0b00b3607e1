"""Conditional-independence tests used by the skeleton pruning phase.

The paper states that Unicorn prunes the fully connected constraint-respecting
skeleton "using standard statistical tests of independence.  In particular, we
use mutual info for discrete variables and Fisher z-test for continuous
variables".  ``FisherZTest`` and ``GSquareTest`` implement those two tests and
``MixedCITest`` dispatches between them (discretizing when a conditioning set
mixes types), which is what the Unicorn discovery pipeline instantiates by
default.

All tests expose the same interface: ``test(x, y, conditioning)`` returns a
:class:`CIResult` with the p-value and the decision at the configured
significance level.  ``FisherZTest`` and ``MixedCITest`` also carry the
array kernel the discovery layer runs on: :meth:`MixedCITest.decide` turns
column-index triples ``(x, y, Z)`` into fresh independence decisions
straight from the epoch's :meth:`SufficientStats.covariance` — closed-form
Schur complements for ``|Z| <= 1``, stacked solves above that, and the
G-test dispatch kept scalar.  Its decisions equal ``test(...).independent``;
the raw-data :func:`fisher_z` is the independent reference for both.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.stats.dataset import Dataset
from repro.stats.entropy import mutual_information
from repro.stats.sufficient import SufficientStats


@dataclass(frozen=True)
class CIResult:
    """Outcome of one conditional-independence test."""

    independent: bool
    p_value: float
    statistic: float

    def __bool__(self) -> bool:
        return bool(self.independent)


class CITest(Protocol):
    """Protocol implemented by every conditional-independence test."""

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        """Test ``x`` independent of ``y`` given ``conditioning``."""
        ...  # pragma: no cover


#: Triples per kernel chunk: bounds the temporaries of one array pass.
_KERNEL_CHUNK = 8192
#: A kernel p-value this close to alpha is re-decided by the scalar test, so
#: the kernel's decision equals ``test(...).independent`` even where the array
#: arithmetic (stacked solves, vectorized log/erfc) rounds differently.
_RECHECK_BAND = 1e-9


def _triple_names(names: Sequence[str], x: int, y: int,
                  z: np.ndarray) -> tuple[str, str, list[str]]:
    return names[x], names[y], [names[c] for c in z]


# --------------------------------------------------------------------------
# Fisher z test on partial correlations (continuous data)
# --------------------------------------------------------------------------
def _partial_correlation(data: np.ndarray, i: int, j: int,
                         conditioning: Sequence[int]) -> float:
    """Partial correlation of columns ``i`` and ``j`` given ``conditioning``.

    Computed by regressing both columns on the conditioning columns (via
    least squares) and correlating the residuals, which is numerically more
    stable than inverting the full correlation matrix when conditioning sets
    are small.
    """
    x = data[:, i]
    y = data[:, j]
    if conditioning:
        z = data[:, list(conditioning)]
        z = np.column_stack([z, np.ones(len(z))])
        beta_x, *_ = np.linalg.lstsq(z, x, rcond=None)
        beta_y, *_ = np.linalg.lstsq(z, y, rcond=None)
        x = x - z @ beta_x
        y = y - z @ beta_y
    sx = np.std(x)
    sy = np.std(y)
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    corr = float(np.corrcoef(x, y)[0, 1])
    if math.isnan(corr):
        return 0.0
    return max(-0.9999999, min(0.9999999, corr))


def _fisher_z_from_correlation(corr: float, n: int, k: int,
                               alpha: float) -> CIResult:
    """Map a partial correlation to a Fisher z :class:`CIResult`."""
    dof = n - k - 3
    if dof <= 0:
        # Not enough samples to decide; conservatively keep the edge.
        return CIResult(independent=False, p_value=0.0, statistic=float("inf"))
    z = 0.5 * math.log((1 + corr) / (1 - corr))
    statistic = math.sqrt(dof) * abs(z)
    # 2 * norm.sf(t) == erfc(t / sqrt(2)); both keep resolution in the far
    # tail where 1 - cdf underflows to exactly 0, which the CI-decision
    # cache's margin policy needs to tell a confident decision from a
    # borderline one.  math.erfc avoids scipy's per-call distribution
    # machinery on what is the hottest line of the skeleton search.
    p_value = math.erfc(statistic / math.sqrt(2))
    return CIResult(independent=bool(p_value > alpha), p_value=p_value,
                    statistic=float(statistic))


def _fisher_z_p_values(corr: np.ndarray, n: int, k: int) -> np.ndarray:
    """Array form of :func:`_fisher_z_from_correlation`'s p-value."""
    dof = n - k - 3
    if dof <= 0:
        return np.zeros(len(corr))
    statistic = math.sqrt(dof) * np.abs(0.5 * np.log((1 + corr) / (1 - corr)))
    return scipy_special.erfc(statistic / math.sqrt(2))


def fisher_z(data: np.ndarray, i: int, j: int,
             conditioning: Sequence[int] = (), alpha: float = 0.05) -> CIResult:
    """Fisher z conditional-independence test on raw column indices."""
    corr = _partial_correlation(data, i, j, conditioning)
    return _fisher_z_from_correlation(corr, data.shape[0], len(conditioning),
                                      alpha)


class FisherZTest:
    """Fisher z test of zero partial correlation on a :class:`Dataset`.

    Partial correlations come from incrementally maintained sufficient
    statistics (one Schur complement per conditioning set) instead of
    least-squares fits over the raw rows; a shared :class:`SufficientStats`
    can be injected so several tests reuse one set of running sums.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._stats = stats if stats is not None else SufficientStats(data)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sufficient_stats(self) -> SufficientStats:
        return self._stats

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self._data.column_index
        corr = self._stats.partial_correlation(
            idx(x), idx(y), [idx(c) for c in conditioning])
        return _fisher_z_from_correlation(corr, self._data.n_rows,
                                          len(conditioning), self._alpha)

    def column_indices(self, names: Sequence[str]) -> np.ndarray:
        idx = self._data.column_index
        return np.array([idx(name) for name in names], dtype=np.intp)

    def decide(self, x: np.ndarray, y: np.ndarray,
               z: np.ndarray) -> np.ndarray:
        """Fresh independence decisions for column-index triples.

        ``x`` and ``y`` are ``(m,)`` column indices (see
        :meth:`column_indices`) and ``z`` an ``(m, k)`` matrix of
        conditioning columns; entry ``i`` of the boolean result equals
        ``test(x[i], y[i], z[i]).independent``.  The discovery layer calls
        this kernel whenever a test has it.  One pass over the epoch's
        covariance matrix per chunk of triples; the few p-values within
        ``_RECHECK_BAND`` of alpha are re-decided by :meth:`test`.
        """
        n, k = self._data.n_rows, z.shape[1]
        p = np.empty(len(x))
        for i in range(0, len(x), _KERNEL_CHUNK):
            chunk = slice(i, i + _KERNEL_CHUNK)
            p[chunk] = _fisher_z_p_values(
                self._stats.partial_correlation_array(x[chunk], y[chunk],
                                                      z[chunk]), n, k)
        independent = p > self._alpha
        for i in np.flatnonzero(np.abs(p - self._alpha) < _RECHECK_BAND):
            independent[i] = self.test(*_triple_names(
                self._data.columns, x[i], y[i], z[i])).independent
        return independent


# --------------------------------------------------------------------------
# G-square / mutual information test (discrete data)
# --------------------------------------------------------------------------
def g_square(x: np.ndarray, y: np.ndarray,
             conditioning: np.ndarray | None = None,
             alpha: float = 0.05) -> CIResult:
    """G-test of conditional independence for discrete (coded) variables.

    The G statistic equals ``2 * N * ln(2) * I(x; y | z)`` where ``I`` is the
    empirical conditional mutual information in bits; it is compared with a
    chi-square distribution whose degrees of freedom are
    ``(|X|-1)(|Y|-1)*|Z|``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    mi_bits = mutual_information(x, y, conditioning)
    statistic = 2.0 * n * math.log(2) * max(mi_bits, 0.0)

    x_levels = len(np.unique(x))
    y_levels = len(np.unique(y))
    if conditioning is None or conditioning.size == 0:
        z_cells = 1
    else:
        conditioning = np.asarray(conditioning)
        if conditioning.ndim == 1:
            conditioning = conditioning[:, None]
        z_cells = len(np.unique(
            [tuple(row) for row in conditioning.astype(np.int64)], axis=0))
    dof = max((x_levels - 1) * (y_levels - 1) * z_cells, 1)
    p_value = float(scipy_stats.chi2.sf(statistic, dof))
    return CIResult(independent=bool(p_value > alpha), p_value=p_value,
                    statistic=float(statistic))


class GSquareTest:
    """G-test on a :class:`Dataset`, discretizing continuous columns.

    Discretization codes live in the shared :class:`SufficientStats`, so they
    are computed once per column per data epoch no matter how many tests (or
    how many cooperating test objects) touch the column.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 bins: int = 8, stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._bins = bins
        self._stats = stats if stats is not None else SufficientStats(data)

    @property
    def alpha(self) -> float:
        return self._alpha

    def _coded(self, column: str) -> np.ndarray:
        return self._stats.codes(column, bins=self._bins)

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        cond = None
        if conditioning:
            cond = np.column_stack([self._coded(c) for c in conditioning])
        return g_square(self._coded(x), self._coded(y), cond,
                        alpha=self._alpha)


# --------------------------------------------------------------------------
# Mixed dispatcher
# --------------------------------------------------------------------------
class MixedCITest:
    """Dispatch between Fisher z and the G-test based on column types.

    The G-test (mutual information) is used when both tested variables are
    discrete, the conditioning set is fully discrete, and the contingency
    table is small enough to be well populated at the available sample size;
    in every other case the Fisher z test on partial correlations is used
    (discrete codes are treated as numeric covariates, which is appropriate
    for the ordinal options that dominate systems configuration spaces and
    avoids the data fragmentation a fully stratified test would suffer at the
    low sample sizes Unicorn operates with).

    One :class:`SufficientStats` instance backs both member tests, so the
    dispatcher can stay alive across active-loop iterations: appended rows
    are folded into the running sums and the per-epoch caches refresh
    themselves.
    """

    def __init__(self, data: Dataset, alpha: float = 0.05,
                 bins: int = 8, max_cells_fraction: float = 0.2,
                 stats: SufficientStats | None = None) -> None:
        self._data = data
        self._alpha = alpha
        self._stats = stats if stats is not None else SufficientStats(data)
        self._fisher = FisherZTest(data, alpha=alpha, stats=self._stats)
        self._gsq = GSquareTest(data, alpha=alpha, bins=bins,
                                stats=self._stats)
        self._max_cells_fraction = max_cells_fraction
        self._discrete = np.array([data.is_discrete(c) for c in data.columns])

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def sufficient_stats(self) -> SufficientStats:
        return self._stats

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        idx = self.column_indices([x, y, *conditioning])
        if self._gsquare_mask(idx[:1], idx[1:2], idx[None, 2:])[0]:
            return self._gsq.test(x, y, conditioning)
        return self._fisher.test(x, y, conditioning)

    def column_indices(self, names: Sequence[str]) -> np.ndarray:
        return self._fisher.column_indices(names)

    def _gsquare_mask(self, x: np.ndarray, y: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
        """Which column-index triples go to the G-test.

        Those whose columns are all discrete and whose contingency table
        has at most ``max(max_cells_fraction * n, 8)`` cells.
        """
        discrete = self._discrete
        mask = discrete[x] & discrete[y] & discrete[z].all(axis=1)
        if not mask.any():
            return mask
        cardinality = np.array([
            float(self._stats.cardinality(c)) if flag else 1.0
            for c, flag in zip(self._data.columns, discrete)])
        cells = cardinality[x] * cardinality[y] * cardinality[z].prod(axis=1)
        limit = max(self._max_cells_fraction * self._data.n_rows, 8)
        return mask & (cells <= limit)

    def decide(self, x: np.ndarray, y: np.ndarray,
               z: np.ndarray) -> np.ndarray:
        """Fresh decisions for column-index triples.

        The kernel contract of :meth:`FisherZTest.decide`.  Triples
        :meth:`test` would send to the G-test go through it one by one; the
        rest take :meth:`FisherZTest.decide`'s array pass.
        """
        gsquare = self._gsquare_mask(x, y, z)
        if not gsquare.any():
            return self._fisher.decide(x, y, z)
        fisher = ~gsquare
        independent = np.empty(len(x), dtype=bool)
        independent[fisher] = self._fisher.decide(x[fisher], y[fisher],
                                                  z[fisher])
        names = self._data.columns
        for i in np.flatnonzero(gsquare):
            independent[i] = self._gsq.test(
                *_triple_names(names, x[i], y[i], z[i])).independent
        return independent

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        """:meth:`test` for many pairs given one shared conditioning set
        (an entry point the benchmark's traced run probes)."""
        return [self.test(x, y, conditioning) for x, y in pairs]


# --------------------------------------------------------------------------
# CI-decision caching across data epochs
#
# Not on the learning path: every relearn makes fresh decisions through the
# kernel.  The cache stays as a kernel-less CITest wrapper and because the
# benchmark's traced run still probes it (see ROADMAP).
# --------------------------------------------------------------------------
@dataclass
class CICacheCounters:
    """Observability counters for one :class:`CIDecisionCache`."""

    hits: int = 0
    misses: int = 0
    stale_reused: int = 0
    retests: int = 0


@dataclass
class _CacheEntry:
    epoch: int
    result: CIResult


class CIDecisionCache:
    """Cache of CI decisions keyed by ``(x, y, frozenset(Z))`` and data epoch.

    A lookup at the entry's own epoch is always a hit.  After an epoch bump
    (new rows appended) the *margin policy* decides: a decision whose p-value
    lies outside ``[alpha / margin_factor, alpha * margin_factor]`` is far
    from the significance threshold, is overwhelmingly unlikely to flip from
    a handful of extra samples, and is served stale; a borderline decision is
    evicted so the caller retests it on the fresh data.

    Even a confident decision is only served for ``max_stale_epochs``
    consecutive bumps before it is retested: p-values drift as samples
    accumulate, and an unbounded reuse window would let early-epoch decisions
    diverge arbitrarily from what the data now says.
    """

    def __init__(self, alpha: float = 0.05, margin_factor: float = 8.0,
                 max_stale_epochs: int = 3,
                 max_entries: int = 500_000) -> None:
        if margin_factor < 1.0:
            raise ValueError("margin_factor must be >= 1")
        if max_stale_epochs < 1:
            raise ValueError("max_stale_epochs must be >= 1")
        self._alpha = alpha
        self._margin_factor = margin_factor
        self._max_stale_epochs = max_stale_epochs
        self._max_entries = max_entries
        self._entries: OrderedDict[tuple[str, str, frozenset[str]],
                                   _CacheEntry] = OrderedDict()
        self.counters = CICacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(x: str, y: str,
             conditioning: Sequence[str]) -> tuple[str, str, frozenset[str]]:
        a, b = (x, y) if x <= y else (y, x)
        return (a, b, frozenset(conditioning))

    def is_confident(self, result: CIResult) -> bool:
        """True when the decision is far enough from alpha to survive epochs."""
        if not math.isfinite(result.statistic):
            # The "not enough samples to decide" sentinel (p=0, statistic
            # inf): never confident — a few more rows may make the test
            # decidable, so it must be re-run every epoch.
            return False
        return (result.p_value >= self._alpha * self._margin_factor
                or result.p_value <= self._alpha / self._margin_factor)

    def lookup(self, x: str, y: str, conditioning: Sequence[str],
               epoch: int) -> CIResult | None:
        key = self._key(x, y, conditioning)
        entry = self._entries.get(key)
        if entry is None:
            self.counters.misses += 1
            return None
        if entry.epoch == epoch:
            self.counters.hits += 1
            return entry.result
        if (self.is_confident(entry.result)
                and 0 < epoch - entry.epoch <= self._max_stale_epochs):
            # Survives the epoch bump; deliberately NOT re-stamped, so the
            # decision is recomputed once its reuse window closes.
            self.counters.stale_reused += 1
            return entry.result
        del self._entries[key]
        self.counters.retests += 1
        return None

    def store(self, x: str, y: str, conditioning: Sequence[str],
              epoch: int, result: CIResult) -> None:
        key = self._key(x, y, conditioning)
        self._entries[key] = _CacheEntry(epoch=epoch, result=result)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)


class CachedCITest:
    """Wrap any :class:`CITest` with a :class:`CIDecisionCache`.

    ``epoch_fn`` supplies the current data epoch (normally the backing
    dataset's ``data_epoch``); every decision the inner test produces is
    recorded and replayed according to the cache's margin policy.  The
    wrapper has no ``decide`` kernel, so the skeleton search runs it one
    test at a time.
    """

    def __init__(self, inner, cache: CIDecisionCache,
                 epoch_fn: Callable[[], int]) -> None:
        self._inner = inner
        self._cache = cache
        self._epoch_fn = epoch_fn

    @property
    def alpha(self) -> float:
        return self._inner.alpha

    def test(self, x: str, y: str,
             conditioning: Sequence[str] = ()) -> CIResult:
        epoch = self._epoch_fn()
        result = self._cache.lookup(x, y, conditioning, epoch)
        if result is None:
            result = self._inner.test(x, y, conditioning)
            self._cache.store(x, y, conditioning, epoch, result)
        return result

    def test_batch(self, pairs: Sequence[tuple[str, str]],
                   conditioning: Sequence[str] = ()) -> list[CIResult]:
        return [self.test(x, y, conditioning) for x, y in pairs]
