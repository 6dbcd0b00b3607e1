"""Sufficient statistics for incremental conditional-independence testing.

The active loop of Unicorn appends one measured configuration per iteration
and then re-estimates the causal model.  Re-running every CI test from the
raw data repeats the same O(n) reductions thousands of times per iteration;
:class:`SufficientStats` instead maintains the quantities the tests actually
need — per-column sums, the cross-product matrix ``X^T X``, discretization
codes and cardinalities — and updates them incrementally as rows arrive.

From the cross-product matrix every (partial) correlation follows by a Schur
complement, so a Fisher z test costs one small ``k x k`` solve instead of two
least-squares fits over the raw rows, and :meth:`partial_correlation_array`
serves the CI kernel many triples in one array pass.

Synchronisation is epoch-based: the backing :class:`~repro.stats.dataset.Dataset`
bumps ``data_epoch`` on every in-place append, and every accessor here calls
:meth:`refresh` first, which folds only the newly appended rows into the sums
and drops the per-epoch code caches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.stats.dataset import Dataset
from repro.stats.discretize import discretize_column

#: Clamp for correlations so the Fisher transform stays finite.
_CORR_CLAMP = 0.9999999
#: Variances below this are treated as zero (constant column).
_VAR_EPS = 1e-24


def _solve_or_pinv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^{-1} b``, through the pseudo-inverse when ``a`` is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a) @ b


class SufficientStats:
    """Incrementally maintained sufficient statistics over a dataset."""

    def __init__(self, data: Dataset) -> None:
        self._data = data
        p = data.n_columns
        self._n = 0
        self._sum = np.zeros(p)
        self._cross = np.zeros((p, p))
        # Per-column shift (the first observed row) applied before
        # accumulating: covariance is shift-invariant, and centering near the
        # data keeps ``cross/n - mean*mean`` from catastrophically cancelling
        # for columns with large magnitudes (timestamps, byte counts).
        self._shift: np.ndarray | None = None
        self._epoch = -1
        self._codes: dict[str, np.ndarray] = {}
        self._cardinality: dict[str, int] = {}
        self._cov: np.ndarray | None = None
        self.refresh()

    # --------------------------------------------------------------- syncing
    @property
    def data(self) -> Dataset:
        return self._data

    @property
    def n_rows(self) -> int:
        self.refresh()
        return self._n

    @property
    def epoch(self) -> int:
        """Data epoch these statistics are synchronised with."""
        self.refresh()
        return self._epoch

    def refresh(self) -> None:
        """Fold rows appended since the last sync into the running sums."""
        if self._epoch == self._data.data_epoch and self._n == self._data.n_rows:
            return
        values = self._data.values
        if self._data.n_rows < self._n:
            # Rows can only be appended in place; anything else means the
            # dataset was rebuilt underneath us — start over.
            self._n = 0
            self._sum[:] = 0.0
            self._cross[:] = 0.0
            self._shift = None
        new = values[self._n:]
        if len(new):
            if self._shift is None:
                self._shift = new[0].copy()
            shifted = new - self._shift
            self._sum += shifted.sum(axis=0)
            self._cross += shifted.T @ shifted
            self._n = self._data.n_rows
        self._epoch = self._data.data_epoch
        # Quantile bin edges move with the data, so codes cannot be updated
        # incrementally; they are recomputed lazily, once per epoch.  The
        # covariance matrix is likewise re-derived (cheaply, from the sums)
        # on first use after an epoch bump.
        self._codes.clear()
        self._cardinality.clear()
        self._cov = None

    # ------------------------------------------------------------- moments
    def means(self) -> np.ndarray:
        self.refresh()
        means = self._sum / max(self._n, 1)
        if self._shift is not None:
            means = means + self._shift
        return means

    def covariance(self) -> np.ndarray:
        """Population covariance matrix derived from the running sums.

        Cached per data epoch: within one discovery pass thousands of CI
        tests share the same matrix.
        """
        self.refresh()
        if self._cov is None:
            n = max(self._n, 1)
            mean = self._sum / n
            self._cov = self._cross / n - np.outer(mean, mean)
        return self._cov

    def correlation(self, i: int, j: int) -> float:
        return self.partial_correlation(i, j)

    # ------------------------------------------- partial correlations (Schur)
    def partial_correlation(self, i: int, j: int,
                            conditioning: Sequence[int] = ()) -> float:
        """Partial correlation of columns ``i`` and ``j`` given
        ``conditioning``: :meth:`partial_correlation_array` of one triple."""
        z = np.array([list(conditioning)], dtype=np.intp).reshape(1, -1)
        return float(self.partial_correlation_array(
            np.array([i]), np.array([j]), z)[0])

    def partial_correlation_array(self, x: np.ndarray, y: np.ndarray,
                                  z: np.ndarray) -> np.ndarray:
        """Partial correlations of many column-index triples at once.

        ``x`` and ``y`` are ``(m,)`` column indices and ``z`` is an ``(m, k)``
        matrix of conditioning columns (one size ``k`` per call).  Computed
        from the covariance matrix by a Schur complement:
        ``S = C_TT - C_TZ C_ZZ^{-1} C_ZT`` is the conditional covariance of
        the pair ``T = (x, y)``, and normalising it yields the partial
        correlation — the same quantity as correlating the residuals of
        least-squares regressions on ``Z``, without touching the raw rows.
        Closed form for ``k <= 1`` (a conditioning column without variance
        is left out), one stacked ``k x k`` solve for larger sets (through
        the pseudo-inverse where a block is singular).
        """
        cov = self.covariance()
        sxy, sxx, syy = cov[x, y], cov[x, x], cov[y, y]
        if z.shape[1] == 1:
            c = z[:, 0]
            ckk = cov[c, c]
            cxk, cyk = cov[x, c], cov[y, c]
            use = ckk >= _VAR_EPS
            with np.errstate(divide="ignore", invalid="ignore"):
                sxy = np.where(use, sxy - cxk * cyk / ckk, sxy)
                sxx = np.where(use, sxx - cxk ** 2 / ckk, sxx)
                syy = np.where(use, syy - cyk ** 2 / ckk, syy)
        elif z.shape[1] > 1:
            t = np.stack([x, y], axis=1)
            czz = cov[z[:, :, None], z[:, None, :]]
            ctz = cov[t[:, :, None], z[:, None, :]]
            rhs = ctz.transpose(0, 2, 1)
            try:
                solved = np.linalg.solve(czz, rhs)
            except np.linalg.LinAlgError:
                solved = np.stack([_solve_or_pinv(a, b)
                                   for a, b in zip(czz, rhs)])
            block = cov[t[:, :, None], t[:, None, :]] - ctz @ solved
            sxy, sxx, syy = block[:, 0, 1], block[:, 0, 0], block[:, 1, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = sxy / np.sqrt(sxx * syy)
        r[(sxx < _VAR_EPS) | (syy < _VAR_EPS) | np.isnan(r)] = 0.0
        return np.clip(r, -_CORR_CLAMP, _CORR_CLAMP, out=r)

    # ----------------------------------------------------- discrete summaries
    def codes(self, column: str, bins: int = 8) -> np.ndarray:
        """Discretization codes for one column, cached per data epoch."""
        self.refresh()
        key = f"{column}#{bins}"
        if key not in self._codes:
            self._codes[key] = discretize_column(
                self._data.column(column), bins=bins,
                already_discrete=self._data.is_discrete(column))
        return self._codes[key]

    def cardinality(self, column: str) -> int:
        """Number of distinct values in a column, cached per data epoch."""
        self.refresh()
        if column not in self._cardinality:
            self._cardinality[column] = int(
                np.unique(self._data.column(column)).size)
        return self._cardinality[column]
