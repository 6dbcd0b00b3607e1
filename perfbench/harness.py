"""Statistics and accounting shared by every workload of the benchmark.

Everything here is plain Python over lists of seconds, so the unit tests
in ``test_harness.py`` can pin the rules without running a workload:

* a timing is reported as its median plus the highest percentile of
  ``TAIL_PERCENTILES`` that has at least ``MIN_BEYOND`` samples beyond it;
* open-loop latencies are measured from each request's *due* time, so a
  stall also charges the requests queued behind it;
* a failed attempt (refusal, error, timeout, wrong answer) counts against
  the attempts *and* as a latency miss: it enters the percentiles at the
  request deadline, the worst latency the harness would have waited for.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

#: candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
#: samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], rank: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * rank / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def tail_rank(n: int) -> float | None:
    """Highest tail percentile with at least ``MIN_BEYOND`` samples beyond.

    ``None`` when even the lowest candidate is unsupported; the median
    alone is then all a sample of ``n`` can state.
    """
    for rank in TAIL_PERCENTILES:
        if n * (100.0 - rank) / 100.0 >= MIN_BEYOND:
            return rank
    return None


@dataclass
class Summary:
    """Median and supported tail of one timing, in milliseconds."""

    n: int
    p50_ms: float
    tail_rank: float | None
    tail_ms: float | None

    def describe(self) -> str:
        tail = ("" if self.tail_rank is None
                else f"  p{self.tail_rank:g} {self.tail_ms:.3f} ms")
        return f"p50 {self.p50_ms:.3f} ms{tail}  (n={self.n})"


def summarize(seconds: Sequence[float], rank: float | None = None) -> Summary:
    """Summarize a list of durations (seconds) as a :class:`Summary`.

    ``rank`` forces a tail percentile; it must still have ``MIN_BEYOND``
    samples beyond it, otherwise the supported rank is used instead.
    """
    n = len(seconds)
    supported = tail_rank(n)
    if rank is not None and (supported is None or rank > supported):
        rank = supported
    elif rank is None:
        rank = supported
    ms = [s * 1000.0 for s in seconds]
    return Summary(n=n, p50_ms=percentile(ms, 50.0), tail_rank=rank,
                   tail_ms=None if rank is None else percentile(ms, rank))


def due_time_latencies(due: Sequence[float],
                       done: Sequence[float | None],
                       deadline: float) -> list[float]:
    """Open-loop latencies measured from each request's due time.

    ``done[i]`` is when request ``i`` completed successfully, ``None`` when
    it failed; a failure enters as ``deadline`` seconds (a latency miss).
    """
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [deadline if end is None else max(end - start, 0.0)
            for start, end in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request against its schedule."""
    return [max(s - d, 0.0) for d, s in zip(due, sent)]


@dataclass
class Outcomes:
    """Attempted / failed accounting with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n

    def demote(self, reason: str, n: int = 1) -> None:
        """Turn ``n`` already-counted successes into failures (e.g. an
        answer found wrong after the fact)."""
        self.failed += n
        self.reasons[reason] += n

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    ``getrusage`` reports children only once they have been waited for,
    so call this after every worker process has been joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


@dataclass
class RunResult:
    """What one workload run reports back to ``run.py``."""

    outcomes: Outcomes
    #: metric name -> (value, unit); exactly the declared set for the mode.
    metrics: dict[str, tuple[float, str]]
    #: human-readable lines printed before the JSON result.
    lines: list[str] = field(default_factory=list)
    #: failed correctness checks.
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """Every check passed and no attempt failed."""
        return not self.errors and not self.outcomes.failed


def code_digest(*trees) -> str:
    """Hash of every ``.py`` file under ``trees``, by relative path.

    Records of earlier runs are kept per code digest, so a run is only
    ever compared with runs of the same code: a change to the program
    that moves what a run records starts a new record instead of failing.
    """
    digest = hashlib.sha256()
    for tree in trees:
        tree = Path(tree)
        for path in sorted(tree.rglob("*.py")):
            digest.update(path.relative_to(tree).as_posix().encode())
            digest.update(b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


def check_repeatable(path, digests: dict[str, str]) -> list[str]:
    """Compare ``digests`` with those an earlier run left at ``path``.

    Keys present in both must agree; the union is written back, so the
    first run records and every later run checks.  Returns the keys that
    disagree.
    """
    path = Path(path)
    known: dict[str, str] = {}
    if path.exists():
        known = json.loads(path.read_text())
    mismatched = sorted(k for k, v in digests.items()
                        if k in known and known[k] != v)
    if not mismatched:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**known, **digests}, sort_keys=True))
    return mismatched
