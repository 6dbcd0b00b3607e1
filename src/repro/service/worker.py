"""The shard worker: one registry + batcher behind a spawn-safe IPC loop.

Each shard of a :class:`~repro.service.sharding.ShardedQueryService` is an
independent replica of the single-process serving stack: a
:class:`~repro.service.registry.ModelRegistry` holding the shard's fitted
subject models and a :class:`~repro.service.batcher.RequestBatcher`
coalescing drained requests into batched engine calls.  The
:class:`ShardServer` here is the worker's event loop — a plain
command/reply protocol over a pair of queues, with every message a
picklable tuple, so the same loop runs

* in a **worker process** (the production mode; the parent talks to it
  over ``multiprocessing`` queues, entered through the module-level
  :func:`run_shard_server` so the ``spawn`` start method can import it),
  and
* in a **worker thread** (the in-process mode used by tests and
  single-core environments; identical code path, identical pickled
  messages, no process boundary).

The command protocol (first tuple element is the verb)::

    ("fit", subject, spec)            -> ("fitted", subject, n_measurements,
                                          applied_op_id)
    ("upgrade", subject, spec)        -> same reply shape as "fit", but the
                                         model is always fitted fresh from
                                         the spec (never restored from the
                                         store) — the rolling-refresh path
    ("dispatch", batch_id, requests)  -> ("answers", batch_id, responses)
    ("observe", op_id, subject, ms)   -> ("observed", op_id, version,
                                          snapshot_op)
    ("quiesce", op_id)                -> ("quiesced", op_id,
                                          {subject: snapshot_op})
    ("flush", op_id)                  -> ("flushed", op_id, n_published,
                                          {subject: snapshot_op}) after
                                         registry.flush() made every entry
                                         durable
    ("sync",)                         -> no reply; joins pending refreshes
    ("stats", op_id)                  -> ("stats", op_id, payload)
    ("crash",)                        -> no reply; the worker dies abruptly
    ("shutdown",)                     -> ("bye",) after flushing final
                                         snapshots, then the loop returns

Quiesce and flush replies carry the registry's per-subject snapshot
watermarks, so the parent can compact its crash-replay journal even for
subjects that went quiet (no further live observes to ride a watermark
on).

Failures are replies, not silence: a fit error answers ``("fit_error",
subject, message)`` and an observe error ``("observe_error", op_id,
message)``; per-request engine errors ride inside the
:class:`~repro.service.requests.QueryResponse` objects as usual.  The only
command without a reply is ``crash`` — the fault-injection hook the
worker-crash requeue tests use to simulate a dying worker.

Because commands are handled strictly in arrival order by one loop, a
``quiesce`` reply doubles as a barrier: every dispatch and observe sent
before it has been fully processed (including joining any background
drift refreshes) by the time the reply arrives.
"""

from __future__ import annotations

import gc
import os
from typing import Mapping, Sequence

from repro.service.batcher import RequestBatcher
from repro.service.registry import ModelRegistry
from repro.service.requests import QueryRequest, QueryResponse


class InjectedCrash(BaseException):
    """Raised by the ``crash`` command to kill a worker abruptly.

    Derives from :class:`BaseException` so no defensive ``except
    Exception`` in the loop can swallow the simulated fault.
    """


class ShardServer:
    """The event loop of one shard worker.

    Parameters
    ----------
    shard_index:
        Position of this shard in the service's shard list (stamped on
        stats payloads for observability).
    commands, results:
        The inbound command queue and outbound reply queue.  Any object
        with blocking ``get()`` / ``put()`` works; the sharded service
        passes ``multiprocessing`` queues.
    registry_options:
        Keyword arguments for this worker's private
        :class:`ModelRegistry` (``capacity``, ``use_batched``,
        ``drift_threshold``, ``drift_min_window``, ``refresh_async``,
        ``store`` — passed as a path string so it pickles across the
        process boundary — and ``snapshot_every``).
    """

    def __init__(self, shard_index: int, commands, results,
                 registry_options: Mapping[str, object] | None = None)\
            -> None:
        self.shard_index = int(shard_index)
        self.commands = commands
        self.results = results
        self.registry = ModelRegistry(**dict(registry_options or {}))
        self.batcher = RequestBatcher()
        self.dispatches = 0
        self._dispatch_index = 0

    # ------------------------------------------------------------------ loop
    def run(self) -> None:
        """Serve commands until ``shutdown`` (or an injected crash)."""
        while True:
            command = self.commands.get()
            verb = command[0]
            if verb == "shutdown":
                # Graceful shutdown makes the store fully durable: fold
                # any buffered observations and snapshot every entry that
                # advanced past its last publish, so the next service
                # generation cold-starts byte-identical with no journal.
                self.registry.flush()
                self.results.put(("bye",))
                return
            if verb == "crash":
                raise InjectedCrash(
                    f"shard {self.shard_index} crash injected")
            if verb == "fit":
                self._handle_fit(command[1], command[2])
            elif verb == "upgrade":
                self._handle_fit(command[1], command[2], fresh=True)
            elif verb == "dispatch":
                self._handle_dispatch(command[1], command[2])
            elif verb == "observe":
                self._handle_observe(command[1], command[2], command[3])
            elif verb == "quiesce":
                self.registry.quiesce()
                self.results.put(("quiesced", command[1],
                                  self.registry.snapshot_watermarks()))
            elif verb == "flush":
                # Drain barrier + durability point: every entry's buffered
                # observations fold and publish, so after the reply the
                # store alone reproduces this worker's model state (the
                # hand-off a rolling refresh restores or rolls back from).
                self.registry.quiesce()
                published = self.registry.flush()
                self.results.put(("flushed", command[1], published,
                                  self.registry.snapshot_watermarks()))
            elif verb == "sync":
                # Reply-free barrier: join background refreshes so the
                # next command runs against the settled model state (the
                # parent's crash-replay path inserts one between journal
                # replay and requeued dispatches).
                self.registry.quiesce()
            elif verb == "stats":
                self.results.put(("stats", command[1], self.stats()))
            else:
                self.results.put(("protocol_error",
                                  f"unknown verb {verb!r}"))

    # -------------------------------------------------------------- handlers
    def _handle_fit(self, subject: str, spec: Mapping[str, object],
                    fresh: bool = False) -> None:
        try:
            if fresh:
                entry = self.registry.upgrade_spec(subject, spec)
            else:
                entry = self.registry.register_spec(subject, spec)
            # The restored watermark rides on the ack: a parent starting a
            # fresh service over an already-populated store advances its
            # op-id counter past it, so new observes are never mistaken
            # for replays of a previous service generation.
            self.results.put(("fitted", subject, entry.n_measurements,
                              entry.applied_op_id))
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            self.results.put(("fit_error", subject, str(exc)))

    def _handle_dispatch(self, batch_id: int,
                         requests: Sequence[QueryRequest]) -> None:
        self.dispatches += 1
        self.results.put(("answers", batch_id,
                          self.answer(list(requests))))

    def _handle_observe(self, op_id: int, subject: str,
                        measurements: Sequence) -> None:
        try:
            version = self.registry.observe(subject, measurements,
                                            op_id=op_id)
            # The snapshot watermark rides on every observed reply: it
            # tells the parent how far this subject's durable snapshot
            # reaches, i.e. how much of its journal is safe to compact.
            # (With asynchronous refreshes the watermark can lag the op
            # that triggered the snapshot by one reply — compaction then
            # simply catches up on the next observe.)
            self.results.put(("observed", op_id, version,
                              self.registry.snapshot_watermark(subject)))
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            self.results.put(("observe_error", op_id, str(exc)))

    # ------------------------------------------------------------- answering
    def answer(self, requests: list[QueryRequest]) -> list[QueryResponse]:
        """Answer one drained batch, one batcher call per subject group.

        Requests are grouped by subject in arrival order (the same move
        :class:`~repro.service.service.QueryService` makes when draining
        its queues) and each group is answered with coalesced batched
        engine calls; the responses come back aligned with ``requests``.
        A subject-level failure (unknown subject, dead engine) turns into
        per-request error responses rather than an exception.
        """
        by_subject: dict[str, list[int]] = {}
        for i, request in enumerate(requests):
            by_subject.setdefault(request.subject, []).append(i)
        responses: list[QueryResponse | None] = [None] * len(requests)
        for subject, indices in by_subject.items():
            self._dispatch_index += 1
            group = [requests[i] for i in indices]
            try:
                entry = self.registry.get(subject)
                answered = self.batcher.dispatch(
                    entry, group, dispatch_index=self._dispatch_index)
            except Exception as exc:  # noqa: BLE001 - isolate subjects
                answered = [QueryResponse(
                    request=request, subject=subject, model_version=-1,
                    value=None, dispatch_index=self._dispatch_index,
                    error=str(exc)) for request in group]
            # A misbehaving batcher returning too few responses must not
            # starve the tail requests of their replies.
            while len(answered) < len(group):
                short = group[len(answered)]
                answered.append(QueryResponse(
                    request=short, subject=subject, model_version=-1,
                    value=None, dispatch_index=self._dispatch_index,
                    error="batcher returned too few responses"))
            for i, response in zip(indices, answered):
                responses[i] = response
        return [response for response in responses if response is not None]

    def stats(self) -> dict:
        """JSON-friendly snapshot of this worker's serving counters."""
        drift = {}
        for subject in self.registry.subjects():
            entry = self.registry.get(subject)
            if entry.drift is not None:
                drift[subject] = entry.drift.state()
        return {"shard": self.shard_index,
                "subjects": self.registry.subjects(),
                "dispatches": self.dispatches,
                "engine_calls": self.batcher.calls,
                "answered": self.batcher.answered,
                "cache_hits": self.batcher.cache_hits,
                "cache_misses": self.batcher.cache_misses,
                "refreshes": self.registry.refreshes,
                "refreshes_skipped": self.registry.refreshes_skipped,
                "store_loads": self.registry.store_loads,
                "store_publishes": self.registry.store_publishes,
                "evicted_with_pending": self.registry.evicted_with_pending,
                "drift": drift}


def run_shard_server(shard_index: int, commands, results,
                     registry_options: Mapping[str, object] | None = None)\
        -> None:
    """Process entry point: run a :class:`ShardServer` until shutdown.

    Module-level (and all-picklable-arguments) so it works under both the
    ``fork`` and ``spawn`` multiprocessing start methods.  An injected
    crash exits the process abruptly with a nonzero code — the closest
    in-band analogue of a worker being OOM-killed.

    Under ``fork`` the worker starts with a copy of the parent's whole
    heap.  Freezing it first keeps the worker's garbage collector from
    walking (and copy-on-write duplicating) every inherited object, which
    otherwise made a worker's start-up cost grow with whatever the parent
    happened to hold when it forked.
    """
    gc.freeze()
    try:
        ShardServer(shard_index, commands, results, registry_options).run()
    except InjectedCrash:  # pragma: no cover - exercised in a subprocess
        os._exit(13)


def run_shard_thread(shard_index: int, commands, results,
                     registry_options: Mapping[str, object] | None = None)\
        -> None:
    """Thread entry point: like :func:`run_shard_server`, dying quietly.

    An injected crash simply ends the thread without a reply — the
    thread-mode analogue of the process dying — so the parent's liveness
    monitor, requeue and respawn paths are exercised identically in both
    modes.
    """
    try:
        ShardServer(shard_index, commands, results, registry_options).run()
    except InjectedCrash:
        return
