"""Adversarial tests of the wire gateway: hostile peers and failures.

Covers the fault surface ISSUE 9 demands of the gateway:

* **slow-loris partial writes** — a peer that stalls mid-frame past
  ``recv_timeout`` is dropped with a typed truncation error, counted in
  stats, without affecting other connections;
* **client disconnect mid-request** — the server finishes the request,
  fails the write, and cleans the connection up without leaking threads;
* **bad/missing API keys and quota exhaustion** — typed
  :class:`~repro.service.gateway.GatewayAuthError` /
  :class:`~repro.service.gateway.QuotaExceededError` rejections, each
  counted in :class:`~repro.service.gateway.GatewayStats` (and per
  tenant);
* **drain during in-flight work** — the in-flight request settles and
  delivers its answer while new connections and new requests get typed
  ``draining`` errors, deterministically (event-gated, no sleeps on the
  assert path);
* **ShardedServiceStats counter invariants through the wire** —
  synthesized error responses (crash requeue-budget exhaustion) and
  close-time settlements are counted in ``errors`` / ``closed_errors``,
  never double-counted as ``answered``, when the traffic arrives through
  :class:`~repro.service.gateway.GatewayClient` connections;
* **no Nagle delay** — both ends of a live connection set
  ``TCP_NODELAY``, so a small reply is never held back waiting for the
  peer's (possibly delayed) ACK; a stack that refuses the option on one
  accepted socket drops that connection only, not the accept loop.
"""

from __future__ import annotations

import errno
import json
import socket
import threading
import time
from dataclasses import dataclass

import pytest

from repro.service import (
    DrainingError,
    EffectRequest,
    GatewayAuthError,
    GatewayClient,
    GatewayServer,
    QueryResponse,
    QuotaExceededError,
    ShardedQueryService,
    Tenant,
)
from repro.service import gateway as gateway_module
from repro.service.protocol import ErrorCode, FrameDecoder, encode_envelope

REQUEST = EffectRequest.of("cache-a", "Throughput", {"CachePolicy": 0.0})
SPEC = {"system": "cache_example", "n_samples": 40,
        "max_condition_size": 2, "seed": 0}


@dataclass
class _StubStats:
    """Minimal stats surface for the gateway's ``stats`` op."""

    submitted: int = 0


class _EchoService:
    """Instant stand-in service: every query answers value 1.0."""

    def __init__(self) -> None:
        self.stats = _StubStats()

    def submit(self, request, timeout=None):
        """Answer immediately with a fixed value."""
        self.stats.submitted += 1
        return QueryResponse(request=request, subject=request.subject,
                             model_version=0, value=1.0)

    def observe(self, subject, measurements, block=True):
        """Acknowledge any batch at version 0."""
        return 0


class _BlockingService(_EchoService):
    """A service whose ``submit`` blocks until released — the handle the
    drain/disconnect tests use to hold a request in flight
    deterministically."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def submit(self, request, timeout=None):
        """Signal entry, wait for :attr:`release`, then answer 42.0."""
        self.stats.submitted += 1
        self.entered.set()
        assert self.release.wait(30.0), "test never released the request"
        return QueryResponse(request=request, subject=request.subject,
                             model_version=0, value=42.0)


@pytest.fixture()
def leak_audit():
    """Assert the test leaves no gateway threads behind.

    Only ``gateway-*`` threads are audited: the sharded service's
    multiprocessing queues park ``QueueFeederThread``s whose teardown is
    garbage-collection-timed, not gateway behaviour.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = {t for t in set(threading.enumerate()) - before
                  if t.name.startswith("gateway")}
        if not leaked:
            return
        time.sleep(0.01)
    assert not leaked, f"gateway leaked threads: {leaked}"


# ----------------------------------------------------------------- slow loris
def test_slow_loris_stall_is_dropped_typed(leak_audit):
    service = _EchoService()
    with GatewayServer(service, recv_timeout=0.25) as gateway:
        frame = encode_envelope({"op": "ping"})
        with socket.create_connection(gateway.address, timeout=10.0) as sock:
            sock.sendall(frame[:5])  # ...and never the rest
            sock.settimeout(10.0)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        decoder = FrameDecoder()
        decoder.feed(received)
        envelope = json.loads(decoder.next_frame())
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == ErrorCode.TRUNCATED_FRAME
        assert gateway.stats.protocol_errors == 1
        # The loris took down only its own connection.
        with GatewayClient(gateway.address) as client:
            assert client.ping()


def test_idle_connection_survives_recv_timeout(leak_audit):
    """The stall guard must not kill peers idling *between* frames."""
    service = _EchoService()
    with GatewayServer(service, recv_timeout=0.2) as gateway:
        with GatewayClient(gateway.address) as client:
            assert client.ping()
            time.sleep(0.5)  # several timeout periods of boundary idle
            assert client.ping()


def test_live_connection_sets_tcp_nodelay_on_both_ends(leak_audit):
    service = _EchoService()
    with GatewayServer(service) as gateway:
        with GatewayClient(gateway.address) as client:
            assert client.ping()  # the server has accepted and served it
            [conn] = list(gateway._connections.values())
            for sock in (conn.sock, client._sock):
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)


def test_nodelay_failure_drops_only_that_connection(leak_audit,
                                                    monkeypatch):
    service = _EchoService()
    set_nodelay = gateway_module._set_nodelay
    refused = []

    def refuse_first_accepted(sock):
        # Accepted sockets share the listener's port; the client's is
        # ephemeral.  Refuse the first accepted one as BSD stacks do for a
        # connection the peer has already reset.
        if not refused and sock.getsockname()[1] == gateway.address[1]:
            refused.append(sock)
            raise OSError(errno.EINVAL, "Invalid argument")
        set_nodelay(sock)

    monkeypatch.setattr(gateway_module, "_set_nodelay",
                        refuse_first_accepted)
    with GatewayServer(service) as gateway:
        with socket.create_connection(gateway.address, timeout=10.0) as sock:
            assert sock.recv(1) == b""  # closed, not leaked open
        with GatewayClient(gateway.address) as client:
            assert client.ping()  # the accept loop is still running
        assert refused


# ------------------------------------------------------ disconnect mid-request
def test_client_disconnect_mid_request_is_cleaned_up(leak_audit):
    service = _BlockingService()
    with GatewayServer(service) as gateway:
        sock = socket.create_connection(gateway.address, timeout=10.0)
        sock.sendall(encode_envelope(
            {"op": "query",
             "request": {"kind": "effect", "subject": "cache-a",
                         "objective": "Throughput",
                         "intervention": [["CachePolicy", 0.0]]}}))
        assert service.entered.wait(10.0), "request never reached service"
        sock.close()  # hang up while the request is executing
        service.release.set()
        # The handler finishes, fails its write, and the connection is
        # reaped; the gateway keeps serving.
        deadline = time.monotonic() + 10.0
        while gateway.n_connections() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway.n_connections() == 0
        with GatewayClient(gateway.address) as client:
            assert client.submit(REQUEST).value == 42.0


# --------------------------------------------------------------- auth + quota
def test_bad_and_missing_api_keys_rejected_typed(leak_audit):
    service = _EchoService()
    tenants = {"good-key": "alice"}
    with GatewayServer(service, tenants=tenants) as gateway:
        with GatewayClient(gateway.address, api_key="wrong") as client:
            with pytest.raises(GatewayAuthError):
                client.submit(REQUEST)
        with GatewayClient(gateway.address) as client:  # no key at all
            with pytest.raises(GatewayAuthError):
                client.submit(REQUEST)
        assert gateway.stats.auth_failures == 2
        assert gateway.stats.queries == 0  # refusals are not admissions
        # The real tenant is unaffected.
        with GatewayClient(gateway.address, api_key="good-key") as client:
            assert client.submit(REQUEST).value == 1.0
        assert gateway.stats.per_tenant == {
            "alice": {"submitted": 1, "answered": 1, "errors": 0,
                      "rejected": 0, "observes": 0}}


def test_quota_exhaustion_rejected_typed_and_counted(leak_audit):
    service = _EchoService()
    tenants = {"k": Tenant("bob", quota=3)}
    with GatewayServer(service, tenants=tenants) as gateway:
        with GatewayClient(gateway.address, api_key="k") as client:
            for _ in range(3):
                assert client.submit(REQUEST).value == 1.0
            for _ in range(2):
                with pytest.raises(QuotaExceededError):
                    client.submit(REQUEST)
            # Quota guards queries, not health probes.
            assert client.ping()
        assert gateway.stats.quota_rejections == 2
        assert gateway.stats.per_tenant["bob"]["submitted"] == 3
        assert gateway.stats.per_tenant["bob"]["rejected"] == 2
        assert service.stats.submitted == 3  # nothing leaked past quota


# -------------------------------------------------------------------- drain
def test_drain_during_in_flight_settles_deterministically(leak_audit):
    service = _BlockingService()
    results: dict = {}
    with GatewayServer(service) as gateway:
        def client_thread():
            with GatewayClient(gateway.address, timeout=30.0) as conn:
                try:
                    results["response"] = conn.submit(REQUEST)
                except Exception as exc:  # noqa: BLE001 - recorded
                    results["raised"] = exc

        worker = threading.Thread(target=client_thread)
        worker.start()
        assert service.entered.wait(10.0), "request never reached service"
        gateway.drain()  # the request above is now in flight

        # New connections are refused with a typed error...
        with GatewayClient(gateway.address, timeout=10.0) as refused:
            with pytest.raises(DrainingError):
                refused.submit(REQUEST)
        # ...and so are new requests on a pre-drain connection — but the
        # in-flight request settles and delivers its answer.
        service.release.set()
        worker.join(15.0)
        assert not worker.is_alive()
        assert "raised" not in results
        assert results["response"].value == 42.0
        assert gateway.stats.answered == 1
        assert gateway.stats.draining_rejections >= 1


def test_new_request_on_existing_connection_rejected_during_drain(leak_audit):
    service = _EchoService()
    with GatewayServer(service) as gateway:
        with GatewayClient(gateway.address) as client:
            assert client.submit(REQUEST).value == 1.0
            gateway.drain()
            with pytest.raises(DrainingError):
                client.submit(REQUEST)
            assert client.ping()  # health probes keep working


# --------------------------------------- sharded stats invariants on the wire
@pytest.mark.slow
def test_synthesized_errors_never_double_counted_through_gateway(leak_audit):
    """Crash → requeue-budget exhaustion through the wire: the
    synthesized error response reaches the client as a delivered answer
    with ``response.error`` set, and the sharded tier counts it in
    ``errors`` — never in ``answered``."""
    specs = {"cache-a": dict(SPEC)}
    with ShardedQueryService(specs, shards=1, use_processes=False,
                             max_requeues=0) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=120.0) as client:
                healthy = client.submit(REQUEST)
                assert healthy.ok
                service._inject_crash(0)
                failed = client.submit(REQUEST)
                assert not failed.ok
                assert "requeued" in failed.error
                # The respawned shard keeps serving, same answers.
                recovered = client.submit_many([REQUEST] * 3)
                assert all(r.ok for r in recovered)
                assert all(r.value == healthy.value for r in recovered)
                wire_stats = client.stats()
            gateway_stats = gateway.stats

        stats = service.stats
        assert stats.errors == 1
        assert stats.answered == 4
        # The settlement invariant: every admitted request is answered
        # XOR error-settled — synthesized failures are not successes.
        assert stats.answered + stats.errors == stats.submitted == 5
        # The gateway delivered all five envelopes, flagging the one
        # carrying an error surface.
        assert gateway_stats.answered == 5
        assert gateway_stats.response_errors == 1
        assert gateway_stats.protocol_errors == 0
        assert wire_stats["service"]["errors"] == 1
        assert wire_stats["service"]["answered"] == 4


@pytest.mark.slow
def test_closed_errors_counted_not_answered_through_gateway(leak_audit):
    """A shard that fails permanently with a wire request in flight
    settles the request as a ``closed_errors`` entry (surfaced to the
    client as a typed ``draining`` rejection), never as an answer.

    Determinism: the monitor's respawn is gated on an event, so the wire
    request is provably in flight (admitted, routed to the dead worker)
    before the poisoned respawn is allowed to fail the shard.
    """
    specs = {"cache-a": dict(SPEC)}
    results: dict = {}
    with ShardedQueryService(specs, shards=1,
                             use_processes=False) as service:
        with GatewayServer(service) as gateway:
            with GatewayClient(gateway.address, timeout=120.0) as warm:
                assert warm.submit(REQUEST).ok

            respawn_entered = threading.Event()
            proceed = threading.Event()
            original_respawn = service._respawn

            def gated_respawn(shard):
                """Let the test park a request before the respawn fails."""
                respawn_entered.set()
                assert proceed.wait(60.0), "test never released respawn"
                return original_respawn(shard)

            service._respawn = gated_respawn
            shard = service._shards[0]
            shard.subjects["cache-a"] = {"system": "no-such-system"}
            service._inject_crash(0)
            assert respawn_entered.wait(60.0), "monitor never respawned"

            def client_thread():
                with GatewayClient(gateway.address, timeout=120.0) as conn:
                    try:
                        results["response"] = conn.submit(REQUEST)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        results["raised"] = exc

            worker = threading.Thread(target=client_thread)
            worker.start()
            deadline = time.monotonic() + 60.0
            while service.stats.submitted < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.stats.submitted == 2, "request never admitted"
            proceed.set()  # the poisoned respawn now fails the shard
            worker.join(60.0)
            assert not worker.is_alive()
            # New wire requests are refused typed, not hung.
            with GatewayClient(gateway.address, timeout=30.0) as conn:
                with pytest.raises(DrainingError):
                    conn.submit(REQUEST)
    assert isinstance(results.get("raised"), DrainingError)
    stats = service.stats
    assert stats.closed_errors == 1
    assert stats.answered == 1  # the warm-up answer only
    assert stats.errors == 0
    # The settlement invariant through the wire: admitted == answered
    # XOR error-settled XOR closed-settled; no double counting.
    assert stats.answered + stats.errors + stats.closed_errors \
        == stats.submitted == 2
