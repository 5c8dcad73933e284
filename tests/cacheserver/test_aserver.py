"""The asyncio cache server, frame by frame.

Every client in the fleet speaks to :class:`AsyncCacheServer` through raw
protocol frames, so the responses are pinned *byte for byte* — not
"equivalent", identical to the encoding the protocol module produces.
Payloads that carry per-process facts (stats, metrics, topology urls) are
checked by structure instead, and a concurrency test checks what the event
loop exists for: many simultaneous connections making progress together.
"""

import gc
import socket
import threading
import time
import warnings

import pytest

from repro.cachestore import MISSING
from repro.cacheserver import (
    AsyncCacheServer,
    ShardedRemoteBackend,
    server_metrics,
    server_ping,
    server_stats,
    server_topology,
)
from repro.cacheserver import protocol
from repro.exceptions import CacheStoreError

_TIMEOUT = 5.0


@pytest.fixture()
def server():
    with AsyncCacheServer(capacity=64) as running:
        yield running


def _roundtrip(server, body: bytes, request_id: int = 7) -> tuple[int, bytes]:
    """One raw framed request against a server; returns (request_id, response)."""
    with socket.create_connection(server.address, timeout=_TIMEOUT) as sock:
        protocol.send_message(sock, request_id, body)
        return protocol.recv_message(sock)


def _digest(tag: bytes) -> bytes:
    return tag.ljust(protocol.DIGEST_SIZE, b"\x00")


#: request frames against an empty server, each with its pinned response
_FRAMES = [
    (
        protocol.encode_request(protocol.PING, protocol.REGION_ALL),
        protocol.encode_response(protocol.OK, b"pong"),
    ),
    (
        protocol.encode_request(protocol.LEN, protocol.REGION_ALL),
        protocol.encode_response(protocol.OK, protocol.pack_count(0)),
    ),
    (
        protocol.encode_request(protocol.LEN, protocol.REGION_FITS),
        protocol.encode_response(protocol.OK, protocol.pack_count(0)),
    ),
    (
        protocol.encode_request(protocol.GET, protocol.REGION_FITS, digest=_digest(b"absent")),
        protocol.encode_response(protocol.MISS),
    ),
    (
        protocol.encode_request(
            protocol.MGET,
            protocol.REGION_PARTITIONS,
            digests=(_digest(b"a"), _digest(b"b")),
        ),
        protocol.encode_response(protocol.OK, protocol.pack_multi([None, None])),
    ),
    (
        protocol.encode_request(protocol.CLEAR, protocol.REGION_ALL),
        protocol.encode_response(protocol.OK),
    ),
    (
        bytes((250, protocol.REGION_FITS)),  # unknown verb
        protocol.encode_response(protocol.ERROR, b"unknown verb 250"),
    ),
    (
        bytes((protocol.GET, 99)) + _digest(b"x"),  # unknown region
        protocol.encode_response(protocol.ERROR, b"unknown region 99"),
    ),
    (
        bytes((protocol.GET, protocol.REGION_FITS)) + b"short",  # bad digest
        protocol.encode_response(protocol.ERROR, b"GET digest must be 16 bytes, got 5"),
    ),
]


class TestByteIdenticalResponses:
    """Each request frame must produce exactly its pinned response frame."""

    @pytest.mark.parametrize("body", [body for body, _ in _FRAMES])
    def test_same_frame_same_bytes(self, server, body):
        assert _roundtrip(server, body) == (7, dict(_FRAMES)[body])

    def test_put_then_get_and_mget_are_identical(self, server):
        digest = _digest(b"key-1")
        put = protocol.encode_request(
            protocol.PUT,
            protocol.REGION_FITS,
            digest=digest,
            cost=1.25,
            payload=b"stored-bytes",
        )
        get = protocol.encode_request(protocol.GET, protocol.REGION_FITS, digest=digest)
        mget = protocol.encode_request(
            protocol.MGET, protocol.REGION_FITS, digests=(digest, _digest(b"miss"))
        )
        length = protocol.encode_request(protocol.LEN, protocol.REGION_ALL)
        assert _roundtrip(server, put) == (7, protocol.encode_response(protocol.OK))
        assert _roundtrip(server, get) == (
            7,
            protocol.encode_response(protocol.HIT, b"stored-bytes"),
        )
        assert _roundtrip(server, mget) == (
            7,
            protocol.encode_response(
                protocol.OK, protocol.pack_multi([b"stored-bytes", None])
            ),
        )
        assert _roundtrip(server, length) == (
            7,
            protocol.encode_response(protocol.OK, protocol.pack_count(1)),
        )

    def test_pipelined_burst_is_answered_in_order_with_matching_ids(self, server):
        # queue a burst of frames before reading anything back — the
        # coalesced reply must echo every id, in order
        frames = []
        for index in range(32):
            body = protocol.encode_request(
                protocol.PUT,
                protocol.REGION_FITS,
                digest=_digest(b"burst-%d" % index),
                payload=b"v",
            )
            frames.append(protocol.frame_message(index, body))
        burst = b"".join(frames)
        with socket.create_connection(server.address, timeout=_TIMEOUT) as sock:
            sock.sendall(burst)
            seen = [protocol.recv_message(sock)[0] for _ in range(32)]
        assert seen == list(range(32))


class TestStructuralParity:
    """Payloads that carry per-process facts compare by structure."""

    def test_stats_shape_and_counters_match(self, server):
        backend = ShardedRemoteBackend(server.url, namespace=b"parity")
        backend.put("k", 41, cost_hint=0.5)
        assert backend.get("k") == 41
        assert backend.get("absent") is MISSING
        backend.close()
        stats = server_stats(server.url)
        assert sorted(stats) == ["regions", "server"]
        assert sorted(stats["server"]) == [
            "capacity",
            "fleet_size",
            "policy",
            "requests",
            "topology_epoch",
            "uptime_seconds",
            "url",
            "warmed_entries",
        ]
        regions = {
            name: (region["entries"], region["hits"], region["misses"])
            for name, region in stats["regions"].items()
        }
        assert regions == {"fits": (1, 1, 1), "partitions": (0, 0, 0)}

    def test_metrics_expose_the_same_series(self, server):
        server_ping(server.url)
        exposition = server_metrics(server.url)
        names = {
            line.split("{")[0].split(" ")[0]
            for line in exposition.splitlines()
            if line and not line.startswith("#")
        }
        assert sorted(names) == [
            "cacheserver_connections_inflight",
            "cacheserver_region_entries",
            "cacheserver_region_evictions",
            "cacheserver_region_hits",
            "cacheserver_region_misses",
            "cacheserver_request_seconds_bucket",
            "cacheserver_request_seconds_count",
            "cacheserver_request_seconds_sum",
            "cacheserver_requests_total",
            "cacheserver_topology_epoch",
            "cacheserver_uptime_seconds",
        ]

    def test_topology_views_match_before_any_membership(self, server):
        view = server_topology(server.url)
        assert view["epoch"] == 0 and view["endpoints"] == []
        assert view["url"] == server.url

    def test_trace_spans_record_identically(self, server):
        from repro.cacheserver import server_trace
        from repro.obs.trace import TRACE_ID_BYTES, SPAN_ID_BYTES

        trace_context = b"\x11" * TRACE_ID_BYTES + b"\x00" * SPAN_ID_BYTES
        body = protocol.encode_request(
            protocol.GET,
            protocol.REGION_FITS,
            digest=_digest(b"traced"),
            trace=trace_context,
        )
        _roundtrip(server, body)
        spans = server_trace(server.url, trace_id=("11" * TRACE_ID_BYTES))
        recorded = [
            (span["name"], span["outcome"], span["attributes"]["region"]) for span in spans
        ]
        assert recorded == [("server.get", "ok", "fits")]


class TestAsyncServerUnderConcurrency:
    def test_many_connections_make_progress_together(self):
        # the reason the asyncio server exists: 64 concurrent client
        # connections, each doing real read/write traffic, on one loop
        with AsyncCacheServer() as server:
            errors: list[Exception] = []

            def worker(worker_id: int) -> None:
                try:
                    backend = ShardedRemoteBackend(
                        server.url, namespace=b"w%d" % worker_id
                    )
                    for index in range(25):
                        backend.put(("k", index), (worker_id, index))
                        assert backend.get(("k", index)) == (worker_id, index)
                    backend.close()
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert not any(thread.is_alive() for thread in threads)
            requests = server_stats(server.url)["server"]["requests"]
            assert requests >= 64 * 50

    def test_context_manager_lifecycle_is_idempotent(self):
        server = AsyncCacheServer()
        with server:
            assert server_ping(server.url)
        server.shutdown()  # second shutdown is a no-op
        with pytest.raises(Exception):
            server_ping(server.url)

    def test_url_is_valid_before_start(self):
        server = AsyncCacheServer()
        host, port = server.address
        assert host == "127.0.0.1" and port > 0
        assert server.url == f"{host}:{port}"
        server.shutdown()  # never started: just releases the socket

    def test_shutdown_closes_connections_accepted_just_before_it(self):
        # clients the kernel has connected but the loop has not yet handed to
        # a handler race the shutdown; none may leak its server-side socket
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(30):
                server = AsyncCacheServer().start()
                clients = [
                    socket.create_connection(server.address, timeout=_TIMEOUT)
                    for _ in range(4)
                ]
                server.shutdown()
                for client in clients:
                    client.close()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_start_after_shutdown_raises_instead_of_returning_a_dead_server(self):
        server = AsyncCacheServer()
        server.shutdown()
        with pytest.raises(CacheStoreError, match="shut down"):
            server.start()

    def test_start_raises_promptly_when_the_loop_cannot_listen(self):
        # a listening socket that is already gone: the loop dies on start-up,
        # and start() must report it at once rather than after its timeout
        server = AsyncCacheServer()
        server._sock.close()
        started = time.monotonic()
        with pytest.raises(CacheStoreError, match="failed to start"):
            server.start()
        assert time.monotonic() - started < 5.0
        assert server._thread is None
