"""Protocol fuzzing: malformed wire input must never wedge the daemon.

Style follows ``tests/compress/test_fuzz.py``: deterministic seeded
corruption, property-style assertions.  Every abuse scenario ends with
the same liveness probe — a *fresh* client must complete a ``ping``
within a bounded time — so a wedged accept loop or a poisoned handler
thread fails loudly instead of hanging the suite.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.robustness import framing
from repro.serve.client import ServeClient
from repro.serve.engine import PatternEngine, ServingIndex
from repro.serve.protocol import MAX_FRAME, encode_message
from repro.serve.server import PatternServer
from tests.conftest import random_database

#: A liveness probe slower than this means the accept loop is wedged.
LIVENESS_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def server():
    db = random_database(9100, max_items=8, max_transactions=30)
    engine = PatternEngine(ServingIndex.from_transactions(db, 2))
    with PatternServer(engine) as srv:
        yield srv


def _raw_connection(server):
    return socket.create_connection(("127.0.0.1", server.port), timeout=10.0)


def _assert_alive(server):
    """The daemon still answers a fresh, well-formed client promptly."""
    start = time.monotonic()
    with ServeClient(port=server.port, timeout=LIVENESS_TIMEOUT) as client:
        assert client.ping() is True
    assert time.monotonic() - start < LIVENESS_TIMEOUT


def _read_error_envelope(sock):
    """Read the server's error answer off a raw socket, if it sent one."""
    sock.settimeout(10.0)
    prefix = sock.recv(4)
    if len(prefix) < 4:
        return None  # server chose to just close; also acceptable
    (length,) = struct.unpack(">I", prefix)
    data = b""
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        if not chunk:
            return None
        data += chunk
    frame = framing.decode_frame(data)
    _seq, envelope = frame.seq, json.loads(frame.payload.decode("utf-8"))
    return envelope


class TestMalformedFrames:
    def test_truncated_frame_after_prefix(self, server):
        with _raw_connection(server) as sock:
            good = encode_message(1, {"op": "ping"})
            # announce the full length but send only half, then vanish
            sock.sendall(good[: 4 + (len(good) - 4) // 2])
            sock.shutdown(socket.SHUT_WR)
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
                assert envelope["code"] == "protocol"
        _assert_alive(server)

    def test_corrupted_crc_rejected(self, server):
        good = encode_message(1, {"op": "ping"})
        # flip one bit in the CRC trailer (last 4 bytes)
        corrupted = bytearray(good)
        corrupted[-2] ^= 0x40
        with _raw_connection(server) as sock:
            sock.sendall(bytes(corrupted))
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
                assert envelope["code"] == "protocol"
        _assert_alive(server)

    def test_oversized_length_prefix_rejected_before_allocation(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME + 1))
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
                assert envelope["code"] == "protocol"
        _assert_alive(server)

    def test_zero_length_prefix_rejected(self, server):
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", 0))
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
        _assert_alive(server)

    def test_non_data_frame_kind_rejected(self, server):
        ack = framing.encode_ack(1)
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", len(ack)) + ack)
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
                assert envelope["code"] == "protocol"
        _assert_alive(server)

    def test_valid_frame_with_non_json_payload(self, server):
        frame = framing.encode_data(1, b"\xff\xfe not json at all")
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", len(frame)) + frame)
            envelope = _read_error_envelope(sock)
            if envelope is not None:
                assert envelope["ok"] is False
                assert envelope["code"] == "protocol"
        _assert_alive(server)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_garbage_streams(self, server, seed):
        rng = random.Random(seed)
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 512)))
        with _raw_connection(server) as sock:
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                _read_error_envelope(sock)
            except (framing.CodecError, OSError, ValueError):
                pass  # garbage may elicit garbage back or a slammed door
        _assert_alive(server)


class TestAbruptDisconnects:
    def test_disconnect_before_any_bytes(self, server):
        sock = _raw_connection(server)
        sock.close()
        _assert_alive(server)

    def test_disconnect_mid_prefix(self, server):
        sock = _raw_connection(server)
        sock.sendall(b"\x00\x00")
        sock.close()
        _assert_alive(server)

    def test_disconnect_after_request_without_reading_response(self, server):
        sock = _raw_connection(server)
        sock.sendall(encode_message(1, {"op": "topk", "item": 0, "k": None}))
        sock.close()  # the write side may hit a broken pipe; daemon shrugs
        _assert_alive(server)

    def test_many_abusers_then_many_good_clients(self, server):
        for seed in range(5):
            rng = random.Random(1000 + seed)
            sock = _raw_connection(server)
            sock.sendall(bytes(rng.randrange(256) for _ in range(64)))
            sock.close()
        # the accept loop must still drain a burst of honest clients
        start = time.monotonic()
        for _ in range(5):
            _assert_alive(server)
        assert time.monotonic() - start < LIVENESS_TIMEOUT * 2


class TestFaultContainment:
    def test_connection_errors_counted_but_connection_scoped(self, server):
        before = server.stats()["connection_errors"]
        good = encode_message(1, {"op": "ping"})
        corrupted = bytearray(good)
        corrupted[-1] ^= 0x01
        with _raw_connection(server) as sock:
            sock.sendall(bytes(corrupted))
            _read_error_envelope(sock)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.stats()["connection_errors"] > before:
                break
            time.sleep(0.05)
        assert server.stats()["connection_errors"] > before
        _assert_alive(server)

    def test_error_answer_uses_out_of_band_seq_zero(self, server):
        good = encode_message(7, {"op": "ping"})
        corrupted = bytearray(good)
        corrupted[-3] ^= 0x10
        with _raw_connection(server) as sock:
            sock.sendall(bytes(corrupted))
            sock.settimeout(10.0)
            prefix = sock.recv(4)
            if len(prefix) == 4:
                (length,) = struct.unpack(">I", prefix)
                data = b""
                while len(data) < length:
                    chunk = sock.recv(length - len(data))
                    if not chunk:
                        break
                    data += chunk
                frame = framing.decode_frame(data)
                assert frame.seq == 0
                envelope = json.loads(frame.payload.decode("utf-8"))
                assert envelope["ok"] is False and envelope["op"] is None
        _assert_alive(server)

    def test_malformed_then_wellformed_on_same_port_different_connection(
        self, server
    ):
        with _raw_connection(server) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME + 1))
            _read_error_envelope(sock)
        # a brand-new connection gets a clean protocol state
        with ServeClient(port=server.port) as client:
            env = client.frequency([0])
            assert env["ok"]
            env = client.request({"op": "stats"})
            assert env["ok"] and env["result"]["queries"] >= 1


#: Rule thresholds that are not numbers: each must be a ``bad_request``.
BAD_THRESHOLDS = [
    ("min_confidence", "0.5"),
    ("min_confidence", None),
    ("min_confidence", [0.5]),
    ("min_confidence", True),
    ("min_lift", "1.2"),
    ("min_lift", [1.2]),
    ("min_lift", {"value": 1.2}),
    ("min_lift", False),
]


def _rule_request(op, field, value):
    request = {"op": op, field: value}
    if op == "recommend":
        request["basket"] = [0]
    return request


class TestMalformedRuleThresholds:
    @pytest.mark.parametrize("op", ["rules", "recommend"])
    @pytest.mark.parametrize("field,value", BAD_THRESHOLDS)
    def test_rejected_in_process(self, op, field, value):
        engine = PatternEngine(ServingIndex.from_transactions(
            random_database(9100, max_items=8, max_transactions=30), 2
        ))
        envelope = engine.handle(_rule_request(op, field, value))
        assert envelope["ok"] is False
        assert envelope["code"] == "bad_request"
        assert field in envelope["error"]

    @pytest.mark.parametrize("op", ["rules", "recommend"])
    def test_rejected_over_the_wire_on_a_live_connection(self, server, op):
        before = server.stats()["connection_errors"]
        with ServeClient(port=server.port) as client:
            for field, value in BAD_THRESHOLDS:
                envelope = client.request(_rule_request(op, field, value))
                assert envelope["ok"] is False, (field, value)
                assert envelope["code"] == "bad_request"
            # the handler thread survived: the same connection still answers
            assert client.request(_rule_request(op, "min_lift", None))["ok"]
            assert client.request(_rule_request(op, "min_confidence", 1))["ok"]
        assert server.stats()["connection_errors"] == before
        _assert_alive(server)


class _BlockingEngine:
    """Wedges inside ``handle`` until released — builds an abandonable
    handler thread for the stop-deadline tests."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def handle(self, request, cancel=None) -> dict:
        self.entered.set()
        self.release.wait(30.0)
        return self.inner.handle(request)


def _fresh_server(seed, engine_wrap=None):
    db = random_database(seed, max_items=8, max_transactions=30)
    engine = PatternEngine(ServingIndex.from_transactions(db, 2))
    if engine_wrap is not None:
        engine = engine_wrap(engine)
    return PatternServer(engine).start()


def _await_listener_closed(port, timeout=10.0) -> bool:
    """True once new connections are refused (the drain flag is set)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            probe = socket.create_connection(("127.0.0.1", port), timeout=0.2)
            probe.close()
            time.sleep(0.02)
        except OSError:
            return True
    return False


class TestDrainAndStop:
    """Shutdown is a drain, not a door slam: requests that still arrive
    are rejected *loudly* (``shutting_down``), handler threads are joined
    against a bound, and the stragglers are counted, never leaked."""

    def test_request_during_drain_gets_shutting_down_envelope(self):
        srv = _fresh_server(9800)
        client = ServeClient(port=srv.port, timeout=10.0)
        try:
            assert client.ping() is True  # the connection + handler are live
            stopper = threading.Thread(target=srv.stop, kwargs={"timeout": 10.0})
            stopper.start()
            assert _await_listener_closed(srv.port)
            envelope = client.request({"op": "ping"})
            assert envelope["ok"] is False
            assert envelope["code"] == "shutting_down"
            assert envelope["op"] == "ping"
            stopper.join(15.0)
            assert not stopper.is_alive()
            assert srv.stats()["drain_rejections"] >= 1
        finally:
            client.close()

    def test_malformed_frame_during_drain_stays_contained(self):
        srv = _fresh_server(9810)
        sock = _raw_connection(srv)
        try:
            # park one live connection, then begin the drain
            stopper = threading.Thread(target=srv.stop, kwargs={"timeout": 10.0})
            stopper.start()
            assert _await_listener_closed(srv.port)
            good = encode_message(1, {"op": "ping"})
            corrupted = bytearray(good)
            corrupted[-1] ^= 0x01  # damage the CRC
            sock.sendall(bytes(corrupted))
            envelope = _read_error_envelope(sock)
            if envelope is not None:  # an answer, if any, is the typed error
                assert envelope["ok"] is False
                assert envelope["code"] in ("protocol", "shutting_down")
            stopper.join(15.0)
            assert not stopper.is_alive()
        finally:
            sock.close()

    def test_stop_joins_handlers_and_counts_the_abandoned(self):
        """Satellite contract: ``stop(timeout)`` must not leak in-flight
        handler threads silently — stragglers are force-closed and show
        up in ``stats()['abandoned']``."""
        blocking_ref = []

        def wrap(engine):
            blocking = _BlockingEngine(engine)
            blocking_ref.append(blocking)
            return blocking

        srv = _fresh_server(9820, engine_wrap=wrap)
        blocking = blocking_ref[0]
        client = ServeClient(port=srv.port, timeout=30.0)
        try:
            # fire a request and do NOT wait for the answer: the handler
            # is now wedged inside the engine when the drain begins
            client.send_raw(encode_message(1, {"op": "ping"}))
            assert blocking.entered.wait(10.0)
            abandoned = srv.stop(timeout=0.3)
            assert abandoned == 1
            assert srv.stats()["abandoned"] == 1
            assert srv.stats()["active_threads"] <= 1
        finally:
            blocking.release.set()  # let the wedged thread unwind
            client.close()

    def test_clean_stop_abandons_nothing(self):
        srv = _fresh_server(9830)
        with ServeClient(port=srv.port, timeout=10.0) as client:
            assert client.ping() is True
        assert srv.stop(timeout=5.0) == 0
        assert srv.stats()["abandoned"] == 0
