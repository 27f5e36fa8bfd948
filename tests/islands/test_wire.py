"""Wire hygiene for the island transport (``repro.islands.wire``).

The contracts: frames round-trip any JSON object, matrices cross the wire
bit-exactly, and *every* defective byte stream — truncated, oversized,
undecodable — is rejected with a structured :class:`FrameError`, never a
hang, a raw ``struct.error`` or a silent misparse.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.exceptions import FrameError, IslandError, ReproError
from repro.islands import wire


def pipe() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


class TestFrameRoundTrip:
    def test_simple_object(self):
        a, b = pipe()
        with a, b:
            wire.send_frame(a, {"type": "hello", "name": "x", "pid": 1})
            assert wire.recv_frame(b) == {"type": "hello", "name": "x", "pid": 1}

    def test_many_frames_preserve_order(self):
        a, b = pipe()
        with a, b:
            for i in range(20):
                wire.send_frame(a, {"i": i})
            assert [wire.recv_frame(b)["i"] for _ in range(20)] == list(range(20))

    def test_large_frame_survives_segmentation(self):
        # Bigger than any single recv() chunk, so _recv_exact must loop.
        payload = {"blob": "x" * 300_000}
        a, b = pipe()
        with a, b:
            sender = threading.Thread(target=wire.send_frame, args=(a, payload))
            sender.start()
            assert wire.recv_frame(b) == payload
            sender.join()

    def test_error_hierarchy(self):
        err = FrameError("truncated", "gone")
        assert isinstance(err, IslandError)
        assert isinstance(err, ReproError)
        assert err.kind == "truncated"


class TestMatrixCodec:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(3)
        arr = rng.random((7, 9))
        arr[0, 0] = -0.0
        arr[1, 1] = 5e-324  # smallest subnormal
        arr[2, 2] = np.nextafter(1.0, 2.0)
        out = wire.decode_matrix(wire.encode_matrix(arr))
        assert out.dtype == np.float64
        assert out.shape == arr.shape
        assert arr.tobytes() == out.tobytes()  # ulp-exact, -0.0 included

    def test_round_trip_over_socket(self):
        rng = np.random.default_rng(11)
        arr = rng.random((6, 6))
        a, b = pipe()
        with a, b:
            wire.send_frame(a, {"m": wire.encode_matrix(arr)})
            out = wire.decode_matrix(wire.recv_frame(b)["m"])
        assert arr.tobytes() == out.tobytes()

    def test_byte_count_must_match_shape(self):
        payload = wire.encode_matrix(np.zeros((3, 3)))
        payload["shape"] = [4, 4]
        with pytest.raises(FrameError) as exc:
            wire.decode_matrix(payload)
        assert exc.value.kind == "malformed"

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"dtype": "<f8", "shape": [2]},  # no data
            {"dtype": "<f8", "shape": [2], "data": "###"},  # invalid base64
            {"dtype": "nonsense", "shape": [2], "data": "AA=="},
        ],
    )
    def test_garbage_payloads_are_structured_errors(self, payload):
        with pytest.raises(FrameError) as exc:
            wire.decode_matrix(payload)
        assert exc.value.kind == "malformed"


class TestDefectiveTraffic:
    def test_peer_death_mid_body_is_truncated(self):
        a, b = pipe()
        with b:
            a.sendall(struct.pack("!I", 100) + b'{"half":')
            a.close()
            with pytest.raises(FrameError) as exc:
                wire.recv_frame(b)
        assert exc.value.kind == "truncated"

    def test_eof_between_frames_is_truncated(self):
        a, b = pipe()
        with b:
            a.close()
            with pytest.raises(FrameError) as exc:
                wire.recv_frame(b)
        assert exc.value.kind == "truncated"
        assert "0 of 4" in str(exc.value)

    def test_oversized_prefix_rejected_before_allocation(self):
        a, b = pipe()
        with a, b:
            a.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError) as exc:
                wire.recv_frame(b)
        assert exc.value.kind == "oversized"

    def test_oversized_send_refused(self):
        a, b = pipe()
        with a, b:
            with pytest.raises(FrameError) as exc:
                wire.send_frame(a, {"blob": "x" * 64}, max_bytes=16)
        assert exc.value.kind == "oversized"

    @pytest.mark.parametrize("body", [b"not json", b"[1,2,3]", b'"str"', b"\xff\xfe"])
    def test_undecodable_bodies_are_malformed(self, body):
        a, b = pipe()
        with a, b:
            a.sendall(struct.pack("!I", len(body)) + body)
            with pytest.raises(FrameError) as exc:
                wire.recv_frame(b)
        assert exc.value.kind == "malformed"

    @pytest.mark.parametrize(
        "payload",
        [
            {"dtype": "|O", "shape": [1], "data": "AAAAAAAAAAA="},
            {"dtype": "<i8", "shape": [1], "data": "AAAAAAAAAAA="},
            {"dtype": "<f4", "shape": [2], "data": "AAAAAAAAAAA="},
            {"dtype": ">f8", "shape": [1], "data": "AAAAAAAAAAA="},
            {"dtype": ["<f8"], "shape": [1], "data": "AAAAAAAAAAA="},
            {"dtype": "<f8", "shape": [-1, -1], "data": "AAAAAAAAAAA="},
        ],
        ids=["object", "int64", "float32", "big-endian", "dtype-list", "negative-extent"],
    )
    def test_non_f8_matrices_are_malformed(self, payload):
        with pytest.raises(FrameError) as exc:
            wire.decode_matrix(payload)
        assert exc.value.kind == "malformed"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_non_finite_or_negative_matrices_are_malformed(self, bad):
        arr = np.full((3, 3), 1.0 / 3.0)
        arr[1, 2] = bad
        with pytest.raises(FrameError) as exc:
            wire.decode_matrix(wire.encode_matrix(arr))
        assert exc.value.kind == "malformed"

    def test_expected_shape_is_enforced(self):
        payload = wire.encode_matrix(np.full((2, 3), 0.5))
        assert wire.decode_matrix(payload, (2, 3)).shape == (2, 3)
        for shape in [(3, 2), (6,), (2, 3, 1)]:
            with pytest.raises(FrameError) as exc:
                wire.decode_matrix(payload, shape)
            assert exc.value.kind == "malformed"

    def test_island_rejects_wrong_shape_leader_matrix(self):
        # The gossip handler decodes the leader matrix against the job's
        # (n_tasks, n_resources) before it touches any chain or socket.
        from repro.islands.island import IslandWorker

        island = IslandWorker(("127.0.0.1", 0))
        msg = {"round": 1, "leader": 0, "matrix": wire.encode_matrix(np.full((2, 2), 0.5))}
        with pytest.raises(FrameError) as exc:
            island._apply_gossip(None, msg, {}, 0.5, (3, 3))
        assert exc.value.kind == "malformed"

    def test_fuzz_random_bytes_never_raise_unstructured(self):
        """Seeded fuzz: any byte garbage either parses as a frame or raises
        FrameError — the coordinator's heal path depends on that closure."""
        rng = np.random.default_rng(2005)
        for _ in range(50):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 64))).astype(
                np.uint8
            ).tobytes()
            a, b = pipe()
            with a, b:
                a.sendall(blob)
                a.close()
                try:
                    wire.recv_frame(b)
                except FrameError as exc:
                    assert exc.kind in ("truncated", "oversized", "malformed")
