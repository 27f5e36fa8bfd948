"""Length-prefixed socket frames for the island runtime.

The gossip transport speaks JSON objects, one per frame, over a stream
socket. Each frame is a 4-byte big-endian length followed by the UTF-8
JSON body — the simplest self-delimiting encoding that survives TCP's
arbitrary segmentation. The JSON vocabulary deliberately reuses the
service wire format (:mod:`repro.service.wire`) for problems, so a
coordinator ships an island the *same* payload an HTTP client would ship
the gateway, and both sides rebuild bit-identical instances.

Stochastic matrices must cross the wire **bit-exactly** (the loopback
parity pin compares the distributed run against the sequential simulation
to the last ulp), so they travel as base64 of the raw C-order float64
buffer, not as JSON number lists: :func:`encode_matrix` /
:func:`decode_matrix` round-trip any float64 array without touching its
bits.

Malformed traffic is rejected with a structured
:class:`~repro.exceptions.FrameError` whose ``kind`` distinguishes a peer
that died mid-frame (``truncated`` — the signal the coordinator's heal
path reacts to) from an over-limit length prefix (``oversized``) and from
undecodable bodies (``malformed``). A matrix that decodes but is not a
stochastic matrix of the job's shape — another dtype, NaN, inf or
negative entries — is ``malformed`` too.
"""

from __future__ import annotations

import base64
import json
import math
import socket
import struct
from typing import Any

import numpy as np

from repro.exceptions import FrameError

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_matrix",
    "decode_matrix",
    "send_frame",
    "recv_frame",
]

#: Ceiling on one frame's body size. A gossip frame carries one stochastic
#: matrix (n² float64 ≈ 80 KB at n = 100), so 16 MiB is three orders of
#: magnitude of headroom while still rejecting a garbage length prefix
#: (e.g. a peer speaking a different protocol) before allocating for it.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("!I")


def encode_matrix(arr: np.ndarray) -> dict[str, Any]:
    """JSON-able, bit-exact encoding of a float64 array (as ``"<f8"``)."""
    contiguous = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes(order="C")).decode("ascii"),
    }


def decode_matrix(payload: Any, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Inverse of :func:`encode_matrix`, for stochastic matrices.

    The payload must be little-endian float64 (``"<f8"``, what
    :func:`encode_matrix` writes) with finite, non-negative entries and a
    byte count that matches its shape; when ``shape`` is given the decoded
    shape must equal it. Every violation raises
    ``FrameError("malformed")``.
    """
    if not isinstance(payload, dict):
        raise FrameError("malformed", f"matrix payload must be an object, got {type(payload).__name__}")
    try:
        dtype = payload["dtype"]
        got_shape = tuple(int(s) for s in payload["shape"])
        raw = base64.b64decode(payload["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError("malformed", f"undecodable matrix payload: {exc}") from exc
    if dtype != "<f8":
        raise FrameError("malformed", f"matrix dtype must be '<f8', got {dtype!r}")
    if any(s < 0 for s in got_shape):
        raise FrameError("malformed", f"matrix shape {got_shape} has a negative extent")
    if shape is not None and got_shape != tuple(shape):
        raise FrameError(
            "malformed", f"matrix shape {got_shape} does not match the expected {tuple(shape)}"
        )
    expected = 8 * math.prod(got_shape)
    if len(raw) != expected:
        raise FrameError(
            "malformed",
            f"matrix payload carries {len(raw)} bytes but shape {got_shape} "
            f"(<f8) needs {expected}",
        )
    arr = np.frombuffer(raw, dtype="<f8").reshape(got_shape).copy()
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise FrameError("malformed", "matrix has non-finite or negative entries")
    return arr


def send_frame(
    sock: socket.socket, payload: dict[str, Any], *, max_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Serialize ``payload`` and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameError(
            "oversized", f"refusing to send a {len(body)}-byte frame (cap {max_bytes})"
        )
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            got = n - remaining
            raise FrameError(
                "truncated",
                f"peer closed mid-{what}: got {got} of {n} bytes",
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Read one frame; raises :class:`FrameError` on any wire defect.

    ``truncated`` covers both a clean EOF mid-frame and a zero-byte read
    inside the length prefix — the caller (coordinator heal path, island
    main loop) treats either as "peer is gone". An EOF *between* frames is
    also reported as ``truncated`` with 0 of 4 prefix bytes, which is the
    correct signal at every call site: the protocol has no silence, a live
    peer always owes the next frame.
    """
    prefix = _recv_exact(sock, _LEN.size, "length prefix")
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise FrameError(
            "oversized",
            f"frame announces {length} bytes, over the {max_bytes}-byte cap",
        )
    body = _recv_exact(sock, length, "frame body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError("malformed", f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            "malformed", f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload
