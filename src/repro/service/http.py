"""Minimal stdlib HTTP/1.1 front for the mapping gateway.

The daemon behind ``repro-match serve``: an ``asyncio.start_server`` loop
that speaks just enough HTTP for a curl / ``urllib`` client —

* ``POST /solve`` — body is the :mod:`repro.service.wire` request JSON;
  answers the :class:`~repro.service.service.MappingResponse` wire form
  with status 200 (ok), 429 (structured quota rejection), 500 (failed
  solve) or 400 (malformed request);
* ``GET /healthz`` — liveness probe;
* ``GET /stats`` — the service counters (cache, quotas, batching).

One request per connection (``Connection: close``): the gateway's
concurrency comes from the dispatcher's batching, not from connection
reuse, and the dumbest possible wire loop is the easiest one to trust.
Malformed HTTP — a bad request line, a header line without a colon or
over the stream's 64 KiB line limit, a non-numeric or negative
``Content-Length``, a body shorter than announced — gets a structured
``400 {"error": {"kind": "bad-request", ...}}``; a ``Content-Length``
over :data:`MAX_BODY_BYTES` gets ``413`` before any body is read.
:func:`submit_over_http` is the matching blocking client used by the
``repro-match submit`` CLI and the CI trace replay.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from typing import Any

from repro.exceptions import ReproError, ValidationError
from repro.service.service import MappingService
from repro.service.wire import request_from_wire

__all__ = ["start_http_server", "submit_over_http"]

#: Refuse bodies past this size (a square n=1000 inline problem is ~24 MB;
#: serving-scale requests use the compact generator spec instead).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: How long a rejected connection keeps reading (and discarding) input so
#: the client sees the error instead of a reset.
LINGER_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """A request the front rejects before routing: status, error kind, message."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


def _bad_request(message: str) -> _HttpError:
    return _HttpError(400, "bad-request", message)


def _response_bytes(status: int, payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")  # repro: noqa[run-discipline] HTTP wire encoding, not a result file; the run record is written by MappingService
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    # StreamReader.readline reports a line over the stream limit as a
    # ValueError (it converts its own LimitOverrunError).
    try:
        return await reader.readline()
    except ValueError as exc:
        raise _bad_request(f"{what} too long: {exc}") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes] | None:
    """``(method, path, body)`` for one request, or None on an empty connection.

    Raises :class:`_HttpError` for malformed or oversized requests.
    """
    request_line = await _read_line(reader, "request line")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _bad_request(f"malformed request line {request_line[:200]!r}")
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await _read_line(reader, "header line")
        if not line:
            raise _bad_request("connection closed inside the headers")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _bad_request(f"malformed header line {line[:200]!r}")
        if name.strip().lower() == "content-length":
            raw = value.strip()
            if not (raw.isascii() and raw.isdigit()):
                raise _bad_request(f"malformed Content-Length {raw[:40]!r}")
            # int() refuses strings of a few thousand digits; any length
            # with more than 18 significant digits is over the cap anyway.
            digits = raw.lstrip("0") or "0"
            content_length = int(digits) if len(digits) <= 18 else MAX_BODY_BYTES + 1
    if content_length > MAX_BODY_BYTES:
        raise _HttpError(
            413, "too-large", f"body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )
    try:
        body = await reader.readexactly(content_length) if content_length else b""
    except asyncio.IncompleteReadError as exc:
        raise _bad_request(
            f"body ended after {len(exc.partial)} of {content_length} bytes"
        ) from None
    return method, path, body


async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: MappingService,
) -> None:
    try:
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            out = await _route(service, *parsed)
        except _HttpError as exc:
            writer.write(
                _response_bytes(exc.status, {"error": {"kind": exc.kind, "message": str(exc)}})
            )
            await _linger(reader, writer)
            return
        writer.write(out)
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Send the error, then discard input for up to ``LINGER_SECONDS``.

    A rejected client may still be sending (the rest of an oversized body
    or header line); closing with unread input resets the connection, and
    the client would lose the answer before reading it.
    """
    await writer.drain()
    if writer.can_write_eof():
        writer.write_eof()

    async def discard() -> None:
        while await reader.read(65536):
            pass

    try:
        await asyncio.wait_for(discard(), LINGER_SECONDS)
    except asyncio.TimeoutError:
        pass


async def _route(service: MappingService, method: str, path: str, body: bytes) -> bytes:
    if method == "GET" and path == "/healthz":
        return _response_bytes(200, {"ok": True})
    if method == "GET" and path == "/stats":
        return _response_bytes(200, service.stats())
    if method == "POST" and path == "/solve":
        return await _handle_solve(service, body)
    return _response_bytes(404, {"error": f"no route for {method} {path}"})


async def _handle_solve(service: MappingService, body: bytes) -> bytes:
    try:
        request = request_from_wire(json.loads(body.decode("utf-8")))
    except (ValidationError, ReproError, ValueError, KeyError, TypeError) as exc:
        return _response_bytes(400, {"error": {"kind": "bad-request", "message": str(exc)}})
    response = await service.submit(request)
    status = {"ok": 200, "rejected": 429}.get(response.status, 500)
    return _response_bytes(status, response.to_wire())


async def start_http_server(
    service: MappingService, host: str = "127.0.0.1", port: int = 8753
) -> asyncio.AbstractServer:
    """Bind the gateway to ``host:port``; caller owns the server lifecycle."""
    return await asyncio.start_server(
        lambda r, w: _handle_connection(r, w, service), host, port
    )


def submit_over_http(
    url: str, payload: dict[str, Any], *, timeout: float = 300.0
) -> tuple[int, dict[str, Any]]:
    """Blocking client: POST ``payload`` to ``<url>/solve``.

    Returns ``(http_status, response_payload)``; structured rejections
    (HTTP 429) and failed solves (HTTP 500) come back as payloads, not
    exceptions — only transport problems raise.
    """
    req = urllib.request.Request(
        url.rstrip("/") + "/solve",
        data=json.dumps(payload).encode("utf-8"),  # repro: noqa[run-discipline] POST body wire encoding, not result persistence
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", errors="replace")
        try:
            return exc.code, json.loads(body)
        except json.JSONDecodeError:
            return exc.code, {"error": {"kind": "http-error", "message": body}}
