"""Wire encoding and the stdlib HTTP front of the gateway."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.exceptions import ValidationError
from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem, problem_key
from repro.runtime.registry import SolverSpec
from repro.service import (
    MappingService,
    ServiceConfig,
    problem_from_wire,
    problem_to_wire,
    request_from_wire,
    request_to_wire,
    start_http_server,
    submit_over_http,
)
from repro.service.http import MAX_BODY_BYTES


def make_problem(n: int = 10, seed: int = 7) -> MappingProblem:
    pair = generate_paper_pair(n, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


class TestWire:
    def test_problem_round_trip_preserves_key(self):
        problem = make_problem()
        rebuilt = problem_from_wire(problem_to_wire(problem))
        assert problem_key(rebuilt) == problem_key(problem)

    def test_generator_spec_matches_local_build(self):
        problem = problem_from_wire({"size": 10, "seed": 7})
        assert problem_key(problem) == problem_key(make_problem(10, 7))

    def test_request_round_trip(self):
        request = request_from_wire(
            {
                "problem": {"size": 8, "seed": 3},
                "solver": {"name": "match", "params": {"max_iterations": 40}},
                "seed": 11,
                "client": "c1",
            }
        )
        assert request.seed == 11
        assert request.client == "c1"
        assert request.solver == SolverSpec.of("match", {"max_iterations": 40})
        again = request_from_wire(request_to_wire(request))
        assert problem_key(again.problem) == problem_key(request.problem)
        assert (again.solver, again.seed, again.client) == (
            request.solver, request.seed, request.client,
        )

    def test_defaults(self):
        request = request_from_wire({"problem": {"size": 8}})
        assert request.solver.name == "match"
        assert request.client == "anonymous"

    def test_malformed_problem_rejected(self):
        with pytest.raises(ValidationError):
            problem_from_wire({"neither": True})


class TestHttp:
    def test_solve_healthz_stats_and_errors(self):
        """One daemon lifecycle: healthz, a solve, the cached re-solve,
        /stats, and the 400/404 paths — blocking clients always run in the
        executor (they would deadlock the serving loop otherwise)."""
        payload = {
            "problem": {"size": 8, "seed": 3},
            "solver": {"name": "match", "params": {"max_iterations": 40}},
            "seed": 11,
            "client": "http-test",
        }

        async def main():
            config = ServiceConfig(n_workers=1, coalesce_window=0.005)
            async with MappingService(config) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                url = f"http://127.0.0.1:{port}"
                loop = asyncio.get_running_loop()

                def post(body):
                    return submit_over_http(url, body, timeout=60)

                status1, first = await loop.run_in_executor(None, post, payload)
                status2, second = await loop.run_in_executor(None, post, payload)
                status3, bad = await loop.run_in_executor(
                    None, post, {"problem": {"neither": True}}
                )

                def raw(request_bytes):
                    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                        s.sendall(request_bytes)
                        chunks = b""
                        while True:
                            data = s.recv(65536)
                            if not data:
                                return chunks
                            chunks += data

                health = await loop.run_in_executor(
                    None, raw, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                missing = await loop.run_in_executor(
                    None, raw, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                server.close()
                await server.wait_closed()
                stats = service.stats()
                return status1, first, status2, second, status3, bad, health, missing, stats

        (status1, first, status2, second, status3, bad,
         health, missing, stats) = asyncio.run(main())

        assert status1 == 200 and first["status"] == "ok" and not first["cached"]
        assert status2 == 200 and second["cached"]
        assert second["result"] == first["result"]
        assert status3 == 400 and bad["error"]["kind"] == "bad-request"
        assert health.startswith(b"HTTP/1.1 200") and b'{"ok": true}' in health
        assert missing.startswith(b"HTTP/1.1 404")
        assert stats["requests"] == 2 and stats["cache_hits"] == 1


def _exchange(port: int, request_bytes: bytes) -> bytes:
    """Send one raw request, half-close, and read the reply to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return reply
            reply += data


def _status_and_error(reply: bytes) -> tuple[int, dict]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]


class TestHttpBoundary:
    """Malformed requests get a structured error reply, never silence."""

    CASES = {
        "bad-request-line": (b"GARBAGE\r\n\r\n", 400),
        "missing-version": (b"GET /healthz\r\n\r\n", 400),
        "header-without-colon": (b"GET /healthz HTTP/1.1\r\nHost x\r\n\r\n", 400),
        "non-numeric-length": (
            b"POST /solve HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400,
        ),
        "negative-length": (
            b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400,
        ),
        "non-ascii-digit-length": (
            b"POST /solve HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", 400,
        ),
        "header-line-over-64k": (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 400,
        ),
        "request-line-over-64k": (
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400,
        ),
        "headers-cut-short": (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", 400),
        "body-shorter-than-length": (
            b"POST /solve HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400,
        ),
        "body-over-limit": (
            b"POST /solve HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n",
            413,
        ),
        "length-of-5000-digits": (
            b"POST /solve HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 413,
        ),
    }

    def test_malformed_requests_get_structured_errors(self):
        async def main():
            async with MappingService(ServiceConfig(n_workers=1)) as service:
                server = await start_http_server(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                loop = asyncio.get_running_loop()
                replies = {}
                for name, (raw, _) in self.CASES.items():
                    replies[name] = await loop.run_in_executor(None, _exchange, port, raw)
                # An empty connection gets no reply, and the server keeps serving.
                replies["empty"] = await loop.run_in_executor(None, _exchange, port, b"")
                replies["healthz"] = await loop.run_in_executor(
                    None, _exchange, port, b"GET /healthz HTTP/1.1\r\n\r\n"
                )
                server.close()
                await server.wait_closed()
                return replies

        replies = asyncio.run(main())
        for name, (_, expected) in self.CASES.items():
            status, error = _status_and_error(replies[name])
            assert status == expected, (name, replies[name][:200])
            assert error["kind"] == ("too-large" if expected == 413 else "bad-request")
            assert error["message"], name
        assert replies["empty"] == b""
        assert replies["healthz"].startswith(b"HTTP/1.1 200")
