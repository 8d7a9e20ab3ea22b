"""A small asyncio HTTP/1.1 server and JSON router — stdlib only.

The service layer needs exactly four things from HTTP: parse a request line
plus headers plus a ``Content-Length`` body, match the path against a route
table with ``{param}`` segments, run the handler, and write a JSON response.
Pulling in a web framework for that would be the project's first hard
dependency, so this module implements the minimum carefully instead:

* requests bigger than a configurable cap are rejected with 413 before the
  body is read into memory;
* handler exceptions map to structured JSON errors (:class:`repro.exceptions.
  SparkERError` → 400-family, :class:`repro.service.wal.DegradedError` →
  507, anything else → 500) — the connection never just drops;
* every handled request is timed into the app's
  :class:`~repro.service.metrics.ServiceMetrics` under its route *pattern*;
* handlers are callables ``(Request) -> Response`` that may be plain
  synchronous (cheap probes answer inline on the event loop) or coroutine
  functions — the app layer's handlers are coroutines that offload the
  CPU-bound engine work to a bounded worker pool, which is what keeps
  ``healthz`` and warm queries answering while a cold sweep runs;
* in-flight connections are counted so the app can **drain** them (with a
  deadline) before sweeping temp artifacts at shutdown.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.exceptions import SparkERError
from repro.service.wal import DegradedError

MAX_REQUEST_BYTES = 16 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    507: "Insufficient Storage",
}


class HttpError(Exception):
    """An error with a definite HTTP status, raised by handlers or parsing."""

    def __init__(
        self, status: int, message: str, *, headers: "dict[str, str] | None" = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    path_params: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        """The request body parsed as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    def int_query(self, name: str, default: int, *, minimum: int = 0) -> int:
        """An integer query parameter with a default and a lower bound."""
        raw = self.query.get(name)
        if raw is None or raw == "":
            return default
        try:
            value = int(raw)
        except ValueError as error:
            raise HttpError(400, f"query parameter {name!r} must be an integer") from error
        if value < minimum:
            raise HttpError(400, f"query parameter {name!r} must be >= {minimum}")
        return value


@dataclass
class Response:
    """A JSON response (``payload`` is serialised once, at write time)."""

    payload: object
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(self.status, "OK")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in self.headers.items()
        )
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        return head.encode("ascii") + body


class Router:
    """Method + ``{param}``-pattern route table."""

    def __init__(self) -> None:
        # (method, tuple-of-segments) preserved in registration order;
        # literal segments must match exactly, "{name}" captures one segment.
        self._routes: list[tuple[str, tuple[str, ...], str, object]] = []

    def add(self, method: str, pattern: str, handler) -> None:
        """Register ``handler`` for ``method pattern``."""
        segments = tuple(segment for segment in pattern.split("/") if segment)
        label = f"{method.upper()} {pattern}"
        self._routes.append((method.upper(), segments, label, handler))

    def match(self, method: str, path: str):
        """Resolve ``(handler, path_params, label)``; raise 404/405."""
        segments = [unquote(segment) for segment in path.split("/") if segment]
        path_found = False
        for route_method, route_segments, label, handler in self._routes:
            if len(route_segments) != len(segments):
                continue
            params: dict[str, str] = {}
            for route_segment, segment in zip(route_segments, segments):
                if route_segment.startswith("{") and route_segment.endswith("}"):
                    params[route_segment[1:-1]] = segment
                elif route_segment != segment:
                    break
            else:
                path_found = True
                if route_method == method.upper():
                    return handler, params, label
        if path_found:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no route matches {path}")


class HttpServer:
    """Serve a :class:`Router` over asyncio streams."""

    def __init__(self, router: Router, *, host: str = "127.0.0.1", port: int = 0,
                 metrics=None) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.metrics = metrics
        self._server: "asyncio.AbstractServer | None" = None
        self._active_connections = 0
        self._idle_event: "asyncio.Event | None" = None

    async def start(self) -> None:
        """Bind and start accepting connections (resolves ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and wait for the listener to close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    def _idle(self) -> asyncio.Event:
        # Created lazily inside the running loop (py3.9 binds the Event's
        # loop at construction time).
        if self._idle_event is None:
            self._idle_event = asyncio.Event()
            self._idle_event.set()
        return self._idle_event

    async def drain(self, timeout: float) -> bool:
        """Wait until every in-flight connection finishes; False on timeout.

        Called by the app after :meth:`stop` (no new connections) so that
        shutdown never sweeps temp artifacts a still-running handler has
        mapped.
        """
        if self._active_connections == 0:
            return True
        try:
            await asyncio.wait_for(self._idle().wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------- internals
    async def _handle_connection(self, reader, writer) -> None:
        idle = self._idle()
        self._active_connections += 1
        idle.clear()
        try:
            await self._handle_one(reader, writer)
        finally:
            self._active_connections -= 1
            if self._active_connections == 0:
                idle.set()

    async def _handle_one(self, reader, writer) -> None:
        label = "unmatched"
        started = time.perf_counter()
        try:
            request = await self._read_request(reader)
            response, label = await self._dispatch(request)
        except HttpError as error:
            response = Response(
                {"error": error.message}, status=error.status, headers=error.headers
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # noqa: BLE001 - the server must answer
            response = Response({"error": f"internal error: {error}"}, status=500)
        try:
            writer.write(response.encode())
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            if self.metrics is not None:
                self.metrics.observe(
                    label, time.perf_counter() - started, response.status
                )

    async def _dispatch(self, request: Request) -> tuple[Response, str]:
        handler, params, label = self.router.match(request.method, request.path)
        request.path_params = params
        try:
            result = handler(request)
            if inspect.isawaitable(result):
                result = await result
        except HttpError as error:
            return (
                Response(
                    {"error": error.message},
                    status=error.status,
                    headers=error.headers,
                ),
                label,
            )
        except DegradedError as error:
            # The collection's WAL device failed: it keeps serving reads but
            # rejects writes until restarted against a healthy device.
            return Response({"error": str(error)}, status=507), label
        except SparkERError as error:
            # Domain validation errors (bad payloads, duplicate ids, unknown
            # schemes) are the caller's fault, not the server's.
            return Response({"error": str(error)}, status=400), label
        if isinstance(result, Response):
            return result, label
        return Response(result), label

    async def _read_request(self, reader) -> Request:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > _MAX_HEADER_BYTES:
            raise HttpError(413, "request headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as error:
            raise HttpError(400, f"malformed request line: {lines[0]!r}") from error
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError as error:
            raise HttpError(400, "invalid Content-Length") from error
        if length < 0 or length > MAX_REQUEST_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return Request(
            method=method.upper(),
            path=split.path,
            query=query,
            headers=headers,
            body=body,
        )
