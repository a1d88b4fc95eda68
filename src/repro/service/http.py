"""Minimal HTTP/1.1 over asyncio streams — just enough for the service.

The daemon is deliberately stdlib-only (the released tool must run
anywhere a CT pipeline runs), so instead of pulling in aiohttp we parse
the small HTTP subset the service speaks: a request line, headers, an
optional ``Content-Length`` body, and a single response per connection
(``Connection: close``).  Everything structured — including every error
— goes back as JSON.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Any

#: Reason phrases for the status codes the service actually emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 16 * 1024


class HttpError(Exception):
    """A structured, JSON-renderable protocol or application error."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_dict(self) -> dict[str, Any]:
        return {
            "error": {
                "status": self.status,
                "code": self.code,
                "message": self.message,
            }
        }


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Request | None:
    """Parse one request from the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input or an oversized body
    (413) so the caller can answer with a structured JSON error.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "bad_request", "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "bad_request", "request head too large") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise HttpError(400, "bad_request", "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad_request", f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    parsed = urllib.parse.urlsplit(target)
    query = dict(urllib.parse.parse_qsl(parsed.query))

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "bad_request", f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise HttpError(400, "bad_request", "invalid Content-Length") from exc
        if length < 0:
            raise HttpError(400, "bad_request", "invalid Content-Length")
        if length > max_body:
            # Drain (bounded) so the client finishes sending and reads
            # the structured 413 instead of hitting a broken pipe.
            remaining = min(length, 16 * max_body)
            while remaining > 0:
                chunk = await reader.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise HttpError(
                413, "payload_too_large", f"body exceeds {max_body} bytes"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "bad_request", "truncated request body") from exc
    return Request(
        method=method, path=parsed.path, query=query, headers=headers, body=body
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one complete ``Connection: close`` HTTP response."""
    reason = REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}; charset=utf-8",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, payload: Any, indent: int | None = 2) -> bytes:
    """A full response carrying ``payload`` as sorted-key UTF-8 JSON."""
    body = (
        json.dumps(payload, indent=indent, ensure_ascii=False, sort_keys=True)
        + "\n"
    ).encode("utf-8")
    return render_response(status, body)


def error_response(error: HttpError) -> bytes:
    """A full response for ``error``: its status, its JSON body, and a
    whole-second ``Retry-After`` header when it carries one."""
    extra: dict[str, str] = {}
    if error.retry_after is not None:
        # Retry-After is delta-seconds; round up so 0.2 doesn't say "now".
        extra["Retry-After"] = str(max(1, int(-(-error.retry_after // 1))))
    body = (
        json.dumps(error.to_dict(), indent=2, ensure_ascii=False, sort_keys=True)
        + "\n"
    ).encode("utf-8")
    return render_response(error.status, body, extra_headers=extra)
