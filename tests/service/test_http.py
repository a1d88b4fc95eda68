"""Unit tests for the minimal HTTP layer and body decoding."""

import asyncio
import base64
import json

import pytest

from repro.service.http import (
    HttpError,
    error_response,
    json_response,
    read_request,
    render_response,
)
from repro.service.server import decode_certificate_body

from .conftest import build_cert


def parse(raw: bytes, max_body: int = 1024 * 1024):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(scenario())


class TestRequestParsing:
    def test_get_with_query(self):
        request = parse(b"GET /metrics?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/metrics"
        assert request.query == {"verbose": "1"}
        assert request.headers["host"] == "x"

    def test_post_with_body(self):
        request = parse(
            b"POST /lint HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert request.method == "POST"
        assert request.body == b"hello"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head_raises(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET /x HTTP/1.1\r\n")
        assert excinfo.value.status == 400

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            parse(b"NONSENSE\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpError):
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"A" * 100,
                max_body=10,
            )
        assert excinfo.value.status == 413


class TestResponses:
    def test_render_shape(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert b"Connection: close" in head
        assert body == b'{"ok": true}'

    def test_json_response_sorted_and_newline_terminated(self):
        raw = json_response(200, {"b": 1, "a": 2})
        body = raw.partition(b"\r\n\r\n")[2]
        assert body.endswith(b"\n")
        assert json.loads(body) == {"a": 2, "b": 1}

    def test_error_response_carries_retry_after(self):
        raw = error_response(
            HttpError(429, "queue_full", "full", retry_after=0.25)
        )
        head = raw.partition(b"\r\n\r\n")[0]
        assert b"HTTP/1.1 429" in head
        assert b"Retry-After: 1" in head  # rounded up, never "0"


class TestBodyDecoding:
    def test_pem_der_b64_all_normalize_to_same_der(self):
        cert = build_cert("decode.example.com", serial=4242)
        der = cert.to_der()
        from repro.x509.pem import encode_pem

        pem = encode_pem(der).encode()
        assert decode_certificate_body(der) == der
        assert decode_certificate_body(pem) == der
        assert decode_certificate_body(base64.b64encode(der)) == der
        assert decode_certificate_body(base64.b64encode(pem)) == der

    def test_b64_with_whitespace(self):
        cert = build_cert("ws.example.com", serial=4243)
        der = cert.to_der()
        blob = base64.b64encode(der)
        wrapped = b"\n".join(blob[i : i + 40] for i in range(0, len(blob), 40))
        assert decode_certificate_body(wrapped) == der

    def test_garbage_raises_400(self):
        with pytest.raises(HttpError) as excinfo:
            decode_certificate_body(b"\xffgarbage!!")
        assert excinfo.value.status == 400

    def test_empty_raises(self):
        with pytest.raises(HttpError):
            decode_certificate_body(b"   ")
