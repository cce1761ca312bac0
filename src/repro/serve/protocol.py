"""The daemon's wire format: length-prefixed JSON frames over TCP.

A frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding one object.  The format is deliberately
dumb — no versioning dance, no streaming bodies — because every
artifact of real size lives in the content-addressed cache; frames
carry requests, summaries, and program output only.

Both ends enforce a frame-size ceiling (:data:`MAX_FRAME`): an encoder
refuses to build an oversized frame, and a decoder that reads an
oversized header raises :class:`FrameTooLarge` *before* buffering the
body, so a hostile or confused peer cannot balloon the daemon's
memory.  A connection that dies mid-frame surfaces as
:class:`TruncatedFrame` — never as a half-parsed request.

Two codecs share the format: asyncio stream functions for the server
(:func:`read_frame` / :func:`write_frame`) and blocking-socket
functions for the client and load generator (:func:`recv_frame` /
:func:`send_frame`).

Requests are ``{"id": n, "op": name, ...params}``; responses echo the
id and carry either ``"ok": true`` with a ``result`` (plus ``cached``
/ ``coalesced`` provenance flags), ``"ok": false`` with an ``error``
object, or ``"ok": false`` with a ``retry_after`` hint — the
backpressure reply a well-behaved client sleeps on.

Requests may additionally carry a ``request_id`` — an opaque string
the client mints (``<trace_id>:<n>``) for end-to-end trace
correlation.  It is *not* a content field: two requests for the same
job with different request ids still coalesce and share one cache
entry; the id only tags the spans each side records, so a merged
multi-process trace can answer "where did request X spend its time?".

Job requests may also carry a ``tenant`` string (default ``"anon"``).
Like ``request_id`` it is accounting context, never content: two
tenants requesting the same job share one cache entry and one flight.
The fleet router reads it for quota admission and weighted fair
queueing; daemons count per-tenant completions in labeled registry
series that the router aggregates fleet-wide.
"""

from __future__ import annotations

import asyncio
import json
import socket

#: Frame-size ceiling (header + body), shared by both directions.
MAX_FRAME = 8 * 1024 * 1024

_HEADER_LEN = 4

#: Request types the daemon understands.  ``compile``/``link``/``run``/
#: ``explain`` are content-addressed jobs; ``status``, ``metrics``, and
#: ``shutdown`` are served inline by the event loop.
JOB_OPS = ("compile", "link", "run", "explain")
ADMIN_OPS = ("status", "metrics", "shutdown")
#: Extra admin ops only the fleet router answers: ``route`` maps a
#: job's op (its ``job`` field) and content fields to the daemon that
#: owns them and to the two ring candidates the job is sent to.
ROUTER_OPS = ("route",)
OPS = JOB_OPS + ADMIN_OPS


class ProtocolError(Exception):
    """The byte stream does not decode as a protocol frame."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded the size ceiling (refused, not buffered)."""


class TruncatedFrame(ProtocolError):
    """The connection closed mid-frame."""


# -- framing -------------------------------------------------------------------


def encode_frame(obj, *, max_frame: int = MAX_FRAME) -> bytes:
    """One wire frame for a JSON-serializable object."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    if _HEADER_LEN + len(body) > max_frame:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte ceiling"
        )
    return len(body).to_bytes(_HEADER_LEN, "big") + body


def decode_body(body: bytes) -> dict:
    """The JSON object inside a frame body."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame body is {type(obj).__name__}, not an object")
    return obj


def _body_length(header: bytes, max_frame: int) -> int:
    length = int.from_bytes(header, "big")
    if _HEADER_LEN + length > max_frame:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame; ceiling is {max_frame} bytes"
        )
    return length


# -- asyncio codec (server side) -----------------------------------------------


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME
) -> dict | None:
    """One decoded frame, or None on a clean EOF at a frame boundary."""
    body = await read_raw_frame(reader, max_frame=max_frame)
    if body is None:
        return None
    return decode_body(body)


async def read_raw_frame(
    reader: asyncio.StreamReader, *, max_frame: int = MAX_FRAME
) -> bytes | None:
    """One frame *body*, undecoded, or None on a clean EOF.

    The fleet router reads frames this way so it can relay a request or
    response verbatim — decoding a private copy for routing decisions
    but never re-encoding the bytes it forwards (the frame ``id`` is
    preserved end-to-end, so a response body needs no rewriting)."""
    try:
        header = await reader.readexactly(_HEADER_LEN)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrame("connection closed inside a frame header") from None
    length = _body_length(header, max_frame)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise TruncatedFrame(
            f"connection closed {length}-byte body short"
        ) from None
    return body


def frame_bytes(body: bytes) -> bytes:
    """The wire frame for an already-encoded body."""
    return len(body).to_bytes(_HEADER_LEN, "big") + body


async def write_frame(
    writer: asyncio.StreamWriter, obj, *, max_frame: int = MAX_FRAME
) -> None:
    writer.write(encode_frame(obj, max_frame=max_frame))
    await writer.drain()


# -- blocking-socket codec (client side) ---------------------------------------


def _recv_exactly(sock: socket.socket, n: int, *, eof_ok: bool = False) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and not chunks:
                return b""
            raise TruncatedFrame(
                f"connection closed after {n - remaining} of {n} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, *, max_frame: int = MAX_FRAME) -> dict | None:
    """One decoded frame, or None on a clean EOF at a frame boundary."""
    header = _recv_exactly(sock, _HEADER_LEN, eof_ok=True)
    if not header:
        return None
    body = _recv_exactly(sock, _body_length(header, max_frame))
    return decode_body(body)


def send_frame(sock: socket.socket, obj, *, max_frame: int = MAX_FRAME) -> None:
    sock.sendall(encode_frame(obj, max_frame=max_frame))


# -- message shapes ------------------------------------------------------------


def request(op: str, frame_id: int, **params) -> dict:
    """A request frame.  ``frame_id`` is the per-connection wire id the
    response echoes; an end-to-end correlation ``request_id`` (if any)
    travels in ``params``."""
    return {"id": frame_id, "op": op, **params}


def ok_response(
    request_id, result, *, cached: bool = False, coalesced: bool = False
) -> dict:
    return {
        "id": request_id,
        "ok": True,
        "result": result,
        "cached": cached,
        "coalesced": coalesced,
    }


def error_response(request_id, kind: str, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": {"kind": kind, "message": message}}


def busy_response(request_id, retry_after: float, *, reason: str | None = None) -> dict:
    """The backpressure reply.  ``reason`` (optional) tells the client
    *which* limiter answered — ``"quota"`` for a tenant-quota rejection,
    ``"upstream"`` for a fleet backend that died mid-request — so load
    generators can account rejections separately from overload."""
    response = {"id": request_id, "ok": False, "retry_after": retry_after}
    if reason is not None:
        response["reason"] = reason
    return response
