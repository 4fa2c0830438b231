"""Length-prefixed wire protocol shared by server and clients.

Framing: a 4-byte big-endian unsigned length followed by that many
bytes of body.  The body encoding is a per-connection *codec*: JSON
(stdlib, always available, the default) or msgpack when the ``msgpack``
package happens to be installed on both ends.  The framing is
identical for every codec, so the choice is purely a handshake matter.

**Codec negotiation** — a connection starts in JSON.  A client that
wants another codec sends ``{"op": "hello", "codecs": [...]}`` as its
first frame, listing codecs in preference order.  The server picks the
first one it also supports (JSON is always supported, so negotiation
cannot fail), replies ``{"ok": true, "codec": "<picked>"}`` *in the
old codec*, and both sides switch for every subsequent frame.  A
client whose preferred codec is unavailable on either side degrades
transparently to JSON — no error, no retry.

**Batched frames** — ``{"op": "batch", "frames": [...]}`` carries
multiple requests in one frame (one syscall, one length prefix).
Every inner frame must carry an ``id`` (replies are per-inner-frame
and arrive individually, tagged by those ids, possibly out of order);
nested batches are rejected.  :class:`repro.client.link.PipelinedClient`
coalesces its send queue into batch frames automatically, which is how
the shard coordinator's same-shard PREPARE/COMMIT fan-out shares
round-trips.

Requests are objects with an ``op`` field (``begin``/``get``/``put``/
``scan``/``commit``/``abort``/``prepare``/``commit_prepared``/...);
responses carry ``ok: true`` plus a result payload, or ``ok: false``
plus ``error`` (exception class name), ``reason`` (abort
classification, see :data:`repro.errors.ABORT_REASONS`), ``message``,
and — when server-side tracing is enabled — an ``explanation`` object
from :meth:`repro.engine.database.Database.explain_abort`.

Two optional request fields change dispatch, not framing:

* ``id`` — any JSON value; opts the frame into pipelining.  The reply
  echoes it and may arrive out of order with other id-tagged replies on
  the same connection.  The server keeps at most ``max_inbox`` of them
  in flight per connection (backpressure by not reading the socket).
* ``txn`` — a coordinator-assigned global transaction id; the frame is
  routed to a server-wide session for that distributed transaction
  rather than the connection's own session.  ``begin`` creates it,
  ``commit``/``abort``/``commit_prepared`` (or any abort error)
  retire it.  ``prepare`` returns the shard's rw-antidependency
  summary (``{"in", "out", "in_partner", "out_partner"}``) — the
  PREPARE vote of the cross-shard SSI protocol.

Keys and values must be representable in the negotiated codec; that is
the wire format's restriction, not the engine's.  Both codecs carry a
tuple as an array, which decodes as a list; a key is hashable, so a list
in a key position always stood for a tuple and :func:`thaw_key` turns it
back (tuple keys, ``(lo, hi)`` bounds and recorded histories use it).
"""

from __future__ import annotations

import asyncio
import json
import struct
import socket
from typing import Any, Callable

__all__ = [
    "MAX_FRAME",
    "CODECS",
    "FrameError",
    "negotiate_codec",
    "encode_frame",
    "decode_frame",
    "read_frame_async",
    "read_frame_sock",
    "send_frame_sock",
    "thaw_key",
]

_HEADER = struct.Struct(">I")

#: refuse frames above 16 MiB — a corrupt header otherwise asks the
#: server to allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024


class FrameError(Exception):
    """Malformed frame (oversized, truncated, or invalid body)."""


def thaw_key(value: Any) -> Any:
    """A decoded key with every list turned back into the tuple it was
    sent as."""
    if isinstance(value, list):
        return tuple(thaw_key(item) for item in value)
    return value


def _json_dumps(message: dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def _json_loads(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"invalid frame body: {error}") from error


#: codec name -> (dumps, loads).  JSON is always present; msgpack joins
#: only when importable, so a container without it negotiates down to
#: JSON transparently.
CODECS: dict[str, tuple[Callable[[dict], bytes], Callable[[bytes], Any]]] = {
    "json": (_json_dumps, _json_loads),
}

try:  # pragma: no cover - exercised only where msgpack is installed
    import msgpack as _msgpack  # type: ignore[import-not-found]

    def _msgpack_loads(body: bytes) -> Any:
        try:
            return _msgpack.unpackb(body, strict_map_key=False)
        except Exception as error:  # msgpack raises a zoo of types
            raise FrameError(f"invalid frame body: {error}") from error

    CODECS["msgpack"] = (
        lambda message: _msgpack.packb(message, use_bin_type=True),
        _msgpack_loads,
    )
except ImportError:
    pass


def negotiate_codec(offered: Any) -> str:
    """Server side of the hello handshake: the first offered codec both
    sides support, else ``"json"`` (never fails)."""
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if isinstance(name, str) and name in CODECS:
                return name
    return "json"


def encode_frame(message: dict[str, Any], codec: str = "json") -> bytes:
    body = CODECS[codec][0](message)
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes, codec: str = "json") -> dict[str, Any]:
    message = CODECS[codec][1](body)
    if not isinstance(message, dict):
        raise FrameError("frame body must decode to an object")
    return message


async def read_frame_async(
    reader: asyncio.StreamReader, codec: str = "json"
) -> dict[str, Any] | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError("connection closed mid-frame") from error
    return decode_frame(body, codec)


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(sock: socket.socket, codec: str = "json") -> dict[str, Any] | None:
    """Blocking-socket twin of :func:`read_frame_async`."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = _recv_exactly(sock, length)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return decode_frame(body, codec)


def send_frame_sock(
    sock: socket.socket, message: dict[str, Any], codec: str = "json"
) -> None:
    sock.sendall(encode_frame(message, codec))
