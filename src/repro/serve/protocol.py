"""Wire protocol: length-prefixed JSON frames with optional payload.

Every message between load generator, gateway and server tasks is one
**frame**::

    +----------------+---------------------+------------------+
    | header length  | JSON header         | payload bytes    |
    | 4 bytes, BE    | UTF-8, no newlines  | header["payload"]|
    +----------------+---------------------+------------------+

The header is a flat JSON object whose ``"type"`` key names the
message; a header may declare ``"payload"`` (a byte count), in which
case exactly that many raw bytes follow.  Chunk frames use the payload
to carry (scaled-down) video data so the data plane moves real bytes;
control frames have no payload.

Message vocabulary (full field tables in docs/SERVING.md):

========== ============ ==========================================
direction  type         meaning
========== ============ ==========================================
C -> G     ``request``  admission request (``video``, virtual ``t``;
                        optional ``retry`` announces the k-th
                        reconnect attempt of a resilient client)
G -> C     ``admit``    accepted (``server``, ``size_mb``, rates)
G -> C     ``reject``   denied (``reason``)
G -> C     ``chunk``    paced data (``t``, ``server``, ``mb`` +payload)
G -> C     ``end``      session over (``reason``, ``delivered_mb``;
                        ``reason="dropped"``/``"finished"`` carry
                        ``t``, the exact virtual end time — a
                        resilient client anchors re-requests and
                        resolves pending chaos cuts on it)
========== ============ ==========================================

The codec is deliberately tiny and symmetric: :func:`encode_frame` is
the only writer, :func:`read_frame` the only reader, and both enforce
the same bounds so a malformed or hostile peer fails fast instead of
exhausting memory.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Awaitable, Dict, NamedTuple, Optional

#: Upper bound on the JSON header, far above any legitimate message —
#: a peer announcing more is treated as a framing error, not a reason
#: to allocate.
MAX_HEADER_BYTES = 1 << 20

#: Upper bound on a single frame's payload (scaled chunk data is a few
#: hundred bytes; one megabyte is already three orders above that).
MAX_PAYLOAD_BYTES = 1 << 20

_LEN = struct.Struct(">I")

#: ``asyncio.timeout`` (a timer handle, no Task); absent on Python 3.10.
_deadline = getattr(asyncio, "timeout", None)


class FrameError(ValueError):
    """Malformed frame on the wire (bad length, bad JSON, bad type)."""


class Frame(NamedTuple):
    """One decoded frame: the header dict plus its raw payload."""

    header: Dict[str, Any]
    payload: bytes

    @property
    def type(self) -> str:
        return str(self.header.get("type", ""))


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """Serialise one frame; ``header["payload"]`` is set automatically.

    Raises:
        FrameError: if the encoded header or payload exceeds the
            protocol bounds.
    """
    if payload:
        header = dict(header, payload=len(payload))
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_HEADER_BYTES:
        raise FrameError(f"header too large: {len(body)} bytes")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"payload too large: {len(payload)} bytes")
    return _LEN.pack(len(body)) + body + payload


async def _bounded(
    awaitable: Awaitable[Any], timeout: Optional[float]
) -> Any:
    """Await *awaitable*, raising ``TimeoutError`` after *timeout* seconds
    (``None``: never).

    The one deadline every frame read and every blocking drain goes
    through.  On Python >= 3.11 it is a timer handle
    (:func:`asyncio.timeout`), so a frame that is not late costs no
    Task; 3.10 falls back to :func:`asyncio.wait_for`.
    """
    if _deadline is None:  # Python 3.10
        return await asyncio.wait_for(awaitable, timeout)
    async with _deadline(timeout):
        return await awaitable


def drained(writer: asyncio.StreamWriter) -> bool:
    """True when ``writer.drain()`` provably returns at once.

    That is a plain :class:`asyncio.StreamWriter` on an open transport
    with nothing buffered: the kernel took every byte written so far.
    A wrapper (``ToxicWriter``) may stall inside its own ``drain`` and
    a closing transport raises there, so neither is ever "drained".
    """
    return (
        type(writer) is asyncio.StreamWriter
        and not writer.transport.is_closing()
        and not writer.transport.get_write_buffer_size()
    )


async def drain(
    writer: asyncio.StreamWriter, timeout: Optional[float]
) -> None:
    """Wait (at most *timeout* seconds) for *writer*'s buffer to flush;
    free — no timer, no Task, no yield — when it is already empty."""
    if not drained(writer):
        await _bounded(writer.drain(), timeout)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close *writer* and wait for its transport to go; a peer that
    already reset the connection is not an error."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - racy peer
        pass


async def read_frame(
    reader: asyncio.StreamReader, timeout: Optional[float] = None
) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Args:
        reader: the connection's stream reader.
        timeout: optional per-frame wall-clock bound, seconds.

    Raises:
        FrameError: on a malformed frame (oversized header, truncated
            body, undecodable JSON, or a non-object header).
        asyncio.TimeoutError: when *timeout* elapses mid-frame.
    """

    async def _read() -> Optional[Frame]:
        prefix = await reader.read(_LEN.size)
        if not prefix:
            return None  # clean EOF between frames
        while len(prefix) < _LEN.size:
            more = await reader.read(_LEN.size - len(prefix))
            if not more:
                raise FrameError("connection closed inside a length prefix")
            prefix += more
        (length,) = _LEN.unpack(prefix)
        if length > MAX_HEADER_BYTES:
            raise FrameError(f"declared header length {length} exceeds bound")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise FrameError(
                f"connection closed inside a frame body "
                f"({len(exc.partial)}/{length} bytes)"
            ) from None
        try:
            header = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError(f"undecodable frame header: {exc}") from None
        if not isinstance(header, dict):
            raise FrameError(
                f"frame header must be a JSON object, "
                f"got {type(header).__name__}"
            )
        payload = b""
        declared = header.get("payload", 0)
        if declared:
            if not isinstance(declared, int) or not (
                0 < declared <= MAX_PAYLOAD_BYTES
            ):
                raise FrameError(f"bad payload length {declared!r}")
            try:
                payload = await reader.readexactly(declared)
            except asyncio.IncompleteReadError:
                raise FrameError("connection closed inside a payload") from None
        return Frame(header, payload)

    return await _bounded(_read(), timeout)


async def write_frame(
    writer: asyncio.StreamWriter,
    header: Dict[str, Any],
    payload: bytes = b"",
    timeout: Optional[float] = None,
) -> None:
    """Encode and send one frame, draining the transport.

    Raises:
        asyncio.TimeoutError: when the drain exceeds *timeout* (the
            peer is not reading — backpressure surfaced as an error the
            caller's retry policy can bound).
        ConnectionError / OSError: transport failures, propagated.
    """
    writer.write(encode_frame(header, payload))
    await drain(writer, timeout)
