"""The gateway's ops endpoint: live telemetry over a second listener.

Operational queries ride the same length-prefixed frame protocol as the
data plane (:mod:`repro.serve.protocol`) but on a **separate TCP port**,
so scraping stats can never contend with the admission handshake path
and an overloaded data listener stays diagnosable.  One frame in, one
frame out, connection per query — the endpoint is stateless.

Verb vocabulary (client sends ``{"type": "ops", "verb": <verb>}``):

=============== ====================================================
verb            reply
=============== ====================================================
``health``      ``ops.reply`` — the telemetry snapshot
                (:func:`repro.serve.telemetry.snapshot`; the same dict a
                ``serve.stats`` trace record carries)
``stats``       ``ops.reply`` — that snapshot plus the metrics registry
``sessions``    ``ops.reply`` — live session rows + recent spans
``prometheus``  ``ops.reply`` with the text exposition as *payload*
``chaos``       ``ops.reply`` — live fault-plane report (failures,
                restores, supervisor trips); ``ops.error`` when no
                chaos plane is armed
=============== ====================================================

Unknown or malformed queries get ``{"type": "ops.error", "reason": ...}``
— never a dropped connection, so a probe can distinguish "endpoint
down" from "bad query".

Client side: :func:`ops_query` (async) and :func:`ops_query_sync` (for
the CLI and shell one-liners) speak the same frames.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.obs.prometheus import render_prometheus
from repro.serve import telemetry
from repro.serve.protocol import (
    FrameError,
    close_writer,
    read_frame,
    write_frame,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.gateway import ClusterGateway

#: Verbs the endpoint answers; kept in sync with docs/SERVING.md.
OPS_VERBS = ("stats", "health", "sessions", "prometheus", "chaos")

#: Wall-clock bound on one ops exchange (read query, write reply).
_OPS_TIMEOUT = 5.0


class OpsEndpoint:
    """The second listener; answers ``ops`` frames about *gateway*.

    Replies are computed synchronously on the event loop, so every
    answer is a consistent point-in-time view: no session can open,
    close or migrate between two fields of one reply.
    """

    def __init__(self, gateway: "ClusterGateway") -> None:
        self.gateway = gateway
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound ops TCP port."""
        assert self._server is not None, "ops endpoint not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        serve = self.gateway.serve
        assert serve.ops_port is not None
        self._server = await asyncio.start_server(
            self._handle, host=serve.host, port=serve.ops_port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                frame = await read_frame(reader, timeout=_OPS_TIMEOUT)
            except (FrameError, asyncio.TimeoutError, ConnectionError,
                    OSError):
                return
            if frame is None:
                return
            header, payload = self._answer(frame.header)
            try:
                await write_frame(
                    writer, header, payload, timeout=_OPS_TIMEOUT
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass  # the prober hung up; nothing to tell it
        finally:
            await close_writer(writer)

    def _answer(self, query: Dict[str, Any]) -> tuple:
        """One query -> (reply header, reply payload).  Never raises."""
        gw, verb = self.gateway, query.get("verb")
        error = None
        if query.get("type") != "ops":
            error = f"unknown frame type {query.get('type')!r}; expected 'ops'"
        elif verb not in OPS_VERBS:
            error = (f"unknown verb {verb!r}; "
                     f"expected one of {', '.join(OPS_VERBS)}")
        elif verb == "chaos" and gw.chaos is None:
            error = "no chaos plane armed on this gateway"
        if error is not None:
            return {"type": "ops.error", "reason": error}, b""
        reply: Dict[str, Any] = {"type": "ops.reply", "verb": verb}
        if verb == "prometheus":
            # The exposition format is line-oriented text, not JSON —
            # ship it as the frame payload so scrapers get it raw.
            reply["content_type"] = "text/plain; version=0.0.4"
            return reply, render_prometheus(gw.registry).encode("utf-8")
        if verb == "health":
            reply[verb] = telemetry.snapshot(gw)
        elif verb == "stats":
            reply[verb] = dict(
                telemetry.snapshot(gw), metrics=gw.registry.snapshot()
            )
        elif verb == "chaos":
            reply[verb] = gw.chaos.report()
        else:
            recent = query.get("recent", 20)
            if not isinstance(recent, int) or recent < 0:
                recent = 20
            reply[verb] = telemetry.session_table(gw, recent)
        return reply, b""


async def ops_query(
    host: str,
    port: int,
    verb: str,
    timeout: float = _OPS_TIMEOUT,
    **fields: Any,
) -> Dict[str, Any]:
    """Ask a running gateway's ops endpoint one question.

    Args:
        host, port: the ops listener (``gateway.ops_port``, or the
            banner line ``repro serve`` prints).
        verb: one of :data:`OPS_VERBS`.
        timeout: wall bound on connect + exchange.
        **fields: extra query fields (e.g. ``recent=50`` for
            ``sessions``).

    Returns:
        The reply header; for ``prometheus`` the exposition text is
        under ``"text"``.

    Raises:
        ConnectionError: endpoint unreachable or connection dropped.
        ValueError: the endpoint answered ``ops.error``.
        asyncio.TimeoutError: the exchange exceeded *timeout*.
    """

    async def _exchange() -> Dict[str, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(
                writer, {"type": "ops", "verb": verb, **fields}
            )
            frame = await read_frame(reader)
        finally:
            await close_writer(writer)
        if frame is None:
            raise ConnectionError(
                f"ops endpoint {host}:{port} closed without replying"
            )
        if frame.type == "ops.error":
            raise ValueError(
                f"ops endpoint rejected the query: "
                f"{frame.header.get('reason', '?')}"
            )
        reply = dict(frame.header)
        if frame.payload:
            reply["text"] = frame.payload.decode("utf-8")
        return reply

    return await asyncio.wait_for(_exchange(), timeout)


def ops_query_sync(
    host: str,
    port: int,
    verb: str,
    timeout: float = _OPS_TIMEOUT,
    **fields: Any,
) -> Dict[str, Any]:
    """Blocking wrapper around :func:`ops_query` (CLI entry point)."""
    return asyncio.run(ops_query(host, port, verb, timeout, **fields))


def format_reply(reply: Dict[str, Any]) -> str:
    """Render an ops reply for a terminal: JSON, or raw exposition."""
    if "text" in reply:
        return reply["text"]
    body = {
        k: v for k, v in reply.items() if k not in ("type", "verb", "payload")
    }
    return json.dumps(body, indent=2, sort_keys=True)
