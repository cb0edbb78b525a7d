"""Asyncio TCP front end: JSON-lines requests bridged into the service.

:class:`QueryServer` accepts connections on an event loop and keeps every
connection handler non-blocking.  Each line is checked against the op table
by :func:`~repro.serve.protocol.parse_request` and handed to its op's
handler.  QUERY, EXPLAIN, SCRUB, RECOVER and SCALE touch the index: they
run on the :class:`~repro.serve.service.QueryService`'s one engine worker,
one at a time in arrival order, and are awaited through
``asyncio.wrap_future``, so slow searches never stall other connections.
The read verbs (STATS, HEALTH, METRICS, ALERTS, ANALYZE, PROFILE) answer on
the event loop; STATS, HEALTH and ALERTS also queue a due autoscaler tick
on the engine worker, and do not wait for it.

For synchronous callers (tests, examples, the CLI client side),
:class:`BackgroundServer` runs the whole loop on a daemon thread and exposes
the bound address once the socket is listening.
"""

from __future__ import annotations

import asyncio
import inspect
import threading

from repro.serve.errors import DeadlineExceeded, InvalidRequest, ServeError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode,
    parse_request,
    report_to_dict,
)
from repro.serve.service import QueryService

#: Wall-clock slack past a request's deadline before the server gives up on
#: the in-flight future itself (the service usually resolves the structured
#: timeout first; this is the backstop for stuck compute).
_DEADLINE_GRACE = 0.25


class QueryServer:
    """One listening socket bridging the wire protocol into a service."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: op -> handler(request_id, **checked fields) -> the reply body, or
        #: an awaitable of it for the ops that run on the engine worker
        self._handlers = {
            "query": self._query,
            "explain": self._explain,
            "stats": lambda _id: {"stats": service.snapshot()},
            "health": lambda _id: service.health(),
            "metrics": lambda _id: {
                "content_type": "text/plain; version=0.0.4",
                "metrics": service.metrics_text(),
            },
            "alerts": lambda _id: service.alerts(),
            "scrub": lambda _id, heal: self._on_engine(service.scrub, heal=heal),
            "recover": self._recover,
            "scale": lambda _id: self._on_engine(service.scale_status),
            "analyze": lambda _id: service.analyze(),
            "profile": lambda _id, action, hz: {
                "profile": service.profile(action=action, hz=hz)
            },
        }

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is the real bound port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                while True:
                    try:
                        line = await reader.readline()
                    except (asyncio.LimitOverrunError, ValueError):
                        writer.write(
                            encode(
                                {
                                    "ok": False,
                                    **InvalidRequest(
                                        "request line too long"
                                    ).to_dict(),
                                }
                            )
                        )
                        await writer.drain()
                        break
                    if not line:
                        break
                    response = await self._dispatch(line)
                    writer.write(encode(response))
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
        except asyncio.CancelledError:
            # Event-loop teardown cancelled this connection mid-await; the
            # transport dies with the loop — exit without re-raising so the
            # streams machinery doesn't log a spurious traceback.
            writer.close()

    async def _dispatch(self, line: bytes) -> dict:
        request_id = None
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op, fields = parse_request(message)
            body = self._handlers[op](request_id, **fields)
            if inspect.isawaitable(body):
                body = await body
            return {"id": request_id, "ok": True, **body}
        except ServeError as exc:
            return {"id": request_id, "ok": False, **exc.to_dict()}
        except Exception as exc:  # never crash a connection on a bad request
            return {
                "id": request_id,
                "ok": False,
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }

    # -- ops that run on the engine worker -------------------------------------

    def _on_engine(self, verb, **kwargs) -> asyncio.Future:
        return asyncio.wrap_future(self.service.on_engine(verb, **kwargs))

    async def _query(self, request_id, seq, params, deadline, top,
                     allow_partial, trace) -> dict:
        future = self.service.submit_text(
            seq,
            params,
            query_id=str(request_id) if request_id is not None else "query",
            deadline=deadline,
            allow_partial=allow_partial,
        )
        timeout = (deadline + _DEADLINE_GRACE) if deadline is not None else None
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            self.service.stats.inc("timeouts")
            raise DeadlineExceeded(
                f"no result within the {deadline}s deadline"
            ) from None
        body = {
            "cached": result.cached,
            "trace_id": result.trace_id,
            **report_to_dict(result.report, top=top),
        }
        if trace and result.report.root_span is not None:
            body["trace"] = result.report.root_span.to_dict()
        return body

    async def _explain(self, request_id, seq, params) -> dict:
        future = self.service.submit_explain(
            seq,
            params,
            query_id=str(request_id) if request_id is not None else "explain",
        )
        plan = await asyncio.wrap_future(future)
        return {"plan": plan.to_dict(), "rendered": plan.render()}

    async def _recover(self, _request_id, node) -> dict:
        try:
            return await self._on_engine(self.service.recover, node_id=node)
        except KeyError as exc:
            raise InvalidRequest(f"unknown node {node!r}") from exc


class BackgroundServer:
    """Run a :class:`QueryServer` on a daemon thread (for sync callers).

    Context-manager use::

        with BackgroundServer(service) as server:
            client = ServeClient(server.host, server.port)
            ...

    The ``with`` body runs only after the socket is listening; exit stops
    the loop and joins the thread.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = QueryServer(service, host=host, port=port)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-server", daemon=True
        )
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("server failed to start within the timeout")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self._server.stop()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
