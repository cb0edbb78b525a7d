"""Asyncio TCP front end: JSON-lines requests bridged into the service.

:class:`QueryServer` accepts connections on an event loop and keeps every
connection handler non-blocking: QUERY work is submitted to the
:class:`~repro.serve.service.QueryService` thread pool and awaited through
``asyncio.wrap_future``, so slow searches never stall other connections —
the event loop only shuttles lines and futures.

For synchronous callers (tests, examples, the CLI client side) ,
:class:`BackgroundServer` runs the whole loop on a daemon thread and exposes
the bound address once the socket is listening.
"""

from __future__ import annotations

import asyncio
import math
import threading

from repro.serve.errors import DeadlineExceeded, InvalidRequest, ServeError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode,
    params_from_dict,
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
            op = message.get("op")
            if op == "query":
                return await self._op_query(message, request_id)
            if op == "explain":
                return await self._op_explain(message, request_id)
            if op == "stats":
                return {"id": request_id, "ok": True, "stats": self.service.snapshot()}
            if op == "health":
                return {"id": request_id, "ok": True, **self.service.health()}
            if op == "alerts":
                return {"id": request_id, "ok": True, **self.service.alerts()}
            if op == "analyze":
                return {"id": request_id, "ok": True, **self.service.analyze()}
            if op == "scale":
                return {
                    "id": request_id, "ok": True,
                    **self.service.scale_status(),
                }
            if op == "profile":
                return self._op_profile(message, request_id)
            if op == "scrub":
                return await self._op_scrub(message, request_id)
            if op == "recover":
                return await self._op_recover(message, request_id)
            if op == "metrics":
                return {
                    "id": request_id,
                    "ok": True,
                    "content_type": "text/plain; version=0.0.4",
                    "metrics": self.service.metrics_text(),
                }
            raise InvalidRequest(f"unknown op {op!r}")
        except ServeError as exc:
            return {"id": request_id, "ok": False, **exc.to_dict()}
        except Exception as exc:  # never crash a connection on a bad request
            return {
                "id": request_id,
                "ok": False,
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }

    async def _op_query(self, message: dict, request_id) -> dict:
        seq = message.get("seq")
        if not isinstance(seq, str) or not seq:
            raise InvalidRequest("query needs a non-empty string 'seq'")
        params = params_from_dict(message.get("params"))
        deadline = _positive_number(message, "deadline")
        top = message.get("top")
        if top is not None and (
            isinstance(top, bool) or not isinstance(top, int) or top < 0
        ):
            raise InvalidRequest(
                f"top must be a non-negative integer, got {top!r}"
            )
        allow_partial = message.get("allow_partial", True)
        if not isinstance(allow_partial, bool):
            raise InvalidRequest(
                f"allow_partial must be a boolean, got {allow_partial!r}"
            )
        want_trace = message.get("trace", False)
        if not isinstance(want_trace, bool):
            raise InvalidRequest(
                f"trace must be a boolean, got {want_trace!r}"
            )
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
        response = {
            "id": request_id,
            "ok": True,
            "cached": result.cached,
            "trace_id": result.trace_id,
            **report_to_dict(result.report, top=top),
        }
        if want_trace and result.report.root_span is not None:
            response["trace"] = result.report.root_span.to_dict()
        return response

    def _op_profile(self, message: dict, request_id) -> dict:
        action = message.get("action", "snapshot")
        if not isinstance(action, str):
            raise InvalidRequest(f"action must be a string, got {action!r}")
        hz = _positive_number(message, "hz")
        snap = self.service.profile(action=action, hz=hz)
        return {"id": request_id, "ok": True, "profile": snap}

    async def _op_scrub(self, message: dict, request_id) -> dict:
        heal = message.get("heal", True)
        if not isinstance(heal, bool):
            raise InvalidRequest(f"heal must be a boolean, got {heal!r}")
        # Scrub walks every replica copy — run it off the event loop so
        # concurrent queries keep flowing while digests are verified.
        report = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.service.scrub(heal=heal)
        )
        return {"id": request_id, "ok": True, **report}

    async def _op_recover(self, message: dict, request_id) -> dict:
        node = message.get("node")
        if node is not None and not isinstance(node, str):
            raise InvalidRequest(f"node must be a string, got {node!r}")
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.service.recover(node_id=node)
            )
        except KeyError as exc:
            raise InvalidRequest(f"unknown node {node!r}") from exc
        return {"id": request_id, "ok": True, **outcome}

    async def _op_explain(self, message: dict, request_id) -> dict:
        seq = message.get("seq")
        if not isinstance(seq, str) or not seq:
            raise InvalidRequest("explain needs a non-empty string 'seq'")
        params = params_from_dict(message.get("params"))
        future = self.service.submit_explain(
            seq,
            params,
            query_id=str(request_id) if request_id is not None else "explain",
        )
        plan = await asyncio.wrap_future(future)
        return {
            "id": request_id,
            "ok": True,
            "plan": plan.to_dict(),
            "rendered": plan.render(),
        }


def _positive_number(message: dict, name: str) -> float | None:
    """The value of *name* in *message*: absent or null, else a positive
    finite JSON number (a JSON boolean is not a number)."""
    value = message.get(name)
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value < math.inf
    ):
        raise InvalidRequest(
            f"{name} must be a positive number, got {value!r}"
        )
    return value


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
