"""Blocking JSON-lines client with retry-with-backoff.

:class:`ServeClient` speaks the protocol of :mod:`repro.serve.protocol`
over one TCP connection.  Connection establishment retries with
exponential backoff (servers restart; clients shouldn't crash), reads honour
a socket timeout (surfaced as a structured
:class:`~repro.serve.errors.ClientTimeout`), and a connection that drops
mid-request is re-dialled once before giving up — queries are idempotent,
so the retry is safe.
"""

from __future__ import annotations

import dataclasses
import socket
import time

from repro.core.params import QueryParams
from repro.serve.errors import ClientTimeout, Unavailable
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode


class ServeClient:
    """A synchronous client for one gateway address.

    Parameters
    ----------
    host / port:
        Server address.
    timeout:
        Socket timeout (seconds) for connects and reads.
    retries:
        Connection attempts beyond the first before raising
        :class:`Unavailable`.
    backoff / backoff_factor:
        First retry delay and its multiplier (exponential backoff).
    sleep:
        Injectable sleep (tests observe backoff without waiting).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._buffer = b""

    # -- connection ------------------------------------------------------------

    def connect(self) -> None:
        """Dial the server, retrying with exponential backoff."""
        if self._sock is not None:
            return
        delay = self.backoff
        last_error: OSError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(delay)
                delay *= self.backoff_factor
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._buffer = b""
                return
            except OSError as exc:
                last_error = exc
        raise Unavailable(
            f"cannot reach {self.host}:{self.port} after "
            f"{self.retries + 1} attempts: {last_error}"
        ) from last_error

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    # -- requests --------------------------------------------------------------

    def request(self, message: dict) -> dict:
        """Send one request object, return the decoded response object."""
        for attempt in (0, 1):
            self.connect()
            try:
                self._sock.sendall(encode(message))
                return decode_line(self._read_line())
            except socket.timeout:
                self.close()
                raise ClientTimeout(
                    f"no response from {self.host}:{self.port} within "
                    f"{self.timeout}s"
                ) from None
            except (ConnectionError, OSError) as exc:
                # Dropped mid-request: re-dial once, then give up.
                self.close()
                if attempt:
                    raise Unavailable(
                        f"connection to {self.host}:{self.port} failed: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                self.close()
                raise Unavailable("response line exceeds the protocol maximum")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    # -- ops -------------------------------------------------------------------

    def query(
        self,
        seq: str,
        params: QueryParams | dict | None = None,
        query_id: str = "query",
        deadline: float | None = None,
        top: int | None = None,
        allow_partial: bool = True,
        trace: bool = False,
    ) -> dict:
        """QUERY op; returns the raw response dict (check ``ok``).

        ``allow_partial=False`` asks the server to reject degraded
        (partial-coverage) answers with an ``{"error": "degraded"}``
        response instead of returning them.  ``trace=True`` asks for the
        request's span tree (``response["trace"]``) alongside the result.
        """
        if isinstance(params, QueryParams):
            params = dataclasses.asdict(params)
        message: dict = {"op": "query", "id": query_id, "seq": seq}
        if params:
            message["params"] = params
        if deadline is not None:
            message["deadline"] = deadline
        if top is not None:
            message["top"] = top
        if not allow_partial:
            message["allow_partial"] = False
        if trace:
            message["trace"] = True
        return self.request(message)

    def call(self, op: str, **fields) -> dict:
        """Any op of :data:`~repro.serve.protocol.OPS`: one request frame
        ``{"op": op, **fields}``, sent as given; returns the raw response
        dict (check ``ok``).  ``client.call("scrub", heal=False)``,
        ``client.call("explain", id="x1", seq="MKV...")``."""
        return self.request({"op": op, **fields})

    def __enter__(self) -> "ServeClient":
        self.connect()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
