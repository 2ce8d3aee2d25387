"""Asyncio HTTP front end over the :class:`ValidationService` verbs.

The paper's Sec. 4 story is many concurrent modelers getting feedback as
they edit; :class:`~repro.server.service.ValidationService` is that loop
in-process, and :class:`WireServer` makes it literal — remote modelers
speak a small JSON protocol (:mod:`repro.server.protocol`) over HTTP/1.1
(keep-alive, stdlib only, no framework dependency):

* ``POST /v1/open|edit|report|close`` — the four service verbs;
* ``POST /v1/check`` — warm complete (bounded) satisfiability of one
  session's schema, with a decoded witness population on ``"sat"``.
  Verdicts are ``"sat"``/``"unsat"`` *within the swept bound*, or
  ``"unknown"`` when the solver's decision budget ran out at some size
  without a later size answering SAT (``inconclusive_sizes`` lists the
  unresolved ones — a budget statement, not a schema property);
* ``POST /v1/drain`` — the service tick, also run periodically by the
  server's own background drain task (``drain_interval``);
* ``POST /v1/resize`` — grow/shrink the worker pool at runtime with
  rendezvous-scoped live migration (multi-process deployments only; the
  in-process backend answers the typed ``not_resizable``);
* ``GET /healthz`` — liveness plus the service census.

**Backends.**  The HTTP layer does not touch the service directly; it
drives a *backend* — payload-dict in, response-dict out, one method per
wire verb:

* :class:`LocalBackend` executes the verbs against an in-process
  :class:`ValidationService` (the default, and what every worker
  subprocess runs internally);
* :class:`repro.server.workers.WorkerPool` (``workers=N``) routes each
  session to one of N worker **processes** by stable session-name hash
  and forwards the same payloads over a pipe transport — the sharded
  scale-out past the single-process GIL.

**Threading model.**  The service API was shaped so this layer needs no
new locking: every request handler is a plain blocking call into the
backend (per-session locks serialize edits with drains), bridged off the
event loop with :meth:`loop.run_in_executor`.  The event loop itself only
parses HTTP and JSON.  The background drain task runs the backend's tick
on an executor thread as well: in-process the drain runs on that thread,
one session lock at a time; behind a router it runs in the worker
processes.  Either way a slow drain never blocks request handling.

**Auth.**  With ``token`` set, every ``/v1/*`` request must carry
``Authorization: Bearer <token>`` (compared constant-time); failures get
the structured ``unauthorized`` 401.  ``GET /healthz`` stays open for
liveness probes.  The CLI refuses to bind beyond loopback without a token
(see ``orm-validate serve --token`` / ``ORM_VALIDATE_TOKEN``).

**Failure shape.**  Every error a client can provoke — malformed JSON,
unknown session, edit after close, a request racing server shutdown, a
killed worker process — is returned as a structured
``{"ok": false, "error": {...}}`` body with a matching HTTP status
(:data:`repro.server.protocol.HTTP_STATUS`); the server never answers
with a traceback body and never leaves a request hanging.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import threading
from typing import Any, Protocol

from repro.exceptions import ReproError, UnknownElementError
from repro.io.dsl import parse_schema
from repro.server import protocol
from repro.server.protocol import (
    INTERNAL_ERROR,
    MALFORMED_REQUEST,
    METHOD_NOT_ALLOWED,
    NOT_RESIZABLE,
    SCHEMA_ERROR,
    SERVER_SHUTDOWN,
    SESSION_EXISTS,
    UNAUTHORIZED,
    UNKNOWN_ENDPOINT,
    UNKNOWN_GOAL,
    UNKNOWN_SESSION,
    UNKNOWN_VERB,
    WIRE_VERSION,
    CheckRequest,
    DrainRequest,
    EditRequest,
    OpenRequest,
    ReportRequest,
    Payload,
    ResizeRequest,
    SessionRequest,
    WireError,
)
from repro.server.service import ValidationService

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body (a schema DSL ships in one open call).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest unauthorized request body still drained before answering 401
#: (so the response survives instead of being RST away with the unread
#: data); beyond it the connection is simply closed.
AUTH_REJECT_DRAIN_BYTES = 64 * 1024

#: The wire verbs, in the order the endpoints document them.  Adding one
#: means touching every table the contract gate holds in parity: the
#: LocalBackend dispatch below, the worker pipe tables in ``workers.py``,
#: and the ``WIRE_VERSION`` baseline (see ``repro.devtools.contract``).
WIRE_VERBS = ("open", "edit", "report", "check", "close", "drain", "resize")


class Backend(Protocol):
    """What :class:`WireServer` needs from a backend: payload-dict in,
    response-dict out, one call per wire verb, plus the census and
    lifecycle hooks.  :class:`LocalBackend` and
    :class:`repro.server.workers.WorkerPool` both satisfy it structurally.
    """

    def handle(self, verb: str, payload: Payload) -> Payload: ...

    def health_payload(self) -> Payload: ...

    def tick(self) -> None: ...

    def shutdown(self) -> None: ...


class LocalBackend:
    """In-process execution of the wire verbs over one ValidationService.

    The surface is deliberately *payload-shaped*: :meth:`handle` takes the
    decoded JSON request body of one verb and returns the JSON response
    body, raising :class:`WireError` for every structured failure.  That
    is what lets one implementation serve two deployments — the
    single-process :class:`WireServer` calls it directly on its executor,
    and every :mod:`repro.server.workers` worker subprocess runs one over
    its own service, the router forwarding the identical payloads over a
    pipe.
    """

    def __init__(self, service: ValidationService) -> None:
        self._service = service

    @property
    def service(self) -> ValidationService:
        """The service this backend executes against."""
        return self._service

    # -- the backend surface WireServer drives ---------------------------

    def handle(self, verb: str, payload: Payload) -> Payload:
        """Execute one wire verb; structured failures raise WireError."""
        handler = {
            "open": self._open,
            "edit": self._edit,
            "report": self._report,
            "check": self._check,
            "close": self._close,
            "drain": self._drain,
            "resize": self._resize,
        }.get(verb)
        if handler is None:
            raise WireError(UNKNOWN_VERB, f"no such wire verb: {verb!r}")
        return handler(payload)

    def health_payload(self) -> Payload:
        """The backend part of the ``/healthz`` body (the service census)."""
        return {"stats": protocol.stats_to_payload(self._service.stats())}

    def tick(self) -> None:
        """One background drain pass (the periodic service tick)."""
        self._service.drain()

    def shutdown(self) -> None:
        """Nothing to stop: the service owns no threads or processes."""

    # -- verb handlers (blocking) -----------------------------------------

    def _open(self, payload: Payload) -> Payload:
        request = OpenRequest.from_payload(payload)
        settings = None
        if request.settings is not None:
            settings = protocol.settings_from_payload(request.settings)
        schema = None
        if request.schema_dsl is not None:
            try:
                schema = parse_schema(request.schema_dsl)
            except ReproError as error:
                raise WireError(SCHEMA_ERROR, f"schema_dsl: {error}") from None
        try:
            handle = self._service.open(request.session, settings=settings, schema=schema)
        except ValueError as error:
            raise WireError(SESSION_EXISTS, str(error)) from None
        return {
            "ok": True,
            "session": handle.name,
            "pending": handle.pending_changes,
        }

    def _edit(self, payload: Payload) -> Payload:
        request = EditRequest.from_payload(payload)
        args = [tuple(a) if isinstance(a, list) else a for a in request.args]
        kwargs = {
            key: tuple(v) if isinstance(v, list) else v
            for key, v in request.kwargs.items()
        }
        try:
            result = self._service.edit(request.session, request.verb, *args, **kwargs)
        except UnknownElementError as error:
            raise _session_or_verb_error(error) from None
        except (TypeError, ReproError) as error:
            # Bad arguments or a schema-level rejection: the edit did not apply.
            raise WireError(SCHEMA_ERROR, str(error)) from None
        return {"ok": True, "result": protocol.edit_result_to_payload(result)}

    def _report(self, payload: Payload) -> Payload:
        request = ReportRequest.from_payload(payload)
        try:
            report, mark = self._service.report_marked(
                request.session, request.if_mark
            )
        except UnknownElementError as error:
            raise _session_or_verb_error(error) from None
        if report is None:  # ETag hit: nothing changed since if_mark
            return {"ok": True, "unchanged": True, "mark": mark}
        return {
            "ok": True,
            "report": protocol.report_to_payload(report),
            "mark": mark,
        }

    def _check(self, payload: Payload) -> Payload:
        request = CheckRequest.from_payload(payload)
        try:
            verdict = self._service.check(
                request.session, request.goal, max_domain=request.max_domain
            )
        except UnknownElementError as error:
            if error.kind == "session":
                raise WireError(UNKNOWN_SESSION, str(error)) from None
            # The goal named a role/type the schema does not have.
            raise WireError(UNKNOWN_GOAL, str(error)) from None
        except ValueError as error:
            # Unknown goal string or goal kind.
            raise WireError(UNKNOWN_GOAL, str(error)) from None
        except ReproError as error:
            raise WireError(SCHEMA_ERROR, str(error)) from None
        return {"ok": True, "check": protocol.verdict_to_payload(verdict)}

    def _close(self, payload: Payload) -> Payload:
        request = SessionRequest.from_payload(payload)
        try:
            report = self._service.close(request.session)
        except UnknownElementError as error:
            raise _session_or_verb_error(error) from None
        return {"ok": True, "report": protocol.report_to_payload(report)}

    def _drain(self, payload: Payload) -> Payload:
        request = DrainRequest.from_payload(payload)
        try:
            stats = self._service.drain(
                request.sessions, min_pending=request.min_pending
            )
        except KeyError as error:
            raise WireError(UNKNOWN_SESSION, f"unknown session: {error}") from None
        return {"ok": True, "stats": protocol.stats_to_payload(stats)}

    def _resize(self, payload: Payload) -> Payload:
        request = ResizeRequest.from_payload(payload)
        # One process is the whole deployment here: there is no pool to
        # grow or shrink.  The multi-process WorkerPool backend overrides
        # this verb with a real live migration.
        raise WireError(
            NOT_RESIZABLE,
            f"this deployment runs in-process (workers=0) and cannot "
            f"resize to {request.workers} workers",
        )


def _session_or_verb_error(error: UnknownElementError) -> WireError:
    """Map the service's UnknownElementError onto the wire code space: an
    unknown *session* (including edit-after-close) is 404, an unknown edit
    verb the client's 400; any other unknown element (a role, a type — the
    schema rejected the edit's arguments) is the 422 schema error."""
    if error.kind == "session":
        return WireError(UNKNOWN_SESSION, str(error))
    if error.kind == "edit verb":
        return WireError(UNKNOWN_VERB, str(error))
    return WireError(SCHEMA_ERROR, str(error))


class WireServer:
    """The asyncio HTTP front over one validation backend.

    Parameters
    ----------
    service:
        An existing :class:`ValidationService` to expose in-process;
        ``None`` builds the backend from ``workers``/``service_kwargs``
        and owns it (shut down with the server).
    backend:
        An explicit backend object (anything with the
        :class:`LocalBackend` surface), overriding ``service``/``workers``.
    workers:
        ``0`` (default) runs the service in-process; ``N > 0`` builds a
        :class:`repro.server.workers.WorkerPool` of N worker subprocesses
        and routes sessions to them by stable name hash.
    token:
        Shared bearer token.  When set, every ``/v1/*`` request must carry
        ``Authorization: Bearer <token>``; compared constant-time.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    drain_interval:
        Period (seconds) of the background service tick; ``None`` disables
        it (drains then happen only via ``/v1/drain`` and ``report``).
    """

    def __init__(
        self,
        service: ValidationService | None = None,
        *,
        backend: Backend | None = None,
        workers: int = 0,
        token: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_interval: float | None = 0.05,
        **service_kwargs: Any,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers > 0 and (service is not None or backend is not None):
            raise ValueError(
                "workers=N builds its own WorkerPool backend and cannot be "
                "combined with an explicit service/backend"
            )
        self._owns_backend = backend is None and service is None
        self._backend: Backend
        if backend is not None:
            self._backend = backend
        elif service is not None:
            self._backend = LocalBackend(service)
        elif workers > 0:
            from repro.server.workers import WorkerPool

            self._backend = WorkerPool(workers, **service_kwargs)
        else:
            if "data_dir" in service_kwargs:
                raise ValueError(
                    "data_dir (the durable session log) requires a "
                    "multi-process deployment: pass workers >= 1"
                )
            self._backend = LocalBackend(ValidationService(**service_kwargs))
        self._token = token
        self._host = host
        self._port = port
        self._drain_interval = drain_interval
        self._server: asyncio.AbstractServer | None = None
        self._drain_task: asyncio.Task[None] | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._closing = False

    @property
    def backend(self) -> Backend:
        """The backend this front drives (LocalBackend or WorkerPool)."""
        return self._backend

    @property
    def service(self) -> ValidationService:
        """The in-process service (LocalBackend deployments only)."""
        backend = self._backend
        if not isinstance(backend, LocalBackend):
            raise AttributeError(
                "service is only available on LocalBackend deployments"
            )
        return backend.service

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start serving and start the background drain task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        if self._drain_interval is not None:
            self._drain_task = asyncio.create_task(self._drain_loop())
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``orm-validate serve`` loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    def begin_shutdown(self) -> None:
        """Enter lame-duck mode: every request from now on gets a
        structured ``server_shutdown`` error instead of backend access.

        Safe to call from any thread; :meth:`stop` calls it first, so a
        request racing shutdown mid-drain sees a clean 503, not a hang or
        a half-written response.
        """
        self._closing = True

    async def stop(self) -> None:
        """Stop accepting, finish in-flight requests, stop the backend."""
        self.begin_shutdown()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Closing the listener does not touch established connections: idle
        # keep-alive clients sit blocked in readline forever.  Close their
        # transports so every connection task unwinds promptly (in-flight
        # handlers were already answered or see the lame-duck 503).
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            _, pending = await asyncio.wait(self._connections, timeout=5.0)
            for task in pending:
                task.cancel()
        if self._owns_backend:
            await asyncio.get_running_loop().run_in_executor(
                None, self._backend.shutdown
            )

    async def _drain_loop(self) -> None:
        """The background backend tick (errors are survivable: a failing
        drain is retried next period; the verbs keep working regardless)."""
        loop = asyncio.get_running_loop()
        interval = self._drain_interval
        assert interval is not None  # the task only runs when configured
        while True:
            await asyncio.sleep(interval)
            try:
                await loop.run_in_executor(None, self._backend.tick)
            except asyncio.CancelledError:  # pragma: no cover - task teardown
                raise
            except Exception:  # pragma: no cover - keep ticking
                continue

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task: asyncio.Task[None] | None = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self._writers.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        except (asyncio.LimitOverrunError, ValueError):
            # A request line or header beyond the StreamReader limit: still
            # answer structurally before dropping the connection.
            try:
                await self._respond(
                    writer,
                    400,
                    WireError(
                        MALFORMED_REQUEST, "request line or headers too large"
                    ).to_payload(),
                    keep_alive=False,
                )
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Parse one HTTP/1.1 request, dispatch, respond.  Returns whether
        the connection should be kept alive for another request."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return False
        try:
            method, path, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            await self._respond(
                writer,
                400,
                WireError(MALFORMED_REQUEST, "unparseable request line").to_payload(),
                keep_alive=False,
            )
            return False
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            await self._respond(
                writer,
                400,
                WireError(MALFORMED_REQUEST, "bad content-length").to_payload(),
                keep_alive=False,
            )
            return False
        if (
            self._token is not None
            and path.startswith("/v1/")
            and not self._authorized(headers)
        ):
            # Reject on the headers alone: an unauthenticated client must
            # not be able to make the server buffer MAX_BODY_BYTES per
            # request.  Ordinary-sized bodies are still drained first so
            # the 401 is reliably observable (closing with unread data can
            # RST the response away); oversized ones cost the client its
            # connection instead.
            drained = length <= AUTH_REJECT_DRAIN_BYTES
            if drained and length:
                await reader.readexactly(length)
            await self._respond(
                writer,
                401,
                WireError(
                    UNAUTHORIZED,
                    "missing or invalid bearer token "
                    "(send 'Authorization: Bearer <token>')",
                ).to_payload(),
                keep_alive=keep_alive and drained,
            )
            return keep_alive and drained
        body = await reader.readexactly(length) if length else b""
        status, payload = await self._dispatch(method.upper(), path, body)
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Payload,
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- dispatch ----------------------------------------------------------

    def _authorized(self, headers: dict[str, str]) -> bool:
        """Constant-time check of the shared bearer token (if configured)."""
        if self._token is None:
            return True
        provided = headers.get("authorization", "")
        scheme, _, credential = provided.partition(" ")
        if scheme.lower() != "bearer":
            return False
        return hmac.compare_digest(
            credential.strip().encode("utf-8"), self._token.encode("utf-8")
        )

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Payload]:
        """Route one request; *every* failure becomes a structured error."""
        try:
            if path == "/healthz":
                # Deliberately unauthenticated: orchestrator liveness
                # probes must keep working; the body is census-only.
                if method != "GET":
                    raise WireError(METHOD_NOT_ALLOWED, "/healthz is GET-only")
                return 200, await asyncio.get_running_loop().run_in_executor(
                    None, self._healthz
                )
            verb = path[len("/v1/"):] if path.startswith("/v1/") else None
            if verb not in WIRE_VERBS:
                raise WireError(UNKNOWN_ENDPOINT, f"no such endpoint: {path}")
            if method != "POST":
                raise WireError(METHOD_NOT_ALLOWED, f"{path} is POST-only")
            # Auth was already enforced at the header phase
            # (_handle_one_request), before the body was read.
            if self._closing:
                raise WireError(SERVER_SHUTDOWN, "server is shutting down")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WireError(
                    MALFORMED_REQUEST, f"request body is not valid JSON: {error}"
                ) from None
            result = await asyncio.get_running_loop().run_in_executor(
                None, self._backend.handle, verb, payload
            )
            return 200, result
        except WireError as error:
            return error.http_status, error.to_payload()
        except RuntimeError as error:
            # The executor (or the router's fan-out pool) refusing new work
            # is the shutdown race; any other RuntimeError is a genuine bug.
            if self._closing or "shutdown" in str(error):
                wrapped = WireError(SERVER_SHUTDOWN, f"server is shutting down: {error}")
            else:
                wrapped = WireError(INTERNAL_ERROR, f"RuntimeError: {error}")
            return wrapped.http_status, wrapped.to_payload()
        except Exception as error:  # noqa: BLE001 - the wire must stay structured
            wrapped = WireError(INTERNAL_ERROR, f"{type(error).__name__}: {error}")
            return wrapped.http_status, wrapped.to_payload()

    def _healthz(self) -> Payload:
        return {
            "ok": True,
            "status": "shutting_down" if self._closing else "serving",
            "wire_version": WIRE_VERSION,
            **self._backend.health_payload(),
        }


class ServerThread:
    """Run a :class:`WireServer` on a dedicated event-loop thread.

    The synchronous-world adapter used by the tests, the benchmark and any
    embedding that is not already inside asyncio::

        with ServerThread() as server:
            client = ServiceClient(server.base_url)
            ...

    ``stop()`` (or leaving the context) shuts the loop and, when the
    server owns its backend, the backend (service or worker pool) too.
    """

    def __init__(
        self, service: ValidationService | None = None, **server_kwargs: Any
    ) -> None:
        self._server = WireServer(service, **server_kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def server(self) -> WireServer:
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    @property
    def base_url(self) -> str:
        return self._server.base_url

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-wire-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("wire server failed to start") from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("wire server did not start within 10s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as error:  # pragma: no cover - bind failure path
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self._server.stop()

    def begin_shutdown(self) -> None:
        """Thread-safe lame-duck switch (see :meth:`WireServer.begin_shutdown`)."""
        self._server.begin_shutdown()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=15.0)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
