"""Multi-process shard workers behind the wire protocol.

The single-process wire front (:mod:`repro.server.wire`) tops out at one
GIL: every session's drain competes for the same interpreter.  This
module goes past it with processes: a **router** (:class:`WorkerPool`)
owns N **worker subprocesses**, each running a full
:class:`~repro.server.service.ValidationService`, and forwards every
``open/edit/report/check/close/drain`` to the worker that owns the
session — placement is :func:`repro.server.sharding.session_home`,
rendezvous (HRW) hashing of the session name, so routing is derivable
from names alone and survives router and worker restarts alike, and
resizing the pool relocates only the ~1/N of sessions whose rendezvous
winner changed.

**Transport.**  One duplex :mod:`multiprocessing` pipe per worker carrying
newline-free JSON frames: requests are ``{"verb", "payload"}`` envelopes
whose payloads are exactly the :mod:`repro.server.protocol` request
bodies, and responses are exactly the wire response bodies — each worker
simply runs the same :class:`repro.server.wire.LocalBackend` the
single-process server uses.  Workers are spawned (not forked): the router
runs threads, and forking a threaded process is undefined behaviour
waiting to happen.

**Failure model.**  A worker can die at any instant (crash, OOM-kill,
``kill -9``).  The router detects death on the next frame (EOF/broken
pipe/timeout), spawns a replacement in place, and **re-homes** the dead
worker's sessions by replaying each one's *journaled schema snapshot*: the
router records every session's open payload plus the edit payloads
acknowledged since, compacting the window into a schema-DSL snapshot
(:meth:`ValidationService.snapshot_schema`) every ``snapshot_after``
edits — the same snapshot-plus-replay-window shape as
:meth:`repro.patterns.incremental.IncrementalEngine.suspend`/``resume``,
one level up.  Replay is deterministic (schema mutators generate the same
labels from the same state), so a re-homed session's next report is
multiset-equal to an uninterrupted run — property-tested in
``tests/server/test_workers.py``.

**Exactly-once edits, log-before-ack.**  An edit is journaled after the
worker acknowledges it but *before the router acknowledges it to the
client*, inside the same per-session critical section; an edit in flight
when the worker dies is therefore not in the journal, is not replayed,
and is retried exactly once against the replacement — and the retry is
journaled *before* dispatch, because a second death leaves it unknowable
whether the edit applied, and a maybe-applied edit must already be in
the journal when the next replay runs.  With a ``data_dir`` configured,
the same critical section appends the record to the session's durable
segment log (:mod:`repro.server.durability`) and fsyncs it before the
acknowledgement leaves the router (lint rule RL009 enforces the shape),
so a *router* restart recovers every session by snapshot-load + delta
replay (:meth:`WorkerPool._recover`).

**Elasticity.**  The ``resize`` admin verb grows or shrinks the pool at
runtime: new workers are spawned (or doomed ones drained and retired)
and each open session whose rendezvous owner changed is *live-migrated*
— its journal is replayed into the new owner under the session lock,
then the old owner drops its copy with the cheap ``forget`` verb (no
final report).  Sessions whose owner did not change are untouched.

**Handshake.**  Workers greet with their protocol version and verb set;
the router refuses a worker offering an incompatible protocol
(:data:`repro.server.protocol.WORKER_PROTOCOL_MISMATCH`), and a worker
receiving a verb it does not speak answers the typed ``unknown_verb``
error instead of a traceback — the regression net for future protocol
growth.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.server import protocol
from repro.server.durability import (
    KIND_EDIT,
    KIND_OPEN,
    LogStore,
    RecoveredSession,
    SessionLog,
    StorageError,
)
from repro.server.protocol import (
    INTERNAL_ERROR,
    MALFORMED_REQUEST,
    STORAGE_ERROR,
    UNKNOWN_SESSION,
    UNKNOWN_VERB,
    WORKER_FAILED,
    WORKER_PROTOCOL_MISMATCH,
    Payload,
    ResizeRequest,
    WireError,
)
from repro.server.sharding import session_home

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.server.service import ValidationService
    from repro.server.wire import LocalBackend
    from repro.tool.validator import ValidatorSettings

#: Version of the router<->worker envelope protocol.  Bumped when a verb
#: changes shape; the router refuses workers greeting a different version.
#: v2 added the ``check`` verb (warm bounded satisfiability).  v3 added
#: ``forget`` (cheap session discard after a live migration, no final
#: report) and forwards ``resize`` so a worker answers it with the typed
#: ``not_resizable`` instead of ``unknown_verb``.  The contract gate
#: (``repro.devtools.contract``) blames this constant for any drift in
#: the worker verb tables against ``docs/protocol_spec.json``.
WORKER_PROTOCOL_VERSION = 3

#: Verbs every worker must speak for the router to accept it.
REQUIRED_WORKER_VERBS = frozenset(
    {
        "open",
        "edit",
        "report",
        "check",
        "close",
        "drain",
        "resize",
        "stats",
        "snapshot",
        "forget",
        "ping",
        "shutdown",
    }
)

#: Workers are spawned, never forked: the router process runs an event
#: loop plus executor threads, and fork() of a threaded process inherits
#: locks in unknown states.
_MP = multiprocessing.get_context("spawn")

#: Timeout multiplier for the verbs whose legitimate work scales with
#: session/schema size (drain ticks, opens shipping whole schemas, report
#: and close drains, schema snapshots, re-homing replays).  The base
#: ``request_timeout`` stays tight for constant-work frames (edit, ping,
#: stats) so hung workers are still detected quickly there.
SLOW_VERB_TIMEOUT_FACTOR = 4.0

#: How long one health probe waits for a busy worker's pipe before
#: reporting it ``busy`` with last-known stats: long enough to ride out a
#: normal drain tick, short enough that /healthz stays inside any
#: orchestrator probe timeout.
PROBE_WAIT = 1.0

#: Upper bound on a single pipe frame.  ``recv_bytes`` trusts the 4-byte
#: length prefix and allocates before reading, so a frame torn by a
#: ``kill -9`` mid-write could otherwise demand gigabytes for garbage;
#: with a bound it raises OSError and lands on the normal worker-death
#: path.  Far above any legitimate frame (whole-schema opens included).
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _worker_main(conn: Connection, config: dict[str, Any]) -> None:
    """Entry point of one worker subprocess: a ValidationService behind a
    serial JSON frame loop.  The router serializes requests per worker, so
    the loop needs no concurrency of its own, and every drain and refresh
    runs on this one thread; a pool of N workers is what puts N cores to
    work."""
    import signal

    from repro.server.service import ValidationService
    from repro.server.wire import LocalBackend

    # Router-led shutdown only: a Ctrl-C on the foreground process group
    # must not kill workers out from under the router's drain/replay.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    settings = None
    if config.get("settings") is not None:
        settings = protocol.settings_from_payload(config["settings"])
    service = ValidationService(settings=settings, **config.get("service", {}))
    backend = LocalBackend(service)
    conn.send_bytes(
        json.dumps(
            {
                "hello": True,
                "protocol_version": WORKER_PROTOCOL_VERSION,
                "verbs": sorted(REQUIRED_WORKER_VERBS),
                "pid": os.getpid(),
            }
        ).encode("utf-8")
    )
    while True:
        try:
            raw = conn.recv_bytes(MAX_FRAME_BYTES)
        except (EOFError, OSError):
            break  # router went away; die quietly
        try:
            request = json.loads(raw.decode("utf-8"))
            verb = request.get("verb")
            payload = request.get("payload") or {}
            if verb == "shutdown":
                conn.send_bytes(b'{"ok": true}')
                break
            response = _worker_dispatch(backend, service, verb, payload)
        except WireError as error:
            response = error.to_payload()
        except Exception as error:  # noqa: BLE001 - the pipe must stay structured
            response = WireError(
                INTERNAL_ERROR, f"{type(error).__name__}: {error}"
            ).to_payload()
        try:
            conn.send_bytes(json.dumps(response).encode("utf-8"))
        except (BrokenPipeError, OSError):
            break


def _worker_dispatch(
    backend: LocalBackend, service: ValidationService, verb: str, payload: Payload
) -> Payload:
    """One worker verb; anything outside the negotiated set is the typed
    ``unknown_verb`` error, never a crash (protocol-growth regression net)."""
    if verb in ("open", "edit", "report", "check", "close", "drain", "resize"):
        # "resize" reaching a worker is answered by LocalBackend's typed
        # not_resizable: only the router's pool can resize.
        return backend.handle(verb, payload)
    if verb == "ping":
        return {"ok": True, "pid": os.getpid()}
    if verb == "stats":
        return {"ok": True, **backend.health_payload()}
    if verb == "forget":
        # Post-migration discard: the session now lives in another worker,
        # so no final drain/report — just drop the state.
        name = payload.get("session")
        if not isinstance(name, str):
            raise WireError(MALFORMED_REQUEST, "forget needs a 'session' name")
        from repro.exceptions import UnknownElementError

        try:
            service.forget(name)
        except UnknownElementError as error:
            raise WireError(UNKNOWN_SESSION, str(error)) from None
        return {"ok": True, "session": name}
    if verb == "snapshot":
        name = payload.get("session")
        if not isinstance(name, str):
            raise WireError(MALFORMED_REQUEST, "snapshot needs a 'session' name")
        from repro.exceptions import UnknownElementError

        try:
            return {"ok": True, "session": name, "schema_dsl": service.snapshot_schema(name)}
        except UnknownElementError as error:
            raise WireError(UNKNOWN_SESSION, str(error)) from None
    raise WireError(
        UNKNOWN_VERB,
        f"worker speaks protocol v{WORKER_PROTOCOL_VERSION} and does not "
        f"understand verb {verb!r}",
    )


class WorkerDied(Exception):
    """Internal: the worker at the other end of a pipe is gone (EOF, broken
    pipe, or response timeout).  ``handle`` names the dead worker, so the
    router's revive-and-retry loop knows which one to replace."""

    def __init__(self, message: str, handle: WorkerHandle | None = None) -> None:
        super().__init__(message)
        self.handle = handle


class WorkerHandle:
    """One live worker subprocess plus its pipe, serialized by a lock.

    The lock covers a full send/receive round trip: workers process frames
    serially, so per-worker serialization at the router loses nothing, and
    requests to *different* workers proceed in parallel — which is the
    whole point of the pool.
    """

    def __init__(
        self,
        index: int,
        config: dict[str, Any],
        *,
        request_timeout: float = 120.0,
        handshake_timeout: float = 60.0,
        expected_protocol: int | None = None,
        defer_handshake: bool = False,
    ) -> None:
        self.index = index
        self._timeout = request_timeout
        self._handshake_timeout = handshake_timeout
        self._expected_protocol = (
            expected_protocol if expected_protocol is not None else WORKER_PROTOCOL_VERSION
        )
        self._lock = threading.Lock()
        self.pid: int = -1
        #: Last stats body this worker answered (the health probe's
        #: fallback when the worker is busy mid-round-trip).
        self.last_stats: Payload | None = None
        parent_conn, child_conn = _MP.Pipe(duplex=True)
        self._conn = parent_conn
        self.process = _MP.Process(
            target=_worker_main,
            args=(child_conn, config),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # our copy; the child keeps its own
        if not defer_handshake:
            self.handshake()

    def handshake(self) -> None:
        """Await and validate the worker's hello frame.

        Split from the spawn so a pool can start all N interpreters first
        and then collect the N hellos — startup stays ~one boot time
        instead of N serial boots.  Raises :class:`WorkerDied` (after
        reaping — no zombie from a failed spawn) or the typed
        ``worker_protocol_mismatch`` :class:`WireError`.
        """
        try:
            hello = self._recv(timeout=self._handshake_timeout)
        except WorkerDied:
            self.reap()
            raise
        offered = hello.get("protocol_version")
        missing = REQUIRED_WORKER_VERBS - set(hello.get("verbs") or ())
        if offered != self._expected_protocol or missing:
            self.reap()
            raise WireError(
                WORKER_PROTOCOL_MISMATCH,
                f"worker {self.index} greeted protocol v{offered} "
                f"(router expects v{self._expected_protocol})"
                + (f", missing verbs {sorted(missing)}" if missing else ""),
            )
        self.pid = hello.get("pid", self.process.pid)

    def _recv(self, *, timeout: float) -> Payload:
        try:
            if not self._conn.poll(timeout):
                raise WorkerDied(
                    f"worker {self.index} (pid {self.process.pid}) did not "
                    f"answer within {timeout:.0f}s",
                    self,
                )
            raw = self._conn.recv_bytes(MAX_FRAME_BYTES)
            return json.loads(raw.decode("utf-8"))
        except WorkerDied:
            self.kill()
            raise
        except (EOFError, OSError, ValueError) as error:
            self.kill()
            raise WorkerDied(
                f"worker {self.index} (pid {self.process.pid}) is gone: {error}",
                self,
            ) from error

    def request(
        self, verb: str, payload: Payload | None = None, *, timeout: float | None = None
    ) -> Payload:
        """One round trip; raises :class:`WorkerDied` on any transport
        failure (the response, if any, is then unknowable — callers decide
        whether a retry is safe).  ``timeout`` overrides the handle default
        for verbs whose legitimate work is unbounded in session count
        (a drain tick, a giant open) — a *slow* worker must not be
        mistaken for a hung one and killed mid-work."""
        with self._lock:
            # repro-lint: disable=RL001 -- the pipe IS the critical section: one in-flight frame per worker is the transport invariant
            return self._exchange(verb, payload, timeout)

    def try_request(
        self,
        verb: str,
        payload: Payload | None = None,
        *,
        timeout: float | None = None,
        wait: float = 0.0,
    ) -> Payload | None:
        """:meth:`request` with a bounded wait for the pipe: returns
        ``None`` when another thread is still mid-round-trip after
        ``wait`` seconds (the worker is *busy*, which is itself an answer
        — it is alive and serving).  Used by the health probe so
        ``/healthz`` rides out a normal drain tick but never queues
        behind a pathologically long one."""
        if wait > 0:
            acquired = self._lock.acquire(timeout=wait)
        else:
            acquired = self._lock.acquire(blocking=False)
        if not acquired:
            return None
        try:
            return self._exchange(verb, payload, timeout)
        finally:
            self._lock.release()

    def _exchange(
        self, verb: str, payload: Payload | None, timeout: float | None
    ) -> Payload:
        """One frame out, one frame back.  Caller holds ``self._lock``."""
        frame = json.dumps({"verb": verb, "payload": payload or {}}).encode("utf-8")
        try:
            self._conn.send_bytes(frame)
        except (BrokenPipeError, OSError, ValueError) as error:
            self.kill()
            raise WorkerDied(
                f"worker {self.index} (pid {self.process.pid}) is gone: {error}",
                self,
            ) from error
        return self._recv(timeout=timeout if timeout is not None else self._timeout)

    def checked(
        self, verb: str, payload: Payload | None = None, *, timeout: float | None = None
    ) -> Payload:
        """:meth:`request`, re-raising a worker error body as WireError."""
        response = self.request(verb, payload, timeout=timeout)
        if not isinstance(response, dict) or "ok" not in response:
            raise WireError(
                INTERNAL_ERROR, f"worker {self.index} sent a malformed response"
            )
        if not response["ok"]:
            error = response.get("error") or {}
            raise WireError(
                # repro-lint: disable=RL008 -- forwarding the worker's already-typed code verbatim
                error.get("code", INTERNAL_ERROR),
                error.get("message", "worker error"),
            )
        return response

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the subprocess and drop the pipe (idempotent)."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.kill()

    def reap(self, timeout: float = 5.0) -> None:
        """Join the (dead or killed) subprocess so no zombie lingers."""
        self.kill()
        self.process.join(timeout=timeout)


class _RoutedSession:
    """The router's journal of one session: everything needed to re-home
    it into a fresh worker.  ``lock`` serializes this session's journal
    mutations with the worker round trips that justify them.

    ``home`` is the worker index this session currently lives in —
    assigned from the rendezvous winner at open (or recovery) time and
    changed only by a live migration, under ``lock``, so requests routed
    mid-resize always reach the worker that actually holds the session.
    ``log`` is the session's durable segment log (``None`` when the pool
    runs without a ``data_dir``).
    """

    __slots__ = ("name", "lock", "opened", "open_payload", "edits", "home", "log")

    def __init__(self, name: str, home: int) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.opened = False
        self.open_payload: Payload = {"session": name}
        self.edits: list[Payload] = []
        self.home = home
        self.log: SessionLog | None = None


class WorkerPool:
    """The router: N worker subprocesses behind the wire-verb surface.

    Implements the same backend interface as
    :class:`repro.server.wire.LocalBackend` (``handle`` /
    ``health_payload`` / ``tick`` / ``shutdown``), so
    :class:`repro.server.wire.WireServer` — and therefore every PR-4
    client — is indifferent to whether one process or N serve the
    session.  Construct via ``WireServer(workers=N, ...)`` or directly.

    Parameters
    ----------
    workers:
        Number of worker subprocesses (the initial rendezvous membership;
        grow/shrink at runtime with the ``resize`` verb).
    settings:
        Default :class:`ValidatorSettings` profile (or its wire payload)
        for the workers' services.
    snapshot_after:
        Edits per session before the re-homing journal is compacted into
        a schema-DSL snapshot (bounding replay cost, router memory and
        durable-log length).
    request_timeout:
        Seconds a worker may take to answer one frame before it is
        declared dead and replaced.
    data_dir:
        Directory for the durable per-session segment logs
        (:mod:`repro.server.durability`).  When set, every acknowledged
        open/edit is fsync'd there before the ack, and constructing a
        pool over an existing ``data_dir`` recovers every logged session
        by snapshot-load + delta replay.  ``None`` keeps the journal
        router-memory only (a worker crash is survivable, a router crash
        loses sessions).
    **service_kwargs:
        Forwarded to each worker's :class:`ValidationService`
        (``max_live_engines``, ``max_live_sites``).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        settings: ValidatorSettings | Payload | None = None,
        snapshot_after: int = 64,
        request_timeout: float = 120.0,
        data_dir: str | Path | None = None,
        **service_kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if snapshot_after < 1:
            raise ValueError(f"snapshot_after must be >= 1, got {snapshot_after}")
        settings_payload = None
        if settings is not None:
            settings_payload = (
                settings
                if isinstance(settings, dict)
                else protocol.settings_to_payload(settings)
            )
        self._config = {"settings": settings_payload, "service": dict(service_kwargs)}
        self._snapshot_after = snapshot_after
        self._request_timeout = request_timeout
        self._slow_timeout = request_timeout * SLOW_VERB_TIMEOUT_FACTOR
        self._count = workers
        handles: list[WorkerHandle] = []
        try:
            # Start all N interpreters first, then collect the N hellos:
            # pool startup costs ~one worker boot, not N serial ones.
            for index in range(workers):
                handles.append(self._spawn(index, defer_handshake=True))
            for handle in handles:
                handle.handshake()
        except WorkerDied as error:
            # A later spawn failing must not orphan the earlier workers
            # (they would sit in recv_bytes forever), nor leak the
            # internal WorkerDied type out of the public constructor.
            for handle in handles:
                handle.reap()
            raise WireError(
                WORKER_FAILED, f"worker pool failed to start: {error}"
            ) from error
        except WireError:  # protocol mismatch: already typed, still reap
            for handle in handles:
                handle.reap()
            raise
        self._handles = handles
        self._sessions: dict[str, _RoutedSession] = {}
        self._registry_lock = threading.Lock()
        self._revive_lock = threading.Lock()
        # Sized for the resize ceiling, not the starting count: a resized
        # pool keeps its executors, and ThreadPoolExecutor only spawns
        # threads on demand, so the high bound costs nothing up front.
        self._fanout = ThreadPoolExecutor(
            max_workers=protocol.MAX_RESIZE_WORKERS, thread_name_prefix="repro-router"
        )
        # Health probes get their own small pool: the fan-out pool's N
        # threads can all be occupied by an in-flight drain tick, and a
        # liveness probe queueing behind a long drain is exactly what
        # /healthz must never do.
        self._probe_pool = ThreadPoolExecutor(
            max_workers=protocol.MAX_RESIZE_WORKERS, thread_name_prefix="repro-probe"
        )
        self._restarts = 0
        self._rehomed_sessions = 0
        self._dropped_sessions = 0
        self._resizes = 0
        self._migrated_sessions = 0
        self._recovered_sessions = 0
        self._log_skipped_records = 0
        self._closing = False
        #: Test seam: called with the session name after a migration's
        #: replay reached the new owner but before the old owner forgets —
        #: the fault harness injects mid-migration crashes here.
        self._migration_fault_hook: Callable[[str], None] | None = None
        self._logs = LogStore(data_dir) if data_dir is not None else None
        if self._logs is not None:
            try:
                self._recover()
            except WorkerDied as error:
                self.shutdown()
                raise WireError(
                    WORKER_FAILED, f"session recovery failed: {error}"
                ) from error

    # -- the backend surface (what WireServer drives) ---------------------

    def handle(self, verb: str, payload: Payload) -> Payload:
        if verb == "open":
            return self._open(payload)
        if verb == "edit":
            return self._edit(payload)
        if verb == "report":
            return self._slow_routed("report", payload)
        if verb == "check":
            # A SAT sweep's legitimate work scales with schema and domain
            # size, like a report's drain — slow-verb budget.
            return self._slow_routed("check", payload)
        if verb == "close":
            return self._close(payload)
        if verb == "drain":
            return self._drain(payload)
        if verb == "resize":
            return self._resize(payload)
        raise WireError(UNKNOWN_VERB, f"no such wire verb: {verb!r}")

    def health_payload(self) -> Payload:
        """Aggregate census: summed service stats plus the worker roster.

        Built to stay *probe-fast* whatever the workers are doing: all
        workers are probed in parallel on a dedicated probe pool (the
        fan-out pool may be fully occupied by a drain tick), each probe
        waits at most :data:`PROBE_WAIT` seconds for the worker's pipe —
        long enough to ride out a normal drain tick, bounded so a
        pathologically long one cannot stall liveness — and a worker
        still busy after that is reported ``busy`` with its last-known
        stats folded into the totals (alive and serving; its numbers are
        merely one probe stale).  Probing a *dead* worker answers
        immediately and kicks its revival (and re-homing) off in the
        background, so a periodic ``/healthz`` doubles as the crash
        detector even on an otherwise idle server without ever blocking
        on a replay.
        """
        probes = list(self._probe_pool.map(self._probe_stats, range(self._count)))
        totals: dict[str, int] = {}
        reachable = busy = 0
        for stats, state in probes:
            if state == "busy":
                busy += 1
            if state == "ok":
                reachable += 1
            if stats is None:
                continue
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        with self._registry_lock:
            routed = len(self._sessions)
        handles = list(self._handles)  # a resize may mutate the roster
        return {
            "stats": totals,
            "workers": {
                "count": self._count,
                "alive": sum(1 for h in handles if h.alive()),
                "reachable": reachable,
                "busy": busy,
                "pids": [h.pid for h in handles],
                "restarts": self._restarts,
                "rehomed_sessions": self._rehomed_sessions,
                "dropped_sessions": self._dropped_sessions,
                "routed_sessions": routed,
                "resizes": self._resizes,
                "migrated_sessions": self._migrated_sessions,
                "recovered_sessions": self._recovered_sessions,
                "log_skipped_records": self._log_skipped_records,
            },
        }

    def _probe_stats(self, index: int) -> tuple[Payload | None, str]:
        """One worker's census probe: ``(stats_or_None, state)``."""
        try:
            handle = self._handles[index]
        except IndexError:  # the probe raced a shrink; the worker is gone
            return None, "unreachable"
        try:
            response = handle.try_request("stats", {}, wait=PROBE_WAIT)
        except WorkerDied:
            # Dead: kick the revival (and its re-homing replay) off in the
            # background and answer the probe *now* — a liveness probe
            # stalling for the whole replay would get the router restarted
            # by its orchestrator exactly mid-recovery.  Any direct
            # request racing this still revives synchronously via
            # :meth:`_retrying`; the counters record whichever won.
            if self._closing:
                return None, "unreachable"
            try:
                future = self._fanout.submit(self._revive_quietly, handle)
            except RuntimeError:  # probe raced shutdown(): executor is gone
                return None, "unreachable"
            future.add_done_callback(lambda f: f.exception())  # consumed
            return None, "reviving"
        if response is None:
            return handle.last_stats, "busy"
        if isinstance(response, dict) and response.get("ok"):
            handle.last_stats = response.get("stats")
            return handle.last_stats, "ok"
        return None, "error"

    def _revive_quietly(self, dead: WorkerHandle) -> None:
        """Background revival for the health probe (failures are left for
        the next direct request to surface as typed errors)."""
        try:
            self._revive(dead)
        except WireError:
            pass

    def tick(self) -> None:
        """One background drain pass across every worker (in parallel)."""
        self._drain({})

    def shutdown(self) -> None:
        self._closing = True
        # Serialize with any in-flight revival: either it finished (its
        # replacement is in _handles and gets shut down below) or it has
        # not taken the revive lock yet (and will then see _closing and
        # refuse to spawn) — no replacement can be spawned-but-missed.
        with self._revive_lock:
            handles = list(self._handles)
        for handle in handles:
            try:
                handle.request("shutdown")
            except WorkerDied:
                pass
            handle.reap()
        self._fanout.shutdown(wait=False)
        self._probe_pool.shutdown(wait=False)
        # The durable logs outlive the pool by design (a restart recovers
        # from them); only the open file handles are released here.
        with self._registry_lock:
            entries = list(self._sessions.values())
        for entry in entries:
            if entry.log is not None:
                entry.log.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- queries -----------------------------------------------------------

    @property
    def worker_count(self) -> int:
        return self._count

    def worker_pids(self) -> list[int]:
        """Current pid per worker index (changes when a worker is revived)."""
        return [handle.pid for handle in self._handles]

    def home_of(self, session_name: str) -> int:
        """The worker index that owns a session.

        An open session answers with the home it actually lives in (which
        tracks migrations); an unknown name answers with the rendezvous
        winner it *would* be placed in.
        """
        with self._registry_lock:
            entry = self._sessions.get(session_name)
            if entry is not None:
                return entry.home
        return session_home(session_name, self._count)

    # -- verb routing ------------------------------------------------------

    def _session_name(self, payload: Payload) -> str:
        name = payload.get("session") if isinstance(payload, dict) else None
        if not isinstance(name, str):
            raise WireError(MALFORMED_REQUEST, "missing required field 'session'")
        return name

    def _open(self, payload: Payload) -> Payload:
        name = self._session_name(payload)
        with self._registry_lock:
            entry = self._sessions.get(name)
            if entry is None:
                entry = _RoutedSession(name, session_home(name, self._count))
                self._sessions[name] = entry
        try:
            return self._retrying(
                "open", lambda retried: self._open_routed(entry, payload)
            )
        except WireError:
            with self._registry_lock:
                if not entry.opened and self._sessions.get(name) is entry:
                    del self._sessions[name]
            raise

    def _open_routed(self, entry: _RoutedSession, payload: Payload) -> Payload:
        """One attempt of ``open``: the round trip, then the durable open
        record before the client hears the session exists."""
        with entry.lock:
            handle = self._handles[entry.home]
            # repro-lint: disable=RL001 -- journal order must match worker order: the round trip completes under the session lock
            response = handle.checked("open", payload, timeout=self._slow_timeout)
            self._log_open(entry, payload, handle)
            entry.opened = True
            entry.open_payload = payload
            entry.edits = []
            return response

    def _edit(self, payload: Payload) -> Payload:
        name = self._session_name(payload)
        with self._registry_lock:
            entry = self._sessions.get(name)
        if entry is None:
            # Never opened here: let the worker produce the typed 404.
            return self._forward(session_home(name, self._count), "edit", payload)
        return self._retrying(
            "edit", lambda retried: self._edit_routed(entry, payload, retried)
        )

    def _edit_routed(
        self, entry: _RoutedSession, payload: Payload, retried: bool
    ) -> Payload:
        """One attempt of a journaled edit: worker round trip, durable log
        append, ack.

        The invariant is **log-before-ack** (lint rule RL009): every path
        that returns an acknowledgement calls :meth:`_log_append` first.
        The first attempt logs after the worker accepts (a rejected edit
        is never journaled).  The *retry* after a worker death logs before
        dispatch: the first death left it unknowable whether the edit
        applied, so if the retry's worker also dies after maybe applying
        it, the record must already be durable for the next replay.  That
        is also why a :class:`WorkerDied` leaves the retry's journal entry
        in place.  A retry the worker then *rejects* is rolled back from
        both journals: a typed rejection proves it never applied.
        """
        with entry.lock:
            handle = self._handles[entry.home]
            rollback = -1
            if retried:
                rollback = self._log_append(entry, KIND_EDIT, payload, handle)
                entry.edits.append(payload)
            try:
                # repro-lint: disable=RL001 -- journal order must match worker order: the round trip completes under the session lock
                response = handle.checked("edit", payload)
            except WireError:
                if retried:  # typed rejection: definitively not applied
                    entry.edits.pop()
                    self._log_rollback(entry, rollback)
                raise
            if not retried:
                self._log_append(entry, KIND_EDIT, payload, handle)
            # repro-lint: disable=RL001 -- compaction inside the ack must be atomic with the journal window it collapses
            return self._ack_edit(entry, payload, response, journaled=retried)

    def _ack_edit(
        self,
        entry: _RoutedSession,
        payload: Payload,
        response: Payload,
        *,
        journaled: bool = False,
    ) -> Payload:
        """Finalize an acknowledged edit: memory-journal it (unless the
        retry path journaled it pre-dispatch) and compact a full window.
        Callers must have made the durable record first — RL009 checks
        that a ``_log_append`` call dominates every call to this method.
        """
        if not journaled:
            entry.edits.append(payload)
        if len(entry.edits) >= self._snapshot_after:
            # repro-lint: disable=RL001 -- compaction's snapshot round trip must be atomic with the journal window it collapses
            self._compact(entry)
        return response

    def _close(self, payload: Payload) -> Payload:
        name = self._session_name(payload)
        with self._registry_lock:
            entry = self._sessions.get(name)
        if entry is None:
            return self._forward(
                session_home(name, self._count), "close", payload,
                timeout=self._slow_timeout,
            )
        return self._retrying(
            "close", lambda retried: self._close_routed(entry, payload)
        )

    def _close_routed(self, entry: _RoutedSession, payload: Payload) -> Payload:
        """One attempt of ``close``: the final report, then the session's
        log and route are dropped."""
        with entry.lock:
            handle = self._handles[entry.home]
            # repro-lint: disable=RL001 -- journal order must match worker order: the round trip completes under the session lock
            response = handle.checked("close", payload, timeout=self._slow_timeout)
            self._discard_log(entry)
            with self._registry_lock:
                if self._sessions.get(entry.name) is entry:
                    del self._sessions[entry.name]
            return response

    def _slow_routed(self, verb: str, payload: Payload) -> Payload:
        """Route a read verb (report/check) to the session's live home.

        Each attempt holds the session lock, so a request can never race
        a live migration onto a worker that already forgot the session;
        unknown names fall through to the rendezvous winner, whose worker
        answers the typed 404.
        """
        name = self._session_name(payload)
        with self._registry_lock:
            entry = self._sessions.get(name)
        if entry is None:
            return self._forward(
                session_home(name, self._count), verb, payload,
                timeout=self._slow_timeout,
            )

        def attempt(retried: bool) -> Payload:
            with entry.lock:
                handle = self._handles[entry.home]
                # repro-lint: disable=RL001 -- routed reads hold the session lock so migration cannot strand them on an old owner
                return handle.checked(verb, payload, timeout=self._slow_timeout)

        return self._retrying(verb, attempt)

    def _drain(self, payload: Payload) -> Payload:
        min_pending = payload.get("min_pending")
        sessions = payload.get("sessions")
        per_worker: dict[int, dict] = {}
        if sessions is None:
            for index in range(self._count):
                per_worker[index] = {}
        else:
            if not isinstance(sessions, list) or not all(
                isinstance(n, str) for n in sessions
            ):
                raise WireError(MALFORMED_REQUEST, "'sessions' must be a list of names")
            # Validate every name up front so an unknown one drains
            # *nothing* — the in-process service errors while building its
            # target list, and the two backends must not diverge on that.
            # (The worker still backstops the error for races with close.)
            with self._registry_lock:
                missing = [n for n in sessions if n not in self._sessions]
                homes = {
                    n: self._sessions[n].home for n in sessions if n not in missing
                }
            if missing:
                raise WireError(UNKNOWN_SESSION, f"unknown session: '{missing[0]}'")
            for name in sessions:
                index = homes[name]
                per_worker.setdefault(index, {"sessions": []})
                per_worker[index]["sessions"].append(name)
        if min_pending is not None:
            for sub in per_worker.values():
                sub["min_pending"] = min_pending
        futures = {
            index: self._fanout.submit(
                self._forward, index, "drain", sub, timeout=self._slow_timeout
            )
            for index, sub in per_worker.items()
        }
        # Zero-seeded so an empty tick (e.g. "sessions": []) returns the
        # same zeroed DrainStats shape as the in-process backend.
        totals: dict[str, int] = {
            "examined": 0, "drained": 0, "changes": 0, "resumed": 0, "rebuilt": 0
        }
        for future in futures.values():
            stats = future.result()["stats"]  # WireError propagates as-is
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return {"ok": True, "stats": totals}

    # -- forwarding, death detection, re-homing ----------------------------

    def _retrying(self, verb: str, attempt: Callable[[bool], Payload]) -> Payload:
        """The one revive-and-retry loop behind every routed verb.

        ``attempt(retried)`` is the verb's own body: it picks the worker
        that owns the request (under the session lock, for a journaled
        session) and makes the round trip.  When the first attempt finds
        that worker dead, the worker is revived (:meth:`_revive`) and the
        body runs once more with ``retried=True``.  By then the body has
        released any session lock it took, so a request waiting on the
        revival holds none, and the revival's replay sweep (which takes
        session locks one at a time) cannot deadlock against it.  A second
        death is the typed ``worker_failed``, naming the verb.
        """
        try:
            return attempt(False)
        except WorkerDied as error:
            assert error.handle is not None  # every round trip names its worker
            self._revive(error.handle)
        try:
            return attempt(True)
        except WorkerDied as error:
            raise WireError(
                WORKER_FAILED,
                f"worker kept failing after revival ({verb!r} not answered: "
                f"{error})",
            ) from error

    def _forward(
        self,
        index: int,
        verb: str,
        payload: Payload,
        *,
        timeout: float | None = None,
    ) -> Payload:
        """One unjournaled round trip to worker ``index``, revived and
        retried like every routed verb: drain ticks, and verbs for sessions
        this router never journaled (the worker backstops those with the
        typed 404)."""

        def attempt(retried: bool) -> Payload:
            if index >= len(self._handles):  # raced a shrink
                raise WireError(WORKER_FAILED, f"worker {index} was retired")
            return self._handles[index].checked(verb, payload, timeout=timeout)

        return self._retrying(verb, attempt)

    def _compact(self, entry: _RoutedSession) -> None:
        """Collapse a session's journal to a schema-DSL snapshot.

        Called under ``entry.lock`` from the edit path, so it must never
        wait on revival: a dead worker simply postpones compaction to a
        later edit (the journal stays replayable throughout).  The durable
        log compacts first — if its snapshot segment cannot be written,
        the in-memory window is kept too, so both journals always rebuild
        the same state."""
        handle = self._handles[entry.home]
        try:
            # Serializing a whole schema is O(schema size), same as an
            # open — slow-verb timeout, or a big session's routine
            # compaction would "time out" and kill a healthy worker.
            snapshot = handle.checked(
                "snapshot", {"session": entry.name}, timeout=self._slow_timeout
            )
        except (WorkerDied, WireError):
            return
        refreshed = dict(entry.open_payload)
        refreshed["schema_dsl"] = snapshot["schema_dsl"]
        if entry.log is not None:
            try:
                entry.log.compact(refreshed)
            except StorageError:
                # The uncompacted segments still replay; retry at the next
                # window boundary.
                return
        entry.open_payload = refreshed
        entry.edits = []

    def _revive(self, dead: WorkerHandle) -> None:
        """Replace a dead worker and re-home its sessions by replay.

        Serialized on one lock: concurrent observers of the same death
        queue up here and find the worker already replaced (``is not
        dead``).  Each session's journal is replayed under its own lock,
        taken one at a time — threads blocked on this revival never hold
        a session lock (see :meth:`_retrying`), so the sweep cannot
        deadlock.
        """
        index = dead.index
        with self._revive_lock:
            if index >= len(self._handles):
                return  # a shrink already retired this worker index
            if self._handles[index] is not dead:
                return  # somebody else already revived this worker
            if self._closing:
                raise WireError(WORKER_FAILED, "router is shutting down")
            # repro-lint: disable=RL001 -- revival is single-flight by design; reaping joins an already-dead process (bounded wait)
            dead.reap()
            try:
                fresh = self._spawn(index)
            except WorkerDied as error:
                # The replacement itself failed to come up (crash before
                # the hello frame, handshake timeout): keep the failure on
                # the documented worker_failed/503 contract — WorkerDied is
                # internal and must not leak as a 500.  The dead handle
                # stays installed; a later request retries the revival.
                raise WireError(
                    WORKER_FAILED,
                    f"could not spawn a replacement for worker {index}: {error}",
                ) from error
            with self._registry_lock:
                homed = [
                    entry
                    for entry in self._sessions.values()
                    if entry.home == index
                ]
            rehomed = 0
            for entry in homed:
                with entry.lock:
                    if not entry.opened:
                        continue
                    try:
                        # repro-lint: disable=RL001 -- re-homing replays the journal under the session lock so no edit interleaves mid-replay
                        if self._replay(entry, fresh):
                            rehomed += 1
                    except WorkerDied as error:
                        # repro-lint: disable=RL001 -- the replacement just died; joining it is bounded and nothing else can hold this fresh handle yet
                        fresh.reap()
                        raise WireError(
                            WORKER_FAILED,
                            f"replacement worker {index} died during re-homing: "
                            f"{error}",
                        ) from error
            self._handles[index] = fresh
            self._restarts += 1
            self._rehomed_sessions += rehomed

    def _replay(
        self,
        entry: _RoutedSession,
        receiver: WorkerHandle,
        previous: WorkerHandle | None = None,
    ) -> bool:
        """Rebuild one session in ``receiver``'s worker from its journal:
        the open payload, then every edit since.

        The one replay behind re-homing after a worker death
        (:meth:`_revive`), live migration (:meth:`_migrate_session`) and
        recovery after a router restart (:meth:`_recover`).  The caller
        holds ``entry.lock``, or owns an entry no other thread can see
        yet.  Returns ``False`` when the journal no longer replays, after
        dropping the session everywhere (:meth:`_drop`); ``previous`` is
        the worker a migration is moving the session off.
        :class:`WorkerDied` propagates: what a dead receiver means is for
        the caller to decide.
        """
        try:
            receiver.checked("open", entry.open_payload, timeout=self._slow_timeout)
            for edit in entry.edits:
                receiver.checked("edit", edit)
        except WireError:
            self._drop(entry, receiver, previous)
            return False
        return True

    def _drop(
        self,
        entry: _RoutedSession,
        receiver: WorkerHandle,
        previous: WorkerHandle | None,
    ) -> None:
        """Drop a session whose journal no longer replays (should not
        happen: replay is deterministic), everywhere at once: its durable
        log, the half-replayed prefix on ``receiver``, the copy still on
        ``previous`` (a migration's old owner), and its route.  No worker
        keeps serving the name, and re-opening it starts clean."""
        self._discard_log(entry)
        for handle in (receiver, previous):
            if handle is None:
                continue
            try:
                handle.checked("forget", {"session": entry.name})
            except (WorkerDied, WireError):
                pass  # the worker is gone or never held it: nothing to free
        with self._registry_lock:
            if self._sessions.get(entry.name) is entry:
                del self._sessions[entry.name]
            self._dropped_sessions += 1

    # -- runtime resize and live migration ---------------------------------

    def _resize(self, payload: Payload) -> Payload:
        """Grow or shrink the pool, live-migrating owner-changed sessions.

        Serialized on the revive lock (a resize and a revival must not
        rewire the roster concurrently).  Only sessions whose rendezvous
        winner changed move — each is replayed into its new owner under
        its session lock, then dropped from the old owner with ``forget``
        — so a resize N → N±1 touches ~1/N of the sessions and leaves
        every other session's placement (and cache warmth) alone.
        """
        request = ResizeRequest.from_payload(payload)
        new = request.workers
        with self._revive_lock:
            if self._closing:
                raise WireError(WORKER_FAILED, "router is shutting down")
            old = self._count
            if new == old:
                migrated = 0
            elif new > old:
                # repro-lint: disable=RL001 -- resize is single-flight by design: the roster must not change under the migration sweep
                migrated = self._grow(new)
            else:
                # repro-lint: disable=RL001 -- resize is single-flight by design: the roster must not change under the migration sweep
                migrated = self._shrink(new)
            if new != old:
                self._resizes += 1
                self._migrated_sessions += migrated
        return {
            "ok": True,
            "workers": new,
            "previous_workers": old,
            "migrated": migrated,
        }

    def _grow(self, new: int) -> int:
        """Add workers; caller holds the revive lock."""
        spawned: list[WorkerHandle] = []
        try:
            for index in range(self._count, new):
                spawned.append(self._spawn(index, defer_handshake=True))
            for handle in spawned:
                handle.handshake()
        except WorkerDied as error:
            for handle in spawned:
                handle.reap()
            raise WireError(
                WORKER_FAILED, f"resize could not start new workers: {error}"
            ) from error
        except WireError:
            for handle in spawned:
                handle.reap()
            raise
        self._handles.extend(spawned)
        # Flip the count and snapshot the registry in one critical section:
        # every session is either in this snapshot (migrated below if its
        # owner changed) or was opened after the flip (placed by the new
        # membership already) — no session can fall between.
        with self._registry_lock:
            self._count = new
            entries = list(self._sessions.values())
        return self._migrate(entries)

    def _shrink(self, new: int) -> int:
        """Retire workers; caller holds the revive lock.

        The count flips first (new opens land on survivors), the doomed
        workers' sessions are migrated off while those workers still
        serve, and only then are they shut down and dropped from the
        roster.
        """
        with self._registry_lock:
            self._count = new
            entries = list(self._sessions.values())
        migrated = self._migrate(entries)
        doomed = self._handles[new:]
        del self._handles[new:]
        for handle in doomed:
            try:
                handle.request("shutdown")
            except WorkerDied:
                pass
            handle.reap()
        return migrated

    def _migrate(self, entries: list[_RoutedSession]) -> int:
        """Move every owner-changed session to its new rendezvous winner."""
        migrated = 0
        for entry in entries:
            with entry.lock:
                target = session_home(entry.name, self._count)
                if target == entry.home or not entry.opened:
                    continue
                # repro-lint: disable=RL001 -- migration replays the journal under the session lock so no edit interleaves mid-copy
                if self._migrate_session(entry, target):
                    migrated += 1
        return migrated

    def _migrate_session(self, entry: _RoutedSession, target: int) -> bool:
        """Replay one session into ``target``, then forget it at the old
        owner.  Caller holds ``entry.lock``.  Returns whether the session
        moved; ``False`` means its journal no longer replays and it was
        dropped (:meth:`_drop`).

        Owner-change-only migration is crash-safe in either direction: a
        crash before the ``forget`` leaves both workers holding the
        session, and recovery (or the next replay) re-derives the single
        owner from the rendezvous — the durable log, not either worker's
        memory, is the source of truth.
        """
        source = self._handles[entry.home]
        try:
            if not self._replay(entry, self._handles[target], source):
                return False
        except WorkerDied as error:
            raise WireError(
                WORKER_FAILED,
                f"worker {target} died while receiving session "
                f"{entry.name!r}: {error}",
            ) from error
        hook = self._migration_fault_hook
        if hook is not None:
            hook(entry.name)
        try:
            source.checked("forget", {"session": entry.name})
        except (WorkerDied, WireError):
            # The old owner is gone or already forgot it; the target holds
            # the authoritative copy either way.
            pass
        entry.home = target
        return True

    # -- the durable session log -------------------------------------------

    def _log_open(
        self, entry: _RoutedSession, payload: Payload, handle: WorkerHandle
    ) -> None:
        """Durably record a session's open (or re-open) before the ack."""
        if self._logs is None:
            return
        try:
            if entry.log is None:
                entry.log = self._logs.open_log(entry.name)
            entry.log.append(KIND_OPEN, payload)
        except StorageError as error:
            self._refuse_unlogged(entry, handle, error)

    def _log_append(
        self,
        entry: _RoutedSession,
        kind: str,
        payload: Payload,
        handle: WorkerHandle,
    ) -> int:
        """Durably append one record; returns the rollback offset.

        This is the RL009 choke point: every router path that acks an
        edit calls here first, and a failed append *refuses* the request
        (``storage_error``) instead of acknowledging something the log
        does not hold.
        """
        if entry.log is None:
            return -1
        try:
            return entry.log.append(kind, payload)
        except StorageError as error:
            self._refuse_unlogged(entry, handle, error)
            raise AssertionError("unreachable") from error  # pragma: no cover

    def _log_rollback(self, entry: _RoutedSession, offset: int) -> None:
        """Undo a pre-dispatch append the worker then rejected."""
        if entry.log is not None and offset >= 0:
            entry.log.rollback_to(offset)

    def _refuse_unlogged(
        self, entry: _RoutedSession, handle: WorkerHandle, error: StorageError
    ) -> None:
        """A durable append failed after the worker already applied the
        request: the worker's state is now ahead of the log, so the worker
        is killed — its replacement replays from the journal, restoring
        log-and-state agreement — and the client gets the typed
        ``storage_error`` instead of an acknowledgement."""
        handle.kill()
        raise WireError(
            STORAGE_ERROR,
            f"session {entry.name!r}: could not durably log the request "
            f"({error}); the edit was not acknowledged",
        ) from error

    def _discard_log(self, entry: _RoutedSession) -> None:
        """Drop a session's durable log (clean close, drop, migration of a
        session that no longer replays)."""
        if entry.log is not None:
            entry.log.delete()
            entry.log = None
        elif self._logs is not None:
            self._logs.discard(entry.name)

    def _recover(self) -> None:
        """Rebuild every logged session after a router restart.

        Snapshot-load + delta replay: the durable log yields each
        session's latest baseline (open payload or compacted snapshot)
        plus the edit window after it; each is replayed into its
        rendezvous owner, in parallel across workers.  Torn or corrupt
        log tails were already skipped (and counted) by
        :meth:`repro.server.durability.LogStore.recover`; a session whose
        journal no longer replays is dropped everywhere and counted
        (:meth:`_drop`), never raised.
        """
        assert self._logs is not None
        logs = self._logs
        report = logs.recover()
        self._log_skipped_records += report.skipped_records
        self._dropped_sessions += report.dropped_sessions
        by_home: dict[int, list[RecoveredSession]] = {}
        for recovered in report.sessions:
            home = session_home(recovered.name, self._count)
            by_home.setdefault(home, []).append(recovered)

        def replay_home(home: int, batch: list[RecoveredSession]) -> int:
            handle = self._handles[home]
            recovered_count = 0
            for recovered in batch:
                entry = _RoutedSession(recovered.name, home)
                entry.opened = True
                entry.open_payload = recovered.open_payload
                entry.edits = list(recovered.edits)
                if not self._replay(entry, handle):
                    continue
                entry.log = logs.open_log(recovered.name)
                with self._registry_lock:
                    self._sessions[recovered.name] = entry
                recovered_count += 1
            return recovered_count

        futures = [
            self._fanout.submit(replay_home, home, batch)
            for home, batch in by_home.items()
        ]
        for future in futures:
            self._recovered_sessions += future.result()  # WorkerDied propagates

    def _spawn(self, index: int, *, defer_handshake: bool = False) -> WorkerHandle:
        return WorkerHandle(
            index,
            self._config,
            request_timeout=self._request_timeout,
            defer_handshake=defer_handshake,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(1 for h in self._handles if h.alive())
        return (
            f"WorkerPool(workers={self._count}, alive={alive}, "
            f"restarts={self._restarts})"
        )
