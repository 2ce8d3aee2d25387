"""Spans recorded around calls into the server's layers, from outside.

:class:`Tracer` replaces public functions of the server's modules with
timing wrappers for as long as it is installed, and restores the
originals afterwards; nothing under ``src/`` knows it is being traced.
Each span records its name, start, end, parent span, thread and the id of
the client call it serves.  Spans stay in memory until the run ends.

Parents come from a per-thread stack.  A backend ``handle`` runs on the
front's executor thread, not on the client's, so its parent is found
through the session in its payload: every session belongs to one closed-
loop client, which has exactly one call in flight.  Spans that start on a
thread with an empty stack and no session (the service's drain and refresh
pool threads, the router's fan-out threads) are attributed after the run
to the tick, drain or restart span whose interval contains them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Span names whose wrapper may adopt a client call through the session
#: named in the payload (the first positional argument after ``self`` and
#: ``verb``).
ROOT_NAMES = ("wire.handle", "workers.handle")

#: Root spans that no client call causes: the background tick, and a
#: router restart (recorded by the benchmark around the pool's start).
BACKGROUND_ROOTS = ("wire.tick", "workers.recover")

#: Spans that other threads' parentless spans are attributed to by time.
ENCLOSING_NAMES = (*BACKGROUND_ROOTS, "service.drain")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "call", "note")

    def __init__(
        self, span_id: int, name: str, parent: "Span | None", call: "Span | None"
    ) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.call = call
        self.thread = threading.current_thread().name
        self.note: Any = None
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: session name -> client index, and client index -> in-flight call.
        self.owner: dict[str, int] = {}
        self.in_flight: dict[int, Span] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, adopt: Span | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else adopt
        span = Span(next(self._ids), name, parent, parent.call if parent else None)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def call(self, verb: str, client: int) -> Iterator[Span]:
        """The root span of one client call (``client.<verb>``)."""
        span = self._open(f"client.{verb}")
        span.call = span
        self.in_flight[client] = span
        try:
            yield span
        finally:
            del self.in_flight[client]
            self._close(span)

    @contextmanager
    def background(self, name: str) -> Iterator[Span]:
        """A root span no client call causes (one of BACKGROUND_ROOTS)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _adopt(self, args: tuple[Any, ...]) -> Span | None:
        payload = args[2] if len(args) > 2 else None
        session = payload.get("session") if isinstance(payload, dict) else None
        client = self.owner.get(session) if isinstance(session, str) else None
        return self.in_flight.get(client) if client is not None else None

    # -- installing --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Callable[[tuple[Any, ...], Any, Any], Any] | None = None,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before(args)`` runs ahead of the call and its value, together
        with the arguments and the result, goes to ``note``, whose return
        value is kept on the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        adopting = name in ROOT_NAMES

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            ahead = before(args) if before is not None else None
            span = tracer._open(name, tracer._adopt(args) if adopting else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span.note = note(args, result, ahead)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.patterns.incremental import IncrementalEngine
        from repro.reasoner.encoding import IncrementalSchemaEncoder
        from repro.reasoner.incremental import SessionReasoner
        from repro.sat.solver import CdclSolver
        from repro.server import protocol
        from repro.server.durability import LogStore, SessionLog
        from repro.server.service import ValidationService
        from repro.server.wire import LocalBackend
        from repro.server.workers import WorkerHandle, WorkerPool

        self.wrap(LocalBackend, "handle", "wire.handle")
        self.wrap(LocalBackend, "tick", "wire.tick")
        self.wrap(WorkerPool, "handle", "workers.handle")
        self.wrap(WorkerPool, "tick", "wire.tick")
        self.wrap(WorkerHandle, "request", "workers.pipe")
        self.wrap(SessionLog, "append_batch", "durability.append")
        self.wrap(SessionLog, "compact", "durability.compact")
        self.wrap(LogStore, "recover", "durability.recover")
        self.wrap(ValidationService, "edit", "service.edit")
        self.wrap(
            ValidationService,
            "report_marked",
            "service.report",
            note=lambda args, result, _: result[0] is None,  # ETag hit
        )
        self.wrap(ValidationService, "check", "service.check")
        self.wrap(ValidationService, "drain", "service.drain")
        self.wrap(
            IncrementalEngine,
            "refresh",
            "patterns.refresh",
            before=lambda args: args[0].schema.journal_size - args[0].journal_mark,
            note=lambda args, result, pending: pending,
        )
        self.wrap(protocol, "report_to_payload", "protocol.report_encode")
        self.wrap(protocol, "verdict_to_payload", "protocol.verdict_encode")
        self.wrap(SessionReasoner, "check", "reasoner.check")
        self.wrap(IncrementalSchemaEncoder, "sync", "reasoner.sync")
        self.wrap(IncrementalSchemaEncoder, "__init__", "reasoner.encoder_build")
        self.wrap(
            CdclSolver,
            "solve",
            "sat.solve",
            note=lambda args, result, _: (
                result.conflicts,
                result.decisions,
                result.learned,
            ),
        )

    # -- after the run -----------------------------------------------------

    def attribute_orphans(self) -> int:
        """Give each parentless pool-thread span the innermost tick, drain
        or restart span (on another thread) whose interval contains it; returns
        how many stayed unattributed (a tick already running when the
        wrappers went in has no span of its own)."""
        enclosing = sorted(
            (s for s in self.spans if s.name in ENCLOSING_NAMES),
            key=lambda s: s.start,
            reverse=True,
        )
        unattributed = 0
        for span in self.spans:
            if span.parent is not None or span.name.startswith("client.") or (
                span.name in BACKGROUND_ROOTS
            ):
                continue
            home = next(
                (
                    e
                    for e in enclosing
                    if e.thread != span.thread and e.start <= span.start and span.end <= e.end
                ),
                None,
            )
            if home is None:
                unattributed += 1
            else:
                span.parent = home
        return unattributed


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time (ms): its duration minus the part of its
    interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.id, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start - covered) * 1000.0
    return result


def nests(spans: list[Span], slack: float = 1e-6) -> bool:
    """Does every span lie inside its parent's interval?"""
    return all(
        s.parent is None
        or (s.parent.start - slack <= s.start and s.end <= s.parent.end + slack)
        for s in spans
    )
