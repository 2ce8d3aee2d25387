"""`ValidationService` — many modeling sessions behind one validation loop.

The paper's Sec. 4 experience report is a *tool* story: validation after
every edit, for a room full of modelers working concurrently.  PR 1-2 made
one session flat-cost per edit; this module is the scale-out step — one
service owning many named sessions/schemas behind a four-verb API
(:meth:`ValidationService.open` / :meth:`~ValidationService.edit` /
:meth:`~ValidationService.report` / :meth:`~ValidationService.close`).

**The batched-drain contract.**  Edits applied through the service mutate
the session's schema (journaling every change) but do **not** validate.
Validation happens when a session's journal is *drained*: explicitly via
:meth:`~ValidationService.report`, or for many sessions at once via
:meth:`~ValidationService.drain` — the service tick.  One drain consumes
the whole pending journal window in a single
:meth:`~repro.patterns.incremental.IncrementalEngine.refresh`, so N edits
between ticks cost one scope computation instead of N.  The report a
drain produces is **exact**, not approximate: whatever the batching, it
equals the from-scratch analysis of the current schema as a multiset of
findings (property-tested in ``tests/server/test_service.py``).

**Threads.**  The service owns none: every drain and refresh runs on the
calling thread, over plain ``dict`` finding stores.  Each session owns a
lock that serializes its edits with its drains; callers on different
threads (the wire front's executor, a test's editor threads) may work on
different sessions at once, but refreshes are CPU-bound Python sharing
one GIL, so a thread pool would add hand-offs without adding throughput.
More cores are reached with processes instead: the router of
:mod:`repro.server.workers` runs one service per worker subprocess.

**Memory.**  Only the ``max_live_engines`` most-recently-used sessions
keep a live engine; idle engines are *suspended* into
:class:`~repro.patterns.incremental.EngineSnapshot`\\ s (finding stores +
journal mark).  A suspended session keeps accepting edits — its journal
simply grows — and its next drain resumes the engine by replaying exactly
the journal-checkpoint window since the snapshot's mark, falling back to a
full rebuild only if the window was truncated.
"""

from __future__ import annotations

import copy
import threading
import uuid
import zlib
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

from typing import Any

from repro.exceptions import SchemaError, UnknownElementError
from repro.orm.schema import Schema
from repro.patterns.incremental import EngineSnapshot, IncrementalEngine
from repro.reasoner.encoding import GOAL_STRONG, Goal
from repro.reasoner.incremental import MAX_CHECK_CONFLICTS, SessionReasoner
from repro.reasoner.modelfinder import Verdict
from repro.tool.validator import ToolReport, ValidatorSettings, report_from_engine

#: Session-style edit verbs accepted by :meth:`ValidationService.edit`,
#: mapped to the Schema mutator that implements them (the Schema method
#: names themselves are accepted too).  Arguments follow the Schema
#: mutator's signature.
EDIT_VERBS: dict[str, str] = {
    "add_entity": "add_entity_type",
    "add_value_type": "add_value_type",
    "add_subtype": "add_subtype",
    "add_fact": "add_fact_type",
    "add_mandatory": "add_mandatory",
    "add_uniqueness": "add_uniqueness",
    "add_frequency": "add_frequency",
    "add_exclusion": "add_exclusion",
    "add_exclusive_types": "add_exclusive_types",
    "add_subset": "add_subset",
    "add_equality": "add_equality",
    "add_ring": "add_ring",
    "remove_constraint": "remove_constraint",
    "remove_subtype": "remove_subtype",
    "remove_fact": "remove_fact_type",
    "remove_entity": "remove_object_type",
}

_SCHEMA_VERBS = frozenset(EDIT_VERBS.values())


@dataclass
class DrainStats:
    """What one :meth:`ValidationService.drain` tick did."""

    examined: int = 0  # sessions considered
    drained: int = 0  # sessions that actually consumed changes
    changes: int = 0  # journal entries consumed across all sessions
    resumed: int = 0  # engines resurrected from snapshots (window replay)
    rebuilt: int = 0  # engines rebuilt from scratch


@dataclass
class ServiceStats:
    """Cumulative service counters (approximate under concurrency)."""

    sessions: int
    live_engines: int
    suspended_engines: int
    live_sites: int
    edits: int
    drains: int
    changes_drained: int
    evictions: int
    resumes: int
    rebuilds: int


class _SessionState:
    """One session's mutable state; every access goes through ``lock``."""

    __slots__ = (
        "name",
        "schema",
        "settings",
        "lock",
        "engine",
        "engine_key",
        "snapshot",
        "reasoner",
        "edits",
        "epoch",
    )

    def __init__(self, name: str, schema: Schema, settings: ValidatorSettings) -> None:
        self.name = name
        self.schema = schema
        self.settings = settings
        self.lock = threading.Lock()
        self.engine: IncrementalEngine | None = None
        self.engine_key: tuple[Any, ...] | None = None  # settings.family_key()
        self.snapshot: EngineSnapshot | None = None
        # Warm complete reasoner (SessionReasoner), built lazily on the
        # session's first `check` and kept in sync through the journal.
        self.reasoner: SessionReasoner | None = None
        self.edits = 0
        # A random per-open nonce prefixed to report marks.  The journal
        # position alone is not a safe ETag across session *instances*: a
        # session re-homed to another worker process replays into a fresh
        # schema whose journal counter can coincide with the old one at a
        # different schema state.  The epoch makes marks from different
        # instances never compare equal.
        self.epoch = uuid.uuid4().hex[:12]

    def mark(self) -> str:
        """The session's opaque report ETag.

        Epoch + journal position + analysis-profile fingerprint: the mark
        compares equal iff nothing that can change the report did.
        ``journal_size`` is monotonic and keeps counting truncated entries
        across :meth:`repro.orm.schema.Schema.compact_journal`, so journal
        compaction can neither produce a false hit nor invalidate the
        current mark; the profile fingerprint covers in-process callers
        toggling ``settings`` families, which alters the report without a
        journal entry.
        """
        profile = zlib.crc32(repr(self.settings.family_key()).encode("utf-8"))
        return f"{self.epoch}:{self.schema.journal_size}:{profile:08x}"

    def pending_changes(self) -> int:
        """Journal entries recorded since the session's engine last drained."""
        if self.engine is not None:
            return self.schema.journal_size - self.engine.journal_mark
        if self.snapshot is not None:
            return self.schema.journal_size - self.snapshot.mark
        return self.schema.journal_size  # engine never built: everything pends


class SessionHandle:
    """Public facade of one open session.

    ``schema`` is the live schema object — direct mutation is fine from a
    single thread (the journal records everything, and the next drain picks
    it up); concurrent writers must go through :meth:`edit`, which takes
    the session lock and so serializes with drains of the same session.
    """

    def __init__(self, service: "ValidationService", state: _SessionState) -> None:
        self._service = service
        self._state = state

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def schema(self) -> Schema:
        return self._state.schema

    @property
    def settings(self) -> ValidatorSettings:
        return self._state.settings

    @property
    def pending_changes(self) -> int:
        """Journal entries not yet reflected in the session's findings."""
        return self._state.pending_changes()

    def edit(self, verb: str, *args: Any, **kwargs: Any) -> Any:
        """Apply one edit (no validation; see the batched-drain contract)."""
        return self._service.edit(self.name, verb, *args, **kwargs)

    def report(self) -> ToolReport:
        """Drain this session and return its current report."""
        return self._service.report(self.name)

    def close(self) -> ToolReport:
        """Close this session, returning its final report."""
        return self._service.close(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionHandle({self.name!r}, pending={self.pending_changes})"


class ValidationService:
    """Many named modeling sessions behind one batched validation loop.

    Parameters
    ----------
    settings:
        Default :class:`ValidatorSettings` profile for sessions opened
        without their own (deep-copied per session, so later per-session
        toggling stays isolated).
    max_live_engines:
        LRU capacity for live engines, in engine *count*.  Sessions beyond
        it are suspended (finding stores + journal mark) and resumed on
        their next drain by replaying the journal window.  Eviction is
        best-effort: a session whose lock is busy is skipped (it is hot by
        definition).
    max_live_sites:
        Optional live-engine budget in **check sites** (the sum of
        :meth:`repro.patterns.incremental.IncrementalEngine.site_count`
        over live engines).  Engine count treats a giant schema and a tiny
        one as equal tenants; weighting by site count stops one giant
        engine from pinning the memory the budget was meant to bound —
        the giant is suspended first even when the engine count is under
        ``max_live_engines``.  ``None`` (default) keeps pure count-LRU.
    max_workers:
        Accepted only as ``0`` or ``None``, and ignored: drains always run
        on the calling thread.  It stays in the signature because the
        repo benchmark's oracle (``perfbench/harness.py``) builds its
        reference run with ``ValidationService(max_workers=0)``; any
        other value raises :class:`ValueError` rather than silently
        promising a thread pool.
    """

    def __init__(
        self,
        *,
        settings: ValidatorSettings | None = None,
        max_live_engines: int = 16,
        max_live_sites: int | None = None,
        max_workers: int | None = None,
    ) -> None:
        if max_workers not in (0, None):
            raise ValueError(
                f"max_workers must be 0 or None (drains run on the calling "
                f"thread), got {max_workers}"
            )
        if max_live_engines < 1:
            raise ValueError(f"max_live_engines must be >= 1, got {max_live_engines}")
        if max_live_sites is not None and max_live_sites < 1:
            raise ValueError(f"max_live_sites must be >= 1, got {max_live_sites}")
        self._default_settings = settings or ValidatorSettings()
        self.max_live_engines = max_live_engines
        self.max_live_sites = max_live_sites
        self._sessions: dict[str, _SessionState] = {}
        self._lru: OrderedDict[str, None] = OrderedDict()
        self._registry_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._edits = 0
        self._drains = 0
        self._changes_drained = 0
        self._evictions = 0
        self._resumes = 0
        self._rebuilds = 0

    # -- the four verbs --------------------------------------------------

    def open(
        self,
        name: str,
        settings: ValidatorSettings | None = None,
        schema: Schema | None = None,
    ) -> SessionHandle:
        """Open a named session (optionally adopting an existing schema).

        The session's engine is built eagerly (one full check), subject to
        the same LRU capacity as everything else.
        """
        state = _SessionState(
            name,
            schema if schema is not None else Schema(name),
            copy.deepcopy(settings or self._default_settings),
        )
        with self._registry_lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} is already open")
            self._sessions[name] = state
            self._lru[name] = None
        with state.lock:
            self._ensure_engine(state)
        return SessionHandle(self, state)

    def edit(self, name: str, verb: str, *args: Any, **kwargs: Any) -> Any:
        """Apply one edit to a session's schema — **without** validating.

        ``verb`` is a session-style verb from :data:`EDIT_VERBS` (or the
        Schema mutator name directly); arguments follow the Schema
        mutator's signature.  Returns whatever the mutator returns (the
        created element — useful for generated constraint labels).
        Validation is deferred to the next drain of this session.
        """
        if verb in EDIT_VERBS:
            method = EDIT_VERBS[verb]
        elif verb in _SCHEMA_VERBS:
            method = verb
        else:
            raise UnknownElementError("edit verb", verb)
        state = self._state(name)
        with state.lock:
            result = getattr(state.schema, method)(*args, **kwargs)
            state.edits += 1
        with self._stats_lock:
            self._edits += 1
        return result

    def report(self, name: str) -> ToolReport:
        """Drain one session and return its current (exact) report."""
        report, _ = self.report_marked(name)
        return report

    def report_marked(
        self, name: str, if_mark: str | None = None
    ) -> tuple[ToolReport | None, str]:
        """Drain one session; return ``(report, mark)`` with an ETag.

        ``mark`` is an opaque token identifying the session's journal
        position (see :meth:`_SessionState.mark`).  When the caller echoes
        the mark of a previous report as ``if_mark`` and no edit has been
        applied since, the report is **not** recomputed or re-assembled and
        ``(None, mark)`` is returned — the 304-style short-circuit behind
        the wire protocol's ``if_mark`` field.  A mark can only hit if the
        server itself issued it for this session instance, so a hit always
        means "the schema is exactly as it was when that report was built".
        """
        state = self._state(name)
        with state.lock:
            mark = state.mark()
            if if_mark is not None and if_mark == mark:
                # The mark was issued after a drain to this very journal
                # position under this very analysis profile (edits take
                # the session lock, so the position cannot move under us):
                # the caller's cached report is still exact.
                return None, mark
            pending = state.pending_changes()  # before ensure: resume replays
            engine, resumed, rebuilt = self._ensure_engine(state)
            # repro-lint: disable=RL001 -- the mark names this exact journal position; refresh must run under the session lock so no edit slips between replay and report
            engine.refresh()
            report = report_from_engine(engine, state.settings)
            mark = state.mark()
        with self._stats_lock:
            self._drains += 1
            self._changes_drained += pending
            self._resumes += resumed
            self._rebuilds += rebuilt
        return report, mark

    def check(
        self, name: str, goal: Goal = GOAL_STRONG, *, max_domain: int = 4
    ) -> Verdict:
        """Complete (bounded) satisfiability check of a session's schema.

        The first call builds the session's warm
        :class:`~repro.reasoner.incremental.SessionReasoner`; subsequent
        calls re-use its persistent solver, syncing the encoding from the
        change journal — so a check after one edit costs roughly one solve,
        not a re-encode of the whole schema.  Runs under the session lock
        (serialized with edits and drains).  A ``"sat"`` verdict carries a
        decoded witness population; ``"unknown"`` means the solver's
        decision or conflict budget ran out at one or more sizes with no
        SAT answer — neither satisfiability nor bounded unsatisfiability is
        established.  The per-solve conflict budget
        (:data:`~repro.reasoner.incremental.MAX_CHECK_CONFLICTS`) bounds how
        long one check can hold the session lock; the clauses the solver
        learned before exhausting it persist, so a retried check resumes
        from a stronger database.
        """
        if max_domain < 0:
            raise ValueError(f"max_domain must be >= 0, got {max_domain}")
        state = self._state(name)
        with state.lock:
            if state.reasoner is None:
                state.reasoner = SessionReasoner(
                    state.schema, max_conflicts=MAX_CHECK_CONFLICTS
                )
            verdict = state.reasoner.check(goal, max_domain)
        self._touch(name)
        return verdict

    def snapshot_schema(self, name: str) -> str:
        """The session's current schema as ORM DSL text.

        Taken under the session lock, so the text is a consistent cut that
        includes every edit acknowledged so far.  This is the journal-
        compaction primitive of the multi-process router
        (:class:`repro.server.workers.WorkerPool`): the re-homing journal
        for a session collapses to one DSL snapshot plus the edit window
        applied since — the same snapshot-plus-replay-window shape as
        :meth:`repro.patterns.incremental.IncrementalEngine.suspend`.
        """
        from repro.io.dsl import write_schema

        state = self._state(name)
        with state.lock:
            # repro-lint: disable=RL001 -- the snapshot must be a consistent cut; the session lock is precisely what makes it one
            return write_schema(state.schema)

    def close(self, name: str) -> ToolReport:
        """Close a session, returning its final report."""
        with self._registry_lock:
            state = self._sessions.pop(name, None)
            self._lru.pop(name, None)
        if state is None:
            raise UnknownElementError("session", name)
        with state.lock:
            engine, resumed, rebuilt = self._ensure_engine(state, touch=False)
            # repro-lint: disable=RL001 -- the final report must reflect every applied edit; the lock excludes concurrent edits during the last refresh
            engine.refresh()
            report = report_from_engine(engine, state.settings)
            state.engine = None
            state.snapshot = None
            state.reasoner = None
        with self._stats_lock:
            self._resumes += resumed
            self._rebuilds += rebuilt
        return report

    def forget(self, name: str) -> None:
        """Discard a session without a final drain or report.

        The live-migration primitive of the multi-process router: after a
        session's journal has been replayed into its new owner worker, the
        old owner only needs to *free* its copy — a :meth:`close` here
        would pay a full final refresh for a report nobody reads.
        """
        with self._registry_lock:
            state = self._sessions.pop(name, None)
            self._lru.pop(name, None)
        if state is None:
            raise UnknownElementError("session", name)
        with state.lock:
            state.engine = None
            state.snapshot = None
            state.reasoner = None

    # -- the service tick ------------------------------------------------

    def drain(
        self, names: Iterable[str] | None = None, *, min_pending: int = 1
    ) -> DrainStats:
        """One service tick: batch-drain every (named) session's journal.

        Sessions with fewer than ``min_pending`` pending journal entries
        are skipped (their stored findings are already current).  Eligible
        sessions are drained one after another on the calling thread, each
        under its own session lock, so a drain is serialized with that
        session's edits and never holds two session locks at once.
        Returns what the tick did.
        """
        floor = max(min_pending, 1)
        with self._registry_lock:
            if names is None:
                targets = list(self._sessions.values())
            else:
                targets = [self._sessions[n] for n in names]  # KeyError: unknown
        stats = DrainStats(examined=len(targets))
        work = [
            state
            for state in targets
            if state.pending_changes() >= floor
            or (state.engine is None and state.snapshot is None)
        ]
        for state in work:
            with state.lock:
                pending = state.pending_changes()  # before ensure: resume replays
                engine, resumed, rebuilt = self._ensure_engine(state)
                # repro-lint: disable=RL001 -- a drain refreshes each session under that session's lock only, one session at a time: O(dirty scope) work on the calling thread
                engine.refresh()
            stats.drained += 1
            stats.changes += pending
            stats.resumed += resumed
            stats.rebuilt += rebuilt
        with self._stats_lock:
            self._drains += stats.drained
            self._changes_drained += stats.changes
            self._resumes += stats.resumed
            self._rebuilds += stats.rebuilt
        return stats

    # -- queries ----------------------------------------------------------

    def session(self, name: str) -> SessionHandle:
        """A handle to an open session (raises on unknown names)."""
        return SessionHandle(self, self._state(name))

    def names(self) -> list[str]:
        """Names of all open sessions, in opening order."""
        with self._registry_lock:
            return list(self._sessions)

    def live_sessions(self) -> list[str]:
        """Names of sessions whose engine is currently live (LRU order,
        least-recently-touched first)."""
        with self._registry_lock:
            return [
                name
                for name in self._lru
                if self._sessions[name].engine is not None
            ]

    def stats(self) -> ServiceStats:
        """Cumulative counters plus the current engine census."""
        with self._registry_lock:
            sessions = len(self._sessions)
            live = sum(1 for s in self._sessions.values() if s.engine is not None)
            suspended = sum(
                1 for s in self._sessions.values() if s.snapshot is not None
            )
            live_sites = sum(
                engine.site_count()
                for s in self._sessions.values()
                if (engine := s.engine) is not None
            )
        with self._stats_lock:
            return ServiceStats(
                sessions=sessions,
                live_engines=live,
                suspended_engines=suspended,
                live_sites=live_sites,
                edits=self._edits,
                drains=self._drains,
                changes_drained=self._changes_drained,
                evictions=self._evictions,
                resumes=self._resumes,
                rebuilds=self._rebuilds,
            )

    # -- lifecycle ---------------------------------------------------------

    # The service owns no threads or handles, so leaving the context
    # releases nothing; it stays a context manager for its callers' scoping.
    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"ValidationService(sessions={stats.sessions}, "
            f"live={stats.live_engines}/{self.max_live_engines}, "
            f"edits={stats.edits}, drains={stats.drains})"
        )

    # -- internals ---------------------------------------------------------

    def _state(self, name: str) -> _SessionState:
        with self._registry_lock:
            state = self._sessions.get(name)
        if state is None:
            raise UnknownElementError("session", name)
        return state

    def _build_engine(self, state: _SessionState) -> IncrementalEngine:
        settings = state.settings
        return IncrementalEngine(
            state.schema,
            enabled=tuple(settings.enabled_ids()),
            advisories=settings.wellformedness,
            formation_rules=settings.formation_rules,
            propagation=settings.propagation,
        )

    def _ensure_engine(
        self, state: _SessionState, *, touch: bool = True
    ) -> tuple[IncrementalEngine, int, int]:
        """The session's live engine (resuming or rebuilding as needed).

        Must be called with ``state.lock`` held.  Returns
        ``(engine, resumed, rebuilt)`` so callers can account for what
        reviving cost.  A changed analysis profile (the session's
        ``settings.family_key()`` no longer matches the one the engine —
        or snapshot — was built under) discards both and rebuilds, exactly
        as :meth:`repro.tool.validator.Validator` does for its single
        engine.
        """
        resumed = rebuilt = 0
        key = state.settings.family_key()
        if state.engine_key is not None and state.engine_key != key:
            state.engine = None
            state.snapshot = None  # stores of the old family profile
        state.engine_key = key
        if state.engine is None:
            if state.snapshot is not None:
                try:
                    state.engine = IncrementalEngine.resume(
                        state.schema, state.snapshot
                    )
                    resumed = 1
                except SchemaError:
                    # replay window truncated: pay the full rebuild
                    state.engine = self._build_engine(state)
                    rebuilt = 1
                state.snapshot = None
            else:
                state.engine = self._build_engine(state)
                rebuilt = 1
            if touch:
                self._evict_over_capacity(exclude=state.name)
        if touch:
            self._touch(state.name)
        return state.engine, resumed, rebuilt

    def _touch(self, name: str) -> None:
        with self._registry_lock:
            if name in self._lru:
                self._lru.move_to_end(name)

    def _evict_over_capacity(self, exclude: str) -> None:
        """Suspend least-recently-used live engines down to capacity.

        Capacity is two-dimensional: engine *count* (``max_live_engines``)
        and, when ``max_live_sites`` is set, total engine *weight* in check
        sites.  Eviction order stays LRU-by-touch, but the site budget
        means one giant engine frees as much room as many small ones — it
        gets suspended even when the engine count is under the cap, instead
        of pinning the whole budget from a single LRU slot.

        Candidates are collected under the registry lock but suspended
        under a *non-blocking* acquire of their own session lock — a busy
        session is hot and is simply skipped, so eviction can never
        deadlock with a concurrent drain (which takes session locks before
        registry peeks, never the other way around).
        """
        with self._registry_lock:
            live = [
                name
                for name in self._lru  # oldest first
                if self._sessions[name].engine is not None
            ]
            # The caller's engine is included in both excess measures.
            excess = len(live) - self.max_live_engines
            site_excess = 0
            if self.max_live_sites is not None:
                weights = {
                    name: engine.site_count()
                    for name in live
                    if (engine := self._sessions[name].engine) is not None
                }
                site_excess = sum(weights.values()) - self.max_live_sites
                evictable = sum(w for name, w in weights.items() if name != exclude)
                if site_excess > evictable:
                    # The excluded (hot) engine alone blows the budget:
                    # suspending every other session would still not fit
                    # and would only churn them through suspend/resume on
                    # each revival of the giant.  Tolerate the over-budget
                    # caller instead; the next touch of a *small* session
                    # evicts the giant normally.
                    site_excess = 0
            candidates = [name for name in live if name != exclude]
        for name in candidates:
            if excess <= 0 and site_excess <= 0:
                return
            state = self._sessions.get(name)
            if state is None or not state.lock.acquire(blocking=False):
                continue
            try:
                if state.engine is None:
                    continue
                site_excess -= state.engine.site_count()
                state.snapshot = state.engine.suspend()
                state.engine = None
                excess -= 1
                with self._stats_lock:
                    self._evictions += 1
            finally:
                state.lock.release()
