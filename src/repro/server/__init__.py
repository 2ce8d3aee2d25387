"""Multi-session validation service with an asyncio wire front.

:class:`ValidationService` owns many named modeling sessions/schemas behind
one ``open``/``edit``/``report``/``check``/``close`` API (``check`` is the
warm bounded-satisfiability verb: a per-session
:class:`~repro.reasoner.incremental.SessionReasoner` kept in sync through
the schema journal), drains each schema's change journal in **batches**
per tick (on the calling thread, under a lock per schema), and keeps only
the hottest engines live — idle ones are suspended to journal-mark
snapshots and resumed by replaying the checkpoint window (see
:mod:`repro.server.service` for the contract).

The service is reachable remotely through the JSON wire protocol
(:mod:`repro.server.protocol`): :class:`repro.server.wire.WireServer` is
the asyncio HTTP front (``orm-validate serve``),
:class:`repro.server.client.ServiceClient` the blocking client
(``orm-validate --batch --server URL``).  With ``workers=N``
(``orm-validate serve --workers N``) the front routes sessions to N
worker **subprocesses** via :class:`repro.server.workers.WorkerPool` —
rendezvous (HRW) session placement, the same JSON shapes over a pipe
transport, crash re-homing by journal replay — without changing the wire
protocol clients speak.  A ``data_dir`` makes the journal durable
(:mod:`repro.server.durability`): every acknowledged open/edit is
fsync'd to an append-only per-session segment log before the ack, so a
router restart recovers every session by snapshot-load + delta replay,
and the ``resize`` verb grows/shrinks the pool at runtime, live-migrating
only the sessions whose rendezvous owner changed.  ``wire``, ``client``
and ``workers`` are imported lazily on attribute access to keep
``import repro.server`` light.
"""

from repro.server.protocol import WireError
from repro.server.service import (
    EDIT_VERBS,
    DrainStats,
    ServiceStats,
    SessionHandle,
    ValidationService,
)
from repro.server.sharding import (
    rendezvous_owner,
    rendezvous_score,
    session_home,
)

__all__ = [
    "DrainStats",
    "EDIT_VERBS",
    "LocalBackend",
    "ServerThread",
    "ServiceClient",
    "ServiceStats",
    "SessionHandle",
    "ValidationService",
    "WireError",
    "WireServer",
    "WorkerPool",
    "rendezvous_owner",
    "rendezvous_score",
    "session_home",
]


def __getattr__(name: str) -> object:
    if name in ("WireServer", "ServerThread", "LocalBackend"):
        from repro.server import wire

        return getattr(wire, name)
    if name == "ServiceClient":
        from repro.server.client import ServiceClient

        return ServiceClient
    if name == "WorkerPool":
        from repro.server.workers import WorkerPool

        return WorkerPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
