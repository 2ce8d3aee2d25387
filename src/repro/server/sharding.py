"""Session placement for the multi-process router: rendezvous hashing.

:class:`repro.server.workers.WorkerPool` places whole *sessions* on its
worker subprocesses.  The owner of a session is derived from its name
alone — highest-random-weight (rendezvous) hashing over the worker
indices with a keyed BLAKE2b score — so any router thread, or a restarted
router, computes the same placement without shared state, and resizing
the pool moves only the sessions whose rendezvous winner changed.
"""

from __future__ import annotations

import hashlib


def rendezvous_score(worker_index: int, session_name: str) -> int:
    """The rendezvous (HRW) weight of one (worker, session) pairing.

    A keyed BLAKE2b digest, *not* Python's salted ``hash``: the same pair
    scores identically in every process and across restarts, which is
    what lets a restarted router (or any router thread) re-derive every
    placement from names alone.
    """
    digest = hashlib.blake2b(
        f"{worker_index}\x1f{session_name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_owner(session_name: str, worker_count: int) -> int:
    """The worker index that wins the rendezvous for a session name.

    Highest-random-weight hashing: every worker scores the name, the
    highest score owns it.  Unlike ``hash mod N``, resizing the pool
    N → N±1 re-scores everything but changes the *winner* for only ~1/N
    of the names — the minimal-disruption property the runtime ``resize``
    verb relies on to migrate only the sessions whose owner changed.
    """
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")
    return max(
        range(worker_count), key=lambda index: rendezvous_score(index, session_name)
    )


def session_home(session_name: str, worker_count: int) -> int:
    """The worker-process index that owns a session, by name.

    The multi-process router (:class:`repro.server.workers.WorkerPool`)
    places whole *sessions* by rendezvous hashing: routing is stateless —
    any router thread (or a restarted router) derives a session's home
    worker from its name alone, a worker revived in place inherits
    exactly the sessions it owned before dying, and growing or shrinking
    the pool relocates only the ~1/N of sessions whose rendezvous winner
    changed (see :func:`rendezvous_owner`).
    """
    return rendezvous_owner(session_name, worker_count)
