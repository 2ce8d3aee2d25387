"""Developer tooling that machine-checks the repo's concurrency contracts.

PRs 3-7 grew a three-layer concurrent serving stack around the paper
reproduction (multi-session :class:`~repro.server.service.ValidationService`,
asyncio :mod:`repro.server.wire` front, multiprocessing
:mod:`repro.server.workers` pool) whose invariants — session-lock
discipline, typed-errors-never-tracebacks at the wire boundary,
journal-consumer registration, selector-guard pairing in the SAT encoder —
were enforced only by convention.  This package makes them enforced:

* :mod:`repro.devtools.lint` — an AST-walking static analyzer with
  repo-specific rules (codes ``RL001``+), runnable as
  ``python -m repro.devtools.lint src/`` and gated in CI;
* :mod:`repro.devtools.locktrace` — an opt-in (``REPRO_LOCKTRACE=1``)
  runtime lock-order detector that instruments every lock the server stack
  creates, fails on lock-order cycles (potential deadlocks) and on blocking
  syscalls made while a lock is held, and rides along with the
  ``tests/server`` suites so every concurrency test doubles as a
  race/deadlock probe;
* :mod:`repro.devtools.contract` — a static wire-contract analyzer
  (``python -m repro.devtools.contract src/``) that extracts the JSON
  protocol from source into ``docs/protocol_spec.json``, cross-checks the
  client/front/worker layers against each other, and fails CI when the
  contract drifts without a ``WIRE_VERSION``/``WORKER_PROTOCOL_VERSION``
  bump.

The catalogue of enforced contracts lives in ``docs/invariants.md``.
"""

from __future__ import annotations

__all__ = ["contract", "lint", "locktrace"]
