"""Warm per-session complete reasoning over the schema change journal.

:class:`SessionReasoner` is the incremental counterpart of
:class:`~repro.reasoner.modelfinder.BoundedModelFinder`: it keeps one
persistent :class:`~repro.sat.solver.CdclSolver` per domain size, fed from a
selector-guarded :class:`~repro.reasoner.encoding.IncrementalSchemaEncoder`.
Each :meth:`check` drains the schema's :class:`~repro.orm.schema.SchemaChange`
journal, retires the clause groups of removed/changed elements (handing the
retired selectors to the solver, which fixes them false at level 0 and
deletes the groups' clauses and the lemmas that depended on them), emits
guarded groups for added ones, and re-solves under assumptions for the live
groups only — so the per-edit cost is proportional to the edit, not to the
schema or its history, and the clauses the solver *learned* during earlier
checks keep pruning the search of later ones.

Verdicts are *identical* to a fresh ``BoundedModelFinder`` run (property-
tested): the same iterative-deepening sweep, the same goal semantics, and
every SAT witness is re-validated against the ground-truth checker.

Rebuild-from-cold fallbacks (the warm path must never be wrong, only
occasionally slower):

* **journal truncated** below a context's mark (the reasoner registers as a
  journal consumer, so this only happens for detached/restored schemas);
* **value-universe change** — the encoder's individual set is immutable, and
  an edit that adds or removes a value-constrained object type changes the
  set of value individuals;
* **retired-group pileup** — a retired group costs a check nothing, but the
  encoder's :class:`~repro.sat.cnf.CnfBuilder` keeps every clause and
  variable name it has emitted, so after :data:`MAX_RETIRED_GROUPS`
  retirements the context is rebuilt to bound its memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exceptions import SchemaError
from repro.orm.schema import Schema, SchemaChange
from repro.reasoner.encoding import (
    GOAL_STRONG,
    Goal,
    GroupKey,
    IncrementalSchemaEncoder,
)
from repro.reasoner.modelfinder import Verdict, sweep_sizes, validate_witness
from repro.sat.solver import CdclSolver

#: Rebuild a warm context once this many groups have been retired (its
#: memory bound: the encoder keeps what it emitted for retired groups).
MAX_RETIRED_GROUPS = 256

#: Default per-solve conflict budget for warm checks.  ``check`` holds the
#: session lock while it runs, so one solve must not stall the session's
#: edits indefinitely; an exhausted budget surfaces as an inconclusive size
#: (the sweep's existing "unknown" bookkeeping) and the learned clauses kept
#: by the solver make a retried check cheaper, not a restart from scratch.
MAX_CHECK_CONFLICTS = 200_000


@dataclass
class _WarmContext:
    """One persistent encoder + solver pair for one domain size."""

    encoder: IncrementalSchemaEncoder
    solver: CdclSolver
    fed: int = 0  # clauses already handed to the solver
    mark: int = 0  # journal position the encoder reflects
    checks: int = 0
    rebuilds: int = 0


@dataclass
class SessionStats:
    """Counters describing how warm the reasoner has been running."""

    checks: int = 0
    solves: int = 0
    cold_rebuilds: int = 0
    contexts: dict[int, int] = field(default_factory=dict)  # size -> checks


class SessionReasoner:
    """Incremental bounded satisfiability checking for one live schema.

    The reasoner holds a reference to a mutable :class:`Schema` and keeps
    its encodings in sync through the change journal; it registers itself as
    a journal consumer (exposing :attr:`journal_mark`) so checkpoint
    compaction never truncates entries it still needs.
    """

    def __init__(
        self,
        schema: Schema,
        strict_subtypes: bool = True,
        default_type_exclusion: bool = True,
        max_decisions: int | None = 2_000_000,
        max_conflicts: int | None = MAX_CHECK_CONFLICTS,
        learning: bool = True,
    ) -> None:
        self._schema = schema
        self._strict = strict_subtypes
        self._top_exclusion = default_type_exclusion
        self._max_decisions = max_decisions
        self._max_conflicts = max_conflicts
        self._learning = learning
        self._contexts: dict[int, _WarmContext] = {}
        # (journal position, desired-groups dict): desired_groups() is
        # schema-level, so one computation per edit serves every per-size
        # context the sweep syncs.
        self._desired_cache: tuple[int, dict[GroupKey, None]] | None = None
        self.stats = SessionStats()
        schema.attach_journal_consumer(self)

    @property
    def journal_mark(self) -> int:
        """The lowest journal position any warm context still needs."""
        if not self._contexts:
            return self._schema.journal_size
        return min(context.mark for context in self._contexts.values())

    # -- public API --------------------------------------------------------

    def check(self, goal: Goal = GOAL_STRONG, max_domain: int = 4) -> Verdict:
        """Iterative-deepening satisfiability check on the current schema.

        Semantics match :meth:`BoundedModelFinder.check` exactly, including
        the continue-past-``"unknown"`` sweep and accumulated statistics.
        """
        self.stats.checks += 1
        return sweep_sizes(self._check_at, goal, max_domain)

    # -- internals ---------------------------------------------------------

    def _check_at(self, goal: Goal, size: int) -> Verdict:
        started = time.perf_counter()
        context = self._context(size)
        encoder = context.encoder
        assumptions = encoder.assumptions(goal)
        result = context.solver.solve(
            self._max_decisions,
            assumptions=assumptions,
            max_conflicts=self._max_conflicts,
        )
        elapsed = time.perf_counter() - started
        self.stats.solves += 1
        context.checks += 1
        self.stats.contexts[size] = context.checks
        stats = encoder.builder.stats()
        verdict = Verdict(
            status={True: "sat", False: "unsat", None: "unknown"}[result.status],
            goal=goal,
            domain_size=size,
            decisions=result.decisions,
            conflicts=result.conflicts,
            restarts=result.restarts,
            learned_clauses=result.learned,
            kept_clauses=result.learned_kept,
            # Note: these count the whole warm clause database, including
            # retired groups — a capacity measure, not a per-check cost.
            clauses=stats["clauses"],
            variables=stats["variables"],
            elapsed_seconds=elapsed,
            sizes_tried=(size,),
            inconclusive_sizes=(size,) if result.status is None else (),
        )
        if result.is_sat:
            witness = encoder.decode_model(result.model)
            validate_witness(
                self._schema,
                goal,
                witness,
                strict_subtypes=self._strict,
                default_type_exclusion=self._top_exclusion,
            )
            verdict.witness = witness
        return verdict

    def _context(self, size: int) -> _WarmContext:
        """The warm context for ``size``, synced to the current schema."""
        context = self._contexts.get(size)
        if context is None:
            return self._build_context(size)
        try:
            changes = self._schema.changes_since(context.mark)
        except SchemaError:
            # Journal truncated below our mark: replay is impossible.
            return self._build_context(size)
        if not changes:
            return context
        if any(self._invalidates_universe(change) for change in changes):
            return self._build_context(size)
        touched: set[GroupKey] = set()
        for change in changes:
            touched.update(self._touched_keys(change))
        retired = context.encoder.sync(touched, desired=self._desired_now(context))
        if retired:
            # The encoder stops assuming these selectors: the solver fixes
            # them false at level 0 and drops their clauses and lemmas.
            context.solver.retire_selectors(retired)
        context.mark = self._schema.journal_size
        if context.encoder.retired_group_count > MAX_RETIRED_GROUPS:
            return self._build_context(size)
        self._feed(context)
        return context

    def _desired_now(self, context: _WarmContext) -> dict[GroupKey, None]:
        """The current desired-groups dict, computed once per journal state."""
        mark = self._schema.journal_size
        cached = self._desired_cache
        if cached is None or cached[0] != mark:
            cached = (mark, context.encoder.desired_groups())
            self._desired_cache = cached
        return cached[1]

    def _build_context(self, size: int) -> _WarmContext:
        old = self._contexts.get(size)
        encoder = IncrementalSchemaEncoder(
            self._schema,
            num_abstract=size,
            strict_subtypes=self._strict,
            default_type_exclusion=self._top_exclusion,
        )
        context = _WarmContext(
            encoder=encoder,
            solver=CdclSolver(0, [], learning=self._learning),
            mark=self._schema.journal_size,
            checks=old.checks if old else 0,
            rebuilds=(old.rebuilds + 1) if old else 0,
        )
        if old is not None:
            self.stats.cold_rebuilds += 1
        self._feed(context)
        self._contexts[size] = context
        return context

    def _feed(self, context: _WarmContext) -> None:
        """Hand any newly built clauses, with their guards, to the
        persistent solver."""
        builder = context.encoder.builder
        solver = context.solver
        solver.ensure_num_vars(builder.num_vars)
        start = context.fed
        for clause, guard in zip(builder.clauses[start:], builder.guards[start:]):
            solver.add_clause(clause, guard=guard)
        context.fed = len(builder.clauses)

    @staticmethod
    def _invalidates_universe(change: SchemaChange) -> bool:
        """Does this edit change the value-individual universe?"""
        if change.kind != "object_type":
            return False
        return getattr(change.payload, "values", None) is not None

    @staticmethod
    def _touched_keys(change: SchemaChange) -> set[GroupKey]:
        """Groups whose content a journal entry may have changed.

        Purely additive or purely removing edits are already covered by the
        encoder's desired-vs-active diff; *touched* keys matter for
        remove-then-re-add sequences inside one journal window, where the
        key survives but the element behind it changed.
        """
        if change.kind == "object_type":
            return {("poptype", change.name)}
        if change.kind == "fact_type":
            return {("fact", change.name), ("popfact", change.name)}
        if change.kind == "subtype":
            link = change.payload
            return {("subtype", link.sub, link.super)}  # type: ignore[union-attr]
        if change.kind == "constraint":
            return {("constraint", change.name)}
        raise AssertionError(f"unknown journal entry kind: {change.kind!r}")
