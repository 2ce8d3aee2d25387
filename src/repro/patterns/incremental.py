"""Incremental validation: dirty-set scopes and the stateful engine.

The paper's central performance claim is that pattern checking is cheap
enough to run *after every edit* of an interactive modeling session
(Sec. 4).  A full re-validation still costs O(schema) per edit, so edit
cost grows with schema size.  This module makes the per-edit cost
proportional to the **dirty neighborhood** of the edit instead:

1.  :class:`repro.orm.schema.Schema` journals every effective mutation
    (:class:`repro.orm.schema.SchemaChange`) and maintains a dependency
    index (element → referencing constraints/roles/edges).
2.  :func:`scope_from_changes` turns a batch of journal entries into a
    :class:`CheckScope` — the transitive dirty set — via three closures:

    * **fact-partner closure**: a dirty role dirties its partner role and
      fact type (Pattern 4's pool check looks across the predicate);
    * **constraint co-reference closure**: a dirty role dirties every
      constraint referencing it, and those constraints' other roles, to a
      fixpoint (Pattern 7's uniqueness/frequency interplay, X3's
      exclusion chains);
    * **vertical subtype closure**: a type whose subtype edges changed
      dirties all its ancestors *and* descendants (``graph_types``) —
      subtype-closure queries look both up (P1, P4's inherited pools) and
      down (P2, P9) the graph.  Types whose *role set* changed (a fact was
      added/removed) dirty only themselves and their ancestors
      (``member_types``) — enough for X2's blast-radius bookkeeping
      without dragging whole subtrees in.

    Set-comparison constraints compose transitively (Pattern 6's SetPaths),
    but composition cannot cross a connected component of the subset/
    equality graph.  The scope therefore records the *roles* referenced by
    changed subset/equality constraints (``setcomp_roles``), and
    :meth:`CheckScope.setcomp_closure` expands them to their full current
    components via :class:`repro.setcomp.SetPathComponents` — set-comparison
    sensitive sites outside the touched components stay clean.

3.  :class:`IncrementalEngine` keeps, per analysis — the nine patterns,
    and optionally the well-formedness advisories
    (:mod:`repro.patterns.advisories`), the formation rules
    (:mod:`repro.patterns.formation_rules`) and the propagation fixpoint
    (:mod:`repro.patterns.propagation`) — the findings of every **check
    site** (see :mod:`repro.patterns.base`).  On
    :meth:`IncrementalEngine.refresh` it retracts the stored verdicts of
    every dirty site (including sites that vanished — that is how
    finding *retraction* on deletion works) and merges in the freshly
    computed verdicts of the dirty sites that still exist, all from one
    journal drain.

The merge is exact, not heuristic: for every edit script, the cumulative
report of each family equals its from-scratch analysis
(:meth:`PatternEngine.check`, :func:`repro.orm.wellformed.check_wellformedness`,
:func:`repro.patterns.formation_rules.check_formation_rules`,
:func:`repro.patterns.propagation.propagate`) as a multiset of findings
(property-tested in ``tests/patterns/test_incremental.py``).  Report
ordering is canonical (sorted within each analysis) rather than
schema-insertion order.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

from repro.orm.constraints import (
    AnyConstraint,
    EqualityConstraint,
    SubsetConstraint,
)
from repro.orm.schema import Schema, SchemaChange
from repro.patterns.base import ValidationReport, Violation
from repro.patterns.engine import PatternEngine
from repro.setcomp import SetPathComponents, SetPathGraph


class CheckScope:
    """The dirty neighborhood of a batch of schema changes.

    Patterns consult it through a small query surface:

    ``graph_types``
        types whose subtype *closure* may have changed — vertically closed
        over ancestors and descendants;
    ``member_types``
        types whose role set (or value pool membership) may have changed —
        closed over ancestors only;
    ``roles`` / ``fact_types`` / ``labels``
        dirty roles, fact types and constraint labels after the partner and
        co-reference closures;
    ``setcomp_roles``
        roles referenced by changed subset/equality constraints;
        :meth:`setcomp_closure` widens them to their full SetPath
        components (set-comparison sensitive sites consult that closure).
    """

    def __init__(
        self,
        graph_types: frozenset[str] = frozenset(),
        member_types: frozenset[str] = frozenset(),
        roles: frozenset[str] = frozenset(),
        fact_types: frozenset[str] = frozenset(),
        labels: frozenset[str] = frozenset(),
        setcomp_roles: frozenset[str] = frozenset(),
    ) -> None:
        self.graph_types = graph_types
        self.member_types = member_types
        self.roles = roles
        self.fact_types = fact_types
        self.labels = labels
        self.setcomp_roles = setcomp_roles
        self._candidates: list[AnyConstraint] | None = None
        self._setcomp_closure: frozenset[str] | None = None
        self._setpath_graph: SetPathGraph | None = None

    @property
    def setcomp_dirty(self) -> bool:
        """True when any subset/equality constraint changed."""
        return bool(self.setcomp_roles)

    @property
    def is_empty(self) -> bool:
        """True when nothing is dirty (refresh can return the cached report)."""
        return not (
            self.graph_types
            or self.member_types
            or self.roles
            or self.fact_types
            or self.labels
            or self.setcomp_roles
        )

    def setcomp_closure(self, schema: Schema) -> frozenset[str]:
        """The SetPath-dirty role set: ``setcomp_roles`` plus every role in
        the same connected component of the *current* subset/equality graph.

        Roles of removed constraints stay in the closure even when they no
        longer appear in any set-comparison constraint — their sites must be
        rechecked because a path through the removed edge may have vanished.
        Cached per scope (components are rebuilt once per refresh).
        """
        if self._setcomp_closure is None:
            if not self.setcomp_roles:
                self._setcomp_closure = frozenset()
            else:
                components = SetPathComponents.from_schema(schema)
                self._setcomp_closure = self.setcomp_roles | components.members_of(
                    self.setcomp_roles
                )
        return self._setcomp_closure

    def setpath_graph(self, schema: Schema) -> SetPathGraph:
        """The SetPath graph of the *current* schema, built lazily and at
        most once per scope — every set-comparison-sensitive check of a
        refresh (Pattern 6, RIDL S1-S3) shares this one graph instead of
        rebuilding it per check (or, worse, per site)."""
        if self._setpath_graph is None:
            self._setpath_graph = SetPathGraph.from_schema(schema)
        return self._setpath_graph

    def setcomp_site_dirty(self, schema: Schema, roles: Iterable[str]) -> bool:
        """Did the SetPath environment of a site over ``roles`` change?"""
        if not self.setcomp_roles:
            return False
        closure = self.setcomp_closure(schema)
        return any(role in closure for role in roles)

    def candidate_constraints(self, schema: Schema) -> list[AnyConstraint]:
        """Every existing constraint whose verdict may have changed.

        The union of (a) constraints whose label is dirty — the co-reference
        closure already put every constraint referencing a dirty role here —
        and (b) constraints referencing a role of a fact played by a
        ``graph_types`` member (their subtype/value-pool environment moved),
        and (c) constraints referencing a dirty type directly (exclusive-X).
        Part (b) reads the schema's per-type constraint rollup
        (:meth:`repro.orm.schema.Schema.constraints_on_type_facts`) instead
        of re-walking the type's roles, facts and partner roles — on wide
        hub types that walk dominated refresh cost.  Cached per scope;
        deterministic order.
        """
        if self._candidates is not None:
            return self._candidates
        seen: set[int] = set()
        out: list[AnyConstraint] = []

        def add(constraint: AnyConstraint) -> None:
            if id(constraint) not in seen:
                seen.add(id(constraint))
                out.append(constraint)

        for label in sorted(self.labels):
            if schema.has_constraint_label(label):
                add(schema.constraint_by_label(label))
        for type_name in sorted(self.graph_types):
            for constraint in schema.constraints_referencing_type(type_name):
                add(constraint)
            for constraint in schema.constraints_on_type_facts(type_name):
                add(constraint)
        self._candidates = out
        return out

    def fact_players_dirty(self, schema: Schema, constraint: AnyConstraint) -> bool:
        """Did the subtype environment of the constraint's players change?

        Looks at the players of *all* roles of every fact the constraint
        touches (Pattern 4 reads the value pool of the partner role's
        player, so the partner matters too).
        """
        for role_name in constraint.referenced_roles():
            if not schema.has_role(role_name):
                return True
            fact = schema.fact_type_of(role_name)
            for fact_role in fact.roles:
                if fact_role.player in self.graph_types:
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckScope(types={len(self.graph_types)}/{len(self.member_types)}, "
            f"roles={len(self.roles)}, labels={len(self.labels)}, "
            f"setcomp_dirty={self.setcomp_dirty})"
        )


def scope_from_changes(
    schema: Schema, changes: Iterable[SchemaChange]
) -> CheckScope:
    """Compute the :class:`CheckScope` of a batch of journal entries.

    Removed elements are reasoned about through the change payloads (they no
    longer exist in the schema); all closures run against the *current*
    schema state.
    """
    graph_seeds: set[str] = set()
    member_seeds: set[str] = set()
    roles: set[str] = set()
    fact_types: set[str] = set()
    labels: set[str] = set()
    setcomp_roles: set[str] = set()

    for change in changes:
        if change.kind == "object_type":
            graph_seeds.add(change.name)
            member_seeds.add(change.name)
        elif change.kind == "subtype":
            link = change.payload
            graph_seeds.update((link.sub, link.super))
        elif change.kind == "fact_type":
            fact = change.payload
            fact_types.add(fact.name)
            for role in fact.roles:
                roles.add(role.name)
                member_seeds.add(role.player)
        elif change.kind == "constraint":
            constraint = change.payload
            # Labels are schema-generated and never empty (asserted by
            # Schema.add_constraint), so they key the co-reference closure
            # without collapsing distinct constraints.
            labels.add(constraint.label)
            roles.update(constraint.referenced_roles())
            if isinstance(constraint, (SubsetConstraint, EqualityConstraint)):
                setcomp_roles.update(constraint.referenced_roles())

    # Fact-partner and constraint co-reference closures, to a fixpoint.
    queue = list(roles)
    while queue:
        role_name = queue.pop()
        if not schema.has_role(role_name):
            continue  # removed role; its constraints were journaled too
        fact = schema.fact_type_of(role_name)
        fact_types.add(fact.name)
        for other in fact.role_names:
            if other not in roles:
                roles.add(other)
                queue.append(other)
        for constraint in schema.constraints_referencing_role(role_name):
            label = constraint.label
            if label in labels:
                continue
            labels.add(label)
            for other in constraint.referenced_roles():
                if other not in roles:
                    roles.add(other)
                    queue.append(other)

    graph_types = _vertical_closure(schema, graph_seeds, up=True, down=True)
    member_types = _vertical_closure(schema, member_seeds, up=True, down=False)
    return CheckScope(
        graph_types=frozenset(graph_types),
        member_types=frozenset(member_types),
        roles=frozenset(roles),
        fact_types=frozenset(fact_types),
        labels=frozenset(labels),
        setcomp_roles=frozenset(setcomp_roles),
    )


def _vertical_closure(
    schema: Schema, seeds: set[str], *, up: bool, down: bool
) -> set[str]:
    """Seeds plus everything reachable along the subtype graph; cycle-safe."""
    closed = set(seeds)
    queue = [name for name in seeds if schema.has_object_type(name)]
    directions = []
    if up:
        directions.append(schema.direct_supertypes)
    if down:
        directions.append(schema.direct_subtypes)
    while queue:
        current = queue.pop()
        for step in directions:
            for neighbor in step(current):
                if neighbor not in closed:
                    closed.add(neighbor)
                    queue.append(neighbor)
    return closed


#: Journal entries all consumers must have drained before the engine asks
#: the schema to truncate (hysteresis for the checkpointing list surgery).
JOURNAL_COMPACT_THRESHOLD = 128


@dataclass
class EngineSnapshot:
    """A suspended :class:`IncrementalEngine`: per-site finding stores plus
    the journal mark they are valid at.

    Produced by :meth:`IncrementalEngine.suspend` and consumed by
    :meth:`IncrementalEngine.resume`.  The snapshot *owns* the site stores
    (the engine hands them over rather than copying), so drop the engine
    after suspending it.  A snapshot stays resumable for as long as the
    schema's journal retains the entries after ``mark`` — the suspended
    engine no longer pins the journal (its weak consumer registration dies
    with it), so the replay window is only guaranteed while no *other*
    consumer triggers :meth:`repro.orm.schema.Schema.compact_journal` past
    the mark; :meth:`IncrementalEngine.resume` raises
    :class:`repro.exceptions.SchemaError` when the window was truncated and
    the caller must rebuild from scratch instead.
    """

    mark: int
    sites: dict[str, dict]
    enabled_ids: tuple[str, ...]
    advisories: bool
    formation_rules: bool
    propagation: bool


class IncrementalEngine:
    """A stateful, dependency-indexed engine over every site-based analysis.

    Attach it to a live :class:`Schema`; the constructor performs one full
    check, and every :meth:`refresh` afterwards only re-examines the check
    sites dirtied by the schema mutations since the previous call, merging
    scoped verdicts into persistent per-site finding stores (retracting the
    verdicts of sites that were touched or deleted).

    One engine drives up to four **analysis families** from a single
    journal drain:

    * the unsatisfiability patterns (always on; same ``enabled`` /
      ``include_extensions`` arguments as :class:`PatternEngine`), read via
      :meth:`report`;
    * the well-formedness advisories W01–W07 (``advisories=True``), read
      via :meth:`advisories`;
    * the formation/RIDL rules (``formation_rules=True``), read via
      :meth:`rule_findings`;
    * unsatisfiability propagation (``propagation=True``), maintained
      DRed-style by :class:`repro.patterns.propagation.IncrementalPropagator`
      and read via :meth:`propagation`.

    Findings are ordered canonically (sorted within each check) rather than
    by schema insertion order, and equal the corresponding from-scratch
    analysis as a multiset.  The engine registers itself as a journal
    consumer and triggers :meth:`repro.orm.schema.Schema.compact_journal`
    after each drain, so long-lived sessions do not accumulate unbounded
    journals.

    For multi-session deployments (:class:`repro.server.ValidationService`),
    :meth:`suspend` / :meth:`resume` park an idle engine as an
    :class:`EngineSnapshot` and later resurrect it by replaying only the
    journal-checkpoint window since its mark (LRU eviction of idle engines
    without losing incrementality).
    """

    def __init__(
        self,
        schema: Schema,
        enabled: Iterable[str] | None = None,
        include_extensions: bool = False,
        *,
        advisories: bool = False,
        formation_rules: bool = False,
        propagation: bool = False,
        _resume_from: EngineSnapshot | None = None,
    ) -> None:
        from repro.patterns.advisories import WELLFORMED_CHECKS
        from repro.patterns.formation_rules import FORMATION_CHECKS
        from repro.patterns.propagation import IncrementalPropagator

        self.schema = schema
        self._engine = PatternEngine(enabled, include_extensions)
        self._patterns = self._engine.enabled_patterns()
        self._advisory_checks = WELLFORMED_CHECKS if advisories else ()
        self._rule_checks = FORMATION_CHECKS if formation_rules else ()
        self._wants_propagation = propagation
        self._propagator = None
        self._sites: dict[str, dict] = {}
        if _resume_from is not None:
            self._resume_from_snapshot(_resume_from)
            return
        self._mark = schema.journal_size
        started = time.perf_counter()
        for check in self._analyses():
            self._sites[check.pattern_id] = check.check_scoped(schema, None)
        self._build_outputs(time.perf_counter() - started)
        if propagation:
            self._propagator = IncrementalPropagator(schema)
            self._propagator.rebuild(self._report)
        schema.attach_journal_consumer(self)

    def _resume_from_snapshot(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot's stores and replay the journal window after its
        mark; raises :class:`~repro.exceptions.SchemaError` when truncated."""
        from repro.patterns.propagation import IncrementalPropagator

        # repro-lint: disable=RL004 -- deliberate probe: raising SchemaError here IS the documented truncation signal; the service catches it and rebuilds
        self.schema.changes_since(snapshot.mark)  # probe the replay window
        expected = {check.pattern_id for check in self._analyses()}
        if set(snapshot.sites) != expected:
            raise ValueError(
                "snapshot was taken under a different analysis configuration "
                f"({sorted(snapshot.sites)} != {sorted(expected)})"
            )
        self._sites = dict(snapshot.sites)
        self._mark = snapshot.mark
        self._build_outputs(0.0)
        self.schema.attach_journal_consumer(self)
        self.refresh()  # replay the window (propagator not attached yet)
        if self._wants_propagation:
            self._propagator = IncrementalPropagator(self.schema)
            self._propagator.rebuild(self._report)

    def suspend(self) -> EngineSnapshot:
        """Freeze this engine into an :class:`EngineSnapshot` and hand over
        its site stores.

        The caller must drop the engine afterwards (its journal-consumer
        registration is weak, so the schema stops waiting on it) and may
        later :meth:`resume` — paying only the replay of the journal window
        between the snapshot's mark and the schema's head instead of a full
        re-check.  This is what lets a multi-session service keep only its
        hottest engines live (LRU) without losing incrementality.
        """
        return EngineSnapshot(
            mark=self._mark,
            sites=self._sites,
            enabled_ids=self._engine.enabled_ids,
            advisories=bool(self._advisory_checks),
            formation_rules=bool(self._rule_checks),
            propagation=self._wants_propagation,
        )

    @classmethod
    def resume(cls, schema: Schema, snapshot: EngineSnapshot) -> "IncrementalEngine":
        """Resurrect a suspended engine on its schema.

        Replays exactly the journal entries recorded since the snapshot's
        mark (the checkpoint replay window).  Raises
        :class:`~repro.exceptions.SchemaError` when the window was
        truncated by checkpointing — the caller falls back to building a
        fresh engine.
        """
        return cls(
            schema,
            enabled=snapshot.enabled_ids,
            advisories=snapshot.advisories,
            formation_rules=snapshot.formation_rules,
            propagation=snapshot.propagation,
            _resume_from=snapshot,
        )

    def _analyses(self) -> tuple:
        """Every site-based check this engine maintains, patterns first."""
        return (*self._patterns, *self._advisory_checks, *self._rule_checks)

    @property
    def enabled_ids(self) -> tuple[str, ...]:
        """The pattern ids this engine maintains."""
        return self._engine.enabled_ids

    @property
    def journal_mark(self) -> int:
        """The journal position drained so far (the consumer protocol of
        :meth:`repro.orm.schema.Schema.attach_journal_consumer`)."""
        return self._mark

    def report(self) -> ValidationReport:
        """The current cumulative pattern report (without consuming changes)."""
        return self._report

    def advisories(self) -> list:
        """The current well-formedness advisories (empty unless the family
        was enabled with ``advisories=True``)."""
        return list(self._advisories)

    def rule_findings(self) -> list:
        """The current formation-rule findings (empty unless enabled)."""
        return list(self._rule_findings)

    def propagation(self):
        """The current :class:`~repro.patterns.propagation.PropagationResult`
        (None unless the family was enabled with ``propagation=True``)."""
        if self._propagator is None:
            return None
        return self._propagator.result()

    def refresh(self) -> ValidationReport:
        """Consume the schema changes since the last call and re-validate.

        Cost is proportional to the dirty neighborhood of those changes,
        not to the schema size, for every enabled analysis family.  Runs
        on the calling thread; the caller serializes ``refresh`` with
        schema edits (the service holds the session lock for the whole
        call).
        """
        started = time.perf_counter()
        # repro-lint: disable=RL004 -- cannot truncate under us: this engine is an attached consumer, so compaction never drops past our own journal_mark
        changes = self.schema.changes_since(self._mark)
        self._mark = self.schema.journal_size
        self.schema.compact_journal(min_drop=JOURNAL_COMPACT_THRESHOLD)
        if not changes:
            return self._report
        scope = scope_from_changes(self.schema, changes)
        if scope.is_empty:
            return self._report
        for check in self._analyses():
            self._refresh_analysis(check, scope)
        self._build_outputs(time.perf_counter() - started)
        if self._propagator is not None:
            self._propagator.refresh(scope, self._report)
        return self._report

    def _refresh_analysis(self, check, scope: CheckScope) -> None:
        """One analysis's scoped refresh: recompute the dirty sites, then
        retract the stored verdicts of every dirty site and merge."""
        stored = self._sites[check.pattern_id]
        fresh = check.check_scoped(self.schema, scope)
        for key in [k for k in stored if check.site_dirty(k, scope, self.schema)]:
            del stored[key]
        stored.update(fresh)

    def site_count(self) -> int:
        """The engine's *weight* for capacity accounting: the size of its
        check-site universe (every schema element is a potential site of
        the enabled analyses) plus the findings currently stored.  A big
        schema's engine weighs proportionally more of a service's
        live-engine budget than a tiny one.  Reads only O(1) container
        sizes, so it is safe to call concurrently with edits (the census
        is approximate under concurrency by design)."""
        return self.schema.element_count() + sum(
            len(store) for store in self._sites.values()
        )

    # `check()` mirrors PatternEngine's entry point for drop-in use.
    def check(self, schema: Schema | None = None) -> ValidationReport:
        """Refresh and return the report; ``schema`` must be the attached one."""
        if schema is not None and schema is not self.schema:
            raise ValueError(
                "IncrementalEngine is bound to one schema; build a new engine "
                "for a different schema object"
            )
        return self.refresh()

    def _collect(self, checks, sort_key) -> list:
        findings = []
        for check in checks:
            batch = [
                finding
                for site_findings in self._sites[check.pattern_id].values()
                for finding in site_findings
            ]
            batch.sort(key=sort_key)
            findings.extend(batch)
        return findings

    def _build_outputs(self, elapsed: float) -> None:
        violations: list[Violation] = self._collect(
            self._patterns,
            lambda v: (v.types, v.roles, v.constraints, v.message),
        )
        self._report = ValidationReport(
            schema_name=self.schema.metadata.name,
            violations=violations,
            patterns_run=self._engine.enabled_ids,
            elapsed_seconds=elapsed,
        )
        self._advisories = self._collect(
            self._advisory_checks, lambda a: (a.elements, a.message)
        )
        self._rule_findings = self._collect(
            self._rule_checks, lambda f: (f.elements, f.message)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalEngine(schema={self.schema.metadata.name!r}, "
            f"patterns={list(self._engine.enabled_ids)}, "
            f"advisories={bool(self._advisory_checks)}, "
            f"rules={bool(self._rule_checks)}, "
            f"propagation={self._propagator is not None})"
        )
