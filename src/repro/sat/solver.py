"""A from-scratch CDCL SAT solver with two-watched-literal propagation.

This is the search engine behind the bounded complete reasoner
(:mod:`repro.reasoner`).  The paper's Sec. 4 contrasts the linear pattern
checks with a *complete but exponential* decision procedure; the solver
implements the modern incarnation of that procedure: conflict-driven clause
learning (implication-graph analysis to the first unique implication point),
non-chronological backjumping, EVSIDS activity-driven branching with phase
saving, Luby restarts, and an activity/size-based reduction of the learned
clause database.  Setting :attr:`CdclSolver.learning` to ``False`` degrades
to a backjumping DPLL whose lemmas never outlive the search path — the
"deliberately no learning" profile earlier revisions shipped, kept as the
baseline the benchmarks compare against.

**Clause groups and level 0.**  The solver is incremental in MiniSat's
style (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).  A problem
clause may carry the selector of its *group* (it reads ``¬sel ∨ C``, see
:meth:`repro.sat.cnf.CnfBuilder.begin_guard`); the group is active while
``sel`` is assumed.  :meth:`CdclSolver.retire_selectors` retires a group for
good: it fixes ``¬sel`` at decision level 0 and deletes the group's clauses,
which that fact satisfies.  Level-0 facts are never undone —
:meth:`CdclSolver.solve`, :meth:`CdclSolver.add_clause` and
:meth:`CdclSolver.retire_selectors` backtrack to level 0, not below — so a
solve propagates only what was added since the last one, and a retired
selector costs neither an assumption nor a decision.  (The ``learning=False``
profile still resets everything per solve: it is the reference the
benchmarks compare against.)

**Learned clauses and selector guards.**  Learned clauses are derived by
resolution over the clause database only — assumptions contribute literals
but never premises — so every lemma is a logical consequence of the clauses
added so far, and stays valid as the database grows.  In particular, a lemma
whose derivation used a guarded clause automatically contains the ``¬sel``
of every group it depends on: selectors occur only negatively in the
database, so resolution can never eliminate them, and ``¬sel`` is never
false at level 0 (only an assumption makes ``sel`` true), so conflict
analysis never drops it with the level-0 literals.  The level-0 ``¬sel`` of
a retired group therefore satisfies every lemma that depended on it, and
:meth:`CdclSolver.retire_selectors` deletes those lemmas with the group.

The solver is deterministic: identical inputs (including the clause-add and
solve interleaving) yield identical verdicts and statistics, which the
benchmarks rely on.  Because learned clauses and level-0 facts persist
between :meth:`solve` calls, a *re-solve* is intentionally not equivalent to
a fresh solver: it is faster, and may return a different (still verified)
model.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.exceptions import SolverError
from repro.sat.cnf import Clause, CnfBuilder

#: Truth values in the assignment array.
_UNASSIGNED, _TRUE, _FALSE = 0, 1, 2

#: EVSIDS decay factors (per conflict) and the float-rescale guard rails.
_VAR_DECAY = 0.95
_CLAUSE_DECAY = 0.999
_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100

#: Learned-DB budget: first limit relative to the problem size, growth per
#: reduction sweep.
_LEARNT_FLOOR = 1_000
_LEARNT_FRACTION = 3
_LEARNT_GROWTH = 1.1

#: First Luby restart interval, in conflicts.
_RESTART_BASE = 100


def _luby(index: int) -> int:
    """The ``index``-th (1-based) element of the Luby restart sequence
    (1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...)."""
    k = 1
    while (1 << k) - 1 < index:
        k += 1
    while (1 << k) - 1 != index:
        index -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < index:
            k += 1
    return 1 << (k - 1)


@dataclass
class SatResult:
    """Outcome of a solve call.

    ``status`` is ``True`` (satisfiable, ``model`` holds a satisfying
    assignment), ``False`` (unsatisfiable — under the assumptions, if any)
    or ``None`` (a decision or conflict budget was exhausted).  ``learned``
    counts the clauses derived during this call; ``learned_kept`` is the
    size of the learned database after it (lemmas persist across calls).
    """

    status: bool | None
    model: dict[int, bool] = field(default_factory=dict)
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    learned_kept: int = 0

    @property
    def is_sat(self) -> bool:
        """True iff a model was found."""
        return self.status is True


class CdclSolver:
    """Solve a CNF formula; clauses may be added between :meth:`solve` calls.

    The solver is *incremental*: :meth:`add_clause` extends the clause
    database after construction, :meth:`ensure_num_vars` grows the variable
    range, and :meth:`solve` is reentrant — it backtracks to decision level
    0 on entry and keeps the level-0 facts, learned clauses and activity
    scores of earlier calls, which is what makes a warm solver faster than a
    cold one.  ``solve(assumptions=...)`` decides the given literals below
    every real decision, MiniSat-style; a ``False`` status then means
    "unsatisfiable *under these assumptions*", which is what makes
    selector-guarded clause groups switchable.  :meth:`retire_selectors`
    retires groups for good (see the module docstring).
    """

    def __init__(
        self, num_vars: int, clauses: list[Clause], learning: bool = True
    ) -> None:
        self._num_vars = 0
        # Clause database: problem and learned clauses share one id space;
        # deleted clauses leave a None hole (watch lists are cleaned lazily
        # during propagation).
        self._clauses: list[list[int] | None] = []
        self._num_problem = 0
        self._learned: dict[int, float] = {}  # id -> activity
        self._watches: dict[int, list[int]] = {}
        # Level-0 units: problem units and retired selectors' negations.
        # _units[:_units_head] are on the trail already.
        self._units: list[int] = []
        self._units_head = 0
        # Ids of each live group's clauses, keyed by its selector variable.
        self._groups: dict[int, list[int]] = {}
        self._empty_clause = False
        # Per-variable state, 1-indexed (slot 0 unused).
        self._assign: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[int | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool | None] = [None]
        self._seen = bytearray(1)
        # Trail: the assignment stack; _trail_lim[i] is its length when
        # decision level i+1 began.  The trail doubles as the propagation
        # queue via _queue_head.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._queue_head = 0
        # EVSIDS branching state: a lazy max-heap of (-activity, var) that
        # holds every unassigned variable; stale entries are skipped at pop
        # time, and the heap is rebuilt once they make up half of it.
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._max_learnts = 0.0
        # Polarity counts from problem clauses seed the branching phase of
        # variables that have never been assigned (phase saving takes over
        # afterwards).
        self._polarity: Counter[int] = Counter()
        #: Public toggle: with learning off, lemmas are dropped as soon as
        #: they stop being propagation reasons and restarts are disabled —
        #: the plain backjumping-DPLL baseline.
        self.learning = learning
        #: Conflicts before the first restart (scaled by the Luby sequence).
        self.restart_base = _RESTART_BASE
        self.ensure_num_vars(num_vars)
        for clause in clauses:
            self.add_clause(clause)

    @classmethod
    def from_builder(cls, builder: CnfBuilder) -> "CdclSolver":
        """Convenience constructor from a :class:`CnfBuilder`, keeping each
        clause's guard (a clause appended to ``builder.clauses`` directly
        counts as unguarded)."""
        solver = cls(builder.num_vars, [])
        guards = itertools.chain(builder.guards, itertools.repeat(None))
        for clause, guard in zip(builder.clauses, guards):
            solver.add_clause(clause, guard=guard)
        return solver

    # ------------------------------------------------------------------
    # database growth
    # ------------------------------------------------------------------

    def ensure_num_vars(self, num_vars: int) -> None:
        """Grow the variable range to at least ``num_vars``."""
        if num_vars > self._num_vars:
            grow = num_vars - self._num_vars
            self._assign.extend([_UNASSIGNED] * grow)
            self._level.extend([0] * grow)
            self._reason.extend([None] * grow)
            self._activity.extend([0.0] * grow)
            self._phase.extend([None] * grow)
            self._seen.extend(bytes(grow))
            # Activity 0 with a higher index than every variable so far is
            # the heap's largest key: appending keeps the heap ordered.
            self._heap.extend(
                (0.0, var) for var in range(self._num_vars + 1, num_vars + 1)
            )
            self._num_vars = num_vars

    def add_clause(self, clause: Clause, guard: int | None = None) -> None:
        """Add one problem clause (allowed between solve calls).

        ``guard`` is the selector of the clause's group, if it has one (the
        clause then contains ``¬guard``): :meth:`retire_selectors` deletes
        the clause with its group.  A clause added while level-0 facts are
        assigned is watched on literals they leave open; if they leave it
        one, that literal is asserted at level 0.
        """
        literals = list(clause)
        top = max((abs(literal) for literal in literals), default=0)
        if top > self._num_vars:
            self.ensure_num_vars(top)
        self._num_problem += 1
        if not literals:
            self._empty_clause = True
            return
        if len(literals) == 1:
            self._units.append(literals[0])
            return
        index = len(self._clauses)
        self._clauses.append(literals)
        for literal in literals:
            self._polarity[literal] += 1
        if self._trail:
            self._cancel_until(0)
            self._watch_open_literals(literals, index)
        # Watch the first two literals.
        for literal in literals[:2]:
            self._watches.setdefault(literal, []).append(index)
        if guard is not None:
            self._groups.setdefault(guard, []).append(index)

    def _watch_open_literals(self, literals: list[int], index: int) -> None:
        """Move literals the level-0 facts do not falsify to the watched
        positions.  With one such literal left, assert it; with none, the
        formula is unsatisfiable for good."""
        found = 0
        for position, literal in enumerate(literals):
            if self._value(literal) != _FALSE:
                literals[found], literals[position] = literal, literals[found]
                found += 1
                if found == 2:
                    return
        if found == 0:
            self._empty_clause = True  # falsified by facts that are permanent
        elif self._value(literals[0]) == _UNASSIGNED:
            self._enqueue(literals[0], index)

    @property
    def learned_clause_count(self) -> int:
        """Learned clauses currently in the database (units excluded)."""
        return len(self._learned)

    def retire_selectors(self, selectors: Iterable[int]) -> int:
        """Retire the groups of ``selectors`` for good.

        Fixes ``¬sel`` at level 0 for each selector and deletes the group's
        clauses and every lemma that mentions the selector — the fact
        satisfies all of them (module docstring), so no verdict changes and
        a long-lived solver stops carrying them.  A retired selector must
        not be assumed again (that solve is unsatisfiable) or guard a later
        clause.  Backtracks to level 0 first, so no lemma is the reason of
        an assignment above it.  Returns the number of clauses deleted.
        """
        retired = dict.fromkeys(abs(selector) for selector in selectors)
        if not retired:
            return 0
        self.ensure_num_vars(max(retired))
        self._cancel_until(0)
        removed = 0
        for var in retired:
            self._units.append(-var)
            for index in self._groups.pop(var, ()):
                self._clauses[index] = None
                removed += 1
        for index in list(self._learned):
            clause = self._clauses[index]
            if any(abs(literal) in retired for literal in clause):
                self._clauses[index] = None
                del self._learned[index]
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # assignment primitives
    # ------------------------------------------------------------------

    def _value(self, literal: int) -> int:
        state = self._assign[abs(literal)]
        if state == _UNASSIGNED:
            return _UNASSIGNED
        positive = state == _TRUE
        wanted = literal > 0
        return _TRUE if positive == wanted else _FALSE

    def _enqueue(self, literal: int, reason: int | None) -> bool:
        """Assign ``literal`` true; False on conflict with current value."""
        current = self._value(literal)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        var = abs(literal)
        positive = literal > 0
        self._assign[var] = _TRUE if positive else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = positive  # phase saving
        self._trail.append(literal)
        return True

    def _propagate(self, result: SatResult) -> int | None:
        """Exhaust unit propagation; returns the conflicting clause id.

        The trail doubles as the propagation queue: every literal appended
        since the last call is processed once.  Watch lists drop deleted
        (None) clause entries lazily as they are traversed.
        """
        while self._queue_head < len(self._trail):
            literal = self._trail[self._queue_head]
            self._queue_head += 1
            result.propagations += 1
            falsified = -literal
            watching = self._watches.get(falsified)
            if not watching:
                # Nothing watches this literal — common for the selector
                # assumptions of the warm reasoner, whose guards sit at the
                # unwatched tail of their clauses.  Skip without inserting
                # an empty watch list into the dict.
                continue
            keep: list[int] = []
            index_pos = 0
            while index_pos < len(watching):
                clause_index = watching[index_pos]
                index_pos += 1
                clause = self._clauses[clause_index]
                if clause is None:
                    continue  # deleted learned clause; unhook lazily
                # Ensure the falsified literal sits at position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._value(other) == _TRUE:
                    keep.append(clause_index)
                    continue
                # Search a new watchable literal.
                moved = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if self._value(candidate) != _FALSE:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watches.setdefault(candidate, []).append(clause_index)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(clause_index)
                # Clause is unit (on `other`) or conflicting.
                if not self._enqueue(other, clause_index):
                    keep.extend(watching[index_pos:])
                    self._watches[falsified] = keep
                    return clause_index
            self._watches[falsified] = keep
        return None

    # ------------------------------------------------------------------
    # activity bookkeeping
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if activity > _RESCALE_LIMIT:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= _RESCALE_FACTOR
            self._var_inc *= _RESCALE_FACTOR
            self._rebuild_heap()
        elif self._assign[var] == _UNASSIGNED:
            heapq.heappush(self._heap, (-activity, var))

    def _bump_clause(self, index: int) -> None:
        activity = self._learned[index] + self._cla_inc
        self._learned[index] = activity
        if activity > _RESCALE_LIMIT:
            for learned_id in self._learned:
                self._learned[learned_id] *= _RESCALE_FACTOR
            self._cla_inc *= _RESCALE_FACTOR

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self._activity[var], var)
            for var in range(1, self._num_vars + 1)
            if self._assign[var] == _UNASSIGNED
        ]
        heapq.heapify(self._heap)

    def _pick_branch(self) -> int | None:
        """The unassigned variable with maximal activity, in its saved (or
        polarity-preferred) phase; None when the assignment is total."""
        while self._heap:
            negated_activity, var = heapq.heappop(self._heap)
            if self._assign[var] != _UNASSIGNED:
                continue
            if -negated_activity != self._activity[var]:
                continue  # stale entry; a fresher one exists
            return self._oriented(var)
        # Safety net: the lazy heap should always cover every unassigned
        # variable, but completeness must not hinge on that invariant.
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _UNASSIGNED:
                return self._oriented(var)
        return None

    def _oriented(self, var: int) -> int:
        phase = self._phase[var]
        if phase is None:
            phase = self._polarity[var] >= self._polarity[-var]
        return var if phase else -var

    # ------------------------------------------------------------------
    # conflict analysis and the learned database
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> list[int]:
        """Derive the 1UIP learned clause from a conflict.

        Walks the implication graph backwards along the trail, resolving
        current-level literals with their reason clauses until exactly one
        remains (the first unique implication point).  The asserting literal
        ends up at position 0, a maximal-level companion at position 1
        (:meth:`_backjump_level` relies on it).  Assumption and decision
        literals have no reason and are never resolved — they stay in the
        lemma, which is therefore a consequence of the clause database
        alone.
        """
        learned: list[int] = [0]
        seen = self._seen
        to_clear: list[int] = []
        current = len(self._trail_lim)
        counter = 0
        trail = self._trail
        index = len(trail)
        literal = 0
        clause_index = conflict
        while True:
            clause = self._clauses[clause_index]
            if clause_index in self._learned:
                self._bump_clause(clause_index)
            # Skip position 0 of a reason clause: it is the resolved literal.
            for position in range(0 if literal == 0 else 1, len(clause)):
                other = clause[position]
                var = abs(other)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump_var(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learned.append(other)
            index -= 1
            while not seen[abs(trail[index])]:
                index -= 1
            literal = trail[index]
            var = abs(literal)
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            # Only the level's decision lacks a reason, and it is resolved
            # last — so the reason is always present here.
            clause_index = self._reason[var]
        learned[0] = -literal
        for var in to_clear:
            seen[var] = 0
        return learned

    def _backjump_level(self, learned: list[int]) -> int:
        """The second-highest decision level in the lemma (0 for units);
        swaps a literal of that level into the watched position 1."""
        if len(learned) == 1:
            return 0
        deepest = 1
        for position in range(2, len(learned)):
            if self._level[abs(learned[position])] > self._level[abs(learned[deepest])]:
                deepest = position
        learned[1], learned[deepest] = learned[deepest], learned[1]
        return self._level[abs(learned[1])]

    def _attach_learned(self, learned: list[int], result: SatResult) -> None:
        """Store the lemma and assert its literal (call after backjumping)."""
        result.learned += 1
        if len(learned) == 1:
            # A globally implied fact: it stays on the trail at level 0.
            self._enqueue(learned[0], None)
            return
        index = len(self._clauses)
        self._clauses.append(learned)
        self._learned[index] = 0.0
        self._bump_clause(index)
        self._watches.setdefault(learned[0], []).append(index)
        self._watches.setdefault(learned[1], []).append(index)
        self._enqueue(learned[0], index)

    def _is_locked(self, index: int) -> bool:
        """Is this clause the propagation reason of its first literal?"""
        clause = self._clauses[index]
        literal = clause[0]
        return (
            self._value(literal) == _TRUE and self._reason[abs(literal)] == index
        )

    def _reduce_db(self) -> None:
        """Delete roughly half of the learned clauses, lowest activity
        first, keeping binary lemmas and locked reasons.  With learning off
        everything unlocked goes — lemmas never outlive their search path.
        """
        order = sorted(self._learned, key=lambda index: (self._learned[index], index))
        if self.learning:
            target = len(order) // 2
        else:
            target = len(order)
        removed = 0
        for index in order:
            if removed >= target:
                break
            clause = self._clauses[index]
            if self.learning and len(clause) <= 2:
                continue
            if self._is_locked(index):
                continue
            self._clauses[index] = None
            del self._learned[index]
            removed += 1
        if self.learning:
            self._max_learnts *= _LEARNT_GROWTH

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _cancel_until(self, level: int) -> None:
        """Undo every assignment above the given decision level."""
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)
        if len(self._heap) > 2 * self._num_vars:
            self._rebuild_heap()  # drop the stale entries

    def _reset_search(self) -> None:
        """The ``learning=False`` profile's fresh start: clear every
        assignment, level 0 included, and drop every lemma."""
        for literal in self._trail:
            var = abs(literal)
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
        self._trail.clear()
        self._trail_lim.clear()
        self._queue_head = 0
        self._units_head = 0
        for index in self._learned:
            self._clauses[index] = None
        self._learned.clear()
        self._rebuild_heap()

    def solve(
        self,
        max_decisions: int | None = None,
        assumptions: tuple[int, ...] | list[int] = (),
        max_conflicts: int | None = None,
    ) -> SatResult:
        """Run CDCL search; budgets cap it (None = unlimited).

        ``assumptions`` are literals decided below every real decision; a
        ``False`` status then means unsatisfiable *under the assumptions*.
        ``max_conflicts`` bounds the work of one call — the warm reasoner
        uses it to slice long checks instead of holding a session lock for
        an unbounded solve; learned clauses survive the early exit, so a
        retried check resumes from a stronger database rather than from
        scratch.  The call is reentrant: it backtracks to level 0 on entry,
        asserts the units added since the last call, and keeps the level-0
        facts, learned clauses and activities of earlier calls (the
        ``learning=False`` profile resets all of them instead).
        """
        result = SatResult(status=None)
        if self.learning:
            self._cancel_until(0)
        else:
            self._reset_search()
        if self._empty_clause:
            result.status = False
            result.learned_kept = len(self._learned)
            return result
        for literal in assumptions:
            if literal == 0 or abs(literal) > self._num_vars:
                raise SolverError(
                    f"assumption {literal} references an unallocated variable"
                )
        while self._units_head < len(self._units):
            literal = self._units[self._units_head]
            self._units_head += 1
            if not self._enqueue(literal, None):
                self._empty_clause = True
                result.status = False
                result.learned_kept = len(self._learned)
                return result
        if self._max_learnts <= 0:
            self._max_learnts = max(
                float(_LEARNT_FLOOR), self._num_problem / _LEARNT_FRACTION
            )
        assumptions = tuple(assumptions)
        restart_count = 0
        restart_limit = self.restart_base * _luby(1)
        conflicts_since_restart = 0
        while True:
            conflict = self._propagate(result)
            if conflict is not None:
                result.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    # Conflict at level 0: unsatisfiable for good.
                    self._empty_clause = True
                    result.status = False
                    break
                learned = self._analyze(conflict)
                self._cancel_until(self._backjump_level(learned))
                self._attach_learned(learned, result)
                self._var_inc /= _VAR_DECAY
                self._cla_inc /= _CLAUSE_DECAY
                if max_conflicts is not None and result.conflicts >= max_conflicts:
                    result.status = None
                    break
                continue
            if (
                self.learning
                and conflicts_since_restart >= restart_limit
                and len(self._trail_lim) > len(assumptions)
            ):
                restart_count += 1
                result.restarts += 1
                conflicts_since_restart = 0
                restart_limit = self.restart_base * _luby(restart_count + 1)
                self._cancel_until(0)
                continue
            if len(self._learned) > (self._max_learnts if self.learning else 0):
                self._reduce_db()
            literal = None
            failed_assumption = False
            while len(self._trail_lim) < len(assumptions):
                candidate = assumptions[len(self._trail_lim)]
                value = self._value(candidate)
                if value == _TRUE:
                    self._trail_lim.append(len(self._trail))  # already holds
                elif value == _FALSE:
                    failed_assumption = True
                    break
                else:
                    literal = candidate
                    break
            if failed_assumption:
                result.status = False  # UNSAT under the assumptions
                break
            if literal is None:
                literal = self._pick_branch()
                if literal is None:
                    result.status = True
                    result.model = {
                        var: self._assign[var] == _TRUE
                        for var in range(1, self._num_vars + 1)
                    }
                    break
                if max_decisions is not None and result.decisions >= max_decisions:
                    result.status = None
                    break
                result.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(literal, None)
        result.learned_kept = len(self._learned)
        return result


#: Backwards-compatible alias: the class began life as a plain DPLL solver.
DpllSolver = CdclSolver


def solve_cnf(builder: CnfBuilder, max_decisions: int | None = None) -> SatResult:
    """One-shot convenience: build a solver and run it."""
    return CdclSolver.from_builder(builder).solve(max_decisions)


def verify_model(builder: CnfBuilder, model: dict[int, bool]) -> bool:
    """Check a model against every clause (used to self-check witnesses)."""
    for clause in builder.clauses:
        if not clause:
            return False
        satisfied = any(
            model.get(abs(literal), False) == (literal > 0) for literal in clause
        )
        if not satisfied:
            return False
    return True


def brute_force_satisfiable(builder: CnfBuilder) -> bool:
    """Exhaustive truth-table check — test oracle for the solver itself."""
    num_vars = builder.num_vars
    if num_vars > 20:
        raise SolverError("brute force limited to 20 variables")
    for mask in range(1 << num_vars):
        model = {var: bool(mask >> (var - 1) & 1) for var in range(1, num_vars + 1)}
        if verify_model(builder, model):
            return True
    return False
