"""CNF formula construction.

Literals follow the DIMACS convention: variables are positive integers
``1..n`` and a negative integer denotes negation.  :class:`CnfBuilder`
hands out fresh variables (optionally named, which makes decoded models and
debugging readable) and offers the small cardinality encodings the ORM
encoding needs.

The cardinality encodings are the *combinatorial* ones — at-most-k over
``n`` literals emits one clause per (k+1)-subset.  That is exponential in
general but exactly right here: the bounded model finder works with single-
digit domains where the combinatorial encoding is both smallest and
propagation-complete.  The builder refuses blatantly oversized requests so a
misuse fails loudly rather than silently exploding.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from repro.exceptions import SolverError

Literal = int
Clause = tuple[Literal, ...]

#: Upper bound on the clauses one cardinality call may emit (safety valve).
_MAX_CARDINALITY_CLAUSES = 200_000


class CnfBuilder:
    """Accumulates clauses and allocates fresh variables."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[Clause] = []
        self._guards: list[Literal | None] = []
        self._names: dict[int, str] = {}
        self._guard: Literal | None = None
        self._literal_count = 0

    @property
    def num_vars(self) -> int:
        """Number of allocated variables."""
        return self._num_vars

    @property
    def clauses(self) -> list[Clause]:
        """The clause list (shared, do not mutate)."""
        return self._clauses

    @property
    def guards(self) -> list[Literal | None]:
        """The guard selector of each clause, parallel to :attr:`clauses`
        (``None`` for an unguarded clause; shared, do not mutate)."""
        return self._guards

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally with a debug name."""
        self._num_vars += 1
        if name is not None:
            self._names[self._num_vars] = name
        return self._num_vars

    def name_of(self, var: int) -> str:
        """The debug name of ``var`` (or ``"v<var>"``)."""
        return self._names.get(var, f"v{var}")

    def begin_guard(self, selector: Literal) -> None:
        """Guard every clause added until :meth:`end_guard` with ``¬selector``.

        This is the MiniSat-style selector idiom behind incremental solving:
        a guarded clause ``C`` is stored as ``¬selector ∨ C`` and is only
        *active* while ``selector`` is asserted (via solve-time assumptions).
        Each clause records its guard (:attr:`guards`), so a solver fed with
        it knows the group; :meth:`repro.sat.solver.CdclSolver.retire_selectors`
        then retires the group for good by fixing ``¬selector`` at decision
        level 0 and deleting the group's clauses.  A retired selector is
        never assumed or used as a guard again: a group that comes back is
        emitted under a fresh selector.

        **Learned-clause contract.**  Selectors must occur *only negatively*
        in the formula (only as guards, never as ordinary literals — which
        is all this builder ever emits).  Resolution then cannot eliminate
        a ``¬selector``, so every clause a CDCL solver *learns* from a
        guarded group automatically contains the ``¬selector`` of each group
        its derivation used: the level-0 ``¬selector`` of a retired group
        satisfies its dependent lemmas, and the solver deletes them with
        the group.  A caller that asserted a selector *positively* inside a
        clause would break this — lemmas could shed the dependency and
        survive retirement.
        """
        if self._guard is not None:
            raise SolverError("clause guards do not nest")
        if not 0 < selector <= self._num_vars:
            raise SolverError(f"guard selector {selector} is not an allocated variable")
        self._guard = selector

    def end_guard(self) -> None:
        """Stop guarding clauses (see :meth:`begin_guard`)."""
        if self._guard is None:
            raise SolverError("end_guard without begin_guard")
        self._guard = None

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add one clause; duplicate literals are collapsed, tautologies
        (containing ``l`` and ``-l``) are dropped.

        Under an active guard (see :meth:`begin_guard`) the clause gets the
        negated selector *appended*; an empty clause then degrades to the
        unit ``¬selector``, making the *group* unsatisfiable under its
        assumption rather than the whole formula.  Appending (not
        prepending) matters for solver performance: the watched-literal
        scheme watches a clause's first two literals, so a trailing guard
        keeps the watches on the real literals and asserting thousands of
        selectors via assumptions triggers no watch-list traffic at all.
        """
        unique = tuple(dict.fromkeys(literals))
        if self._guard is not None and self._guard not in unique:
            unique = (*(lit for lit in unique if lit != -self._guard), -self._guard)
        for literal in unique:
            if literal == 0:
                raise SolverError("literal 0 is not allowed (DIMACS convention)")
            if abs(literal) > self._num_vars:
                raise SolverError(
                    f"literal {literal} references an unallocated variable"
                )
        if any(-literal in unique for literal in unique):
            return  # tautology
        self._clauses.append(unique)
        self._guards.append(self._guard)
        self._literal_count += len(unique)

    def add_implication(self, antecedent: Literal, consequent: Literal) -> None:
        """``antecedent -> consequent``."""
        self.add_clause((-antecedent, consequent))

    def add_equivalence(self, left: Literal, right: Literal) -> None:
        """``left <-> right``."""
        self.add_implication(left, right)
        self.add_implication(right, left)

    def at_most_one(self, literals: Iterable[Literal]) -> None:
        """Pairwise at-most-one over the literals."""
        pool = list(literals)
        for first, second in itertools.combinations(pool, 2):
            self.add_clause((-first, -second))

    def at_most_k(self, literals: Iterable[Literal], k: int) -> None:
        """At most ``k`` of the literals are true (combinatorial encoding)."""
        pool = list(literals)
        if k < 0:
            raise SolverError(f"at_most_k needs k >= 0, got {k}")
        if k >= len(pool):
            return
        self._guard_cardinality(len(pool), k + 1)
        for subset in itertools.combinations(pool, k + 1):
            self.add_clause(tuple(-literal for literal in subset))

    def at_least_k(
        self,
        literals: Iterable[Literal],
        k: int,
        condition: Literal | None = None,
    ) -> None:
        """At least ``k`` of the literals are true; optionally guarded.

        With ``condition`` the constraint reads ``condition -> at-least-k``,
        which is how conditional frequency lower bounds are encoded ("*if*
        the instance plays the role, it plays it min times").
        """
        pool = list(literals)
        if k <= 0:
            return
        prefix = () if condition is None else (-condition,)
        if k > len(pool):
            # The demand cannot be met: force the condition false, or make
            # the whole formula unsatisfiable (empty clause) when unguarded.
            self.add_clause(prefix)
            return
        # at-least-k(X) == for every (n-k+1)-subset S: OR(S)
        width = len(pool) - k + 1
        self._guard_cardinality(len(pool), width)
        for subset in itertools.combinations(pool, width):
            self.add_clause(prefix + subset)

    def exactly_one(self, literals: Iterable[Literal]) -> None:
        """Exactly one of the literals is true."""
        pool = list(literals)
        self.add_clause(pool)
        self.at_most_one(pool)

    @staticmethod
    def _guard_cardinality(n: int, width: int) -> None:
        count = 1
        for index in range(width):
            count = count * (n - index) // (index + 1)
            if count > _MAX_CARDINALITY_CLAUSES:
                raise SolverError(
                    f"combinatorial cardinality encoding over {n} literals "
                    f"(width {width}) would exceed {_MAX_CARDINALITY_CLAUSES} "
                    "clauses; the bounded encoding is being misused"
                )

    def stats(self) -> dict[str, int]:
        """Size counters for benchmark reporting (O(1): the warm reasoner
        reads them on every check)."""
        return {
            "variables": self._num_vars,
            "clauses": len(self._clauses),
            "literals": self._literal_count,
        }
