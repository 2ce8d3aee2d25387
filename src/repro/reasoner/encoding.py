"""Propositional encoding of bounded ORM satisfiability.

Given a schema and a bound *N*, :class:`SchemaEncoder` builds a CNF formula
that is satisfiable iff the schema has a model over a domain of at most *N*
abstract individuals (plus one dedicated individual per concrete value
appearing in a value constraint).  The encoding follows the population
semantics of :mod:`repro.population.checker` rule for rule:

==========================  ================================================
semantic rule               clauses
==========================  ================================================
typing [TYP]                ``f(a,b) -> m(player1,a) ∧ m(player2,b)``
value constraints [VAL]     structural: a value-constrained type only has
                            membership variables for its own value
                            individuals
subtyping [SUB]             ``m(sub,i) -> m(sup,i)``; strictness adds a
                            witness disjunction ``∃i: m(sup,i) ∧ ¬m(sub,i)``
top disjointness [TOP]      pairwise exclusion between root-type memberships
exclusive types [XTY]       pairwise exclusion per individual
mandatory [MAN]             member -> plays one of the listed roles
uniqueness [UNI]            at-most-one tuple per filler
frequency [FRQ]             guarded at-least-min / at-most-max per filler
exclusion [XCL]             no shared filler (roles) / no shared aligned
                            tuple (predicates)
subset/equality [SST/EQL]   tuple-wise implications
ring constraints [RNG]      direct clauses; acyclicity via an explicit
                            strict total order (``R(i,j) -> i < j``)
==========================  ================================================

Value individuals make value constraints *exact*: a value string shared by
the pools of two disjoint types is one individual, so the encoding correctly
refuses to put it in both — matching the checker's global-instance reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.orm.constraints import (
    Constraint,
    EqualityConstraint,
    ExclusionConstraint,
    ExclusiveTypesConstraint,
    FrequencyConstraint,
    MandatoryConstraint,
    RingConstraint,
    RingKind,
    RoleSequence,
    SubsetConstraint,
    UniquenessConstraint,
)
from repro.orm.elements import FactType, SubtypeLink
from repro.orm.schema import Schema
from repro.population.population import Population
from repro.sat.cnf import CnfBuilder

#: Individuals are ("a", index) for abstract ones, ("v", value) for values.
Individual = tuple[str, object]

#: Reasoning goals: populate every role / every type / nothing beyond the
#: constraints / one specific element.
Goal = str | tuple[str, str]

GOAL_STRONG = "strong"
GOAL_CONCEPT = "concept"
GOAL_WEAK = "weak"
GOAL_GLOBAL = "global"  # strong + concept combined


@dataclass
class Encoding:
    """The CNF plus the variable maps needed to decode a model."""

    builder: CnfBuilder
    membership: dict[tuple[str, Individual], int]
    fact_tuple: dict[tuple[str, Individual, Individual], int]
    individuals: list[Individual]

    def decode(self, schema: Schema, model: dict[int, bool]) -> Population:
        """Translate a satisfying assignment back into a population."""
        population = Population(schema)
        for (type_name, individual), var in self.membership.items():
            if model.get(var):
                population.add_instance(type_name, _instance_name(individual))
        for (fact_name, first, second), var in self.fact_tuple.items():
            if model.get(var):
                population.add_fact(
                    fact_name, _instance_name(first), _instance_name(second)
                )
        return population


def _instance_name(individual: Individual) -> str:
    kind, payload = individual
    if kind == "a":
        return f"e{payload}"
    return str(payload)


class SchemaEncoder:
    """Build the bounded-satisfiability CNF for one schema and bound."""

    def __init__(
        self,
        schema: Schema,
        num_abstract: int,
        strict_subtypes: bool = True,
        default_type_exclusion: bool = True,
    ) -> None:
        if num_abstract < 0:
            raise ValueError("num_abstract must be >= 0")
        self._schema = schema
        self._strict = strict_subtypes
        self._top_exclusion = default_type_exclusion
        self._builder = CnfBuilder()
        self._individuals: list[Individual] = [
            ("a", index) for index in range(num_abstract)
        ]
        values_seen: dict[str, None] = {}
        for object_type in schema.object_types():
            for value in object_type.values or ():
                values_seen.setdefault(value)
        self._individuals.extend(("v", value) for value in values_seen)
        self._membership: dict[tuple[str, Individual], int] = {}
        self._fact_tuple: dict[tuple[str, Individual, Individual], int] = {}
        self._plays: dict[tuple[str, Individual], int] = {}

    # ------------------------------------------------------------------
    # variable allocation
    # ------------------------------------------------------------------

    def _allowed(self, type_name: str, individual: Individual) -> bool:
        """May ``individual`` possibly be a member of ``type_name``?

        A value-constrained type admits only its own value individuals —
        this makes the [VAL] rule structural.
        """
        values = self._schema.object_type(type_name).values
        if values is None:
            return True
        kind, payload = individual
        return kind == "v" and payload in values

    def _mvar(self, type_name: str, individual: Individual) -> int | None:
        key = (type_name, individual)
        if key in self._membership:
            return self._membership[key]
        if not self._allowed(type_name, individual):
            return None
        var = self._builder.new_var(f"m[{type_name},{_instance_name(individual)}]")
        self._membership[key] = var
        return var

    def _members_of(self, type_name: str) -> list[tuple[Individual, int]]:
        return [
            (individual, var)
            for individual in self._individuals
            if (var := self._mvar(type_name, individual)) is not None
        ]

    def _fvar(self, fact_name: str, first: Individual, second: Individual) -> int | None:
        key = (fact_name, first, second)
        if key in self._fact_tuple:
            return self._fact_tuple[key]
        fact = self._schema.fact_type(fact_name)
        if not self._allowed(fact.roles[0].player, first):
            return None
        if not self._allowed(fact.roles[1].player, second):
            return None
        var = self._builder.new_var(
            f"f[{fact_name},{_instance_name(first)},{_instance_name(second)}]"
        )
        self._fact_tuple[key] = var
        return var

    def _fact_vars(self, fact_name: str) -> list[tuple[Individual, Individual, int]]:
        found = []
        for first in self._individuals:
            for second in self._individuals:
                var = self._fvar(fact_name, first, second)
                if var is not None:
                    found.append((first, second, var))
        return found

    def _tuples_with_filler(
        self, role_name: str, individual: Individual
    ) -> list[int]:
        """Fact-tuple variables in which ``individual`` fills ``role_name``."""
        role = self._schema.role(role_name)
        chosen = []
        for first, second, var in self._fact_vars(role.fact_type):
            filler = first if role.position == 0 else second
            if filler == individual:
                chosen.append(var)
        return chosen

    def _plays_var(self, role_name: str, individual: Individual) -> int:
        """Aux var implied by any tuple in which ``individual`` plays the role."""
        key = (role_name, individual)
        if key in self._plays:
            return self._plays[key]
        var = self._builder.new_var(f"plays[{role_name},{_instance_name(individual)}]")
        self._plays[key] = var
        for tuple_var in self._tuples_with_filler(role_name, individual):
            self._builder.add_implication(tuple_var, var)
        return var

    # ------------------------------------------------------------------
    # encoding passes
    # ------------------------------------------------------------------

    #: Constraint families in the order the passes run (and the incremental
    #: encoder dispatches); the order only matters for clause-stream
    #: determinism, not correctness.
    _CONSTRAINT_FAMILIES = (
        ExclusiveTypesConstraint,
        MandatoryConstraint,
        UniquenessConstraint,
        FrequencyConstraint,
        ExclusionConstraint,
        SubsetConstraint,
        EqualityConstraint,
        RingConstraint,
    )

    def encode(self, goal: Goal = GOAL_STRONG) -> Encoding:
        """Emit all clauses and return the finished encoding."""
        for fact in self._schema.fact_types():
            self._emit_fact_typing(fact)
        for link in self._schema.subtype_links():
            self._emit_subtype(link)
        if self._top_exclusion:
            roots = self._schema.root_types()
            for first, second in itertools.combinations(roots, 2):
                self._emit_top_pair(first, second)
        for family in self._CONSTRAINT_FAMILIES:
            for constraint in self._schema.constraints_of(family):
                self._emit_constraint(constraint)
        self._encode_goal(goal)
        return Encoding(
            builder=self._builder,
            membership=dict(self._membership),
            fact_tuple=dict(self._fact_tuple),
            individuals=list(self._individuals),
        )

    def _emit_fact_typing(self, fact: FactType) -> None:
        for first, second, var in self._fact_vars(fact.name):
            first_member = self._mvar(fact.roles[0].player, first)
            second_member = self._mvar(fact.roles[1].player, second)
            # _fvar only exists when both memberships are allowed.
            self._builder.add_implication(var, first_member)
            self._builder.add_implication(var, second_member)

    def _emit_subtype(self, link: SubtypeLink) -> None:
        for individual in self._individuals:
            sub_var = self._mvar(link.sub, individual)
            if sub_var is None:
                continue
            sup_var = self._mvar(link.super, individual)
            if sup_var is None:
                # The supertype cannot host this individual at all.
                self._builder.add_clause((-sub_var,))
            else:
                self._builder.add_implication(sub_var, sup_var)
        if self._strict:
            self._encode_strictness(link.sub, link.super)

    def _emit_constraint(self, constraint: Constraint) -> None:
        """Emit the clauses of one constraint (any family)."""
        if isinstance(constraint, ExclusiveTypesConstraint):
            self._emit_exclusive_types(constraint)
        elif isinstance(constraint, MandatoryConstraint):
            self._emit_mandatory(constraint)
        elif isinstance(constraint, UniquenessConstraint):
            self._emit_uniqueness(constraint)
        elif isinstance(constraint, FrequencyConstraint):
            self._emit_frequency(constraint)
        elif isinstance(constraint, ExclusionConstraint):
            self._emit_exclusion(constraint)
        elif isinstance(constraint, SubsetConstraint):
            self._emit_directed_subset(constraint.sub, constraint.sup)
        elif isinstance(constraint, EqualityConstraint):
            self._emit_directed_subset(constraint.first, constraint.second)
            self._emit_directed_subset(constraint.second, constraint.first)
        elif isinstance(constraint, RingConstraint):
            self._emit_ring(constraint)
        else:  # pragma: no cover - new families must be wired up explicitly
            raise TypeError(f"no emitter for constraint {type(constraint).__name__}")

    def _encode_strictness(self, sub: str, sup: str) -> None:
        """Some individual is in the supertype but not the subtype."""
        witnesses = []
        for individual, sup_var in self._members_of(sup):
            witness = self._builder.new_var(
                f"strict[{sub}<{sup},{_instance_name(individual)}]"
            )
            self._builder.add_implication(witness, sup_var)
            sub_var = self._mvar(sub, individual)
            if sub_var is not None:
                self._builder.add_implication(witness, -sub_var)
            witnesses.append(witness)
        self._builder.add_clause(witnesses)  # empty -> formula unsatisfiable

    def _emit_top_pair(self, first: str, second: str) -> None:
        for individual in self._individuals:
            first_var = self._mvar(first, individual)
            second_var = self._mvar(second, individual)
            if first_var is not None and second_var is not None:
                self._builder.add_clause((-first_var, -second_var))

    def _emit_exclusive_types(self, constraint: ExclusiveTypesConstraint) -> None:
        for first, second in itertools.combinations(constraint.types, 2):
            for individual in self._individuals:
                first_var = self._mvar(first, individual)
                second_var = self._mvar(second, individual)
                if first_var is not None and second_var is not None:
                    self._builder.add_clause((-first_var, -second_var))

    def _emit_mandatory(self, constraint: MandatoryConstraint) -> None:
        player = self._schema.role(constraint.roles[0]).player
        for individual, member_var in self._members_of(player):
            options: list[int] = []
            for role_name in constraint.roles:
                options.extend(self._tuples_with_filler(role_name, individual))
            self._builder.add_clause((-member_var, *options))

    def _emit_uniqueness(self, constraint: UniquenessConstraint) -> None:
        if len(constraint.roles) != 1:
            return  # spanning uniqueness holds by set semantics
        role_name = constraint.roles[0]
        for individual in self._individuals:
            self._builder.at_most_one(self._tuples_with_filler(role_name, individual))

    def _emit_frequency(self, constraint: FrequencyConstraint) -> None:
        if len(constraint.roles) == 2:
            # Spanning frequency with min > 1 can never be met by a
            # non-empty fact population (tuples are unique).
            if constraint.min > 1:
                fact_name = self._schema.role(constraint.roles[0]).fact_type
                for _, _, var in self._fact_vars(fact_name):
                    self._builder.add_clause((-var,))
            return
        role_name = constraint.roles[0]
        for individual in self._individuals:
            tuples = self._tuples_with_filler(role_name, individual)
            if not tuples:
                continue
            if constraint.min > 1:
                plays = self._plays_var(role_name, individual)
                self._builder.at_least_k(tuples, constraint.min, condition=plays)
            if constraint.max is not None:
                self._builder.at_most_k(tuples, constraint.max)

    def _emit_exclusion(self, constraint: ExclusionConstraint) -> None:
        for first_seq, second_seq in constraint.pairs():
            if constraint.is_role_exclusion:
                self._encode_role_exclusion(first_seq[0], second_seq[0])
            else:
                self._encode_sequence_exclusion(first_seq, second_seq)

    def _encode_role_exclusion(self, first_role: str, second_role: str) -> None:
        for individual in self._individuals:
            first_tuples = self._tuples_with_filler(first_role, individual)
            second_tuples = self._tuples_with_filler(second_role, individual)
            for first_var in first_tuples:
                for second_var in second_tuples:
                    self._builder.add_clause((-first_var, -second_var))

    def _sequence_tuple_var(
        self, sequence: RoleSequence, fillers: tuple[Individual, ...]
    ) -> int | None:
        """The fact-tuple variable for ``sequence`` filled by ``fillers``."""
        roles = [self._schema.role(name) for name in sequence]
        fact_name = roles[0].fact_type
        if len(sequence) == 1:
            raise AssertionError("sequence tuples need arity 2")
        by_position = {role.position: filler for role, filler in zip(roles, fillers)}
        return self._fvar(fact_name, by_position[0], by_position[1])

    def _encode_sequence_exclusion(
        self, first_seq: RoleSequence, second_seq: RoleSequence
    ) -> None:
        for fillers in itertools.product(self._individuals, repeat=2):
            first_var = self._sequence_tuple_var(first_seq, fillers)
            second_var = self._sequence_tuple_var(second_seq, fillers)
            if first_var is not None and second_var is not None:
                self._builder.add_clause((-first_var, -second_var))

    def _emit_directed_subset(self, sub_seq: RoleSequence, sup_seq: RoleSequence) -> None:
        if len(sub_seq) == 1:
            self._encode_role_subset(sub_seq[0], sup_seq[0])
        else:
            self._encode_sequence_subset(sub_seq, sup_seq)

    def _encode_role_subset(self, sub_role: str, sup_role: str) -> None:
        for individual in self._individuals:
            sup_tuples = self._tuples_with_filler(sup_role, individual)
            for sub_var in self._tuples_with_filler(sub_role, individual):
                self._builder.add_clause((-sub_var, *sup_tuples))

    def _encode_sequence_subset(
        self, sub_seq: RoleSequence, sup_seq: RoleSequence
    ) -> None:
        for fillers in itertools.product(self._individuals, repeat=2):
            sub_var = self._sequence_tuple_var(sub_seq, fillers)
            if sub_var is None:
                continue
            sup_var = self._sequence_tuple_var(sup_seq, fillers)
            if sup_var is None:
                self._builder.add_clause((-sub_var,))
            else:
                self._builder.add_implication(sub_var, sup_var)

    # -- ring constraints -------------------------------------------------

    def _ring_var(
        self, constraint: RingConstraint, first: Individual, second: Individual
    ) -> int | None:
        """R(first, second) oriented along (first_role, second_role)."""
        role = self._schema.role(constraint.first_role)
        if role.position == 0:
            return self._fvar(role.fact_type, first, second)
        return self._fvar(role.fact_type, second, first)

    def _emit_ring(self, constraint: RingConstraint) -> None:
        handler = {
            RingKind.IRREFLEXIVE: self._encode_irreflexive,
            RingKind.SYMMETRIC: self._encode_symmetric,
            RingKind.ANTISYMMETRIC: self._encode_antisymmetric,
            RingKind.ASYMMETRIC: self._encode_asymmetric,
            RingKind.INTRANSITIVE: self._encode_intransitive,
            RingKind.ACYCLIC: self._encode_acyclic,
        }[constraint.kind]
        handler(constraint)

    def _encode_irreflexive(self, constraint: RingConstraint) -> None:
        for individual in self._individuals:
            var = self._ring_var(constraint, individual, individual)
            if var is not None:
                self._builder.add_clause((-var,))

    def _encode_symmetric(self, constraint: RingConstraint) -> None:
        for first, second in itertools.permutations(self._individuals, 2):
            forward = self._ring_var(constraint, first, second)
            if forward is None:
                continue
            backward = self._ring_var(constraint, second, first)
            if backward is None:
                self._builder.add_clause((-forward,))
            else:
                self._builder.add_implication(forward, backward)

    def _encode_antisymmetric(self, constraint: RingConstraint) -> None:
        for first, second in itertools.combinations(self._individuals, 2):
            forward = self._ring_var(constraint, first, second)
            backward = self._ring_var(constraint, second, first)
            if forward is not None and backward is not None:
                self._builder.add_clause((-forward, -backward))

    def _encode_asymmetric(self, constraint: RingConstraint) -> None:
        self._encode_antisymmetric(constraint)
        self._encode_irreflexive(constraint)

    def _encode_intransitive(self, constraint: RingConstraint) -> None:
        for first in self._individuals:
            for middle in self._individuals:
                first_leg = self._ring_var(constraint, first, middle)
                if first_leg is None:
                    continue
                for last in self._individuals:
                    second_leg = self._ring_var(constraint, middle, last)
                    shortcut = self._ring_var(constraint, first, last)
                    if second_leg is None or shortcut is None:
                        continue
                    self._builder.add_clause((-first_leg, -second_leg, -shortcut))

    def _encode_acyclic(self, constraint: RingConstraint) -> None:
        """R is acyclic iff it embeds into a strict total order."""
        participants = self._individuals
        order: dict[tuple[Individual, Individual], int] = {}
        for first, second in itertools.permutations(participants, 2):
            order[first, second] = self._builder.new_var(
                f"ord[{constraint.label},{_instance_name(first)}<{_instance_name(second)}]"
            )
        for first, second in itertools.combinations(participants, 2):
            self._builder.add_clause((order[first, second], order[second, first]))
            self._builder.add_clause((-order[first, second], -order[second, first]))
        for first, middle, last in itertools.permutations(participants, 3):
            self._builder.add_clause(
                (-order[first, middle], -order[middle, last], order[first, last])
            )
        self._encode_irreflexive(constraint)
        for first, second in itertools.permutations(participants, 2):
            var = self._ring_var(constraint, first, second)
            if var is not None:
                self._builder.add_implication(var, order[first, second])

    # -- goals -------------------------------------------------------------

    def _known_goal_or_raise(self, goal: Goal) -> None:
        """Reject malformed goals the same way :meth:`_encode_goal` would."""
        if isinstance(goal, tuple):
            kind, name = goal
            if kind == "role":
                self._schema.role(name)
            elif kind == "type":
                self._schema.object_type(name)
            elif kind == "roles":
                for role_name in name:
                    self._schema.role(role_name)
            else:
                raise ValueError(f"unknown goal kind: {kind!r}")
        elif goal not in (GOAL_WEAK, GOAL_STRONG, GOAL_CONCEPT, GOAL_GLOBAL):
            raise ValueError(f"unknown goal kind: {goal!r}")

    def _encode_goal(self, goal: Goal) -> None:
        if goal == GOAL_WEAK:
            return
        if goal == GOAL_STRONG or goal == GOAL_GLOBAL:
            for fact in self._schema.fact_types():
                self._builder.add_clause(
                    [var for _, _, var in self._fact_vars(fact.name)]
                )
        if goal == GOAL_CONCEPT or goal == GOAL_GLOBAL:
            for type_name in self._schema.object_type_names():
                self._builder.add_clause(
                    [var for _, var in self._members_of(type_name)]
                )
        if isinstance(goal, tuple):
            kind, name = goal
            if kind == "role":
                fact_name = self._schema.role(name).fact_type
                self._builder.add_clause(
                    [var for _, _, var in self._fact_vars(fact_name)]
                )
            elif kind == "type":
                self._builder.add_clause([var for _, var in self._members_of(name)])
            elif kind == "roles":
                # Populate all listed roles simultaneously (Pattern 5's
                # joint-unsatisfiability reading).
                for role_name in name:
                    fact_name = self._schema.role(role_name).fact_type
                    self._builder.add_clause(
                        [var for _, _, var in self._fact_vars(fact_name)]
                    )
            else:
                raise ValueError(f"unknown goal kind: {kind!r}")


#: A selector-guarded clause group.  Structural keys cover typing
#: (``("fact", name)``), subtyping (``("subtype", sub, super)``), default
#: top-type disjointness (``("top", root)`` for the name-sorted first root,
#: ``("top", root, predecessor)`` for every later link of the sequential
#: chain — see :meth:`IncrementalSchemaEncoder._emit_top_chain_link`) and
#: constraints (``("constraint", label)``); goal keys (``("popfact", name)``
#: / ``("poptype", name)``) carry the populate-this-element disjunctions
#: that :meth:`IncrementalSchemaEncoder.assumptions` switches per goal.
GroupKey = tuple[str, ...]


class IncrementalSchemaEncoder(SchemaEncoder):
    """A :class:`SchemaEncoder` whose clauses are retirable selector groups.

    Every logical unit of the encoding — one fact type's typing clauses, one
    subtype link, one constraint, one goal disjunction — is emitted behind a
    fresh *selector* variable ``sel``: each clause ``C`` is stored as
    ``¬sel ∨ C`` (see :meth:`CnfBuilder.begin_guard`) and is active only
    while ``sel`` is assumed true.  Editing the schema then means retiring
    the selectors of removed/changed elements and emitting new groups for
    added ones — the CNF only ever grows, and a persistent
    :class:`~repro.sat.solver.CdclSolver` keeps its clause database and
    watch structure across checks (it deletes a retired group's clauses).

    The *individual universe is immutable per encoder*: the abstract domain
    size is fixed at construction and the value individuals are snapshotted
    from the schema's value constraints.  Any edit that changes the value
    universe therefore requires a fresh encoder (the
    :class:`~repro.reasoner.incremental.SessionReasoner` detects this and
    rebuilds cold); everything else is an incremental :meth:`sync`.

    Goals are not encoded into clauses here.  Instead each fact/type gets a
    guarded "populate me" disjunction whose selector is only assumed true
    when the goal asks for it — so switching goals between checks costs
    nothing.
    """

    def __init__(
        self,
        schema: Schema,
        num_abstract: int,
        strict_subtypes: bool = True,
        default_type_exclusion: bool = True,
    ) -> None:
        super().__init__(
            schema,
            num_abstract,
            strict_subtypes=strict_subtypes,
            default_type_exclusion=default_type_exclusion,
        )
        self._groups: dict[GroupKey, int] = {}
        self._retired: list[int] = []
        # Aux vars of the top-disjointness chain, keyed (root, individual):
        # "individual belongs to some root sorted <= this one".  Cached and
        # reused across re-emissions — unlike plays-vars this is safe,
        # because desired_groups keeps every user of a chain var in lockstep
        # with the (active) group that defines it.
        self._top_chain: dict[tuple[str, Individual], int] = {}
        self.sync()

    # -- introspection -----------------------------------------------------

    @property
    def builder(self) -> CnfBuilder:
        return self._builder

    @property
    def retired_group_count(self) -> int:
        """How many groups have been retired (the rebuild's memory signal)."""
        return len(self._retired)

    def value_universe(self) -> tuple[str, ...]:
        """The value individuals baked into this encoder, in universe order."""
        return tuple(
            payload for kind, payload in self._individuals if kind == "v"  # type: ignore[misc]
        )

    # -- incremental variable allocation -----------------------------------

    def _fvar(self, fact_name: str, first: Individual, second: Individual) -> int | None:
        # Unlike the cold encoder, re-check admissibility even for cached
        # variables: a fact type removed and re-added with different players
        # keeps its old tuple variables in the cache, but they must not leak
        # into newly emitted groups.
        fact = self._schema.fact_type(fact_name)
        if not self._allowed(fact.roles[0].player, first):
            return None
        if not self._allowed(fact.roles[1].player, second):
            return None
        key = (fact_name, first, second)
        var = self._fact_tuple.get(key)
        if var is None:
            var = self._builder.new_var(
                f"f[{fact_name},{_instance_name(first)},{_instance_name(second)}]"
            )
            self._fact_tuple[key] = var
        return var

    def _plays_var(self, role_name: str, individual: Individual) -> int:
        # Never reuse a plays variable across groups: its defining
        # implications (tuple -> plays) are guarded by the group that
        # allocated it, so after that group retires a cached variable would
        # have no definition left and the frequency lower bound it guards
        # would silently evaporate.
        var = self._builder.new_var(
            f"plays[{role_name},{_instance_name(individual)}]"
        )
        for tuple_var in self._tuples_with_filler(role_name, individual):
            self._builder.add_implication(tuple_var, var)
        return var

    # -- group management --------------------------------------------------

    def desired_groups(self) -> dict[GroupKey, None]:
        """Every group the current schema needs, in deterministic order.

        The result depends only on the schema (not on this encoder's domain
        size), so a caller juggling one encoder per size — the warm
        :class:`~repro.reasoner.incremental.SessionReasoner` — computes it
        once and passes it to every :meth:`sync`.
        """
        keys: dict[GroupKey, None] = {}
        for fact in self._schema.fact_types():
            keys[("fact", fact.name)] = None
        for link in self._schema.subtype_links():
            keys[("subtype", link.sub, link.super)] = None
        if self._top_exclusion:
            # Sequential at-most-one chain over the name-sorted roots: one
            # group per root (linked to its predecessor) instead of the
            # former O(roots^2) per-pair groups.  Adding or removing a root
            # churns only the root's own link and its successor's.
            roots = sorted(self._schema.root_types())
            for position, root in enumerate(roots):
                if position == 0:
                    keys[("top", root)] = None
                else:
                    keys[("top", root, roots[position - 1])] = None
        for family in self._CONSTRAINT_FAMILIES:
            for constraint in self._schema.constraints_of(family):
                keys[("constraint", constraint.label)] = None
        for fact in self._schema.fact_types():
            keys[("popfact", fact.name)] = None
        for type_name in self._schema.object_type_names():
            keys[("poptype", type_name)] = None
        return keys

    def sync(
        self,
        touched: set[GroupKey] | None = None,
        desired: dict[GroupKey, None] | None = None,
    ) -> list[int]:
        """Bring the clause groups in line with the current schema.

        ``touched`` names groups whose *content* may have changed even
        though their key still exists (e.g. a fact type removed and re-added
        within one journal window); they are retired and re-emitted.  Groups
        whose key disappeared from the schema are retired; new keys are
        emitted.  ``desired`` is an optional precomputed
        :meth:`desired_groups` result (it is schema-level, so one dict
        serves every per-size encoder).  The caller is responsible for
        detecting value-universe changes — those invalidate the whole
        encoder (see class docstring).

        Returns the selectors retired by *this* call; the caller must hand
        them to :meth:`repro.sat.solver.CdclSolver.retire_selectors`, which
        fixes them false for good — :meth:`assumptions` no longer lists
        them.
        """
        if desired is None:
            desired = self.desired_groups()
        # Set algebra finds the deltas; the ordered dicts then drive the
        # actual retire/emit loops so the retirement and emission order —
        # and with it the solver's behaviour — stays deterministic.
        current = self._groups.keys()
        stale = current - desired.keys()
        if touched:
            stale |= touched & current
        newly_retired: list[int] = []
        if stale:
            for key in [key for key in self._groups if key in stale]:
                selector = self._groups.pop(key)
                self._retired.append(selector)
                newly_retired.append(selector)
        if desired.keys() - current:
            for key in desired:
                if key not in self._groups:
                    self._emit_group(key)
        return newly_retired

    def _emit_group(self, key: GroupKey) -> None:
        selector = self._builder.new_var("sel[" + ",".join(map(str, key)) + "]")
        self._builder.begin_guard(selector)
        try:
            kind = key[0]
            if kind == "fact":
                self._emit_fact_typing(self._schema.fact_type(key[1]))
            elif kind == "subtype":
                link = next(
                    link
                    for link in self._schema.subtype_links()
                    if (link.sub, link.super) == key[1:]
                )
                self._emit_subtype(link)
            elif kind == "top":
                if len(key) == 2:
                    self._emit_top_chain_head(key[1])
                else:
                    self._emit_top_chain_link(key[1], key[2])
            elif kind == "constraint":
                constraint = next(
                    constraint
                    for constraint in self._schema.constraints()
                    if constraint.label == key[1]
                )
                self._emit_constraint(constraint)
            elif kind == "popfact":
                self._builder.add_clause(
                    [var for _, _, var in self._fact_vars(key[1])]
                )
            elif kind == "poptype":
                self._builder.add_clause(
                    [var for _, var in self._members_of(key[1])]
                )
            else:  # pragma: no cover - keys come from desired_groups
                raise AssertionError(f"unknown group kind: {kind!r}")
        finally:
            self._builder.end_guard()
        self._groups[key] = selector

    # -- top-type disjointness chain ---------------------------------------

    def _top_chain_var(self, root: str, individual: Individual) -> int:
        """The chain prefix var: individual is in some root sorted <= root."""
        key = (root, individual)
        var = self._top_chain.get(key)
        if var is None:
            var = self._builder.new_var(
                f"topchain[{root},{_instance_name(individual)}]"
            )
            self._top_chain[key] = var
        return var

    def _emit_top_chain_head(self, root: str) -> None:
        """First link of the chain: membership implies the prefix var."""
        for individual in self._individuals:
            member = self._mvar(root, individual)
            if member is not None:
                self._builder.add_implication(
                    member, self._top_chain_var(root, individual)
                )

    def _emit_top_chain_link(self, root: str, predecessor: str) -> None:
        """One inner link of the sequential at-most-one chain.

        Per individual: the predecessor's prefix propagates forward, this
        root's membership raises the prefix, and a raised predecessor prefix
        excludes membership here — together (over the whole chain) exactly
        pairwise root disjointness, in O(roots) clause groups.
        """
        for individual in self._individuals:
            prefix = self._top_chain_var(predecessor, individual)
            here = self._top_chain_var(root, individual)
            self._builder.add_implication(prefix, here)
            member = self._mvar(root, individual)
            if member is not None:
                self._builder.add_implication(member, here)
                self._builder.add_clause((-prefix, -member))

    # -- solving interface -------------------------------------------------

    def goal_group_keys(self, goal: Goal) -> set[GroupKey]:
        """The popfact/poptype groups a goal needs asserted."""
        self._known_goal_or_raise(goal)
        keys: set[GroupKey] = set()
        if goal in (GOAL_STRONG, GOAL_GLOBAL):
            keys.update(("popfact", fact.name) for fact in self._schema.fact_types())
        if goal in (GOAL_CONCEPT, GOAL_GLOBAL):
            keys.update(
                ("poptype", name) for name in self._schema.object_type_names()
            )
        if isinstance(goal, tuple):
            kind, name = goal
            if kind == "role":
                keys.add(("popfact", self._schema.role(name).fact_type))
            elif kind == "type":
                keys.add(("poptype", name))
            elif kind == "roles":
                for role_name in name:
                    keys.add(("popfact", self._schema.role(role_name).fact_type))
        return keys

    def assumptions(self, goal: Goal) -> list[int]:
        """The assumption literals activating the current schema + goal.

        Only live groups appear: structural groups are asserted and goal
        groups are asserted or negated per the requested goal.  Retired
        selectors are left out — the solver they were handed to (see
        :meth:`sync`) holds them false at level 0.
        """
        wanted = self.goal_group_keys(goal)
        literals: list[int] = []
        for key, selector in self._groups.items():
            if key[0] in ("popfact", "poptype"):
                literals.append(selector if key in wanted else -selector)
            else:
                literals.append(selector)
        return literals

    def decode_model(self, model: dict[int, bool]) -> Population:
        """Translate a satisfying assignment into a population.

        Variables belonging to removed schema elements (or to tuple pairs no
        longer admissible after a fact re-add) are skipped — their groups
        are retired, so the solver may assign them freely.
        """
        population = Population(self._schema)
        for (type_name, individual), var in self._membership.items():
            if not model.get(var):
                continue
            if not self._schema.has_object_type(type_name):
                continue
            if not self._allowed(type_name, individual):
                continue
            population.add_instance(type_name, _instance_name(individual))
        for (fact_name, first, second), var in self._fact_tuple.items():
            if not model.get(var):
                continue
            if not self._schema.has_fact_type(fact_name):
                continue
            fact = self._schema.fact_type(fact_name)
            if not self._allowed(fact.roles[0].player, first):
                continue
            if not self._allowed(fact.roles[1].player, second):
                continue
            population.add_fact(
                fact_name, _instance_name(first), _instance_name(second)
            )
        return population
