"""Seeded inputs: base schemas and per-session edit turns.

Everything here is pure Python over plain data.  A :class:`SessionScript`
models the schema a session holds (the elements the benchmark added, plus
the base schema's players and roles) and draws edits that are valid in
order *by construction*: removals only target elements the script itself
added, and every cascade the server applies (a removed fact drops the
constraints on its roles, a removed entity drops the facts it plays and
its subtype links) is mirrored here.  The server receives only the
generated ``(verb, args, kwargs)`` edits and the base schema's DSL text.

The number of script-added elements is held near a fixed ceiling, so the
cost of a request does not drift as a run gets longer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.io.dsl import parse_schema, write_schema
from repro.orm import SchemaBuilder
from repro.workloads.generator import GeneratorConfig, generate_schema

#: One edit as it travels over the wire: ``ServiceClient.edit(session,
#: verb, *args, **kwargs)``.
Edit = tuple[str, list, dict]


def generator_schema_dsl(seed: int, num_types: int, num_facts: int, **knobs: Any) -> str:
    """A :func:`repro.workloads.generator.generate_schema` schema as DSL
    (``knobs`` override further :class:`GeneratorConfig` fields)."""
    config = GeneratorConfig(num_types=num_types, num_facts=num_facts, seed=seed, **knobs)
    return write_schema(generate_schema(config))


def pigeonhole_schema_dsl(num_facts: int) -> str:
    """The conflict-heavy UNSAT shape of ``benchmarks/bench_check.py``:
    ``num_facts`` fact types whose Hole-side roles must all carry distinct
    fillers, so strong satisfiability fails at every domain size below
    ``num_facts``."""
    schema = SchemaBuilder().entity("Hole").entity("Pigeon").build()
    for index in range(num_facts):
        schema.add_fact_type(f"F{index}", f"p{index}", "Pigeon", f"h{index}", "Hole")
    schema.add_exclusion(
        *[f"h{index}" for index in range(num_facts)], label="distinct_holes"
    )
    return write_schema(schema)


@dataclass
class SessionScript:
    """The seeded edit stream of one session.

    ``base_types`` and ``base_roles`` come from the session's base schema;
    the script never removes them.  ``small_sat`` leaves out value pools
    (a new value universe forces a cold SAT encoder rebuild) and frequency
    constraints (cardinality encodings are where bounded checks get
    expensive).

    ``stable_labels`` keeps every constraint label stable across a schema
    DSL round trip, which a durable router's compaction snapshot is: the
    DSL does not carry labels, so a re-parsed schema renumbers its
    generated ones.  In that mode constraints are added without labels and
    never removed, not even by a cascade, and their count is capped.
    """

    rng: random.Random
    base_types: list[str]
    base_roles: list[str]
    max_added: int = 24
    small_sat: bool = False
    stable_labels: bool = False
    _serial: int = 0
    _entities: list[str] = field(default_factory=list)
    _facts: dict[str, tuple[str, str, str, str]] = field(default_factory=dict)
    _constraints: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _subtypes: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def for_schema(cls, seed: int, dsl: str, **kwargs: Any) -> "SessionScript":
        """A script over the base schema written as ``dsl``."""
        schema = parse_schema(dsl)
        return cls(
            random.Random(seed),
            base_types=list(schema.object_type_names()),
            base_roles=list(schema.role_names()),
            **kwargs,
        )

    def _name(self, stem: str) -> str:
        self._serial += 1
        return f"{stem}{self._serial}"

    def _added(self) -> int:
        return len(self._entities) + len(self._facts) + len(self._constraints)

    def _roles(self) -> list[str]:
        roles = list(self.base_roles)
        for role_a, _, role_b, _ in self._facts.values():
            roles += [role_a, role_b]
        return roles

    def _constrained(self, fact: str) -> bool:
        role_a, _, role_b, _ = self._facts[fact]
        return any({role_a, role_b} & set(roles) for roles in self._constraints.values())

    def _plays(self, entity: str) -> list[str]:
        return [f for f, (_, a, _, b) in self._facts.items() if entity in (a, b)]

    def _drop_fact(self, fact: str) -> None:
        role_a, _, role_b, _ = self._facts.pop(fact)
        gone = {role_a, role_b}
        for label in [k for k, roles in self._constraints.items() if gone & set(roles)]:
            del self._constraints[label]

    def next_edit(self) -> Edit:
        """Draw one edit and update the model as if it was applied."""
        removing = self._added() >= self.max_added or (
            self._added() > self.max_added // 2 and self.rng.random() < 0.35
        )
        edit = self._removal() if removing else None
        return edit if edit is not None else self._addition()

    def turn(self, low: int, high: int) -> list[Edit]:
        """``low``..``high`` consecutive edits (one client turn)."""
        return [self.next_edit() for _ in range(self.rng.randint(low, high))]

    def _addition(self) -> Edit:
        rng = self.rng
        players = self.base_types + self._entities
        draw = rng.random()
        capped = self.stable_labels and len(self._constraints) >= self.max_added // 3
        if draw < 0.2 or (capped and draw >= 0.55):
            name = self._name("E")
            self._entities.append(name)
            if not self.small_sat and rng.random() < 0.25:
                pool = [f"{name.lower()}v{k}" for k in range(rng.randint(1, 3))]
                return ("add_entity", [name, pool], {})
            return ("add_entity", [name], {})
        if draw < 0.45:
            fact = self._name("G")
            role_a, role_b = f"{fact.lower()}a", f"{fact.lower()}b"
            player_a, player_b = rng.choice(players), rng.choice(players)
            self._facts[fact] = (role_a, player_a, role_b, player_b)
            return ("add_fact", [fact, role_a, player_a, role_b, player_b], {})
        if draw < 0.55 and self._entities:
            sub = rng.choice(self._entities)
            sup = rng.choice(players)
            if sup != sub and (sub, sup) not in self._subtypes:
                self._subtypes.append((sub, sup))
                return ("add_subtype", [sub, sup], {})
        role = rng.choice(self._roles())
        label = self._name("bk")
        self._constraints[label] = (role,)
        named = {} if self.stable_labels else {"label": label}
        kind = rng.random() * (0.8 if self.small_sat else 1.0)
        if kind < 0.4:
            return ("add_mandatory", [role], named)
        if kind < 0.8:
            return ("add_uniqueness", [role], named)
        low = rng.randint(1, 3)
        return ("add_frequency", [role, low, low + rng.randint(0, 2)], named)

    def _removal(self) -> Edit | None:
        """A removal that cascades only as the model mirrors (and, with
        ``stable_labels``, removes no constraint at all)."""
        rng = self.rng
        stable = self.stable_labels
        facts = sorted(f for f in self._facts if not (stable and self._constrained(f)))
        entities = [e for e in self._entities if not (stable and self._plays(e))]
        candidates = [
            kind
            for kind, present in (
                ("constraint", self._constraints and not stable),
                ("fact", facts),
                ("entity", entities),
                ("subtype", self._subtypes),
            )
            if present
        ]
        if not candidates:
            return None
        kind = rng.choice(candidates)
        if kind == "constraint":
            label = rng.choice(sorted(self._constraints))
            del self._constraints[label]
            return ("remove_constraint", [label], {})
        if kind == "fact":
            fact = rng.choice(facts)
            self._drop_fact(fact)
            return ("remove_fact", [fact], {})
        if kind == "subtype":
            link = rng.choice(self._subtypes)
            self._subtypes.remove(link)
            return ("remove_subtype", list(link), {})
        entity = rng.choice(entities)
        self._entities.remove(entity)
        for fact in self._plays(entity):
            self._drop_fact(fact)
        self._subtypes = [link for link in self._subtypes if entity not in link]
        return ("remove_entity", [entity], {})
