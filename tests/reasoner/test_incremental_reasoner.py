"""The warm ``SessionReasoner`` must be indistinguishable from a cold run.

Every test here compares the incremental reasoner's verdicts against a
fresh :class:`BoundedModelFinder` over the same schema — after figure
loads, after hand-written edit sequences, and (property-tested) after
random edit scripts including removals.  At tiny bounds the brute-force
enumerator is pulled in as a third, independent oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetExceededError, SchemaError
from repro.orm import SchemaBuilder
from repro.reasoner import BoundedModelFinder, SessionReasoner, find_model
from repro.reasoner.incremental import MAX_RETIRED_GROUPS
from repro.workloads import GeneratorConfig, generate_schema
from repro.workloads.figures import FIGURES, build_figure
from repro.workloads.generator import apply_random_edit

GOALS = ("strong", "concept", "weak", "global")


def assert_verdicts_agree(warm, cold, context=""):
    assert warm.status == cold.status, (
        f"warm={warm.status} cold={cold.status} {context}"
    )
    assert warm.sizes_tried == cold.sizes_tried, context
    assert warm.inconclusive_sizes == cold.inconclusive_sizes, context
    # Witnesses are validated internally; existence must agree.
    assert (warm.witness is None) == (cold.witness is None), context


class TestFigureAgreement:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_all_figures_all_goals(self, name):
        schema = build_figure(name)
        warm = SessionReasoner(schema)
        cold = BoundedModelFinder(schema)
        for goal in GOALS:
            assert_verdicts_agree(
                warm.check(goal, max_domain=2),
                cold.check(goal, max_domain=2),
                f"{name}/{goal}",
            )

    def test_repeated_checks_reuse_contexts(self):
        schema = build_figure("fig11_sister_of")
        warm = SessionReasoner(schema)
        warm.check("strong", max_domain=3)
        warm.check("concept", max_domain=3)
        warm.check("weak", max_domain=3)
        assert warm.stats.cold_rebuilds == 0


class TestEditAgreement:
    def test_verdict_tracks_edits(self):
        schema = SchemaBuilder().entity("A").entity("B").build()
        warm = SessionReasoner(schema)
        assert warm.check("concept", max_domain=2).status == "sat"
        schema.add_exclusive_types("A", "B")
        assert warm.check("concept", max_domain=2).status == "sat"
        schema.add_subtype("A", "B")
        # A < B plus A excl B: A can never be populated.
        verdict = warm.check("concept", max_domain=3)
        assert verdict.status == "unsat"
        assert warm.check(("type", "B"), max_domain=2).status == "sat"
        assert warm.check(("type", "A"), max_domain=3).status == "unsat"

    def test_removal_restores_satisfiability(self):
        schema = SchemaBuilder().entity("A").entity("B").build()
        schema.add_subtype("A", "B")
        label = schema.add_exclusive_types("A", "B").label
        warm = SessionReasoner(schema)
        assert warm.check("concept", max_domain=3).status == "unsat"
        schema.remove_constraint(label)
        assert warm.check("concept", max_domain=2).status == "sat"
        assert warm.stats.cold_rebuilds == 0  # retirement, not rebuild

    def test_fact_remove_and_readd_with_different_players(self):
        # The regression the touched-keys plumbing exists for: the group
        # key ("fact", name) survives a remove+re-add inside one journal
        # window while the typing constraints behind it change.
        schema = SchemaBuilder().entity("A").entity("B").build()
        schema.add_fact_type("F", "r1", "A", "r2", "A")
        warm = SessionReasoner(schema)
        assert warm.check("strong", max_domain=2).status == "sat"
        schema.remove_fact_type("F")
        schema.add_fact_type("F", "r1", "A", "r2", "B")
        warm_verdict = warm.check("strong", max_domain=3)
        cold_verdict = BoundedModelFinder(schema).check("strong", max_domain=3)
        assert_verdicts_agree(warm_verdict, cold_verdict)
        assert warm_verdict.witness.tuples_of("F")

    def test_value_universe_change_forces_rebuild(self):
        schema = SchemaBuilder().entity("A").build()
        warm = SessionReasoner(schema)
        warm.check("concept", max_domain=1)
        schema.add_entity_type("V", ["x", "y"])
        verdict = warm.check("concept", max_domain=1)
        assert verdict.status == "sat"
        assert warm.stats.cold_rebuilds > 0

    def test_journal_truncation_falls_back_to_rebuild(self):
        schema = SchemaBuilder().entity("A").build()
        warm = SessionReasoner(schema)
        warm.check("weak", max_domain=1)
        schema.add_entity_type("B")
        # Simulate a journal truncated below the contexts' marks (a
        # detached/restored schema): every context must rebuild cold.
        for context in warm._contexts.values():
            context.mark = -1
        with pytest.raises(SchemaError):
            schema.changes_since(-1)
        verdict = warm.check("concept", max_domain=2)
        assert verdict.status == "sat"
        assert warm.stats.cold_rebuilds > 0

    def test_retired_pileup_triggers_compaction(self):
        schema = SchemaBuilder().entity("A").entity("B").build()
        warm = SessionReasoner(schema)
        warm.check("weak", max_domain=1)
        labels = []
        # Each loop retires the previous constraint's group; blow well past
        # the retirement cap and verify the context was rebuilt compact.
        for _ in range(MAX_RETIRED_GROUPS + 8):
            if labels:
                schema.remove_constraint(labels.pop())
            labels.append(schema.add_exclusive_types("A", "B").label)
            warm.check("weak", max_domain=1)
        assert warm.stats.cold_rebuilds > 0
        for context in warm._contexts.values():
            assert context.encoder.retired_group_count <= MAX_RETIRED_GROUPS

    def test_long_lived_context_state_stays_bounded(self):
        # A warm solver keeps level 0 between solves and updates its lazy
        # branching heap instead of rebuilding it per solve, so over ~1000
        # edit+check rounds the heap's stale entries and the level-0 units
        # of retired selectors must stay proportional to the variable
        # count, and only live groups may keep clauses in the solver.
        rng = random.Random(16)
        schema = SchemaBuilder().entity("A").entity("B").build()
        schema.add_fact_type("F", "f1", "A", "f2", "B")
        schema.add_fact_type("G", "g1", "A", "g2", "B")
        warm = SessionReasoner(schema)
        labels = []
        statuses = set()
        for _ in range(1000):
            if labels and rng.random() < 0.5:
                schema.remove_constraint(labels.pop(rng.randrange(len(labels))))
            elif rng.random() < 0.3:
                # With f1 and g1 both mandatory, A (so F and G) stays empty.
                labels.append(schema.add_exclusion("f1", "g1").label)
            else:
                role = rng.choice(("f1", "f2", "g1", "g2"))
                labels.append(schema.add_mandatory(role).label)
            statuses.add(warm.check("strong", max_domain=2).status)
            for context in warm._contexts.values():
                solver = context.solver
                assert len(solver._heap) <= 2 * solver._num_vars
                assert len(solver._units) <= 2 * solver._num_vars
                assert solver._groups.keys() <= set(context.encoder._groups.values())
        assert statuses == {"sat", "unsat"}
        assert warm.stats.cold_rebuilds > 0  # lived through rebuild cycles

    def test_top_chain_stays_linear_on_wide_flat_schemas(self):
        # The default top-type disjointness used to cost O(roots^2) selector
        # groups; the sequential chain costs one group per root, and adding
        # a root that sorts last churns nothing that already exists.
        builder = SchemaBuilder()
        for index in range(12):
            builder.entity(f"T{index:02d}")
        schema = builder.build()
        warm = SessionReasoner(schema)
        assert warm.check("weak", max_domain=1).status == "sat"
        context = next(iter(warm._contexts.values()))
        top_groups = [
            key for key in context.encoder._groups if key[0] == "top"
        ]
        assert len(top_groups) == 12
        schema.add_entity_type("T99")  # sorts after every existing root
        assert warm.check("weak", max_domain=1).status == "sat"
        assert context.encoder.retired_group_count == 0
        assert warm.stats.cold_rebuilds == 0

    def test_top_chain_root_removal_churns_two_links(self):
        builder = SchemaBuilder()
        for name in ("A", "B", "C", "D"):
            builder.entity(name)
        schema = builder.build()
        warm = SessionReasoner(schema)
        assert warm.check("weak", max_domain=1).status == "sat"
        context = next(iter(warm._contexts.values()))
        # Removing the mid-chain root B retires its link and re-links its
        # successor C to A — two chain groups (plus B's own poptype goal
        # group), not O(roots).
        schema.remove_object_type("B")
        assert warm.check("weak", max_domain=1).status == "sat"
        assert context.encoder.retired_group_count == 3
        top_groups = [
            key for key in context.encoder._groups if key[0] == "top"
        ]
        assert ("top", "C", "A") in top_groups
        assert len(top_groups) == 3

    def test_top_chain_disjointness_still_enforced_across_edits(self):
        # Semantics guard for the chain rewrite: root disjointness must
        # still refute membership overlap after chain-churning edits.
        builder = SchemaBuilder()
        for name in ("A", "B", "C"):
            builder.entity(name)
        schema = builder.build()
        warm = SessionReasoner(schema)
        assert warm.check("concept", max_domain=3).status == "sat"
        schema.add_subtype("C", "A")
        schema.add_subtype("C", "B")
        # C under two disjoint roots: C unpopulatable, concept goal unsat.
        for goal in (("type", "C"), "concept"):
            warm_verdict = warm.check(goal, max_domain=3)
            cold_verdict = BoundedModelFinder(schema).check(goal, max_domain=3)
            assert warm_verdict.status == "unsat"
            assert_verdicts_agree(warm_verdict, cold_verdict)
        schema.remove_subtype("C", "B")
        warm_verdict = warm.check("concept", max_domain=3)
        assert warm_verdict.status == "sat"
        assert_verdicts_agree(
            warm_verdict, BoundedModelFinder(schema).check("concept", max_domain=3)
        )

    def test_retire_hook_reaches_the_solver(self):
        # An UNSAT check on a conflict-heavy constraint learns lemmas; when
        # the constraint is removed the retire-hook must purge the ones
        # that depended on it.
        schema = SchemaBuilder().entity("A").entity("B").build()
        schema.add_subtype("A", "B")
        label = schema.add_exclusive_types("A", "B").label
        warm = SessionReasoner(schema)
        verdict = warm.check("concept", max_domain=3)
        assert verdict.status == "unsat"
        schema.remove_constraint(label)
        assert warm.check("concept", max_domain=3).status == "sat"
        for context in warm._contexts.values():
            for index in context.solver._learned:
                clause = context.solver._clauses[index]
                retired = set(context.encoder._retired)
                assert not any(abs(lit) in retired for lit in clause)

    def test_journal_consumer_protects_entries(self):
        schema = SchemaBuilder().entity("A").build()
        warm = SessionReasoner(schema)
        warm.check("weak", max_domain=1)
        mark = warm.journal_mark
        schema.add_entity_type("B")
        assert schema.journal_low_water() <= mark
        schema.compact_journal()
        # Compaction honoured our mark: the new entry is still replayable.
        assert warm.check("concept", max_domain=2).status == "sat"


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    allow_removals=st.booleans(),
)
def test_random_edit_scripts_match_cold_runs(seed, allow_removals):
    """One warm reasoner across a whole random edit script (removals
    included) answers exactly like a fresh cold finder at every step."""
    rng = random.Random(seed)
    config = GeneratorConfig(num_types=4, num_facts=2, seed=seed)
    schema = generate_schema(config)
    warm = SessionReasoner(schema)
    for step in range(6):
        description = apply_random_edit(schema, rng, allow_removals=allow_removals)
        goal = rng.choice(GOALS)
        warm_verdict = warm.check(goal, max_domain=2)
        cold_verdict = BoundedModelFinder(schema).check(goal, max_domain=2)
        assert_verdicts_agree(
            warm_verdict, cold_verdict, f"seed={seed} step={step} ({description})"
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_warm_cold_and_bruteforce_agree_at_tiny_bounds(seed):
    """Three-way oracle agreement after edits: warm == cold == brute force."""
    from hypothesis import assume

    rng = random.Random(seed)
    config = GeneratorConfig(
        num_types=2,
        num_facts=1,
        subtype_probability=0.4,
        value_probability=0.3,
        max_values=2,
        exclusion_probability=0.0,
        seed=seed,
    )
    schema = generate_schema(config)
    warm = SessionReasoner(schema)
    for _ in range(3):
        apply_random_edit(schema, rng, allow_removals=True)
    warm_verdict = warm.check("strong", max_domain=2)
    cold_verdict = BoundedModelFinder(schema).check("strong", max_domain=2)
    assert warm_verdict.status == cold_verdict.status
    try:
        brute = find_model(schema, num_abstract=2, require_all_roles=True)
    except BudgetExceededError:
        assume(False)
        return
    assert (warm_verdict.status == "sat") == (brute is not None)
