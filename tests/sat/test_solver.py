"""Tests for the CDCL solver, including randomized cross-validation against
exhaustive truth-table search (with and without clause learning, across
interleaved add_clause / solve(assumptions) sequences)."""

import random

import pytest

from repro.sat import (
    CdclSolver,
    CnfBuilder,
    DpllSolver,
    brute_force_satisfiable,
    solve_cnf,
    verify_model,
)


def build(num_vars, clauses):
    builder = CnfBuilder()
    for _ in range(num_vars):
        builder.new_var()
    for clause in clauses:
        builder.add_clause(clause)
    return builder


class TestBasicCases:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(build(0, [])).is_sat

    def test_single_unit(self):
        result = solve_cnf(build(1, [(1,)]))
        assert result.is_sat and result.model[1] is True

    def test_contradicting_units(self):
        assert solve_cnf(build(1, [(1,), (-1,)])).status is False

    def test_empty_clause_is_unsat(self):
        builder = build(1, [])
        builder.clauses.append(())
        assert solve_cnf(builder).status is False

    def test_simple_implication_chain(self):
        result = solve_cnf(build(3, [(1,), (-1, 2), (-2, 3)]))
        assert result.is_sat
        assert result.model == {1: True, 2: True, 3: True}

    def test_requires_backtracking(self):
        # (a | b) & (a | -b) & (-a | c) & (-a | -c) forces a conflict on a.
        result = solve_cnf(build(3, [(1, 2), (1, -2), (-1, 3), (-1, -3)]))
        assert result.status is False

    def test_pigeonhole_3_into_2_unsat(self):
        # p[i][j]: pigeon i in hole j; classic small UNSAT instance.
        builder = CnfBuilder()
        var = {}
        for pigeon in range(3):
            for hole in range(2):
                var[pigeon, hole] = builder.new_var(f"p{pigeon}h{hole}")
        for pigeon in range(3):
            builder.add_clause([var[pigeon, hole] for hole in range(2)])
        for hole in range(2):
            builder.at_most_one([var[pigeon, hole] for pigeon in range(3)])
        result = solve_cnf(builder)
        assert result.status is False
        assert result.conflicts > 0

    def test_model_verifies(self):
        builder = build(4, [(1, 2), (-1, 3), (-2, -3), (3, 4)])
        result = solve_cnf(builder)
        assert result.is_sat
        assert verify_model(builder, result.model)

    def test_decision_budget_returns_unknown(self):
        clauses = [(1, 2, 3), (-1, -2), (-2, -3), (-1, -3)]
        result = solve_cnf(build(3, clauses), max_decisions=0)
        assert result.status is None


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_truth_table(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        num_clauses = rng.randint(2, 30)
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, 4)
            clause = tuple(
                rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(width)
            )
            clauses.append(clause)
        builder = build(num_vars, clauses)
        expected = brute_force_satisfiable(builder)
        result = solve_cnf(builder)
        assert result.status is expected
        if result.is_sat:
            assert verify_model(builder, result.model)

    @pytest.mark.parametrize("seed", range(10))
    def test_deterministic(self, seed):
        rng = random.Random(seed + 100)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(3))
            for _ in range(15)
        ]
        first = solve_cnf(build(6, list(clauses)))
        second = solve_cnf(build(6, list(clauses)))
        assert first.status == second.status
        assert first.model == second.model
        assert first.decisions == second.decisions


class TestSolverInternals:
    def test_from_builder(self):
        builder = build(2, [(1, 2)])
        solver = DpllSolver.from_builder(builder)
        assert solver.solve().is_sat

    def test_statistics_populated(self):
        builder = build(3, [(1, 2), (-1, 2), (1, -2), (-2, 3)])
        result = solve_cnf(builder)
        assert result.is_sat
        assert result.propagations > 0


class TestReentrantSolve:
    """Regression net for the solver's incremental surface: solve() must be
    callable any number of times, interleaved with add_clause, and behave
    exactly like a fresh solver each time."""

    def test_solve_twice_is_deterministic(self):
        # Regression: _queue_head used to be created inside solve(), so a
        # second call saw stale trail/assignment state.
        clauses = [(1, 2), (1, -2), (-1, 3), (3, 4), (-2, -3)]
        solver = DpllSolver.from_builder(build(4, clauses))
        first = solver.solve()
        second = solver.solve()
        assert first.status == second.status
        assert first.model == second.model
        assert first.decisions == second.decisions

    def test_solve_after_unknown_then_full_budget(self):
        clauses = [(1, 2, 3), (-1, -2), (-2, -3), (-1, -3)]
        solver = DpllSolver.from_builder(build(3, clauses))
        assert solver.solve(max_decisions=0).status is None
        result = solver.solve()
        assert result.is_sat

    def test_add_clause_after_solve(self):
        solver = DpllSolver.from_builder(build(2, [(1, 2)]))
        assert solver.solve().is_sat
        solver.add_clause((-1,))
        result = solver.solve()
        assert result.is_sat and result.model[1] is False
        solver.add_clause((-2,))
        assert solver.solve().status is False

    def test_add_clause_grows_variables(self):
        solver = DpllSolver(0, [])
        solver.add_clause((1, 2))
        solver.add_clause((-2, 3))
        result = solver.solve()
        assert result.is_sat

    def test_ensure_num_vars_extends_assignment(self):
        solver = DpllSolver.from_builder(build(2, [(1, 2)]))
        solver.ensure_num_vars(5)
        result = solver.solve(assumptions=(5,))
        assert result.is_sat and result.model[5] is True

    def test_assumptions_restrict_models(self):
        solver = DpllSolver.from_builder(build(2, [(1, 2)]))
        sat = solver.solve(assumptions=(-1,))
        assert sat.is_sat and sat.model[2] is True
        unsat = solver.solve(assumptions=(-1, -2))
        assert unsat.status is False
        # The solver is unharmed by the UNSAT-under-assumptions call.
        assert solver.solve().is_sat

    def test_assumptions_never_undone_by_backtracking(self):
        # Under assumption -3 the remaining formula is UNSAT; chronological
        # backtracking must exhaust decisions, not flip the assumption.
        clauses = [(1, 2), (1, -2), (-1, 3)]
        solver = DpllSolver.from_builder(build(3, clauses))
        assert solver.solve(assumptions=(-3,)).status is False
        assert solver.solve(assumptions=(3,)).is_sat

    def test_selector_retirement_pattern(self):
        # The MiniSat-style incremental idiom the reasoner uses: guard a
        # clause with a selector, retire it by negating the assumption.
        builder = CnfBuilder()
        x = builder.new_var("x")
        sel = builder.new_var("sel")
        builder.begin_guard(sel)
        builder.add_clause((-x,))
        builder.end_guard()
        builder.add_clause((x, -sel))  # direct contradiction while active
        solver = DpllSolver.from_builder(builder)
        assert solver.solve(assumptions=(sel,)).status is False
        retired = solver.solve(assumptions=(-sel,))
        assert retired.is_sat

    def test_assumption_beyond_num_vars_raises(self):
        from repro.exceptions import SolverError

        solver = DpllSolver.from_builder(build(2, [(1, 2)]))
        with pytest.raises(SolverError):
            solver.solve(assumptions=(7,))

    def test_interleaved_solves_agree_with_fresh_solver(self):
        rng = random.Random(2026)
        for _ in range(20):
            num_vars = rng.randint(3, 7)
            clauses = [
                tuple(
                    rng.choice((1, -1)) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(rng.randint(2, 12))
            ]
            split = rng.randint(0, len(clauses))
            warm = DpllSolver.from_builder(build(num_vars, clauses[:split]))
            warm.solve()  # interleaved solve between feeding batches
            for clause in clauses[split:]:
                warm.add_clause(clause)
            fresh = solve_cnf(build(num_vars, clauses))
            result = warm.solve()
            # Same verdict; the model may be a *different* valid model (the
            # interleaved solve reorders watch lists), so verify it instead.
            assert result.status is fresh.status
            if result.is_sat:
                assert verify_model(build(num_vars, clauses), result.model)


def pigeonhole_builder(pigeons=3, holes=2, guard=None):
    """The classic UNSAT pigeonhole family — conflict-heavy, so the solver
    must actually learn; optionally guarded behind a fresh selector."""
    builder = CnfBuilder()
    var = {
        (pigeon, hole): builder.new_var(f"p{pigeon}h{hole}")
        for pigeon in range(pigeons)
        for hole in range(holes)
    }
    selector = builder.new_var("sel") if guard else None
    if selector is not None:
        builder.begin_guard(selector)
    for pigeon in range(pigeons):
        builder.add_clause([var[pigeon, hole] for hole in range(holes)])
    for hole in range(holes):
        builder.at_most_one([var[pigeon, hole] for pigeon in range(pigeons)])
    if selector is not None:
        builder.end_guard()
    return builder, var, selector


class TestCdclBehaviour:
    """The learning machinery itself: lemmas, budgets, restarts, reduction."""

    def test_unsat_search_learns_clauses(self):
        builder, _, _ = pigeonhole_builder(5, 4)
        solver = CdclSolver.from_builder(builder)
        result = solver.solve()
        assert result.status is False
        assert result.learned > 0
        assert result.learned_kept == solver.learned_clause_count

    def test_learning_off_keeps_no_lemmas(self):
        builder, _, _ = pigeonhole_builder(5, 4)
        solver = CdclSolver.from_builder(builder)
        solver.learning = False
        result = solver.solve()
        assert result.status is False
        # Lemmas may exist transiently (as propagation reasons) but none
        # survive the solve.
        assert result.learned_kept == 0
        assert solver.learned_clause_count == 0
        follow_up = solver.solve()
        assert follow_up.status is False
        assert follow_up.learned_kept == 0

    def test_resolve_after_learning_is_cheaper(self):
        builder, _, _ = pigeonhole_builder(6, 5)
        solver = CdclSolver.from_builder(builder)
        first = solver.solve()
        second = solver.solve()
        assert first.status is False and second.status is False
        assert second.conflicts <= first.conflicts

    def test_conflict_budget_returns_unknown(self):
        builder, _, _ = pigeonhole_builder(5, 4)
        solver = CdclSolver.from_builder(builder)
        capped = solver.solve(max_conflicts=1)
        assert capped.status is None
        assert capped.conflicts == 1
        # The learned clauses survive the early exit; an uncapped retry
        # completes from the stronger database.
        assert solver.solve().status is False

    def test_forced_restarts_keep_verdicts_correct(self):
        builder, _, _ = pigeonhole_builder(5, 4)
        solver = CdclSolver.from_builder(builder)
        solver.restart_base = 1
        result = solver.solve()
        assert result.status is False
        assert result.restarts > 0

    def test_restarts_disabled_without_learning(self):
        builder, _, _ = pigeonhole_builder(5, 4)
        solver = CdclSolver(builder.num_vars, builder.clauses, learning=False)
        solver.restart_base = 1
        result = solver.solve()
        assert result.status is False
        assert result.restarts == 0


class TestGuardedLearning:
    """The learned-clause / selector-guard contract the warm reasoner's
    group retirement relies on (see the CnfBuilder.begin_guard docs)."""

    def test_retired_group_lemmas_cannot_flip_later_verdicts(self):
        builder, var, selector = pigeonhole_builder(4, 3, guard=True)
        solver = CdclSolver.from_builder(builder)
        active = solver.solve(assumptions=(selector,))
        assert active.status is False
        assert active.learned > 0
        # Retired, the exact configuration the group forbade must be
        # satisfiable: pile every pigeon into hole 0.  A lemma that lost
        # its ¬sel dependency would wrongly refute this.
        pile_up = tuple(var[pigeon, 0] for pigeon in range(4))
        retired = solver.solve(assumptions=(-selector, *pile_up))
        assert retired.is_sat
        assert all(retired.model[literal] for literal in pile_up)

    def test_retire_hook_purges_dependent_lemmas(self):
        builder, var, selector = pigeonhole_builder(4, 3, guard=True)
        solver = CdclSolver.from_builder(builder)
        active = solver.solve(assumptions=(selector,))
        assert active.status is False and active.learned_kept > 0
        removed = solver.retire_selectors([selector])
        # Every lemma's derivation used the guarded group, so every lemma
        # carried ¬sel and every lemma goes, with the group's own clauses.
        assert removed > 0
        assert solver.learned_clause_count == 0
        pile_up = tuple(var[pigeon, 0] for pigeon in range(4))
        assert solver.solve(assumptions=(-selector, *pile_up)).is_sat
        assert solver.solve(assumptions=pile_up).is_sat
        # ¬sel holds at level 0 for good: assuming sel again fails at once.
        assert solver.solve(assumptions=(selector,)).status is False

    def test_lemmas_of_surviving_groups_are_kept(self):
        builder, var, selector = pigeonhole_builder(4, 3, guard=True)
        unrelated = builder.new_var("unrelated_sel")
        solver = CdclSolver.from_builder(builder)
        active = solver.solve(assumptions=(selector,))
        assert active.status is False and active.learned_kept > 0
        kept_before = solver.learned_clause_count
        assert solver.retire_selectors([unrelated]) == 0
        assert solver.learned_clause_count == kept_before


class TestCdclFuzzHarness:
    """Seeded random-CNF fuzz: interleaved add_clause / solve(assumptions)
    rounds on one long-lived solver, every verdict cross-checked against
    exhaustive truth-table search and every model verified.  The seed
    matrix is fixed so CI runs are reproducible."""

    @pytest.mark.parametrize("learning", [True, False])
    @pytest.mark.parametrize("seed", range(25))
    def test_interleaved_incremental_agrees_with_brute_force(self, seed, learning):
        rng = random.Random(seed * 7919 + (0 if learning else 1))
        num_vars = rng.randint(3, 9)
        solver = CdclSolver(num_vars, [], learning=learning)
        if rng.random() < 0.5:
            solver.restart_base = rng.choice((1, 3))  # hammer the restart path
        fed = []
        for _ in range(rng.randint(2, 5)):
            for _ in range(rng.randint(1, 8)):
                width = rng.randint(1, 4)
                clause = tuple(
                    rng.choice((1, -1)) * rng.randint(1, num_vars)
                    for _ in range(width)
                )
                fed.append(clause)
                solver.add_clause(clause)
            assumptions = tuple(
                rng.choice((1, -1)) * var
                for var in rng.sample(range(1, num_vars + 1), rng.randint(0, 2))
            )
            # Brute-force reference: the fed clauses plus the assumptions
            # as units — also the model oracle (it contains the assumption
            # units, so verify_model checks the assumptions hold).
            reference = build(
                num_vars, fed + [(literal,) for literal in assumptions]
            )
            expected = brute_force_satisfiable(reference)
            result = solver.solve(assumptions=assumptions)
            assert result.status is expected
            if result.is_sat:
                assert verify_model(reference, result.model)

    @pytest.mark.parametrize("learning", [True, False])
    @pytest.mark.parametrize("seed", range(25))
    def test_group_retirement_agrees_with_brute_force(self, seed, learning):
        """Selector-guarded groups come and go on one long-lived solver.
        Each round emits groups through the builder's guards, adds plain
        clauses and units (after a solve that left assumption levels on the
        trail), retires random groups and solves under the live selectors.
        The reference is the plain clauses plus the clauses of the groups
        assumed active, guards stripped, over the plain variables only."""
        rng = random.Random(seed * 104_729 + (0 if learning else 1))
        num_plain = rng.randint(3, 7)
        builder = build(num_plain, [])
        solver = CdclSolver(0, [], learning=learning)
        if rng.random() < 0.5:
            solver.restart_base = rng.choice((1, 3))

        def random_clause(width):
            return tuple(
                rng.choice((1, -1)) * rng.randint(1, num_plain) for _ in range(width)
            )

        fed, live, retired = 0, [], []
        for _ in range(rng.randint(4, 10)):
            for _ in range(rng.randint(0, 3)):
                selector = builder.new_var()
                builder.begin_guard(selector)
                for _ in range(rng.randint(1, 4)):
                    # Width 0 is the guarded empty clause: the unit ¬selector.
                    builder.add_clause(random_clause(rng.randint(0, 3)))
                builder.end_guard()
                live.append(selector)
            # Plain units put facts on level 0 for later clauses to meet; not
            # too many, or later rounds are all unsatisfiable.
            for _ in range(rng.randint(0, 2)):
                width = 1 if rng.random() < 0.3 else rng.randint(2, 3)
                builder.add_clause(random_clause(width))
            solver.ensure_num_vars(builder.num_vars)
            for clause, guard in zip(builder.clauses[fed:], builder.guards[fed:]):
                solver.add_clause(clause, guard=guard)
            fed = len(builder.clauses)
            doomed = rng.sample(live, rng.randint(0, len(live)))
            solver.retire_selectors(doomed)
            live = [selector for selector in live if selector not in doomed]
            retired += doomed
            active = [selector for selector in live if rng.random() < 0.8]
            assumptions = [
                selector if selector in active else -selector for selector in live
            ] + [
                rng.choice((1, -1)) * var
                for var in rng.sample(range(1, num_plain + 1), rng.randint(0, 2))
            ]
            rng.shuffle(assumptions)
            reference = build(
                num_plain,
                [
                    tuple(literal for literal in clause if literal != -guard)
                    if guard is not None
                    else clause
                    for clause, guard in zip(builder.clauses, builder.guards)
                    if guard is None or guard in active
                ]
                + [(literal,) for literal in assumptions if abs(literal) <= num_plain],
            )
            result = solver.solve(assumptions=assumptions)
            assert result.status is brute_force_satisfiable(reference)
            if result.is_sat:
                assert verify_model(reference, result.model)
                assert all(result.model[selector] for selector in active)
                assert not any(result.model[selector] for selector in retired)
            gone = set(retired)
            assert not gone & solver._groups.keys()
            for index in solver._learned:
                assert not any(abs(lit) in gone for lit in solver._clauses[index])
