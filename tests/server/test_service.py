"""ValidationService: API contract, batched-drain exactness, LRU/resume.

The load-bearing property (ISSUE acceptance): however edits are
interleaved across sessions and however the service batches, evicts and
resumes, every session's report equals the from-scratch analysis of its
schema as a multiset of findings.
"""

import random
import threading
from collections import Counter

import pytest

from repro.exceptions import SchemaError, UnknownElementError
from repro.orm.schema import Schema
from repro.orm.wellformed import check_wellformedness
from repro.patterns import IncrementalEngine, PatternEngine, check_formation_rules
from repro.patterns.propagation import propagate
from repro.server import ValidationService
from repro.tool import ValidatorSettings
from repro.workloads.generator import GeneratorConfig, apply_random_edit, generate_schema

ALL_FAMILIES = ValidatorSettings(formation_rules=True, propagation=True)


def assert_report_exact(handle, context=""):
    """The session's report equals from-scratch analysis, every family."""
    report = handle.report()
    schema = handle.schema
    full = PatternEngine().check(schema)
    assert Counter(report.pattern_report.violations) == Counter(full.violations), context
    assert Counter(report.advisories) == Counter(check_wellformedness(schema)), context
    assert Counter(report.rule_findings) == Counter(
        check_formation_rules(schema)
    ), context
    full_propagation = propagate(schema, full)
    assert report.propagation.all_unsat_roles() == full_propagation.all_unsat_roles()
    assert report.propagation.all_unsat_types() == full_propagation.all_unsat_types()


class TestSessionApi:
    def test_open_edit_report_close_roundtrip(self):
        with ValidationService() as service:
            handle = service.open("design")
            handle.edit("add_entity", "Person")
            handle.edit("add_entity", "Company", ("c1", "c2"))
            handle.edit("add_fact", "works", "r1", "Person", "r2", "Company")
            # FC(5) on r1 demands 5 partner tuples, but Company admits 2
            # values — Pattern 4.
            frequency = handle.edit("add_frequency", "r1", 5)
            report = handle.report()
            assert not report.ok  # FC(5) vs 2-value pool is Pattern 4
            assert handle.pending_changes == 0
            handle.edit("remove_constraint", frequency.label)
            final = handle.close()
            assert final.ok
            assert "design" not in service.names()

    def test_edits_do_not_validate_until_drained(self):
        with ValidationService() as service:
            handle = service.open("lazy")
            handle.edit("add_entity", "A")
            handle.edit("add_entity", "B")
            assert handle.pending_changes == 2
            stats = service.drain()
            assert stats.drained == 1 and stats.changes == 2
            assert handle.pending_changes == 0

    def test_session_style_and_schema_style_verbs(self):
        with ValidationService() as service:
            handle = service.open("verbs")
            handle.edit("add_entity", "T")  # session verb
            handle.edit("add_entity_type", "U")  # schema mutator name
            assert handle.schema.has_object_type("T")
            assert handle.schema.has_object_type("U")

    def test_unknown_verb_session_and_duplicate_open(self):
        with ValidationService() as service:
            service.open("one")
            with pytest.raises(ValueError):
                service.open("one")
            with pytest.raises(UnknownElementError):
                service.edit("one", "drop_table", "x")
            with pytest.raises(UnknownElementError):
                service.report("ghost")
            with pytest.raises(UnknownElementError):
                service.close("ghost")

    def test_open_adopts_an_existing_schema(self):
        schema = generate_schema(GeneratorConfig(num_types=5, num_facts=4, seed=9))
        with ValidationService() as service:
            handle = service.open("adopted", schema=schema)
            assert handle.schema is schema
            report = handle.report()
            full = PatternEngine().check(schema)
            assert Counter(report.pattern_report.violations) == Counter(
                full.violations
            )

    def test_per_session_settings_are_isolated(self):
        with ValidationService(settings=ALL_FAMILIES) as service:
            plain = service.open("plain", settings=ValidatorSettings())
            loaded = service.open("loaded")
            assert plain.settings.formation_rules is False
            assert loaded.settings.formation_rules is True
            loaded.settings.patterns["P1"] = False
            assert plain.settings.patterns["P1"] is True  # deep-copied

    def test_settings_toggle_rebuilds_the_engine(self):
        """Flipping an analysis family after open() takes effect on the
        next drain (the engine is rebuilt under the new family profile)."""
        with ValidationService() as service:
            handle = service.open("toggle")
            handle.edit("add_entity", "T")
            handle.edit("add_fact", "f", "r1", "T", "r2", "T")
            handle.edit("add_frequency", "r1", 1, 1)  # FR1 (style) finding
            assert handle.report().rule_findings == []  # rules start off
            handle.settings.formation_rules = True
            assert any(
                f.rule_id == "FR1" for f in handle.report().rule_findings
            )
            handle.settings.formation_rules = False
            assert handle.report().rule_findings == []


class TestBatchedDrainExactness:
    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_scripts_match_from_scratch(self, seed):
        """Random edits interleaved across sessions + periodic ticks ==
        per-session from-scratch reports, through eviction and resume."""
        rng = random.Random(seed)
        with ValidationService(settings=ALL_FAMILIES, max_live_engines=2) as service:
            handles = [service.open(f"s{i}") for i in range(5)]
            for step in range(80):
                handle = rng.choice(handles)
                apply_random_edit(handle.schema, rng)
                if step % 11 == 0:
                    service.drain()
            stats = service.stats()
            assert stats.live_engines <= 2
            assert stats.evictions > 0  # the LRU actually worked
            for handle in handles:
                assert_report_exact(handle, f"seed {seed} session {handle.name}")

    def test_drain_skips_clean_sessions(self):
        with ValidationService() as service:
            busy = service.open("busy")
            service.open("idle")
            busy.edit("add_entity", "T")
            stats = service.drain()
            assert stats.examined == 2
            assert stats.drained == 1

    def test_min_pending_batches_small_journals(self):
        with ValidationService() as service:
            handle = service.open("thresholded")
            handle.edit("add_entity", "A")
            assert service.drain(min_pending=5).drained == 0
            for index in range(5):
                handle.edit("add_entity", f"B{index}")
            stats = service.drain(min_pending=5)
            assert stats.drained == 1 and stats.changes == 6


class TestInlineDrains:
    """Drains and refreshes run on the calling thread; there is no pool."""

    @pytest.mark.parametrize(
        "max_workers, accepted", [(None, True), (0, True), (1, False), (4, False)]
    )
    def test_max_workers_accepts_only_inline_drains(self, max_workers, accepted):
        if not accepted:
            with pytest.raises(ValueError, match="max_workers"):
                ValidationService(max_workers=max_workers)
            return
        with ValidationService(settings=ALL_FAMILIES, max_workers=max_workers) as service:
            handle = service.open("inline")
            handle.edit("add_entity", "T")
            assert service.drain().drained == 1
            assert_report_exact(handle)

    def test_every_refresh_runs_on_the_calling_thread(self, monkeypatch):
        caller = threading.current_thread()
        refreshed_on: list[threading.Thread] = []
        refresh_analysis = IncrementalEngine._refresh_analysis

        def recording(engine, check, scope):
            refreshed_on.append(threading.current_thread())
            return refresh_analysis(engine, check, scope)

        monkeypatch.setattr(IncrementalEngine, "_refresh_analysis", recording)
        before = set(threading.enumerate())
        rng = random.Random(11)
        with ValidationService(settings=ALL_FAMILIES) as service:
            handles = [service.open(f"s{i}") for i in range(4)]
            for step in range(40):
                apply_random_edit(rng.choice(handles).schema, rng)
                if step % 5 == 0:
                    service.drain()
            service.drain()
            spawned = set(threading.enumerate()) - before
            for handle in handles:
                assert_report_exact(handle, f"session {handle.name}")
        assert refreshed_on, "the drains must have refreshed some analysis"
        assert set(refreshed_on) == {caller}
        assert not spawned, f"the service started threads: {spawned}"


class TestEvictionAndResume:
    def test_suspended_sessions_resume_by_replay(self):
        with ValidationService(settings=ALL_FAMILIES, max_live_engines=1) as service:
            first = service.open("first")
            second = service.open("second")  # evicts "first"
            first.edit("add_entity", "Later", ("v",))
            first.edit("add_fact", "f", "r1", "Later", "r2", "Later")
            first.edit("add_frequency", "r1", 3)
            assert_report_exact(first)  # resumed engine replayed the window
            stats = service.stats()
            assert stats.resumes >= 1
            assert stats.rebuilds == 0
            assert_report_exact(second)

    def test_truncated_window_falls_back_to_rebuild(self, monkeypatch):
        with ValidationService(settings=ALL_FAMILIES, max_live_engines=1) as service:
            first = service.open("first")
            service.open("second")  # evicts "first"
            first.edit("add_entity", "T")

            def raising_resume(schema, snapshot, **kwargs):
                raise SchemaError("window truncated")

            monkeypatch.setattr(IncrementalEngine, "resume", raising_resume)
            assert_report_exact(first)
            assert service.stats().rebuilds >= 1

    def test_engine_resume_raises_on_truncated_journal(self):
        schema = Schema("trunc")
        schema.add_entity_type("A")
        engine = IncrementalEngine(schema)
        engine.refresh()
        snapshot = engine.suspend()
        del engine
        # another consumer drains past the snapshot's mark and compacts
        other = IncrementalEngine(schema)
        for index in range(200):
            schema.add_entity_type(f"B{index}")
        other.refresh()
        schema.compact_journal()
        with pytest.raises(SchemaError):
            IncrementalEngine.resume(schema, snapshot)


class TestSiteWeightedEviction:
    @staticmethod
    def _grow(handle, facts):
        handle.edit("add_entity", "Hub")
        for index in range(facts):
            handle.edit("add_entity", f"T{index}")
            handle.edit(
                "add_fact", f"F{index}", f"a{index}", "Hub", f"b{index}", f"T{index}"
            )
            handle.edit("add_uniqueness", f"a{index}")

    def test_giant_engine_cannot_pin_the_site_budget(self):
        # Probe the giant schema's engine weight under default settings.
        with ValidationService() as probe:
            handle = probe.open("probe")
            self._grow(handle, 40)
            handle.report()
            giant_sites = probe.stats().live_sites
        assert giant_sites > 40

        with ValidationService(max_live_engines=8, max_live_sites=giant_sites - 1) as service:
            giant = service.open("giant")
            self._grow(giant, 40)
            giant.report()
            # Alone, the giant stays live even over budget (the caller's
            # own engine is never evicted out from under it).
            assert service.live_sessions() == ["giant"]
            smalls = [service.open(f"small{index}") for index in range(6)]
            for index, handle in enumerate(smalls):
                handle.edit("add_entity", f"S{index}")
                handle.report()
            # Pure count-LRU (8 engines) would have kept all 7 live; the
            # site budget suspends the giant instead of small sessions.
            live = service.live_sessions()
            assert "giant" not in live
            assert set(live) == {h.name for h in smalls}
            assert service.stats().live_sites <= giant_sites - 1
            # The giant resumes exactly on its next drain.
            report = giant.report()
            full = PatternEngine().check(giant.schema)
            assert Counter(report.pattern_report.violations) == Counter(
                full.violations
            )
            assert Counter(report.advisories) == Counter(
                check_wellformedness(giant.schema)
            )

    def test_over_budget_caller_does_not_churn_the_small_sessions(self):
        """Reviving an engine that alone exceeds the site budget must not
        suspend every other session (that would churn all tenants through
        suspend/resume on each revival of the giant)."""
        with ValidationService() as probe:
            handle = probe.open("probe")
            self._grow(handle, 40)
            handle.report()
            giant_sites = probe.stats().live_sites

        with ValidationService(max_live_engines=8, max_live_sites=giant_sites - 1) as service:
            giant = service.open("giant")
            self._grow(giant, 40)
            giant.report()
            smalls = [service.open(f"small{index}") for index in range(6)]
            for index, handle in enumerate(smalls):
                handle.edit("add_entity", f"S{index}")
                handle.report()
            assert "giant" not in service.live_sessions()
            # Reviving the giant tolerates its own over-budget weight
            # instead of suspending the small sessions.
            giant.report()
            live = service.live_sessions()
            assert "giant" in live
            assert set(live) == {"giant", *(h.name for h in smalls)}

    def test_without_a_site_budget_count_lru_is_unchanged(self):
        with ValidationService(max_live_engines=8) as service:
            giant = service.open("giant")
            self._grow(giant, 40)
            giant.report()
            for index in range(6):
                handle = service.open(f"small{index}")
                handle.edit("add_entity", f"S{index}")
                handle.report()
            assert "giant" in service.live_sessions()  # 7 engines <= 8


class TestReportMarks:
    """report_marked: the journal-mark ETag behind /v1/report's if_mark."""

    def test_hit_miss_and_monotonic_marks(self):
        with ValidationService() as service:
            handle = service.open("marks")
            handle.edit("add_entity", "A")
            report, mark = service.report_marked("marks")
            assert report is not None and mark
            # hit: echoing the current mark skips the report entirely
            assert service.report_marked("marks", if_mark=mark) == (None, mark)
            # miss: any edit moves the mark and yields a fresh report
            handle.edit("add_entity", "B")
            report2, mark2 = service.report_marked("marks", if_mark=mark)
            assert report2 is not None and mark2 != mark
            # a stale mark can never hit again (journal_size is monotonic)
            handle.edit("remove_entity", "B")
            report3, mark3 = service.report_marked("marks", if_mark=mark)
            assert report3 is not None
            assert mark3 not in (mark, mark2)

    def test_mark_survives_journal_compaction(self):
        """The compaction race: draining >JOURNAL_COMPACT_THRESHOLD entries
        truncates the journal list, but journal_size keeps counting, so the
        issued mark still hits afterwards and old marks still miss."""
        from repro.patterns.incremental import JOURNAL_COMPACT_THRESHOLD

        with ValidationService() as service:
            handle = service.open("compacting")
            handle.edit("add_entity", "Seed")
            _, early_mark = service.report_marked("compacting")
            for index in range(JOURNAL_COMPACT_THRESHOLD + 10):
                handle.edit("add_entity", f"T{index}")
            _, mark = service.report_marked("compacting")
            assert len(handle.schema._journal) < handle.schema.journal_size
            assert service.report_marked("compacting", if_mark=mark) == (None, mark)
            hit_again = service.report_marked("compacting", if_mark=mark)
            assert hit_again == (None, mark)
            stale, _ = service.report_marked("compacting", if_mark=early_mark)
            assert stale is not None  # compaction must not fake a hit

    def test_settings_toggle_invalidates_the_mark(self):
        """Flipping an analysis family changes the report without touching
        the journal; the mark fingerprints the profile so it must miss."""
        with ValidationService() as service:
            handle = service.open("profiled")
            handle.edit("add_entity", "T")
            handle.edit("add_fact", "f", "r1", "T", "r2", "T")
            handle.edit("add_frequency", "r1", 1, 1)
            _, mark = service.report_marked("profiled")
            handle.settings.formation_rules = True
            report, mark2 = service.report_marked("profiled", if_mark=mark)
            assert report is not None and mark2 != mark
            assert any(f.rule_id == "FR1" for f in report.rule_findings)

    def test_mark_hits_even_after_eviction(self):
        """A suspended engine does not spoil the hit: 'unchanged' is about
        the schema, not about which engines happen to be live."""
        with ValidationService(max_live_engines=1) as service:
            first = service.open("first")
            first.edit("add_entity", "A")
            _, mark = service.report_marked("first")
            service.open("second").report()  # evicts "first"
            assert "first" not in service.live_sessions()
            assert service.report_marked("first", if_mark=mark) == (None, mark)

    def test_epochs_differ_between_session_instances(self):
        with ValidationService() as service:
            handle = service.open("inst")
            handle.edit("add_entity", "A")
            _, mark = service.report_marked("inst")
            service.close("inst")
            handle = service.open("inst")
            handle.edit("add_entity", "A")
            report, mark2 = service.report_marked("inst", if_mark=mark)
            assert report is not None  # same journal position, new epoch
            assert mark2 != mark

    def test_snapshot_schema_round_trips(self):
        from repro.io.dsl import parse_schema

        with ValidationService() as service:
            handle = service.open("snap")
            handle.edit("add_entity", "Pool", ("v1", "v2"))
            handle.edit("add_entity", "Hub")
            handle.edit("add_fact", "uses", "u1", "Hub", "u2", "Pool")
            handle.edit("add_frequency", "u1", 5)
            replayed = parse_schema(service.snapshot_schema("snap"))
            original = service.report("snap")
            with ValidationService() as replica:
                clone = replica.open("snap-clone", schema=replayed)
                assert Counter(clone.report().pattern_report.violations) == Counter(
                    original.pattern_report.violations
                )
            with pytest.raises(UnknownElementError):
                service.snapshot_schema("ghost")


class TestConcurrency:
    def test_64_sessions_with_threaded_editors_and_ticks(self):
        """8 writer threads × 8 sessions each, a drain tick per round:
        everything stays exact and the engine census stays capped."""
        with ValidationService(
            settings=ValidatorSettings(formation_rules=True),
            max_live_engines=8,
        ) as service:
            handles = [service.open(f"s{i}") for i in range(64)]
            errors = []

            def editor(offset: int) -> None:
                try:
                    rng = random.Random(offset)
                    mine = handles[offset * 8 : (offset + 1) * 8]
                    for round_index in range(6):
                        for handle in mine:
                            handle.edit("add_entity", f"T{offset}_{round_index}")
                            if rng.random() < 0.3:
                                handle.report()
                        service.drain([h.name for h in mine])
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=editor, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            service.drain()
            stats = service.stats()
            assert stats.sessions == 64
            assert stats.live_engines <= 8
            for handle in handles[::9]:
                report = handle.report()
                full = PatternEngine().check(handle.schema)
                assert Counter(report.pattern_report.violations) == Counter(
                    full.violations
                )
