"""Cross-process conformance suite for the multi-process shard workers.

The load-bearing property (ISSUE 5 acceptance): a ``--workers N`` router
is *observationally identical* to the in-process service — every
session's report is multiset-equal to the in-process
:class:`ValidationService` run of the same edit script — under concurrent
edits, ``kill -9`` of a worker mid-traffic, and the re-homing replay that
follows.  Plus the router<->worker protocol negotiation: incompatible
workers are refused at handshake, and unknown verbs get a typed error,
never a traceback.
"""

import json
import os
import random
import signal
import threading
import time
from collections import Counter

import pytest

from repro.server import ServerThread, ServiceClient, ValidationService, WireError
from repro.server.durability import KIND_EDIT
from repro.server.protocol import report_to_payload
from repro.server.sharding import rendezvous_owner, rendezvous_score, session_home
from repro.server.workers import (
    REQUIRED_WORKER_VERBS,
    WORKER_PROTOCOL_VERSION,
    WorkerDied,
    WorkerHandle,
    WorkerPool,
)
from repro.tool import ValidatorSettings

# ---------------------------------------------------------------------------
# deterministic random edit scripts, applicable through any edit() surface


def random_script(seed: int, steps: int = 24) -> list[tuple[str, list]]:
    """A seeded list of ``(verb, args)`` edits that is always valid to
    apply in order — including fact removals — so the identical script can
    drive a wire client, a router pool and an in-process service."""
    rng = random.Random(seed)
    entities: list[str] = []
    facts: list[tuple[str, str, str]] = []  # (fact, role1, role2)
    fact_serial = 0  # names stay unique across removals
    script: list[tuple[str, list]] = []

    def add_entity() -> None:
        name = f"E{len(entities)}"
        if rng.random() < 0.3:
            pool = [f"v{i}" for i in range(rng.randint(1, 3))]
            script.append(("add_entity", [name, pool]))
        else:
            script.append(("add_entity", [name]))
        entities.append(name)

    add_entity()
    for _ in range(steps):
        choice = rng.random()
        if choice < 0.25 or len(entities) < 2:
            add_entity()
        elif choice < 0.55:
            index = fact_serial
            fact_serial += 1
            fact = (f"F{index}", f"r{index}a", f"r{index}b")
            script.append(
                (
                    "add_fact",
                    [fact[0], fact[1], rng.choice(entities), fact[2], rng.choice(entities)],
                )
            )
            facts.append(fact)
        elif choice < 0.7 and facts:
            fact = rng.choice(facts)
            script.append(("add_uniqueness", [rng.choice(fact[1:])]))
        elif choice < 0.8 and facts:
            fact = rng.choice(facts)
            script.append(("add_frequency", [rng.choice(fact[1:]), rng.randint(2, 6)]))
        elif choice < 0.88 and facts:
            fact = rng.choice(facts)
            script.append(("add_mandatory", [rng.choice(fact[1:])]))
        elif choice < 0.94 and len(entities) >= 2:
            sub, sup = rng.sample(entities, 2)
            script.append(("add_subtype", [sub, sup]))
        elif facts:
            fact = rng.choice(facts)
            facts.remove(fact)
            script.append(("remove_fact", [fact[0]]))
        else:
            add_entity()
    return script


def _decode_args(args: list) -> list:
    return [tuple(a) if isinstance(a, list) else a for a in args]


def expected_payload(script, settings: ValidatorSettings | None = None) -> dict:
    """The in-process ValidationService run of the same script."""
    with ValidationService(settings=settings) as service:
        handle = service.open("expected")
        for verb, args in script:
            handle.edit(verb, *_decode_args(args))
        report = handle.close()
    return report_to_payload(report)


def assert_same_report(got: dict, script, context: str = "") -> None:
    """Wire payload == in-process payload, with the multiset phrasing of
    the acceptance criterion spelled out for the violation list."""
    expected = expected_payload(script)
    expected["schema"] = got["schema"]  # session names differ by design
    assert got == expected, f"{context}: report diverged from in-process run"
    assert Counter(
        json.dumps(v, sort_keys=True) for v in got["violations"]
    ) == Counter(json.dumps(v, sort_keys=True) for v in expected["violations"])


def pool_edit(pool: WorkerPool, name: str, verb: str, args: list) -> dict:
    return pool.handle("edit", {"session": name, "verb": verb, "args": args})


def kill_worker(pool: WorkerPool, index: int) -> int:
    """SIGKILL worker ``index`` and wait until it is gone; returns its pid."""
    handle = pool._handles[index]
    os.kill(handle.pid, signal.SIGKILL)
    handle.process.join(timeout=10)
    return handle.pid


# ---------------------------------------------------------------------------


class TestPlacement:
    def test_session_home_is_stable_and_in_range(self):
        for count in (1, 2, 3, 8):
            for name in ("alpha", "beta", "s:17", ""):
                home = session_home(name, count)
                assert 0 <= home < count
                assert home == session_home(name, count)  # pure in the name

    def test_session_home_is_rendezvous_placement(self):
        # Placement is rendezvous (HRW) hashing — the argmax over per-worker
        # scores — so resizes relocate only the sessions whose argmax moved.
        assert session_home("x", 8) == rendezvous_owner("x", 8)
        scores = [rendezvous_score(index, "x") for index in range(8)]
        assert session_home("x", 8) == scores.index(max(scores))

    def test_sessions_spread_across_workers(self):
        homes = {session_home(f"s{i}", 4) for i in range(64)}
        assert homes == {0, 1, 2, 3}

    def test_pool_routes_by_name_alone(self):
        with WorkerPool(2) as pool:
            names = [f"route{i}" for i in range(6)]
            for name in names:
                pool.handle("open", {"session": name})
            for name in names:
                assert pool.home_of(name) == session_home(name, 2)
            census = pool.health_payload()
            assert census["workers"]["routed_sessions"] == 6
            assert census["stats"]["sessions"] == 6


class TestPoolApi:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(1, snapshot_after=0)

    def test_typed_errors_cross_the_process_boundary(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WireError) as excinfo:
                pool.handle("report", {"session": "never-opened"})
            assert excinfo.value.code == "unknown_session"
            pool.handle("open", {"session": "dup"})
            with pytest.raises(WireError) as excinfo:
                pool.handle("open", {"session": "dup"})
            assert excinfo.value.code == "session_exists"
            with pytest.raises(WireError) as excinfo:
                pool_edit(pool, "dup", "drop_table", ["x"])
            assert excinfo.value.code == "unknown_verb"
            with pytest.raises(WireError) as excinfo:
                pool_edit(pool, "dup", "add_uniqueness", ["no-such-role"])
            assert excinfo.value.code == "schema_error"
            with pytest.raises(WireError) as excinfo:
                pool.handle("edit", {"verb": "add_entity"})
            assert excinfo.value.code == "malformed_request"

    def test_drain_groups_by_home_and_aggregates(self):
        with WorkerPool(2) as pool:
            names = [f"d{i}" for i in range(8)]
            for name in names:
                pool.handle("open", {"session": name})
                pool_edit(pool, name, "add_entity", ["T"])
            assert {session_home(n, 2) for n in names} == {0, 1}  # both involved
            stats = pool.handle("drain", {"sessions": names})["stats"]
            assert stats["examined"] == 8
            assert stats["drained"] == 8
            assert stats["changes"] == 8
            # unknown names keep the typed 404 across the boundary, and a
            # mixed list drains NOTHING (all-or-nothing, like in-process)
            pool_edit(pool, names[0], "add_entity", ["U"])
            with pytest.raises(WireError) as excinfo:
                pool.handle("drain", {"sessions": [names[0], "ghost"]})
            assert excinfo.value.code == "unknown_session"
            stats = pool.handle("drain", {"sessions": [names[0]]})["stats"]
            assert stats["changes"] == 1  # the failed drain consumed nothing

    def test_close_unroutes_the_session(self):
        with WorkerPool(2) as pool:
            pool.handle("open", {"session": "temp"})
            pool.handle("close", {"session": "temp"})
            assert pool.health_payload()["workers"]["routed_sessions"] == 0
            with pytest.raises(WireError) as excinfo:
                pool_edit(pool, "temp", "add_entity", ["Late"])
            assert excinfo.value.code == "unknown_session"


class TestConformance:
    """Router-mode reports are multiset-equal to in-process runs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_scripted_sessions_match_in_process(self, seed):
        with WorkerPool(2, snapshot_after=8) as pool:
            script = random_script(seed, steps=30)
            pool.handle("open", {"session": f"conf{seed}"})
            for step, (verb, args) in enumerate(script):
                pool_edit(pool, f"conf{seed}", verb, args)
                if step % 9 == 0:
                    pool.handle("drain", {})
            got = pool.handle("report", {"session": f"conf{seed}"})["report"]
            assert_same_report(got, script, f"seed {seed}")

    def test_concurrent_wire_clients_against_a_worker_router(self):
        """Threaded clients over HTTP against a --workers 2 router, with
        the background tick racing the edits; every close report must be
        multiset-equal to the in-process run of the same script."""
        clients = 12
        with ServerThread(workers=2, drain_interval=0.01) as server:
            results: dict[int, dict] = {}
            errors: list[BaseException] = []

            def one_client(index: int) -> None:
                try:
                    with ServiceClient(server.base_url) as client:
                        name = f"cc{index}"
                        client.open(name)
                        for verb, args in random_script(100 + index, steps=20):
                            client.edit(name, verb, *args)
                        if index % 3 == 0:
                            client.drain([name])
                        results[index] = client.close(name)
                except BaseException as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(target=one_client, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert not errors, errors[0]
            assert len(results) == clients
        for index, payload in results.items():
            assert_same_report(
                payload, random_script(100 + index, steps=20), f"client {index}"
            )


class TestWorkerCrash:
    """kill -9 a worker and the router re-homes its sessions exactly."""

    @staticmethod
    def _open_scripted(pool: WorkerPool, scripts: dict[str, list]) -> None:
        for name, script in scripts.items():
            pool.handle("open", {"session": name})
            for verb, args in script:
                pool_edit(pool, name, verb, args)

    def test_kill9_mid_drain_rehomes_and_reports_exactly(self):
        with WorkerPool(2, snapshot_after=10) as pool:
            scripts = {
                f"k{index}": random_script(200 + index, steps=26)
                for index in range(6)
            }
            self._open_scripted(pool, scripts)
            victim_pid = pool.worker_pids()[0]
            victim_sessions = [n for n in scripts if pool.home_of(n) == 0]
            assert victim_sessions, "seeds must place sessions on worker 0"

            # Fire the drain concurrently and kill the worker while it is
            # (or is about to be) mid-drain; whichever instant SIGKILL
            # lands at, the router must answer every report exactly.
            drain_error: list[BaseException] = []

            def drain() -> None:
                try:
                    pool.handle("drain", {})
                except BaseException as error:  # pragma: no cover
                    drain_error.append(error)

            drainer = threading.Thread(target=drain)
            drainer.start()
            os.kill(victim_pid, signal.SIGKILL)
            drainer.join(timeout=120)
            assert not drain_error, drain_error[0]

            for name, script in scripts.items():
                got = pool.handle("report", {"session": name})["report"]
                assert_same_report(got, script, f"post-kill {name}")
            census = pool.health_payload()["workers"]
            assert census["restarts"] >= 1
            assert census["rehomed_sessions"] >= len(victim_sessions)
            assert census["dropped_sessions"] == 0
            assert census["alive"] == 2
            assert victim_pid not in pool.worker_pids()

    def test_edits_keep_landing_after_a_kill(self):
        """An edit racing the death is retried exactly once: the journal
        replay excludes it, the retry applies it, reports stay exact."""
        with WorkerPool(2) as pool:
            script = random_script(321, steps=18)
            pool.handle("open", {"session": "phoenix"})
            half = len(script) // 2
            for verb, args in script[:half]:
                pool_edit(pool, "phoenix", verb, args)
            os.kill(pool.worker_pids()[pool.home_of("phoenix")], signal.SIGKILL)
            for verb, args in script[half:]:
                pool_edit(pool, "phoenix", verb, args)
            got = pool.handle("report", {"session": "phoenix"})["report"]
            assert_same_report(got, script, "phoenix")
            assert pool.health_payload()["workers"]["restarts"] == 1

    def test_rehoming_survives_snapshot_compaction(self):
        """Kill after the journal collapsed to a schema-DSL snapshot: the
        replay is snapshot + window, and must still be exact."""
        with WorkerPool(1, snapshot_after=6) as pool:
            script = random_script(77, steps=30)
            pool.handle("open", {"session": "compacted"})
            for verb, args in script[:-3]:
                pool_edit(pool, "compacted", verb, args)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            for verb, args in script[-3:]:
                pool_edit(pool, "compacted", verb, args)
            got = pool.handle("report", {"session": "compacted"})["report"]
            assert_same_report(got, script, "compacted")

    def test_rehomed_session_misses_the_old_etag(self):
        """Marks are epoch-guarded: a re-homed session (fresh journal
        counter) must never answer 'unchanged' to a pre-crash mark, even
        when the journal positions happen to collide."""
        with WorkerPool(1) as pool:
            pool.handle("open", {"session": "marked"})
            pool_edit(pool, "marked", "add_entity", ["A"])
            before = pool.handle("report", {"session": "marked"})
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.1)
            after = pool.handle(
                "report", {"session": "marked", "if_mark": before["mark"]}
            )
            assert "unchanged" not in after
            assert after["report"] == before["report"]
            assert after["mark"] != before["mark"]

    @pytest.mark.parametrize("replay", ["revive", "migrate", "recover"])
    def test_unreplayable_session_is_dropped_everywhere(self, replay, tmp_path):
        """If a journal somehow stops replaying, the session must be
        dropped from the router AND from every worker, whichever path
        replayed it: re-homing after a worker kill, migration on a resize,
        or recovery after a router restart.  A half-replayed prefix must
        never keep serving under the name, and no stale copy may block
        re-opening it."""
        pool = WorkerPool(1, data_dir=tmp_path)
        try:
            pool.handle("open", {"session": "poisoned"})
            pool_edit(pool, "poisoned", "add_entity", ["A"])
            pool.handle("open", {"session": "healthy"})  # one worker: same home
            pool_edit(pool, "healthy", "add_entity", ["B"])
            # Corrupt both journals so the replay must fail mid-way.
            poison = {"session": "poisoned", "verb": "add_uniqueness", "args": ["no-role"]}
            entry = pool._sessions["poisoned"]
            entry.edits.append(poison)
            entry.log.append(KIND_EDIT, poison)
            if replay == "revive":
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                time.sleep(0.1)
            elif replay == "migrate":
                assert session_home("poisoned", 2) == 1  # the grow moves it
                pool.handle("resize", {"workers": 2})
            else:
                pool.shutdown()
                pool = WorkerPool(1, data_dir=tmp_path)
            got = pool.handle("report", {"session": "healthy"})["report"]
            assert_same_report(got, [("add_entity", ["B"])], f"{replay}: healthy")
            census = pool.health_payload()
            assert census["workers"]["dropped_sessions"] == 1
            assert census["stats"]["sessions"] == census["workers"]["routed_sessions"]
            if replay == "revive":
                assert census["workers"]["rehomed_sessions"] == 1
            with pytest.raises(WireError) as excinfo:
                pool.handle("report", {"session": "poisoned"})
            assert excinfo.value.code == "unknown_session"

            def reopen_clean(context: str) -> None:
                pool.handle("open", {"session": "poisoned"})  # the name is free
                got = pool.handle("report", {"session": "poisoned"})["report"]
                assert_same_report(got, [], context)
                pool.handle("close", {"session": "poisoned"})

            reopen_clean(f"{replay}: re-opened")
            if replay == "migrate":
                # The old owner must have let go of its copy as well.
                pool.handle("resize", {"workers": 1})
                reopen_clean("migrate: re-opened after shrinking back")
        finally:
            pool.shutdown()

    def test_resize_counts_only_sessions_that_moved(self):
        """A session dropped mid-migration did not move: the resize answer
        and the census count the sessions that reached their new owner."""
        names = [f"m{index}" for index in range(40)]
        mover = next(n for n in names if session_home(n, 2) == 1)
        stayer = next(n for n in names if session_home(n, 2) == 0)
        assert session_home("poisoned", 2) == 1
        with WorkerPool(1) as pool:
            for name in ("poisoned", mover, stayer):
                pool.handle("open", {"session": name})
                pool_edit(pool, name, "add_entity", ["A"])
            pool._sessions["poisoned"].edits.append(
                {"session": "poisoned", "verb": "add_uniqueness", "args": ["no-role"]}
            )
            response = pool.handle("resize", {"workers": 2})
            assert response["migrated"] == 1
            census = pool.health_payload()["workers"]
            assert census["migrated_sessions"] == 1
            assert census["dropped_sessions"] == 1
            assert (pool.home_of(mover), pool.home_of(stayer)) == (1, 0)
            for name in (mover, stayer):
                got = pool.handle("report", {"session": name})["report"]
                assert_same_report(got, [("add_entity", ["A"])], name)

    def test_healthz_detects_and_revives_a_dead_worker(self):
        """The probe answers immediately (revival runs in the background —
        a liveness probe must never stall behind a re-homing replay) but
        still *triggers* the revival; a follow-up census sees it done."""
        with WorkerPool(2) as pool:
            pool.handle("open", {"session": "watched"})
            pool_edit(pool, "watched", "add_entity", ["T"])
            os.kill(pool.worker_pids()[pool.home_of("watched")], signal.SIGKILL)
            time.sleep(0.1)
            pool.health_payload()  # detects the death, kicks off revival
            deadline = time.time() + 30
            while time.time() < deadline:
                census = pool.health_payload()["workers"]
                if census["restarts"] >= 1 and census["alive"] == 2:
                    break
                time.sleep(0.05)
            assert census["restarts"] == 1
            assert census["alive"] == 2
            got = pool.handle("report", {"session": "watched"})["report"]
            assert_same_report(got, [("add_entity", ["T"])], "watched")


class TestRetryLoop:
    """Every routed verb shares one revive-and-retry loop: a dead worker
    is revived once and the request retried; a second death is the typed
    ``worker_failed``."""

    #: One request per way into the router, each against the pool's only
    #: worker; "unrouted" is a verb for a session the router never opened.
    REQUESTS = {
        "open": ("open", {"session": "late"}),
        "edit": ("edit", {"session": "kept", "verb": "add_entity", "args": ["B"]}),
        "report": ("report", {"session": "kept"}),
        "check": ("check", {"session": "kept", "goal": "strong", "max_domain": 2}),
        "close": ("close", {"session": "kept"}),
        "drain": ("drain", {}),
        "unrouted": ("report", {"session": "never-opened"}),
    }

    @pytest.mark.parametrize("case", list(REQUESTS))
    def test_a_dead_worker_is_revived_once_and_the_verb_answered(self, case):
        verb, payload = self.REQUESTS[case]
        with WorkerPool(1) as pool:
            pool.handle("open", {"session": "kept"})
            pool_edit(pool, "kept", "add_entity", ["A"])
            dead_pid = kill_worker(pool, 0)
            if case == "unrouted":
                # The revived worker answers the typed 404, not worker_failed.
                with pytest.raises(WireError) as excinfo:
                    pool.handle(verb, payload)
                assert excinfo.value.code == "unknown_session"
            else:
                assert pool.handle(verb, payload)["ok"] is True
            census = pool.health_payload()["workers"]
            assert census["restarts"] == 1
            assert census["rehomed_sessions"] == 1
            assert dead_pid not in pool.worker_pids()
            if case != "close":
                script = [("add_entity", ["A"])]
                if case == "edit":
                    script.append(("add_entity", ["B"]))
                got = pool.handle("report", {"session": "kept"})["report"]
                assert_same_report(got, script, f"{case}: kept")

    @pytest.mark.parametrize("case", list(REQUESTS))
    def test_a_second_death_is_worker_failed_naming_the_verb(self, case, monkeypatch):
        """At most two attempts, with the revival between them run while
        no session lock is held."""
        verb, payload = self.REQUESTS[case]
        with WorkerPool(1) as pool:
            pool.handle("open", {"session": "kept"})
            attempts: list[str] = []
            revivals: list[tuple[WorkerHandle, bool]] = []

            def revive(dead: WorkerHandle) -> None:
                entry = pool._sessions.get(payload.get("session"))
                revivals.append((dead, entry is not None and entry.lock.locked()))

            real_checked = WorkerHandle.checked

            def dying(handle, sent_verb, *args, **kwargs):
                if sent_verb == verb:
                    attempts.append(sent_verb)
                    raise WorkerDied(f"injected death during {sent_verb!r}", handle)
                return real_checked(handle, sent_verb, *args, **kwargs)

            monkeypatch.setattr(pool, "_revive", revive)
            monkeypatch.setattr(WorkerHandle, "checked", dying)
            with pytest.raises(WireError) as excinfo:
                pool.handle(verb, payload)
            assert excinfo.value.code == "worker_failed"
            assert repr(verb) in str(excinfo.value)
            assert attempts == [verb, verb]
            assert revivals == [(pool._handles[0], False)]


class TestProtocolNegotiation:
    """The router<->worker protocol regression net."""

    def test_worker_rejects_unknown_verbs_with_a_typed_error(self):
        """A router grown past this worker's verb set gets the structured
        unknown_verb error — and the worker keeps serving afterwards."""
        handle = WorkerHandle(0, {})
        try:
            response = handle.request("rebalance_shards", {"plan": []})
            assert response["ok"] is False
            assert response["error"]["code"] == "unknown_verb"
            assert str(WORKER_PROTOCOL_VERSION) in response["error"]["message"]
            assert "Traceback" not in response["error"]["message"]
            # the worker survived the unknown verb
            assert handle.request("ping", {})["ok"] is True
            assert handle.alive()
        finally:
            handle.reap()

    def test_router_refuses_an_incompatible_worker_at_handshake(self):
        with pytest.raises(WireError) as excinfo:
            WorkerHandle(0, {}, expected_protocol=999)
        assert excinfo.value.code == "worker_protocol_mismatch"
        assert "999" in str(excinfo.value)

    def test_failed_pool_construction_reaps_the_partial_fleet(self, monkeypatch):
        """A later spawn failing must reap the earlier workers (no orphan
        subprocesses) and surface a typed WireError, never WorkerDied."""
        import repro.server.workers as workers_module

        spawned: list[WorkerHandle] = []
        original = WorkerPool._spawn

        def failing_spawn(self, index, **kwargs):
            if index == 1:
                raise workers_module.WorkerDied("simulated handshake failure")
            handle = original(self, index)  # handshake inline: fully up
            spawned.append(handle)
            return handle

        monkeypatch.setattr(WorkerPool, "_spawn", failing_spawn)
        with pytest.raises(WireError) as excinfo:
            WorkerPool(2)
        assert excinfo.value.code == "worker_failed"
        assert spawned, "worker 0 must have been spawned before the failure"
        for handle in spawned:
            handle.process.join(timeout=10)
            assert not handle.alive()

    def test_worker_answers_malformed_payloads_structurally(self):
        handle = WorkerHandle(0, {})
        try:
            response = handle.request("open", {"session": 12})
            assert response["ok"] is False
            assert response["error"]["code"] == "malformed_request"
            response = handle.request("snapshot", {})
            assert response["ok"] is False
            assert response["error"]["code"] == "malformed_request"
            response = handle.request("snapshot", {"session": "ghost"})
            assert response["error"]["code"] == "unknown_session"
        finally:
            handle.reap()

    def test_required_verbs_cover_the_router_surface(self):
        # Every verb the pool can emit must be in the negotiated set.
        assert {
            "open", "edit", "report", "close", "drain",
            "stats", "snapshot", "ping", "shutdown",
        } <= REQUIRED_WORKER_VERBS
