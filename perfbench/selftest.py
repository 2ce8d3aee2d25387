"""Smoke-size self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They show that the output oracle catches a lost edit and a corrupted log
tail, that recorded spans nest and add up to the client call, that the
metric names printed match ``BENCHMARK.json``, that the command leaves no
process running, and that it fails without printing a result when the
server sources are absent.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from spans import Tracer, nests, self_times  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "perfbench-selftest"


def _smoke(name: str, **changes: object) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **changes)


def _window(workload, sessions, server, seconds=1.0, tracer=None):
    window = harness.Window(workload, 1, server.base_url, sessions, tracer)

    def between(traced):
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()

    window.run([(seconds, tracer is not None)], between)
    return window


def _changes_report(session: harness.Session, index: int) -> bool:
    """Does dropping ``session.acked[index]`` change the replayed report?"""
    full = harness.replay_report(session.name, session.dsl, session.acked)
    dropped = session.acked[:index] + session.acked[index + 1 :]
    return not harness.same_report(
        full, harness.replay_report(session.name, session.dsl, dropped)
    )


class OracleTest(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_oracle_fails_when_one_edit_is_dropped(self) -> None:
        workload = _smoke("edit_report", sessions=2, pregrow=16)
        _, server, sessions = harness.set_up(workload, 1, None)
        try:
            _window(workload, sessions, server)
            session = sessions[0]
            index = next(
                i for i in reversed(range(len(session.acked)))
                if _changes_report(session, i)
            )
            del session.acked[index]
            oracle = harness.OracleResult()
            with harness.ServiceClient(server.base_url) as client:
                harness.check_closed_reports(client, sessions, oracle)
        finally:
            harness.stop_server(server)
        self.assertFalse(oracle.ok)
        self.assertEqual(oracle.mismatches, [f"close_report: {session.name}"])

    def test_oracle_passes_on_an_untouched_run(self) -> None:
        workload = _smoke("check_sat", sessions=2)
        _, server, sessions = harness.set_up(workload, 1, None)
        try:
            _window(workload, sessions, server)
            oracle = harness.OracleResult()
            harness.check_verdicts(sessions, oracle)
            with harness.ServiceClient(server.base_url) as client:
                harness.check_closed_reports(client, sessions, oracle)
        finally:
            harness.stop_server(server)
        self.assertTrue(oracle.ok, oracle.mismatches)

    def test_restart_oracle_fails_on_a_corrupted_log_tail(self) -> None:
        workload = _smoke("durable_router", sessions=2, pregrow=20)
        data_dir = SCRATCH / "durable"
        _, server, sessions = harness.set_up(workload, 1, data_dir)
        try:
            _window(workload, sessions, server)
            victim = next(s for s in sessions if _changes_report(s, len(s.acked) - 1))
            with harness.ServiceClient(server.base_url) as client:
                before = harness.reports(client, sessions)
        finally:
            harness.stop_server(server)
        directory = data_dir / victim.name.encode("utf-8").hex()
        segment = sorted(directory.glob("*.seg"))[-1]
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        server = harness.start_server(data_dir)
        try:
            with harness.ServiceClient(server.base_url) as client:
                after = harness.reports(client, sessions)
        finally:
            harness.stop_server(server)
        same = {s.name: harness.same_report(after[s.name], before[s.name]) for s in sessions}
        self.assertFalse(same[victim.name])
        self.assertTrue(all(ok for name, ok in same.items() if name != victim.name))


class SpanTest(unittest.TestCase):
    def test_spans_nest_and_add_up_to_the_client_call(self) -> None:
        workload = _smoke("edit_report", sessions=4)
        _, server, sessions = harness.set_up(workload, 1, None)
        tracer = Tracer()
        try:
            _window(workload, sessions, server, tracer=tracer)
        finally:
            harness.stop_server(server)
        self.assertEqual(tracer.attribute_orphans(), 0)
        self.assertTrue(nests(tracer.spans))
        selfs = self_times(tracer.spans)
        calls = [s for s in tracer.spans if s.name.startswith("client.")]
        self.assertTrue(calls)
        for call in calls:
            inside = [s for s in tracer.spans if s.call is call]
            self.assertAlmostEqual(sum(selfs[s.id] for s in inside), call.ms, places=6)
        handles = [s for s in tracer.spans if s.name == "wire.handle"]
        self.assertTrue(handles)
        self.assertTrue(all(h.parent is not None and h.parent is h.call for h in handles))
        refreshes = [s for s in tracer.spans if s.name == "patterns.refresh"]
        self.assertTrue(any(s.call is None and s.parent is not None for s in refreshes))
        self.assertTrue(all(s.parent is not None for s in refreshes))


class CommandTest(unittest.TestCase):
    def _run(self, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=180,
        )

    def test_printed_metric_names_match_the_manifest(self) -> None:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            sorted(w["name"] for w in manifest["workloads"]), sorted(harness.WORKLOADS)
        )
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in manifest[key]}
            for workload in harness.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = self._run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, expected
                    )

    def test_leaves_no_process_running(self) -> None:
        # The command runs in a session of its own; once it has exited, no
        # process may be left in that session (a worker, a resource tracker).
        command = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "durable_router",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.assertEqual(command.wait(timeout=180), 0)
        left = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # ended while listed
            if int(fields[3]) == command.pid:  # the session id
                left.append(stat.parent.name)
        self.assertEqual(left, [])

    def test_fails_without_the_server_sources(self) -> None:
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = self._run(bare, "edit_report", 0)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


def tearDownModule() -> None:
    harness.stop_everything()


if __name__ == "__main__":
    unittest.main(verbosity=2)
