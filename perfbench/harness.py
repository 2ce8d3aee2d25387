"""The three workloads, their closed-loop clients and the output oracle.

One run: set the server up :data:`SETUP_REPEATS` times (keeping the last),
drive it with closed-loop :class:`ServiceClient` threads (one keep-alive
connection each) for the timed window, then check every output against an in-process
replay.  A traced run splits the window into alternating untraced and
traced slices, so one run yields both the layer breakdown and the cost of
the tracing itself.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.io.dsl import parse_schema
from repro.reasoner import BoundedModelFinder
from repro.server import ServerThread, ServiceClient, ValidationService, WireError
from repro.server.client import WireTransportError
from repro.server.service import EDIT_VERBS
from repro.tool.validator import report_to_payload

from scripts import (
    Edit,
    SessionScript,
    generator_schema_dsl,
    pigeonhole_schema_dsl,
)
from spans import Tracer

#: Server set-ups per run; ``setup_s`` is their median, the last is kept.
SETUP_REPEATS = 5
#: The SAT workload's check: goal and iterative-deepening bound.
CHECK_GOAL = "strong"
CHECK_MAX_DOMAIN = 3
#: Alternating untraced/traced slice length of a traced run (seconds).
TRACE_SLICE_S = 1.0
#: The router's shipped durability policy, stated in every output.
FLUSH_POLICY = "fsync per acknowledged record (SessionLog.append_batch)"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sessions: int
    #: ``workers=1`` with a ``data_dir``; otherwise the in-process backend.
    #: Its scripts keep constraint labels stable (see SessionScript).
    durable: bool
    #: The verb closing a turn: "report", or "check" (whose scripts and
    #: generator schemas then leave out rings, value pools and frequency
    #: constraints: those encodings make one bounded check's cost explode
    #: unpredictably, to seconds, which no latency figure survives).
    read: str
    turn_edits: tuple[int, int]
    skew: float  # Zipf exponent of session choice (0 = uniform)
    pregrow: int  # edits per session during set-up
    max_added: int  # ceiling on script-added elements per session
    base_types: int
    base_facts: int
    pigeonhole_facts: int = 0  # > 0: every other session is a pigeonhole
    #: Closed-loop client threads (at most 2: the box has 2 cores).
    clients: int = 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "edit_report",
            "in-process backend, 48 sessions over a 16-engine cache: client, "
            "asyncio front, JSON, executor hop and engine drains; no router, "
            "fsync or SAT",
            sessions=48,
            durable=False,
            read="report",
            turn_edits=(1, 6),
            skew=1.1,
            pregrow=12,
            max_added=24,
            base_types=12,
            base_facts=10,
        ),
        Workload(
            "durable_router",
            "workers=1 with a data_dir: router session lock, per-record fsync, "
            "compaction past snapshot_after, pipe hop, then a timed restart "
            "replay",
            sessions=12,
            durable=True,
            read="report",
            turn_edits=(1, 6),
            skew=0.0,
            pregrow=12,
            max_added=24,
            base_types=12,
            base_facts=10,
        ),
        Workload(
            "check_sat",
            "in-process backend, 4 sessions (2 pigeonhole UNSAT, 2 generator "
            "schemas), 1-2 edits then a warm strong check to max_domain 3: "
            "reasoner sync and CDCL solve",
            # Few sessions, so each goes through many of its warm
            # reasoner's grow-then-rebuild cycles (MAX_RETIRED_GROUPS) in
            # one window.  Sessions start in step; with 16 of them a window
            # held one or two cycles, and which part of a cycle it caught
            # (and so the check cost) varied with the machine's speed.
            sessions=4,
            durable=False,
            read="check",
            turn_edits=(1, 2),
            skew=0.0,
            pregrow=4,
            max_added=12,
            base_types=10,
            base_facts=8,
            pigeonhole_facts=6,
            # One client: a check's latency is then the reasoner's work,
            # not a wait for the interpreter lock behind another check.
            clients=1,
        ),
    )
}


@dataclass
class Session:
    name: str
    owner: int
    dsl: str
    script: SessionScript
    acked: list[Edit] = field(default_factory=list)
    last_verdict: dict[str, Any] | None = None
    checked_edits: int = 0  # len(acked) when last_verdict was taken


_SMALL_SAT_KNOBS = {
    "ring_probability": 0.0,
    "value_probability": 0.0,
    "frequency_probability": 0.0,
}


def make_sessions(workload: Workload, seed: int) -> list[Session]:
    """The inputs of one run: a base schema and a seeded script per session."""
    sessions = []
    for index in range(workload.sessions):
        # The base schemas are the same in every run, so that the mix of
        # schema shapes (and of their cost) does not vary between runs;
        # the seed draws the edit scripts and the clients' session choices.
        base_seed = random.Random(f"{workload.name}:{index}").getrandbits(32)
        script_seed = random.Random(f"{seed}:{workload.name}:{index}").getrandbits(32)
        small_sat = workload.read == "check"
        if workload.pigeonhole_facts and index % 2 == 0:
            dsl = pigeonhole_schema_dsl(workload.pigeonhole_facts)
        else:
            knobs = _SMALL_SAT_KNOBS if small_sat else {}
            dsl = generator_schema_dsl(
                base_seed, workload.base_types, workload.base_facts, **knobs
            )
        script = SessionScript.for_schema(
            script_seed,
            dsl,
            max_added=workload.max_added,
            small_sat=small_sat,
            stable_labels=workload.durable,
        )
        owner = index % workload.clients
        sessions.append(Session(f"{workload.name}-{index}", owner, dsl, script))
    return sessions


# -- measurement records ---------------------------------------------------


class Recorder:
    """Latency samples and failure accounting of one client thread."""

    def __init__(self) -> None:
        #: (verb, traced) -> latencies (ms) of successful calls, kept
        #: compact so the peak RSS hardly grows with the rate
        self.samples: dict[tuple[str, bool], array[float]] = {}
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.codes: Counter[tuple[str, str]] = Counter()
        self.polls = 0
        self.unchanged = 0  # ETag hits among traced-slice polls

    def call(
        self, verb: str, traced: bool, tracer: Tracer | None, client: int, fn: Any
    ) -> Any:
        self.attempted[verb] += 1
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.call(verb, client):
                    result = fn()
            else:
                result = fn()
        except WireError as error:
            self._fail(verb, error.code)
            return None
        except WireTransportError:
            self._fail(verb, "transport")
            return None
        except OSError:
            self._fail(verb, "timeout")
            return None
        latency = (time.perf_counter() - started) * 1000.0
        self.samples.setdefault((verb, traced), array("d")).append(latency)
        return result

    def _fail(self, verb: str, code: str) -> None:
        self.failed[verb] += 1
        self.codes[(verb, code)] += 1


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class Slice:
    start: float
    end: float
    traced: bool


# -- server lifecycle --------------------------------------------------------


#: Servers started and not yet stopped (see :func:`stop_everything`).
_LIVE: list[ServerThread] = []


def start_server(data_dir: Path | None) -> ServerThread:
    """The server with its default settings: in-process, or one worker
    over ``data_dir``."""
    if data_dir is None:
        server = ServerThread()
    else:
        server = ServerThread(workers=1, data_dir=str(data_dir))
    _LIVE.append(server)
    return server.start()


def stop_server(server: ServerThread) -> None:
    _LIVE.remove(server)
    server.stop()


def stop_everything() -> None:
    """Stop every server still running, then every process the run
    started: worker processes left behind, and the multiprocessing
    resource tracker that spawning a worker launches (it would otherwise
    outlive this process).  Waits until each has ended."""
    import multiprocessing
    from multiprocessing import resource_tracker

    while _LIVE:
        stop_server(_LIVE[-1])
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # Closing the tracker's pipe ends it once no child holds the pipe.
        os.close(tracker._fd)
        if tracker._pid is not None:
            os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def set_up(
    workload: Workload, seed: int, data_dir: Path | None
) -> tuple[float, ServerThread, list[Session]]:
    """Start the server, open every session and pre-grow it (a report,
    or the first cold check, per session included)."""
    sessions = make_sessions(workload, seed)
    if data_dir is not None:
        shutil.rmtree(data_dir, ignore_errors=True)
    started = time.perf_counter()
    server = start_server(data_dir)
    with ServiceClient(server.base_url) as client:
        for session in sessions:
            client.open(session.name, schema=session.dsl)
            for edit in session.script.turn(workload.pregrow, workload.pregrow):
                client.edit(session.name, edit[0], *edit[1], **edit[2])
                session.acked.append(edit)
            if workload.read == "check":
                session.last_verdict = client.check(
                    session.name, CHECK_GOAL, max_domain=CHECK_MAX_DOMAIN
                )
                session.checked_edits = len(session.acked)
            else:
                client.poll_report(session.name)
    return time.perf_counter() - started, server, sessions


# -- the timed window -----------------------------------------------------------


def _zipf_weights(count: int, exponent: float, rng: random.Random) -> list[float]:
    ranks = list(range(count))
    rng.shuffle(ranks)
    return [1.0 / (rank + 1) ** exponent for rank in ranks]


class Window:
    """The closed-loop clients of one run, driven slice by slice."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        base_url: str,
        sessions: list[Session],
        tracer: Tracer | None,
    ) -> None:
        self.workload = workload
        self.base_url = base_url
        self.sessions = sessions
        self.tracer = tracer
        self.traced = False  # mode of the current slice
        self.recorders = [Recorder() for _ in range(workload.clients)]
        self._seed = seed
        self._deadline = 0.0
        self._barrier = threading.Barrier(workload.clients + 1)
        self._done = False
        self.errors: list[BaseException] = []
        #: every slice run so far
        self.slices: list[Slice] = []
        if tracer is not None:
            tracer.owner.update({s.name: s.owner for s in sessions})

    def _client(self, index: int) -> None:
        workload = self.workload
        mine = [s for s in self.sessions if s.owner == index]
        rng = random.Random(f"{self._seed}:{workload.name}:client{index}")
        weights = _zipf_weights(len(mine), workload.skew, rng)
        recorder = self.recorders[index]
        try:
            with ServiceClient(self.base_url) as client:
                while True:
                    self._barrier.wait()
                    if self._done:
                        return
                    while time.perf_counter() < self._deadline:
                        session = rng.choices(mine, weights)[0]
                        self._turn(client, index, session, recorder)
                    self._barrier.wait()
        except threading.BrokenBarrierError:
            return
        except BaseException as error:  # surfaced by run(); never swallowed
            self.errors.append(error)
            self._barrier.abort()

    def _turn(
        self, client: ServiceClient, index: int, session: Session, rec: Recorder
    ) -> None:
        workload = self.workload
        traced = self.traced
        tracer = self.tracer if traced else None
        name = session.name
        for edit in session.script.turn(*workload.turn_edits):
            verb, args, kwargs = edit
            done = rec.call(
                "edit", traced, tracer, index,
                lambda: client.edit(name, verb, *args, **kwargs),
            )
            if done is not None:
                session.acked.append(edit)
        if workload.read == "check":
            verdict = rec.call(
                "check", traced, tracer, index,
                lambda: client.check(name, CHECK_GOAL, max_domain=CHECK_MAX_DOMAIN),
            )
            if verdict is not None:
                session.last_verdict = verdict
                session.checked_edits = len(session.acked)
            return
        full = rec.call("report", traced, tracer, index, lambda: client.poll_report(name))
        if full is None:
            return
        polled = rec.call(
            "poll", traced, tracer, index,
            lambda: client.poll_report(name, if_mark=full["mark"]),
        )
        if polled is not None and traced:
            rec.polls += 1
            rec.unchanged += bool(polled.get("unchanged"))

    def run(self, slices: list[tuple[float, bool]], between: Any = None) -> None:
        """Run ``(seconds, traced)`` slices; ``between(traced)`` is called
        while every client is paused, before each slice and after the
        last (with ``None``)."""
        threads = [
            threading.Thread(target=self._client, args=(i,), name=f"bench-client-{i}")
            for i in range(self.workload.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            for seconds, traced in slices:
                if between is not None:
                    between(traced)
                self.traced = traced
                started = time.perf_counter()
                self._deadline = started + seconds
                self._barrier.wait()  # release the clients
                self._barrier.wait()  # every client finished its last turn
                self.slices.append(Slice(started, time.perf_counter(), traced))
            if between is not None:
                between(None)
        except threading.BrokenBarrierError:
            pass  # a client failed; its error is raised below
        finally:
            self._done = True
            try:
                self._barrier.wait(timeout=30)
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join(timeout=60)
        if self.errors:
            raise self.errors[0]

    def latencies(self, verb: str, traced: bool) -> list[float]:
        """Ascending latencies (ms) of ``verb``'s successful calls in the
        slices of one mode."""
        return sorted(
            ms for recorder in self.recorders for ms in recorder.samples.get((verb, traced), ())
        )

    def rate(self, traced: bool) -> float:
        """Successful calls per second in the slices of one mode."""
        done = sum(
            len(latencies)
            for recorder in self.recorders
            for (_, mode), latencies in recorder.samples.items()
            if mode == traced
        )
        return done / sum(s.end - s.start for s in self.slices if s.traced == traced)


# -- the oracle --------------------------------------------------------------------


def _decode(args: list) -> list:
    return [tuple(a) if isinstance(a, list) else a for a in args]


def canonical(value: Any) -> Any:
    """Lists become sorted lists of canonical JSON, so equality is
    multiset equality of findings at every level."""
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return sorted(json.dumps(canonical(item), sort_keys=True) for item in value)
    return value


def replay_report(name: str, dsl: str, edits: list[Edit]) -> dict[str, Any] | None:
    """The in-process ``ValidationService(max_workers=0)`` run of a
    session's acknowledged edits; ``None`` when the script no longer
    applies (e.g. an edit was dropped that a later one depends on)."""
    with ValidationService(max_workers=0) as service:
        try:
            service.open(name, schema=parse_schema(dsl))
            for verb, args, kwargs in edits:
                service.edit(name, verb, *_decode(args), **kwargs)
            return report_to_payload(service.close(name))
        except Exception:  # noqa: BLE001 - any failure is an oracle mismatch
            return None


def cold_verdict(dsl: str, edits: list[Edit]) -> tuple[str, list[int]] | None:
    """A cold ``BoundedModelFinder`` verdict on the replayed schema."""
    schema = parse_schema(dsl)
    try:
        for verb, args, kwargs in edits:
            getattr(schema, EDIT_VERBS.get(verb, verb))(*_decode(args), **kwargs)
    except Exception:  # noqa: BLE001 - an unreplayable script is a mismatch
        return None
    verdict = BoundedModelFinder(schema).check(CHECK_GOAL, max_domain=CHECK_MAX_DOMAIN)
    return verdict.status, list(verdict.sizes_tried)


def same_report(got: dict[str, Any] | None, expected: dict[str, Any] | None) -> bool:
    return got is not None and expected is not None and canonical(got) == canonical(
        expected
    )


@dataclass
class OracleResult:
    checks: Counter[str] = field(default_factory=Counter)
    mismatches: list[str] = field(default_factory=list)

    def record(self, kind: str, ok: bool, detail: str) -> None:
        self.checks[kind] += 1
        if not ok:
            self.mismatches.append(f"{kind}: {detail}")

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_closed_reports(
    client: ServiceClient, sessions: list[Session], oracle: OracleResult
) -> None:
    """Close every session; each final report must be multiset-equal to
    the in-process replay of its acknowledged edits."""
    for session in sessions:
        try:
            got = client.close(session.name)
        except (WireError, WireTransportError) as error:
            oracle.record("close_report", False, f"{session.name}: {error}")
            continue
        expected = replay_report(session.name, session.dsl, session.acked)
        oracle.record("close_report", same_report(got, expected), session.name)


def check_verdicts(sessions: list[Session], oracle: OracleResult) -> None:
    """Each session's last warm verdict must equal a cold finder's."""
    for session in sessions:
        if session.last_verdict is None:
            oracle.record("verdict", False, f"{session.name}: never checked")
            continue
        got = (session.last_verdict["status"], session.last_verdict["sizes_tried"])
        cold = cold_verdict(session.dsl, session.acked[: session.checked_edits])
        oracle.record(
            "verdict",
            cold is not None and (got[0], list(got[1])) == cold,
            f"{session.name}: warm {got} vs cold {cold}",
        )


def reports(
    client: ServiceClient, sessions: list[Session]
) -> dict[str, dict[str, Any] | None]:
    """Every session's current report (``None`` where the request failed)."""
    result: dict[str, dict[str, Any] | None] = {}
    for session in sessions:
        try:
            result[session.name] = client.poll_report(session.name)["report"]
        except (WireError, WireTransportError):
            result[session.name] = None
    return result


# -- process measurements ----------------------------------------------------------


def vm_hwm_mib(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mib(server: ServerThread) -> float:
    """The server process (this one: ServerThread runs in-process) plus
    every worker process of a router backend."""
    total = vm_hwm_mib()
    pids = getattr(server.server.backend, "worker_pids", None)
    for pid in pids() if pids is not None else ():
        total += vm_hwm_mib(pid)
    return total


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def segments_started(data_dir: Path | None) -> int:
    """Log segments the sessions under ``data_dir`` have started: the
    first of each session, plus one per compaction (segments are numbered
    upwards and a compaction starts the next)."""
    if data_dir is None or not data_dir.is_dir():
        return 0
    return sum(
        max((int(p.stem) for p in session.glob("*.seg")), default=0)
        for session in data_dir.iterdir()
        if session.is_dir()
    )


def edit_payload_bytes(sessions: list[Session]) -> int:
    """Bytes of the acknowledged edit payloads as the client sends them."""
    total = 0
    for session in sessions:
        for verb, args, kwargs in session.acked:
            payload: dict[str, Any] = {"session": session.name, "verb": verb}
            if args:
                payload["args"] = args
            if kwargs:
                payload["kwargs"] = kwargs
            total += len(json.dumps(payload).encode("utf-8"))
    return total


def health_stats(base_url: str) -> dict[str, int]:
    with ServiceClient(base_url) as client:
        return dict(client.healthz()["stats"])


def nproc() -> int:
    return len(os.sched_getaffinity(0))
