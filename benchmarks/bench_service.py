"""Experiment: multi-session service throughput (batched journal drains).

The scale-out claim behind ``repro.server``: a :class:`ValidationService`
owning many concurrent modeling sessions sustains a higher aggregate edit
rate when it drains each schema's change journal in **batches per tick**
than when every edit pays a validation round-trip (the PR 2 interactive
model applied naively to N sessions).  Both modes use the same incremental
engines — the difference is purely how often the journals are drained.

Measured at 8/32/64 concurrent sessions; results merge into the
``multi_session`` section of ``BENCH_incremental.json`` at the repo root
(CI uploads the file as an artifact and gates on
``benchmarks/check_regression.py``).
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_incremental import merge_bench_json  # noqa: E402

from repro.server import ValidationService  # noqa: E402
from repro.tool import ValidatorSettings  # noqa: E402

SESSION_COUNTS = (8, 32, 64)
PREGROW_FACTS = 8  # facts per session before measurement starts
ROUNDS = 10  # measured edit rounds (one edit per session per round)
TICK_EVERY = 5  # batched mode: drain the whole service every N rounds

_RESULTS: dict[tuple[int, str], float] = {}


def _service() -> ValidationService:
    return ValidationService(
        settings=ValidatorSettings(formation_rules=True),
        max_live_engines=16,
    )


def _open_grown_sessions(service: ValidationService, count: int) -> list:
    handles = []
    for index in range(count):
        handle = service.open(f"s{index}")
        handle.edit("add_entity", "Hub")
        for fact in range(PREGROW_FACTS):
            handle.edit("add_entity", f"T{fact}")
            handle.edit(
                "add_fact", f"F{fact}", f"a{fact}", "Hub", f"b{fact}", f"T{fact}"
            )
            if fact % 3 == 0:
                handle.edit("add_uniqueness", f"a{fact}")
        handles.append(handle)
    service.drain()
    return handles


def _measure(count: int, mode: str) -> float:
    """Aggregate edits/sec across ``count`` sessions in the given mode."""
    with _service() as service:
        handles = _open_grown_sessions(service, count)
        edits = 0
        started = time.perf_counter()
        for round_index in range(ROUNDS):
            for handle in handles:
                handle.edit("add_entity", f"X{round_index}")
                edits += 1
                if mode == "per_edit":
                    handle.report()  # validate after every edit
            if mode == "batched" and (round_index + 1) % TICK_EVERY == 0:
                service.drain()
        if mode == "batched":
            service.drain()
        elapsed = time.perf_counter() - started
    return edits / elapsed if elapsed else float("inf")


def _write_section() -> None:
    merge_bench_json(
        {
            "multi_session": {
                "description": (
                    "Aggregate edits/sec across N concurrent ValidationService "
                    "sessions: batched journal drains (one service tick every "
                    f"{TICK_EVERY} edit rounds) versus a validation round-trip "
                    "after every edit.  Same incremental engines either way."
                ),
                "session_counts": list(SESSION_COUNTS),
                "edits_per_sec": {
                    "batched": {
                        str(count): _RESULTS[(count, "batched")]
                        for count in SESSION_COUNTS
                    },
                    "per_edit": {
                        str(count): _RESULTS[(count, "per_edit")]
                        for count in SESSION_COUNTS
                    },
                },
                "batch_speedup": {
                    str(count): _RESULTS[(count, "batched")]
                    / _RESULTS[(count, "per_edit")]
                    for count in SESSION_COUNTS
                },
            }
        }
    )


@pytest.mark.parametrize("count", SESSION_COUNTS)
@pytest.mark.parametrize("mode", ("per_edit", "batched"))
def test_multi_session_throughput(count, mode):
    """Record aggregate edits/sec; the batched mode must keep up with the
    per-edit mode at every session count (it should beat it — per-edit pays
    a refresh per edit, batched pays one per tick)."""
    _RESULTS[(count, mode)] = _measure(count, mode)
    if len(_RESULTS) == 2 * len(SESSION_COUNTS):
        _write_section()
        for sessions in SESSION_COUNTS:
            batched = _RESULTS[(sessions, "batched")]
            per_edit = _RESULTS[(sessions, "per_edit")]
            assert batched > per_edit * 0.8, (
                f"batched drains slower than per-edit validation at "
                f"{sessions} sessions: {batched:.0f} vs {per_edit:.0f} edits/s"
            )


def test_service_sustains_64_sessions():
    """The acceptance check: 64 concurrent sessions, batched drains, and
    every session's report stays exact (spot-checked against from-scratch
    analysis on a sample of sessions)."""
    from collections import Counter

    from repro.patterns import PatternEngine, check_formation_rules

    with _service() as service:
        handles = _open_grown_sessions(service, 64)
        for round_index in range(6):
            for handle in handles:
                handle.edit("add_entity", f"Y{round_index}")
            if round_index % 2 == 1:
                stats = service.drain()
                assert stats.examined == 64
        service.drain()
        census = service.stats()
        assert census.sessions == 64
        assert census.live_engines <= 16
        for handle in handles[::16]:
            report = handle.report()
            full = PatternEngine().check(handle.schema)
            assert Counter(report.pattern_report.violations) == Counter(
                full.violations
            )
            assert Counter(report.rule_findings) == Counter(
                check_formation_rules(handle.schema)
            )
