"""Latency benchmark of the ORM validation server, per verb and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload edit_report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The server (``src/``) runs in this process behind ``ServerThread`` with
its default settings; closed-loop ``ServiceClient`` threads (two, one for
``check_sat``) drive it.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (from spans recorded around calls into
each layer, over alternating traced and untraced slices of the window).
Every run checks the server's outputs against an in-process replay.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: The seed used when none is given, and one kept back for confirming
#: later performance claims on inputs they were not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("edit_p50_ms", "ms"),
    ("edit_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
]


def _say(line: str = "") -> None:
    print(line, flush=True)


def _git_commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unavailable"
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: Any, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    import harness

    params = asdict(workload)
    params.pop("why")
    params.update(
        setup_repeats=harness.SETUP_REPEATS,
        check_goal=harness.CHECK_GOAL,
        check_max_domain=harness.CHECK_MAX_DOMAIN,
        loop="closed",
    )
    if workload.durable:
        params.update(flush_policy=harness.FLUSH_POLICY, snapshot_after=64)
    return {
        "nproc": harness.nproc(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "workload": params,
    }


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: int, trace: bool, scratch: Path) -> dict:
    """One run of one workload; returns the result object."""
    import harness
    from spans import Tracer

    workload = harness.WORKLOADS[workload_name]
    _say("env " + json.dumps(environment(workload, seed, seconds, trace)))

    data_dir = scratch / "data" if workload.durable else None
    setups = []
    for attempt in range(harness.SETUP_REPEATS):
        if attempt:
            harness.stop_server(server)
        elapsed, server, sessions = harness.set_up(workload, seed, data_dir)
        setups.append(elapsed)

    tracer = Tracer() if trace else None
    window = harness.Window(workload, seed, server.base_url, sessions, tracer)
    #: (mode of the next slice, /healthz stats, log segments) at every pause
    marks: list[tuple[bool | None, dict[str, int], int]] = []

    def between(next_traced: bool | None) -> None:
        stats = harness.health_stats(server.base_url)
        marks.append((next_traced, stats, harness.segments_started(data_dir)))
        if tracer is None:
            return
        if next_traced:
            tracer.install()
        else:
            tracer.uninstall()

    if trace:
        count = max(2, round(seconds / harness.TRACE_SLICE_S))
        window.run([(seconds / count, i % 2 == 1) for i in range(count)], between)
    else:
        window.run([(float(seconds), False)], between)
    peak_rss = harness.peak_rss_mib(server)
    disk_ratio = 0.0
    if data_dir is not None:
        disk_ratio = harness.dir_bytes(data_dir) / max(1, harness.edit_payload_bytes(sessions))

    # -- outputs, checked after the window and outside its timing ---------
    oracle = harness.OracleResult()
    recovery_s = None
    if data_dir is not None:
        server, recovery_s = _restart(server, sessions, data_dir, tracer, oracle)
    if workload.read == "check":
        harness.check_verdicts(sessions, oracle)
    with harness.ServiceClient(server.base_url) as client:
        harness.check_closed_reports(client, sessions, oracle)
    harness.stop_server(server)

    attempted = sum(sum(r.attempted.values()) for r in window.recorders)
    failed = sum(sum(r.failed.values()) for r in window.recorders)
    figures = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        **_latency_figures(workload, window),
    }
    _traffic(workload, window, marks)
    _say(f"setup runs {[round(s, 3) for s in setups]} s")
    _say(f"  {'error_rate':18} {failed / attempted:12.4f} ratio  (n={attempted})")
    if recovery_s is not None:
        _say(f"  {'recovery_s':18} {recovery_s:12.4f} s  (n=1)")
    _say("end-to-end metrics:")
    for name, unit in END_TO_END:
        _say(f"  {name:18} {figures[name]:12.4f} {unit}")
    _say(f"oracle {dict(oracle.checks)}: {'pass' if oracle.ok else 'FAIL'}")
    for mismatch in oracle.mismatches[:10]:
        _say(f"  mismatch {mismatch}")

    if tracer is None:
        metrics = {name: _metric(figures[name], unit) for name, unit in END_TO_END}
    else:
        overhead = (figures["edit_p50_ms"], _p50(window.latencies("edit", True)))
        metrics = _per_layer(tracer, window, marks, disk_ratio, overhead)
    return {"correct": oracle.ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def _restart(
    server: Any, sessions: list, data_dir: Path, tracer: Any, oracle: Any
) -> tuple[Any, float]:
    """Stop the durable server and time a new one over its ``data_dir``
    until every session serves; the reports after must equal those before."""
    import harness

    with harness.ServiceClient(server.base_url) as client:
        before = harness.reports(client, sessions)
    harness.stop_server(server)
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    with tracer.background("workers.recover") if tracer else nullcontext():
        server = harness.start_server(data_dir)
    with harness.ServiceClient(server.base_url) as client:
        routed = client.healthz()["workers"]["routed_sessions"]
        recovery_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        after = harness.reports(client, sessions)
    oracle.record("recovered", routed == len(sessions), f"{routed}/{len(sessions)} sessions")
    for session in sessions:
        oracle.record(
            "restart_report",
            harness.same_report(after[session.name], before[session.name]),
            session.name,
        )
    return server, recovery_s


def _p50(values: list[float]) -> float:
    import harness

    return harness.percentile(values, 0.5)


def _latency_figures(workload: Any, window: Any) -> dict[str, float]:
    """Print the per-verb table of the untraced slices; return throughput
    and the edit/read percentiles (nearest rank over every untraced
    sample of the window)."""
    import harness
    from layers import VERBS

    _say(f"workload {workload.name}: {workload.why}")
    _say("percentile estimator: nearest rank over all untraced samples of the window")
    codes = sum((r.codes for r in window.recorders), harness.Counter())
    percentiles: dict[str, float] = {}
    for verb in VERBS:
        tried = sum(r.attempted[verb] for r in window.recorders)
        if not tried:
            continue
        timed = window.latencies(verb, False)
        histogram = {c: k for (v, c), k in codes.items() if v == verb}
        failed = sum(r.failed[verb] for r in window.recorders)
        _say(f"{verb}: attempted {tried}, failed {failed}, codes {histogram or '-'}")
        for q in (0.5, 0.99):
            name = f"{verb}_p{round(q * 100)}_ms"
            percentiles[name] = harness.percentile(timed, q)
            beyond = len(timed) - math.ceil(q * len(timed))
            _say(f"  {name:18} {percentiles[name]:12.4f} ms  (n={len(timed)}, {beyond} beyond)")
        if len(timed) < 1000:
            _say(f"warning: {len(timed)} {verb} samples; a p99 needs at least 1000")
    _say(f"read verb of this workload: {workload.read} (read_* metrics)")
    return {
        "throughput_rps": window.rate(False),
        "edit_p50_ms": percentiles["edit_p50_ms"],
        "edit_p99_ms": percentiles["edit_p99_ms"],
        "read_p50_ms": percentiles[f"{workload.read}_p50_ms"],
        "read_p99_ms": percentiles[f"{workload.read}_p99_ms"],
    }


def _stats_over(marks: list, traced: bool) -> tuple[dict[str, float], int]:
    """/healthz counter deltas and log segments started over the slices
    of one mode."""
    import layers

    stats: dict[str, float] = {}
    segments = 0
    for (mode, before, seg_before), (_, after, seg_after) in zip(marks, marks[1:]):
        if mode == traced:
            for key, value in layers.stats_delta(before, after).items():
                stats[key] = stats.get(key, 0) + value
            segments += seg_after - seg_before
    return stats, segments


def _traffic(workload: Any, window: Any, marks: list) -> None:
    """Print the traffic shape the workload's parameters produced in the
    untraced slices: how often a turn missed the live-engine cache, how
    often logs were compacted, and the turn size."""
    stats, compactions = _stats_over(marks, traced=False)
    seconds = sum(s.end - s.start for s in window.slices if not s.traced)
    drains = stats.get("drains", 0)
    misses = stats.get("resumes", 0) + stats.get("rebuilds", 0)
    edits = sum(r.attempted["edit"] for r in window.recorders)
    turns = sum(r.attempted[workload.read] for r in window.recorders)
    _say(
        "traffic: "
        f"engine_miss_share {misses / drains if drains else 0.0:.3f} "
        f"((resumes + rebuilds) / drains, n={drains:.0f}), "
        f"evictions/s {stats.get('evictions', 0) / seconds:.1f}, "
        f"compactions {compactions} ({compactions / seconds:.1f}/s), "
        f"edits/turn {edits / turns if turns else 0.0:.2f} (n={turns})"
    )


def _per_layer(
    tracer: Any,
    window: Any,
    marks: list,
    disk_ratio: float,
    overhead: tuple[float, float],
) -> dict[str, Any]:
    """Print the traced run's layer breakdown; return its metrics.
    ``overhead`` is the edit p50 of the untraced and the traced slices."""
    import layers
    from spans import nests

    unattributed = tracer.attribute_orphans()
    stats, _ = _stats_over(marks, traced=True)
    polls = sum(r.polls for r in window.recorders)
    drains = stats.get("drains", 0)
    misses = stats.get("resumes", 0) + stats.get("rebuilds", 0)
    untraced, traced = overhead
    extra = {
        "service.changes_drained": stats.get("changes_drained", 0),
        "service.etag_hit_ratio": (
            sum(r.unchanged for r in window.recorders) / polls if polls else 0.0
        ),
        "service.engine_hit_ratio": 1.0 - misses / drains if drains else 0.0,
        "durability.bytes_per_user_byte": disk_ratio,
        "trace.edit_p50_ms_untraced": untraced,
        "trace.edit_p50_ms_traced": traced,
        "trace.overhead_pct": (traced / untraced - 1.0) * 100.0 if untraced else 0.0,
        "trace.unattributed_spans": unattributed,
    }
    values, counts = layers.layer_metrics(tracer.spans, extra)
    breakdown, worst = layers.verb_breakdown(tracer.spans)
    _say(
        f"traced spans {len(tracer.spans)}, unattributed {unattributed}, "
        f"nest {'ok' if nests(tracer.spans) else 'BROKEN'}"
    )
    _say(
        "per-verb mean ms: client call = sum of layer self times "
        f"(largest per-call gap {worst:.2e} ms)"
    )
    for verb, parts in sorted(breakdown.items()):
        call = parts.pop("call")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in sorted(parts.items()))
        _say(f"  {verb:6} call {call:.3f} = {sum(parts.values()):.3f} [{shares}]")
    _say(
        f"tracing overhead: edit p50 {untraced:.3f} ms untraced vs {traced:.3f} ms "
        f"traced ({extra['trace.overhead_pct']:+.1f} %)"
    )
    for name, unit in layers.PER_LAYER:
        n = f"  (n={counts[name]})" if name in counts else ""
        _say(f"  {name:36} {values[name]:12.4f} {unit}{n}")
    return {name: _metric(values[name], unit) for name, unit in layers.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all' to run each in turn"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "server").is_dir():
        print(f"perfbench: no server sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(harness.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace), scratch)
            if len(names) > 1:
                _say(f"result {name} " + json.dumps(results[name]))
    finally:
        harness.stop_everything()
        shutil.rmtree(scratch, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]), flush=True)
        return 0
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
