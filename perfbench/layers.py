"""Per-layer metrics of a traced run, computed from its spans.

Layers are named by module: ``wire`` (client transport and the backend
``handle``), ``workers`` (router and pipe), ``durability``, ``service``,
``patterns``, ``protocol``, ``reasoner`` and ``sat``.  A metric of a layer
the workload does not exercise reads 0 (with no samples behind it).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from harness import percentile
from spans import Span, self_times

VERBS = ("edit", "report", "poll", "check")

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER: list[tuple[str, str]] = [
    *[(f"wire.handle_ms_p50.{v}", "ms") for v in VERBS],
    *[(f"wire.transport_self_ms_p50.{v}", "ms") for v in VERBS],
    ("wire.ticks", "count"),
    ("wire.tick_ms_total", "ms"),
    *[(f"workers.pipe_ms_p50.{v}", "ms") for v in VERBS],
    *[(f"workers.route_self_ms_p50.{v}", "ms") for v in VERBS],
    ("durability.append_ms_p50", "ms"),
    ("durability.append_ms_p99", "ms"),
    ("durability.appends", "count"),
    ("durability.compactions", "count"),
    ("durability.compact_ms_total", "ms"),
    ("durability.bytes_per_user_byte", "ratio"),
    ("durability.recover_ms", "ms"),
    ("service.edit_ms_p50", "ms"),
    ("service.report_ms_p50", "ms"),
    ("service.check_ms_p50", "ms"),
    ("service.drain_ms_total", "ms"),
    ("service.changes_drained", "count"),
    ("service.etag_hit_ratio", "ratio"),
    ("service.engine_hit_ratio", "ratio"),
    ("patterns.refresh_ms_p50", "ms"),
    ("patterns.refresh_ms_p99", "ms"),
    ("patterns.refreshes", "count"),
    ("patterns.changes_per_refresh", "count"),
    ("protocol.report_encode_ms_p50", "ms"),
    ("protocol.verdict_encode_ms_p50", "ms"),
    ("reasoner.check_ms_p50", "ms"),
    ("reasoner.sync_ms_p50", "ms"),
    ("reasoner.encoder_builds", "count"),
    ("sat.solve_ms_p50", "ms"),
    ("sat.solve_ms_p99", "ms"),
    ("sat.solves", "count"),
    ("sat.conflicts_per_check", "count"),
    ("sat.decisions_per_check", "count"),
    ("sat.learned_clauses", "count"),
    ("trace.edit_p50_ms_untraced", "ms"),
    ("trace.edit_p50_ms_traced", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_spans", "count"),
]


def _verb(span: Span) -> str | None:
    return span.call.name.split(".", 1)[1] if span.call is not None else None


def _p(values: list[float], q: float) -> float:
    return percentile(sorted(values), q)


def layer_metrics(
    spans: list[Span], extra: dict[str, float]
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metric values and the sample count behind each
    percentile metric.

    ``extra`` supplies the metrics that do not come from spans (service
    counters, ETag hits, bytes on disk, the tracing overhead)."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def durations(name: str, verb: str | None = None) -> list[float]:
        return [s.ms for s in by_name[name] if verb is None or _verb(s) == verb]

    values: dict[str, float] = {}
    counts: dict[str, int] = {}

    def pct(metric: str, samples: list[float], q: float) -> None:
        values[metric] = _p(samples, q)
        counts[metric] = len(samples)

    for verb in VERBS:
        handles = durations("wire.handle", verb) + durations("workers.handle", verb)
        pct(f"wire.handle_ms_p50.{verb}", handles, 0.5)
        pct(
            f"wire.transport_self_ms_p50.{verb}",
            [selfs[s.id] for s in by_name[f"client.{verb}"]],
            0.5,
        )
        pct(f"workers.pipe_ms_p50.{verb}", durations("workers.pipe", verb), 0.5)
        pct(
            f"workers.route_self_ms_p50.{verb}",
            [selfs[s.id] for s in by_name["workers.handle"] if _verb(s) == verb],
            0.5,
        )
    values["wire.ticks"] = len(by_name["wire.tick"])
    values["wire.tick_ms_total"] = sum(durations("wire.tick"))

    appends = durations("durability.append")
    pct("durability.append_ms_p50", appends, 0.5)
    pct("durability.append_ms_p99", appends, 0.99)
    values["durability.appends"] = len(appends)
    values["durability.compactions"] = len(by_name["durability.compact"])
    values["durability.compact_ms_total"] = sum(durations("durability.compact"))
    values["durability.recover_ms"] = sum(durations("durability.recover"))

    pct("service.edit_ms_p50", durations("service.edit"), 0.5)
    pct(
        "service.report_ms_p50",
        [s.ms for s in by_name["service.report"] if s.note is False],
        0.5,
    )
    pct("service.check_ms_p50", durations("service.check"), 0.5)
    values["service.drain_ms_total"] = sum(durations("service.drain"))

    refreshes = by_name["patterns.refresh"]
    pct("patterns.refresh_ms_p50", [s.ms for s in refreshes], 0.5)
    pct("patterns.refresh_ms_p99", [s.ms for s in refreshes], 0.99)
    values["patterns.refreshes"] = len(refreshes)
    values["patterns.changes_per_refresh"] = (
        sum(s.note or 0 for s in refreshes) / len(refreshes) if refreshes else 0.0
    )

    pct("protocol.report_encode_ms_p50", durations("protocol.report_encode"), 0.5)
    pct("protocol.verdict_encode_ms_p50", durations("protocol.verdict_encode"), 0.5)

    checks = len(by_name["reasoner.check"])
    pct("reasoner.check_ms_p50", durations("reasoner.check"), 0.5)
    pct(
        "reasoner.sync_ms_p50",
        [
            s.ms
            for s in by_name["reasoner.sync"]
            if s.parent is None or s.parent.name != "reasoner.encoder_build"
        ],
        0.5,
    )
    values["reasoner.encoder_builds"] = len(by_name["reasoner.encoder_build"])

    solves = by_name["sat.solve"]
    pct("sat.solve_ms_p50", [s.ms for s in solves], 0.5)
    pct("sat.solve_ms_p99", [s.ms for s in solves], 0.99)
    values["sat.solves"] = len(solves)
    values["sat.conflicts_per_check"] = (
        sum(s.note[0] for s in solves if s.note) / checks if checks else 0.0
    )
    values["sat.decisions_per_check"] = (
        sum(s.note[1] for s in solves if s.note) / checks if checks else 0.0
    )
    values["sat.learned_clauses"] = sum(s.note[2] for s in solves if s.note)

    values.update(extra)
    return values, counts


def verb_breakdown(spans: list[Span]) -> tuple[dict[str, dict[str, float]], float]:
    """Per verb, the mean client-call time and each layer's mean self time
    (the client call's own self time is the ``wire`` transport share), and
    the largest per-call gap between the layers' sum and the call time."""
    selfs = self_times(spans)
    per_call: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.call is None:
            continue
        layer = "wire" if span.name.startswith("client.") else span.layer
        per_call[span.call.id][layer] += selfs[span.id]
    calls = [s for s in spans if s.name.startswith("client.")]
    sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    tally: dict[str, int] = defaultdict(int)
    worst = 0.0
    for call in calls:
        verb = call.name.split(".", 1)[1]
        layers = per_call[call.id]
        worst = max(worst, abs(sum(layers.values()) - call.ms))
        tally[verb] += 1
        sums[verb]["call"] += call.ms
        for layer, ms in layers.items():
            sums[verb][layer] += ms
    breakdown = {
        verb: {key: total / tally[verb] for key, total in parts.items()}
        for verb, parts in sums.items()
    }
    return breakdown, worst


def stats_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in after
        if isinstance(after.get(key), (int, float))
    }
