"""``orm-validate`` — validate an ORM schema file from the command line.

Usage::

    orm-validate schema.orm                      # all nine patterns
    orm-validate schema.orm --patterns P2,P9     # a subset (Fig. 15 style)
    orm-validate schema.orm --formation-rules    # include Sec. 3 analysis
    orm-validate schema.orm --no-advisories      # skip the W01-W07 advisories
    orm-validate schema.orm --verbalize          # pseudo-NL rendering first
    orm-validate schema.orm --complete 3         # add bounded complete check
    orm-validate schema.orm --format json
    orm-validate a.orm b.orm c.orm               # batch: one session per file,
                                                 # batched journal drains
    orm-validate --batch schema.orm              # force batch mode for one file

With several schema files (or ``--batch``) validation runs through the
multi-session :class:`repro.server.ValidationService`: one session per
file, journals drained in batches.
With ``--server URL`` the batch is validated by a *remote*
``orm-validate serve`` instance over the JSON wire protocol instead of an
in-process service.

The service itself is started with the ``serve`` subcommand::

    orm-validate serve --host 127.0.0.1 --port 8099
    orm-validate --batch --server http://127.0.0.1:8099 a.orm b.orm

See :mod:`repro.server.wire` for the endpoint/JSON reference.

**Deployment.**  ``serve`` defaults to a single-process service bound to
loopback.  The two scale/hardening axes:

* ``--workers N`` routes sessions to N worker *subprocesses* (stable
  session-name hash, same wire protocol; see
  :mod:`repro.server.workers`) — one GIL per worker, so concurrent
  drains use N cores instead of one, and a crashed worker is replaced
  with its sessions re-homed by journal replay.  Single-process mode
  (``--workers 0``) remains the low-latency default for one-core or
  embedded use.
* ``--token SECRET`` (or the ``ORM_VALIDATE_TOKEN`` environment
  variable) requires ``Authorization: Bearer SECRET`` on every ``/v1/*``
  request (``GET /healthz`` stays open for liveness probes).  Binding
  beyond loopback **requires** a token — ``serve`` refuses to start
  otherwise unless ``--allow-unauthenticated`` spells out the intent.
  Clients pass the same token via ``--token`` (or the env var).

Pollers should use the report ETag: every ``/v1/report`` response carries
a ``mark``; echo it as ``if_mark`` and an unchanged session answers
``{"unchanged": true}`` without re-serializing the report
(:meth:`repro.server.client.ServiceClient.poll_report`).

Exit status: 0 when no unsatisfiability was detected, 1 otherwise (any
file, in batch mode), 2 on input errors — so the tool slots into CI for
schema repositories.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro.exceptions import ParseError, ReproError
from repro.io.dsl import parse_schema
from repro.orm.verbalize import verbalize_schema
from repro.patterns.engine import PATTERN_IDS
from repro.tool.validator import Validator, ValidatorSettings


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="orm-validate",
        description="Detect unsatisfiable roles and object types in an ORM schema "
        "(the nine patterns of Jarrar & Heymans, EDBT 2006).",
    )
    parser.add_argument(
        "schema",
        type=Path,
        nargs="+",
        help="schema file(s) in the ORM text DSL; several files (or --batch) "
        "validate through the multi-session service",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="serve the schemas from a multi-session ValidationService "
        "(one session per file, batched journal drains) even "
        "for a single file",
    )
    parser.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help="validate through a remote 'orm-validate serve' instance at URL "
        "(e.g. http://127.0.0.1:8099) instead of in-process; implies "
        "--batch",
    )
    parser.add_argument(
        "--token",
        metavar="SECRET",
        default=None,
        help="bearer token for --server (default: $ORM_VALIDATE_TOKEN)",
    )
    parser.add_argument(
        "--patterns",
        default=",".join(PATTERN_IDS),
        help="comma-separated pattern ids to enable (default: all nine)",
    )
    advisory_group = parser.add_mutually_exclusive_group()
    advisory_group.add_argument(
        "--advisories",
        dest="advisories",
        action="store_true",
        default=True,
        help="run the structural well-formedness advisories (default)",
    )
    advisory_group.add_argument(
        "--no-advisories",
        "--no-wellformedness",  # pre-PR-2 spelling, kept for compatibility
        dest="advisories",
        action="store_false",
        help="skip the structural advisories",
    )
    parser.add_argument(
        "--formation-rules",
        action="store_true",
        help="also run Halpin's formation rules and RIDL-A analysis (Sec. 3)",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help=argparse.SUPPRESS,  # retired; accepted only to print a notice
    )
    parser.add_argument(
        "--verbalize",
        action="store_true",
        help="print the pseudo-natural-language reading of the schema first",
    )
    parser.add_argument(
        "--extensions",
        action="store_true",
        help="also run the Sec. 5 extension patterns X1-X3",
    )
    parser.add_argument(
        "--propagate",
        action="store_true",
        help="derive the full set of unsatisfiable elements from the findings",
    )
    parser.add_argument(
        "--repairs",
        action="store_true",
        help="print candidate repairs under each violation",
    )
    parser.add_argument(
        "--complete",
        type=int,
        metavar="N",
        default=None,
        help="additionally run the bounded complete model finder with domain "
        "bound N (slower; confirms or refines the pattern verdicts).  In "
        "batch/server mode this uses the warm per-session /v1/check "
        "reasoner.  A result of 'unknown' means the solver's decision "
        "budget ran out before any domain size answered 'sat'",
    )
    parser.add_argument(
        "--goal",
        choices=("strong", "concept", "weak", "global"),
        default="strong",
        help="which satisfiability goal --complete decides (default: strong "
        "= every role populated)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    return parser


def _settings_from_args(args) -> ValidatorSettings | None:
    """The Fig. 15 profile the flags select (None after printing an error)."""
    settings = ValidatorSettings()
    wanted = [part.strip() for part in args.patterns.split(",") if part.strip()]
    try:
        for pattern_id in PATTERN_IDS:
            if pattern_id in wanted:
                settings.enable(pattern_id)
            else:
                settings.disable(pattern_id)
        unknown = [pid for pid in wanted if pid not in PATTERN_IDS]
        if unknown:
            raise KeyError(unknown[0])
    except KeyError as error:
        print(f"error: unknown pattern id {error}", file=sys.stderr)
        return None
    settings.wellformedness = args.advisories
    settings.formation_rules = args.formation_rules
    settings.propagation = args.propagate
    if args.no_incremental:
        print(
            "warning: --no-incremental is deprecated and ignored — the "
            "site-based incremental engine is always used (the from-scratch "
            "path survives only as the test reference "
            "repro.tool.validator.reference_validate)",
            file=sys.stderr,
        )
    if args.extensions:
        settings.enable_extensions()
    return settings


def _load_schema(path: Path):
    """Parse one schema file (None after printing an error)."""
    try:
        text = path.read_text()
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return None
    try:
        return parse_schema(text)
    except (ParseError, ReproError) as error:
        print(f"error: {path}: {error}", file=sys.stderr)
        return None


def _report_payload(schema, report, complete_result=None) -> dict:
    """The machine-readable form of one ToolReport (``--format json``).

    The shape is owned by :func:`repro.tool.validator.report_to_payload`
    — the wire protocol and the CLI print the same JSON.
    """
    from repro.tool.validator import report_to_payload

    payload = report_to_payload(report)
    payload["complete_check"] = complete_result
    return payload


def _run_batch(paths: list[Path], settings: ValidatorSettings, args) -> int:
    """Validate many schema files through the multi-session service."""
    from repro.server import ValidationService

    if args.verbalize or args.repairs:
        print(
            "error: --verbalize/--repairs are single-schema options "
            "(not available with --batch)",
            file=sys.stderr,
        )
        return 2
    schemas = []
    for path in paths:
        schema = _load_schema(path)
        if schema is None:
            return 2
        schemas.append((path, schema))
    if args.server is not None:
        return _run_remote_batch(schemas, settings, args)
    verdicts: list[dict | None] = [None] * len(schemas)
    with ValidationService(settings=settings) as service:
        handles = [
            service.open(f"{index}:{path}", schema=schema)
            for index, (path, schema) in enumerate(schemas)
        ]
        service.drain()
        reports = [handle.report() for handle in handles]
        if args.complete is not None:
            from repro.server import protocol

            verdicts = [
                protocol.verdict_to_payload(
                    service.check(handle.name, args.goal, max_domain=args.complete)
                )
                for handle in handles
            ]
    unsat = sum(1 for report in reports if not report.ok)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schemas": [
                        _report_payload(schema, report, verdict)
                        for (_, schema), report, verdict in zip(
                            schemas, reports, verdicts
                        )
                    ],
                    "unsatisfiable": unsat,
                },
                indent=2,
            )
        )
    else:
        for report, verdict in zip(reports, verdicts):
            print(report.render())
            if verdict is not None:
                _print_verdict(verdict, args)
            print()
        print(f"{len(reports)} schema(s) validated, {unsat} unsatisfiable")
    return 1 if unsat else 0


def _print_verdict(verdict: dict, args) -> None:
    """Render one /v1/check verdict payload in the text format."""
    print(
        f"Complete bounded check ({args.goal}, domain<={args.complete}): "
        f"{verdict['status']}"
    )
    if verdict["status"] == "unknown":
        print(
            "  (decision budget exhausted at size(s) "
            f"{verdict['inconclusive_sizes']} — neither satisfiability nor "
            "bounded unsatisfiability established)"
        )


def _run_remote_batch(schemas, settings: ValidatorSettings, args) -> int:
    """Validate a batch on a remote ``orm-validate serve`` instance."""
    import uuid

    from repro.server import WireError
    from repro.server.client import ServiceClient, WireTransportError
    from repro.tool.validator import render_report_payload

    # A per-run nonce keeps concurrent (or re-run) CLI batches against one
    # server from colliding on session names.
    run_id = uuid.uuid4().hex[:8]
    payloads = []
    names: list[str] = []
    token = args.token or os.environ.get("ORM_VALIDATE_TOKEN") or None
    try:
        with ServiceClient(args.server, token=token) as client:
            client.healthz()  # fail fast on a dead/unreachable server
            try:
                for index, (path, schema) in enumerate(schemas):
                    name = f"cli:{run_id}:{index}:{path}"
                    client.open(name, settings=settings, schema=schema)
                    names.append(name)
                client.drain(names)
                verdicts = [None] * len(names)
                if args.complete is not None:
                    verdicts = [
                        client.check(name, args.goal, max_domain=args.complete)
                        for name in names
                    ]
                payloads = []
                for name, verdict in zip(names, verdicts):
                    payload = client.close(name)
                    payload["complete_check"] = verdict
                    payloads.append(payload)
            finally:
                # On any mid-batch failure, close what was opened so the
                # server does not accumulate orphaned sessions.
                for name in names[len(payloads):]:
                    try:
                        client.close(name)
                    except (WireError, WireTransportError):
                        pass
    except (WireError, WireTransportError, ValueError) as error:
        print(f"error: remote validation via {args.server}: {error}", file=sys.stderr)
        return 2
    unsat = sum(1 for payload in payloads if not payload["satisfiable_by_patterns"])
    if args.format == "json":
        print(json.dumps({"schemas": payloads, "unsatisfiable": unsat}, indent=2))
    else:
        for payload in payloads:
            print(render_report_payload(payload))
            if payload.get("complete_check") is not None:
                _print_verdict(payload["complete_check"], args)
            print()
        print(
            f"{len(payloads)} schema(s) validated remotely via {args.server}, "
            f"{unsat} unsatisfiable"
        )
    return 1 if unsat else 0


def _bind_is_loopback(host: str) -> bool:
    """True only when the bind address cannot be reached off-host.

    Hostnames other than ``localhost`` — and the wildcard binds ``""`` /
    ``0.0.0.0`` / ``::`` — count as reachable, so the token requirement
    errs on the safe side.
    """
    if host == "localhost":
        return True
    import ipaddress

    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def _run_serve(argv: list[str]) -> int:
    """The ``orm-validate serve`` subcommand: the asyncio wire front."""
    import asyncio

    from repro.server.wire import WireServer

    parser = argparse.ArgumentParser(
        prog="orm-validate serve",
        description="Serve the multi-session validation service over HTTP "
        "(JSON wire protocol; see repro.server.wire).  Loopback-only and "
        "single-process by default; scale out with --workers, open up "
        "(with a token) via --host/--token.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8099, help="bind port (0 = pick free)")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="route sessions to N worker subprocesses (one GIL each; "
        "crashed workers are replaced and their sessions re-homed); "
        "0 = single-process service (default)",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="durable session logs: fsync every acknowledged open/edit to "
        "per-session segment logs under DIR and recover all sessions on "
        "restart (requires --workers >= 1)",
    )
    parser.add_argument(
        "--token",
        metavar="SECRET",
        default=None,
        help="require 'Authorization: Bearer SECRET' on every /v1/* request "
        "(default: $ORM_VALIDATE_TOKEN; /healthz stays open)",
    )
    parser.add_argument(
        "--allow-unauthenticated",
        action="store_true",
        help="serve beyond loopback without a token (NOT recommended; "
        "without this flag a non-loopback bind refuses to start untokened)",
    )
    parser.add_argument(
        "--drain-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="period of the background service tick (0 disables it)",
    )
    parser.add_argument(
        "--max-live-engines", type=int, default=16, help="live-engine count cap"
    )
    parser.add_argument(
        "--max-live-sites",
        type=int,
        default=None,
        help="optional live-engine budget in check sites (weighted eviction)",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        print(
            f"error: --workers must be >= 0, got {args.workers}", file=sys.stderr
        )
        return 2
    if args.data_dir is not None and args.workers < 1:
        print(
            "error: --data-dir (durable session logs) requires a "
            "multi-process deployment: pass --workers >= 1",
            file=sys.stderr,
        )
        return 2
    token = args.token or os.environ.get("ORM_VALIDATE_TOKEN") or None
    if token is None and not _bind_is_loopback(args.host) and not args.allow_unauthenticated:
        print(
            f"error: refusing to bind {args.host!r} without auth — the wire "
            "protocol would be open to the network.  Set --token (or "
            "ORM_VALIDATE_TOKEN), or pass --allow-unauthenticated to "
            "accept that explicitly.",
            file=sys.stderr,
        )
        return 2

    async def _serve() -> None:
        extra: dict[str, Any] = {}
        if args.data_dir is not None:
            extra["data_dir"] = args.data_dir
        server = WireServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            token=token,
            drain_interval=args.drain_interval or None,
            max_live_engines=args.max_live_engines,
            max_live_sites=args.max_live_sites,
            **extra,
        )
        host, port = await server.start()
        mode = f"{args.workers} worker processes" if args.workers else "single process"
        auth = "token auth" if token else "no auth"
        print(
            f"orm-validate serve: listening on http://{host}:{port} "
            f"({mode}, {auth})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("orm-validate serve: shut down", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = _settings_from_args(args)
    if settings is None:
        return 2
    if args.batch or args.server is not None or len(args.schema) > 1:
        return _run_batch(args.schema, settings, args)

    schema = _load_schema(args.schema[0])
    if schema is None:
        return 2
    report = Validator(settings).validate(schema)

    complete_result = None
    if args.complete is not None:
        from repro.reasoner import BoundedModelFinder

        verdict = BoundedModelFinder(schema).check(args.goal, max_domain=args.complete)
        complete_result = {
            "goal": args.goal,
            "status": verdict.status,
            "domain_bound": args.complete,
            "witness": verdict.witness.describe() if verdict.witness else None,
        }

    if args.format == "json":
        print(json.dumps(_report_payload(schema, report, complete_result), indent=2))
    else:
        if args.verbalize:
            print("Schema verbalization:")
            for line in verbalize_schema(schema):
                print(f"  {line}")
            print()
        print(report.render())
        if args.repairs and report.pattern_report.violations:
            from repro.patterns import suggest_repairs

            print("Candidate repairs:")
            for violation in report.pattern_report.violations:
                print(f"  [{violation.pattern_id}]")
                for suggestion in suggest_repairs(violation):
                    print(f"    - {suggestion}")
        if complete_result is not None:
            print(
                f"Complete bounded check ({args.goal}, domain<={args.complete}): "
                f"{complete_result['status']}"
            )
            if complete_result["witness"]:
                print(f"  witness: {complete_result['witness']}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
