"""Experiment: wire-front throughput under concurrent remote clients.

The tentpole claim behind :mod:`repro.server.wire`: the asyncio HTTP front
adds a thin, non-serializing layer over the :class:`ValidationService` —
N concurrent clients editing and reporting over loopback HTTP sustain an
aggregate end-to-end request rate that does not collapse as N grows (the
event loop only parses HTTP/JSON; the blocking service verbs run on the
executor, drains on the service's own pools).

Measured at 8/32/64 concurrent clients, each with its own keep-alive
connection and session; results merge into the ``wire`` section of
``BENCH_incremental.json`` at the repo root (CI uploads the file and gates
via ``benchmarks/check_regression.py``).
"""

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_incremental import merge_bench_json  # noqa: E402
from check_regression import WIRE_COLLAPSE_RATIO  # noqa: E402

from repro.server import ServerThread, ServiceClient  # noqa: E402

CLIENT_COUNTS = (8, 32, 64)
ROUNDS = 12  # measured request rounds per client
REPORT_EVERY = 4  # one report (drain + serialize) per N edit requests

_RESULTS: dict[int, float] = {}


def _measure(count: int) -> float:
    """Aggregate requests/sec across ``count`` concurrent wire clients."""
    with ServerThread(drain_interval=0.02) as server:
        base_url = server.base_url
        barrier = threading.Barrier(count + 1)
        requests_done = [0] * count
        errors: list[BaseException] = []

        def one_client(index: int) -> None:
            try:
                with ServiceClient(base_url) as client:
                    name = f"bench{index}"
                    client.open(name)
                    client.edit(name, "add_entity", "Hub")
                    barrier.wait()  # measured window starts together
                    done = 0
                    for round_index in range(ROUNDS):
                        client.edit(name, "add_entity", f"T{round_index}")
                        done += 1
                        if (round_index + 1) % REPORT_EVERY == 0:
                            client.report(name)
                            done += 1
                    requests_done[index] = done
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)
                try:
                    barrier.abort()
                except Exception:
                    pass

        threads = [
            threading.Thread(target=one_client, args=(index,)) for index in range(count)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
        elapsed = time.perf_counter() - started
        assert not errors, errors[0]
    total = sum(requests_done)
    return total / elapsed if elapsed else float("inf")


def _write_section() -> None:
    merge_bench_json(
        {
            "wire": {
                "description": (
                    "Aggregate end-to-end HTTP requests/sec (edits plus one "
                    f"report per {REPORT_EVERY} edits) across N concurrent "
                    "wire clients against one loopback WireServer, each "
                    "client with its own keep-alive connection and session."
                ),
                "client_counts": list(CLIENT_COUNTS),
                "requests_per_sec": {
                    str(count): _RESULTS[count] for count in CLIENT_COUNTS
                },
            }
        }
    )


@pytest.mark.parametrize("count", CLIENT_COUNTS)
def test_wire_throughput(count):
    """Record aggregate requests/sec; the front must sustain every client
    count (the 64-client run is the ISSUE acceptance scale)."""
    _RESULTS[count] = _measure(count)
    assert _RESULTS[count] > 0
    if len(_RESULTS) == len(CLIENT_COUNTS):
        _write_section()
        # Throughput must not collapse as concurrency grows (the shared
        # WIRE_COLLAPSE_RATIO bar, also enforced by check_regression.py
        # and the tier-1 artifact guard).
        assert _RESULTS[64] > _RESULTS[8] * WIRE_COLLAPSE_RATIO, (
            f"wire throughput collapsed under concurrency: "
            f"{_RESULTS[64]:.0f} req/s at 64 clients vs "
            f"{_RESULTS[8]:.0f} req/s at 8"
        )
