"""Deliberate violations for the runtime detector — and a clean run.

The ABBA test is fully deterministic: the first thread establishes the
A → B edge and *exits* before the main thread tries B → A, so the cycle
check fires on the recorded graph instead of racing a real deadlock.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.devtools import locktrace
from repro.devtools.locktrace import (
    BlockingWhileLocked,
    LockOrderViolation,
    TracedLock,
    traced_lock,
    traced_rlock,
)


@pytest.fixture()
def tracing():
    locktrace.install()
    try:
        yield
    finally:
        locktrace.uninstall()


def test_abba_deadlock_is_caught_not_hung(tracing) -> None:
    a = traced_lock("A")
    b = traced_lock("B")

    def establishes_a_then_b() -> None:
        with a:
            with b:
                pass

    worker = threading.Thread(target=establishes_a_then_b)
    worker.start()
    worker.join()

    with b:
        with pytest.raises(LockOrderViolation) as excinfo:
            a.acquire()
    message = str(excinfo.value)
    assert "A" in message and "B" in message
    assert len(locktrace.violations()) == 1


def test_sleep_under_lock_is_caught(tracing) -> None:
    with pytest.raises(BlockingWhileLocked):
        with traced_lock("S"):
            time.sleep(0.01)
    assert len(locktrace.violations()) == 1


def test_sleep_without_lock_is_fine(tracing) -> None:
    time.sleep(0)
    assert locktrace.violations() == []


def test_sleep_under_nonblocking_acquire_is_still_caught(tracing) -> None:
    # Bounded acquires add no *order* edges, but the lock is still held.
    lock = traced_lock("NB")
    assert lock.acquire(blocking=False)
    try:
        with pytest.raises(BlockingWhileLocked):
            time.sleep(0.01)
    finally:
        lock.release()


def test_bounded_acquires_add_no_order_edges(tracing) -> None:
    a = traced_lock("A")
    b = traced_lock("B")
    with a:
        assert b.acquire(blocking=False)
        b.release()
        assert b.acquire(timeout=0.5)
        b.release()
    # The reverse unbounded order must NOT trip a cycle: the try-acquires
    # above cannot deadlock, so they recorded nothing.
    with b:
        with a:
            pass
    assert locktrace.violations() == []


def test_rlock_reentry_is_clean(tracing) -> None:
    guard = traced_rlock("R")
    with guard:
        with guard:
            with guard:
                pass
    assert locktrace.violations() == []


def test_consistent_order_is_clean(tracing) -> None:
    a = traced_lock("A")
    b = traced_lock("B")
    for _ in range(3):
        with a:
            with b:
                pass
    assert locktrace.violations() == []


def test_creation_site_filter_leaves_foreign_locks_alone(tracing) -> None:
    # install() traces locks created under the repro package; this test
    # module is outside it, so a plain threading.Lock() here stays real.
    assert not isinstance(threading.Lock(), TracedLock)


def test_service_locks_are_traced_and_a_real_run_is_clean(tracing) -> None:
    from repro.server.service import ValidationService

    with ValidationService() as service:
        assert isinstance(service._registry_lock, TracedLock)
        assert isinstance(service._stats_lock, TracedLock)
        handle = service.open("design")
        assert isinstance(handle._state.lock, TracedLock)
        handle.edit("add_entity", "Person")
        handle.edit("add_entity", "Company", ("c1", "c2"))
        handle.edit("add_fact", "works", "r1", "Person", "r2", "Company")
        service.drain()
        report = handle.report()
        assert report is not None
        handle.close()
    assert locktrace.violations() == []


def test_install_resets_prior_violations() -> None:
    locktrace.install()
    try:
        with pytest.raises(BlockingWhileLocked):
            with traced_lock("stale"):
                time.sleep(0.01)
        assert locktrace.violations()
        locktrace.install()  # fresh slate
        assert locktrace.violations() == []
    finally:
        locktrace.uninstall()


def test_uninstall_restores_the_real_factories() -> None:
    locktrace.install()
    locktrace.uninstall()
    assert threading.Lock is locktrace._real_lock
    assert threading.RLock is locktrace._real_rlock
    assert time.sleep is locktrace._real_sleep
    assert not locktrace.installed()
