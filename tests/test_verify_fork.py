"""verify.full_report runs its seven check groups in the calling process, one
after another, and forks no child: the exception it raises is that of the first
group to fail, on one CPU or many, and a threaded caller gets the same report."""

import os
import threading

import pytest

from diagcubic import verify
from diagcubic.errors import DomainError, IntegrityError


def _fault_at_31(monkeypatch):
    real = verify._jacobi_sum_direct

    def faulty(p, gen):
        if p == 31:
            raise IntegrityError("injected fault at p = 31")
        return real(p, gen)

    monkeypatch.setattr(verify, "_jacobi_sum_direct", faulty)


def _raising(exc):
    def group(*args):
        raise exc
    return group


def test_scan_fault_reaches_the_caller(monkeypatch):
    _fault_at_31(monkeypatch)
    with pytest.raises(IntegrityError) as raised:
        verify.full_report(jacobi_bound=300)
    assert type(raised.value) is IntegrityError
    assert str(raised.value) == "injected fault at p = 31"


def test_scan_exception_wins_over_a_later_group(monkeypatch):
    _fault_at_31(monkeypatch)
    monkeypatch.setattr(verify, "check_numeric_identities", _raising(DomainError("numeric identities")))
    with pytest.raises(IntegrityError, match="^injected fault at p = 31$"):
        verify.full_report(jacobi_bound=300)


def test_earlier_group_exception_wins_and_the_child_is_reaped(monkeypatch):
    # no child is forked, so none is left to reap, and the scan never starts
    monkeypatch.setattr(os, "fork", _raising(AssertionError("os.fork was called")), raising=False)
    scans = []
    monkeypatch.setattr(verify, "check_constants_integrity", lambda bound: scans.append(bound) or [])
    monkeypatch.setattr(verify, "check_oracle_equivalence", _raising(DomainError("oracle equivalence")))
    with pytest.raises(DomainError, match="^oracle equivalence$"):
        verify.full_report()
    assert scans == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_usable_cpu_keeps_the_serial_error_order(monkeypatch):
    # the scan runs after the earlier groups and before the later ones
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _fault_at_31(monkeypatch)
    monkeypatch.setattr(verify, "check_numeric_identities", _raising(DomainError("numeric identities")))
    with pytest.raises(IntegrityError, match="^injected fault at p = 31$"):
        verify.full_report(jacobi_bound=300)
    scans = []
    monkeypatch.setattr(verify, "check_constants_integrity", lambda bound: scans.append(bound) or [])
    monkeypatch.setattr(verify, "check_oracle_equivalence", _raising(DomainError("oracle equivalence")))
    with pytest.raises(DomainError, match="^oracle equivalence$"):
        verify.full_report()
    assert scans == []


def test_failed_fork_runs_the_scan_in_process(monkeypatch):
    expected = verify.full_report(jacobi_bound=300)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", _raising(BlockingIOError(11, "Resource temporarily unavailable")), raising=False)
    assert verify.full_report(jacobi_bound=300) == expected


def test_one_usable_cpu_runs_the_scan_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", _raising(AssertionError("os.fork was called")), raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.full_report(jacobi_bound=300)["ok"]


def test_second_live_thread_runs_the_scan_in_process():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify.full_report(jacobi_bound=300)["ok"]
    finally:
        release.set()
        thread.join()


def test_full_report_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", _raising(AssertionError("os.fork was called")), raising=False)
    report = verify.full_report(jacobi_bound=300)
    assert report["ok"]
    (scan,) = [c for c in report["checks"] if c["name"] == "jacobi-scan"]
    assert scan["status"] == "pass"
