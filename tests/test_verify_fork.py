"""verify.full_report's constants-integrity group in a forked child: the
same report and the same exceptions as run in the caller, in the order the
groups run one after another would raise them, and no child left behind."""

import json
import os
import signal
import threading
import time

import pytest

from diagcubic import cli, verify
from diagcubic.errors import DomainError, IntegrityError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the machine has; the pids full_report forks."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


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


@pytest.mark.parametrize("bound", [None, 300])
def test_forked_report_equals_in_process_report(forks, monkeypatch, bound):
    forked = verify.full_report(jacobi_bound=bound)
    assert len(forks) == 1
    assert forked["ok"] and any(c["name"] == "jacobi-scan" for c in forked["checks"])
    monkeypatch.delattr(os, "fork")
    assert verify.full_report(jacobi_bound=bound) == forked


def test_scan_fault_reaches_the_caller(forks, monkeypatch):
    _fault_at_31(monkeypatch)
    with pytest.raises(IntegrityError) as forked:
        verify.full_report(jacobi_bound=300)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    with pytest.raises(IntegrityError) as in_process:
        verify.full_report(jacobi_bound=300)
    assert type(forked.value) is type(in_process.value) is IntegrityError
    assert str(forked.value) == str(in_process.value) == "injected fault at p = 31"


def test_scan_exception_wins_over_a_later_group(forks, monkeypatch):
    _fault_at_31(monkeypatch)
    monkeypatch.setattr(verify, "check_numeric_identities", _raising(DomainError("numeric identities")))
    with pytest.raises(IntegrityError, match="^injected fault at p = 31$"):
        verify.full_report(jacobi_bound=300)
    assert len(forks) == 1


def test_earlier_group_exception_wins_and_the_child_is_reaped(forks, monkeypatch):
    parent = os.getpid()

    def stuck_scan(bound):
        if os.getpid() != parent:
            time.sleep(60)
        raise AssertionError("the scan ran in the calling process")

    monkeypatch.setattr(verify, "check_constants_integrity", stuck_scan)
    monkeypatch.setattr(verify, "check_oracle_equivalence", _raising(DomainError("oracle equivalence")))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^oracle equivalence$"):
        verify.full_report()
    assert time.perf_counter() - start < 30  # killed, not waited for
    (pid,) = forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_child_killed_without_a_result(forks, monkeypatch, capsys):
    parent = os.getpid()

    def check_constants_integrity(bound):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("the scan ran in the calling process")

    monkeypatch.setattr(verify, "check_constants_integrity", check_constants_integrity)
    message = (
        "the child process running check_constants_integrity ended without a result: "
        f"wait status {signal.SIGKILL.value}, killed by signal {signal.SIGKILL.value}"
    )
    with pytest.raises(IntegrityError) as died:
        verify.full_report(jacobi_bound=300)
    assert str(died.value) == message
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {"type": "integrity", "message": message}}
    assert len(forks) == 2


def test_failed_fork_runs_the_scan_in_process(monkeypatch):
    expected = verify.full_report(jacobi_bound=300)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", _raising(BlockingIOError(11, "Resource temporarily unavailable")))
    assert verify.full_report(jacobi_bound=300) == expected


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", _raising(AssertionError("os.fork was called")))


def test_one_usable_cpu_runs_the_scan_in_process(no_fork, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.full_report(jacobi_bound=300)["ok"]


def test_one_usable_cpu_keeps_the_serial_error_order(no_fork, monkeypatch):
    # in the caller the scan runs after the later groups, yet its exception still wins
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


def test_second_live_thread_runs_the_scan_in_process(no_fork, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify.full_report(jacobi_bound=300)["ok"]
    finally:
        release.set()
        thread.join()
