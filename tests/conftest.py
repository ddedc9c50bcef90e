import os

import pytest

from diagcubic import make_field


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "a running child" if pid == 0 else f"child {pid}, unreaped with wait status {status}"
    pytest.fail(f"the test left {left}")


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f31():
    return make_field(31)


@pytest.fixture(scope="session")
def f49():
    return make_field(7, 2)
