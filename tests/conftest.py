import contextlib
import faulthandler
import math
import os
import random

import pytest

from hyperline import generate_hypergraph

import helpers


@pytest.fixture(scope="session")
def terminal_stderr(pytestconfig):
    """A copy of the terminal's stderr, taken while pytest's capture is
    suspended: a process that faulthandler ends loses what was captured."""
    # None under `-p no:capture`, when fd 2 is the terminal's already
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        fd = os.dup(2)
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def wall_clock_guard(terminal_stderr):
    """A test still running after 60 s prints every thread's traceback and
    ends the run, so a hung test in any module fails within minutes. It is
    armed per test: the faulthandler timer is one per process, and pytest's
    own `faulthandler_timeout` re-arms and cancels it around every test."""
    faulthandler.dump_traceback_later(60, exit=True, file=terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def corpus_params(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    lo = max(1, math.ceil((n - 1) / 4))
    hi = min(7, (3 * n) // 4)
    return n, rng.randint(lo, hi)


@pytest.fixture(scope="session")
def corpus():
    """500 seeded random simple connected hypergraphs (n<=10, m<=7, cards 2..5)."""
    out = []
    for seed in range(500):
        n, m = corpus_params(seed)
        out.append(generate_hypergraph(n=n, m=m, max_card=5, seed=seed))
    return out


@pytest.fixture(scope="session")
def trio():
    return helpers.trio()


@pytest.fixture(scope="session")
def collar3():
    return helpers.collar3()


@pytest.fixture(scope="session")
def skew_family():
    return helpers.skew_edge_regular_family()


@pytest.fixture(scope="session")
def equality_family():
    return helpers.uniform_edge_regular_family()


@pytest.fixture(scope="session")
def small_simple():
    """`helpers.small_simple_hypergraphs()`: all 7015 simple hypergraphs on
    2..5 labelled vertices."""
    return helpers.small_simple_hypergraphs()
