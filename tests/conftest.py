import contextlib
import multiprocessing
import os
import signal
from multiprocessing.connection import Connection
from unittest import mock

import numpy as np
import pytest

from rfclass.booster import _TreeBuilder
from rfclass.dataset import (Database, DatabaseTag, ReservoirRecord,
                             canonical_schema)

N_FEATURES = 11


def make_record(key, values, rf, source=DatabaseTag.TORIS):
    """Record padded/truncated to the canonical 11 features."""
    vals = list(values) + [None] * (N_FEATURES - len(values))
    return ReservoirRecord(key=key, values=tuple(vals[:N_FEATURES]), rf=rf, source=source)


def make_database(records, tag=DatabaseTag.TORIS):
    return Database.from_records(tag, canonical_schema(), records)


def complete_database(n, seed=0, tag=DatabaseTag.TORIS, n_classes_span=1.0):
    """Fully populated database with uniform-ish RF spread across classes."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        values = tuple(float(v) for v in rng.random(N_FEATURES))
        rf = float(rng.random() * n_classes_span)
        records.append(ReservoirRecord(f"{tag.value.lower()}-{i:05d}", values, rf, tag))
    return make_database(records, tag)


def random_tree(rng, n_features, max_depth, min_cover=0.5, zero_cover=0.0):
    """Random tree whose children covers sum to the parent's.

    Covers are positive unless `zero_cover` > 0, the chance that a split
    sends all of its cover to one child (no extra draws when it is 0).
    """
    builder = _TreeBuilder()

    def grow(depth, cover):
        if depth >= max_depth or rng.random() < 0.25:
            return builder.add_leaf(rng.normal(), cover)
        feature = int(rng.integers(n_features))
        threshold = float(rng.random())
        node = builder.add_internal(feature, threshold, gain=float(rng.random()), cover=cover)
        frac = 0.2 + 0.6 * rng.random()
        if zero_cover and rng.random() < zero_cover:
            frac = float(rng.integers(2))
        left = grow(depth + 1, cover * frac)
        right = grow(depth + 1, cover * (1 - frac))
        builder.attach(node, left, right)
        return node

    grow(0, float(min_cover + rng.random() * 50))
    return builder.build()


@contextlib.contextmanager
def bounded_wait(seconds=60):
    """Fail the block after `seconds`, where a lost worker would hang it."""
    def timeout(signum, frame):
        raise AssertionError(f"still waiting after {seconds} s")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def interrupting_wait(call, children):
    """Patch `Connection.recv`, where the caller of forked workers waits for
    their results, to raise KeyboardInterrupt on the caller's `call`-th
    call, after checking that `children` children are alive. The children
    inherit the patch, so only this process's calls count."""
    calls, parent, recv = [], os.getpid(), Connection.recv

    def interrupted(conn):
        if os.getpid() == parent:
            calls.append(None)
            if len(calls) == call:
                assert len(multiprocessing.active_children()) == children
                raise KeyboardInterrupt
        return recv(conn)
    return mock.patch.object(Connection, "recv", interrupted)


def cpus(n):
    """Patch the CPUs this process may run on, and so the workers
    `booster.forked` starts."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(n)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def leaves_no_child_process():
    """Fail the test that leaves a child process running, one of the
    children `booster.forked` starts to run the tasks of `train`,
    `attribute` or the tuner's folds, and stop the children it left."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"the test left {len(left)} child process(es) running"
