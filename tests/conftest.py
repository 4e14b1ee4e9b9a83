"""Shared test helpers."""

from __future__ import annotations

import json
import queue
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.runtime as rt


def assert_tensor_equal(a, b, rtol=1e-5, atol=1e-6, msg=""):
    """Compare two runtime Tensors (or Tensor vs ndarray)."""
    arr_a = a.numpy() if isinstance(a, rt.Tensor) else np.asarray(a)
    arr_b = b.numpy() if isinstance(b, rt.Tensor) else np.asarray(b)
    assert arr_a.shape == arr_b.shape, \
        f"shape mismatch {arr_a.shape} vs {arr_b.shape} {msg}"
    np.testing.assert_allclose(arr_a, arr_b, rtol=rtol, atol=atol,
                               err_msg=msg)


def assert_outputs_equal(got, expected, msg=""):
    """Compare pipeline outputs: tensors, scalars, or (nested) tuples."""
    if isinstance(expected, (tuple, list)):
        assert isinstance(got, (tuple, list)), f"expected a tuple {msg}"
        assert len(got) == len(expected), \
            f"arity mismatch: {len(got)} vs {len(expected)} {msg}"
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_outputs_equal(g, e, msg=f"{msg}[{i}]")
    elif isinstance(expected, rt.Tensor):
        assert_tensor_equal(got, expected, msg=msg)
    else:
        assert got == pytest.approx(expected), msg


def corpus_functions():
    """``(name, callable)`` for every ``tests/corpus`` entry."""
    from repro.fuzz.oracle import materialize
    out = []
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json")):
        entry = json.loads(path.read_text())
        out.append((path.stem, materialize(entry["source"],
                                           entry.get("fn_name", "f"))))
    return out


class HeldWorkers:
    """Parks every batch a worker claims at the executor's door.

    ``taken.get()`` returns ``(batch, gate)`` once a worker *has* the
    batch — the event tests wait on instead of sleeping — and
    ``gate.set()`` lets that batch run; ``release_all()`` opens every
    gate, present and future.
    """

    def __init__(self, srv):
        self.taken = queue.Queue()
        self._open = threading.Event()
        self._gates = []
        original = srv.executor.execute

        def held_execute(batch):
            gate = threading.Event()
            self._gates.append(gate)
            if self._open.is_set():
                gate.set()
            self.taken.put((batch, gate))
            gate.wait(30)
            original(batch)

        srv.executor.execute = held_execute

    def next_taken(self):
        return self.taken.get(timeout=30)

    def release_all(self):
        self._open.set()
        for gate in list(self._gates):
            gate.set()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
