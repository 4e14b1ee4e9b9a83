"""Typed error taxonomy for the whole stack.

Every failure the runtime, backend, or serving layer can surface is
classified here, because the degradation machinery needs to *decide*
things about exceptions: a circuit breaker must know whether a failure
indicts the pipeline (``CompileError`` — the same compile will fail
again) or may pass (``KernelError`` — a transient launch failure worth
one retry), and the retry loop must never burn attempts on a fault that
cannot succeed (``DeadlineExceeded``).

The contract is the ``retryable`` class attribute:

* retryable (``KernelError``, ``OOMError``) — transient device-side
  faults; retrying the same rung with backoff is reasonable.
* non-retryable (``CompileError``, ``DeadlineExceeded``,
  ``ServerShutdown``) — deterministic or terminal; the ladder should
  descend (or stop) immediately instead of retrying.

Unknown exceptions (plain ``ValueError`` from a bug, say) are treated
as non-retryable: retrying a bug wastes the deadline budget, while
descending a rung may route around the broken component.

Injected faults (see :mod:`repro.faults`) raise these same types with
``injected=True`` set, so chaos reports can separate injected faults
from organically-found bugs.
"""

from __future__ import annotations

import re
from typing import Union

__all__ = [
    "ReproError", "CompileError", "GradError", "KernelError", "OOMError",
    "DeadlineExceeded", "ServerShutdown", "TornStateError",
    "WorkerCrashed", "ArtifactError", "CircuitOpen",
    "classify", "is_retryable", "names_typed_error",
]


class ReproError(Exception):
    """Base of the typed taxonomy.

    ``retryable`` tells retry loops and circuit breakers whether the
    same operation may succeed if simply attempted again; ``injected``
    marks exceptions raised by the fault-injection layer.
    """

    retryable: bool = False
    injected: bool = False


class CompileError(ReproError):
    """A pipeline failed to produce a compiled artifact (scripting,
    pass, or fusion-kernel compilation).  Deterministic: retrying the
    same rung re-runs the same compiler on the same input, so the
    ladder should descend instead."""

    retryable = False


class GradError(CompileError):
    """Reverse-mode differentiation of a graph is impossible or
    unsupported: an op without a registered VJP on a demanded adjoint
    path, an op explicitly marked non-differentiable, or a graph shape
    the adjoint engine cannot invert (residual mutations, dynamic
    reduction dims).  A :class:`CompileError` because building the
    backward graph happens at compile time and is deterministic —
    retrying differentiates the same graph again."""

    retryable = False


class KernelError(ReproError):
    """A kernel launch failed at execution time.  Modeled as transient
    (a real device launch can fail on a recoverable fault), so one
    bounded retry of the same rung is allowed."""

    retryable = True


class OOMError(ReproError):
    """A device allocation could not be served (simulated OOM).
    Transient in a multi-tenant arena — other runs release buffers —
    so retryable; persistent OOM trips the breaker instead."""

    retryable = True


class DeadlineExceeded(ReproError):
    """The request's deadline expired.  Terminal by definition: no
    retry or fallback can un-spend the budget."""

    retryable = False


class ServerShutdown(ReproError, RuntimeError):
    """The server stopped before (or while) serving the request.

    Subclasses ``RuntimeError`` so pre-taxonomy callers that caught
    ``RuntimeError`` on submit-after-shutdown keep working.
    """

    retryable = False


class WorkerCrashed(ReproError):
    """A sharded-serving worker process died (or went silent past its
    heartbeat deadline) while holding the request.  Retryable by
    design: the request's inputs never left the router, so redelivery
    to a surviving or respawned worker can succeed — the at-most-once
    guard in :mod:`repro.shard.router` makes sure a request that
    already produced a result is answered from the result cache
    instead of being executed twice."""

    retryable = True


class ArtifactError(ReproError):
    """A serialized compile artifact (:mod:`repro.shard.artifact`)
    could not be produced or restored: unsupported pipeline, corrupted
    checksum, version mismatch, or a restored memory plan that
    disagrees with the recorded slot table.  Non-retryable — the bytes
    will not get better; the caller should fall back to a cold
    compile."""

    retryable = False


class CircuitOpen(ReproError):
    """Every rung that could serve the request is circuit-broken: the
    breakers already know each would fail, so the walk fails fast
    without an attempt.  Non-retryable inside the walk; a breaker lets
    a probe through again after its cooldown."""

    retryable = False


class TornStateError(ReproError):
    """A :class:`repro.faults.StateAuditor` found process state that did
    not return to its baseline after a failure (leaked profiler frame,
    pool bytes, or in-flight compile slot)."""

    retryable = False


def classify(exc: BaseException) -> Union[ReproError, BaseException]:
    """Map an arbitrary exception onto the taxonomy.

    Already-typed errors pass through; ``MemoryError`` becomes
    :class:`OOMError`; everything else is returned unchanged (and
    treated as non-retryable by :func:`is_retryable`).
    """
    if isinstance(exc, ReproError):
        return exc
    if isinstance(exc, MemoryError):
        oom = OOMError(str(exc) or "out of memory")
        oom.__cause__ = exc
        return oom
    return exc


def is_retryable(exc: BaseException) -> bool:
    """Whether a retry of the *same* rung may succeed."""
    exc = classify(exc)
    if isinstance(exc, ReproError):
        return exc.retryable
    return False


def names_typed_error(text: str) -> bool:
    """Whether an error string names a member of the taxonomy: some
    ``<ReproError subclass>:`` token anywhere in it, so both
    ``"WorkerCrashed: ..."`` and ``"all ladder rungs (...) failed:
    KernelError: ..."`` are typed while ``"executor crashed:
    ValueError: ..."`` is not.  The names come from walking
    ``ReproError.__subclasses__()`` — there is no list to keep in step."""
    names, todo = set(), [ReproError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return re.search(r"\b(?:%s):" % "|".join(sorted(names)), text) is not None
