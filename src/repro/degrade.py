"""Graceful degradation: circuit breakers, bounded retries, fallback
ladder.

The ordered fallback chain is the spine: when a pipeline rung fails,
execution descends to a strictly simpler one —

    tensorssa -> tensorssa_noplan -> ts_nnc -> eager

each step trading optimization (memory planning, holistic
functionalization, compilation itself) for reliability, until eager
mode — plain Python over the runtime, no compiler in the loop — is the
floor.  All rungs are bit-exact against eager on identical inputs (the
differential-fuzzing contract), so degradation changes *cost*, never
*answers*.

Per-(workload, pipeline) :class:`CircuitBreaker` objects stop a failing
rung from eating every request's retry budget: past a failure-rate
threshold the breaker opens (requests skip the rung instantly), and
after a cooldown one half-open probe decides whether to close it again.
:class:`RetryPolicy` bounds in-rung retries with jittered exponential
backoff (seeded RNG — deterministic in tests).

:func:`run_ladder` is the one descend-and-retry loop over all of that;
``eval/harness.run_workload_resilient`` (single runs) and
``serve/executor.BatchExecutor`` (batched serving, and its per-request
eager floor) supply only what one attempt on one rung means.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

from .errors import CircuitOpen, DeadlineExceeded, classify, is_retryable
from .obs import trace as obs_trace

__all__ = [
    "DEFAULT_LADDER", "fallback_chain",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    "CircuitBreaker", "BreakerRegistry", "RetryPolicy",
    "run_ladder", "default_breakers",
]

#: The full degradation ladder, most- to least-optimized.
DEFAULT_LADDER: Tuple[str, ...] = (
    "tensorssa", "tensorssa_noplan", "ts_nnc", "eager")


def fallback_chain(pipeline: str,
                   ladder: Optional[Tuple[str, ...]] = None
                   ) -> Tuple[str, ...]:
    """The ordered rungs a request for ``pipeline`` may be served by.

    A pipeline on the ladder gets the ladder from its own rung down; a
    pipeline off the ladder (e.g. ``dynamo_inductor``) gets itself plus
    the eager floor.  The chain always ends in ``eager``.
    """
    rungs = tuple(ladder) if ladder is not None else DEFAULT_LADDER
    if pipeline in rungs:
        chain = rungs[rungs.index(pipeline):]
    else:
        chain = (pipeline,) + tuple(r for r in rungs if r == "eager")
    if "eager" not in chain:
        chain = chain + ("eager",)
    return chain


#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate circuit breaker with a timed half-open probe.

    Closed: calls flow; outcomes land in a sliding window, and once the
    window holds ``min_calls`` outcomes with a failure fraction at or
    above ``failure_rate``, the breaker opens.  Open: :meth:`allow`
    refuses until ``reset_timeout_s`` has elapsed, then transitions to
    half-open and admits exactly one probe.  The probe's outcome closes
    the breaker (success, window cleared) or re-opens it (failure).

    ``clock`` is injectable so tests drive time explicitly.
    """

    def __init__(self, failure_rate: float = 0.5, window: int = 8,
                 min_calls: int = 4, reset_timeout_s: float = 0.05,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_rate = failure_rate
        self.window = window
        self.min_calls = min_calls
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self.state = BREAKER_CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probe_out = False
        #: transition counts, e.g. {"closed->open": 2}
        self.transitions: Dict[str, int] = {}

    def _transition(self, to: str) -> None:
        key = f"{self.state}->{to}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        self.state = to

    def allow(self) -> bool:
        """May a call go through right now?  (Half-open admits one.)"""
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return True
            if self.state == BREAKER_OPEN:
                if self._clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._transition(BREAKER_HALF_OPEN)
                self._probe_out = True
                return True
            # half-open: one outstanding probe at a time
            if self._probe_out:
                return False
            self._probe_out = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self.state == BREAKER_HALF_OPEN:
                self._transition(BREAKER_CLOSED)
                self._outcomes.clear()
                self._probe_out = False
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self.state == BREAKER_HALF_OPEN:
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()
                self._probe_out = False
                return
            self._outcomes.append(False)
            if self.state != BREAKER_CLOSED:
                return
            total = len(self._outcomes)
            failures = sum(1 for ok in self._outcomes if not ok)
            if total >= self.min_calls \
                    and failures / total >= self.failure_rate:
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state})"


class BreakerRegistry:
    """Per-(workload, pipeline) breakers, created on first use."""

    def __init__(self, failure_rate: float = 0.5, window: int = 8,
                 min_calls: int = 4, reset_timeout_s: float = 0.05,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._kwargs = dict(failure_rate=failure_rate, window=window,
                            min_calls=min_calls,
                            reset_timeout_s=reset_timeout_s, clock=clock)
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, workload: str, pipeline: str) -> CircuitBreaker:
        key = (workload, pipeline)
        with self._lock:
            b = self._breakers.get(key)
            if b is None:
                b = CircuitBreaker(**self._kwargs)
                self._breakers[key] = b
            return b

    def transitions(self) -> Dict[str, int]:
        """Transition counts summed across every breaker."""
        out: Dict[str, int] = {}
        with self._lock:
            breakers = list(self._breakers.values())
        for b in breakers:
            for key, n in b.transitions.items():
                out[key] = out.get(key, 0) + n
        return out

    def states(self) -> Dict[str, str]:
        with self._lock:
            return {f"{wl}/{pipe}": b.state
                    for (wl, pipe), b in self._breakers.items()}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    Attempt ``k`` (0-based retry index) sleeps ``base_delay_s * 2**k``,
    capped at ``max_delay_s``, then stretched by a jitter factor drawn
    uniformly from ``[1, 1 + jitter]`` — so the delay for retry ``k``
    always lies in ``[d_k, d_k * (1 + jitter)]`` with
    ``d_k = min(base * 2**k, max)``, the bound the tests pin.
    """

    max_retries: int = 1
    base_delay_s: float = 0.001
    max_delay_s: float = 0.05
    jitter: float = 0.5

    def delay_s(self, retry_index: int, rng) -> float:
        base = min(self.base_delay_s * (2 ** retry_index), self.max_delay_s)
        return base * (1.0 + self.jitter * rng.random())


def run_ladder(chain: Sequence[str], workload: str,
               attempt: Callable[[str, int, int], object], *,
               breakers: BreakerRegistry, retry: RetryPolicy, rng,
               scope: str,
               on_failure: Optional[Callable[[str, int, int, BaseException],
                                             None]] = None,
               first_depth: int = 0) -> Tuple[object, str, int, int]:
    """Walk ``chain`` until ``attempt(rung, depth, retry_index)`` returns;
    the result is ``(its value, rung, depth, attempts made)``.

    Each rung is guarded by its (``workload``, rung) breaker: an open
    one is skipped without a call, every attempt's outcome is recorded
    on it.  A failed attempt is classified (:func:`repro.errors.
    classify`) and handed to ``on_failure``; a *retryable* error gets up
    to ``retry.max_retries`` more attempts on the same rung after a
    jittered backoff, anything else descends to the next rung —
    except :class:`~repro.errors.DeadlineExceeded`, which ends the walk
    at once (no rung can give the time back).  When no rung serves, the
    last classified error is raised (:class:`~repro.errors.CircuitOpen`
    if every rung was circuit-broken).  Attempts run under ``<scope>:rung:<rung>`` spans,
    backoff sleeps under ``<scope>:retry_wait``; depths count from
    ``first_depth``.
    """
    attempts = 0
    last_error: Optional[BaseException] = None
    for depth, rung in enumerate(chain, first_depth):
        breaker = breakers.breaker(workload, rung)
        if not breaker.allow():
            continue  # circuit-broken rung: descend without a call
        for retry_index in range(retry.max_retries + 1):
            attempts += 1
            try:
                with obs_trace.span(f"{scope}:rung:{rung}", cat="ladder",
                                    depth=depth, attempt=retry_index):
                    value = attempt(rung, depth, retry_index)
            except Exception as exc:
                breaker.record_failure()
                last_error = classify(exc)
                if on_failure is not None:
                    on_failure(rung, depth, retry_index, last_error)
                if isinstance(last_error, DeadlineExceeded):
                    raise last_error
                if not is_retryable(last_error) \
                        or retry_index >= retry.max_retries:
                    break  # descend to the next rung
                with obs_trace.span(f"{scope}:retry_wait", cat="ladder",
                                    rung=rung, attempt=retry_index):
                    time.sleep(retry.delay_s(retry_index, rng))
                continue
            breaker.record_success()
            return value, rung, depth, attempts
    if last_error is None:
        last_error = CircuitOpen(
            f"{workload}: every ladder rung {tuple(chain)} is "
            f"circuit-broken")
    raise last_error


#: The harness's shared breaker registry.
_default_registry = BreakerRegistry()


def default_breakers() -> BreakerRegistry:
    """The process-wide registry ``run_workload_resilient`` uses when
    the caller does not inject one."""
    return _default_registry
