"""The one kernel schedule there is.

The lowering has no schedule knob: every fusion group and horizontal
loop runs its one kernel (EXPERIMENTS.md, "Autotuned kernel
schedules").  This module exists only because ``bench/measure.py``
imports :func:`active_schedule` to write ``schedule_id`` into the
benchmark's run fingerprint.
"""

from types import SimpleNamespace

_DEFAULT = SimpleNamespace(schedule_id="default")


def active_schedule() -> SimpleNamespace:
    """The schedule every call runs: always ``"default"``."""
    return _DEFAULT
