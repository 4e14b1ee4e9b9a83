"""Kept only for ``bench/measure.py``, whose run fingerprint imports
:func:`repro.tune.schedule.active_schedule`; see that module."""
