"""The one measurement primitive: rounds, percentiles, environment.

A workload's timed region is ``ROUNDS`` back-to-back rounds in one
process.  Each round yields a :class:`RoundResult`; :func:`summarize`
turns the rounds into the end-to-end metrics — every value the median
of its per-round values, with ``(max - min) / median`` over rounds
beside it as ``spread``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.obs.metrics import percentile_nearest_rank
from repro.tune.schedule import active_schedule

import spec

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 when empty)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def p50(values: Sequence[float]) -> float:
    return percentile_nearest_rank(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median``; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return out
    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return cov / var if var else 0.0


# -- machine-speed calibration -----------------------------------------

#: what one pass of the calibration kernel takes on the sizing machine
#: in its fast state; times are reported as if the machine ran at this
#: speed throughout (see ``speed``)
CAL_REF_MS = 0.75
_CAL_A = (np.arange(128 * 128, dtype=np.float32).reshape(128, 128) % 7 - 3) / 3


def _cal_kernel() -> None:
    """A fixed mix of what the workloads are made of: interpreter
    dispatch and small numpy/BLAS calls, half and half."""
    acc = 0
    for i in range(5000):
        acc += i * i
    b = _CAL_A
    for _ in range(6):
        b = np.tanh(b @ _CAL_A * 0.01)


def speed(repeats: int = 15) -> float:
    """How slow the machine is right now: the lower quartile of the
    calibration kernel's time over ``CAL_REF_MS`` (1.0 = reference
    speed; the quartile because a burst of steal inside the probe is
    not the speed the neighbouring samples ran at).

    The 2-core VM this benchmark was sized on alternates, for tens of
    seconds at a time, between two speeds 1.4x apart, and loses
    10-15 % of shorter stretches to CPU steal.  Every timed stretch is
    bracketed by two calls of this function and its samples are divided
    by their mean, so a run that lands in a slow phase reports what it
    would have measured in a fast one."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _cal_kernel()
        times.append(time.perf_counter() - t0)
    return percentile_nearest_rank(times, 25.0) * 1e3 / CAL_REF_MS


def peak_rss_mb(children: bool = False) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_sha(root: str) -> str:
    """HEAD of the checkout, read without spawning git ("unknown" in a
    driver checkout, which is not a repository)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def fingerprint(root: str, seed: int, seconds: float, rounds: int) -> dict:
    """What a result needs beside it to be comparable with another."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(root),
        "seed": seed,
        "schedule_id": active_schedule().schedule_id,
        "seconds": seconds,
        "rounds": rounds,
        "round_seconds": seconds / rounds,
        "argv": sys.argv[1:],
    }


@dataclass
class RoundResult:
    """What one round of a workload measured."""

    #: model/class -> wall latencies of the measured side (ms)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: model/class -> machine speed (``speed()``) beside each sample
    speeds: Dict[str, List[float]] = field(default_factory=dict)
    #: model -> latencies of the interleaved baseline (ms), if any
    baseline: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: wall seconds the completed operations are counted against; 0 for
    #: the call-by-call workloads, whose throughput is the geomean over
    #: models of calls per second of that model's own call time (the
    #: mix of fast and slow models in a round is a timing accident)
    busy_s: float = 0.0
    #: open loop only: requests sent / requests over the SLO or failed
    sent: int = 0
    slo_missed: int = 0
    #: workload-specific detail for the per-layer tables
    extra: dict = field(default_factory=dict)

    def record(self, model: str, latency_ms: float) -> None:
        self.samples.setdefault(model, []).append(latency_ms)

    def stamp(self, machine_speed: float) -> None:
        """Give every sample recorded since the last stamp the speed
        the machine ran at while it was taken."""
        for model, lat in self.samples.items():
            col = self.speeds.setdefault(model, [])
            col.extend([machine_speed] * (len(lat) - len(col)))


def _normalized(r: RoundResult, model: str) -> List[float]:
    """The round's samples of ``model`` at reference machine speed."""
    lat = r.samples.get(model, ())
    speeds = r.speeds.get(model) or [1.0] * len(lat)
    return [x / s for x, s in zip(lat, speeds)]


def _quartile(values: Sequence[float], better: str) -> float:
    """The quartile of per-round values on the good side: machine noise
    only ever slows a round down, so the quiet rounds say most about
    the program."""
    return percentile_nearest_rank(values, 25.0 if better == "lower"
                                   else 75.0)


def _latency(rounds: Sequence[RoundResult], q: float, normalized: bool
             ) -> Dict[str, List[float]]:
    """model -> per-round nearest-rank percentile ``q`` of its samples."""
    out: Dict[str, List[float]] = {}
    for r in rounds:
        for model in r.samples:
            lat = _normalized(r, model) if normalized else r.samples[model]
            if lat:
                out.setdefault(model, []).append(
                    percentile_nearest_rank(lat, q))
    return out


def _entry(value: float, per_round: Sequence[float], unit: str,
           **more) -> dict:
    return {"value": value, "unit": unit, "spread": spread(per_round),
            "rounds": list(per_round), **more}


def summarize(workload: str, rounds: Sequence[RoundResult]) -> dict:
    """Rounds -> the latency/throughput/failure metrics of ``workload``
    plus one row per model.

    Latencies and throughput are at reference machine speed (every
    sample divided by the ``speed()`` stamped beside it; ``wall`` keeps
    the unscaled figure).  Per model, a latency is the lower quartile
    over rounds of the per-round percentile, throughput the upper
    quartile; the workload's value is the geomean over models.  Ratios
    and shares take the median over rounds.  ``setup_s`` and the memory
    metrics are added by the caller, which owns the process clock."""
    n = len(rounds)
    metrics: Dict[str, dict] = {}
    models: Dict[str, dict] = {
        m: {"n": sum(len(r.samples.get(m, ())) for r in rounds)}
        for r in rounds for m in r.samples}
    n_min = min((row["n"] for row in models.values()), default=0)

    def by_round(per_model: Dict[str, List[float]]) -> List[float]:
        return [geomean([v[i] for v in per_model.values() if i < len(v)])
                for i in range(n)]

    for label, q in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
        name = f"latency_ms_{label}"
        if not spec.applies(spec.metric(name), workload):
            continue
        per_model = _latency(rounds, q, normalized=True)
        wall = _latency(rounds, q, normalized=False)
        for model, vals in per_model.items():
            models[model][name] = _quartile(vals, "lower")
        metrics[name] = _entry(
            geomean([models[m][name] for m in per_model]),
            by_round(per_model), "ms", n=n_min,
            low_n=n_min < spec.MIN_SAMPLES.get(label, 0),
            wall=geomean([_quartile(v, "lower") for v in wall.values()]))

    def rate(r: RoundResult) -> float:
        if r.busy_s > 0:
            speeds = [s for col in r.speeds.values() for s in col] or [1.0]
            return (r.attempted - r.failed) / r.busy_s \
                * statistics.fmean(speeds)
        return geomean([len(lat) / (sum(lat) / 1e3)
                        for lat in (_normalized(r, m) for m in r.samples)
                        if lat])
    rates = [rate(r) for r in rounds]
    metrics["throughput_ops_s"] = _entry(_quartile(rates, "higher"),
                                         rates, "1/s")

    if spec.applies(spec.metric("speedup_vs_baseline"), workload):
        ratios: Dict[str, List[float]] = {}
        for r in rounds:
            for m in r.samples:
                if r.baseline.get(m) and r.samples[m]:
                    ratios.setdefault(m, []).append(
                        p50(r.baseline[m]) / p50(r.samples[m]))
        for m, vals in ratios.items():
            models[m]["speedup_vs_baseline"] = statistics.median(vals)
        metrics["speedup_vs_baseline"] = _entry(
            geomean([models[m]["speedup_vs_baseline"] for m in ratios]),
            by_round(ratios), "x")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics["failed_share"] = _entry(
        failed / attempted if attempted else 1.0,
        [r.failed / r.attempted if r.attempted else 1.0 for r in rounds],
        "share")
    if spec.applies(spec.metric("slo_miss_share"), workload):
        sent = sum(r.sent for r in rounds)
        metrics["slo_miss_share"] = _entry(
            sum(r.slo_missed for r in rounds) / sent if sent else 1.0,
            [r.slo_missed / r.sent if r.sent else 1.0 for r in rounds],
            "share")
    return {"metrics": metrics, "models": models,
            "attempted": attempted, "failed": failed}
