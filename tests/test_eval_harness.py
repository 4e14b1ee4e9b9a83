"""Measurement harness and figure helpers (fast paths only)."""

import pytest

from repro.eval.cache import CompileCache, process_cache
from repro.eval.harness import RunResult, run_workload
from repro.eval.report import format_table, geomean, summarize_speedups


@pytest.fixture(autouse=True)
def fresh_cache():
    process_cache.clear()
    yield
    process_cache.clear()


class TestRunWorkload:
    def test_result_fields(self):
        res = run_workload("lstm", "tensorssa", seq_len=8)
        assert isinstance(res, RunResult)
        assert res.latency_us > 0
        assert res.kernel_launches > 0
        assert res.latency_ms == pytest.approx(res.latency_us / 1000)
        assert res.latency_us == pytest.approx(
            max(res.device_us, res.host_us))

    def test_check_mode_validates(self):
        run_workload("ssd", "tensorssa", batch_size=1, check=True)

    def test_deterministic_latency(self):
        a = run_workload("attention", "ts_nnc", seq_len=8)
        b = run_workload("attention", "ts_nnc", seq_len=8)
        assert a.latency_us == pytest.approx(b.latency_us)

    def test_platforms_give_different_latency(self):
        dc = run_workload("lstm", "eager", platform="datacenter",
                          seq_len=8)
        con = run_workload("lstm", "eager", platform="consumer",
                           seq_len=8)
        assert con.latency_us > dc.latency_us

    def test_speedup_over_eager(self):
        base = run_workload("ssd", "eager", batch_size=1)
        opt = run_workload("ssd", "tensorssa", batch_size=1)
        assert base.latency_us / opt.latency_us > 1.0

    def test_wallclock_measurement(self):
        res = run_workload("attention", "tensorssa", seq_len=8,
                           measure_wallclock=True, repeats=2)
        assert res.wallclock_s is not None and res.wallclock_s > 0

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            run_workload("nope", "eager")
        with pytest.raises(KeyError):
            run_workload("lstm", "nope")


class TestCompileCache:
    def test_second_run_hits_cache(self):
        first = run_workload("lstm", "tensorssa", seq_len=8)
        assert not first.cache_hit
        second = run_workload("lstm", "tensorssa", seq_len=8)
        assert second.cache_hit
        assert second.cache_hits >= 1
        assert second.cache_misses >= 1

    def test_shape_change_recompiles(self):
        run_workload("lstm", "tensorssa", seq_len=8)
        other = run_workload("lstm", "tensorssa", seq_len=16)
        # different sequence length -> different shape signature -> miss
        assert not other.cache_hit

    def test_lru_eviction_is_bounded(self):
        cache = CompileCache(capacity=3)
        for i in range(5):
            cache.put(("p", "w", i), object())
        assert len(cache) == 3
        assert ("p", "w", 0) not in cache
        assert ("p", "w", 4) in cache

    def test_lru_order_refreshes_on_hit(self):
        cache = CompileCache(capacity=2)
        cache.put(("a",), object())
        cache.put(("b",), object())
        assert cache.lookup(("a",))[0] is not None  # refresh "a"
        cache.put(("c",), object())           # evicts "b", not "a"
        assert ("a",) in cache and ("b",) not in cache

    def test_counters_reset_with_cache(self):
        run_workload("lstm", "tensorssa", seq_len=8)
        assert process_cache.misses >= 1
        process_cache.clear()
        assert process_cache.hits == 0 and process_cache.misses == 0


class TestReport:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [[1.0, 2.5], [3.0, 4.0]],
                            ["r1", "r2"])
        assert "T" in text and "2.50" in text and "r2" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0]) == pytest.approx(2.0)

    def test_summarize(self):
        s = summarize_speedups({"a": 1.5, "b": 2.0})
        assert "2.00x" in s and "2 workloads" in s


class TestIntroEstimate:
    def test_imperative_fraction_band(self):
        from repro.eval.figures import intro_fraction
        data = intro_fraction(echo=False)
        assert set(data) == {"yolov3", "ssd", "yolact", "fcos", "nasrnn",
                             "lstm", "seq2seq", "attention"}
        # the paper's claim: the imperative part can reach ~90% of
        # end-to-end time; NLP loops should dominate their backbones
        assert max(data.values()) >= 0.85
        assert all(0.0 < v < 1.0 for v in data.values())
