"""Symbolic shape families: symbols, guards, families, bucketing,
family-keyed compilation, and dynamic-shape serving."""

import numpy as np
import pytest

import repro.runtime as rt
from repro.eval.cache import CompileCache, compile_key, fetch
from repro.eval.harness import run_workload
from repro.memplan.planner import plans_built
from repro.models import get_workload
from repro.pipelines import get_pipeline
from repro.serve import ServePolicy, Server
from repro.serve.batching import group_key
from repro.serve.request import Request
from repro.symshape import (DEGENERATE_EXTENTS, FamilyTable, Guard,
                            GuardSet, PadSpec, ShapeFamily,
                            SizeVarAllocator, SymInt, bucket_extent,
                            compiling_family, evaluate_dim,
                            get_pad_spec, guard_eq, guard_ge,
                            guard_mod, pad_args,
                            record_specialization_guard, sym_max,
                            symbolize_signature, unpad_outputs)


# -- symbols -------------------------------------------------------------

class TestSymInt:
    def test_arithmetic_evaluates(self):
        s = SymInt.sym("s0")
        expr = (s * 4 + 2) // 3 % 5
        assert expr.evaluate({"s0": 7}) == ((7 * 4 + 2) // 3) % 5

    def test_constant_folding(self):
        assert (SymInt.const(6) * SymInt.const(7)).value == 42

    def test_identity_simplification(self):
        s = SymInt.sym("s0")
        assert s + 0 == s
        assert s * 1 == s
        assert s - s == SymInt.const(0)
        assert s // 1 == s
        assert s % 1 == SymInt.const(0)
        assert sym_max(s, s) == s

    def test_value_equality_and_hash(self):
        a = SymInt.sym("s0") + 1
        b = SymInt.sym("s0") + 1
        assert a == b and hash(a) == hash(b)
        assert a != SymInt.sym("s1") + 1

    def test_evaluate_dim_accepts_plain_ints(self):
        assert evaluate_dim(5, {}) == 5
        assert evaluate_dim(SymInt.sym("s0"), {"s0": 9}) == 9


class TestSizeVarAllocator:
    def test_duck_shaping_shares_symbols(self):
        alloc = SizeVarAllocator()
        dims = alloc.symbolize_shape((16, 4, 16))
        assert dims[0] is dims[2] or dims[0] == dims[2]
        assert dims[0] != dims[1]
        assert alloc[16] == dims[0]

    def test_degenerate_extents_stay_constant(self):
        alloc = SizeVarAllocator()
        for extent in sorted(DEGENERATE_EXTENTS):
            dim = alloc[extent]
            assert dim.is_const and dim.value == extent
        assert alloc[2].is_symbol

    def test_bindings_round_trip(self):
        alloc = SizeVarAllocator()
        alloc.symbolize_shape((8, 3))
        env = alloc.bindings()
        assert sorted(env.values()) == [3, 8]


# -- guards --------------------------------------------------------------

class TestGuards:
    def test_kinds_evaluate(self):
        s = SymInt.sym("s0")
        assert guard_eq(s, 16).holds({"s0": 16})
        assert not guard_eq(s, 16).holds({"s0": 17})
        assert guard_ge(s, 2).holds({"s0": 2})
        assert not guard_ge(s, 2).holds({"s0": 1})
        assert guard_mod(s, 8).holds({"s0": 24})
        assert not guard_mod(s, 8).holds({"s0": 20})

    def test_unbound_symbol_fails_closed(self):
        assert not guard_ge(SymInt.sym("s0"), 2).holds({})

    def test_guardset_dedups_and_reports_first_failure(self):
        s = SymInt.sym("s0")
        gs = GuardSet()
        assert gs.add(guard_mod(s, 8))
        assert not gs.add(guard_mod(s, 8))
        gs.add(guard_eq(s, 24))
        assert gs.check({"s0": 24}) is None
        failing = gs.check({"s0": 16})
        assert failing == guard_eq(s, 24)

    def test_vacuous_and_unsatisfiable_constants(self):
        gs = GuardSet()
        assert not gs.add(guard_ge(SymInt.const(4), 2))  # always true
        with pytest.raises(ValueError):
            gs.add(guard_eq(SymInt.const(4), 5))

    def test_repr_reads_like_a_predicate(self):
        assert "s0 % 8 == 0" in repr(guard_mod(SymInt.sym("s0"), 8))


# -- families ------------------------------------------------------------

class TestShapeFamily:
    def _mint(self, signature, mod_hints=()):
        table = FamilyTable()
        family, outcome = table.resolve(("p", "w"), signature,
                                        mod_hints=mod_hints)
        family.seal()
        return table, family, outcome

    def test_signature_symbolization_splits_on_bools(self):
        sym_sig, env = symbolize_signature(((4, 6), True, 3))
        assert sym_sig[1] is True
        assert isinstance(sym_sig[2], SymInt) and sym_sig[2].is_symbol
        assert set(env.values()) == {4, 6, 3}

    def test_same_family_serves_new_extents(self):
        table, family, outcome = self._mint(((4, 6),))
        assert outcome == "new"
        again, outcome2 = table.resolve(("p", "w"), ((32, 6),))
        assert outcome2 == "hit" and again is family

    def test_distinct_symbols_may_bind_equal_extents(self):
        table, family, _ = self._mint(((4, 6),))
        _, outcome = table.resolve(("p", "w"), ((6, 6),))
        assert outcome == "hit"

    def test_duck_equality_is_enforced(self):
        # seed (16, 16) duck-shares one symbol: unequal extents split
        table, family, _ = self._mint(((16, 16),))
        sibling, outcome = table.resolve(("p", "w"), ((16, 32),))
        assert outcome == "new" and sibling is not family

    def test_degenerate_extent_specializes(self):
        table, family, _ = self._mint(((4, 6),))
        # batch 1 was traced generically (>= 2): it must NOT reuse the
        # artifact — size-1 dims broadcast
        sibling, outcome = table.resolve(("p", "w"), ((1, 6),))
        assert sibling is not family
        assert outcome == "new"
        sibling.seal()
        # ... but further size-1 requests reuse the specialized sibling
        _, outcome2 = table.resolve(("p", "w"), ((1, 6),))
        assert outcome2 == "hit"

    def test_guard_miss_mints_sibling_and_counts(self):
        table, family, _ = self._mint(((4, 6),))
        family.record_guard(guard_eq(family.symbol_at(0, 0), 4))
        sibling, outcome = table.resolve(("p", "w"), ((8, 6),))
        assert outcome == "guard_miss" and sibling is not family
        snap = table.snapshot()
        assert snap.guard_misses == 1 and snap.news == 1
        assert snap.families == 2

    def test_mod_hint_becomes_guard(self):
        table, family, _ = self._mint(((8, 6),),
                                      mod_hints=((0, 0, 8),))
        _, outcome = table.resolve(("p", "w"), ((16, 6),))
        assert outcome == "hit"
        _, outcome2 = table.resolve(("p", "w"), ((12, 6),))
        assert outcome2 == "guard_miss"

    def test_pending_family_admits_only_its_seed(self):
        table = FamilyTable()
        family, _ = table.resolve(("p", "w"), ((4, 6),))
        assert family.pending
        other, outcome = table.resolve(("p", "w"), ((8, 6),))
        assert other is not family  # mid-compile: guards still growing
        family.seal()
        _, outcome2 = table.resolve(("p", "w"), ((32, 6),))
        assert outcome2 == "hit"

    def test_peek_never_mints_or_counts(self):
        table, family, _ = self._mint(((4, 6),))
        before = table.snapshot()
        assert table.peek(("p", "w"), ((64, 6),)) is family
        assert table.peek(("p", "w"), ((4, 6, 8),)) is None
        after = table.snapshot()
        assert after.hits == before.hits
        assert after.families == before.families

    def test_observe_tracks_max_extents(self):
        table, family, _ = self._mint(((4, 6),))
        table.resolve(("p", "w"), ((32, 6),))
        assert 32 in family.extent_bounds().values()

    def test_record_specialization_guard_via_context(self):
        table, family, _ = self._mint(((4, 6), 3))
        with compiling_family(family):
            assert record_specialization_guard(1, None, 3)
            # constant dims need no guard: the fold is family-wide
            assert not record_specialization_guard(9, None, 3)
        assert record_specialization_guard(0, 0, 4) is False  # no scope


# -- bucketing -----------------------------------------------------------

class TestBucketing:
    def test_bucket_extent_powers_of_two(self):
        assert bucket_extent(3, bucket_min=8) == 8
        assert bucket_extent(8, bucket_min=8) == 8
        assert bucket_extent(9, bucket_min=8) == 16
        assert bucket_extent(33, bucket_min=8) == 64

    def test_pad_round_trip_is_exact(self):
        spec = get_pad_spec("attention")
        assert spec is not None
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=2, seq_len=11, seed=3)
        padded = pad_args(args, spec, target=16)
        for orig, pad, axis in zip(args, padded, spec.arg_axes):
            if axis is None:
                continue
            assert pad.shape[axis] == 16
            sl = [slice(None)] * pad.numpy().ndim
            sl[axis] = slice(0, 11)
            np.testing.assert_array_equal(pad.numpy()[tuple(sl)],
                                          orig.numpy())
        round_trip = PadSpec(
            arg_axes=spec.arg_axes,
            out_axes=tuple((a,) if a is not None else None
                           for a in spec.arg_axes))
        outs = unpad_outputs(padded, round_trip, extent=11)
        for out, orig in zip(outs, args):
            np.testing.assert_array_equal(out.numpy(), orig.numpy())

    def test_pad_down_raises(self):
        spec = get_pad_spec("lstm")
        wl = get_workload("lstm")
        args = wl.make_inputs(batch_size=1, seq_len=16, seed=0)
        with pytest.raises(ValueError):
            pad_args(args, spec, target=8)

    def test_group_key_buckets_pad_axis(self):
        from repro.serve.batching import get_batch_spec
        wl = get_workload("lstm")
        spec = get_batch_spec("lstm")
        base = wl.make_inputs(batch_size=1, seq_len=48, seed=0)

        def req(seq_len):
            fresh = wl.make_inputs(batch_size=1, seq_len=seq_len, seed=0)
            args = tuple(fresh[k] if axis is not None else base[k]
                         for k, axis in enumerate(spec.arg_axes))
            return Request(workload=wl, pipeline="tensorssa",
                           platform="datacenter", args=args,
                           batch_rows=1)

        k10 = group_key(req(10), bucket_min=8)
        k14 = group_key(req(14), bucket_min=8)
        k20 = group_key(req(20), bucket_min=8)
        assert k10 == k14            # both pad to bucket 16
        assert k10 != k20            # bucket 32
        assert group_key(req(10)) != group_key(req(14))  # concrete keys


# -- family-keyed compilation -------------------------------------------

def compile_cached_family(pipe, wl, args, cache):
    """The family-keyed fetch, as (compiled, hit, family, outcome)."""
    return fetch(pipe, wl, args, cache=cache, dynamic_shapes=True)[:4]


class TestFamilyCompile:
    def test_warm_family_zero_compiles_zero_plans(self):
        cache = CompileCache()
        pipe = get_pipeline("tensorssa")
        wl = get_workload("lstm")
        cold_args = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        compiled, hit, family, outcome = compile_cached_family(
            pipe, wl, cold_args, cache=cache)
        assert outcome == "new" and not hit

        warm_args = wl.make_inputs(batch_size=3, seq_len=24, seed=1)
        plans_before = plans_built()
        snap_before = cache.snapshot()
        compiled2, hit2, family2, outcome2 = compile_cached_family(
            pipe, wl, warm_args, cache=cache)
        snap_after = cache.snapshot()

        assert outcome2 == "hit" and hit2
        assert family2 is family
        assert compiled2 is compiled
        assert snap_after.misses == snap_before.misses          # 0 compiles
        assert snap_after.guard_misses == snap_before.guard_misses
        assert plans_built() == plans_before                    # 0 memplans
        got = compiled2(*[rt.from_numpy(a.numpy()) for a in warm_args])
        want = wl.model_fn(*[rt.from_numpy(a.numpy())
                             for a in warm_args])
        got = got if isinstance(got, tuple) else (got,)
        want = want if isinstance(want, tuple) else (want,)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.numpy(), w.numpy())

    def test_cache_key_is_family_id(self):
        cache = CompileCache()
        pipe = get_pipeline("tensorssa")
        wl = get_workload("attention")
        args = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        _, _, family, _ = compile_cached_family(pipe, wl, args,
                                                cache=cache)
        assert compile_key(pipe, wl, family=family) in cache

    def test_specializing_pipeline_guard_misses(self):
        cache = CompileCache()
        pipe = get_pipeline("dynamo_inductor")
        wl = get_workload("attention")
        a16 = wl.make_inputs(batch_size=2, seq_len=16, seed=0)
        a24 = wl.make_inputs(batch_size=2, seq_len=24, seed=0)
        _, _, fam16, out16 = compile_cached_family(pipe, wl, a16,
                                                   cache=cache)
        assert out16 == "new"
        assert len(fam16.guards) > 0  # specialize folded sizes
        _, _, fam24, out24 = compile_cached_family(pipe, wl, a24,
                                                   cache=cache)
        assert out24 == "guard_miss" and fam24 is not fam16
        snap = cache.snapshot()
        assert snap.guard_misses == 1 and snap.misses == 1
        # replaying the first length stays a hit on its own family
        _, hit, fam, outcome = compile_cached_family(pipe, wl, a16,
                                                     cache=cache)
        assert outcome == "hit" and hit and fam is fam16

    def test_run_workload_surfaces_family_fields(self):
        cache = CompileCache()
        r1 = run_workload("lstm", "tensorssa", batch_size=2, seq_len=16,
                          cache=cache, dynamic_shapes=True)
        r2 = run_workload("lstm", "tensorssa", batch_size=2, seq_len=24,
                          cache=cache, dynamic_shapes=True)
        assert r1.family_outcome == "new"
        assert r2.family_outcome == "hit"
        assert r1.family_id == r2.family_id != ""
        assert r2.cache_guard_misses == 0


# -- serving -------------------------------------------------------------

class TestDynamicServing:
    def test_policy_rejects_solo_verify(self):
        with pytest.raises(ValueError):
            ServePolicy(dynamic_shapes=True, verify="solo")

    def test_mixed_lengths_bit_exact_one_family_per_bucket_guard(self):
        policy = ServePolicy(workers=2, max_batch_size=4,
                             batch_wait_s=0.02, dynamic_shapes=True,
                             verify="batch")
        lengths = [9, 12, 16, 14, 10, 24, 30, 13]
        with Server(policy) as srv:
            futs = [srv.submit("attention", pipeline="tensorssa",
                               batch_size=1, seq_len=length, seed=i)
                    for i, length in enumerate(lengths)]
            resps = [f.result(timeout=120) for f in futs]
        assert all(r.ok for r in resps)
        assert all(r.verified for r in resps)
        assert srv.stats.diverged == 0
        snap = srv.cache.snapshot()
        # every novel length re-used the one bucketed family artifact
        assert snap.misses <= 2
        assert srv.stats.bucket_padded_units >= \
            srv.stats.bucket_real_units > 0
        assert 0.0 < srv.stats.bucket_pad_efficiency <= 1.0
        fams = srv.cache.families.all_families()
        assert any(any(g.kind == "mod" for g in f.guards)
                   for f in fams)

    def test_stats_dict_carries_bucket_and_guard_metrics(self):
        policy = ServePolicy(workers=1, max_batch_size=2,
                             batch_wait_s=0.01, dynamic_shapes=True,
                             verify="batch")
        with Server(policy) as srv:
            futs = [srv.submit("lstm", pipeline="tensorssa",
                               batch_size=1, seq_len=sl, seed=sl)
                    for sl in (10, 18)]
            for f in futs:
                assert f.result(timeout=120).ok
        d = srv.stats.to_dict()
        assert "bucket_pad_efficiency" in d
        assert "guard_misses" in d["compile_cache"]
