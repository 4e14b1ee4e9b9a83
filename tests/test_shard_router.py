"""Router building blocks: hash ring, IPC framing, policy, stats, and
shipping large tensor arguments once per worker incarnation."""

import os
import shutil
import socket
import struct
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.eval.cache import clone_args
from repro.faults import Fault, FaultPlan, FaultRule, SITE_PROCESS_KILL
from repro.models import get_workload
from repro.runtime.tensor import bit_exact
from repro.shard import (Channel, HashRing, MSG_HEARTBEAT, MSG_RESULT,
                         MSG_SUBMIT, RouterStats, ShardPolicy,
                         ShardRouter, decode_args, encode_args,
                         read_message, write_message, worker_main)
from repro.shard.ipc import (HEADER, MAGIC, MAX_FRAME, MSG_HELLO,
                             MSG_SHUTDOWN, STATUS_REF_MISS, ArrayLRU)
from repro.tools.drive import request_pool


class TestHashRing:
    def test_lookup_is_deterministic(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order irrelevant
        keys = [f"key-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_every_node_owns_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_removal_moves_only_the_dead_nodes_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("w2")
        for k in keys:
            after = ring.lookup(k)
            if before[k] != "w2":
                assert after == before[k]  # survivors keep their keys
            else:
                assert after != "w2"

    def test_add_back_restores_the_original_mapping(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("w1")
        ring.add("w1")
        assert {k: ring.lookup(k) for k in keys} == before

    def test_empty_ring_and_idempotent_membership(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        ring.add("w0")
        ring.add("w0")
        assert len(ring) == 1
        ring.remove("w0")
        ring.remove("w0")
        assert ring.nodes == [] and ring.lookup("x") is None

    def test_virtual_nodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(virtual_nodes=0)


class TestFraming:
    def test_round_trip_preserves_type_and_payload(self):
        left, right = socket.socketpair()
        try:
            write_message(left, MSG_SUBMIT, {"rid": 7, "args": [1, 2]})
            write_message(left, MSG_HEARTBEAT, {"seq": 3})
            assert read_message(right) == (MSG_SUBMIT,
                                           {"rid": 7, "args": [1, 2]})
            assert read_message(right) == (MSG_HEARTBEAT, {"seq": 3})
        finally:
            left.close()
            right.close()

    def test_torn_frame_is_a_connection_error(self):
        left, right = socket.socketpair()
        try:
            # a header promising more payload than ever arrives — the
            # shape a SIGKILL mid-write leaves behind
            left.sendall(HEADER.pack(MAGIC, MSG_RESULT, 1024) + b"abc")
            left.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                read_message(right)
        finally:
            right.close()

    def test_bad_magic_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(HEADER.pack(b"XXXX", MSG_RESULT, 0))
            with pytest.raises(ConnectionError, match="magic"):
                read_message(right)
        finally:
            left.close()
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">4sBI", MAGIC, MSG_RESULT,
                                     MAX_FRAME + 1))
            with pytest.raises(ConnectionError, match="exceeds"):
                read_message(right)
        finally:
            left.close()
            right.close()

    def test_send_returns_the_frame_length(self):
        left, right = socket.socketpair()
        try:
            sent = Channel(left).send(MSG_SUBMIT, {"rid": 1})
            assert sent == HEADER.size + struct.unpack(
                ">4sBI", right.recv(HEADER.size))[2]
        finally:
            left.close()
            right.close()

    def test_channel_send_after_close_raises(self):
        left, right = socket.socketpair()
        chan = Channel(left)
        chan.close()
        chan.close()  # idempotent
        assert chan.closed
        with pytest.raises(ConnectionError):
            chan.send(MSG_HEARTBEAT, {})
        right.close()


class TestArgCodec:
    def test_tensors_round_trip_without_shared_storage(self):
        wl = get_workload("lstm")
        args = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        decoded = decode_args(encode_args(args))
        assert len(decoded) == len(args)
        for got, want in zip(decoded, args):
            assert np.array_equal(got.numpy(), want.numpy())
            got.numpy()  # rebuilt tensor owns its own storage:
            assert got is not want

    def test_scalars_pass_through_tagged(self):
        wire = encode_args((3, "datacenter", None))
        assert [tag for tag, _ in wire] == ["py", "py", "py"]
        assert decode_args(wire) == (3, "datacenter", None)

    def test_token_tagged_tensors_decode_like_untagged_ones(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        (got,) = decode_args([("tensor", arr, 5)])
        assert np.array_equal(got.numpy(), arr)


class TestArrayLRU:
    def test_evicts_least_recently_used_past_the_byte_budget(self):
        lru = ArrayLRU(capacity=100)
        lru.put("a", "A", 40)
        lru.put("b", "B", 40)
        assert lru.get("a") == "A"  # "b" is now the oldest
        lru.put("c", "C", 40)
        assert lru.get("b") is None
        assert (lru.get("a"), lru.get("c")) == ("A", "C")
        assert lru.nbytes == 80

    def test_an_entry_beyond_the_budget_is_not_kept(self):
        lru = ArrayLRU(capacity=100)
        lru.put("a", "A", 40)
        lru.put("big", "B", 101)
        assert lru.get("big") is None and lru.get("a") == "A"
        lru.put("a", "A2", 10)  # replacing re-counts the bytes
        assert lru.nbytes == 10

    def test_concurrent_puts_keep_the_byte_count(self):
        lru = ArrayLRU(capacity=1000)
        sizes = {}

        def churn(k: int) -> None:
            for i in range(500):
                key = (k, i % 40)
                sizes[key] = 7 + (i * k) % 90
                lru.put(key, key, sizes[key])
                lru.get((k, (i + 3) % 40))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,))
                       for k in range(1, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        held = [key for key in sizes if lru.get(key) is not None]
        assert lru.nbytes == sum(sizes[key] for key in held) <= 1000


class TestShardPolicy:
    def test_defaults_are_valid(self):
        ShardPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardPolicy(**kwargs)


class TestRouterStats:
    def test_counters_and_snapshot(self):
        stats = RouterStats()
        stats.inc("submitted")
        stats.inc("submitted", 2)
        stats.inc("redelivered")
        assert stats.get("submitted") == 3
        assert stats.get("answered") == 0
        stats.worker_compiles["w0"] = 4
        snap = stats.to_dict()
        assert snap["submitted"] == 3 and snap["redelivered"] == 1
        assert snap["worker_compiles"] == {"w0": 4}
        assert snap["tensor_refs"] == snap["ref_misses"] == 0
        assert snap["submit_bytes"] == 0

    def test_snapshot_is_detached(self):
        stats = RouterStats()
        snap = stats.to_dict()
        snap["submitted"] = 99
        snap["worker_compiles"]["w9"] = 1
        assert stats.get("submitted") == 0
        assert stats.to_dict()["worker_compiles"] == {}


class TestRingKey:
    def test_shape_specialization_decides_the_key(self):
        wl = get_workload("attention")
        a = wl.make_inputs(batch_size=1, seq_len=8, seed=0)
        same_shape = wl.make_inputs(batch_size=1, seq_len=8, seed=9)
        other_shape = wl.make_inputs(batch_size=1, seq_len=16, seed=0)
        key = ShardRouter.ring_key("attention", "tensorssa",
                                   "datacenter", a)
        assert ShardRouter.ring_key("attention", "tensorssa",
                                    "datacenter", same_shape) == key
        assert ShardRouter.ring_key("attention", "tensorssa",
                                    "datacenter", other_shape) != key
        assert ShardRouter.ring_key("attention", "eager",
                                    "datacenter", a) != key


# -- large tensor arguments ship once per incarnation ------------------------

LSTM = get_workload("lstm")


def _fleet(**kwargs) -> ShardRouter:
    router = ShardRouter(ShardPolicy(
        num_workers=1, worker_policy={"workers": 1, "max_batch_size": 1},
        **kwargs))
    assert router.wait_ready(1, timeout=60) == 1
    return router


def _serve(router: ShardRouter, args) -> int:
    """Submit one lstm request, check it bit-exact against eager on the
    same inputs, and return the SUBMIT bytes it wrote."""
    want = LSTM.model_fn(*clone_args(args))
    before = router.stats.get("submit_bytes")
    resp = router.submit(LSTM, args=args).result(60)
    assert resp.ok, resp.error
    assert bit_exact(resp.outputs, want)
    return router.stats.get("submit_bytes") - before


def _submit_tags(handle, full_delay_s: float = 0.0) -> list:
    """Record the argument tags of every SUBMIT frame sent to
    ``handle`` (a list that fills as frames go out), holding a frame
    that carries token-tagged bytes back for ``full_delay_s`` first."""
    frames = []
    send = handle.channel.send

    def recording(msg_type, payload):
        if msg_type == MSG_SUBMIT:
            frames.append([item[0] for item in payload["args"]])
            if any(len(item) == 3 for item in payload["args"]):
                time.sleep(full_delay_s)
        return send(msg_type, payload)

    handle.channel.send = recording
    return frames


@pytest.fixture(scope="module")
def fleet():
    router = _fleet()
    yield router
    router.shutdown(drain=False)


class TestTensorRefs:
    def test_warm_request_sends_the_weights_as_refs(self, fleet):
        first, second = request_pool(LSTM, [8, 8], seed0=100)
        assert first[1] is second[1]  # the pool shares its weights
        refs = fleet.stats.get("tensor_refs")
        cold = _serve(fleet, first)
        assert fleet.stats.get("tensor_refs") == refs
        warm = _serve(fleet, second)
        assert fleet.stats.get("tensor_refs") - refs >= 2
        assert warm < 0.05 * cold

    @pytest.mark.parametrize("edit", ["inplace_op", "negative_zero"])
    def test_changed_weights_ship_full_bytes(self, fleet, edit):
        args = request_pool(LSTM, [8], seed0=200)[0]
        wx = args[1]
        if edit == "negative_zero":
            wx[0, 0] = 0.0
        _serve(fleet, args)
        warm = _serve(fleet, args)
        before = wx.numpy()
        if edit == "inplace_op":
            wx.mul_(1.5)
        else:
            wx[0, 0] = -0.0
            # value == cannot see the flip; only the bits differ
            assert np.array_equal(before, wx.numpy())
            assert np.signbit(wx.numpy()[0, 0])
        refs = fleet.stats.get("tensor_refs")
        changed = _serve(fleet, args)
        assert fleet.stats.get("tensor_refs") - refs == 1  # wh only
        assert changed - warm >= wx.nbytes
        refs = fleet.stats.get("tensor_refs")
        _serve(fleet, args)  # the new copy is shipped, and reused
        assert fleet.stats.get("tensor_refs") - refs == 2

    def test_a_ref_the_worker_never_held_costs_one_full_resend(self,
                                                               fleet):
        args = request_pool(LSTM, [8], seed0=300)[0]
        (handle,) = fleet.supervisor.handles()
        # the tokens this request's weights will travel under, marked
        # as received although the worker never saw them
        handle.tokens.update(item[2] for item in fleet._encode(args)
                             if len(item) == 3)
        frames = _submit_tags(handle)
        misses = fleet.stats.get("ref_misses")
        redelivered = fleet.stats.get("redelivered")
        try:
            _serve(fleet, args)
        finally:
            del handle.channel.send
        assert fleet.stats.get("ref_misses") - misses == 1
        assert fleet.stats.get("redelivered") == redelivered
        assert len(frames) == 2
        assert frames[0].count("ref") == 2
        assert "ref" not in frames[1]


def test_concurrent_clients_never_send_a_ref_ahead_of_its_bytes(fleet):
    """Six clients share one weight pair on a two-core box, and every
    frame carrying full bytes is slow to start writing: a token is
    marked received only after its frame is written, so no ref can
    reach the worker before the bytes it names."""
    pool = request_pool(LSTM, [8] * 12, seed0=500)
    wants = [LSTM.model_fn(*clone_args(args)) for args in pool]
    misses = fleet.stats.get("ref_misses")
    refs = fleet.stats.get("tensor_refs")
    results = [None] * len(pool)
    (handle,) = fleet.supervisor.handles()
    _submit_tags(handle, full_delay_s=0.02)

    def client(k: int) -> None:
        for i in range(k, len(pool), 6):
            results[i] = fleet.submit(LSTM, args=pool[i]).result(60)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
        del handle.channel.send
    assert not any(t.is_alive() for t in threads)
    for resp, want in zip(results, wants):
        assert resp.ok and bit_exact(resp.outputs, want)
    assert fleet.stats.get("ref_misses") == misses
    assert fleet.stats.get("tensor_refs") > refs


def test_respawned_incarnation_receives_full_bytes():
    kill = FaultRule(site=SITE_PROCESS_KILL, match="submit", nth=1,
                     fault=Fault())
    router = _fleet(fault_spec=FaultPlan([kill], seed=0).to_spec())
    try:
        first, second = request_pool(LSTM, [8, 8], seed0=400)
        cold = _serve(router, first)
        # the ref frame kills the first incarnation on receipt; the
        # redelivery reaches its successor, which holds nothing
        resent = _serve(router, second)
        assert router.stats.get("redelivered") == 1
        assert router.stats.get("ref_misses") == 0
        assert router.stats.get("tensor_refs") == 2
        assert resent > cold
        (handle,) = router.supervisor.handles()
        assert handle.generation > 1 and len(handle.tokens) == 2
    finally:
        router.shutdown(drain=False)


class TestWorkerRefs:
    """One worker driven frame by frame over its socket."""

    @pytest.fixture()
    def worker(self):
        root = tempfile.mkdtemp(prefix="refs-")
        path = os.path.join(root, "w.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)
        thread = threading.Thread(target=worker_main, daemon=True, args=(
            {"worker_id": "w0", "socket_path": path, "store_root": None,
             "policy": {"workers": 1, "max_batch_size": 1}},))
        thread.start()
        conn, _ = listener.accept()
        chan = Channel(conn)
        assert chan.recv(timeout=60)[0] == MSG_HELLO
        yield chan
        chan.send(MSG_SHUTDOWN, {"drain": False, "timeout": 1.0})
        thread.join(10)
        chan.close()
        listener.close()
        shutil.rmtree(root, ignore_errors=True)
        assert not thread.is_alive()

    @staticmethod
    def _ask(chan: Channel, rid: int, args: list) -> dict:
        chan.send(MSG_SUBMIT, {"rid": rid, "workload": "lstm",
                               "pipeline": "tensorssa",
                               "platform": "datacenter", "args": args,
                               "timeout_s": 60.0})
        while True:
            msg_type, payload = chan.recv(timeout=60)
            if msg_type == MSG_RESULT:
                return payload

    def test_a_nack_is_never_replayed(self, worker):
        args = LSTM.make_inputs(batch_size=1, seq_len=8, seed=0)
        want = LSTM.model_fn(*clone_args(args))
        full = encode_args(args)
        full[1] = full[1] + (11,)
        by_ref = list(full)
        by_ref[1] = ("ref", 11)
        for _ in range(2):  # the retry misses again, it is not replayed
            nack = self._ask(worker, 1, by_ref)
            assert nack["status"] == STATUS_REF_MISS
            assert not nack.get("duplicate")
        answer = self._ask(worker, 1, full)
        assert answer["status"] == "ok" and not answer["duplicate"]
        assert bit_exact(decode_args(answer["outputs"]), want)
        # the held array now resolves, and the model never wrote it
        answer = self._ask(worker, 2, by_ref)
        assert answer["status"] == "ok"
        assert bit_exact(decode_args(answer["outputs"]), want)
