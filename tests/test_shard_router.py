"""Router building blocks: hash ring, IPC framing, policy, stats."""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.models import get_workload
from repro.shard import (Channel, HashRing, MSG_HEARTBEAT, MSG_RESULT,
                         MSG_SUBMIT, RouterStats, ShardPolicy,
                         ShardRouter, decode_args, encode_args,
                         read_message, write_message)
from repro.shard.ipc import HEADER, MAGIC, MAX_FRAME


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


class TestShardPolicy:
    def test_defaults_are_valid(self):
        ShardPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 0},
        {"heartbeat_interval_s": 0.0},
        {"heartbeat_interval_s": 0.5, "heartbeat_timeout_s": 0.5},
        {"max_respawns": -1},
        {"redeliver_max": -1},
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
