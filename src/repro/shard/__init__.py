"""repro.shard — crash-tolerant multi-process serving.

The package splits the single-process serving stack into a *router*
process that consistent-hashes requests by shape-specialization key
onto N supervised *worker* processes, each running the existing
continuous-batching :class:`repro.serve.server.Server` internally.
Compiled programs cross the process boundary as versioned, checksummed
*artifacts* (:mod:`repro.shard.artifact`): mutation-free TensorSSA
graphs, their memory plans and compiled-kernel descriptions, persisted
in a content-addressed store so a restarted worker warm-starts with
zero cold compiles.

Robustness is the point: per-worker heartbeats with deadline
detection, crash detection via sentinel + join, typed
:class:`repro.errors.WorkerCrashed`, at-most-once redelivery of
in-flight requests, hash-ring reroute on death, and bounded respawn
with jittered backoff — the router degrades to in-process eager
execution only when every worker is down.
"""

from .artifact import (ARTIFACT_VERSION, ArtifactStore, RestoredArtifact,
                       deserialize_compiled, serialize_compiled)
from .ipc import (MSG_GOODBYE, MSG_HEARTBEAT, MSG_HELLO, MSG_RESULT,
                  MSG_SHUTDOWN, MSG_SUBMIT, Channel, decode_args,
                  encode_args, read_message, write_message)
from .router import HashRing, RouterStats, ShardPolicy, ShardRouter
from .supervisor import Supervisor, WorkerHandle
from .worker import worker_main

__all__ = [
    "ARTIFACT_VERSION", "ArtifactStore", "RestoredArtifact",
    "serialize_compiled", "deserialize_compiled",
    "Channel", "read_message", "write_message", "encode_args",
    "decode_args", "MSG_HELLO", "MSG_SUBMIT", "MSG_RESULT",
    "MSG_HEARTBEAT", "MSG_SHUTDOWN", "MSG_GOODBYE",
    "HashRing", "ShardPolicy", "ShardRouter", "RouterStats",
    "Supervisor", "WorkerHandle", "worker_main",
]
