"""Length-prefixed framed IPC between router and workers.

Messages travel over a UNIX-domain stream socket as explicit frames::

    header  = struct ">4sBI"  (magic b"RSH1", message type, payload len)
    payload = pickle bytes

Explicit framing (rather than trusting pickle to self-delimit on a
stream) is a robustness decision: when a worker is SIGKILLed
mid-write, the reader sees a short read and raises a clean
``ConnectionError`` instead of unpickling a torn object — the
supervisor then handles the crash through one code path.

Tensor arguments and outputs cross the boundary as tagged numpy arrays
(:func:`encode_args` / :func:`decode_args`): a
:class:`~repro.runtime.tensor.Tensor` owns live ``Storage`` that must
not leak between processes, so only its bytes travel and each side
rebuilds a storage-owning tensor.  A request argument of at least
:data:`REF_MIN_BYTES` travels as ``("tensor", ndarray, token)`` the
first time the router ships it to a worker incarnation and as
``("ref", token)`` after that; both sides keep those arrays in an
:class:`ArrayLRU` bounded by :data:`REF_CACHE_BYTES`.  A worker that no
longer holds a referenced array answers ``status="ref-miss"`` and the
router resends the request once with full bytes.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple

import numpy as np

from ..runtime.tensor import Tensor

__all__ = ["MAGIC", "HEADER", "MAX_FRAME", "MSG_HELLO", "MSG_SUBMIT",
           "MSG_RESULT", "MSG_HEARTBEAT", "MSG_SHUTDOWN", "MSG_GOODBYE",
           "REF_MIN_BYTES", "REF_CACHE_BYTES", "STATUS_REF_MISS",
           "ArrayLRU", "Channel", "read_message", "write_message",
           "encode_args", "decode_args"]

#: frame magic: "Repro SHard v1"
MAGIC = b"RSH1"

#: frame header: magic, message type, payload length
HEADER = struct.Struct(">4sBI")

#: refuse frames beyond this size — a corrupted length prefix must not
#: make the reader allocate gigabytes
MAX_FRAME = 256 * 1024 * 1024

#: message types
MSG_HELLO = 1      # worker -> router: ready, includes warm-start stats
MSG_SUBMIT = 2     # router -> worker: execute one request
MSG_RESULT = 3     # worker -> router: outcome of one request
MSG_HEARTBEAT = 4  # worker -> router: liveness beacon
MSG_SHUTDOWN = 5   # router -> worker: drain and exit
MSG_GOODBYE = 6    # worker -> router: clean exit acknowledgement

#: worker heartbeat beacon period (seconds)
HEARTBEAT_INTERVAL_S = 0.1
#: beacon silence beyond this declares a ready worker hung
HEARTBEAT_TIMEOUT_S = 1.0

#: a tensor argument this large ships once per worker incarnation and
#: travels as a ``("ref", token)`` afterwards
REF_MIN_BYTES = 64 * 1024

#: byte budget of the router's kept copies and of each worker's held
#: arrays
REF_CACHE_BYTES = 32 * 1024 * 1024

#: a worker's RESULT status for a ref it does not hold (the NACK)
STATUS_REF_MISS = "ref-miss"


def write_message(sock: socket.socket, msg_type: int, payload) -> int:
    """Serialize ``payload`` and send it as one framed message; returns
    the bytes written (header plus payload)."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME:
        raise ValueError(f"frame too large: {len(data)} bytes")
    sock.sendall(HEADER.pack(MAGIC, msg_type, len(data)) + data)
    return HEADER.size + len(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; ConnectionError on a short read."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket) -> Tuple[int, object]:
    """Read one framed message; ``(msg_type, payload)``.

    Raises ``ConnectionError`` on EOF, a torn frame, bad magic, or an
    oversized length prefix; ``socket.timeout`` propagates when the
    socket has a timeout configured.
    """
    header = _recv_exact(sock, HEADER.size)
    magic, msg_type, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ConnectionError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise ConnectionError(f"frame length {length} exceeds limit")
    data = _recv_exact(sock, length)
    try:
        return msg_type, pickle.loads(data)
    except Exception as exc:
        raise ConnectionError(f"undecodable frame payload: {exc}") from exc


class Channel:
    """One framed, thread-safe connection endpoint.

    Writes are serialized under a lock (the router's scatter thread and
    monitor thread may both talk to a worker); reads are expected from
    a single reader thread.  ``close`` is idempotent and safe to call
    from any thread — it is how the supervisor unblocks a reader
    waiting on a dead worker.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._wlock = threading.Lock()
        self._closed = False

    def send(self, msg_type: int, payload) -> int:
        """Send one message and return its frame length;
        ConnectionError if the peer is gone."""
        with self._wlock:
            if self._closed:
                raise ConnectionError("channel closed")
            try:
                return write_message(self._sock, msg_type, payload)
            except (BrokenPipeError, OSError) as exc:
                raise ConnectionError(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Tuple[int, object]:
        """Receive one message, optionally bounded by ``timeout``."""
        self._sock.settimeout(timeout)
        try:
            return read_message(self._sock)
        except OSError as exc:
            if isinstance(exc, socket.timeout):
                raise
            raise ConnectionError(f"recv failed: {exc}") from exc

    def close(self) -> None:
        """Shut the connection down (idempotent)."""
        with self._wlock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed


def encode_args(args) -> list:
    """Encode a request's argument tuple for the wire.

    Tensors become ``("tensor", ndarray)`` pairs (a contiguous copy —
    no shared storage crosses the boundary); everything else must be a
    plain picklable scalar/container and passes through tagged
    ``("py", value)``.
    """
    out = []
    for arg in args:
        if isinstance(arg, Tensor):
            out.append(("tensor", np.ascontiguousarray(arg.numpy())))
        else:
            out.append(("py", arg))
    return out


def decode_args(spec) -> tuple:
    """Inverse of :func:`encode_args`: rebuild storage-owning tensors.
    A token-tagged ``("tensor", ndarray, token)`` entry decodes like an
    untagged one; ``("ref", token)`` entries must be resolved first."""
    out = []
    for tag, value, *_token in spec:
        if tag == "tensor":
            out.append(Tensor.from_array(value, copy=True))
        else:
            out.append(value)
    return tuple(out)


class ArrayLRU:
    """A byte-bounded, thread-safe LRU of shipped arrays.

    The router keeps its shipped copies here (key: the argument's
    storage identity, value: ``(copy, token)``) and each worker keeps
    the arrays it received (key: token).  ``put`` evicts least recently
    used entries until the held bytes fit ``capacity``; an array larger
    than the whole budget is not kept at all.
    """

    def __init__(self, capacity: int = REF_CACHE_BYTES) -> None:
        self.capacity = capacity
        self._items: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return None
            self._items.move_to_end(key)
            return item[0]

    def put(self, key: Hashable, value, nbytes: int) -> None:
        """Keep ``value`` (``nbytes`` large) under ``key``."""
        with self._lock:
            old = self._items.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if nbytes > self.capacity:
                return
            self._items[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.capacity:
                _, (_, dropped) = self._items.popitem(last=False)
                self._bytes -= dropped

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        return self._bytes
