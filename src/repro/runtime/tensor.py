"""The imperative tensor: strided views, aliasing, and mutation.

This is the substrate the paper's problem statement lives on.  A
``Tensor`` wraps a numpy array that is a *view into its storage buffer*,
so view tensors share memory with their base exactly as in PyTorch:
mutating a view through an in-place op (``copy_``, ``add_`` ...)
implicitly mutates every alias (paper §2.1, Figure 1).

Design notes
------------
* ``_array`` is a numpy ndarray whose memory lives inside
  ``_storage.buffer``; numpy's strided views provide the sharing.
* ``_base`` is the tensor this one was *directly* derived from by a view
  op (None for storage-owning tensors).  The IR-level alias analysis does
  not use it — it exists for runtime introspection and tests.
* Every in-place op funnels through :func:`write_through`, which bumps
  the storage version counter.  Tests assert functionalized programs
  leave every input's version untouched.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import profiler
from .dtype import DType
from .storage import Storage

Scalar = Union[int, float, bool]


class Tensor:
    """A strided, possibly-aliasing, mutable tensor."""

    __slots__ = ("_array", "_storage", "_base")

    def __init__(self, array: np.ndarray, storage: Storage,
                 base: Optional["Tensor"] = None) -> None:
        self._array = array
        self._storage = storage
        self._base = base

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_array(array: np.ndarray, copy: bool = True) -> "Tensor":
        """Create a storage-owning tensor from a numpy array."""
        arr = np.array(array, copy=True) if copy else np.asarray(array)
        return Tensor(arr, Storage(arr), base=None)

    def _view(self, np_view: np.ndarray) -> "Tensor":
        """Wrap a numpy view of this tensor's data as an aliasing Tensor."""
        if np_view.base is None and np_view is not self._array:
            raise AssertionError("_view called with a non-aliasing array")
        return Tensor(np_view, self._storage, base=self)

    # -- metadata -------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._array.shape)

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def dtype(self) -> DType:
        return DType.from_numpy(self._array.dtype)

    @property
    def numel(self) -> int:
        return int(self._array.size)

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    @property
    def is_view(self) -> bool:
        return self._base is not None

    @property
    def base(self) -> Optional["Tensor"]:
        return self._base

    @property
    def storage(self) -> Storage:
        return self._storage

    @property
    def version(self) -> int:
        return self._storage.version

    @property
    def is_contiguous(self) -> bool:
        return bool(self._array.flags["C_CONTIGUOUS"])

    def shares_storage_with(self, other: "Tensor") -> bool:
        return self._storage is other._storage

    # -- data access ----------------------------------------------------

    def numpy(self) -> np.ndarray:
        """A defensive copy of the data as a numpy array."""
        return np.array(self._array, copy=True)

    def item(self) -> Scalar:
        if self.numel != 1:
            raise ValueError(f"item() on tensor with {self.numel} elements")
        # reading a scalar back stalls the host on the device queue
        profiler.record_python("scalar_sync")
        value = self._array.reshape(()).item()
        return value

    def tolist(self):
        return self._array.tolist()

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def __repr__(self) -> str:
        body = np.array2string(self._array, precision=4, threshold=20)
        return (f"Tensor(shape={self.shape}, dtype={self.dtype.name}, "
                f"view={self.is_view})\n{body}")

    def __bool__(self) -> bool:
        if self.numel != 1:
            raise ValueError("truth value of a multi-element tensor is "
                             "ambiguous")
        profiler.record_python("scalar_sync")
        return bool(self._array.reshape(()).item())

    def __float__(self) -> float:
        return float(self.item())

    def __int__(self) -> int:
        return int(self.item())

    # -- operator sugar (implementations live in sibling modules) -------

    def __add__(self, other):
        from . import elementwise
        return elementwise.add(self, other)

    def __radd__(self, other):
        from . import elementwise
        return elementwise.add(self, other)

    def __sub__(self, other):
        from . import elementwise
        return elementwise.sub(self, other)

    def __rsub__(self, other):
        from . import elementwise
        return elementwise.sub(other, self)

    def __mul__(self, other):
        from . import elementwise
        return elementwise.mul(self, other)

    def __rmul__(self, other):
        from . import elementwise
        return elementwise.mul(self, other)

    def __truediv__(self, other):
        from . import elementwise
        return elementwise.div(self, other)

    def __rtruediv__(self, other):
        from . import elementwise
        return elementwise.div(other, self)

    def __pow__(self, other):
        from . import elementwise
        return elementwise.pow(self, other)

    def __neg__(self):
        from . import elementwise
        return elementwise.neg(self)

    def __matmul__(self, other):
        from . import linalg
        return linalg.matmul(self, other)

    def __gt__(self, other):
        from . import elementwise
        return elementwise.gt(self, other)

    def __lt__(self, other):
        from . import elementwise
        return elementwise.lt(self, other)

    def __ge__(self, other):
        from . import elementwise
        return elementwise.ge(self, other)

    def __le__(self, other):
        from . import elementwise
        return elementwise.le(self, other)

    def __eq__(self, other):  # type: ignore[override]
        from . import elementwise
        return elementwise.eq(self, other)

    def __ne__(self, other):  # type: ignore[override]
        from . import elementwise
        return elementwise.ne(self, other)

    __hash__ = object.__hash__

    # Augmented assignment is *in-place* mutation, as in PyTorch.
    def __iadd__(self, other):
        from . import inplace
        return inplace.add_(self, other)

    def __isub__(self, other):
        from . import inplace
        return inplace.sub_(self, other)

    def __imul__(self, other):
        from . import inplace
        return inplace.mul_(self, other)

    def __itruediv__(self, other):
        from . import inplace
        return inplace.div_(self, other)

    # Subscripts: loads are views, stores are mutations.
    def __getitem__(self, key):
        from . import views
        return views.getitem(self, key)

    def __setitem__(self, key, value) -> None:
        from . import views
        views.setitem(self, key, value)


def as_tensor(value, dtype: Optional[DType] = None) -> Tensor:
    """Coerce a Python scalar / list / numpy array / Tensor to a Tensor."""
    if isinstance(value, Tensor):
        return value
    np_dtype = dtype.np if dtype is not None else None
    if isinstance(value, bool):
        arr = np.array(value, dtype=np_dtype or np.bool_)
    elif isinstance(value, int):
        arr = np.array(value, dtype=np_dtype or np.int64)
    elif isinstance(value, float):
        arr = np.array(value, dtype=np_dtype or np.float32)
    else:
        arr = np.array(value, dtype=np_dtype)
        if arr.dtype == np.float64 and dtype is None:
            arr = arr.astype(np.float32)
    return Tensor.from_array(arr, copy=False)


def as_tuple(outputs) -> tuple:
    """A callable's outputs as a tuple (a lone output becomes a 1-tuple)
    — the stack's one tuple-iser."""
    return outputs if isinstance(outputs, tuple) else (outputs,)


def _arrays(got, expected):
    """Output-by-output numpy views of two results (each one output or
    a tuple/list of them; each output a Tensor or anything numpy can
    view), or None when their arity differs."""
    got = got if isinstance(got, (tuple, list)) else (got,)
    expected = expected if isinstance(expected, (tuple, list)) \
        else (expected,)
    if len(got) != len(expected):
        return None
    return [tuple(x.numpy() if isinstance(x, Tensor) else np.asarray(x)
                  for x in pair) for pair in zip(got, expected)]


def bit_exact(got, expected) -> bool:
    """The stack's one bit-exactness oracle: same arity and, output by
    output, same shape, same dtype and identical values (NaNs equal
    each other, in floating outputs only)."""
    pairs = _arrays(got, expected)
    return pairs is not None and all(
        ga.shape == ea.shape and ga.dtype == ea.dtype and np.array_equal(
            ga, ea, equal_nan=np.issubdtype(ga.dtype, np.floating))
        for ga, ea in pairs)


def all_close(got, expected, rtol: float = 1e-4,
              atol: float = 1e-5) -> bool:
    """The tolerance twin of :func:`bit_exact`, for comparisons where
    reduction order may legally differ: same arity and, output by
    output, same shape and values within ``rtol``/``atol`` as float64
    (NaNs equal each other)."""
    pairs = _arrays(got, expected)
    return pairs is not None and all(
        ga.shape == ea.shape and np.allclose(
            ga.astype(np.float64), ea.astype(np.float64),
            rtol=rtol, atol=atol, equal_nan=True)
        for ga, ea in pairs)


def wrap(result):
    """A kernel's result as a storage-owning Tensor: a numpy view (or a
    numpy scalar) is materialized first, and anything that is not an
    array — a host scalar out of a ``prim::`` op — passes through."""
    if isinstance(result, np.ndarray):
        if result.base is not None or not result.flags.owndata:
            result = np.array(result, copy=True)
    elif not isinstance(result, np.generic):
        return result
    return Tensor.from_array(result, copy=False)


def write_through(target: Tensor, value: np.ndarray) -> None:
    """Mutate ``target``'s data in place (and thus every alias of it)."""
    target._array[...] = value
    target._storage.bump()


def record_op(op: str, inputs, outputs, flops: Optional[int] = None) -> None:
    """Record one kernel launch for a compute op.

    ``bytes`` is the total data moved (inputs read + outputs written);
    ``flops`` defaults to one op per output element.
    """
    nbytes = 0
    out_numel = 0
    for t in inputs:
        if isinstance(t, Tensor):
            nbytes += t._array.nbytes
    for t in outputs:
        if isinstance(t, Tensor):
            nbytes += t._array.nbytes
            out_numel += t._array.size
    profiler.record_launch(op, nbytes, flops if flops is not None else out_numel)
