"""Dtype definitions for the imperative tensor runtime.

A thin, explicit wrapper over numpy dtypes so the rest of the system
never spells raw numpy dtype objects.  Mirrors the small dtype set that
the paper's workloads need (float compute, integer indices, booleans).
"""

from __future__ import annotations

import numpy as np


class DType:
    """A scalar element type.

    Instances are singletons (``float32``, ``int64``, ...); identity
    comparison is safe.
    """

    _registry: dict = {}

    def __init__(self, name: str, np_dtype: np.dtype, is_float: bool,
                 is_int: bool, is_bool: bool) -> None:
        self.name = name
        self.np = np.dtype(np_dtype)
        self.is_float = is_float
        self.is_int = is_int
        self.is_bool = is_bool
        DType._registry[self.np] = self
        DType._registry[name] = self

    @property
    def itemsize(self) -> int:
        return self.np.itemsize

    def __repr__(self) -> str:
        return f"repro.{self.name}"

    @staticmethod
    def from_numpy(np_dtype) -> "DType":
        """Map a numpy dtype (or anything castable to one) to a DType."""
        key = np.dtype(np_dtype)
        try:
            return DType._registry[key]
        except KeyError:
            raise TypeError(f"unsupported numpy dtype: {np_dtype!r}") from None

    @staticmethod
    def of(value) -> "DType":
        """Infer the DType of a Python scalar."""
        if isinstance(value, bool):
            return bool_
        if isinstance(value, int):
            return int64
        if isinstance(value, float):
            return float32
        raise TypeError(f"cannot infer dtype of {value!r}")


float32 = DType("float32", np.float32, True, False, False)
float64 = DType("float64", np.float64, True, False, False)
int32 = DType("int32", np.int32, False, True, False)
int64 = DType("int64", np.int64, False, True, False)
bool_ = DType("bool", np.bool_, False, False, True)

ALL_DTYPES = (float32, float64, int32, int64, bool_)


def itemsize_of(name) -> int:
    """Bytes per element of the dtype called ``name``; float32's 4 for
    None or an unknown name (the memory planner and symbolic shape
    propagation price IR types, which may carry neither)."""
    dtype = DType._registry.get(name or "float32")
    return dtype.itemsize if dtype is not None else 4


def promote(a: DType, b: DType) -> DType:
    """Binary-op result dtype, following numpy promotion restricted to
    the supported set."""
    return DType.from_numpy(np.promote_types(a.np, b.np))
