"""repro.ops — operator schemas and the registry derived from the kernel table."""

from .registry import REGISTRY, all_ops, get, has, register
from .schema import OpKind, OpSchema

__all__ = ["OpKind", "OpSchema", "REGISTRY", "get", "has", "register",
           "all_ops"]
