"""repro.passes — graph transformations."""

from .constant_fold import constant_fold
from .cse import cse
from .dce import dce
from .fusion import FuserConfig, fuse
from .parallelize import parallelize_loops
from .pass_manager import PASS_METRICS_KEY, PassManager, PassMetric

__all__ = ["dce", "cse", "constant_fold", "fuse", "FuserConfig",
           "parallelize_loops", "PassManager", "PassMetric",
           "PASS_METRICS_KEY"]

from .specialize import specialize_shapes
from .unroll import unroll_loops

__all__ += ["specialize_shapes", "unroll_loops"]

from .revert import revert_unfused_assigns

__all__ += ["revert_unfused_assigns"]

from .canonicalize import canonicalize

__all__ += ["canonicalize"]
