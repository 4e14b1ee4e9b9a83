"""Pure elementwise compute operators.

Each function launches exactly one kernel (``record_op``) and returns a
fresh storage-owning tensor.  These are the "memory-intensive" operators
that dominate the paper's imperative post-processing workloads, and the
primary fusion candidates for the NNC-like backend.  Every one is the
eager form (:func:`repro.runtime.kernels.eager_op`) of its row in the
kernel table — the math itself lives there, once.
"""

from __future__ import annotations

from .kernels import eager_op


def _op(name: str, operands: str = " broadcasted"):
    return eager_op("aten::" + name, f"Elementwise{operands} ``{name}`` "
                    "(one kernel launch, fresh output).")


# -- arithmetic -------------------------------------------------------------

add = _op("add")
sub = _op("sub")
mul = _op("mul")
div = _op("div")
pow = _op("pow")  # noqa: A001 - mirrors aten::pow
maximum = _op("maximum")
minimum = _op("minimum")
remainder = _op("remainder")
neg = _op("neg", "")
abs = _op("abs", "")  # noqa: A001 - mirrors aten::abs
exp = _op("exp", "")
log = _op("log", "")
sqrt = _op("sqrt", "")
sigmoid = _op("sigmoid", "")
tanh = _op("tanh", "")
relu = _op("relu", "")
floor = _op("floor", "")
ceil = _op("ceil", "")
clamp = _op("clamp", "")
where = _op("where")
clone = eager_op("aten::clone",
                 "A fresh deep copy — one memory-bound kernel.")
to = eager_op("aten::to", "Dtype cast (``aten::to``).")

# -- comparison / logic -----------------------------------------------------

gt = _op("gt")
lt = _op("lt")
ge = _op("ge")
le = _op("le")
eq = _op("eq")
ne = _op("ne")
logical_and = _op("logical_and")
logical_or = _op("logical_or")
logical_not = _op("logical_not", "")
