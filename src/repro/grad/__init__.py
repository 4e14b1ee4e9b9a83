"""Reverse-mode automatic differentiation over functional TensorSSA.

``repro.grad`` turns a functionalized forward graph into a plain
TensorSSA backward graph — no tape, no runtime autograd state — so the
whole existing stack (pass pipeline, memory planner, compile cache,
serve batcher) optimizes and executes gradients with
zero special cases.  See DESIGN.md §15 for the construction.

Public surface:

* :func:`grad` — graph → gradient graph (the transform itself);
* :func:`build_backward` — Python function → (forward, backward)
  TensorSSA graph pair, the convenience most callers want;
* :mod:`repro.grad.check` — the finite-difference grad-check harness
  gating all of the above;
* :class:`~repro.errors.GradError` — re-exported typed failure.

Importing this package attaches the VJP rules to the op registry.
"""

from ..errors import GradError
from . import vjp  # noqa: F401  (registers VJPs on import)
from .builder import GradBuilder, const_value, grad

__all__ = ["grad", "build_backward", "GradBuilder", "GradError",
           "const_value"]


def build_backward(fn, wrt=None, out=None, name=None):
    """Script ``fn``, functionalize it, and differentiate it.

    Returns ``(forward_graph, backward_graph)`` where the backward
    graph has the same input signature as ``fn`` and returns
    ``d(sum-of-tensor-outputs)/d(input)`` per ``wrt`` entry (default:
    every tensor input).  The forward graph comes back cleaned
    (DCE/CSE/constant-fold/canonicalize) but unfused — the
    differentiable form.
    """
    from ..frontend.script import script
    from ..ir.clone import clone_graph
    from ..passes import canonicalize, constant_fold, cse, dce
    from ..passes.pass_manager import PassManager
    from ..tensorssa.convert import convert_to_tensorssa

    fwd = script(fn).graph if not hasattr(fn, "graph") else fn.graph
    fwd = clone_graph(fwd, name=name or fwd.name)
    convert_to_tensorssa(fwd)
    (PassManager()
     .add("dce", dce)
     .add("cse", cse)
     .add("constant_fold", constant_fold)
     .add("canonicalize", canonicalize)
     .add("dce_post", dce)
     .run(fwd))
    return fwd, grad(fwd, wrt=wrt, out=out)
