"""Per-op vector-Jacobian product rules.

Importing this module attaches a ``vjp`` callable (and
``differentiable=True``) to every differentiable :class:`OpSchema` in
the registry.  Each rule has the signature::

    vjp(b: GradBuilder, node: Node, grads: [Value|None per output])
        -> [Value | None | list-of-Value per input]

and emits adjoint nodes through ``b`` into the current block.  ``None``
slots mean "no gradient flows to this input" (structural operands,
scalars, intentionally-zero derivatives like floor).  A *list* slot is
the adjoint of a ``prim::ListConstruct`` operand (cat/stack) and is
distributed element-wise by the sweep.

Conventions the rules rely on:

* every binary-elementwise adjoint funnels through
  ``grad::unbroadcast(g, operand)``, which both sums implicit
  broadcast axes away *and* casts to the operand's dtype — so mixed
  float64/float32 intermediates (possible when an integer scalar rides
  along, e.g. ``pow``'s exponent) can never leak the wrong dtype out;
* structural operands (dims, permutations, slice bounds) are reused as
  the *same IR Values* in the adjoint, or read via
  :func:`~repro.grad.builder.const_value` when the rule needs the
  Python value (inverse permutations, reduction-dim expansion);
* view/access reads differentiate to *window writes into zeros* and
  window writes differentiate to a *window read* plus a *window zero*
  — exactly the Access/Assign duality of paper §3.2, which is why
  functionalization makes reverse-mode a local rewrite.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import GradError
from ..ir import types as T
from ..ir.graph import Node, Value
from ..ops import registry
from .builder import WINDOWS, GradBuilder, const_value

__all__ = ["register_vjp"]


def register_vjp(name: str):
    """Decorator: attach the rule to op ``name``'s schema and mark it
    differentiable.  Refuses to overwrite an explicit ``False``."""
    schema = registry.get(name)
    if schema.differentiable is False:
        raise ValueError(f"{name} is marked non-differentiable; refusing "
                         "to attach a VJP")

    def deco(fn):
        schema.vjp = fn
        schema.differentiable = True
        return fn
    return deco


def _unb(b: GradBuilder, g: Value, operand: Value) -> Optional[Value]:
    """Reduce ``g`` onto ``operand``'s shape/dtype, or ``None`` for
    non-tensor operands (host scalars carry no adjoints)."""
    if not operand.type.is_tensor:
        return None
    return b.e1("grad::unbroadcast", g, operand)


def _pad_none(grads: List, node: Node) -> List:
    """Right-pad a gradient list with ``None`` to the node's arity."""
    return grads + [None] * (len(node.inputs) - len(grads))


# ---------------------------------------------------------------------------
# identity / casting
# ---------------------------------------------------------------------------

@register_vjp("aten::clone")
def _vjp_clone(b, node, grads):
    """d clone = identity."""
    return [grads[0]]


@register_vjp("aten::alias")
def _vjp_alias(b, node, grads):
    """d alias = identity."""
    return [grads[0]]


@register_vjp("immut::alias")
def _vjp_immut_alias(b, node, grads):
    """d alias = identity."""
    return [grads[0]]


@register_vjp("aten::to")
def _vjp_to(b, node, grads):
    """Cast back to the source dtype (unbroadcast also casts)."""
    return _pad_none([_unb(b, grads[0], node.input(0))], node)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

@register_vjp("aten::add")
def _vjp_add(b, node, grads):
    """d(a+c) = (g, g), unbroadcast per operand."""
    g = grads[0]
    return [_unb(b, g, node.input(0)), _unb(b, g, node.input(1))]


@register_vjp("aten::sub")
def _vjp_sub(b, node, grads):
    """d(a-c) = (g, -g)."""
    g = grads[0]
    gc = None
    if node.input(1).type.is_tensor:
        gc = _unb(b, b.e1("aten::neg", g), node.input(1))
    return [_unb(b, g, node.input(0)), gc]


@register_vjp("aten::mul")
def _vjp_mul(b, node, grads):
    """d(a*c) = (g*c, g*a)."""
    g, a, c = grads[0], node.input(0), node.input(1)
    ga = _unb(b, b.e1("aten::mul", g, c), a) if a.type.is_tensor else None
    gc = _unb(b, b.e1("aten::mul", g, a), c) if c.type.is_tensor else None
    return [ga, gc]


@register_vjp("aten::div")
def _vjp_div(b, node, grads):
    """d(a/c) = (g/c, -g*a/c**2)."""
    g, a, c = grads[0], node.input(0), node.input(1)
    ga = _unb(b, b.e1("aten::div", g, c), a) if a.type.is_tensor else None
    gc = None
    if c.type.is_tensor:
        num = b.e1("aten::mul", g, a)
        den = b.e1("aten::mul", c, c)
        gc = _unb(b, b.e1("aten::neg", b.e1("aten::div", num, den)), c)
    return [ga, gc]


@register_vjp("aten::pow")
def _vjp_pow(b, node, grads):
    """d(a**p) = (g * p * a**(p-1), g * y * log(a))."""
    g, a, p = grads[0], node.input(0), node.input(1)
    if p.type.is_tensor:
        pm1 = b.e1("aten::sub", p, b.const(1.0))
    else:
        pm1 = b.e1("prim::sub", p, b.const(1))
    ga = _unb(b, b.e1("aten::mul", g,
                      b.e1("aten::mul", p, b.e1("aten::pow", a, pm1))), a)
    gp = None
    if p.type.is_tensor:
        gp = _unb(b, b.e1("aten::mul", g,
                          b.e1("aten::mul", node.output(0),
                               b.e1("aten::log", a))), p)
    return [ga, gp]


@register_vjp("aten::neg")
def _vjp_neg(b, node, grads):
    """d(-a) = -g."""
    return [b.e1("aten::neg", grads[0])]


@register_vjp("aten::abs")
def _vjp_abs(b, node, grads):
    """d|a| = sign(a) * g (the tie at 0 takes the +1 subgradient)."""
    g, a = grads[0], node.input(0)
    mask = b.e1("aten::ge", a, b.const(0.0))
    return [b.e1("aten::where", mask, g, b.e1("aten::neg", g))]


@register_vjp("aten::exp")
def _vjp_exp(b, node, grads):
    """d exp = g * y."""
    return [b.e1("aten::mul", grads[0], node.output(0))]


@register_vjp("aten::log")
def _vjp_log(b, node, grads):
    """d log = g / a."""
    return [b.e1("aten::div", grads[0], node.input(0))]


@register_vjp("aten::sqrt")
def _vjp_sqrt(b, node, grads):
    """d sqrt = g / (2*y)."""
    return [b.e1("aten::div", grads[0],
                 b.e1("aten::mul", node.output(0), b.const(2.0)))]


@register_vjp("aten::sigmoid")
def _vjp_sigmoid(b, node, grads):
    """d sigmoid = g * y * (1-y)."""
    y = node.output(0)
    return [b.e1("aten::mul", grads[0],
                 b.e1("aten::mul", y,
                      b.e1("aten::sub", b.const(1.0), y)))]


@register_vjp("aten::tanh")
def _vjp_tanh(b, node, grads):
    """d tanh = g * (1 - y**2)."""
    y = node.output(0)
    return [b.e1("aten::mul", grads[0],
                 b.e1("aten::sub", b.const(1.0),
                      b.e1("aten::mul", y, y)))]


@register_vjp("aten::relu")
def _vjp_relu(b, node, grads):
    """d relu = g where a > 0 (zero subgradient at the kink)."""
    g, a = grads[0], node.input(0)
    mask = b.e1("aten::gt", a, b.const(0.0))
    return [b.e1("aten::where", mask, g, b.zeros_like(g))]


@register_vjp("aten::floor")
def _vjp_floor(b, node, grads):
    """Zero a.e. — differentiable, with an identically-None gradient."""
    return [None]


@register_vjp("aten::ceil")
def _vjp_ceil(b, node, grads):
    """Zero a.e. — differentiable, with an identically-None gradient."""
    return [None]


@register_vjp("aten::clamp")
def _vjp_clamp(b, node, grads):
    """g inside the active band, zero where a bound clipped."""
    g, a = grads[0], node.input(0)
    cur = g
    if len(node.inputs) > 1 and const_value(node.input(1),
                                            "clamp min") is not None:
        cur = b.e1("aten::where", b.e1("aten::ge", a, node.input(1)),
                   cur, b.zeros_like(g))
    if len(node.inputs) > 2 and const_value(node.input(2),
                                            "clamp max") is not None:
        cur = b.e1("aten::where", b.e1("aten::le", a, node.input(2)),
                   cur, b.zeros_like(g))
    return _pad_none([cur], node)


@register_vjp("aten::maximum")
def _vjp_maximum(b, node, grads):
    """Route g to the winning operand (ties go to the first)."""
    g, a, c = grads[0], node.input(0), node.input(1)
    mask = b.e1("aten::ge", a, c)
    zero = b.zeros_like(g)
    ga = (_unb(b, b.e1("aten::where", mask, g, zero), a)
          if a.type.is_tensor else None)
    gc = (_unb(b, b.e1("aten::where", mask, zero, g), c)
          if c.type.is_tensor else None)
    return [ga, gc]


@register_vjp("aten::minimum")
def _vjp_minimum(b, node, grads):
    """Route g to the winning operand (ties go to the first)."""
    g, a, c = grads[0], node.input(0), node.input(1)
    mask = b.e1("aten::le", a, c)
    zero = b.zeros_like(g)
    ga = (_unb(b, b.e1("aten::where", mask, g, zero), a)
          if a.type.is_tensor else None)
    gc = (_unb(b, b.e1("aten::where", mask, zero, g), c)
          if c.type.is_tensor else None)
    return [ga, gc]


@register_vjp("aten::where")
def _vjp_where(b, node, grads):
    """Split g by the (non-differentiable) condition."""
    g = grads[0]
    cond, x, y = node.input(0), node.input(1), node.input(2)
    zero = b.zeros_like(g)
    gx = (_unb(b, b.e1("aten::where", cond, g, zero), x)
          if x.type.is_tensor else None)
    gy = (_unb(b, b.e1("aten::where", cond, zero, g), y)
          if y.type.is_tensor else None)
    return [None, gx, gy]


@register_vjp("aten::masked_fill")
def _vjp_masked_fill(b, node, grads):
    """Filled positions absorb no gradient."""
    g, t, mask = grads[0], node.input(0), node.input(1)
    return _pad_none(
        [_unb(b, b.e1("aten::where", mask, b.zeros_like(g), g), t), None],
        node)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_args(node: Node):
    """(dim, keepdim) of a reduction call, honouring bound defaults."""
    dim = (const_value(node.input(1), "reduction dim")
           if len(node.inputs) > 1 else None)
    keepdim = (bool(const_value(node.input(2), "reduction keepdim"))
               if len(node.inputs) > 2 else False)
    return dim, keepdim


def _expand_to(b: GradBuilder, g: Value, a: Value, dim, keepdim) -> Value:
    """Broadcast a reduced gradient back over the reduced extent."""
    if dim is not None and not keepdim:
        g = b.e1("aten::unsqueeze", g, b.const(int(dim)))
    return b.e1("aten::mul", b.e1("aten::ones_like", a), g)


@register_vjp("aten::sum")
def _vjp_sum(b, node, grads):
    """d sum spreads g uniformly over the reduced extent."""
    dim, keepdim = _reduce_args(node)
    return _pad_none([_expand_to(b, grads[0], node.input(0), dim, keepdim)],
                     node)


@register_vjp("aten::mean")
def _vjp_mean(b, node, grads):
    """Like sum, scaled by 1/count (count read as a float so float32
    graphs don't promote through int64 arithmetic)."""
    a = node.input(0)
    dim, keepdim = _reduce_args(node)
    if dim is None:
        count = b.e1("aten::numel", a)
    else:
        count = b.e1("aten::size", a, b.const(int(dim)))
    fcount = b.e1("aten::Float", count)
    g = b.e1("aten::div", grads[0], fcount)
    return _pad_none([_expand_to(b, g, a, dim, keepdim)], node)


def _vjp_minmax(b, node, grads):
    """Shared max/min rule: g lands on every argmax/argmin position
    (FD disagrees only at exact ties, which the grad-check harness
    detects as kinks and skips)."""
    g, a, y = grads[0], node.input(0), node.output(0)
    dim, keepdim = _reduce_args(node)
    if dim is not None and not keepdim:
        d = b.const(int(dim))
        y = b.e1("aten::unsqueeze", y, d)
        g = b.e1("aten::unsqueeze", g, d)
    mask = b.e1("aten::eq", a, y)
    return _pad_none([b.e1("aten::where", mask, b.e1("aten::mul",
                                                     b.e1("aten::ones_like",
                                                          a), g),
                           b.zeros_like(a))], node)


register_vjp("aten::max")(_vjp_minmax)
register_vjp("aten::min")(_vjp_minmax)


@register_vjp("aten::softmax")
def _vjp_softmax(b, node, grads):
    """d softmax = y * (g - sum(y*g, dim, keepdim))."""
    g, y, dim = grads[0], node.output(0), node.input(1)
    s = b.e1("aten::sum", b.e1("aten::mul", y, g), dim, b.const(True))
    return [b.e1("aten::mul", y, b.e1("aten::sub", g, s)), None]


@register_vjp("aten::log_softmax")
def _vjp_log_softmax(b, node, grads):
    """d log_softmax = g - exp(y) * sum(g, dim, keepdim)."""
    g, y, dim = grads[0], node.output(0), node.input(1)
    s = b.e1("aten::sum", g, dim, b.const(True))
    return [b.e1("aten::sub", g, b.e1("aten::mul", b.e1("aten::exp", y), s)),
            None]


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _mT(b: GradBuilder, v: Value) -> Value:
    """Transpose the two trailing (matrix) dims."""
    return b.e1("aten::transpose", v, b.const(-2), b.const(-1))


def _vjp_matmul(b, node, grads):
    """d(a@c) = (g @ cT, aT @ g), unbroadcast over batch dims."""
    g, a, c = grads[0], node.input(0), node.input(1)
    return [_unb(b, b.e1("aten::matmul", g, _mT(b, c)), a),
            _unb(b, b.e1("aten::matmul", _mT(b, a), g), c)]


register_vjp("aten::matmul")(_vjp_matmul)
register_vjp("aten::bmm")(_vjp_matmul)


@register_vjp("aten::linear")
def _vjp_linear(b, node, grads):
    """d(x@wT+bias) = (g@w, gT@x summed over batch, sum-reduce g)."""
    g, x, w = grads[0], node.input(0), node.input(1)
    gx = _unb(b, b.e1("aten::matmul", g, w), x)
    gw = _unb(b, b.e1("aten::matmul", _mT(b, g), x), w)
    gbias = None
    if len(node.inputs) > 2 and node.input(2).type.is_tensor:
        gbias = _unb(b, g, node.input(2))
    return _pad_none([gx, gw, gbias][:len(node.inputs)], node)


# ---------------------------------------------------------------------------
# views, accesses, and assigns (the §3.2 duality)
# ---------------------------------------------------------------------------

def _vjp_window_read(assign_op: str):
    """Adjoint of a window *read* (select/slice/narrow, view or
    access): write g into a zeros_like of the base through the dual
    assign, reusing the original window operands."""
    def rule(b, node, grads):
        t = node.input(0)
        rest = list(node.inputs)[1:]
        gt = b.e1(assign_op, b.zeros_like(t), grads[0], *rest)
        return _pad_none([gt], node)
    return rule


for _read, _assign in WINDOWS.items():
    register_vjp(_read)(_vjp_window_read(_assign))


def _vjp_select_assign(b, node, grads):
    """select_assign(base, src, dim, i): zero the written window in g
    for the base; read the window of g for the src."""
    g, src = grads[0], node.input(1)
    rest = list(node.inputs)[2:]
    gbase = b.e1("immut::select_assign", g, b.const(0.0), *rest)
    gsrc = (_unb(b, b.e1("immut::select", g, *rest), src)
            if src.type.is_tensor else None)
    return _pad_none([gbase, gsrc], node)


def _vjp_slice_assign(b, node, grads):
    """slice_assign analogue of :func:`_vjp_select_assign`."""
    g, src = grads[0], node.input(1)
    rest = list(node.inputs)[2:]
    gbase = b.e1("immut::slice_assign", g, b.const(0.0), *rest)
    gsrc = (_unb(b, b.e1("immut::slice", g, *rest), src)
            if src.type.is_tensor else None)
    return _pad_none([gbase, gsrc], node)


def _vjp_narrow_assign(b, node, grads):
    """narrow_assign analogue of :func:`_vjp_select_assign`."""
    g, src = grads[0], node.input(1)
    rest = list(node.inputs)[2:]
    gbase = b.e1("immut::narrow_assign", g, b.const(0.0), *rest)
    gsrc = (_unb(b, b.e1("immut::narrow", g, *rest), src)
            if src.type.is_tensor else None)
    return _pad_none([gbase, gsrc], node)


register_vjp("immut::select_assign")(_vjp_select_assign)
register_vjp("immut::slice_assign")(_vjp_slice_assign)
register_vjp("immut::narrow_assign")(_vjp_narrow_assign)


@register_vjp("immut::assign")
def _vjp_assign(b, node, grads):
    """A whole-tensor overwrite: the base contributes nothing."""
    src = node.input(1)
    return [None,
            _unb(b, grads[0], src) if src.type.is_tensor else None]


def _vjp_reshape_family(b, node, grads):
    """Adjoint of any metadata-only reshape: reshape g back to the
    input's shape (grad::reshape_like carries the shape statically)."""
    return _pad_none([b.e1("grad::reshape_like", grads[0], node.input(0))],
                     node)


for _n in ["aten::reshape", "aten::view", "aten::squeeze",
           "aten::unsqueeze", "aten::flatten", "immut::reshape",
           "immut::squeeze", "immut::unsqueeze", "immut::flatten"]:
    register_vjp(_n)(_vjp_reshape_family)


def _vjp_reshape_family_assign(b, node, grads):
    """A reshaped whole-tensor overwrite: base gets nothing, src gets g
    reshaped back to its own shape."""
    src = node.input(1)
    gsrc = (b.e1("grad::reshape_like", grads[0], src)
            if src.type.is_tensor else None)
    return _pad_none([None, gsrc], node)


for _n in ["immut::reshape_assign", "immut::squeeze_assign",
           "immut::unsqueeze_assign", "immut::flatten_assign"]:
    register_vjp(_n)(_vjp_reshape_family_assign)


def _vjp_permute(b, node, grads):
    """Permute g by the inverse permutation (a fresh constant)."""
    dims = [int(d) for d in const_value(node.input(1), "permutation")]
    inv = sorted(range(len(dims)), key=lambda i: dims[i] % len(dims))
    return [b.e1("aten::permute", grads[0], b.const(inv)), None]


register_vjp("aten::permute")(_vjp_permute)
register_vjp("immut::permute")(_vjp_permute)


def _vjp_transpose(b, node, grads):
    """Transposing back undoes the swap — reuse the dim operands."""
    return [b.e1("aten::transpose", grads[0], node.input(1), node.input(2)),
            None, None]


register_vjp("aten::transpose")(_vjp_transpose)
register_vjp("immut::transpose")(_vjp_transpose)


@register_vjp("immut::permute_assign")
def _vjp_permute_assign(b, node, grads):
    """permute_assign writes src.transpose(argsort(dims)) over the
    base, so g_src = g permuted by dims (the forward's own operand)."""
    return [None, b.e1("aten::permute", grads[0], node.input(2)), None]


@register_vjp("immut::transpose_assign")
def _vjp_transpose_assign(b, node, grads):
    """Swap the same two dims of g for the src."""
    return [None, b.e1("aten::transpose", grads[0], node.input(2),
                       node.input(3)), None, None]


def _vjp_expand(b, node, grads):
    """Sum the broadcast axes back down."""
    return _pad_none([_unb(b, grads[0], node.input(0))], node)


register_vjp("aten::expand")(_vjp_expand)
register_vjp("immut::expand")(_vjp_expand)


# ---------------------------------------------------------------------------
# concatenation / stacking
# ---------------------------------------------------------------------------

@register_vjp("aten::cat")
def _vjp_cat(b, node, grads):
    """Split g back into per-element narrows along the cat dim, with
    runtime ``aten::size`` offsets (symbolic-shape safe)."""
    g, lst = grads[0], node.input(0)
    d = node.input(1) if len(node.inputs) > 1 else b.const(0)
    src = lst.node
    if src is None or src.op != "prim::ListConstruct":
        raise GradError("aten::cat adjoint needs a prim::ListConstruct "
                        "operand")
    start: Value = b.const(0)
    parts: List[Value] = []
    for elem in src.inputs:
        size = b.e1("aten::size", elem, d)
        parts.append(_unb(b, b.e1("aten::narrow", g, d, start, size), elem))
        start = b.e1("prim::add", start, size)
    return _pad_none([parts], node)


@register_vjp("aten::stack")
def _vjp_stack(b, node, grads):
    """Select each stacked slice of g back out."""
    g, lst = grads[0], node.input(0)
    d = node.input(1) if len(node.inputs) > 1 else b.const(0)
    src = lst.node
    if src is None or src.op != "prim::ListConstruct":
        raise GradError("aten::stack adjoint needs a prim::ListConstruct "
                        "operand")
    parts = [_unb(b, b.e1("aten::select", g, d, b.const(k)), elem)
             for k, elem in enumerate(src.inputs)]
    return _pad_none([parts], node)


# ---------------------------------------------------------------------------
# creation ops: constants of the program, zero gradient everywhere
# ---------------------------------------------------------------------------

def _vjp_no_grad(b, node, grads):
    """Creation ops depend on no tensor input — all-None adjoints."""
    return [None] * len(node.inputs)


for _n in ["aten::zeros", "aten::ones", "aten::full", "aten::arange",
           "aten::zeros_like", "aten::ones_like", "aten::full_like"]:
    register_vjp(_n)(_vjp_no_grad)
