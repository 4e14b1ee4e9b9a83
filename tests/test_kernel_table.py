"""One row per operator: every execution runs the registry's one kernel.

Eager ``aten::*`` / ``immut::*`` ops, the in-place ``op_`` forms and
fused groups are all derived from ``OpSchema.kernel``
(:mod:`repro.runtime.kernels`).  These tests pin what that buys: the
compiled pipelines agree with eager in *dtype* as well as value on
every operand dtype (not just the float32 the workloads feed), argument
checks made by eager are made by fused kernels too, and each registry
row's ``fn`` is observably its ``kernel`` — and so is the in-place store
a compiled kernel runs in place of a window Assign's clone.
"""

import inspect

import numpy as np
import pytest

import repro.runtime as rt
from repro.analysis.ownership import ASSIGN_TO_VIEW
from repro.backend import compile_block
from repro.fuzz.oracle import materialize
from repro.ir import Graph
from repro.ir import types as T
from repro.ops import OpKind, all_ops, get
from repro.pipelines import get_pipeline

DTYPES = {"f32": np.float32, "f64": np.float64, "i32": np.int32,
          "i64": np.int64, "bool": np.bool_}


def _payload(dtype):
    return (np.arange(6).reshape(3, 2) + 1).astype(dtype)


# -- satellite: out-of-range select raises on every pipeline ---------------

_SELECT_OOB = """def f(x):
    y = x.clone()
    r = y.select(0, -4)
    r.add_(1.0)
    return y.mul(2.0)
"""


@pytest.mark.parametrize("pipeline", [
    "eager", "tensorssa_interp", "tensorssa", "ts_nnc", "ts_nvfuser",
    "dynamo_inductor"])
def test_out_of_range_select_raises_on_every_pipeline(pipeline):
    """A fused ``immut::select`` / ``immut::select_assign`` used to wrap
    an index below ``-size`` and silently touch the last row."""
    fn = materialize(_SELECT_OOB)
    x = np.arange(6, dtype=np.float32).reshape(3, 2)
    with pytest.raises(IndexError):
        compiled = get_pipeline(pipeline).compile(
            fn, example_args=(rt.from_numpy(x),))
        compiled(rt.from_numpy(x))


# -- satellite: the dtype matrix -------------------------------------------

_MATRIX_OPS = ["add", "sub", "mul", "div", "pow", "maximum", "minimum"]


@pytest.mark.parametrize("pipeline", ["tensorssa", "ts_nnc"])
@pytest.mark.parametrize("scalar", ["2", "0.1"])
@pytest.mark.parametrize("dtype", ["f32", "f64", "i32", "i64"])
@pytest.mark.parametrize("op", _MATRIX_OPS)
def test_scalar_promotion_matrix(op, dtype, scalar, pipeline):
    """``op_`` on a select view, then the functional form twice (so the
    compiled side fuses it): eager and compiled agree in dtype and bits
    for every tensor dtype x Python scalar kind."""
    fn = materialize(f"def f(x):\n    y = x.clone()\n"
                     f"    r = y.select(0, 1)\n    r.{op}_({scalar})\n"
                     f"    return y.{op}({scalar}).{op}({scalar})\n")
    x = _payload(DTYPES[dtype])
    want = fn(rt.from_numpy(x))
    got = get_pipeline(pipeline).compile(
        fn, example_args=(rt.from_numpy(x),))(rt.from_numpy(x))
    assert rt.bit_exact(got, want), (got, want)


def test_promotion_rule_is_nep50_weak_scalars():
    i32 = rt.from_numpy(_payload(np.int32))
    f64 = rt.from_numpy(_payload(np.float64))
    assert (i32 + 2).dtype is rt.int32
    assert (2 - i32).dtype is rt.int32
    assert (i32 * 0.5).dtype is rt.float32       # default float
    assert (f64 * 0.1).dtype is rt.float64
    assert np.array_equal((f64 * 0.1).numpy(), _payload(np.float64) * 0.1)


# -- satellite: fn == kernel, row by row -----------------------------------

_KERNEL_ROWS = [s for s in all_ops() if s.kernel is not None]
_INPLACE_ROWS = [s for s in all_ops() if s.kind is OpKind.MUTATING
                 and s.functional_op and get(s.functional_op).kernel]
_OPERANDS = {"tensor": None, "int": 2, "float": 0.5}
#: how a parameter of a kernel signature is filled, by name
_PARAMS = {"dim": 0, "index": 1, "start": 0, "end": 2, "step": 1,
           "length": 2, "dims": (1, 0), "dim0": 0, "dim1": 1,
           "start_dim": 0, "end_dim": -1, "dtype": rt.float32}


def _arguments(schema, kernel, dtype, operand):
    """(raw args for the kernel, the same args with arrays as Tensors)."""
    first = _payload(dtype)
    if schema.name.startswith("prim::"):  # host scalars only
        first = first.reshape(-1)[2].item()
    other = first if operand == "tensor" else _OPERANDS[operand]
    raw = [first]
    try:
        names = list(inspect.signature(kernel).parameters)
    except ValueError:  # the builtins behind prim::min / prim::max
        names = ["a", "b"]
    for name in names[1:]:
        if name in ("mask", "cond"):
            raw.append(_payload(np.int64) % 2 == 0)
        elif name == "shape":
            raw.append((3, 2) if "expand" in schema.name else (2, 3))
        else:  # b, src, value, min_val, max_val: the swept operand
            raw.append(_PARAMS.get(name, other))
    if schema.name.endswith("assign") and operand == "tensor":
        # a tensor source has the shape of the window it replaces:
        # what the Access twin (same view parameters) reads
        view = schema.name[len("immut::"):-len("assign")].rstrip("_")
        access = get("immut::" + (view or "alias"))
        raw[1] = np.array(access.kernel(first, *raw[2:]))
    wrapped = [rt.from_numpy(a) if isinstance(a, np.ndarray) else a
               for a in raw]
    return raw, wrapped


def _outcome(call):
    try:
        return None, call()
    except Exception as exc:  # the *type* raised is part of the contract
        return type(exc), None


@pytest.mark.parametrize("schema", _KERNEL_ROWS, ids=lambda s: s.name)
def test_fn_is_its_kernel(schema):
    """``schema.fn`` on Tensors and ``schema.kernel`` on the raw arrays
    agree in dtype, shape, values and raised exception type."""
    for dtype in DTYPES.values():
        for operand in _OPERANDS:
            raw, wrapped = _arguments(schema, schema.kernel, dtype, operand)
            with np.errstate(all="ignore"):
                k_exc, k_out = _outcome(lambda: schema.kernel(*raw))
                f_exc, f_out = _outcome(lambda: schema.fn(*wrapped))
            where = f"{schema.name} {np.dtype(dtype)} x {operand}"
            assert f_exc is k_exc, where
            if k_exc is None:
                assert rt.bit_exact(f_out, np.asarray(k_out)), where


@pytest.mark.parametrize("schema", _INPLACE_ROWS, ids=lambda s: s.name)
def test_inplace_is_the_functional_kernel_written_through(schema):
    """``op_`` == its functional row's kernel value cast to the target."""
    kernel = get(schema.functional_op).kernel
    for dtype in DTYPES.values():
        for operand in _OPERANDS:
            raw, wrapped = _arguments(schema, kernel, dtype, operand)
            with np.errstate(all="ignore"):
                k_exc, k_out = _outcome(
                    lambda: np.asarray(kernel(*raw)).astype(dtype))
                f_exc, f_out = _outcome(lambda: schema.fn(*wrapped))
            where = f"{schema.name} {np.dtype(dtype)} x {operand}"
            assert f_exc is k_exc, where
            if k_exc is None:
                assert f_out is wrapped[0] and f_out.version == 1, where
                assert rt.bit_exact(f_out, k_out), where


# -- the store form of a window Assign == the row's kernel -------------------

_WINDOW_ASSIGNS = [s for s in _KERNEL_ROWS
                   if s.name in ASSIGN_TO_VIEW and s.aliases is None]


def _store_form(schema):
    """The row compiled alone, its base a kernel input: the body copies
    the base once and stores through the view kernel into the copy —
    the execution ``backend/codegen.py`` derives for an owned buffer."""
    g = Graph()
    ins = [g.add_input(name, T.TensorType())
           for name in inspect.signature(schema.kernel).parameters]
    node = g.block.append(g.create(schema.name, ins, ["out"],
                                   [T.TensorType()]))
    g.add_output(node.output())
    kernel = compile_block(g.block)
    assert kernel.__assigns__ == {"stores": 1, "identities": 0, "clones": []}
    assert "[...] = v1" in kernel.__source__
    assert schema.name not in kernel.__source__
    return kernel


def _same_as_row(schema, store, raw, where):
    before = np.array(raw[0], copy=True)
    with np.errstate(all="ignore"):
        k_exc, k_out = _outcome(lambda: schema.kernel(*raw))
        s_exc, s_out = _outcome(lambda: store(list(raw))[0])
    assert s_exc is k_exc, where
    if k_exc is None:
        assert rt.bit_exact(s_out, k_out), where
    assert rt.bit_exact(raw[0], before), where  # the input is never written


@pytest.mark.parametrize("schema", _WINDOW_ASSIGNS, ids=lambda s: s.name)
def test_store_form_is_the_row(schema):
    """Bit for bit over base dtype x source kind — an int32 base takes a
    float32 tensor, a Python float rounds once (in the store's cast),
    bool — with the window's argument checks the view's own."""
    assert len(_WINDOW_ASSIGNS) == 6
    store = _store_form(schema)
    for dtype in DTYPES.values():
        for operand in _OPERANDS:
            raw, _ = _arguments(schema, schema.kernel, dtype, operand)
            where = f"{schema.name} {np.dtype(dtype)} x {operand}"
            _same_as_row(schema, store, raw, where)
            if operand == "tensor":  # e.g. int32 base <- float32 source
                raw[1] = (raw[1] * 1.5).astype(np.float32)
                _same_as_row(schema, store, raw, where + " <- f32")


@pytest.mark.parametrize("op, bad", [
    ("immut::select_assign", {"index": 3}),
    ("immut::select_assign", {"index": -4}),
    ("immut::select_assign", {"dim": 2}),
    ("immut::slice_assign", {"step": 0}),
    ("immut::slice_assign", {"step": -1}),
    ("immut::narrow_assign", {"dim": -3}),
    ("immut::permute_assign", {"dims": (0, 0)}),
    ("immut::transpose_assign", {"dim1": 2}),
])
def test_store_form_raises_what_the_row_raises(op, bad):
    schema = get(op)
    raw, _ = _arguments(schema, schema.kernel, np.float32, "float")
    names = list(inspect.signature(schema.kernel).parameters)
    for name, value in bad.items():
        raw[names.index(name)] = value
    exc, _ = _outcome(lambda: schema.kernel(*raw))
    assert exc in (IndexError, ValueError)
    _same_as_row(schema, _store_form(schema), raw, f"{op} {bad}")
