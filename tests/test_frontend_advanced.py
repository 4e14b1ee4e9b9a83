"""Scripting frontend: advanced features and diagnostics."""

import numpy as np
import pytest

import repro.runtime as rt
from repro.frontend import ScriptError, script
from test_frontend_basic import check

H = 4  # module-level constant captured by scripted code
WEIGHT = rt.ones((H,))


def closure_scalar(x):
    return x * float(H)


def closure_tensor(x):
    return x + WEIGHT


def closure_tensor_method(x):
    return x + WEIGHT.sum()


def dtype_constant(x):
    return x.to(rt.int64).to(rt.float32)


def shape_sugar(x):
    r = x.shape[0]
    c = x.shape[1]
    return rt.zeros((c, r)) + float(r * 10 + c)


def nested_helpers(x):
    return _outer_helper(x) * 2.0


def _inner_helper(v):
    return v + 1.0


def _outer_helper(v):
    return _inner_helper(v) * _inner_helper(v)


def helper_with_defaults(x):
    return _scaled(x) + _scaled(x, 3.0)


def _scaled(v, k: float = 2.0):
    return v * k


def bool_ops(a: int, b: int):
    flag = a > 0 and b > 0 or a == b
    if not flag:
        out = 0
    else:
        out = 1
    return out


def chained_subscript(x):
    y = x.clone()
    y[0][1] = 9.0
    return y


def negative_indices(x):
    return x[-1] + x[:, -1].sum()


def unsqueeze_via_none(x):
    return x[None] * 2.0


def min_max_builtins(a: int, b: int, x):
    lo = min(a, b)
    hi = max(a, b, 10)
    return x * float(hi - lo)


def abs_builtin(a: int, x):
    return x * float(abs(a))


def index_key_aug_assign(x, index):
    y = x.clone()
    y[index] += 1.0   # an in-place op on the gathered rows, scattered back
    y[index] %= 0.75  # no in-place op: y[index] = y[index] % 0.75
    return y


def while_with_break_condition(x):
    total = x.clone()
    steps = 0
    while steps < 3:
        total += 1.0
        steps += 1
    return total, steps


class TestAdvanced:
    def test_closure_scalar(self):
        check(closure_scalar, rt.rand((3,), seed=1))

    def test_closure_tensor(self):
        check(closure_tensor, rt.rand((H,), seed=2))

    def test_closure_tensor_method(self):
        check(closure_tensor_method, rt.rand((H,), seed=3))

    def test_dtype_constants(self):
        check(dtype_constant, rt.tensor([1.7, -2.3]))

    def test_shape_sugar(self):
        check(shape_sugar, rt.rand((3, 5), seed=4))

    def test_nested_helper_inlining(self):
        check(nested_helpers, rt.rand((2,), seed=5))

    def test_helper_default_args(self):
        check(helper_with_defaults, rt.rand((2,), seed=6))

    def test_scalar_bool_ops(self):
        for a, b in ((1, 2), (-1, 2), (0, 0)):
            check(bool_ops, a, b)

    def test_chained_subscript_store(self):
        check(chained_subscript, rt.rand((2, 3), seed=7))

    def test_negative_indices(self):
        check(negative_indices, rt.rand((3, 4), seed=8))

    def test_none_unsqueeze(self):
        check(unsqueeze_via_none, rt.rand((3,), seed=9))

    def test_min_max_builtins(self):
        check(min_max_builtins, 3, 7, rt.rand((2,), seed=10))

    def test_abs_builtin(self):
        check(abs_builtin, -4, rt.rand((2,), seed=11))
        check(abs_builtin, 4, rt.rand((2,), seed=11))

    def test_while_counting(self):
        check(while_with_break_condition, rt.rand((2,), seed=12))

    def test_index_key_aug_assign_writes_back(self):
        """``y[i] op= v`` with a tensor key: Python stores the result
        back (the load was a copy), so the update must reach ``y``."""
        check(index_key_aug_assign, rt.rand((4, 3), seed=13),
              rt.tensor([0, 2]))


class TestDiagnostics:
    def _expect(self, fn, fragment):
        with pytest.raises(ScriptError) as err:
            script(fn)
        assert fragment in str(err.value), str(err.value)

    def test_unknown_method(self):
        def f(x):
            return x.definitely_not_a_method()
        self._expect(f, "unknown tensor method")

    def test_dict_literal(self):
        def f(x):
            d = {"a": x}
            return d["a"]
        self._expect(f, "unsupported")

    def test_for_over_list(self):
        def f(x):
            parts = [x, x]
            total = x * 0.0
            for p in parts:
                total = total + p
            return total
        self._expect(f, "range")

    def test_list_item_store(self):
        def f(x):
            parts = [x]
            parts[0] = x * 2.0
            return parts[0]
        self._expect(f, "list item assignment")

    def test_inline_recursion_guard(self):
        def loop_a(x):
            return loop_b(x)

        def loop_b(x):
            return loop_a(x)

        def f(x):
            return loop_a(x)
        self._expect(f, "too deep")

    def test_error_carries_line_number(self):
        def f(x):
            y = x + 1.0
            return {"bad": y}
        with pytest.raises(ScriptError) as err:
            script(f)
        assert "(f:" in str(err.value)

    def test_kwargs_call_rejected(self):
        def f(x):
            return _kw(**{"v": x})

        def _kw(v):
            return v
        self._expect(f, "**kwargs")


class TestGraphHygiene:
    def test_constants_deduped_per_block(self):
        def f(x):
            return x + 1.0 + 1.0 + 1.0
        g = script(f).graph
        ones = [n for n in g.block.nodes if n.op == "prim::Constant"
                and n.attrs.get("value") == 1.0]
        assert len(ones) == 1

    def test_scripted_callable_wraps_metadata(self):
        s = script(closure_scalar)
        assert s.__name__ == "closure_scalar"
        assert "graph" in repr(s)

    def test_scripting_a_scripted_fn_inlines(self):
        inner = script(_inner_helper)

        def f(x):
            return inner(x) * 2.0
        out = script(f)(rt.tensor([1.0]))
        assert out.item() == 4.0
