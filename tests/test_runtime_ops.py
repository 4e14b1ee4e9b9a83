"""Compute operators vs the numpy oracle."""

import itertools

import numpy as np
import pytest

import repro.runtime as rt
from conftest import assert_tensor_equal


@pytest.fixture
def x(rng):
    return rt.from_numpy(rng.standard_normal((3, 4)).astype(np.float32))


@pytest.fixture
def y(rng):
    return rt.from_numpy(rng.standard_normal((3, 4)).astype(np.float32) + 2)


class TestElementwise:
    @pytest.mark.parametrize("op,ref", [
        (rt.add, np.add), (rt.sub, np.subtract), (rt.mul, np.multiply),
        (rt.div, np.true_divide), (rt.maximum, np.maximum),
        (rt.minimum, np.minimum),
    ])
    def test_binary(self, op, ref, x, y):
        assert_tensor_equal(op(x, y), ref(x.numpy(), y.numpy()))

    @pytest.mark.parametrize("op,ref", [
        (rt.neg, np.negative), (rt.exp, np.exp), (rt.tanh, np.tanh),
        (rt.sqrt, lambda a: np.sqrt(np.abs(a))),
    ])
    def test_unary(self, op, ref, x):
        inp = x if op is not rt.sqrt else x.abs()
        assert_tensor_equal(op(inp), ref(inp.numpy()), rtol=1e-5)

    def test_sigmoid(self, x):
        ref = 1 / (1 + np.exp(-x.numpy()))
        assert_tensor_equal(rt.sigmoid(x), ref)

    def test_relu(self, x):
        assert_tensor_equal(rt.relu(x), np.maximum(x.numpy(), 0))

    def test_clamp(self, x):
        assert_tensor_equal(rt.clamp(x, -0.5, 0.5),
                            np.clip(x.numpy(), -0.5, 0.5))
        assert_tensor_equal(rt.clamp(x, min_val=0.0),
                            np.clip(x.numpy(), 0.0, np.inf))

    def test_where(self, x, y):
        cond = x > 0
        assert_tensor_equal(rt.where(cond, x, y),
                            np.where(x.numpy() > 0, x.numpy(), y.numpy()))

    def test_clone_detaches(self, x):
        c = x.clone()
        c.fill_(0)
        assert x.numpy().any()

    def test_broadcasting(self):
        a = rt.ones((3, 1))
        b = rt.tensor([1.0, 2.0, 3.0])
        assert rt.add(a, b).shape == (3, 3)

    def test_to_dtype(self):
        a = rt.tensor([1.9, -1.9])
        assert a.to(rt.int64).tolist() == [1, -1]
        assert a.to(rt.bool_).tolist() == [True, True]


class TestReductions:
    def test_sum_all_and_dim(self, x):
        assert rt.sum(x).item() == pytest.approx(x.numpy().sum(), rel=1e-5)
        assert_tensor_equal(rt.sum(x, dim=1), x.numpy().sum(axis=1))
        assert rt.sum(x, dim=0, keepdim=True).shape == (1, 4)

    def test_mean_max_min(self, x):
        assert rt.mean(x).item() == pytest.approx(x.numpy().mean(), rel=1e-5)
        assert_tensor_equal(rt.max(x, dim=0), x.numpy().max(axis=0))
        assert_tensor_equal(rt.min(x, dim=1), x.numpy().min(axis=1))

    def test_argmax(self, x):
        assert_tensor_equal(rt.argmax(x, dim=1),
                            np.argmax(x.numpy(), axis=1))
        assert rt.argmax(x).item() == np.argmax(x.numpy())

    def test_cumsum(self, x):
        assert_tensor_equal(rt.cumsum(x, 1), np.cumsum(x.numpy(), axis=1))

    def test_softmax_rows_sum_to_one(self, x):
        s = rt.softmax(x, dim=1)
        assert_tensor_equal(rt.sum(s, dim=1), np.ones(3))

    def test_softmax_is_stable_for_large_values(self):
        s = rt.softmax(rt.tensor([1000.0, 1000.0]), dim=0)
        assert s.tolist() == [0.5, 0.5]


class TestLinalg:
    def test_matmul(self, rng):
        a = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        assert_tensor_equal(rt.matmul(rt.from_numpy(a), rt.from_numpy(b)),
                            a @ b, rtol=1e-4)

    def test_bmm(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        b = rng.standard_normal((2, 4, 5)).astype(np.float32)
        assert_tensor_equal(rt.bmm(rt.from_numpy(a), rt.from_numpy(b)),
                            a @ b, rtol=1e-4)
        with pytest.raises(ValueError):
            rt.bmm(rt.zeros((3, 4)), rt.zeros((4, 5)))

    def test_linear(self, rng):
        # bit for bit ``np.matmul(x, w.T) + b`` on both sides of
        # ``linalg.SWAP_MAX_ROWS`` (one row, 2..64 rows swapped, 65 and
        # up), for 1-D, 2-D, 3-D and column-strided x; C-contiguous,
        # dtype kept
        k = 64
        for dtype, n, rows in itertools.product(
                (np.float32, np.float64), (7, 512, 1024, 2048),
                (1, 2, 3, 4, 8, 16, 32, 64, 65, 128)):
            w = rng.standard_normal((n, k)).astype(dtype)
            b = rng.standard_normal((n,)).astype(dtype)
            wide = rng.standard_normal((2, rows, 2 * k)).astype(dtype)
            view = rt.from_numpy(wide)
            xs = (view[0, 0, :k], rt.from_numpy(wide[0, :, :k]),
                  rt.from_numpy(wide[:, :, :k]), view[0, :, ::2])
            for tx, bias in itertools.product(xs, (None, b)):
                got = rt.linear(tx, rt.from_numpy(w),
                                None if bias is None else rt.from_numpy(bias))
                x = tx._array
                ref = np.matmul(x, w.T) if bias is None \
                    else np.matmul(x, w.T) + bias
                case = (dtype.__name__, n, x.shape, x.strides, bias is None)
                assert got._array.dtype == dtype, case
                assert got._array.flags.c_contiguous, case
                assert np.array_equal(got._array, ref), case


class TestShapeOps:
    def test_cat_stack(self):
        a, b = rt.ones((2, 2)), rt.zeros((2, 2))
        assert rt.cat([a, b], 0).shape == (4, 2)
        assert rt.cat([a, b], 1).shape == (2, 4)
        assert rt.stack([a, b], 0).shape == (2, 2, 2)

    def test_index_select_gather(self):
        a = rt.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        sel = rt.index_select(a, 0, rt.tensor([2, 0]))
        assert sel.numpy()[0].tolist() == [5.0, 6.0]
        g = rt.gather(a, 1, rt.tensor([[0], [1], [0]]))
        assert g.numpy().ravel().tolist() == [1.0, 4.0, 5.0]

    def test_topk(self):
        vals, idx = rt.topk(rt.tensor([1.0, 9.0, 3.0, 7.0]), 2)
        assert vals.tolist() == [9.0, 7.0]
        assert idx.tolist() == [1, 3]
        vals, idx = rt.topk(rt.tensor([1.0, 9.0, 3.0]), 2, largest=False)
        assert vals.tolist() == [1.0, 3.0]

    def test_sort(self):
        vals, idx = rt.sort(rt.tensor([3.0, 1.0, 2.0]), descending=True)
        assert vals.tolist() == [3.0, 2.0, 1.0]
        assert idx.tolist() == [0, 2, 1]

    def test_nonzero(self):
        nz = rt.nonzero(rt.tensor([0.0, 1.0, 0.0, 2.0]))
        assert nz.numpy().ravel().tolist() == [1, 3]
        assert rt.nonzero(rt.zeros((3,))).shape[0] == 0

    def test_masked_fill_pure_vs_inplace(self):
        a = rt.tensor([1.0, 2.0, 3.0])
        mask = a > 1.5
        pure = rt.masked_fill(a, mask, 0.0)
        assert a.tolist() == [1.0, 2.0, 3.0]  # untouched
        a.masked_fill_(mask, 0.0)
        assert a.tolist() == pure.tolist() == [1.0, 0.0, 0.0]

    def test_index_put_pure_vs_inplace(self):
        a = rt.zeros((4,))
        idx = rt.tensor([0, 2])
        src = rt.tensor([5.0, 6.0])
        pure = rt.index_put(a, idx, src)
        assert a.numpy().sum() == 0
        a.index_put_(idx, src)
        assert a.tolist() == pure.tolist()

    def test_chunk_views(self):
        a = rt.arange(6)
        c0, c1, c2 = rt.chunk(a, 3)
        assert c1.tolist() == [2, 3]
        c1.fill_(0)
        assert a.tolist() == [0, 1, 0, 0, 4, 5]

    def test_embedding(self):
        w = rt.tensor([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        e = rt.embedding(w, rt.tensor([2, 1]))
        assert e.numpy()[0].tolist() == [2.0, 2.0]
