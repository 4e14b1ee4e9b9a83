"""Tensor, storage, views, and aliasing semantics (paper §2.1)."""

import numpy as np
import pytest

import repro.runtime as rt
from conftest import assert_tensor_equal


class TestCreation:
    def test_tensor_from_list(self):
        t = rt.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype is rt.float32
        assert t.numel == 4

    def test_int_list_infers_int64(self):
        t = rt.tensor([1, 2, 3])
        assert t.dtype is rt.int64

    def test_zeros_ones_full(self):
        assert rt.zeros((2, 3)).numpy().sum() == 0
        assert rt.ones((2, 3)).numpy().sum() == 6
        assert rt.full((2,), 7.0).numpy().tolist() == [7.0, 7.0]

    def test_arange(self):
        assert rt.arange(5).tolist() == [0, 1, 2, 3, 4]
        assert rt.arange(2, 5).tolist() == [2, 3, 4]

    def test_rand_is_seeded(self):
        a = rt.rand((4,), seed=42)
        b = rt.rand((4,), seed=42)
        assert_tensor_equal(a, b)

    def test_from_numpy_copies(self):
        arr = np.ones(3, dtype=np.float32)
        t = rt.from_numpy(arr)
        arr[0] = 99
        assert t.numpy()[0] == 1.0

    def test_item_and_errors(self):
        assert rt.tensor([3.5]).item() == pytest.approx(3.5)
        with pytest.raises(ValueError):
            rt.tensor([1.0, 2.0]).item()


class TestViewsAlias:
    def test_select_shares_storage(self):
        a = rt.zeros((3, 3))
        row = a.select(0, 1)
        assert row.is_view and row.shares_storage_with(a)

    def test_paper_figure1_view_mutation(self):
        # B = A[...]; B.copy_(C)  =>  A is mutated through the view.
        A = rt.zeros((2, 2))
        B = A.select(0, 0)
        C = rt.ones((2,))
        B.copy_(C)
        assert A.numpy()[0].tolist() == [1.0, 1.0]
        assert A.numpy()[1].tolist() == [0.0, 0.0]

    def test_mutation_bumps_version(self):
        a = rt.zeros((4,))
        v0 = a.version
        a.add_(1)
        assert a.version == v0 + 1
        b = a.select(0, 2)
        b.fill_(9)
        assert a.version == v0 + 2

    def test_select_0d_view(self):
        a = rt.tensor([1.0, 2.0, 3.0])
        el = a.select(0, 1)
        assert el.shape == ()
        el.fill_(9.0)
        assert a.numpy()[1] == 9.0

    def test_negative_select(self):
        a = rt.tensor([1.0, 2.0, 3.0])
        assert a.select(0, -1).item() == 3.0

    def test_select_out_of_range(self):
        with pytest.raises(IndexError):
            rt.zeros((3,)).select(0, 3)

    def test_slice_view_writes_back(self):
        a = rt.arange(6).to(rt.float32).reshape((2, 3))
        s = a.slice(1, 0, 2)
        s.mul_(10)
        assert a.numpy()[0].tolist() == [0.0, 10.0, 2.0]

    def test_slice_with_step(self):
        a = rt.arange(6)
        s = a.slice(0, 0, None, 2)
        assert s.tolist() == [0, 2, 4]

    def test_narrow(self):
        a = rt.arange(6)
        assert a.narrow(0, 2, 3).tolist() == [2, 3, 4]

    def test_chained_views_mutate_root(self):
        a = rt.zeros((2, 3, 4))
        v = a.select(0, 1).slice(0, 0, 2).select(1, 3)
        v.fill_(5)
        assert a.numpy()[1, 0, 3] == 5 and a.numpy()[1, 1, 3] == 5
        assert a.numpy().sum() == 10

    def test_reshape_contiguous_is_view(self):
        a = rt.zeros((2, 3))
        r = a.reshape((3, 2))
        assert r.is_view
        r.fill_(1)
        assert a.numpy().sum() == 6

    def test_reshape_that_copies_owns_its_storage(self):
        """numpy >= 2 gives a *copying* reshape a ``.base`` (the
        temporary copy), so "has a base" no longer means "is a view":
        the result used to be wrapped as a view sharing no memory."""
        a = rt.arange(12).to(rt.float32).reshape((3, 4))
        with rt.profile() as prof:
            r = a.transpose(0, 1).reshape([12])
        assert not r.is_view and not r.shares_storage_with(a)
        assert [e.op for e in prof.events] == ["reshape_copy"]
        r.add_(100.0)
        assert a.version == 0 and a.numpy()[0].tolist() == [0, 1, 2, 3]
        assert a[0:0].reshape((0, 4)).is_view  # an empty view is a view

    def test_view_requires_contiguous(self):
        a = rt.zeros((2, 3)).transpose(0, 1)
        with pytest.raises(RuntimeError):
            a.view((6,))

    def test_permute_transpose(self):
        a = rt.rand((2, 3, 4), seed=1)
        p = a.permute([2, 0, 1])
        assert p.shape == (4, 2, 3)
        t = a.transpose(0, 2)
        assert t.shape == (4, 3, 2)
        assert p.is_view and t.is_view

    def test_squeeze_unsqueeze(self):
        a = rt.zeros((2, 1, 3))
        assert a.squeeze(1).shape == (2, 3)
        assert a.squeeze().shape == (2, 3)
        assert a.unsqueeze(0).shape == (1, 2, 1, 3)
        assert a.unsqueeze(-1).shape == (2, 1, 3, 1)

    def test_expand_stride0(self):
        a = rt.tensor([[1.0], [2.0]])
        e = a.expand((2, 4))
        assert e.shape == (2, 4)
        assert e.numpy()[1].tolist() == [2.0] * 4

    def test_expanded_view_rejects_mutation(self):
        e = rt.tensor([1.0]).expand((4,))
        with pytest.raises(Exception):
            e.fill_(3)

    def test_flatten(self):
        a = rt.zeros((2, 3, 4))
        assert a.flatten().shape == (24,)
        assert a.flatten(1).shape == (2, 12)


class TestSubscripts:
    def test_getitem_int_slice(self):
        a = rt.arange(12).reshape((3, 4))
        assert a[1].tolist() == [4, 5, 6, 7]
        assert a[1, 2].item() == 6
        assert a[0:2, 1].tolist() == [1, 5]
        assert a[..., -1].tolist() == [3, 7, 11]

    def test_setitem_scalar_and_tensor(self):
        a = rt.zeros((3, 3))
        a[0] = 5.0
        a[1, 1] = rt.tensor(7.0)
        a[2, 0:2] = rt.tensor([1.0, 2.0])
        out = a.numpy()
        assert out[0].tolist() == [5.0] * 3
        assert out[1, 1] == 7.0
        assert out[2].tolist() == [1.0, 2.0, 0.0]

    def test_setitem_bool_mask(self):
        a = rt.tensor([1.0, -2.0, 3.0, -4.0])
        a[a < 0] = 0.0
        assert a.tolist() == [1.0, 0.0, 3.0, 0.0]

    def test_getitem_bool_mask(self):
        a = rt.tensor([1.0, -2.0, 3.0])
        sel = a[a > 0.0]
        assert sel.tolist() == [1.0, 3.0]

    def test_getitem_index_tensor(self):
        a = rt.tensor([10.0, 20.0, 30.0])
        idx = rt.tensor([2, 0])
        assert a[idx].tolist() == [30.0, 10.0]

    def test_setitem_index_tensor(self):
        a = rt.zeros((4,))
        a[rt.tensor([1, 3])] = rt.tensor([5.0, 6.0])
        assert a.tolist() == [0.0, 5.0, 0.0, 6.0]

    def test_none_inserts_dim(self):
        a = rt.zeros((3,))
        assert a[None].shape == (1, 3)


class TestOperatorSugar:
    def test_arith(self):
        a = rt.tensor([1.0, 2.0])
        assert (a + 1).tolist() == [2.0, 3.0]
        assert (1 + a).tolist() == [2.0, 3.0]
        assert (a - 1).tolist() == [0.0, 1.0]
        assert (2 - a).tolist() == [1.0, 0.0]
        assert (a * 3).tolist() == [3.0, 6.0]
        assert (a / 2).tolist() == [0.5, 1.0]
        assert (6 / a).tolist() == [6.0, 3.0]
        assert (-a).tolist() == [-1.0, -2.0]
        assert (a ** 2).tolist() == [1.0, 4.0]

    def test_comparisons(self):
        a = rt.tensor([1.0, 2.0, 3.0])
        assert (a > 2).tolist() == [False, False, True]
        assert (a <= 2).tolist() == [True, True, False]
        assert (a == 2).tolist() == [False, True, False]

    def test_matmul_operator(self):
        a = rt.tensor([[1.0, 0.0], [0.0, 2.0]])
        b = rt.tensor([[3.0], [4.0]])
        assert (a @ b).numpy().ravel().tolist() == [3.0, 8.0]

    def test_iadd_is_inplace(self):
        a = rt.tensor([1.0, 2.0])
        alias = a.select(0, 0)
        a += 1
        assert alias.item() == 2.0  # mutated through the alias

    def test_float32_preserved_under_scalar_ops(self):
        a = rt.tensor([1.0])
        assert (a + 1).dtype is rt.float32
        assert (a * 2.5).dtype is rt.float32
        assert a.sigmoid().dtype is rt.float32

    def test_bool_of_multielement_raises(self):
        with pytest.raises(ValueError):
            bool(rt.tensor([1.0, 2.0]))


class TestBitExact:
    """``rt.bit_exact`` — the one comparator every oracle shares."""

    @pytest.mark.parametrize("got,expected,same", [
        (np.float32([1, np.nan]), np.float32([1, np.nan]), True),
        (np.float32([1, 2]), np.float64([1, 2]), False),      # dtype
        (np.float32([1, 2]), np.float32([[1, 2]]), False),    # shape
        (np.int64([1, 2]), np.int64([1, 2]), True),
        (np.array([True, False]), np.array([True, False]), True),
        (np.float32([0.0]), np.float32([1e-9]), False),
    ])
    def test_single_outputs(self, got, expected, same):
        assert rt.bit_exact(got, expected) is same
        assert rt.bit_exact(rt.from_numpy(got), expected) is same

    def test_tuples_compare_arity_then_elementwise(self):
        a, b = rt.tensor([1.0]), rt.tensor([2.0])
        assert rt.bit_exact((a, b), (a, b))
        assert rt.bit_exact([a, b], (a, b))
        assert not rt.bit_exact((a, b), (a,))
        assert not rt.bit_exact((a, b), (b, a))
