import math
import os
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ReferenceAdam, _scatter_add, assert_packed, assert_same_bits

import cyclegnn.tensor as tensor_mod
from cyclegnn.tensor import (
    EVAL,
    RECAL,
    TRAIN,
    Adam,
    BatchNormState,
    Segments,
    Tensor,
    add,
    backward,
    batchnorm,
    bce_with_logits_masked,
    dropout,
    embedding_sum,
    gather_rows,
    gradcheck,
    load_checkpoint,
    _Pooled,
    matmul,
    mul,
    no_grad,
    relu,
    save_checkpoint,
    segment_mean,
    segment_sum,
    sigmoid,
    tsum,
)


def t64(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestArithmetic:
    def test_identity_matmul(self):
        x = t64(np.arange(6).reshape(2, 3))
        out = matmul(t64(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matmul_hand_value(self):
        out = matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        np.testing.assert_array_equal(out.data, [[3], [7]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_matmul_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)), grad=True)
        b = t64(rng.normal(size=(4, 2)), grad=True)
        err = gradcheck(lambda: tsum(matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(1)
        x = t64(rng.normal(size=(4, 3)), grad=True)
        bias = t64(rng.normal(size=3), grad=True)
        err = gradcheck(lambda: tsum((x + bias) * (x + bias)), [x, bias])
        assert err < 1e-6

    def test_chain_rule_square(self):
        x = t64([[3.0]], grad=True)
        backward(tsum(x * x))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_independent_graphs_do_not_interfere(self):
        x = t64([2.0], grad=True)
        y = t64([5.0], grad=True)
        backward(tsum(x * x))
        backward(tsum(y * y))
        np.testing.assert_allclose(x.grad, [4.0])
        np.testing.assert_allclose(y.grad, [10.0])

    def test_backward_requires_scalar(self):
        x = t64([1.0, 2.0], grad=True)
        with pytest.raises(ValueError):
            backward(x + x)


class TestTapeRelease:
    def test_backward_frees_the_tape_while_loss_and_logits_stay_bound(self):
        rng = np.random.default_rng(21)
        n, h = 600, 48
        weights = [Tensor(rng.normal(size=(h, h)).astype(np.float32) / h, requires_grad=True) for _ in range(3)]
        gammas = [Tensor(np.ones(h, np.float32), requires_grad=True) for _ in range(3)]
        betas = [Tensor(np.zeros(h, np.float32), requires_grad=True) for _ in range(3)]
        head = Tensor(rng.normal(size=(h, 1)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(n, h)).astype(np.float32))
        plan = Segments(rng.integers(0, n, size=3 * n), n)
        states = [BatchNormState.initial(h) for _ in range(3)]
        targets = np.ones((n, 1), np.float32)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            z = x
            for w, gamma, beta, state in zip(weights, gammas, betas, states):
                z = add(z, segment_sum(relu(gather_rows(z, plan)), plan))
                z = relu(batchnorm(matmul(z, w), gamma, beta, state, TRAIN))
            logits = matmul(z, head)
            loss = bce_with_logits_masked(logits, targets)
            del z
            forward = tracemalloc.get_traced_memory()[0] - baseline
            backward(loss)
            kept = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert forward > 0 and kept <= 0.1 * forward, (kept, forward)
        assert logits.grad is None and loss.grad is None
        assert all(w.grad is not None and np.abs(w.grad).sum() > 0 for w in weights)

    def test_leaves_keep_their_gradients_and_intermediates_drop_theirs(self):
        x = t64([2.0, 3.0], grad=True)
        square = mul(x, x)
        backward(tsum(square))
        np.testing.assert_array_equal(x.grad, [4.0, 6.0])
        assert square.grad is None and square._parents == ()
        backward(tsum(mul(x, x)))  # a new forward over the same leaf accumulates as before
        np.testing.assert_array_equal(x.grad, [8.0, 12.0])

    def test_second_backward_through_a_consumed_tape_raises(self):
        x = t64([2.0], grad=True)
        square = mul(x, x)
        loss = tsum(square)
        backward(loss)
        message = "this tape was already consumed by backward; run the forward again"
        with pytest.raises(ValueError, match=message):
            backward(loss)
        with pytest.raises(ValueError, match=message):
            backward(tsum(mul(square, t64([3.0]))))  # a new node on top of a consumed one


class TestSavedArrays:
    """The tape's nodes hold no data: a forward keeps alive only the arrays
    that some backward closure reads."""

    def test_a_forward_holds_only_what_its_backward_reads(self):
        rng = np.random.default_rng(17)
        n, e, h, card = 2000, 6000, 64, 5
        x = Tensor(rng.normal(size=(n, h)).astype(np.float32), requires_grad=True)
        table = Tensor(rng.normal(size=(card, h)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(h, 1)).astype(np.float32), requires_grad=True)
        src, dst = Segments(rng.integers(0, n, size=e), n), Segments(rng.integers(0, n, size=e), n)
        index = rng.integers(0, card, size=(e, 1))

        def forward():  # four (e, h) float32 intermediates, none of them read by a backward
            rows = add(gather_rows(x, src), embedding_sum([table], index))
            return tsum(matmul(segment_sum(relu(rows), dst), w))

        backward(forward())  # builds the plans' tables, as a training step before this one would
        reads = e * h + n * h * 4  # relu's boolean mask and matmul's (n, h) float32 left operand
        slack = 64 << 10  # nodes, closures, the loss and the embedding plan: a few KiB
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            loss = forward()
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert held <= reads + slack, (held, reads)
        backward(loss)
        assert all(np.abs(p.grad).sum() > 0 for p in (x, table, w))

    def test_mul_saves_the_partner_and_frees_the_dropped_operand(self):
        w = t64([1.0, 2.0, 3.0], grad=True)
        x = mul(w, t64([2.0, 2.0, 2.0]))  # a tracked result, not a leaf: a leaf keeps its own data
        keep = t64([1.0, 0.0, 4.0])
        x_ref, keep_ref = weakref.ref(x.data), weakref.ref(keep.data)
        out = mul(x, keep)
        del x, keep
        assert x_ref() is None  # no gradient reads it: keep needs none
        assert keep_ref() is not None  # x's gradient reads it
        backward(tsum(out))
        np.testing.assert_array_equal(w.grad, [2.0, 0.0, 8.0])
        assert keep_ref() is None  # the consumed tape let it go

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_is_the_upstream_times_the_positive_mask(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.0], dtype)
        upstream = np.array([3.0, -3.0, -1.0, 2.0, -0.5, -4.0, 7.0, -7.0, -2.5, -1.0], dtype)
        x = Tensor(values, requires_grad=True)
        x.grad = None  # so the gradient lands as is, with no 0 + g to flip the sign of a zero
        backward(tsum(mul(relu(x), Tensor(upstream))))
        assert_same_bits(x.grad, upstream * (values > 0))


class TestMallocPolicy:
    def test_a_c_library_without_mallopt_is_left_alone(self):
        tensor_mod._set_malloc_policy(SimpleNamespace())

    def test_mallopt_gets_exactly_the_two_thresholds(self):
        calls = []
        tensor_mod._set_malloc_policy(SimpleNamespace(mallopt=lambda param, value: calls.append((param, value))))
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]  # M_TRIM_THRESHOLD 1 GiB, M_MMAP_THRESHOLD 32 MiB


class TestActivations:
    def test_relu_values(self):
        out = relu(t64([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_passes_nan_and_gives_positive_zero(self, dtype):
        x = Tensor(np.array([np.nan, -1.0, -0.0, 0.0, 2.0], dtype=dtype), requires_grad=True)
        out = relu(x)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 0.0, 0.0, 2.0])
        assert not np.signbit(out.data[1:]).any()
        backward(tsum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(t64([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_logits_are_finite(self):
        out = sigmoid(t64([-500.0, 500.0]))
        assert np.isfinite(out.data).all()

    def test_gradients_match_finite_differences_at_0p3(self):
        for fn in (relu, sigmoid):
            x = t64([0.3], grad=True)
            assert gradcheck(lambda: tsum(fn(x)), [x]) < 1e-6


class TestSegmentOps:
    def test_segment_sum_hand_example(self):
        out = segment_sum(t64([[1.0], [2.0], [3.0]]), Segments([0, 0, 1], 2))
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_empty_segment_is_zero(self):
        out = segment_sum(t64([[1.0]]), Segments([2], 4))
        np.testing.assert_array_equal(out.data[[0, 1, 3]], np.zeros((3, 1)))

    def test_segment_mean_of_identical_rows(self):
        out = segment_mean(t64([[2.0, 4.0]] * 3), Segments([0, 0, 0], 2))
        np.testing.assert_array_equal(out.data[0], [2.0, 4.0])
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(50, 4))
        ids = rng.integers(0, 7, size=50)
        out = segment_sum(t64(values), Segments(ids, 7))
        np.testing.assert_allclose(out.data.sum(axis=0), values.sum(axis=0), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        v = t64(rng.normal(size=(6, 2)), grad=True)
        ids = [0, 1, 1, 2, 0, 2]
        assert gradcheck(lambda: tsum(segment_sum(v, Segments(ids, 3)) ** 2.0), [v]) < 1e-6
        assert gradcheck(lambda: tsum(segment_mean(v, Segments(ids, 4)) ** 2.0), [v]) < 1e-6


def both_layouts(monkeypatch, ids, values, n):
    """``Segments(ids, n).sum(values)`` with occurrence columns, then with
    length blocks (every non-empty plan above the limit); the two must be
    bit-equal to the sequential oracle, and so to each other."""
    sums = []
    for limit in (np.iinfo(np.int64).max, 0):
        monkeypatch.setattr(tensor_mod, "_COLUMN_LIMIT", limit)
        plan = Segments(ids, n)
        sums.append(plan.sum(values))
        assert (plan._blocks is not None) == (limit == 0 and ids.size > 0)
        assert_same_bits(sums[-1], _scatter_add(ids, values, n), err_msg=f"limit {limit}")
    return sums


def exact_sums(ids, values, n):
    """Per-bucket sums accumulated in long double: the true sums, up to far
    less than the rounding of a float32 or float64 sum."""
    return _scatter_add(ids, values.astype(np.longdouble), n)


class TestScatterAdd:
    """Segments sums, in both table layouts, against the sequential np.add.at."""

    CASES = {
        "empty ids, n > 0": (np.zeros(0, dtype=np.int64), (3,), 4),
        "leading, interior and trailing empty buckets": (np.array([1, 3, 3, 1, 5, 3]), (), 7),
        "unsorted duplicates, 2-d": (np.array([4, 0, 2, 0, 4, 4, 1, 2]), (5,), 5),
        "one bucket": (np.zeros(9, dtype=np.int64), (2,), 1),
        "trailing size 1": (np.array([2, 0, 2, 2, 0]), (1,), 3),
        "one long scalar bucket": (np.zeros(100, dtype=np.int64), (), 1),
        "long and short buckets, 3-d rows": (np.r_[np.zeros(40, dtype=np.int64), [3, 1, 3]], (3, 2), 5),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_values_sum_exactly(self, case, dtype, monkeypatch):
        ids, row_shape, n = self.CASES[case]
        values = np.random.default_rng(0).integers(-50, 50, size=(ids.size,) + row_shape).astype(dtype)
        for out in both_layouts(monkeypatch, ids, values, n):
            assert out.dtype == dtype and out.shape == (n,) + row_shape

    @pytest.mark.parametrize("row_shape", [(), (16,)])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_float_values_match_within_rounding(self, row_shape, dtype, tol, monkeypatch):
        """Bit-equal to the oracle in both layouts, and within rounding of the true sums."""
        rng = np.random.default_rng(1)
        n = 50
        ids = rng.integers(0, n - 2, size=3000) + 1  # buckets 0 and n-1 stay empty
        values = rng.normal(size=(ids.size,) + row_shape).astype(dtype)
        for out in both_layouts(monkeypatch, ids, values, n):
            np.testing.assert_allclose(out, exact_sums(ids, values, n).astype(dtype), rtol=tol, atol=tol)
            assert not out[[0, n - 1]].any()

    @pytest.mark.parametrize("row_shape", [(), (1,), (2,), (3, 2), (33,)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_plans_with_signed_zeros_sum_bit_for_bit(self, row_shape, dtype, monkeypatch):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n, m = int(rng.integers(1, 30)), int(rng.integers(0, 200))
            ids = np.where(rng.random(m) < rng.random(), 0, rng.integers(0, n, size=m))  # bucket 0 often long
            values = rng.normal(size=(m,) + row_shape).astype(dtype)
            values[rng.random(m) < 0.2] = -0.0
            both_layouts(monkeypatch, ids, values, n)

    def test_signed_zeros_keep_their_sign(self, monkeypatch):
        ids = np.array([0, 1, 1, 2, 3, 3])  # bucket 4 is empty
        values = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, 0.0], dtype=np.float32)
        for out in both_layouts(monkeypatch, ids, values, 5):
            np.testing.assert_array_equal(np.signbit(out), [True, True, False, False, False])


class TestSegments:
    """Segments plans against the _scatter_add oracle."""

    CASES = TestScatterAdd.CASES

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_values_sum_exactly(self, case, dtype):
        ids, row_shape, n = self.CASES[case]
        values = np.random.default_rng(0).integers(-50, 50, size=(ids.size,) + row_shape).astype(dtype)
        assert_same_bits(Segments(ids, n).sum(values), _scatter_add(ids, values, n))

    @pytest.mark.parametrize("row_shape", [(), (16,)])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_random_buckets_match_within_rounding(self, row_shape, dtype, tol):
        """Bit-equal to the oracle, and within rounding of the true sums."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            ids = rng.integers(0, n, size=int(rng.integers(0, 120)))
            values = rng.normal(size=(ids.size,) + row_shape).astype(dtype)
            out = Segments(ids, n).sum(values)
            assert_same_bits(out, _scatter_add(ids, values, n))
            np.testing.assert_allclose(out, exact_sums(ids, values, n).astype(dtype), rtol=tol, atol=tol)

    def test_buckets_of_at_most_two_sum_exactly(self):
        rng = np.random.default_rng(5)
        n = 30
        ids = rng.permutation(np.concatenate([np.arange(n), rng.choice(n, 12, replace=False)]))
        values = rng.normal(size=(ids.size, 8)).astype(np.float32)
        assert_same_bits(Segments(ids, n).sum(values), _scatter_add(ids, values, n))

    def test_largest_bucket_above_the_limit_takes_length_blocks(self):
        limit = tensor_mod._COLUMN_LIMIT
        at = Segments(np.r_[np.zeros(limit, dtype=np.int64), [2, 1, 2]], 4)
        above = Segments(np.r_[np.zeros(limit + 1, dtype=np.int64), [2, 1, 2]], 4)
        for plan in (at, above):
            np.testing.assert_array_equal(plan.sum(np.ones((plan.ids.size, 2)))[:, 0], plan.counts)
        assert at._blocks is None and len(at._columns) == limit
        # entries by (bucket length, bucket, position in ids): one (buckets, length) block per length
        assert above._blocks == [(1, 1), (1, 2), (1, limit + 1)] and list(above._rows) == [1, 2, 0]
        np.testing.assert_array_equal(above._columns[0], np.r_[limit + 2, limit + 1, limit + 3, np.arange(limit + 1)])

    def test_counts_equal_bincount_and_wait_for_first_use(self):
        rng = np.random.default_rng(8)
        for ids, n in [(np.zeros(0, dtype=np.int64), 5), (rng.integers(0, 4, size=30), 9), (rng.integers(0, 3, size=400), 6)]:
            plan = Segments(ids, n)
            assert plan._counts is None
            np.testing.assert_array_equal(plan.counts, np.bincount(ids, minlength=n))
            assert plan.counts.shape == (n,) and not plan.counts[4:].any()

    def test_embedding_gradients_with_long_and_short_buckets_match_the_oracle(self):
        rng = np.random.default_rng(9)
        long_bucket = np.r_[np.zeros(3 * tensor_mod._COLUMN_LIMIT, dtype=np.int64), rng.integers(1, 40, size=60)]
        idx = rng.permutation(np.stack([long_bucket, rng.integers(0, 300, size=long_bucket.size)], axis=1))
        tables = [t64(rng.normal(size=(40, 4)), grad=True), t64(rng.normal(size=(300, 4)), grad=True)]
        g = rng.normal(size=(idx.shape[0], 4))
        backward(tsum(mul(embedding_sum(tables, idx), t64(g))))
        # field 0 takes length blocks, field 1 occurrence columns; both add in ids order
        assert_same_bits(tables[0].grad, _scatter_add(idx[:, 0], g, 40))
        assert_same_bits(tables[1].grad, _scatter_add(idx[:, 1], g, 300))

    @pytest.mark.parametrize("ids", [[0, 3], [-1, 0]])
    def test_out_of_range_id_raises_when_built(self, ids):
        with pytest.raises(ValueError, match="out of range"):
            Segments(ids, 3)

    @pytest.mark.parametrize("rows, n", [(3, 2), (1, 3)])
    def test_plan_over_other_bucket_count_rejected(self, rows, n):
        # the backward sum would have n rows: a wrong shape, or one broadcast from a single row
        with pytest.raises(ValueError, match=f"plan has {n} buckets, expected {rows}"):
            gather_rows(t64(np.ones((rows, 2))), Segments([0], n))

    def test_second_sum_reuses_the_table(self):
        plan = Segments([2, 0, 2, 1, 2], 4)
        first = plan.sum(np.ones((5, 2)))
        table = plan._columns
        np.testing.assert_array_equal(plan.sum(np.ones((5, 2))), first)
        assert plan._columns is table
        np.testing.assert_array_equal(first[:, 0], [1.0, 1.0, 3.0, 0.0])

    def test_gradients_through_plans(self):
        rng = np.random.default_rng(7)
        plan = Segments([0, 1, 1, 2, 0, 2, 2], 4)
        v = t64(rng.normal(size=(7, 2)), grad=True)
        x = t64(rng.normal(size=(4, 2)), grad=True)
        assert gradcheck(lambda: tsum(segment_sum(v, plan) ** 2.0), [v]) < 1e-6
        assert gradcheck(lambda: tsum(gather_rows(x, plan) ** 2.0 * gather_rows(x, plan)), [x]) < 1e-6


class TestNumpySummationOrder:
    """The numpy behaviour that ``Segments`` length blocks rest on. A numpy
    whose reductions add in another order must fail here, instead of moving
    every checkpoint without a word."""

    def test_reduce_along_a_non_last_axis_adds_rows_in_sequence(self):
        # 1e8 + 1 rounds back to 1e8 in float32, so only a sum that adds the
        # rows one after another keeps 1e8; adding the ones first gives 1e8 + 128
        column = np.r_[np.float32(1e8), np.ones(128, np.float32)]
        assert np.float32(1e8) + np.float32(128) != np.float32(1e8)
        rows = column[:, None] * np.ones((1, 3), np.float32)
        for blocks in (rows[None], np.stack([rows, rows]), np.stack([rows, rows])[..., None]):
            assert (np.add.reduce(blocks, axis=1, initial=-0.0) == np.float32(1e8)).all()
        assert (np.add.accumulate(np.stack([column, column]), axis=1)[:, -1] == np.float32(1e8)).all()

    @pytest.mark.parametrize("row_shape", [(), (1,), (2,), (3, 2), (33,)])
    def test_blocks_of_gathered_rows_sum_as_a_loop(self, row_shape):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(500,) + row_shape).astype(np.float32)
        for buckets, length in [(2, 3), (2, 40), (1, 300), (5, 300)]:
            block = values[rng.integers(0, 500, size=buckets * length)].reshape((buckets, length) + row_shape)
            loop = block[:, 0].copy()
            for i in range(1, length):
                loop += block[:, i]
            if values[0].size == 1:  # the length axis is last: numpy adds it pairwise, so Segments accumulates
                assert_same_bits(np.add.accumulate(block, axis=1)[:, -1], loop)
            else:
                assert_same_bits(np.add.reduce(block, axis=1, initial=-0.0), loop)


class TestNoGrad:
    def test_records_nothing_and_restores_recording(self):
        w = t64([1.0, 2.0], grad=True)
        with no_grad():
            out = mul(w, w)
        assert not out.requires_grad and out._parents == () and out._backward is None
        taped = mul(w, w)
        assert taped.requires_grad and taped._parents == (w, w)  # a leaf is its own tape node
        assert mul(taped, w)._parents == (taped._node, w)  # a result is recorded by its data-free node

    def test_nested_blocks_keep_the_outer_state(self):
        w = t64([1.0], grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not mul(w, w).requires_grad
        assert mul(w, w).requires_grad

    def test_recording_resumes_after_an_exception(self):
        w = t64([1.0], grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert mul(w, w).requires_grad


class TestGatherEmbedding:
    def test_gather_rows(self):
        x = t64([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(gather_rows(x, Segments([2, 0, 2], 3)).data, [[3.0], [1.0], [3.0]])

    def test_single_field_lookup(self):
        table = t64(np.diag([1.0, 2.0, 3.0]))
        out = embedding_sum([table], np.array([[1], [0]]))
        np.testing.assert_array_equal(out.data, [[0, 2, 0], [1, 0, 0]])

    def test_zero_tables_give_zero(self):
        tables = [t64(np.zeros((3, 4))), t64(np.zeros((2, 4)))]
        out = embedding_sum(tables, np.array([[0, 1], [2, 0]]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_row_gradient_counts_uses(self):
        table = t64(np.zeros((3, 1)), grad=True)
        out = embedding_sum([table], np.array([[1], [1], [2]]))
        backward(tsum(out))
        np.testing.assert_array_equal(table.grad, [[0.0], [2.0], [1.0]])

    def test_index_out_of_cardinality(self):
        with pytest.raises(ValueError, match="field 0"):
            embedding_sum([t64(np.zeros((2, 3)))], np.array([[2]]))

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        tables = [t64(rng.normal(size=(3, 5)), grad=True), t64(rng.normal(size=(4, 5)), grad=True)]
        idx = rng.integers(0, 3, size=(6, 2))
        idx[:, 1] = rng.integers(0, 4, size=6)
        assert gradcheck(lambda: tsum(embedding_sum(tables, idx) ** 2.0), tables) < 1e-6


class TestDropout:
    def test_eval_is_identity(self):
        x = t64([[1.0, -2.0]])
        assert dropout(x, 0.5, EVAL) is x

    def test_p_zero_is_identity(self):
        x = t64([[1.0, -2.0]])
        assert dropout(x, 0.0, TRAIN, np.random.default_rng(0)) is x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(t64([1.0]), 1.0, TRAIN, np.random.default_rng(0))

    def test_train_mean_preserved(self):
        # inverted dropout: E[output] == input
        rng = np.random.default_rng(5)
        x = t64(np.full((1, 1), 3.0))
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            total += float(dropout(x, 0.5, TRAIN, rng).data[0, 0])
        assert abs(total / trials - 3.0) / 3.0 < 0.02


class TestBatchnorm:
    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = BatchNormState.initial(3, np.float64)
        out = batchnorm(t64(x), t64(np.ones(3)), t64(np.zeros(3)), state, TRAIN)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_constant_column_maps_to_shift(self):
        state = BatchNormState.initial(2, np.float64)
        x = t64(np.full((5, 2), 7.0))
        out = batchnorm(x, t64(np.ones(2)), t64([1.5, -2.0]), state, TRAIN)
        np.testing.assert_allclose(out.data, np.tile([1.5, -2.0], (5, 1)), atol=1e-12)

    def test_eval_depends_only_on_running_stats(self):
        state = BatchNormState(np.array([1.0]), np.array([4.0]))
        gamma, beta = t64([2.0]), t64([0.5])
        a = batchnorm(t64([[3.0], [9.0]]), gamma, beta, state, EVAL)
        b = batchnorm(t64([[3.0], [-100.0]]), gamma, beta, state, EVAL)
        assert a.data[0, 0] == b.data[0, 0]

    def test_running_stats_update(self):
        state = BatchNormState.initial(1, np.float64)
        x = t64(np.array([[0.0], [2.0]]))
        batchnorm(x, t64([1.0]), t64([0.0]), state, TRAIN)
        np.testing.assert_allclose(state.running_mean, [0.1])  # 0.9*0 + 0.1*1
        np.testing.assert_allclose(state.running_var, [1.0 * 0.9 + 0.1 * 1.0])

    @pytest.mark.parametrize(
        "layout", ["c-3x2", "c-5760x64", "one-column-10000", "odd-columns", "f-ordered", "row-view", "column-view", "reversed-rows"]
    )
    def test_recal_mode_pools_float64_sums_and_normalizes_as_eval(self, layout):
        # numpy sums a float64 copy row by row or, when its rows are innermost
        # (column-major, or one column), pairwise: the pool must match either way
        rng = np.random.default_rng(12)

        def draw(rows, cols):  # column scales far apart, so the order of additions shows in the bits
            return (rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-3, 3, size=cols)).astype(np.float32)

        data = {
            "c-3x2": lambda: np.array([[1.5, 2.0], [3.0, -1.0], [0.1, 0.0]], np.float32),
            "c-5760x64": lambda: draw(5760, 64),
            "one-column-10000": lambda: draw(10_000, 1),
            "odd-columns": lambda: draw(999, 33),
            "f-ordered": lambda: np.asfortranarray(draw(5760, 64)),
            "row-view": lambda: draw(2 * 3001, 17)[::2],
            "column-view": lambda: draw(3001, 2 * 17)[:, ::2],
            "reversed-rows": lambda: draw(3001, 17)[::-1],
        }[layout]()
        width = data.shape[1]
        state = BatchNormState(rng.normal(size=width).astype(np.float32), rng.uniform(0.5, 4.0, size=width).astype(np.float32))
        mean, var = state.running_mean.copy(), state.running_var.copy()
        x = Tensor(data)
        x.data = data  # the layout an op's result may have; the constructor would copy it to C order
        gamma, beta = Tensor(rng.normal(size=width).astype(np.float32)), Tensor(rng.normal(size=width).astype(np.float32))
        expected = batchnorm(x, gamma, beta, state, EVAL).data.tobytes()
        assert batchnorm(x, gamma, beta, state, RECAL).data.tobytes() == expected  # no pool: plain eval
        state.pool = []
        with pytest.raises(_Pooled):  # a pass ends at the normalizer it records
            batchnorm(x, gamma, beta, state, RECAL)
        x64 = data.astype(np.float64)
        ((col_sum, col_sumsq, rows),) = state.pool
        assert col_sum.dtype == col_sumsq.dtype == np.float64 and rows == data.shape[0]
        assert col_sum.tobytes() == x64.sum(axis=0).tobytes()
        assert col_sumsq.tobytes() == (x64 * x64).sum(axis=0).tobytes()
        assert state.running_mean.tobytes() == mean.tobytes() and state.running_var.tobytes() == var.tobytes()

    def test_recal_mode_pools_without_a_float64_copy(self):
        x = Tensor(np.random.default_rng(13).normal(size=(5760, 64)).astype(np.float32))
        gamma, beta = Tensor(np.ones(64, np.float32)), Tensor(np.zeros(64, np.float32))
        state = BatchNormState.initial(64)
        state.pool = []
        copy_bytes = x.data.size * 8
        tracemalloc.start()
        try:
            with pytest.raises(_Pooled):
                batchnorm(x, gamma, beta, state, RECAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_bytes, f"pooling a {x.data.shape} float32 input peaked at {peak} bytes"

    def test_gradcheck_train_mode(self):
        rng = np.random.default_rng(7)
        x = t64(rng.normal(size=(6, 3)), grad=True)
        gamma = t64(rng.normal(size=3) + 1.0, grad=True)
        beta = t64(rng.normal(size=3), grad=True)

        def f():
            state = BatchNormState.initial(3, np.float64)  # fresh per call; f stays pure
            return tsum(batchnorm(x, gamma, beta, state, TRAIN) ** 2.0)

        assert gradcheck(f, [x, gamma, beta]) < 1e-5

    @pytest.mark.parametrize("mode", [EVAL, RECAL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_and_recal_match_the_add_mul_chain_bitwise(self, mode, dtype):
        rng = np.random.default_rng(8)
        state = BatchNormState(rng.normal(size=4).astype(dtype), rng.uniform(0.5, 2.0, size=4).astype(dtype))
        values = [rng.normal(size=(7, 4)), rng.normal(size=4) + 1.0, rng.normal(size=4)]
        g = Tensor(rng.normal(size=(7, 4)).astype(dtype))

        def leaves():
            return [Tensor(v.astype(dtype), requires_grad=True) for v in values]

        x, gamma, beta = leaves()
        fused = batchnorm(x, gamma, beta, state, mode)
        backward(tsum(mul(fused, g)))
        rx, rgamma, rbeta = leaves()
        inv = (1.0 / np.sqrt(state.running_var + 1e-5)).astype(dtype)
        chain = add(mul(mul(rx - Tensor(state.running_mean), Tensor(inv)), rgamma), rbeta)
        backward(tsum(mul(chain, g)))
        assert fused.data.dtype == dtype and fused.data.tobytes() == chain.data.tobytes()
        for ours, theirs in ((x, rx), (gamma, rgamma), (beta, rbeta)):
            assert ours.grad.tobytes() == theirs.grad.tobytes()

    def test_gradcheck_eval_mode(self):
        rng = np.random.default_rng(9)
        state = BatchNormState(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        x = t64(rng.normal(size=(5, 3)), grad=True)
        gamma = t64(rng.normal(size=3) + 1.0, grad=True)
        beta = t64(rng.normal(size=3), grad=True)
        assert gradcheck(lambda: tsum(batchnorm(x, gamma, beta, state, EVAL) ** 2.0), [x, gamma, beta]) < 1e-6

    def test_empty_batch_rejected(self):
        state = BatchNormState.initial(1, np.float64)
        with pytest.raises(ValueError):
            batchnorm(t64(np.zeros((0, 1))), t64([1.0]), t64([0.0]), state, TRAIN)


class TestMaskedBce:
    def test_logit_zero_target_one_is_ln2(self):
        loss = bce_with_logits_masked(t64([[0.0]]), [[1.0]])
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_fully_masked_is_zero_with_zero_grad(self):
        logits = t64([[3.0, -4.0]], grad=True)
        loss = bce_with_logits_masked(logits, [[np.nan, np.nan]])
        backward(loss)
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(logits.grad, np.zeros((1, 2)))

    def test_missing_labels_add_nothing(self):
        # equal to the loss over the observed entries alone, with a zero gradient on the rest and an all-missing row
        logits = t64([[0.5, -2.0, 1.5], [-7.0, 2.0, 4.0], [3.0, 0.25, -1.0]], grad=True)
        labels = np.array([[1.0, np.nan, 0.0], [np.nan, np.nan, np.nan], [np.nan, 1.0, np.nan]])
        loss = bce_with_logits_masked(logits, labels)
        backward(loss)
        observed = t64(logits.data[~np.isnan(labels)].reshape(1, -1), grad=True)
        packed = bce_with_logits_masked(observed, labels[~np.isnan(labels)].reshape(1, -1))
        backward(packed)
        assert float(loss.data) == float(packed.data)
        np.testing.assert_array_equal(logits.grad[np.isnan(labels)], 0.0)
        np.testing.assert_array_equal(logits.grad[~np.isnan(labels)], observed.grad.ravel())

    def test_matches_direct_formula_on_grid(self):
        z = np.linspace(-10.0, 10.0, 81).reshape(-1, 1)
        for y in (0.0, 1.0):
            targets = np.full_like(z, y)
            loss = float(bce_with_logits_masked(t64(z), targets).data)
            sig = 1.0 / (1.0 + np.exp(-z))
            direct = float(np.mean(-(targets * np.log(sig) + (1 - targets) * np.log(1 - sig))))
            assert abs(loss - direct) < 1e-10

    def test_huge_logits_stay_finite(self):
        loss = bce_with_logits_masked(t64([[1000.0, -1000.0]]), [[0.0, 1.0]])
        assert np.isfinite(float(loss.data))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_missing_label_under_a_huge_logit_stays_finite(self, dtype):
        logits = Tensor(np.array([[1000.0, -1000.0, 2.0]], dtype), requires_grad=True)
        loss = bce_with_logits_masked(logits, [[np.nan, np.nan, 1.0]])
        backward(loss)
        assert float(loss.data) == pytest.approx(math.log1p(math.exp(-2.0)), rel=1e-6)
        np.testing.assert_array_equal(logits.grad[0, :2], 0.0)
        assert np.isfinite(logits.grad).all()

    def test_labels_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="share one shape"):
            bce_with_logits_masked(t64([[0.0, 1.0]]), [[1.0]])

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        logits = t64(rng.normal(size=(3, 4)), grad=True)
        labels = rng.integers(0, 2, size=(3, 4)).astype(float)
        labels[rng.integers(0, 2, size=(3, 4)) == 0] = np.nan
        assert np.isnan(labels).any() and not np.isnan(labels).all()
        assert gradcheck(lambda: bce_with_logits_masked(logits, labels), [logits]) < 1e-7


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = t64([1.0, -2.0], grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_step_approaches_lr_sign(self):
        p = t64([0.0], grad=True)
        opt = Adam([p], lr=0.01)
        p.grad[...] = 0.5
        for _ in range(500):
            opt.step()
        before = p.data.copy()
        opt.step()  # positive gradient pushes the parameter down by ~lr
        np.testing.assert_allclose(before - p.data, [0.01], rtol=1e-3)

    def test_step_counter_increments(self):
        opt = Adam([t64([0.0], grad=True)])
        assert opt.step_count == 0
        opt.step()
        assert opt.step_count == 1
        opt.step()
        assert opt.step_count == 2


class TestPackedAdam:
    """Adam packs its parameters into one buffer per dtype; the per-tensor
    ``ReferenceAdam`` in conftest is the oracle."""

    @staticmethod
    def _params(seed):
        rng = np.random.default_rng(seed)
        layout = [((3, 4), np.float32), ((5,), np.float64), ((), np.float32), ((2, 3), np.float64), ((4,), np.float32)]
        params = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for shape, dtype in layout]
        return params + [Tensor(np.ones(3, np.float32))]  # no gradient at all: grad is None

    @pytest.mark.parametrize("lr", [1e-3, 0.05, 0.0])
    def test_fifty_steps_equal_the_per_tensor_reference(self, lr):
        packed, reference = Adam(self._params(0), lr=lr), ReferenceAdam(self._params(0), lr=lr)
        rng = np.random.default_rng(1)
        for _ in range(50):
            packed.zero_grad()
            reference.zero_grad()
            for a, b in zip(packed.params[:-2], reference.params[:-2]):  # the last two never get a gradient
                g = (rng.normal(size=a.data.shape) * rng.choice([1e-4, 1.0, 30.0])).astype(a.data.dtype)
                a.grad += g
                b.grad += g
            packed.step()
            reference.step()
        for a, b in zip(packed.params, reference.params):
            assert_same_bits(a.data, b.data)
        assert_packed(packed)

    def test_packing_keeps_values_and_gradients(self):
        params = self._params(2)
        params[1].grad[...] = 7.0
        before = [(p.data.copy(), None if p.grad is None else p.grad.copy()) for p in params]
        opt = Adam(params)
        assert_packed(opt)
        assert len(opt._buffers) == 2
        for p, (data, grad) in zip(params, before):
            assert_same_bits(p.data, data)
            assert_same_bits(p.grad, np.zeros_like(data) if grad is None else grad)

    def test_zero_grad_clears_every_gradient(self):
        opt = Adam(self._params(3))
        for p in opt.params:
            p.grad[...] = 1.5
        opt.zero_grad()
        assert all(not p.grad.any() for p in opt.params)

    @pytest.mark.parametrize("field, value", [("data", "copy"), ("grad", "copy"), ("grad", None)])
    def test_a_rebound_array_makes_step_raise(self, field, value):
        opt = Adam(self._params(4))
        p = opt.params[2]
        setattr(p, field, getattr(p, field).copy() if value == "copy" else value)
        with pytest.raises(ValueError, match="parameter 2 was rebound"):
            opt.step()
        assert opt.step_count == 0

    def test_a_tensor_listed_twice_is_rejected(self):
        p = t64([1.0], grad=True)
        with pytest.raises(ValueError, match="same tensor twice"):
            Adam([p, t64([2.0], grad=True), p])


class TestGradcheckOracle:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(9)
        w = t64(rng.normal(size=(4, 1)), grad=True)
        x = rng.normal(size=(5, 4))
        assert gradcheck(lambda: tsum(matmul(t64(x), w)), [w]) < 1e-9

    def test_relu_away_from_zero(self):
        x = t64([1.0, -1.0, 0.7], grad=True)
        assert gradcheck(lambda: tsum(relu(x) ** 2.0), [x]) < 1e-6


class TestDeterminism:
    def test_eval_forward_bit_deterministic(self):
        rng = np.random.default_rng(10)
        x = t64(rng.normal(size=(7, 3)))
        w = t64(rng.normal(size=(3, 2)))
        a = matmul(relu(x), w).data
        b = matmul(relu(x), w).data
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        arrays = {
            "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "a.bias": np.array([-0.0, 1e-40, 3.5], dtype=np.float32),
            "b.weight": rng.normal(size=(2,)).astype(np.float64),
        }
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(arrays, path, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        assert list(loaded) == list(arrays)
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype
            assert np.array_equal(
                loaded[name].view(np.uint8), arrays[name].view(np.uint8)
            ), name

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_non_float_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint({"x": np.array([1, 2])}, str(tmp_path / "x.ckpt"))

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, fill_disk):
        """A save that fails at any one of its writes leaves the previous
        checkpoint whole: its tensors with its own extra, byte for byte."""
        path = str(tmp_path / "model.ckpt")
        # equal shapes, so the new tensor bytes would also fit the old manifest
        old = {"w": np.ones((2, 3), dtype=np.float32), "b": np.full(3, 2.0)}
        new = {"w": np.zeros((2, 3), dtype=np.float32), "b": np.full(3, 5.0)}
        save_checkpoint(old, path, extra={"run": "A"})
        before = {name: open(tmp_path / name, "rb").read() for name in os.listdir(tmp_path)}
        k = 1
        while True:
            fill_disk(k)
            try:
                save_checkpoint(new, path, extra={"run": "B"})
            except OSError as exc:
                assert "No space left" in str(exc)
                arrays, extra = load_checkpoint(path)
                assert extra == {"run": "A"}, f"write {k} failed"
                for name, arr in old.items():
                    assert_same_bits(arrays[name], arr, err_msg=f"write {k} failed")
                assert {name: open(tmp_path / name, "rb").read() for name in os.listdir(tmp_path)} == before
                k += 1
            else:
                break
        assert k > 2  # failures came at the manifest and at a tensor
        arrays, extra = load_checkpoint(path)
        assert extra == {"run": "B"} and all(np.array_equal(arrays[n], a) for n, a in new.items())
