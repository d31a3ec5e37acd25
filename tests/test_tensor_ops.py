"""Gradient and semantics checks for the tensor engine.

Every differentiable op is verified against central finite differences on
random inputs; tape behavior is verified against hand-expanded chains.
"""

import tracemalloc

import numpy as np
import pytest

import nirrec.autodiff as ad
from nirrec.errors import DimensionError, DomainError, NonFiniteError

FD_H = 1e-5


def numeric_grad(f, x, h=FD_H):
    """Central finite differences of a scalar function at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def analytic_grad(build, x):
    """Gradient of scalar build(Tensor(x)) via the tape."""
    t = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = build(t)
        tape.backward(out)
    return t.grad


def check_unary(build, x, rtol=1e-4, atol=1e-8):
    got = analytic_grad(build, x)
    want = numeric_grad(lambda a: build(ad.Tensor(a)).item(), x)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


class TestClosedFormValues:
    """Hand values for the elementwise ops with known special points."""

    def test_softplus_at_zero_is_log_two(self):
        """softplus(0) = ln 2."""
        np.testing.assert_allclose(ad.softplus(ad.Tensor(0.0)).item(), np.log(2.0), rtol=1e-12)

    def test_sigmoid_at_zero_is_half(self):
        """sigmoid(0) = 0.5 exactly."""
        assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5

    def test_matmul_hand_value(self):
        """[[1,2],[3,4]] @ [[1],[1]] = [[3],[7]]."""
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_matmul_identity(self):
        """I @ I = I."""
        eye = ad.Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, eye).data, np.eye(2))

    def test_reduce_hand_values(self):
        """mean([1,2,3]) = 2; std_pop([2,2,2]) = 0; std_pop([1,3]) = 1."""
        assert ad.reduce_mean(ad.Tensor([1.0, 2.0, 3.0])).item() == 2.0
        assert ad.reduce_std(ad.Tensor([2.0, 2.0, 2.0])).item() == 0.0
        assert ad.reduce_std(ad.Tensor([1.0, 3.0])).item() == 1.0

    def test_concat_values_and_empty_operand(self):
        """[1,2] ++ [3] = [1,2,3]; an empty operand is permitted."""
        out = ad.concat([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])
        out = ad.concat([ad.Tensor(np.zeros(0)), ad.Tensor([5.0])])
        np.testing.assert_array_equal(out.data, [5.0])

    def test_softmax_symmetry_and_stability(self):
        """softmax([0,0]) = [.5,.5]; huge logits stay finite."""
        np.testing.assert_allclose(ad.softmax(ad.Tensor([0.0, 0.0])).data, [0.5, 0.5], rtol=1e-15)
        big = ad.softmax(ad.Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big, [1.0, 0.0], atol=1e-12)

    def test_softmax_is_probability_vector(self):
        """Outputs are nonnegative and sum to 1 within 1e-9; a matrix is
        normalized row by row."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = ad.softmax(ad.Tensor(rng.uniform(-20, 20, size=rng.integers(1, 9)))).data
            assert np.all(y >= 0.0)
            assert abs(y.sum() - 1.0) < 1e-9
        m = rng.uniform(-20, 20, size=(4, 7))
        rows = ad.softmax(ad.Tensor(m)).data
        for r in range(4):
            np.testing.assert_array_equal(rows[r], ad.softmax(ad.Tensor(m[r])).data)

    def test_log_gamma_tensor_values(self):
        """ln Γ(1) = 0 and ln Γ(5) = ln 24."""
        np.testing.assert_allclose(ad.log_gamma(ad.Tensor(1.0)).item(), 0.0, atol=1e-12)
        np.testing.assert_allclose(ad.log_gamma(ad.Tensor(5.0)).item(), np.log(24.0), rtol=1e-12)


class TestGradientsMatchFiniteDifferences:
    """Analytic gradients vs central differences, rel. error < 1e-4."""

    def test_unary_ops_on_random_inputs(self):
        """exp, sigmoid, tanh, softplus, neg, clamp_min on inputs in [-2, 2]."""
        rng = np.random.default_rng(1)
        ops = [ad.exp, ad.sigmoid, ad.tanh, ad.softplus, ad.neg, lambda t: ad.clamp_min(t, 0.25)]
        for op in ops:
            for _ in range(5):
                x = rng.uniform(-2, 2, size=(3, 4))
                check_unary(lambda t, op=op: ad.reduce_sum(ad.mul(op(t), op(t))), x)

    def test_positive_domain_ops(self):
        """log, sqrt, log_gamma on strictly positive inputs."""
        rng = np.random.default_rng(2)
        for op in (ad.log, ad.sqrt, ad.log_gamma):
            for _ in range(5):
                x = rng.uniform(0.05, 2, size=(6,))
                check_unary(lambda t, op=op: ad.reduce_sum(op(t)), x)
                check_unary(lambda t, op=op: ad.reduce_sum(ad.mul(op(t), t)), x)

    def test_tanh_gradient_at_scalar_point(self):
        """d tanh/dx at 0.3 matches finite differences within rel. 1e-6."""
        got = analytic_grad(ad.tanh, np.array(0.3))
        want = numeric_grad(lambda a: ad.tanh(ad.Tensor(a)).item(), np.array(0.3))
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_binary_ops_with_broadcasting(self):
        """add/sub/mul/div gradients flow to both operands through broadcasts."""
        rng = np.random.default_rng(3)
        shapes = [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), ()), ((2, 1), (1, 5))]
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            for sa, sb in shapes:
                a = rng.uniform(-2, 2, size=sa)
                b = rng.uniform(0.5, 2, size=sb)  # keeps div away from zero

                def left(x, b=b, op=op):
                    return ad.reduce_sum(ad.tanh(op(x, ad.Tensor(b))))

                def right(x, a=a, op=op):
                    return ad.reduce_sum(ad.tanh(op(ad.Tensor(a), x)))

                check_unary(left, a)
                check_unary(right, b)

    def test_matmul_gradients(self):
        """Gradient of sum(a @ b) w.r.t. both operands, rel. error < 1e-5."""
        rng = np.random.default_rng(4)
        a = rng.uniform(-2, 2, size=(3, 5))
        b = rng.uniform(-2, 2, size=(5, 2))
        check_unary(lambda t: ad.reduce_sum(ad.matmul(t, ad.Tensor(b))), a, rtol=1e-5)
        check_unary(lambda t: ad.reduce_sum(ad.matmul(ad.Tensor(a), t)), b, rtol=1e-5)

    def test_matmul_constant_operand_gets_no_gradient_product(self):
        """A constant operand receives no grad, and its gradient product,
        as large as the operand itself, is never computed; the other
        operand still matches finite differences."""
        rng = np.random.default_rng(5)
        wide = rng.uniform(-1, 1, size=(400, 300))
        w = rng.uniform(-1, 1, size=(300, 2))
        for const_left in (True, False):
            c = ad.Tensor(wide if const_left else wide.T)

            def loss(t, c=c, const_left=const_left):
                return ad.reduce_sum(ad.matmul(c, t) if const_left else ad.matmul(t, c))

            x = ad.Tensor(w if const_left else w.T, requires_grad=True)
            with ad.Tape() as tape:
                out = loss(x)
                tracemalloc.start()
                try:
                    tape.backward(out)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert c.grad is None
            assert peak < wide.nbytes / 4
            check_unary(loss, x.data, rtol=1e-5)

    def test_structural_op_gradients(self):
        """transpose, reshape, concat, take_rows, pick all pass gradients."""
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(4, 3))
        check_unary(lambda t: ad.reduce_sum(ad.mul(ad.transpose(t), ad.transpose(t))), x)
        check_unary(lambda t: ad.reduce_sum(ad.exp(ad.reshape(t, (2, 6)))), x)
        check_unary(lambda t: ad.reduce_sum(ad.tanh(ad.concat([t, t]))), x)
        check_unary(lambda t: ad.reduce_sum(ad.take_rows(t, [2, 0, 2])), x)
        v = rng.uniform(-2, 2, size=7)
        check_unary(lambda t: ad.mul(ad.pick(t, 3), ad.pick(t, 3)), v)

    def test_take_rows_repeated_index_gradients(self):
        """A row looked up several times gets the sum of its lookups'
        gradients, added onto the gradient already in the table."""
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=(5, 3))
        idx = [3, 1, 3, 3, 0]
        w = rng.uniform(-1, 1, size=(5, 3))

        def loss(t):
            return ad.reduce_sum(ad.tanh(ad.mul(ad.take_rows(t, idx), ad.Tensor(w))))

        check_unary(loss, x, rtol=1e-6)
        table = ad.Tensor(x, requires_grad=True)
        prior = rng.normal(size=x.shape)
        table.grad = prior.copy()
        with ad.Tape() as tape:
            tape.backward(loss(table))
        np.testing.assert_allclose(table.grad, prior + analytic_grad(loss, x), rtol=1e-14)

    def test_take_rows_backward_scatters_in_place(self):
        """A lookup of a few rows of a table with a gradient makes no
        table-sized temporary in its backward."""
        rng = np.random.default_rng(12)
        table = ad.Tensor(rng.normal(size=(4000, 32)), requires_grad=True)
        table.zero_grad()
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.take_rows(table, [7, 3999, 7, 0, 12, 5]))
            tracemalloc.start()
            try:
                tape.backward(out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < table.data.nbytes / 4
        want = np.zeros_like(table.data)
        want[[3999, 0, 12, 5]] = 1.0
        want[7] = 2.0
        np.testing.assert_array_equal(table.grad, want)

    def test_segment_mean_gradients(self):
        """Repeated columns, rows of length 1 and a column used by several
        segments."""
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(5, 3))
        cols = [2, 2, 0, 4, 1, 2, 3, 2]
        starts = [0, 1, 3, 4, 7]  # segments [2], [2, 0], [4], [1, 2, 3], [2]
        seg = [0, 1, 1, 2, 3, 3, 3, 4]
        w = rng.uniform(-1, 1, size=(5, 3))

        def loss(t):
            out = ad.segment_mean(t, cols, starts, seg)
            return ad.reduce_sum(ad.tanh(ad.mul(out, ad.Tensor(w))))

        check_unary(loss, x, rtol=1e-6)

    def test_segment_mean_adds_into_an_existing_gradient(self):
        """The backward scatters into the table's gradient buffer in place;
        what was there, in either memory order, is kept and added to."""
        rng = np.random.default_rng(10)
        cols, starts = [1, 0, 1], [0, 2]
        g = rng.normal(size=(2, 3))
        want = np.zeros((3, 3))
        for r, row in enumerate([[1, 0], [1]]):
            for c in row:
                want[c] += g[r] / len(row)
        for prior in (np.ones((3, 3)), np.asfortranarray(rng.normal(size=(3, 3)))):
            table = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            table.grad = prior.copy(order="K")
            with ad.Tape() as tape:
                tape.backward(ad.segment_mean(table, cols, starts, [0, 0, 1]), seed=g)
            np.testing.assert_allclose(table.grad, prior + want, rtol=1e-14)

    def test_segment_mean_is_the_weighted_dense_product(self):
        """Each row is the mean of its columns' table rows, a repeated
        column counting twice: the dense 1/length-weighted matrix product."""
        rng = np.random.default_rng(9)
        table = rng.normal(size=(4, 2))
        cols, starts = [3, 3, 1, 0, 2, 1], [0, 3, 4]
        dense = np.zeros((3, 4))
        for r, row in enumerate([[3, 3, 1], [0], [2, 1]]):
            for c in row:
                dense[r, c] += 1.0 / len(row)
        out = ad.segment_mean(ad.Tensor(table), cols, starts, [0, 0, 0, 1, 2, 2])
        np.testing.assert_allclose(out.data, dense @ table, rtol=1e-14, atol=1e-15)
        assert ad.segment_mean(ad.Tensor(table), [], [], []).shape == (0, 2)

    @pytest.mark.parametrize("lengths, n_cols", [
        ([1] * 7, 6),  # rows of length 1
        ([3, 2, 4], 1),  # one column, repeated in every row
        ([3] * 50, 20),  # every row as long
        ([2, 40, 1, 3], 12),  # one 40-token row among short ones
        ("ragged", 300),  # 1,000 random rows of 1 to 12 tokens
    ])
    def test_segment_mean_forward_matches_reduceat(self, lengths, n_cols):
        """The forward agrees with ``np.add.reduceat`` over the gathered
        rows, divided by the row lengths, to rounding."""
        rng = np.random.default_rng(13)
        if lengths == "ragged":
            lengths = rng.integers(1, 13, size=1000)
        lengths = np.asarray(lengths)
        table = rng.normal(size=(n_cols, 5))
        cols = rng.integers(0, n_cols, size=lengths.sum())
        starts = np.cumsum(lengths) - lengths
        seg = np.repeat(np.arange(len(lengths)), lengths)
        want = np.add.reduceat(table[cols], starts, axis=0) / lengths[:, None]
        out = ad.segment_mean(ad.Tensor(table), cols, starts, seg)
        np.testing.assert_allclose(out.data, want, rtol=1e-13, atol=1e-13)

    def test_concat_of_sum_gives_ones(self):
        """Gradient of sum(concat(a, b)) is all-ones into each input."""
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0], requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.reduce_sum(ad.concat([a, b])))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_reduction_gradients(self):
        """sum/mean/std/max reductions, with and without an axis."""
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(4, 5))  # distinct values, so max has no ties
        check_unary(lambda t: ad.reduce_sum(ad.mul(t, t)), x)
        check_unary(lambda t: ad.reduce_sum(ad.tanh(ad.reduce_sum(t, axis=0))), x)
        check_unary(lambda t: ad.reduce_sum(ad.tanh(ad.reduce_mean(t, axis=1))), x)
        check_unary(lambda t: ad.reduce_mean(t), x)
        check_unary(lambda t: ad.reduce_std(t), x)
        check_unary(lambda t: ad.reduce_max(t), x)
        check_unary(lambda t: ad.reduce_sum(ad.tanh(ad.reduce_max(t, axis=0))), x)

    def test_std_gradient_flat_at_constant_input(self):
        """std_population of a constant vector back-propagates zeros."""
        g = analytic_grad(ad.reduce_std, np.full(4, 1.5))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_segment_std_gradients(self):
        """Segments of lengths 3, 1 and 4; the one-element segment has std
        0 and takes no gradient."""
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=8)
        w = rng.uniform(-1, 1, size=3)

        def loss(t):
            return ad.reduce_sum(ad.mul(ad.segment_std(t, [0, 3, 4]), ad.Tensor(w)))

        check_unary(loss, x, rtol=1e-6)
        assert analytic_grad(loss, x)[3] == 0.0

    def test_segment_std_is_reduce_std_per_segment(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-2, 2, size=9)
        got = ad.segment_std(ad.Tensor(x), [0, 2, 7]).data
        for r, (lo, hi) in enumerate([(0, 2), (2, 7), (7, 9)]):
            np.testing.assert_allclose(got[r], ad.reduce_std(ad.Tensor(x[lo:hi])).item(), rtol=1e-14)

    def test_segment_std_flat_at_a_constant_segment(self):
        """A constant segment of several elements: std 0, zero gradient,
        while the other segment's gradient flows."""
        t = ad.Tensor([2.0, 2.0, 2.0, 1.0, 3.0], requires_grad=True)
        with ad.Tape() as tape:
            s = ad.segment_std(t, [0, 3])
            tape.backward(ad.reduce_sum(s))
        np.testing.assert_array_equal(s.data, [0.0, 1.0])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 0.0, -0.5, 0.5])

    def test_masked_cross_entropy_gradients(self):
        """Each row's gradient is softmax over its masked entries minus the
        one-hot target; unmasked entries take none."""
        rng = np.random.default_rng(13)
        x = rng.uniform(-3, 3, size=(3, 5))
        mask = np.array([
            [1, 1, 1, 1, 1], [0, 1, 0, 1, 1], [1, 0, 0, 0, 0],
        ], dtype=bool)
        targets = [2, 4, 0]
        w = rng.uniform(0.5, 1.5, size=3)

        def loss(t):
            ce = ad.masked_cross_entropy(t, mask, targets)
            return ad.reduce_sum(ad.mul(ce, ad.Tensor(w)))

        check_unary(loss, x, rtol=1e-6)
        got = analytic_grad(loss, x)
        assert not np.any(got[~mask])
        p = np.exp(x[1, mask[1]] - x[1, mask[1]].max())
        want = w[1] * (p / p.sum() - np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(got[1, mask[1]], want, rtol=1e-12)
        np.testing.assert_array_equal(got[2], 0.0)  # a lone candidate is certain

    def test_masked_cross_entropy_values_at_extreme_logits(self):
        """logsumexp over the masked entries minus the target logit, exact
        where the target's softmax probability underflows to 0."""
        x = np.array([[0.0, -2000.0, 5000.0, 1.0], [3.0, 1.0, -1e4, 2.0]])
        mask = np.array([[1, 1, 0, 1], [1, 1, 1, 1]], dtype=bool)
        got = ad.masked_cross_entropy(ad.Tensor(x), mask, [1, 2]).data
        want = [
            np.logaddexp.reduce(x[0, mask[0]]) - x[0, 1],
            np.logaddexp.reduce(x[1]) - x[1, 2],
        ]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_softmax_jacobian_vector_product(self):
        """JVP of softmax against finite differences, rel. error < 1e-5,
        for a vector and row-wise for a matrix."""
        rng = np.random.default_rng(7)
        for shape in [(6,)] * 10 + [(3, 6)] * 5:
            x = rng.uniform(-2, 2, size=shape)
            s = rng.uniform(-1, 1, size=shape)

            def f(t, s=s):
                return ad.reduce_sum(ad.mul(ad.softmax(t), ad.Tensor(s)))

            check_unary(f, x, rtol=1e-5)


class TestTapeSemantics:
    """Recording, accumulation, and lifetime rules of the tape."""

    def test_diamond_graph_accumulates_gradients(self):
        """Shared subexpression: out = (2x)·(3x) gives d/dx = 12x by the sum rule."""
        x = ad.Tensor(1.7, requires_grad=True)
        with ad.Tape() as tape:
            left = ad.mul(x, 2.0)
            right = ad.mul(x, 3.0)
            out = ad.mul(left, right)
            tape.backward(out)
        np.testing.assert_allclose(x.grad, 12.0 * 1.7, rtol=1e-12)

    def test_operand_used_twice_in_one_op(self):
        """mul(x, x) accumulates both partials: d/dx x^2 = 2x."""
        x = ad.Tensor(3.0, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.mul(x, x))
        np.testing.assert_allclose(x.grad, 6.0, rtol=1e-12)

    def test_no_recording_outside_tape(self):
        """Ops executed without an active tape never mark outputs trainable."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        assert not y.requires_grad
        assert x.grad is None

    def test_gradients_accumulate_across_tapes(self):
        """Per-session tapes add into the same leaf until zero_grad."""
        x = ad.Tensor(2.0, requires_grad=True)
        for _ in range(3):
            with ad.Tape() as tape:
                tape.backward(ad.mul(x, x))
        np.testing.assert_allclose(x.grad, 3 * 4.0, rtol=1e-12)
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_constant_branch_gets_no_gradient(self):
        """Tensors without requires_grad never receive a grad buffer."""
        x = ad.Tensor(2.0, requires_grad=True)
        c = ad.Tensor(5.0)
        with ad.Tape() as tape:
            tape.backward(ad.mul(x, c))
        assert c.grad is None
        np.testing.assert_allclose(x.grad, 5.0)

    def test_each_node_visited_once(self):
        """Backward of a chain matches the closed form (no double counting)."""
        x = ad.Tensor(0.5, requires_grad=True)
        with ad.Tape() as tape:
            y = ad.tanh(x)
            z = ad.mul(y, y)
            w = ad.add(z, y)
            tape.backward(w)
        th = np.tanh(0.5)
        want = (2.0 * th + 1.0) * (1.0 - th * th)
        np.testing.assert_allclose(x.grad, want, rtol=1e-12)


    def test_backward_frees_intermediate_gradients(self):
        """Once its rule has run, an op output drops its gradient; the
        leaves keep theirs."""
        x = ad.Tensor(np.array([0.3, -0.2]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.tanh(x)
            z = ad.mul(y, y)
            loss = ad.reduce_sum(z)
            tape.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        th = np.tanh([0.3, -0.2])
        np.testing.assert_allclose(x.grad, 2.0 * th * (1.0 - th * th), rtol=1e-12)

    @pytest.mark.parametrize("length", [8, 32])
    def test_backward_peak_memory_is_a_few_op_sizes(self, length):
        """Backward through a chain of 1 MiB ops holds the gradients still
        to be propagated, not one per op: its traced peak stays within a
        few op sizes whatever the chain's length."""
        size = 2**17  # float64 elements, 1 MiB
        x = ad.Tensor(np.linspace(-1.0, 1.0, size), requires_grad=True)
        with ad.Tape() as tape:
            y = x
            for _ in range(length):
                y = ad.tanh(y)
            loss = ad.reduce_sum(y)
            tracemalloc.start()
            try:
                tape.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 5 * 8 * size
        assert x.grad is not None and np.all(x.grad > 0.0)


class TestErrorSurfaces:
    """Domain and shape violations fail loudly with the right types."""

    def test_nonfinite_construction_rejected(self):
        """NaN and Inf are construction-time errors."""
        with pytest.raises(NonFiniteError):
            ad.Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            ad.Tensor([np.inf])

    @pytest.mark.parametrize("bad", [
        [[2.0, np.inf]],
        [-np.inf, 3.0],
        [np.inf, -np.inf],  # sums to NaN
        np.nan,
        -np.inf,
    ])
    def test_every_nonfinite_value_rejected(self, bad):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError):
                ad.Tensor(bad)

    @pytest.mark.parametrize("good", [[1e308, 1e308], [-1e308, -1e308], np.zeros(0), 2.5])
    def test_finite_values_accepted_even_when_their_sum_overflows(self, good):
        with np.errstate(over="ignore"):
            t = ad.Tensor(good)
        np.testing.assert_array_equal(t.data, good)

    def test_matmul_shape_error_names_both_shapes(self):
        """The dimension error message carries both operand shapes."""
        with pytest.raises(DimensionError) as exc:
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_domain_errors(self):
        """log/sqrt of non-positive input and div by zero all raise."""
        with pytest.raises(DomainError):
            ad.log(ad.Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            ad.sqrt(ad.Tensor([-1.0]))
        with pytest.raises(DomainError):
            ad.div(ad.Tensor([1.0]), ad.Tensor([0.0]))
        with pytest.raises(DomainError):
            ad.log_gamma(ad.Tensor([-0.5]))

    def test_empty_reduction_rejected(self):
        """Reducing a zero-size tensor is a domain error."""
        with pytest.raises(DomainError):
            ad.reduce_mean(ad.Tensor(np.zeros(0)))
        with pytest.raises(DomainError):
            ad.reduce_sum(ad.Tensor(np.zeros((0, 3))), axis=0)

    def test_structural_errors(self):
        """softmax needs 1-d or 2-d input; pick and take_rows check bounds."""
        with pytest.raises(DimensionError):
            ad.softmax(ad.Tensor(np.ones((2, 2, 2))))
        with pytest.raises(DomainError):
            ad.pick(ad.Tensor([1.0, 2.0]), 2)
        with pytest.raises(DomainError):
            ad.take_rows(ad.Tensor(np.ones((2, 2))), [0, 3])
        with pytest.raises(DimensionError):
            ad.concat([ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones((3, 2)))])

    def test_segment_std_and_masked_cross_entropy_errors(self):
        with pytest.raises(DimensionError):
            ad.segment_std(ad.Tensor(np.ones((2, 2))), [0])
        for starts in ([1], [0, 0], [0, 3]):
            with pytest.raises(DomainError, match="non-empty"):
                ad.segment_std(ad.Tensor(np.ones(3)), starts)
        logits = ad.Tensor(np.zeros((2, 3)))
        mask = np.array([[1, 1, 0], [0, 1, 1]], dtype=bool)
        with pytest.raises(DomainError, match="outside its row's mask"):
            ad.masked_cross_entropy(logits, mask, [2, 1])
        with pytest.raises(DomainError, match="outside its row's mask"):
            ad.masked_cross_entropy(logits, mask, [0, 3])
        with pytest.raises(DimensionError):
            ad.masked_cross_entropy(logits, mask[:1], [0])
        with pytest.raises(DimensionError):
            ad.masked_cross_entropy(logits, mask, [0])

    def test_segment_mean_errors(self):
        """Columns must index the table; segments must start at 0, be
        non-empty and ascend; the table is 2-d and every column has a
        segment id."""
        table = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(DomainError, match="column 3"):
            ad.segment_mean(table, [0, 3], [0], [0, 0])
        with pytest.raises(DomainError, match="column -1"):
            ad.segment_mean(table, [0, -1], [0], [0, 0])
        for starts in ([1], [0, 0], [0, 2, 1], [0, 3]):
            with pytest.raises(DomainError, match="non-empty"):
                ad.segment_mean(table, [0, 1, 2], starts, [0, 0, 0])
        with pytest.raises(DimensionError):
            ad.segment_mean(ad.Tensor(np.ones(3)), [0], [0], [0])
        with pytest.raises(DimensionError, match="segment id"):
            ad.segment_mean(table, [0, 1], [0], [0])
