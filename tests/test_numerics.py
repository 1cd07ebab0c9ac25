"""Unit tests for softmax, cosine, the autodiff tape, and seeded rng."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layermoe.errors import DegenerateVectorError, InvalidInputError, NumericalFailureError
from layermoe.numerics import (
    SeededRng,
    Tensor,
    central_difference,
    cosine,
    derive_seed,
    embedding,
    log_softmax,
    scatter_rows,
    silu,
    softmax,
    softmax_t,
    stack_columns,
    take_along,
    take_pairs,
    take_rows,
    value_and_grad,
)
from layermoe.numerics.autodiff import _sigmoid, assemble_rows


def rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_constant_vector(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_hand_example(self):
        # exp(2), exp(0), exp(1) normalised
        e = np.exp([2.0, 0.0, 1.0])
        expected = e / e.sum()
        np.testing.assert_allclose(softmax([2.0, 0.0, 1.0]), expected, atol=1e-15)
        np.testing.assert_allclose(
            softmax([2.0, 0.0, 1.0]), [0.66524, 0.09003, 0.24473], atol=1e-5
        )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([np.inf, 0.0])
        with pytest.raises(InvalidInputError):
            softmax([np.nan])
        with pytest.raises(InvalidInputError):
            softmax([])

    @given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=100)
    def test_shift_invariance(self, values, shift):
        base = softmax(values)
        shifted = softmax(np.asarray(values) + shift)
        assert np.max(np.abs(base - shifted)) < 1e-12
        assert abs(base.sum() - 1.0) < 1e-12
        assert (base > 0).all()

    @given(finite_vectors)
    @settings(max_examples=100)
    def test_argmax_preserved(self, values):
        # Gaps below float resolution of exp() collapse to ties; require the
        # top two inputs to be numerically distinguishable.
        ordered = np.sort(values)
        assume(len(values) == 1 or ordered[-1] - ordered[-2] > 1e-9)
        assert int(np.argmax(softmax(values))) == int(np.argmax(values))


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identical(self):
        assert cosine([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_example(self):
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
        st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=100)
    def test_symmetry_and_scale(self, u, v, scale):
        n = min(len(u), len(v))
        u, v = np.asarray(u[:n]), np.asarray(v[:n])
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert cosine(scale * u, v) == pytest.approx(cosine(u, v), abs=1e-9)
        assert -1.0 <= cosine(u, v) <= 1.0


class TestGrad:
    def test_quadratic(self):
        p = Tensor(np.array([1.0, 2.0]))
        value, grads = value_and_grad(lambda: (p * p).sum(), {"p": p})
        assert value == pytest.approx(5.0)
        np.testing.assert_allclose(grads["p"], [2.0, 4.0], atol=1e-12)

    def test_softmax_cross_entropy(self):
        logits = Tensor(np.array([[0.0, 0.0]]))

        def loss():
            return -(take_pairs(log_softmax(logits), np.array([0]), np.array([0])).mean())

        _, grads = value_and_grad(loss, {"logits": logits})
        np.testing.assert_allclose(grads["logits"], [[-0.5, 0.5]], atol=1e-12)

    def test_non_finite_loss_rejected(self):
        p = Tensor(np.array([0.0]))
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericalFailureError):
                value_and_grad(lambda: p.log().sum(), {"p": p})

    def test_unused_parameter_gets_zero(self):
        p = Tensor(np.array([1.0]))
        q = Tensor(np.array([3.0]))
        _, grads = value_and_grad(lambda: (p * p).sum(), {"p": p, "q": q})
        np.testing.assert_array_equal(grads["q"], [0.0])


class TestOpGradients:
    """Every tape op agrees with central finite differences."""

    def check(self, build, params, tol=2e-6):
        _, analytic = value_and_grad(build, params)
        numeric = central_difference(build, params)
        for name in params:
            assert rel_err(analytic[name], numeric[name]) < tol, name

    def test_arithmetic_and_broadcast(self):
        gen = SeededRng(1).generator()
        a = Tensor(gen.normal(size=(3, 4)))
        b = Tensor(gen.normal(size=(4,)) + 2.0)
        self.check(lambda: ((a * b + a / b - b) ** 2).sum(), {"a": a, "b": b})

    def test_matmul_2d(self):
        gen = SeededRng(2).generator()
        a = Tensor(gen.normal(size=(3, 4)))
        b = Tensor(gen.normal(size=(4, 2)))
        self.check(lambda: ((a @ b) ** 2).mean(), {"a": a, "b": b})

    def test_matmul_batched(self):
        gen = SeededRng(3).generator()
        a = Tensor(gen.normal(size=(2, 3, 4)))
        b = Tensor(gen.normal(size=(2, 4, 3)))
        self.check(lambda: ((a @ b) ** 2).sum(), {"a": a, "b": b})

    def test_softmax_log_exp(self):
        gen = SeededRng(4).generator()
        x = Tensor(gen.normal(size=(3, 5)))
        self.check(lambda: (softmax_t(x) ** 2).sum(), {"x": x})
        self.check(lambda: (log_softmax(x) * 0.1).sum(), {"x": x})
        y = Tensor(gen.normal(size=(4,)) + 3.0)
        self.check(lambda: (y.log() + y.exp() * 0.01).sum(), {"y": y})

    def test_silu_pow_mean(self):
        gen = SeededRng(5).generator()
        x = Tensor(gen.normal(size=(6,)))
        g = Tensor(gen.normal(size=(6,)) + 2.0)
        self.check(lambda: (silu(x) * (g**-0.5)).mean(), {"x": x, "g": g})

    def test_reshape_transpose_sum_axis(self):
        gen = SeededRng(6).generator()
        x = Tensor(gen.normal(size=(2, 3, 4)))
        self.check(
            lambda: (x.transpose((1, 0, 2)).reshape((3, 8)).sum(axis=1, keepdims=True) ** 2).sum(),
            {"x": x},
        )

    def test_gather_scatter(self):
        gen = SeededRng(7).generator()
        x = Tensor(gen.normal(size=(5, 3)))
        idx = np.array([[0, 2], [1, 1], [2, 0], [0, 1], [2, 2]])
        rows = np.array([0, 2, 4])
        self.check(lambda: (take_along(x, idx) ** 2).sum(), {"x": x})
        self.check(lambda: (take_rows(x, rows) ** 2).sum(), {"x": x})
        self.check(
            lambda: (take_pairs(x, np.array([0, 1, 4]), np.array([2, 0, 1])) ** 2).sum(),
            {"x": x},
        )
        v = Tensor(gen.normal(size=(3, 3)))
        self.check(lambda: (scatter_rows(v, rows, 6) ** 2).sum(), {"v": v})

    def test_assemble_rows(self):
        gen = SeededRng(8).generator()
        a = Tensor(gen.normal(size=(2, 3)))
        b = Tensor(gen.normal(size=(3, 3)))
        rows_a = np.array([0, 3])
        rows_b = np.array([1, 2, 4])
        self.check(
            lambda: (assemble_rows([(rows_a, a * 2.0), (rows_b, b * 0.5)], 5) ** 2).sum(),
            {"a": a, "b": b},
        )

    def test_stack_columns_embedding(self):
        gen = SeededRng(9).generator()
        cols = [Tensor(gen.normal(size=(4,))) for _ in range(3)]
        params = {f"c{i}": c for i, c in enumerate(cols)}
        self.check(lambda: (stack_columns(cols) ** 2).sum(), params)
        w = Tensor(gen.normal(size=(5, 3)))
        ids = np.array([[0, 1], [4, 1]])
        self.check(lambda: (embedding(w, ids) ** 2).sum(), {"w": w})


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42).generator().normal(size=10)
        b = SeededRng(42).generator().normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_spawn_is_stable_and_distinct(self):
        child1 = SeededRng(7).spawn("corpus", 3)
        child2 = SeededRng(7).spawn("corpus", 3)
        other = SeededRng(7).spawn("corpus", 4)
        assert child1.seed == child2.seed == derive_seed(7, "corpus", 3)
        assert child1.seed != other.seed

    def test_algorithm_pinned(self):
        assert SeededRng(0).algorithm == "pcg64/v1"
        with pytest.raises(ValueError):
            SeededRng(0, algorithm="mystery")


def masked_sigmoid(x):
    """Reference: the sigmoid that splits the array by sign and evaluates
    each branch on its own part."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestTapeFastPaths:
    EDGES = np.array(
        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 709.0, -709.0, 36.0, -36.0, 1e-300, -1e-300]
    )

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 127, 7680])
    def test_sigmoid_bitwise_equals_masked_form(self, size):
        gen = SeededRng(size).generator()
        x = gen.normal(0.0, 8.0, size=size)
        n = min(size, self.EDGES.size)
        x[:n] = self.EDGES[:n]
        gen.shuffle(x)
        assert _sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()
        matrix = gen.normal(0.0, 4.0, size=(size, 3))
        assert _sigmoid(matrix).tobytes() == masked_sigmoid(matrix).tobytes()

    @pytest.mark.parametrize(
        "op", [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a / b, lambda a, b: a @ b]
    )
    def test_binary_ops_give_frozen_operands_no_gradient(self, op):
        gen = SeededRng(10).generator()
        for trainable in (0, 1):
            operands = [Tensor(gen.normal(size=(3, 3)) + 3.0) for _ in range(2)]
            operands[trainable].requires_grad = True
            out = op(*operands)
            grads = out._backward(np.ones(out.shape))
            assert grads[1 - trainable] is None
            assert grads[trainable].shape == (3, 3)

    def test_row_moves_reject_duplicate_rows(self):
        with pytest.raises(ValueError):
            take_rows(Tensor(np.ones((4, 2))), np.array([0, 2, 0]))
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((3, 2))), np.array([1, 3, 1]), 4)

    def test_row_moves_match_add_at_on_signed_zeros(self):
        values = np.array([[-0.0, 1.5], [2.0, -0.0]])
        rows = np.array([3, 1])
        expected = np.zeros((4, 2))
        np.add.at(expected, rows, values)
        assert scatter_rows(Tensor(values), rows, 4).data.tobytes() == expected.tobytes()
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        (grad,) = take_rows(x, rows)._backward(values)
        assert grad.tobytes() == expected.tobytes()
