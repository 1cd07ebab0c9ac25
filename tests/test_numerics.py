"""Unit tests for softmax, cosine, the autodiff tape, and seeded rng."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layermoe.errors import DegenerateVectorError, NumericalFailureError
from layermoe.model import Expert
from layermoe.model.network import _causal_mask
from layermoe.numerics import (
    SeededRng,
    Tensor,
    attention,
    central_difference,
    cosine,
    derive_seed,
    embedding,
    expert_mix,
    log_softmax,
    rms_norm,
    silu,
    softmax_t,
    stack_columns,
    take_along,
    take_pairs,
    value_and_grad,
)
from layermoe.numerics.autodiff import _sigmoid


def rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


def softmax(values):
    """The tape softmax of a plain vector."""
    return softmax_t(Tensor(values)).data


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
        self.check(lambda: (take_along(x, idx) ** 2).sum(), {"x": x})
        self.check(
            lambda: (take_pairs(x, np.array([0, 1, 4]), np.array([2, 0, 1])) ** 2).sum(),
            {"x": x},
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

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(7, "corpus", 3) == derive_seed(7, "corpus", 3)
        assert derive_seed(7, "corpus", 3) != derive_seed(7, "corpus", 4)
        assert derive_seed(7, "corpus", 3) != derive_seed(8, "corpus", 3)

    def test_algorithm_pinned(self):
        assert isinstance(SeededRng(0).generator().bit_generator, np.random.PCG64)


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


def mix_case(seed=30, rows=9, hidden=4, ffn=5, routed=4, k=2):
    """Rows, routing and routed + 1 experts; the last expert gets no rows."""
    gen = SeededRng(seed).generator()
    shapes = ((hidden, ffn), (hidden, ffn), (ffn, hidden))
    experts = [
        Expert(*(Tensor(gen.normal(0.0, 0.5, size=shape)) for shape in shapes))
        for _ in range(routed + 1)
    ]
    x = Tensor(gen.normal(size=(rows, hidden)))
    indices = np.argsort(-gen.normal(size=(rows, routed)), axis=1, kind="stable")[:, :k]
    weights = Tensor(gen.uniform(0.1, 1.0, size=(rows, k)))
    return x, weights, indices, experts


def mix_params(x, weights, experts):
    params = {"x": x, "weights": weights}
    for e, expert in enumerate(experts):
        params.update({f"{e}.gate": expert.gate, f"{e}.up": expert.up, f"{e}.down": expert.down})
    return params


def composed_mix(x, weights, indices, experts, bypass=None):
    """Reference: the per-expert tape composition that expert_mix fuses.
    One-hot matmuls gather each expert's rows and scatter its weighted
    outputs back; a bypass row keeps E0(x) alone."""
    n = x.shape[0]
    mixed = None
    for e, expert in enumerate(experts):
        rows, slots = np.nonzero(indices == e)
        if rows.size == 0:
            continue
        pick = np.zeros((rows.size, n))
        pick[np.arange(rows.size), rows] = 1.0
        we = take_pairs(weights, rows, slots).reshape((-1, 1))
        piece = Tensor(pick.T) @ (expert(Tensor(pick) @ x) * we)
        mixed = piece if mixed is None else mixed + piece
    if bypass is None:
        return mixed
    fired = bypass.astype(np.float64)[:, None]
    return mixed * Tensor(1.0 - fired) + experts[0](x) * Tensor(fired)


BYPASS = np.array([False, True, False, False, True, False, True, False, False])


class TestExpertMix:
    @pytest.mark.parametrize("bypass", [None, BYPASS])
    def test_matches_central_differences(self, bypass):
        x, weights, indices, experts = mix_case()
        params = mix_params(x, weights, experts)
        TestOpGradients().check(
            lambda: (expert_mix(x, weights, indices, experts, bypass) ** 2).sum(), params
        )

    @pytest.mark.parametrize("bypass", [None, BYPASS])
    def test_matches_tape_composition(self, bypass):
        x, weights, indices, experts = mix_case(seed=31)
        params = mix_params(x, weights, experts)
        fused = expert_mix(x, weights, indices, experts, bypass)
        reference = composed_mix(x, weights, indices, experts, bypass)
        assert rel_err(fused.data, reference.data) < 1e-12
        _, got = value_and_grad(
            lambda: (expert_mix(x, weights, indices, experts, bypass) ** 2).sum(), params
        )
        _, want = value_and_grad(
            lambda: (composed_mix(x, weights, indices, experts, bypass) ** 2).sum(), params
        )
        for name in params:
            assert rel_err(got[name], want[name]) < 1e-12, name

    def test_frozen_experts_get_none(self):
        x, weights, indices, experts = mix_case()
        x.requires_grad = True
        for part in (experts[1].gate, experts[1].up, experts[1].down):
            part.requires_grad = True
        out = expert_mix(x, weights, indices, experts)
        grads = out._backward(np.ones(out.shape))
        assert grads[0].shape == x.shape
        assert grads[1] is None  # weights are frozen
        expert_grads = [grads[2 + 3 * e : 5 + 3 * e] for e in range(len(experts))]
        assert all(g is None for e, trio in enumerate(expert_grads) if e != 1 for g in trio)
        assert [g.shape for g in expert_grads[1]] == [(4, 5), (4, 5), (5, 4)]
        # only down trainable and x frozen: no inner gradients at all
        x.requires_grad = False
        experts[1].gate.requires_grad = experts[1].up.requires_grad = False
        grads = out._backward(np.ones(out.shape))
        assert grads[0] is None and grads[2 + 3] is None and grads[3 + 3] is None
        assert grads[4 + 3].shape == (5, 4)

    def test_bypass_rows_take_expert_zero_alone(self):
        x, weights, indices, experts = mix_case()
        every = np.ones(x.shape[0], dtype=bool)
        out = expert_mix(x, weights, indices, experts, every)
        np.testing.assert_array_equal(out.data, experts[0](x).data)
        weights.requires_grad = True
        out = expert_mix(x, weights, indices, experts, BYPASS)
        np.testing.assert_allclose(out.data[BYPASS], experts[0](x).data[BYPASS], rtol=1e-15)
        _, dw, *_ = out._backward(np.ones(out.shape))
        np.testing.assert_array_equal(dw[BYPASS], 0.0)
        assert (dw[~BYPASS] != 0.0).all()


def composed_attention(x, wq, wk, wv, wo, mask, heads):
    """Reference: the tape composition that ``attention`` fuses."""
    b, t, h = x.shape
    dh = h // heads
    flat = x.reshape((b * t, h))

    def split(w):
        return (flat @ w).reshape((b, t, heads, dh)).transpose((0, 2, 1, 3))

    q, k, v = split(wq), split(wk), split(wv)
    att = softmax_t(q @ k.transpose((0, 1, 3, 2)) * (dh**-0.5) + Tensor(mask))
    ctx = (att @ v).transpose((0, 2, 1, 3)).reshape((b * t, h))
    return (ctx @ wo).reshape((b, t, h))


def composed_rms_norm(x, gain, eps):
    """Reference: the tape composition that ``rms_norm`` fuses."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * (ms + eps) ** -0.5 * gain


EPS = 1e-6
WEIGHTS = ("wq", "wk", "wv", "wo")


def block_case(batch=2, length=5, hidden=8, heads=2, seed=40):
    """A residual stream, attention weights and a norm gain (the trainable
    set), the causal mask, and coefficients that make the block a loss."""
    gen = SeededRng(seed).generator()
    params = {"x": Tensor(gen.normal(size=(batch, length, hidden)))}
    params.update({w: Tensor(gen.normal(0.0, 0.3, size=(hidden, hidden))) for w in WEIGHTS})
    params["gain"] = Tensor(gen.uniform(0.5, 1.5, size=hidden))
    coeff = Tensor(gen.normal(size=(batch, length, hidden)))
    return params, _causal_mask(length), heads, coeff


def block(params, mask, heads, attend=attention, norm=rms_norm):
    """One block as the network wires it: the norm of ``x + attention(x)``."""
    x = params["x"]
    return norm(x + attend(x, *(params[w] for w in WEIGHTS), mask, heads), params["gain"], EPS)


class TestBlockOps:
    """``attention`` and ``rms_norm`` against central differences and, bit
    for bit, against the tape composition they replace."""

    @pytest.mark.parametrize("shape", [(2, 5, 8, 2), (1, 3, 6, 3)])
    def test_matches_central_differences(self, shape):
        params, mask, heads, coeff = block_case(*shape)
        TestOpGradients().check(lambda: (block(params, mask, heads) * coeff).sum(), params)

    @pytest.mark.parametrize("trainable", ["x", "all"])
    @pytest.mark.parametrize("shape", [(2, 5, 8, 2), (3, 7, 12, 1), (8, 15, 32, 4)])
    def test_bitwise_equal_to_tape_composition(self, shape, trainable):
        params, mask, heads, coeff = block_case(*shape, seed=41)
        x, gain = params["x"], params["gain"]
        weights = [params[w] for w in WEIGHTS]
        np.testing.assert_array_equal(
            attention(x, *weights, mask, heads).data,
            composed_attention(x, *weights, mask, heads).data,
        )
        np.testing.assert_array_equal(
            rms_norm(x, gain, EPS).data, composed_rms_norm(x, gain, EPS).data
        )
        wanted = {"x": x} if trainable == "x" else params
        got = value_and_grad(lambda: (block(params, mask, heads) * coeff).sum(), wanted)
        composed = (composed_attention, composed_rms_norm)
        want = value_and_grad(lambda: (block(params, mask, heads, *composed) * coeff).sum(), wanted)
        assert got[0] == want[0]
        for name in wanted:
            np.testing.assert_array_equal(got[1][name], want[1][name], err_msg=name)

    def test_frozen_operands_get_none(self):
        params, mask, heads, _ = block_case()
        x, gain = params["x"], params["gain"]
        weights = [params[w] for w in WEIGHTS]
        assert attention(x, *weights, mask, heads)._parents == ()
        assert rms_norm(x, gain, EPS)._parents == ()
        for trainable in ("x", "wv", "wo"):
            params[trainable].requires_grad = True
            out = attention(x, *weights, mask, heads)
            grads = out._backward(np.ones(out.shape))
            for name, grad in zip(("x",) + WEIGHTS, grads):
                assert (grad is None) == (name != trainable), (trainable, name)
            params[trainable].requires_grad = False
        for trainable in (x, gain):
            trainable.requires_grad = True
            out = rms_norm(x, gain, EPS)
            dx, dgain = out._backward(np.ones(out.shape))
            assert (dx is None) == (trainable is gain) and (dgain is None) == (trainable is x)
            trainable.requires_grad = False

    def test_attention_is_causal(self):
        params, mask, heads, _ = block_case(length=6)
        weights = [params[w] for w in WEIGHTS]
        x = params["x"].data
        base = attention(Tensor(x), *weights, mask, heads).data
        gen = SeededRng(42).generator()
        for p in range(x.shape[1] - 1):
            moved = x.copy()
            moved[:, p + 1] += gen.normal(size=moved[:, p + 1].shape)
            out = attention(Tensor(moved), *weights, mask, heads).data
            np.testing.assert_array_equal(out[:, : p + 1], base[:, : p + 1])
            assert (out[:, p + 1] != base[:, p + 1]).all()
