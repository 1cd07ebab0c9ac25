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
    autodiff,
    derive_seed,
    embedding,
    expert_mix,
    log_softmax,
    rms_norm,
    route,
    silu,
    take_pairs,
)
from layermoe.numerics.autodiff import _sigmoid, _slot_sum, _softmax
from oracles import (
    central_difference,
    cosine,
    div,
    masked_sigmoid,
    ordered_slot_sum,
    padded_slot_sum,
    per_expert_mix,
    plain_softmax,
    power,
    row_sum,
    softmax,
    stack_columns,
    transpose,
    value_and_grad,
)


def rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


def softmax_of(values):
    """The package's softmax kernel on a copy of a plain vector."""
    return _softmax(np.array(values, dtype=np.float64))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_of([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_constant_vector(self):
        for c in (-3.0, 0.0, 17.5):
            np.testing.assert_allclose(softmax_of([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_hand_example(self):
        # exp(2), exp(0), exp(1) normalised
        e = np.exp([2.0, 0.0, 1.0])
        expected = e / e.sum()
        np.testing.assert_allclose(softmax_of([2.0, 0.0, 1.0]), expected, atol=1e-15)
        np.testing.assert_allclose(
            softmax_of([2.0, 0.0, 1.0]), [0.66524, 0.09003, 0.24473], atol=1e-5
        )

    @given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=100)
    def test_shift_invariance(self, values, shift):
        base = softmax_of(values)
        shifted = softmax_of(np.asarray(values) + shift)
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
        assert int(np.argmax(softmax_of(values))) == int(np.argmax(values))


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


class TestBackwardWalk:
    """A walk frees the graph it walks, and a graph is walked once."""

    def graph(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]), requires_grad=True)
        w = Tensor(np.ones((3, 1)), requires_grad=True)
        h = x @ w
        y = h * 2.0
        return x, w, h, y

    def test_frees_every_interior_node(self):
        x, w, h, y = self.graph()
        root = y.sum()
        root.backward()
        np.testing.assert_array_equal(w.grad, [[6.0], [10.0], [14.0]])
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))
        assert root.grad == 1.0
        for node in (h, y):
            assert node.grad is None
            assert node._parents == ()
            assert node._backward is autodiff._walked
        with pytest.raises(ValueError, match="already ran"):
            h._backward(np.ones(h.shape))

    def test_rejects_a_seed_of_the_wrong_shape(self):
        x, w, _, y = self.graph()
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(2, 1\)"):
            y.backward(np.ones((2, 2)))
        assert x.grad is None and w.grad is None
        y.backward(np.ones((2, 1)))
        np.testing.assert_array_equal(w.grad, [[6.0], [10.0], [14.0]])

    def test_a_second_walk_through_the_root_raises(self):
        x, w, _, y = self.graph()
        root = y.sum()
        root.backward()
        before = x.grad.copy(), w.grad.copy()
        with pytest.raises(ValueError, match="already ran"):
            root.backward()
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])

    def test_a_walk_through_a_freed_node_raises_before_any_gradient_moves(self):
        x, w, h, y = self.graph()
        y.sum().backward()
        before = x.grad.copy(), w.grad.copy()
        again = (x * x).sum() + (h * 3.0).sum()
        with pytest.raises(ValueError, match="already ran"):
            again.backward()
        np.testing.assert_array_equal(x.grad, before[0])
        np.testing.assert_array_equal(w.grad, before[1])


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
        self.check(lambda: power(a * b + div(a, b) + -b, 2).sum(), {"a": a, "b": b})

    def test_matmul_2d(self):
        gen = SeededRng(2).generator()
        a = Tensor(gen.normal(size=(3, 4)))
        b = Tensor(gen.normal(size=(4, 2)))
        self.check(lambda: power(a @ b, 2).mean(), {"a": a, "b": b})

    def test_matmul_batched(self):
        gen = SeededRng(3).generator()
        a = Tensor(gen.normal(size=(2, 3, 4)))
        b = Tensor(gen.normal(size=(2, 4, 3)))
        self.check(lambda: power(a @ b, 2).sum(), {"a": a, "b": b})

    def test_softmax_log_exp(self):
        gen = SeededRng(4).generator()
        x = Tensor(gen.normal(size=(3, 5)))
        self.check(lambda: power(softmax(x), 2).sum(), {"x": x})
        self.check(lambda: (log_softmax(x) * 0.1).sum(), {"x": x})
        y = Tensor(gen.normal(size=(4,)) + 3.0)
        self.check(lambda: y.log().sum(), {"y": y})

    def test_silu_pow_mean(self):
        gen = SeededRng(5).generator()
        x = Tensor(gen.normal(size=(6,)))
        g = Tensor(gen.normal(size=(6,)) + 2.0)
        self.check(lambda: (silu(x) * power(g, -0.5)).mean(), {"x": x, "g": g})

    def test_reshape_transpose_sum_axis(self):
        gen = SeededRng(6).generator()
        x = Tensor(gen.normal(size=(2, 3, 4)))
        self.check(
            lambda: power(row_sum(transpose(x, (1, 0, 2)).reshape((3, 8))), 2).sum(), {"x": x}
        )
        self.check(lambda: power(x.sum(axis=1), 2).sum(), {"x": x})

    def test_gather_scatter(self):
        gen = SeededRng(7).generator()
        x = Tensor(gen.normal(size=(5, 3)))
        idx = np.array([[0, 2], [1, 1], [2, 0], [0, 1], [2, 2]])
        rows = np.arange(5)[:, None]  # broadcasts against the (5, 2) columns
        self.check(lambda: power(take_pairs(x, rows, idx), 2).sum(), {"x": x})
        self.check(
            lambda: power(take_pairs(x, np.array([0, 1, 4]), np.array([2, 0, 1])), 2).sum(),
            {"x": x},
        )

    def test_stack_columns_embedding(self):
        gen = SeededRng(9).generator()
        cols = [Tensor(gen.normal(size=(4,))) for _ in range(3)]
        params = {f"c{i}": c for i, c in enumerate(cols)}
        self.check(lambda: power(stack_columns(cols), 2).sum(), params)
        w = Tensor(gen.normal(size=(5, 3)))
        ids = np.array([[0, 1], [4, 1]])
        self.check(lambda: power(embedding(w, ids), 2).sum(), {"w": w})


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


def assert_same_bits(got, want):
    """Equal bytes, except that a NaN only has to stay a NaN: no kernel
    promises the sign or payload of one."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestTapeFastPaths:
    EDGES = np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 745.0, -745.0, 709.0, -709.0, 36.0, -36.0]
        + [1e-300, -1e-300]
    )

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 127, 7680])
    def test_sigmoid_bitwise_equals_masked_form(self, size):
        gen = SeededRng(size).generator()
        x = gen.normal(0.0, 8.0, size=size)
        n = min(size, self.EDGES.size)
        x[:n] = self.EDGES[:n]
        gen.shuffle(x)
        assert_same_bits(_sigmoid(x), masked_sigmoid(x))
        matrix = gen.normal(0.0, 4.0, size=(size, 3))
        assert _sigmoid(matrix).tobytes() == masked_sigmoid(matrix).tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 15, 16, 17])
    def test_softmax_bitwise_on_masked_attention_rows(self, length):
        gen = SeededRng(50 + length).generator()
        scores = gen.normal(0.0, 3.0, size=(5, 4, length, length)) + _causal_mask(length)
        assert _softmax(scores.copy()).tobytes() == plain_softmax(scores).tobytes()

    @pytest.mark.parametrize("columns", range(2, 10))
    def test_softmax_bitwise_on_router_rows(self, columns):
        gen = SeededRng(60 + columns).generator()
        logits = gen.normal(0.0, 2.0, size=(97, columns))
        logits[:3] = 0.0  # every column ties at the max
        logits[3, :2] = 50.0
        assert _softmax(logits.copy()).tobytes() == plain_softmax(logits).tobytes()

    def test_softmax_bitwise_on_signed_zero_ties(self):
        rows = np.array(
            [
                [-0.0, 0.0, -1.0],
                [0.0, -0.0, -1.0],
                [-0.0, -0.0, -0.0],
                [-1.0, -0.0, 0.0],
                [-2.0, 0.0, -0.0],
                [-np.inf, -0.0, 0.0],
            ]
        )
        assert _softmax(rows.copy()).tobytes() == plain_softmax(rows).tobytes()

    @pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a @ b])
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
            lambda: power(expert_mix(x, weights, indices, experts, bypass), 2).sum(), params
        )

    @pytest.mark.parametrize("bypass", [None, BYPASS])
    def test_matches_tape_composition(self, bypass):
        x, weights, indices, experts = mix_case(seed=31)
        params = mix_params(x, weights, experts)
        fused = expert_mix(x, weights, indices, experts, bypass)
        reference = composed_mix(x, weights, indices, experts, bypass)
        assert rel_err(fused.data, reference.data) < 1e-12
        _, got = value_and_grad(
            lambda: power(expert_mix(x, weights, indices, experts, bypass), 2).sum(), params
        )
        _, want = value_and_grad(
            lambda: power(composed_mix(x, weights, indices, experts, bypass), 2).sum(), params
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


def routed_experts(experts):
    """Every expert but the last and, from four experts on, expert 1, so
    both get no rows; expert 0 alone when there is only one."""
    routed = [e for e in range(experts) if e != experts - 1 and (e != 1 or experts < 4)]
    return np.array(routed or [0])


def wide_mix_case(experts, k, seed, hidden=6, ffn=10, rows=31):
    """``rows`` rows, each routed to ``k`` of ``routed_experts``. Slot
    weights come from a softmax, as the router gives them."""
    gen = SeededRng(seed).generator()
    shapes = ((hidden, ffn), (hidden, ffn), (ffn, hidden))
    pool = [
        Expert(*(Tensor(gen.normal(0.0, 0.5, size=shape)) for shape in shapes))
        for _ in range(experts)
    ]
    routed = routed_experts(experts)
    picks = np.argsort(-gen.normal(size=(rows, routed.size)), axis=1, kind="stable")[:, :k]
    weights = Tensor(plain_softmax(gen.normal(size=(rows, k))))
    bypass = gen.uniform(size=rows) < 0.3
    return Tensor(gen.normal(size=(rows, hidden))), weights, routed[picks], pool, bypass


# Which operands need a gradient: every one; x frozen with the newest
# experts trainable (layer 0 in stage 1); every expert frozen with x and
# the weights trainable (stage 2); none (inference, no tape).
TRAINING = {
    "all": lambda x, weights, experts: [x, weights, *expert_params(experts)],
    "newest-experts": lambda x, weights, experts: [
        weights, *expert_params(experts[len(experts) // 2 :])
    ],
    "frozen-experts": lambda x, weights, experts: [x, weights],
    "no-tape": lambda x, weights, experts: [],
}


def expert_params(experts):
    return [t for ex in experts for t in (ex.gate, ex.up, ex.down)]


def assert_mix_bits(x, weights, indices, experts, bypass, upstream, **reference):
    """The output and every gradient of ``expert_mix`` have the bytes of the
    per-expert reference's; a gradient is None in both or in neither."""
    got = expert_mix(x, weights, indices, experts, bypass)
    want = per_expert_mix(x, weights, indices, experts, bypass, **reference)
    assert got.data.tobytes() == want.data.tobytes()
    assert (got._backward is None) == (want._backward is None)
    if got._backward is None:
        return
    for i, (a, b) in enumerate(zip(got._backward(upstream), want._backward(upstream))):
        assert (a is None) == (b is None), i
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


class TestExpertMixKeepsBits:
    """``expert_mix`` runs its training-time elementwise math once per layer
    and gathers its output rows; the per-expert form it replaced is the
    reference, bit for bit, for every k up to 7."""

    @pytest.mark.parametrize("training", sorted(TRAINING))
    @pytest.mark.parametrize(
        "experts, k",
        [
            (experts, k)
            for experts in (1, 2, 3, 5, 9, 20)
            for k in range(1, min(7, routed_experts(experts).size) + 1)
        ],
    )
    def test_output_and_every_gradient(self, experts, k, training):
        x, weights, indices, pool, bypass = wide_mix_case(experts, k, seed=experts * 10 + k)
        for t in TRAINING[training](x, weights, pool):
            t.requires_grad = True
        upstream = SeededRng(k).generator().normal(size=x.shape)
        for rows in (None, bypass):
            assert_mix_bits(x, weights, indices, pool, rows, upstream)

    def test_one_row_blocks(self):
        """Experts that each get one row, the shape numpy runs as gemv."""
        x, weights, indices, pool, bypass = wide_mix_case(20, 2, seed=5, rows=4)
        for t in [x, weights, *expert_params(pool)]:
            t.requires_grad = True
        upstream = SeededRng(6).generator().normal(size=x.shape)
        assert_mix_bits(x, weights, indices, pool, None, upstream)
        assert_mix_bits(x, weights, indices, pool, bypass, upstream)

    @pytest.mark.parametrize("hidden", [1, 4])
    @pytest.mark.parametrize("k", [8, 9])
    def test_eight_or_more_slots_sum_in_slot_order(self, k, hidden):
        """From 8 slots numpy's reduce may go pairwise (it does at width 1
        on numpy 2.4); ``expert_mix`` keeps ``0 + slot 0 + slot 1 + ...``."""
        x, weights, indices, pool, bypass = wide_mix_case(12, k, seed=k, hidden=hidden)
        for t in [x, weights, *expert_params(pool)]:
            t.requires_grad = True
        upstream = SeededRng(k).generator().normal(size=x.shape)
        for rows in (None, bypass):
            assert_mix_bits(x, weights, indices, pool, rows, upstream, slot_sum=ordered_slot_sum)

    def test_signed_zero_slot_values(self):
        """A slot whose weight is -0.0 adds a -0.0 row; a row of only such
        slots, and a -0.0 upstream gradient, still sum to numpy's +0.0."""
        x, weights, indices, pool, bypass = wide_mix_case(5, 2, seed=7)
        weights.data[::3] = -0.0
        weights.data[1::3, 1] = 0.0
        upstream = SeededRng(8).generator().normal(size=x.shape)
        upstream[::2] = -0.0
        for t in [x, weights, *expert_params(pool)]:
            t.requires_grad = True
        for rows in (None, bypass):
            assert_mix_bits(x, weights, indices, pool, rows, upstream)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_slot_sum_is_zero_then_each_slot_in_order(self, k):
        """Signed zeros and magnitudes far apart, with some slots inactive:
        they read the zero row after the values."""
        gen = SeededRng(k).generator()
        n, width = 11, 3
        pairs = gen.permutation(np.flatnonzero(gen.uniform(size=n * k) < 0.8))
        values = gen.choice([-0.0, 0.0, 1.5, -2.25, 1e-300, -1e300], size=(pairs.size, width))
        slots = np.full(n * k, pairs.size)
        slots[pairs] = np.arange(pairs.size)
        got = _slot_sum(np.concatenate([values, np.zeros((1, width))]), slots.reshape(n, k))
        assert got.tobytes() == ordered_slot_sum(values, pairs, n, k).tobytes()
        if k <= 7:
            assert got.tobytes() == padded_slot_sum(values, pairs, n, k).tobytes()


def composed_attention(x, wq, wk, wv, wo, mask, heads):
    """Reference: the tape composition that ``attention`` fuses."""
    b, t, h = x.shape
    dh = h // heads
    flat = x.reshape((b * t, h))

    def split(w):
        return transpose((flat @ w).reshape((b, t, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(wq), split(wk), split(wv)
    att = softmax(q @ transpose(k, (0, 1, 3, 2)) * (dh**-0.5) + Tensor(mask))
    ctx = transpose(att @ v, (0, 2, 1, 3)).reshape((b * t, h))
    return (ctx @ wo).reshape((b, t, h))


def composed_rms_norm(x, gain, eps):
    """Reference: the tape composition that ``rms_norm`` fuses."""
    ms = row_sum(x * x) * (1.0 / x.shape[-1])
    return x * power(ms + eps, -0.5) * gain


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
    @pytest.mark.parametrize(
        "shape", [(2, 5, 8, 2), (3, 7, 12, 1), (8, 15, 32, 4), (64, 15, 32, 4), (3, 9, 32, 2)]
    )
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


def composed_route(x, columns, top_k):
    """Reference: the tape composition that ``route`` fuses."""
    scores = softmax(x @ stack_columns(columns))
    k = min(top_k, len(columns))
    indices = np.argsort(-scores.data, axis=1, kind="stable")[:, :k]
    selected = take_pairs(scores, np.arange(len(indices))[:, None], indices)
    return scores, indices, div(selected, row_sum(selected))


def route_case(rows=9, hidden=4, experts=5, seed=70):
    """Router inputs, one column per expert, and loss coefficients for the
    scores and for the (rows, experts) weights, of which a loss reads the
    first k columns."""
    gen = SeededRng(seed).generator()
    x = Tensor(gen.normal(size=(rows, hidden)))
    columns = [Tensor(gen.normal(size=hidden)) for _ in range(experts)]
    return x, columns, gen.normal(size=(rows, experts)), gen.normal(size=(rows, experts))


def route_loss(router, x, columns, top_k, cs, cw):
    """A loss that reads both nodes, as the balance and prior-routing terms
    read the scores and ``expert_mix`` reads the weights."""
    scores, indices, weights = router(x, columns, top_k)
    return (scores * cs).sum() + (weights * cw[:, : indices.shape[1]]).sum()


def route_params(x, columns, frozen=()):
    params = {"x": x}
    params.update({f"router.{e}": c for e, c in enumerate(columns) if e not in frozen})
    return params


class TestRouteNode:
    """``route`` against central differences and, bit for bit, against the
    composition of softmax, gather and renormalisation it replaces."""

    @pytest.mark.parametrize("top_k", [1, 2, 5])
    def test_matches_central_differences_with_a_frozen_column(self, top_k):
        x, columns, cs, cw = route_case()
        params = route_params(x, columns, frozen=(3,))
        TestOpGradients().check(lambda: route_loss(route, x, columns, top_k, cs, cw), params)
        for p in params.values():
            p.requires_grad = True
        scores, _, weights = route(x, columns, top_k)
        grads = scores._backward(np.ones(scores.shape))
        assert [g is None for g in grads] == [False, False, False, False, True, False]
        assert weights._parents == (scores,)

    @pytest.mark.parametrize("trainable", ["x", "columns", "all"])
    @pytest.mark.parametrize(
        "rows, hidden, experts, top_k", [(9, 4, 5, 2), (7, 3, 3, 1), (6, 4, 3, 5), (40, 32, 9, 2)]
    )
    def test_bitwise_equal_to_tape_composition(self, rows, hidden, experts, top_k, trainable):
        x, columns, cs, cw = route_case(rows, hidden, experts, seed=71)
        columns[-1].data[:] = 0.0  # a new expert's zero column
        got, want = route(x, columns, top_k), composed_route(x, columns, top_k)
        assert got[0].data.tobytes() == want[0].data.tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2].data.tobytes() == want[2].data.tobytes()
        params = {"x": x} if trainable == "x" else route_params(x, columns)
        if trainable == "columns":
            del params["x"]
        got = value_and_grad(lambda: route_loss(route, x, columns, top_k, cs, cw), params)
        want = value_and_grad(lambda: route_loss(composed_route, x, columns, top_k, cs, cw), params)
        assert got[0] == want[0]
        for name in params:
            assert got[1][name].tobytes() == want[1][name].tobytes(), name

    def test_zero_router_ties_pick_lowest_ids(self):
        gen = SeededRng(72).generator()
        x = Tensor(gen.normal(size=(30, 8)))
        columns = [Tensor(np.zeros(8)) for _ in range(9)]
        scores, indices, weights = route(x, columns, 2)
        np.testing.assert_array_equal(scores.data, np.full((30, 9), 1.0 / 9.0))
        np.testing.assert_array_equal(indices, np.tile([0, 1], (30, 1)))
        np.testing.assert_array_equal(weights.data, 0.5)
        assert scores._parents == () and weights._parents == ()


class TestRewrittenKernelProperties:
    """``route``'s top-k by argmax passes and the untaped ``expert_mix``,
    over shapes, ties and NaN rows the fixed cases above do not reach."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_route_picks_what_a_stable_sort_picks(self, data):
        rows = data.draw(st.integers(1, 1200), "rows")
        experts = data.draw(st.integers(1, 24), "experts")
        top_k = data.draw(st.integers(1, experts + 1), "top_k")
        gen = SeededRng(data.draw(st.integers(0, 2**32 - 1), "seed")).generator()
        x = gen.normal(size=(rows, 4))
        x[gen.uniform(size=rows) < 0.05] = np.nan
        columns = gen.normal(size=(experts, 4))
        # A zero column ties with every other zero column, a copy with its source.
        for e, kind in enumerate(gen.integers(3, size=experts)):
            if kind == 1:
                columns[e] = 0.0
            elif kind == 2 and e:
                columns[e] = columns[gen.integers(e)]
        columns = [Tensor(c) for c in columns]
        scores, indices, weights = route(Tensor(x), columns, top_k)
        want = composed_route(Tensor(x), columns, top_k)
        k = min(top_k, experts)
        np.testing.assert_array_equal(
            indices, np.argsort(-scores.data, axis=1, kind="stable")[:, :k]
        )
        assert scores.data.tobytes() == want[0].data.tobytes()
        assert weights.data.tobytes() == want[2].data.tobytes()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_untaped_mix_is_the_per_expert_mix_at_serving_width(self, data):
        """Hidden 32 and ffn 64, as served. With two experts to spare, the
        last gets no row and the one before it exactly one."""
        rows = data.draw(st.integers(1, 960), "rows")
        experts = data.draw(st.integers(1, 12), "experts")
        k = data.draw(st.integers(1, min(experts, 3)), "k")
        gated = data.draw(st.booleans(), "gated")
        gen = SeededRng(data.draw(st.integers(0, 2**32 - 1), "seed")).generator()
        shapes = ((32, 64), (32, 64), (64, 32))
        pool = [
            Expert(*(Tensor(gen.normal(0.0, 0.2, size=shape)) for shape in shapes))
            for _ in range(experts)
        ]
        preference = gen.normal(size=(rows, experts))
        bypass = gen.uniform(size=rows) < gen.uniform() if gated else None
        if experts > k + 1:
            preference[:, -2:] = -np.inf
            one = gen.integers(rows)
            preference[one, -2] = np.inf
            if gated:
                bypass[one] = False
        indices = np.argsort(-preference, axis=1, kind="stable")[:, :k]
        weights = Tensor(plain_softmax(gen.normal(size=(rows, k))))
        x = Tensor(gen.normal(size=(rows, 32)))
        got = expert_mix(x, weights, indices, pool, bypass)
        want = per_expert_mix(x, weights, indices, pool, bypass)
        assert got._backward is None
        assert got.data.tobytes() == want.data.tobytes()
