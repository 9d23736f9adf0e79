"""Fused tape records against the primitive chains they replace.

The fused ConvMGU ops and the one-record losses must give the chain's
values and gradients bit for bit (``np.array_equal``), including where the
gates saturate and where the loss clamp is active.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dflow.losses import CLAMP_EPS, bce_loss, focal_loss
from dflow.recurrent import ConvMguCell
from dflow.tensor import (
    GradTape,
    Tensor,
    backward,
    hadamard,
    mgu_forget,
    mgu_update,
    scale,
)

from oracles import (
    bce_loss_chain,
    finite_difference,
    focal_loss_chain,
    mgu_forget_chain,
    mgu_step_chain,
    mgu_update_chain,
    rel_err,
    sum_all,
)

SETTINGS = settings(max_examples=40, deadline=None)

shapes = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5))
# pre-activations up to the saturated tails, with +-30 drawn often
gate_values = st.one_of(st.sampled_from([-30.0, 30.0, 0.0]),
                        st.floats(-30.0, 30.0, allow_nan=False))
# probabilities at and next to both clamp bounds, and in between
prob_values = st.one_of(st.sampled_from([0.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0]),
                        st.floats(0.0, 1.0))


def _leaves(arrays_):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays_]


def _run(fn, inputs, upstream):
    """Forward value and the gradient of every input, for the scalar
    sum(upstream o fn(inputs)) so each output entry gets its own gradient."""
    with GradTape() as tape:
        out = fn(*inputs)
        loss = sum_all(hadamard(out, Tensor(upstream)))
    backward(tape, loss, inputs)
    return out.data, [t.grad for t in inputs]


def _assert_same(fused, chained):
    (y_fused, g_fused), (y_chain, g_chain) = fused, chained
    assert np.array_equal(y_fused, y_chain)
    assert len(g_fused) == len(g_chain)
    for a, b in zip(g_fused, g_chain):
        assert np.array_equal(a, b)


class TestMguOps:
    @SETTINGS
    @given(st.data())
    def test_forget_matches_the_chain_bit_for_bit(self, data):
        shape = data.draw(shapes)
        a, b = (data.draw(arrays(np.float64, shape, elements=gate_values)) for _ in range(2))
        upstream = data.draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        _assert_same(_run(mgu_forget, _leaves([a, b]), upstream),
                     _run(mgu_forget_chain, _leaves([a, b]), upstream))

    @SETTINGS
    @given(st.data())
    def test_update_matches_the_chain_bit_for_bit(self, data):
        shape = data.draw(shapes)
        gate, c1, c2 = (data.draw(arrays(np.float64, shape, elements=gate_values))
                        for _ in range(3))
        f = 1.0 / (1.0 + np.exp(-gate))  # reaches 0 and 1 to the last bit at +-30
        h_prev = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        upstream = data.draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        track_h = data.draw(st.booleans())

        def inputs():
            return _leaves([f, c1, c2]) + [Tensor(h_prev.copy(), requires_grad=track_h)]

        _assert_same(_run(mgu_update, inputs(), upstream),
                     _run(mgu_update_chain, inputs(), upstream))

    @SETTINGS
    @given(st.data())
    def test_cell_steps_match_the_chain_bit_for_bit(self, data):
        """Two unrolled steps, so the state's gradient is summed from both."""
        cin, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from([1, 3]))
        h, w = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        gain = data.draw(st.sampled_from([1.0, 30.0]))  # 30 drives the gates into saturation
        seed = data.draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        xs = [gain * rng.uniform(-1.0, 1.0, size=(cin, h, w)) for _ in range(2)]
        h0 = rng.uniform(-1.0, 1.0, size=(n, h, w))
        upstream = rng.uniform(-2.0, 2.0, size=(n, h, w))

        def unroll(step):
            cell = ConvMguCell(cin, n, m, np.random.default_rng(seed))
            inputs = _leaves([*xs, h0])
            with GradTape() as tape:
                h1 = step(cell, inputs[0], inputs[2])[0]
                h2 = step(cell, inputs[1], h1)[0]
                loss = sum_all(hadamard(h2, Tensor(upstream)))
            params = [*inputs, *cell.parameters().values()]
            backward(tape, loss, params)
            grads = [t.grad for t in params]
            return (h1.data, h2.data), grads, len(tape)

        fused = unroll(ConvMguCell.step_with_gate)
        chained = unroll(mgu_step_chain)
        for a, b in zip(fused[0], chained[0]):
            assert np.array_equal(a, b)
        for a, b in zip(fused[1], chained[1]):
            assert np.array_equal(a, b)
        assert (fused[2], chained[2]) == (2 * 7 + 2, 2 * 13 + 2)

    @pytest.mark.parametrize("op, n_inputs", [(mgu_forget, 2), (mgu_update, 4)])
    def test_gradients_match_finite_differences(self, op, n_inputs):
        rng = np.random.default_rng(31)
        values = [rng.uniform(-2.0, 2.0, size=(2, 3, 3)) for _ in range(n_inputs)]
        if op is mgu_update:
            values[0] = rng.uniform(0.05, 0.95, size=(2, 3, 3))  # a gate value f
        values[1][0, 0, :2] = (30.0, -30.0)  # saturates sigmoid(a + b) and tanh(c1 + c2)
        upstream = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
        inputs = _leaves(values)
        _, grads = _run(op, inputs, upstream)

        def loss_value():
            return float((op(*[Tensor(v) for v in values]).data * upstream).sum())

        for value, grad in zip(values, grads):
            fd = finite_difference(loss_value, value)
            assert rel_err(grad, fd).max() < 1e-4

    def test_shape_mismatch_is_rejected(self):
        a, b = Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="mgu_forget: shape mismatch"):
            mgu_forget(a, b)
        with pytest.raises(ValueError, match="mgu_update: shape mismatch"):
            mgu_update(a, a, a, b)


def _loss_case(fn, p, y):
    """Loss value and gradient w.r.t. p under an upstream gradient of 0.5,
    as a batch of two gives each window's loss; also the records taped."""
    pt = Tensor(p.copy(), requires_grad=True)
    with GradTape() as tape:
        loss = scale(fn(pt, y), 0.5)
    backward(tape, loss, [pt])
    return loss.data, pt.grad, len(tape) - 1


@st.composite
def loss_inputs(draw):
    shape = draw(shapes)
    p = draw(arrays(np.float64, shape, elements=prob_values))
    y = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0])))
    return p, y


# p at 0, 1 and both clamp bounds, each with either label
EDGE_CASE = (np.array([[[0.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0]] * 2]),
             np.array([[[0.0] * 4, [1.0] * 4]]))


class TestFusedLosses:
    @SETTINGS
    @given(loss_inputs())
    @example(EDGE_CASE)
    def test_bce_matches_the_chain_bit_for_bit(self, case):
        p, y = case
        fused, chained = _loss_case(bce_loss, p, y), _loss_case(bce_loss_chain, p, y)
        assert np.array_equal(fused[0], chained[0])
        assert np.array_equal(fused[1], chained[1])
        assert (fused[2], chained[2]) == (1, 9)

    @SETTINGS
    @given(loss_inputs(), st.sampled_from([0.0, 2.0]), st.sampled_from([0.25, 0.5]))
    @example(EDGE_CASE, 0.0, 0.25)
    @example(EDGE_CASE, 2.0, 0.5)
    def test_focal_matches_the_chain_bit_for_bit(self, case, gamma, alpha):
        p, y = case

        def fused_fn(pt, yv):
            return focal_loss(pt, yv, alpha=alpha, gamma=gamma)

        def chain_fn(pt, yv):
            return focal_loss_chain(pt, yv, alpha=alpha, gamma=gamma)

        fused, chained = _loss_case(fused_fn, p, y), _loss_case(chain_fn, p, y)
        assert np.array_equal(fused[0], chained[0])
        assert np.array_equal(fused[1], chained[1])
        assert (fused[2], chained[2]) == (1, 12)

    def test_clamped_entries_get_no_gradient(self):
        p = np.array([[[0.0, CLAMP_EPS, 0.3, 1.0 - CLAMP_EPS, 1.0]]])
        y = np.array([[[1.0, 1.0, 1.0, 0.0, 0.0]]])
        for fn in (bce_loss, focal_loss):
            grad = _loss_case(fn, p, y)[1]
            npt.assert_array_equal(grad[0, 0, [0, 1, 3, 4]], 0.0)
            assert grad[0, 0, 2] < 0.0
