"""Fused tape records against the primitive chains they replace.

The ConvMGU recurrence (``mgu_step``) and the one-record losses must give the
chain's values and gradients bit for bit (``np.array_equal``), including where
the gates saturate and where the loss clamp is active.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dflow.losses import CLAMP_EPS, bce_loss, focal_loss
from dflow.recurrent import ConvMguCell
from dflow.tensor import GradTape, Tensor, Zero, backward, mgu_step

from oracles import (
    CELL_STEP_RECORDS,
    bce_loss_chain,
    finite_difference,
    focal_loss_chain,
    hadamard,
    mgu_step_chain,
    rel_err,
    scale,
    sum_all,
)

SETTINGS = settings(max_examples=40, deadline=None)

shapes = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5))
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


def _step_case(step, side, gain, zero_state):
    """h, f and the gradient of every leaf (the frame, a tracked state and
    the cell's parameters) under sum(upstream o h) for one cell step."""
    rng = np.random.default_rng(7)
    cin, n = 3, 2
    cell = ConvMguCell(cin, n, 3, np.random.default_rng(8))
    x = Tensor(gain * rng.uniform(-1.0, 1.0, size=(cin, side, side)), requires_grad=True)
    # drawn for a Zero state too, so both cases get the same upstream
    h_prev = Tensor(rng.uniform(-1.0, 1.0, size=(n, side, side)), requires_grad=True)
    upstream = rng.uniform(-2.0, 2.0, size=(n, side, side))
    leaves = [x, *cell.parameters().values()]
    if zero_state:
        h_prev = Zero(h_prev.shape)
    else:
        leaves.append(h_prev)
    with GradTape() as tape:
        h, f = step(cell, x, h_prev)
        loss = sum_all(hadamard(h, Tensor(upstream)))
    backward(tape, loss, leaves)
    return h.data, f.data, [t.grad for t in leaves]


# a Zero and a tracked state, at 6x6 and 32x32, at input gain 1 and 30
STEP_CASES = pytest.mark.parametrize("zero_state, side, gain", [
    pytest.param(zero_state, side, gain,
                 id=f"{'zero_state' if zero_state else 'state'}-{side}-gain{gain:g}")
    for zero_state in (True, False) for side in (6, 32) for gain in (1.0, 30.0)])


class TestMguOps:
    @STEP_CASES
    def test_step_matches_the_chain_bit_for_bit(self, zero_state, side, gain):
        fused = _step_case(ConvMguCell.step_with_gate, side, gain, zero_state)
        chained = _step_case(mgu_step_chain, side, gain, zero_state)
        assert np.array_equal(fused[0], chained[0]) and np.array_equal(fused[1], chained[1])
        assert len(fused[2]) == len(chained[2])
        for a, b in zip(fused[2], chained[2]):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        if gain == 30.0:  # the gates reach both saturated tails
            assert fused[1].min() < 1e-6 and fused[1].max() > 1.0 - 1e-6

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
        assert (fused[2], chained[2]) == (2 * CELL_STEP_RECORDS + 2, 2 * 13 + 2)

    @STEP_CASES
    def test_gradients_match_finite_differences(self, zero_state, side, gain):
        rng = np.random.default_rng(31)
        n = 2
        shape = (n, side, side)
        values = [gain * rng.uniform(-1.0, 1.0, size=shape) for _ in range(2)]  # zf, zh
        if not zero_state:
            values.append(rng.uniform(-1.0, 1.0, size=shape))
        values += [rng.uniform(-0.5, 0.5, size=(n, n, 3, 3)) for _ in range(2)]  # u_f, u_h
        upstream = rng.uniform(-1.0, 1.0, size=shape)

        def step(zf, zh, *rest):
            h_prev, u_f, u_h = (Zero(shape), *rest) if zero_state else rest
            return mgu_step(zf, zh, h_prev, u_f, u_h)[0]

        inputs = _leaves(values)
        _, grads = _run(step, inputs, upstream)

        h0 = step(*[Tensor(v) for v in values]).data

        def loss_value():  # less h0, so the sum's rounding does not swamp a 32x32 difference
            return float(((step(*[Tensor(v) for v in values]).data - h0) * upstream).sum())

        for value, grad in zip(values, grads):
            fd = finite_difference(loss_value, value)
            assert rel_err(grad, fd).max() < 1e-4

    def test_shape_mismatch_is_rejected(self):
        a, b = Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 2, 3)))
        k, wide = Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((2, 1, 3, 3)))
        for args in [(a, b, a, k, k), (a, a, b, k, k), (a, a, Zero((1, 2, 3)), k, k),
                     (a, a, a, wide, k), (a, a, a, k, wide)]:
            with pytest.raises(ValueError, match="mgu_step: shape mismatch"):
                mgu_step(*args)


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
