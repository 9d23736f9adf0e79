import numpy as np
import numpy.testing as npt
import pytest

import dflow.tensor as tensor_mod
from dflow.recurrent import (
    ConvMguBlock,
    ConvMguCell,
    ConvMguStack2,
    UnitHyperparams,
    count_actual_params,
    param_count,
)
from dflow.tensor import GradTape, Tensor, Zero, backward

from oracles import (
    block_naive,
    cell_weight_arrays,
    conv3d_naive,
    convmgu_step_naive,
    finite_difference,
    mean_all,
    rel_err,
    sigmoid_np,
    stack2_naive,
    tanh,
)

REFERENCE_HP = UnitHyperparams(m=3, gamma=3, kappa=40, n=40, f=3)


def make_cell(rng, cin=3, n=2, m=3):
    return ConvMguCell(cin, n, m, rng)


def zero_cell(cin=3, n=2, m=3):
    cell = make_cell(np.random.default_rng(0), cin, n, m)
    for t in cell.parameters().values():
        t.data[...] = 0.0
    return cell


class TestParamCount:
    def test_printed_formulas_at_reference_setting(self):
        assert param_count("convlstm2", REFERENCE_HP) == 124160
        assert param_count("mgu_block", REFERENCE_HP) == 34320
        assert param_count("mgu_stack2", REFERENCE_HP) == 31040

    def test_reduction_ratio_rounds_to_73_percent(self):
        reduction = 1.0 - param_count("mgu_block", REFERENCE_HP) / param_count(
            "convlstm2", REFERENCE_HP)
        assert abs(reduction - 0.7236) < 1e-4
        assert round(reduction * 100) == 72 or round(reduction, 2) == 0.72
        # the printed claim rounds 0.7236 up; the exact value is fixed here
        npt.assert_allclose(reduction, 1.0 - 34320 / 124160, atol=0)

    def test_stack_is_exactly_quarter_of_convlstm(self):
        for hp in (REFERENCE_HP, UnitHyperparams(m=5, gamma=4, kappa=7, n=9, f=3)):
            assert param_count("convlstm2", hp) == 4 * param_count("mgu_stack2", hp)

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            UnitHyperparams(m=3, gamma=0, kappa=40, n=40)
        with pytest.raises(ValueError):
            UnitHyperparams(m=4, gamma=3, kappa=40, n=40)
        with pytest.raises(ValueError, match="m must be an integer, got true"):
            UnitHyperparams(m=True)
        with pytest.raises(ValueError):
            param_count("mystery", REFERENCE_HP)


class TestCountActualParams:
    def test_reference_cell_size(self):
        # W: n*cin*m*m, U: n*n*m*m, b: n, doubled for the two branches
        cell = make_cell(np.random.default_rng(0), cin=3, n=40, m=3)
        expected = 2 * (40 * 3 * 9 + 40 * 40 * 9 + 40)
        assert count_actual_params(cell) == expected == 31040

    def test_smallest_cell(self):
        cell = make_cell(np.random.default_rng(0), cin=1, n=1, m=1)
        assert count_actual_params(cell) == 6

    def test_block_shortcut_term(self):
        block = ConvMguBlock(3, 40, 3, 3, np.random.default_rng(0))
        shortcut = block.shortcut_w.data.size + block.shortcut_b.data.size
        assert shortcut == 27 * 3 * 40 + 40 == 3280

    def test_true_stack_size_exceeds_printed_formula(self):
        # the printed stack formula charges (gamma + kappa) to both layers;
        # the constructed layer 2 actually takes n input channels
        stack = ConvMguStack2(3, 40, 3, np.random.default_rng(0))
        layer2 = 2 * (40 * 40 * 9 + 40 * 40 * 9 + 40)
        assert count_actual_params(stack) == 31040 + layer2 == 88720
        assert count_actual_params(stack) != param_count("mgu_stack2", REFERENCE_HP)


class TestConvMguStep:
    def test_zero_weights_halve_previous_state(self):
        cell = zero_cell()
        rng = np.random.default_rng(1)
        h_prev = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))
        x = Tensor(rng.uniform(-1, 1, size=(3, 4, 4)))
        h, f = cell.step_with_gate(x, h_prev)
        npt.assert_array_equal(f.data, 0.5)
        npt.assert_allclose(h.data, 0.5 * h_prev.data, atol=1e-15)

    def test_saturated_gate_with_zero_candidate(self):
        cell = zero_cell()
        cell.b_f.data[...] = 20.0
        rng = np.random.default_rng(2)
        h_prev = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))
        x = Tensor(rng.uniform(-1, 1, size=(3, 4, 4)))
        h = cell.step(x, h_prev)
        assert np.abs(h.data).max() < 1e-8

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        cell = make_cell(rng)
        x = rng.uniform(-1, 1, size=(3, 4, 4))
        h_prev = rng.uniform(-1, 1, size=(2, 4, 4))
        h, f = cell.step_with_gate(Tensor(x), Tensor(h_prev))
        expected_h, expected_f = convmgu_step_naive(cell_weight_arrays(cell), x, h_prev)
        npt.assert_allclose(h.data, expected_h, atol=1e-12)
        npt.assert_allclose(f.data, expected_f, atol=1e-12)

    def test_rejects_mismatched_inputs(self):
        cell = make_cell(np.random.default_rng(0))
        for x_shape, h_shape in [
            ((3, 4, 4), (2, 5, 5)),  # spatial mismatch
            ((4, 4, 4), (2, 4, 4)),  # x channels
            ((3, 4, 4), (3, 4, 4)),  # h_prev channels
            ((4, 4), (2, 4, 4)), ((3, 4, 4), (4, 4)),  # rank 2
            ((1, 3, 4, 4), (2, 4, 4)), ((3, 4, 4), (1, 2, 4, 4)),  # rank 4
        ]:
            with pytest.raises(ValueError):
                cell.step(Zero(x_shape), Zero(h_shape))
        block = ConvMguBlock(3, 2, 3, 3, np.random.default_rng(0))
        for frames in ([], [Zero((4, 4, 4))] * 3):  # no frames, 4-channel frames
            with pytest.raises(ValueError):
                block.forward(frames)

    def test_gate_and_state_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cell = ConvMguCell(2, 3, 3, rng)
            h = Zero((3, 5, 5))
            for _step in range(5):
                x = Tensor(rng.uniform(-1, 1, size=(2, 5, 5)))
                h, f = cell.step_with_gate(x, h)
                assert np.all(f.data > 0.0) and np.all(f.data < 1.0)
                assert np.all(np.abs(h.data) <= 1.0)

    def test_candidate_fixed_point(self):
        # if h_prev already equals the candidate, the convex mix returns it
        rng = np.random.default_rng(5)
        cell = make_cell(rng, cin=2, n=2)
        for t in (cell.w_h, cell.u_h):
            t.data[...] = 0.0
        cell.b_h.data[...] = 0.3
        h_prev = Tensor(np.full((2, 3, 3), np.tanh(0.3)))
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 3)))
        h = cell.step(x, h_prev)
        npt.assert_allclose(h.data, h_prev.data, atol=1e-12)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        cell = make_cell(rng, cin=2, n=2, m=3)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))
        h_prev = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))

        def loss_value():
            h, _ = convmgu_step_naive(cell_weight_arrays(cell), x.data, h_prev.data)
            return float(np.tanh(h).mean())

        with GradTape() as tape:
            loss = mean_all(tanh(cell.step(x, h_prev)))
        backward(tape, loss, cell.parameters().values())
        for name, p in cell.parameters().items():
            fd = finite_difference(loss_value, p.data)
            assert rel_err(p.grad, fd).max() < 1e-4, name


def make_stack(seed, cin=3, n=2):
    # draws layer 1 then layer 2 from one generator, like two make_cell calls
    return ConvMguStack2(cin, n, 3, np.random.default_rng(seed))


class TestStack2:
    def test_single_zero_frame_zero_weights(self):
        stack = make_stack(0)
        for t in stack.parameters().values():
            t.data[...] = 0.0
        out = stack.forward([Zero((3, 4, 4))])
        npt.assert_array_equal(out.data, 0.0)

    def test_zero_frames_reduce_to_center_tap_recurrence(self):
        # on a 1x1 grid with zero frames, convolutions see only their centre
        # taps, so the unroll collapses to a per-channel scalar recurrence
        stack = make_stack(7)
        frames = [Zero((3, 1, 1)) for _ in range(4)]
        out = stack.forward(frames)

        h1 = np.zeros(2)
        h2 = np.zeros(2)
        for _ in frames:
            h1 = scalar_step_with_input(stack.layer1, np.zeros(3), h1)
            h2 = scalar_step_with_input(stack.layer2, h1, h2)
        npt.assert_allclose(out.data[:, 0, 0], h2, atol=1e-12)

    def test_two_frames_equal_hand_unrolled_steps(self):
        rng = np.random.default_rng(8)
        stack = make_stack(8)
        layer1, layer2 = stack.layer1, stack.layer2
        frames = [Tensor(rng.uniform(-1, 1, size=(3, 4, 4))) for _ in range(2)]
        out = stack.forward(frames)
        h1 = layer1.step(frames[0], Zero((2, 4, 4)))
        h2 = layer2.step(h1, Zero((2, 4, 4)))
        h1 = layer1.step(frames[1], h1)
        h2 = layer2.step(h1, h2)
        npt.assert_array_equal(out.data, h2.data)

    def test_matches_naive_unroll(self):
        rng = np.random.default_rng(9)
        stack = make_stack(9)
        frames = [rng.uniform(-1, 1, size=(3, 4, 4)) for _ in range(3)]
        states = stack.forward_all([Tensor(f) for f in frames])
        expected = stack2_naive(cell_weight_arrays(stack.layer1),
                                cell_weight_arrays(stack.layer2), frames)
        assert len(states) == len(expected) == 3
        for got, want in zip(states, expected):
            npt.assert_allclose(got.data, want, atol=1e-12)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            make_stack(0).forward([])

    def test_float32_parameters_and_frames_keep_float32_states(self):
        rng = np.random.default_rng(10)
        frames = [rng.uniform(-1, 1, size=(3, 4, 4)) for _ in range(3)]
        want = make_stack(10).forward_all([Tensor(f) for f in frames])
        stack = make_stack(10)
        for t in stack.parameters().values():
            t.data = t.data.astype(np.float32)
        got = stack.forward_all([Tensor(f.astype(np.float32)) for f in frames])
        assert [s.data.dtype for s in got] == [np.float32] * 3
        for s32, s64 in zip(got, want):
            npt.assert_allclose(s32.data, s64.data, atol=1e-6)


def scalar_step_with_input(cell, x, h):
    def center(t):
        m = t.data.shape[-1]
        return t.data[:, :, m // 2, m // 2]

    f = sigmoid_np(center(cell.w_f) @ x + center(cell.u_f) @ h + cell.b_f.data)
    cand = np.tanh(center(cell.w_h) @ x + center(cell.u_h) @ (f * h) + cell.b_h.data)
    return (1 - f) * h + f * cand


class TestBlock:
    def make_block(self, seed=10, cin=3, n=2):
        return ConvMguBlock(cin, n, 3, 3, np.random.default_rng(seed))

    def test_zero_shortcut_equals_plain_stack(self):
        block = self.make_block()
        block.shortcut_w.data[...] = 0.0
        block.shortcut_b.data[...] = 0.0
        rng = np.random.default_rng(11)
        frames = [Tensor(rng.uniform(-1, 1, size=(3, 4, 4))) for _ in range(3)]
        out = block.forward(frames)
        npt.assert_array_equal(out.data, block.stack.forward(frames).data)

    def test_zero_stack_leaves_residual_only(self):
        block = self.make_block()
        for name, p in block.stack.parameters().items():
            p.data[...] = 0.0
        rng = np.random.default_rng(12)
        for n_frames in (1, 3):
            frames = [Tensor(rng.uniform(-1, 1, size=(3, 4, 4))) for _ in range(n_frames)]
            out = block.forward(frames)
            stacked = np.stack([f.data for f in frames], axis=1)
            residual = conv3d_naive(stacked, block.shortcut_w.data, block.shortcut_b.data)
            npt.assert_allclose(out.data, residual[:, -1], atol=1e-12)

    def test_matches_naive_composition(self):
        block = self.make_block(seed=13)
        rng = np.random.default_rng(14)
        frames = [rng.uniform(-1, 1, size=(3, 4, 4)) for _ in range(3)]
        out = block.forward([Tensor(f) for f in frames])
        expected = block_naive(
            cell_weight_arrays(block.layer1), cell_weight_arrays(block.layer2),
            block.shortcut_w.data, block.shortcut_b.data, frames)
        assert expected.shape == (3, 2, 4, 4)
        npt.assert_allclose(out.data, expected[-1], atol=1e-12)
        assert out.data.shape == (2, 4, 4)

    def test_rejects_even_kernels(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^kernel size must be odd"):
            ConvMguCell(3, 2, 2, rng)
        with pytest.raises(ValueError, match="^shortcut kernel size must be odd"):
            ConvMguBlock(3, 2, 3, 2, rng)

    def test_rejects_empty_sequence_and_bad_channels(self):
        block = self.make_block()
        with pytest.raises(ValueError):
            block.forward([])
        with pytest.raises(ValueError):
            block.forward([Zero((4, 4, 4))])


class TestGradcheckSensitivity:
    def test_corrupted_gate_backward_is_detected(self, monkeypatch):
        rng = np.random.default_rng(15)
        cell = make_cell(rng, cin=2, n=2, m=3)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))
        h_prev = Tensor(rng.uniform(-1, 1, size=(2, 4, 4)))

        def loss_value():
            h, _ = convmgu_step_naive(cell_weight_arrays(cell), x.data, h_prev.data)
            return float(np.tanh(h).mean())

        monkeypatch.setattr(tensor_mod, "_d_sigmoid", lambda y: -(y * (1.0 - y)))
        with GradTape() as tape:
            loss = mean_all(tanh(cell.step(x, h_prev)))
        backward(tape, loss, cell.parameters().values())
        fd = finite_difference(loss_value, cell.w_f.data)
        assert rel_err(cell.w_f.grad, fd).max() > 1e-2
