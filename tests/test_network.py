from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from dflow.color import ColorImage
from dflow.losses import bce_loss, focal_loss
from dflow.network import (
    DFlowConfig,
    DFlowModel,
    PRESET_CHANNELS,
    SPACES,
    build_dflow,
    frames_for_flow,
)
from dflow.recurrent import ConvMguStack2, count_actual_params
from dflow.tensor import (GradTape, Tensor, Zero, _leaves, _Node, backward, branches,
                          mgu_step)

from oracles import (BLOCK_WINDOW_RECORDS, DESK_WINDOW_RECORDS, cell_weight_arrays,
                     finite_difference, mean_all, rel_err, stack2_naive)


def rand_frames(rng, n, side=8):
    return [ColorImage(rng.uniform(0, 1, size=(3, side, side))) for _ in range(n)]


def tiny_config(**overrides):
    base = dict(flow_a_space="rgb", flow_b_space="yuv", channels=4, k=2)
    base.update(overrides)
    return DFlowConfig(**base)


class TestBuild:
    def test_same_seed_is_bit_identical(self):
        a = build_dflow(tiny_config(), seed=5)
        b = build_dflow(tiny_config(), seed=5)
        for name, t in a.parameters().items():
            npt.assert_array_equal(t.data, b.parameters()[name].data)

    def test_different_seeds_differ(self):
        a = build_dflow(tiny_config(), seed=5)
        b = build_dflow(tiny_config(), seed=6)
        assert any(not np.array_equal(t.data, b.parameters()[name].data)
                   for name, t in a.parameters().items())

    def test_total_parameter_count_from_construction(self):
        model = build_dflow(DFlowConfig(channels=40), seed=0)
        per_flow = 88720  # true two-layer stack size at kappa = n = 40, cin 3
        decoder = 1 * 40 * 9 + 1
        assert count_actual_params(model) == 2 * per_flow + decoder == 177801

    def test_every_parameter_is_a_writable_tracked_tensor(self):
        for config in (DFlowConfig(channels=PRESET_CHANNELS["small"]),
                       DFlowConfig(channels=PRESET_CHANNELS["base"], use_block=True)):
            for name, t in build_dflow(config, seed=0).parameters().items():
                assert type(t) is Tensor and not isinstance(t, Zero), name
                assert t.requires_grad and t.data.flags.writeable, name

    def test_presets(self):
        assert PRESET_CHANNELS == {"small": 16, "base": 40}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DFlowConfig(flow_a_space="xyz")
        with pytest.raises(ValueError):
            DFlowConfig(k=0)
        with pytest.raises(ValueError):
            DFlowConfig(decoder_kernel_size=2)


class TestForward:
    def test_zero_decoder_gives_uniform_half(self):
        model = build_dflow(tiny_config(), seed=1)
        model.decoder_w.data[...] = 0.0
        model.decoder_b.data[...] = 0.0
        rng = np.random.default_rng(2)
        p = model.forward_window(rand_frames(rng, 3))
        npt.assert_array_equal(p.data, 0.5)

    def test_output_shape_and_open_interval(self):
        rng = np.random.default_rng(3)
        for side in (4, 8):
            for k in (1, 3):
                for channels in (2, 5):
                    model = build_dflow(tiny_config(channels=channels, k=k), seed=4)
                    p = model.forward_window(rand_frames(rng, k + 1, side))
                    assert p.data.shape == (1, side, side)
                    assert np.all(p.data > 0.0) and np.all(p.data < 1.0)

    def test_swapping_flows_and_inputs_is_symmetric(self):
        config = tiny_config(flow_a_space="yuv", flow_b_space="rgb")
        model = build_dflow(tiny_config(), seed=7)
        swapped = DFlowModel(config, model.flow_b, model.flow_a,
                             model.decoder_w, model.decoder_b)
        frames = rand_frames(np.random.default_rng(8), 3)
        npt.assert_array_equal(model.forward_window(frames).data,
                               swapped.forward_window(frames).data)

    def test_matches_naive_composition(self):
        model = build_dflow(tiny_config(), seed=9)
        frames = rand_frames(np.random.default_rng(10), 3)
        feats_a = stack2_naive(cell_weight_arrays(model.flow_a.layer1),
                               cell_weight_arrays(model.flow_a.layer2),
                               [f.data for f in frames_for_flow(frames, "rgb")])[-1]
        feats_b = stack2_naive(cell_weight_arrays(model.flow_b.layer1),
                               cell_weight_arrays(model.flow_b.layer2),
                               [f.data for f in frames_for_flow(frames, "yuv")])[-1]
        from oracles import conv2d_naive, sigmoid_np
        logits = conv2d_naive(feats_a + feats_b, model.decoder_w.data,
                              model.decoder_b.data)
        npt.assert_allclose(model.forward_window(frames).data, sigmoid_np(logits), atol=1e-12)

    def test_forward_is_deterministic(self):
        model = build_dflow(tiny_config(), seed=11)
        frames = rand_frames(np.random.default_rng(12), 3)
        npt.assert_array_equal(model.forward_window(frames).data,
                               model.forward_window(frames).data)

    def test_rejects_bad_sequences(self):
        model = build_dflow(tiny_config(), seed=13)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            model.forward_window(rand_frames(rng, 2))
        with pytest.raises(ValueError):
            model.forward_window(rand_frames(rng, 2, side=8) + rand_frames(rng, 1, side=6))

    def test_use_block_variant_runs(self):
        model = build_dflow(tiny_config(use_block=True), seed=15)
        rng = np.random.default_rng(16)
        p = model.forward_window(rand_frames(rng, 3))
        assert p.data.shape == (1, 8, 8)


class TestSingleFlow:
    def test_zero_decoder_gives_uniform_half(self):
        model = build_dflow(tiny_config(flow_b_space=None), seed=17)
        model.decoder_w.data[...] = 0.0
        model.decoder_b.data[...] = 0.0
        rng = np.random.default_rng(18)
        p = model.forward_window(rand_frames(rng, 3))
        npt.assert_array_equal(p.data, 0.5)

    def test_zeroed_second_flow_matches_single_flow(self):
        dual = build_dflow(tiny_config(), seed=19)
        single = DFlowModel(tiny_config(flow_b_space=None), dual.flow_a, None,
                            dual.decoder_w, dual.decoder_b)
        for p in dual.flow_b.parameters().values():
            p.data[...] = 0.0  # zero weights + zero init state -> zero features
        rng = np.random.default_rng(20)
        frames = rand_frames(rng, 3)
        npt.assert_allclose(dual.forward_window(frames).data,
                            single.forward_window(frames).data, atol=1e-15)

    def test_constant_sequence_gives_constant_map_on_unit_grid(self):
        model = build_dflow(tiny_config(flow_a_space="yuv", flow_b_space=None),
                            seed=21)
        img = ColorImage(np.full((3, 1, 1), 0.4))
        p = model.forward_window([img, img, img])
        assert p.data.shape == (1, 1, 1)
        assert 0.0 < p.data.item() < 1.0

    def test_flow_mode_errors(self):
        dual = build_dflow(tiny_config(), seed=22)
        single = build_dflow(tiny_config(flow_b_space=None), seed=22)
        rng = np.random.default_rng(23)
        for model in (dual, single):
            for n in (2, 4):
                with pytest.raises(ValueError):
                    model.forward_window(rand_frames(rng, n))


class TestFramesForFlow:
    def test_channel_counts(self):
        rng = np.random.default_rng(24)
        frames = [ColorImage(rng.uniform(0, 1, size=(3, 4, 4)))]
        counts = {space: channels for space, (channels, _) in SPACES.items()}
        assert counts == {"rgb": 3, "yuv": 3, "hsv": 3, "y": 1}
        for space, channels in counts.items():
            assert frames_for_flow(frames, space)[0].data.shape == (channels, 4, 4)

    def test_unknown_space_is_rejected(self):
        frames = [ColorImage(np.zeros((3, 4, 4)))]
        with pytest.raises(ValueError, match="unknown colour space 'lab'"):
            frames_for_flow(frames, "lab")

    def test_rgb_passthrough_is_exact(self):
        rng = np.random.default_rng(25)
        img = ColorImage(rng.uniform(0, 1, size=(3, 4, 4)))
        npt.assert_array_equal(frames_for_flow([img], "rgb")[0].data, img.pixels)


class TestEndToEndGradient:
    def test_bce_gradient_through_full_network(self):
        model = build_dflow(DFlowConfig(channels=2, k=2), seed=26)
        rng = np.random.default_rng(27)
        frames = [ColorImage(rng.uniform(0, 1, size=(3, 6, 6)))
                  for _ in range(3)]
        label = (rng.uniform(size=(1, 6, 6)) > 0.5).astype(np.float64)

        def loss_value():
            return bce_loss(model.forward_window(frames), label).item()

        with GradTape() as tape:
            loss = bce_loss(model.forward_window(frames), label)
        backward(tape, loss, model.parameters().values())
        for name, p in model.parameters().items():
            fd = finite_difference(loss_value, p.data)
            assert rel_err(p.grad, fd).max() < 1e-4, name


class TestTapeRecords:
    """Records one training window puts on the tape (forward plus loss), at
    k = 4 with two flows: 20 cell steps of 3 records (the two input convs and
    mgu_step, whose zero first state skips U_f, U_h and the gated state
    inside the record), the flow sum, the decoder's conv and sigmoid, and one
    loss record: 60 + 4 = 64. Each block adds its 3D conv, time slice and
    residual add: 70. The counts do not depend on the frame size or the
    channel count, nor on the batch size: ``backward`` weights a batched
    window's loss, so its tape holds no extra record."""

    @pytest.mark.parametrize("use_block, loss, records", [
        (False, bce_loss, DESK_WINDOW_RECORDS),
        (True, focal_loss, BLOCK_WINDOW_RECORDS),
    ], ids=["desk_bce", "base_block_focal"])
    def test_records_per_window_are_pinned(self, use_block, loss, records):
        rng = np.random.default_rng(0)
        model = build_dflow(tiny_config(k=4, channels=2, use_block=use_block), seed=0)
        label = (rng.uniform(size=(1, 8, 8)) > 0.5).astype(np.float64)
        with GradTape() as tape:
            loss(model.forward_window(rand_frames(rng, 5)), label)
        assert len(tape) == records


def _closure_objects(fn):
    """Every object ``fn``'s closure holds, through nested closures."""
    for cell in fn.__closure__ or ():
        obj = cell.cell_contents
        yield obj
        if callable(obj) and hasattr(obj, "__closure__"):
            yield from _closure_objects(obj)


class TestTapeMemory:
    """The tape keeps only what backward reads: records hold data-free nodes,
    and each vjp closes over arrays, never over an intermediate tensor, so an
    op output that no vjp reads is freed once the forward drops it. A cell
    step's record keeps three state-sized arrays, h_{t-1}, f_t and the tanh
    candidate; its vjp recomputes the gated state f_t o h_{t-1} with the
    forward's own numpy product, so no bit depends on the BLAS kernel."""

    def window(self, rng, use_block=False, channels=PRESET_CHANNELS["small"]):
        model = build_dflow(tiny_config(channels=channels, k=4, use_block=use_block),
                            seed=0)
        label = (rng.uniform(size=(1, 32, 32)) > 0.5).astype(np.float64)
        return model, rand_frames(rng, 5, side=32), label

    @pytest.mark.parametrize("use_block, loss, count", [
        (False, bce_loss, DESK_WINDOW_RECORDS),
        (True, focal_loss, BLOCK_WINDOW_RECORDS),
    ], ids=["desk_bce", "block_focal"])
    def test_records_refer_to_no_tensor_but_parameters(self, use_block, loss, count):
        model, frames, label = self.window(np.random.default_rng(0), use_block)
        params = {id(p) for p in model.parameters().values()}
        with GradTape() as tape:
            loss(model.forward_window(frames), label)
        records = list(_leaves(tape._records))
        assert len(records) == count
        for out, inputs, vjp in records:
            assert type(out) is _Node
            for obj in (*inputs, *_closure_objects(vjp)):
                assert not isinstance(obj, Tensor) or id(obj) in params

    def test_held_memory_of_a_desk_window_is_bounded(self, traced_memory):
        model, frames, label = self.window(np.random.default_rng(0))

        def record():
            with GradTape() as tape:
                loss = bce_loss(model.forward_window(frames), label)
            assert len(tape) == DESK_WINDOW_RECORDS and loss.data.shape == ()
            return tape, loss

        held, _ = traced_memory(record)
        assert held <= 14 * 2 ** 20

    @pytest.mark.parametrize("preset, use_block, loss, bound_mib", [
        ("small", False, bce_loss, 8.5),
        ("base", True, focal_loss, 20.5),
    ], ids=["desk_bce", "base_block_focal"])
    def test_held_memory_of_a_window_has_no_gated_states(self, traced_memory, preset,
                                                         use_block, loss, bound_mib):
        """9.7 and 24.0 MiB when each cell step kept f_t o h_{t-1} too."""
        model, frames, label = self.window(np.random.default_rng(0), use_block,
                                           PRESET_CHANNELS[preset])

        def record():
            with GradTape() as tape:
                out = loss(model.forward_window(frames), label)
            return tape, out

        held, _ = traced_memory(record)
        assert held <= bound_mib * 2 ** 20

    def test_a_cell_step_keeps_h_prev_the_gate_and_the_candidate(self, monkeypatch):
        from dflow import recurrent

        steps = {}  # output node id -> (h_prev data, h data, f) of a tracked-state step

        def spy(zf, zh, h_prev, u_f, u_h):
            h, f = mgu_step(zf, zh, h_prev, u_f, u_h)
            if not isinstance(h_prev, Zero):
                steps[id(h._node)] = (h_prev.data, h.data, f.data)
            return h, f

        monkeypatch.setattr(recurrent, "mgu_step", spy)
        model, frames, label = self.window(np.random.default_rng(0))
        with GradTape() as tape:
            bce_loss(model.forward_window(frames), label)
        records = [(steps[id(out)], vjp) for out, _, vjp in _leaves(tape._records)
                   if id(out) in steps]
        assert len(records) == 2 * 2 * 4  # flows x layers x steps from a tracked state
        for (hd, y, f), vjp in records:
            kept = [obj for obj in _closure_objects(vjp)
                    if isinstance(obj, np.ndarray) and obj.shape == y.shape]
            assert len(kept) == 3
            rest = [a for a in kept if a is not hd and a is not f]
            assert len(rest) == 1  # the candidate: h = (1 - f) o h_prev + f o cand
            npt.assert_array_equal((1.0 - f) * hd + f * rest[0], y)


class TestZeroInitialState:
    """Each window starts its cells from a zero state, so the first step's
    U_f * 0 and U_h * (f o 0) are skipped: no conv work and no tape record."""

    def test_conv_matmuls_of_a_desk_training_window(self, monkeypatch):
        """Forward: 16 steps of 4 convs, 4 first steps of 2, and the decoder:
        73. Backward, the input gradients: layer 1 of each flow has 4 steps
        with a tracked state (U_f, U_h), layer 2 adds W_f and W_h on all 5
        steps (26 per flow), and the decoder: 53. The kernel gradients do not
        go through _conv_forward."""
        from dflow import tensor

        calls = []
        conv_forward = tensor._conv_forward
        monkeypatch.setattr(tensor, "_conv_forward",
                            lambda xd, kd: calls.append(1) or conv_forward(xd, kd))
        rng = np.random.default_rng(0)
        model = build_dflow(tiny_config(k=4, channels=2), seed=0)
        label = (rng.uniform(size=(1, 8, 8)) > 0.5).astype(np.float64)
        with GradTape() as tape:
            loss = bce_loss(model.forward_window(rand_frames(rng, 5)), label)
        assert len(calls) == 73
        backward(tape, loss, model.parameters().values())
        assert len(calls) == 73 + 53

    @pytest.mark.parametrize("use_block", [False, True], ids=["stack", "block"])
    def test_k1_window_gives_every_parameter_a_gradient(self, use_block):
        """k = 1: two steps, the first of them on the zero state."""
        rng = np.random.default_rng(0)
        model = build_dflow(tiny_config(k=1, use_block=use_block), seed=0)
        label = (rng.uniform(size=(1, 8, 8)) > 0.5).astype(np.float64)
        with GradTape() as tape:
            loss = bce_loss(model.forward_window(rand_frames(rng, 2)), label)
        backward(tape, loss, model.parameters().values())
        for name, p in model.parameters().items():
            assert p.grad.shape == p.data.shape and np.all(np.isfinite(p.grad)), name
            assert np.any(p.grad), name

    @pytest.mark.parametrize("in_branch", [False, True], ids=["direct", "in_branch"])
    def test_one_frame_still_gives_u_f_and_u_h_a_zero_gradient(self, in_branch):
        """With one frame the only U_f and U_h convs read the zero state, so
        nothing records them; backward still gives U_f and U_h, named among
        the parameters, their exact zero gradient, so an optimiser sees every
        parameter, also when the stack ran in a branch."""
        rng = np.random.default_rng(0)
        stack = ConvMguStack2(3, 2, 3, rng)
        frames = [Tensor(rng.uniform(size=(3, 4, 4)))]
        with GradTape() as tape:
            h = branches([partial(stack.forward, frames)])[0] if in_branch else stack.forward(frames)
            loss = mean_all(h)
        backward(tape, loss, stack.parameters().values())
        for name, p in stack.parameters().items():
            assert p.grad.shape == p.data.shape, name
            assert np.any(p.grad) != name.endswith(("u_f", "u_h")), name
