import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflow.tensor import (
    GradTape,
    Tensor,
    Zero,
    add,
    backward,
    branches,
    conv2d_same,
    conv3d_same,
    mgu_step,
    sigmoid,
    time_slice,
)
from dflow import baselines, cli, color, data, losses, network, recurrent, tensor, training
from dflow.tensor import _im2col, _pad

from oracles import (
    clamp,
    conv2d_naive,
    conv3d_naive,
    finite_difference,
    hadamard,
    log,
    mean_all,
    power,
    rel_err,
    scale,
    sub_from_one,
    sum_all,
    tanh,
)

REPO = Path(__file__).resolve().parent.parent


def rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape))


class TestTensorBasics:
    def test_rank_limit(self):
        Tensor(np.zeros((2, 2, 2, 2, 2)))
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2, 2, 2)))

    def test_value_count_matches_shape(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.data.size == 12 and t.shape == (3, 4)

    def test_float32_inference_path_preserves_dtype(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, size=(2, 5, 5)).astype(np.float32))
        k = Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)).astype(np.float32))
        out = sigmoid(conv2d_same(x, k))
        assert out.data.dtype == np.float32
        exact = sigmoid(conv2d_same(Tensor(x.data.astype(np.float64)),
                                    Tensor(k.data.astype(np.float64))))
        npt.assert_allclose(out.data, exact.data, atol=1e-5)

    def test_integer_input_becomes_float64(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_requires_grad_is_read_from_the_tape_identity(self):
        w, x = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))
        assert w.requires_grad and not x.requires_grad
        with GradTape():
            assert not add(w, x).requires_grad  # an op output is never a parameter
        for t in (w, x):
            with pytest.raises(AttributeError):
                t.requires_grad = not t.requires_grad


class TestElementwise:
    def test_sigmoid_at_zero(self):
        out = sigmoid(Zero((3, 4, 4)))
        npt.assert_array_equal(out.data, 0.5)

    def test_sigmoid_extreme_arguments_stay_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.0, 1.0])

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        f = rand(rng, 2, 5, 5)
        total = add(sub_from_one(f), f)
        npt.assert_array_equal(total.data, np.ones((2, 5, 5)))

    def test_hadamard_identity_element(self):
        rng = np.random.default_rng(1)
        a = rand(rng, 3, 4)
        out = hadamard(a, Tensor(np.ones((3, 4))))
        npt.assert_array_equal(out.data, a.data)

    def test_binary_ops_reject_shape_mismatch(self):
        a, b = Zero((2, 3)), Zero((3, 2))
        with pytest.raises(ValueError):
            add(a, b)
        with pytest.raises(ValueError):
            hadamard(a, b)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_sigmoid_tanh_ranges(self, x):
        s = sigmoid(Tensor(np.array(x))).data
        t = tanh(Tensor(np.array(x))).data
        assert 0.0 < s < 1.0
        assert -1.0 <= t <= 1.0


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 5, 5)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d_same(x, k, Zero((1,)))
        npt.assert_array_equal(out.data, np.ones((1, 5, 5)))

    def test_zero_padding_arithmetic(self):
        x = Tensor(np.ones((1, 5, 5)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d_same(x, k, Zero((1,))).data[0]
        assert out[2, 2] == 9.0
        assert out[0, 2] == 6.0 and out[2, 0] == 6.0
        assert out[0, 0] == 4.0 and out[4, 4] == 4.0

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=(4, 7, 7))
        k = rng.uniform(-1, 1, size=(8, 4, 3, 3))
        b = rng.uniform(-1, 1, size=8)
        out = conv2d_same(Tensor(x), Tensor(k), Tensor(b))
        npt.assert_allclose(out.data, conv2d_naive(x, k, b), atol=1e-12)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            conv2d_same(Zero((1, 4, 4)), Zero((1, 1, 2, 2)))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d_same(Zero((2, 4, 4)), Zero((1, 3, 3, 3)))

    def test_linear_in_input_and_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = (rand(rng, 3, 6, 6) for _ in range(2))
            k1, k2 = (rand(rng, 2, 3, 3, 3) for _ in range(2))
            lhs = conv2d_same(Tensor(a.data + b.data), k1).data
            rhs = conv2d_same(a, k1).data + conv2d_same(b, k1).data
            npt.assert_allclose(lhs, rhs, atol=1e-10)
            lhs = conv2d_same(a, Tensor(k1.data + k2.data)).data
            rhs = conv2d_same(a, k1).data + conv2d_same(a, k2).data
            npt.assert_allclose(lhs, rhs, atol=1e-10)


class TestConv3d:
    def test_zero_kernel_annihilates(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        out = conv3d_same(x, Zero((3, 2, 3, 3, 3)), Zero((3,)))
        npt.assert_array_equal(out.data, 0.0)

    def test_single_frame_collapses_to_central_time_slice(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(2, 4, 4))
        k = np.zeros((3, 2, 3, 3, 3))
        k[:, :, 1] = rng.uniform(-1, 1, size=(3, 2, 3, 3))
        b = rng.uniform(-1, 1, size=3)
        out3d = conv3d_same(Tensor(x[:, None]), Tensor(k), Tensor(b))
        out2d = conv2d_same(Tensor(x), Tensor(k[:, :, 1]), Tensor(b))
        npt.assert_allclose(out3d.data[:, 0], out2d.data, atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(3, 4, 5, 5))
        k = rng.uniform(-1, 1, size=(2, 3, 3, 3, 3))
        b = rng.uniform(-1, 1, size=2)
        out = conv3d_same(Tensor(x), Tensor(k), Tensor(b))
        npt.assert_allclose(out.data, conv3d_naive(x, k, b), atol=1e-12)

    def test_linear_in_input_and_kernel(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.uniform(-1, 1, size=(2, 3, 4, 4)))
        b = Tensor(rng.uniform(-1, 1, size=(2, 3, 4, 4)))
        k1 = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3, 3)))
        k2 = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3, 3)))
        npt.assert_allclose(
            conv3d_same(Tensor(a.data + b.data), k1).data,
            conv3d_same(a, k1).data + conv3d_same(b, k1).data, atol=1e-10)
        npt.assert_allclose(
            conv3d_same(a, Tensor(k1.data + k2.data)).data,
            conv3d_same(a, k1).data + conv3d_same(a, k2).data, atol=1e-10)


def im2col_loop(xp, m):
    """Reference unroll: one strided copy per kernel offset."""
    cin, spatial = xp.shape[0], xp.shape[1:]
    out = tuple(n - m + 1 for n in spatial)
    cols = np.empty((cin, *(m,) * len(spatial), *out), dtype=xp.dtype)
    for offset in itertools.product(range(m), repeat=len(spatial)):
        window = tuple(slice(o, o + n) for o, n in zip(offset, out))
        cols[(slice(None), *offset)] = xp[(slice(None), *window)]
    return cols.reshape(cin * m ** len(spatial), -1)


class TestConvKernel:
    """The kernel that conv2d_same and conv3d_same share."""

    @pytest.mark.parametrize("shape", [(3, 4, 6), (2, 3, 5, 4)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_im2col_equals_the_loop_unroll_bit_for_bit(self, shape, m):
        xp = _pad(np.random.default_rng(m).normal(size=shape), m)
        cols = _im2col(xp, m)
        npt.assert_array_equal(cols, im2col_loop(xp, m))
        assert cols.flags.c_contiguous

    @pytest.mark.parametrize("cin, cout, spatial", [
        (1, 1, (4, 6)), (3, 2, (5, 5)), (16, 16, (8, 8)), (40, 40, (6, 7)), (2, 3, (3, 4, 4)),
    ])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_kernel_gradient_is_the_plain_product_in_c_order(self, cin, cout, spatial, m):
        rng = np.random.default_rng(cin * 100 + m)
        x = Tensor(rng.normal(size=(cin, *spatial)))
        k = Tensor(rng.normal(size=(cout, cin, *(m,) * len(spatial))), requires_grad=True)
        g = rng.normal(size=(cout, *spatial))
        conv = conv2d_same if len(spatial) == 2 else conv3d_same
        with GradTape() as tape:
            loss = sum_all(hadamard(conv(x, k), Tensor(g)))
        backward(tape, loss, [k])
        expected = g.reshape(cout, -1) @ _im2col(_pad(x.data, m), m).T
        assert np.array_equal(k.grad, expected.reshape(k.shape))
        assert k.grad.flags.c_contiguous

    @pytest.mark.parametrize("conv, x_shape, k_shape, b_shape, message", [
        (conv2d_same, (1, 4), (1, 1, 3, 3), None, "expects input"),
        (conv2d_same, (1, 4, 4), (1, 1, 3), None, "expects kernel"),
        (conv2d_same, (1, 4, 4), (1, 1, 3, 1), None, "square, got 3x1"),
        (conv2d_same, (1, 4, 4), (2, 1, 3, 3), (1,), "bias"),
        (conv3d_same, (1, 4, 4), (1, 1, 3, 3, 3), None, "expects input"),
        (conv3d_same, (1, 2, 4, 4), (1, 1, 3, 3), None, "expects kernel"),
        (conv3d_same, (1, 2, 4, 4), (1, 1, 1, 3, 3), None, "cubic, got 1x3x3"),
        (conv3d_same, (1, 2, 4, 4), (1, 1, 2, 2, 2), None, "odd"),
        (conv3d_same, (2, 2, 4, 4), (1, 1, 3, 3, 3), None, "channels"),
        (conv3d_same, (1, 2, 4, 4), (2, 1, 3, 3, 3), (3,), "bias"),
    ])
    def test_shared_check_names_the_defect(self, conv, x_shape, k_shape, b_shape, message):
        bias = None if b_shape is None else Zero(b_shape)
        with pytest.raises(ValueError, match=message):
            conv(Zero(x_shape), Zero(k_shape), bias)


class TestZeroConstant:
    """An unbiased conv of a Zero returns a Zero at once, and mgu_step from a
    Zero state skips its recurrent convs and the gated state; anything else
    still computes and records."""

    def test_zero_operand_returns_a_zero_and_records_nothing(self):
        rng = np.random.default_rng(0)
        k = Tensor(rand(rng, 3, 2, 3, 3).data, requires_grad=True)
        with GradTape() as tape:
            out = conv2d_same(Zero((2, 4, 5)), k)
        assert len(tape) == 0
        want = conv2d_same(Tensor(np.zeros((2, 4, 5))), k)
        assert isinstance(out, Zero) and not out.data.flags.writeable
        npt.assert_array_equal(out.data, want.data)
        assert out.data.shape == want.data.shape and out.data.dtype == want.data.dtype

    def test_mgu_step_from_a_zero_state_runs_no_recurrent_conv(self, monkeypatch):
        rng = np.random.default_rng(2)
        zf, zh = (Tensor(rand(rng, 2, 4, 5).data, requires_grad=True) for _ in range(2))
        u_f, u_h = (Tensor(rand(rng, 2, 2, 3, 3).data, requires_grad=True) for _ in range(2))
        plain = mgu_step(zf, zh, Tensor(np.zeros((2, 4, 5))), u_f, u_h)
        calls = []
        im2col = tensor._im2col
        monkeypatch.setattr(tensor, "_im2col", lambda xp, m: calls.append(1) or im2col(xp, m))
        with GradTape() as tape:
            h, f = mgu_step(zf, zh, Zero((2, 4, 5)), u_f, u_h)
            loss = sum_all(h)
        backward(tape, loss, [zf, zh, u_f, u_h])
        assert len(tape) == 2 and calls == []  # mgu_step's record and the sum's
        for got, want in zip((h, f), plain):
            npt.assert_array_equal(got.data, want.data)
        npt.assert_array_equal(u_f.grad, 0.0)
        npt.assert_array_equal(u_h.grad, 0.0)

    def test_biased_conv_of_a_zero_still_runs(self):
        rng = np.random.default_rng(1)
        k = Tensor(rand(rng, 3, 2, 3, 3).data, requires_grad=True)
        b = Tensor(rand(rng, 3).data, requires_grad=True)
        with GradTape() as tape:
            out = conv2d_same(Zero((2, 4, 5)), k, b)
        assert len(tape) == 1 and not isinstance(out, Zero)
        npt.assert_array_equal(out.data, np.broadcast_to(b.data[:, None, None], (3, 4, 5)))


@pytest.mark.parametrize("module", [tensor, recurrent, network, losses, data, training,
                                    color, baselines, cli], ids=lambda m: m.__name__[6:])
def test_all_names_every_public_name(module):
    """``__all__`` lists every function and class the module defines without a
    leading underscore, and nothing else but its upper-case constants."""
    public = {name for name, obj in vars(module).items() if not name.startswith("_")
              and getattr(obj, "__module__", None) == module.__name__}
    constants = [name for name in module.__all__ if name.isupper()]
    assert all(name in vars(module) for name in constants)
    assert sorted(name for name in module.__all__ if name not in constants) == sorted(public)


def test_importing_one_module_loads_no_other():
    """Each name has one import path, its module's: the package re-exports
    nothing, so importing ``dflow.tensor`` loads no other ``dflow`` module."""
    probe = ("import sys, types, dflow.tensor; "
             "print(sorted(m for m in sys.modules if m.startswith('dflow'))); "
             "print(sorted(n for n, v in vars(dflow).items() if not n.startswith('_') "
             "and not isinstance(v, types.ModuleType)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["['dflow', 'dflow.tensor']", "[]"]


class TestBackward:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(hadamard(w, w))
        backward(tape, loss, [w])
        npt.assert_allclose(w.grad, 2.0 * w.data, atol=1e-12)

    def test_conv_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((2, 5, 5)))
        w = Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)

        def loss_value():
            return float(conv2d_same(x, w, b).data.sum())

        with GradTape() as tape:
            loss = sum_all(conv2d_same(x, w, b))
        backward(tape, loss, [w, b])
        for t in (w, b):
            fd = finite_difference(loss_value, t.data)
            assert rel_err(t.grad, fd).max() < 1e-5

    def test_untracked_inputs_record_nothing(self):
        const = Tensor(np.ones((2, 2)))
        with GradTape() as tape:
            loss = sum_all(hadamard(const, const))
        assert len(tape) == 0
        with pytest.raises(ValueError, match="empty tape"):
            backward(tape, loss, [const])
        assert const.grad is None

    def test_loss_must_be_scalar(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            out = hadamard(w, w)
        with pytest.raises(ValueError):
            backward(tape, out, [w])

    def test_loss_must_come_from_the_tape(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            hadamard(w, w)
        with GradTape():
            loss = sum_all(hadamard(w, w))
        with pytest.raises(ValueError, match="loss was not produced under this tape"):
            backward(tape, loss, [w])

    def test_gradients_accumulate_over_consumers(self):
        w = Tensor(np.full((3,), 2.0), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(add(hadamard(w, w), w))  # d/dw = 2w + 1
        backward(tape, loss, [w])
        npt.assert_allclose(w.grad, 2.0 * w.data + 1.0, atol=1e-12)

    def test_unused_registered_parameter_gets_zero_gradient(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        never_read = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            _dead_end = hadamard(unused, Tensor(np.zeros(3)))
            loss = sum_all(hadamard(used, used))
        backward(tape, loss, [used, unused, never_read])
        npt.assert_array_equal(unused.grad, np.zeros(3))
        npt.assert_array_equal(never_read.grad, np.zeros(3))

    def test_a_tracked_tensor_not_named_keeps_no_gradient(self):
        named = Tensor(np.full(3, 2.0), requires_grad=True)
        read = Tensor(np.full(3, 3.0), requires_grad=True)
        with GradTape() as tape:
            loss = sum_all(hadamard(named, read))
        backward(tape, loss, [named])
        npt.assert_array_equal(named.grad, read.data)
        assert read.grad is None

    def test_replaying_tape_twice_is_bit_identical(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, size=(2, 6, 6)))
        w = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = mean_all(tanh(conv2d_same(x, w)))
        backward(tape, loss, [w])
        first = w.grad.copy()
        backward(tape, loss, [w])
        npt.assert_array_equal(w.grad, first)

    def test_accumulating_tapes_last_first_equals_one_tape(self):
        rng = np.random.default_rng(19)
        ws = [Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3)), requires_grad=True)
              for _ in range(2)]
        xs = [rand(rng, 2, 6, 6) for _ in range(2)]

        def window(x):
            # each branch reads its kernel twice, so a window adds two terms to its sum
            a, b = branches([lambda w=w: conv2d_same(tanh(conv2d_same(x, w)), w) for w in ws])
            return mean_all(hadamard(a, b))

        with GradTape() as tape:
            loss = add(window(xs[0]), window(xs[1]))
        backward(tape, loss, ws)
        one_tape = [w.grad for w in ws]
        with GradTape() as tape:
            loss = window(xs[0])
        backward(tape, loss, ws)
        first_alone = [w.grad for w in ws]

        for w in ws:
            w.grad = None
        for x in reversed(xs):
            with GradTape() as tape:
                loss = window(x)
            backward(tape, loss, ws, accumulate=True)
        for w, want in zip(ws, one_tape):
            npt.assert_array_equal(w.grad, want)
            npt.assert_array_equal(np.signbit(w.grad), np.signbit(want))
        backward(tape, loss, ws)  # without accumulate, .grad is this tape's own gradient
        for w, want in zip(ws, first_alone):
            npt.assert_array_equal(w.grad, want)

    @pytest.mark.parametrize("branched", [False, True], ids=["direct", "branches"])
    @pytest.mark.parametrize("accumulate", [False, True], ids=["replace", "accumulate"])
    @pytest.mark.parametrize("c", [1.0, 1 / 2, 1 / 3, 1 / 7], ids=["1", "1/2", "1/3", "1/7"])
    def test_weight_seeds_the_replay_as_a_scale_record_would(self, c, accumulate, branched):
        """``backward(..., weight=c)`` gives the gradients of a tape that ends in
        ``scale(loss, c)``, bit for bit, sign bits included."""
        rng = np.random.default_rng(23)
        ws = [Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3)), requires_grad=True)
              for _ in range(2)]
        x = rand(rng, 2, 6, 6)
        mask = Tensor(rng.integers(0, 2, size=(2, 6, 6)).astype(np.float64))
        carried = [rng.uniform(-1, 1, size=w.shape) for w in ws]
        fns = [lambda w=w: conv2d_same(tanh(conv2d_same(x, w)), w) for w in ws]

        def grads(weight, loss_of):
            for w, g in zip(ws, carried):
                w.grad = g.copy()
            with GradTape() as tape:
                a, b = branches(fns) if branched else [fn() for fn in fns]
                loss = loss_of(mean_all(hadamard(mask, hadamard(a, b))))
            backward(tape, loss, ws, accumulate=accumulate, weight=weight)
            return [w.grad for w in ws]

        for got, want in zip(grads(c, lambda loss: loss),
                             grads(1.0, lambda loss: scale(loss, c))):
            npt.assert_array_equal(got, want)
            npt.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("op,dfun", [
        (sigmoid, None), (tanh, None), (log, None),
        (lambda t: power(t, 2.5), None),
        (lambda t: clamp(t, 0.05, 0.95), None),
        (lambda t: scale(t, -1.7), None),
        (sub_from_one, None),
    ])
    def test_unary_gradients_match_finite_differences(self, op, dfun):
        rng = np.random.default_rng(17)
        w = Tensor(rng.uniform(0.2, 0.8, size=(4, 4)), requires_grad=True)

        def loss_value():
            return float(op(Tensor(w.data)).data.sum())

        with GradTape() as tape:
            loss = sum_all(op(w))
        backward(tape, loss, [w])
        fd = finite_difference(loss_value, w.data)
        assert rel_err(w.grad, fd).max() < 1e-4

    @pytest.mark.parametrize("shape, t, message", [
        ((2, 3, 3), 0, r"rank 4 \(C, T, H, W\), got \(2, 3, 3\)"),
        ((2, 2, 3, 3), 2, "time index 2 out of range for T=2"),
        ((2, 2, 3, 3), -1, "time index -1 out of range for T=2"),
    ])
    def test_time_slice_rejects_another_rank_or_index(self, shape, t, message):
        with pytest.raises(ValueError, match=message):
            time_slice(Tensor(np.zeros(shape)), t)

    def test_time_slice_gradient(self):
        rng = np.random.default_rng(19)
        r = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 3)), requires_grad=True)

        def loss_value():
            return float((r.data[:, 1] ** 2).sum())

        with GradTape() as tape:
            picked = time_slice(r, 1)
            loss = sum_all(hadamard(picked, picked))
        backward(tape, loss, [r])
        fd = finite_difference(loss_value, r.data)
        assert rel_err(r.grad, fd).max() < 1e-5
        npt.assert_array_equal(r.grad[:, 0], 0.0)


def _check_conv_gradients(conv, naive, x, w, b):
    def loss_value():
        return float(np.tanh(naive(x.data, w.data, b.data)).mean())

    with GradTape() as tape:
        loss = mean_all(tanh(conv(x, w, b)))
    backward(tape, loss, [x, w, b])
    for t in (x, w, b):
        fd = finite_difference(loss_value, t.data)
        assert rel_err(t.grad, fd).max() < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_conv2d_gradcheck_random_inputs(seed):
    # cin != cout, m up to 5 and H != W all reach the flipped-kernel input vjp
    rng = np.random.default_rng(seed)
    cin, cout = (int(v) for v in rng.integers(1, 4, size=2))
    m = int(rng.choice([1, 3, 5]))
    h, w = (int(v) for v in rng.integers(2, 6, size=2))
    _check_conv_gradients(
        conv2d_same, conv2d_naive,
        Tensor(rng.uniform(-1, 1, size=(cin, h, w)), requires_grad=True),
        Tensor(rng.uniform(-1, 1, size=(cout, cin, m, m)), requires_grad=True),
        Tensor(rng.uniform(-1, 1, size=cout), requires_grad=True))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_conv3d_gradcheck_random_inputs(seed):
    rng = np.random.default_rng(seed)
    cin, cout = (int(v) for v in rng.integers(1, 3, size=2))
    f = int(rng.choice([1, 3]))
    t, h, w = (int(v) for v in rng.integers(1, 4, size=3))
    _check_conv_gradients(
        conv3d_same, conv3d_naive,
        Tensor(rng.uniform(-1, 1, size=(cin, t, h, w)), requires_grad=True),
        Tensor(rng.uniform(-1, 1, size=(cout, cin, f, f, f)), requires_grad=True),
        Tensor(rng.uniform(-1, 1, size=cout), requires_grad=True))
