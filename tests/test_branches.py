"""Concurrent branches: the flows run at the same time, with the same bits.

``tensor.branches`` runs independent functions concurrently, each recording
to its own sub-tape; ``backward`` replays the sub-tapes concurrently. The
branched forward must reproduce the sequential one (``oracles.
forward_window_sequential``) bit for bit: probabilities, loss and every
parameter gradient, also when a batch reuses each flow's parameters.
"""

import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dflow import tensor
from dflow.cli import main
from dflow.color import ColorImage
from dflow.losses import bce_loss, focal_loss
from dflow.network import PRESET_CHANNELS, DFlowConfig, build_dflow
from dflow.tensor import GradTape, Tensor, add, backward, branches

from oracles import forward_window_sequential, hadamard, scale, sum_all, tanh

REPO = Path(__file__).resolve().parent.parent
GLIBC = platform.libc_ver()[0] == "glibc"


def within(seconds, fn):
    """fn() on a helper thread; fails instead of hanging past ``seconds``."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    assert box, "raised on the helper thread"
    return box[0]


def windows(rng, n, k, side):
    return [([ColorImage(rng.uniform(0, 1, size=(3, side, side)))
              for _ in range(k + 1)],
             (rng.uniform(size=(1, side, side)) > 0.5).astype(np.float64))
            for _ in range(n)]


def loss_and_grads(model, forward, batch, loss_fn):
    """One training step's probabilities, loss and gradients, the loss built
    as the training loop builds it."""
    with GradTape() as tape:
        probs, loss = [], None
        for frames, label in batch:
            p = forward(frames)
            probs.append(p.data)
            term = loss_fn(p, label)
            loss = term if loss is None else add(loss, term)
        if len(batch) > 1:
            loss = scale(loss, 1.0 / len(batch))
    backward(tape, loss, model.parameters().values())
    return probs, loss.data, {name: t.grad for name, t in model.parameters().items()}


class TestForwardWindowOracle:
    @pytest.mark.parametrize("config, loss_fn, batch, side", [
        (DFlowConfig(channels=PRESET_CHANNELS["small"]), bce_loss, 1, 32),
        (DFlowConfig(channels=PRESET_CHANNELS["base"], use_block=True), focal_loss, 2, 16),
        (DFlowConfig(flow_b_space=None, channels=PRESET_CHANNELS["small"]), bce_loss, 1, 32),
    ], ids=["desk_bce_batch1", "base_block_focal_batch2", "single_flow"])
    def test_branched_path_is_bit_identical(self, config, loss_fn, batch, side):
        model = build_dflow(config, seed=5)
        data = windows(np.random.default_rng(6), batch, config.k, side)
        got = loss_and_grads(model, model.forward_window, data, loss_fn)
        want = loss_and_grads(model, lambda f: forward_window_sequential(model, f),
                              data, loss_fn)
        for p, q in zip(got[0], want[0]):
            assert np.array_equal(p, q)
        assert np.array_equal(got[1], want[1])
        assert got[2].keys() == want[2].keys()
        for name in want[2]:
            assert np.array_equal(got[2][name], want[2][name]), name


def chain(x, w, n):
    for _ in range(n):
        x = tanh(hadamard(x, w))
    return x


class TestBranches:
    def test_results_come_back_in_order_and_records_are_counted(self):
        rng = np.random.default_rng(0)
        ws = [Tensor(rng.uniform(size=(3,)), requires_grad=True) for _ in range(3)]
        x = Tensor(np.ones(3))
        with GradTape() as tape:
            outs = branches([lambda w=w, n=n: chain(x, w, n)
                             for w, n in zip(ws, (1, 2, 3))])
        for out, w, n in zip(outs, ws, (1, 2, 3)):
            assert np.array_equal(out.data, chain(x, w, n).data)
        assert len(tape._records) == 1 and len(tape) == 2 * (1 + 2 + 3)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_exception_is_raised_after_every_branch_has_finished(self, failing):
        w = Tensor(np.ones(2), requires_grad=True)
        finished = []

        def fail():
            raise RuntimeError(f"branch {failing}")

        def slow():
            time.sleep(0.2)
            finished.append(True)
            return scale(w, 2.0)

        fns = [slow, slow]
        fns[failing] = fail
        with GradTape() as tape:
            with pytest.raises(RuntimeError, match=f"branch {failing}"):
                branches(fns)
        assert finished == [True]
        assert tape._records == []

    def test_first_exception_in_branch_order_wins(self):
        def fail(i):
            time.sleep(0.1 * (2 - i))
            raise RuntimeError(f"branch {i}")

        with pytest.raises(RuntimeError, match="branch 0"):
            branches([lambda: fail(0), lambda: fail(1)])

    def test_shared_tracked_input_is_rejected(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with GradTape() as tape:
            with pytest.raises(ValueError, match="must not share a tracked input"):
                branches([lambda: scale(w, 2.0), lambda: scale(w, 3.0)])
        assert tape._records == []

    def test_shared_untracked_input_is_allowed(self):
        x = Tensor(np.ones(2))
        ws = [Tensor(np.full(2, v), requires_grad=True) for v in (2.0, 3.0)]
        with GradTape() as tape:
            add(*branches([lambda w=w: hadamard(x, w) for w in ws]))
        assert len(tape) == 3

    def test_no_tape_records_nothing(self):
        w = Tensor(np.ones(2), requires_grad=True)
        out, = branches([lambda: scale(w, 2.0)])
        assert np.array_equal(out.data, [2.0, 2.0])
        with GradTape() as tape:
            add(out, out)
        assert len(tape) == 0

    def test_nested_branches_match_sequential_bits(self):
        rng = np.random.default_rng(1)
        ws = [Tensor(rng.uniform(size=(4, 4)), requires_grad=True) for _ in range(4)]
        x = Tensor(rng.uniform(size=(4, 4)))
        depths = (3, 2, 4, 1)

        def grads(nested):
            with GradTape() as tape:
                if nested:
                    (a, b), (c, d) = branches(
                        [lambda: branches([lambda: chain(x, ws[0], 3),
                                           lambda: chain(x, ws[1], 2)]),
                         lambda: branches([lambda: chain(x, ws[2], 4),
                                           lambda: chain(x, ws[3], 1)])])
                else:
                    a, b, c, d = (chain(x, w, n) for w, n in zip(ws, depths))
                loss = sum_all(add(add(add(a, b), c), d))
            assert len(tape) == 2 * sum(depths) + 4
            backward(tape, loss, ws)
            return [w.grad.copy() for w in ws]

        for g, h in zip(within(60, lambda: grads(True)), grads(False)):
            assert np.array_equal(g, h)

    def test_stress_many_branches_reuse_parameters_across_calls(self):
        """More branches than CPUs, a short switch interval, and each branch's
        parameters reused by a second call, as a batch of two windows does:
        a lost or misordered addition would change the gradient bits."""
        rng = np.random.default_rng(2)
        ws = [Tensor(rng.uniform(-1, 1, size=(16, 16)), requires_grad=True)
              for _ in range(6)]
        xs = [Tensor(rng.uniform(-1, 1, size=(16, 16))) for _ in range(2)]

        def run(concurrent):
            with GradTape() as tape:
                loss = None
                for x in xs:
                    fns = [lambda w=w: chain(x, w, 20) for w in ws]
                    outs = branches(fns) if concurrent else [fn() for fn in fns]
                    for out in outs:
                        loss = out if loss is None else add(loss, out)
                loss = scale(sum_all(loss), 0.5)
            backward(tape, loss, ws)
            return [w.grad.copy() for w in ws]

        want = run(False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for g, h in zip(within(60, lambda: run(True)), want):
                    assert np.array_equal(g, h)
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_one_cpu_training_writes_the_same_checkpoint(tmp_path):
    """A child limited to one CPU runs the flows one after the other (no pool
    worker); its checkpoint must equal, byte for byte, one trained with every
    CPU."""
    dataset = tmp_path / "ds"
    assert main(["synth", "--out", str(dataset), "--seed", "4", "--train", "2",
                 "--val", "1", "--frames", "5", "--width", "8", "--height", "8"]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    one_cpu = min(os.sched_getaffinity(0))

    def child(args, single):
        pin = (lambda: os.sched_setaffinity(0, {one_cpu})) if single else None
        result = subprocess.run([sys.executable, *args], env=env, preexec_fn=pin,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return result.stdout

    probe = ["-c", "import dflow.tensor as t; print(t._POOL is None)"]
    assert child(probe, single=True) == "True\n"
    assert child(probe, single=False) == "False\n"
    checkpoints = []
    for single in (True, False):
        out = tmp_path / ("one" if single else "all")
        child(["-m", "dflow.cli", "train", "--dataset", str(dataset), "--out", str(out),
               "--seed", "4", "--k", "2", "--channels", "4", "--steps", "3"], single)
        checkpoints.append((out / "checkpoint.dflw").read_bytes())
    assert checkpoints[0] == checkpoints[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_branches():
    """A child forked after the pool's threads have started has none of them;
    its branches must run on a fresh pool instead of waiting forever. The
    child is killed by SIGALRM if it hangs."""
    model = build_dflow(DFlowConfig(channels=2, k=2), seed=0)
    (frames, _), = windows(np.random.default_rng(0), 1, 2, 8)
    want = model.forward_window(frames).data  # starts the pool's threads
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            signal.alarm(30)
            code = 0 if np.array_equal(model.forward_window(frames).data, want) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


FAULT_CHILD = """
import dataclasses, itertools, json, resource, sys
import numpy as np
from dflow import data, losses, network, training

def faults(fn, n):
    counts = []
    for _ in range(n):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return counts

root = sys.argv[1]
data.synth_generate(data.SynthSceneParams(seed=3), 6, 8, root, ["train"] * 4 + ["test"] * 2)
windows = data.load_split_windows(data.load_manifest(root), 4)
model = network.build_dflow(network.DFlowConfig(channels=16, k=4), seed=3)
run = training.TrainRun(model=model, config=training.TrainConfig(seed=3, steps=1))

def step():
    run.config = dataclasses.replace(run.config, steps=run.step + 1)
    training.resume(run, {"train": windows["train"]})

test_windows = itertools.cycle(windows["test"])

def window():
    seq = next(test_windows)
    model.predict(seq.frames)
    # scored on the label: 30 steps may leave the thresholded prediction empty
    losses.silhouette_score(seq.label, seq.frames[-1].pixels)

faults(step, 10)
print(json.dumps({"steps": faults(step, 20), "windows": faults(window, 16)}))
"""


@pytest.mark.skipif(not GLIBC, reason="the heap is kept only by glibc's mallopt thresholds")
def test_warm_steps_and_windows_do_not_page_fault(tmp_path):
    """Once warm, a desk training step (16 maps, rgb+yuv, k=4, 32x32, batch 1)
    and a window's predict and silhouette reuse the heap the branch pool's
    thread freed: each takes at most 100 minor page faults. Measured in a
    fresh child, whose heap nothing else has touched."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    result = subprocess.run([sys.executable, "-c", FAULT_CHILD, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert max(counts["steps"]) <= 100, counts
    assert max(counts["windows"]) <= 100, counts


class TestAllocatorThresholds:
    """``_start_pool`` raises glibc's mmap and trim thresholds when it builds a
    pool, through a ``ctypes.CDLL`` handle that each test replaces."""

    @pytest.fixture(autouse=True)
    def keep_pool(self, monkeypatch):
        monkeypatch.setattr(tensor, "_POOL", tensor._POOL)  # restored afterwards

    def spy(self, monkeypatch, returns):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return returns

        monkeypatch.setattr(tensor.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

    @pytest.mark.parametrize("missing", ["mallopt", "libc"])
    def test_failed_lookup_still_builds_the_pool(self, monkeypatch, missing):
        def cdll(name):
            if missing == "libc":
                raise OSError("no C library")
            return SimpleNamespace()

        monkeypatch.setattr(tensor.ctypes, "CDLL", cdll)
        monkeypatch.setattr(tensor, "_CPUS", 2)
        tensor._start_pool()
        try:
            assert tensor._POOL.submit(lambda: 7).result(timeout=30) == 7
        finally:
            tensor._POOL.shutdown()

    def test_one_cpu_makes_no_allocator_call(self, monkeypatch):
        calls = self.spy(monkeypatch, 1)
        monkeypatch.setattr(tensor, "_CPUS", 1)
        tensor._start_pool()
        assert tensor._POOL is None
        assert calls == []

    @pytest.mark.skipif(not GLIBC, reason="thresholds are set only on glibc")
    @pytest.mark.parametrize("returns, want", [
        (1, [(-3, 256 << 20), (-1, 256 << 20)]),
        (0, [(-3, 256 << 20)]),
    ], ids=["both", "mmap_refused"])
    def test_pool_raises_mmap_then_trim_threshold(self, monkeypatch, returns, want):
        """A refused mmap threshold leaves the trim threshold alone: raised
        alone, it faults more than the default."""
        calls = self.spy(monkeypatch, returns)
        monkeypatch.setattr(tensor, "_CPUS", 2)
        tensor._start_pool()
        tensor._POOL.shutdown()
        assert calls == want
