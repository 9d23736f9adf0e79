import math
import threading
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dflow import losses, tensor
from dflow.losses import (
    _SILHOUETTE_BLOCK,
    CLAMP_EPS,
    bce_loss,
    dice_coefficient,
    focal_loss,
    silhouette_score,
    validate_label_mask,
)
from dflow.tensor import GradTape, Tensor, backward, branches

from oracles import finite_difference, rel_err, silhouette_naive


def rand_probs(rng, shape=(1, 6, 6)):
    return Tensor(rng.uniform(0.05, 0.95, size=shape))


def rand_label(rng, shape=(1, 6, 6)):
    return (rng.uniform(size=shape) > 0.5).astype(np.float64)


class TestValidateLabelMask:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            validate_label_mask(np.array([0.0, 0.5]))


class TestBce:
    def test_perfect_prediction_is_almost_free(self):
        y = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        loss = bce_loss(Tensor(y.copy()), y)
        assert loss.item() <= -math.log(1.0 - 1e-7) + 1e-12

    def test_uniform_half_costs_ln2(self):
        rng = np.random.default_rng(0)
        y = rand_label(rng)
        loss = bce_loss(Tensor(np.full((1, 6, 6), 0.5)), y)
        npt.assert_allclose(loss.item(), math.log(2.0), atol=1e-12)

    def test_half_bce_gradient_is_bit_exact(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.0, 1.0, size=(1, 6, 6))
        p[0, 0, :4] = (0.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0)
        y = rand_label(rng, (1, 6, 6))
        results = []
        for loss_fn in (bce_loss, partial(focal_loss, alpha=0.5, gamma=0.0)):
            pt = Tensor(p.copy(), requires_grad=True)
            with GradTape() as tape:
                loss = loss_fn(pt, y)
            backward(tape, loss, [pt])
            results.append((loss.item(), pt.grad))
        (bce, bce_grad), (focal, focal_grad) = results
        assert focal == 0.5 * bce
        assert np.array_equal(focal_grad, 0.5 * bce_grad)
        assert np.array_equal(np.signbit(focal_grad), np.signbit(0.5 * bce_grad))

    def test_single_pixel_hand_value(self):
        loss = bce_loss(Tensor(np.array([[[0.9]]])), np.array([[[1.0]]]))
        npt.assert_allclose(loss.item(), -math.log(0.9), atol=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.full((1, 2, 2), 0.5)), np.zeros((1, 3, 3)))

    def test_gradient_matches_analytic_form(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 4)), requires_grad=True)
        y = rand_label(rng, (1, 4, 4))
        with GradTape() as tape:
            loss = bce_loss(p, y)
        backward(tape, loss, [p])
        expected = (p.data - y) / (p.data * (1.0 - p.data)) / p.data.size
        npt.assert_allclose(p.grad, expected, atol=1e-9)

        def loss_value():
            return bce_loss(Tensor(p.data), y).item()

        fd = finite_difference(loss_value, p.data)
        assert rel_err(p.grad, fd).max() < 1e-4


class TestFocal:
    def test_reduces_to_half_bce(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rand_probs(rng, (1, 4, 4))
            y = rand_label(rng, (1, 4, 4))
            f = focal_loss(p, y, alpha=0.5, gamma=0.0).item()
            b = bce_loss(p, y).item()
            assert abs(f - 0.5 * b) < 1e-12

    def test_single_pixel_hand_value(self):
        loss = focal_loss(Tensor(np.array([[[0.5]]])), np.array([[[1.0]]]),
                          alpha=0.25, gamma=2.0)
        npt.assert_allclose(loss.item(), 0.25 * 0.25 * math.log(2.0), atol=1e-9)
        assert abs(loss.item() - 0.043322) < 1e-6

    def test_easy_examples_are_downweighted_to_zero(self):
        loss = focal_loss(Tensor(np.array([[[1.0]]])), np.array([[[1.0]]]))
        assert loss.item() < 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            focal_loss(Tensor(np.full((1, 1, 1), 0.5)), np.ones((1, 1, 1)), alpha=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_rejects_a_non_finite_or_negative_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            focal_loss(Tensor(np.full((1, 1, 1), 0.5)), np.ones((1, 1, 1)), gamma=gamma)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 4)), requires_grad=True)
        y = rand_label(rng, (1, 4, 4))
        with GradTape() as tape:
            loss = focal_loss(p, y)
        backward(tape, loss, [p])

        def loss_value():
            return focal_loss(Tensor(p.data), y).item()

        fd = finite_difference(loss_value, p.data)
        assert rel_err(p.grad, fd).max() < 1e-4


@pytest.mark.parametrize("loss_fn", [bce_loss, focal_loss], ids=["bce", "focal"])
def test_empty_prediction_is_rejected(loss_fn):
    with pytest.raises(ValueError, match="empty prediction"):
        loss_fn(Tensor(np.zeros((1, 0, 0))), np.zeros((1, 0, 0)))


class TestDice:
    def test_identical_nonempty_masks(self):
        m = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        assert dice_coefficient(m, m) == 1.0

    def test_disjoint_nonempty_masks(self):
        a = np.array([[[1.0, 0.0]]])
        b = np.array([[[0.0, 1.0]]])
        assert dice_coefficient(a, b) == 0.0

    def test_half_overlap_by_enumeration(self):
        a = np.zeros((1, 4, 4))
        b = np.zeros((1, 4, 4))
        a[0, 0, :4] = 1.0        # |A| = 4
        b[0, 0, 2:4] = 1.0       # overlap 2
        b[0, 1, 0:2] = 1.0       # |B| = 4
        assert dice_coefficient(a, b) == pytest.approx(2 * 2 / 8)

    def test_empty_vs_empty_is_one(self):
        z = np.zeros((1, 3, 3))
        assert dice_coefficient(z, z) == 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            dice_coefficient(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rand_label(rng), rand_label(rng)
            assert dice_coefficient(a, b) == dice_coefficient(b, a)


def gray_image(values):
    """(3, H, W) image with identical channels; silhouette distances scale by
    sqrt(3), which cancels in (b - a) / max(a, b)."""
    v = np.asarray(values, dtype=np.float64)
    return np.stack([v, v, v])


class TestSilhouette:
    def test_four_point_hand_computation(self):
        img = gray_image([[0.0, 0.1, 0.9, 1.0]])
        pred = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        score = silhouette_score(pred[0], img, seed=0)
        # per point: s(0)=0.85/0.95, s(0.1)=0.75/0.85, s(0.9)=0.75/0.85,
        # s(1.0)=0.85/0.95
        expected = (0.85 / 0.95 + 0.75 / 0.85 + 0.75 / 0.85 + 0.85 / 0.95) / 4.0
        npt.assert_allclose(score, expected, atol=1e-9)
        npt.assert_allclose(0.85 / 0.95, 0.8947, atol=1e-4)

    def test_single_class_prediction_scores_zero(self):
        img = gray_image(np.linspace(0, 1, 16).reshape(4, 4))
        assert silhouette_score(np.ones((1, 4, 4)), img) == 0.0
        assert silhouette_score(np.zeros((1, 4, 4)), img) == 0.0

    def test_perfectly_separated_constant_regions_score_one(self):
        img = np.zeros((3, 2, 4))
        img[:, :, 2:] = 1.0
        pred = np.zeros((1, 2, 4))
        pred[:, :, 2:] = 1.0
        npt.assert_allclose(silhouette_score(pred, img), 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        # both classes hold more than the 1000 pixels sampled from each
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, size=(3, 48, 48))
        pred = (rng.uniform(size=(1, 48, 48)) > 0.5).astype(np.float64)
        a = silhouette_score(pred, img, seed=9)
        b = silhouette_score(pred, img, seed=9)
        assert a == b != silhouette_score(pred, img, seed=10)

    def test_range_and_degenerate_inputs(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, size=(3, 6, 6))
        pred = rand_label(rng)
        assert -1.0 <= silhouette_score(pred, img) <= 1.0
        with pytest.raises(ValueError):
            silhouette_score(np.ones((1, 1, 1)), np.zeros((3, 1, 1)))

    @pytest.mark.parametrize("img_shape, message", [
        ((1, 2, 2), r"expected image pixels \(3, H, W\), got \(1, 2, 2\)"),
        ((3, 2, 3), "image and mask spatial sizes differ"),
    ], ids=["channels", "size"])
    def test_rejects_malformed_inputs(self, img_shape, message):
        pred = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match=message):
            silhouette_score(pred, np.zeros(img_shape))

    def test_singleton_cluster_contributes_zero(self):
        img = gray_image([[0.0, 0.4, 0.8]])
        pred = np.array([[[1.0, 0.0, 0.0]]])
        # fg singleton scores 0; bg points score ((.4-.4)/.4, (.8-.4)/.8)... a
        # and b per point: bg0: a=.4 b=.4 -> 0; bg1: a=.4 b=.8 -> .5
        expected = (0.0 + 0.0 + 0.5) / 3.0
        npt.assert_allclose(silhouette_score(pred[0], img), expected, atol=1e-12)


@st.composite
def silhouette_cases(draw):
    """(mask, image, seed) with every foreground count from 0 (a single
    class) through 1 (a singleton cluster) to the whole image."""
    h = draw(st.integers(1, 48))
    w = draw(st.integers(2 if h == 1 else 1, 48))
    n_fg = draw(st.integers(0, h * w))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    mask = np.zeros(h * w)
    mask[rng.permutation(h * w)[:n_fg]] = 1.0
    return mask.reshape(h, w), rng.uniform(size=(3, h, w)), seed


def _capped_case():
    # both classes hold more than the 1000-pixel sample cap
    rng = np.random.default_rng(3)
    mask = np.zeros(48 * 48)
    mask[rng.permutation(48 * 48)[:1152]] = 1.0
    return mask.reshape(48, 48), rng.uniform(size=(3, 48, 48)), 3


def _own_cluster_case(n_fg, side=16):
    # n_fg target pixels; the other side * side - n_fg form the second cluster
    rng = np.random.default_rng(n_fg)
    mask = np.zeros(side * side)
    mask[rng.permutation(side * side)[:n_fg]] = 1.0
    return mask.reshape(side, side), rng.uniform(size=(3, side, side)), n_fg


class TestSilhouetteOracle:
    @settings(max_examples=60, deadline=None)
    @given(silhouette_cases())
    @example(_capped_case())
    @example(_own_cluster_case(1200, side=40))  # only the target is sampled
    @example(_own_cluster_case(2))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK - 1))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK + 1))
    def test_matches_the_pairwise_reference_bit_for_bit(self, case):
        assert silhouette_score(*case) == silhouette_naive(*case)


class TestSilhouetteMemory:
    """A cluster's own distances are held a block of rows at a time, so the
    peak is the fg-bg matrix plus O(block * n), not an n x n matrix."""

    def test_desk_window_peak(self, traced_memory):
        mask, img, _ = _own_cluster_case(74, side=32)
        _, peak = traced_memory(silhouette_score, mask, img)
        assert peak / 2 ** 20 < 4.0

    def test_peak_with_both_classes_at_the_sample_cap(self, traced_memory):
        _, peak = traced_memory(silhouette_score, *_capped_case())
        assert peak / 2 ** 20 < 18.0


def _score_on(pool, case):
    """The silhouette of ``case`` with ``pool`` as the branch pool."""
    kept, tensor._POOL = tensor._POOL, pool
    try:
        return silhouette_score(*case)
    finally:
        tensor._POOL = kept


needs_pool = pytest.mark.skipif(tensor._POOL is None, reason="one usable CPU: no branch pool")


class TestSilhouettePool:
    """The distance blocks are shared out over one group per usable CPU on the
    branch pool; every distance and row sum is the same on any split."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(silhouette_cases())
    @example(_capped_case())
    @example(_own_cluster_case(2))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK - 1))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK))
    @example(_own_cluster_case(_SILHOUETTE_BLOCK + 1))
    def test_bits_do_not_depend_on_the_pool(self, no_pool, case):
        assert silhouette_score(*case) == _score_on(no_pool, case)

    @needs_pool
    def test_distance_blocks_run_on_two_threads(self, monkeypatch):
        threads, distances = set(), losses._distances

        def spy(*args):
            threads.add(threading.get_ident())
            return distances(*args)

        monkeypatch.setattr(losses, "_distances", spy)
        silhouette_score(*_own_cluster_case(74, side=32)[:2])
        assert len(threads) >= 2

    @needs_pool
    def test_in_a_branch_it_keeps_its_bits_and_never_waits_on_the_pool(self, monkeypatch):
        case = _own_cluster_case(74, side=32)
        submitted, submit = [], tensor._POOL.submit

        def spy(fn, *args):
            # raised on a worker instead of waiting there, which could deadlock
            name = threading.current_thread().name
            assert not name.startswith("dflow-branch"), "a pool worker submitted to the pool"
            submitted.append(name)
            return submit(fn, *args)

        monkeypatch.setattr(tensor._POOL, "submit", spy)
        expected = silhouette_naive(*case)
        # the second branch runs on a pool worker, which must run its groups itself
        assert branches([partial(silhouette_score, *case)] * 2) == [expected, expected]
        assert submitted

    def test_leaves_an_active_tape_as_it_was(self):
        p = Tensor(np.full((1, 2, 2), 0.5), requires_grad=True)
        with GradTape() as tape:
            bce_loss(p, np.ones((1, 2, 2)))
            length = len(tape)
            silhouette_score(*_own_cluster_case(74, side=32)[:2])
            assert len(tape) == length

    def test_desk_window_peak_with_eight_groups(self, monkeypatch, traced_memory):
        monkeypatch.setattr(losses, "_CPUS", 8)
        case = _own_cluster_case(74, side=32)
        _, peak = traced_memory(silhouette_score, *case)
        assert peak / 2 ** 20 < 4.0
        assert silhouette_score(*case) == silhouette_naive(*case)


class TestPermutationInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_metrics_under_joint_spatial_permutation(self, seed):
        rng = np.random.default_rng(seed)
        pred = rand_label(rng, (1, 4, 4))
        label = rand_label(rng, (1, 4, 4))
        img = rng.uniform(0, 1, size=(3, 4, 4))
        perm = rng.permutation(16)
        pred_p = pred.reshape(-1)[perm].reshape(1, 4, 4)
        label_p = label.reshape(-1)[perm].reshape(1, 4, 4)
        img_p = img.reshape(3, -1)[:, perm].reshape(3, 4, 4)
        assert dice_coefficient(pred, label) == dice_coefficient(pred_p, label_p)
        npt.assert_allclose(silhouette_score(pred, img),
                            silhouette_score(pred_p, img_p), atol=1e-12)
