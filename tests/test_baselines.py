import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflow.baselines import (
    ThresholdParams,
    _gaussian_weights,
    adaptive_threshold_gaussian,
    adaptive_threshold_mean,
    distance_transform_threshold,
    euclidean_distance_transform,
    otsu_threshold,
)
from dflow.color import extract_y, rgb_to_yuv
from dflow.data import SynthSceneParams, read_frame, synth_generate

from oracles import brute_force_local_mean, gaussian_grid


def brute_force_distance(mask):
    """Per-pixel min distance to any background pixel (squared, exact ints)."""
    h, w = mask.shape
    bg = np.argwhere(~mask)
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            d2 = ((bg[:, 0] - y) ** 2 + (bg[:, 1] - x) ** 2).min()
            out[y, x] = d2
    return out


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdParams(window=4)
        with pytest.raises(ValueError):
            ThresholdParams(window=1)
        with pytest.raises(ValueError):
            ThresholdParams(dt_fraction=1.0)
        with pytest.raises(ValueError):
            ThresholdParams(gaussian_sigma=0.0)
        with pytest.raises(ValueError, match="window must be an integer, got 3.0"):
            ThresholdParams(window=3.0)

    def test_default_sigma_tracks_window(self):
        assert ThresholdParams(window=9).sigma == 1.5


class TestMeanThreshold:
    def test_constant_image_is_all_ones(self):
        p = ThresholdParams(window=3, c=0.05)
        out = adaptive_threshold_mean(np.full((6, 6), 0.4), p)
        npt.assert_array_equal(out, 1.0)

    def test_brightness_shift_invariance(self):
        rng = np.random.default_rng(0)
        p = ThresholdParams(window=5, c=0.02)
        for _ in range(50):
            g = rng.uniform(0.0, 0.5, size=(10, 10))
            shift = rng.uniform(0.0, 0.5)
            npt.assert_array_equal(adaptive_threshold_mean(g, p),
                                   adaptive_threshold_mean(g + shift, p))

    def test_step_edge_against_brute_force(self):
        g = np.zeros((6, 8))
        g[:, 4:] = 1.0
        p = ThresholdParams(window=3, c=0.1)
        expected = (g > brute_force_local_mean(g, 3) - p.c).astype(np.float64)
        npt.assert_array_equal(adaptive_threshold_mean(g, p), expected)
        # bright side fully kept, dark pixels adjacent to the edge dropped
        assert expected[:, 4:].all()
        assert not expected[:, 3].any()

    def test_random_images_against_brute_force(self):
        rng = np.random.default_rng(1)
        p = ThresholdParams(window=5, c=0.01)
        for _ in range(5):
            g = rng.uniform(size=(9, 7))
            expected = (g > brute_force_local_mean(g, 5) - p.c).astype(np.float64)
            npt.assert_array_equal(adaptive_threshold_mean(g, p), expected)

    def test_channel_first_shape_is_preserved(self):
        p = ThresholdParams(window=3)
        out = adaptive_threshold_mean(np.zeros((1, 4, 4)), p)
        assert out.shape == (1, 4, 4)


class TestGaussianThreshold:
    def test_constant_image_is_all_ones(self):
        p = ThresholdParams(window=5, c=0.01)
        out = adaptive_threshold_gaussian(np.full((5, 5), 0.7), p)
        npt.assert_array_equal(out, 1.0)

    def test_huge_sigma_matches_mean_variant(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(size=(12, 12))
        mean_p = ThresholdParams(window=7, c=0.02)
        flat_p = ThresholdParams(window=7, c=0.02, gaussian_sigma=1e9)
        npt.assert_array_equal(adaptive_threshold_gaussian(g, flat_p),
                               adaptive_threshold_mean(g, mean_p))

    def test_step_edge_against_weighted_brute_force(self):
        rng = np.random.default_rng(3)
        g = np.zeros((6, 8))
        g[:, 4:] = 1.0
        g += rng.uniform(0.0, 0.05, size=g.shape)
        p = ThresholdParams(window=3, c=0.02, gaussian_sigma=0.8)
        half = p.window // 2
        ax = np.arange(-half, half + 1, dtype=np.float64)
        yy, xx = np.meshgrid(ax, ax, indexing="ij")
        weights = np.exp(-(xx ** 2 + yy ** 2) / (2 * p.sigma ** 2))
        weights /= weights.sum()
        expected = (g > brute_force_local_mean(g, 3, weights) - p.c).astype(np.float64)
        npt.assert_array_equal(adaptive_threshold_gaussian(g, p), expected)

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    def test_tiny_sigma_is_the_centre_pixel(self, sigma):
        # sigma ** 2 underflows to 0 here; the weights must still be finite
        npt.assert_array_equal(_gaussian_weights(11, sigma), np.eye(11)[5])
        g = np.random.default_rng(7).uniform(size=(6, 9))
        p = ThresholdParams(window=11, gaussian_sigma=sigma)
        npt.assert_array_equal(adaptive_threshold_gaussian(g, p), g > g - p.c)


class TestSeparableWindows:
    """Masks from the two 1-D passes equal masks from the brute-force 2-D
    window mean, with no pixel so close to ``g == local - c`` that rounding
    could decide it."""

    @staticmethod
    def assert_masks_match_brute_force(g, p):
        grids = {adaptive_threshold_mean: None,
                 adaptive_threshold_gaussian: gaussian_grid(p.window, p.sigma)}
        for method, grid in grids.items():
            threshold = brute_force_local_mean(g, p.window, grid) - p.c
            assert np.abs(g - threshold).min() > 1e-12
            npt.assert_array_equal(method(g, p), (g > threshold).astype(np.float64))

    def test_desk_frames_at_default_params(self, tmp_path):
        # 32x32 synthetic frames, read back from their files like `dflow baseline` does
        manifest = synth_generate(SynthSceneParams(seed=4), 2, 2, tmp_path, ["train", "val"])
        for src in manifest.sources:
            for rel in src.frames:
                g = extract_y(rgb_to_yuv(read_frame(manifest.root / rel)))[0]
                assert g.shape == (32, 32)
                self.assert_masks_match_brute_force(g, ThresholdParams())

    def test_plane_smaller_than_the_window(self):
        g = np.random.default_rng(8).uniform(size=(4, 9))
        self.assert_masks_match_brute_force(g, ThresholdParams())

    def test_window_21(self):
        g = np.random.default_rng(9).uniform(size=(12, 15))
        self.assert_masks_match_brute_force(g, ThresholdParams(window=21, c=0.01))

    def test_window_5_with_narrow_gaussian(self):
        g = np.random.default_rng(10).uniform(size=(9, 8))
        self.assert_masks_match_brute_force(g, ThresholdParams(window=5, gaussian_sigma=0.8))

    def test_gaussian_weights_are_the_grid_factor(self):
        for window, sigma in ((3, 0.8), (11, 11 / 6), (21, 3.5)):
            w = _gaussian_weights(window, sigma)
            npt.assert_allclose(np.outer(w, w), gaussian_grid(window, sigma), rtol=1e-14)


class TestOtsu:
    def test_bimodal_split(self):
        g = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
        t = otsu_threshold(g.reshape(10, 10))
        assert 0.1 <= t < 0.9

    def test_constant_image_has_no_split(self):
        assert otsu_threshold(np.full((4, 4), 0.3)) is None

    def test_threshold_is_exactly_the_split_level(self):
        # each level below 255 is the split of itself and 255, and comes back
        # from thresh * 255 exactly, so the foreground above it is never empty
        # or full: distance_transform_threshold relies on this
        for level in range(255):
            assert otsu_threshold(np.array([[level, 255.0]]) / 255.0) * 255.0 == level


class TestDistanceTransform:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mask = rng.uniform(size=(17, 13)) > 0.35
            if mask.all() or not mask.any():
                continue
            ours = euclidean_distance_transform(mask) ** 2
            npt.assert_allclose(ours, brute_force_distance(mask), atol=0)

    def test_matches_brute_force_on_32x32(self):
        rng = np.random.default_rng(5)
        mask = rng.uniform(size=(32, 32)) > 0.2
        mask[0, 0] = False
        ours = euclidean_distance_transform(mask) ** 2
        npt.assert_allclose(ours, brute_force_distance(mask), atol=0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["row", "column", "general"]), st.integers(1, 24),
           st.integers(1, 24), st.integers(0, 2 ** 32 - 1))
    def test_equals_brute_force_bit_for_bit(self, kind, h, w, seed):
        shape = {"row": (1, w), "column": (h, 1), "general": (h, w)}[kind]
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=shape) < rng.uniform()
        mask.flat[rng.integers(mask.size)] = False  # at least one background pixel
        assert np.array_equal(euclidean_distance_transform(mask),
                              np.sqrt(brute_force_distance(mask)))

    @pytest.mark.parametrize("shape", [(4,), (1, 3, 3)])
    def test_rejects_a_mask_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match="expected a 2D mask"):
            euclidean_distance_transform(np.zeros(shape, dtype=bool))

    def test_all_foreground_is_infinite(self):
        for shape in ((3, 3), (1, 5), (4, 1)):
            d = euclidean_distance_transform(np.ones(shape, dtype=bool))
            assert d.shape == shape and np.isinf(d).all()
        assert euclidean_distance_transform(np.ones((0, 4), dtype=bool)).shape == (0, 4)


class TestDistanceTransformThreshold:
    def test_all_black_gives_empty_mask(self):
        p = ThresholdParams()
        npt.assert_array_equal(distance_transform_threshold(np.zeros((8, 8)), p), 0.0)

    def test_white_square_keeps_central_3x3(self):
        g = np.zeros((11, 11))
        g[3:8, 3:8] = 1.0
        p = ThresholdParams(dt_fraction=0.5)
        out = distance_transform_threshold(g, p)
        expected = np.zeros((11, 11))
        expected[4:7, 4:7] = 1.0
        npt.assert_array_equal(out, expected)

    def test_two_squares_are_kept_symmetrically(self):
        g = np.zeros((9, 20))
        g[2:7, 2:7] = 1.0
        g[2:7, 13:18] = 1.0
        p = ThresholdParams(dt_fraction=0.5)
        out = distance_transform_threshold(g, p)
        npt.assert_array_equal(out, out[:, ::-1])
        assert out[4, 4] == 1.0 and out[4, 15] == 1.0
        assert out.sum() == 2 * 9

    def test_determinism(self):
        rng = np.random.default_rng(6)
        g = rng.uniform(size=(16, 16))
        p = ThresholdParams()
        npt.assert_array_equal(distance_transform_threshold(g, p),
                               distance_transform_threshold(g, p))
