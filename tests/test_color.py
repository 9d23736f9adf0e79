import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflow.color import ColorImage, extract_y, rgb_to_hsv, rgb_to_yuv, yuv_to_rgb


def pixel_array(r, g, b):
    return np.array([[[r]], [[g]], [[b]]], dtype=np.float64)


def single_pixel(r, g, b):
    return ColorImage(pixel_array(r, g, b))


def px(out):
    return tuple(out[:, 0, 0])


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestRgbToYuv:
    def test_black(self):
        npt.assert_allclose(px(rgb_to_yuv(single_pixel(0, 0, 0))), (0.0, 0.5, 0.5))

    def test_white(self):
        npt.assert_allclose(px(rgb_to_yuv(single_pixel(1, 1, 1))), (1.0, 0.5, 0.5),
                            atol=1e-15)

    def test_pure_red(self):
        # evaluate the matrix by hand: Y=0.299, U=-0.168736+0.5, V=0.5+0.5
        npt.assert_allclose(px(rgb_to_yuv(single_pixel(1, 0, 0))),
                            (0.299, 0.331264, 1.0), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(*(unit_floats,) * 6, st.floats(min_value=0.0, max_value=1.0))
    def test_affine_in_the_input(self, r1, g1, b1, r2, g2, b2, alpha):
        a = np.array([r1, g1, b1])
        b = np.array([r2, g2, b2])
        mixed = alpha * a + (1 - alpha) * b
        lhs = np.array(px(rgb_to_yuv(single_pixel(*mixed))))
        ya = np.array(px(rgb_to_yuv(single_pixel(*a))))
        yb = np.array(px(rgb_to_yuv(single_pixel(*b))))
        npt.assert_allclose(lhs, alpha * ya + (1 - alpha) * yb, atol=1e-12)


class TestYuvToRgb:
    def test_inverse_of_black(self):
        npt.assert_allclose(px(yuv_to_rgb(pixel_array(0, 0.5, 0.5))),
                            (0, 0, 0), atol=1e-12)

    def test_inverse_of_white(self):
        npt.assert_allclose(px(yuv_to_rgb(pixel_array(1, 0.5, 0.5))),
                            (1, 1, 1), atol=1e-12)

    def test_round_trip_on_random_pixels(self):
        rng = np.random.default_rng(0)
        img = ColorImage(rng.uniform(0, 1, size=(3, 16, 16)))
        back = yuv_to_rgb(rgb_to_yuv(img))
        assert np.abs(back - img.pixels).max() < 1e-6


class TestRgbToHsv:
    def test_gray_is_achromatic(self):
        npt.assert_allclose(px(rgb_to_hsv(single_pixel(0.5, 0.5, 0.5))), (0, 0, 0.5))

    def test_pure_green(self):
        npt.assert_allclose(px(rgb_to_hsv(single_pixel(0, 1, 0))), (1 / 3, 1, 1),
                            atol=1e-12)

    def test_black_uses_zero_saturation_convention(self):
        npt.assert_allclose(px(rgb_to_hsv(single_pixel(0, 0, 0))), (0, 0, 0))

    def test_primaries_and_secondaries(self):
        cases = {
            (1, 0, 0): 0.0, (1, 1, 0): 1 / 6, (0, 1, 1): 3 / 6,
            (0, 0, 1): 4 / 6, (1, 0, 1): 5 / 6,
        }
        for rgb, hue in cases.items():
            h, s, v = px(rgb_to_hsv(single_pixel(*rgb)))
            npt.assert_allclose((h, s, v), (hue, 1.0, 1.0), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(unit_floats, unit_floats, unit_floats)
    def test_channels_stay_in_unit_range(self, r, g, b):
        out = np.array(px(rgb_to_hsv(single_pixel(r, g, b))))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestExtractY:
    def test_white_and_black(self):
        white = rgb_to_yuv(single_pixel(1, 1, 1))
        black = rgb_to_yuv(single_pixel(0, 0, 0))
        npt.assert_allclose(extract_y(white), 1.0, atol=1e-15)
        npt.assert_allclose(extract_y(black), 0.0)

    def test_pure_red_luma(self):
        y = extract_y(rgb_to_yuv(single_pixel(1, 0, 0)))
        assert y.shape == (1, 1, 1)
        npt.assert_allclose(y, 0.299, atol=1e-12)


class TestColorImage:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ColorImage(np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("shape", [(1, 4, 4), (4, 3, 4), (4, 4), (3, 1, 4, 4)])
    def test_samples_form_rejects_what_the_float_form_rejects(self, shape):
        samples = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"expected shape \(3, H, W\)"):
            ColorImage(samples.astype(np.float64))
        with pytest.raises(ValueError, match=r"expected shape \(3, H, W\)"):
            ColorImage(samples, 255)

    def test_samples_form_keeps_a_copy(self):
        samples = np.full((2, 4, 3), 51, dtype=np.uint8)  # file order, viewed as (3, H, W)
        img = ColorImage(samples.transpose(2, 0, 1), 255)
        samples[...] = 0
        npt.assert_array_equal(img.pixels, np.full((3, 2, 4), 0.2))
        assert img.pixels.flags.c_contiguous
        assert (img.height, img.width) == (2, 4)

    def test_float_form_keeps_a_copy(self):
        floats = np.full((3, 2, 4), 0.2)
        img = ColorImage(floats)
        floats[...] = 0.0
        npt.assert_array_equal(img.pixels, np.full((3, 2, 4), 0.2))

    @pytest.mark.parametrize("dtype, maxval", [
        (np.uint8, 255), (np.uint8, 155), (">u2", 65535), (">u2", 1000), (np.float64, 1),
    ], ids=["u8_255", "u8_155", "u16_65535", "u16_1000", "float_1"])
    def test_pixels_are_samples_over_maxval_bit_for_bit(self, dtype, maxval):
        rng = np.random.default_rng(7)
        if dtype == np.float64:
            samples = rng.uniform(0.0, 1.0, size=(3, 5, 6))
        else:
            samples = rng.integers(0, maxval + 1, size=(3, 5, 6)).astype(dtype)
        want = samples.astype(np.float64) / maxval
        got = ColorImage(samples, maxval).pixels
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
