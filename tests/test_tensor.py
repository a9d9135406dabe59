import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxmin_cnn.errors import ConfigError
from maxmin_cnn.tensor import col2im, conv_dft, conv_out_size, im2col

rng = None  # each test gets its own generator, seeded in conftest.py


class TestIm2col:
    def test_1x1_kernel_is_identity_gather(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        cols = im2col(x, 1, 1, 1, 0)
        np.testing.assert_array_equal(cols, x.reshape(1, 4))

    def test_3x3_padded_corner(self):
        x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (9, 9)
        # corner output (0,0): rows/cols -1 of the padded image are zero
        assert int((cols[:, 0] == 0).sum()) >= 5  # 5 taps fall in padding
        corner = cols[:, 0].reshape(3, 3)
        np.testing.assert_array_equal(corner[0], [0, 0, 0])
        np.testing.assert_array_equal(corner[:, 0], [0, 0, 0])
        np.testing.assert_array_equal(corner[1:, 1:], x[0, 0, :2, :2])

    def test_index_oracle(self):
        x = rng.random((2, 3, 5, 6))
        kh, kw, stride, pad = 3, 2, 2, 1
        ho = conv_out_size(5, kh, stride, pad)
        wo = conv_out_size(6, kw, stride, pad)
        cols = im2col(x, kh, kw, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for n in range(2):
            for oi in range(ho):
                for oj in range(wo):
                    col = cols[:, (n * ho + oi) * wo + oj].reshape(3, kh, kw)
                    ref = xp[n, :, oi * stride:oi * stride + kh, oj * stride:oj * stride + kw]
                    np.testing.assert_array_equal(col, ref)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
           st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, kh, kw, stride, pad, seed):
        assume((6 + 2 * pad - kh) % stride == 0 and (6 + 2 * pad - kw) % stride == 0)
        r = np.random.default_rng(seed)
        x = r.standard_normal((2, 2, 6, 6))
        cols = im2col(x, kh, kw, stride, pad)
        y = r.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kh, kw, stride, pad)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_col2im_counts_multiplicity(self):
        x_shape = (1, 1, 4, 4)
        cols = im2col(np.zeros(x_shape), 3, 3, 1, 1)
        counts = col2im(np.ones_like(cols), x_shape, 3, 3, 1, 1)
        # every input pixel is covered by one patch per overlapping window
        assert counts[0, 0, 0, 0] == 4.0  # corner: 2x2 windows reach it
        assert counts[0, 0, 1, 1] == 9.0  # interior: full 3x3 coverage

    def test_non_integral_output_size(self):
        with pytest.raises(ConfigError):
            im2col(np.zeros((1, 1, 5, 5)), 2, 2, 2, 0)


class TestConvDft:
    @pytest.mark.parametrize("h,w,pad,kernel", [(8, 8, 2, 5), (8, 7, 2, 5), (6, 5, 4, 3)],
                             ids=["even", "odd-width", "pad-over-kernel"])
    def test_blocks_match_rfft2(self, h, w, pad, kernel):
        """Each forward matrix is rfft2 of its block placed in the padded P x Q
        canvas; each inverse recovers the block from a Hermitian half spectrum."""
        p, q = h + 2 * pad, w + 2 * pad
        blocks = conv_dft(h, w, pad, kernel, np.dtype(np.float64))
        for (forward, inverse), (offset, rows, cols) in zip(
                blocks, ((pad, h, w), (0, kernel, kernel), (0, p - kernel + 1, q - kernel + 1))):
            vals = rng.standard_normal((3, rows, cols))
            canvas = np.zeros((3, p, q))
            canvas[:, offset:offset + rows, offset:offset + cols] = vals
            ref = np.fft.rfft2(canvas).reshape(3, -1)
            spectrum = forward @ vals.reshape(3, -1).T  # rows (frequency, re/im)
            np.testing.assert_allclose(spectrum[0::2].T, ref.real, atol=1e-12)
            np.testing.assert_allclose(spectrum[1::2].T, ref.imag, atol=1e-12)
            np.testing.assert_allclose((spectrum.T @ inverse).reshape(vals.shape), vals,
                                       atol=1e-12)

    def test_shared_matrices_are_read_only(self):
        first = conv_dft(4, 4, 2, 5, np.dtype(np.float32))
        assert first is conv_dft(4, 4, 2, 5, np.dtype(np.float32))
        for pair in first:
            for a in pair:
                assert a.dtype == np.float32 and not a.flags.writeable
