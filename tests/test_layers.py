import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmin_cnn import layers as L
from maxmin_cnn.errors import ConfigError, LayerStateError, ShapeError
from maxmin_cnn.train import grad_check_layer

rng = np.random.default_rng(7)


def conv_oracle(x, weights, bias, stride, pad):
    """Direct cross-correlation: each output position sums its receptive field."""
    n, c, h, w = x.shape
    f, _, kh, kw = weights.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for oi in range(ho):
        for oj in range(wo):
            patch = xp[:, :, oi * stride:oi * stride + kh, oj * stride:oj * stride + kw]
            out[:, :, oi, oj] = np.einsum("ncij,fcij->nf", patch, weights) + bias
    return out


def conv_grad_oracle(x, weights, pad, grad_out):
    """Stride-1 conv gradients from their definitions: (dW, db, dx)."""
    f, c, kh, kw = weights.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = grad_out.shape[2:]
    dw = np.empty(weights.shape)
    dxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + ho, j:j + wo]
            dw[:, :, i, j] = np.einsum("nfhw,nchw->fc", grad_out, window)
            dxp[:, :, i:i + ho, j:j + wo] += np.einsum("nfhw,fc->nchw", grad_out, weights[:, :, i, j])
    dx = dxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    return dw, grad_out.sum(axis=(0, 2, 3)), dx


def assert_matches_wide_oracle(actual, ref):
    """rtol 1e-12, plus atol 1e-12 * max|ref| for a sum over many channels.

    An output of a 64-channel sum that cancels to near zero carries
    round-off of the summed terms, not of itself: any summation order
    other than the oracle's misses a pure rtol there.
    """
    np.testing.assert_allclose(actual, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def pool_oracle(x, window, stride):
    """Per-window loop over edge-clamped windows, first max in row-major order.

    Returns the pooled output and the (row, col) input index each output
    routes its gradient to.
    """
    n, c, h, w = x.shape
    ho = -((h - window) // -stride) + 1
    wo = -((w - window) // -stride) + 1
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    arg_i = np.empty((n, c, ho, wo), dtype=np.intp)
    arg_j = np.empty((n, c, ho, wo), dtype=np.intp)
    for i in range(ho):
        hs = min(i * stride, h - 1)
        he = min(hs + window, h)
        for j in range(wo):
            ws = min(j * stride, w - 1)
            we = min(ws + window, w)
            win = x[:, :, hs:he, ws:we].reshape(n, c, -1)
            flat = win.argmax(axis=2)
            out[:, :, i, j] = np.take_along_axis(win, flat[:, :, None], axis=2)[:, :, 0]
            arg_i[:, :, i, j] = hs + flat // (we - ws)
            arg_j[:, :, i, j] = ws + flat % (we - ws)
    return out, arg_i, arg_j


def pool_backward_oracle(x_shape, arg_i, arg_j, grad_out):
    """Scatter-add each output gradient onto its routed input, in output order."""
    n, c = x_shape[:2]
    dx = np.zeros(x_shape, dtype=grad_out.dtype)
    nn, cc = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
    np.add.at(dx, (nn[:, :, None, None], cc[:, :, None, None], arg_i, arg_j), grad_out)
    return dx


def make_conv(in_c, f, k, stride=1, pad=0, seed=0, scale=1.0):
    conv = L.Conv2D(in_c, f, k, stride=stride, pad=pad, rng=np.random.default_rng(seed))
    conv.weights[...] = np.random.default_rng(seed + 1).standard_normal(conv.weights.shape) * scale
    conv.bias[...] = np.random.default_rng(seed + 2).standard_normal(conv.bias.shape) * scale
    return conv


class TestConv2D:
    def test_identity_filter(self):
        conv = make_conv(1, 1, 1)
        conv.weights[...] = 1.0
        conv.bias[...] = 0.0
        x = rng.random((1, 1, 4, 4))
        np.testing.assert_array_equal(conv.forward(x), x)

    def test_window_sum(self):
        conv = make_conv(1, 1, 2)
        conv.weights[...] = 1.0
        conv.bias[...] = 0.0
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(conv.forward(x), [[[[10.0]]]])

    def test_matches_direct_oracle(self):
        for in_c, f, pad in ((3, 4, 0), (8, 3, 2)):
            conv = make_conv(in_c, f, 5, pad=pad, seed=3)
            x = rng.random((2, in_c, 8, 7))
            assert conv.lowering(x.shape) == "im2col"
            out = conv.forward(x)
            ref = conv_oracle(x, conv.weights, conv.bias, 1, pad)
            np.testing.assert_allclose(out, ref, rtol=1e-12)

    # 64 -> 32 channels at batch 16 or 13: an even and an odd transform
    # width, no pad, and a pad beyond kernel - 1
    @pytest.mark.parametrize("n,k,size,pad", [(16, 5, (8, 8), 2), (13, 5, (8, 7), 2),
                                              (16, 5, (9, 8), 0), (16, 5, (6, 5), 4)],
                             ids=["8x8-pad2", "8x7-pad2", "9x8-pad0", "6x5-pad4"])
    def test_dft_matches_direct_oracle(self, n, k, size, pad):
        conv = make_conv(64, 32, k, pad=pad, seed=19)
        x = rng.standard_normal((n, 64) + size)
        assert conv.lowering(x.shape) == "dft"
        out = conv.forward(x)
        assert_matches_wide_oracle(out, conv_oracle(x, conv.weights, conv.bias, 1, pad))
        g = rng.standard_normal(out.shape)
        dw, db, dx = conv_grad_oracle(x, conv.weights, pad, g)
        assert_matches_wide_oracle(conv.backward(g), dx)
        assert_matches_wide_oracle(conv.w_grad, dw)
        assert_matches_wide_oracle(conv.b_grad, db)
        # parameter gradients accumulate; input_grad=False skips only dx
        assert conv.backward(g, input_grad=False) is None
        assert_matches_wide_oracle(conv.w_grad, 2 * dw)
        assert_matches_wide_oracle(conv.b_grad, 2 * db)

    @pytest.mark.parametrize("stride,pad", [(2, 1), (1, 3)])
    def test_narrowing_conv_off_the_rule_lowers_its_input(self, stride, pad):
        """Stride > 1, or a pad that makes the transforms cost more than the
        spatial product, keeps a conv the DFT would otherwise take on im2col."""
        conv = make_conv(6, 2, 3, stride=stride, pad=pad, seed=17)
        x = rng.random((2, 6, 7, 7))
        assert conv.lowering(x.shape) == "im2col"
        ref = conv_oracle(x, conv.weights, conv.bias, stride, pad)
        np.testing.assert_allclose(conv.forward(x), ref, rtol=1e-12)

        wide = make_conv(64, 32, 3, stride=stride, pad=pad, seed=17)
        x = rng.random((16, 64, 9, 9))
        assert make_conv(64, 32, 3, pad=1).lowering(x.shape) == "dft"
        assert wide.lowering(x.shape) == "im2col"
        ref = conv_oracle(x, wide.weights, wide.bias, stride, pad)
        assert_matches_wide_oracle(wide.forward(x), ref)

    @pytest.mark.parametrize("in_c,f,n,size,lowering", [(2, 3, 2, 5, "im2col"),
                                                        (6, 3, 2, 5, "im2col"),
                                                        (64, 32, 16, 8, "dft")],
                             ids=["2-3", "6-3", "64-32"])
    def test_float32_stays_float32(self, in_c, f, n, size, lowering):
        conv = L.Conv2D(in_c, f, 3, pad=1, rng=np.random.default_rng(0), dtype=np.float32)
        x = rng.standard_normal((n, in_c, size, size)).astype(np.float32)
        assert conv.lowering(x.shape) == lowering
        out = conv.forward(x)
        dx = conv.backward(np.ones_like(out))
        assert (out.dtype, dx.dtype, conv.w_grad.dtype, conv.b_grad.dtype) == (np.float32,) * 4

    def test_strided_padded_oracle(self):
        conv = make_conv(2, 3, 3, stride=2, pad=1, seed=5)
        x = rng.random((2, 2, 7, 7))
        ref = conv_oracle(x, conv.weights, conv.bias, 2, 1)
        np.testing.assert_allclose(conv.forward(x), ref, rtol=1e-12)

    def test_zero_grad_out_gives_zero_grads(self):
        conv = make_conv(2, 3, 3, seed=9)
        out = conv.forward(rng.random((1, 2, 5, 5)))
        conv.zero_grads()
        conv.backward(np.zeros_like(out))
        assert not conv.w_grad.any() and not conv.b_grad.any()

    def test_identity_backprop(self):
        conv = make_conv(1, 1, 1)
        conv.weights[...] = 1.0
        conv.bias[...] = 0.0
        conv.forward(rng.random((1, 1, 3, 3)))
        g = np.zeros((1, 1, 3, 3))
        g[0, 0, 1, 2] = 1.0
        np.testing.assert_array_equal(conv.backward(g), g)

    def test_gradients_vs_finite_differences(self):
        for n, in_c, f, size, pad, lowering in ((2, 2, 3, (6, 5), 1, "im2col"),
                                                (2, 6, 3, (6, 5), 1, "im2col"),
                                                (2, 6, 3, (6, 5), 0, "im2col"),
                                                (16, 64, 32, (8, 8), 1, "dft")):
            conv = make_conv(in_c, f, 3, stride=1, pad=pad, seed=11, scale=0.5)
            x = rng.standard_normal((n, in_c) + size)
            assert conv.lowering(x.shape) == lowering
            report = grad_check_layer(conv, x, tolerance=1e-4)
            assert report.passed, str(report)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            make_conv(2, 3, 3).forward(np.zeros((1, 5, 6, 6)))

    def test_backward_before_forward(self):
        with pytest.raises(LayerStateError):
            make_conv(1, 1, 1).backward(np.zeros((1, 1, 2, 2)))

    def test_negation_symmetry(self):
        """conv(x, -W, -b) == -conv(x, W, b) exactly, whichever the lowering."""
        for n, in_c, f, size, lowering in ((2, 3, 4, 9, "im2col"), (2, 8, 4, 9, "im2col"),
                                           (16, 64, 32, 8, "dft")):
            conv = make_conv(in_c, f, 5, pad=2, seed=13)
            x = rng.standard_normal((n, in_c, size, size))
            assert conv.lowering(x.shape) == lowering
            pos = conv.forward(x)
            conv.weights[...] = -conv.weights
            conv.bias[...] = -conv.bias
            np.testing.assert_array_equal(conv.forward(x), -pos)


class TestMaxMin:
    def test_definition(self):
        x = np.array([1.0, -2.0, 3.0]).reshape(1, 3, 1, 1)
        out = L.MaxMin().forward(x)
        np.testing.assert_array_equal(out.reshape(-1), [1, -2, 3, -1, 2, -3])

    def test_zero_input(self):
        out = L.MaxMin().forward(np.zeros((2, 3, 4, 4)))
        assert out.shape == (2, 6, 4, 4)
        assert not out.any()

    def test_halves_exact(self):
        x = rng.standard_normal((3, 5, 4, 4))
        out = L.MaxMin().forward(x)
        np.testing.assert_array_equal(out[:, :5], x)
        np.testing.assert_array_equal(out[:, 5:], -x)

    def test_backward_cancellation(self):
        mm = L.MaxMin()
        mm.forward(rng.random((1, 2, 3, 3)))
        g = rng.random((1, 2, 3, 3))
        both = np.concatenate([g, g], axis=1)
        assert not mm.backward(both).any()

    def test_backward_pass_through(self):
        mm = L.MaxMin()
        mm.forward(rng.random((1, 2, 3, 3)))
        g = rng.random((1, 2, 3, 3))
        padded = np.concatenate([g, np.zeros_like(g)], axis=1)
        np.testing.assert_array_equal(mm.backward(padded), g)

    def test_backward_odd_channels(self):
        mm = L.MaxMin()
        mm.forward(rng.random((1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            mm.backward(rng.random((1, 3, 3, 3)))

    def test_gradient_vs_finite_differences(self):
        x = rng.standard_normal((2, 3, 4, 4))
        report = grad_check_layer(L.MaxMin(), x, tolerance=1e-6)
        assert report.passed, str(report)


class TestReLU:
    def test_definition(self):
        out = L.ReLU().forward(np.array([-1.0, 2.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0, 0.0])

    def test_identity_region(self):
        x = rng.random((2, 2)) + 0.1
        np.testing.assert_array_equal(L.ReLU().forward(x), x)

    def test_gradient_off_kink(self):
        x = rng.standard_normal((3, 4, 5, 5))
        x[np.abs(x) < 1e-3] = 0.5  # keep inputs away from the kink
        report = grad_check_layer(L.ReLU(), x, tolerance=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_masked_select(self, dtype):
        x = rng.standard_normal((4, 3, 5, 5)).astype(dtype)
        x.flat[:6] = [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45]
        out = L.ReLU().forward(x)
        assert out.dtype == dtype
        assert out.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_masked_select(self, dtype):
        """The mask multiply matches np.where up to the sign of a zero."""
        x = rng.standard_normal((3, 4, 5, 5)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        big = np.finfo(dtype).max
        x.flat[:4] = g.flat[4:8] = [0.0, -0.0, big, -big]
        g.flat[:4] = [big, -big, -0.0, 0.0]
        relu = L.ReLU()
        relu.forward(x)
        dx = relu.backward(g)
        assert dx.dtype == dtype
        assert np.array_equal(dx, np.where(x > 0, g, 0.0))

    def test_nan_propagates(self):
        out = L.ReLU().forward(np.array([np.nan, -1.0, 2.0]))
        assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0

    def test_signature_is_packed_mask(self):
        relu = L.ReLU()
        x = rng.standard_normal((2, 3, 5, 5))
        relu.forward(x)
        sig = relu.kink_signature()
        assert len(sig) == -(-x.size // 8)
        y = x.copy()
        y[0, 0, 0, 0] = -y[0, 0, 0, 0]
        relu.forward(y)
        assert relu.kink_signature() != sig
        relu.forward(x + 0.0)
        assert relu.kink_signature() == sig


class TestMaxPool:
    def test_constant_input_tie_rule(self):
        pool = L.MaxPool(window=2, stride=2)
        x = np.ones((1, 1, 4, 4))
        out = pool.forward(x)
        np.testing.assert_array_equal(out, np.ones((1, 1, 2, 2)))
        dx = pool.backward(np.ones_like(out))
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0  # first element of each window
        np.testing.assert_array_equal(dx, expected)

    def test_window_max(self):
        pool = L.MaxPool(window=2, stride=2)
        x = np.array([3.0, -5.0, 1.0, 0.0]).reshape(1, 1, 2, 2)
        assert pool.forward(x)[0, 0, 0, 0] == 3.0

    def test_matches_pool_oracle(self):
        pool = L.MaxPool(window=3, stride=2)
        x = rng.standard_normal((2, 3, 8, 8))
        np.testing.assert_array_equal(pool.forward(x), pool_oracle(x, 3, 2)[0])

    def test_clamped_spatial_progression(self):
        pool = L.MaxPool(window=3, stride=2)
        for size, expect in ((32, 16), (16, 8), (8, 4)):
            out = pool.forward(rng.random((1, 1, size, size)))
            assert out.shape[2:] == (expect, expect)

    def test_window_larger_than_input(self):
        with pytest.raises(ConfigError):
            L.MaxPool(window=5, stride=2).forward(np.zeros((1, 1, 3, 3)))

    def test_gradient_vs_finite_differences(self):
        x = rng.standard_normal((2, 2, 6, 6)) * 10  # well-separated values
        report = grad_check_layer(L.MaxPool(window=3, stride=2), x, tolerance=1e-6)
        assert report.passed, str(report)

    def test_route_is_one_byte_per_output(self):
        pool = L.MaxPool(window=3, stride=2)
        out = pool.forward(rng.standard_normal((2, 3, 8, 8)))
        assert len(pool.kink_signature()) == out.size


# Small integers make ties common; +-0 and +-inf probe the comparisons.
POOL_VALUES = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf]


@st.composite
def pool_cases(draw):
    window = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    h = draw(st.integers(window, window + 6))
    w = draw(st.integers(window, window + 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    values = draw(st.lists(st.sampled_from(POOL_VALUES), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    x = np.array(values, dtype=dtype).reshape(shape)
    return window, stride, x, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(pool_cases())
def test_maxpool_matches_loop_oracle(case):
    window, stride, x, seed = case
    r = np.random.default_rng(seed)
    pool = L.MaxPool(window, stride)
    out = pool.forward(x)
    ref, arg_i, arg_j = pool_oracle(x, window, stride)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    g = r.standard_normal(out.shape).astype(x.dtype)
    dx = pool.backward(g)
    assert dx.tobytes() == pool_backward_oracle(x.shape, arg_i, arg_j, g).tobytes()

    # a second input one changed entry away: signatures agree iff routes do
    sig = pool.kink_signature()
    y = x.copy()
    y.flat[r.integers(x.size)] = r.choice(POOL_VALUES)
    pool.forward(y)
    _, yi, yj = pool_oracle(y, window, stride)
    routes_equal = np.array_equal(arg_i, yi) and np.array_equal(arg_j, yj)
    assert (pool.kink_signature() == sig) == routes_equal

    # a NaN anywhere in a window makes that output NaN, as in the oracle
    o = np.unravel_index(r.integers(yi.size), yi.shape)
    y[o[0], o[1], yi[o], yj[o]] = np.nan
    out, ref = pool.forward(y), pool_oracle(y, window, stride)[0]
    nan = np.isnan(ref)
    assert nan.any()
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == ref[~nan].tobytes()


def assert_relu_pool_is_chain(window, stride, x, y, relu, r):
    """forward(x, relu=2) is MaxMin, ReLU, MaxPool; forward(x, relu=1) is ReLU, MaxPool.

    ``y`` is a second input; the fused pool's signatures on x and y agree
    iff the chain's do.
    """
    def run_chain(x):
        """The chain's output, and each output's route and ReLU mask at that route."""
        chain = [L.MaxMin(), L.ReLU(), L.MaxPool(window, stride)][2 - relu:]
        for layer in chain:
            x = layer.forward(x, train=True)
        active = x > 0
        return chain, x, (chain[-1]._routes()[0] * active).tobytes() + active.tobytes()

    chain, ref, chain_sig = run_chain(x)
    g = r.standard_normal(ref.shape).astype(x.dtype)
    ref_dx = g
    for layer in reversed(chain):
        ref_dx = layer.backward(ref_dx)

    results = []
    for train in (True, False):
        pool = L.MaxPool(window, stride)
        out = pool.forward(x, train=train, relu=relu)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert (pool._cache[2] is None) == (not train)  # an eval forward tracks no route
        dx = pool.backward(g)
        # only the sign of a zero may differ: the chain masks after summing
        # the windows' gradients, and MaxMin subtracts its halves
        assert dx.dtype == ref_dx.dtype and np.array_equal(dx, ref_dx)
        results.append((dx.tobytes(), pool.kink_signature()))
    assert results[0] == results[1]

    # on y the signatures differ iff the routes or signs do, and iff the
    # chain's routes and ReLU mask at its outputs differ: a function of
    # the chain's state, so the gradient check skips no entry it would not
    sig, state = results[1][1], pool._routes()
    pool.forward(y, relu=relu)
    same_state = all(np.array_equal(a, b) for a, b in zip(state, pool._routes()))
    assert (pool.kink_signature() == sig) == same_state
    assert (pool.kink_signature() == sig) == (run_chain(y)[2] == chain_sig)


@settings(max_examples=300, deadline=None)
@given(pool_cases())
def test_signed_pool_is_the_maxmin_relu_maxpool_chain(case):
    window, stride, x, seed = case
    r = np.random.default_rng(seed)
    y = x.copy()  # a second input one changed entry away
    y.flat[r.integers(x.size)] = r.choice(POOL_VALUES)
    for relu in (1, 2):
        assert_relu_pool_is_chain(window, stride, x, y, relu, r)


@pytest.mark.parametrize("relu,x,y", [
    # the max half of the second window is <= 0: its route moves, its output stays 0
    (1, [[5, 2, -3, -1], [1, 4, -2, -4]], [[5, 2, -0.5, -1], [1, 4, -2, -4]]),
    # the min half of the second window is >= 0: its route moves, relu(-min) stays 0
    (2, [[-5, 2, 1, 3], [-1, 4, 2, 4]], [[-5, 2, 1, 3], [-1, 4, 0.5, 4]]),
], ids=["relu1-max-half", "relu2-min-half"])
def test_relu_pool_signature_ignores_a_route_the_relu_zeroes(relu, x, y):
    """An edit that moves only the route of an output the ReLU zeroes keeps the signature.

    The chain's gradient there is 0 wherever the route points, so the
    fused pool's signature must not change either: a finer one would
    make the gradient check skip entries that the chain's enforces.
    """
    x, y = (np.array(a, np.float64).reshape(1, 1, 2, 4) for a in (x, y))

    def first_extreme(v):
        """Each window's first max (first min, for relu=2)."""
        plain = L.MaxPool(2, 2)
        plain.forward(v if relu == 1 else -v, train=True)
        return plain._routes()[0]

    assert not np.array_equal(first_extreme(x), first_extreme(y))
    pool = L.MaxPool(2, 2)
    pool.forward(x, train=True, relu=relu)
    sig = pool.kink_signature()
    pool.forward(y, train=True, relu=relu)
    assert pool.kink_signature() == sig
    assert_relu_pool_is_chain(2, 2, x, y, relu, np.random.default_rng(0))


class TestLRN:
    def test_alpha_zero_is_rescale(self):
        x = rng.standard_normal((1, 4, 3, 3))
        lrn = L.LRN(depth_radius=2, k=2.0, alpha=0.0, beta=0.75)
        np.testing.assert_allclose(lrn.forward(x), x / 2.0 ** 0.75, rtol=1e-14)
        lrn_k1 = L.LRN(depth_radius=2, k=1.0, alpha=0.0, beta=0.75)
        np.testing.assert_array_equal(lrn_k1.forward(x), x)

    def test_hand_arithmetic(self):
        lrn = L.LRN(depth_radius=0, k=1.0, alpha=1.0, beta=0.5)
        x = np.array([3.0]).reshape(1, 1, 1, 1)
        np.testing.assert_allclose(lrn.forward(x)[0, 0, 0, 0], 3.0 / np.sqrt(10.0), rtol=1e-12)

    def test_boundary_clipping_matches_direct_sum(self):
        x = rng.standard_normal((2, 6, 3, 3))
        lrn = L.LRN(depth_radius=2, k=1.0, alpha=0.3, beta=0.75)
        out = lrn.forward(x)
        for c in range(6):
            lo, hi = max(0, c - 2), min(6, c + 3)
            denom = 1.0 + 0.3 * (x[:, lo:hi] ** 2).sum(axis=1)
            np.testing.assert_allclose(out[:, c], x[:, c] * denom ** -0.75, rtol=1e-12)

    @staticmethod
    def per_half_reference(lrn, x, g):
        """Reference: each half sliced out, normalized by one expression per pass."""
        outs, grads = [], []
        for xg, gg in zip(np.split(x, 2, axis=1), np.split(g, 2, axis=1)):
            denom = lrn.k + lrn.alpha * L.LRN(lrn.radius)._window_sum(xg * xg)
            dpow = denom ** (-lrn.beta)
            t = gg * xg * dpow / denom
            outs.append(xg * dpow)
            grads.append(gg * dpow - 2.0 * lrn.alpha * lrn.beta * xg
                         * L.LRN(lrn.radius)._window_sum(t))
        return np.concatenate(outs, axis=1), np.concatenate(grads, axis=1)

    def test_groups_normalize_independently(self):
        """Each half's forward and backward equal a one-group LRN's, byte for byte."""
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((3, 8, 2, 2)).astype(dtype)
            g = rng.standard_normal(x.shape).astype(dtype)
            grouped = L.LRN(alpha=0.5, groups=2)
            out, grad = grouped.forward(x), grouped.backward(g)
            for half in (slice(0, 4), slice(4, 8)):
                single = L.LRN(alpha=0.5, groups=1)
                assert out[:, half].tobytes() == single.forward(x[:, half]).tobytes()
                assert grad[:, half].tobytes() == single.backward(g[:, half]).tobytes()
            ref_out, ref_grad = self.per_half_reference(grouped, x, g)
            assert out.tobytes() == ref_out.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_gradient_vs_finite_differences(self):
        x = rng.standard_normal((2, 6, 4, 4))
        lrn = L.LRN(depth_radius=2, k=1.0, alpha=0.5, beta=0.75)
        report = grad_check_layer(lrn, x, tolerance=1e-4)
        assert report.passed, str(report)

    def test_grouped_gradient(self):
        x = rng.standard_normal((2, 8, 3, 3))
        report = grad_check_layer(L.LRN(alpha=0.5, groups=2), x, tolerance=1e-4)
        assert report.passed, str(report)

    def test_nonpositive_k(self):
        with pytest.raises(ConfigError):
            L.LRN(k=0.0)


class TestDense:
    def test_identity(self):
        d = L.Dense(4, 4)
        d.weights[...] = np.eye(4)
        d.bias[...] = 0.0
        x = rng.random((3, 4))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_constant(self):
        d = L.Dense(4, 2)
        d.weights[...] = 0.0
        d.bias[...] = 7.0
        out = d.forward(rng.random((3, 4)))
        np.testing.assert_array_equal(out, np.full((3, 2), 7.0))

    def test_gradient_vs_finite_differences(self):
        d = L.Dense(6, 4)
        d.weights[...] = np.random.default_rng(3).standard_normal((4, 6))
        report = grad_check_layer(d, rng.standard_normal((5, 6)), tolerance=1e-6)
        assert report.passed, str(report)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            L.Dense(6, 4).forward(np.zeros((2, 5)))


class TestDropout:
    def test_p_zero_identity(self):
        x = rng.random((4, 4))
        drop = L.Dropout(0.0)
        np.testing.assert_array_equal(drop.forward(x, train=True), x)
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_eval_identity(self):
        x = rng.random((4, 4))
        np.testing.assert_array_equal(L.Dropout(0.7).forward(x, train=False), x)

    def test_empirical_zero_fraction(self):
        drop = L.Dropout(0.3, rng=np.random.default_rng(0))
        x = np.ones((1000, 1000))
        out = drop.forward(x, train=True)
        frac = float((out == 0).mean())
        assert abs(frac - 0.3) < 0.005
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7, rtol=1e-12)

    def test_backward_uses_same_mask(self):
        drop = L.Dropout(0.5, rng=np.random.default_rng(1))
        x = rng.random((10, 10))
        out = drop.forward(x, train=True)
        g = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal((out == 0), (g == 0))

    def test_p_out_of_range(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                L.Dropout(p)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        sm = L.SoftmaxCrossEntropy()
        loss, probs = sm.forward(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
        np.testing.assert_allclose(loss, np.log(10.0), rtol=1e-12)
        np.testing.assert_allclose(probs, 0.1, rtol=1e-12)

    def test_saturation(self):
        sm = L.SoftmaxCrossEntropy()
        loss, _ = sm.forward(np.array([[100.0, 0.0]]), np.array([0]))
        assert loss < 1e-10

    def test_rows_sum_to_one(self):
        sm = L.SoftmaxCrossEntropy()
        logits = rng.standard_normal((8, 10)) * 5
        _, probs = sm.forward(logits, rng.integers(0, 10, 8))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        sm = L.SoftmaxCrossEntropy()
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, 4)
        _, _ = sm.forward(logits, labels)
        analytic = sm.backward()
        step = 1e-6
        for i in range(4):
            for j in range(6):
                pert = logits.copy()
                pert[i, j] += step
                lp, _ = sm.forward(pert, labels)
                pert[i, j] -= 2 * step
                lm, _ = sm.forward(pert, labels)
                numeric = (lp - lm) / (2 * step)
                assert abs(analytic[i, j] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            L.SoftmaxCrossEntropy().forward(np.zeros((1, 3)), np.array([3]))


# -- algebraic invariants from the MaxMin construction ----------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maxmin_relu_sparsity(seed):
    """The two post-ReLU halves have elementwise product exactly zero."""
    x = np.random.default_rng(seed).standard_normal((1, 3, 4, 4))
    out = L.ReLU().forward(L.MaxMin().forward(x))
    assert not (out[:, :3] * out[:, 3:]).any()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relu_maxpool_commute(seed):
    x = np.random.default_rng(seed).standard_normal((2, 2, 6, 6))
    a = L.MaxPool(3, 2).forward(L.ReLU().forward(x))
    b = L.ReLU().forward(L.MaxPool(3, 2).forward(x))
    np.testing.assert_array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bidirectional_pooling_identity(seed):
    """(max relu X, max relu -X) == (relu max X, relu -min X) per window."""
    x = np.random.default_rng(seed).standard_normal(9)
    lhs = (np.maximum(x, 0).max(), np.maximum(-x, 0).max())
    rhs = (max(x.max(), 0.0), max(-x.min(), 0.0))
    assert lhs == rhs
