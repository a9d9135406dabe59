"""Differentiable layers with explicit forward/backward passes.

Every layer caches its forward input and exposes accumulated parameter
gradients through ``params()``. A layer instance is single-threaded:
forward and backward mutate the caches, never their inputs.
"""
import math

import numpy as np

from .errors import ConfigError, LayerStateError, ShapeError
from .tensor import col2im, conv_dft, conv_out_size, im2col, pool_out_size


class Layer:
    """Base layer: stateless unless a subclass owns parameters."""

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError

    def params(self):
        """Yield (name, value, grad) triples for learnable parameters."""
        return []

    def zero_grads(self):
        for _, _, g in self.params():
            g[...] = 0.0

    def _require_forward(self, cache):
        if cache is None:
            raise LayerStateError(f"{type(self).__name__}: backward called before forward")

    def kink_signature(self):
        """Bytes identifying the active piece of a piecewise-linear layer.

        Smooth layers return b""; the gradient checker compares
        signatures across perturbations to spot crossings of
        non-differentiable points.
        """
        return b""


class Conv2D(Layer):
    """2-D cross-correlation (no kernel flip) lowered to GEMMs.

    Each forward picks its lowering from its shapes (see ``lowering``).
    A conv that takes the DFT transforms its input and weights with the
    cached real DFT matrices of ``tensor.conv_dft`` (one GEMM each),
    multiplies X (n x c) by conj(W)' (c x f) at each frequency, and
    transforms the product back at the output positions. Its backward
    reuses both spectra: dW = G^H X, back at the kernel taps, and
    dX = G W, back at the input positions. Every other conv lowers its
    input: im2col and a GEMM forward, a GEMM and col2im backward.
    ``backward(grad_out, input_grad=False)`` accumulates the parameter
    gradients only, skips the input-gradient pass, and returns None:
    nothing reads the input gradient of conv1.
    """

    def __init__(self, in_channels, filters, kernel_size, stride=1, pad=0, *,
                 rng, dtype=np.float64):
        if min(in_channels, filters, kernel_size) < 1:
            raise ConfigError(f"Conv2D: bad {in_channels}->{filters} channels, kernel {kernel_size}")
        self.stride = stride
        self.pad = pad
        self.weights = rng.normal(0.0, 0.01,
                                  (filters, in_channels, kernel_size, kernel_size)).astype(dtype)
        self.bias = np.zeros(filters, dtype=dtype)
        self.w_grad = np.zeros_like(self.weights)
        self.b_grad = np.zeros_like(self.bias)
        self._lowered = None  # im2col(x), or the spectra (X, W) of a DFT forward
        self._x_shape = None

    def lowering(self, x_shape):
        """"dft" or "im2col": the lowering that a forward of an ``x_shape`` input takes.

        The DFT runs at the padded input's size P x Q, whose half spectrum
        holds F2 = 2*P*(Q//2 + 1) real values per map. A stride-1 conv of
        c channels into f filters of k x k at batch n takes it when both
        of these hold; anything else takes im2col.

        - F2*(c + f) < k*k*c*f: per output position, transforming the c
          input and the f output maps (F2 multiply-adds per map) costs
          less than the spatial product.
        - 2*n > k*k: the weight transform, F2*k*k multiply-adds per
          (filter, channel) pair, costs less than that pair's
          per-frequency products over the batch, 2*F2*n.

        The per-frequency products, 2*F2*c*f multiply-adds per image,
        are not weighed against the spatial product, so a conv near the
        boundary takes the DFT at little saving: conv2 of the CIFAR
        maxmin preset (64 -> 32 on 16x16) does 99% of the spatial
        multiply-adds at batch 64. In the presets conv1 always takes
        im2col, every conv takes it at the gradient check's batch of 2,
        and conv2 and conv3 take the DFT from batch 13 on.
        """
        n, _, h, w = x_shape
        f, c, k, _ = self.weights.shape
        spectrum = 2 * (h + 2 * self.pad) * ((w + 2 * self.pad) // 2 + 1)
        if self.stride == 1 and spectrum * (c + f) < k * k * c * f and 2 * n > k * k:
            return "dft"
        return "im2col"

    def forward(self, x, train=False):
        f, c, kh, kw = self.weights.shape
        if x.ndim != 4 or x.shape[1] != c:
            raise ShapeError(f"Conv2D: input {x.shape} does not match weights {self.weights.shape}")
        n = x.shape[0]
        ho = conv_out_size(x.shape[2], kh, self.stride, self.pad)
        wo = conv_out_size(x.shape[3], kw, self.stride, self.pad)
        self._x_shape = x.shape
        if self.lowering(x.shape) == "dft":
            return self._dft_forward(x, ho, wo)
        self._lowered = im2col(x, kh, kw, self.stride, self.pad)
        out = self.weights.reshape(f, -1) @ self._lowered + self.bias[:, None]
        return out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)

    def backward(self, grad_out, input_grad=True):
        self._require_forward(self._lowered)
        f, c, kh, kw = self.weights.shape
        fo = grad_out.shape[1]
        if fo != f:
            raise ShapeError(f"Conv2D backward: grad channels {fo} != filters {f}")
        if isinstance(self._lowered, tuple):
            return self._dft_backward(grad_out, input_grad)
        g = grad_out.transpose(1, 0, 2, 3).reshape(f, -1)
        self.b_grad += g.sum(axis=1)
        self.w_grad += (g @ self._lowered.T).reshape(self.weights.shape)
        if not input_grad:
            return None
        dcols = self.weights.reshape(f, -1).T @ g
        return col2im(dcols, self._x_shape, kh, kw, self.stride, self.pad)

    # A spectrum is planar, (frequency, re/im, rows, columns): at each
    # frequency [Ar; Ai] is one (2*rows x columns) matrix, so a complex
    # product is two real GEMMs and a signed add of their halves. Each
    # temporary is dropped before the next large one is allocated.

    def _dft(self, dtype):
        _, _, h, w = self._x_shape
        return conv_dft(h, w, self.pad, self.weights.shape[2], dtype)

    def _dft_forward(self, x, ho, wo):
        n, c, h, w = x.shape
        f = self.weights.shape[0]
        (x_dft, _), (w_dft, _), (_, y_idft) = self._dft(np.result_type(x, self.weights))
        xs = (x_dft @ x.reshape(n * c, h * w).T).reshape(-1, 2 * n, c)
        ws = (w_dft @ self.weights.reshape(f * c, -1).T).reshape(-1, 2, f, c)
        self._lowered = (xs, ws)
        ys = xs @ ws[:, 0].transpose(0, 2, 1)  # [Xr Wr'; Xi Wr']
        xwi = xs @ ws[:, 1].transpose(0, 2, 1)  # [Xr Wi'; Xi Wi']
        ys[:, :n] += xwi[:, n:]  # Y = X conj(W)': Xr Wr' + Xi Wi'
        ys[:, n:] -= xwi[:, :n]  # and Xi Wr' - Xr Wi'
        del xwi
        out = (ys.reshape(-1, n * f).T @ y_idft).reshape(n, f, ho, wo)
        out += self.bias[:, None, None]
        return out

    def _dft_backward(self, grad_out, input_grad):
        n, f = grad_out.shape[:2]
        c = self.weights.shape[1]
        xs, ws = self._lowered
        (_, x_idft), (_, w_idft), (y_dft, _) = self._dft(xs.dtype)
        self.b_grad += grad_out.sum(axis=(0, 2, 3))
        gs = (y_dft @ grad_out.reshape(n * f, -1).T).reshape(-1, 2 * n, f)
        gr_t, gi_t = gs[:, :n].transpose(0, 2, 1), gs[:, n:].transpose(0, 2, 1)
        dws = np.empty((len(gs), 2, f, c), dtype=xs.dtype)  # dW = G^H X:
        np.matmul(gs.transpose(0, 2, 1), xs, out=dws[:, 0])  # Gr'Xr + Gi'Xi
        np.matmul(gr_t, xs[:, n:], out=dws[:, 1])
        dws[:, 1] -= gi_t @ xs[:, :n]  # and Gr'Xi - Gi'Xr
        self.w_grad += (dws.reshape(-1, f * c).T @ w_idft).reshape(self.weights.shape)
        del dws
        if not input_grad:
            return None
        dxs = gs @ ws[:, 0]  # [Gr Wr; Gi Wr]
        gwi = gs @ ws[:, 1]  # [Gr Wi; Gi Wi]
        dxs[:, :n] -= gwi[:, n:]  # dX = G W: Gr Wr - Gi Wi
        dxs[:, n:] += gwi[:, :n]  # and Gi Wr + Gr Wi
        del gwi
        return (dxs.reshape(-1, n * c).T @ x_idft).reshape(self._x_shape)

    def params(self):
        return [("weights", self.weights, self.w_grad), ("bias", self.bias, self.b_grad)]


class MaxMin(Layer):
    """Concatenate the input with its negation along channels.

    Doubles map depth so that ReLU downstream keeps both strong positive
    and strong negative filter responses. Half ordering is
    [original | negated] and is part of the serialization contract.
    """

    def __init__(self):
        self._channels = None

    def forward(self, x, train=False):
        self._channels = x.shape[1]
        return np.concatenate((x, -x), axis=1)

    def backward(self, grad_out):
        self._require_forward(self._channels)
        c2 = grad_out.shape[1]
        if c2 != 2 * self._channels:
            raise ShapeError(
                f"MaxMin backward: expected {2 * self._channels} channels, got {c2}"
            )
        c = self._channels
        return grad_out[:, :c] - grad_out[:, c:]


class ReLU(Layer):
    """max(x, 0); the subgradient at exactly 0 is 0.

    A NaN input stays NaN rather than being zeroed, so it reaches the
    loss and ``train`` stops with DivergenceError.
    """

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out):
        self._require_forward(self._mask)
        # a multiply is 4x faster than np.where(mask, g, 0); for finite g it
        # differs only in the sign of a zero (an off unit gives g * 0)
        return grad_out * self._mask

    def kink_signature(self):
        return np.packbits(self._mask).tobytes() if self._mask is not None else b""


class MaxPool(Layer):
    """Max pooling with edge-clamped windows.

    Output size is ceil((H - window)/stride) + 1; the last window along
    each axis clamps to the input edge, which preserves the 32->16->8->4
    progression for 3x3 windows at stride 2. The max is separable, over
    each window's columns and then its rows, one contiguous array per tap
    (see ``_taps``). Ties go to the first max in row-major window order;
    each output keeps that tap's row-major index in its window (one byte
    up to 16x16 windows) as the route of its gradient.

    ``forward(x, relu=r)`` stands for the chain that ends in this pool
    and returns its r ReLU'd halves, byte for byte: relu(maxpool x) is
    ReLU, MaxPool (r = 1), and [relu(maxpool x) | relu(-minpool x)],
    pooled from the same taps, is MaxMin, ReLU, MaxPool on x's C channels
    (r = 2). An output pooled to 0 routes to tap 0 with a zero gradient,
    where the chain's ReLU mask zeroed it; the min half's gradient changes
    sign, as MaxMin's backward does. ``Network`` calls each such run this
    way; r = 0, the default, is the plain pool.

    Only a training forward tracks routes. Any other forward computes
    window values alone; ``backward`` and ``kink_signature`` compute the
    routes from the cached input when first asked, which only the
    gradient check does.
    """

    def __init__(self, window=3, stride=2):
        if window < 1 or stride < 1:
            raise ConfigError(f"MaxPool: invalid window {window} / stride {stride}")
        self.window = window
        self.stride = stride
        self._cache = None  # (x, relu, routes or None until first asked)

    def _starts(self, size):
        """First input index of each window along an axis of ``size``."""
        extent = pool_out_size(size, self.window, self.stride)
        return np.minimum(np.arange(extent) * self.stride, size - 1)

    def _taps(self, x, axis):
        """Tap t of every window along ``axis``, for each t in range(window).

        Tap t is an array shaped like x but with p = windows +
        (window - 1) // stride slots along ``axis``; slot j holds tap t of
        window j, and slots from the window count on are scratch. x is
        copied once into its stride phases (slot j of phase r holds
        x[j * stride + r]), and tap q * stride + r is phase r shifted by q
        slots, so every tap is a contiguous array: numpy runs each compare
        and max over it as one loop rather than one per row. A window that
        does not reach a tap reads there the axis's last element, a tap it
        already had, which a strict comparison never picks; an edge-clamped
        window reads it at every tap.
        """
        k, s, size = self.window, self.stride, x.shape[axis]
        windows = pool_out_size(size, k, s)
        p = windows + (k - 1) // s
        shape = x.shape[:axis] + (p,) + x.shape[axis + 1:]
        inner = math.prod(shape[axis + 1:])
        count = math.prod(shape)
        at, edge = [slice(None)] * x.ndim, [slice(None)] * x.ndim
        edge[axis] = slice(size - 1, size)
        edge = x[tuple(edge)]
        # one buffer for all phases, zeroed: scratch slots are read, and a
        # shifted tap of the last phase runs past its end
        phases = np.zeros(min(s, k) * count + (k - 1) // s * inner, x.dtype)
        for r in range(min(s, k)):
            phase = phases[r * count:(r + 1) * count].reshape(shape)
            m = min(p, (size - 1 - r) // s + 1)  # slots of phase r inside the axis
            at[axis] = slice(r, r + s * (m - 1) + 1, s)
            src = x[tuple(at)]
            at[axis] = slice(0, m)
            phase[tuple(at)] = src
            # window j reads phase r up to slot j + (k - 1 - r) // s
            if m < windows + (k - 1 - r) // s:
                at[axis] = slice(m, windows + (k - 1 - r) // s)
                phase[tuple(at)] = edge
        return [phases[(t % s) * count + t // s * inner:][:count].reshape(shape)
                for t in range(k)]

    def _first(self, taps, lowest=False, inner=None, routes=True):
        """Each slot's max (min if ``lowest``) over ``taps``, and the label of its first extreme.

        Tap t's label is t, or t * window + inner[t] (the tap chosen along
        the other axis). Labels grow with t; a strict comparison keeps the
        earlier tap. Without ``routes`` the label is None.
        """
        k = self.window
        best = taps[0].copy()
        route = None
        if routes:
            route = (np.zeros(best.shape, np.min_scalar_type(k * k - 1)) if inner is None
                     else inner[0].copy())
            tap = route.dtype.type
        beats, keep = (np.less, np.minimum) if lowest else (np.greater, np.maximum)
        for t in range(1, k):
            src = taps[t]
            if route is not None:
                label = tap(t) if inner is None else inner[t] + tap(t * k)
                np.maximum(route, beats(src, best) * label, out=route)
            # a NaN propagates; on a -0/+0 tie numpy's x86 max and min return
            # their second operand, so best, the earlier tap, keeps its sign
            keep(src, best, out=best)
        return best, route

    def _pool(self, columns, shape, lowest, routes):
        """Window max (min if ``lowest``) and its route, from the column taps of x.

        ``shape`` is x's shape. Columns first, then rows: the first extreme
        in row-major order wins.
        """
        ho, wo = (pool_out_size(size, self.window, self.stride) for size in shape[2:])
        cols, col_route = self._first(columns, lowest, routes=routes)
        inner = self._taps(col_route[..., :wo], 2) if routes else None
        out, route = self._first(self._taps(cols[..., :wo], 2), lowest, inner, routes)
        return out[:, :, :ho], (route[:, :, :ho] if routes else None)

    def _run(self, x, relu, routes):
        """The pooled output, and with ``routes`` each output's (route, gradient sign or None)."""
        columns = self._taps(x, 3)  # both halves pool the same taps
        values, halves = zip(*(self._pool(columns, x.shape, lowest, routes)
                               for lowest in (False, True)[:max(relu, 1)]))
        out = np.concatenate(values, axis=1)
        route = np.concatenate(halves, axis=1) if routes else None
        if relu:
            np.negative(out[:, x.shape[1]:], out=out[:, x.shape[1]:])  # relu(-minpool x)
            np.maximum(out, 0, out=out)  # a -0 tie returns the second operand, +0
        if not (relu and routes):
            return out, (route, None) if routes else None
        # the chain's ReLU passes a gradient where a half pooled a value > 0;
        # the min half's gradient changes sign, as MaxMin's backward does
        active = out > 0
        sign = active.astype(np.int8)
        sign[:, x.shape[1]:] *= -1
        return out, (route * active, sign)

    def forward(self, x, train=False, relu=0):
        out, routes = self._run(x, relu, routes=train)
        self._cache = (x, relu, routes)
        return out

    def _routes(self):
        x, relu, routes = self._cache
        if routes is None:
            routes = self._run(x, relu, routes=True)[1]
            self._cache = (x, relu, routes)
        return routes

    def backward(self, grad_out):
        self._require_forward(self._cache)
        route, sign = self._routes()
        if grad_out.shape != route.shape:
            raise ShapeError(f"MaxPool backward: grad shape {grad_out.shape} != {route.shape}")
        n, c, h, w = self._cache[0].shape
        k = self.window
        # flat input index of each output's routed tap, in output order; the
        # two halves of a relu=2 pool both route into x's C channels
        src = np.add.outer(np.arange(k) * w, np.arange(k)).reshape(-1)[route]
        planes = np.arange(n)[:, None] * c + np.arange(route.shape[1]) % c
        src += (planes * (h * w)).reshape(n, -1, 1, 1)
        src += (self._starts(h) * w)[:, None] + self._starts(w)
        dx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
        np.add.at(dx.reshape(-1), src.reshape(-1),
                  (grad_out if sign is None else grad_out * sign).reshape(-1))
        return dx

    def kink_signature(self):
        """The state ``backward`` reads: the routes, then a relu pool's gradient signs."""
        if self._cache is None:
            return b""
        return b"".join(a.tobytes() for a in self._routes() if a is not None)


class LRN(Layer):
    """Cross-channel response normalization.

    out[c] = x[c] / (k + alpha * sum of x[c']^2 over |c'-c| <= radius)^beta,
    window clipped at channel boundaries. ``groups`` splits the channel
    axis into contiguous groups normalized independently; MaxMin presets
    use groups=2 so the original and negated halves never mix.
    """

    def __init__(self, depth_radius=2, k=1.0, alpha=1e-4, beta=0.75, groups=1):
        if k <= 0:
            raise ConfigError(f"LRN: k must be positive, got {k}")
        if depth_radius < 0:
            raise ConfigError(f"LRN: negative depth_radius {depth_radius}")
        self.radius = depth_radius
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.groups = groups
        self._cache = None

    def _window_sum(self, q):
        """Sum of q over each channel's window, clipped at its group's edges."""
        shape = q.shape
        # (N, groups, channels per group, ...): each window runs along axis 2 alone
        q = q.reshape(shape[:1] + (self.groups, shape[1] // self.groups) + shape[2:])
        s = np.zeros(q.shape, q.dtype)
        gc = q.shape[2]
        for d in range(-self.radius, self.radius + 1):
            if d >= 0:
                s[:, :, :gc - d] += q[:, :, d:]
            else:
                s[:, :, -d:] += q[:, :, :gc + d]
        return s.reshape(shape)

    def forward(self, x, train=False):
        if x.shape[1] % self.groups != 0:
            raise ShapeError(f"LRN: {x.shape[1]} channels not divisible into {self.groups} groups")
        denom = self._window_sum(x * x)  # k + alpha * sum, built in the sum's buffer
        denom *= self.alpha
        denom += self.k
        dpow = denom ** (-self.beta)
        self._cache = (x, denom, dpow)
        return x * dpow

    def backward(self, grad_out):
        self._require_forward(self._cache)
        x, denom, dpow = self._cache
        # in place, so at most two full-size temporaries are live at once
        t = grad_out * x
        t *= dpow
        t /= denom
        t = self._window_sum(t)
        t *= x * (2.0 * self.alpha * self.beta)
        out = grad_out * dpow
        out -= t
        return out


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        self._require_forward(self._shape)
        return grad_out.reshape(self._shape)


class Dense(Layer):
    """Fully connected layer, out = x @ W.T + b with W of shape (out, in)."""

    def __init__(self, in_features, out_features, *, rng, dtype=np.float64):
        if min(in_features, out_features) < 1:
            raise ConfigError(f"Dense: bad {in_features}->{out_features} features")
        self.weights = rng.normal(0.0, 0.01, (out_features, in_features)).astype(dtype)
        self.bias = np.zeros(out_features, dtype=dtype)
        self.w_grad = np.zeros_like(self.weights)
        self.b_grad = np.zeros_like(self.bias)
        self._x = None

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"Dense: input {x.shape} does not match weights {self.weights.shape}")
        self._x = x
        return x @ self.weights.T + self.bias

    def backward(self, grad_out):
        self._require_forward(self._x)
        self.w_grad += grad_out.T @ self._x
        self.b_grad += grad_out.sum(axis=0)
        return grad_out @ self.weights

    def params(self):
        return [("weights", self.weights, self.w_grad), ("bias", self.bias, self.b_grad)]


class Dropout(Layer):
    """Inverted dropout: train-time mask scaled by 1/(1-p) in the input's dtype; eval identity."""

    def __init__(self, p, *, rng):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"Dropout: p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.p == 0.0:
            self._mask = 1  # identity: backward passes the gradient through
            return x
        keep = self.rng.random(x.shape) >= self.p
        self._mask = keep * x.dtype.type(1.0 / (1.0 - self.p))
        return x * self._mask

    def backward(self, grad_out):
        self._require_forward(self._mask)
        return grad_out * self._mask


class SoftmaxCrossEntropy:
    """Row-stabilized softmax with mean negative log-likelihood loss."""

    def __init__(self):
        self._probs = None
        self._labels = None

    def forward(self, logits, labels):
        labels = np.asarray(labels)
        k = logits.shape[1]
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
            raise ShapeError(f"labels out of range [0, {k})")
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        n = logits.shape[0]
        with np.errstate(divide="ignore"):  # inf loss surfaces as divergence upstream
            loss = -np.log(probs[np.arange(n), labels]).mean()
        self._probs = probs
        self._labels = labels
        return loss, probs

    def backward(self):
        if self._probs is None:
            raise LayerStateError("SoftmaxCrossEntropy: backward called before forward")
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        return grad / n
