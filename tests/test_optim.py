import numpy as np
import pytest

from maxmin_cnn import models
from maxmin_cnn.errors import DivergenceError
from maxmin_cnn.optim import SGD, PlateauScheduler


class OneParamNet:
    """Minimal params() provider for unit-testing the update rule."""

    def __init__(self, p, g):
        self.p = np.asarray(p, dtype=np.float64)
        self.g = np.asarray(g, dtype=np.float64)

    def params(self):
        yield 0, "p", self.p, self.g


class TestSGDStep:
    def test_fixed_point(self):
        net = OneParamNet([1.0, -2.0], [0.0, 0.0])
        SGD(0.9, 0.0).step(net, 0.1)
        np.testing.assert_array_equal(net.p, [1.0, -2.0])

    def test_single_step_hand_arithmetic(self):
        net = OneParamNet([1.0], [1.0])
        opt = SGD(0.9, 0.0)
        opt.step(net, 0.1)
        np.testing.assert_allclose(net.p, [0.9], rtol=1e-15)
        np.testing.assert_allclose(opt._velocity[(0, "p")], [-0.1], rtol=1e-15)

    def test_two_steps_hand_arithmetic(self):
        net = OneParamNet([1.0], [1.0])
        opt = SGD(0.9, 0.0)
        opt.step(net, 0.1)
        opt.step(net, 0.1)
        np.testing.assert_allclose(opt._velocity[(0, "p")], [-0.19], rtol=1e-15)
        np.testing.assert_allclose(net.p, [0.71], rtol=1e-15)

    def test_zero_momentum_is_vanilla_gd(self):
        rng = np.random.default_rng(0)
        p0 = rng.standard_normal(5)
        g = rng.standard_normal(5)
        net = OneParamNet(p0.copy(), g)
        SGD(0.0, 0.0).step(net, 0.05)
        np.testing.assert_array_equal(net.p, p0 - 0.05 * g)

    def test_weight_decay_shrinks_norm(self):
        net = OneParamNet([2.0, -3.0], [0.0, 0.0])
        opt = SGD(0.0, 0.5)
        prev = np.linalg.norm(net.p)
        for _ in range(10):
            opt.step(net, 0.1)
            norm = np.linalg.norm(net.p)
            assert norm < prev
            # closed form for m=0: per-step factor (1 - lr*wd)
            np.testing.assert_allclose(norm, prev * (1 - 0.1 * 0.5), rtol=1e-12)
            prev = norm

    def test_non_finite_gradient_names_parameter(self):
        net = OneParamNet([1.0], [np.nan])
        with pytest.raises(DivergenceError, match="'p'"):
            SGD().step(net, 0.1)

    def test_deterministic_updates_on_real_net(self):
        def run():
            rng = np.random.default_rng(3)
            net = models.build_net("mnist", "maxmin", filters=(2, 2, 2), seed=9)
            opt = SGD(0.9, 1e-3)
            for _ in range(3):
                x = rng.random((4, 1, 32, 32))
                y = rng.integers(0, 10, 4)
                net.zero_grads()
                net.loss(x, y, train=True)
                net.backward()
                opt.step(net, 0.01)
            return np.concatenate([v.reshape(-1) for _, _, v, _ in net.params()])

        np.testing.assert_array_equal(run(), run())


class TestPlateauSchedule:
    def test_strictly_improving(self):
        sched = PlateauScheduler(0.01, patience=2)
        rates = [sched.update(a) for a in [0.1, 0.2, 0.3, 0.4]]
        assert rates[-1] == 0.01

    def test_flat_history(self):
        sched = PlateauScheduler(0.01, patience=3, factor=0.1)
        rates = [sched.update(a) for a in [0.5, 0.5, 0.5, 0.5]]
        assert rates[-1] == pytest.approx(0.001)

    def test_hand_walked_example(self):
        sched = PlateauScheduler(0.01, patience=2, factor=0.1)
        rates = [sched.update(a) for a in [0.70, 0.72, 0.72, 0.72]]
        assert rates == [0.01, 0.01, 0.01, pytest.approx(0.001)]

    def test_counter_resets_after_reduction(self):
        sched = PlateauScheduler(0.01, patience=3, factor=0.1)
        rates = [sched.update(a) for a in [0.5] * 7]
        assert rates[-1] == pytest.approx(1e-4)  # two reductions in six stalled evals

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PlateauScheduler(0.01, patience=0)
        with pytest.raises(ValueError):
            PlateauScheduler(0.01, factor=1.5)
        with pytest.raises(ValueError):
            PlateauScheduler(-1.0)
        with pytest.raises(ValueError):
            SGD(momentum=1.0)
        with pytest.raises(ValueError):
            SGD(weight_decay=-0.1)
